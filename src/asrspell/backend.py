"""Lookup backend contract shared by the local index and the HTTP client."""
from typing import Iterable, Protocol, Sequence, runtime_checkable

from asrspell.candidates import Candidate


class BackendError(RuntimeError):
    """A lookup backend failed (network fault, bad response, ...).

    Deliberately distinct from a zero count: callers must never confuse
    "the backend is down" with "this n-gram was not seen".
    """


@runtime_checkable
class Backend(Protocol):
    """What the detector, candidate generator and corrector need from a
    lookup source. ``NgramIndex`` satisfies it directly; ``RemoteBackend``
    satisfies it over HTTP, with every answer equal to the local one.

    ``ngram_count`` is a batch: it takes a sequence of queries, each a
    sequence of 1..max_order tokens, and returns one raw corpus count per
    query, in order. A query given as a bare string is a ValueError, so a
    string is never counted as a sequence of characters. The pipeline
    makes one call per stage: one for non-word detection, at most two
    for the real-word pass, and one per error's selection, every backoff
    order included. Over HTTP a call is one request per 64 KiB of
    queries. ``unigram_exists(token)`` equals a count above 0.

    ``rank_by_shared_bigrams`` returns the top ``k`` vocabulary words by
    number of the distinct character ``bigrams`` they contain, then corpus
    frequency, then word, leaving out ``exclude``; the candidate generator
    calls it once per error word. ``unigrams_containing_bigram`` is the
    sorted postings list of one bigram (capped at 1000 words over HTTP).
    """

    @property
    def max_order(self) -> int: ...

    def unigram_exists(self, token: str) -> bool: ...

    def ngram_count(self, queries: Sequence[Sequence[str]]) -> list[int]: ...

    def unigrams_containing_bigram(self, bigram: str) -> list[str]: ...

    def rank_by_shared_bigrams(self, bigrams: Iterable[str], k: int,
                               exclude: str | None = None
                               ) -> list[Candidate]: ...
