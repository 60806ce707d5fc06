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

    ``rank_by_shared_bigrams`` returns the top ``k`` vocabulary words by
    number of the distinct character ``bigrams`` they contain, then corpus
    frequency, then word, leaving out ``exclude``; the candidate generator
    calls it once per error word. ``unigrams_containing_bigram`` is the
    sorted postings list of one bigram (capped at 1000 words over HTTP).
    """

    @property
    def max_order(self) -> int: ...

    def unigram_exists(self, token: str) -> bool: ...

    def ngram_count(self, tokens: Sequence[str]) -> int: ...

    def unigrams_containing_bigram(self, bigram: str) -> list[str]: ...

    def rank_by_shared_bigrams(self, bigrams: Iterable[str], k: int,
                               exclude: str | None = None
                               ) -> list[Candidate]: ...
