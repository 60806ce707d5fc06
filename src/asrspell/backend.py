"""Lookup backend contract shared by the local index and the HTTP client."""
from typing import Protocol, Sequence, runtime_checkable

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

    Both lookup methods are batches, and a bare string where a sequence
    is due is a ValueError, so a string is never read as a sequence of
    characters. A transcript costs one call per pipeline stage, however
    many errors it has: one ``ngram_count`` for non-word detection, one
    ``rank_by_shared_bigrams`` for every error's candidates, and one
    ``ngram_count`` for every error's selection, every backoff order
    included. The real-word pass adds at most two counts and one
    ranking. Over HTTP a call is one request per 64 KiB of body.

    ``ngram_count`` takes a sequence of queries, each a sequence of
    1..max_order tokens, and returns one raw corpus count per query, in
    order. ``unigram_exists(token)`` equals a count above 0.

    ``rank_by_shared_bigrams`` takes a sequence of words and returns, for
    each, its top ``TOP_K`` (8) vocabulary words by number of distinct
    character bigrams shared with it, then corpus frequency, then word.
    The word itself is never among them, and a word shorter than two
    characters has none. A word that is empty or holds whitespace is a
    ValueError (``store.check_words``), whatever the backend.
    ``unigrams_containing_bigram`` is the sorted postings list of one
    bigram (capped at 1000 words over HTTP).
    """

    @property
    def max_order(self) -> int: ...

    def unigram_exists(self, token: str) -> bool: ...

    def ngram_count(self, queries: Sequence[Sequence[str]]) -> list[int]: ...

    def unigrams_containing_bigram(self, bigram: str) -> list[str]: ...

    def rank_by_shared_bigrams(self, words: Sequence[str]
                               ) -> list[list[Candidate]]: ...
