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
    many errors it has: one ``ngram_count`` for non-word detection and
    one ``rank_by_shared_bigrams`` for every error's candidates and the
    counts that select among them, every backoff order included. The
    real-word pass adds at most two counts and one ranking for
    detection, and one count for the suspects' own words. Over HTTP a
    call is one request per 64 KiB of body.

    A token is a non-empty string that holds no whitespace; anything else
    where a token or a word is due is a ValueError, whatever the backend
    (``store.check_query`` and ``store.check_pairs``).

    ``ngram_count`` takes a sequence of queries, each a sequence of
    1..max_order tokens, and returns one raw corpus count per query, in
    order. ``unigram_exists(token)`` equals a count above 0.

    ``rank_by_shared_bigrams`` takes a sequence of ``(context, word)``
    pairs, a context being at most ``max_order - 1`` tokens. For each
    pair it returns the word's top ``TOP_K`` (8) vocabulary words by
    number of distinct character bigrams shared with it, then corpus
    frequency, then word, as ``Candidate``s, and the counts of
    ``selection_queries(context, their words)``, in that order. The word
    itself is never among them, and a word shorter than two characters
    has none (and no counts). ``unigrams_containing_bigram`` is the
    sorted postings list of one bigram (capped at 1000 words over HTTP).
    """

    @property
    def max_order(self) -> int: ...

    def unigram_exists(self, token: str) -> bool: ...

    def ngram_count(self, queries: Sequence[Sequence[str]]) -> list[int]: ...

    def unigrams_containing_bigram(self, bigram: str) -> list[str]: ...

    def rank_by_shared_bigrams(
            self, pairs: Sequence[tuple[Sequence[str], str]]
    ) -> list[tuple[list[Candidate], list[int]]]: ...
