"""Candidate corrections by shared character-bigram counting.

An error word is decomposed into its distinct adjacent character pairs;
every vocabulary word containing at least one of those pairs is scored by
how many distinct pairs it shares, and the top ``TOP_K`` survive.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

# How many candidates each error keeps.
TOP_K = 8


def char_bigrams(token: str) -> list[str]:
    """Distinct adjacent character pairs, in first-occurrence order.

    Tokens shorter than two characters have none.
    """
    return list(dict.fromkeys(map(add, token, token[1:])))


def shared_bigram_count(a: str, b: str) -> int:
    """Number of distinct character bigrams the two words have in common."""
    return len(set(char_bigrams(a)) & set(char_bigrams(b)))


@dataclass(frozen=True)
class Candidate:
    word: str
    shared: int          # distinct character bigrams shared with the error
    unigram_count: int   # corpus occurrences of the word

    def sort_key(self):
        return (-self.shared, -self.unigram_count, self.word)


def generate_candidates(error: str, backend) -> list[Candidate]:
    """The top ``TOP_K`` correction candidates for `error`, ranked by
    shared bigram count, then corpus frequency, then word.

    The error word itself is never a candidate. Returns an empty list when
    no vocabulary word shares a bigram with the error (callers leave such
    errors uncorrected). The pipeline ranks all of a transcript's errors
    in one ``rank_by_shared_bigrams`` call instead; this is the same
    ranking for one word with an empty context.
    """
    candidates, _ = backend.rank_by_shared_bigrams([((), error)])[0]
    return candidates


def _orders(prefix: Sequence[str], words: Sequence[str]) -> range:
    """The orders selection may try, highest first."""
    if not words:
        raise ValueError("words must be non-empty")
    return range(len(prefix) + 1, 0, -1)


def selection_queries(prefix: Sequence[str], words: Sequence[str]
                      ) -> list[tuple[str, ...]]:
    """The ``ngram_count`` queries whose counts selection reads: every
    word after `prefix` at every order from the full one down to 1, in
    word order within an order.

    No context needs counting first: every occurrence of ``context +
    word`` is an occurrence of ``context``, so a query whose context
    never occurs already counts 0.
    """
    orders = _orders(prefix, words)
    whole = [(*prefix, word) for word in words]
    # tokens[-order:] keeps the whole query when order exceeds its own.
    return [tokens[-order:] for order in orders for tokens in whole]
