"""Candidate corrections by shared character-bigram counting.

An error word is decomposed into its distinct adjacent character pairs;
every vocabulary word containing at least one of those pairs is scored by
how many distinct pairs it shares, and the top k (default 8) survive.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


def char_bigrams(token: str) -> list[str]:
    """Distinct adjacent character pairs, in first-occurrence order.

    Tokens shorter than two characters have none.
    """
    return list(dict.fromkeys(token[i:i + 2] for i in range(len(token) - 1)))


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


@dataclass
class CandidateSet:
    error: str
    ranked: list[Candidate] = field(default_factory=list)

    def words(self) -> list[str]:
        return [c.word for c in self.ranked]

    def __bool__(self) -> bool:
        return bool(self.ranked)


def generate_candidates(error: str, backend, k: int = 8) -> CandidateSet:
    """Top-k correction candidates for `error`, ranked by shared bigram
    count, then corpus frequency, then word.

    The error word itself is never a candidate. Returns an empty set when
    no vocabulary word shares a bigram with the error (callers leave such
    errors uncorrected).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grams = char_bigrams(error)
    if not grams:
        return CandidateSet(error)
    fast = getattr(backend, "rank_by_shared_bigrams", None)
    if fast is not None:
        return CandidateSet(error, fast(grams, k=k, exclude=error))
    return CandidateSet(error, _rank_via_contract(error, grams, backend, k))


def _rank_via_contract(error: str, grams: list[str], backend, k: int):
    """Portable ranking path for backends without local postings arrays.

    Unigram counts are only needed to order words inside one shared-count
    group, so they are fetched just for the groups that can reach the
    top k; over HTTP that keeps the request count near k.
    """
    shared = _shared_bigram_counts(grams, backend, exclude=error)
    if not shared:
        return []
    groups: dict[int, list[str]] = defaultdict(list)
    for word, count in shared.items():
        groups[count].append(word)
    pool: list[tuple[str, int]] = []
    for count in sorted(groups, reverse=True):
        pool.extend((word, count) for word in groups[count])
        if len(pool) >= k:
            break
    ranked = [
        Candidate(word=word, shared=count,
                  unigram_count=backend.ngram_count([word]))
        for word, count in pool
    ]
    ranked.sort(key=Candidate.sort_key)
    return ranked[:k]


def words_sharing_bigrams(token: str, backend, min_shared: int) -> list[str]:
    """All vocabulary words (sorted) sharing >= min_shared distinct
    character bigrams with `token`, excluding the token itself."""
    shared = _shared_bigram_counts(char_bigrams(token), backend, exclude=token)
    return sorted(w for w, n in shared.items() if n >= min_shared)


def _shared_bigram_counts(grams: list[str], backend,
                          exclude: str) -> dict[str, int]:
    """For every vocabulary word containing one of the distinct bigrams
    `grams`, how many of them it contains; `exclude` is left out."""
    shared: dict[str, int] = {}
    for gram in grams:
        for word in backend.unigrams_containing_bigram(gram):
            shared[word] = shared.get(word, 0) + 1
    shared.pop(exclude, None)
    return shared
