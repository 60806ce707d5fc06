"""Ranking kernel: shared-bigram accumulation over postings lists.

:func:`shared_counts` is the one count of shared character bigrams: the
ranking and ``NgramIndex.words_sharing_bigrams`` both read it.
"""
import numpy as np

IMPLEMENTATION = "numpy"


def shared_counts(postings, n):
    """Each of the ``n`` word ids' number of occurrences in ``postings``.

    ``postings`` holds one array of word ids per distinct character bigram
    of a word, so a word id's count is the number of distinct bigrams
    that word shares with it.
    """
    return np.bincount(np.concatenate(postings), minlength=n)


def rank_shared_candidates(postings, uni_counts, exclude_id, k):
    """Rank vocabulary words by their :func:`shared_counts` with the
    error word's ``postings``.

    ``uni_counts`` maps word id to corpus frequency; ``exclude_id`` (or
    -1 for none) is dropped. Returns at most ``k`` ``(word_id, shared)``
    pairs ordered by shared count descending, then corpus frequency
    descending, then word id ascending.

    Nothing is sorted but the few survivors: :func:`shared_counts` gives
    every word's shared count, a histogram of those counts gives the
    lowest count the top ``k`` reach, and only the words at or above it
    are ordered.
    """
    if not postings:
        return []
    counts = shared_counts(postings, len(uni_counts))
    if exclude_id >= 0:
        counts[exclude_id] = 0
    # reach[s - 1] is the number of words sharing at least s bigrams; the
    # cut is the highest s that still reaches k words, else 1.
    reach = np.cumsum(np.bincount(counts)[:0:-1])[::-1]
    cut = max(1, int(np.count_nonzero(reach >= k)))
    ids = np.flatnonzero(counts >= cut)
    shared = counts[ids]
    # lexsort applies its keys last-first.
    order = np.lexsort((ids, -uni_counts[ids], -shared))[:k]
    return list(zip(ids[order].tolist(), shared[order].tolist()))
