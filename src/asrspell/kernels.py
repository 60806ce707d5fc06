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
    -1 for none) is dropped. Returns three lists, the word ids, their
    shared counts and their corpus frequencies, of at most ``k`` words
    ordered by shared count descending, then corpus frequency
    descending, then word id ascending.

    Nothing is sorted but the few survivors: :func:`shared_counts` gives
    every word's shared count, a scan down from the highest count finds
    the lowest count the top ``k`` reach, and only the words at or above
    it are ordered. Each postings array lists a word at most once, so no
    count exceeds ``len(postings)``, and below 256 arrays the scan runs
    over an exact uint8 copy of the counts.
    """
    if not postings:
        return [], [], []
    counts = shared_counts(postings, len(uni_counts))
    if exclude_id >= 0:
        counts[exclude_id] = 0
    if len(postings) < 256:
        counts = counts.astype(np.uint8)
    # The cut is the highest count that at least k words reach, else 1.
    cut = max(int(counts.max()), 1)
    while cut > 1 and np.count_nonzero(counts >= cut) < k:
        cut -= 1
    ids = np.flatnonzero(counts >= cut)
    shared = counts[ids].astype(np.int64)  # a uint8 would wrap negated
    uni = uni_counts[ids]
    # lexsort applies its keys last-first.
    order = np.lexsort((ids, -uni, -shared))[:k]
    return ids[order].tolist(), shared[order].tolist(), uni[order].tolist()
