"""Ranking kernel: shared-bigram accumulation over postings lists."""
import numpy as np

IMPLEMENTATION = "numpy"


def rank_shared_candidates(postings, uni_counts, exclude_id, k):
    """Rank vocabulary words by how many postings lists they appear in.

    ``postings`` holds one array of word ids per distinct character bigram
    of the error word, so a word's count of occurrences equals the number
    of distinct bigrams it shares with the error. ``uni_counts`` maps word
    id to corpus frequency; ``exclude_id`` (or -1 for none) is dropped.
    Returns at most ``k`` ``(word_id, shared)`` pairs ordered by shared
    count descending, then corpus frequency descending, then word id
    ascending.

    Nothing is sorted but the few survivors: ``bincount`` gives every
    word's shared count, a histogram of those counts gives the lowest
    count the top ``k`` reach, and only the words at or above it are
    ordered.
    """
    if not postings:
        return []
    counts = np.bincount(np.concatenate(postings), minlength=len(uni_counts))
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
