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
    """
    if not postings:
        return []
    ids, shared = np.unique(np.concatenate(postings), return_counts=True)
    if exclude_id >= 0:
        keep = ids != exclude_id
        ids, shared = ids[keep], shared[keep]
    # lexsort applies its keys last-first.
    order = np.lexsort((ids, -uni_counts[ids], -shared))[:k]
    return list(zip(ids[order].tolist(), shared[order].tolist()))
