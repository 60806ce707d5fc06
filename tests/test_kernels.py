import random

import numpy as np

from asrspell import kernels
from asrspell.candidates import char_bigrams


def random_workload(rng, n_vocab, n_lists):
    postings = []
    for _ in range(n_lists):
        size = rng.randint(0, n_vocab)
        ids = sorted(rng.sample(range(n_vocab), size))
        postings.append(np.array(ids, dtype=np.intc))
    uni = np.array([rng.randint(1, 50) for _ in range(n_vocab)],
                   dtype=np.int64)
    return postings, uni


def brute_force(postings, uni, exclude_id, k):
    shared = {}
    for arr in postings:
        for wid in arr.tolist():
            shared[wid] = shared.get(wid, 0) + 1
    shared.pop(exclude_id, None)
    ranked = sorted(shared.items(),
                    key=lambda t: (-t[1], -int(uni[t[0]]), t[0]))
    return ranked[:k]


def test_matches_brute_force():
    rng = random.Random(11)
    for _ in range(50):
        n_vocab = rng.randint(1, 60)
        postings, uni = random_workload(rng, n_vocab, rng.randint(0, 6))
        exclude = rng.choice([-1, rng.randrange(n_vocab)])
        k = rng.randint(1, 12)
        got = kernels.rank_shared_candidates(postings, uni, exclude, k)
        assert got == brute_force(postings, uni, exclude, k)


def test_matches_brute_force_at_realistic_scale():
    # Postings built the way NgramIndex builds them, over a vocabulary
    # large enough that the commonest bigram's list runs past 1000 ids.
    rng = random.Random(13)
    letters = "etaoinshrdlucmfwyp"
    weights = [1 / (i + 1) for i in range(len(letters))]

    def draw(lo, hi):
        return "".join(rng.choices(letters, weights, k=rng.randint(lo, hi)))

    words = sorted({draw(3, 9) for _ in range(4000)})
    postings: dict[str, list[int]] = {}
    for wid, word in enumerate(words):
        for gram in char_bigrams(word):
            postings.setdefault(gram, []).append(wid)
    arrays = {g: np.array(ids, dtype=np.intc) for g, ids in postings.items()}
    assert len(words) > 3000
    assert max(len(ids) for ids in arrays.values()) > 1000
    # Few distinct frequencies, so the frequency and id tie-breaks act.
    uni = np.array([rng.randint(1, 5) for _ in words], dtype=np.int64)
    for _ in range(40):
        lists = [arrays[g] for g in char_bigrams(draw(3, 10)) if g in arrays]
        hits = np.concatenate(lists).tolist() if lists else []
        exclude = rng.choice(hits) if hits and rng.random() < 0.5 else -1
        k = rng.choice([1, 8, 50])
        got = kernels.rank_shared_candidates(lists, uni, exclude, k)
        assert got == brute_force(lists, uni, exclude, k)


def test_edge_cases():
    uni = np.array([5, 5, 5], dtype=np.int64)
    empty = np.array([], dtype=np.intc)
    assert kernels.rank_shared_candidates([], uni, -1, 8) == []
    assert kernels.rank_shared_candidates([empty], uni, -1, 8) == []
    one = np.array([1], dtype=np.intc)
    assert kernels.rank_shared_candidates([one], uni, 1, 8) == []
    assert kernels.rank_shared_candidates([one, one], uni, -1, 8) == [(1, 2)]


def test_tie_ordering():
    # Same shared count: corpus frequency decides, then word id.
    postings = [np.array([0, 1, 2, 3], dtype=np.intc)]
    uni = np.array([2, 9, 9, 2], dtype=np.int64)
    got = kernels.rank_shared_candidates(postings, uni, -1, 4)
    assert got == [(1, 1), (2, 1), (0, 1), (3, 1)]


def test_selected_implementation_exposed():
    assert kernels.IMPLEMENTATION == "numpy"
    assert callable(kernels.rank_shared_candidates)
