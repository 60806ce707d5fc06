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


class TestOracleCases:
    """Cases where the cut at the k-th shared count can go wrong."""

    @staticmethod
    def rank(postings, uni, exclude_id, k):
        return kernels.rank_shared_candidates(
            [np.array(ids, dtype=np.intc) for ids in postings],
            np.array(uni, dtype=np.int64), exclude_id, k)

    def check(self, postings, uni, exclude_id, ks=(1, 2, 3, 8, 50)):
        arrays = [np.array(ids, dtype=np.intc) for ids in postings]
        for k in ks:
            assert self.rank(postings, uni, exclude_id, k) == \
                brute_force(arrays, np.array(uni), exclude_id, k)

    def test_excluded_word_holds_the_top_count(self):
        # Word 2 is in every list; without it the best share only two.
        postings = [[0, 2, 4], [1, 2, 4], [2, 3], [0, 2]]
        self.check(postings, [3, 3, 1, 9, 2], exclude_id=2)
        assert self.rank(postings, [3, 3, 1, 9, 2], 2, 1) == [(0, 2)]

    def test_fewer_nonzero_words_than_k(self):
        self.check([[1, 5], [5]], [1] * 8, exclude_id=-1)
        self.check([[1, 5], [5]], [1] * 8, exclude_id=5)

    def test_tie_at_the_cut_is_broken_by_frequency_then_id(self):
        # Shared counts 3, 2, 2, 2, 2, 1: with k = 2 or 3 the cut falls
        # inside the run of 2s, so frequency and then id decide.
        postings = [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4], [0]]
        uni = [1, 4, 7, 7, 4, 9]
        self.check(postings, uni, exclude_id=-1, ks=(1, 2, 3, 4, 5, 6))
        assert self.rank(postings, uni, -1, 3) == [(0, 3), (2, 2), (3, 2)]

    def test_every_hit_is_the_excluded_word(self):
        self.check([[3], [3], [3]], [2, 2, 2, 2], exclude_id=3)
        assert self.rank([[3], [3], [3]], [2, 2, 2, 2], 3, 8) == []

    def test_k_larger_than_the_vocabulary(self):
        postings = [[0, 1, 2], [1, 2], [2]]
        self.check(postings, [5, 1, 3], exclude_id=-1, ks=(3, 4, 50, 1000))
        self.check(postings, [5, 1, 3], exclude_id=0, ks=(3, 4, 50, 1000))
