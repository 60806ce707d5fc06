import random

import pytest

from asrspell import (Candidate, build_index, char_bigrams,
                      generate_candidates, shared_bigram_count)
from asrspell.candidates import TOP_K
from tests._synth import large_vocabulary

FIXTURE_VOCAB = ("shows shawls shays shank sham haws hawk "
                 "saws sawn maws hews")


class TestCharBigrams:
    def test_shaws(self):
        assert char_bigrams("shaws") == ["sh", "ha", "aw", "ws"]

    def test_too_short(self):
        assert char_bigrams("a") == []
        assert char_bigrams("") == []

    def test_duplicates_collapse(self):
        assert char_bigrams("aaa") == ["aa"]
        assert char_bigrams("abab") == ["ab", "ba"]


class TestSharedBigramCount:
    # Candidate scores for the error "shaws"; "shawls" intersects in
    # {sh, ha, aw} under the full-set definition this library uses.
    @pytest.mark.parametrize("word,expected", [
        ("haws", 3), ("saws", 2), ("hawk", 2), ("shows", 2),
        ("shays", 2), ("shank", 2), ("maws", 2), ("shawls", 3),
    ])
    def test_against_shaws(self, word, expected):
        assert shared_bigram_count("shaws", word) == expected

    def test_symmetry_and_bound(self):
        rng = random.Random(3)
        for _ in range(200):
            a = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 8)))
            n = shared_bigram_count(a, b)
            assert n == shared_bigram_count(b, a)
            assert n <= min(len(char_bigrams(a)), len(char_bigrams(b)))

    def test_identity(self):
        for word in ["shaws", "aaa", "xy", "q"]:
            assert shared_bigram_count(word, word) == len(char_bigrams(word))


def brute_force_candidates(error, index, k):
    """Full-vocabulary scan with the same sort keys; the oracle."""
    scored = []
    for word in index.vocab:
        if word == error:
            continue
        shared = shared_bigram_count(error, word)
        if shared >= 1:
            scored.append(Candidate(word=word, shared=shared,
                                    unigram_count=index.ngram_count([[word]])[0]))
    scored.sort(key=Candidate.sort_key)
    return scored[:k]


class TestGenerateCandidates:
    def test_worked_example_scores(self, worked_index):
        ranked = generate_candidates("shaws", worked_index)
        by_word = {c.word: c.shared for c in ranked}
        assert by_word["haws"] == 3
        for word in ["shows", "saws", "hawk", "shank", "maws"]:
            assert by_word[word] == 2
        assert ranked[0].word == "haws"       # 3 shared, beats shawls on tie
        assert by_word["shawls"] == 3
        assert len(ranked) == 8

    def test_frequent_word_wins_tie(self, worked_index):
        ranked = generate_candidates("shaws", worked_index)
        twos = [c for c in ranked if c.shared == 2]
        assert twos[0].word == "shows"        # corpus count 7 vs 1

    def test_error_not_its_own_candidate(self):
        index = build_index("shaws shows")
        assert "shaws" not in [c.word
                               for c in generate_candidates("shaws", index)]

    def test_no_postings_empty_set(self, worked_index):
        assert not generate_candidates("qqqq", worked_index)

    def test_short_error_empty_set(self, worked_index):
        assert not generate_candidates("q", worked_index)

    def test_superset_word_ranks_first(self):
        index = build_index("shawstrom other words here")
        ranked = generate_candidates("shaws", index)
        assert ranked[0].word == "shawstrom"
        assert ranked[0].shared == len(char_bigrams("shaws"))

    def test_every_candidate_shares_and_is_vocab(self, worked_index):
        for c in generate_candidates("shaws", worked_index):
            assert shared_bigram_count("shaws", c.word) == c.shared >= 1
            assert worked_index.unigram_exists(c.word)
            assert [c.unigram_count] == worked_index.ngram_count([[c.word]])

    def test_oracle_equivalence_random(self):
        rng = random.Random(40)
        letters = "abcdefgh"
        for _ in range(30):
            vocab = {"".join(rng.choice(letters)
                             for _ in range(rng.randint(1, 9)))
                     for _ in range(rng.randint(5, 400))}
            weighted = [w for w in sorted(vocab)
                        for _ in range(rng.randint(1, 4))]
            rng.shuffle(weighted)
            index = build_index(" ".join(weighted))
            for _ in range(5):
                error = "".join(rng.choice(letters)
                                for _ in range(rng.randint(2, 9)))
                got = generate_candidates(error, index)
                assert got == brute_force_candidates(error, index, TOP_K)


def test_words_sharing_bigrams(worked_index):
    partners = worked_index.words_sharing_bigrams("shaws", 2)
    assert partners == sorted(partners)
    assert "haws" in partners and "shows" in partners
    assert "hews" not in partners  # only shares "ws"
    assert all(shared_bigram_count("shaws", w) >= 2 for w in partners)


class TestWordsSharingBigramsOracle:
    """``NgramIndex.words_sharing_bigrams`` equals a pairwise
    ``shared_bigram_count`` scan of the whole vocabulary, over postings
    lists of more than 1000 words."""

    @pytest.fixture(scope="class")
    def large(self):
        vocab, lines = large_vocabulary(seed=11)
        index = build_index(lines, corpus_id="large")
        assert sorted(index.vocab) == vocab
        assert max(len(index.unigrams_containing_bigram(a + b))
                   for a in "abcd" for b in "abcd") > 1000
        return index, vocab

    @staticmethod
    def scan(word, vocab, min_shared):
        return [w for w in vocab if w != word
                and shared_bigram_count(word, w) >= min_shared]

    @pytest.mark.parametrize("min_shared", [1, 2, 3])
    def test_matches_pairwise_scan(self, large, min_shared):
        index, vocab = large
        rng = random.Random(15 + min_shared)
        outside = ["".join(rng.choice("abcde")
                           for _ in range(rng.randint(2, 10)))
                   for _ in range(12)]
        words = rng.sample(vocab, 12) + outside + ["ab", "aaaa", "ee"]
        assert any(not index.unigram_exists(w) for w in outside)
        for word in words:
            assert index.words_sharing_bigrams(word, min_shared) == \
                self.scan(word, vocab, min_shared), word

    @pytest.mark.parametrize("word", ["", "a", "e"])
    def test_words_without_bigrams_share_nothing(self, large, word):
        index, _ = large
        assert index.words_sharing_bigrams(word, 1) == []

    def test_min_shared_below_one_rejected(self, worked_index):
        with pytest.raises(ValueError, match="min_shared"):
            worked_index.words_sharing_bigrams("shaws", 0)
