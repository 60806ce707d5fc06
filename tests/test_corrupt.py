import random

import pytest

from asrspell import (CorruptionKind, CorruptionSpec, build_index,
                      inject_errors, load_ground_truth, save_ground_truth,
                      shared_bigram_count, tokenize)
from asrspell.corrupt import _MIN_SHARED_BIGRAMS
from tests._synth import large_vocabulary

CORPUS = """
the quick brown foxes jumped over the lazy hounds near the river
every morning the farmer walked through the quiet village with baskets
bright lanterns burned along the narrow street beside the old harbor
the patient teacher answered every question about the ancient story
""".strip()


@pytest.fixture(scope="module")
def index():
    return build_index(CORPUS, corpus_id="corrupt-fixture")


def test_zero_rates_are_a_noop(index):
    text = "the quick brown foxes jumped"
    result = inject_errors(text, index, CorruptionSpec(seed=5))
    assert result.corrupted_text == text
    assert result.records == []


def test_same_seed_same_output(index):
    text = CORPUS
    spec = CorruptionSpec(nonword_rate=0.2, realword_rate=0.1, seed=99)
    a = inject_errors(text, index, spec)
    b = inject_errors(text, index, spec)
    assert a.corrupted_text == b.corrupted_text
    assert a.records == b.records


def test_different_seeds_differ(index):
    text = CORPUS
    a = inject_errors(text, index, CorruptionSpec(nonword_rate=0.3, seed=1))
    b = inject_errors(text, index, CorruptionSpec(nonword_rate=0.3, seed=2))
    assert a.corrupted_text != b.corrupted_text


def test_canonical_substitution_is_reachable(index):
    # One character substitution turns "shows" into the suite's running
    # example error "shaws"; find a seed that rolls exactly that.
    assert not index.unigram_exists("shaws")
    for seed in range(500):
        result = inject_errors("shows", index,
                               CorruptionSpec(nonword_rate=1.0, seed=seed))
        if result.records and result.records[0].corrupted == "shaws":
            assert result.corrupted_text == "shaws"
            assert result.records[0].kind is CorruptionKind.NONWORD
            return
    pytest.fail("no seed in 0..499 produced the shows->shaws substitution")


def test_nonword_records_are_oov(index):
    result = inject_errors(CORPUS, index,
                           CorruptionSpec(nonword_rate=0.5, seed=7))
    assert result.records
    tokens = tokenize(result.corrupted_text).tokens
    for r in result.records:
        assert r.kind is CorruptionKind.NONWORD
        assert r.original != r.corrupted
        assert not index.unigram_exists(r.corrupted)
        assert tokens[r.position] == r.corrupted


def test_realword_records_are_vocab_and_share_bigrams(index):
    spec = CorruptionSpec(realword_rate=0.6, seed=21)
    result = inject_errors(CORPUS, index, spec)
    assert result.records
    for r in result.records:
        assert r.kind is CorruptionKind.REALWORD
        assert r.original != r.corrupted
        assert index.unigram_exists(r.corrupted)
        assert shared_bigram_count(r.original, r.corrupted) >= \
            _MIN_SHARED_BIGRAMS


def test_realword_records_pinned(index):
    # Partners are drawn from the sorted list of words sharing enough
    # bigrams; these records pin that list's content and order.
    result = inject_errors(CORPUS, index,
                           CorruptionSpec(realword_rate=0.5, seed=21))
    assert [(r.position, r.original, r.corrupted) for r in result.records] \
        == [(11, "river", "over"), (12, "every", "over"),
            (19, "quiet", "quick"), (24, "lanterns", "teacher"),
            (28, "narrow", "brown"), (35, "patient", "ancient"),
            (36, "teacher", "lanterns"), (38, "every", "river"),
            (42, "ancient", "patient")]


def test_realword_records_pinned_over_a_large_vocabulary():
    # Each original here has 878 to 2569 partners.
    _, lines = large_vocabulary(seed=11)
    large = build_index(lines, corpus_id="large")
    text = " ".join(lines[:2])
    result = inject_errors(text, large,
                           CorruptionSpec(realword_rate=0.5, seed=3))
    assert all(r.kind is CorruptionKind.REALWORD for r in result.records)
    assert [(r.position, r.original, r.corrupted) for r in result.records] \
        == [(0, "acaaabcda", "dbdaca"), (1, "dbadabd", "dbcad"),
            (3, "cadbbbb", "aacbcaadb"), (5, "adbdba", "dbacabacc"),
            (6, "abcccabaa", "dbcdbadab"), (11, "bdbdbb", "adbbddb"),
            (16, "abbcbccc", "dbdcbc"), (18, "ddbcbabb", "aaddbba"),
            (20, "dacda", "cdcacadc")]


def test_token_count_preserved(index):
    before = tokenize(CORPUS).tokens
    result = inject_errors(
        CORPUS, index, CorruptionSpec(nonword_rate=0.3, realword_rate=0.2,
                                      seed=3))
    after = tokenize(result.corrupted_text).tokens
    assert len(before) == len(after)
    changed = {r.position for r in result.records}
    for i, (a, b) in enumerate(zip(before, after)):
        assert (a != b) == (i in changed)


def test_corruption_fraction_near_rates(index):
    # Rates apply per eligible token; use corruptible words only so the
    # binomial bound is meaningful.
    rng = random.Random(17)
    eligible = [w for w in index.vocab if len(w) >= 4]
    text = " ".join(rng.choice(eligible) for _ in range(1000))
    rate = 0.15
    n = 1000
    result = inject_errors(text, index,
                           CorruptionSpec(nonword_rate=rate, seed=23))
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(len(result.records) - n * rate) <= 3 * sigma


def test_short_and_digit_tokens_skipped(index):
    text = "a an 42 x9 the"
    result = inject_errors(text, index,
                           CorruptionSpec(nonword_rate=1.0, seed=11))
    assert result.records == []
    assert result.corrupted_text == text


def test_capital_preserved(index):
    result = inject_errors("Morning walked", index,
                           CorruptionSpec(nonword_rate=1.0, seed=2))
    first = result.corrupted_text.split()[0]
    assert first[0].isupper()


def test_rate_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(nonword_rate=1.2)
    with pytest.raises(ValueError):
        CorruptionSpec(nonword_rate=0.7, realword_rate=0.4)
    with pytest.raises(ValueError):
        CorruptionSpec(realword_rate=-0.1)


def test_ground_truth_round_trip(index, tmp_path):
    result = inject_errors(
        CORPUS, index, CorruptionSpec(nonword_rate=0.3, realword_rate=0.2,
                                      seed=8))
    path = tmp_path / "truth.tsv"
    save_ground_truth(result.records, path)
    assert load_ground_truth(path) == result.records
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(result.records)
    assert all(len(line.split("\t")) == 4 for line in lines)


@pytest.mark.parametrize("line,reason", [
    ("x\tshows\tshaws\tnonword",
     "position 'x' is not a run of ASCII digits"),
    ("5\tshows\tshaws\tbogus", "'bogus' is not a valid CorruptionKind"),
    ("-1\tcat\tcaat\tnonword",
     "position '-1' is not a run of ASCII digits"),
    # int() reads each of these; a position is ASCII digits only.
    ("+3\tcat\tcaat\tnonword",
     "position '+3' is not a run of ASCII digits"),
    (" 4\tcat\tcaat\tnonword",
     "position ' 4' is not a run of ASCII digits"),
    ("\u0663\tcat\tcaat\tnonword",
     "position '\u0663' is not a run of ASCII digits"),
    ("1_0\tcat\tcaat\tnonword",
     "position '1_0' is not a run of ASCII digits"),
], ids=["position", "kind", "negative", "plus", "space", "arabic-indic",
        "underscore"])
def test_ground_truth_errors_name_file_and_line(tmp_path, line, reason):
    path = tmp_path / "truth.tsv"
    path.write_text(f"0\tcat\tcaat\tnonword\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_ground_truth(path)
    assert str(err.value).startswith(f"{path}:3: {reason}")
