import logging
import os
import random
import shutil
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from asrspell import (IndexFormatError, IndexManifest, build_index,
                      load_index, normalize_token, save_index)
from asrspell import kernels, store
from asrspell.candidates import (char_bigrams, generate_candidates,
                                 selection_queries)
from asrspell.store import MANIFEST_FILE, tokenize_line
from tests._synth import large_vocabulary

_LAST_MANIFEST_LINE = f"normalization_version\t{store.NORMALIZATION_VERSION}\n"


def write_index_dir(root, tables, corpus_id):
    """An index directory holding `tables` (space-joined n-gram -> count,
    one per order) line for line, in the tables' own order."""
    root.mkdir()
    manifest = IndexManifest(corpus_id, len(tables), sum(tables[0].values()),
                             len(tables[0]))
    (root / MANIFEST_FILE).write_text(manifest.to_tsv(), encoding="utf-8")
    for k, table in enumerate(tables, start=1):
        (root / f"{k}gram.tsv").write_text(
            "".join(f"{key}\t{count}\n" for key, count in table.items()),
            encoding="utf-8")


def recount(lines, max_order=5):
    """String-keyed n-gram counts per order, the plain way."""
    tables = [Counter() for _ in range(max_order)]
    for line in lines:
        tokens = tokenize_line(line)
        for k in range(1, max_order + 1):
            tables[k - 1].update(" ".join(tokens[i:i + k])
                                 for i in range(len(tokens) - k + 1))
    return tables


def boundary_corpus(vocab_size):
    """Lines over `vocab_size` words, every word among them."""
    rng = random.Random(vocab_size)
    words = [f"w{i}" for i in range(vocab_size)]
    return [" ".join(words)] + [
        " ".join(rng.choices(words, k=rng.randint(1, 12)))
        for _ in range(300)]


BOUNDARY_VOCAB_SIZES = [1, 2, 3, 16, 17, 256, 257, 4096, 4097]


class TestNormalizeToken:
    @pytest.mark.parametrize("raw,expected", [
        ("Shows,", "shows"),
        ("don't", "don't"),
        ("...", None),
        ("", None),
        ("HELLO", "hello"),
        ("'quoted'", "quoted"),
        ("well-known", "well-known"),
        ("--dash--", "dash"),
        ("42nd", "42nd"),
        ("a", "a"),
    ])
    def test_examples(self, raw, expected):
        assert normalize_token(raw) == expected

    def test_idempotent(self):
        for raw in ["Shows,", "don't", "A.B.C.", "x", "Ünïcode!", "İstanbul"]:
            token = normalize_token(raw)
            if token is not None:
                assert normalize_token(token) == token

    def test_internal_whitespace_is_not_a_token(self):
        assert normalize_token("a b") is None
        assert normalize_token("a\tb") is None


class TestBuildIndex:
    def test_manual_counts(self, tiny_index):
        assert tiny_index.ngram_count(
            [["the"], ["the", "cat"], ["the", "cat", "sat"],
             ["the", "cat", "ran"]]) == [2, 2, 1, 1]

    def test_empty_corpus(self):
        index = build_index("")
        assert len(index.vocab) == 0
        assert index.ngram_count([["anything"]]) == [0]
        assert index.manifest.token_count == 0

    def test_five_gram_window(self):
        index = build_index("a b c d e f", max_order=5)
        assert index.ngram_count([["a", "b", "c", "d", "e"],
                                  ["b", "c", "d", "e", "f"],
                                  ["a", "b", "c", "d", "f"]]) == [1, 1, 0]

    def test_ngrams_never_cross_lines(self):
        index = build_index("a b\nc d")
        assert index.ngram_count([["b", "c"], ["a", "b"]]) == [0, 1]

    def test_max_order_bounds(self):
        with pytest.raises(ValueError):
            build_index("x", max_order=0)
        with pytest.raises(ValueError):
            build_index("x", max_order=6)

    def test_normalization_applied(self):
        index = build_index("The CAT... sat!")
        assert index.unigram_exists("the")
        assert index.unigram_exists("cat")
        assert not index.unigram_exists("The")


class TestLookups:
    def test_unigram_exists(self, worked_index):
        assert worked_index.unigram_exists("shows")
        assert not worked_index.unigram_exists("shaws")
        assert not build_index("").unigram_exists("anything")

    def test_membership_count_coherence(self, worked_index):
        for word in list(worked_index.vocab) + ["shaws", "zzz"]:
            assert worked_index.unigram_exists(word) == \
                (worked_index.ngram_count([[word]]) >= [1])

    def test_absent_five_gram_is_zero(self, worked_index):
        assert worked_index.ngram_count([["a", "b", "c", "d", "e"]]) == [0]

    def test_order_above_max_rejected(self, worked_index):
        with pytest.raises(ValueError):
            worked_index.ngram_count([["a"] * 6])
        with pytest.raises(ValueError):
            build_index("a b c", max_order=2).ngram_count([["a", "b", "c"]])
        with pytest.raises(ValueError):
            worked_index.ngram_count([[]])

    @pytest.mark.parametrize("queries", [
        ["shows"], [("favorite", "shows"), "shows"], "shows"])
    def test_string_query_rejected(self, worked_index, queries):
        # An old-style single query must not count its characters.
        with pytest.raises(ValueError, match="not the string"):
            worked_index.ngram_count(queries)

    def test_batch_in_query_order(self, worked_index):
        queries = [("favorite", "shows"), ("shaws",), ("shows",),
                   ("favorite", "shows")]
        assert worked_index.ngram_count(queries) == [7, 0, 7, 7]
        assert worked_index.ngram_count([]) == []

    def test_postings_sorted(self):
        index = build_index("saws sawn maws haws hawk shows")
        assert index.unigrams_containing_bigram("aw") == \
            ["hawk", "haws", "maws", "sawn", "saws"]
        assert index.unigrams_containing_bigram("zq") == []
        assert index.unigrams_containing_bigram("ws") == \
            ["haws", "maws", "saws", "shows"]

    def test_postings_bad_bigram(self, worked_index):
        with pytest.raises(ValueError):
            worked_index.unigrams_containing_bigram("abc")

    def test_postings_completeness(self):
        rng = random.Random(7)
        words = {"".join(rng.choice("abcdefg") for _ in range(rng.randint(1, 8)))
                 for _ in range(200)}
        index = build_index(" ".join(sorted(words)))
        for word in index.vocab:
            for i in range(len(word) - 1):
                gram = word[i:i + 2]
                assert word in index.unigrams_containing_bigram(gram)
        for gram in ["ab", "cd", "fg", "ga"]:
            for word in index.unigrams_containing_bigram(gram):
                assert gram in word

    def test_single_char_words_have_no_postings_but_stay_in_vocab(self):
        index = build_index("a a b ab")
        assert index.unigram_exists("a")
        assert index.unigrams_containing_bigram("ab") == ["ab"]

    def test_postings_arrays_strictly_ascending(self, worked_index,
                                                tmp_path):
        # So each array lists a word once, and the ranking kernel's count
        # of a word never exceeds the number of arrays.
        _, lines = large_vocabulary(seed=11)
        built = build_index(lines)
        save_index(built, tmp_path / "idx")
        for index in (worked_index, built, load_index(tmp_path / "idx")):
            assert index._postings
            for gram, ids in index._postings.items():
                assert ids.ndim == 1 and len(ids) > 0, gram
                assert np.all(np.diff(ids) > 0), gram

    def test_ranking_calls_the_kernel_once_per_word(self, worked_index,
                                                    monkeypatch):
        """Each word that shares a bigram with the vocabulary is one call
        of kernels.rank_shared_candidates, looked up on the module at call
        time, with that word's postings as its first argument. Counting
        the candidates after a context calls it no more."""
        words = ["shaws", "shows", "hwas", "shaws", "q", "zqx", "haws"]
        pairs = [(("your", "favorite")[:i % 3], w)
                 for i, w in enumerate(words)]
        expected = worked_index.rank_by_shared_bigrams(pairs)
        calls = []
        rank = kernels.rank_shared_candidates

        def spy(postings, *args):
            calls.append(postings)
            return rank(postings, *args)

        monkeypatch.setattr(kernels, "rank_shared_candidates", spy)
        assert worked_index.rank_by_shared_bigrams(pairs) == expected
        vocab = sorted(worked_index.vocab)
        lists = {word: [ids for ids in map(
                     worked_index.unigrams_containing_bigram,
                     char_bigrams(word)) if ids] for word in words}
        ranked = [word for word in words if lists[word]]
        assert ranked == ["shaws", "shows", "hwas", "shaws", "haws"]
        assert len(calls) == len(ranked)
        for word, postings in zip(ranked, calls):
            assert [[vocab[i] for i in ids] for ids in postings] == \
                lists[word]

    @pytest.mark.parametrize("query", [
        ("the", "zebra"), ("zebra", "cat"), ("zebra",), ("sat", "the"),
        ("thecat",), ("cat", "the", "sat"), ("the", "cat", "zebra"),
        ("zebra", "cat", "sat"), ("ran", "sat"), ("the", "cat", "ran", "the"),
        ("sat", "ran")])
    def test_absent_queries_count_zero(self, tiny_index, query):
        assert tiny_index.ngram_count([query]) == [0]

    @pytest.mark.parametrize("query", [
        ("",), ("", "cat"), ("the", ""), ("the cat",), ("the cat", "sat"),
        ("the", "cat sat"), ("the", "cat", "sat "), (" the", "cat"),
        ("a\nb",), ("cat\r",), ("no\xa0break",), (5,), ("the", 5)])
    def test_query_of_a_non_token_rejected(self, tiny_index, query):
        # A token is a non-empty string without whitespace, which a vocabulary
        # word always is: only a miss is checked, and it is a ValueError
        # at the query's position, never a count of 0.
        with pytest.raises(store.BatchItemError,
                           match="tokens must be non-empty") as info:
            tiny_index.ngram_count([("the",), ("cat", "sat"), query])
        assert info.value.position == 2

    def test_context_counts_equal_the_two_step_reference(
            self, worked_index, worked_corpus_lines):
        contexts = [(), ("favorite",), ("your", "favorite"),
                    ("episodes", "of", "your", "favorite"),
                    ("zebra", "of"), ("of", "zebra")]
        words = ["shaws", "hwas", "q", "zqx", "shows"]
        pairs = [(c, w) for c in contexts for w in words]
        tables = recount(worked_corpus_lines)
        got = worked_index.rank_by_shared_bigrams(pairs)
        for (context, word), (candidates, counts) in zip(pairs, got,
                                                         strict=True):
            assert candidates == generate_candidates(word, worked_index)
            assert counts == ([
                tables[len(query) - 1][" ".join(query)]
                for query in selection_queries(
                    context, [c.word for c in candidates])]
                if candidates else [])

    def test_ranking_never_calls_ngram_count(self, worked_index,
                                             monkeypatch):
        """The counts after each context are looked up by word id, not
        through ngram_count."""
        pairs = [(("episodes", "of", "your", "favorite"), "shaws"),
                 (("zebra", "your", "favorite"), "shaws"),
                 (("your", "zebra"), "hwas"), (("favorite",), "q"),
                 ((), "shaws")]
        expected = worked_index.rank_by_shared_bigrams(pairs)
        assert expected[0][1][:8] != [0] * 8  # order 5 is attested

        def fail(self, queries):
            raise AssertionError(f"ngram_count({queries!r}) called")

        monkeypatch.setattr(store.NgramIndex, "ngram_count", fail)
        assert worked_index.rank_by_shared_bigrams(pairs) == expected

    @pytest.mark.parametrize("pair,message", [
        (("a b c d e".split(), "shaws"), "context of 5 tokens exceeds "
                                          "max_order - 1 = 4"),
        (("favorite", "shaws"), "a context is a sequence of tokens, not "
                                "the string 'favorite'"),
        ((("your", ""), "shaws"), "tokens must be non-empty"),
        ((("your favorite",), "shaws"), "tokens must be non-empty"),
        ((("favorite\r",), "shaws"), "tokens must be non-empty"),
        ((("favorite",), "two words"), "words must be non-empty"),
        ((("favorite",), 5), "words must be non-empty"),
    ])
    def test_bad_pair_rejected_at_its_position(self, worked_index, pair,
                                              message):
        with pytest.raises(store.BatchItemError, match=message) as info:
            worked_index.rank_by_shared_bigrams([((), "shaws"), pair])
        assert info.value.position == 1

    def test_context_bound_follows_max_order(self):
        index = build_index("your favorite shows", max_order=3)
        assert index.rank_by_shared_bigrams([(("your", "favorite"), "shaws")])
        for order, context in [(1, ("favorite",)), (3, ("a", "b", "c"))]:
            with pytest.raises(ValueError, match=f"max_order - 1 = "
                                                 f"{order - 1}"):
                build_index("your favorite shows", max_order=order) \
                    .rank_by_shared_bigrams([(context, "shaws")])

    @pytest.mark.parametrize("vocab_size", BOUNDARY_VOCAB_SIZES)
    def test_packed_counts_exact_at_id_width_boundary(self, vocab_size,
                                                      tmp_path):
        # 2^b words fill b-bit ids; one word more needs b + 1 bits. At 4097
        # words a 5-gram key no longer fits 63 bits.
        lines = boundary_corpus(vocab_size)
        index = build_index(lines)
        expected = recount(lines)
        assert len(index.vocab) == vocab_size
        for k in range(1, 6):
            assert dict(index.ngrams(k)) == expected[k - 1]
            keys = list(expected[k - 1])
            assert index.ngram_count([key.split(" ") for key in keys]) == \
                [expected[k - 1][key] for key in keys]
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        for k in range(1, 6):
            assert list(loaded.ngrams(k)) == list(index.ngrams(k))

    def test_count_monotonicity(self):
        corpus = "the cat sat on the mat\nthe cat ran\nthe dog sat"
        index = build_index(corpus)
        for k in range(1, index.max_order):
            table = dict(index.ngrams(k))
            extensions = dict(index.ngrams(k + 1))
            sums: dict[str, int] = {}
            for key, count in extensions.items():
                prefix = key.rsplit(" ", 1)[0]
                sums[prefix] = sums.get(prefix, 0) + count
            for key, count in table.items():
                assert count >= sums.get(key, 0), key


class TestPersistence:
    def test_round_trip(self, tiny_index, tmp_path):
        save_index(tiny_index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        for k in range(1, tiny_index.max_order + 1):
            for joined, count in tiny_index.ngrams(k):
                assert loaded.ngram_count([joined.split(" ")]) == [count]
        assert loaded.manifest == tiny_index.manifest

    def test_empty_round_trip(self, tmp_path):
        save_index(build_index("", corpus_id="empty"), tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert len(loaded.vocab) == 0

    def test_build_is_deterministic(self, worked_corpus_lines, tmp_path):
        save_index(build_index(worked_corpus_lines), tmp_path / "a")
        save_index(build_index(list(worked_corpus_lines)), tmp_path / "b")
        for name in [MANIFEST_FILE] + [f"{k}gram.tsv" for k in range(1, 6)]:
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_file_format(self, worked_index, tmp_path):
        save_index(worked_index, tmp_path / "idx")
        for k in range(1, 6):
            data = (tmp_path / "idx" / f"{k}gram.tsv").read_text(
                encoding="utf-8")
            lines = data.splitlines()
            assert data == "".join(line + "\n" for line in lines)
            keys = []
            for line in lines:
                key, count = line.split("\t")
                tokens = key.split(" ")
                assert len(tokens) == k
                assert int(count) >= 1
                assert line == line.rstrip()
                keys.append(tokens)
            assert keys == sorted(keys)

    def test_tokens_below_the_space_sort_by_token_sequence(self, tmp_path):
        # Tokens that hold characters below the space, "\0" among them,
        # are where the joined string's order and the token order differ.
        tokens = ["a", "a\x01", "\x00b", "b", "a\x00", "\x00", "ab",
                  "\x1bz", "a!"]
        rng = random.Random(9)
        tables = [dict.fromkeys(tokens, 1)]
        for k in range(2, 6):
            tables.append({" ".join(rng.choice(tokens) for _ in range(k)):
                           rng.randint(1, 9) for _ in range(300)})
        write_index_dir(tmp_path / "unsorted", tables, "below-space")
        index = load_index(tmp_path / "unsorted")
        save_index(index, tmp_path / "idx")
        for k, table in enumerate(tables, start=1):
            data = (tmp_path / "idx" / f"{k}gram.tsv").read_text(
                encoding="utf-8")
            keys = [line.split("\t")[0] for line in data.split("\n")[:-1]]
            assert keys == sorted(table, key=lambda s: s.split(" "))
            if k > 1:
                assert keys != sorted(table)
        loaded = load_index(tmp_path / "idx")
        assert loaded.distinct_per_order() == index.distinct_per_order()

    @pytest.mark.parametrize("corpus_id", ["a\tb", "a\rb", "a\nb", "\n"])
    def test_corpus_id_with_tab_or_line_end_rejected(self, tmp_path,
                                                     corpus_id):
        # The manifest could not be read back; nothing is written.
        index = build_index("the cat", corpus_id=corpus_id)
        with pytest.raises(ValueError, match="corpus_id"):
            save_index(index, tmp_path / "idx")
        assert not (tmp_path / "idx").exists()

    def test_missing_gram_file(self, tiny_index, tmp_path):
        save_index(tiny_index, tmp_path / "idx")
        (tmp_path / "idx" / "5gram.tsv").unlink()
        with pytest.raises(IndexFormatError, match="5gram"):
            load_index(tmp_path / "idx")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "idx").mkdir()
        with pytest.raises(IndexFormatError, match="manifest"):
            load_index(tmp_path / "idx")

    def test_version_mismatch(self, tiny_index, tmp_path):
        save_index(tiny_index, tmp_path / "idx")
        manifest = tmp_path / "idx" / MANIFEST_FILE
        manifest.write_text(manifest.read_text().replace(
            "normalization_version\t1", "normalization_version\t999"))
        with pytest.raises(IndexFormatError, match="normalization_version"):
            load_index(tmp_path / "idx")

    @pytest.mark.parametrize("line,message", [
        ("the cat\t3", "not a 1-gram"),
        ("the\tNaN", "not an integer"),
        ("the\t0", ">= 1"),
        ("the\t9223372036854775808", r"1gram\.tsv:1: .*<= 2\*\*63 - 1"),
        ("the", "ngram<TAB>count"),
        # int() reads each of these; a count is ASCII digits only.
        ("the\t+2", r"1gram\.tsv:1: count '\+2' is not an integer"),
        ("the\t\u0661", "count '\u0661' is not an integer"),
        ("the\t 2", "count ' 2' is not an integer"),
        ("the\t1_0", "count '1_0' is not an integer"),
    ])
    def test_malformed_gram_lines(self, tiny_index, tmp_path, line, message):
        save_index(tiny_index, tmp_path / "idx")
        path = tmp_path / "idx" / "1gram.tsv"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(IndexFormatError, match=message):
            load_index(tmp_path / "idx")

    def test_duplicate_key_rejected(self, tiny_index, tmp_path):
        save_index(tiny_index, tmp_path / "idx")
        path = tmp_path / "idx" / "2gram.tsv"
        path.write_text("the cat\t1\nthe cat\t2\n", encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path / "idx")
        assert str(info.value) == f"{path}:2: duplicate key 'the cat'"

    @pytest.mark.parametrize("name,old,new,where,message", [
        ("1gram.tsv", "cat\t2\n", "cat\t2\n\n", ":2", "blank line"),
        (MANIFEST_FILE, "max_order\t5", "max_order 5", ":2",
         "expected key<TAB>value, got 'max_order 5'"),
        (MANIFEST_FILE, "token_count\t6\n", "", "",
         "missing keys ['token_count']"),
        (MANIFEST_FILE, "token_count\t6", "token_count\tsix", "",
         "non-integer manifest field token_count: 'six'"),
        (MANIFEST_FILE, "max_order\t5", "max_order\t 5", "",
         "non-integer manifest field max_order: ' 5'"),
        (MANIFEST_FILE, "token_count\t6", "token_count\t0_6", "",
         "non-integer manifest field token_count: '0_6'"),
        (MANIFEST_FILE, "max_order\t5", "max_order\t+5", "",
         "non-integer manifest field max_order: '+5'"),
        # The format's line end is LF: a CR before it is no line end.
        ("1gram.tsv", "cat\t2\n", "cat\t2\r\n", ":1",
         "count '2\\r' is not an integer"),
        (MANIFEST_FILE, "max_order\t5\n", "max_order\t5\r\n", "",
         "non-integer manifest field max_order: '5\\r'"),
        (MANIFEST_FILE, "max_order\t5", "max_order\t6", "",
         "max_order 6 outside 1..5"),
        (MANIFEST_FILE, "max_order\t5", "max_order\t0", "",
         "max_order 0 outside 1..5"),
        (MANIFEST_FILE, "distinct_unigrams\t4", "distinct_unigrams\t5", "",
         "distinct_unigrams is 5 but 1gram.tsv has 4"),
        # A repeated or unknown key appended to a 5-gram index's manifest.
        (MANIFEST_FILE, _LAST_MANIFEST_LINE,
         _LAST_MANIFEST_LINE + "max_order\t2\n", ":6",
         "duplicate key 'max_order'"),
        (MANIFEST_FILE, _LAST_MANIFEST_LINE,
         _LAST_MANIFEST_LINE + "bogus\t1\n", ":6", "unknown key 'bogus'"),
    ])
    def test_corrupt_index_names_file_and_line(self, tiny_index, tmp_path,
                                                name, old, new, where,
                                                message):
        save_index(tiny_index, tmp_path / "idx")
        path = tmp_path / "idx" / name
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path / "idx")
        assert str(info.value) == f"{path}{where}: {message}"

    def test_unknown_token_rejected(self, tiny_index, tmp_path):
        save_index(tiny_index, tmp_path / "idx")
        path = tmp_path / "idx" / "2gram.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines) + "cat zebra\t1\n", encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path / "idx")
        assert str(info.value) == (f"{path}:{len(lines) + 1}: token 'zebra' "
                                   f"is not in 1gram.tsv")

    @pytest.mark.parametrize("token", ["a\xa0b", "a\rb", "a\x1fb", "cat\x0b"])
    def test_token_holding_whitespace_rejected(self, tiny_index, tmp_path,
                                               token):
        # A lookup checks a token only when it misses the vocabulary, so
        # every word of 1gram.tsv must be a token.
        save_index(tiny_index, tmp_path / "idx")
        path = tmp_path / "idx" / "1gram.tsv"
        path.write_text(path.read_text(encoding="utf-8")
                        + f"{token}\t1\n", encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(tmp_path / "idx")
        assert str(info.value) == \
            f"{path}:5: token {token!r} holds whitespace"

    def test_unigram_total_mismatch(self, tiny_index, tmp_path):
        save_index(tiny_index, tmp_path / "idx")
        path = tmp_path / "idx" / "1gram.tsv"
        data = path.read_text().replace("the\t2", "the\t9")
        path.write_text(data, encoding="utf-8")
        with pytest.raises(IndexFormatError, match="token_count"):
            load_index(tmp_path / "idx")


def all_tables(index):
    """Every order's stored n-grams, space-joined, with their counts."""
    return [dict(index.ngrams(k)) for k in range(1, index.max_order + 1)]


def load_from_tsv(root, tmp_path):
    """The index at `root` loaded from a copy without its sidecars."""
    copy = tmp_path / "tsv-only"
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns("*.bin"))
    return load_index(copy)


def flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x40
    path.write_bytes(bytes(data))


class TestSidecar:
    """`<k>gram.bin` loads exactly what `<k>gram.tsv` holds, or is not
    used at all."""

    @pytest.fixture
    def saved(self, tmp_path):
        # More rows than one chunk, and 5-gram keys wider than 63 bits.
        index = build_index(boundary_corpus(4097), corpus_id="sidecar")
        save_index(index, tmp_path / "idx")
        return tmp_path / "idx", index

    def load_logged(self, root, caplog):
        """Load `root`; return the index, the INFO line and the warnings."""
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="asrspell.store"):
            index = load_index(root)
        [info] = [r.getMessage() for r in caplog.records
                  if r.levelno == logging.INFO]
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        return index, info, warnings

    @pytest.mark.parametrize("vocab_size", BOUNDARY_VOCAB_SIZES)
    def test_equals_tsv_load_and_built_index(self, vocab_size, tmp_path,
                                             caplog):
        index = build_index(boundary_corpus(vocab_size))
        save_index(index, tmp_path / "idx")
        loaded, info, warnings = self.load_logged(tmp_path / "idx", caplog)
        assert "orders [2, 3, 4, 5] from sidecars, [1] from TSV" in info
        assert warnings == []
        assert all_tables(loaded) == all_tables(
            load_from_tsv(tmp_path / "idx", tmp_path)) == all_tables(index)

    @pytest.mark.parametrize("count,fits", [
        (2**32, True), (2**32 + 7, True), (2**63 - 1, True), (2**63, False),
    ])
    def test_counts_past_32_bits(self, tmp_path, caplog, count, fits):
        tables = [{"a": 3, "b": 2, "c": 1},
                  {"b a": 1, "a b": count, "c a": 2**40},
                  {"a b a": count - 1, "c a b": 1}]
        write_index_dir(tmp_path / "written", tables, "big")
        if not fits:
            # Every count is an int64: a larger one is rejected at its line.
            with pytest.raises(IndexFormatError,
                               match=r"2gram\.tsv:2: .*<= 2\*\*63 - 1"):
                load_index(tmp_path / "written")
            return
        save_index(load_index(tmp_path / "written"), tmp_path / "idx")
        loaded, info, warnings = self.load_logged(tmp_path / "idx", caplog)
        assert "[2, 3] from sidecars" in info
        assert warnings == []
        assert all_tables(loaded) == all_tables(
            load_from_tsv(tmp_path / "idx", tmp_path)) == tables

    def test_deleted(self, saved, tmp_path, caplog):
        root, index = saved
        (root / "3gram.bin").unlink()
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "orders [2, 4, 5] from sidecars, [1, 3] from TSV" in info
        assert warnings == []  # a missing sidecar is no fault
        assert all_tables(loaded) == all_tables(index)

    def test_directory_without_sidecars(self, saved, tmp_path, caplog):
        # As an index saved before sidecars existed.
        root, index = saved
        for path in root.glob("*.bin"):
            path.unlink()
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "orders none from sidecars, [1, 2, 3, 4, 5] from TSV" in info
        assert warnings == []
        assert all_tables(loaded) == all_tables(index)

    @pytest.mark.parametrize("keep", [0, 10, 63, 64, 65, 1000, -1])
    def test_truncated(self, saved, tmp_path, caplog, keep):
        root, index = saved
        path = root / "3gram.bin"
        path.write_bytes(path.read_bytes()[:keep])
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "[1, 3] from TSV" in info
        assert len(warnings) == 1 and str(path) in warnings[0]
        assert all_tables(loaded) == all_tables(index)

    def test_longer_than_recorded(self, saved, tmp_path, caplog):
        root, index = saved
        path = root / "3gram.bin"
        path.write_bytes(path.read_bytes() + bytes(20))
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "[1, 3] from TSV" in info and len(warnings) == 1
        assert all_tables(loaded) == all_tables(index)

    def test_any_header_byte_flipped(self, tmp_path, caplog):
        index = build_index(boundary_corpus(17))
        root = tmp_path / "idx"
        save_index(index, root)
        path = root / "2gram.bin"
        good = path.read_bytes()
        for offset in range(store._SIDECAR_HEADER.size):
            flip_byte(path, offset)
            loaded, info, warnings = self.load_logged(root, caplog)
            assert "[1, 2] from TSV" in info, offset
            assert len(warnings) == 1 and str(path) in warnings[0]
            assert dict(loaded.ngrams(2)) == dict(index.ngrams(2))
            path.write_bytes(good)

    @pytest.mark.parametrize("row,byte", [
        (0, 0), (0, 3), (0, 19), (1, 4), (700, 13), (-1, 0), (-1, 12),
        (-1, 19),
    ])
    def test_payload_byte_flipped(self, saved, tmp_path, caplog, row, byte):
        # 3-gram rows are 20 bytes: three uint32 ids, then an int64 count.
        root, index = saved
        path = root / "3gram.bin"
        rows = (path.stat().st_size - store._SIDECAR_HEADER.size) // 20
        flip_byte(path, store._SIDECAR_HEADER.size + row % rows * 20 + byte)
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "[1, 3] from TSV" in info
        assert len(warnings) == 1 and str(path) in warnings[0]
        assert all_tables(loaded) == all_tables(index)

    @pytest.mark.parametrize("defect", [
        "id out of range", "count below 1", "negative count", "rows swapped",
        "rows swapped across chunks", "row repeated", "rows missing"])
    def test_rows_failing_a_check_despite_valid_digests(
            self, saved, tmp_path, caplog, defect):
        root, index = saved
        path = root / "2gram.bin"
        header = store._SIDECAR_HEADER
        data = path.read_bytes()
        rows = np.frombuffer(data[header.size:],
                             dtype=store._sidecar_row(2)).copy()
        if defect == "id out of range":
            rows["ids"][5, 1] = len(index.vocab)
        elif defect == "count below 1":
            rows["count"][5] = 0
        elif defect == "negative count":
            rows["count"][5] = -3
        elif defect == "rows swapped":
            rows[[5, 6]] = rows[[6, 5]]
        elif defect == "rows swapped across chunks":
            rows[[2047, 2048]] = rows[[2048, 2047]]
        elif defect == "row repeated":
            rows[6] = rows[5]
        else:
            rows = rows[:-1]  # the header still records every row
        payload = rows.tobytes()
        fields = list(header.unpack(data[:header.size]))
        fields[-1] = zlib.crc32(payload)
        path.write_bytes(header.pack(*fields) + payload)
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "[1, 2] from TSV" in info
        assert len(warnings) == 1 and str(path) in warnings[0]
        assert all_tables(loaded) == all_tables(index)

    @pytest.mark.parametrize("same_length", [True, False])
    def test_tsv_rewritten_after_save(self, saved, tmp_path, caplog,
                                      same_length):
        root, index = saved
        path = root / "2gram.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        key, count = lines[5].rstrip("\n").split("\t")
        if same_length:
            bumped = str(int(count) + 1)
            assert len(bumped) == len(count)
            lines[5] = f"{key}\t{bumped}\n"
        else:
            del lines[5]
        path.write_text("".join(lines), encoding="utf-8")
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "orders [3, 4, 5] from sidecars, [1, 2] from TSV" in info
        assert warnings == [f"{root / '2gram.bin'}: skipped, reading "
                            f"2gram.tsv instead: 2gram.tsv changed since it "
                            f"was written"]
        assert all_tables(loaded) == all_tables(load_from_tsv(root, tmp_path))
        assert dict(loaded.ngrams(2)) != dict(index.ngrams(2))

    def test_unigrams_shift_every_id(self, tmp_path, caplog):
        # Same vocabulary size and the same n-gram files, but "a" replaces
        # the unused "z": every id of a word in 2gram.tsv moves up by one.
        tables = [{"b": 2, "c": 1, "z": 1}, {"b c": 1, "c b": 1}]
        write_index_dir(tmp_path / "written", tables, "shift")
        root = tmp_path / "idx"
        save_index(load_index(tmp_path / "written"), root)
        gram2 = (root / "2gram.tsv").read_bytes()
        (root / "1gram.tsv").write_text("a\t1\nb\t2\nc\t1\n",
                                        encoding="utf-8")
        assert (root / "2gram.tsv").read_bytes() == gram2
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "[1, 2] from TSV" in info
        assert warnings == [f"{root / '2gram.bin'}: skipped, reading "
                            f"2gram.tsv instead: 1gram.tsv changed since it "
                            f"was written"]
        assert all_tables(loaded) == [{"a": 1, "b": 2, "c": 1},
                                      {"b c": 1, "c b": 1}]

    def test_corrupt_tsv_beside_valid_looking_sidecar(self, saved, caplog):
        root, _ = saved
        path = root / "4gram.tsv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = "w1 w2 w3\t4\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(IndexFormatError) as info:
            load_index(root)
        assert str(info.value) == f"{path}:3: key 'w1 w2 w3' is not a 4-gram"

    def test_smaller_max_order_saved_over_larger(self, saved, tmp_path,
                                                 caplog):
        root, _ = saved
        smaller = build_index(boundary_corpus(17), max_order=3)
        save_index(smaller, root)
        assert sorted(p.name for p in root.iterdir()) == [
            "1gram.tsv", "2gram.bin", "2gram.tsv", "3gram.bin", "3gram.tsv",
            MANIFEST_FILE]
        loaded, info, warnings = self.load_logged(root, caplog)
        assert "orders [2, 3] from sidecars, [1] from TSV" in info
        assert warnings == []
        assert all_tables(loaded) == all_tables(smaller) == all_tables(
            load_from_tsv(root, tmp_path))

    def test_checks_hold_under_optimize(self):
        # The row checks must not be asserts: run their tests under -O.
        tests = Path(__file__).resolve()
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p",
             "no:cacheprovider", f"{tests}::TestSidecar", "-k",
             "rows_failing or header_byte"],
            cwd=tests.parent.parent, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tests.parent.parent / "src")},
            timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_concurrent_lookups(worked_index):
    import threading

    results = []

    def worker():
        ok = all(
            worked_index.ngram_count([["favorite", "shows"]]) == [7]
            and worked_index.unigram_exists("shows")
            and worked_index.unigrams_containing_bigram("aw")
            for _ in range(200))
        results.append(ok)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [True] * 8
