import math
import random
import string
import sys
from collections import Counter

import pytest

from asrspell import (BackendError, CorruptionSpec, DetectedError, ErrorKind,
                      RemoteBackend, build_index, detect_nonword_errors,
                      detect_realword_suspects, generate_candidates,
                      inject_errors, normalize_token, tokenize)
from asrspell.detect import _exempt
from asrspell.store import tokenize_line
from tests._synth import passage_of, synth_corpus
from tests.conftest import WORKED_ERROR_TEXT, WORKED_SENTENCE
from tests.test_service import _Server


class TestTokenize:
    def test_worked_example(self):
        t = tokenize(WORKED_ERROR_TEXT)
        assert len(t.tokens) == 8
        assert t.tokens[5] == "shaws"

    def test_empty(self):
        t = tokenize("")
        assert t.tokens == [] and t.spans == []

    def test_normalization_and_spans(self):
        t = tokenize("Hello,  world!")
        assert t.tokens == ["hello", "world"]
        assert [t.raw[a:b] for a, b in t.spans] == ["Hello", "world"]

    def test_spans_ascending_non_overlapping(self):
        t = tokenize("  One two,\nthree...  four!five ")
        assert len(t.tokens) == len(t.spans)
        for (a1, b1), (a2, b2) in zip(t.spans, t.spans[1:]):
            assert a1 < b1 <= a2 < b2

    def test_span_substring_normalizes_to_token(self):
        text = "Watch, 'Episodes' of -- your FAVORITE shaws; and more..."
        t = tokenize(text)
        for token, (a, b) in zip(t.tokens, t.spans):
            assert normalize_token(text[a:b]) == token

    def test_punctuation_only_chunks_dropped(self):
        assert tokenize("... --- !!!").tokens == []

    def test_matches_character_scan(self):
        for text in unicode_texts(random.Random(17)):
            got = tokenize(text)
            assert (got.tokens, got.spans) == _scan_tokenize(text), text

    def test_ascii_matches_character_scan(self):
        paths = Counter()
        for text in ascii_texts(random.Random(19)):
            got = tokenize(text)
            assert (got.tokens, got.spans) == _scan_tokenize(text), text
            paths[_path(text)] += 1
        # Both paths run, each on many texts.
        assert min(paths.values()) > 500 and len(paths) == 2, paths

    @pytest.mark.parametrize("text,path,tokens,spans", [
        ("Watch 3rd EPISODES", "whole",
         ["watch", "3rd", "episodes"], [(0, 5), (6, 9), (10, 18)]),
        ("Watch  3rd\tEPISODES\n", "scan",
         ["watch", "3rd", "episodes"], [(0, 5), (7, 10), (11, 19)]),
        ("Watch, 3rd episodes", "scan",
         ["watch", "3rd", "episodes"], [(0, 5), (7, 10), (11, 19)]),
        ("Watch 3rd \u00e9pisodes", "scan",
         ["watch", "3rd", "\u00e9pisodes"], [(0, 5), (6, 9), (10, 18)]),
    ])
    def test_each_path(self, text, path, tokens, spans):
        assert _path(text) == path
        got = tokenize(text)
        assert (got.tokens, got.spans) == (tokens, spans)
        assert (tokens, spans) == _scan_tokenize(text)

    def test_corpus_lines_tokenize_alike(self):
        # The index's vocabulary and the detector's tokens cannot drift
        # apart.
        for rng, texts in [(random.Random(23), ascii_texts),
                           (random.Random(29), unicode_texts)]:
            for text in texts(rng):
                assert tokenize_line(text) == tokenize(text).tokens, text


# Every character str.split() splits ASCII text at.
ASCII_SPACES = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"


def ascii_texts(rng, count=3000):
    """ASCII texts of chunks of letters of both cases and digits, a
    quarter of them also with `'-.,!`. Half part the chunks by single
    spaces, half by runs of one to three ASCII whitespace characters,
    with and without a run before and after them."""
    alnum = string.ascii_letters + string.digits
    texts = []
    for _ in range(count):
        chunks = ["".join(rng.choices(
                      alnum + ("'-.,!" if rng.random() < 0.25 else ""),
                      k=rng.randint(1, 8)))
                  for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.5:
            texts.append(" ".join(chunks))
            continue
        runs = ["".join(rng.choices(ASCII_SPACES, k=rng.randint(1, 3)))
                for _ in range(len(chunks) + 1)]
        lead = runs[0] if rng.random() < 0.5 else ""
        trail = runs[-1] if rng.random() < 0.5 else ""
        texts.append(lead + "".join(chunk + run for chunk, run
                                    in zip(chunks, runs[1:-1] + [trail])))
    return texts


def unicode_texts(rng):
    """Texts over letters, digits, punctuation and whitespace in and out
    of ASCII; random code points; every whitespace character."""
    alphabet = (" \t\n.,'-!Ab9\u00e9\u0130\u00b2\u0663\u00a0\u2028"
                "\u3000\x1c\x85\ufeff\U0001d400")
    texts = ["".join(rng.choice(alphabet)
                     for _ in range(rng.randint(0, 40)))
             for _ in range(3000)]
    texts += ["".join(chr(rng.randrange(sys.maxunicode + 1))
                      for _ in range(rng.randint(0, 20)))
              for _ in range(2000)]
    spaces = [chr(c) for c in range(sys.maxunicode + 1)
              if chr(c).isspace()]
    texts += [f"a{c}b.{c},{c}" for c in spaces]
    texts.append(" ".join(spaces) + "x" + "".join(spaces))
    return texts


def _path(text):
    """Which way tokenize() reads `text`: the whole-string path ("whole")
    or the per-chunk scan ("scan")."""
    chunks = text.split()
    # ASCII, alphanumeric chunks, one whitespace character between them
    # and none around them.
    if (text.isascii() and "".join(chunks).isalnum()
            and len(text) == len("".join(chunks)) + len(chunks) - 1):
        return "whole"
    return "scan"


def _scan_tokenize(text):
    """The oracle for tokenize(): its tokens and spans, found by scanning
    for whitespace one character at a time."""
    tokens, spans = [], []
    pos, n = 0, len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        end = pos
        while end < n and not text[end].isspace():
            end += 1
        start, stop = pos, end
        while start < stop and not text[start].isalnum():
            start += 1
        while stop > start and not text[stop - 1].isalnum():
            stop -= 1
        token = normalize_token(text[start:stop])
        if token is not None:
            tokens.append(token)
            spans.append((start, stop))
        pos = end
    return tokens, spans


class TestNonwordDetection:
    def test_worked_example(self, worked_index):
        errors = detect_nonword_errors(tokenize(WORKED_ERROR_TEXT),
                                       worked_index)
        assert len(errors) == 1
        assert errors[0].position == 5
        assert errors[0].token == "shaws"
        assert errors[0].kind is ErrorKind.NONWORD

    def test_clean_transcript(self, worked_index):
        assert detect_nonword_errors(tokenize(WORKED_SENTENCE),
                                     worked_index) == []

    def test_every_token_oov(self, worked_index):
        errors = detect_nonword_errors(tokenize("zzq qqz zqz"), worked_index)
        assert [e.position for e in errors] == [0, 1, 2]

    def test_digit_tokens_exempt(self, worked_index):
        errors = detect_nonword_errors(tokenize("42 shaws 3rd"), worked_index)
        assert [e.token for e in errors] == ["shaws"]

    def test_exempt_iff_some_character_is_a_digit(self):
        # _exempt skips the digit scan for alphabetic tokens: exact only
        # while no character is both a letter and a digit.
        for code in range(sys.maxunicode + 1):
            c = chr(code)
            assert _exempt(c) == c.isdigit(), hex(code)
        for token in ["x\u00b2", "don't", "a\u0663b", "well-known", "abc"]:
            assert _exempt(token) == any(c.isdigit() for c in token)

    def test_exhaustive_against_vocab_membership(self):
        rng = random.Random(13)
        letters = "abcdefghij"
        for _ in range(20):
            vocab = {"".join(rng.choice(letters)
                             for _ in range(rng.randint(1, 7)))
                     for _ in range(rng.randint(1, 60))}
            index = build_index(" ".join(sorted(vocab)))
            words = [rng.choice(sorted(vocab)) if rng.random() < 0.7
                     else "".join(rng.choice(letters) for _ in range(5))
                     for _ in range(rng.randint(0, 80))]
            transcript = tokenize(" ".join(words))
            expected = [i for i, tok in enumerate(transcript.tokens)
                        if not index.unigram_exists(tok)]
            got = detect_nonword_errors(transcript, index)
            assert [e.position for e in got] == expected
            assert all(not index.unigram_exists(e.token) for e in got)

    def test_one_lookup_call(self, worked_index):
        backend = CountingBackend(worked_index)
        text = "42 shaws and more shaws and qqz"
        errors = detect_nonword_errors(tokenize(text), backend)
        assert [e.position for e in errors] == [1, 4, 6]
        assert backend.calls == {"ngram_count": 1}
        assert backend.queries == 6  # one per token without a digit
        backend = CountingBackend(worked_index)
        assert detect_nonword_errors(tokenize("42 ..."), backend) == []
        assert backend.calls == {}


# Corpus where "shows" is overwhelmingly attested after "your favorite":
# enough occurrences that the real-word margin test fires for a confusable.
REALWORD_LINES = ["watch episodes of your favorite shows and more"] * 25 + [
    "shawls shays shank sham haws hawk saws sawn maws hews"]


@pytest.fixture(scope="module")
def realword_index():
    return build_index(REALWORD_LINES, corpus_id="realword-fixture")


class TestRealwordDetection:
    def test_clean_text_not_flagged(self, realword_index):
        suspects = detect_realword_suspects(
            tokenize(WORKED_SENTENCE), realword_index, margin=10)
        assert suspects == []

    def test_confusable_flagged(self, realword_index):
        # "shawls" is a real word here, but "shows" fits the context >= 10x
        # better.
        text = "watch episodes of your favorite shawls and more"
        suspects = detect_realword_suspects(
            tokenize(text), realword_index, margin=10)
        assert [(s.position, s.token) for s in suspects] == [(5, "shawls")]
        assert suspects[0].kind is ErrorKind.REALWORD_SUSPECT

    def test_infinite_margin_disables(self, realword_index):
        text = "watch episodes of your favorite shawls and more"
        assert detect_realword_suspects(
            tokenize(text), realword_index, margin=math.inf) == []

    def test_empty_transcript(self, realword_index):
        assert detect_realword_suspects(tokenize(""), realword_index) == []

    def test_oov_tokens_not_suspects(self, realword_index):
        suspects = detect_realword_suspects(
            tokenize(WORKED_ERROR_TEXT), realword_index, margin=10)
        assert all(s.token != "shaws" for s in suspects)

    def test_first_token_never_flagged(self, realword_index):
        suspects = detect_realword_suspects(
            tokenize("shawls and more"), realword_index, margin=1)
        assert all(s.position != 0 for s in suspects)

    def test_margin_below_one_rejected(self, realword_index):
        with pytest.raises(ValueError):
            detect_realword_suspects(tokenize("a b"), realword_index,
                                     margin=0.5)
        with pytest.raises(ValueError, match="margin must be >= 1"):
            detect_realword_suspects(tokenize("a b"), realword_index,
                                     margin=math.nan)


def unpruned_realword_suspects(transcript, backend, margin):
    """Reference: real-word detection that ranks and counts the candidates
    of every in-vocabulary token that has a context, without the
    context-count bound."""
    window = backend.max_order - 1
    suspects = []
    for i, token in enumerate(transcript.tokens):
        prefix = transcript.tokens[max(0, i - window):i]
        if not prefix or len(token) < 2 or any(c.isdigit() for c in token):
            continue
        if not backend.unigram_exists(token):
            continue
        [own] = backend.ngram_count([prefix + [token]])
        threshold = margin * max(own, 1)
        cands = [c.word for c in generate_candidates(token, backend)]
        if any(count >= threshold for count in backend.ngram_count(
                [prefix + [cand] for cand in cands])):
            suspects.append(
                DetectedError(i, token, ErrorKind.REALWORD_SUSPECT))
    return suspects


class CountingBackend:
    """Delegates to an index and counts calls per contract method, and
    the queries of all ngram_count calls together; `batches` keeps each
    call's queries."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()
        self.queries = 0
        self.batches = []

    def ngram_count(self, queries):
        queries = list(queries)
        self.calls["ngram_count"] += 1
        self.queries += len(queries)
        self.batches.append(queries)
        return self._inner.ngram_count(queries)

    @property
    def max_order(self):
        return self._inner.max_order

    def __getattr__(self, name):
        method = getattr(self._inner, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)
        return counted


# Tokens _exempt skips: ASCII and other digits, with letters and alone.
DIGIT_TOKENS = ["42", "3rd", "x\u00b2", "a\u0663b", "\U0001d7d9", "\u0663"]
# Tokens it keeps, letters alone or with an apostrophe or hyphen.
WORD_TOKENS = ["watch", "episodes", "of", "your", "favorite", "shows",
               "shawls", "shaws", "and", "more", "qqz", "don't",
               "well-known", "caf\u00e9", "a"]


class TestExemption:
    """Both detectors check exactly the tokens a per-token `_exempt`
    filter keeps, whether the transcript holds a digit or not."""

    @pytest.fixture(scope="class")
    def index(self):
        # The digit tokens are in the vocabulary, so only the exemption
        # keeps them from being checked.
        return build_index(REALWORD_LINES + [
            "watch " + " ".join(DIGIT_TOKENS + WORD_TOKENS[:6])] * 3)

    def transcripts(self):
        rng = random.Random(31)
        for n in range(400):
            pool = WORD_TOKENS + (DIGIT_TOKENS if n % 2 else [])
            yield tokenize(" ".join(rng.choices(pool,
                                                k=rng.randint(0, 16))))

    def test_nonword_checks_what_the_filter_keeps(self, index):
        letters_only = 0
        for transcript in self.transcripts():
            tokens = transcript.tokens
            kept = [i for i, token in enumerate(tokens)
                    if not _exempt(token)]
            backend = CountingBackend(index)
            got = detect_nonword_errors(transcript, backend)
            assert [e.position for e in got] == [
                i for i in kept if not index.unigram_exists(tokens[i])]
            assert backend.batches == (
                [[(tokens[i],) for i in kept]] if kept else [])
            letters_only += "".join(tokens).isalpha()
        # Both screenings run, each on many transcripts.
        assert 50 <= letters_only <= 350

    @pytest.mark.parametrize("margin", [1, 10])
    def test_realword_checks_what_the_filter_keeps(self, index, margin):
        flagged = 0
        for transcript in self.transcripts():
            tokens = transcript.tokens
            backend = CountingBackend(index)
            got = detect_realword_suspects(transcript, backend,
                                           margin=margin)
            assert got == unpruned_realword_suspects(transcript, index,
                                                     margin)
            # The first call reads each checked token's unigram, own and
            # context counts.
            checked = [query[-1] for query in
                       (backend.batches[0][::3] if backend.batches else [])]
            assert checked == [token for i, token in enumerate(tokens)
                               if i and len(token) >= 2
                               and not _exempt(token)]
            flagged += len(got)
        assert flagged > 0


@pytest.fixture(scope="module")
def detect_corpus():
    return synth_corpus(8000, seed=11)


@pytest.fixture(scope="module")
def synth_case(detect_corpus):
    """A seeded synthetic index and transcripts with real-word and
    non-word errors: half cut from the corpus itself (frequent contexts),
    half from fresh text (many unattested ones)."""
    corpus = detect_corpus
    index = build_index(corpus, corpus_id="synth-detect")
    fresh = synth_corpus(3000, seed=12)
    transcripts = []
    for i in range(12):
        text = passage_of(corpus if i % 2 else fresh, 40, start_line=i)
        spec = CorruptionSpec(nonword_rate=0.05, realword_rate=0.2, seed=i)
        transcripts.append(
            tokenize(inject_errors(text, index, spec).corrupted_text))
    return index, transcripts


@pytest.fixture(scope="module")
def window_index(detect_corpus, synth_case):
    """The indexes of `synth_case`'s corpus by their context window, each
    of order window + 1."""
    indexes = {window: build_index(detect_corpus, max_order=window + 1)
               for window in (0, 1, 2)}
    return {**indexes, 4: synth_case[0]}


class TestRealwordContextBound:
    # Over indexes of order 1, 2 and 5: the window is the index's.
    @pytest.mark.parametrize("window", [0, 1, 4])
    @pytest.mark.parametrize("margin", [1, 1.5, 10, math.inf])
    def test_matches_unpruned_reference(self, synth_case, window_index,
                                        margin, window):
        _, transcripts = synth_case
        index = window_index[window]
        flagged = 0
        for transcript in transcripts:
            got = detect_realword_suspects(transcript, index, margin=margin)
            assert got == unpruned_realword_suspects(transcript, index,
                                                     margin)
            flagged += len(got)
        # Without a context no token is checked.
        assert (flagged > 0) == (margin != math.inf and window > 0)

    def test_no_context_no_lookup(self, synth_case, window_index):
        # Over a 1-gram index no token has a context: nothing is counted
        # or ranked, at the lowest margin too.
        _, transcripts = synth_case
        backend = CountingBackend(window_index[0])
        for transcript in transcripts:
            assert detect_realword_suspects(transcript, backend,
                                            margin=1) == []
        assert backend.calls == Counter()

    def test_infinite_margin_ranks_nothing(self, synth_case, window_index):
        # Every context count is below an infinite threshold.
        _, transcripts = synth_case
        for window in [0, 1, 4]:
            backend = CountingBackend(window_index[window])
            for transcript in transcripts:
                detect_realword_suspects(transcript, backend,
                                         margin=math.inf)
            assert backend.calls["rank_by_shared_bigrams"] == 0

    def test_served_index_reads_the_same_window(self, synth_case,
                                                window_index):
        # A RemoteBackend reads its window from /v1/manifest: over a
        # served 3-gram index it flags what the local index flags.
        _, transcripts = synth_case
        index = window_index[2]
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        flagged = 0
        try:
            for transcript in transcripts:
                got = detect_realword_suspects(transcript, remote,
                                               margin=1.5)
                assert got == detect_realword_suspects(transcript, index,
                                                       margin=1.5)
                assert got == unpruned_realword_suspects(transcript, index,
                                                         1.5)
                flagged += len(got)
            assert remote.max_order == 3
        finally:
            remote.close()
            srv.stop()
        assert flagged > 0

    @pytest.mark.parametrize("window", [1, 4])
    def test_survivors_ranked_in_one_call(self, synth_case, window_index,
                                          window):
        class RecordingBackend(CountingBackend):
            def rank_by_shared_bigrams(self, pairs):
                batches.append(len(pairs))
                assert all(context == () for context, _ in pairs)
                return self._inner.rank_by_shared_bigrams(pairs)

        _, transcripts = synth_case
        index = window_index[window]
        largest = 0
        for transcript in transcripts:
            batches = []
            backend = RecordingBackend(index)
            got = detect_realword_suspects(transcript, backend, margin=1.5)
            assert got == unpruned_realword_suspects(transcript, index, 1.5)
            assert len(batches) <= 1
            assert backend.calls["ngram_count"] <= 2
            largest = max([largest, *batches])
        assert largest > 1  # several survivors in one call

    def test_rare_context_ranks_nothing(self, realword_index):
        # count("hews") = 1 is below the threshold 10 * max(0, 1): no
        # candidate of "shawls" can reach it after "hews".
        backend = CountingBackend(realword_index)
        assert detect_realword_suspects(tokenize("hews shawls"), backend,
                                        margin=10) == []
        assert backend.calls["rank_by_shared_bigrams"] == 0
        # One call: existence, own count and context count of "shawls".
        assert (backend.calls["ngram_count"], backend.queries) == (1, 3)

    def test_frequent_context_still_ranks(self, realword_index):
        # "your favorite" occurs 25 times, enough for "shows" to beat
        # "shawls"; every other token's context is too rare or too well
        # matched by the token itself.
        backend = CountingBackend(realword_index)
        text = "watch episodes of your favorite shawls and more"
        suspects = detect_realword_suspects(tokenize(text), backend,
                                            margin=10)
        assert [(s.position, s.token) for s in suspects] == [(5, "shawls")]
        assert backend.calls["rank_by_shared_bigrams"] == 1
        # One call for the checked tokens, one for the candidates of
        # "shawls".
        assert backend.calls["ngram_count"] == 2

    def test_context_lookup_fault_propagates(self, realword_index):
        class FailingContext(CountingBackend):
            def ngram_count(self, queries):
                if ["your", "favorite"] in map(list, queries):
                    raise BackendError("lookup service down")
                return super().ngram_count(queries)

        with pytest.raises(BackendError):
            detect_realword_suspects(
                tokenize("your favorite shawls"),
                FailingContext(realword_index), margin=10)
