import logging
import math
from collections import Counter

import pytest

from asrspell import (BackendError, CorruptionSpec, PipelineConfig,
                      RemoteBackend, build_index, correct_transcript,
                      detect_nonword_errors, generate_candidates,
                      inject_errors, select_correction, tokenize)
from asrspell.correct import CorrectionDecision, selection_queries
from asrspell.detect import ErrorKind, _exempt
from tests._synth import passage_of, synth_corpus
from tests.conftest import WORKED_ERROR_TEXT, WORKED_SENTENCE
from tests.test_detect import CountingBackend
from tests.test_oracle import Oracle, pipeline_decisions
from tests.test_service import _Server

CORRECTED = WORKED_SENTENCE  # what the error text must become


def select(prefix, words, backend):
    """select_correction over the counts it reads, from one ngram_count
    call to `backend`."""
    counts = backend.ngram_count(selection_queries(prefix, words))
    return select_correction(prefix, words, counts)


def words_of(candidates):
    return [c.word for c in candidates]


def test_pipeline_config_validation():
    # NaN compares false with everything: as a margin it would flag no
    # token at all.
    for margin in [math.nan, 0.5]:
        with pytest.raises(ValueError, match="realword_margin must be >= 1"):
            PipelineConfig(realword_enabled=True, realword_margin=margin)


class TestBuildContextQueries:
    """The context of an error position, and the queries selection builds
    from it and the candidate words."""

    def test_worked_example_prefix(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        words = words_of(generate_candidates("shaws", worked_index))
        prefix = transcript.context(5, 4)
        assert len(words) == 8
        assert prefix == ("episodes", "of", "your", "favorite")
        # The first queries are the full order 5, one per candidate.
        queries = selection_queries(prefix, words)
        assert queries[:8] == [(*prefix, w) for w in words]

    def test_first_token_has_no_prefix(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        words = words_of(generate_candidates("shaws", worked_index))[:3]
        assert transcript.context(0, 4) == ()
        assert selection_queries((), words) == [(w,) for w in words]

    def test_truncated_prefix(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        words = words_of(generate_candidates("shaws", worked_index))[:1]
        prefix = transcript.context(2, 4)
        assert prefix == ("watch", "episodes")
        assert selection_queries(prefix, words) == [
            ("watch", "episodes", words[0]), ("episodes", words[0]),
            (words[0],)]

    def test_window_bounds_the_prefix(self):
        transcript = tokenize(WORKED_ERROR_TEXT)
        assert transcript.context(5, 0) == ()
        assert transcript.context(5, 2) == ("your", "favorite")
        assert transcript.context(7, 4) == ("your", "favorite", "shaws",
                                            "and")


def query_context(prefix: tuple[str, ...], order: int) -> tuple[str, ...]:
    """The prefix tokens that ``query_tokens(prefix, word, order)``
    keeps."""
    return prefix[max(0, len(prefix) - (order - 1)):]


def query_tokens(prefix: tuple[str, ...], word: str,
                 order: int | None = None) -> list[str]:
    """The query token sequence, truncated from the left to `order` (whole
    when `order` exceeds the query's own)."""
    if order is None:
        order = len(prefix) + 1
    return [*query_context(prefix, order), word]


class TestContextQueryTokens:
    def test_truncated_from_the_left(self):
        prefix = ("a", "b", "c", "d")
        assert query_tokens(prefix, "e") == ["a", "b", "c", "d", "e"]
        assert query_tokens(prefix, "e", 3) == ["c", "d", "e"]
        assert query_tokens(prefix, "e", 1) == ["e"]

    @pytest.mark.parametrize("prefix", [(), ("a",), ("a", "b"),
                                        ("a", "b", "c")])
    def test_whole_above_own_order(self, prefix):
        for order in range(len(prefix) + 1, 6):
            assert query_tokens(prefix, "z", order) == [*prefix, "z"]
            assert query_context(prefix, order) == prefix


class TestSelectCorrection:
    def test_full_order_decision(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        words = words_of(generate_candidates("shaws", worked_index))
        decision = select(transcript.context(5, 4), words, worked_index)
        assert decision.chosen == "shows"
        assert decision.backoff_order == 5
        assert decision.scores["shows"] == (5, 7)
        assert decision.scores["haws"] == (5, 0)

    def test_singleton_candidate(self, worked_index):
        decision = select(("your", "favorite"), ["shows"], worked_index)
        assert decision.chosen == "shows"
        assert decision.backoff_order == 3

    def test_backoff_to_trigram(self):
        # No 4/5-gram contains any candidate; "your favorite shows" x3 wins
        # at order 3. Single-word lines contribute vocabulary only.
        corpus = (["your favorite shows"] * 3 +
                  ["watch", "episodes", "of", "and", "more",
                   "shawls shays shank sham haws hawk saws sawn maws hews"])
        index = build_index(corpus)
        transcript = tokenize(WORKED_ERROR_TEXT)
        words = words_of(generate_candidates("shaws", index))
        decision = select(transcript.context(5, 4), words, index)
        assert decision.chosen == "shows"
        assert decision.backoff_order == 3
        assert decision.scores["shows"] == (3, 3)

    def test_tie_breaks_by_candidate_rank(self, worked_index):
        decision = select((), ["haws", "maws"], worked_index)
        assert decision.chosen == "haws"  # both count 1, first rank wins

    def test_empty_queries_rejected(self):
        for prefix in [(), ("your", "favorite")]:
            with pytest.raises(ValueError, match="words must be non-empty"):
                selection_queries(prefix, [])
            with pytest.raises(ValueError, match="words must be non-empty"):
                select_correction(prefix, [], [])

    def test_counts_of_wrong_length_rejected(self, worked_index):
        prefix, words = ("your", "favorite"), ["shows", "haws"]
        counts = worked_index.ngram_count(selection_queries(prefix, words))
        assert len(counts) == 6  # two words at orders 3, 2 and 1
        for wrong in [counts[:-1], counts + [0], counts[:2]]:
            with pytest.raises(ValueError, match="counts for 2 words"):
                select_correction(prefix, words, wrong)


def order_by_order_select(prefix, words, backend):
    """Reference: select_correction with one ngram_count call per order,
    from the longest down, stopping at the first order where some word
    is attested."""
    scores = {}
    for order in range(len(prefix) + 1, 0, -1):
        counts = backend.ngram_count([query_tokens(prefix, w, order)
                                      for w in words])
        scores = {w: (order, c) for w, c in zip(words, counts)}
        if max(counts) > 0:
            return CorrectionDecision(
                chosen=words[counts.index(max(counts))],
                scores=scores, backoff_order=order)
    return CorrectionDecision(chosen=None, scores=scores, backoff_order=1)


@pytest.fixture(scope="module")
def synth_select_corpus():
    return synth_corpus(8000, seed=21)


@pytest.fixture(scope="module")
def synth_texts(synth_select_corpus):
    """A seeded synthetic index and transcripts with non-word errors, cut
    from it and from fresh text."""
    corpus = synth_select_corpus
    index = build_index(corpus, corpus_id="synth-select")
    fresh = synth_corpus(3000, seed=22)
    texts = []
    for i in range(16):
        text = passage_of(corpus if i % 2 else fresh, 40, start_line=i)
        spec = CorruptionSpec(nonword_rate=0.1, seed=i)
        texts.append(inject_errors(text, index, spec).corrupted_text)
    # Two transcripts as dense in errors as ASR output at a high word
    # error rate, and one with none.
    for i in range(16, 18):
        text = passage_of(fresh, 40, start_line=i)
        spec = CorruptionSpec(nonword_rate=0.3, seed=i)
        texts.append(inject_errors(text, index, spec).corrupted_text)
    texts.append(passage_of(corpus, 40, start_line=18))
    return index, texts


@pytest.fixture(scope="module")
def synth_selection(synth_texts):
    """The context and candidate words of every non-word error in
    `synth_texts`, at windows 0-4."""
    index, texts = synth_texts
    selections = []
    for i, text in enumerate(texts):
        transcript = tokenize(text)
        for error in detect_nonword_errors(transcript, index):
            words = words_of(generate_candidates(error.token, index))
            if words:
                selections.append(
                    (transcript.context(error.position, i % 5), words))
    return index, selections


class TestSelectionFromOneBatch:
    def test_matches_order_by_order_reference(self, synth_selection):
        index, selections = synth_selection
        orders = set()
        for prefix, words in selections:
            got = select(prefix, words, index)
            assert got == order_by_order_select(prefix, words, index)
            orders.add(got.backoff_order)
        assert len(orders) >= 3  # backoff really happens

    def test_unattested_context_costs_one_lookup(self, worked_index):
        # "zebra of your favorite" never occurs; "of your favorite" does.
        words = words_of(generate_candidates("shaws", worked_index))
        prefix = ("zebra", "of", "your", "favorite")
        backend = CountingBackend(worked_index)
        decision = select(prefix, words, backend)
        assert (decision.chosen, decision.backoff_order) == ("shows", 4)
        # One call for the 8 candidates at each of the orders 5 to 1.
        assert (backend.calls["ngram_count"], backend.queries) == (1, 40)

    def test_context_lookup_fault_propagates(self, worked_index):
        class FailingContext(CountingBackend):
            def rank_by_shared_bigrams(self, pairs):
                pairs = list(pairs)
                if any(tuple(context[-3:]) == ("of", "your", "favorite")
                       for context, _ in pairs):
                    raise BackendError("lookup service down")
                return self._inner.rank_by_shared_bigrams(pairs)

        # The ranking of "shaws" counts its candidates after its context,
        # order 4 included.
        with pytest.raises(BackendError):
            correct_transcript(WORKED_ERROR_TEXT,
                               FailingContext(worked_index))


class TestLookupCalls:
    @pytest.mark.parametrize("max_order", [1, 3, 5])
    def test_call_budget(self, synth_select_corpus, synth_texts, max_order):
        # However many errors: one ngram_count call for non-word detection
        # when some token is checked, and one ranking, which also counts
        # the candidates after each error's context, when there is an
        # error, however far each backs off.
        _, texts = synth_texts
        index = build_index(synth_select_corpus, max_order=max_order)
        errors = []
        for text in texts:
            backend = CountingBackend(index)
            result = correct_transcript(text, backend)
            assert result == correct_transcript(text, index)
            assert all(d.backoff_order <= max_order
                       for d in result.decisions)
            checked = any(not _exempt(t) for t in tokenize(text).tokens)
            found = len(result.decisions)
            assert backend.calls == Counter({
                "ngram_count": checked,
                "rank_by_shared_bigrams": found > 0,
            }) - Counter()
            assert sum(backend.calls.values()) == checked + (found > 0)
            errors.append(found)
        assert sum(errors) >= 16
        assert max(errors) >= 8 and min(errors) == 0

    @pytest.mark.parametrize("max_order", [1, 3, 5])
    def test_ranking_equals_the_two_step_reference(
            self, synth_select_corpus, synth_texts, max_order):
        # Every token of the transcripts after its context, errors and
        # vocabulary words alike, so that contexts hold words outside the
        # vocabulary, plus words that share no bigram with any word and
        # empty contexts. Each ranking and its counts equal the ranking
        # alone, then the counts of its selection queries in a brute-force
        # count of the corpus lines, locally and over HTTP.
        _, texts = synth_texts
        index = build_index(synth_select_corpus, max_order=max_order)
        reference = Oracle(synth_select_corpus.splitlines(), max_order).counts
        window = max_order - 1
        pairs = []
        for text in texts:
            transcript = tokenize(text)
            pairs += [(transcript.context(i, window), token)
                      for i, token in enumerate(transcript.tokens)]
        pairs += [(context, word) for context, _ in pairs[:40:8]
                  for word in ("q", "zqx")]
        pairs += [((), token) for _, token in pairs[:20]]
        expected = []
        for context, word in pairs:
            candidates = generate_candidates(word, index)
            words = words_of(candidates)
            expected.append((candidates, [
                reference[(*context[len(context) - order + 1:], candidate)]
                for order in range(len(context) + 1, 0, -1)
                for candidate in words]))
        assert index.rank_by_shared_bigrams(pairs) == expected
        assert any(not candidates for candidates, _ in expected)
        assert sum(not index.unigram_exists(token)
                   for context, _ in pairs for token in context) >= (
            10 if window else 0)
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        try:
            assert remote.rank_by_shared_bigrams(pairs) == expected
        finally:
            remote.close()
            srv.stop()

    def test_call_budget_with_realword(self, synth_texts):
        # Detection: one count for non-word errors, then for the real-word
        # pass one count, one ranking and one count of the candidates of
        # the tokens whose context is frequent enough. Correction: one
        # ranking, and one count of the suspects' own words when there is
        # a suspect.
        index, texts = synth_texts
        config = PipelineConfig(realword_enabled=True, realword_margin=1.5)
        suspects = 0
        for text in texts:
            backend = CountingBackend(index)
            result = correct_transcript(text, backend, config)
            assert result == correct_transcript(text, index, config)
            found = sum(d.error.kind is ErrorKind.REALWORD_SUSPECT
                        for d in result.decisions)
            assert backend.calls["ngram_count"] <= 3 + (found > 0)
            assert backend.calls["rank_by_shared_bigrams"] <= 2
            assert sum(backend.calls.values()) <= 5 + (found > 0)
            suspects += found
        assert suspects > 0

    def test_one_request_per_stage_over_http(self, synth_texts, caplog):
        # Counted on the server, from its request log: one count batch
        # per transcript for detection, then one candidate ranking, with
        # the counts after each context, for all of its errors together.
        index, texts = synth_texts
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        caplog.set_level(logging.DEBUG, logger="asrspell.service")
        errors = []
        try:
            # The manifest request that reads max_order goes first.
            assert remote.max_order == index.max_order
            for text in texts:
                caplog.clear()
                result = correct_transcript(text, remote)
                assert result == correct_transcript(text, index)
                requests = Counter(
                    _method_and_path(r.getMessage()) for r in caplog.records
                    if r.name == "asrspell.service")
                found = len(result.decisions)
                assert found == sum(1 for d in result.decisions
                                    if d.candidates)
                assert requests == Counter({
                    ("POST", "/v1/ngram"): 1,
                    ("POST", "/v1/candidates"): found > 0}) - Counter()
                assert requests[("GET", "/v1/candidates")] == 0
                errors.append(found)
        finally:
            remote.close()
            srv.stop()
        assert sum(errors) >= 16
        assert max(errors) >= 8 and min(errors) == 0


def _method_and_path(message):
    """Method and path of a service log line such as
    '127.0.0.1 "POST /v1/candidates HTTP/1.1" 200 -'."""
    method, target, _ = message.split('"')[1].split(" ")
    return method, target.partition("?")[0]


class TestCorrectTranscript:
    def test_worked_example_end_to_end(self, worked_index):
        result = correct_transcript(WORKED_ERROR_TEXT, worked_index)
        assert result.corrected_text == CORRECTED
        [decision] = result.decisions
        assert decision.chosen == "shows"
        assert decision.backoff_order == 5
        assert decision.error.position == 5

    def test_clean_text_is_byte_identity(self, worked_index):
        text = "Watch episodes of your favorite shows, and more!"
        result = correct_transcript(text, worked_index)
        assert result.corrected_text == text
        assert result.decisions == []

    def test_unfixable_oov_left_verbatim(self, worked_index):
        text = "qqqq zzzz"
        result = correct_transcript(text, worked_index)
        assert result.corrected_text == text
        assert len(result.decisions) == 2
        assert all(d.chosen is None for d in result.decisions)

    def test_capital_preserved(self, worked_index):
        # Decided by the full 5-gram context: shows 7, haws 0.
        result = correct_transcript(
            "Watch episodes of your favorite Shaws and more", worked_index)
        assert result.corrected_text == \
            "Watch episodes of your favorite Shows and more"
        [decision] = result.decisions
        assert decision.backoff_order == 5

    def test_punctuation_preserved(self, worked_index):
        text = "watch episodes of your favorite shaws, and more..."
        result = correct_transcript(text, worked_index)
        assert result.corrected_text == \
            "watch episodes of your favorite shows, and more..."

    def test_idempotent_on_fixture(self, worked_index):
        once = correct_transcript(WORKED_ERROR_TEXT, worked_index)
        twice = correct_transcript(once.corrected_text, worked_index)
        assert twice.corrected_text == once.corrected_text
        assert twice.decisions == []

    def test_argmax_contract(self, worked_index):
        result = correct_transcript(WORKED_ERROR_TEXT, worked_index)
        for d in result.decisions:
            if d.chosen is None:
                continue
            order, count = d.scores[d.chosen]
            assert order == d.backoff_order
            assert all(c <= count for (_, c) in d.scores.values())

    def test_scaling_invariance(self, worked_corpus_lines):
        base = build_index(worked_corpus_lines)
        doubled = build_index(list(worked_corpus_lines) * 2)
        for text in [WORKED_ERROR_TEXT, "shaws at the start",
                     "your favorite shaws"]:
            a = correct_transcript(text, base)
            b = correct_transcript(text, doubled)
            assert a.corrected_text == b.corrected_text
            assert [d.chosen for d in a.decisions] == \
                [d.chosen for d in b.decisions]

    def test_context_from_original_tokens(self):
        # Two adjacent errors: the second corrects against the original
        # (corrupted) neighbor, not the first error's replacement, so its
        # 5-gram context misses and it falls back to a shorter order.
        corpus = ["one two three four five six"] * 4
        index = build_index(corpus)
        result = correct_transcript("one two three fourx fivex six", index)
        by_pos = {d.error.position: d for d in result.decisions}
        assert by_pos[3].chosen == "four"
        assert by_pos[4].chosen == "five"
        assert by_pos[4].backoff_order < 5
        assert result.corrected_text == "one two three four five six"

    def test_membership_of_chosen(self, worked_index):
        result = correct_transcript(WORKED_ERROR_TEXT, worked_index)
        for d in result.decisions:
            if d.chosen is not None:
                assert d.chosen in words_of(d.candidates) or \
                    d.chosen == d.error.token


REALWORD_LINES = ["watch episodes of your favorite shows and more"] * 25 + [
    "shawls shays shank sham haws hawk saws sawn maws hews"]


@pytest.fixture(scope="module")
def index():
    return build_index(REALWORD_LINES)


class TestRealwordCorrection:
    def test_realword_corrected(self, index):
        config = PipelineConfig(realword_enabled=True, realword_margin=10)
        text = "watch episodes of your favorite shawls and more"
        result = correct_transcript(text, index, config)
        assert result.corrected_text == \
            "watch episodes of your favorite shows and more"
        [decision] = result.decisions
        assert decision.error.token == "shawls"
        assert decision.chosen == "shows"

    def test_disabled_by_default(self, index):
        text = "watch episodes of your favorite shawls and more"
        result = correct_transcript(text, index)
        assert result.corrected_text == text

    def test_clean_text_untouched(self, index):
        config = PipelineConfig(realword_enabled=True, realword_margin=10)
        result = correct_transcript(WORKED_SENTENCE, index, config)
        assert result.corrected_text == WORKED_SENTENCE
        assert result.decisions == []

    def test_original_competes_and_survives_ties(self, index):
        # Margin 1 flags plenty, but the original is ranked first in
        # selection, so equal context counts change nothing.
        config = PipelineConfig(realword_enabled=True, realword_margin=1)
        result = correct_transcript(WORKED_SENTENCE, index, config)
        assert result.corrected_text == WORKED_SENTENCE

    def test_suspects_are_decided_at_the_full_order(self, synth_texts):
        # Detection and selection read one context per position. A suspect
        # has a candidate whose full-order count reaches margin * max(own,
        # 1) >= 1, so selection never backs off from that order, and its
        # scores are the counts detection compared.
        index, texts = synth_texts
        config = PipelineConfig(realword_enabled=True, realword_margin=1.5)
        suspects = 0
        for text in texts:
            transcript = tokenize(text)
            for d in correct_transcript(text, index, config).decisions:
                if d.error.kind is not ErrorKind.REALWORD_SUSPECT:
                    continue
                prefix = transcript.context(d.error.position,
                                            index.max_order - 1)
                order = len(prefix) + 1
                assert d.backoff_order == order
                words = [d.error.token, *words_of(d.candidates)]
                counts = index.ngram_count([(*prefix, w) for w in words])
                assert d.scores == {w: (order, c)
                                    for w, c in zip(words, counts)}
                suspects += 1
        assert suspects > 0


@pytest.mark.parametrize("realword", [False, True])
@pytest.mark.parametrize("over_http", [False, True])
def test_window_limited_to_the_index_order(realword, over_http):
    # Over a 3-gram index the context window is 2 tokens, so no query
    # asks for more than 3-grams.
    trigrams = build_index(REALWORD_LINES, max_order=3)
    text = ("Watch episodes of your favorite shaws and more. "
            "Watch episodes of your favorite shawls and more.")
    config = PipelineConfig(realword_enabled=realword, realword_margin=10)
    if over_http:
        srv = _Server(trigrams)
        remote = RemoteBackend(srv.url)
        try:
            result = correct_transcript(text, remote, config)
        finally:
            remote.close()
            srv.stop()
    else:
        result = correct_transcript(text, trigrams, config)
    # The non-word decisions are the oracle's over the same 3-gram index.
    _, expected = Oracle(REALWORD_LINES, 3).correct(
        " ".join(tokenize(text).tokens))
    assert [d for d, decision in zip(pipeline_decisions(result),
                                     result.decisions)
            if decision.error.kind is ErrorKind.NONWORD] == expected
    assert result.corrected_text == (
        "Watch episodes of your favorite shows and more. "
        "Watch episodes of your favorite "
        + ("shows" if realword else "shawls") + " and more.")
    assert {d.backoff_order for d in result.decisions} == {3}
