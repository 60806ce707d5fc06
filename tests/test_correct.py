import logging
import random
from collections import Counter

import pytest

from asrspell import (BackendError, CorruptionSpec, PipelineConfig,
                      RemoteBackend, build_context_queries, build_index,
                      correct_transcript, detect_nonword_errors,
                      generate_candidates, inject_errors, select_correction,
                      tokenize)
from asrspell.correct import ContextQuery, CorrectionDecision
from asrspell.detect import _exempt
from tests._synth import passage_of, synth_corpus
from tests.conftest import WORKED_ERROR_TEXT, WORKED_SENTENCE
from tests.test_detect import CountingBackend
from tests.test_service import _Server

CORRECTED = WORKED_SENTENCE  # what the error text must become


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(top_k=0)
    with pytest.raises(ValueError):
        PipelineConfig(context_window=5)
    with pytest.raises(ValueError):
        PipelineConfig(context_window=-1)


class TestBuildContextQueries:
    def test_worked_example_prefix(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        cands = generate_candidates("shaws", worked_index, k=8)
        queries = build_context_queries(transcript, 5, cands)
        assert len(queries) == 8
        for q in queries:
            assert q.prefix == ("episodes", "of", "your", "favorite")
            assert q.order == 5

    def test_first_token_has_no_prefix(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        cands = generate_candidates("shaws", worked_index, k=3)
        queries = build_context_queries(transcript, 0, cands)
        assert all(q.prefix == () and q.order == 1 for q in queries)

    def test_truncated_prefix(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        cands = generate_candidates("shaws", worked_index, k=1)
        queries = build_context_queries(transcript, 2, cands)
        assert queries[0].prefix == ("watch", "episodes")
        assert queries[0].order == 3

    def test_position_out_of_range(self, worked_index):
        transcript = tokenize("one two")
        cands = generate_candidates("shaws", worked_index, k=1)
        with pytest.raises(ValueError):
            build_context_queries(transcript, 2, cands)


def query_context(q: ContextQuery, order: int) -> tuple[str, ...]:
    """The prefix tokens that ``query_tokens(q, order)`` keeps."""
    return q.prefix[max(0, len(q.prefix) - (order - 1)):]


def query_tokens(q: ContextQuery, order: int | None = None) -> list[str]:
    """The query token sequence, truncated from the left to `order` (whole
    when `order` exceeds the query's own)."""
    if order is None:
        order = q.order
    return [*query_context(q, order), q.candidate]


class TestContextQueryTokens:
    def test_truncated_from_the_left(self):
        q = ContextQuery(("a", "b", "c", "d"), "e")
        assert query_tokens(q) == ["a", "b", "c", "d", "e"]
        assert query_tokens(q, 3) == ["c", "d", "e"]
        assert query_tokens(q, 1) == ["e"]

    @pytest.mark.parametrize("prefix", [(), ("a",), ("a", "b"),
                                        ("a", "b", "c")])
    def test_whole_above_own_order(self, prefix):
        q = ContextQuery(prefix, "z")
        for order in range(q.order, 6):
            assert query_tokens(q, order) == [*prefix, "z"]
            assert query_context(q, order) == prefix


class TestSelectCorrection:
    def test_full_order_decision(self, worked_index):
        transcript = tokenize(WORKED_ERROR_TEXT)
        cands = generate_candidates("shaws", worked_index, k=8)
        queries = build_context_queries(transcript, 5, cands)
        decision = select_correction(queries, worked_index)
        assert decision.chosen == "shows"
        assert decision.backoff_order == 5
        assert decision.scores["shows"] == (5, 7)
        assert decision.scores["haws"] == (5, 0)

    def test_singleton_candidate(self, worked_index):
        queries = [ContextQuery(("your", "favorite"), "shows")]
        decision = select_correction(queries, worked_index)
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
        cands = generate_candidates("shaws", index, k=8)
        queries = build_context_queries(transcript, 5, cands)
        decision = select_correction(queries, index)
        assert decision.chosen == "shows"
        assert decision.backoff_order == 3
        assert decision.scores["shows"] == (3, 3)

    def test_no_backoff_gives_nothing_on_sparse_context(self):
        corpus = ["your favorite shows", "watch", "episodes", "of", "and",
                  "more", "haws"]
        index = build_index(corpus)
        transcript = tokenize(WORKED_ERROR_TEXT)
        cands = generate_candidates("shaws", index, k=8)
        queries = build_context_queries(transcript, 5, cands)
        decision = select_correction(
            queries, index, PipelineConfig(backoff_enabled=False))
        assert decision.chosen is None
        assert decision.backoff_order == 5

    def test_tie_breaks_by_candidate_rank(self, worked_index):
        queries = [ContextQuery((), "haws"), ContextQuery((), "maws")]
        decision = select_correction(queries, worked_index)
        assert decision.chosen == "haws"  # both count 1, first rank wins

    def test_empty_queries_rejected(self, worked_index):
        with pytest.raises(ValueError):
            select_correction([], worked_index)

    def test_queries_with_different_prefixes_rejected(self, worked_index):
        # Scored as one, "shows" (unigram count 7) would beat the 4-gram
        # count of "haws" under an order-4 label it never had.
        queries = [ContextQuery(("of", "your", "favorite"), "haws"),
                   ContextQuery((), "shows")]
        with pytest.raises(ValueError, match="one context prefix"):
            select_correction(queries, worked_index)


def unpruned_select(queries, backend, config):
    """Reference: select_correction counting every query at every order,
    without the context-count bound."""
    full_order = queries[0].order
    orders = (range(full_order, 0, -1) if config.backoff_enabled
              else [full_order])
    scores = {}
    for order in orders:
        counts = backend.ngram_count([query_tokens(q, order)
                                      for q in queries])
        scores = {q.candidate: (order, c) for q, c in zip(queries, counts)}
        if max(counts) > 0:
            return CorrectionDecision(
                chosen=queries[counts.index(max(counts))].candidate,
                scores=scores, backoff_order=order)
    return CorrectionDecision(chosen=None, scores=scores,
                              backoff_order=orders[-1])


@pytest.fixture(scope="module")
def synth_texts():
    """A seeded synthetic index and transcripts with non-word errors, cut
    from it and from fresh text."""
    corpus = synth_corpus(8000, seed=21)
    index = build_index(corpus, corpus_id="synth-select")
    fresh = synth_corpus(3000, seed=22)
    texts = []
    for i in range(16):
        text = passage_of(corpus if i % 2 else fresh, 40, start_line=i)
        spec = CorruptionSpec(nonword_rate=0.1, seed=i)
        texts.append(inject_errors(text, index, spec).corrupted_text)
    return index, texts


@pytest.fixture(scope="module")
def synth_selection(synth_texts):
    """The context queries of every non-word error in `synth_texts`, at
    windows 0-4."""
    index, texts = synth_texts
    query_sets = []
    for i, text in enumerate(texts):
        transcript = tokenize(text)
        for error in detect_nonword_errors(transcript, index):
            cands = generate_candidates(error.token, index, k=8)
            if cands:
                query_sets.append(build_context_queries(
                    transcript, error.position, cands, window=i % 5))
    return index, query_sets


def _mixed_prefix_queries(index, query_sets, rng):
    """Query sets whose prefixes mostly differ in tokens and in length:
    select_correction rejects those, and the pipeline never makes them."""
    vocab = sorted(index.vocab)
    prefixes = [qs[0].prefix for qs in query_sets]
    mixed = []
    for _ in range(120):
        queries = []
        for _ in range(rng.randint(1, 6)):
            prefix = rng.choice(prefixes)
            prefix = prefix[rng.randint(0, len(prefix)):]
            if prefix and rng.random() < 0.3:
                prefix = (rng.choice(vocab),) + prefix[1:]
            queries.append(ContextQuery(prefix, rng.choice(vocab)))
        mixed.append(queries)
    return mixed


class TestSelectionContextBound:
    @pytest.mark.parametrize("backoff", [True, False])
    def test_matches_unpruned_reference(self, synth_selection, backoff):
        index, query_sets = synth_selection
        config = PipelineConfig(backoff_enabled=backoff)
        orders = set()
        for queries in query_sets:
            got = select_correction(queries, index, config)
            assert got == unpruned_select(queries, index, config)
            orders.add(got.backoff_order)
        assert len(orders) >= 3  # backoff really happens

    @pytest.mark.parametrize("backoff", [True, False])
    def test_mixed_prefixes_match_reference(self, synth_selection, backoff):
        index, query_sets = synth_selection
        config = PipelineConfig(backoff_enabled=backoff)
        rng = random.Random(5)
        shared = 0
        for queries in _mixed_prefix_queries(index, query_sets, rng):
            if len({q.prefix for q in queries}) > 1:
                with pytest.raises(ValueError, match="one context prefix"):
                    select_correction(queries, index, config)
                continue
            shared += 1
            assert select_correction(queries, index, config) == \
                unpruned_select(queries, index, config)
        assert 0 < shared < 120

    def test_unattested_context_costs_one_lookup(self, worked_index):
        # "zebra of your favorite" never occurs; "of your favorite" does.
        cands = generate_candidates("shaws", worked_index, k=8)
        queries = [ContextQuery(("zebra", "of", "your", "favorite"), c.word)
                   for c in cands.ranked]
        backend = CountingBackend(worked_index)
        decision = select_correction(
            queries, backend, PipelineConfig(backoff_enabled=False))
        assert decision.chosen is None
        assert (backend.calls["ngram_count"], backend.queries) == (1, 8)
        backend = CountingBackend(worked_index)
        decision = select_correction(queries, backend)
        assert (decision.chosen, decision.backoff_order) == ("shows", 4)
        # One call for the 8 candidates at each of the orders 5 to 1.
        assert (backend.calls["ngram_count"], backend.queries) == (1, 40)

    def test_context_lookup_fault_propagates(self, worked_index):
        class FailingContext(CountingBackend):
            def ngram_count(self, queries):
                queries = list(queries)
                if any(tuple(q[:-1]) == ("of", "your", "favorite")
                       for q in queries):
                    raise BackendError("lookup service down")
                return super().ngram_count(queries)

        queries = [ContextQuery(("zebra", "of", "your", "favorite"), w)
                   for w in ["shows", "haws"]]
        with pytest.raises(BackendError):
            select_correction(queries, FailingContext(worked_index))


class TestLookupCalls:
    @pytest.mark.parametrize("window", [0, 2, 4])
    def test_call_budget(self, synth_texts, window):
        # One ngram_count call for non-word detection when some token is
        # checked, and one per error with candidates, however far it
        # backs off.
        index, texts = synth_texts
        config = PipelineConfig(context_window=window)
        errors = 0
        for text in texts:
            backend = CountingBackend(index)
            result = correct_transcript(text, backend, config)
            assert result == correct_transcript(text, index, config)
            checked = any(not _exempt(t) for t in tokenize(text).tokens)
            assert backend.calls["ngram_count"] == checked + sum(
                1 for d in result.decisions if d.candidates)
            assert backend.calls["unigram_exists"] == 0
            errors += len(result.decisions)
        assert errors >= 16

    def test_one_request_per_stage_over_http(self, synth_texts, caplog):
        # Counted on the server, from its request log: one count batch
        # per transcript for detection, then one candidate ranking and
        # one count batch per error.
        index, texts = synth_texts
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        caplog.set_level(logging.DEBUG, logger="asrspell.service")
        total = 0
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
                errors = len(result.decisions)
                assert errors == sum(1 for d in result.decisions
                                     if d.candidates)
                assert requests == Counter({
                    ("POST", "/v1/ngram"): 1 + errors,
                    ("GET", "/v1/candidates"): errors})
                total += errors
        finally:
            remote.close()
            srv.stop()
        assert total >= 16


def _method_and_path(message):
    """Method and path of a service log line such as
    '127.0.0.1 "GET /v1/candidates?b=sh&k=8 HTTP/1.1" 200 -'."""
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
        result = correct_transcript("Shaws and more", worked_index)
        assert result.corrected_text.split()[0][0] == "S"
        assert result.corrected_text.split()[0].lower() == \
            result.decisions[0].chosen

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
                assert d.chosen in d.candidates.words() or \
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
