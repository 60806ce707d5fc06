"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) after its assertions hold; a failing criterion fails the
test outright. Everything runs offline except criterion 9, which talks to
a loopback HTTP server.
"""
import random
import threading

import pytest

from asrspell import (CorruptionSpec, EvaluationReport, RemoteBackend,
                      build_index, correct_transcript, detect_nonword_errors,
                      evaluate, generate_candidates, inject_errors,
                      load_index, save_index, serve, shared_bigram_count,
                      tokenize)
from asrspell.correct import selection_queries
from tests._synth import passage_of, synth_corpus
from tests.conftest import WORKED_ERROR_TEXT, WORKED_SENTENCE
from tests.test_candidates import brute_force_candidates


def _ok(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d} PASS: {text}")


def test_criterion_01_worked_example_end_to_end(worked_index):
    result = correct_transcript(WORKED_ERROR_TEXT, worked_index)
    assert result.corrected_text == WORKED_SENTENCE
    [decision] = result.decisions
    assert decision.backoff_order == 5
    assert decision.chosen == "shows"
    shared = {c.word: c.shared for c in decision.candidates}
    assert shared["haws"] == 3
    assert shared["shows"] == 2
    assert decision.candidates[0].word == "haws"  # outranked anyway
    _ok(1, "error text corrects to the attested sentence; context beats "
           "the higher bigram score of 'haws' at order 5")


def test_criterion_02_candidate_score_oracle():
    expected = {"haws": 3, "saws": 2, "hawk": 2, "shows": 2,
                "shays": 2, "shank": 2, "maws": 2}
    for word, score in expected.items():
        assert shared_bigram_count("shaws", word) == score, word
    # Full-set intersection counts {sh, ha, aw} for "shawls": 3, not the 2
    # a truncated postings table would suggest. Documented deviation; see
    # the candidates module notes on full-set scoring.
    assert shared_bigram_count("shaws", "shawls") == 3
    _ok(2, "pairwise shared-bigram scores match the reference table "
           "(7 rows exact; 'shawls'=3 under full-set scoring)")


def test_criterion_03_context_query_construction(worked_index):
    transcript = tokenize(WORKED_ERROR_TEXT)
    words = [c.word for c in generate_candidates("shaws", worked_index)]
    prefix = transcript.context(5, 4)
    # The full-order queries come first, one per candidate.
    queries = selection_queries(prefix, words)[:len(words)]
    assert len(queries) == 8
    assert all(q[:-1] == ("episodes", "of", "your", "favorite")
               for q in queries)
    assert [q[-1] for q in queries] == words
    _ok(3, "all 8 candidates query the prefix 'episodes of your favorite'")


def test_criterion_04_detection_exactness():
    rng = random.Random(404)
    letters = "abcdefghijklm"

    def word():
        return "".join(rng.choice(letters)
                       for _ in range(rng.randint(1, 8)))

    rounds = 0
    for _ in range(25):
        vocab = {word() for _ in range(rng.randint(1, 500))}
        index = build_index(" ".join(sorted(vocab)))
        transcript = tokenize(" ".join(
            rng.choice(sorted(vocab)) if rng.random() < 0.6 else word()
            for _ in range(rng.randint(0, 200))))
        expected = [i for i, tok in enumerate(transcript.tokens)
                    if tok not in index.vocab]
        got = detect_nonword_errors(transcript, index)
        assert [e.position for e in got] == expected
        rounds += 1
    _ok(4, f"non-word detection equals brute-force vocabulary membership "
           f"on {rounds} randomized transcripts")


def test_criterion_05_candidate_oracle_equivalence():
    rng = random.Random(505)
    letters = "abcdefghij"
    instances = 0
    index = None
    for i in range(100):
        if i % 10 == 0:  # fresh vocabulary every few instances
            vocab = {"".join(rng.choice(letters)
                             for _ in range(rng.randint(1, 9)))
                     for _ in range(rng.randint(10, 1000))}
            weighted = [w for w in sorted(vocab)
                        for _ in range(rng.randint(1, 3))]
            index = build_index(" ".join(weighted))
        error = "".join(rng.choice(letters)
                        for _ in range(rng.randint(2, 10)))
        got = generate_candidates(error, index)
        assert got == brute_force_candidates(error, index, 8)
        instances += 1
    _ok(5, f"generate_candidates equals the full-vocabulary scan on "
           f"{instances} random instances")


@pytest.fixture(scope="module")
def synth():
    corpus = synth_corpus(min_tokens=55000, seed=20260810)
    index = build_index(corpus, corpus_id="synth-benchmark")
    assert index.manifest.token_count >= 50000
    return corpus, index


def test_criterion_06_synthetic_benchmark(synth):
    corpus, index = synth
    rates = []
    for seed in (1, 2, 3):
        passage = passage_of(corpus, 1000, start_line=7 * seed)
        injected = inject_errors(passage, index,
                                 CorruptionSpec(nonword_rate=0.05, seed=seed))
        assert injected.records, "seed produced no errors"
        fixed = correct_transcript(injected.corrupted_text, index)
        report = evaluate(passage, injected.corrupted_text,
                          fixed.corrected_text, injected.records)
        corrupted_rate = report.total_errors / report.total_words
        rate = report.corrected_nonword / report.nonword_errors
        assert rate >= 0.80, f"seed {seed}: only {rate:.1%} corrected"
        assert report.residual_error_rate < corrupted_rate
        rates.append(rate)
    _ok(6, "non-word correction on the 55k-token benchmark: " +
        ", ".join(f"{r:.1%}" for r in rates) + " over 3 seeds (bar: 80%)")


def test_criterion_07_identity_and_idempotence(worked_index):
    clean = "Watch episodes of your favorite shows, and more!"
    result = correct_transcript(clean, worked_index)
    assert result.corrected_text == clean
    assert result.decisions == []
    once = correct_transcript(WORKED_ERROR_TEXT, worked_index)
    twice = correct_transcript(once.corrected_text, worked_index)
    assert twice.corrected_text == once.corrected_text
    _ok(7, "clean text is byte-identical; re-correcting corrected output "
           "changes nothing")


def test_criterion_08_round_trip_lookup_fuzz(tmp_path):
    rng = random.Random(808)
    letters = "abcdefgh"
    lines = [" ".join("".join(rng.choice(letters)
                              for _ in range(rng.randint(1, 6)))
                      for _ in range(rng.randint(1, 12)))
             for _ in range(400)]
    index = build_index(lines, corpus_id="fuzz")
    save_index(index, tmp_path / "idx")
    loaded = load_index(tmp_path / "idx")
    vocab = sorted(index.vocab)
    checked = 0
    for _ in range(10000):
        kind = rng.randrange(3)
        if kind == 0:
            token = rng.choice(vocab) if rng.random() < 0.8 else "zz"
            assert loaded.unigram_exists(token) == index.unigram_exists(token)
        elif kind == 1:
            order = rng.randint(1, 5)
            query = [rng.choice(vocab) for _ in range(order)]
            assert loaded.ngram_count([query]) == index.ngram_count([query])
        else:
            gram = rng.choice(letters) + rng.choice(letters)
            assert loaded.unigrams_containing_bigram(gram) == \
                index.unigrams_containing_bigram(gram)
        checked += 1
    _ok(8, f"save/load preserved {checked} fuzzed lookups exactly")


def test_criterion_09_backend_equivalence_over_http(worked_index):
    server = serve(worked_index, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    remote = RemoteBackend(f"http://{host}:{port}")
    try:
        local = correct_transcript(WORKED_ERROR_TEXT, worked_index)
        over_http = correct_transcript(WORKED_ERROR_TEXT, remote)
        assert over_http.corrected_text.encode() == \
            local.corrected_text.encode()
        assert [d.chosen for d in over_http.decisions] == \
            [d.chosen for d in local.decisions]
    finally:
        remote.close()
        server.shutdown()
        server.server_close()
    _ok(9, "pipeline output through the HTTP service is byte-identical "
           "to the local backend")


def test_criterion_10_report_arithmetic():
    report = EvaluationReport(
        total_words=500, nonword_errors=15, realword_errors=91,
        corrected_nonword=12, corrected_realword=82)
    assert report.total_errors == 106
    assert report.corrected == 94
    assert report.corrected == report.corrected_nonword + \
        report.corrected_realword
    assert report.total_errors == report.nonword_errors + \
        report.realword_errors
    assert abs(report.residual_error_rate - 0.024) < 1e-12
    _ok(10, "500 words / 106 errors / 94 corrected reports a 2.4% "
            "residual error rate with consistent breakdowns")
