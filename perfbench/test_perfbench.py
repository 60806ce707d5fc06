"""Tests of the benchmark itself: python3 -m pytest perfbench"""
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import tracer  # noqa: E402
from asrspell import build_index  # noqa: E402
from asrspell.service import POSTINGS_CAP  # noqa: E402
from corpus import Generator  # noqa: E402


def spec_names(kind: str) -> set[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


def test_generator_is_deterministic():
    a, b, other = Generator(5), Generator(5), Generator(6)
    corpus = a.corpus()
    assert corpus.encode() == b.corpus().encode()
    assert corpus != other.corpus()
    assert [a.transcript(i) for i in range(20)] == \
        [b.transcript(i) for i in range(20)]
    lines = corpus.splitlines()
    for i in range(20):
        text = a.transcript(i)
        assert len(text.split()) == 40
        assert not any(text in line for line in lines)


@pytest.fixture(scope="module")
def index():
    return build_index(Generator(5).corpus())


def test_errors_are_seeded(index):
    workload = bench.WORKLOADS["local-realword"]
    gen = Generator(5)
    items = [bench.make_item(gen, index, workload, i) for i in range(16)]
    assert items == [bench.make_item(gen, index, workload, i)
                     for i in range(16)]
    for i, item in enumerate(items):
        kinds = [r.kind.value for r in item.records]
        assert kinds.count("nonword") == bench.NONWORD_CYCLE[i % 8]
        assert kinds.count("realword") == 1
        tokens = item.corrupted.split()
        assert all(tokens[r.position] == r.corrupted for r in item.records)


def test_vocabulary_crosses_postings_cap(index):
    assert len(index.vocab) >= 10_000
    grams = {w[i:i + 2] for w in index.vocab for i in range(len(w) - 1)}
    assert max(len(index.unigrams_containing_bigram(g))
               for g in grams) > POSTINGS_CAP


def _patched_names():
    return {(module, attr): getattr(importlib.import_module(module), attr)
            for module, attr, _, _ in tracer.PATCHES}


def test_trace_restores_every_patched_name():
    before = _patched_names()
    with pytest.raises(RuntimeError):
        with tracer.patched(tracer.Tracer()):
            during = _patched_names()
            raise RuntimeError("leave the block early")
    assert all(during[key] is not before[key] for key in before)
    after = _patched_names()
    assert all(after[key] is before[key] for key in before)


def test_traced_backend_keeps_the_fast_path_visible():
    index = build_index("the cat sat\nthe cat ran")
    proxy = tracer.TracedBackend(index, tracer.Tracer())
    assert getattr(proxy, "rank_by_shared_bigrams", None) is not None

    class ContractOnly:
        max_order = 1
        unigram_exists = ngram_count = unigrams_containing_bigram = None

    proxy = tracer.TracedBackend(ContractOnly(), tracer.Tracer())
    assert getattr(proxy, "rank_by_shared_bigrams", None) is None


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_run(workload, tmp_path):
    before = _patched_names()
    result = bench.run(workload, seed=3, seconds=1, trace=True,
                       work=tmp_path, checked=4)
    assert _patched_names() == before
    assert result["correct"], result["report"]
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == spec_names("per_layer")
    if bench.WORKLOADS[workload].remote:
        assert metrics["kernels.rank.calls"] == 0
        assert metrics["service.requests"] > 0
    else:
        assert metrics["kernels.rank.calls"] > 0
        assert metrics["service.requests"] == 0
        assert metrics["mismatch_rate"] == 0


def test_untraced_run(tmp_path):
    result = bench.run("local-nonword", seed=3, seconds=0.01, trace=False,
                       work=tmp_path, checked=4, min_count=5)
    assert result["correct"], result["report"]
    assert result["attempted"] == 5
    assert set(result["metrics"]) == spec_names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "metric mismatch_rate 0.0 ratio over 4 transcripts" in \
        result["report"]


def test_quality_is_scored_over_a_fixed_prefix(tmp_path):
    """A run that fits more transcripts reports the same recovery."""
    short, long = (bench.run("local-nonword", seed=3, seconds=seconds,
                             trace=False, work=tmp_path, checked=4,
                             min_count=6)
                   for seconds in (0.01, 0.2))
    assert short["attempted"] == 6 < long["attempted"]
    assert short["metrics"]["nonword_recovery"] == \
        long["metrics"]["nonword_recovery"]


@pytest.mark.parametrize("correct, code", [(True, 0), (False, 1)])
def test_exit_code_follows_the_checks(correct, code, monkeypatch, capsys):
    import run
    result = {"correct": correct, "attempted": 1, "failed": 0,
              "metrics": {}, "report": ["CHECK FAILED example"]}
    monkeypatch.setattr(bench, "run", lambda *args: dict(result))
    assert run.main(["--workload", "local-nonword", "--seed", "1",
                     "--seconds", "1"]) == code
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last)["correct"] is correct
