"""Closed-loop workloads over asrspell, with output checks and metrics.

One client corrects held-out transcripts back to back, waiting for each
result (a closed loop with one client and one connection at a time). The
untraced run gives the end-to-end metrics; the traced run replays a fixed
set of transcripts with and without spans and gives the per-layer ones.
"""
from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import urllib.request
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from random import Random

import numpy as np

from asrspell import (CorruptionKind, CorruptionRecord, CorruptionSpec,
                      PipelineConfig, RemoteBackend, build_index, evaluate,
                      inject_errors, kernels, load_index, save_index,
                      tokenize)
import asrspell.correct as correct_mod
from asrspell.candidates import char_bigrams
from corpus import Generator
from tracer import TracedBackend, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    name: str
    remote: bool
    realword: bool
    realword_errors: int     # injected per transcript, besides non-word
    setup_repeats: int       # set-ups per run; setup_s is their median


# Non-word errors per transcript, by transcript number modulo 8. The mean,
# 11/8 = 1.375, is what inject_errors leaves in these transcripts at
# nonword_rate=0.05, the rate of the acceptance suite and of
# benchmarks/bench_kernels.py: 1.36-1.38 over the first 2000 transcripts
# of seeds 101 and 102. A fixed cycle rather than independent draws keeps
# transcripts alike in work; with independent draws a quarter of them have
# no error, and the median latency jumped between the two clusters.
NONWORD_CYCLE = (1, 2, 1, 1, 2, 1, 2, 1)

# A local set-up (build_index) takes about half a second, an HTTP one
# (build, save, server start) about three, so HTTP repeats fewer times.
WORKLOADS = {w.name: w for w in (
    Workload("local-nonword", remote=False, realword=False,
             realword_errors=0, setup_repeats=7),
    Workload("local-realword", remote=False, realword=True,
             realword_errors=1, setup_repeats=7),
    Workload("http-nonword", remote=True, realword=False,
             realword_errors=0, setup_repeats=3),
)}

# Every untraced run corrects at least this many transcripts, so that the
# 95th percentile has twelve samples beyond it. Quality metrics are scored
# over exactly these first transcripts of the stream, so they do not
# depend on how many more a faster program fits into the run.
MIN_TRANSCRIPTS = 250
# The first transcripts of the stream, which every run corrects: compared
# with the in-process reference, hashed, and replayed by the traced run.
CHECKED_TRANSCRIPTS = 100
# Wall-clock limits per loop, so that a run ends within three minutes even
# when the program gets much slower: an untraced loop stops there before
# its minimum count, each of the traced run's two passes after half that.
LOOP_WALL_LIMIT_S = 120.0

END_TO_END = {
    "tokens_per_s": "tokens/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nonword_recovery": "ratio",
}

PER_LAYER = {
    "kernels.rank.calls": "count",
    "kernels.rank.self_s": "s",
    "kernels.rank.us_p50": "us",
    "kernels.rank.postings_entries": "count",
    "candidates.generate.calls": "count",
    "candidates.generate.self_s": "s",
    "candidates.generate.fast_path_share": "ratio",
    "candidates.generate.distinct_share": "ratio",
    "detect.tokenize.self_s": "s",
    "detect.nonword.self_s": "s",
    "detect.nonword.errors": "count",
    "detect.realword.self_s": "s",
    "detect.realword.suspects": "count",
    "correct.select.calls": "count",
    "correct.select.self_s": "s",
    **{f"correct.select.backoff.o{k}": "count" for k in range(1, 6)},
    "correct.select.unchosen": "count",
    "correct.transcript.self_s": "s",
    "store.lookups.unigram_exists": "count",
    "store.lookups.ngram_count": "count",
    "store.lookups.postings": "count",
    "store.lookup.self_s": "s",
    "store.rank.self_s": "s",
    "store.build_s": "s",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.ngrams": "count",
    "store.vocab": "count",
    "store.postings_max_len": "count",
    "service.requests": "count",
    "service.requests_per_transcript": "count",
    "service.request_p50_ms": "ms",
    "service.wait_s": "s",
    "service.bytes_in": "B",
    "service.postings_capped": "count",
    "service.server_cpu_s": "s",
    "trace.overhead": "ratio",
    "realword_recovery": "ratio",
    "overcorrection_rate": "ratio",
    "mismatch_rate": "ratio",
    "error_rate": "ratio",
}

LOOKUP_SPANS = ("backend.unigram_exists", "backend.ngram_count",
                "backend.postings")


@dataclass
class Item:
    number: int
    reference: str
    corrupted: str
    records: list


@dataclass
class Outcome:
    number: int
    tokens: int
    seconds: float
    item: Item | None = None  # dropped with text and log past a loop's head
    text: str | None = None
    log: str | None = None
    error: str | None = None


def make_item(gen: Generator, index, workload: Workload, number: int) -> Item:
    """Transcript `number` with the workload's errors at seeded positions,
    each corrupted by `inject_errors`; a position where no corruption
    exists (too short, no partner word) is skipped for the next one."""
    reference = gen.transcript(number)
    tokens = reference.split()
    rng = Random(gen.injection_seed(number))
    positions = list(range(len(tokens)))
    rng.shuffle(positions)
    wanted = ([CorruptionKind.NONWORD] * NONWORD_CYCLE[number % 8]
              + [CorruptionKind.REALWORD] * workload.realword_errors)
    records = []
    for position in positions:
        if len(records) == len(wanted):
            break
        kind = wanted[len(records)]
        nonword = kind is CorruptionKind.NONWORD
        spec = CorruptionSpec(nonword_rate=float(nonword),
                              realword_rate=float(not nonword),
                              seed=rng.randrange(2 ** 32))
        injected = inject_errors(tokens[position], index, spec)
        if injected.records:
            records.append(CorruptionRecord(position, tokens[position],
                                            injected.corrupted_text, kind))
            tokens[position] = injected.corrupted_text
    records.sort(key=lambda r: r.position)
    return Item(number, reference, " ".join(tokens), records)


def item_stream(gen, index, workload):
    number = 0
    while True:
        yield make_item(gen, index, workload, number)
        number += 1


def decision_log(result) -> str:
    """The decision log as `asrspell correct` prints it."""
    return "".join(
        f"{d.error.position}\t{d.error.token}\t{d.error.kind.value}\t"
        f"{'-' if d.chosen is None else d.chosen}\t{d.backoff_order}\n"
        for d in result.decisions)


def correct_one(item: Item, backend, config) -> Outcome:
    tokens = len(item.corrupted.split())
    start = time.perf_counter()
    try:
        result = correct_mod.correct_transcript(item.corrupted, backend,
                                                config)
    except Exception as exc:  # counted in error_rate; the loop goes on
        return Outcome(item.number, tokens, time.perf_counter() - start, item,
                       error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Outcome(item.number, tokens, seconds, item, result.corrected_text,
                   decision_log(result))


def closed_loop(items, backend, config, min_seconds=math.inf, min_count=0,
                wall_limit=LOOP_WALL_LIMIT_S, tracer: Tracer | None = None,
                check=None, keep=math.inf) -> list[Outcome]:
    """Correct `items` one after another until the busy time reaches
    `min_seconds` and `min_count` transcripts are done, `items` ends, or
    `wall_limit` seconds have passed. `check` sees every outcome, outside
    its timing; past the first `keep` outcomes only number, tokens, time
    and error are kept, so that the benchmark's own memory, which counts
    in peak RSS, does not grow with the number of transcripts a run fits."""
    outcomes = []
    busy = 0.0
    wall_start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.transcript = item.number
        outcome = correct_one(item, backend, config)
        if check is not None:
            check(outcome)
        if len(outcomes) >= keep:
            outcome = Outcome(outcome.number, outcome.tokens,
                              outcome.seconds, error=outcome.error)
        outcomes.append(outcome)
        busy += outcome.seconds
        if busy >= min_seconds and len(outcomes) >= min_count:
            break
        if time.perf_counter() - wall_start > wall_limit:
            break
    return outcomes


class Server:
    """`asrspell serve --port 0` in a child process."""

    def __init__(self, index_dir: Path, stderr_path: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(stderr_path, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "asrspell", "serve",
                 "--index", str(index_dir), "--port", "0"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, cwd=ROOT, env=env)
        self._stderr_path = stderr_path

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Base URL from the server's start-up line, after one reply."""
        deadline = time.monotonic() + timeout
        while True:
            text = self._stderr_path.read_text(errors="replace")
            found = re.search(r" on (http://\S+)", text)
            if found:
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.returncode}: {text.strip()}")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not report its port")
            time.sleep(0.002)
        url = found.group(1)
        with urllib.request.urlopen(url + "/v1/manifest", timeout=10) as r:
            r.read()
        return url

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def status_kb(pid, key: str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


@dataclass
class Setup:
    index: object            # the in-process NgramIndex
    backend: object          # what the loop corrects against
    server: Server | None
    repeats: list[float]     # seconds of each of the workload's set-ups
    build_s: float

    @property
    def seconds(self) -> float:
        return statistics.median(self.repeats)


def set_up(workload: Workload, corpus: str, work: Path,
           stack: ExitStack) -> Setup:
    """From corpus text to ready to correct, `setup_repeats` times: build,
    and for HTTP also save and start a server that has answered once.
    Only the last index and server are kept."""
    totals, builds = [], []
    index = server = None
    for rep in range(workload.setup_repeats):
        index = None
        if server is not None:
            server.stop()
        gc.collect()
        start = time.perf_counter()
        index = build_index(corpus, corpus_id="perfbench")
        built = time.perf_counter()
        builds.append(built - start)
        if workload.remote:
            index_dir = work / f"index{rep}"
            save_index(index, index_dir)
            server = Server(index_dir, work / f"server{rep}.err")
            stack.callback(server.stop)
            url = server.wait_ready()
        totals.append(time.perf_counter() - start)
    backend = RemoteBackend(url) if workload.remote else index
    return Setup(index, backend, server, totals, statistics.median(builds))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Quality:
    """Evaluation totals over the transcripts numbered below `scored`, with
    the report identities of `evaluate` checked here for every outcome (its
    own check() uses assert)."""

    def __init__(self, scored: int):
        self.scored = scored
        self.totals = dict.fromkeys(
            ("nonword", "nonword_fixed", "realword", "realword_fixed",
             "clean", "overcorrected"), 0)
        self.problems: list[str] = []

    def add(self, outcome: Outcome):
        if outcome.error is not None:
            return
        item = outcome.item
        ref = tokenize(item.reference).tokens
        fixed = tokenize(outcome.text).tokens
        where = f"transcript {item.number}"
        if len(fixed) != len(ref):
            self.problems.append(f"{where}: {len(fixed)} tokens corrected, "
                                 f"{len(ref)} in the reference")
            return
        report = evaluate(item.reference, item.corrupted, outcome.text,
                          item.records)
        kinds = [r.kind for r in item.records]
        expected = {
            "total_words": len(ref),
            "total_errors": len(item.records),
            "nonword_errors": kinds.count(CorruptionKind.NONWORD),
            "realword_errors": kinds.count(CorruptionKind.REALWORD),
            "corrected": report.corrected_nonword + report.corrected_realword,
        }
        for name, value in expected.items():
            if getattr(report, name) != value:
                self.problems.append(f"{where}: {name} is "
                                     f"{getattr(report, name)}, expected "
                                     f"{value}")
        if not (0 <= report.corrected_nonword <= report.nonword_errors
                and 0 <= report.corrected_realword <= report.realword_errors):
            self.problems.append(f"{where}: more corrected than injected")
        residual = (report.total_errors - report.corrected) / len(ref)
        if abs(report.residual_error_rate - residual) > 1e-12:
            self.problems.append(f"{where}: residual_error_rate is "
                                 f"{report.residual_error_rate}, expected "
                                 f"{residual}")
        if item.number >= self.scored:
            return
        t = self.totals
        t["nonword"] += report.nonword_errors
        t["nonword_fixed"] += report.corrected_nonword
        t["realword"] += report.realword_errors
        t["realword_fixed"] += report.corrected_realword
        corrupted_at = {r.position for r in item.records}
        for i, (r, f) in enumerate(zip(ref, fixed)):
            if i not in corrupted_at:
                t["clean"] += 1
                t["overcorrected"] += r != f

    @staticmethod
    def _share(part, whole) -> float:
        return part / whole if whole else 0.0

    def rates(self) -> dict[str, float]:
        t = self.totals
        return {
            "nonword_recovery": self._share(t["nonword_fixed"], t["nonword"]),
            "realword_recovery": self._share(t["realword_fixed"],
                                             t["realword"]),
            "overcorrection_rate": self._share(t["overcorrected"],
                                               t["clean"]),
        }


def fingerprint(outcomes: list[Outcome]) -> str:
    """SHA-256 of corrected texts and decision logs, in stream order."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{o.number}\n{o.text}\n{o.log}\n{o.error}\n"
                 .encode("utf-8"))
    return h.hexdigest()


def same_output(a: Outcome, b: Outcome) -> bool:
    return a.error is None and b.error is None and \
        (a.text, a.log) == (b.text, b.log)


def environment() -> dict[str, object]:
    commit = "none"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return {
        "kernel": kernels.IMPLEMENTATION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        work: Path, checked: int = CHECKED_TRANSCRIPTS,
        min_count: int = MIN_TRANSCRIPTS) -> dict:
    """One benchmark run. Returns the result record: the driver's four
    keys plus `report` lines for people."""
    workload = WORKLOADS[workload_name]
    gen = Generator(seed)
    corpus = gen.corpus()
    config = PipelineConfig(realword_enabled=workload.realword)
    quality = Quality(scored=checked if trace else min_count)
    with ExitStack() as stack:
        setup = set_up(workload, corpus, work, stack)
        index = setup.index
        stream = item_stream(gen, index, workload)
        # Covers first imports and the client's lazy max_order fetch.
        correct_one(make_item(gen, index, workload, -1), setup.backend,
                    config)
        if trace:
            items = [next(stream) for _ in range(checked)]
            outcomes = closed_loop(items, setup.backend, config,
                                   wall_limit=LOOP_WALL_LIMIT_S / 2,
                                   check=quality.add)
            items = [o.item for o in outcomes]
            tracer = Tracer()
            observers = (request_observers(index, tracer)
                         if workload.remote else {})
            traced_backend = TracedBackend(setup.backend, tracer, **observers)
            cpu_before = setup.server.cpu_seconds() if setup.server else 0.0
            with patched(tracer):
                traced = closed_loop(items, traced_backend, config,
                                     wall_limit=LOOP_WALL_LIMIT_S / 2,
                                     tracer=tracer)
            server_cpu = (setup.server.cpu_seconds() - cpu_before
                          if setup.server else 0.0)
        else:
            outcomes = closed_loop(stream, setup.backend, config,
                                   min_seconds=seconds, min_count=min_count,
                                   check=quality.add, keep=checked)
        if setup.server is not None:
            peak_kb = status_kb(setup.server.proc.pid, "VmHWM")
            setup.server.stop()
        else:
            peak_kb = status_kb("self", "VmHWM")

    problems: list[str] = []
    # The reference runs in-process on an index of its own (for HTTP, the
    # one that was saved for the server), after the timed loop.
    ref_index = index if workload.remote else build_index(
        corpus, corpus_id="perfbench")
    head = outcomes[:checked]
    reference = [correct_one(o.item, ref_index, config) for o in head]
    mismatches = sum(not same_output(o, r) for o, r in zip(head, reference))
    if not workload.remote and mismatches:
        problems.append(f"{mismatches} of {len(head)} transcripts differ "
                        f"from the in-process reference")
    ok = [o for o in outcomes if o.error is None]
    failed = [o for o in outcomes if o.error is not None]
    if not ok:
        raise RuntimeError(f"every transcript failed, e.g. {failed[0].error}")
    problems += quality.problems
    rates = quality.rates()
    notes = []

    if trace:
        if any(not same_output(a, b) for a, b in zip(outcomes, traced)):
            problems.append("traced outputs differ from untraced ones")
        metrics = layer_metrics(tracer, setup, index, work, outcomes, traced,
                                server_cpu)
        metrics.update(
            realword_recovery=rates["realword_recovery"],
            overcorrection_rate=rates["overcorrection_rate"],
            mismatch_rate=mismatches / len(head),
            error_rate=len(failed) / len(outcomes))
        units = PER_LAYER
    else:
        latencies = [o.seconds for o in ok]
        busy = sum(o.seconds for o in outcomes)
        tokens = sum(o.tokens for o in ok)
        metrics = {
            "tokens_per_s": tokens / busy,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p95_ms": percentile(latencies, 0.95) * 1e3,
            "setup_s": setup.seconds,
            "peak_rss_mb": peak_kb / 1024,
            "nonword_recovery": rates["nonword_recovery"],
        }
        units = END_TO_END
        notes.append(f"samples transcripts={len(outcomes)} "
                     f"tokens={tokens} busy_s={busy:.3f} "
                     f"latency_samples={len(latencies)} "
                     f"scored_transcripts={min(len(outcomes), min_count)} "
                     f"setup_repeats={len(setup.repeats)}")
        notes.append("setup_s each " + " ".join(f"{t:.4f}"
                                                 for t in setup.repeats))
        for name in ("realword_recovery", "overcorrection_rate"):
            notes.append(f"metric {name} {rates[name]!r} ratio")
        notes.append(f"metric mismatch_rate {mismatches / len(head)!r} "
                     f"ratio over {len(head)} transcripts")
        notes.append(f"metric error_rate {len(failed) / len(outcomes)!r} "
                     f"ratio")
    report = [f"workload {workload.name} seed {seed} trace {int(trace)}",
              "env " + " ".join(f"{k}={v}" for k, v in environment().items())]
    report += [f"metric {name} {value!r} {units[name]}"
               for name, value in metrics.items()]
    report += notes
    report.append(f"sha256 {fingerprint(head)} over the first {len(head)} "
                  f"transcripts")
    report += [f"failed transcript {o.number}: {o.error}"
               for o in failed[:5]]
    report += [f"CHECK FAILED {p}" for p in problems[:20]]
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "report": report,
    }


def request_observers(index, tracer: Tracer) -> dict:
    """Response body bytes and capped postings replies, per request.

    Bodies are rebuilt from the results; the in-process index gives the
    count behind a unigram_exists reply and the uncapped postings length.
    """
    counts = tracer.counts

    def unigram(exists, token):
        counts["service.bytes_in"] += len(f"{index.ngram_count([token])}\n")

    def ngram(count, tokens):
        counts["service.bytes_in"] += len(f"{count}\n")

    def postings(words, bigram):
        counts["service.bytes_in"] += sum(len(w.encode()) + 1 for w in words)
        if len(index.unigrams_containing_bigram(bigram)) > len(words):
            counts["service.postings_capped"] += 1

    return {"observe_unigram": unigram, "observe_ngram": ngram,
            "observe_postings": postings}


def layer_metrics(tracer: Tracer, setup: Setup, index, work: Path,
                  plain: list[Outcome], traced: list[Outcome],
                  server_cpu: float) -> dict[str, float]:
    self_s = tracer.self_seconds()
    counts = tracer.counts
    n = len(traced)
    rank_us = [d * 1e6 for d in tracer.durations("kernels.rank")]
    generate_calls = tracer.calls("candidates.generate")
    lookups = {name: tracer.calls(name) for name in LOOKUP_SPANS}
    remote = setup.server is not None
    requests = sum(lookups.values()) if remote else 0
    request_ms = [d * 1e3 for name in LOOKUP_SPANS
                  for d in tracer.durations(name)] if remote else []

    start = time.perf_counter()
    save_index(index, work / "timing")
    saved = time.perf_counter()
    loaded = load_index(work / "timing")
    load_s = time.perf_counter() - saved
    if loaded.distinct_per_order() != index.distinct_per_order():
        raise RuntimeError("saved index does not load back unchanged")

    return {
        "kernels.rank.calls": len(rank_us),
        "kernels.rank.self_s": self_s["kernels.rank"],
        "kernels.rank.us_p50": statistics.median(rank_us) if rank_us else 0.0,
        "kernels.rank.postings_entries":
            counts["kernels.rank.postings_entries"],
        "candidates.generate.calls": generate_calls,
        "candidates.generate.self_s": self_s["candidates.generate"],
        "candidates.generate.fast_path_share":
            tracer.calls("backend.rank_by_shared_bigrams") / generate_calls
            if generate_calls else 0.0,
        "candidates.generate.distinct_share":
            len(tracer.candidate_keys) / generate_calls
            if generate_calls else 0.0,
        "detect.tokenize.self_s": self_s["detect.tokenize"],
        "detect.nonword.self_s": self_s["detect.nonword"],
        "detect.nonword.errors": counts["detect.nonword.errors"],
        "detect.realword.self_s": self_s["detect.realword"],
        "detect.realword.suspects": counts["detect.realword.suspects"],
        "correct.select.calls": tracer.calls("correct.select"),
        "correct.select.self_s": self_s["correct.select"],
        **{f"correct.select.backoff.o{k}":
           counts[f"correct.select.backoff.o{k}"] for k in range(1, 6)},
        "correct.select.unchosen": counts["correct.select.unchosen"],
        "correct.transcript.self_s": self_s["correct.transcript"],
        "store.lookups.unigram_exists": lookups["backend.unigram_exists"],
        "store.lookups.ngram_count": lookups["backend.ngram_count"],
        "store.lookups.postings": lookups["backend.postings"],
        "store.lookup.self_s": sum(self_s[name] for name in LOOKUP_SPANS),
        "store.rank.self_s": self_s["backend.rank_by_shared_bigrams"],
        "store.build_s": setup.build_s,
        "store.save_s": saved - start,
        "store.load_s": load_s,
        "store.ngrams": sum(index.distinct_per_order()),
        "store.vocab": len(index.vocab),
        "store.postings_max_len": max(
            len(index.unigrams_containing_bigram(g))
            for g in {g for w in index.vocab for g in char_bigrams(w)}),
        "service.requests": requests,
        "service.requests_per_transcript": requests / n,
        "service.request_p50_ms":
            statistics.median(request_ms) if request_ms else 0.0,
        "service.wait_s": sum(request_ms) / 1e3,
        "service.bytes_in": counts["service.bytes_in"],
        "service.postings_capped": counts["service.postings_capped"],
        "service.server_cpu_s": server_cpu,
        # Every transcript has the same number of tokens, so the ratio of
        # tokens/s is that of mean seconds per transcript.
        "trace.overhead": statistics.fmean(o.seconds for o in traced)
        / statistics.fmean(o.seconds for o in plain),
    }
