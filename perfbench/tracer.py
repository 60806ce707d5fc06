"""Spans around calls into asrspell, recorded from outside the program.

A traced run replaces public functions at the names their callers look
them up by and hands the pipeline a backend proxy, so the program carries
no instrumentation of its own. Spans stay in memory; self time is derived
from them after the run.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as [name, start, end, parent span, transcript] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.transcript = -1
        self.counts: Counter[str] = Counter()
        self.candidate_keys: set[tuple[str, int]] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording one span per call; `observe(result, *args,
        **kwargs)` runs after the span has ended."""
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.transcript]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its direct
        children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    # Observers for the patched functions.

    def _candidate_key(self, result, error, backend, k=8):
        self.candidate_keys.add((error, k))

    def _nonword(self, errors, *args, **kwargs):
        self.counts["detect.nonword.errors"] += len(errors)

    def _realword(self, suspects, *args, **kwargs):
        self.counts["detect.realword.suspects"] += len(suspects)

    def _select(self, decision, *args, **kwargs):
        self.counts[f"correct.select.backoff.o{decision.backoff_order}"] += 1
        if decision.chosen is None:
            self.counts["correct.select.unchosen"] += 1

    def _rank(self, pairs, postings, *args, **kwargs):
        self.counts["kernels.rank.postings_entries"] += sum(
            len(ids) for ids in postings)


# (module, attribute, span name, observer name). Each module attribute is
# where the caller looks the function up at call time.
PATCHES = [
    ("asrspell.correct", "correct_transcript", "correct.transcript", None),
    ("asrspell.correct", "tokenize", "detect.tokenize", None),
    ("asrspell.correct", "detect_nonword_errors", "detect.nonword",
     "_nonword"),
    ("asrspell.correct", "detect_realword_suspects", "detect.realword",
     "_realword"),
    ("asrspell.correct", "generate_candidates", "candidates.generate",
     "_candidate_key"),
    ("asrspell.detect", "generate_candidates", "candidates.generate",
     "_candidate_key"),
    ("asrspell.correct", "select_correction", "correct.select", "_select"),
    ("asrspell.kernels", "rank_shared_candidates", "kernels.rank", "_rank"),
]


@contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers of PATCHES; restore every name on exit."""
    saved = []
    try:
        for module_name, attr, span, observer in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            observe = getattr(tracer, observer) if observer else None
            setattr(module, attr, tracer.wrap(span, original, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TracedBackend:
    """Backend proxy with one span per contract call.

    ``rank_by_shared_bigrams`` exists on the proxy only when the wrapped
    backend has it, so the candidate generator's getattr takes the same
    path with and without tracing. Over HTTP each public call is one
    request.
    """

    def __init__(self, inner, tracer: Tracer, observe_unigram=None,
                 observe_ngram=None, observe_postings=None):
        self._inner = inner
        self.unigram_exists = tracer.wrap(
            "backend.unigram_exists", inner.unigram_exists, observe_unigram)
        self.ngram_count = tracer.wrap(
            "backend.ngram_count", inner.ngram_count, observe_ngram)
        self.unigrams_containing_bigram = tracer.wrap(
            "backend.postings", inner.unigrams_containing_bigram,
            observe_postings)
        fast = getattr(inner, "rank_by_shared_bigrams", None)
        if fast is not None:
            self.rank_by_shared_bigrams = tracer.wrap(
                "backend.rank_by_shared_bigrams", fast)

    @property
    def max_order(self) -> int:
        return self._inner.max_order
