"""Context-sensitive correction: pick each error's best candidate by the
count of the candidate preceded by up to four context words, backing off
to shorter contexts when every count is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

# generate_candidates is not called here; it stays importable from this
# module for the callers that look it up by this name.
from asrspell.candidates import CandidateSet, generate_candidates  # noqa: F401
from asrspell.detect import (DetectedError, ErrorKind, Transcript,
                             detect_nonword_errors, detect_realword_suspects,
                             splice, tokenize)
from asrspell.store import MAX_ORDER


@dataclass(frozen=True)
class ContextQuery:
    prefix: tuple[str, ...]  # tokens directly preceding the error
    candidate: str

    @property
    def order(self) -> int:
        return len(self.prefix) + 1


@dataclass
class CorrectionDecision:
    chosen: str | None
    scores: dict[str, tuple[int, int]]  # candidate -> (order used, count)
    backoff_order: int
    error: DetectedError | None = None       # filled by the pipeline
    candidates: CandidateSet | None = None   # filled by the pipeline


@dataclass
class PipelineConfig:
    top_k: int = 8
    context_window: int = 4
    realword_enabled: bool = False
    realword_margin: float = 10.0
    backoff_enabled: bool = True

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 <= self.context_window < MAX_ORDER:
            raise ValueError(f"context_window must be in 0..{MAX_ORDER - 1}, "
                             f"got {self.context_window}")


@dataclass
class CorrectionResult:
    corrected_text: str
    decisions: list[CorrectionDecision] = field(default_factory=list)


def build_context_queries(transcript: Transcript, position: int,
                          candidates: CandidateSet,
                          window: int = 4) -> list[ContextQuery]:
    """One query per candidate: the min(window, position) tokens preceding
    the error, in textual order, followed by the candidate."""
    prefix = _context_prefix(transcript, position, window)
    return [ContextQuery(prefix, c.word) for c in candidates.ranked]


def _context_prefix(transcript: Transcript, position: int,
                    window: int) -> tuple[str, ...]:
    if not 0 <= position < len(transcript.tokens):
        raise ValueError(f"position {position} outside transcript")
    return tuple(transcript.tokens[max(0, position - window):position])


def _orders(queries: list[ContextQuery],
            config: PipelineConfig) -> range | list[int]:
    """The orders selection may try, highest first."""
    full_order = queries[0].order
    return range(full_order, 0, -1) if config.backoff_enabled else [full_order]


def _check_prefixes(queries: list[ContextQuery]) -> None:
    if not queries:
        raise ValueError("queries must be non-empty")
    if any(q.prefix != queries[0].prefix for q in queries):
        raise ValueError("queries must share one context prefix")


def selection_queries(queries: list[ContextQuery],
                      config: PipelineConfig | None = None
                      ) -> list[tuple[str, ...]]:
    """The ``ngram_count`` queries whose counts :func:`select_correction`
    reads: every query at every order that may be tried, highest order
    first, in query order within an order.

    No context needs counting first: every occurrence of ``context +
    word`` is an occurrence of ``context``, so a query whose context
    never occurs already counts 0.
    """
    _check_prefixes(queries)
    whole = [(*q.prefix, q.candidate) for q in queries]
    # tokens[-order:] keeps the whole query when order exceeds its own.
    return [tokens[-order:]
            for order in _orders(queries, config or PipelineConfig())
            for tokens in whole]


def select_correction(queries: list[ContextQuery], counts: Sequence[int],
                      config: PipelineConfig | None = None
                      ) -> CorrectionDecision:
    """Pick the query with the highest context count, backing off one order
    at a time (dropping the oldest prefix token) while every count is zero.

    `counts` are those of ``selection_queries(queries, config)``, in that
    order; the orders are walked top-down over them, exactly as if each
    were counted in turn. Every query must hold the same prefix, else
    ValueError: the counts of different contexts are not comparable.

    Ties break by query position, i.e. candidate rank. `chosen` is None
    only when no order produced a nonzero count -- with backoff enabled
    that cannot happen for in-vocabulary candidates, because order 1 is
    the candidate's own unigram count.
    """
    _check_prefixes(queries)
    config = config or PipelineConfig()
    orders = _orders(queries, config)
    n = len(queries)
    if len(counts) != n * len(orders):
        raise ValueError(f"{len(counts)} counts for {n} queries at "
                         f"{len(orders)} orders")
    for at, order in enumerate(orders):
        row = counts[at * n:(at + 1) * n]
        best = max(row)
        if best > 0 or order == orders[-1]:
            break
    return CorrectionDecision(
        chosen=queries[row.index(best)].candidate if best > 0 else None,
        scores={q.candidate: (order, c)
                for q, c in zip(queries, row, strict=True)},
        backoff_order=order)


def correct_transcript(text: str, backend,
                       config: PipelineConfig | None = None) -> CorrectionResult:
    """Full pipeline: tokenize, detect, rank candidates, select, splice.

    Replacements preserve surrounding punctuation and a leading capital.
    Context prefixes always come from the original token sequence, so the
    outcome does not depend on correction order; run the function a second
    time explicitly if cascaded corrections are wanted. Errors with no
    usable candidates are reported with chosen=None and left verbatim.
    The context window is limited to ``backend.max_order - 1`` tokens, so
    a lower-order index gives what a run with that window gives.

    The candidates of every error come from one ``rank_by_shared_bigrams``
    call, and the selection counts of every error from one
    ``ngram_count`` call, each error reading its own slice of them.
    """
    config = config or PipelineConfig()
    window = min(config.context_window, backend.max_order - 1)
    transcript = tokenize(text)
    errors = detect_nonword_errors(transcript, backend)
    if config.realword_enabled:
        errors = sorted(
            errors + detect_realword_suspects(
                transcript, backend, margin=config.realword_margin,
                window=window, k=config.top_k),
            key=lambda e: e.position)
    if not errors:
        return CorrectionResult(corrected_text=text)

    ranked = backend.rank_by_shared_bigrams([e.token for e in errors],
                                            config.top_k)
    # Per error: its candidates, its queries and the bounds of its slice
    # of the selection counts.
    plans = []
    batch: list[tuple[str, ...]] = []
    for error, candidates in zip(errors, ranked, strict=True):
        cands = CandidateSet(error.token, candidates)
        queries = build_context_queries(
            transcript, error.position, cands, window=window)
        if error.kind is ErrorKind.REALWORD_SUSPECT:
            # The original word competes, ranked first so that ties keep
            # the text unchanged.
            prefix = _context_prefix(transcript, error.position, window)
            queries.insert(0, ContextQuery(prefix, error.token))
        start = len(batch)
        if queries:
            batch += selection_queries(queries, config)
        plans.append((error, cands, queries, start, len(batch)))
    counts = backend.ngram_count(batch) if batch else []

    decisions: list[CorrectionDecision] = []
    replacements: list[tuple[int, str]] = []
    for error, cands, queries, start, stop in plans:
        if not queries:
            decisions.append(CorrectionDecision(
                chosen=None, scores={}, backoff_order=1,
                error=error, candidates=cands))
            continue
        decision = select_correction(queries, counts[start:stop], config)
        decision.error = error
        decision.candidates = cands
        decisions.append(decision)
        if decision.chosen is not None and decision.chosen != error.token:
            replacements.append((error.position, decision.chosen))
    return CorrectionResult(corrected_text=splice(transcript, replacements),
                            decisions=decisions)
