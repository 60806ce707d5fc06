"""Context-sensitive correction: pick each error's best candidate by the
count of the candidate preceded by up to four context words, backing off
to shorter contexts when every count is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from asrspell.candidates import CandidateSet, generate_candidates
from asrspell.detect import (DetectedError, ErrorKind, Transcript,
                             detect_nonword_errors, detect_realword_suspects,
                             splice, tokenize)


@dataclass(frozen=True)
class ContextQuery:
    prefix: tuple[str, ...]  # up to 4 tokens directly preceding the error
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
        if not 0 <= self.context_window <= 4:
            raise ValueError(
                f"context_window must be in 0..4, got {self.context_window}")


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


def select_correction(queries: list[ContextQuery], backend,
                      config: PipelineConfig | None = None) -> CorrectionDecision:
    """Pick the query with the highest context count, backing off one order
    at a time (dropping the oldest prefix token) while every count is zero.
    Every query must hold the same prefix, else ValueError: the counts of
    different contexts are not comparable.

    Ties break by query position, i.e. candidate rank. `chosen` is None
    only when no order produced a nonzero count -- with backoff enabled
    that cannot happen for in-vocabulary candidates, because order 1 is
    the candidate's own unigram count.

    Every query at every order that may be tried goes to the backend in
    one ``ngram_count`` call, so an error costs one lookup round trip
    however far it backs off. The orders are then walked top-down over
    those counts, exactly as if each were counted in turn. No context
    needs counting first: every occurrence of ``context + word`` is an
    occurrence of ``context``, so a query whose context never occurs
    already counts 0.
    """
    if not queries:
        raise ValueError("queries must be non-empty")
    if any(q.prefix != queries[0].prefix for q in queries):
        raise ValueError("queries must share one context prefix")
    config = config or PipelineConfig()
    full_order = queries[0].order
    orders = range(full_order, 0, -1) if config.backoff_enabled else [full_order]
    # tokens[-order:] keeps the whole query when order exceeds its own.
    whole = [(*q.prefix, q.candidate) for q in queries]
    counts = backend.ngram_count(
        [tokens[-order:] for order in orders for tokens in whole])
    n = len(queries)
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
    """Full pipeline: tokenize, detect, generate candidates, select, splice.

    Replacements preserve surrounding punctuation and a leading capital.
    Context prefixes always come from the original token sequence, so the
    outcome does not depend on correction order; run the function a second
    time explicitly if cascaded corrections are wanted. Errors with no
    usable candidates are reported with chosen=None and left verbatim.
    """
    config = config or PipelineConfig()
    transcript = tokenize(text)
    errors = detect_nonword_errors(transcript, backend)
    if config.realword_enabled:
        errors = sorted(
            errors + detect_realword_suspects(
                transcript, backend, margin=config.realword_margin,
                window=config.context_window, k=config.top_k),
            key=lambda e: e.position)

    decisions: list[CorrectionDecision] = []
    replacements: list[tuple[int, str]] = []
    for error in errors:
        cands = generate_candidates(error.token, backend, k=config.top_k)
        queries = build_context_queries(
            transcript, error.position, cands, window=config.context_window)
        if error.kind is ErrorKind.REALWORD_SUSPECT:
            # The original word competes, ranked first so that ties keep
            # the text unchanged.
            prefix = _context_prefix(
                transcript, error.position, config.context_window)
            queries.insert(0, ContextQuery(prefix, error.token))
        if not queries:
            decisions.append(CorrectionDecision(
                chosen=None, scores={}, backoff_order=1,
                error=error, candidates=cands))
            continue
        decision = select_correction(queries, backend, config)
        decision.error = error
        decision.candidates = cands
        decisions.append(decision)
        if decision.chosen is not None and decision.chosen != error.token:
            replacements.append((error.position, decision.chosen))
    return CorrectionResult(corrected_text=splice(transcript, replacements),
                            decisions=decisions)
