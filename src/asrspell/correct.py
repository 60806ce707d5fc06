"""Context-sensitive correction: pick each error's best candidate by the
count of the candidate preceded by as many context words as the index
order allows (four in a 5-gram index), backing off to shorter contexts
when every count is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from asrspell.candidates import Candidate
# generate_candidates is not called here; it stays importable from this
# module for the callers that look it up by this name.
from asrspell.candidates import generate_candidates  # noqa: F401
from asrspell.detect import (DetectedError, ErrorKind, detect_nonword_errors,
                             detect_realword_suspects, splice, tokenize)


@dataclass
class CorrectionDecision:
    chosen: str | None
    scores: dict[str, tuple[int, int]]  # candidate -> (order used, count)
    backoff_order: int
    error: DetectedError | None = None           # filled by the pipeline
    candidates: list[Candidate] | None = None    # filled by the pipeline


@dataclass
class PipelineConfig:
    realword_enabled: bool = False
    realword_margin: float = 10.0

    def __post_init__(self):
        if not self.realword_margin >= 1:  # NaN too
            raise ValueError(f"realword_margin must be >= 1, "
                             f"got {self.realword_margin}")


@dataclass
class CorrectionResult:
    corrected_text: str
    decisions: list[CorrectionDecision] = field(default_factory=list)


def _orders(prefix: Sequence[str], words: Sequence[str]) -> range:
    """The orders selection may try, highest first."""
    if not words:
        raise ValueError("words must be non-empty")
    return range(len(prefix) + 1, 0, -1)


def selection_queries(prefix: Sequence[str], words: Sequence[str]
                      ) -> list[tuple[str, ...]]:
    """The ``ngram_count`` queries whose counts :func:`select_correction`
    reads: every word after `prefix` at every order from the full one
    down to 1, in word order within an order.

    No context needs counting first: every occurrence of ``context +
    word`` is an occurrence of ``context``, so a query whose context
    never occurs already counts 0.
    """
    orders = _orders(prefix, words)
    whole = [(*prefix, word) for word in words]
    # tokens[-order:] keeps the whole query when order exceeds its own.
    return [tokens[-order:] for order in orders for tokens in whole]


def select_correction(prefix: Sequence[str], words: Sequence[str],
                      counts: Sequence[int]) -> CorrectionDecision:
    """Pick the word with the highest count after `prefix`, backing off one
    order at a time (dropping the oldest prefix token) while every count
    is zero.

    `counts` are those of ``selection_queries(prefix, words)``, in that
    order; the orders are walked top-down over them, exactly as if each
    were counted in turn.

    Ties break by word position, i.e. candidate rank. `chosen` is None
    only when no order produced a nonzero count, which cannot happen for
    in-vocabulary candidates, because order 1 is the candidate's own
    unigram count.
    """
    orders = _orders(prefix, words)
    n = len(words)
    if len(counts) != n * len(orders):
        raise ValueError(f"{len(counts)} counts for {n} words at "
                         f"{len(orders)} orders")
    for at, order in enumerate(orders):
        row = counts[at * n:(at + 1) * n]
        best = max(row)
        if best > 0 or order == 1:
            break
    return CorrectionDecision(
        chosen=words[row.index(best)] if best > 0 else None,
        scores={w: (order, c) for w, c in zip(words, row, strict=True)},
        backoff_order=order)


def correct_transcript(text: str, backend,
                       config: PipelineConfig | None = None) -> CorrectionResult:
    """Full pipeline: tokenize, detect, rank candidates, select, splice.

    Replacements preserve surrounding punctuation and a leading capital.
    Context prefixes always come from the original token sequence, so the
    outcome does not depend on correction order; run the function a second
    time explicitly if cascaded corrections are wanted. Errors with no
    usable candidates are reported with chosen=None and left verbatim.
    The context window is ``backend.max_order - 1`` tokens, so a shorter
    context comes from an index of lower order.

    The candidates of every error come from one ``rank_by_shared_bigrams``
    call, and the selection counts of every error from one
    ``ngram_count`` call, each error reading its own slice of them.
    """
    config = config or PipelineConfig()
    window = backend.max_order - 1
    transcript = tokenize(text)
    errors = detect_nonword_errors(transcript, backend)
    if config.realword_enabled:
        errors = sorted(
            errors + detect_realword_suspects(
                transcript, backend, margin=config.realword_margin),
            key=lambda e: e.position)
    if not errors:
        return CorrectionResult(corrected_text=text)

    ranked = backend.rank_by_shared_bigrams([e.token for e in errors])
    # Per error: its context, the words selection weighs and the bounds of
    # its slice of the selection counts.
    plans = []
    batch: list[tuple[str, ...]] = []
    for error, candidates in zip(errors, ranked, strict=True):
        prefix = transcript.context(error.position, window)
        words = [c.word for c in candidates]
        if error.kind is ErrorKind.REALWORD_SUSPECT:
            # The original word competes, ranked first so that ties keep
            # the text unchanged.
            words.insert(0, error.token)
        start = len(batch)
        if words:
            batch += selection_queries(prefix, words)
        plans.append((error, candidates, prefix, words, start, len(batch)))
    counts = backend.ngram_count(batch) if batch else []

    decisions: list[CorrectionDecision] = []
    replacements: list[tuple[int, str]] = []
    for error, candidates, prefix, words, start, stop in plans:
        if words:
            decision = select_correction(prefix, words, counts[start:stop])
        else:
            decision = CorrectionDecision(chosen=None, scores={},
                                          backoff_order=1)
        decision.error = error
        decision.candidates = candidates
        decisions.append(decision)
        if decision.chosen is not None and decision.chosen != error.token:
            replacements.append((error.position, decision.chosen))
    return CorrectionResult(corrected_text=splice(transcript, replacements),
                            decisions=decisions)
