"""Context-sensitive correction: pick each error's best candidate by the
count of the candidate preceded by as many context words as the index
order allows (four in a 5-gram index), backing off to shorter contexts
when every count is zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Sequence

from asrspell.candidates import Candidate, _orders, selection_queries
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

    Every error's candidates, and the counts selection reads for them,
    come from one ``rank_by_shared_bigrams`` call over each error's
    context and token. A real-word suspect's own token competes too; the
    counts of every suspect's token come from one ``ngram_count`` call,
    made only when there is a suspect.
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

    contexts = [transcript.context(e.position, window) for e in errors]
    ranked = backend.rank_by_shared_bigrams(
        [(context, e.token) for context, e in zip(contexts, errors)])
    own = [query for error, prefix in zip(errors, contexts)
           if error.kind is ErrorKind.REALWORD_SUSPECT
           for query in selection_queries(prefix, [error.token])]
    own_counts = iter(backend.ngram_count(own) if own else ())

    decisions: list[CorrectionDecision] = []
    replacements: list[tuple[int, str]] = []
    for error, prefix, (candidates, counts) in zip(errors, contexts, ranked,
                                                   strict=True):
        words = [c.word for c in candidates]
        if error.kind is ErrorKind.REALWORD_SUSPECT:
            # The original word competes, ranked first so that ties keep
            # the text unchanged: its count goes first at every order.
            n = len(words)
            words.insert(0, error.token)
            counts = [count for at, first in enumerate(
                          islice(own_counts, len(prefix) + 1))
                      for count in (first, *counts[at * n:(at + 1) * n])]
        if words:
            decision = select_correction(prefix, words, counts)
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
