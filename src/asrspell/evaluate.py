"""Positional correction-rate accounting over aligned token sequences."""
from __future__ import annotations

from dataclasses import dataclass

from asrspell.corrupt import CorruptionKind, CorruptionRecord
from asrspell.detect import tokenize

_FIELDS = ("total_words", "total_errors", "nonword_errors", "realword_errors",
           "corrected", "corrected_nonword", "corrected_realword",
           "residual_error_rate")


@dataclass
class EvaluationReport:
    total_words: int
    nonword_errors: int
    realword_errors: int
    corrected_nonword: int
    corrected_realword: int

    @property
    def total_errors(self) -> int:
        return self.nonword_errors + self.realword_errors

    @property
    def corrected(self) -> int:
        return self.corrected_nonword + self.corrected_realword

    @property
    def residual_error_rate(self) -> float:
        if not self.total_words:
            return 0.0
        return (self.total_errors - self.corrected) / self.total_words

    def to_tsv(self) -> str:
        lines = []
        for name in _FIELDS:
            value = getattr(self, name)
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{name}\t{text}\n")
        return "".join(lines)

    def summary(self) -> str:
        pct = 100.0 * self.corrected / self.total_errors if self.total_errors else 0.0
        return (f"{self.total_errors} errors in {self.total_words} words; "
                f"{self.corrected} corrected ({pct:.1f}%); "
                f"residual error rate "
                f"{100.0 * self.residual_error_rate:.2f}%")


def evaluate(reference: str, corrupted: str, corrected: str,
             records: list[CorruptionRecord]) -> EvaluationReport:
    """Score a correction run against the uncorrupted reference.

    A position is an error iff the corrupted token differs from the
    reference token there; it counts as corrected iff the corrected token
    matches the reference. Non-word/real-word classification comes from
    the injection ground truth, which must cover every error position.
    All three texts must tokenize to the same number of tokens (the
    simulator never splits or merges).
    """
    ref = tokenize(reference).tokens
    cor = tokenize(corrupted).tokens
    fix = tokenize(corrected).tokens
    if not len(ref) == len(cor) == len(fix):
        raise ValueError(
            f"token counts differ: reference={len(ref)}, "
            f"corrupted={len(cor)}, corrected={len(fix)}")
    kinds = {r.position: r.kind for r in records}
    counts = {CorruptionKind.NONWORD: [0, 0], CorruptionKind.REALWORD: [0, 0]}
    for i, (r, c, f) in enumerate(zip(ref, cor, fix)):
        if c == r:
            continue
        kind = kinds.get(i)
        if kind is None:
            raise ValueError(
                f"error at position {i} ({r!r} -> {c!r}) missing from "
                f"ground truth")
        counts[kind][0] += 1
        if f == r:
            counts[kind][1] += 1
    nw, nw_fixed = counts[CorruptionKind.NONWORD]
    rw, rw_fixed = counts[CorruptionKind.REALWORD]
    return EvaluationReport(
        total_words=len(ref), nonword_errors=nw, realword_errors=rw,
        corrected_nonword=nw_fixed, corrected_realword=rw_fixed)
