"""Synthetic ASR-style corruption with ground truth, for benchmarking the
corrector without a speech front end.

Non-word corruption applies one random character edit (substitution,
deletion, or insertion) re-rolled until the result is out of vocabulary.
Real-word corruption swaps the token for a different vocabulary word that
shares enough character bigrams to be recoverable by the candidate
generator. Everything is deterministic under a fixed seed.
"""
from __future__ import annotations

import logging
import os
import string
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from random import Random

from asrspell.candidates import words_sharing_bigrams
from asrspell.detect import _exempt, splice, tokenize
from asrspell.store import normalize_token

log = logging.getLogger(__name__)

_LETTERS = string.ascii_lowercase
_MAX_ATTEMPTS = 100
# Below four characters a single edit can erase every bigram the original
# had, leaving the true word unreachable by bigram overlap; such tokens
# are skipped rather than corrupted into unrecoverable noise.
_MIN_NONWORD_LEN = 4
_MIN_REALWORD_LEN = 3
# A real-word swap's partner shares at least this many distinct character
# bigrams with the original.
_MIN_SHARED_BIGRAMS = 2


class CorruptionKind(Enum):
    NONWORD = "nonword"
    REALWORD = "realword"


@dataclass(frozen=True)
class CorruptionRecord:
    position: int
    original: str
    corrupted: str
    kind: CorruptionKind


@dataclass
class CorruptionSpec:
    nonword_rate: float = 0.0
    realword_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("nonword_rate", "realword_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.nonword_rate + self.realword_rate > 1.0:
            raise ValueError("nonword_rate + realword_rate must be <= 1")


@dataclass
class InjectionResult:
    corrupted_text: str
    records: list[CorruptionRecord]


def inject_errors(text: str, backend, spec: CorruptionSpec) -> InjectionResult:
    """Corrupt tokens of `text` at the spec's rates, returning the new text
    and one ground-truth record per corruption actually applied.

    Tokens are selected independently with one RNG draw each, so the same
    seed always corrupts the same positions. Unsatisfiable corruptions
    (no OOV edit found, no sharing vocabulary word) are skipped and logged.
    """
    transcript = tokenize(text)
    rng = Random(spec.seed)
    records: list[CorruptionRecord] = []
    replacements: list[tuple[int, str]] = []
    for i, token in enumerate(transcript.tokens):
        draw = rng.random()
        if draw < spec.nonword_rate:
            kind = CorruptionKind.NONWORD
        elif draw < spec.nonword_rate + spec.realword_rate:
            kind = CorruptionKind.REALWORD
        else:
            continue
        if _exempt(token):
            log.debug("skipping %r at %d: contains digits", token, i)
            continue
        if kind is CorruptionKind.NONWORD:
            corrupted = _nonword_edit(token, backend, rng)
        else:
            corrupted = _realword_swap(token, backend, rng)
        if corrupted is None:
            log.debug("skipping %r at %d: no %s corruption found",
                      token, i, kind.value)
            continue
        records.append(CorruptionRecord(i, token, corrupted, kind))
        replacements.append((i, corrupted))
    return InjectionResult(corrupted_text=splice(transcript, replacements),
                           records=records)


def _nonword_edit(token: str, backend, rng: Random) -> str | None:
    """One random character edit, re-rolled until the result is OOV and
    survives tokenization unchanged."""
    if len(token) < _MIN_NONWORD_LEN:
        return None
    for _ in range(_MAX_ATTEMPTS):
        op = rng.randrange(3)
        if op == 0:  # substitution
            pos = rng.randrange(len(token))
            edited = token[:pos] + rng.choice(_LETTERS) + token[pos + 1:]
        elif op == 1:  # deletion
            pos = rng.randrange(len(token))
            edited = token[:pos] + token[pos + 1:]
        else:  # insertion
            pos = rng.randrange(len(token) + 1)
            edited = token[:pos] + rng.choice(_LETTERS) + token[pos:]
        if edited == token or normalize_token(edited) != edited:
            continue
        if not backend.unigram_exists(edited):
            return edited
    return None


def _realword_swap(token: str, backend, rng: Random) -> str | None:
    if len(token) < _MIN_REALWORD_LEN or not backend.unigram_exists(token):
        return None
    partners = words_sharing_bigrams(token, backend, _MIN_SHARED_BIGRAMS)
    if not partners:
        return None
    return partners[rng.randrange(len(partners))]


def save_ground_truth(records: list[CorruptionRecord],
                      path: str | os.PathLike) -> None:
    """TSV, one corruption per line: position, original, corrupted, kind."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for r in records:
            f.write(f"{r.position}\t{r.original}\t{r.corrupted}\t{r.kind.value}\n")


def load_ground_truth(path: str | os.PathLike) -> list[CorruptionRecord]:
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ValueError(
                    f"{Path(path)}:{lineno}: expected 4 tab-separated fields")
            records.append(CorruptionRecord(
                position=int(parts[0]), original=parts[1],
                corrupted=parts[2], kind=CorruptionKind(parts[3])))
    return records
