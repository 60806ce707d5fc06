"""Transcript tokenization and spelling-error detection.

Non-word detection is a pure vocabulary lookup: a token absent from the
index unigrams is an error. Real-word detection is statistical and
optional: a valid token is suspect when some candidate correction fits the
preceding context far better (by a configurable margin) than the token
itself does.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import islice

# generate_candidates is not called here; it stays importable from this
# module for the callers that look it up by this name.
from asrspell.candidates import generate_candidates  # noqa: F401
from asrspell.store import normalize_token


# The chunks str.split() gives: \s matches exactly the str.isspace()
# characters.
_CHUNK = re.compile(r"\S+")


class ErrorKind(Enum):
    NONWORD = "nonword"
    REALWORD_SUSPECT = "realword"


@dataclass(frozen=True)
class DetectedError:
    position: int        # token index, 0-based
    token: str
    kind: ErrorKind


@dataclass
class Transcript:
    raw: str
    tokens: list[str]
    spans: list[tuple[int, int]]  # character range of each token in raw

    def context(self, position: int, window: int) -> tuple[str, ...]:
        """The at most `window` tokens directly before `position`, in
        textual order."""
        return tuple(self.tokens[max(0, position - window):position])


def tokenize(text: str) -> Transcript:
    """Split on whitespace, normalize each chunk, record residue spans.

    The span covers the chunk minus its leading/trailing punctuation, so a
    later replacement preserves surrounding punctuation. Chunks that
    normalize to nothing produce no token.
    """
    tokens: list[str] = []
    spans: list[tuple[int, int]] = []
    for chunk in _CHUNK.finditer(text):
        start, stop = chunk.span()
        if not chunk.group().isalnum():
            while start < stop and not text[start].isalnum():
                start += 1
            while stop > start and not text[stop - 1].isalnum():
                stop -= 1
        token = normalize_token(text[start:stop])
        if token is not None:
            tokens.append(token)
            spans.append((start, stop))
    return Transcript(raw=text, tokens=tokens, spans=spans)


def splice(transcript: Transcript, replacements: list[tuple[int, str]]) -> str:
    """The raw text with each ``(position, word)`` token replaced.

    Positions must be ascending. Only the token's span is rewritten, so
    surrounding punctuation survives, and a word replacing a token that
    starts with a capital gets a leading capital too.
    """
    text = transcript.raw
    parts = []
    cursor = 0
    for position, word in replacements:
        start, stop = transcript.spans[position]
        parts.append(text[cursor:start])
        if text[start].isupper():
            word = word[:1].upper() + word[1:]
        parts.append(word)
        cursor = stop
    parts.append(text[cursor:])
    return "".join(parts)


def _exempt(token: str) -> bool:
    # Numerals and codes are not dictionary words; flagging them would be
    # noise the index vocabulary cannot arbitrate. No letter is a digit, so
    # the one call to isalpha() settles most tokens.
    return not token.isalpha() and any(c.isdigit() for c in token)


def detect_nonword_errors(transcript: Transcript, backend) -> list[DetectedError]:
    """One NonWord error per out-of-vocabulary token, in position order.

    The unigram counts of all checked tokens come from one backend call.
    """
    checked = [(i, token) for i, token in enumerate(transcript.tokens)
               if not _exempt(token)]
    if not checked:
        return []
    counts = backend.ngram_count([(token,) for _, token in checked])
    return [DetectedError(i, token, ErrorKind.NONWORD)
            for (i, token), count in zip(checked, counts, strict=True)
            if count == 0]


def detect_realword_suspects(transcript: Transcript, backend,
                             margin: float = 10.0) -> list[DetectedError]:
    """Context-margin detection of valid-but-wrong words.

    For each in-vocabulary token, the token and its candidate corrections
    are scored by the count of (its context + word), the context being up
    to ``backend.max_order - 1`` preceding tokens, as in selection. The
    token is suspect iff some candidate's count reaches ``margin`` times
    the token's own (zero counts as one). Only tokens with a context are
    checked: without one there is nothing context-sensitive to compare,
    so over a 1-gram index nothing is flagged. margin=inf disables the
    pass.

    Candidates are generated and counted only where one could reach the
    threshold. Within a line, every occurrence of ``prefix + word`` is an
    occurrence of ``prefix``, so ``count(prefix + word) <= count(prefix)``
    for every word; a token whose prefix alone is rarer than the threshold
    is skipped, with the same result as ranking its candidates.

    Counts come in at most two backend calls: one for every checked token's
    unigram, own and prefix counts, one for the candidates of the tokens
    that survive the bound. Those tokens are ranked in one
    ``rank_by_shared_bigrams`` call.
    """
    if not margin >= 1:  # NaN too
        raise ValueError(f"margin must be >= 1, got {margin}")
    window = backend.max_order - 1
    checked = [(i, prefix, token) for i, token in enumerate(transcript.tokens)
               if len(token) >= 2 and not _exempt(token)
               and (prefix := transcript.context(i, window))]
    # Per token: its unigram, its own query and its prefix; the counts are
    # read back in that order.
    queries = [query for _, prefix, token in checked
               for query in ((token,), (*prefix, token), prefix)]
    counts = iter(backend.ngram_count(queries) if queries else ())
    survivors = []
    for i, prefix, token in checked:
        unigram, own, context = next(counts), next(counts), next(counts)
        if unigram == 0:
            continue  # already a NonWord error
        threshold = margin * max(own, 1)
        if context < threshold:
            continue  # no candidate can occur more often than its context
        survivors.append((i, prefix, token, threshold))
    if not survivors:
        return []
    # Ranked without their contexts: the threshold reads only the full
    # order, which the one count call below gives.
    ranked = [cands for cands, _ in backend.rank_by_shared_bigrams(
        [((), token) for _, _, token, _ in survivors])]
    # Every survivor's candidates in one call, each reading its own run
    # of the counts. A threshold is at least 1, so no candidates flag
    # nothing.
    queries = [(*prefix, c.word)
               for (_, prefix, _, _), cands in zip(survivors, ranked,
                                                   strict=True)
               for c in cands]
    counts = iter(backend.ngram_count(queries) if queries else ())
    return [DetectedError(i, token, ErrorKind.REALWORD_SUSPECT)
            for (i, _, token, threshold), cands in zip(survivors, ranked)
            if max(islice(counts, len(cands)), default=0) >= threshold]
