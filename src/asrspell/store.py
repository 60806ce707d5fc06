"""Corpus n-gram index: build, persist, and serve word-sequence counts.

The index keeps raw occurrence counts for every 1..max_order token sequence
(line = sentence; n-grams never cross lines) plus an inverted index from
character bigrams to the vocabulary words containing them. It is the local
stand-in for a web-scale n-gram lookup service: correction quality is a
direct function of the corpus fed to :func:`build_index`.

On-disk layout (all UTF-8, LF, no trailing whitespace)::

    <dir>/manifest.tsv   key<TAB>value lines
    <dir>/1gram.tsv      token<TAB>count, sorted
    <dir>/2gram.tsv      token token<TAB>count, sorted
    ...                  up to <max_order>gram.tsv
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from asrspell import kernels
from asrspell.candidates import Candidate, char_bigrams

NORMALIZATION_VERSION = "1"

MANIFEST_FILE = "manifest.tsv"
_MANIFEST_KEYS = ("corpus_id", "max_order", "token_count",
                  "distinct_unigrams", "normalization_version")


class IndexFormatError(ValueError):
    """An index directory is missing, truncated, or malformed."""


def normalize_token(raw: str) -> str | None:
    """Normalize one whitespace-delimited chunk into a vocabulary token.

    Lower-cases, strips leading/trailing non-alphanumeric characters
    (internal apostrophes and hyphens survive), and returns None when
    nothing is left. Chunks with internal whitespace are not tokens and
    also yield None.
    """
    s = raw.lower()
    start, end = 0, len(s)
    while start < end and not s[start].isalnum():
        start += 1
    while end > start and not s[end - 1].isalnum():
        end -= 1
    s = s[start:end]
    if not s or any(c.isspace() for c in s):
        return None
    return s


@dataclass
class IndexManifest:
    corpus_id: str
    max_order: int
    token_count: int
    distinct_unigrams: int
    normalization_version: str = NORMALIZATION_VERSION

    def to_tsv(self) -> str:
        return "".join(f"{key}\t{getattr(self, key)}\n" for key in _MANIFEST_KEYS)


class NgramIndex:
    """Immutable after construction; lookups are safe from any thread."""

    def __init__(self, tables: list[dict[str, int]], corpus_id: str,
                 token_count: int):
        if not 1 <= len(tables) <= 5:
            raise ValueError(f"max_order must be in 1..5, got {len(tables)}")
        self._tables = tables
        self._corpus_id = corpus_id
        self._token_count = token_count
        # Word-id view of the vocabulary for the ranking kernel. Words are
        # sorted, so ascending ids double as lexicographic order.
        self._words: list[str] = sorted(tables[0])
        self._word_id = {w: i for i, w in enumerate(self._words)}
        self._uni_counts = np.array(
            [tables[0][w] for w in self._words], dtype=np.int64)
        postings: dict[str, list[int]] = {}
        for wid, word in enumerate(self._words):
            for gram in char_bigrams(word):
                postings.setdefault(gram, []).append(wid)
        self._postings = {g: np.array(ids, dtype=np.intc)
                          for g, ids in postings.items()}

    @property
    def max_order(self) -> int:
        return len(self._tables)

    @property
    def vocab(self):
        return self._tables[0].keys()

    @property
    def manifest(self) -> IndexManifest:
        return IndexManifest(
            corpus_id=self._corpus_id,
            max_order=self.max_order,
            token_count=self._token_count,
            distinct_unigrams=len(self._words),
        )

    def distinct_per_order(self) -> list[int]:
        """Number of distinct k-grams stored for each order 1..max_order."""
        return [len(t) for t in self._tables]

    def unigram_exists(self, token: str) -> bool:
        return token in self._tables[0]

    def ngram_count(self, queries: Sequence[Sequence[str]]) -> list[int]:
        """The count of each query, a sequence of 1..max_order tokens."""
        tables = self._tables
        max_order = len(tables)
        counts = []
        for tokens in queries:
            if isinstance(tokens, str) or not 0 < len(tokens) <= max_order:
                check_query(tokens, max_order)  # raises the ValueError
            counts.append(tables[len(tokens) - 1].get(" ".join(tokens), 0))
        return counts

    def unigrams_containing_bigram(self, bigram: str) -> list[str]:
        if len(bigram) != 2:
            raise ValueError(f"character bigram must have length 2, "
                             f"got {bigram!r}")
        ids = self._postings.get(bigram)
        if ids is None:
            return []
        return [self._words[i] for i in ids]

    def rank_by_shared_bigrams(self, bigrams: Iterable[str], k: int,
                               exclude: str | None = None) -> list[Candidate]:
        """Top-k vocabulary words by distinct shared character bigrams.

        The backend-contract method the candidate generator calls once
        per error word; the ranking itself runs in :mod:`asrspell.kernels`.
        """
        arrays = [self._postings[g] for g in bigrams if g in self._postings]
        if not arrays:
            return []
        exclude_id = self._word_id.get(exclude, -1) if exclude else -1
        pairs = kernels.rank_shared_candidates(
            arrays, self._uni_counts, exclude_id, k)
        return [
            Candidate(word=self._words[wid], shared=shared,
                      unigram_count=int(self._uni_counts[wid]))
            for wid, shared in pairs
        ]


def check_query(tokens: Sequence[str], max_order: int) -> None:
    """Raise ValueError unless `tokens` is a token sequence of order
    1..max_order. A bare string is rejected rather than read as a
    sequence of one-character tokens."""
    if isinstance(tokens, str):
        raise ValueError(f"a query is a sequence of tokens, not the "
                         f"string {tokens!r}")
    if not 1 <= len(tokens) <= max_order:
        raise ValueError(
            f"query order {len(tokens)} outside 1..{max_order}")


def tokenize_line(line: str) -> list[str]:
    """Tokens of one corpus line, in order, normalization applied."""
    out = []
    for chunk in line.split():
        token = normalize_token(chunk)
        if token is not None:
            out.append(token)
    return out


def build_index(corpus: str | Iterable[str], max_order: int = 5,
                corpus_id: str = "") -> NgramIndex:
    """Count all 1..max_order-grams of a line-per-sentence text corpus.

    ``corpus`` is a string or any iterable of lines (an open text file
    works). N-grams never span lines. Building twice from the same bytes
    yields identical indexes.
    """
    if not 1 <= max_order <= 5:
        raise ValueError(f"max_order must be in 1..5, got {max_order}")
    if isinstance(corpus, str):
        corpus = corpus.splitlines()
    tables: list[Counter[str]] = [Counter() for _ in range(max_order)]
    token_count = 0
    for line in corpus:
        tokens = tokenize_line(line)
        if not tokens:
            continue
        token_count += len(tokens)
        tables[0].update(tokens)
        for k in range(2, max_order + 1):
            tables[k - 1].update(
                " ".join(tokens[i:i + k])
                for i in range(len(tokens) - k + 1))
    # The Counters go in as they are: copying them to plain dicts would
    # briefly hold every table twice.
    return NgramIndex(tables, corpus_id, token_count)


def save_index(index: NgramIndex, path: str | os.PathLike) -> None:
    """Write the index directory (see module docstring for the layout)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as f:
        f.write(index.manifest.to_tsv())
    for k in range(1, index.max_order + 1):
        table = index._tables[k - 1]
        keys = sorted(table, key=_token_order)
        with open(root / f"{k}gram.tsv", "w", encoding="utf-8",
                  newline="\n") as f:
            for key in keys:
                f.write(f"{key}\t{table[key]}\n")


def _token_order(key: str) -> str:
    """A string whose plain order is the token-sequence order of `key`.

    Tokens may hold any character but the space, including ones below it,
    so the joined string alone does not sort as the token lists do. Here
    the separator becomes the lowest code pair, "\\0\\0", and a "\\0"
    inside a token the next one, "\\0\\1".
    """
    return key.replace("\0", "\0\1").replace(" ", "\0\0")


def load_index(path: str | os.PathLike) -> NgramIndex:
    """Load an index directory written by :func:`save_index`.

    Raises IndexFormatError naming the offending file (and line, where
    applicable) on any missing or malformed content.
    """
    root = Path(path)
    manifest = _read_manifest(root / MANIFEST_FILE)
    tables: list[dict[str, int]] = []
    for k in range(1, manifest.max_order + 1):
        tables.append(_read_gram_file(root / f"{k}gram.tsv", k))
    if len(tables[0]) != manifest.distinct_unigrams:
        raise IndexFormatError(
            f"{root / MANIFEST_FILE}: distinct_unigrams is "
            f"{manifest.distinct_unigrams} but 1gram.tsv has {len(tables[0])}")
    if sum(tables[0].values()) != manifest.token_count:
        raise IndexFormatError(
            f"{root / MANIFEST_FILE}: token_count is {manifest.token_count} "
            f"but unigram counts sum to {sum(tables[0].values())}")
    return NgramIndex(tables, manifest.corpus_id, manifest.token_count)


def _read_manifest(path: Path) -> IndexManifest:
    if not path.is_file():
        raise IndexFormatError(f"{path}: missing manifest file")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise IndexFormatError(
                    f"{path}:{lineno}: expected key<TAB>value, got {line!r}")
            values[parts[0]] = parts[1]
    missing = [k for k in _MANIFEST_KEYS if k not in values]
    if missing:
        raise IndexFormatError(f"{path}: missing keys {missing}")
    if values["normalization_version"] != NORMALIZATION_VERSION:
        raise IndexFormatError(
            f"{path}: normalization_version "
            f"{values['normalization_version']!r} does not match this "
            f"build's {NORMALIZATION_VERSION!r}")
    try:
        max_order = int(values["max_order"])
        token_count = int(values["token_count"])
        distinct = int(values["distinct_unigrams"])
    except ValueError as exc:
        raise IndexFormatError(f"{path}: non-integer manifest field: {exc}")
    if not 1 <= max_order <= 5:
        raise IndexFormatError(
            f"{path}: max_order {max_order} outside 1..5")
    return IndexManifest(
        corpus_id=values["corpus_id"], max_order=max_order,
        token_count=token_count, distinct_unigrams=distinct)


def _read_gram_file(path: Path, order: int) -> dict[str, int]:
    if not path.is_file():
        raise IndexFormatError(f"{path}: missing {order}-gram file")
    table: dict[str, int] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                raise IndexFormatError(f"{path}:{lineno}: blank line")
            parts = line.split("\t")
            if len(parts) != 2:
                raise IndexFormatError(
                    f"{path}:{lineno}: expected ngram<TAB>count")
            key, count_text = parts
            if len(key.split(" ")) != order or "" in key.split(" "):
                raise IndexFormatError(
                    f"{path}:{lineno}: key {key!r} is not a {order}-gram")
            try:
                count = int(count_text)
            except ValueError:
                raise IndexFormatError(
                    f"{path}:{lineno}: count {count_text!r} is not an integer")
            if count < 1:
                raise IndexFormatError(
                    f"{path}:{lineno}: count must be >= 1, got {count}")
            if key in table:
                raise IndexFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            table[key] = count
    return table
