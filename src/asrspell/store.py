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

Files sort by token sequence. In memory, unigrams are keyed by the word;
a 2- to 5-gram is keyed by one exact integer, its word ids packed into
fixed-width fields (ids in sorted-word order, as in KenLM's id-keyed
tables), so numeric key order is token-sequence order. An n-gram with a
token outside the vocabulary has count 0.
"""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    if s.isalnum():
        return s  # nothing to strip: the common case
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
    """Immutable after construction; lookups are safe from any thread.

    ``tables[0]`` maps each word to its count; ``tables[k - 1]``, for
    k >= 2, maps the packed key of each k-gram (:func:`_pack`, over the
    ids of :func:`_vocabulary`) to its count.
    """

    def __init__(self, tables: list[dict], corpus_id: str,
                 token_count: int):
        if not 1 <= len(tables) <= 5:
            raise ValueError(f"max_order must be in 1..5, got {len(tables)}")
        self._tables = tables
        self._corpus_id = corpus_id
        self._token_count = token_count
        # Words are sorted, so ascending ids double as lexicographic order.
        self._word_id, self._bits = _vocabulary(tables[0])
        self._words: list[str] = list(self._word_id)
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
        tables, word_id, bits = self._tables, self._word_id, self._bits
        max_order = len(tables)
        counts = []
        for tokens in queries:
            if isinstance(tokens, str) or not 0 < len(tokens) <= max_order:
                check_query(tokens, max_order)  # raises the ValueError
            if len(tokens) == 1:
                counts.append(tables[0].get(tokens[0], 0))
                continue
            key = _pack(word_id, bits, tokens)
            counts.append(0 if key is None
                          else tables[len(tokens) - 1].get(key, 0))
        return counts

    def ngrams(self, order: int) -> Iterator[tuple[str, int]]:
        """Each stored `order`-gram, space-joined, with its count, in
        token-sequence order."""
        table = self._tables[order - 1]
        if order == 1:
            return ((word, table[word]) for word in self._words)
        keys = sorted(table)
        counts = list(map(table.__getitem__, keys))
        # Unpack all keys at once; keys wider than int64 stay Python ints.
        bits, mask = self._bits, (1 << self._bits) - 1
        packed = np.array(keys, dtype=np.int64 if order * bits <= 63
                          else object)
        words = np.array(self._words, dtype=object)
        columns = [words[(packed >> shift & mask).astype(np.intp)]
                   for shift in range((order - 1) * bits, -1, -bits)]
        return zip(map(" ".join, zip(*columns)), counts)

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


def _vocabulary(unigrams: Iterable[str]) -> tuple[dict[str, int], int]:
    """Each word's id, ids in sorted-word order, and the bits one id takes
    in a packed key."""
    word_id = {word: i for i, word in enumerate(sorted(unigrams))}
    return word_id, max(1, (len(word_id) - 1).bit_length())


def _pack(word_id: dict[str, int], bits: int,
          tokens: Iterable[str]) -> int | None:
    """The packed key ``((id1 << bits | id2) << bits | ...)`` of `tokens`,
    or None when one of them is not a word."""
    key = 0
    for token in tokens:
        wid = word_id.get(token)
        if wid is None:
            return None
        key = key << bits | wid
    return key


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
    lines = [tokens for tokens in map(tokenize_line, corpus) if tokens]
    unigrams: Counter[str] = Counter()
    for tokens in lines:
        unigrams.update(tokens)
    word_id, bits = _vocabulary(unigrams)
    tables = [unigrams] + [Counter() for _ in range(max_order - 1)]
    for tokens in lines:
        # A k-gram's key extends the key of its first k - 1 tokens.
        keys = ids = [word_id[token] for token in tokens]
        for k, table in enumerate(tables[1:], start=2):
            keys = [key << bits | wid for key, wid in zip(keys, ids[k - 1:])]
            table.update(keys)
    # The Counters go in as they are: copying them to plain dicts would
    # briefly hold every table twice.
    return NgramIndex(tables, corpus_id, sum(map(len, lines)))


def save_index(index: NgramIndex, path: str | os.PathLike) -> None:
    """Write the index directory (see module docstring for the layout)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as f:
        f.write(index.manifest.to_tsv())
    for k in range(1, index.max_order + 1):
        with open(root / f"{k}gram.tsv", "w", encoding="utf-8",
                  newline="\n") as f:
            f.writelines(f"{key}\t{count}\n"
                         for key, count in index.ngrams(k))


def load_index(path: str | os.PathLike) -> NgramIndex:
    """Load an index directory written by :func:`save_index`.

    Raises IndexFormatError naming the offending file (and line, where
    applicable) on any missing or malformed content.
    """
    root = Path(path)
    manifest = _read_manifest(root / MANIFEST_FILE)
    unigrams = _read_gram_file(root / "1gram.tsv", 1, {}, 0)
    if len(unigrams) != manifest.distinct_unigrams:
        raise IndexFormatError(
            f"{root / MANIFEST_FILE}: distinct_unigrams is "
            f"{manifest.distinct_unigrams} but 1gram.tsv has {len(unigrams)}")
    if sum(unigrams.values()) != manifest.token_count:
        raise IndexFormatError(
            f"{root / MANIFEST_FILE}: token_count is {manifest.token_count} "
            f"but unigram counts sum to {sum(unigrams.values())}")
    word_id, bits = _vocabulary(unigrams)
    tables = [unigrams] + [
        _read_gram_file(root / f"{k}gram.tsv", k, word_id, bits)
        for k in range(2, manifest.max_order + 1)]
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


def _read_gram_file(path: Path, order: int, word_id: dict[str, int],
                    bits: int) -> dict:
    """The table of one gram file: unigrams keyed by the word, longer
    n-grams by their packed key over `word_id`."""
    if not path.is_file():
        raise IndexFormatError(f"{path}: missing {order}-gram file")
    table: dict = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                raise IndexFormatError(f"{path}:{lineno}: blank line")
            key, tab, count_text = line.partition("\t")
            if not tab or "\t" in count_text:
                raise IndexFormatError(
                    f"{path}:{lineno}: expected ngram<TAB>count")
            tokens = key.split(" ")
            if len(tokens) != order or "" in tokens:
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
            packed = key if order == 1 else _pack(word_id, bits, tokens)
            if packed is None:
                missing = next(t for t in tokens if t not in word_id)
                raise IndexFormatError(
                    f"{path}:{lineno}: token {missing!r} is not in 1gram.tsv")
            if packed in table:
                raise IndexFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            table[packed] = count
    return table
