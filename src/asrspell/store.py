"""Corpus n-gram index: build, persist, and serve word-sequence counts.

The index keeps raw occurrence counts for every 1..max_order token sequence
(line = sentence; n-grams never cross lines) plus an inverted index from
character bigrams to the vocabulary words containing them. It is the local
stand-in for a web-scale n-gram lookup service: correction quality is a
direct function of the corpus fed to :func:`build_index`.

On-disk layout (TSVs all UTF-8, LF, no trailing whitespace)::

    <dir>/manifest.tsv   key<TAB>value lines
    <dir>/1gram.tsv      token<TAB>count, sorted
    <dir>/2gram.tsv      token token<TAB>count, sorted
    ...                  up to <max_order>gram.tsv
    <dir>/2gram.bin      binary sidecar of 2gram.tsv (derived, optional)
    ...                  up to <max_order>gram.bin

Files sort by token sequence. The TSVs are the index; a sidecar only
loads its order faster. It holds a header (:data:`_SIDECAR_HEADER`: magic,
order, vocabulary size, rows, then the byte length and CRC-32 of
1gram.tsv, of its own <k>gram.tsv and of its payload) and a payload of
rows in token-sequence order, each k little-endian uint32 word ids and
an int64 count. :func:`load_index` uses a sidecar only when every
recorded length and CRC-32 matches the bytes on disk and every row checks
out; otherwise it parses that order's TSV.

In memory, unigrams are keyed by the word; a 2- to 5-gram is keyed by
one exact integer, its word ids packed into fixed-width fields (ids in
sorted-word order, as in KenLM's id-keyed tables), so numeric key order
is token-sequence order. An n-gram with a token outside the vocabulary
has count 0.
"""
from __future__ import annotations

import logging
import os
import struct
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from asrspell import kernels
from asrspell.candidates import TOP_K, Candidate, char_bigrams

log = logging.getLogger(__name__)

NORMALIZATION_VERSION = "1"
# The highest n-gram order an index holds or a query asks for.
MAX_ORDER = 5

MANIFEST_FILE = "manifest.tsv"
_MANIFEST_KEYS = ("corpus_id", "max_order", "token_count",
                  "distinct_unigrams", "normalization_version")

# magic, order, vocabulary size, rows, then (bytes, CRC-32) of 1gram.tsv,
# of <k>gram.tsv and of the payload.
_SIDECAR_HEADER = struct.Struct("<8sIQQQIQIQI")
_SIDECAR_MAGIC = b"asrsng\x00\x01"
_SIDECAR_CHUNK_ROWS = 2048
# Every count is an int64, as a sidecar row holds it.
_MAX_COUNT = 2**63 - 1


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


def plain_tokens(text: str) -> list[str] | None:
    """The tokens of `text` when it is ASCII and every whitespace chunk of
    it is alphanumeric, else None.

    Such a chunk has nothing to strip, so its token is the chunk
    lower-cased, and lower-casing ASCII keeps every character's place:
    the tokens are ``text.lower().split()``, one whole-string pass each.
    """
    if text.isascii():
        tokens = text.lower().split()
        if "".join(tokens).isalnum():
            return tokens
    return None


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

    def __init__(self, tables: list[dict], corpus_id: str):
        if not 1 <= len(tables) <= MAX_ORDER:
            raise ValueError(f"max_order must be in 1..{MAX_ORDER}, "
                             f"got {len(tables)}")
        self._tables = tables
        self._corpus_id = corpus_id
        self._token_count = sum(tables[0].values())
        # Words are sorted, so ascending ids double as lexicographic order.
        self._word_id, self._bits = _vocabulary(tables[0])
        self._words: list[str] = list(self._word_id)
        self._uni_counts = np.array(
            [tables[0][w] for w in self._words], dtype=np.int64)
        # Each postings array is strictly ascending, so it lists a word
        # once: the ranking kernel's counts rely on that.
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
        return self.ngram_count([(token,)])[0] > 0

    def ngram_count(self, queries: Sequence[Sequence[str]]) -> list[int]:
        """The count of each query, a sequence of 1..max_order tokens.

        Every vocabulary word is a token, so only a query with a word
        outside the vocabulary has its tokens checked; a token that is
        not a str, is empty or holds whitespace is a
        :class:`BatchItemError` at its query's position."""
        tables, bits = self._tables, self._bits
        unigram, word_id = tables[0].get, self._word_id.get
        max_order = len(tables)
        counts = []
        for tokens in queries:
            # A query's position is the number of counts before it.
            if isinstance(tokens, str) or not 0 < len(tokens) <= max_order:
                check_query(tokens, max_order, len(counts))  # raises
            # A miss in the vocabulary, and only a miss, has its tokens
            # checked: every stored count is at least 1.
            if len(tokens) == 1:
                count = unigram(tokens[0], 0)
                if not count:
                    _check_tokens(tokens, len(counts))
                counts.append(count)
                continue
            key = 0  # as _pack packs it
            for token in tokens:
                wid = word_id(token)
                if wid is None:
                    _check_tokens(tokens, len(counts))
                    counts.append(0)
                    break
                key = key << bits | wid
            else:
                counts.append(tables[len(tokens) - 1].get(key, 0))
        return counts

    def ngrams(self, order: int) -> Iterator[tuple[str, int]]:
        """Each stored `order`-gram, space-joined, with its count, in
        token-sequence order."""
        if order == 1:
            table = self._tables[0]
            return ((word, table[word]) for word in self._words)
        return self._joined(*self._rows(order))

    def _rows(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored `order`-grams, order >= 2, in token-sequence order:
        an (n, order) uint32 array of their word ids and an int64 array of
        their counts."""
        table = self._tables[order - 1]
        if _key_dtype(order, self._bits) is object:
            # Keys wider than int64 stay Python ints, which sorted() orders
            # faster than an argsort over objects.
            keys = np.array(sorted(table), dtype=object)
        else:
            keys = np.sort(np.fromiter(table, np.int64, len(table)))
        counts = np.array(list(map(table.__getitem__, keys.tolist())),
                          dtype=np.int64)
        bits, mask = self._bits, (1 << self._bits) - 1
        ids = np.empty((len(keys), order), dtype=np.uint32)
        for column, shift in enumerate(range((order - 1) * bits, -1, -bits)):
            ids[:, column] = keys >> shift & mask
        return ids, counts

    def _joined(self, ids: np.ndarray, counts: np.ndarray
                ) -> Iterator[tuple[str, int]]:
        """Each row of :meth:`_rows` as its space-joined words and count."""
        columns = np.array(self._words, dtype=object)[ids.T]
        return zip(map(" ".join, zip(*columns)), counts.tolist())

    def unigrams_containing_bigram(self, bigram: str) -> list[str]:
        if len(bigram) != 2:
            raise ValueError(f"character bigram must have length 2, "
                             f"got {bigram!r}")
        ids = self._postings.get(bigram)
        if ids is None:
            return []
        return [self._words[i] for i in ids]

    def rank_by_shared_bigrams(
            self, pairs: Sequence[tuple[Sequence[str], str]]
    ) -> list[tuple[list[Candidate], list[int]]]:
        """Each ``(context, word)`` pair's top ``TOP_K`` vocabulary words
        by distinct shared character bigrams, the word itself left out,
        and their counts after `context`: those of
        ``selection_queries(context, candidate words)``, the orders from
        ``len(context) + 1`` down to 1, each in candidate order.

        The backend-contract method the pipeline calls once per stage
        with every error; the ranking itself runs in
        :mod:`asrspell.kernels`, once per word. Order 1 is each
        candidate's ``unigram_count``. The higher orders are counted by
        word id: each suffix of the context is packed once, and each
        candidate's key extends it by the id the kernel ranked. A suffix
        with a token outside the vocabulary counts 0 for every candidate.
        """
        ranked = []
        for context, word in check_pairs(pairs, self):
            candidates, ids, counts = self._rank(word)
            if context and candidates:
                counts = self._counts_after(context, ids) + counts
            ranked.append((candidates, counts))
        return ranked

    def _counts_after(self, context: tuple[str, ...], ids: list[int]
                      ) -> list[int]:
        """The counts of the words `ids` after each suffix of `context`,
        the longest suffix first, each in the order of `ids`."""
        tables, word_id, bits = self._tables, self._word_id, self._bits
        rows = []
        base = shift = 0
        # The suffix of k - 1 tokens is the context of the k-grams.
        for k, token in enumerate(reversed(context), start=2):
            wid = word_id.get(token)
            if wid is None:  # this suffix and every longer one count 0
                break
            base |= wid << shift
            shift += bits
            prefix, count = base << bits, tables[k - 1].get
            rows.append([count(prefix | i, 0) for i in ids])
        zeros = [0] * (len(ids) * (len(context) - len(rows)))
        return zeros + [c for row in reversed(rows) for c in row]

    def words_sharing_bigrams(self, word: str, min_shared: int
                              ) -> list[str]:
        """All vocabulary words, sorted, sharing at least `min_shared`
        distinct character bigrams with `word`, the word itself left out.

        Counts with the ranking's own :func:`kernels.shared_counts`.
        ``min_shared < 1`` is a ValueError.
        """
        if min_shared < 1:
            raise ValueError(f"min_shared must be >= 1, got {min_shared}")
        arrays = self._postings_of(word)
        if not arrays:
            return []
        counts = kernels.shared_counts(arrays, len(self._words))
        if word in self._word_id:
            counts[self._word_id[word]] = 0
        # Ids are in sorted-word order.
        return [self._words[i] for i in np.flatnonzero(counts >= min_shared)]

    def _postings_of(self, word: str) -> list[np.ndarray]:
        """The postings of each distinct character bigram of `word` that
        some vocabulary word has."""
        postings = self._postings
        return [postings[g] for g in char_bigrams(word) if g in postings]

    def _rank(self, word: str
              ) -> tuple[list[Candidate], list[int], list[int]]:
        """The candidates of `word`, their word ids and their corpus
        counts."""
        arrays = self._postings_of(word)
        if not arrays:
            return [], [], []
        ids, shared, uni = kernels.rank_shared_candidates(
            arrays, self._uni_counts, self._word_id.get(word, -1), TOP_K)
        words = self._words
        return [Candidate(words[wid], s, c)
                for wid, s, c in zip(ids, shared, uni)], ids, uni


class BatchItemError(ValueError):
    """An item of a batch call that is rejected, at index ``position`` of
    the batch: line ``position + 1`` of the request body that carries
    it."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _is_token(value) -> bool:
    """Whether `value` is a token: a non-empty str that holds no
    whitespace, as a line of a request body can carry it."""
    return isinstance(value, str) and value.split() == [value]


def _check_tokens(tokens: Sequence[str], position: int) -> None:
    """Raise :class:`BatchItemError`, at `position`, for the first of
    `tokens` that is not a token."""
    try:
        # Joined by single spaces, tokens split back into themselves.
        if " ".join(tokens).split() == list(tokens):
            return
    except TypeError:  # one is not a str
        pass
    token = next(t for t in tokens if not _is_token(t))
    raise BatchItemError(f"tokens must be non-empty strings and hold no "
                         f"whitespace: {token!r}", position)


def check_query(tokens: Sequence[str], max_order: int,
                position: int = 0) -> None:
    """Raise :class:`BatchItemError`, at `position`, unless `tokens` is a
    sequence of 1..max_order tokens. A bare string is rejected rather
    than read as a sequence of one-character tokens."""
    if isinstance(tokens, str):
        raise BatchItemError(f"a query is a sequence of tokens, not the "
                             f"string {tokens!r}", position)
    if not 1 <= len(tokens) <= max_order:
        raise BatchItemError(
            f"query order {len(tokens)} outside 1..{max_order}", position)
    _check_tokens(tokens, position)


def check_pairs(pairs: Sequence[tuple[Sequence[str], str]], backend
                ) -> list[tuple[tuple[str, ...], str]]:
    """`pairs` as a list of ``(context tuple, word)``.

    A bare string is a ValueError. A word or a context token that is not
    a token, and a context of more than ``backend.max_order - 1`` tokens,
    is a :class:`BatchItemError` at its pair's position.
    ``backend.max_order`` is read at the first non-empty context, after
    its tokens are checked, so a client asks nothing of its server for
    input that a request line cannot carry.
    """
    if isinstance(pairs, str):
        raise ValueError(f"rank_by_shared_bigrams takes a sequence of "
                         f"(context, word) pairs, not the string {pairs!r}")
    checked = []
    window = None
    for position, (context, word) in enumerate(pairs):
        if isinstance(context, str):
            raise BatchItemError(f"a context is a sequence of tokens, not "
                                 f"the string {context!r}", position)
        if not _is_token(word):
            raise BatchItemError(f"words must be non-empty strings and hold "
                                 f"no whitespace: {word!r}", position)
        context = tuple(context)
        if context:
            _check_tokens(context, position)
            if window is None:
                window = backend.max_order - 1
            if len(context) > window:
                raise BatchItemError(
                    f"context of {len(context)} tokens exceeds max_order "
                    f"- 1 = {window}", position)
        checked.append((context, word))
    return checked


def _digits(text: str) -> bool:
    """Whether `text` is a non-empty run of ASCII digits."""
    return text.isascii() and text.isdigit()


def _number(text: str, limit: int) -> int | None:
    """The value of a run of ASCII digits when it is at most `limit`, else
    None. A run longer than `limit`'s digits is over it without int(),
    which refuses runs of more than 4300 digits."""
    digits = text.lstrip("0") or "0"
    if not _digits(text) or len(digits) > len(str(limit)):
        return None
    value = int(digits)
    return value if value <= limit else None


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


def _key_dtype(order: int, bits: int) -> type:
    """The array dtype that holds every packed `order`-gram key."""
    return np.int64 if order * bits <= 63 else object


def _pack_ids(ids: np.ndarray, bits: int) -> np.ndarray:
    """The packed key of each row of word ids, as :func:`_pack` gives it."""
    dtype = _key_dtype(ids.shape[1], bits)
    keys = ids[:, 0].astype(dtype)
    for column in ids.T[1:]:
        keys = keys << bits | column.astype(dtype)
    return keys


def tokenize_line(line: str) -> list[str]:
    """Tokens of one corpus line, in order, normalization applied."""
    tokens = plain_tokens(line)
    if tokens is not None:
        return tokens
    out = []
    for chunk in line.split():
        token = normalize_token(chunk)
        if token is not None:
            out.append(token)
    return out


def build_index(corpus: str | Iterable[str], max_order: int = MAX_ORDER,
                corpus_id: str = "") -> NgramIndex:
    """Count all 1..max_order-grams of a line-per-sentence text corpus.

    ``corpus`` is a string or any iterable of lines (an open text file
    works). N-grams never span lines. Building twice from the same bytes
    yields identical indexes.
    """
    if not 1 <= max_order <= MAX_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_ORDER}, "
                         f"got {max_order}")
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
    return NgramIndex(tables, corpus_id)


def save_index(index: NgramIndex, path: str | os.PathLike) -> None:
    """Write the index directory (see module docstring for the layout).

    Raises ValueError, before writing anything, when a manifest field
    holds a tab or a line end.
    """
    manifest = index.manifest
    for key in _MANIFEST_KEYS:
        value = str(getattr(manifest, key))
        if any(c in value for c in "\t\r\n"):
            raise ValueError(f"manifest field {key} must hold no tab or "
                             f"line end, got {value!r}")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / MANIFEST_FILE, "w", encoding="utf-8", newline="\n") as f:
        f.write(manifest.to_tsv())
    unigrams = _write_lines(root / "1gram.tsv", (
        f"{key}\t{count}\n" for key, count in index.ngrams(1)))
    vocab_size = len(index.vocab)
    for k in range(2, index.max_order + 1):
        ids, counts = index._rows(k)
        # The TSV is written from the payload's columns, so the rows are
        # held once.
        payload = np.empty(len(ids), dtype=_sidecar_row(k))
        payload["ids"], payload["count"] = ids, counts
        ids, counts = payload["ids"], payload["count"]
        grams = _write_lines(root / f"{k}gram.tsv", (
            f"{key}\t{count}\n" for key, count in index._joined(ids, counts)))
        with open(root / f"{k}gram.bin", "wb") as f:
            f.write(_SIDECAR_HEADER.pack(
                _SIDECAR_MAGIC, k, vocab_size, len(ids), *unigrams, *grams,
                payload.nbytes, zlib.crc32(payload)))
            f.write(payload)
    # A larger index saved here before left orders this one does not have.
    for k in range(index.max_order + 1, MAX_ORDER + 1):
        (root / f"{k}gram.tsv").unlink(missing_ok=True)
        (root / f"{k}gram.bin").unlink(missing_ok=True)


def _write_lines(path: Path, lines: Iterable[str]) -> tuple[int, int]:
    """Write `lines` as UTF-8; return the file's byte length and CRC-32."""
    size = crc = 0
    lines = iter(lines)
    with open(path, "wb") as f:
        while block := "".join(islice(lines, 4096)).encode("utf-8"):
            f.write(block)
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


def _digest(path: Path) -> tuple[int, int]:
    """The byte length and CRC-32 of the file at `path`."""
    size = crc = 0
    with open(path, "rb") as f:
        while block := f.read(1 << 20):
            size += len(block)
            crc = zlib.crc32(block, crc)
    return size, crc


def _sidecar_row(order: int) -> np.dtype:
    """One payload row of the `order`-gram sidecar: ids, then count."""
    return np.dtype([("ids", "<u4", (order,)), ("count", "<i8")])


def load_index(path: str | os.PathLike) -> NgramIndex:
    """Load an index directory written by :func:`save_index`.

    Each order k >= 2 comes from its sidecar ``<k>gram.bin`` when that is
    valid for the TSVs on disk, and from ``<k>gram.tsv`` otherwise; both
    give the same table. Logs which at INFO, and a sidecar that is there
    but skipped at WARNING.

    Raises IndexFormatError naming the offending file (and line, where
    applicable) on any missing or malformed content.
    """
    start = time.perf_counter()
    root = Path(path)
    manifest = _read_manifest(root / MANIFEST_FILE)
    unigram_path = root / "1gram.tsv"
    unigrams = _read_gram_file(unigram_path, 1, {}, 0)
    if len(unigrams) != manifest.distinct_unigrams:
        raise IndexFormatError(
            f"{root / MANIFEST_FILE}: distinct_unigrams is "
            f"{manifest.distinct_unigrams} but 1gram.tsv has {len(unigrams)}")
    token_count = sum(unigrams.values())
    if token_count != manifest.token_count:
        raise IndexFormatError(
            f"{root / MANIFEST_FILE}: token_count is {manifest.token_count} "
            f"but unigram counts sum to {token_count}")
    word_id, bits = _vocabulary(unigrams)
    tables: list[dict] = [unigrams]
    from_sidecar, from_tsv = [], [1]
    unigram_digest = None
    for k in range(2, manifest.max_order + 1):
        sidecar, tsv = root / f"{k}gram.bin", root / f"{k}gram.tsv"
        table = None
        if sidecar.is_file():
            try:
                unigram_digest = unigram_digest or _digest(unigram_path)
                table = _read_sidecar(sidecar, k, len(word_id), bits,
                                      (unigram_digest, _digest(tsv)))
            except (_StaleSidecar, OSError) as exc:
                log.warning("%s: skipped, reading %s instead: %s",
                            sidecar, tsv.name, exc)
        if table is None:
            table = _read_gram_file(tsv, k, word_id, bits)
            from_tsv.append(k)
        else:
            from_sidecar.append(k)
        tables.append(table)
    index = NgramIndex(tables, manifest.corpus_id)
    log.info("loaded index %s in %.2f s: orders %s from sidecars, %s from "
             "TSV", root, time.perf_counter() - start,
             from_sidecar or "none", from_tsv)
    return index


class _StaleSidecar(Exception):
    """A sidecar that does not match its TSVs or fails a row check."""


def _read_sidecar(path: Path, order: int, vocab_size: int, bits: int,
                  tsv_digests: tuple[tuple[int, int], tuple[int, int]]
                  ) -> dict:
    """The table of one sidecar, streamed in chunks of at most
    _SIDECAR_CHUNK_ROWS rows; raises _StaleSidecar unless its header
    records `tsv_digests` (of 1gram.tsv and of its own TSV) and every row
    checks out."""
    row = _sidecar_row(order)
    with open(path, "rb") as f:
        header = f.read(_SIDECAR_HEADER.size)
        if len(header) < _SIDECAR_HEADER.size:
            raise _StaleSidecar("header truncated")
        (magic, got_order, got_vocab, rows, *digests, payload_size,
         payload_crc) = _SIDECAR_HEADER.unpack(header)
        if magic != _SIDECAR_MAGIC:
            raise _StaleSidecar("not an n-gram sidecar of this version")
        if (got_order, got_vocab) != (order, vocab_size):
            raise _StaleSidecar(f"written for {got_order}-grams over "
                                f"{got_vocab} words")
        if tuple(digests[:2]) != tsv_digests[0]:
            raise _StaleSidecar("1gram.tsv changed since it was written")
        if tuple(digests[2:]) != tsv_digests[1]:
            raise _StaleSidecar(f"{order}gram.tsv changed since it was "
                                f"written")
        if payload_size != rows * row.itemsize:
            raise _StaleSidecar(f"{rows} rows do not fill {payload_size} "
                                f"payload bytes")
        table: dict = {}
        crc, done, last = 0, 0, -1
        while chunk := f.read(_SIDECAR_CHUNK_ROWS * row.itemsize):
            crc = zlib.crc32(chunk, crc)
            done += len(chunk) // row.itemsize
            if len(chunk) % row.itemsize:
                raise _StaleSidecar("payload ends mid-row")
            if done > rows:
                raise _StaleSidecar(f"payload longer than {rows} rows")
            block = np.frombuffer(chunk, dtype=row)
            ids, counts = block["ids"], block["count"]
            if ids.max() >= vocab_size or counts.min() < 1:
                raise _StaleSidecar("word id or count out of range")
            keys = _pack_ids(ids, bits)
            if keys[0] <= last or np.any(keys[1:] <= keys[:-1]):
                raise _StaleSidecar("rows not strictly ascending")
            last = keys[-1]
            table.update(zip(keys.tolist(), counts.tolist()))
    if done != rows:
        raise _StaleSidecar(f"payload truncated: {done} of {rows} rows")
    if crc != payload_crc:
        raise _StaleSidecar("payload CRC-32 mismatch")
    return table


def _read_manifest(path: Path) -> IndexManifest:
    if not path.is_file():
        raise IndexFormatError(f"{path}: missing manifest file")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="\n") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise IndexFormatError(
                    f"{path}:{lineno}: expected key<TAB>value, got {line!r}")
            key, value = parts
            if key in values or key not in _MANIFEST_KEYS:
                why = "duplicate" if key in values else "unknown"
                raise IndexFormatError(f"{path}:{lineno}: {why} key {key!r}")
            values[key] = value
    missing = [k for k in _MANIFEST_KEYS if k not in values]
    if missing:
        raise IndexFormatError(f"{path}: missing keys {missing}")
    if values["normalization_version"] != NORMALIZATION_VERSION:
        raise IndexFormatError(
            f"{path}: normalization_version "
            f"{values['normalization_version']!r} does not match this "
            f"build's {NORMALIZATION_VERSION!r}")
    numbers = {key: _number(values[key], _MAX_COUNT)
               for key in ("max_order", "token_count", "distinct_unigrams")}
    for key, number in numbers.items():
        if number is None:
            raise IndexFormatError(f"{path}: non-integer manifest field "
                                   f"{key}: {values[key][:100]!r}")
    if not 1 <= numbers["max_order"] <= MAX_ORDER:
        raise IndexFormatError(f"{path}: max_order {numbers['max_order']} "
                               f"outside 1..{MAX_ORDER}")
    return IndexManifest(corpus_id=values["corpus_id"], **numbers)


def _read_gram_file(path: Path, order: int, word_id: dict[str, int],
                    bits: int) -> dict:
    """The table of one gram file: unigrams keyed by the word, longer
    n-grams by their packed key over `word_id`."""
    if not path.is_file():
        raise IndexFormatError(f"{path}: missing {order}-gram file")
    table: dict = {}
    with open(path, encoding="utf-8", newline="\n") as f:
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
            # Every longer key's tokens are words of 1gram.tsv.
            if order == 1 and not _is_token(key):
                raise IndexFormatError(
                    f"{path}:{lineno}: token {key!r} holds whitespace")
            if not _digits(count_text):
                raise IndexFormatError(
                    f"{path}:{lineno}: count {count_text!r} is not an integer")
            count = _number(count_text, _MAX_COUNT)
            if not count:  # 0, or None above the bound
                raise IndexFormatError(
                    f"{path}:{lineno}: count must be >= 1 and <= 2**63 - 1, "
                    f"got {count_text}")
            packed = key if order == 1 else _pack(word_id, bits, tokens)
            if packed is None:
                missing = next(t for t in tokens if t not in word_id)
                raise IndexFormatError(
                    f"{path}:{lineno}: token {missing!r} is not in 1gram.tsv")
            if packed in table:
                raise IndexFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            table[packed] = count
    return table
