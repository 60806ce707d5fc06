"""Minimal HTTP lookup service over an index, plus the matching client.

Protocol (HTTP/1.1 with keep-alive, UTF-8, plain text bodies, no auth):

    GET /v1/unigram?q=<token>                  -> count as decimal text
    GET /v1/ngram?q=<tokens, '+'-separated>    -> count (1..5 tokens)
    POST /v1/ngram                             -> one count per line
        body: one query per line, its 1..5 tokens space-separated; at
        most MAX_BATCH_BYTES (64 KiB), sent with a Content-Length
    GET /v1/postings?q=<2 chars>               -> newline-separated words,
                                                  capped at 1000
    GET /v1/candidates?b=<2 chars>&b=...&k=<k>[&exclude=<word>]
                                               -> top-k words by shared
                                                  bigrams, one
                                                  word<TAB>shared<TAB>count
                                                  line each
    GET /v1/manifest                           -> manifest TSV

Malformed queries get 400 with a one-line reason; a batch is rejected
whole when any line is malformed. A POST without Content-Length gets 411
and one above MAX_BATCH_BYTES gets 413; both close the connection, as the
body is left unread. Counts are raw corpus occurrences; a zero means "not
seen", never "server trouble" (faults surface as HTTP errors, which the
client raises as BackendError). The 1000-word cap applies to /v1/postings
only: /v1/candidates ranks the whole vocabulary on the server, exactly as
a local index does.

Connections are kept open between requests; the server closes one after
IDLE_TIMEOUT_S seconds without a request.
"""
from __future__ import annotations

import http.client
import logging
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Iterator, Sequence

from asrspell.backend import BackendError
from asrspell.candidates import Candidate
from asrspell.store import NgramIndex, check_query

log = logging.getLogger(__name__)

POSTINGS_CAP = 1000
PROTOCOL_MAX_ORDER = 5
IDLE_TIMEOUT_S = 30
MAX_BATCH_BYTES = 65536


def serve(index: NgramIndex, bind_address: str = "127.0.0.1",
          port: int = 8421) -> ThreadingHTTPServer:
    """Bind a read-only lookup server; caller runs serve_forever()/shutdown().

    Port 0 picks a free port (see server.server_address). The index is
    shared immutably across request threads.
    """
    handler = _make_handler(index)
    try:
        return _Server((bind_address, port), handler)
    except OSError as exc:
        raise OSError(
            f"cannot bind lookup service to {bind_address}:{port}: {exc}"
        ) from exc


class _Server(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # A kept-alive client that goes away mid-request is not a server
        # fault: one line at DEBUG instead of a traceback on stderr.
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            log.debug("%s dropped the connection: %r", client_address[0], exc)
        else:
            super().handle_error(request, client_address)


def _make_handler(index: NgramIndex):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # Headers and body go out in two sends; with Nagle's algorithm the
        # second waits for the client's delayed ACK, about 40 ms a request.
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        def do_GET(self):
            url = urllib.parse.urlparse(self.path)
            self._answer({
                "/v1/unigram": self._unigram,
                "/v1/ngram": self._ngram,
                "/v1/postings": self._postings,
                "/v1/candidates": self._candidates,
                "/v1/manifest": self._manifest,
            }.get(url.path), url.query)

        def do_POST(self):
            # Every early reply leaves the body unread, so it also closes
            # the connection.
            length = self.headers.get("Content-Length")
            if length is None:
                self._reply(411, "Content-Length required\n", close=True)
                return
            if not (length.isascii() and length.isdigit()):
                self._reply(400, f"bad Content-Length {length!r}\n",
                            close=True)
                return
            size = int(length)
            if size > MAX_BATCH_BYTES:
                self._reply(413, f"body exceeds {MAX_BATCH_BYTES} bytes\n",
                            close=True)
                return
            body = self.rfile.read(size)
            if len(body) < size:
                self.close_connection = True  # the client went away
                return
            url = urllib.parse.urlparse(self.path)
            self._answer({"/v1/ngram": self._ngram_batch}.get(url.path),
                         body)

        def _answer(self, route, arg):
            if route is None:
                self._reply(404, "unknown endpoint\n")
                return
            try:
                body = route(arg)
            except _BadRequest as exc:
                self._reply(400, str(exc) + "\n")
            else:
                self._reply(200, body)

        def _unigram(self, query: str) -> str:
            token = _single_param(query)
            if not token or " " in token:
                raise _BadRequest("q must be a single token")
            return f"{index.ngram_count([[token]])[0]}\n"

        def _ngram(self, query: str) -> str:
            tokens = _query_tokens(_single_param(query), index.max_order)
            return f"{index.ngram_count([tokens])[0]}\n"

        def _ngram_batch(self, body: bytes) -> str:
            try:
                text = body.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _BadRequest(f"body is not UTF-8: {exc}") from None
            lines = text.split("\n")
            if lines[-1] == "":
                lines.pop()  # the last query's line end
            queries = []
            for lineno, line in enumerate(lines, start=1):
                try:
                    queries.append(_query_tokens(line, index.max_order))
                except _BadRequest as exc:
                    raise _BadRequest(f"line {lineno}: {exc}") from None
            return "".join(f"{c}\n" for c in index.ngram_count(queries))

        def _postings(self, query: str) -> str:
            bigram = _single_param(query)
            if len(bigram) != 2:
                raise _BadRequest("q must be exactly 2 characters")
            words = index.unigrams_containing_bigram(bigram)[:POSTINGS_CAP]
            return "".join(w + "\n" for w in words)

        def _candidates(self, query: str) -> str:
            params = urllib.parse.parse_qs(query, keep_blank_values=True)
            bigrams = params.get("b", [])
            if any(len(b) != 2 for b in bigrams):
                raise _BadRequest("each b must be exactly 2 characters")
            k = params.get("k", [])
            if len(k) != 1:
                raise _BadRequest("exactly one k parameter required")
            try:
                top_k = int(k[0])
            except ValueError:
                raise _BadRequest("k must be an integer") from None
            if top_k < 1:
                raise _BadRequest("k must be >= 1")
            exclude = params.get("exclude", [None])
            if len(exclude) != 1:
                raise _BadRequest("at most one exclude parameter allowed")
            ranked = index.rank_by_shared_bigrams(bigrams, top_k, exclude[0])
            return "".join(f"{c.word}\t{c.shared}\t{c.unigram_count}\n"
                           for c in ranked)

        def _manifest(self, query: str) -> str:
            return index.manifest.to_tsv()

        def _reply(self, status: int, body: str, close: bool = False):
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            if close:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, fmt, *args):
            log.debug("%s " + fmt, self.address_string(), *args)

    return Handler


class _BadRequest(Exception):
    pass


def _query_tokens(raw: str, max_order: int) -> list[str]:
    """The tokens of one space-separated query, or _BadRequest."""
    tokens = raw.split(" ") if raw else []
    if not tokens or "" in tokens:
        raise _BadRequest(f"a query must be 1..{PROTOCOL_MAX_ORDER} tokens "
                          f"separated by single spaces")
    limit = min(PROTOCOL_MAX_ORDER, max_order)
    if len(tokens) > limit:
        raise _BadRequest(
            f"query order {len(tokens)} exceeds maximum {limit}")
    return tokens


def _single_param(query: str) -> str:
    params = urllib.parse.parse_qs(query, keep_blank_values=True)
    values = params.get("q", [])
    if len(values) != 1:
        raise _BadRequest("exactly one q parameter required")
    return values[0]


class RemoteBackend:
    """Backend-contract client for a served index.

    Every lookup, candidate ranking included, returns what the index would
    return locally: ranking runs on the server over the whole vocabulary.
    Only ``unigrams_containing_bigram`` is capped, at 1000 words. A batch
    of counts goes out as ``POST /v1/ngram`` requests of at most
    MAX_BATCH_BYTES each, so one ``ngram_count`` call is one request unless
    its queries take more than 64 KiB. Each thread keeps one persistent
    connection. Network faults and replies of the wrong shape raise
    BackendError; they are never folded into a zero count.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self._base = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self._base)
        if url.scheme == "https":
            self._connection_class = http.client.HTTPSConnection
        elif url.scheme == "http":
            self._connection_class = http.client.HTTPConnection
        else:
            raise ValueError(f"backend URL must be http:// or https://, "
                             f"got {base_url!r}")
        self._netloc = url.netloc
        self._path = url.path
        self._timeout = timeout
        self._local = threading.local()
        self._max_order: int | None = None

    @property
    def max_order(self) -> int:
        if self._max_order is None:
            value = self.manifest().get("max_order", "")
            if not (value.isascii() and value.isdigit()
                    and 1 <= int(value) <= PROTOCOL_MAX_ORDER):
                raise BackendError(
                    f"{self._base}/v1/manifest: max_order {value!r} is not "
                    f"an integer in 1..{PROTOCOL_MAX_ORDER}")
            self._max_order = int(value)
        return self._max_order

    def manifest(self) -> dict[str, str]:
        body = self._call("GET", "/v1/manifest")
        entries = [line.split("\t", 1) for line in body.split("\n") if line]
        if any(len(entry) != 2 for entry in entries):
            raise BackendError(f"{self._base}/v1/manifest: expected "
                               f"key<TAB>value lines, got {body[:200]!r}")
        return dict(entries)

    def unigram_exists(self, token: str) -> bool:
        return self.ngram_count([(token,)])[0] > 0

    def ngram_count(self, queries: Sequence[Sequence[str]]) -> list[int]:
        max_order = self.max_order
        lines = []
        for tokens in queries:
            if isinstance(tokens, str) or not 0 < len(tokens) <= max_order:
                check_query(tokens, max_order)  # raises the ValueError
            line = " ".join(tokens)
            # A space inside a token shows as one space too many.
            if ("" in tokens or "\n" in line
                    or line.count(" ") != len(tokens) - 1):
                raise ValueError(f"tokens must be non-empty and hold no "
                                 f"space or line end: {list(tokens)!r}")
            lines.append(line)
        if not lines:
            return []
        body = ("\n".join(lines) + "\n").encode("utf-8")
        if len(body) <= MAX_BATCH_BYTES:
            return self._post_counts(body, len(lines))
        encoded = [(line + "\n").encode("utf-8") for line in lines]
        for line in encoded:
            if len(line) > MAX_BATCH_BYTES:
                raise ValueError(f"query of {len(line)} bytes exceeds the "
                                 f"{MAX_BATCH_BYTES}-byte batch limit")
        counts: list[int] = []
        for batch in _batches(encoded, MAX_BATCH_BYTES):
            counts += self._post_counts(b"".join(batch), len(batch))
        return counts

    def _post_counts(self, body: bytes, expected: int) -> list[int]:
        """The counts of one POST /v1/ngram body of `expected` queries."""
        reply = self._call("POST", "/v1/ngram", body=body)
        values = reply.split("\n")
        if values.pop() != "" or len(values) != expected:
            raise BackendError(
                f"{self._base}/v1/ngram: {expected} queries but the "
                f"reply is {reply[:200]!r}")
        try:
            return list(map(int, values))
        except ValueError:
            raise BackendError(
                f"{self._base}/v1/ngram: non-numeric count in "
                f"{reply[:200]!r}") from None

    def unigrams_containing_bigram(self, bigram: str) -> list[str]:
        if len(bigram) != 2:
            raise ValueError(f"character bigram must have length 2, "
                             f"got {bigram!r}")
        body = self._call("GET", "/v1/postings", [("q", bigram)])
        return [line for line in body.split("\n") if line]

    def rank_by_shared_bigrams(self, bigrams: Iterable[str], k: int,
                               exclude: str | None = None) -> list[Candidate]:
        params = [("b", gram) for gram in bigrams] + [("k", k)]
        if exclude:
            params.append(("exclude", exclude))
        body = self._call("GET", "/v1/candidates", params)
        try:
            return [Candidate(word=word, shared=int(shared),
                              unigram_count=int(count))
                    for word, shared, count in
                    (line.split("\t") for line in body.splitlines())]
        except ValueError:
            raise BackendError(
                f"{self._base}/v1/candidates: malformed reply {body!r}")

    def close(self) -> None:
        """Close the calling thread's connection; its next lookup opens a
        new one. Other threads' connections close when their threads end."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _call(self, method: str, path: str,
              params: Sequence[tuple[str, object]] = (),
              body: bytes | None = None) -> str:
        target = self._path + path
        if params:
            target += "?" + urllib.parse.urlencode(params)
        try:
            status, data = self._request(method, target, body)
        except (OSError, http.client.HTTPException) as exc:
            raise BackendError(f"{self._base}{path}: {exc!r}") from exc
        if status == 200:
            try:
                return data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise BackendError(f"{self._base}{path}: {exc}") from exc
        reason = data.decode("utf-8", "replace").strip()
        if status == 400:
            # The service rejected the query itself; mirror the local
            # precondition failure rather than a transport fault.
            raise ValueError(f"rejected query: {reason}")
        raise BackendError(f"{self._base}{path}: HTTP {status}: {reason}")

    def _request(self, method: str, target: str,
                 body: bytes | None) -> tuple[int, bytes]:
        """One request on this thread's connection. A kept connection the
        server has meanwhile closed is retried once on a fresh one. Every
        request is read-only, the batch POST included, so a repeat is
        safe."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connection_class(
                self._netloc, timeout=self._timeout)
        headers = {} if body is None else {
            "Content-Type": "text/plain; charset=utf-8"}
        while True:
            reused = conn.sock is not None
            try:
                conn.request(method, target, body=body, headers=headers)
                with conn.getresponse() as resp:
                    return resp.status, resp.read()
            except (http.client.RemoteDisconnected, ConnectionResetError,
                    BrokenPipeError):
                conn.close()
                if not reused:
                    raise
            except BaseException:
                conn.close()
                raise


def _batches(lines: list[bytes], limit: int) -> Iterator[list[bytes]]:
    """`lines` in order, cut into runs of at most `limit` bytes each."""
    batch: list[bytes] = []
    size = 0
    for line in lines:
        if batch and size + len(line) > limit:
            yield batch
            batch, size = [], 0
        batch.append(line)
        size += len(line)
    if batch:
        yield batch
