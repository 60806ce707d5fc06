"""Minimal HTTP lookup service over an index, plus the matching client.

Protocol (HTTP/1.1 with keep-alive, UTF-8, plain text bodies, no auth):

    POST /v1/ngram                   -> one count per line
        body: one query per line, its 1..5 tokens space-separated
    POST /v1/candidates              -> one line per word: its top 8
                                        words by shared bigrams, each as
                                        word<TAB>shared<TAB>count, all
                                        tab-separated; empty when the
                                        word has none
        body: one word per line; no query
    GET /v1/postings?q=<2 chars>     -> newline-separated words, capped
                                        at 1000
    GET /v1/manifest                 -> manifest TSV

One route per Backend method: POST /v1/ngram serves ngram_count and
unigram_exists, POST /v1/candidates rank_by_shared_bigrams, /v1/postings
unigrams_containing_bigram and /v1/manifest max_order. Both POST routes
answer a batch, one reply line per body line, in order; the last line
end of a body is optional.

Malformed requests get 400 with a one-line reason; a batch is rejected
whole, with the number of the first bad line, when any line is
malformed. Any query on /v1/candidates gets 400 too, so a client that
asks for other than the top 8 (k=3, say) fails loudly. A POST without
Content-Length gets 411 and one whose body is above MAX_BATCH_BYTES
(64 KiB) gets 413; both close the connection, as the body is left
unread. Counts are raw corpus occurrences; a zero means
"not seen", never "server trouble" (faults surface as HTTP errors, which
the client raises as BackendError). The 1000-word cap applies to
/v1/postings only: /v1/candidates ranks the whole vocabulary on the
server, exactly as a local index does.

Framing is plain HTTP/1.1, read and written by this module on both ends
rather than by http.server, http.client and the email parser: the server
is one request loop on socketserver, and a server process loads none of
them, nor ssl, which only an https:// RemoteBackend imports. The server
reads a request line of at most MAX_LINE bytes, answering 414 past it,
then at most MAX_HEADERS header lines of at most MAX_LINE bytes each,
with case-insensitive names, answering 431 past either of those limits.
A malformed request line, a header line without a colon, obsolete line
folding and two Content-Length fields that differ get 400, and a method
other than GET and POST gets 501. Each of these replies closes the
connection. A body is read by its Content-Length only: Transfer-Encoding
is not read, so a POST without Content-Length gets 411. Expect:
100-continue is answered 100 Continue. A request in HTTP/1.0 or with
Connection: close is answered and its connection closed. Every reply,
414 and 501 included, is Content-Type, Content-Length and Date (plus
Connection: close when the server closes) and a plain text body, sent in
one write; each request of the client is likewise one send.

Connections are kept open between requests; the server closes one after
IDLE_TIMEOUT_S seconds without a request. Each open connection holds one
worker thread. Past MAX_WORKERS of them a new connection is answered 503
with Connection: close and given no worker: the accepting thread sends
the 503 without waiting, and one refusal thread waits up to
REFUSAL_LINGER_S for each refused client to close.
"""
from __future__ import annotations

import logging
import queue
import socket
import socketserver
import sys
import threading
import time
import urllib.parse
import weakref
from typing import Sequence

from asrspell.backend import BackendError
from asrspell.candidates import Candidate
from asrspell.store import (MAX_ORDER, NgramIndex, WordError, _digits,
                            _number, check_query, check_words)

log = logging.getLogger(__name__)

POSTINGS_CAP = 1000
IDLE_TIMEOUT_S = 30
MAX_BATCH_BYTES = 65536
# Worker threads, one per open connection, that the server runs at once.
MAX_WORKERS = 32
# How long a refused connection may take to close after its 503.
REFUSAL_LINGER_S = 1.0
# Bounds on a message head, those http.client applied: the bytes of one
# header line and the number of header lines.
MAX_LINE = 65536
MAX_HEADERS = 100
# The most bytes of a reply body the client reads in one call, so that
# memory follows the bytes that arrive, not the length a reply claims.
_READ_CHUNK = 1 << 20


def serve(index: NgramIndex, bind_address: str = "127.0.0.1",
          port: int = 8421) -> socketserver.ThreadingTCPServer:
    """Bind a read-only lookup server; caller runs serve_forever()/shutdown().

    Port 0 picks a free port (see server.server_address). The index is
    shared immutably across request threads.
    """
    handler = _make_handler(index)
    try:
        return _Server((bind_address, port), handler)
    except (OSError, OverflowError) as exc:  # Overflow: port out of range
        raise OSError(
            f"cannot bind lookup service to {bind_address}:{port}: {exc}"
        ) from exc


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, server_address, handler):
        self._cap = MAX_WORKERS
        self._workers = threading.BoundedSemaphore(self._cap)
        # Refused connections, each with the time by which it is closed;
        # the refusal thread starts with the first of them. Set before
        # binding, which calls server_close when it fails.
        self._refused: queue.SimpleQueue = queue.SimpleQueue()
        self._refusal_thread: threading.Thread | None = None
        # The second and its Date value, replaced together: a thread that
        # reads a stale pair formats the date itself.
        self._date = (0, "")
        super().__init__(server_address, handler)

    def date(self) -> str:
        """The current time as an IMF-fixdate, formatted once a second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = _imf_fixdate(now)
            self._date = (now, text)
        return text

    def process_request(self, request, client_address):
        # A worker holds its connection for up to IDLE_TIMEOUT_S between
        # requests, so the cap bounds threads, not requests.
        if not self._workers.acquire(blocking=False):
            self._refuse(request, client_address)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._workers.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._workers.release()

    def _refuse(self, request, client_address):
        """Answer 503 without waiting and hand the connection to the
        refusal thread, so the accepting thread never waits on a client."""
        log.warning("%s refused: all %d workers busy", client_address[0],
                    self._cap)
        body = f"server busy: all {self._cap} workers in use\n".encode()
        try:
            # A new connection's send buffer takes the whole reply.
            request.setblocking(False)
            request.send(
                b"HTTP/1.1 503 Service Unavailable\r\n"
                b"Content-Type: text/plain; charset=utf-8\r\n"
                b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                % (len(body), body))
            request.shutdown(socket.SHUT_WR)
        except OSError:
            self.close_request(request)  # the client went away
            return
        self._refused.put((request, time.monotonic() + REFUSAL_LINGER_S))
        if self._refusal_thread is None:
            self._refusal_thread = threading.Thread(
                target=self._linger, name="refusals", daemon=True)
            self._refusal_thread.start()

    def _linger(self):
        """Close each refused connection once its client has closed, or
        at its deadline. Closing with the client's request unread would
        reset the connection, and a reset can discard the 503 before the
        client reads it. Deadlines come in order, so no connection waits
        past its own."""
        while (item := self._refused.get()) is not None:
            request, deadline = item
            try:
                while (left := deadline - time.monotonic()) > 0:
                    request.settimeout(left)
                    if not request.recv(4096):
                        break
            except OSError:
                pass  # the client went away, or took too long to
            finally:
                self.close_request(request)

    def server_close(self):
        super().server_close()
        if self._refusal_thread is not None:
            self._refused.put(None)
            self._refusal_thread.join()

    def handle_error(self, request, client_address):
        # A kept-alive client that goes away mid-request is not a server
        # fault: one line at DEBUG instead of a traceback on stderr.
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            log.debug("%s dropped the connection: %r", client_address[0], exc)
        else:
            super().handle_error(request, client_address)


# The reason phrase of each status the server sends.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 411: "Length Required",
    413: "Request Entity Too Large", 414: "Request-URI Too Long",
    431: "Request Header Fields Too Large", 501: "Not Implemented",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")


def _imf_fixdate(seconds: float) -> str:
    """`seconds` since the epoch as an HTTP date, such as
    'Sun, 06 Nov 1994 08:49:37 GMT', in English whatever the locale."""
    t = time.gmtime(seconds)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


def _make_handler(index: NgramIndex):
    def ngram_batch(query: str | None, body: bytes) -> str:
        limit = index.max_order
        queries = [line.split(" ") for line in _body_lines(body)]
        for lineno, tokens in enumerate(queries, start=1):
            if "" in tokens:
                raise _BadRequest(
                    f"line {lineno}: a query must be 1..{limit} tokens "
                    f"separated by single spaces")
            if len(tokens) > limit:
                raise _BadRequest(f"line {lineno}: query order "
                                  f"{len(tokens)} exceeds maximum {limit}")
        return "".join(f"{c}\n" for c in index.ngram_count(queries))

    def candidates(query: str | None, body: bytes) -> str:
        if query is not None:
            raise _BadRequest(f"/v1/candidates takes no query, "
                              f"got {query[:100]!r}")
        try:
            rankings = index.rank_by_shared_bigrams(_body_lines(body))
        except WordError as exc:
            raise _BadRequest(f"line {exc.position + 1}: a word must be "
                              f"non-empty and hold no whitespace") from None
        return "".join(
            "\t".join(f"{c.word}\t{c.shared}\t{c.unigram_count}"
                      for c in ranked) + "\n"
            for ranked in rankings)

    def postings(query: str | None, body: bytes) -> str:
        params = urllib.parse.parse_qs(query or "", keep_blank_values=True)
        bigram = params.get("q", [])
        if len(bigram) != 1 or len(bigram[0]) != 2:
            raise _BadRequest("exactly one q of 2 characters required")
        words = index.unigrams_containing_bigram(bigram[0])[:POSTINGS_CAP]
        return "".join(w + "\n" for w in words)

    def manifest(query: str | None, body: bytes) -> str:
        return index.manifest.to_tsv()

    routes = {
        ("POST", "/v1/ngram"): ngram_batch,
        ("POST", "/v1/candidates"): candidates,
        ("GET", "/v1/postings"): postings,
        ("GET", "/v1/manifest"): manifest,
    }

    class Handler(socketserver.StreamRequestHandler):
        # A reply after a 100 Continue is a second send; with Nagle's
        # algorithm it would wait for the client's delayed ACK, about
        # 40 ms.
        disable_nagle_algorithm = True
        timeout = IDLE_TIMEOUT_S

        def handle(self):
            """Answer the requests of one connection until the client
            closes it, a reply closes it or it times out."""
            try:
                while raw := self.rfile.readline(MAX_LINE + 1):
                    if len(raw) > MAX_LINE:
                        reason = f"request line longer than {MAX_LINE} bytes"
                        line, answer = "", (414, reason + "\n", True)
                    else:
                        line = str(raw, "iso-8859-1").rstrip("\r\n")
                        answer = self._answer(line)
                    if answer is None:
                        return  # the client went away
                    status, body, close = answer
                    self._reply(line, status, body, close)
                    if close:
                        return
            except TimeoutError as exc:
                log.debug("%s Request timed out: %r", self.client_address[0],
                          exc)

        def _answer(self, line: str) -> tuple[int, str, bool] | None:
            """The status and body of the reply to the request whose
            request line is `line`, and whether the connection closes
            after it; None when the client closes within the body. Reads
            the rest of the request, and answers Expect: 100-continue."""
            words = line.split()
            if len(words) != 3 or words[2] not in ("HTTP/1.0", "HTTP/1.1"):
                return 400, f"bad request line {line[:200]!r}\n", True
            method, target, version = words
            try:
                headers = _read_head(self.rfile)
            except _FramingError as exc:
                return exc.status, f"{exc}\n", True
            close = _closes(version, headers)
            if (headers.get("expect", "").lower() == "100-continue"
                    and version == "HTTP/1.1"):
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            body = b""
            if method == "POST":
                # Every early reply leaves the body unread, so it also
                # closes the connection.
                length = headers.get("content-length")
                if length is None:
                    return 411, "Content-Length required\n", True
                if not _digits(length):
                    return 400, f"bad Content-Length {length!r}\n", True
                size = _number(length, MAX_BATCH_BYTES)
                if size is None:
                    return (413, f"body exceeds {MAX_BATCH_BYTES} bytes\n",
                            True)
                body = self.rfile.read(size)
                if len(body) < size:
                    return None
            elif method != "GET":
                return (501, f"method {method[:100]!r} not implemented\n",
                        True)
            path, mark, query = target.partition("?")
            route = routes.get((method, path))
            if route is None:
                return 404, "unknown endpoint\n", close
            try:
                # A route reads None for no query, "" for an empty one.
                return 200, route(query if mark else None, body), close
            except _BadRequest as exc:
                return 400, f"{exc}\n", close

        def _reply(self, line: str, status: int, body: str, close: bool):
            """Send the status line, headers and body in one write."""
            log.debug('%s "%s" %d -', self.client_address[0], line, status)
            data = body.encode("utf-8")
            ending = "Connection: close\r\n" if close else ""
            head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                    f"Content-Type: text/plain; charset=utf-8\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Date: {self.server.date()}\r\n{ending}\r\n")
            self.wfile.write(head.encode("latin-1") + data)

    return Handler


class _BadRequest(Exception):
    pass


class _FramingError(Exception):
    """A message that breaks HTTP/1.1 framing; `status` is the reply a
    server gives to such a request."""

    def __init__(self, reason: str, status: int = 400):
        super().__init__(reason)
        self.status = status


def _closes(version: str, headers: dict[str, str]) -> bool:
    """Whether the connection ends after a message of `version` with
    `headers`."""
    tokens = headers.get("connection", "").lower().split(",")
    return version == "HTTP/1.0" or "close" in map(str.strip, tokens)


def _read_head(rfile) -> dict[str, str]:
    """The header fields of one message, read from `rfile` up to and
    including the blank line that ends them, by lower-cased name.

    Repeated fields are joined with ", ", except Content-Length, which
    must repeat its value.
    """
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        raw = rfile.readline(MAX_LINE + 1)
        if len(raw) > MAX_LINE:
            raise _FramingError(f"header line longer than {MAX_LINE} bytes",
                                431)
        if raw in (b"\r\n", b"\n"):
            return headers
        if not raw.endswith(b"\n"):
            raise _FramingError("connection closed in the header")
        line = str(raw, "iso-8859-1").rstrip("\r\n")
        name, colon, value = line.partition(":")
        # A folded line starts with whitespace, so its name is no token.
        if not colon or name.split() != [name]:
            raise _FramingError(f"bad header line {line[:200]!r}")
        name, value = name.lower(), value.strip()
        if name in headers:
            if name == "content-length" and headers[name] != value:
                raise _FramingError("Content-Length fields differ")
            if name != "content-length":
                value = f"{headers[name]}, {value}"
        headers[name] = value
    raise _FramingError(f"more than {MAX_HEADERS} header lines", 431)


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """The status and body of one reply read from `rfile`, and whether
    the server closes the connection after it. The body is exactly
    Content-Length bytes. An empty status line is a ConnectionResetError,
    as the server closed the connection before replying; any other fault
    is a _FramingError."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        raise ConnectionResetError("connection closed before a reply")
    version, _, rest = str(line, "iso-8859-1").partition(" ")
    status = rest[:3]
    if (version not in ("HTTP/1.0", "HTTP/1.1") or not _digits(status)
            or rest[3:4] not in (" ", "\r", "\n")
            or not line.endswith(b"\n")):
        raise _FramingError(f"bad status line {line[:200]!r}")
    headers = _read_head(rfile)
    length = headers.get("content-length", "")
    size = _number(length, sys.maxsize)
    if size is None or "transfer-encoding" in headers:
        raise _FramingError(f"reply without a valid Content-Length: "
                            f"{length[:200]!r}")
    chunks = []
    while size:
        chunk = rfile.read(min(size, _READ_CHUNK))
        if not chunk:
            raise _FramingError(f"reply body cut short, {size} bytes missing")
        chunks.append(chunk)
        size -= len(chunk)
    return int(status), b"".join(chunks), _closes(version, headers)


class _Connection:
    """A client socket and the buffered reader its replies come from.

    Both close on close(), or when the connection is dropped: a thread's
    connection is dropped when the thread ends or its backend goes away.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.close = weakref.finalize(self, _close_quietly, self.rfile, sock)


def _close_quietly(*files) -> None:
    """Close each of `files`. Never raises: as a finalizer it runs where
    an exception would only be printed."""
    for f in files:
        try:
            f.close()
        except Exception:
            pass


def _body_lines(body: bytes) -> list[str]:
    """The lines of a batch body; the last line's end is optional."""
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _BadRequest(f"body is not UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


class RemoteBackend:
    """Backend-contract client for a served index.

    Every lookup, candidate ranking included, returns what the index would
    return locally: ranking runs on the server over the whole vocabulary.
    Only ``unigrams_containing_bigram`` is capped, at 1000 words. Both
    batch methods post one line per query or word: ``ngram_count`` to
    ``POST /v1/ngram`` and ``rank_by_shared_bigrams`` to
    ``POST /v1/candidates``, in requests of at most MAX_BATCH_BYTES each,
    so a call is one request unless its lines take more than 64 KiB.
    Input the line format cannot carry is a ValueError before anything is
    sent. Each thread keeps one persistent connection, a socket with
    TCP_NODELAY, and reads each reply by its Content-Length. Network
    faults, replies whose framing is broken (no Content-Length, a body
    cut short, a garbled head) and replies of the wrong shape raise
    BackendError and close the connection; they are never folded into a
    zero count or an empty ranking.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self._base = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self._base)
        if url.scheme not in ("http", "https"):
            raise ValueError(f"backend URL must be http:// or https://, "
                             f"got {base_url!r}")
        target = url.netloc + url.path
        if not url.hostname or not target.isprintable() or " " in target:
            raise ValueError(f"backend URL needs a host and no space or "
                             f"control character: {base_url!r}")
        self._address = (url.hostname,
                         url.port or (443 if url.scheme == "https" else 80))
        self._tls = None
        if url.scheme == "https":
            import ssl  # only here, so that a server never loads it
            self._tls = ssl.create_default_context()
        self._host = url.netloc.rpartition("@")[2]
        self._path = url.path
        self._timeout = timeout
        self._local = threading.local()
        self._max_order: int | None = None

    @property
    def max_order(self) -> int:
        if self._max_order is None:
            value = self.manifest().get("max_order", "")
            if not (_digits(value) and 1 <= int(value) <= MAX_ORDER):
                raise BackendError(
                    f"{self._base}/v1/manifest: max_order {value!r} is not "
                    f"an integer in 1..{MAX_ORDER}")
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
        values = self._post_lines("/v1/ngram", lines)
        try:
            return list(map(int, values))
        except ValueError:
            raise BackendError(
                f"{self._base}/v1/ngram: non-numeric count in "
                f"{values[:20]!r}") from None

    def unigrams_containing_bigram(self, bigram: str) -> list[str]:
        if len(bigram) != 2:
            raise ValueError(f"character bigram must have length 2, "
                             f"got {bigram!r}")
        body = self._call(
            "GET", "/v1/postings?" + urllib.parse.urlencode({"q": bigram}))
        return [line for line in body.split("\n") if line]

    def rank_by_shared_bigrams(self, words: Sequence[str]
                               ) -> list[list[Candidate]]:
        ranked = []
        for line in self._post_lines("/v1/candidates", check_words(words)):
            fields = line.split("\t") if line else []
            triples = list(zip(*[iter(fields)] * 3))
            if 3 * len(triples) != len(fields) or not all(
                    word and _digits(shared) and _digits(count)
                    for word, shared, count in triples):
                raise BackendError(f"{self._base}/v1/candidates: malformed "
                                   f"reply line {line[:200]!r}")
            ranked.append([Candidate(word, int(shared), int(count))
                           for word, shared, count in triples])
        return ranked

    def _post_lines(self, target: str, lines: list[str]) -> list[str]:
        """The reply lines to `lines`, one per line and in order, from
        POSTs to `target` of at most MAX_BATCH_BYTES each.

        The body is encoded once and cut after the last line end that
        fits. Every cut is made before the first POST, so a line longer
        than MAX_BATCH_BYTES is a ValueError with nothing sent.
        """
        body = "".join(line + "\n" for line in lines).encode("utf-8")
        cuts = [0]
        while cuts[-1] < len(body):
            start = cuts[-1]
            stop = body.rfind(b"\n", start, start + MAX_BATCH_BYTES) + 1
            if not stop:
                size = body.index(b"\n", start) + 1 - start
                raise ValueError(f"line of {size} bytes exceeds the "
                                 f"{MAX_BATCH_BYTES}-byte batch limit")
            cuts.append(stop)
        replies: list[str] = []
        for start, stop in zip(cuts, cuts[1:]):
            piece = body[start:stop]
            replies += self._post(target, piece, piece.count(b"\n"))
        return replies

    def _post(self, target: str, body: bytes, expected: int) -> list[str]:
        """The reply lines of one POST whose body holds `expected` lines."""
        reply = self._call("POST", target, body=body)
        lines = reply.split("\n")
        if lines.pop() != "" or len(lines) != expected:
            raise BackendError(
                f"{self._base}{target}: {expected} lines sent but the "
                f"reply is {reply[:200]!r}")
        return lines

    def close(self) -> None:
        """Close the calling thread's connection; its next lookup opens a
        new one. Other threads' connections close when their threads end
        or the backend goes away."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            conn.close()

    def _call(self, method: str, path: str, body: bytes | None = None
              ) -> str:
        try:
            status, data = self._request(method, self._path + path, body)
        except (OSError, _FramingError) as exc:
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
        """One request on this thread's connection, sent in one send. A
        kept connection the server has meanwhile closed is retried once
        on a fresh one. Every request is read-only, the batch POST
        included, so a repeat is safe."""
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        if body is not None:
            head += (f"Content-Type: text/plain; charset=utf-8\r\n"
                     f"Content-Length: {len(body)}\r\n")
        message = f"{head}\r\n".encode("utf-8") + (body or b"")
        while True:
            conn = getattr(self._local, "conn", None)
            reused = conn is not None
            if conn is None:
                conn = self._local.conn = self._connect()
            try:
                conn.sock.sendall(message)
                status, data, close = _read_reply(conn.rfile)
            except (ConnectionResetError, BrokenPipeError):
                self.close()
                if not reused:
                    raise
                continue
            except BaseException:
                self.close()
                raise
            if close:
                self.close()
            return status, data

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(
                    sock, server_hostname=self._address[0])
            return _Connection(sock)
        except BaseException:
            sock.close()
            raise
