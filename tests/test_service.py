import http.client
import http.server
import logging
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from pathlib import Path

import pytest

from asrspell import (BackendError, PipelineConfig, RemoteBackend,
                      build_index, char_bigrams, correct_transcript,
                      generate_candidates, serve)
from asrspell import service
from asrspell.service import MAX_BATCH_BYTES, POSTINGS_CAP
from tests.conftest import WORKED_ERROR_TEXT


@pytest.fixture(scope="module")
def server(worked_index):
    srv = serve(worked_index, port=0)  # ephemeral port
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


@pytest.fixture(scope="module")
def remote(base_url):
    backend = RemoteBackend(base_url)
    yield backend
    backend.close()


def fetch(url, data=None):
    """Status and body of a GET, or of a POST when `data` is given."""
    with urllib.request.urlopen(url, data=data, timeout=5) as resp:
        return resp.status, resp.read().decode("utf-8")


def fetch_error(url, data=None):
    """Status and body of a request the server refuses. The error holds
    the response and its socket open until it is closed."""
    with pytest.raises(urllib.error.HTTPError) as err:
        fetch(url, data)
    with err.value as resp:
        return resp.code, resp.read().decode("utf-8")


class TestProtocol:
    def test_ngram_count_body(self, base_url):
        status, body = fetch(f"{base_url}/v1/ngram",
                             b"episodes of your favorite shows\n")
        assert (status, body) == (200, "7\n")

    def test_oov_unigram_is_zero(self, base_url):
        assert fetch(f"{base_url}/v1/ngram", b"shaws\n") == (200, "0\n")

    def test_known_unigram(self, base_url):
        assert fetch(f"{base_url}/v1/ngram", b"shows\n") == (200, "7\n")

    def test_six_tokens_rejected(self, base_url):
        assert fetch_error(f"{base_url}/v1/ngram", b"a b c d e f\n")[0] == 400

    def test_postings_sorted(self, base_url):
        status, body = fetch(f"{base_url}/v1/postings?q=aw")
        assert status == 200
        words = body.splitlines()
        assert words == sorted(words)
        assert "haws" in words

    def test_postings_empty(self, base_url):
        assert fetch(f"{base_url}/v1/postings?q=zq") == (200, "")

    def test_manifest_tsv(self, base_url, worked_index):
        status, body = fetch(f"{base_url}/v1/manifest")
        assert status == 200
        assert body == worked_index.manifest.to_tsv()

    @pytest.mark.parametrize("path", [
        "/v1/postings", "/v1/postings?q=abc", "/v1/postings?q=a",
        "/v1/postings?q=aw&q=sh",
    ])
    def test_malformed_queries_get_400_with_reason(self, base_url, path):
        status, reason = fetch_error(base_url + path)
        assert status == 400
        assert reason.strip()

    def test_unknown_endpoint_404(self, base_url):
        assert fetch_error(f"{base_url}/v2/everything")[0] == 404
        assert fetch_error(f"{base_url}/v2/everything", b"shows\n")[0] == 404

    @pytest.mark.parametrize("path", [
        "/v1/unigram?q=shows", "/v1/ngram?q=favorite+shows"])
    def test_retired_get_counts_404(self, base_url, path):
        assert fetch_error(base_url + path)[0] == 404

    def test_repeated_queries_identical(self, base_url):
        bodies = {fetch(f"{base_url}/v1/ngram", b"favorite shows\n")[1]
                  for _ in range(5)}
        assert bodies == {"7\n"}

    def test_concurrent_requests(self, base_url):
        results = []

        def hit():
            results.append(fetch(f"{base_url}/v1/ngram", b"shows\n"))

        threads = [threading.Thread(target=hit) for _ in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [(200, "7\n")] * 12


class TestRemoteBackend:
    def test_contract_equivalence(self, remote, worked_index):
        assert remote.max_order == worked_index.max_order
        for token in ["shows", "shaws", "haws", "more"]:
            assert remote.unigram_exists(token) == \
                worked_index.unigram_exists(token)
        queries = [["shows"], ["favorite", "shows"],
                   ["episodes", "of", "your", "favorite", "shows"],
                   ["episodes", "of", "your", "favorite", "haws"]]
        assert remote.ngram_count(queries) == \
            worked_index.ngram_count(queries)
        for q in queries:
            assert remote.ngram_count([q]) == worked_index.ngram_count([q])
        assert remote.ngram_count([]) == []
        for gram in ["aw", "sh", "ws", "zq"]:
            assert remote.unigrams_containing_bigram(gram) == \
                worked_index.unigrams_containing_bigram(gram)

    def test_candidates_match_local(self, remote, worked_index):
        assert generate_candidates("shaws", remote, k=8).ranked == \
            generate_candidates("shaws", worked_index, k=8).ranked

    def test_order_validation_mirrors_local(self, remote):
        with pytest.raises(ValueError):
            remote.ngram_count([["a"] * 6])
        with pytest.raises(ValueError):
            remote.ngram_count([[]])

    @pytest.mark.parametrize("queries", [
        ["shows"], [("favorite", "shows"), "shows"], "shows"])
    def test_string_query_rejected(self, remote, queries):
        with pytest.raises(ValueError, match="not the string"):
            remote.ngram_count(queries)

    @pytest.mark.parametrize("token", ["", "two words", "line\nend"])
    def test_token_that_breaks_the_line_format_rejected(self, remote,
                                                        token):
        with pytest.raises(ValueError, match="space or line end"):
            remote.ngram_count([("favorite", token)])

    def test_bigram_validation(self, remote):
        with pytest.raises(ValueError):
            remote.unigrams_containing_bigram("abc")

    def test_dead_service_raises_backend_error(self):
        remote = RemoteBackend("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(BackendError):
            remote.manifest()

    def test_pipeline_propagates_backend_failure(self):
        remote = RemoteBackend("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(BackendError):
            correct_transcript(WORKED_ERROR_TEXT, remote)

    def test_full_pipeline_equivalence(self, remote, worked_index):
        local = correct_transcript(WORKED_ERROR_TEXT, worked_index)
        over_http = correct_transcript(WORKED_ERROR_TEXT, remote)
        assert over_http.corrected_text == local.corrected_text
        assert [d.chosen for d in over_http.decisions] == \
            [d.chosen for d in local.decisions]


def test_requests_logged_at_debug(base_url, caplog):
    with caplog.at_level(logging.DEBUG, logger="asrspell.service"):
        fetch(f"{base_url}/v1/manifest")
    assert '127.0.0.1 "GET /v1/manifest HTTP/1.1" 200 -' in \
        [r.getMessage() for r in caplog.records]


def test_bind_failure_names_address(server, worked_index):
    host, port = server.server_address[:2]
    with pytest.raises(OSError, match=f"{host}:{port}"):
        serve(worked_index, bind_address=host, port=port)


class _Server:
    """serve() on a background thread that records every accepted socket,
    so a test can count connections or drop them as a restart would."""

    def __init__(self, index, port=0):
        self.accepted = []
        self._srv = serve(index, port=port)
        accept = self._srv.get_request

        def get_request():
            conn = accept()
            self.accepted.append(conn[0])
            return conn

        self._srv.get_request = get_request
        self._thread = threading.Thread(target=self._srv.serve_forever,
                                        daemon=True)
        self._thread.start()

    @property
    def port(self):
        return self._srv.server_address[1]

    @property
    def url(self):
        host, port = self._srv.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self):
        """Stop accepting and close every kept connection."""
        self._srv.shutdown()
        self._srv.server_close()
        for sock in self.accepted:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler already closed it
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            pytest.fail("serve_forever did not stop")
        # Each handler thread closes its socket once it has seen the end.
        deadline = time.monotonic() + 5
        while any(sock.fileno() != -1 for sock in self.accepted):
            if time.monotonic() > deadline:
                pytest.fail("a handler kept its connection open")
            time.sleep(0.01)


@pytest.fixture
def counted(worked_index):
    srv = _Server(worked_index)
    yield srv
    srv.stop()


@pytest.fixture
def fresh(counted):
    backend = RemoteBackend(counted.url)
    yield backend
    backend.close()


class TestCandidatesEndpoint:
    def test_matches_local_ranking(self, base_url, worked_index):
        grams = char_bigrams("shaws")
        for k in [1, 3, 8, 50]:
            for exclude in [None, "shaws", "haws"]:
                params = [("b", g) for g in grams] + [("k", k)]
                if exclude:
                    params.append(("exclude", exclude))
                status, body = fetch(f"{base_url}/v1/candidates?"
                                     + urllib.parse.urlencode(params))
                expected = worked_index.rank_by_shared_bigrams(
                    grams, k=k, exclude=exclude)
                assert status == 200
                assert body == "".join(
                    f"{c.word}\t{c.shared}\t{c.unigram_count}\n"
                    for c in expected)

    def test_no_shared_bigram_is_empty(self, base_url):
        assert fetch(f"{base_url}/v1/candidates?b=zq&b=qx&k=8") == (200, "")

    @pytest.mark.parametrize("query", [
        "b=aw", "b=aw&k=", "b=aw&k=two", "b=aw&k=1.5", "b=aw&k=0",
        "b=aw&k=-3", "b=a&k=8", "b=abc&k=8", "b=aw&b=x&k=8",
        "b=aw&k=8&k=9",
    ])
    def test_malformed_get_400_with_reason(self, base_url, query):
        status, reason = fetch_error(f"{base_url}/v1/candidates?{query}")
        assert status == 400
        assert reason.strip()


class TestConnections:
    def test_lookups_share_one_connection(self, counted, fresh,
                                          worked_index):
        for _ in range(20):
            assert fresh.ngram_count([["favorite", "shows"]]) == [7]
            assert fresh.unigram_exists("haws")
            assert fresh.unigrams_containing_bigram("aw") == \
                worked_index.unigrams_containing_bigram("aw")
            assert generate_candidates("shaws", fresh).ranked == \
                generate_candidates("shaws", worked_index).ranked
        assert len(counted.accepted) == 1

    def test_connection_survives_a_400(self, counted, fresh):
        assert fresh.ngram_count([["shows"]]) == [7]
        with pytest.raises(ValueError, match="rejected query"):
            fresh.rank_by_shared_bigrams(["abc"], k=3)
        with pytest.raises(ValueError, match="rejected query"):
            fresh.rank_by_shared_bigrams(["aw"], k=0)
        assert fresh.ngram_count([["favorite", "shows"]]) == [7]
        assert len(counted.accepted) == 1

    def test_restarted_server_is_reached_again(self, worked_index):
        first = _Server(worked_index)
        remote = RemoteBackend(first.url)
        assert remote.ngram_count([["shows"]]) == [7]
        first.stop()
        second = _Server(worked_index, port=first.port)
        try:
            assert remote.ngram_count([["shows"]]) == [7]
            assert remote.ngram_count([["favorite", "shows"]]) == [7]
            assert len(second.accepted) == 1
        finally:
            second.stop()
        # Nothing listens any more: a fault, never a zero count.
        with pytest.raises(BackendError):
            remote.ngram_count([["shows"]])
        with pytest.raises(BackendError):
            remote.rank_by_shared_bigrams(["aw"], k=3)
        remote.close()

    def test_threads_share_one_backend(self, counted, fresh,
                                       worked_index):
        words = sorted(worked_index.vocab) + ["shaws", "hwas", "qq"]
        expected = {w: (worked_index.ngram_count([[w]]),
                        generate_candidates(w, worked_index).ranked)
                    for w in words}
        results, errors = [], []

        def work(offset):
            try:
                for i in range(40):
                    w = words[(offset + i) % len(words)]
                    results.append(
                        (w, (fresh.ngram_count([[w]]),
                             generate_candidates(w, fresh).ranked)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                fresh.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 8 * 40
        for word, got in results:
            assert got == expected[word]
        assert len(counted.accepted) <= 8

    def test_non_200_is_a_backend_error(self, counted):
        remote = RemoteBackend(counted.url + "/no-such-prefix")
        with pytest.raises(BackendError, match="HTTP 404"):
            remote.manifest()
        remote.close()

    def test_unsupported_scheme_rejected(self):
        with pytest.raises(ValueError, match="http:// or https://"):
            RemoteBackend("ftp://127.0.0.1:9")

    def test_scheme_picks_the_connection(self, counted):
        # A TLS handshake against the plain-HTTP server fails as a fault.
        remote = RemoteBackend(counted.url.replace("http:", "https:"),
                               timeout=2)
        with pytest.raises(BackendError):
            remote.manifest()
        remote.close()

    def test_client_reset_leaves_no_traceback(self, counted, worked_index,
                                              capfd, caplog):
        caplog.set_level(logging.DEBUG, logger="asrspell.service")
        manifest = worked_index.manifest.to_tsv().encode()
        with socket.create_connection(("127.0.0.1", counted.port)) as sock:
            sock.sendall(b"GET /v1/manifest HTTP/1.1\r\n"
                         b"Host: test\r\n\r\n")
            reply = b""
            while not reply.endswith(b"\r\n\r\n" + manifest):
                chunk = sock.recv(4096)
                assert chunk, f"connection closed after {reply!r}"
                reply += chunk
            # Half of the next request, then a reset instead of a FIN.
            sock.sendall(b"GET /v1/mani")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
        [conn] = counted.accepted
        deadline = time.monotonic() + 5
        while conn.fileno() != -1:  # closed once handle_error has run
            assert time.monotonic() < deadline, "handler still running"
            time.sleep(0.01)
        assert "Traceback" not in capfd.readouterr().err
        assert any("dropped the connection" in r.getMessage()
                   for r in caplog.records)


def _post_raw(port, headers, body=b""):
    """Status, body and Connection header of one hand-made POST."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.putrequest("POST", "/v1/ngram")
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders(body)
        with conn.getresponse() as resp:
            return (resp.status, resp.read().decode("utf-8"),
                    resp.getheader("Connection"))
    finally:
        conn.close()


class TestBatchEndpoint:
    def test_matches_local_for_mixed_orders(self, base_url, worked_index):
        rng = random.Random(31)
        words = sorted(worked_index.vocab) + ["shaws", "zebra"]
        sentence = "watch episodes of your favorite shows and more".split()
        queries = []
        for _ in range(300):
            order = rng.randint(1, 5)
            if rng.random() < 0.5:
                start = rng.randint(0, len(sentence) - order)
                queries.append(sentence[start:start + order])
            else:
                queries.append([rng.choice(words) for _ in range(order)])
        body = "".join(" ".join(q) + "\n" for q in queries).encode()
        status, reply = fetch(f"{base_url}/v1/ngram", body)
        assert status == 200
        assert reply == "".join(
            f"{c}\n" for c in worked_index.ngram_count(queries))
        assert {len(q) for q in queries} == {1, 2, 3, 4, 5}
        assert "0\n" in reply and "7\n" in reply

    def test_last_line_end_is_optional(self, base_url):
        assert fetch(f"{base_url}/v1/ngram", b"shows\nfavorite shows") == \
            (200, "7\n7\n")

    def test_empty_body_empty_reply(self, base_url):
        assert fetch(f"{base_url}/v1/ngram", b"") == (200, "")

    @pytest.mark.parametrize("body", [
        b"\n", b"shows\n\nshows\n", b"a b c d e f\n", b"favorite  shows\n",
        b" shows\n", b"shows\xff\n",
    ])
    def test_malformed_batch_gets_400_with_reason(self, base_url, body):
        status, reason = fetch_error(f"{base_url}/v1/ngram", body)
        assert status == 400
        assert reason.strip()

    def test_order_above_max_order_gets_400(self):
        srv = _Server(build_index("a b c d", max_order=3))
        try:
            status, reason = fetch_error(f"{srv.url}/v1/ngram",
                                         b"a b c\na b c d\n")
            assert status == 400
            assert reason.startswith("line 2: ")
        finally:
            srv.stop()

    def test_missing_length_gets_411(self, counted):
        assert _post_raw(counted.port, []) == \
            (411, "Content-Length required\n", "close")

    @pytest.mark.parametrize("length", ["-1", "1e3", "x"])
    def test_bad_length_gets_400(self, counted, length):
        status, _, connection = _post_raw(counted.port,
                                          [("Content-Length", length)])
        assert (status, connection) == (400, "close")

    def test_above_max_batch_bytes_gets_413(self, counted):
        # The body is never sent: the server answers from the header.
        status, reason, connection = _post_raw(
            counted.port, [("Content-Length", str(MAX_BATCH_BYTES + 1))])
        assert (status, connection) == (413, "close")
        assert str(MAX_BATCH_BYTES) in reason

    def test_limit_is_inclusive(self, base_url):
        line = b"shows\n"
        body = line * (MAX_BATCH_BYTES // len(line)) + \
            b"x" * (MAX_BATCH_BYTES % len(line) - 1) + b"\n"
        assert len(body) == MAX_BATCH_BYTES
        status, reply = fetch(f"{base_url}/v1/ngram", body)
        assert status == 200
        assert reply.splitlines() == \
            ["7"] * (MAX_BATCH_BYTES // len(line)) + ["0"]

    def test_connection_survives_a_rejected_batch(self, counted):
        conn = http.client.HTTPConnection("127.0.0.1", counted.port,
                                          timeout=5)
        try:
            for body, expected in [(b"shows\n", (200, b"7\n")),
                                   (b"\n", (400, None)),
                                   (b"favorite shows\n", (200, b"7\n"))]:
                conn.request("POST", "/v1/ngram", body=body)
                with conn.getresponse() as resp:
                    got = resp.status, resp.read()
                assert got[0] == expected[0]
                assert expected[1] in (None, got[1])
        finally:
            conn.close()
        assert len(counted.accepted) == 1

    def test_large_batch_is_split(self, counted, fresh, worked_index,
                                  monkeypatch):
        rng = random.Random(32)
        words = sorted(worked_index.vocab)
        queries = [[rng.choice(words) for _ in range(rng.randint(1, 5))]
                   for _ in range(8000)]
        size = sum(len(" ".join(q)) + 1 for q in queries)
        assert size > 2 * MAX_BATCH_BYTES
        bodies = []
        request = fresh._request

        def recording(method, target, body):
            if method == "POST":
                bodies.append(body)
            return request(method, target, body)

        monkeypatch.setattr(fresh, "_request", recording)
        assert fresh.ngram_count(queries) == worked_index.ngram_count(queries)
        assert len(bodies) == 3
        assert all(len(body) <= MAX_BATCH_BYTES for body in bodies)
        assert b"".join(bodies).decode().splitlines() == \
            [" ".join(q) for q in queries]
        assert len(counted.accepted) == 1

    def test_query_above_the_limit_rejected(self, remote):
        with pytest.raises(ValueError, match="batch limit"):
            remote.ngram_count([["a" * MAX_BATCH_BYTES]])


@pytest.fixture
def fake_reply():
    """A server that answers each endpoint with the body a test sets for
    its path; the manifest is that of a 5-gram index until a test sets
    another."""
    replies = {"/v1/manifest": b"max_order\t5\n"}

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            self._send(replies[urllib.parse.urlsplit(self.path).path])

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self._send(replies[self.path])

        def _send(self, data):
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    remote = RemoteBackend(f"http://127.0.0.1:{srv.server_address[1]}")
    yield remote, replies
    remote.close()
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


@pytest.mark.parametrize("reply", [
    b"", b"7\n", b"7\n0\n3\n", b"7\n0", b"7\n0\n\n", b"7\nseven\n",
])
def test_reply_of_wrong_shape_is_a_backend_error(fake_reply, reply):
    remote, replies = fake_reply
    replies["/v1/ngram"] = b"7\n0\n"
    assert remote.ngram_count([["shows"], ["shaws"]]) == [7, 0]
    replies["/v1/ngram"] = reply
    with pytest.raises(BackendError, match="/v1/ngram"):
        remote.ngram_count([["shows"], ["shaws"]])


@pytest.mark.parametrize("body,lines_ok", [
    (b"<html><body>502 Bad Gateway</body></html>\n", False),
    (b"max_order\t5\nnot a pair\n", False),
    (b"corpus_id\tx\n", True),
    (b"max_order\tfive\n", True),
    (b"max_order\t\n", True),
    (b"max_order\t5.0\n", True),
    (b"max_order\t0\n", True),
    (b"max_order\t\xd9\xa5\n", True),  # a non-ASCII digit
])
def test_manifest_of_wrong_shape_is_a_backend_error(fake_reply, body,
                                                    lines_ok):
    remote, replies = fake_reply
    replies["/v1/manifest"] = body
    if lines_ok:
        remote.manifest()  # the lines parse; only max_order is wrong
    else:
        with pytest.raises(BackendError, match="/v1/manifest"):
            remote.manifest()
    with pytest.raises(BackendError, match="/v1/manifest"):
        remote.max_order
    with pytest.raises(BackendError, match="/v1/manifest"):
        remote.ngram_count([["shows"]])


def test_stalled_body_leaves_no_traceback(worked_index, monkeypatch,
                                          capfd, caplog):
    caplog.set_level(logging.DEBUG, logger="asrspell.service")
    monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.2)
    srv = _Server(worked_index)
    try:
        with socket.create_connection(("127.0.0.1", srv.port)) as sock:
            sock.sendall(b"POST /v1/ngram HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 20\r\n\r\nshows\n")
            sock.settimeout(5)
            assert sock.recv(4096) == b""  # closed, with no reply
    finally:
        srv.stop()
    assert "Traceback" not in capfd.readouterr().err
    assert any("Request timed out" in r.getMessage()
               for r in caplog.records)


def _capped_vocabulary(seed):
    """A few thousand words over four letters: the largest postings list
    is longer than the service's cap."""
    rng = random.Random(seed)
    vocab = sorted({"".join(rng.choice("abcd")
                            for _ in range(rng.randint(3, 9)))
                    for _ in range(5000)})
    tokens = [w for w in vocab for _ in range(rng.randint(1, 3))]
    rng.shuffle(tokens)
    lines = [" ".join(tokens[i:i + 12]) for i in range(0, len(tokens), 12)]
    return vocab, lines


class TestAboveThePostingsCap:
    """Local and HTTP decisions must agree where /v1/postings truncates."""

    @pytest.fixture(scope="class")
    def capped(self):
        vocab, lines = _capped_vocabulary(seed=11)
        index = build_index(lines, corpus_id="capped")
        assert max(len(index.unigrams_containing_bigram(a + b))
                   for a in "abcd" for b in "abcd") > POSTINGS_CAP
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        yield index, lines, remote
        remote.close()
        srv.stop()

    def test_candidates_match_local(self, capped):
        index, _, remote = capped
        rng = random.Random(12)
        errors = set()
        while len(errors) < 250:
            word = "".join(rng.choice("abcd")
                           for _ in range(rng.randint(3, 9)))
            if not index.unigram_exists(word):
                errors.add(word)
        for error in sorted(errors):
            assert generate_candidates(error, remote, k=8).ranked == \
                generate_candidates(error, index, k=8).ranked, error

    @pytest.mark.parametrize("realword", [False, True])
    def test_transcripts_byte_identical(self, capped, realword):
        index, lines, remote = capped
        rng = random.Random(13)
        config = PipelineConfig(realword_enabled=realword)
        for line in rng.sample(lines, 3):
            tokens = line.split()
            for pos in rng.sample(range(1, len(tokens)), 2):
                tokens[pos] = tokens[pos][:-1] + "x"
            text = " ".join(tokens)
            local = correct_transcript(text, index, config)
            over_http = correct_transcript(text, remote, config)
            assert over_http.corrected_text.encode() == \
                local.corrected_text.encode()
            assert over_http.decisions == local.decisions


@pytest.mark.parametrize("realword", [False, True])
def test_long_transcript_byte_identical(realword):
    """A 10k-token transcript whose non-word batch alone is larger than
    one request may carry."""
    rng = random.Random(41)
    vocab = sorted({"".join(rng.choice("abcdefghij")
                            for _ in range(rng.randint(8, 12)))
                    for _ in range(9000)})
    tokens = vocab + rng.sample(vocab, 3000)
    rng.shuffle(tokens)
    lines = [" ".join(tokens[i:i + 12]) for i in range(0, len(tokens), 12)]
    index = build_index(lines, corpus_id="long")
    words = " ".join(lines).split()[:10_000]
    for pos in range(500, len(words), 1000):
        words[pos] = words[pos][:-1] + "z"
    assert sum(len(w) + 1 for w in set(words)) > MAX_BATCH_BYTES
    text = " ".join(words)
    config = PipelineConfig(realword_enabled=realword)
    srv = _Server(index)
    remote = RemoteBackend(srv.url)
    try:
        local = correct_transcript(text, index, config)
        over_http = correct_transcript(text, remote, config)
    finally:
        remote.close()
        srv.stop()
    assert over_http.corrected_text.encode() == local.corrected_text.encode()
    assert over_http.decisions == local.decisions
    assert sum(d.chosen is not None for d in local.decisions) >= 8


def test_query_checks_hold_under_python_O():
    """Both ngram_count implementations test a query's shape inline and
    must reject the same queries when assert statements are stripped."""
    code = """if True:
        import threading
        from asrspell import RemoteBackend, build_index, serve
        index = build_index(["your favorite shows"], max_order=3)
        srv = serve(index, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        remote = RemoteBackend(f"http://127.0.0.1:{srv.server_address[1]}")
        queries = {"string": "shows", "order 0": (),
                   "order 4": ("your",) * 4, "space": ("your favorite",),
                   "line end": ("shows\\n",)}
        for backend in (index, remote):
            for name, query in queries.items():
                try:
                    backend.ngram_count([("shows",), query])
                except ValueError as exc:
                    print(f"{type(backend).__name__} {name}: {exc}")
        srv.shutdown()
    """
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "NgramIndex string: a query is a sequence of tokens, not the "
        "string 'shows'",
        "NgramIndex order 0: query order 0 outside 1..3",
        "NgramIndex order 4: query order 4 outside 1..3",
        "RemoteBackend string: a query is a sequence of tokens, not the "
        "string 'shows'",
        "RemoteBackend order 0: query order 0 outside 1..3",
        "RemoteBackend order 4: query order 4 outside 1..3",
        "RemoteBackend space: tokens must be non-empty and hold no space "
        "or line end: ['your favorite']",
        "RemoteBackend line end: tokens must be non-empty and hold no "
        "space or line end: ['shows\\n']",
    ]
