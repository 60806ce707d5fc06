import datetime
import email.utils
import gc
import http.client
import http.server
import logging
import os
import random
import re
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from pathlib import Path

import pytest

from asrspell import (BackendError, Candidate, PipelineConfig,
                      RemoteBackend, build_index, correct_transcript,
                      generate_candidates, load_index, save_index, serve)
from asrspell import service
from asrspell.candidates import (char_bigrams, selection_queries,
                                 shared_bigram_count)
from asrspell.service import MAX_BATCH_BYTES, POSTINGS_CAP
from tests._synth import large_vocabulary
from tests.conftest import WORKED_ERROR_TEXT
from tests.test_oracle import Oracle
from tests.test_store import boundary_corpus, load_from_tsv


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
        assert generate_candidates("shaws", remote) == \
            generate_candidates("shaws", worked_index)

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

    @pytest.mark.parametrize("bad", [
        "shows", ("shows",) * 6, (), ("",), ("favorite", "two words"),
        ("line\nend",), ("your", 5), ("\xa0",), ("your", "no\x85break"),
        ("shows", None), 5])
    def test_bad_query_named_as_locally(self, remote, worked_index, bad,
                                        monkeypatch):
        """The whole batch is checked at once. A bad query has the
        position and message that the local index gives it, whatever
        else is bad after it, and nothing is sent."""
        queries = [("shows",), ("your", "favorite"), ("shows",), bad,
                   ("favorite", ""), "more", ("shows",)]
        assert remote.max_order == worked_index.max_order
        sent = record_requests(remote, monkeypatch)
        raised = []
        for backend in (worked_index, remote):
            with pytest.raises((ValueError, TypeError)) as info:
                backend.ngram_count(queries)
            raised.append((type(info.value), str(info.value),
                           getattr(info.value, "position", None)))
        assert raised[0] == raised[1]
        assert raised[0][2] == (None if bad == 5 else 3)
        assert sent == []

    @pytest.mark.parametrize("token", ["", "two words", "line\nend"])
    def test_token_that_breaks_the_line_format_rejected(self, remote,
                                                        worked_index,
                                                        token):
        # The same ValueError from both backends, at the query's position.
        for backend in (remote, worked_index):
            with pytest.raises(ValueError, match="hold no whitespace") as info:
                backend.ngram_count([("shows",), ("favorite", token)])
            assert info.value.position == 1

    @pytest.mark.parametrize("token", ["", "two words", 5])
    def test_unigram_exists_takes_the_token_rule(self, remote, worked_index,
                                                 token):
        for backend in (remote, worked_index):
            with pytest.raises(ValueError, match="hold no whitespace"):
                backend.unigram_exists(token)

    def test_bigram_validation(self, remote):
        with pytest.raises(ValueError):
            remote.unigrams_containing_bigram("abc")

    def test_rank_batch_matches_local(self, remote, worked_index):
        words = sorted(worked_index.vocab) + ["shaws", "hwas", "q", "qq"]
        contexts = [(), ("favorite",), ("your", "favorite"),
                    ("episodes", "of", "your", "favorite"),
                    ("zebra", "of", "your", "favorite")]
        pairs = [(context, word) for context in contexts for word in words]
        assert remote.rank_by_shared_bigrams(pairs) == \
            worked_index.rank_by_shared_bigrams(pairs)
        assert remote.rank_by_shared_bigrams([]) == []


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


@pytest.mark.parametrize("port", [70000, -1])
def test_port_out_of_range_is_a_bind_failure(worked_index, port):
    with pytest.raises(OSError) as info:
        serve(worked_index, port=port)
    assert str(info.value).startswith(
        f"cannot bind lookup service to 127.0.0.1:{port}: ")


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
        # A short poll interval, so that stop() returns soon.
        self._thread = threading.Thread(target=self._srv.serve_forever,
                                        args=(0.05,), daemon=True)
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


def candidate_lines(ranked):
    """The /v1/candidates reply to the pairs whose rankings are `ranked`:
    the candidate triples, then the counts above order 1."""
    return "".join(
        "\t".join([*(f"{c.word}\t{c.shared}\t{c.unigram_count}"
                     for c in cands),
                   *map(str, counts[:len(counts) - len(cands)])]) + "\n"
        for cands, counts in ranked)


class TestCandidatesEndpoint:
    def test_matches_local_ranking(self, base_url, worked_index):
        words = ["shaws", "haws", "shows", "hwas", "shaws", "q"]
        body = "".join(w + "\n" for w in words).encode()
        expected = worked_index.rank_by_shared_bigrams(
            [((), w) for w in words])
        assert fetch(f"{base_url}/v1/candidates", body) == \
            (200, candidate_lines(expected))
        # The top 8 of each word's 11, 10, 8, 1, 11 and 0 partners.
        assert [len(cands) for cands, _ in expected] == [8, 8, 8, 1, 8, 0]
        # The word itself is never its own candidate.
        assert all(w not in [c.word for c in cands]
                   for w, (cands, _) in zip(words, expected))

    def test_context_adds_the_counts_after_it(self, base_url, worked_index):
        body = (b"shaws\tepisodes of your favorite\nhwas\tfavorite\n"
                b"q\tyour favorite\nshaws\n")
        pairs = [(("episodes", "of", "your", "favorite"), "shaws"),
                 (("favorite",), "hwas"), (("your", "favorite"), "q"),
                 ((), "shaws")]
        expected = worked_index.rank_by_shared_bigrams(pairs)
        assert fetch(f"{base_url}/v1/candidates", body) == \
            (200, candidate_lines(expected))
        # "shows" after "episodes of your favorite", "of your favorite"
        # and "your favorite", then "favorite"; "hwas" has one candidate.
        line = candidate_lines(expected[:1]).rstrip("\n").split("\t")
        assert len(line) == 8 * 3 + 8 * 4
        rank = line[:24:3].index("shows")
        assert line[24 + rank::8] == ["7", "7", "7", "7"]
        assert candidate_lines(expected[1:2]).count("\t") == 3

    @pytest.mark.parametrize("body,line", [
        (b"shaws\tyour favorite\nshaws\ta b c d e\n", 2),
        (b"shaws\tyour  favorite\n", 1), (b"shaws\t\n", 1),
        (b"shaws\tyour\tfavorite\n", 1), (b"shaws\t favorite\n", 1),
        (b"shaws\n\tfavorite\n", 2), (b"shaws\tfavorite\r\n", 1),
    ])
    def test_malformed_context_gets_400_with_line(self, base_url, body,
                                                  line):
        status, reason = fetch_error(f"{base_url}/v1/candidates", body)
        assert status == 400
        assert reason.startswith(f"line {line}: ")

    def test_no_shared_bigram_is_empty(self, base_url):
        assert fetch(f"{base_url}/v1/candidates", b"zqx\nq\nzqx\n") == \
            (200, "\n\n\n")
        assert fetch(f"{base_url}/v1/candidates", b"") == (200, "")

    def test_last_line_end_is_optional(self, base_url, worked_index):
        expected = candidate_lines(worked_index.rank_by_shared_bigrams(
            [((), "shaws"), ((), "hwas")]))
        assert fetch(f"{base_url}/v1/candidates", b"shaws\nhwas") == \
            (200, expected)

    @pytest.mark.parametrize("query", [
        "b=aw", "b=aw&k=", "b=aw&k=two", "b=aw&k=1.5", "b=aw&k=0",
        "b=aw&k=-3", "b=a&k=8", "b=abc&k=8", "b=aw&b=x&k=8",
        "b=aw&k=8&k=9", "", "k=0", "k=-1", "k=%38", "k=8&exclude=shaws",
    ])
    def test_malformed_get_400_with_reason(self, base_url, query):
        """Every query string, the empty one, a k and the retired GET
        route's among them, gets 400 from the POST route, which takes no
        query: a client that asks for another k fails loudly."""
        status, reason = fetch_error(f"{base_url}/v1/candidates?{query}",
                                     b"shaws\n")
        assert status == 400
        assert reason == f"/v1/candidates takes no query, got {query!r}\n"

    @pytest.mark.parametrize("body,line", [
        (b"\n", 1), (b"shaws\n\nshaws\n", 2), (b"shaws\ntwo words\n", 2),
        (b" shaws\n", 1), (b"shaws\t\n", 1), (b"shaws\r\n", 1),
    ])
    def test_malformed_batch_gets_400_with_line(self, base_url, body, line):
        status, reason = fetch_error(f"{base_url}/v1/candidates", body)
        assert status == 400
        assert reason.startswith(f"line {line}: ")

    def test_body_not_utf8_gets_400(self, base_url):
        status, reason = fetch_error(f"{base_url}/v1/candidates",
                                     b"shaws\xff\n")
        assert status == 400
        assert reason.startswith("body is not UTF-8")

    def test_length_limits_shared_with_counts(self, counted):
        path = "/v1/candidates"
        assert _post_raw(counted.port, [], path=path) == \
            (411, "Content-Length required\n", "close")
        status, reason, connection = _post_raw(
            counted.port, [("Content-Length", str(MAX_BATCH_BYTES + 1))],
            path=path)
        assert (status, connection) == (413, "close")
        assert str(MAX_BATCH_BYTES) in reason

    def test_retired_get_route_404(self, base_url):
        assert fetch_error(f"{base_url}/v1/candidates?b=sh&k=8")[0] == 404


def resource_warnings(action):
    """The ResourceWarnings raised while `action` runs and the garbage
    collector then runs."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        action()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestConnections:
    def test_connection_closes_when_its_thread_ends(self, counted, fresh):
        def use_in_a_thread():
            worker = threading.Thread(target=fresh.manifest)
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()

        assert resource_warnings(use_in_a_thread) == []
        assert len(counted.accepted) == 1

    def test_connection_closes_when_its_backend_goes_away(self, counted):
        backends = [RemoteBackend(counted.url)]
        backends[0].manifest()
        assert resource_warnings(backends.clear) == []

    def test_lookups_share_one_connection(self, counted, fresh,
                                          worked_index):
        for _ in range(20):
            assert fresh.ngram_count([["favorite", "shows"]]) == [7]
            assert fresh.unigram_exists("haws")
            assert fresh.unigrams_containing_bigram("aw") == \
                worked_index.unigrams_containing_bigram("aw")
            assert generate_candidates("shaws", fresh) == \
                generate_candidates("shaws", worked_index)
        assert len(counted.accepted) == 1

    def test_connection_survives_a_400(self, counted, fresh, worked_index):
        assert fresh.ngram_count([["shows"]]) == [7]
        # Requests the server refuses, as from a client that asks for k.
        with pytest.raises(ValueError, match="rejected query"):
            fresh._call("POST", "/v1/candidates?k=3", b"shaws\n")
        assert fresh.rank_by_shared_bigrams([((), "aw")]) == \
            worked_index.rank_by_shared_bigrams([((), "aw")])
        with pytest.raises(ValueError, match="rejected query"):
            fresh._call("POST", "/v1/candidates?k=8", b"shaws\n")
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
            remote.rank_by_shared_bigrams([((), "aw")])
        remote.close()

    def test_threads_share_one_backend(self, counted, fresh,
                                       worked_index):
        words = sorted(worked_index.vocab) + ["shaws", "hwas", "qq"]
        expected = {w: (worked_index.ngram_count([[w]]),
                        generate_candidates(w, worked_index))
                    for w in words}
        results, errors = [], []

        def work(offset):
            try:
                for i in range(40):
                    w = words[(offset + i) % len(words)]
                    results.append(
                        (w, (fresh.ngram_count([[w]]),
                             generate_candidates(w, fresh))))
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


class TestRankInputChecks:
    def test_string_rejected_by_both(self, counted, fresh, worked_index):
        for backend in (worked_index, fresh):
            with pytest.raises(ValueError, match="not the string 'shaws'"):
                backend.rank_by_shared_bigrams("shaws")
            with pytest.raises(ValueError, match="not the string 'your'"):
                backend.rank_by_shared_bigrams([("your", "shaws")])
        assert counted.accepted == []

    @pytest.mark.parametrize("word", ["", "two words", "line\nend",
                                      "tab\tin", " shaws", "shaws\r",
                                      "no\xa0break"])
    def test_word_the_line_format_cannot_carry(self, counted, fresh,
                                               worked_index, word):
        # Rejected by both backends, as a word and as a context token, by
        # the client before anything is sent.
        for backend in (worked_index, fresh):
            for pair in [((), word), (("your", word), "shaws")]:
                with pytest.raises(ValueError, match="whitespace") as info:
                    backend.rank_by_shared_bigrams([((), "shaws"), pair])
                assert info.value.position == 1
        assert counted.accepted == []

    def test_context_longer_than_the_window(self, counted, fresh,
                                            worked_index):
        # Four tokens is the window of a 5-gram index.
        four = ("episodes", "of", "your", "favorite")
        for backend in (worked_index, fresh):
            assert backend.rank_by_shared_bigrams([(four, "shaws")]) == \
                worked_index.rank_by_shared_bigrams([(four, "shaws")])
            with pytest.raises(ValueError, match="context of 5 tokens "
                                                 "exceeds max_order - 1 = 4"):
                backend.rank_by_shared_bigrams(
                    [((), "shaws"), (("watch", *four), "shaws")])
        # The server checks the same bound, at the line of the context.
        status, reason = fetch_error(
            f"{counted.url}/v1/candidates",
            b"shaws\nshaws\twatch episodes of your favorite\n")
        assert (status, reason) == (400, "line 2: context of 5 tokens "
                                         "exceeds max_order - 1 = 4\n")


def _post_raw(port, headers, body=b"", path="/v1/ngram"):
    """Status, body and Connection header of one hand-made POST."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.putrequest("POST", path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders(body)
        with conn.getresponse() as resp:
            return (resp.status, resp.read().decode("utf-8"),
                    resp.getheader("Connection"))
    finally:
        conn.close()


class TestOverlongNumbers:
    """A number longer than int() reads (4300 digits) gets an answer with
    a reason, and the server goes on serving without a traceback."""

    def test_content_length_gets_413(self, counted, capfd):
        status, reason, connection = _post_raw(
            counted.port, [("Content-Length", "9" * 5000)])
        assert (status, connection) == (413, "close")
        assert str(MAX_BATCH_BYTES) in reason
        assert fetch(f"{counted.url}/v1/ngram", b"shows\n") == (200, "7\n")
        assert "Traceback" not in capfd.readouterr().err

    def test_leading_zeros_are_read(self, counted):
        assert _post_raw(counted.port, [("Content-Length", "0" * 5000 + "6")],
                         b"shows\n")[:2] == (200, "7\n")


def record_requests(remote, monkeypatch):
    """The (method, body) of every request `remote` sends from now on."""
    sent = []
    request = remote._request

    def recording(method, target, body):
        sent.append((method, body))
        return request(method, target, body)

    monkeypatch.setattr(remote, "_request", recording)
    return sent


def assert_cut_full(bodies):
    """Every body but the last is full: the next body's first line would
    not have fitted in it."""
    assert all(len(body) <= MAX_BATCH_BYTES for body in bodies)
    for body, following in zip(bodies, bodies[1:]):
        assert len(body) + following.index(b"\n") + 1 > MAX_BATCH_BYTES


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

    @pytest.mark.parametrize("body,line", [
        (b"the cat\r\nthe\r\n", 1), (b"shows\nfavorite\tshows\n", 2),
        (b"shows\nfavorite shows\r\n", 2), (b"shows\nno\xc2\xa0break\n", 2),
    ])
    def test_token_holding_whitespace_gets_400_with_line(self, base_url,
                                                         body, line):
        # A CR line end stays in the last token, which then holds
        # whitespace: the same rule as on /v1/candidates, never a 0.
        status, reason = fetch_error(f"{base_url}/v1/ngram", body)
        assert status == 400
        assert reason.startswith(f"line {line}: tokens must be non-empty")

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
        assert fresh.max_order == 5  # the manifest request goes first
        sent = record_requests(fresh, monkeypatch)
        assert fresh.ngram_count(queries) == worked_index.ngram_count(queries)
        bodies = [body for _, body in sent]
        assert len(bodies) == 3
        assert_cut_full(bodies)
        assert b"".join(bodies).decode().splitlines() == \
            [" ".join(q) for q in queries]
        assert len(counted.accepted) == 1

    def test_body_of_exactly_the_limit_is_one_post(self, fresh,
                                                   monkeypatch):
        # 10922 lines "shows\n" and one "xxx\n" make 65536 bytes.
        queries = [["shows"]] * (MAX_BATCH_BYTES // 6) + \
            [["x" * (MAX_BATCH_BYTES % 6 - 1)]]
        assert fresh.max_order == 5
        sent = record_requests(fresh, monkeypatch)
        assert fresh.ngram_count(queries) == [7] * (len(queries) - 1) + [0]
        assert [len(body) for _, body in sent] == [MAX_BATCH_BYTES]
        sent.clear()
        assert fresh.ngram_count(queries + [["shows"]]) == \
            [7] * (len(queries) - 1) + [0, 7]
        assert [len(body) for _, body in sent] == [MAX_BATCH_BYTES, 6]

    def test_query_above_the_limit_rejected(self, remote):
        with pytest.raises(ValueError, match="batch limit"):
            remote.ngram_count([["a" * MAX_BATCH_BYTES]])

    def test_query_above_the_limit_sends_nothing(self, fresh, monkeypatch):
        # The valid lines before it would fill more than one POST: every
        # cut is made before the first one is sent.
        queries = [["favorite", "shows"]] * 5000 + \
            [["a" * MAX_BATCH_BYTES], ["shows"]]
        assert 15 * 5000 > MAX_BATCH_BYTES
        assert fresh.max_order == 5
        sent = record_requests(fresh, monkeypatch)
        with pytest.raises(ValueError, match=f"line of {MAX_BATCH_BYTES + 1}"
                                             f" bytes exceeds"):
            fresh.ngram_count(queries)
        assert sent == []


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
            self._send(replies[urllib.parse.urlsplit(self.path).path])

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


@pytest.mark.parametrize("reply", [
    b"", b"haws\t3\t1\n", b"haws\t3\t1\n\n\n", b"haws\t3\t1\n\n\n\n",
    b"haws\t3\t1\nhaws\t3\t1", b"haws\t3\n\n", b"haws\t3\t1\t\n\n",
    b"haws\t3\t1\tshows\n\n", b"haws\tthree\t1\n\n",
    b"haws\t3\t1.0\n\n", b"haws\t-3\t1\n\n", b"\t3\t1\n\n",
    b"haws 3 1\n\n",
])
def test_candidates_of_wrong_shape_are_a_backend_error(fake_reply, reply):
    remote, replies = fake_reply
    pairs = [((), "shaws"), ((), "zq")]
    replies["/v1/candidates"] = b"haws\t3\t1\tshows\t2\t7\n\n"
    assert remote.rank_by_shared_bigrams(pairs) == [
        ([Candidate("haws", 3, 1), Candidate("shows", 2, 7)], [1, 7]),
        ([], [])]
    replies["/v1/candidates"] = reply
    with pytest.raises(BackendError, match="/v1/candidates"):
        remote.rank_by_shared_bigrams(pairs)


@pytest.mark.parametrize("reply", [
    b"haws\t3\t1\tshows\t2\t7\n\n", b"haws\t3\t1\tshows\t2\t7\t0\n\n",
    b"haws\t3\t1\tshows\t2\t7\t0\t5\t0\n\n",
    b"haws\t3\t1\tshows\t2\t7\t0\t5\t0\t5\t1\n\n",
    b"haws\t3\t1\tshows\t2\t7\t0\tfive\n\n",
    b"haws\t3\t1\tshows\t2\t7\t0\t-5\n\n",
    b"haws\t3\t1\tshows\t2\t7\t0\t5\n0\n",
])
def test_counts_of_wrong_number_are_a_backend_error(fake_reply, reply):
    # After a one-token context, each candidate has one count above
    # order 1: a line with fewer or more is a fault, never a zero.
    remote, replies = fake_reply
    pairs = [(("favorite",), "shaws"), (("favorite",), "zq")]
    replies["/v1/candidates"] = b"haws\t3\t1\tshows\t2\t7\t0\t5\n\n"
    assert remote.rank_by_shared_bigrams(pairs) == [
        ([Candidate("haws", 3, 1), Candidate("shows", 2, 7)], [0, 5, 1, 7]),
        ([], [])]
    replies["/v1/candidates"] = reply
    with pytest.raises(BackendError, match="/v1/candidates"):
        remote.rank_by_shared_bigrams(pairs)


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


class TestLargeVocabularyEquality:
    """Local and HTTP answers agree over a few thousand words, where
    /v1/postings truncates and a batch of words outgrows one request."""

    @pytest.fixture(scope="class")
    def large(self):
        _, lines = large_vocabulary(seed=11)
        index = build_index(lines, corpus_id="large")
        assert max(len(index.unigrams_containing_bigram(a + b))
                   for a in "abcd" for b in "abcd") > POSTINGS_CAP
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        yield index, lines, remote
        remote.close()
        srv.stop()

    def test_candidates_match_local(self, large):
        index, _, remote = large
        rng = random.Random(12)
        errors = set()
        while len(errors) < 250:
            word = "".join(rng.choice("abcd")
                           for _ in range(rng.randint(3, 9)))
            if not index.unigram_exists(word):
                errors.add(word)
        # Words of the vocabulary, which are left out of their own
        # rankings, and words too short to have a bigram.
        words = sorted(errors) + rng.sample(sorted(index.vocab), 30) + \
            ["a", "b", "e", "ab"]
        rng.shuffle(words)
        # A context of vocabulary words, or with a word outside it.
        contexts = [tuple(rng.sample(sorted(index.vocab), rng.randint(0, 4)))
                    for _ in words]
        contexts[::7] = [(*c[:-1], "zzzz") for c in contexts[::7]]
        pairs = list(zip(contexts, words))
        got = remote.rank_by_shared_bigrams(pairs)
        assert got == index.rank_by_shared_bigrams(pairs)
        for (context, word), (ranked, counts) in zip(pairs, got):
            assert ranked == generate_candidates(word, index)
            assert (ranked == []) == (len(word) < 2), word
            assert word not in [c.word for c in ranked]
            assert counts == (index.ngram_count(selection_queries(
                context, [c.word for c in ranked])) if ranked else [])

    def test_batch_above_the_limit_is_split_in_order(self, large,
                                                     monkeypatch):
        index, _, remote = large
        rng = random.Random(14)
        words = ["".join(rng.choice("abcde")
                         for _ in range(rng.randint(1, 120)))
                 for _ in range(1200)]
        assert sum(len(w) + 1 for w in words) > MAX_BATCH_BYTES
        sent = record_requests(remote, monkeypatch)
        pairs = [((), word) for word in words]
        assert remote.rank_by_shared_bigrams(pairs) == \
            index.rank_by_shared_bigrams(pairs)
        bodies = [body for _, body in sent]
        assert len(bodies) == 2
        assert_cut_full(bodies)
        assert b"".join(bodies).decode().splitlines() == words

    @pytest.mark.parametrize("realword", [False, True])
    def test_transcripts_byte_identical(self, large, realword):
        index, lines, remote = large
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


def test_words_of_256_bigrams_and_more_rank_as_brute_force():
    """A word with more distinct character bigrams than a uint8 count can
    hold, against vocabulary words sharing more than 255 of them, ranks
    the same locally, over HTTP and by scanning the whole vocabulary."""
    rng = random.Random(19)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    long_word = "".join(rng.choice(alphabet) for _ in range(600))
    assert len(char_bigrams(long_word)) > 300

    def prefix(bigrams):
        """The shortest prefix of long_word with `bigrams` distinct
        bigrams."""
        return next(long_word[:n] for n in range(len(long_word))
                    if len(char_bigrams(long_word[:n])) == bigrams)

    vocab = {long_word[1:], long_word[:-1], long_word[2:-3], long_word[::-1],
             long_word[150:] + "z", prefix(255), prefix(256), prefix(300)}
    vocab |= {"".join(rng.choice(alphabet) for _ in range(rng.randint(2, 8)))
              for _ in range(400)}
    counts = {word: rng.randint(1, 3) for word in sorted(vocab)}
    tokens = [word for word, n in counts.items() for _ in range(n)]
    rng.shuffle(tokens)
    index = build_index([" ".join(tokens[i:i + 10])
                         for i in range(0, len(tokens), 10)])
    assert dict(index.ngrams(1)) == counts
    # Out of the vocabulary and in it (so left out of its own ranking),
    # with 255, 256 and 257 distinct bigrams among others.
    words = [long_word, long_word[1:], prefix(255), prefix(256),
             prefix(257), long_word[:40]]

    def brute_force(word):
        ranked = [Candidate(w, shared_bigram_count(word, w), n)
                  for w, n in counts.items() if w != word]
        return sorted((c for c in ranked if c.shared),
                      key=lambda c: (-c.shared, -c.unigram_count, c.word))[:8]

    # Each word after a context of vocabulary words, and after none.
    context = tuple(tokens[:4])
    pairs = [(c, word) for word in words for c in (context, ())]
    expected = []
    for c, word in pairs:
        ranked = brute_force(word)
        expected.append((ranked, index.ngram_count(selection_queries(
            c, [r.word for r in ranked]))))
    assert [c.shared for c in expected[0][0]][:2] == [483, 482]
    assert [c.shared for c in expected[6][0]][:2] == [256, 256]
    assert index.rank_by_shared_bigrams(pairs) == expected
    srv = _Server(index)
    remote = RemoteBackend(srv.url)
    try:
        assert remote.rank_by_shared_bigrams(pairs) == expected
    finally:
        remote.close()
        srv.stop()


@pytest.mark.parametrize("vocab_size", [2, 4, 8, 16, 4097])
def test_context_counts_by_word_id_equal_brute_force(vocab_size, tmp_path):
    """The counts after each context, which the ranking takes by word id,
    equal a brute-force count of the corpus lines at ids of 1 to 4 bits
    and of 13, where a 5-gram key is wider than 63 bits. Contexts hold a
    token outside the vocabulary first, in the middle and last. The
    index is built, loaded from its sidecars and loaded from its TSVs
    alone, and answers locally and over HTTP."""
    lines = boundary_corpus(vocab_size)
    oracle = Oracle(lines, 5)
    built = build_index(lines)
    assert built._bits == max(1, (vocab_size - 1).bit_length())
    save_index(built, tmp_path / "idx")
    indexes = [built, load_index(tmp_path / "idx"),
               load_from_tsv(tmp_path / "idx", tmp_path)]
    # Each token of a few lines after the tokens before it, as itself
    # (left out of its own ranking) and as a word outside the vocabulary.
    pairs = []
    for line in lines[1:12]:
        tokens = line.split()
        pairs += [(tuple(tokens[max(0, i - 4):i]), word)
                  for i in range(len(tokens))
                  for word in (tokens[i], tokens[i] + "x")]
    full = [(context, word) for context, word in pairs if len(context) == 4]
    pairs += [((*context[:at], "zz", *context[at + 1:]), word)
              for at in (0, 1, 3) for context, word in full[:6]]
    pairs += [(("zz",), word) for _, word in full[:2]]
    expected = []
    for context, word in pairs:
        ranked = [Candidate(*c) for c in oracle.candidates(word, 8)]
        expected.append((ranked, [
            oracle.counts[(*context[len(context) - order + 1:], c.word)]
            for order in range(len(context) + 1, 0, -1) for c in ranked]))
    # Whole contexts are attested; a token outside the vocabulary first
    # leaves the lower orders attested.
    assert any(counts[:len(ranked)] != [0] * len(ranked)
               for (context, _), (ranked, counts) in zip(pairs, expected)
               if len(context) == 4 and "zz" not in context)
    assert any(counts[len(ranked):2 * len(ranked)] != [0] * len(ranked)
               for (context, _), (ranked, counts) in zip(pairs, expected)
               if context[:1] == ("zz",) and len(context) == 4)
    for index in indexes:
        assert index.rank_by_shared_bigrams(pairs) == expected
        srv = _Server(index)
        remote = RemoteBackend(srv.url)
        try:
            assert remote.rank_by_shared_bigrams(pairs) == expected
        finally:
            remote.close()
            srv.stop()


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
    must reject the same queries when assert statements are stripped. A
    str subclass is a str: as a query it is rejected, as a token it
    counts."""
    code = """if True:
        import threading
        from asrspell import RemoteBackend, build_index, serve
        class Str(str):
            pass
        index = build_index(["your favorite shows"], max_order=3)
        srv = serve(index, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        remote = RemoteBackend(f"http://127.0.0.1:{srv.server_address[1]}")
        queries = {"string": "shows", "str subclass": Str("shows"),
                   "order 0": (), "order 4": ("your",) * 4,
                   "space": ("your favorite",), "line end": ("shows\\n",),
                   "empty": ("your", ""), "number": (5,),
                   "bytes": ("your", b"favorite")}
        for backend in (index, remote):
            for name, query in queries.items():
                try:
                    backend.ngram_count([("shows",), query])
                except ValueError as exc:
                    print(f"{type(backend).__name__} {name}: {exc}")
            print(f"{type(backend).__name__} counts:", backend.ngram_count(
                [(Str("shows"),), (Str("your"), Str("favorite"))]))
        srv.shutdown()
    """
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{backend} {line}" for backend in ("NgramIndex", "RemoteBackend")
        for line in (
            "string: a query is a sequence of tokens, not the string "
            "'shows'",
            "str subclass: a query is a sequence of tokens, not the string "
            "'shows'",
            "order 0: query order 0 outside 1..3",
            "order 4: query order 4 outside 1..3",
            "space: tokens must be non-empty strings and hold no "
            "whitespace: 'your favorite'",
            "line end: tokens must be non-empty strings and hold no "
            "whitespace: 'shows\\n'",
            "empty: tokens must be non-empty strings and hold no "
            "whitespace: ''",
            "number: tokens must be non-empty strings and hold no "
            "whitespace: 5",
            "bytes: tokens must be non-empty strings and hold no "
            "whitespace: b'favorite'",
            "counts: [1, 1]")]


def test_rank_checks_hold_under_python_O():
    """Both rank_by_shared_bigrams implementations check their input
    with one function, so they reject the same input, words and context
    tokens the line format cannot carry and contexts longer than the
    index's window included, when assert statements are stripped."""
    code = """if True:
        import threading
        from asrspell import RemoteBackend, build_index, serve
        index = build_index(["your favorite shows"], max_order=3)
        srv = serve(index, port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        remote = RemoteBackend(f"http://127.0.0.1:{srv.server_address[1]}")
        calls = {"string": "shows", "empty": [((), "shows"), ((), "")],
                 "space": [((), "your favorite")],
                 "context string": [("your", "shows")],
                 "context token": [(("your", "a b"), "shows")],
                 "context length": [(("a", "your", "favorite"), "shows")]}
        for backend in (index, remote):
            for name, pairs in calls.items():
                try:
                    backend.rank_by_shared_bigrams(pairs)
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
        f"{backend} {line}" for backend in ("NgramIndex", "RemoteBackend")
        for line in (
            "string: rank_by_shared_bigrams takes a sequence of (context, "
            "word) pairs, not the string 'shows'",
            "empty: words must be non-empty strings and hold no "
            "whitespace: ''",
            "space: words must be non-empty strings and hold no "
            "whitespace: 'your favorite'",
            "context string: a context is a sequence of tokens, not the "
            "string 'your'",
            "context token: tokens must be non-empty strings and hold no "
            "whitespace: 'a b'",
            "context length: context of 3 tokens exceeds max_order - 1 "
            "= 2")]


def test_connections_over_the_worker_cap_get_503(worked_index, caplog):
    """Each kept-alive connection holds a worker; one more than
    MAX_WORKERS is answered 503 and closed, and a worker freed by a
    closed connection serves the next."""
    caplog.set_level(logging.WARNING, logger="asrspell.service")
    srv = _Server(worked_index)
    manifest = worked_index.manifest.to_tsv()

    def get(conn):
        conn.request("GET", "/v1/manifest")
        with conn.getresponse() as resp:
            return (resp.status, resp.read().decode(),
                    resp.getheader("Connection"))

    held = []
    try:
        for _ in range(service.MAX_WORKERS):
            held.append(http.client.HTTPConnection(
                "127.0.0.1", srv.port, timeout=5))
            assert get(held[-1]) == (200, manifest, None)
        extra = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=5)
        try:
            status, reason, connection = get(extra)
        finally:
            extra.close()
        assert (status, connection) == (503, "close")
        assert reason == f"server busy: all {service.MAX_WORKERS} " \
            f"workers in use\n"
        remote = RemoteBackend(srv.url)
        with pytest.raises(BackendError, match="HTTP 503"):
            remote.manifest()
        remote.close()
        assert [r.getMessage() for r in caplog.records
                if "refused" in r.getMessage()] == \
            [f"127.0.0.1 refused: all {service.MAX_WORKERS} workers "
             f"busy"] * 2
        # The held connections are still served.
        assert all(get(conn) == (200, manifest, None) for conn in held)
        held.pop().close()
        deadline = time.monotonic() + 5
        while True:  # until the closed connection's worker has ended
            conn = http.client.HTTPConnection("127.0.0.1", srv.port,
                                              timeout=5)
            try:
                status = get(conn)[0]
            finally:
                conn.close()
            if status == 200:
                break
            assert time.monotonic() < deadline, "no worker was freed"
            time.sleep(0.01)
    finally:
        for conn in held:
            conn.close()
        srv.stop()


def read_reply(rfile):
    """Status, headers by lower-cased name and body of one reply, read by
    a parser of the test's own."""
    status = int(rfile.readline().split()[1])
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers["content-length"]))
    return status, headers, body.decode("utf-8")


def closed_after(sock, rfile):
    """Whether the server closes the connection after its reply."""
    sock.settimeout(5)
    try:
        return rfile.read(1) == b""
    except ConnectionResetError:
        return True


def ask(port, data):
    """Status, headers and body of the reply to raw `data`, and whether
    the server closed the connection after it."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(data)
        return (*read_reply(rfile), closed_after(sock, rfile))


GET_MANIFEST = b"GET /v1/manifest HTTP/1.1\r\nHost: test\r\n"


@pytest.fixture(scope="module")
def port(server):
    return server.server_address[1]


class TestServerFraming:
    """The server reads the request head itself; each framing fault gets
    its status with a one-line reason and no traceback."""

    @pytest.fixture(autouse=True)
    def no_traceback(self, capfd):
        yield
        assert "Traceback" not in capfd.readouterr().err

    @pytest.mark.parametrize("line", [
        b"GARBAGE", b"GET /v1/manifest", b"GET /v1/manifest HTTP/1.1 x",
        b"GET /v1/manifest HTTP/2.0", b"GET /v1/manifest FTP/1.1", b"",
    ])
    def test_malformed_request_line_gets_400(self, port, line):
        status, headers, reason, closed = ask(
            port, line + b"\r\nHost: test\r\n\r\n")
        assert (status, headers["connection"], closed) == (400, "close", True)
        assert reason.startswith("bad request line")

    def test_header_line_over_the_limit_gets_431(self, port):
        status, _, reason, closed = ask(
            port, GET_MANIFEST + b"X-Big: " +
            b"a" * service.MAX_LINE + b"\r\n\r\n")
        assert (status, closed) == (431, True)
        assert str(service.MAX_LINE) in reason

    def test_header_count_limit(self, port, worked_index):
        fields = [b"X-%d: 1\r\n" % n for n in range(service.MAX_HEADERS)]
        # The Host field makes one more; HTTP/1.0 closes after the reply.
        status, _, body, _ = ask(
            port, GET_MANIFEST.replace(b"1.1", b"1.0") +
            b"".join(fields[1:]) + b"\r\n")
        assert (status, body) == (200, worked_index.manifest.to_tsv())
        status, _, reason, closed = ask(port, GET_MANIFEST +
                                        b"".join(fields) + b"\r\n")
        assert (status, closed) == (431, True)
        assert reason == f"more than {service.MAX_HEADERS} header lines\n"

    @pytest.mark.parametrize("field", [
        b"NoColon\r\n", b"X-A: 1\r\n folded\r\n", b"X-A: 1\r\n\tfolded\r\n",
        b" X-A: 1\r\n", b"X A: 1\r\n", b": no name\r\n",
    ])
    def test_bad_header_line_gets_400(self, port, field):
        status, _, reason, closed = ask(port,
                                        GET_MANIFEST + field + b"\r\n")
        assert (status, closed) == (400, True)
        assert reason.startswith("bad header line")

    def test_content_lengths_that_differ_get_400(self, port):
        post = b"POST /v1/ngram HTTP/1.1\r\nHost: test\r\n"
        status, _, reason, closed = ask(
            port, post + b"Content-Length: 6\r\n"
            b"Content-Length: 7\r\n\r\nshows\n")
        assert (status, reason, closed) == \
            (400, "Content-Length fields differ\n", True)
        # The same length twice is one length.
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as sock, \
                sock.makefile("rb") as rfile:
            sock.sendall(post + b"Content-Length: 6\r\nContent-Length: 6"
                         b"\r\n\r\nshows\n")
            assert read_reply(rfile)[::2] == (200, "7\n")

    def test_transfer_encoding_without_length_gets_411(self, port):
        status, _, reason, closed = ask(
            port, b"POST /v1/ngram HTTP/1.1\r\nHost: test\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n6\r\nshows\n\r\n0\r\n\r\n")
        assert (status, reason, closed) == \
            (411, "Content-Length required\n", True)

    def test_expect_100_continue(self, port):
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as sock, \
                sock.makefile("rb") as rfile:
            sock.sendall(b"POST /v1/ngram HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 6\r\nExpect: 100-continue\r\n\r\n")
            # The interim reply comes before any of the body is sent.
            assert rfile.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert rfile.readline() == b"\r\n"
            sock.sendall(b"shows\n")
            assert read_reply(rfile)[::2] == (200, "7\n")

    @pytest.mark.parametrize("version,field", [
        (b"HTTP/1.0", b""), (b"HTTP/1.1", b"Connection: close\r\n"),
        (b"HTTP/1.1", b"connection: Keep-Alive, CLOSE\r\n"),
    ])
    def test_closing_requests_are_answered_then_closed(self, port,
                                                       worked_index,
                                                       version, field):
        status, headers, body, closed = ask(
            port, b"GET /v1/manifest " + version +
            b"\r\nHost: test\r\n" + field + b"\r\n")
        assert (status, body) == (200, worked_index.manifest.to_tsv())
        assert (headers["connection"], closed) == ("close", True)

    def test_header_names_are_case_insensitive(self, counted):
        with socket.create_connection(("127.0.0.1", counted.port),
                                      timeout=5) as sock, \
                sock.makefile("rb") as rfile:
            for name in [b"content-length", b"CONTENT-LENGTH",
                         b"Content-length"]:
                sock.sendall(b"POST /v1/ngram HTTP/1.1\r\nhOsT: test\r\n" +
                             name + b":6\r\n\r\nshows\n")
                status, headers, body = read_reply(rfile)
                assert (status, body) == (200, "7\n")
                assert "connection" not in headers  # kept open
        assert len(counted.accepted) == 1

    def test_reply_head(self, port):
        status, headers, body, _ = ask(
            port, b"POST /v1/ngram HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: 6\r\nConnection: close\r\n\r\nshows\n")
        assert (status, body) == (200, "7\n")
        assert sorted(headers) == ["connection", "content-length",
                                   "content-type", "date"]
        assert headers["content-type"] == "text/plain; charset=utf-8"
        assert headers["date"].endswith(" GMT")


def _request_line(length):
    """A GET /v1/manifest request line of `length` bytes, CRLF included."""
    head, tail = b"GET /v1/manifest?", b" HTTP/1.1\r\n"
    return head + b"a" * (length - len(head) - len(tail)) + tail


def test_request_line_limit(port, worked_index):
    """A request line of MAX_LINE bytes is served; one byte more is 414."""
    status, _, body, _ = ask(port, _request_line(service.MAX_LINE) +
                             b"Host: test\r\nConnection: close\r\n\r\n")
    assert (status, body) == (200, worked_index.manifest.to_tsv())
    status, _, _, closed = ask(
        port, _request_line(service.MAX_LINE + 1) + b"Host: test\r\n\r\n")
    assert (status, closed) == (414, True)


@pytest.mark.parametrize("data,status,reason", [
    (_request_line(service.MAX_LINE + 1) + b"Host: test\r\n\r\n", 414,
     f"request line longer than {service.MAX_LINE} bytes\n"),
    (b"PUT /v1/ngram HTTP/1.1\r\nHost: test\r\nContent-Length: 6\r\n"
     b"\r\nshows\n", 501, "method 'PUT' not implemented\n"),
    (GET_MANIFEST.replace(b"GET", b"HEAD") + b"\r\n", 501,
     "method 'HEAD' not implemented\n"),
], ids=["414", "501-put", "501-head"])
def test_refusals_are_one_plain_text_write(counted, monkeypatch, capfd,
                                           data, status, reason):
    """A request line over the limit and a method other than GET and
    POST are answered like every other fault: plain text, one write,
    and the connection closed."""
    sent = []
    sendall = socket.socket.sendall

    def recording(sock, data, *args):
        sent.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording)
    got, headers, body, closed = ask(counted.port, data)
    assert (got, body, closed) == (status, reason, True)
    assert headers["connection"] == "close"
    assert headers["content-type"] == "text/plain; charset=utf-8"
    [request, reply] = sent
    assert request == data
    assert reply.startswith(b"HTTP/1.1 %d " % status)
    assert reply.endswith(b"\r\n\r\n" + reason.encode())
    assert "Traceback" not in capfd.readouterr().err


# One request for each status the server answers with, every one of
# which closes its connection.
REPLIES_BY_STATUS = [
    (GET_MANIFEST + b"Connection: close\r\n\r\n", 200),
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /v2/everything HTTP/1.0\r\n\r\n", 404),
    (b"POST /v1/ngram HTTP/1.1\r\n\r\n", 411),
    (b"POST /v1/ngram HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
     % (MAX_BATCH_BYTES + 1), 413),
    (_request_line(service.MAX_LINE + 1) + b"\r\n", 414),
    (GET_MANIFEST + b"X: " + b"a" * service.MAX_LINE + b"\r\n\r\n", 431),
    (b"PUT /v1/ngram HTTP/1.1\r\n\r\n", 501),
]


def test_every_reply_is_dated_now_in_gmt(port):
    for data, status in REPLIES_BY_STATUS:
        before = time.time()
        got, headers, _, _ = ask(port, data)
        after = time.time()
        assert got == status
        date = email.utils.parsedate_to_datetime(headers["date"])
        assert headers["date"].endswith(" GMT")
        assert date.tzinfo == datetime.timezone.utc, headers["date"]
        # The date is the reply's second, cut to a whole second.
        assert int(before) <= date.timestamp() <= after, headers["date"]


def test_date_is_the_imf_fixdate_of_the_email_package():
    # Every weekday and month, a leap day and the epoch.
    start = datetime.datetime(2024, 1, 1, tzinfo=datetime.timezone.utc)
    times = [0, 951782400] + [
        (start + datetime.timedelta(days=day, seconds=37 * day)).timestamp()
        for day in range(0, 400, 3)]
    for seconds in times:
        assert service._imf_fixdate(seconds) == \
            email.utils.formatdate(seconds, usegmt=True)


def test_server_process_loads_no_http_server_or_ssl():
    """`asrspell serve` runs on socketserver and the module's own
    framing; only an https:// RemoteBackend imports ssl."""
    code = ("import sys, asrspell.cli; print(*(name for name in "
            "('ssl', 'http.server', 'http.client', 'email') "
            "if name in sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_framing_checks_hold_under_python_O():
    """The server's framing checks are code, not assert statements."""
    code = """if True:
        import socket, sys, threading
        from asrspell import build_index, serve
        srv = serve(build_index(["your favorite shows"]), port=0)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        head = b"GET /v1/manifest HTTP/1.1\\r\\nHost: t\\r\\n"
        for data in [b"GARBAGE\\r\\n\\r\\n",
                     head + b"X: " + b"a" * 70000 + b"\\r\\n\\r\\n",
                     head + b"X: 1\\r\\n" * 100 + b"\\r\\n",
                     head + b"NoColon\\r\\n\\r\\n",
                     head + b"X: 1\\r\\n folded\\r\\n\\r\\n",
                     b"POST /v1/ngram HTTP/1.1\\r\\nContent-Length: 6\\r\\n"
                     b"Content-Length: 7\\r\\n\\r\\nshows\\n",
                     b"POST /v1/ngram HTTP/1.1\\r\\n"
                     b"Transfer-Encoding: chunked\\r\\n\\r\\n"]:
            with socket.create_connection(srv.server_address) as sock:
                sock.sendall(data)
                print(sock.makefile("rb").readline().decode().strip())
        srv.shutdown()
        srv.server_close()
    """
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "HTTP/1.1 400 Bad Request",
        "HTTP/1.1 431 Request Header Fields Too Large",
        "HTTP/1.1 431 Request Header Fields Too Large",
        "HTTP/1.1 400 Bad Request",
        "HTTP/1.1 400 Bad Request",
        "HTTP/1.1 400 Bad Request",
        "HTTP/1.1 411 Length Required",
    ]
    assert "Traceback" not in proc.stderr


def test_stock_clients_get_the_same_replies(counted, worked_index):
    """urllib, http.client and curl, which sends Expect: 100-continue
    when asked to, read the replies as RemoteBackend does."""
    body = b"favorite shows\nshows\nshaws\n"
    assert fetch(f"{counted.url}/v1/ngram", body) == (200, "7\n7\n0\n")
    assert _post_raw(counted.port, [("Content-Length", str(len(body)))],
                     body) == (200, "7\n7\n0\n", None)
    curl = shutil.which("curl")
    if curl is None:
        pytest.skip("no curl")
    proc = subprocess.run(
        [curl, "--silent", "--show-error", "--noproxy", "*",
         "--max-time", "10", "-H", "Expect: 100-continue",
         "-H", "Content-Type: text/plain", "--data-binary", "@-",
         f"{counted.url}/v1/ngram"], input=body, capture_output=True,
        timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"7\n7\n0\n"
    proc = subprocess.run(
        [curl, "--silent", "--noproxy", "*", "--max-time", "10",
         "--http1.0", f"{counted.url}/v1/manifest"], capture_output=True,
        timeout=30)
    assert proc.stdout.decode() == worked_index.manifest.to_tsv()


def test_each_message_is_one_send(counted, fresh, worked_index,
                                  monkeypatch):
    """Every request and every reply goes out in one sendall, head and
    body together."""
    sent = []
    sendall = socket.socket.sendall

    def recording(sock, data, *args):
        sent.append(bytes(data))
        return sendall(sock, data, *args)

    def unexpected(sock, *args):
        raise AssertionError("a message sent by send, not sendall")

    monkeypatch.setattr(socket.socket, "sendall", recording)
    monkeypatch.setattr(socket.socket, "send", unexpected)
    assert fresh.max_order == 5
    assert fresh.ngram_count([["shows"], ["favorite", "shows"]]) == [7, 7]
    assert fresh.rank_by_shared_bigrams([((), "shaws")]) == \
        worked_index.rank_by_shared_bigrams([((), "shaws")])
    with pytest.raises(ValueError, match="rejected query"):
        fresh._call("POST", "/v1/candidates?k=1", b"shaws\n")
    requests = [data for data in sent if not data.startswith(b"HTTP/")]
    replies = [data for data in sent if data.startswith(b"HTTP/1.1 ")]
    assert [data.split(b" ", 1)[0] for data in requests] == \
        [b"GET", b"POST", b"POST", b"POST"]
    assert [data.split(b" ", 2)[1] for data in replies] == \
        [b"200", b"200", b"200", b"400"]
    for data in sent:
        head, _, body = data.partition(b"\r\n\r\n")
        length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head + b"\r\n")
        assert len(body) == (int(length[1]) if length else 0), data


class RawServer:
    """A server on a raw socket that answers each request with the next
    of `replies`, each raw bytes and whether to close after it; it counts
    the connections it accepts and those the client closes."""

    def __init__(self, replies, host="127.0.0.1", family=socket.AF_INET):
        self.replies = list(replies)
        self.heads = []
        self.accepted = 0
        self.client_closes = 0
        self._stop = threading.Event()
        self._listener = socket.socket(family)
        self._listener.bind((host, 0))
        self._listener.listen()
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            conn.settimeout(5)
            with conn, conn.makefile("rb") as rfile:
                while self._answer(conn, rfile):
                    pass

    def _answer(self, conn, rfile) -> bool:
        """Whether the connection stays open after the next request."""
        try:
            head = b""
            while (line := rfile.readline()) not in (b"\r\n", b""):
                head += line
            length = re.search(rb"Content-Length: (\d+)", head)
            rfile.read(int(length[1]) if length else 0)
        except (ConnectionResetError, TimeoutError):
            line = b""
        if not line:
            self.client_closes += 1
            return False
        self.heads.append(head)
        data, close = self.replies.pop(0)
        conn.sendall(data)
        return not close

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()


@pytest.fixture
def raw_server():
    servers = []

    def start(replies, **kwargs):
        servers.append(RawServer(replies, **kwargs))
        return servers[-1]

    yield start
    for srv in servers:
        srv.stop()
    assert not any(srv._thread.is_alive() for srv in servers)


MANIFEST_REPLY = (b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n"
                  b"max_order\t5\n")


class TestClientFraming:
    """RemoteBackend reads replies itself: a reply whose framing is broken
    is a BackendError, never a short or zero answer, and the client
    closes its connection."""

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\n\r\nmax_order\t5\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\nmax_order\t5\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 12\r\n\r\nmax_order\t5\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nContent-Length: 13"
        b"\r\n\r\nmax_order\t5\n",
        b"HTTP/1.1 2x0 OK\r\nContent-Length: 12\r\n\r\nmax_order\t5\n",
        b"HTTP/9.9 200 OK\r\nContent-Length: 12\r\n\r\nmax_order\t5\n",
        b"hello\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n" + b"X-A: 1\r\n" * 101 +
        b"Content-Length: 12\r\n\r\nmax_order\t5\n",
        b"HTTP/1.1 200 OK\r\nX-Big: " + b"a" * 70000 +
        b"\r\nContent-Length: 12\r\n\r\nmax_order\t5\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\nbad header\r\n\r\n"
        b"max_order\t5\n",
    ], ids=["no-length", "bad-length", "chunked", "two-lengths",
            "garbled-status", "bad-version", "no-status", "header-flood",
            "long-header-line", "header-without-colon"])
    def test_broken_reply_is_a_backend_error(self, raw_server, reply):
        srv = raw_server([(reply, False), (MANIFEST_REPLY, False)])
        remote = RemoteBackend(f"http://127.0.0.1:{srv.port}", timeout=5)
        with pytest.raises(BackendError, match="/v1/manifest"):
            remote.manifest()
        # The client closed the connection and opens a new one.
        assert remote.manifest() == {"max_order": "5"}
        assert (srv.accepted, srv.client_closes) == (2, 1)
        remote.close()

    def test_body_cut_short_by_a_close(self, raw_server):
        srv = raw_server([
            (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n7\n", True),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n7\n", False)])
        remote = RemoteBackend(f"http://127.0.0.1:{srv.port}", timeout=5)
        remote._max_order = 5  # no manifest request
        with pytest.raises(BackendError, match="cut short"):
            remote.ngram_count([["shows"]])
        assert remote.ngram_count([["shows"]]) == [7]
        assert srv.accepted == 2
        remote.close()

    def test_connection_close_reply_makes_the_next_call_reconnect(
            self, raw_server):
        # The server leaves the connection open: the client must close
        # it on the header alone, and not send its next request there.
        closing = MANIFEST_REPLY.replace(b"\r\n\r\n",
                                         b"\r\nConnection: close\r\n\r\n")
        srv = raw_server([(closing, False), (MANIFEST_REPLY, False),
                          (MANIFEST_REPLY, False)])
        remote = RemoteBackend(f"http://127.0.0.1:{srv.port}", timeout=5)
        for _ in range(3):
            assert remote.manifest() == {"max_order": "5"}
        assert (srv.accepted, srv.client_closes) == (2, 1)
        remote.close()

    def test_server_closing_an_idle_connection_is_retried_once(
            self, raw_server):
        # The server closes after its reply without saying so: the next
        # request finds the kept connection closed and goes out again on
        # a new one.
        srv = raw_server([(MANIFEST_REPLY, True), (MANIFEST_REPLY, False)])
        remote = RemoteBackend(f"http://127.0.0.1:{srv.port}", timeout=5)
        assert remote.manifest() == {"max_order": "5"}
        assert remote.manifest() == {"max_order": "5"}
        assert srv.accepted == 2
        assert len(srv.heads) == 2
        remote.close()

    def test_request_head(self, raw_server):
        srv = raw_server([(MANIFEST_REPLY, False),
                          (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n"
                           b"7\n", False)])
        remote = RemoteBackend(f"http://127.0.0.1:{srv.port}/prefix/")
        assert remote.ngram_count([["shows"]]) == [7]
        remote.close()
        assert srv.heads == [
            b"GET /prefix/v1/manifest HTTP/1.1\r\n"
            b"Host: 127.0.0.1:%d\r\n" % srv.port,
            b"POST /prefix/v1/ngram HTTP/1.1\r\n"
            b"Host: 127.0.0.1:%d\r\n"
            b"Content-Type: text/plain; charset=utf-8\r\n"
            b"Content-Length: 6\r\n" % srv.port]

    def test_ipv6_netloc(self, raw_server):
        try:
            srv = raw_server([(MANIFEST_REPLY, False)], host="::1",
                             family=socket.AF_INET6)
        except OSError:
            pytest.skip("no IPv6 loopback")
        remote = RemoteBackend(f"http://[::1]:{srv.port}")
        assert remote.manifest() == {"max_order": "5"}
        remote.close()
        assert srv.heads[0].split(b"\r\n")[1] == b"Host: [::1]:%d" % srv.port

    @pytest.mark.parametrize("url,address", [
        ("http://127.0.0.1", ("127.0.0.1", 80)),
        ("https://127.0.0.1/", ("127.0.0.1", 443)),
        ("http://[::1]", ("::1", 80)),
        ("https://Example.COM:8443/base", ("example.com", 8443)),
    ])
    def test_default_ports(self, monkeypatch, url, address):
        tried = []

        def create_connection(addr, timeout):
            tried.append(addr)
            raise ConnectionRefusedError("refused")

        monkeypatch.setattr(service.socket, "create_connection",
                            create_connection)
        with pytest.raises(BackendError, match="refused"):
            RemoteBackend(url).manifest()
        assert tried == [address]

    @pytest.mark.parametrize("url", [
        "http://", "http:///v1", "http://host/a b", "http://host/\x00",
        "http://host:99999", "http://host:port"])
    def test_url_that_cannot_be_sent_rejected(self, url):
        with pytest.raises(ValueError):
            RemoteBackend(url)


def test_refusals_leave_the_accepting_thread_free(worked_index,
                                                  monkeypatch):
    """Refused clients that stay silent and open neither delay the 503s
    of others nor a freed worker's next client."""
    monkeypatch.setattr(service, "MAX_WORKERS", 2)
    srv = _Server(worked_index)
    manifest = worked_index.manifest.to_tsv()
    held, silent = [], []
    try:
        for _ in range(2):  # each holds a worker
            sock = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=5)
            held.append((sock, sock.makefile("rb")))
            sock.sendall(GET_MANIFEST + b"\r\n")
            assert read_reply(held[-1][1])[::2] == (200, manifest)
        for _ in range(3):  # refused; they send nothing and stay open
            start = time.monotonic()
            sock = socket.create_connection(("127.0.0.1", srv.port),
                                            timeout=5)
            silent.append((sock, sock.makefile("rb")))
            assert read_reply(silent[-1][1])[0] == 503
            assert time.monotonic() - start < 0.5 * service.REFUSAL_LINGER_S
        sock, rfile = held.pop()
        rfile.close()
        sock.close()
        deadline = time.monotonic() + 5
        while True:  # until the closed connection's worker has ended
            remote = RemoteBackend(srv.url)
            start = time.monotonic()
            try:
                remote.manifest()
                break
            except BackendError as exc:
                assert "HTTP 503" in str(exc)
            finally:
                remote.close()
                assert time.monotonic() - start < \
                    0.5 * service.REFUSAL_LINGER_S
            assert time.monotonic() < deadline, "no worker was freed"
            time.sleep(0.01)
    finally:
        for sock, rfile in held + silent:
            rfile.close()
            sock.close()
        srv.stop()
