import logging
import random
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from asrspell import (BackendError, PipelineConfig, RemoteBackend,
                      build_index, char_bigrams, correct_transcript,
                      generate_candidates, serve)
from asrspell.service import POSTINGS_CAP
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


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.status, resp.read().decode("utf-8")


class TestProtocol:
    def test_ngram_count_body(self, base_url):
        status, body = fetch(
            f"{base_url}/v1/ngram?q=episodes+of+your+favorite+shows")
        assert (status, body) == (200, "7\n")

    def test_oov_unigram_is_zero(self, base_url):
        status, body = fetch(f"{base_url}/v1/unigram?q=shaws")
        assert (status, body) == (200, "0\n")

    def test_known_unigram(self, base_url):
        assert fetch(f"{base_url}/v1/unigram?q=shows") == (200, "7\n")

    def test_six_tokens_rejected(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{base_url}/v1/ngram?q=a+b+c+d+e+f")
        assert err.value.code == 400

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
        "/v1/unigram", "/v1/unigram?q=", "/v1/unigram?q=two+words",
        "/v1/postings?q=abc", "/v1/postings?q=a", "/v1/ngram?q=",
        "/v1/ngram?q=a++b",
    ])
    def test_malformed_queries_get_400_with_reason(self, base_url, path):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(base_url + path)
        assert err.value.code == 400
        assert err.value.read().decode().strip()

    def test_unknown_endpoint_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{base_url}/v2/everything")
        assert err.value.code == 404

    def test_repeated_queries_identical(self, base_url):
        bodies = {fetch(f"{base_url}/v1/ngram?q=favorite+shows")[1]
                  for _ in range(5)}
        assert bodies == {"7\n"}

    def test_concurrent_requests(self, base_url):
        results = []

        def hit():
            results.append(fetch(f"{base_url}/v1/unigram?q=shows"))

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
        for q in queries:
            assert remote.ngram_count(q) == worked_index.ngram_count(q)
        for gram in ["aw", "sh", "ws", "zq"]:
            assert remote.unigrams_containing_bigram(gram) == \
                worked_index.unigrams_containing_bigram(gram)

    def test_candidates_match_local(self, remote, worked_index):
        assert generate_candidates("shaws", remote, k=8).ranked == \
            generate_candidates("shaws", worked_index, k=8).ranked

    def test_order_validation_mirrors_local(self, remote):
        with pytest.raises(ValueError):
            remote.ngram_count(["a"] * 6)

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
        fetch(f"{base_url}/v1/unigram?q=shows")
    assert '127.0.0.1 "GET /v1/unigram?q=shows HTTP/1.1" 200 -' in \
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
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(f"{base_url}/v1/candidates?{query}")
        assert err.value.code == 400
        assert err.value.read().decode().strip()


class TestConnections:
    def test_lookups_share_one_connection(self, counted, fresh,
                                          worked_index):
        for _ in range(20):
            assert fresh.ngram_count(["favorite", "shows"]) == 7
            assert fresh.unigram_exists("haws")
            assert fresh.unigrams_containing_bigram("aw") == \
                worked_index.unigrams_containing_bigram("aw")
            assert generate_candidates("shaws", fresh).ranked == \
                generate_candidates("shaws", worked_index).ranked
        assert len(counted.accepted) == 1

    def test_connection_survives_a_400(self, counted, fresh):
        assert fresh.ngram_count(["shows"]) == 7
        with pytest.raises(ValueError, match="rejected query"):
            fresh.rank_by_shared_bigrams(["abc"], k=3)
        with pytest.raises(ValueError, match="rejected query"):
            fresh.rank_by_shared_bigrams(["aw"], k=0)
        assert fresh.ngram_count(["favorite", "shows"]) == 7
        assert len(counted.accepted) == 1

    def test_restarted_server_is_reached_again(self, worked_index):
        first = _Server(worked_index)
        remote = RemoteBackend(first.url)
        assert remote.ngram_count(["shows"]) == 7
        first.stop()
        second = _Server(worked_index, port=first.port)
        try:
            assert remote.ngram_count(["shows"]) == 7
            assert remote.ngram_count(["favorite", "shows"]) == 7
            assert len(second.accepted) == 1
        finally:
            second.stop()
        # Nothing listens any more: a fault, never a zero count.
        with pytest.raises(BackendError):
            remote.ngram_count(["shows"])
        with pytest.raises(BackendError):
            remote.rank_by_shared_bigrams(["aw"], k=3)
        remote.close()

    def test_threads_share_one_backend(self, counted, fresh,
                                       worked_index):
        words = sorted(worked_index.vocab) + ["shaws", "hwas", "qq"]
        expected = {w: (worked_index.ngram_count([w]),
                        generate_candidates(w, worked_index).ranked)
                    for w in words}
        results, errors = [], []

        def work(offset):
            try:
                for i in range(40):
                    w = words[(offset + i) % len(words)]
                    results.append(
                        (w, (fresh.ngram_count([w]),
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

    def test_client_reset_leaves_no_traceback(self, counted, capfd, caplog):
        caplog.set_level(logging.DEBUG, logger="asrspell.service")
        with socket.create_connection(("127.0.0.1", counted.port)) as sock:
            sock.sendall(b"GET /v1/unigram?q=shows HTTP/1.1\r\n"
                         b"Host: test\r\n\r\n")
            reply = b""
            while not reply.endswith(b"\r\n\r\n7\n"):
                chunk = sock.recv(4096)
                assert chunk, f"connection closed after {reply!r}"
                reply += chunk
            # Half of the next request, then a reset instead of a FIN.
            sock.sendall(b"GET /v1/ngram?q=favor")
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
