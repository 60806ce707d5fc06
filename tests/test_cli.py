import os
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from asrspell import load_index
from asrspell.cli import main
from tests.conftest import (EXTRA_VOCAB, WORKED_ERROR_TEXT, WORKED_SENTENCE)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join([WORKED_SENTENCE] * 7 + [EXTRA_VOCAB]) + "\n",
                    encoding="utf-8")
    return path


@pytest.fixture()
def index_dir(tmp_path, corpus_file):
    out = tmp_path / "index"
    assert main(["build-index", "--corpus", str(corpus_file),
                 "--out", str(out)]) == 0
    return out


def test_build_index_writes_layout(index_dir):
    names = sorted(p.name for p in index_dir.iterdir())
    assert names == ["1gram.tsv", "2gram.bin", "2gram.tsv", "3gram.bin",
                     "3gram.tsv", "4gram.bin", "4gram.tsv", "5gram.bin",
                     "5gram.tsv", "manifest.tsv"]


def test_corpus_name_with_tab_and_line_ends_builds_a_loadable_index(
        tmp_path, corpus_file):
    # The corpus id comes from the file name; the manifest cannot hold a
    # tab or a line end.
    named = tmp_path / "a\tb\rc\nd.txt"
    named.write_bytes(corpus_file.read_bytes())
    out = tmp_path / "index"
    assert main(["build-index", "--corpus", str(named),
                 "--out", str(out)]) == 0
    assert load_index(out).manifest.corpus_id == "a b c d.txt"
    src = tmp_path / "asr.txt"
    src.write_text(WORKED_ERROR_TEXT, encoding="utf-8")
    assert main(["correct", "--index", str(out), "--in", str(src),
                 "--out", str(tmp_path / "out.txt")]) == 0


def test_correct_clean_text_identity(tmp_path, index_dir):
    src = tmp_path / "clean.txt"
    out = tmp_path / "out.txt"
    src.write_text(WORKED_SENTENCE, encoding="utf-8")
    assert main(["correct", "--index", str(index_dir), "--in", str(src),
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == WORKED_SENTENCE


def test_correct_worked_example(tmp_path, index_dir, capsys):
    src = tmp_path / "asr.txt"
    out = tmp_path / "out.txt"
    src.write_text(WORKED_ERROR_TEXT, encoding="utf-8")
    assert main(["correct", "--index", str(index_dir), "--in", str(src),
                 "--out", str(out)]) == 0
    assert "favorite shows" in out.read_text(encoding="utf-8")
    decision_lines = capsys.readouterr().out.strip().splitlines()
    assert len(decision_lines) == 1
    pos, token, kind, chosen, order = decision_lines[0].split("\t")
    assert (pos, token, kind, chosen, order) == \
        ("5", "shaws", "nonword", "shows", "5")


def test_inject_correct_evaluate_loop(tmp_path, index_dir, capsys):
    reference = tmp_path / "ref.txt"
    reference.write_text("\n".join([WORKED_SENTENCE] * 10), encoding="utf-8")
    corrupted = tmp_path / "bad.txt"
    truth = tmp_path / "truth.tsv"
    assert main(["inject", "--index", str(index_dir),
                 "--in", str(reference), "--out", str(corrupted),
                 "--ground-truth", str(truth),
                 "--nonword-rate", "0.2", "--seed", "4"]) == 0
    fixed = tmp_path / "fixed.txt"
    assert main(["correct", "--index", str(index_dir), "--in",
                 str(corrupted), "--out", str(fixed)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--reference", str(reference),
                 "--corrupted", str(corrupted), "--corrected", str(fixed),
                 "--ground-truth", str(truth)]) == 0
    report = dict(line.split("\t")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert int(report["total_errors"]) > 0
    assert report["corrected"] == report["total_errors"]
    assert float(report["residual_error_rate"]) == 0.0


def test_usage_error_exits_1(capsys):
    assert main(["correct", "--index"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_runtime_error_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["correct", "--index", str(missing), "--in",
                 str(tmp_path / "x"), "--out", str(tmp_path / "y")]) == 2


def test_bad_rate_exits_2(tmp_path, index_dir):
    src = tmp_path / "t.txt"
    src.write_text("hello", encoding="utf-8")
    assert main(["inject", "--index", str(index_dir), "--in", str(src),
                 "--out", str(tmp_path / "o"), "--ground-truth",
                 str(tmp_path / "g"), "--nonword-rate", "1.5"]) == 2


@pytest.mark.parametrize("margin", ["5", "nan", "0.5"])
def test_realword_margin_below_one_exits_2(tmp_path, index_dir, capsys,
                                           margin):
    src = tmp_path / "asr.txt"
    src.write_text("watch episodes of your favorite shawls and more",
                   encoding="utf-8")
    out = tmp_path / "out.txt"
    code = main(["correct", "--index", str(index_dir), "--in", str(src),
                 "--out", str(out), "--realword", "on",
                 "--margin", margin])
    err = capsys.readouterr().err
    if margin == "5":
        assert code == 0
        assert "favorite shows" in out.read_text(encoding="utf-8")
    else:
        assert code == 2
        assert f"realword_margin must be >= 1, got {float(margin)}" in err
        assert not out.exists()


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_port_out_of_range_exits_2(index_dir, capsys, port):
    assert main(["serve", "--index", str(index_dir), "--port", port]) == 2
    err = capsys.readouterr().err
    assert (f"asrspell: cannot bind lookup service to 127.0.0.1:{port}: "
            in err)
    assert "Traceback" not in err


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_subprocess_and_remote_correct(tmp_path, index_dir):
    port = _free_port()
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "asrspell", "serve", "--index",
         str(index_dir), "--port", str(port)],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        base = f"http://127.0.0.1:{port}"
        deadline = time.monotonic() + 10
        while True:
            try:
                with urllib.request.urlopen(f"{base}/v1/manifest",
                                            timeout=1) as resp:
                    assert resp.status == 200
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        src = tmp_path / "asr.txt"
        out_remote = tmp_path / "remote.txt"
        out_local = tmp_path / "local.txt"
        src.write_text(WORKED_ERROR_TEXT, encoding="utf-8")
        assert main(["correct", "--backend", base, "--in", str(src),
                     "--out", str(out_remote)]) == 0
        assert main(["correct", "--index", str(index_dir), "--in", str(src),
                     "--out", str(out_local)]) == 0
        assert out_remote.read_bytes() == out_local.read_bytes()
    finally:
        proc.terminate()
        proc.communicate(timeout=10)  # reaps the child, closes its pipes
