"""Command-line front end.

Subcommands: build-index, correct, inject, evaluate, serve. Machine-readable
output (TSV) goes to stdout or the requested files; human summaries go to
stderr. Exit codes: 0 success, 1 usage error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from asrspell import __version__
from asrspell.backend import BackendError
from asrspell.correct import PipelineConfig, correct_transcript
from asrspell.corrupt import (CorruptionSpec, inject_errors,
                              load_ground_truth, save_ground_truth)
from asrspell.evaluate import evaluate
from asrspell.service import RemoteBackend, serve
from asrspell.store import (MAX_ORDER, IndexFormatError, build_index,
                            load_index, save_index)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asrspell", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index",
                       help="count n-grams of text corpora into an index dir")
    p.add_argument("--corpus", nargs="+", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--max-order", type=int, default=MAX_ORDER)

    p = sub.add_parser("correct",
                       help="detect and correct spelling errors in a text")
    backend = p.add_mutually_exclusive_group(required=True)
    backend.add_argument("--index", metavar="DIR")
    backend.add_argument("--backend", metavar="URL")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--top-k", type=int, default=8)
    p.add_argument("--context", type=int, default=4)
    p.add_argument("--realword", choices=("on", "off"), default="off")
    p.add_argument("--margin", type=float, default=10.0)
    p.add_argument("--no-backoff", action="store_true")

    p = sub.add_parser("inject",
                       help="corrupt a text with seeded synthetic errors")
    p.add_argument("--index", required=True, metavar="DIR")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--ground-truth", required=True, metavar="PATH")
    p.add_argument("--nonword-rate", type=float, default=0.0)
    p.add_argument("--realword-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("evaluate",
                       help="score corrected output against the reference")
    p.add_argument("--reference", required=True, metavar="PATH")
    p.add_argument("--corrupted", required=True, metavar="PATH")
    p.add_argument("--corrected", required=True, metavar="PATH")
    p.add_argument("--ground-truth", required=True, metavar="PATH")

    p = sub.add_parser("serve",
                       help="expose an index over the HTTP lookup protocol")
    p.add_argument("--index", required=True, metavar="DIR")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--bind", default="127.0.0.1")

    return parser


def cmd_build_index(args) -> int:
    # A tab or line end would break the manifest's key<TAB>value lines.
    tables_id = ",".join(Path(p).name for p in args.corpus).translate(
        str.maketrans("\t\r\n", "   "))

    def lines():
        for path in args.corpus:
            with open(path, encoding="utf-8") as f:
                yield from f

    index = build_index(lines(), max_order=args.max_order,
                        corpus_id=tables_id)
    save_index(index, args.out)
    m = index.manifest
    per_order = " ".join(
        f"{k + 1}-grams={n}" for k, n in enumerate(index.distinct_per_order()))
    print(f"indexed {m.token_count} tokens, {m.distinct_unigrams} distinct "
          f"words ({per_order}) -> {args.out}", file=sys.stderr)
    return 0


def _open_backend(args):
    if args.backend:
        return RemoteBackend(args.backend)
    return load_index(args.index)


def cmd_correct(args) -> int:
    backend = _open_backend(args)
    try:
        return _correct(args, backend)
    finally:
        if args.backend:
            backend.close()


def _correct(args, backend) -> int:
    config = PipelineConfig(
        top_k=args.top_k,
        # correct_transcript limits the window to what the backend can
        # answer; a window above any index's is limited here.
        context_window=min(args.context, MAX_ORDER - 1),
        realword_enabled=args.realword == "on",
        realword_margin=args.margin,
        backoff_enabled=not args.no_backoff,
    )
    text = Path(args.infile).read_text(encoding="utf-8")
    result = correct_transcript(text, backend, config)
    Path(args.out).write_text(result.corrected_text, encoding="utf-8")
    changed = 0
    for d in result.decisions:
        chosen = d.chosen if d.chosen is not None else "-"
        if d.chosen is not None and d.chosen != d.error.token:
            changed += 1
        print(f"{d.error.position}\t{d.error.token}\t{d.error.kind.value}"
              f"\t{chosen}\t{d.backoff_order}")
    print(f"{len(result.decisions)} errors detected, {changed} replacements "
          f"-> {args.out}", file=sys.stderr)
    return 0


def cmd_inject(args) -> int:
    index = load_index(args.index)
    spec = CorruptionSpec(nonword_rate=args.nonword_rate,
                          realword_rate=args.realword_rate, seed=args.seed)
    text = Path(args.infile).read_text(encoding="utf-8")
    result = inject_errors(text, index, spec)
    Path(args.out).write_text(result.corrupted_text, encoding="utf-8")
    save_ground_truth(result.records, args.ground_truth)
    print(f"injected {len(result.records)} errors -> {args.out} "
          f"(ground truth: {args.ground_truth})", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    report = evaluate(
        Path(args.reference).read_text(encoding="utf-8"),
        Path(args.corrupted).read_text(encoding="utf-8"),
        Path(args.corrected).read_text(encoding="utf-8"),
        load_ground_truth(args.ground_truth),
    )
    sys.stdout.write(report.to_tsv())
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    index = load_index(args.index)
    server = serve(index, bind_address=args.bind, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving index {args.index} on http://{host}:{port}",
          file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


_COMMANDS = {
    "build-index": cmd_build_index,
    "correct": cmd_correct,
    "inject": cmd_inject,
    "evaluate": cmd_evaluate,
    "serve": cmd_serve,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help / --version
            return 0
        print(exc.code, file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, IndexFormatError, BackendError) as exc:
        print(f"asrspell: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
