#!/usr/bin/env python3
"""asrspell benchmark: seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload local-nonword --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src. With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer ones. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when the run completed and every
check passed, 1 when a check failed (the result is still printed, with
"correct" false), and 2 when it could not run (nothing is printed).
"""
import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "asrspell" / "__init__.py").is_file():
        print(f"perfbench: no asrspell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import asrspell
    if Path(asrspell.__file__).resolve().parent != SRC / "asrspell":
        print(f"perfbench: imported asrspell from {asrspell.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(bench.WORKLOADS)}")
    # One CPU for the benchmark and, by inheritance, its server. With one
    # connection at a time client and server never run at once, and
    # cross-CPU wake-ups made request times vary several-fold between
    # runs on a shared 2-CPU VM.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an exception, so child servers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = bench.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
