#!/usr/bin/env python3
"""In-process paired timing of a parent ref's spectrum path against the working tree.

Usage (from the repository root):

    python3 tools/inproc_pairs.py --parent HEAD --workload spectrum_small

The parent ref's ``src/seidelchain`` is exported with ``git archive`` into a
fresh temporary directory (tools/bench_pairs.py's export_ref) and renamed
``seidelchain_parent`` (the package imports itself only relatively, so the
rename is all it takes), and both packages are imported side by side into
this one process.  The inputs are the non-refused spectrum operations of
three passes of the workload (bench/workloads.py, seed 1), each side's
``BlockString`` built once.  Before any timing, the sha256 over ``serialize()`` of every spectrum
is taken on both sides; when the digests differ nothing is reported and the
exit status is 1.

Each of --rounds rounds runs ``exact_spectrum`` on every input once per
side, input by input, the two sides taking each input in turn (the parent
first on even inputs of even rounds and odd inputs of odd rounds), after
one garbage collection; each call is timed alone.  The report gives each
side's median time per pass, the median of the per-round ratios change /
parent, and the rounds the change won.  A shared machine's speed can
change between two processes and within a run, so runs in separate
processes (tools/bench_pairs.py) cannot resolve a change of a percent or
two; calls of both sides taken in turn in one process see the same speed.
Nothing under bench/ is changed or run: only its input generator is read.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import ROOT, export_ref

PARENT_PACKAGE = "seidelchain_parent"
PASSES = 3
SEED = 1


def export_package(ref: str, dest: Path) -> None:
    """Write ref's src/seidelchain into dest / PARENT_PACKAGE."""
    export_ref(ref, dest, "src/seidelchain")
    (dest / "src" / "seidelchain").rename(dest / PARENT_PACKAGE)


def spectrum_inputs(workload: str) -> list:
    """The block tuples of the non-refused spectrum operations of the passes."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    if workload not in workloads.NAMES:
        raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(workloads.NAMES)}")
    ops = [op for ops in workloads.make_passes(workload, SEED, PASSES) for op in ops]
    data = [op.data for op in ops if op.kind == "spectrum" and not op.refuse]
    if not data:
        raise SystemExit(f"{workload} has no spectrum operations to time")
    return data


def digest(package, strings) -> str:
    """sha256 over serialize() of every spectrum, one JSON line each."""
    h = hashlib.sha256()
    for b in strings:
        h.update(json.dumps(package.exact_spectrum(b).serialize()).encode() + b"\n")
    return h.hexdigest()


def timed_round(packages: dict, strings: dict, first: int) -> dict[str, float]:
    """Seconds each side takes for every spectrum once, the two sides taking
    each input in turn, side `first` of ("parent", "change") first on the
    even inputs."""
    order = ("parent", "change")
    calls = {side: (packages[side].exact_spectrum, strings[side]) for side in order}
    total = dict.fromkeys(order, 0.0)
    clock = time.perf_counter
    gc.collect()
    for j in range(len(strings["parent"])):
        for side in (order if (j + first) % 2 == 0 else order[::-1]):
            exact_spectrum, inputs = calls[side]
            b = inputs[j]
            start = clock()
            exact_spectrum(b)
            total[side] += clock() - start
    return total


def compare(args: argparse.Namespace, data: list, sides: dict) -> int:
    """Check that both sides give the same spectra, then time and report them."""
    strings = {side: [package.BlockString(blocks) for blocks in data] for side, package in sides.items()}
    digests = {side: digest(package, strings[side]) for side, package in sides.items()}
    if digests["parent"] != digests["change"]:
        print(f"refused: the spectra differ (sha256 parent {digests['parent']}, change {digests['change']})",
              file=sys.stderr)
        return 1
    seconds: dict[str, list[float]] = {"parent": [], "change": []}
    for r in range(args.rounds):
        for side, t in timed_round(sides, strings, r).items():
            seconds[side].append(t / PASSES)
    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    won = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    print(f"{args.workload}: {len(data)} spectra in {PASSES} passes (seed {SEED}), "
          f"{args.rounds} rounds, parent {args.parent} against the working tree; sha256 {digests['change']}")
    for side in ("parent", "change"):
        print(f"  {side:<6} median {statistics.median(seconds[side]) * 1e3:.2f} ms per pass")
    print(f"  median paired ratio change / parent {statistics.median(ratios):.3f}, "
          f"change faster in {won} of {args.rounds} rounds")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref to compare the working tree against")
    parser.add_argument("--workload", required=True, help="spectrum_small or spectrum_large")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    data = spectrum_inputs(args.workload)
    # The parent's files stay on disk while its package is in use.
    with tempfile.TemporaryDirectory(prefix="inproc_pairs_") as tmp:
        export_package(args.parent, Path(tmp))
        sys.path[:0] = [tmp, str(ROOT / "src")]
        sides = {"parent": importlib.import_module(PARENT_PACKAGE),
                 "change": importlib.import_module("seidelchain")}
        return compare(args, data, sides)


if __name__ == "__main__":
    sys.exit(main())
