#!/usr/bin/env python3
"""Paired benchmark runs of a parent ref against the working tree.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD --workload spectrum_small --pairs 10 --seconds 16

The committed files of the parent ref are exported with ``git archive`` into
a fresh temporary directory, as a benchmark of a commit sees them.  For each
pair i = 1 .. N, ``bench/run.py --workload W --seed s --seconds S --trace 0``
runs once in that directory and once in the working tree, one after the
other, the parent first on even i, so that a drift of the machine's speed
does not always favour one side.  The seed s is i, or i - 1 + --first-seed
for seeds not used while a change was written.  Each run's last stdout line
is its result object.

For every end-to-end metric of BENCHMARK.json the report gives the parent's
and the change's medians, the parent's quartiles, and the number of pairs
the change won in the metric's ``better`` direction.  ``gain`` marks a
metric whose change won at least nine tenths of the pairs, by a median
difference larger than the parent's interquartile range; ``worse`` marks a
median worse than the parent's by more than the metric's bound.  The
temporary directory is removed at the end; the working tree's runs leave
their reports under bench/out/ as usual.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export_ref(ref: str, dest: Path, *paths: str) -> None:
    """Write the committed files of ref into dest, only those under paths when
    any are given."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref, *paths],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result object of one untraced benchmark run in tree."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result.get("correct", False) or result.get("failed", 0):
        raise SystemExit(f"{workload} seed {seed} in {tree} was not correct: {result}")
    return result["metrics"]


def summarize(metric: dict, parent: list[float], change: list[float]) -> str:
    """One report line for a metric's paired values."""
    higher = metric["better"] == "higher"
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _q2, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
    better_by = (c_med - p_med) if higher else (p_med - c_med)
    marks = []
    if won >= math.ceil(0.9 * len(parent)) and better_by > q3 - q1:
        marks.append("gain")
    bound = metric.get("bound")
    if bound is not None and p_med and -better_by > bound * abs(p_med):
        marks.append("worse")
    rel = f"{(c_med / p_med - 1):+.1%}" if p_med else "n/a"
    return (f"{metric['name']:<16} parent {p_med:.6g} [{q1:.6g}, {q3:.6g}]  change {c_med:.6g} ({rel})"
            f"  won {won}/{len(parent)}  {' '.join(marks)}").rstrip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref to compare the working tree against")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload of bench/workloads.py; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--first-seed", type=int, default=1, help="the seed of pair 1")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_tree = Path(tmp)
        export_ref(args.parent, parent_tree)
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(1, args.pairs + 1):
                seed = pair - 1 + args.first_seed
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    tree = parent_tree if side == "parent" else ROOT
                    runs[side].append(run_once(tree, workload, seed, args.seconds))
                parent_ops, change_ops = (runs[side][-1]["ops_per_s"]["value"] for side in ("parent", "change"))
                print(f"{workload} pair {pair} (seed {seed}): ops_per_s parent {parent_ops:.6g} change {change_ops:.6g}",
                      file=sys.stderr)
            print(f"{workload}: {args.pairs} pairs of {args.seconds} s, seeds {args.first_seed}.."
                  f"{args.first_seed + args.pairs - 1}, parent {args.parent} against the working tree")
            for metric in metrics:
                name = metric["name"]
                if not all(name in r for r in runs["parent"] + runs["change"]):
                    print(f"  {name:<16} not reported")
                    continue
                parent = [r[name]["value"] for r in runs["parent"]]
                change = [r[name]["value"] for r in runs["change"]]
                print("  " + summarize(metric, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
