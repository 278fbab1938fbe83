"""seidelchain benchmark: seeded closed-loop workloads against the library and CLI.

Usage (from the repository root):

    python3 bench/run.py --workload spectrum_small --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  One caller sends
operations one after another (a closed loop).  A run executes a fixed number
of passes, round(seconds / nominal pass time); before each pass the program
is imported afresh, so module-level caches and import-time work never carry
over from one pass to the next, and that import is not timed.  The timed
set-ups that give ``setup_s`` are spread over the run, one or more before
each pass.  Every result is checked outside the timed region.

The machine the benchmark was tuned on is shared, and its speed moves by up
to 50 % for seconds to minutes at a time.  So between operations, outside
the timed region, the run times a fixed piece of its own work (a speed
probe: Fraction bisection plus building small tuples, like the program's
hot loops).  Every time is scaled by SPEED_REFERENCE_S over the probe time
measured around it: the end-to-end times are what the run would have taken
at the machine speed the benchmark was tuned at.  The report gives the
unscaled figures next to them.

``--trace 0`` runs every pass once and reports the end-to-end metrics.
``--trace 1`` runs every pass twice on the same inputs, untraced and traced,
untraced first on even passes and traced first on odd ones; it checks both,
and reports the per-layer metrics of the traced passes (unscaled), with the
tracing overhead as traced minus untraced timed seconds (scaled).

The last line of stdout is the result object; the line before it, and a file
under ``bench/out/``, hold the full report with the environment it ran in.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 15  # at least this many timed set-ups per run, and at least 1 before each pass
TAIL_PASS_MIN = 200
MAX_RUN_FACTOR = 3  # no pass starts that would end, at the run's pace so far, after this many times
                    # --seconds (twice that in a traced run, which runs every pass twice)
SPEED_EVERY_S = 0.1  # a speed probe before the first op that starts this long after the last probe
# Probe time on the tuning machine (2-core x86 VM, Python 3.11) at its
# faster speed; it only sets the scale of the reported times.
SPEED_REFERENCE_S = 0.0025

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer, TraceError  # noqa: E402

PROGRAM_MODULES = ("chain", "graphs", "intpoly", "spectra", "switching", "families", "tables", "cli")


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


def fresh_import() -> dict:
    """Import seidelchain anew, dropping every module of an earlier import."""
    for name in [m for m in sys.modules if m == "seidelchain" or m.startswith("seidelchain.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"seidelchain.{name}") for name in PROGRAM_MODULES}
    modules["seidelchain"] = sys.modules["seidelchain"]
    return modules


def require_program() -> None:
    if not (SRC / "seidelchain" / "__init__.py").is_file():
        raise BenchError(f"program sources not found: expected {SRC / 'seidelchain'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "loadavg_start": _loadavg(),
    }


def speed_probe() -> float:
    """Seconds a fixed piece of the benchmark's own work takes now."""
    start = time.perf_counter()
    lo, hi, target = Fraction(0), Fraction(2), Fraction(1, 3)
    for _ in range(64):
        mid = (lo + hi) / 2
        if mid * mid * mid - 2 * mid > target:
            hi = mid
        else:
            lo = mid
    [tuple((i ^ j) & 1 for j in range(160)) for i in range(160)]
    return time.perf_counter() - start


def pass_scale(probes: list[tuple[float, float]]) -> float:
    """SPEED_REFERENCE_S over the time-weighted mean probe time of a pass.

    probes holds (perf_counter when taken, probe seconds) in time order.
    Each interval between two probes counts with the mean of its two ends,
    weighted by its length.
    """
    total = weighted = 0.0
    for (t0, p0), (t1, p1) in zip(probes, probes[1:]):
        total += t1 - t0
        weighted += (t1 - t0) * (p0 + p1) / 2
    return SPEED_REFERENCE_S * total / weighted


def timed_setup(workload: str, seed: int, n_passes: int, tiny: bool) -> tuple[float, list]:
    """One set-up; returns (seconds, the inputs of every pass).

    A set-up is a fresh import of seidelchain plus generating every input of
    the run and converting it to program objects.  numpy is loaded with the
    benchmark's own modules, before any set-up, so every set-up does the same
    work.
    """
    gc.collect()
    start = time.perf_counter()
    modules = fresh_import()
    passes = workloads.make_passes(workload, seed, n_passes, tiny)
    for ops in passes:
        workloads.prepare(ops, modules["seidelchain"])
    return time.perf_counter() - start, passes


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least ten samples beyond it.

    With fewer than 100 samples that percentile would fall below the 90th,
    towards the median, so the 90th is taken instead.  Returns (percentile,
    value).
    """
    n = len(samples)
    rank = max(n - 10, -(-9 * n // 10))  # 1-based
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def run_tail(per_pass: list[list[float]]) -> tuple[float, int, float]:
    """(percentile, samples it was taken over, value) of a run's latency tail.

    When every pass holds at least TAIL_PASS_MIN samples, each pass gets its
    own tail and the run reports their median: over a whole run the ten
    samples beyond the tail would be ops that a stall of the machine happened
    to hit, not the slowest inputs.  Otherwise the tail is taken over the run.
    """
    if min(len(xs) for xs in per_pass) >= TAIL_PASS_MIN:
        tails = [tail_percentile(xs) for xs in per_pass]
        return tails[0][0], len(per_pass[0]), statistics.median(value for _pct, value in tails)
    samples = [x for xs in per_pass for x in xs]
    pct, value = tail_percentile(samples)
    return pct, len(samples), value


class Run:
    """Latencies and failures of a run's passes."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.accepted: list[float] = []
        self.refused: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.labels: list[str] = []  # input class of every op id
        self.by_label: dict[str, list[float]] = {}
        self.pass_accepted: list[list[float]] = []  # accepted latencies, per pass
        self.raw_seconds = 0.0  # unscaled timed seconds
        self.scales: list[float] = []  # speed scale of every pass

    def time_pass(self, ops: list, tracer: Tracer | None = None) -> tuple[list[float], list, float]:
        """Run and check one pass on a fresh import.

        Returns the latency of every op, the reason it failed its check
        (None when correct) and the pass's speed scale (see pass_scale).
        Nothing is recorded; see record().
        """
        modules = fresh_import()
        if tracer is not None:
            tracer.install(modules)
        args = workloads.prepare(ops, modules["seidelchain"])
        # Everything alive now is moved out of the collector's reach, and
        # each op starts from an empty young generation: the collections an
        # op triggers depend on the op alone, not on what ran before it.
        gc.collect()
        gc.freeze()
        cli = modules["cli"]
        sc = modules["seidelchain"]
        latencies, reasons = [], []
        # Probes run only right after a collection, so that the garbage of
        # the operation before does not slow them down.
        probes = [(time.perf_counter(), speed_probe())]
        for j, (op, arg) in enumerate(zip(ops, args)):
            result, exc = None, None
            gc.collect()
            if time.perf_counter() - probes[-1][0] >= SPEED_EVERY_S:
                probes.append((time.perf_counter(), speed_probe()))
            if tracer is not None:
                tracer.op_id = len(self.labels) + j
                tracer.active = True
            start = time.perf_counter()
            try:
                result = workloads.execute(op, arg, sc, cli)
            except Exception as err:  # checked below: only cap refusals are expected
                exc = err
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.active = False
            reasons.append(workloads.check(op, result, exc, self.reference))
        result = exc = None
        gc.collect()
        probes.append((time.perf_counter(), speed_probe()))
        gc.unfreeze()
        return latencies, reasons, pass_scale(probes)

    def record(self, ops: list, latencies: list[float], reasons: list, scale: float) -> float:
        """Record one pass's ops at their scaled latencies; returns its scaled timed seconds."""
        accepted = len(self.accepted)
        self.raw_seconds += sum(latencies)
        latencies = [elapsed * scale for elapsed in latencies]
        self.scales.append(scale)
        for op, elapsed, reason in zip(ops, latencies, reasons):
            self.labels.append(op.label)
            self.attempted += 1
            if reason is not None:
                self.failures.append(f"{op.kind} {op.data!r:.120}: {reason}")
            (self.refused if op.refuse else self.accepted).append(elapsed)
            self.by_label.setdefault(op.label, []).append(elapsed)
        self.pass_accepted.append(self.accepted[accepted:])
        return sum(latencies)


def _first_failure(*reason_lists: list) -> list:
    return [next((r for r in rs if r is not None), None) for rs in zip(*reason_lists)]


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False,
                  reference: dict | None = None) -> dict:
    """Run one workload; returns {"result": ..., "report": ...}."""
    require_program()
    env = environment(seed)
    # A traced run times every pass twice, untraced and traced, with as many
    # passes untraced first as traced first.
    repeats = 2 if trace else 1
    n_passes = workloads.passes_for(seconds, workload, tiny, repeats)
    if trace:
        n_passes += n_passes % 2
    setups_per_pass = max(1, -(-SETUP_REPEATS // n_passes))
    setup_samples: list[float] = []
    raw_setup_samples: list[float] = []
    run = Run(reference if reference is not None else workloads.load_cli_reference())
    tracer = Tracer() if trace else None
    wall = untraced_wall = 0.0  # scaled timed seconds; in a traced run, of the traced passes
    start = time.perf_counter()
    passes_run = 0

    def setup(i: int) -> list:
        """The timed set-ups before pass i; returns its inputs."""
        for _ in range(setups_per_pass):
            gc.collect()
            before = speed_probe()
            secs, passes = timed_setup(workload, seed, n_passes, tiny)
            raw_setup_samples.append(secs)
            setup_samples.append(secs * 2 * SPEED_REFERENCE_S / (before + speed_probe()))
        return passes[i]

    for i in range(n_passes):
        # Keeps a run on a much slower machine or commit in time.
        elapsed = time.perf_counter() - start
        if i and elapsed * (i + 1) / i > MAX_RUN_FACTOR * repeats * seconds:
            break
        ops = setup(i)
        passes_run += 1
        if tracer is None:
            wall += run.record(ops, *run.time_pass(ops))
            continue
        if i % 2 == 0:
            plain = run.time_pass(ops)
            traced = run.time_pass(ops, tracer)
        else:
            traced = run.time_pass(ops, tracer)
            plain = run.time_pass(ops)
        untraced_wall += sum(plain[0]) * plain[2]
        wall += sum(traced[0]) * traced[2]
        run.record(ops, traced[0], _first_failure(plain[1], traced[1]), traced[2])
    env["loadavg_end"] = _loadavg()

    completed = run.attempted - len(run.failures)
    report: dict = {
        "workload": workload,
        "seconds": seconds,
        "passes": passes_run,
        "setups": len(setup_samples),
        "unscaled": {
            "setup_s": statistics.median(raw_setup_samples),
            "ops_per_s": completed / run.raw_seconds,
            "speed_scale_per_pass": run.scales,
        },
        "env": env,
        "samples": {"accepted": len(run.accepted), "refused": len(run.refused)},
        "failures": run.failures[:20],
        "latency_ms_by_class": {label: {"samples": len(xs), "p50": round(1000 * statistics.median(xs), 3)}
                                for label, xs in sorted(run.by_label.items())},
    }
    if tracer is None:
        pct, tail_samples, tail = run_tail(run.pass_accepted)
        report["latency_tail"] = {"percentile": round(pct, 3), "samples": tail_samples}
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (completed / wall, "1/s"),
            "latency_p50_ms": (1000 * statistics.median(run.accepted), "ms"),
            "latency_tail_ms": (1000 * tail, "ms"),
            "reject_p50_ms": (1000 * statistics.median(run.refused), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": (completed / run.attempted, "ratio"),
        }
    else:
        tracer.guard(workload)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
        metrics["trace.overhead_ratio"] = ((wall - untraced_wall) / untraced_wall, "ratio")
        report["top_self_s"] = tracer.top_self_times()
        report["top_self_s_by_class"] = tracer.top_self_times_by(run.labels.__getitem__)
        report["spans"] = len(tracer.spans)
        if not tiny:
            spans_path = OUT / f"{workload}-seed{seed}.spans.jsonl.gz"
            tracer.write_spans(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"result": result, "report": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, TraceError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report = dict(out["report"], result=out["result"])
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
