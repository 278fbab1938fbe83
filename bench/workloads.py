"""Seeded workloads of the seidelchain benchmark: inputs, operations, checks.

A workload is a list of passes.  Every pass has the same composition (the
same number of operations of each class), so runs on different seeds do the
same kind of work; the seed only chooses the concrete inputs.  Inputs are
plain Python data (block tuples, strings, argv lists), so they outlive the
fresh import of the program that precedes each pass.

Each operation is an ``Op``: ``refuse`` marks an input the program must turn
down at one of its documented caps.  ``execute`` runs one operation against a
freshly imported program; ``check`` decides, outside the timed region,
whether its result is correct.  A check returns ``None`` when the result is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CLI_REFERENCE = HERE / "cli_reference.json"

# Workloads in the order BENCHMARK.json lists them.
NAMES = ("spectrum_small", "spectrum_large", "cli_mix", "oracle_crosscheck")

# Wall time of one pass at the benchmark's commit on a shared 2-core x86
# virtual machine (Python 3.11, numpy 2.4).  A run that runs every pass R
# times executes round(seconds / (R * this)) passes, so the number of samples,
# and with it the tail percentile, is the same on every commit and a faster
# program finishes its run sooner.
NOMINAL_PASS_SECONDS = {
    "spectrum_small": 3.5,
    "spectrum_large": 3.1,
    "cli_mix": 8.3,
    "oracle_crosscheck": 10.0,
}


@dataclass(frozen=True)
class Op:
    """One operation: kind is "spectrum", "oracle" or "cli"; label is its input class."""

    kind: str
    data: object
    label: str
    refuse: bool = False


# ---------------------------------------------------------------------------
# Input generation.  The order of input classes within a pass is fixed: an
# operation's latency depends on the allocator state the previous one left
# behind, so a seeded order would add variance between seeds.
# ---------------------------------------------------------------------------

def random_blocks(rng: random.Random, k: int, n: int) -> tuple[tuple[int, int], ...]:
    """A uniformly cut block string with k blocks on n vertices."""
    cuts = sorted(rng.sample(range(1, n), 2 * k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple((parts[2 * i], parts[2 * i + 1]) for i in range(k))


def caret(blocks) -> str:
    parts = []
    for s, t in blocks:
        parts.append("0" if s == 1 else f"0^{s}")
        parts.append("1" if t == 1 else f"1^{t}")
    return " ".join(parts)


def _oversized_blocks(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    """k = 129 blocks: quotient order 258, just above the exact-spectrum cap of 256."""
    return random_blocks(rng, 129, n)


def _spread_in(ops: list[Op], extra: list[Op]) -> list[Op]:
    """Interleave extra ops evenly among ops, at positions the same on every seed."""
    out: list[Op] = []
    for i, op in enumerate(ops):
        out.append(op)
        due = (i + 1) * len(extra) // len(ops)
        out.extend(extra[len(out) - i - 1:due])
    return out


def criterion4_slots(count: int) -> list[tuple[int, int]]:
    """(k, n) of `count` strings spread evenly over the criterion-4 distribution.

    k runs through 1..6 in turn, and for each k the values of n are evenly
    spaced over 2k..60, so every pass has the same mix of sizes and the seed
    only chooses where the blocks are cut.  A pass of randomly drawn (k, n)
    costs up to 15 % more or less from one seed to the next.
    """
    per_k = [len(range(k - 1, count, 6)) for k in range(1, 7)]
    slots = []
    for j in range(count):
        k, i = 1 + j % 6, j // 6
        span = 61 - 2 * k
        slots.append((k, 2 * k + (2 * i + 1) * span // (2 * per_k[k - 1])))
    return slots


def _spectrum_small_pass(rng: random.Random, side: random.Random, tiny: bool) -> list[Op]:
    ops = [Op("spectrum", random_blocks(rng, k, n), "criterion4")
           for k, n in criterion4_slots(10 if tiny else 500)]
    refusals = [Op("spectrum", _oversized_blocks(side, 320), "over_cap", refuse=True)
                for _ in range(1 if tiny else 30)]
    return _spread_in(ops, refusals)


# (k, n) slots of one spectrum_large pass: quotient order 16..32 with n up to
# 2*10^4, then few-block strings with n = 10^5..10^6.  Cost at a fixed (k, n)
# barely depends on the cut, so every seed does the same amount of work.
_LARGE_K_SLOTS = ((8, 20_000), (8, 20_000), (8, 20_000), (10, 2_000), (10, 2_000),
                  (12, 500), (12, 500), (14, 100), (16, 64))


def _spectrum_large_pass(rng: random.Random, side: random.Random, tiny: bool) -> list[Op]:
    if tiny:
        ops = [Op("spectrum", random_blocks(rng, 8, 200), "k8_n200"),
               Op("spectrum", ((rng.randint(9_000, 10_000), 1),), "0^n_1")]
    else:
        ops = [Op("spectrum", random_blocks(rng, k, n), f"k{k}_n{n}") for k, n in _LARGE_K_SLOTS]
        ops.append(Op("spectrum", ((999_999, 1),), "0^n_1"))
        ops += [Op("spectrum", random_blocks(rng, 2, n), "k2_n1e5-3e5") for n in (100_000, 300_000)]
    refusals = [Op("spectrum", _oversized_blocks(side, 20_000), "over_cap", refuse=True)
                for _ in range(1 if tiny else 24)]
    return _spread_in(ops, refusals)


# Vertex counts of one oracle_crosscheck pass.  The 20 of 27 at n = 525 hold
# the median, and the tail percentile of a two-pass run falls among the 12
# samples at n = 700, not on the largest of a few.  The refused class exceeds
# numeric_spectrum's cap of 2000 vertices, which is checked only after the
# O(n^2) graph and Seidel matrix are built.
_ORACLE_N = ((525,) * 10 + (700,) * 3) * 2 + (2000,)
_ORACLE_REFUSE_N = 2001


def _few_block_text(rng: random.Random, n: int) -> str:
    k = rng.randint(1, 3)
    return caret(random_blocks(rng, k, n))


def _oracle_pass(rng: random.Random, side: random.Random, tiny: bool) -> list[Op]:
    sizes = (50, 100) if tiny else _ORACLE_N
    ops = [Op("oracle", _few_block_text(rng, n), f"n{n}") for n in sizes]
    refusals = [Op("oracle", _few_block_text(side, _ORACLE_REFUSE_N), "over_cap", refuse=True)
                for _ in range(1 if tiny else 4)]
    return _spread_in(ops, refusals)


# ---------------------------------------------------------------------------
# cli_mix: every pass runs the same commands in the same order; the seed picks
# the output format of each, which changes only the rendering.  Reference
# results for every command in every format were recorded at the benchmark's
# commit.  No command's output contains `interval:` values, whose rendering is
# due to change.  "threads" commands run with --threads min(2, nproc); their
# output does not depend on the thread count.
# ---------------------------------------------------------------------------

FORMATS = ("text", "json", "csv")
# Commands whose JSON fields must be compared on every pass, and the one that
# lists 1000 witnesses: its peak memory depends on the format.
JSON_ONLY = ("json",)

# (input class, command without --format, formats the seed picks from).  The
# classes are far apart in cost: 9 accepted commands cost less than 110 ms,
# the 10 of switch_15 100..140 ms, and 8 more than 180 ms, so the median
# accepted latency falls inside switch_15, and the median refusal inside
# refuse_mid (9 of 11).  These classes run each command more than once,
# because a median of few samples of 0.1 s operations follows the machine's
# sub-second changes of speed.  The slowest, switch_18 and
# equivalent_iso_16, are 2 of every 27 accepted commands, and the next
# slowest is one switch_17 search run twice, so the tail percentile (see
# run.tail_percentile) falls among the samples of that one command, not
# between two commands or on the one that starts worker processes.
_SWITCH_15 = (
    ("switch_15", ("switch-search", "0 1^5 0^5 1^4", "--profile", "regular"), JSON_ONLY),
    ("switch_15", ("switch-search", "0 1^5 0^5 1^4", "--profile", "biregular:7,8", "--all"), JSON_ONLY),
    ("switch_15", ("switch-search", "0^2 1^4 0^4 1^5", "--profile", "biregular:7,8"), FORMATS),
    ("switch_15", ("switch-search", "0^3 1^3 0^3 1^3 0 1^2", "--profile", "regular", "--all"), FORMATS),
    ("switch_15", ("switch-search", "0^4 1^4 0^3 1^4", "--profile", "biregular:6,8"), FORMATS),
)
_REFUSE_MID = (
    ("refuse_mid", ("switch-search", "0^999 1", "--profile", "regular"), FORMATS),
    ("refuse_mid", ("switch-search", "0^999 1", "--profile", "biregular:3,4"), FORMATS),
    ("refuse_mid", ("switch-search", "0^999 1", "--profile", "regular", "--all"), FORMATS),
)
_SWITCH_17 = ("switch-search", "0^3 1^4 0^4 1^3 0 1^2", "--profile", "regular")
CLI_PASS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("misc", ("spectrum", "0 1^5 0^5 1^4"), FORMATS),
    ("misc", ("quotient", "0 1^3 0^3 1^7"), FORMATS),
    ("misc", ("equiangular", "0^2 1^4 0^4 1^2"), FORMATS),
    ("misc", ("cospectral", "--r", "5"), FORMATS),
    ("misc", ("integral", "--family", "F5", "--r", "3"), FORMATS),
    ("equivalent_plain", ("equivalent", "0^2 1^5 0^5 1^4", "0^2 1^4 0^5 1^5", "--mode", "plain"), FORMATS),
    ("verify_tables", ("verify-tables",), FORMATS),
    ("refuse_small", ("switch-search", "0^499 1", "--profile", "regular"), JSON_ONLY),
    ("integral_scan", ("integral", "--scan", "150"), FORMATS),
    ("equivalent_iso_small", ("equivalent", "0^2 1^3 0^3 1^4", "0^3 1^3 0^2 1^4", "--mode", "iso"), FORMATS),
) + (_SWITCH_15 + _REFUSE_MID) * 2 + _REFUSE_MID + (
    ("switch_16", ("switch-search", "0^4 1^4 0^4 1^4", "--profile", "regular"), FORMATS),
    ("switch_16", ("switch-search", "0 1^3 0^4 1^3 0^2 1^3", "--profile", "biregular:7,9", "--all"), FORMATS),
    ("switch_16", ("switch-search", "0^3 1^5 0^3 1^5", "--profile", "biregular:7,8"), FORMATS),
    ("switch_17", _SWITCH_17, FORMATS),
    ("switch_17", _SWITCH_17, FORMATS),
    ("equivalent_iso_16", ("equivalent", "0^4 1^4 0^4 1^4", "0^4 1^4 0^3 1^5", "--mode", "iso"), JSON_ONLY),
    ("switch_18", ("switch-search", "0^3 1^6 0^6 1^3", "--profile", "regular"), FORMATS),
    ("switch_17_threads", _SWITCH_17, FORMATS),
    ("refuse_high", ("switch-search", "0^1999 1", "--profile", "regular"), FORMATS),
)
CLI_TINY_CLASSES = ("misc", "equivalent_plain", "verify_tables", "refuse_small", "integral_scan",
                    "equivalent_iso_small", "switch_15")
CLI_THREAD_CLASSES = ("switch_17_threads",)


def cli_commands(tiny: bool = False) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """The commands of one pass; a tiny pass runs the first command of a few cheap classes."""
    if not tiny:
        return list(CLI_PASS)
    firsts = {}
    for entry in CLI_PASS:
        if entry[0] in CLI_TINY_CLASSES:
            firsts.setdefault(entry[0], entry)
    return list(firsts.values())


def with_format(fmt: str, command) -> tuple[str, ...]:
    return ("--format", fmt) + tuple(command)


def cli_key(argv) -> str:
    return json.dumps(list(argv))


def cli_argv(cls: str, argv) -> list[str]:
    if cls in CLI_THREAD_CLASSES:
        return ["--threads", str(min(2, os.cpu_count() or 1))] + list(argv)
    return list(argv)


def _cli_pass(rng: random.Random, side: random.Random, tiny: bool) -> list[Op]:
    return [Op("cli", with_format(rng.choice(formats), command), cls, refuse=cls.startswith("refuse"))
            for cls, command, formats in cli_commands(tiny)]


_PASS_BUILDERS = {
    "spectrum_small": _spectrum_small_pass,
    "spectrum_large": _spectrum_large_pass,
    "cli_mix": _cli_pass,
    "oracle_crosscheck": _oracle_pass,
}


def passes_for(seconds: int, workload: str, tiny: bool = False, repeats: int = 1) -> int:
    """Passes in a run of `seconds` that runs every pass `repeats` times."""
    if tiny:
        return 1
    return max(1, round(seconds / (repeats * NOMINAL_PASS_SECONDS[workload])))


def make_passes(workload: str, seed: int, n_passes: int, tiny: bool = False) -> list[list[Op]]:
    """The inputs of every pass, from the seed alone.

    The main stream draws the workload's ordinary inputs and a side stream the
    refused ones, so the ordinary inputs of a seed do not depend on them.
    """
    rng = random.Random(seed)
    side = random.Random(f"{seed}/{workload}/side")
    build = _PASS_BUILDERS[workload]
    return [build(rng, side, tiny) for _ in range(n_passes)]


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def prepare(ops: list[Op], sc) -> list:
    """Convert plain inputs into program objects of the current import."""
    out = []
    for op in ops:
        if op.kind == "spectrum":
            out.append(sc.BlockString(op.data))
        elif op.kind == "cli":
            out.append(cli_argv(op.label, list(op.data)))
        else:
            out.append(op.data)
    return out


def execute(op: Op, arg, sc, cli):
    """Run one operation; exceptions propagate to the caller."""
    if op.kind == "spectrum":
        return sc.exact_spectrum(arg)
    if op.kind == "oracle":
        b = sc.parse_block_string(arg)
        numeric = sc.numeric_spectrum(sc.seidel_matrix(sc.build_chain_graph(b)))
        exact = sc.exact_spectrum(b).to_floats()
        return numeric, exact
    buf = io.StringIO()
    code = cli.run(arg, out=buf)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# Checks (outside the timed region)
# ---------------------------------------------------------------------------

def quotient_eigenvalues(blocks):
    """Eigenvalues of the 2k x 2k cell quotient, built here from the block sizes.

    Cell p is the (p // 2)-th block's 0-cell (p even) or 1-cell (p odd).  A
    0-cell of block i and a 1-cell of block j are adjacent iff i <= j, which
    makes the Seidel sign -1.  The quotient Q = Sigma D - I is similar to the
    symmetric D^1/2 Sigma D^1/2 - I, so eigvalsh applies.
    """
    sizes = np.array([x for pair in blocks for x in pair], dtype=float)
    m = len(sizes)
    idx = np.arange(m)
    block, is_one = idx // 2, idx % 2 == 1
    zero_p, one_q = ~is_one[:, None], is_one[None, :]
    adjacent = (zero_p & one_q & (block[:, None] <= block[None, :]))
    adjacent |= adjacent.T
    sigma = np.where(adjacent, -1.0, 1.0)
    root = np.sqrt(sizes)
    sym = sigma * root[:, None] * root[None, :] - np.eye(m)
    return np.sort(np.linalg.eigvalsh(sym))


def _values_match(exact: list[float], numeric, n: int) -> bool:
    if len(exact) != len(numeric):
        return False
    tol = 1e-9 * max(1, n)
    return all(abs(a - b) <= tol for a, b in zip(sorted(exact), numeric))


def is_refusal(exc: BaseException | None) -> bool:
    """True for the program's refusal of an input at one of its documented caps."""
    return isinstance(exc, ValueError) and "cap" in str(exc)


def _refusal_reason(exc: BaseException | None) -> str | None:
    return None if is_refusal(exc) else f"expected a cap refusal, got {exc!r}"


def check_spectrum(blocks, sp, exc, refuse: bool, oracle=quotient_eigenvalues) -> str | None:
    if refuse:
        return _refusal_reason(exc)
    if exc is not None:
        return f"raised {exc!r}"
    n, k = sum(s + t for s, t in blocks), len(blocks)
    try:
        sp.validate()
    except (ValueError, ArithmeticError) as err:
        return f"validate() failed: {err}"
    if sp.n != n:
        return f"total multiplicity {sp.n} != n = {n}"
    if sp.multiplicity(-1) != n - 2 * k + 1:
        return f"multiplicity of -1 is {sp.multiplicity(-1)}, expected {n - 2 * k + 1}"
    # Drop the n - 2k copies of -1 that lie outside the quotient spectrum.
    quotient: list[float] = []
    for v, m in sp.entries:
        if isinstance(v, int) and v == -1:
            m -= n - 2 * k
        quotient.extend([float(v)] * m)
    if not _values_match(quotient, oracle(blocks), n):
        return "values disagree with the numpy quotient oracle"
    return None


def check_oracle(text: str, result, exc, refuse: bool) -> str | None:
    if refuse:
        return _refusal_reason(exc)
    if exc is not None:
        return f"raised {exc!r}"
    numeric, exact = result
    n = sum(int(part.split("^")[1]) if "^" in part else 1 for part in text.split())
    if len(numeric) != n:
        return f"numeric spectrum has {len(numeric)} values, expected {n}"
    if not _values_match(exact, numeric, n):
        return "exact spectrum disagrees with numpy eigvalsh of the Seidel matrix"
    return None


def load_cli_reference() -> dict:
    return json.loads(CLI_REFERENCE.read_text())


def cli_fields(stdout: str) -> dict:
    """The JSON fields compared against the reference (json format only)."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return {}
    payload = doc.get("payload", {})
    fields = {k: payload[k] for k in ("count", "subsets_examined", "equivalent") if k in payload}
    if "error" in doc:
        fields["error.code"] = doc["error"]["code"]
    if payload.get("witnesses"):
        fields["witnesses[0].splitPerCell"] = payload["witnesses"][0]["splitPerCell"]
    return fields


def cli_record(code: int, stdout: str) -> dict:
    return {
        "exit": code,
        "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "fields": cli_fields(stdout),
    }


def check_cli(argv, result, exc, refuse: bool, reference: dict) -> str | None:
    if exc is not None:
        return f"cli.run raised {exc!r}"
    ref = reference.get(cli_key(list(argv)))
    if ref is None:
        return "no reference recorded for this command"
    got = cli_record(*result)
    if refuse and got["exit"] != 1:
        return f"expected a cap refusal (exit 1), got exit {got['exit']}"
    for key in ("exit", "sha256", "fields"):
        if got[key] != ref[key]:
            return f"{key} differs from the reference: {got[key]!r} != {ref[key]!r}"
    return None


def check(op: Op, result, exc, reference: dict) -> str | None:
    if op.kind == "spectrum":
        return check_spectrum(op.data, result, exc, op.refuse)
    if op.kind == "oracle":
        return check_oracle(op.data, result, exc, op.refuse)
    return check_cli(op.data, result, exc, op.refuse, reference)
