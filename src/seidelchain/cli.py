"""Command-line front end.

One subcommand per library capability; every command supports
--format json|text|csv and produces byte-identical output for identical
inputs and flags (timing is kept off the wire for that reason).

Exit codes: 0 success, 1 computation error (caps, degenerate inputs, failed
verification), 2 usage errors (unknown command, bad arguments, malformed
block strings).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

from .chain import BlockString, build_chain_graph, parse_block_string
from .families import (
    FAMILY_IDS,
    cospectral_pairs_up_to,
    generate_cospectral_pair,
    generate_integral_family,
    mirror_chain_family,
    scan_seidel_integral,
)
from .spectra import (
    equiangular_params,
    exact_spectrum,
    quotient_matrix,
    value_to_string,
)
from .switching import (
    biregular_profile,
    regular_profile,
    search_class_by_degree_profile,
    switching_equivalent,
)
from .tables import verify_tables


class UsageError(ValueError):
    """Bad arguments: reported on exit code 2."""


class ComputeError(ValueError):
    """Valid arguments that cannot be computed: reported on exit code 1."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class CommandResult:
    status: str
    payload: dict
    elapsed_millis: int = 0
    error_code: str | None = None
    error_message: str | None = None
    exit_code: int = 0
    text_lines: list[str] = field(default_factory=list)
    csv_rows: list[dict] | None = None


def _parse_string(text: str) -> BlockString:
    try:
        return parse_block_string(text)
    except ValueError as exc:
        raise UsageError(f"bad block string {text!r}: {exc}") from exc


def _spectrum_text(serialized: list[dict]) -> str:
    return ", ".join(f"{e['value']} (x{e['mult']})" for e in serialized)


def _spectrum_csv(serialized: list[dict]) -> str:
    return " ".join(f"{e['value']}^{e['mult']}" for e in serialized)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> CommandResult:
    b = _parse_string(args.string)
    sp = exact_spectrum(b)
    payload = {
        "string": b.caret(),
        "n": b.n,
        "k": b.k,
        "spectrum": sp.serialize(),
        "distinct": sp.distinct_count,
        "integral": sp.is_integral(),
    }
    lines = [
        f"string: {b.caret()}   n={b.n} k={b.k}",
        f"spectrum: {_spectrum_text(payload['spectrum'])}",
        f"integral: {payload['integral']}",
    ]
    row = dict(payload)
    row["spectrum"] = _spectrum_csv(payload["spectrum"])
    return CommandResult("ok", payload, text_lines=lines, csv_rows=[row])


def _cmd_quotient(args) -> CommandResult:
    b = _parse_string(args.string)
    q = quotient_matrix(b)
    payload = {
        "string": b.caret(),
        "size": q.size,
        "cell_sizes": list(q.cell_sizes),
        "matrix": [list(row) for row in q.entries],
    }
    lines = [f"string: {b.caret()}   quotient size {q.size}, cells {list(q.cell_sizes)}"]
    lines += ["  [" + ", ".join(f"{x:4d}" for x in row) + "]" for row in q.entries]
    rows = [
        {"row": i, "entries": " ".join(str(x) for x in row)}
        for i, row in enumerate(q.entries)
    ]
    return CommandResult("ok", payload, text_lines=lines, csv_rows=rows)


def _cmd_equiangular(args) -> CommandResult:
    b = _parse_string(args.string)
    sp = exact_spectrum(b)
    try:
        ep = equiangular_params(sp)
    except ValueError as exc:
        raise ComputeError("degenerate", str(exc)) from exc
    cosine = str(ep.cosine)
    payload = {
        "string": b.caret(),
        "lines": ep.lines,
        "dimension": ep.dimension,
        "cosine": cosine,
        "lambda_min": value_to_string(ep.lambda_min),
        "multiplicity": ep.multiplicity,
    }
    lines = [
        f"string: {b.caret()}",
        f"{ep.lines} equiangular lines in dimension {ep.dimension}, cosine {cosine}",
        f"lambda_min {payload['lambda_min']} with multiplicity {ep.multiplicity}",
    ]
    return CommandResult("ok", payload, text_lines=lines, csv_rows=[dict(payload)])


def _pair_record(pair) -> dict:
    rec = pair.serialize()
    rec["verified"] = pair.verify()
    return rec


def _cmd_cospectral(args) -> CommandResult:
    if (args.r is None) == (args.max_n is None):
        raise UsageError("cospectral needs exactly one of --r or --max-n")
    if args.r is not None:
        try:
            pairs = [generate_cospectral_pair(args.r)]
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        pairs = cospectral_pairs_up_to(args.max_n)
    records = [_pair_record(p) for p in pairs]
    payload = {"pairs": records, "count": len(records)}
    lines = []
    for rec in records:
        lines.append(
            f"r={rec['r']} m={rec['m']} n={rec['n']}: {rec['string_a']}  /  {rec['string_b']}"
        )
        lines.append(
            f"  spectrum {_spectrum_text(rec['spectrum'])}   verified={rec['verified']}"
        )
    rows = [dict(rec, spectrum=_spectrum_csv(rec["spectrum"])) for rec in records]
    return CommandResult("ok", payload, text_lines=lines, csv_rows=rows)


def _cmd_integral(args) -> CommandResult:
    if (args.family is None) == (args.scan is None):
        raise UsageError("integral needs exactly one of --family/--r or --scan")
    if args.scan is not None:
        try:
            hits = scan_seidel_integral(args.scan)
        except ValueError as exc:
            raise ComputeError("cap-exceeded", str(exc)) from exc
        records = [h.serialize() for h in hits]
        payload = {
            "hits": records,
            "count": len(records),
            "unclassified": [[h.n, h.m] for h in hits if h.unclassified],
        }
        lines = [
            f"(n={r['n']}, m={r['m']}) families={','.join(r['families']) or 'unclassified'}"
            f" verified={r['verified']}"
            for r in records
        ]
        rows = [dict(r, families=" ".join(r["families"])) for r in records]
        return CommandResult("ok", payload, text_lines=lines, csv_rows=rows)
    if args.r is None:
        raise UsageError("--family requires --r")
    if args.family == "SYM":
        try:
            string, predicted = mirror_chain_family(args.r)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        verified = exact_spectrum(string) == predicted
        rec = {
            "family": "SYM",
            "r": args.r,
            "n": string.n,
            "m": 2 * args.r,
            "string": string.caret(),
            "spectrum": predicted.serialize(),
            "verified": verified,
        }
    else:
        if args.family not in FAMILY_IDS:
            raise UsageError(f"unknown family {args.family!r} (choose from SYM, {', '.join(FAMILY_IDS)})")
        try:
            fam = generate_integral_family(args.family, args.r)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rec = fam.serialize()
        rec["verified"] = fam.verify()
    payload = dict(rec)
    lines = [
        f"family {rec['family']} r={rec['r']}: (n, m) = ({rec['n']}, {rec['m']})   {rec['string']}",
        f"  spectrum {_spectrum_text(rec['spectrum'])}   verified={rec['verified']}",
    ]
    rows = [dict(rec, spectrum=_spectrum_csv(rec["spectrum"]))]
    return CommandResult("ok", payload, text_lines=lines, csv_rows=rows)


def _parse_profile(text: str):
    if text == "regular":
        return regular_profile, "regular"
    if text.startswith("biregular:"):
        parts = text[len("biregular:"):].split(",")
        if len(parts) != 2:
            raise UsageError("biregular profile needs two degrees, e.g. biregular:7,8")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UsageError("biregular degrees must be integers") from exc
        return biregular_profile(a, b), f"biregular:{a},{b}"
    raise UsageError(f"unknown profile {text!r} (use regular or biregular:a,b)")


def _cmd_switch_search(args) -> CommandResult:
    b = _parse_string(args.string)
    g = build_chain_graph(b)
    profile, label = _parse_profile(args.profile)
    try:
        res = search_class_by_degree_profile(
            g, profile, all_witnesses=args.all, threads=args.threads,
        )
    except ValueError as exc:
        raise ComputeError("cap-exceeded", str(exc)) from exc
    payload = {
        "string": b.caret(),
        "n": b.n,
        "profile": label,
        "count": res.match_count,
        "subsets_examined": res.subsets_examined,
        "witnesses": [w.serialize() for w in res.witnesses],
    }
    lines = [
        f"string: {b.caret()}   profile {label}",
        f"matches: {res.match_count} over {res.subsets_examined} switchings",
    ]
    for w in res.witnesses:
        lines.append(
            f"  subset {w.serialize()['subsetBits']} degrees {list(w.degrees)}"
            + (f" split {list(w.split_per_cell)}" if w.split_per_cell else "")
        )
    rows = [
        {
            "subsetBits": w.serialize()["subsetBits"],
            "degrees": " ".join(str(d) for d in w.degrees),
            "splitPerCell": " ".join(str(c) for c in w.split_per_cell or ()),
        }
        for w in res.witnesses
    ] or [{"subsetBits": "", "degrees": "", "splitPerCell": ""}]
    return CommandResult("ok", payload, text_lines=lines, csv_rows=rows)


def _cmd_equivalent(args) -> CommandResult:
    ba = _parse_string(args.string_a)
    bb = _parse_string(args.string_b)
    mode = {"iso": "switching-isomorphism", "plain": "switching-only"}[args.mode]
    ga, gb = build_chain_graph(ba), build_chain_graph(bb)
    try:
        eq = switching_equivalent(ga, gb, mode)
    except ValueError as exc:
        raise ComputeError("cap-exceeded", str(exc)) from exc
    payload = {
        "string_a": ba.caret(),
        "string_b": bb.caret(),
        "mode": mode,
        "equivalent": eq,
    }
    lines = [f"{ba.caret()}  vs  {bb.caret()}  [{mode}]: {'equivalent' if eq else 'inequivalent'}"]
    return CommandResult("ok", payload, text_lines=lines, csv_rows=[dict(payload)])


def _cmd_verify_tables(args) -> CommandResult:
    report = verify_tables()
    payload = report
    cos, integ = report["cospectral"], report["integral"]
    lines = [
        f"cospectral table: {cos['passed']}/{cos['total']} rows pass",
        f"integral table: {integ['passed']}/{integ['total']} rows pass",
    ]
    for row in integ["rows"]:
        if "annotation" in row:
            lines.append(f"note: {row['annotation']}")
    lines.append(f"all pass: {report['all_pass']}")
    rows = [
        {"table": "cospectral", "row": r["string_a"], "pass": r["pass"]}
        for r in cos["rows"]
    ] + [
        {"table": "integral", "row": f"{r['mirror_string']} | {r['unit_string']}", "pass": r["pass"]}
        for r in integ["rows"]
    ]
    result = CommandResult("ok" if report["all_pass"] else "error", payload,
                           text_lines=lines, csv_rows=rows)
    if not report["all_pass"]:
        result.exit_code = 1
        result.error_code = "verification-failed"
        result.error_message = "one or more golden table rows did not reproduce"
    return result


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seidelchain",
        description="Exact Seidel spectra and switching classes of chain graphs.",
    )
    parser.add_argument("--format", choices=("json", "text", "csv"), default="text")
    parser.add_argument("--threads", type=_threads, default=1,
                        help="parallel workers for switch-search (at least 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="reserved; no command uses randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact Seidel spectrum of a block string")
    p.add_argument("string")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("quotient", help="quotient matrix of the cell partition")
    p.add_argument("string")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("equiangular", help="equiangular-line parameters")
    p.add_argument("string")
    p.set_defaults(handler=_cmd_equiangular)

    p = sub.add_parser("cospectral", help="cospectral unit-chain pairs")
    p.add_argument("--r", type=int, default=None, help="odd parameter of one pair")
    p.add_argument("--max-n", type=int, default=None, help="all pairs with n <= N")
    p.set_defaults(handler=_cmd_cospectral)

    p = sub.add_parser("integral", help="Seidel-integral families and scans")
    p.add_argument("--family", default=None, help="SYM, F1..F6, or S")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--scan", type=int, default=None, help="brute scan up to n_max")
    p.set_defaults(handler=_cmd_integral)

    p = sub.add_parser("switch-search", help="exhaustive degree-profile switching search")
    p.add_argument("string")
    p.add_argument("--profile", required=True, help="regular | biregular:a,b")
    p.add_argument("--all", action="store_true", help="report every witness")
    p.set_defaults(handler=_cmd_switch_search)

    p = sub.add_parser("equivalent", help="switching equivalence of two strings")
    p.add_argument("string_a")
    p.add_argument("string_b")
    p.add_argument("--mode", choices=("iso", "plain"), default="iso")
    p.set_defaults(handler=_cmd_equivalent)

    p = sub.add_parser("verify-tables", help="recompute the bundled golden tables")
    p.set_defaults(handler=_cmd_verify_tables)
    return parser


def _emit(result: CommandResult, fmt: str, out) -> None:
    if fmt == "json":
        doc: dict = {"status": result.status}
        if result.error_code is not None:
            doc["error"] = {"code": result.error_code, "message": result.error_message}
        doc["payload"] = result.payload
        print(json.dumps(doc, indent=2), file=out)
    elif fmt == "csv":
        if result.error_code is not None and result.csv_rows is None:
            rows = [{"status": result.status, "code": result.error_code,
                     "message": result.error_message}]
        else:
            rows = result.csv_rows or [result.payload]
        buf = io.StringIO()
        columns = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        out.write(buf.getvalue())
    else:
        for line in result.text_lines:
            print(line, file=out)
        if result.error_message:
            print(f"error [{result.error_code}]: {result.error_message}", file=out)


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its verdict.
        return 2 if exc.code else 0
    start = time.monotonic()
    try:
        result = args.handler(args)
    except UsageError as exc:
        result = CommandResult(
            "error", {}, error_code="usage", error_message=str(exc), exit_code=2,
        )
    except ComputeError as exc:
        result = CommandResult(
            "error", {}, error_code=exc.code, error_message=str(exc), exit_code=1,
        )
    result.elapsed_millis = int((time.monotonic() - start) * 1000)
    _emit(result, args.format, out)
    return result.exit_code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
