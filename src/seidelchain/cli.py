"""Command-line front end.

One subcommand per library capability; every command supports
--format json|text|csv and produces byte-identical output for identical
inputs and flags (timing is kept off the wire for that reason).  A handler
returns only its JSON payload: text comes from one renderer per payload
shape, and csv from the generic rule of `_csv_rows`, except for quotient,
verify-tables and the witness rows of switch-search.

JSON is written by `_json_text`, whose bytes equal json.dumps(doc, indent=2).
CPython's json uses its C encoder only when no indent is given, so the
writer joins dicts and lists itself, two spaces per level, and leaves the
escaping of strings to json's C function encode_basestring_ascii.  A list
of four or more dicts with the same keys in the same order (a record list,
such as the witnesses of switch-search) is written column by column: each
column in one pass, each distinct list of ints once, and each record as one
fill of a %-template.  On the 1000-witness switch-search --all (362 KB)
the writer takes about 3 ms where json.dumps(indent=2) takes about 13 ms
(best of 30, on a 2-core x86 VM).  The text and csv witness rows likewise
format each distinct degrees and split once.

Exit codes: 0 success, 1 computation error (caps, degenerate inputs, failed
verification), 2 usage errors (unknown command, bad arguments, malformed
block strings).

`run` builds the argparse tree on its first call and reuses it for every
later call in the process, so a caller that runs many commands (tests, the
benchmark, library use of `run(argv, out=)`) pays for it once.  The console
script runs one command per process and builds it once either way.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii

from .chain import BlockString, build_chain_graph, parse_block_string
from .families import (
    FAMILY_IDS,
    cospectral_pairs_up_to,
    generate_cospectral_pair,
    generate_integral_family,
    scan_seidel_integral,
)
from .spectra import (
    check_quotient_order,
    equiangular_params,
    exact_spectrum,
    quotient_matrix,
    value_to_string,
)
from .switching import (
    biregular_profile,
    check_certificate_size,
    check_plain_size,
    check_same_order,
    check_search_size,
    regular_profile,
    search_class_by_degree_profile,
    switching_equivalent,
)
from .tables import verify_tables


class ComputeError(ValueError):
    """A failed command.

    Code "usage" (bad arguments) exits 2, every other code exits 1.  A failed
    verification still carries its payload, which is printed with the error.
    """

    def __init__(self, code: str, message: str, payload: dict | None = None):
        super().__init__(message)
        self.code = code
        self.exit_code = 2 if code == "usage" else 1
        self.payload = payload or {}


def _guarded(code: str, fn, *args):
    """fn(*args), with a ValueError raised again as a ComputeError of that code."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ComputeError(code, str(exc)) from exc


def _parse_string(text: str) -> BlockString:
    try:
        return parse_block_string(text)
    except ValueError as exc:
        raise ComputeError("usage", f"bad block string {text!r}: {exc}") from exc


def _parse_quotient_string(text: str) -> BlockString:
    """A parsed block string whose quotient order is within the cap."""
    b = _parse_string(text)
    _guarded("cap-exceeded", check_quotient_order, b.k)
    return b


def _spectrum_text(serialized: list[dict]) -> str:
    return ", ".join(f"{e['value']} (x{e['mult']})" for e in serialized)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its payload
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> dict:
    b = _parse_quotient_string(args.string)
    sp = exact_spectrum(b)
    return {
        "string": b.caret(),
        "n": b.n,
        "k": b.k,
        "spectrum": sp.serialize(),
        "distinct": sp.distinct_count,
        "integral": sp.is_integral(),
    }


def _cmd_quotient(args) -> dict:
    b = _parse_quotient_string(args.string)
    q = quotient_matrix(b)
    return {
        "string": b.caret(),
        "size": q.size,
        "cell_sizes": list(q.cell_sizes),
        "matrix": [list(row) for row in q.entries],
    }


def _cmd_equiangular(args) -> dict:
    b = _parse_quotient_string(args.string)
    ep = _guarded("degenerate", equiangular_params, exact_spectrum(b))
    return {
        "string": b.caret(),
        "lines": ep.lines,
        "dimension": ep.dimension,
        "cosine": str(ep.cosine),
        "lambda_min": value_to_string(ep.lambda_min),
        "multiplicity": ep.multiplicity,
    }


def _cmd_cospectral(args) -> dict:
    if (args.r is None) == (args.max_n is None):
        raise ComputeError("usage", "cospectral needs exactly one of --r or --max-n")
    if args.r is not None:
        pairs = [_guarded("usage", generate_cospectral_pair, args.r)]
    else:
        pairs = _guarded("cap-exceeded", cospectral_pairs_up_to, args.max_n)
    records = [dict(p.serialize(), verified=p.verify()) for p in pairs]
    return {"pairs": records, "count": len(records)}


def _cmd_integral(args) -> dict:
    if (args.family is None) == (args.scan is None):
        raise ComputeError("usage", "integral needs exactly one of --family/--r or --scan")
    if args.scan is not None:
        hits = _guarded("cap-exceeded", scan_seidel_integral, args.scan)
        return {
            "hits": [h.serialize() for h in hits],
            "count": len(hits),
            "unclassified": [[h.n, h.m] for h in hits if h.unclassified],
        }
    if args.r is None:
        raise ComputeError("usage", "--family requires --r")
    if args.family != "SYM" and args.family not in FAMILY_IDS:
        raise ComputeError(
            "usage", f"unknown family {args.family!r} (choose from SYM, {', '.join(FAMILY_IDS)})")
    fam = _guarded("usage", generate_integral_family, args.family, args.r)
    return dict(fam.serialize(), verified=fam.verify())


def _parse_profile(text: str):
    if text == "regular":
        return regular_profile, "regular"
    if text.startswith("biregular:"):
        parts = text[len("biregular:"):].split(",")
        if len(parts) != 2:
            raise ComputeError("usage", "biregular profile needs two degrees, e.g. biregular:7,8")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ComputeError("usage", "biregular degrees must be integers") from exc
        if a == b:
            raise ComputeError("usage", f"biregular degrees must differ (got {a} twice; use regular)")
        return biregular_profile(a, b), f"biregular:{a},{b}"
    raise ComputeError("usage", f"unknown profile {text!r} (use regular or biregular:a,b)")


def _cmd_switch_search(args) -> dict:
    b = _parse_string(args.string)
    profile, label = _parse_profile(args.profile)
    _guarded("cap-exceeded", check_search_size, b.n)
    res = search_class_by_degree_profile(
        build_chain_graph(b), profile, all_witnesses=args.all)
    return {
        "string": b.caret(),
        "n": b.n,
        "profile": label,
        "count": res.match_count,
        "subsets_examined": res.subsets_examined,
        "witnesses": [w.serialize() for w in res.witnesses],
    }


def _cmd_equivalent(args) -> dict:
    ba = _parse_string(args.string_a)
    bb = _parse_string(args.string_b)
    mode = {"iso": "switching-isomorphism", "plain": "switching-only"}[args.mode]
    _guarded("usage", check_same_order, ba.n, bb.n)
    check = check_certificate_size if mode == "switching-isomorphism" else check_plain_size
    _guarded("cap-exceeded", check, ba.n)
    return {
        "string_a": ba.caret(),
        "string_b": bb.caret(),
        "mode": mode,
        "equivalent": switching_equivalent(build_chain_graph(ba), build_chain_graph(bb), mode),
    }


def _cmd_verify_tables(args) -> dict:
    report = verify_tables()
    if not report["all_pass"]:
        raise ComputeError("verification-failed",
                           "one or more golden table rows did not reproduce", report)
    return report


# ---------------------------------------------------------------------------
# Renderers: text lines and csv rows from a payload
# ---------------------------------------------------------------------------

def _text_spectrum(p: dict) -> list[str]:
    return [
        f"string: {p['string']}   n={p['n']} k={p['k']}",
        f"spectrum: {_spectrum_text(p['spectrum'])}",
        f"integral: {p['integral']}",
    ]


def _text_quotient(p: dict) -> list[str]:
    return [f"string: {p['string']}   quotient size {p['size']}, cells {p['cell_sizes']}"] + [
        "  [" + ", ".join(f"{x:4d}" for x in row) + "]" for row in p["matrix"]
    ]


def _text_equiangular(p: dict) -> list[str]:
    return [
        f"string: {p['string']}",
        f"{p['lines']} equiangular lines in dimension {p['dimension']}, cosine {p['cosine']}",
        f"lambda_min {p['lambda_min']} with multiplicity {p['multiplicity']}",
    ]


def _text_cospectral(p: dict) -> list[str]:
    lines = []
    for rec in p["pairs"]:
        lines.append(
            f"r={rec['r']} m={rec['m']} n={rec['n']}: {rec['string_a']}  /  {rec['string_b']}"
        )
        lines.append(
            f"  spectrum {_spectrum_text(rec['spectrum'])}   verified={rec['verified']}"
        )
    return lines


def _text_integral(p: dict) -> list[str]:
    if "hits" in p:
        return [
            f"(n={r['n']}, m={r['m']}) families={','.join(r['families']) or 'unclassified'}"
            f" verified={r['verified']}"
            for r in p["hits"]
        ]
    return [
        f"family {p['family']} r={p['r']}: (n, m) = ({p['n']}, {p['m']})   {p['string']}",
        f"  spectrum {_spectrum_text(p['spectrum'])}   verified={p['verified']}",
    ]


def _text_switch_search(p: dict) -> list[str]:
    lines = [
        f"string: {p['string']}   profile {p['profile']}",
        f"matches: {p['count']} over {p['subsets_examined']} switchings",
    ]
    witnesses = p["witnesses"]
    degrees = _each_distinct_once(lambda t: f" degrees {list(t)}", [w["degrees"] for w in witnesses])
    splits = _each_distinct_once(lambda t: f" split {list(t)}" if t else "",
                                 [w["splitPerCell"] or () for w in witnesses])
    lines.extend(f"  subset {w['subsetBits']}{d}{s}" for w, d, s in zip(witnesses, degrees, splits))
    return lines


def _text_equivalent(p: dict) -> list[str]:
    verdict = "equivalent" if p["equivalent"] else "inequivalent"
    return [f"{p['string_a']}  vs  {p['string_b']}  [{p['mode']}]: {verdict}"]


def _text_verify_tables(report: dict) -> list[str]:
    cos, integ = report["cospectral"], report["integral"]
    return [
        f"cospectral table: {cos['passed']}/{cos['total']} rows pass",
        f"integral table: {integ['passed']}/{integ['total']} rows pass",
        *(f"note: {row['annotation']}" for row in integ["rows"] if "annotation" in row),
        f"all pass: {report['all_pass']}",
    ]


def _csv_render(rows) -> list[dict]:
    """A spectrum list renders as `value^mult` joined by spaces, any other list joined by spaces."""
    def cell(key, value):
        if key == "spectrum":
            return " ".join(f"{e['value']}^{e['mult']}" for e in value)
        if isinstance(value, list):
            return " ".join(map(str, value))
        return value
    return [{key: cell(key, value) for key, value in row.items()} for row in rows]


def _csv_rows(p: dict) -> list[dict]:
    """The `pairs` or `hits` of the payload, else the payload; with no rows, the raw payload."""
    return _csv_render(p.get("pairs", p.get("hits", [p]))) or [p]


def _csv_quotient(p: dict) -> list[dict]:
    return _csv_render({"row": i, "entries": row} for i, row in enumerate(p["matrix"]))


def _csv_switch_search(p: dict) -> list[dict]:
    """The rows _csv_render gives the witnesses, each distinct degrees and
    split joined once."""
    witnesses = p["witnesses"]
    if not witnesses:
        return [{"subsetBits": "", "degrees": "", "splitPerCell": ""}]
    joined = functools.partial(_each_distinct_once, lambda t: " ".join(map(str, t)))
    degrees = joined([w["degrees"] for w in witnesses])
    # None (no cells) and [] both make an empty cell.
    splits = joined([w["splitPerCell"] or () for w in witnesses])
    return [{"subsetBits": w["subsetBits"], "degrees": d, "splitPerCell": s}
            for w, d, s in zip(witnesses, degrees, splits)]


def _csv_verify_tables(report: dict) -> list[dict]:
    return [
        {"table": "cospectral", "row": r["string_a"], "pass": r["pass"]}
        for r in report["cospectral"]["rows"]
    ] + [
        {"table": "integral", "row": f"{r['mirror_string']} | {r['unit_string']}", "pass": r["pass"]}
        for r in report["integral"]["rows"]
    ]


def _each_distinct_once(fmt, values) -> list[str]:
    """[fmt(tuple(v)) for v in values], with fmt called once per distinct tuple(v).

    Equal tuples must render alike, so the values are to hold no bools or
    floats beside ints ((1, True) == (1, 1)).  The witnesses of one orbit
    share their degrees and split, so a 1000-witness list has a handful of
    distinct ones.
    """
    keys = list(map(tuple, values))
    texts = dict.fromkeys(keys)
    for key in texts:
        texts[key] = fmt(key)
    return list(map(texts.__getitem__, keys))


# The fewest dicts _json_text writes as a record list.  Building the columns
# and the template costs about 8 us, which a list of three or fewer records
# does not win back.
_RECORDS_MIN = 4


def _json_column(values: list, pad: str) -> list[str]:
    """_json_text of each value, the values all starting on lines with pad."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds <= {list, tuple} and set(map(type, itertools.chain.from_iterable(values))) == {int}:
        return _each_distinct_once(functools.partial(_json_text, pad=pad), values)
    return [_json_text(v, pad) for v in values]


def _json_records(records: list[dict], keys: tuple[str, ...], pad: str) -> list[str]:
    """_json_text of dicts with the same non-empty key tuple, column by column:
    each column is rendered in one pass, and each record is one template fill.
    The columns are freed on return, before the caller joins the records."""
    inner = pad + "  "
    columns = [_json_column([r[k] for r in records], inner) for k in keys]
    fields = ("," + inner).join(encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{" + inner + fields + pad + "}"
    return [template % row for row in zip(*columns)]


def _json_text(value, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2) renders it; pad is the newline and
    indent of the line it starts on.

    Dict keys must be strings.  A list of exact ints is joined in one call,
    a list of at least _RECORDS_MIN dicts with the same keys in the same
    order goes through _json_records, and any leaf other than a string, int,
    bool or None (a float) is left to json.dumps, which also refuses what
    json refuses.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, value))
        # Key tuples, not keys views: those compare as sets.
        keys = tuple(value[0]) if kinds == {dict} and len(value) >= _RECORDS_MIN else ()
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif keys and set(map(tuple, value)) == {keys}:
            items = _json_records(value, keys, inner)
        else:
            items = [_json_text(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(value)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _threads(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process and shared.

    Sharing is safe: parse_args fills a fresh Namespace and leaves the parser
    as it was, and the handlers read module globals when they run.
    """
    parser = argparse.ArgumentParser(
        prog="seidelchain",
        description="Exact Seidel spectra and switching classes of chain graphs.",
    )
    parser.add_argument("--format", choices=("json", "text", "csv"), default="text")
    parser.add_argument("--threads", type=_threads, default=1,
                        help="accepted for compatibility; has no effect (at least 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, text, rows=_csv_rows):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, text=text, rows=rows)
        return p

    p = command("spectrum", "exact Seidel spectrum of a block string",
                _cmd_spectrum, _text_spectrum)
    p.add_argument("string")

    p = command("quotient", "quotient matrix of the cell partition",
                _cmd_quotient, _text_quotient, _csv_quotient)
    p.add_argument("string")

    p = command("equiangular", "equiangular-line parameters",
                _cmd_equiangular, _text_equiangular)
    p.add_argument("string")

    p = command("cospectral", "cospectral unit-chain pairs",
                _cmd_cospectral, _text_cospectral)
    p.add_argument("--r", type=int, default=None, help="odd parameter of one pair")
    p.add_argument("--max-n", type=int, default=None, help="all pairs with n <= N")

    p = command("integral", "Seidel-integral families and scans",
                _cmd_integral, _text_integral)
    p.add_argument("--family", default=None, help="SYM, F1..F6, or S")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--scan", type=int, default=None,
                   help="all integral unit chains 0 1^m 0^m 1^(n-2m-1) with n <= SCAN (cap 500)")

    p = command("switch-search", "exhaustive degree-profile switching search",
                _cmd_switch_search, _text_switch_search, _csv_switch_search)
    p.add_argument("string")
    p.add_argument("--profile", required=True, help="regular | biregular:a,b")
    p.add_argument("--all", action="store_true", help="report every witness")

    p = command("equivalent", "switching equivalence of two strings",
                _cmd_equivalent, _text_equivalent)
    p.add_argument("string_a")
    p.add_argument("string_b")
    p.add_argument("--mode", choices=("iso", "plain"), default="iso")

    command("verify-tables", "certify the bundled golden tables",
            _cmd_verify_tables, _text_verify_tables, _csv_verify_tables)
    return parser


def _emit(args, payload: dict, error: ComputeError | None, out) -> None:
    if args.format == "json":
        doc: dict = {"status": "error" if error else "ok"}
        if error:
            doc["error"] = {"code": error.code, "message": str(error)}
        doc["payload"] = payload
        out.write(_json_text(doc) + "\n")
    elif args.format == "csv":
        if payload:
            rows = args.rows(payload)
        else:
            rows = [{"status": "error", "code": error.code, "message": str(error)}]
        writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        lines = args.text(payload) if payload else []
        if error:
            lines.append(f"error [{error.code}]: {error}")
        if lines:
            out.write("\n".join(lines) + "\n")


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        # --help prints to sys.stdout; usage errors stay on stderr.
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; keep its verdict.
        return 2 if exc.code else 0
    try:
        payload, error = args.handler(args), None
    except ComputeError as exc:
        payload, error = exc.payload, exc
    _emit(args, payload, error, out)
    return error.exit_code if error else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
