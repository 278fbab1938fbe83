"""Command-line front end.

One subcommand per library capability; every command supports
--format json|text|csv and produces byte-identical output for identical
inputs and flags (timing is kept off the wire for that reason).  A handler
returns only its JSON payload: text comes from one renderer per payload
shape, and csv from the generic rule of `_csv_rows`, except for quotient,
verify-tables and the witness rows of switch-search.  A csv renderer gives
a header and value rows in its order, written by csv.writer.

JSON is written by `_json_text`, whose bytes equal json.dumps(doc, indent=2).
CPython's json uses its C encoder only when no indent is given, so the
writer gathers the pieces of the document itself, two spaces per level,
joins them once, and leaves the escaping of strings to json's C function
encode_basestring_ascii.  A record list is written column by column: each
column in one pass, each stored value rendered once, and each record as one
fill of a %-template.  A record list is a `_RecordList`, which holds its
columns and may store a value shared by many records once, or a list of
four or more dicts with the same keys in the same order.  switch-search
passes its witnesses as a `_RecordList` read off the search's columns, so
each orbit's degrees and split are rendered once in every format.  On the
1000-witness switch-search --all (362 KB) the writer takes about 0.7 ms
where json.dumps(indent=2) takes about 13 ms (best of 5 x 50, on a 2-core
x86 VM).

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
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .chain import BlockString, _digits, build_chain_graph, parse_block_string
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
    return ", ".join(f"{e['value']} (x{_digits(e['mult'])})" for e in serialized)


def _text(value) -> str:
    """str(value) for a payload leaf, a Fraction or a list of them, with every
    int in it written by _digits, so none trips the interpreter's int -> str
    limit."""
    if type(value) is int:
        return _digits(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    if isinstance(value, Fraction):
        num = _digits(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_digits(value.denominator)}"
    return str(value)


class _RecordList:
    """A list of dicts with one non-empty key tuple, held column by column.

    columns[j] holds the values of keys[j] as (values, index): record i has
    values[index[i]], or values[i] where index is None.  An indexed column
    holds each shared value once (the witnesses of one orbit share their
    degrees and split), so a renderer formats it once.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns):
        self.keys, self.columns = keys, columns

    def __len__(self) -> int:
        values, index = self.columns[0]
        return len(values if index is None else index)

    def column(self, key: str, render=None) -> list:
        """The column of key, record by record; render, if given, maps the
        stored values to one text each."""
        values, index = self.columns[self.keys.index(key)]
        if render is not None:
            values = render(values)
        return values if index is None else list(map(values.__getitem__, index))


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
        "cosine": _text(ep.cosine),
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
        "witnesses": _witness_records(res.witnesses),
    }


def _witness_records(witnesses) -> _RecordList:
    """The subsetBits, degrees and splitPerCell records of search witnesses,
    read off their columns: degrees and split are held once per orbit."""
    degrees, splits = zip(*witnesses.orbits) if witnesses.orbits else ((), ())
    return _RecordList(("subsetBits", "degrees", "splitPerCell"), (
        (list(map("0x%x".__mod__, witnesses.masks)), None),
        (degrees, witnesses.orbit_of),
        (splits, witnesses.orbit_of),
    ))


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
        f"string: {p['string']}   n={_digits(p['n'])} k={p['k']}",
        f"spectrum: {_spectrum_text(p['spectrum'])}",
        f"integral: {p['integral']}",
    ]


def _text_quotient(p: dict) -> list[str]:
    return [f"string: {p['string']}   quotient size {p['size']}, cells {_text(p['cell_sizes'])}"] + [
        "  [" + ", ".join(_digits(x).rjust(4) for x in row) + "]" for row in p["matrix"]
    ]


def _text_equiangular(p: dict) -> list[str]:
    return [
        f"string: {p['string']}",
        f"{_digits(p['lines'])} equiangular lines in dimension {_digits(p['dimension'])}, cosine {p['cosine']}",
        f"lambda_min {p['lambda_min']} with multiplicity {_digits(p['multiplicity'])}",
    ]


def _text_cospectral(p: dict) -> list[str]:
    lines = []
    for rec in p["pairs"]:
        lines.append(
            f"r={_digits(rec['r'])} m={_digits(rec['m'])} n={_digits(rec['n'])}: "
            f"{rec['string_a']}  /  {rec['string_b']}"
        )
        lines.append(
            f"  spectrum {_spectrum_text(rec['spectrum'])}   verified={rec['verified']}"
        )
    return lines


def _text_integral(p: dict) -> list[str]:
    if "hits" in p:
        return [
            f"(n={_digits(r['n'])}, m={_digits(r['m'])}) families={','.join(r['families']) or 'unclassified'}"
            f" verified={r['verified']}"
            for r in p["hits"]
        ]
    return [
        f"family {p['family']} r={_digits(p['r'])}: (n, m) = ({_digits(p['n'])}, {_digits(p['m'])})"
        f"   {p['string']}",
        f"  spectrum {_spectrum_text(p['spectrum'])}   verified={p['verified']}",
    ]


def _text_switch_search(p: dict) -> list[str]:
    lines = [
        f"string: {p['string']}   profile {p['profile']}",
        f"matches: {p['count']} over {p['subsets_examined']} switchings",
    ]
    w = p["witnesses"]
    degrees = w.column("degrees", lambda ds: [f" degrees {list(d)}" for d in ds])
    splits = w.column("splitPerCell", lambda ss: [f" split {list(s)}" for s in ss])
    lines.extend(map("  subset %s%s%s".__mod__, zip(w.column("subsetBits"), degrees, splits)))
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


def _csv_render(rows) -> tuple[list[str], list[list]]:
    """The header (the first row's keys) and each row's cells in its order:
    a spectrum list renders as `value^mult` joined by spaces, any other list
    joined by spaces, and an int by _digits."""
    def cell(key, value):
        if key == "spectrum":
            return " ".join(f"{e['value']}^{_digits(e['mult'])}" for e in value)
        if isinstance(value, list):
            return " ".join(map(_text, value))
        return _digits(value) if type(value) is int else value
    rows = list(rows)
    header = list(rows[0])
    return header, [[cell(key, row[key]) for key in header] for row in rows]


def _csv_rows(p: dict) -> tuple[list[str], list[list]]:
    """The `pairs` or `hits` of the payload, else the payload; with no rows, the raw payload."""
    rows = p.get("pairs", p.get("hits", [p]))
    return _csv_render(rows) if rows else (list(p), [list(p.values())])


def _csv_quotient(p: dict) -> tuple[list[str], list[list]]:
    return _csv_render({"row": i, "entries": row} for i, row in enumerate(p["matrix"]))


def _csv_switch_search(p: dict) -> tuple[list[str], list]:
    """The witness rows, column by column: each orbit's degrees and split
    are joined once."""
    w = p["witnesses"]
    if not len(w):
        return list(w.keys), [["", "", ""]]
    joined = lambda values: [" ".join(map(str, v)) for v in values]  # noqa: E731
    return list(w.keys), list(zip(w.column("subsetBits"), w.column("degrees", joined),
                                  w.column("splitPerCell", joined)))


def _csv_verify_tables(report: dict) -> tuple[list[str], list[list]]:
    return ["table", "row", "pass"], [
        ["cospectral", r["string_a"], r["pass"]] for r in report["cospectral"]["rows"]
    ] + [
        ["integral", f"{r['mirror_string']} | {r['unit_string']}", r["pass"]]
        for r in report["integral"]["rows"]
    ]


# The fewest dicts _json_text writes as a record list.  Building the columns
# and the template costs about 8 us, which a list of three or fewer records
# does not win back.
_RECORDS_MIN = 4


def _json_column(values, pad: str) -> list[str]:
    """_json_text of each value, the values all starting on lines with pad."""
    if set(map(type, values)) == {str}:
        return list(map(encode_basestring_ascii, values))
    return [_json_text(v, pad) for v in values]


def _json_records(records: _RecordList, pad: str) -> list[str]:
    """_json_text of each record, column by column: each column is rendered
    in one pass, and each record is one template fill.  The columns are
    freed on return, before the caller joins the records."""
    inner = pad + "  "
    columns = [records.column(k, functools.partial(_json_column, pad=inner)) for k in records.keys]
    fields = ("," + inner).join(encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                                for k in records.keys)
    template = "{" + inner + fields + pad + "}"
    return [template % row for row in zip(*columns)]


def _json_text(value, pad: str = "\n") -> str:
    """value as json.dumps(value, indent=2) renders it; pad is the newline and
    indent of the line it starts on.

    Dict keys must be strings.  A list of exact ints is joined in one call,
    a _RecordList, and a list of at least _RECORDS_MIN dicts with the same
    keys in the same order, go through _json_records, and any leaf other
    than a string, int, bool or None (a float) is left to json.dumps, which
    also refuses what json refuses.  The pieces of the whole document are
    joined once, so a large list is not copied again at each level above it.
    """
    parts: list[str] = []
    _json_parts(value, pad, parts)
    return "".join(parts)


def _json_parts(value, pad: str, parts: list[str]) -> None:
    """Append the pieces of _json_text(value, pad) to parts."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(_digits(value))
    elif isinstance(value, (list, tuple, _RecordList)):
        if not len(value):
            parts.append("[]")
            return
        inner = pad + "  "
        sep = "," + inner
        parts.append("[" + inner)
        if isinstance(value, _RecordList):
            parts.append(sep.join(_json_records(value, inner)))
        else:
            kinds = set(map(type, value))
            # Key tuples, not keys views: those compare as sets.
            keys = tuple(value[0]) if kinds == {dict} and len(value) >= _RECORDS_MIN else ()
            if kinds == {int}:
                parts.append(sep.join(map(_digits, value)))
            elif keys and set(map(tuple, value)) == {keys}:
                records = _RecordList(keys, [([r[k] for r in value], None) for k in keys])
                parts.append(sep.join(_json_records(records, inner)))
            else:
                for i, x in enumerate(value):
                    if i:
                        parts.append(sep)
                    _json_parts(x, inner, parts)
        parts.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        lead = "{" + inner
        for k, v in value.items():
            parts.append(lead + encode_basestring_ascii(k) + ": ")
            lead = "," + inner
            _json_parts(v, inner, parts)
        parts.append(pad + "}")
    else:
        parts.append(json.dumps(value))


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
        out.write(_json_text(doc))
        out.write("\n")
    elif args.format == "csv":
        if payload:
            header, rows = args.rows(payload)
        else:
            header, rows = ["status", "code", "message"], [["error", error.code, str(error)]]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
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
