"""Golden stdout of the CLI: every subcommand, format and error path, byte for byte.

`tests/golden/cli.json` maps each argv (as a JSON list) to its exit code and
its exact stdout.  Re-record it only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
from pathlib import Path

import pytest

from seidelchain import cli
from seidelchain.cli import run

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

_THREADED = ["switch-search", "0 1^5 0^5 1^4", "--profile", "regular", "--all"]
_OVER_QUOTIENT_CAP = " ".join(["0 1"] * 130)  # quotient order 260 > 256

COMMANDS = [
    ["spectrum", "01^5 0^5 1^4"],
    ["spectrum", "0 1 0 1"],
    ["spectrum", "0 1^2 0^3 1^4 0 1"],
    # The least cospectral, inequivalent integral pair found (n = 13).
    ["spectrum", "0^5 1 0^6 1"],
    ["spectrum", "0^8 1^2 0^2 1"],
    ["quotient", "0 1^3 0^3 1^7"],
    ["equiangular", "01^3 0^3 1^7"],
    ["equiangular", "0 1 0 1"],
    ["equiangular", "0 1^2 0^3 1^4 0 1"],
    # Cosines whose reversal also has roots outside [-1, 1] (k = 8 and k = 16).
    ["equiangular", "0 1^3 0^2 1^2 0^2 1 0 1^4 0 1 0 1^2 0^2 1 0^2 1^4"],
    ["equiangular", "0^3 1 0^2 1^4 0^3 1^3 0^2 1^2 0^3 1 0 1^4 0 1^3 0^3 1^3 0 1^4 0 1^4 0 1^3 0^3 1^2 0 1 0^2 1^3 0 1^2 0 1^4"],
    ["cospectral", "--r", "5"],
    ["cospectral", "--max-n", "42"],
    ["cospectral", "--max-n", "10"],
    ["integral", "--family", "F5", "--r", "3"],
    ["integral", "--family", "S", "--r", "1"],
    ["integral", "--family", "SYM", "--r", "2"],
    ["integral", "--scan", "15"],
    ["integral", "--scan", "5"],
    ["switch-search", "01^5 0^5 1^4", "--profile", "regular"],
    ["switch-search", "01^5 0^5 1^4", "--profile", "biregular:7,8"],
    ["switch-search", "0 1^2 0^2 1", "--profile", "regular", "--all"],
    # 12 witnesses in 5 orbits.
    ["switch-search", "0 1^2 0^2 1", "--profile", "biregular:2,4", "--all"],
    ["switch-search", "0 1^2 0^2 1", "--profile", "biregular:1,2"],
    _THREADED,
    ["--threads", "2"] + _THREADED,
    ["equivalent", "01^3 0^3 1^7", "01^6 0^6 1"],
    ["equivalent", "0^5 1 0^6 1", "0^8 1^2 0^2 1"],
    ["equivalent", "01^3 0^3 1^7", "01^3 0^3 1^7", "--mode", "plain"],
    ["equivalent", "0^999 1", "0^999 1", "--mode", "plain"],
    ["verify-tables"],
    # usage (exit 2)
    ["bogus"],
    ["spectrum", "110"],
    ["cospectral"],
    ["cospectral", "--r", "1", "--max-n", "20"],
    ["cospectral", "--r", "2"],
    ["integral", "--family", "F1"],
    ["integral", "--family", "F9", "--r", "1"],
    ["integral", "--family", "SYM", "--r", "0"],
    ["switch-search", "01", "--profile", "nonsense"],
    ["switch-search", "01", "--profile", "biregular:a,b"],
    ["switch-search", "01", "--profile", "biregular:1"],
    ["switch-search", "0 1^5 0^5 1^4", "--profile", "biregular:10,10"],
    ["switch-search", "0^999 1", "--profile", "nonsense"],
    ["switch-search", "110", "--profile", "regular"],
    ["equivalent", "0 1", "0 1^2"],
    ["equivalent", "0 1", "0 1^2", "--mode", "plain"],
    ["equivalent", "0^20 1", "0 1"],
    ["equivalent", "0 1", "1 0"],
    ["--threads", "0", "switch-search", "0 1", "--profile", "regular"],
    ["--seed", "3", "spectrum", "0 1"],
    # cap-exceeded and degenerate (exit 1)
    ["integral", "--scan", "1000"],
    ["cospectral", "--max-n", "1000000000"],
    ["switch-search", "0^999 1", "--profile", "regular"],
    ["switch-search", "0^999 1", "--profile", "biregular:3,4", "--all"],
    ["equivalent", "0^999 1", "0^999 1"],
    ["equivalent", "0^2000 1", "0^2000 1", "--mode", "plain"],
    ["equiangular", "01"],
    ["spectrum", _OVER_QUOTIENT_CAP],
    ["quotient", _OVER_QUOTIENT_CAP],
    ["equiangular", _OVER_QUOTIENT_CAP],
]

CASES = [["--format", fmt] + argv for argv in COMMANDS for fmt in ("json", "text", "csv")]


def _key(argv) -> str:
    return json.dumps(argv)


def _run(argv) -> dict:
    out = io.StringIO()
    code = run(list(argv), out=out)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_cli_output_matches_golden(golden, argv):
    assert _run(argv) == golden[_key(argv)]


def test_golden_json_is_json_dumps_indent_2(golden):
    """Every --format json stdout is json.dumps(indent=2) of its document, the
    oracle of the writer in cli (argparse's usage errors print none)."""
    documents = [golden[_key(argv)]["stdout"] for argv in CASES if argv[1] == "json"]
    printed = [stdout for stdout in documents if stdout]
    assert len(printed) > len(documents) // 2
    for stdout in printed:
        assert stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


def test_threaded_golden_equals_serial(golden):
    for fmt in ("json", "text", "csv"):
        serial = golden[_key(["--format", fmt] + _THREADED)]
        assert golden[_key(["--format", fmt, "--threads", "2"] + _THREADED)] == serial


def test_one_parser_serves_every_case_in_any_order(golden):
    """run() shares one parser across calls, so no call may leave state in
    it: every case run again in reverse order gives its golden stdout, and so
    does a default flag value right after a command that set the flag."""
    assert cli.build_parser() is cli.build_parser()
    for argv in reversed(CASES):
        assert _run(argv) == golden[_key(argv)]

    search = ["--format", "json", "switch-search", "01^5 0^5 1^4", "--profile", "biregular:7,8"]
    every = json.loads(_run(search + ["--all"])["stdout"])["payload"]
    assert every["count"] == len(every["witnesses"]) == 1000
    first = _run(search)
    assert first == golden[_key(search)]
    assert json.loads(first["stdout"])["payload"]["witnesses"] == every["witnesses"][:1]

    pair = ["--format", "json", "equivalent", "01^3 0^3 1^7", "01^6 0^6 1"]
    plain = json.loads(_run(pair + ["--mode", "plain"])["stdout"])["payload"]
    assert plain["mode"] == "switching-only"
    assert _run(pair) == golden[_key(pair)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {_key(argv): _run(argv) for argv in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"recorded {len(records)} cases into {GOLDEN}")
