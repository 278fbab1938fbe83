import ast
import hashlib
import importlib.util
import io
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seidelchain import cli
from seidelchain.cli import run
from seidelchain.switching import check_certificate_size, check_plain_size, check_search_size


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def _run_json(argv):
    code, text = _run(["--format", "json"] + argv)
    return code, json.loads(text)


# ---------------------------------------------------------------------------
# Happy paths
# ---------------------------------------------------------------------------

def test_spectrum_command():
    code, doc = _run_json(["spectrum", "01^5 0^5 1^4"])
    assert code == 0
    assert doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["string"] == "0 1^5 0^5 1^4"
    assert payload["n"] == 15 and payload["k"] == 2
    assert payload["spectrum"] == [
        {"value": "int:-6", "mult": 1},
        {"value": "int:-1", "mult": 12},
        {"value": "int:9", "mult": 2},
    ]
    assert payload["integral"] is True


def test_spectrum_past_the_int_str_digit_limit_exits_0():
    """0^(10^1000 - 1) 1^3 0 1 has interval eigenvalues whose printed ends
    run past the interpreter's 4300-digit int -> str limit.  They print in
    full and the command exits 0; the limit's ValueError used to escape
    run.  About 3 s, most of it in validate's refinement."""
    code, doc = _run_json(["spectrum", "0^" + "9" * 1000 + " 1^3 0 1"])
    assert code == 0 and doc["status"] == "ok"
    ends = [end for entry in doc["payload"]["spectrum"] if entry["value"].startswith("interval:")
            for end in entry["value"][len("interval:["):-1].split(",")]
    assert ends and max(map(len, ends)) > 4300


# The most digits an exponent may have under the default int -> str limit.
_LIMIT_EXPONENT = "9" * 4300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit")
@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("argv", [
    # n, the multiplicity of -1 and the eigenvalue n - 1 have 4301 digits.
    ["spectrum", f"0^{_LIMIT_EXPONENT} 1^{_LIMIT_EXPONENT}"],
    # The merged run 0^(2 * 10^4300 - 2): a cell size of 4301 digits.
    ["quotient", f"0^{_LIMIT_EXPONENT} 0^{_LIMIT_EXPONENT} 1"],
    # m and n of the pair, and the exponents of its strings, run past 4300 digits.
    ["cospectral", "--r", "9" * 4299 + "7"],
], ids=["spectrum", "quotient", "cospectral"])
def test_ints_past_the_int_str_digit_limit_render_in_full(argv, fmt):
    """Every int the CLI renders goes through _digits, so output at the
    default limit is the output of plain str with the limit lifted; the
    limit's ValueError used to escape run.  The limit is restored after."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        got = _run(["--format", fmt] + argv)
        sys.set_int_max_str_digits(0)
        want = _run(["--format", fmt] + argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want and got[0] == 0
    assert max(map(len, re.findall(r"\d+", got[1]))) > 4300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit")
def test_a_fraction_past_the_int_str_digit_limit_renders_as_str_does():
    """The equiangular cosine is a Fraction; past the limit in its
    denominator too it renders as str gives it with the limit lifted."""
    fractions = [Fraction(1, 10 ** 4400 + 1), Fraction(-(10 ** 4400), 3), Fraction(10 ** 4400), Fraction(1, 5)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        got = list(map(cli._text, fractions))
        sys.set_int_max_str_digits(0)
        want = list(map(str, fractions))
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want


def test_quotient_command():
    code, doc = _run_json(["quotient", "0 1^3 0^3 1^7"])
    assert code == 0
    assert doc["payload"]["matrix"] == [
        [0, -3, 3, -7], [-1, 2, 3, 7], [1, 3, 2, -7], [-1, 3, -3, 6]]
    assert doc["payload"]["cell_sizes"] == [1, 3, 3, 7]


def test_equiangular_command():
    code, doc = _run_json(["equiangular", "01^3 0^3 1^7"])
    assert code == 0
    payload = doc["payload"]
    assert (payload["lines"], payload["dimension"]) == (14, 13)
    assert payload["cosine"] == "1/5"
    assert payload["lambda_min"] == "int:-5"


def test_cospectral_single_pair():
    code, doc = _run_json(["cospectral", "--r", "5"])
    assert code == 0
    (pair,) = doc["payload"]["pairs"]
    assert pair["string_a"] == "0 1^9 0^9 1^23"
    assert pair["string_b"] == "0 1^18 0^18 1^5"
    assert pair["verified"] is True
    values = [e["value"] for e in pair["spectrum"]]
    assert values == ["int:-13", "int:-1", "int:17", "int:35"]


def test_cospectral_range():
    code, doc = _run_json(["cospectral", "--max-n", "42"])
    assert code == 0
    assert [p["n"] for p in doc["payload"]["pairs"]] == [14, 28, 42]


def test_integral_family_and_scan():
    code, doc = _run_json(["integral", "--family", "F5", "--r", "3"])
    assert code == 0
    assert (doc["payload"]["n"], doc["payload"]["m"]) == (31, 3)
    assert doc["payload"]["verified"] is True

    code, doc = _run_json(["integral", "--family", "SYM", "--r", "2"])
    assert code == 0
    assert doc["payload"]["string"] == "0^2 1^4 0^4 1^2"

    code, doc = _run_json(["integral", "--scan", "15"])
    assert code == 0
    hits = {(h["n"], h["m"]) for h in doc["payload"]["hits"]}
    assert (15, 5) in hits and (13, 2) in hits
    assert [13, 2] in doc["payload"]["unclassified"]


def test_switch_search_command():
    code, doc = _run_json(["switch-search", "01^5 0^5 1^4", "--profile", "biregular:7,8"])
    assert code == 0
    payload = doc["payload"]
    assert payload["count"] == 1000
    assert payload["subsets_examined"] == 16384
    assert len(payload["witnesses"]) == 1


def test_switch_search_regular_reports_the_regular_switching():
    code, doc = _run_json(["switch-search", "01^5 0^5 1^4", "--profile", "regular"])
    assert code == 0
    payload = doc["payload"]
    assert payload["count"] == 1
    assert payload["witnesses"][0]["degrees"] == [10] * 15
    assert payload["witnesses"][0]["splitPerCell"] == [0, 0, 5, 4]


def test_equivalent_command():
    code, doc = _run_json(["equivalent", "01^3 0^3 1^7", "01^6 0^6 1"])
    assert code == 0
    assert doc["payload"]["equivalent"] is False
    code, doc = _run_json(["equivalent", "01^3 0^3 1^7", "01^3 0^3 1^7", "--mode", "plain"])
    assert code == 0
    assert doc["payload"]["equivalent"] is True


def test_verify_tables_command():
    code, doc = _run_json(["verify-tables"])
    assert code == 0
    assert doc["payload"]["cospectral"]["passed"] == 10
    assert doc["payload"]["integral"]["passed"] == 10
    assert doc["payload"]["all_pass"] is True
    last = doc["payload"]["integral"]["rows"][-1]
    assert "annotation" in last and "39" in last["annotation"]


# ---------------------------------------------------------------------------
# Formats
# ---------------------------------------------------------------------------

def test_text_format_contains_same_data():
    code, text = _run(["spectrum", "01^5 0^5 1^4"])
    assert code == 0
    assert "0 1^5 0^5 1^4" in text
    assert "int:-6" in text and "int:9" in text


def test_csv_format():
    code, text = _run(["--format", "csv", "cospectral", "--max-n", "28"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "r,m,n,string_a,string_b,spectrum,verified"
    assert len(lines) == 3
    assert lines[1].startswith("1,3,14,")


def test_byte_identical_output():
    for fmt in ("json", "text", "csv"):
        a = _run(["--format", fmt, "verify-tables"])
        b = _run(["--format", fmt, "verify-tables"])
        assert a == b


def test_threads_flag_deterministic():
    base = _run(["switch-search", "01^5 0^5 1^4", "--profile", "regular", "--all"])
    threaded = _run(["--threads", "2", "switch-search", "01^5 0^5 1^4",
                     "--profile", "regular", "--all"])
    assert base == threaded


# ---------------------------------------------------------------------------
# The JSON writer
# ---------------------------------------------------------------------------

_TEXT = st.text(st.sampled_from('a0 "%\\/\x00\x1f\x7f\n\t\u2028√é€😀') | st.characters(), max_size=8)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2 ** 64, max_value=2 ** 200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | _TEXT
)


@st.composite
def _record_lists(draw, children):
    """Dicts on one key set, the keys in one order or, where drawn, permuted;
    the values drawn from children or from a few int lists used again and
    again (with bools and floats among the ints at times)."""
    keys = draw(st.lists(_TEXT, max_size=4, unique=True))
    repeated = draw(st.lists(st.lists(st.integers(-2, 2) | st.booleans() | st.floats(), max_size=3)
                             | st.lists(st.integers(), max_size=3).map(tuple), min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(keys)) if draw(st.booleans()) else keys
        records.append({k: draw(children | st.sampled_from(repeated)) for k in order})
    return records


_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)
                      | _record_lists(children)),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
@example([math.nan, math.inf, -math.inf, -0.0, 1e300, 2 ** 64, -(2 ** 70), True, 1, None])
@example({"": [], "a": {}, "b": (), "c": [[], {}], "value": "surd:(-1+√2)/3", "q": '"\\\x01'})
@example([[1, 2, 3], [1, True], [0, 1.5], (4, 5)])
@example([{"a": "x", "b": [7, 8], "c": 1}, {"a": "y", "b": [7, 8], "c": None}])
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 3, "b": 4}])
@example([{"%s": "%d", '"%%"': 1, "\x00": "\x00%", "√é😀": [1]}, {"%s": "", '"%%"': 2, "\x00": "é", "√é😀": []}])
@example({"w": [{"d": [7, 8, 8], "s": (0, 2)}, {"d": [7, 8, 8], "s": [0, 2]}, {"d": [], "s": [0, 2]},
                {"d": [7, 8, 8], "s": (0, 2)}]})
@example([{"d": [1, 1]}, {"d": [1, True]}, {"d": [1.0, 1]}, {"d": [True, 1]}, {"d": [1, 1]}])
@example([{"x": [math.nan, -0.0]}, {"x": [-0.0, math.nan]}, {"x": None}, {"x": [0, 0]}, {"x": [0.0, -0]}])
@example([{}, {}, {}])
@example([{"a": None, "b": {}}, {"a": None, "b": {}}])
@example([{"w": [{"a": [1, 2]}, {"a": [1, 2]}], "x": {"y": [{"z": 1}, {"z": "%"}]}},
          {"w": [], "x": {"y": [{"z": [3]}]}}])
def test_json_writer_equals_json_dumps_indent_2(doc):
    want = json.dumps(doc, indent=2)
    assert cli._json_text(doc) == want
    # Every record list, short ones too, through the column-by-column path.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_RECORDS_MIN", 1)
        assert cli._json_text(doc) == want


def test_json_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError):
        cli._json_text({"payload": [object()]})


_BENCH = Path(__file__).resolve().parent.parent / "bench"
_THOUSAND_WITNESSES = ["switch-search", "0 1^5 0^5 1^4", "--profile", "biregular:7,8", "--all"]


def test_thousand_witness_json_matches_the_bench_reference():
    """The largest document the CLI prints (362 KB; the golden file holds
    none over 1.4 KB) has the stdout the benchmark checks."""
    argv = ["--format", "json"] + _THOUSAND_WITNESSES
    reference = json.loads((_BENCH / "cli_reference.json").read_text())[json.dumps(argv)]
    code, text = _run(argv)
    assert code == reference["exit"] == 0
    assert len(json.loads(text)["payload"]["witnesses"]) == 1000
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == reference["sha256"]


@pytest.fixture(scope="module")
def bench_workloads():
    """bench/workloads.py as a module of its own name, removed afterwards."""
    spec = importlib.util.spec_from_file_location("cli_reference_workloads", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_bench_cli_reference_replays(bench_workloads):
    """Every command of the benchmark's CLI reference, in every format it
    was recorded in, gives the recorded exit code, stdout sha256 and JSON
    fields, compared by the benchmark's own check."""
    reference = bench_workloads.load_cli_reference()
    assert len(reference) == 67
    failures = {}
    for key in reference:
        argv = json.loads(key)
        failure = bench_workloads.check_cli(argv, _run(argv), None, False, reference)
        if failure is not None:
            failures[key] = failure
    assert failures == {}


@pytest.mark.parametrize("fmt, size, sha256", [
    ("text", 88982, "cac3972276dbf83443951b93a90ee2401e158da95bcb4437e9575489c75cede8"),
    ("csv", 44932, "b27be97670d52ba6f2e388e83dfa1c243d0e903ccaaf6f98da408011442e29be"),
])
def test_thousand_witness_text_and_csv_are_pinned(fmt, size, sha256):
    """The text and csv stdout of the 1000-witness search, as printed before
    their renderers formatted each distinct degrees and split once."""
    code, text = _run(["--format", fmt] + _THOUSAND_WITNESSES)
    assert code == 0
    assert len(text) == size
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_thousand_witness_command_budget(fmt):
    # A loose budget: about 1.5 ms in json, 1 in text and 1.7 in csv on a 2-core x86 VM.
    argv = ["--format", fmt] + _THOUSAND_WITNESSES
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert _run(argv)[0] == 0
        times.append(time.perf_counter() - start)
    assert min(times) < 0.050


def test_no_indented_json_dumps_in_the_package():
    """JSON is rendered by cli._json_text; json.dumps with an indent runs the
    pure-Python encoder, and is to stay a test oracle only."""
    package = Path(cli.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in ("dumps", "dump")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert calls == []


# ---------------------------------------------------------------------------
# Errors and exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(threads):
    code, text = _run(["--threads", threads, "switch-search", "0 1^2 0^2 1",
                       "--profile", "regular"])
    assert code == 2
    assert text == ""


def test_threads_above_cpu_count_runs():
    # --threads is validated but has no effect on the search.
    argv = ["switch-search", "0 1^2 0^2 1", "--profile", "regular", "--all"]
    assert _run(["--threads", "1000000"] + argv) == _run(argv)


def test_bad_string_is_usage_error():
    code, doc = _run_json(["spectrum", "110"])
    assert code == 2
    assert doc["status"] == "error"
    assert doc["error"]["code"] == "usage"


def test_unknown_subcommand_exits_2():
    code, _text = _run(["bogus"])
    assert code == 2


def test_help_is_written_to_out(capsys):
    for argv, usage in ((["--help"], "usage: seidelchain"),
                        (["spectrum", "--help"], "usage: seidelchain spectrum")):
        code, text = _run(argv)
        assert code == 0
        assert text.startswith(usage)
    words = " ".join(_run(["--help"])[1].split())  # argparse wraps to the terminal width
    assert "certify the bundled golden tables" in words
    assert "recompute" not in words
    assert capsys.readouterr() == ("", "")


def test_usage_errors_stay_on_stderr(capsys):
    code, text = _run(["bogus"])
    assert (code, text) == (2, "")
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: seidelchain")


def test_degenerate_equiangular_exits_1():
    code, doc = _run_json(["equiangular", "01"])
    assert code == 1
    assert doc["error"]["code"] == "degenerate"


def test_cap_exceeded_exits_1():
    code, doc = _run_json(["integral", "--scan", "1000"])
    assert code == 1
    assert doc["error"]["code"] == "cap-exceeded"


def test_conflicting_options_exit_2():
    code, doc = _run_json(["cospectral"])
    assert code == 2
    code, doc = _run_json(["cospectral", "--r", "1", "--max-n", "20"])
    assert code == 2
    code, doc = _run_json(["integral", "--family", "F1"])
    assert code == 2
    code, doc = _run_json(["switch-search", "01", "--profile", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("options", [[], ["--family", "F1", "--r", "2", "--scan", "10"]])
def test_integral_needs_a_family_or_a_scan(fmt, options):
    message = "integral needs exactly one of --family/--r or --scan"
    code, text = _run(["--format", fmt, "integral"] + options)
    assert code == 2
    assert text == {
        "text": f"error [usage]: {message}\n",
        "json": json.dumps({"status": "error", "error": {"code": "usage", "message": message},
                            "payload": {}}, indent=2) + "\n",
        "csv": f"status,code,message\nerror,usage,{message}\n",
    }[fmt]


def test_bad_profile_degrees():
    code, doc = _run_json(["switch-search", "01", "--profile", "biregular:a,b"])
    assert code == 2


def test_even_r_usage_error():
    code, doc = _run_json(["cospectral", "--r", "2"])
    assert code == 2


def test_seed_option_is_gone():
    code, text = _run(["--seed", "3", "spectrum", "0 1"])
    assert code == 2
    assert text == ""


@pytest.mark.parametrize("argv, check", [
    (["switch-search", "0^100000 1", "--profile", "regular"], check_search_size),
    (["equivalent", "0^100000 1", "0^100000 1"], check_certificate_size),
    (["equivalent", "0^2000 1", "0^2000 1", "--mode", "plain"], check_plain_size),
    (["equivalent", "0^100000 1", "0^100000 1", "--mode", "plain"], check_plain_size),
])
def test_oversized_input_refused_before_graph_build(argv, check):
    with pytest.raises(ValueError) as refusal:
        check(100001)
    start = time.perf_counter()
    code, doc = _run_json(argv)
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert doc["error"] == {"code": "cap-exceeded", "message": str(refusal.value)}


@pytest.mark.parametrize("mode", ["iso", "plain"])
def test_equivalent_different_vertex_counts_is_usage_error(mode):
    code, doc = _run_json(["equivalent", "0 1", "0 1^2", "--mode", mode])
    assert code == 2
    assert doc["error"] == {"code": "usage",
                            "message": "graphs must have the same number of vertices"}


def test_failed_verification_prints_report_and_error(monkeypatch):
    report = cli.verify_tables()
    report["cospectral"]["rows"][0]["pass"] = False
    report["cospectral"]["passed"] -= 1
    report["all_pass"] = False
    monkeypatch.setattr(cli, "verify_tables", lambda: report)
    error = {"code": "verification-failed",
             "message": "one or more golden table rows did not reproduce"}

    code, doc = _run_json(["verify-tables"])
    assert code == 1
    assert doc == {"status": "error", "error": error, "payload": report}

    code, text = _run(["verify-tables"])
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == "cospectral table: 9/10 rows pass"
    assert lines[-2:] == ["all pass: False",
                          "error [verification-failed]: " + error["message"]]

    code, text = _run(["--format", "csv", "verify-tables"])
    assert code == 1
    lines = text.splitlines()
    assert lines[0] == "table,row,pass"
    assert lines[1] == "cospectral,0 1^3 0^3 1^7,False"
    assert len(lines) == 21
