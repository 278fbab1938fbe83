"""The benchmark's contract with the library, checked in the test suite.

`bench/tracing.py` wraps library functions by name and fails a traced run
when a layer is never called in its home workload.  A tiny traced run of each
workload (one short pass, no files written) makes a change that renames a
traced function, or stops calling a traced layer, fail here rather than in a
later benchmark run.  It also checks every result of the run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _program_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "seidelchain" or name.startswith("seidelchain.")}


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module; the program modules of the suite are restored afterwards.

    Every pass of a run imports seidelchain afresh and the traced passes
    install wrappers in that import, so the suite's own import is put back.
    """
    saved_modules, saved_path = _program_modules(), list(sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(saved_modules)
    for name in ("workloads", "tracing"):
        sys.modules.pop(name, None)
    sys.path[:] = saved_path


@pytest.mark.parametrize("workload", ["spectrum_small", "spectrum_large", "oracle_crosscheck", "cli_mix"])
def test_tiny_traced_run_is_correct_and_calls_every_layer(bench_run, workload):
    out = bench_run.run_benchmark(workload, seed=7, seconds=1, trace=True, tiny=True)
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    # run_benchmark has already passed the trace guard; check its counts directly too.
    homes = [name for name, home in sys.modules["tracing"].LAYERS.items() if home == workload]
    assert homes
    for name in homes:
        assert result["metrics"][f"{name}.calls"]["value"] > 0, name
