"""The claim rule of tools/bench_pairs.py on fixed paired values.

`summarize` marks a metric `gain` when the change won at least nine tenths
of the pairs in the metric's better direction by a median difference larger
than the parent's interquartile range, and `worse` when the change's median
is worse than the parent's by more than the metric's bound.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "reject_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
# Parent runs with a median of 0.20 and quartiles 0.195 and 0.21.
PARENT = [0.20, 0.21, 0.19, 0.20, 0.22, 0.18, 0.20, 0.21, 0.19, 0.20]


def _marks(metric: dict, parent: list[float], change: list[float]) -> set[str]:
    return set(bench_pairs.summarize(metric, parent, change).split()) & {"gain", "worse"}


def _mirrored(values: list[float]) -> list[float]:
    """The values as a higher-is-better metric sees them: 1 / value, so each
    pair's winner and the ordering of the medians are kept."""
    return [1 / v for v in values]


def _won_pairs(wins: int) -> list[float]:
    """Change values of a lower-is-better metric far below the parent's in
    the first `wins` pairs, and just above it in the rest."""
    return [0.03 if i < wins else p * 1.05 for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("metric,view", [(LOWER, list), (HIGHER, _mirrored)], ids=["lower", "higher"])
def test_nine_of_ten_wins_past_the_quartiles_is_a_gain(metric, view):
    assert _marks(metric, view(PARENT), view(_won_pairs(9))) == {"gain"}


@pytest.mark.parametrize("metric,view", [(LOWER, list), (HIGHER, _mirrored)], ids=["lower", "higher"])
def test_eight_of_ten_wins_is_no_gain(metric, view):
    assert _marks(metric, view(PARENT), view(_won_pairs(8))) == set()


@pytest.mark.parametrize("metric,view", [(LOWER, list), (HIGHER, _mirrored)], ids=["lower", "higher"])
def test_ten_wins_inside_the_quartiles_is_no_gain(metric, view):
    change = [p - 0.001 for p in PARENT]
    assert _marks(metric, view(PARENT), view(change)) == set()


@pytest.mark.parametrize("metric,view", [(LOWER, list), (HIGHER, _mirrored)], ids=["lower", "higher"])
def test_a_median_past_the_bound_is_worse(metric, view):
    assert _marks(metric, view(PARENT), view([p * 1.4 for p in PARENT])) == {"worse"}
    assert _marks(metric, view(PARENT), view([p * 1.1 for p in PARENT])) == set()
