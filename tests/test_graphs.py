import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from seidelchain import Graph, chain_graph


def _reference_check(n: int, rows: tuple[int, ...]) -> str | None:
    """The graph checks as a row-by-row loop: the first error message, or None."""
    if n < 0:
        return "vertex count must be nonnegative"
    if len(rows) != n:
        return "row count does not match vertex count"
    for v, row in enumerate(rows):
        if row >> n:
            return f"row {v} has bits beyond vertex range"
        if (row >> v) & 1:
            return f"vertex {v} has a self-loop"
    for v in range(n):
        for w in range(v + 1, n):
            if (rows[v] >> w) & 1 != (rows[w] >> v) & 1:
                return f"adjacency not symmetric at ({v}, {w})"
    return None


def _error(n: int, rows: tuple[int, ...]) -> str | None:
    try:
        Graph(n, rows)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n,rows,message", [
    (-1, (), "vertex count must be nonnegative"),
    (3, (0, 0), "row count does not match vertex count"),
    (3, (0, 0, 1 << 3), "row 2 has bits beyond vertex range"),
    (9, (0,) * 8 + (1 << 15,), "row 8 has bits beyond vertex range"),
    (3, (0, -1, 0), "row 1 has bits beyond vertex range"),
    (3, (0, 0b010, 0), "vertex 1 has a self-loop"),
    # The first faulty row decides, whatever the faults further on.
    (3, (0b001, 0, -4), "vertex 0 has a self-loop"),
    (3, (1 << 5, 0b010, 0), "row 0 has bits beyond vertex range"),
    (3, (0b010, 0, 0b100), "vertex 2 has a self-loop"),
    # Asymmetry names the first pair (v, w), v < w, in row-major order.
    (5, (0, 1 << 3, 1 << 4, 0, 0), "adjacency not symmetric at (1, 3)"),
    (5, (0, 0, 0, 1 << 1, 1 << 2), "adjacency not symmetric at (1, 3)"),
    (2, (0b10, 0), "adjacency not symmetric at (0, 1)"),
])
def test_graph_rejects(n, rows, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, rows)
    assert str(exc.value) == message


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_checks_match_the_row_loop(data):
    n = data.draw(st.integers(0, 18))
    # Mostly symmetric rows, then a few flipped bits and out-of-range rows.
    g = random_graph(random.Random(data.draw(st.integers(0, 2**32))), n)
    rows = list(g.rows)
    for _ in range(data.draw(st.integers(0, 3))):
        if n:
            v = data.draw(st.integers(0, n - 1))
            rows[v] ^= 1 << data.draw(st.integers(0, n + 2))
    if n and data.draw(st.booleans()):
        rows[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(-8, -1))
    rows = tuple(rows)
    assert _error(n, rows) == _reference_check(n, rows)


def test_adjacency_reads_the_row_bits():
    rng = random.Random(41)
    graphs = [Graph.empty(0), Graph.empty(1), chain_graph("0^3 1^7"), chain_graph("0^40 1 0 1^23")]
    graphs += [random_graph(rng, n) for n in (2, 7, 8, 9, 16, 17, 64, 65)]
    for g in graphs:
        a = g.adjacency()
        assert a.shape == (g.n, g.n) and a.dtype == np.uint8
        assert a.tolist() == [[(row >> w) & 1 for w in range(g.n)] for row in g.rows]
