import random
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from seidelchain import Graph, build_chain_graph, chain_graph, parse_block_string, seidel_matrix


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_structured_graph_checks_match_the_row_loop(data):
    # Runs of equal rows from a symmetric run pattern with a zero diagonal.
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    r, n = len(sizes), sum(sizes)
    starts = list(accumulate(sizes[:-1], initial=0))
    masks = [((1 << size) - 1) << start for start, size in zip(starts, sizes)]
    joined = {(i, j) for i in range(r) for j in range(i + 1, r) if data.draw(st.booleans())}
    rows = []
    for i, size in enumerate(sizes):
        rows += [sum(masks[j] for j in range(r) if (min(i, j), max(i, j)) in joined)] * size
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["one row", "across runs", "run diagonal", "range"]))
        i = data.draw(st.integers(0, r - 1))
        run = range(starts[i], starts[i] + sizes[i])
        if kind == "one row":  # splits the run
            rows[data.draw(st.sampled_from(run))] ^= 1 << data.draw(st.integers(0, n - 1))
        elif kind == "range":
            rows[data.draw(st.sampled_from(run))] = data.draw(
                st.sampled_from([-1, -(1 << n), 1 << n, 1 << (n + 5)]))
        else:  # the same bit of every row of run i, so the rows' runs stay
            j = i if kind == "run diagonal" else data.draw(st.integers(0, r - 1))
            w = data.draw(st.integers(starts[j], starts[j] + sizes[j] - 1))
            for v in run:
                rows[v] ^= 1 << w
    rows = tuple(rows)
    error = _reference_check(n, rows)
    assert _error(n, rows) == error
    if error is None:
        assert Graph(n, rows).adjacency().tolist() == [
            [(row >> w) & 1 for w in range(n)] for row in rows]


@pytest.mark.parametrize("n,edges", [
    (3, [(0, 5)]),
    (3, [(-1, 0)]),
    (3, [(0, 1), (1, 3)]),
    (3, [(3, 3)]),
    (0, [(0, 1)]),
])
def test_from_edges_rejects_endpoints_out_of_range(n, edges):
    u, v = edges[-1]
    with pytest.raises(ValueError) as exc:
        Graph.from_edges(n, edges)
    assert str(exc.value) == f"edge ({u}, {v}) has an endpoint outside range({n})"


def test_refused_oracle_graph_never_holds_an_n_by_n_array():
    # 3001 vertices in two cells: the n x n uint8 matrix alone would take 9 MB.
    b = parse_block_string("0^1500 1^1501")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="capped at 2000 vertices"):
            seidel_matrix(build_chain_graph(b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_asymmetry_is_named_without_an_n_by_n_array():
    # One flipped bit in a 3001-vertex chain graph: the n x n uint8 matrix
    # alone would take 9 MB.
    rows = list(build_chain_graph(parse_block_string("0^1500 1^1501")).rows)
    rows[2999] ^= 1 << 3000
    tracemalloc.start()
    try:
        assert _error(3001, tuple(rows)) == "adjacency not symmetric at (2999, 3000)"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_adjacency_reads_the_row_bits():
    rng = random.Random(41)
    graphs = [Graph.empty(0), Graph.empty(1), chain_graph("0^3 1^7"), chain_graph("0^40 1 0 1^23")]
    graphs += [random_graph(rng, n) for n in (2, 7, 8, 9, 16, 17, 64, 65)]
    for g in graphs:
        a = g.adjacency()
        assert a.shape == (g.n, g.n) and a.dtype == np.uint8
        assert a.tolist() == [[(row >> w) & 1 for w in range(g.n)] for row in g.rows]
