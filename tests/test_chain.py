import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import cycle_graph, path_graph, random_block_string
from seidelchain import (
    BlockString,
    Graph,
    build_chain_graph,
    chain_graph,
    degree_sequence,
    exact_spectrum,
    is_chain_graph,
    parse_block_string,
)
from seidelchain.chain import CHAIN_GRAPH_CAP, cell_signs
from seidelchain.spectra import MATRIX_CAP
from seidelchain.switching import CANONICAL_CAP, CERTIFICATE_CAP, PLAIN_CAP, SEARCH_CAP


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,blocks,n", [
    ("0^3 1^7", ((3, 7),), 10),
    ("01^5 0^5 1^4", ((1, 5), (5, 4)), 15),
    ("001110011", ((2, 3), (2, 2)), 9),
    ("0 1", ((1, 1),), 2),
    ("0^2 1^4 0^4 1^2", ((2, 4), (4, 2)), 12),
    ("0 1  ", ((1, 1),), 2),  # trailing whitespace
    ("0^2 1 \n", ((2, 1),), 3),
])
def test_parse_examples(text, blocks, n):
    b = parse_block_string(text)
    assert b.blocks == blocks
    assert b.n == n


@pytest.mark.parametrize("text", [
    "1100",          # starts with 1
    "",              # empty
    "   ",           # blank
    "0",             # ends with a 0-block
    "0^3",           # ends with a 0-block
    "0^0 1^2",       # zero exponent
    "abc",           # bad characters
    "0^ 1",          # dangling caret
    "0^-2 1",        # negative exponent
    "01 0",          # ends with 0
])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_block_string(text)


def test_block_string_invariants():
    with pytest.raises(ValueError):
        BlockString(())
    with pytest.raises(ValueError):
        BlockString(((0, 2),))
    b = BlockString(((2, 3), (2, 2)))
    assert b.k == 2 and b.n == 9
    assert BlockString([[2, 3], [2, 2]]) == b and BlockString([[2, 3], [2, 2]]).blocks == ((2, 3), (2, 2))


@pytest.mark.parametrize("size", [2.0, 2.5, "2", None])
def test_block_sizes_that_are_not_integers_are_refused_at_construction(size):
    with pytest.raises(TypeError):
        BlockString(((size, 1),))
    with pytest.raises(TypeError):
        BlockString(((1, 1), (1, size)))


class _Size(int):
    """An int subclass, as a block size."""


def test_exact_int_pairs_are_kept_as_given():
    """A tuple of (int, int) pairs, each size at least 1, is stored as the
    very tuple passed; any other input is stored afresh, as plain ints."""
    blocks = ((2, 3), (2, 2))
    assert BlockString(blocks).blocks is blocks
    for other, want in ((((True, 3), (2, 2)), ((1, 3), (2, 2))), (((_Size(2), 3), (2, _Size(2))), blocks),
                        ([(2, 3), (2, 2)], blocks), (((2, 3), [2, 2]), blocks)):
        b = BlockString(other)
        assert b.blocks is not other and b.blocks == want, other
        assert type(b.blocks) is tuple and all(type(pair) is tuple for pair in b.blocks)
        assert all(type(size) is int for pair in b.blocks for size in pair)
    assert BlockString(((True, True),)).blocks == ((1, 1),)
    for bad in (((False, 1),), ((1, _Size(0)),), ((2, 3), (0, 1))):
        with pytest.raises(ValueError):
            BlockString(bad)


def test_numpy_integer_block_sizes_become_ints():
    """k = 6 with numpy.int64 sizes from 10^5 to 10^6: each is stored as the
    Python int it holds, so the charpoly's coefficients overflow no fixed
    width (no RuntimeWarning) and the spectrum is the int string's."""
    rng = random.Random(6)
    sizes = [(rng.randint(10 ** 5, 10 ** 6), rng.randint(10 ** 5, 10 ** 6)) for _ in range(6)]
    b = BlockString(tuple((np.int64(s), np.int64(t)) for s, t in sizes))
    assert b.blocks == tuple(sizes)
    assert all(type(size) is int for block in b.blocks for size in block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exact_spectrum(b) == exact_spectrum(BlockString(tuple(sizes)))


def test_round_trip_both_renderings():
    rng = random.Random(2024)
    for _ in range(200):
        b = random_block_string(rng, max_k=8, max_n=1000)
        assert parse_block_string(b.caret()) == b
        assert parse_block_string(b.literal()) == b
        assert parse_block_string(b.literal()).literal() == b.literal()
    for _ in range(200):  # exponents up to 10^6, caret rendering only
        blocks = tuple((rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(rng.randint(1, 12)))
        assert parse_block_string(BlockString(blocks).caret()).blocks == blocks


def test_caret_rendering_omits_unit_exponents():
    assert parse_block_string("01^5 0^5 1^4").caret() == "0 1^5 0^5 1^4"
    assert parse_block_string("0^3 1^7").caret() == "0^3 1^7"


# ---------------------------------------------------------------------------
# Chain graph construction
# ---------------------------------------------------------------------------

def test_build_k2():
    g = chain_graph("01")
    assert g.n == 2
    assert degree_sequence(g) == [1, 1]


def test_build_complete_bipartite():
    g = chain_graph("0^3 1^7")
    assert degree_sequence(g) == [7, 7, 7, 3, 3, 3, 3, 3, 3, 3]


def test_build_two_block_degrees():
    g = chain_graph("01^5 0^5 1^4")
    assert degree_sequence(g) == [9, 6, 6, 6, 6, 4, 4, 4, 4, 4, 1, 1, 1, 1, 1]


def _is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        row = g.rows[v] & ~seen
        w = 0
        while row:
            if row & 1:
                seen |= 1 << w
                frontier.append(w)
            row >>= 1
            w += 1
    return seen == (1 << g.n) - 1


def test_chain_graphs_are_connected():
    rng = random.Random(5)
    for _ in range(30):
        b = random_block_string(rng, max_k=5, max_n=40)
        assert _is_connected(build_chain_graph(b))


def test_degree_sum_is_twice_edges():
    rng = random.Random(6)
    for _ in range(30):
        g = build_chain_graph(random_block_string(rng, max_k=5, max_n=40))
        edges = sum((row >> (v + 1)).bit_count() for v, row in enumerate(g.rows))
        assert sum(degree_sequence(g)) == 2 * edges


def test_neighborhood_nesting():
    rng = random.Random(7)
    for _ in range(20):
        b = random_block_string(rng, max_k=5, max_n=30)
        g = build_chain_graph(b)
        ones = [(start, size) for lab, start, size in g.cells() if lab == "1"]
        zeros = [(start, size) for lab, start, size in g.cells() if lab == "0"]
        # 1-cell neighborhoods grow along the string; 0-cell neighborhoods shrink.
        for (s1, z1), (s2, z2) in zip(ones, ones[1:]):
            assert g.rows[s1] & ~g.rows[s2] == 0
        for (s1, z1), (s2, z2) in zip(zeros, zeros[1:]):
            assert g.rows[s2] & ~g.rows[s1] == 0


def _edge_rule_rows(b: BlockString) -> tuple[int, ...]:
    """Adjacency rows built vertex pair by vertex pair from the rule i <= j."""
    labels = []
    for i, (s, t) in enumerate(b.blocks):
        labels += [("0", i)] * s + [("1", i)] * t
    rows = [0] * b.n
    for v, (lab_v, i) in enumerate(labels):
        for w, (lab_w, j) in enumerate(labels):
            if lab_v == "0" and lab_w == "1" and i <= j:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
    return tuple(rows)


def test_cell_signs_follow_the_edge_rule():
    rng = random.Random(10)
    for _ in range(30):
        b = random_block_string(rng, max_k=5, max_n=30)
        rows = _edge_rule_rows(b)
        assert build_chain_graph(b).rows == rows
        starts = [start for _lab, start, _size in b.cells()]
        signs = cell_signs(b)
        assert len(signs) == 2 * b.k
        for p, sp in enumerate(starts):
            assert signs[p][p] == 1
            for q, sq in enumerate(starts):
                if p != q:
                    assert signs[p][q] == (-1 if rows[sp] >> sq & 1 else 1)


def test_bipartite_between_cell_classes():
    rng = random.Random(8)
    for _ in range(20):
        b = random_block_string(rng, max_k=4, max_n=30)
        g = build_chain_graph(b)
        zero_mask = one_mask = 0
        for lab, start, size in g.cells():
            mask = ((1 << size) - 1) << start
            if lab == "0":
                zero_mask |= mask
            else:
                one_mask |= mask
        for v in range(g.n):
            side = zero_mask if (zero_mask >> v) & 1 else one_mask
            assert g.rows[v] & side == 0


@pytest.mark.parametrize("build", [
    lambda: chain_graph("0^1000000000 1"),
    lambda: build_chain_graph(BlockString(((10 ** 300, 1),))),
], ids=["chain_graph_1e9", "build_chain_graph_1e300"])
def test_oversized_chain_graph_is_refused_before_any_row(build):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="capped at 2000 vertices"):
            build()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05
    assert peak < 100_000


def test_chain_graph_cap_refuses_no_graph_a_consumer_takes():
    with pytest.raises(ValueError, match="capped at 64 vertices"):
        is_chain_graph(Graph.empty(65))
    assert CHAIN_GRAPH_CAP >= max(MATRIX_CAP, PLAIN_CAP, SEARCH_CAP, CERTIFICATE_CAP, CANONICAL_CAP, 64)
    assert build_chain_graph(BlockString(((1, CHAIN_GRAPH_CAP - 1),))).n == CHAIN_GRAPH_CAP


# ---------------------------------------------------------------------------
# Forbidden-subgraph oracle
# ---------------------------------------------------------------------------

def test_built_graphs_are_chain_graphs():
    rng = random.Random(9)
    for _ in range(15):
        b = random_block_string(rng, max_k=4, max_n=20)
        assert is_chain_graph(build_chain_graph(b))


def test_forbidden_subgraphs_detected():
    assert not is_chain_graph(cycle_graph(5))
    assert not is_chain_graph(cycle_graph(3))
    assert not is_chain_graph(Graph.from_edges(4, [(0, 1), (2, 3)]))  # 2K2
    assert is_chain_graph(path_graph(4))
    assert is_chain_graph(Graph.empty(1))


def test_forbidden_subgraph_in_context():
    # A 6-vertex graph whose only bad induced subgraph is a 2K2.
    g = Graph.from_edges(6, [(0, 1), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
    assert not is_chain_graph(g)


def test_chain_validator_cap():
    with pytest.raises(ValueError):
        is_chain_graph(Graph.empty(65))
