import math
import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import root_oracles
from conftest import (
    brute_switch_search,
    cell_split,
    cycle_graph,
    gray_rank,
    path_graph,
    random_graph,
    random_subset_mask,
)
from seidelchain import (
    BlockString,
    ClassCertificate,
    Graph,
    SearchResult,
    SwitchingWitness,
    biregular_profile,
    build_chain_graph,
    canonical_bits,
    canonical_label,
    chain_graph,
    class_certificate,
    degree_sequence,
    numeric_spectrum,
    regular_profile,
    search_class_by_degree_profile,
    seidel_matrix,
    switch_on_subset,
    switching_equivalent,
)
from seidelchain import switching
from seidelchain.switching import (
    _are_twins,
    _free_twins,
    _gray_ranks,
    _least_gray_mask,
    _orbit_masks,
    _twin_components,
    degree_multiset_prefilter,
)


# ---------------------------------------------------------------------------
# Switching basics
# ---------------------------------------------------------------------------

def test_switch_trivial_subsets():
    g = chain_graph("0 1^2 0^2 1")
    assert switch_on_subset(g, 0).rows == g.rows
    assert switch_on_subset(g, (1 << g.n) - 1).rows == g.rows


def test_switch_k2_on_one_vertex():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert switch_on_subset(k2, [1]).rows == (0, 0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 20), data=st.data())
def test_switch_involution_and_complement(n, data):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=60))
    g = Graph.from_edges(n, edges)
    u = data.draw(st.integers(0, (1 << n) - 1))
    h = switch_on_subset(g, u)
    assert switch_on_subset(h, u) == g
    assert switch_on_subset(g, ((1 << n) - 1) ^ u) == h


def test_switch_is_seidel_conjugation():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(2, 12)
        g = random_graph(rng, n)
        u = random_subset_mask(rng, n)
        s = seidel_matrix(g).entries.tolist()
        s2 = seidel_matrix(switch_on_subset(g, u)).entries.tolist()
        d = [-1 if (u >> v) & 1 else 1 for v in range(n)]
        for i in range(n):
            for j in range(n):
                assert s2[i][j] == d[i] * s[i][j] * d[j]


def test_switch_preserves_numeric_spectrum():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 14)
        g = random_graph(rng, n)
        u = random_subset_mask(rng, n)
        a = numeric_spectrum(seidel_matrix(g))
        b = numeric_spectrum(seidel_matrix(switch_on_subset(g, u)))
        assert all(abs(x - y) < 1e-8 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Degree-profile search
# ---------------------------------------------------------------------------

def test_search_degrees_match_rebuild_oracle():
    rng = random.Random(34)
    for _ in range(5):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        res = search_class_by_degree_profile(g, lambda dm: True, all_witnesses=True)
        assert res.match_count == 1 << (n - 1)
        for w in res.witnesses:
            rebuilt = degree_sequence(switch_on_subset(g, w.subset))
            assert list(w.degrees) == rebuilt


@st.composite
def _small_graphs(draw, max_chain_n: int = 14) -> Graph:
    """A random graph on at most 9 vertices, or a chain graph on at most max_chain_n."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
    return draw(_chain_graphs(max_chain_n))


@st.composite
def _chain_graphs(draw, max_n: int) -> Graph:
    """A chain graph on 2 to max_n vertices."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n // 2))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2 * k - 1, max_size=2 * k - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return build_chain_graph(BlockString(tuple(zip(parts[::2], parts[1::2]))))


@settings(max_examples=60, deadline=None)
@given(g=_small_graphs(), data=st.data())
def test_search_and_prefilter_equal_brute_force(g, data):
    _check_search_and_prefilter_against_brute_force(g, data.draw(st.integers(0, (1 << g.n) - 1)))


def _check_search_and_prefilter_against_brute_force(g: Graph, mask: int) -> None:
    # The biregular degrees are those of one switching, so it matches at least once.
    degrees = degree_sequence(switch_on_subset(g, mask))
    for profile in (regular_profile, biregular_profile(degrees[0], degrees[-1]), lambda dm: True):
        for all_witnesses in (False, True):
            res = search_class_by_degree_profile(g, profile, all_witnesses=all_witnesses)
            assert res == brute_switch_search(g, profile, all_witnesses)
    every = brute_switch_search(g, lambda dm: True, all_witnesses=True)
    assert degree_multiset_prefilter(g) == Counter(w.degrees for w in every.witnesses)


def _blow_up(joined: set[tuple[int, int]], cliques: list[bool], order: list[int]) -> Graph:
    """A blow-up of the base graph with edges `joined`: vertex v stands for base
    vertex order[v], and the vertices of base vertex i form a clique where
    cliques[i] is set and an independent set otherwise."""
    n = len(order)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if (order[u], order[v]) in joined or (order[v], order[u]) in joined
                                or (order[u] == order[v] and cliques[order[u]])])


@st.composite
def _blow_ups(draw) -> Graph:
    """A random graph on at most 5 vertices, each vertex replaced by a clique or
    an independent set of 1 to 4 vertices, at most 14 in all, in shuffled order.

    Chain graph cells are independent sets, so this is the strategy whose
    twin components are cliques too."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(lambda s: sum(s) <= 14))
    pairs = list(combinations(range(len(sizes)), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    cliques = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    order = draw(st.permutations([i for i, size in enumerate(sizes) for _ in range(size)]))
    return _blow_up({p for p, k in zip(pairs, keep) if k}, cliques, order)


def _random_blow_up(rng: random.Random) -> Graph:
    sizes = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
    order = [i for i, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(order)
    joined = {p for p in combinations(range(len(sizes)), 2) if rng.random() < 0.5}
    return _blow_up(joined, [rng.random() < 0.5 for _ in sizes], order)


@settings(max_examples=40, deadline=None)
@given(g=_blow_ups(), data=st.data())
def test_search_and_prefilter_equal_brute_force_on_blow_ups(g, data):
    _check_search_and_prefilter_against_brute_force(g, data.draw(st.integers(0, (1 << g.n) - 1)))


def _pairwise_twin_components(g: Graph) -> list[list[int]]:
    """Connected components of the graph joining every pair of twins."""
    comps: list[list[int]] = []
    left = set(range(g.n))
    while left:
        comp, todo = [], [min(left)]
        left.discard(todo[0])
        while todo:
            u = todo.pop()
            comp.append(u)
            for v in [v for v in left if _are_twins(g.rows, u, v)]:
                left.discard(v)
                todo.append(v)
        comps.append(sorted(comp))
    return sorted(comps)


@settings(max_examples=150, deadline=None)
@given(g=st.one_of(_small_graphs(), _blow_ups()))
def test_twin_components_equal_the_pairwise_definition(g):
    assert _twin_components(g) == _pairwise_twin_components(g)


def test_twin_components_on_the_smallest_graphs():
    for g in (chain_graph("0 1"), Graph.empty(0), Graph.empty(1), Graph.empty(2),
              Graph.from_edges(2, [(0, 1)])):
        assert _twin_components(g) == _pairwise_twin_components(g)
    assert _twin_components(chain_graph("0 1")) == [[0, 1]]
    assert _twin_components(Graph.empty(0)) == []


def _search_and_prefilter(g: Graph) -> list:
    degrees = degree_sequence(g)
    results = [search_class_by_degree_profile(g, profile, all_witnesses=all_witnesses)
               for profile in (regular_profile, biregular_profile(degrees[0], degrees[-1]))
               for all_witnesses in (False, True)]
    return results + [degree_multiset_prefilter(g)]


@pytest.mark.parametrize("block", [1, 7])
def test_orbit_block_size_does_not_change_results(monkeypatch, block):
    rng = random.Random(44)
    graphs = [chain_graph("0^3 1^4 0^4 1^3 0 1^2"), chain_graph("01" * 5)]
    graphs += [_random_blow_up(rng) for _ in range(8)]
    expected = [_search_and_prefilter(g) for g in graphs]
    monkeypatch.setattr(switching, "_ORBIT_BLOCK", block)
    assert [_search_and_prefilter(g) for g in graphs] == expected


@pytest.mark.parametrize("block", [1, 7, 1 << 12])
def test_search_on_the_smallest_graphs(monkeypatch, block):
    monkeypatch.setattr(switching, "_ORBIT_BLOCK", block)
    empty0, empty1, empty2 = Graph.empty(0), Graph.empty(1), Graph.empty(2)
    k2 = Graph.from_edges(2, [(0, 1)])
    everything = lambda dm: True  # noqa: E731
    assert search_class_by_degree_profile(empty0, regular_profile) == SearchResult((), 0, 1)
    assert search_class_by_degree_profile(empty0, everything) == \
        SearchResult((SwitchingWitness(0, ()),), 1, 1)
    assert search_class_by_degree_profile(empty1, regular_profile) == \
        SearchResult((SwitchingWitness(0, (0,)),), 1, 1)
    both = (SwitchingWitness(0, (0, 0)), SwitchingWitness(0b10, (1, 1)))
    assert search_class_by_degree_profile(empty2, regular_profile, all_witnesses=True) == \
        SearchResult(both, 2, 2)
    assert search_class_by_degree_profile(k2, regular_profile, all_witnesses=True) == \
        SearchResult((SwitchingWitness(0, (1, 1)), SwitchingWitness(0b10, (0, 0))), 2, 2)
    assert search_class_by_degree_profile(k2, biregular_profile(0, 1)).match_count == 0
    assert degree_multiset_prefilter(empty0) == Counter({(): 1})
    assert degree_multiset_prefilter(k2) == Counter({(1, 1): 1, (0, 0): 1})
    for g in (empty0, empty1, empty2, k2):
        for all_witnesses in (False, True):
            assert search_class_by_degree_profile(g, everything, all_witnesses=all_witnesses) == \
                brute_switch_search(g, everything, all_witnesses)


def test_twin_free_search_memory_is_bounded_by_the_block():
    # (01)^9 has no twins: 2^17 one-subset orbits.  Holding a degree row
    # for each of them at once would take over 9 MB as int32 alone.
    g = chain_graph("01" * 9)
    search_class_by_degree_profile(chain_graph("0101"), regular_profile)  # numpy's first-call set-up
    tracemalloc.start()
    try:
        res = search_class_by_degree_profile(g, regular_profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.subsets_examined == 1 << 17
    assert peak < 8 << 20


def test_results_hold_plain_ints():
    # An np.int64 anywhere would break the CLI's int join and JSON output.
    for string, profile in (("0 1^5 0^5 1^4", biregular_profile(7, 8)), ("0 1", regular_profile),
                            ("010101", lambda dm: True)):
        g = chain_graph(string)
        res = search_class_by_degree_profile(g, profile, all_witnesses=True)
        assert res.witnesses and type(res.match_count) is int
        for w in res.witnesses:
            assert type(w.subset) is int
            assert all(type(d) is int for d in w.degrees + w.split_per_cell)
        columns = res.witnesses
        assert all(type(x) is int for x in columns.masks + columns.orbit_of)
        assert all(type(x) is int for degrees, split in columns.orbits for x in degrees + split)
        prefilter = degree_multiset_prefilter(g)
        assert all(type(d) is int for key in prefilter for d in key)
        assert all(type(size) is int for size in prefilter.values())


@pytest.mark.parametrize("string, profile", [
    ("0 1^3 0^3 1^4", "biregular"), ("0 1", "regular"), ("0101", "all"), ("0^2 1^2 0^2 1^2", "regular"),
    ("0^3 1^4", "none"),
])
def test_witness_columns_read_as_the_tuple_they_stand_for(string, profile):
    g = chain_graph(string)
    degrees = degree_sequence(switch_on_subset(g, 0b10))
    profile = {"biregular": biregular_profile(degrees[0], degrees[-1]), "regular": regular_profile,
               "all": lambda dm: True, "none": lambda dm: False}[profile]
    for all_witnesses in (False, True):
        res = search_class_by_degree_profile(g, profile, all_witnesses=all_witnesses)
        want = brute_switch_search(g, profile, all_witnesses)
        cols, t = res.witnesses, want.witnesses
        assert type(t) is tuple and type(cols) is not tuple
        assert len(cols) == len(t) and list(cols) == list(t) and tuple(cols) == t
        assert [cols[i] for i in range(len(t))] == [cols[i - len(t)] for i in range(len(t))] == list(t)
        for i in (len(t), -len(t) - 1):
            with pytest.raises(IndexError):
                cols[i]
        for part in (slice(None, 1), slice(1, None), slice(None, None, 2), slice(None, None, -1),
                     slice(-2, None), slice(3, 1), slice(None)):
            assert cols[part] == t[part] and t[part] == cols[part]
            assert tuple(cols[part]) == t[part] and hash(cols[part]) == hash(t[part])
        assert cols == t and t == cols and not cols != t and not t != cols
        assert hash(cols) == hash(t)
        assert cols != list(t) and list(t) != cols
        assert cols != t + (SwitchingWitness(0, ()),)
        if t:
            assert t[1:] != cols and cols[1:] != t
            assert t[-1] in cols and cols.index(t[-1]) == len(t) - 1
            other = (SwitchingWitness(t[0].subset ^ 1, t[0].degrees, t[0].split_per_cell),) + t[1:]
            assert cols != other and other != cols
        assert res == want and want == res and hash(res) == hash(want)


def _random_rows(rng: random.Random, width: int, count: int) -> list[list[int]]:
    """Rows of small degrees, so that regular and biregular rows are common;
    every other row sorted non-increasing, as the search passes them."""
    values = rng.sample(range(6), rng.randint(1, 3))
    rows = [[rng.choice(values) for _ in range(width)] for _ in range(count)]
    return [sorted(row, reverse=True) if i % 2 else row for i, row in enumerate(rows)]


def test_builtin_profiles_equal_their_set_definitions():
    rng = random.Random(46)
    for _ in range(300):
        width, count = rng.randint(0, 8), rng.randint(0, 6)
        rows = _random_rows(rng, width, count)
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        cases = ((regular_profile, lambda row: len(set(row)) == 1),
                 (biregular_profile(a, b), lambda row: set(row) == {a, b}))
        for profile, definition in cases:
            want = [definition(row) for row in rows]
            block = np.array(rows, dtype=np.int32).reshape(count, width)
            assert profile(block).tolist() == want
            for row, hit in zip(rows, want):
                assert bool(profile(tuple(row))) == hit
                assert bool(profile(np.array(row, dtype=np.int32))) == hit
    assert not regular_profile(())
    assert not biregular_profile(0, 0)(())


def _orbit_count(g: Graph) -> int:
    return math.prod(len(f) + 1 for f in _free_twins(_twin_components(g)))


@pytest.mark.parametrize("block", [1, 7, 1 << 12])
def test_profile_is_called_once_per_block(monkeypatch, block):
    monkeypatch.setattr(switching, "_ORBIT_BLOCK", block)
    graphs = [chain_graph("0^3 1^4 0^4 1^3 0 1^2"), chain_graph("01" * 5), chain_graph("0 1"),
              Graph.empty(0), _blow_up({(0, 1)}, [True, False], [0, 1, 1, 0, 1])]
    for g in graphs:
        orbits = _orbit_count(g)
        for profile in (regular_profile, lambda rows: True):
            shapes = []

            def counting(rows, profile=profile):
                shapes.append(rows.shape)
                return profile(rows)

            res = search_class_by_degree_profile(g, counting, all_witnesses=True)
            assert len(shapes) == math.ceil(orbits / block)
            assert sum(rows for rows, _width in shapes) == orbits
            assert all(width == g.n for _rows, width in shapes)
            assert res == brute_switch_search(g, profile, all_witnesses=True)


def test_scalar_profile_result_broadcasts_and_wrong_shapes_raise():
    g = chain_graph("0 1^2 0^2 1")
    every = brute_switch_search(g, lambda dm: True, all_witnesses=True)
    for scalar in (True, np.True_, np.array(True)):
        assert search_class_by_degree_profile(g, lambda rows: scalar, all_witnesses=True) == every
    assert search_class_by_degree_profile(g, lambda rows: False) == SearchResult((), 0, 32)
    as_list = search_class_by_degree_profile(g, lambda rows: regular_profile(rows).tolist())
    assert as_list == search_class_by_degree_profile(g, regular_profile)
    wrong = (lambda rows: rows == rows, lambda rows: np.ones((len(rows), 1), dtype=bool),
             lambda rows: np.ones(len(rows) + 1, dtype=bool), lambda rows: np.ones(1, dtype=bool))
    for profile in wrong:
        with pytest.raises(ValueError):
            search_class_by_degree_profile(g, profile)


def test_prefilter_is_exact_beyond_int64_sizes():
    # n = 80: orbit sizes up to C(40, 20) and a total of 2^79 switchings.
    g = chain_graph("0^40 1^40")
    prefilter = degree_multiset_prefilter(g)
    assert sum(prefilter.values()) == 1 << 79
    rng = random.Random(45)
    for _ in range(10):
        mask = rng.randrange(1 << g.n) & ~1
        assert tuple(degree_sequence(switch_on_subset(g, mask))) in prefilter


def test_least_gray_mask_is_the_orbit_minimum():
    # Components with interleaved vertices, unlike the contiguous cells of a chain graph.
    rng = random.Random(41)
    for _ in range(500):
        vertices = list(range(1, rng.randint(1, 13)))
        rng.shuffle(vertices)
        free = []
        while vertices:
            cut = rng.randint(1, len(vertices))
            free.append(sorted(vertices[:cut]))
            vertices = vertices[cut:]
        counts = tuple(rng.randint(0, len(f)) for f in free)
        least = min(_orbit_masks(free, counts), key=gray_rank)
        assert _least_gray_mask(free, counts) == least


def test_array_gray_ranks_equal_the_scalar_oracle():
    small = np.arange(1 << 16)
    assert _gray_ranks(small).tolist() == [gray_rank(m) for m in range(1 << 16)]
    rng = random.Random(47)
    for bits in (29, 30, 62):
        masks = [rng.randrange(1 << bits) for _ in range(4000)] + [(1 << bits) - 1, 1 << (bits - 1)]
        assert _gray_ranks(masks).tolist() == [gray_rank(m) for m in masks]
    assert _gray_ranks([]).tolist() == []


def _switched_degrees(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every subset excluding vertex 0, in increasing mask order, and the
    degrees of its switching, non-increasing, from switched Seidel matrices:
    with S = J - I - 2A, vertex v switched by the signs s has degree
    (n - 1 - s_v (S s)_v) / 2."""
    n = g.n
    masks = np.arange(1 << max(n - 1, 0), dtype=np.int64) << 1
    signs = 1 - 2 * (masks[:, None] >> np.arange(n) & 1)
    adjacency = np.array([[row >> u & 1 for u in range(n)] for row in g.rows], dtype=np.int64)
    s = 1 - np.eye(n, dtype=np.int64) - 2 * adjacency
    degrees = (n - 1 - signs * (signs @ s)) // 2
    return masks, -np.sort(-degrees, axis=1)


def _check_gray_order(g: Graph) -> None:
    """Under the regular profile and the biregular one most switchings match
    (g's own degrees if none has two), the witnesses are every matching
    subset sorted by the scalar oracle, and the first witness is their head."""
    masks, degrees = _switched_degrees(g)
    top, bottom = degrees[:, 0], degrees[:, -1]
    two = (top != bottom) & ((degrees == top[:, None]) | (degrees == bottom[:, None])).all(axis=1)
    pairs, counts = np.unique(np.stack([top, bottom], axis=1)[two], axis=0, return_counts=True)
    a, b = pairs[counts.argmax()].tolist() if len(pairs) else (top[0], bottom[0])
    for profile in (regular_profile, biregular_profile(a, b)):
        want = sorted(masks[np.asarray(profile(degrees), dtype=bool)].tolist(), key=gray_rank)
        every = search_class_by_degree_profile(g, profile, all_witnesses=True)
        assert [w.subset for w in every.witnesses] == want
        first = search_class_by_degree_profile(g, profile)
        assert first.witnesses == every.witnesses[:1]
        assert first.match_count == every.match_count == len(want)


@settings(max_examples=40, deadline=None)
@given(g=_chain_graphs(16))
def test_witnesses_are_every_match_in_gray_order(g):
    _check_gray_order(g)


@pytest.mark.parametrize("block", [7, 1 << 12])
def test_witnesses_are_every_match_in_gray_order_on_named_graphs(monkeypatch, block):
    monkeypatch.setattr(switching, "_ORBIT_BLOCK", block)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    petersen = Graph.from_edges(10, outer + spokes + inner)
    assert degree_sequence(petersen) == [3] * 10
    # Of G(12, 1/2) on seeds 40-79, seed 50 has the most switchings with two
    # distinct degrees (three), and most have none.
    for g in (cycle_graph(5), petersen, random_graph(random.Random(50), 12)):
        _check_gray_order(g)


def test_search_n30_chain_follows_orbits_not_subsets():
    # 0^3 1^10 0^10 1^7 has 3 * 11 * 11 * 8 twin orbits among its 2^29
    # subsets.  Four are regular: the last two cells (20-regular, one
    # subset) and three 15-regular orbits of 1333584 + 4445280 + 2222640.
    g = chain_graph("0^3 1^10 0^10 1^7")
    start = time.perf_counter()
    res = search_class_by_degree_profile(g, regular_profile)
    assert time.perf_counter() - start < 1.0
    assert res.subsets_examined == 1 << 29
    assert res.match_count == 1 + 1333584 + 4445280 + 2222640
    (witness,) = res.witnesses
    assert list(witness.degrees) == degree_sequence(switch_on_subset(g, witness.subset))
    assert witness.degrees == (15,) * 30


def test_search_regular_finds_the_ten_regular_switching():
    # Independently verified: switching 0 1^5 0^5 1^4 on the union of its
    # last two cells (9 vertices) is 10-regular, and it is the only regular
    # switching among the 2^14 subsets excluding vertex 0.
    g = chain_graph("01^5 0^5 1^4")
    res = search_class_by_degree_profile(g, regular_profile, all_witnesses=True)
    assert res.subsets_examined == 16384
    assert res.match_count == 1
    (witness,) = res.witnesses
    assert witness.degrees == (10,) * 15
    assert witness.split_per_cell == (0, 0, 5, 4)


def test_search_biregular_seven_eight():
    g = chain_graph("01^5 0^5 1^4")
    res = search_class_by_degree_profile(g, biregular_profile(7, 8), all_witnesses=True)
    assert res.match_count > 0
    splits = {w.split_per_cell for w in res.witnesses}
    assert (0, 2, 3, 2) in splits
    for w in res.witnesses:
        assert set(w.degrees) == {7, 8}


def test_search_regular_mirror_s1():
    # Any regular valency d must satisfy n-1-2d in the spectrum {-3, -1, 3},
    # so only d in {1, 3, 4} can occur; valency 3s = 3 must be among them.
    g = chain_graph("0 1^2 0^2 1")
    res = search_class_by_degree_profile(g, regular_profile, all_witnesses=True)
    assert res.match_count > 0
    assert all(w.degrees[0] in (1, 3, 4) for w in res.witnesses)
    assert any(w.degrees == (3,) * 6 for w in res.witnesses)


def test_search_first_match_default():
    for string, count in (("0 1^2 0^2 1", 5), ("0 1^2 0^4 1^5", 120)):
        g = chain_graph(string)
        res = search_class_by_degree_profile(g, regular_profile)
        assert len(res.witnesses) == 1
        full = search_class_by_degree_profile(g, regular_profile, all_witnesses=True)
        assert res.witnesses[0] == full.witnesses[0]
        assert res.match_count == full.match_count == len(full.witnesses) == count


def _every_block_string(n: int):
    """Every block string on n vertices: the compositions of n into an even number of parts."""
    for parts_count in range(2, n + 1, 2):
        for cuts in combinations(range(1, n), parts_count - 1):
            parts = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
            yield BlockString(tuple(zip(parts[::2], parts[1::2])))


def test_witness_split_equals_bit_count_on_every_small_chain_string():
    # Where every twin component is a cell, the split is an orbit's counts;
    # where one is not ("0 1", whose two cells are twins), the bits are
    # counted.  Every string with n <= 12, and every subset for n <= 8.
    strings = 0
    for n in range(2, 13):
        for b in _every_block_string(n):
            strings += 1
            g = build_chain_graph(b)
            profiles = (regular_profile, lambda dm: True) if n <= 8 else (regular_profile,)
            for profile in profiles:
                res = search_class_by_degree_profile(g, profile, all_witnesses=True)
                assert len(res.witnesses) == res.match_count
                ranks = [gray_rank(w.subset) for w in res.witnesses]
                assert ranks == sorted(set(ranks))
                for w in res.witnesses:
                    assert w.split_per_cell == cell_split(g, w.subset)
    assert strings == (1 << 11) - 1


def test_search_cap():
    with pytest.raises(ValueError):
        search_class_by_degree_profile(Graph.empty(31), regular_profile)


# ---------------------------------------------------------------------------
# Canonical labeling
# ---------------------------------------------------------------------------

def test_canonical_label_invariant_under_relabeling():
    rng = random.Random(35)
    for _ in range(100):
        n = rng.randint(2, 10)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_bits(g.relabel(perm)) == canonical_bits(g)


def test_canonical_label_returns_canonical_graph():
    rng = random.Random(36)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 9))
        h = canonical_label(g)
        assert canonical_bits(h) == canonical_bits(g)
        assert sorted(h.degrees()) == sorted(g.degrees())


def test_canonical_label_distinguishes():
    p4 = path_graph(4)
    k13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_bits(p4) != canonical_bits(k13)
    a = chain_graph("01^3 0^3 1^7")
    b = chain_graph("01^6 0^6 1")
    assert canonical_bits(a) != canonical_bits(b)


def test_canonical_label_cap():
    with pytest.raises(ValueError):
        canonical_label(Graph.empty(21))


@st.composite
def _graphs_up_to_14(draw) -> Graph:
    """A random graph on 1 to 14 vertices of random density."""
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    return random_graph(random.Random(draw(st.integers(0, 2 ** 32))), n, p)


@settings(max_examples=200, deadline=None)
@given(g=st.one_of(_graphs_up_to_14(), _chain_graphs(14), _blow_ups()), data=st.data())
def test_canonical_search_equals_the_plain_search(g, data):
    # The twin-cell split and the skipped stable splitters leave the least
    # bits and the order realizing them as the plain search has them.
    if data.draw(st.booleans()):
        g = switch_on_subset(g, data.draw(st.integers(0, (1 << g.n) - 1)))
    assert switching._canonical_search(g) == root_oracles.canonical_search(g)


def test_canonical_search_equals_the_plain_search_on_named_graphs():
    rook = Graph.from_edges(9, [(u, v) for u, v in combinations(range(9), 2)
                                if u // 3 == v // 3 or u % 3 == v % 3])
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    complete = Graph.from_edges(7, list(combinations(range(7), 2)))
    for g in (Graph.empty(0), Graph.empty(1), Graph.empty(8), complete, cycle_graph(12), rook,
              petersen, chain_graph("0^4 1^4 0^4 1^4"), chain_graph("0^4 1^4 0^3 1^5"),
              chain_graph("01" * 7)):
        assert switching._canonical_search(g) == root_oracles.canonical_search(g)


@st.composite
def _ordered_partitions(draw, n: int) -> list[list[int]]:
    """The vertices 0..n-1 in a random order, cut into random cells."""
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    return [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]


def _check_refine_against_the_mask_rebuilding_oracle(rows, cells):
    given_cells = [list(cell) for cell in cells]
    want = root_oracles.refine_rebuilding_masks(rows, [list(cell) for cell in cells])
    assert switching._refine(rows, cells) == want
    assert cells == given_cells  # the argument is left as it was


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_refine_equals_the_mask_rebuilding_refinement(data):
    n = data.draw(st.integers(1, 16))
    p = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    g = random_graph(random.Random(data.draw(st.integers(0, 2 ** 32))), n, p)
    cells = data.draw(_ordered_partitions(n))
    if data.draw(st.booleans()):  # an empty cell splits into no cells
        cells.insert(data.draw(st.integers(0, len(cells))), [])
    _check_refine_against_the_mask_rebuilding_oracle(g.rows, cells)


def test_refine_equals_the_mask_rebuilding_refinement_on_every_small_chain_string():
    # The partitions a canonical search starts from: all vertices in one
    # cell, and each vertex individualized.  Every string with n <= 12.
    for n in range(2, 13):
        for b in _every_block_string(n):
            rows = build_chain_graph(b).rows
            _check_refine_against_the_mask_rebuilding_oracle(rows, [list(range(n))])
            _check_refine_against_the_mask_rebuilding_oracle(rows, [list(range(n)), []])
            for v in range(n):
                rest = [w for w in range(n) if w != v]
                _check_refine_against_the_mask_rebuilding_oracle(rows, [[v], rest])


# ---------------------------------------------------------------------------
# Class certificates and switching equivalence
# ---------------------------------------------------------------------------

def _brute_min_canonical(g: Graph) -> int:
    best = None
    for mask in range(1 << (g.n - 1)):
        bits = canonical_bits(switch_on_subset(g, mask << 1))
        if best is None or bits < best:
            best = bits
    return best


@settings(max_examples=60, deadline=None)
@given(g=_small_graphs(max_chain_n=10))
def test_certificate_matches_brute_force(g):
    assert class_certificate(g).canonical_bits == _brute_min_canonical(g)


@settings(max_examples=100, deadline=None)
@given(g=_small_graphs(), data=st.data())
def test_canonical_leading_row_is_zero_iff_isolated_vertex(g, data):
    # Switching on N(v) isolates v, so half the examples have an isolated vertex.
    if data.draw(st.booleans()):
        g = switch_on_subset(g, g.rows[data.draw(st.integers(0, g.n - 1))])
    n = g.n
    leading_zero = canonical_bits(g) >> (n * (n - 1) // 2 - (n - 1)) == 0
    assert leading_zero == (0 in g.degrees())


def test_certificate_runs_one_canonical_search_per_twin_component(monkeypatch):
    calls = []

    def counting(h):
        calls.append(h.n)
        return canonical_bits(h)

    monkeypatch.setattr(switching, "canonical_bits", counting)
    rng = random.Random(42)
    graphs = [chain_graph("0^4 1^4 0^4 1^4"), chain_graph("0^2 1^3 0^3 1^4"), cycle_graph(9),
              Graph.empty(1), Graph.empty(5)]
    graphs += [random_graph(rng, rng.randint(1, 10), p) for p in (0.2, 0.5, 0.8) for _ in range(5)]
    for g in graphs:
        calls.clear()
        class_certificate(g)
        assert len(calls) == len(_twin_components(g))


def test_certificate_smallest_orders_pinned():
    empty_hash = {0: "b94b1cb7d1cbc4e4", 1: "502b58bc64726f44", 2: "e8c77b88c32296c8"}
    for n, digest in empty_hash.items():
        assert class_certificate(Graph.empty(n)) == ClassCertificate(n, 0, digest)
    k2 = Graph.from_edges(2, [(0, 1)])
    assert class_certificate(k2) == ClassCertificate(2, 0, empty_hash[2])


def test_certificate_rook_graph_at_the_cap():
    # The 4x4 rook's graph (K4 x K4) has no twins: 16 canonical searches
    # and the 2^15 prefilter orbits.  One canonical search per orbit, 2^15
    # of them, took about 50 s a certificate on a 2-core VM.
    rook = Graph.from_edges(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                                 if u // 4 == v // 4 or u % 4 == v % 4])
    rng = random.Random(43)
    perm = list(range(16))
    rng.shuffle(perm)
    start = time.perf_counter()
    cert = class_certificate(rook)
    assert time.perf_counter() - start < 10.0
    assert class_certificate(rook.relabel(perm)) == cert
    assert class_certificate(switch_on_subset(rook, random_subset_mask(rng, 16))) == cert


def test_certificate_invariance():
    rng = random.Random(38)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        cert = class_certificate(g)
        assert type(cert.canonical_bits) is int
        assert len(cert.prefilter_hash) == 16 and set(cert.prefilter_hash) <= set("0123456789abcdef")
        u = random_subset_mask(rng, n)
        assert class_certificate(switch_on_subset(g, u)) == cert
        perm = list(range(n))
        rng.shuffle(perm)
        assert class_certificate(g.relabel(perm)) == cert


def test_certificate_cap():
    with pytest.raises(ValueError):
        class_certificate(Graph.empty(17))


def test_switching_equivalent_to_own_switchings():
    rng = random.Random(39)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        u = random_subset_mask(rng, n)
        h = switch_on_subset(g, u)
        assert switching_equivalent(g, h, "switching-only")
        assert switching_equivalent(g, h, "switching-isomorphism")


def test_switching_only_matches_brute_force():
    rng = random.Random(40)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        h = random_graph(rng, n)
        brute = any(
            switch_on_subset(g, mask << 1).rows == h.rows
            for mask in range(1 << (n - 1))
        )
        assert switching_equivalent(g, h, "switching-only") == brute


def test_table_pair_not_switching_isomorphic():
    a = chain_graph("01^3 0^3 1^7")
    b = chain_graph("01^6 0^6 1")
    assert not switching_equivalent(a, b, "switching-isomorphism")


def test_relabeling_breaks_plain_mode_only():
    p4 = path_graph(4)
    g = p4.relabel([1, 0, 2, 3])
    assert not switching_equivalent(p4, g, "switching-only")
    assert switching_equivalent(p4, g, "switching-isomorphism")


def test_switching_equivalent_errors():
    with pytest.raises(ValueError):
        switching_equivalent(Graph.empty(3), Graph.empty(4))
    with pytest.raises(ValueError, match="capped at 2000 vertices"):
        switching_equivalent(Graph.empty(2001), Graph.empty(2001), "switching-only")
    with pytest.raises(ValueError):
        switching_equivalent(Graph.empty(3), Graph.empty(3), "bogus")
