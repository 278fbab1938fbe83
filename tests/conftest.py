"""Shared randomized generators for the test suite (always explicitly seeded)."""

from __future__ import annotations

import functools
import random

import root_oracles
from seidelchain import (
    BlockString,
    ChainGraph,
    Graph,
    SearchResult,
    SwitchingWitness,
    degree_sequence,
    switch_on_subset,
)


def cut_block_string(rng: random.Random, k: int, n: int) -> BlockString:
    """A block string with k blocks on n vertices, cut uniformly at random.

    random.sample takes a range of fewer than 2^63 items; beyond that the
    cuts are distinct randint draws."""
    if n <= 1 << 62:
        cuts = sorted(rng.sample(range(1, n), 2 * k - 1))
    else:
        cuts = set()
        while len(cuts) < 2 * k - 1:
            cuts.add(rng.randint(1, n - 1))
        cuts = sorted(cuts)
    parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return BlockString(tuple((parts[2 * i], parts[2 * i + 1]) for i in range(k)))


def random_block_string(rng: random.Random, max_k: int = 6, max_n: int = 60) -> BlockString:
    k = rng.randint(1, max_k)
    return cut_block_string(rng, k, rng.randint(2 * k, max_n))


def poly_pow(p: tuple[int, ...], e: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for _ in range(e):
        out = root_oracles.poly_mul(out, p)
    return out


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_subset_mask(rng: random.Random, n: int) -> int:
    return rng.randrange(1 << n)


def cell_split(g: Graph, mask: int) -> tuple[int, ...] | None:
    """Bit-count oracle of a witness's split: the subset's vertices in each cell."""
    if not isinstance(g, ChainGraph):
        return None
    return tuple(sum(mask >> v & 1 for v in range(start, start + size))
                 for _lab, start, size in g.cells())


def gray_rank(mask: int) -> int:
    """Scalar oracle of switching._gray_ranks: the position of a subset
    excluding vertex 0 in the Gray-code order of the switching subsets, the
    inverse of rank r -> (r ^ (r >> 1)) << 1, by the prefix XOR of mask >> 1
    in doubling steps."""
    rank, shift = mask >> 1, 1
    while rank >> shift:
        rank ^= rank >> shift
        shift <<= 1
    return rank


@functools.lru_cache(maxsize=16)
def _gray_walk(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mask, switched degree sequence) of every subset excluding vertex 0, in
    Gray-code order, each switched graph rebuilt from scratch."""
    masks = ((rank ^ (rank >> 1)) << 1 for rank in range(1 << max(g.n - 1, 0)))
    return tuple((mask, tuple(degree_sequence(switch_on_subset(g, mask)))) for mask in masks)


def brute_switch_search(g: Graph, profile, all_witnesses: bool = False) -> SearchResult:
    """Brute-force oracle for search_class_by_degree_profile."""
    walk = _gray_walk(g)
    hits = [SwitchingWitness(mask, degrees, cell_split(g, mask))
            for mask, degrees in walk if profile(degrees)]
    return SearchResult(tuple(hits if all_witnesses else hits[:1]), len(hits), len(walk))
