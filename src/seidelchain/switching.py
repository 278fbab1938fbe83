"""Seidel switching, switching-class searches, and canonical forms.

Switching a graph on a vertex subset U complements every edge/non-edge
between U and its complement; at the Seidel level this conjugates S by the
diagonal sign matrix that is -1 on U.  Switching classes are enumerated over
the 2^(n-1) subsets that exclude vertex 0 (U and its complement switch to the
same graph), in Gray-code order with O(n) incremental degree updates.
"""

from __future__ import annotations

import functools
import hashlib
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from typing import Callable

from .chain import ChainGraph
from .graphs import Graph

SEARCH_CAP = 30
CANONICAL_CAP = 20
CERTIFICATE_CAP = 16
PLAIN_CAP = 2000


def check_search_size(n: int) -> None:
    """Refuse a switching search on more than SEARCH_CAP vertices."""
    if n > SEARCH_CAP:
        raise ValueError(f"switching search is capped at {SEARCH_CAP} vertices")


def check_certificate_size(n: int) -> None:
    """Refuse a class certificate on more than CERTIFICATE_CAP vertices."""
    if n > CERTIFICATE_CAP:
        raise ValueError(f"class certificates are capped at {CERTIFICATE_CAP} vertices")


def check_plain_size(n: int) -> None:
    """Refuse a switching-only (plain) equivalence check on more than PLAIN_CAP vertices."""
    if n > PLAIN_CAP:
        raise ValueError(f"switching-only equivalence is capped at {PLAIN_CAP} vertices")


def check_same_order(n: int, m: int) -> None:
    """Refuse to compare graphs on different numbers of vertices."""
    if n != m:
        raise ValueError("graphs must have the same number of vertices")


def _as_mask(subset, n: int) -> int:
    if isinstance(subset, int):
        mask = subset
    else:
        mask = 0
        for v in subset:
            mask |= 1 << v
    if mask >> n:
        raise ValueError("subset contains vertices outside the graph")
    return mask


def switch_on_subset(g: Graph, subset) -> Graph:
    """Switch g on a subset (bitmask or iterable of vertices).

    Edges inside the subset and inside its complement are unchanged; the cut
    is complemented.  Involution: switching twice on the same subset, or on
    the complement subset, restores g.
    """
    u = _as_mask(subset, g.n)
    full = (1 << g.n) - 1
    comp = full & ~u
    rows = []
    for v in range(g.n):
        row = g.rows[v]
        out = full & ~(1 << v)
        if (u >> v) & 1:
            rows.append((row & u) | (~row & comp & out))
        else:
            rows.append((row & comp) | (~row & u & out))
    return Graph(g.n, tuple(rows))


# ---------------------------------------------------------------------------
# Degree-profile search over a switching class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchingWitness:
    """A switching subset plus the degree multiset of the switched graph."""

    subset: int
    degrees: tuple[int, ...]
    split_per_cell: tuple[int, ...] | None = None

    def serialize(self) -> dict:
        return {
            "subsetBits": f"0x{self.subset:x}",
            "degrees": list(self.degrees),
            "splitPerCell": list(self.split_per_cell) if self.split_per_cell is not None else None,
        }


@dataclass(frozen=True)
class SearchResult:
    witnesses: tuple[SwitchingWitness, ...]
    match_count: int
    subsets_examined: int


def regular_profile(degrees: tuple[int, ...]) -> bool:
    """Exactly one distinct degree."""
    return len(set(degrees)) == 1


def _biregular(values: frozenset, degrees: tuple[int, ...]) -> bool:
    return set(degrees) == values


def biregular_profile(a: int, b: int) -> Callable[[tuple[int, ...]], bool]:
    """Exactly the two distinct degrees {a, b}."""
    return functools.partial(_biregular, frozenset((a, b)))


def _cell_split(g: Graph, mask: int) -> tuple[int, ...] | None:
    if not isinstance(g, ChainGraph):
        return None
    return tuple(
        (mask >> start & ((1 << size) - 1)).bit_count()
        for _lab, start, size in g.cells()
    )


def _search_chunk(rows: tuple[int, ...], n: int, start: int, stop: int,
                  profile, collect_all: bool):
    """Scan Gray-coded subset ranks [start, stop) of subsets excluding vertex 0.

    Returns (matching (rank, mask, degrees) triples, match count).
    """
    base_deg = [r.bit_count() for r in rows]
    neighbors = [[w for w in range(n) if (rows[v] >> w) & 1] for v in range(n)]
    u_mask = (start ^ (start >> 1)) << 1
    counts = [(rows[v] & u_mask).bit_count() for v in range(n)]
    size = u_mask.bit_count()
    matches: list[tuple[int, int, tuple[int, ...]]] = []
    count = 0
    for rank in range(start, stop):
        degs = sorted(
            (
                n - size - base_deg[v] + 2 * counts[v]
                if (u_mask >> v) & 1
                else base_deg[v] + size - 2 * counts[v]
            )
            for v in range(n)
        )
        degs.reverse()
        dm = tuple(degs)
        if profile(dm):
            count += 1
            if collect_all or not matches:
                matches.append((rank, u_mask, dm))
        nxt = rank + 1
        if nxt >= stop:
            break
        flip = (nxt & -nxt).bit_length()  # 1 + trailing zeros of nxt, vertex index
        bit = 1 << flip
        if u_mask & bit:
            u_mask &= ~bit
            size -= 1
            delta = -1
        else:
            u_mask |= bit
            size += 1
            delta = 1
        for w in neighbors[flip]:
            counts[w] += delta
    return matches, count


def search_class_by_degree_profile(
    g: Graph,
    profile: Callable[[tuple[int, ...]], bool],
    *,
    all_witnesses: bool = False,
    threads: int = 1,
) -> SearchResult:
    """Exhaustively switch g on all 2^(n-1) subsets excluding vertex 0.

    Degrees are updated incrementally from per-vertex cut counts along a
    Gray-code walk, never by rebuilding the graph.  Returns the first match
    (in enumeration order) plus the total count, or all matches when
    all_witnesses is set.  With threads > 1 the rank range is partitioned
    and merged back in rank order, so results are identical to a serial run;
    the profile must then be picklable.  threads must be at least 1 and is
    clamped to os.cpu_count().
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    threads = min(threads, os.cpu_count() or 1)
    check_search_size(g.n)
    total = 1 << max(g.n - 1, 0)
    if threads <= 1 or total < 4096:
        chunks = [_search_chunk(g.rows, g.n, 0, total, profile, all_witnesses)]
    else:
        bounds = [total * i // threads for i in range(threads + 1)]
        args = [
            (g.rows, g.n, bounds[i], bounds[i + 1], profile, all_witnesses)
            for i in range(threads)
        ]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_search_chunk_star, args))
    witnesses: list[SwitchingWitness] = []
    match_count = 0
    for matches, count in chunks:
        match_count += count
        for _rank, mask, dm in matches:
            if all_witnesses or not witnesses:
                witnesses.append(SwitchingWitness(mask, dm, _cell_split(g, mask)))
    if not all_witnesses:
        witnesses = witnesses[:1]
    return SearchResult(tuple(witnesses), match_count, total)


def _search_chunk_star(args):
    return _search_chunk(*args)


# ---------------------------------------------------------------------------
# Canonical labeling (refinement + individualization backtracking)
# ---------------------------------------------------------------------------

def _refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition to equitability.

    Cells are repeatedly split by neighbor counts into each cell, sub-cells
    ordered by count, so the result is invariant under relabeling.
    """
    while True:
        changed = False
        for t in range(len(cells)):
            mask = 0
            for v in cells[t]:
                mask |= 1 << v
            new_cells: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((rows[v] & mask).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    for key in sorted(groups):
                        new_cells.append(groups[key])
                    changed = True
            if changed:
                cells = new_cells
                break
        if not changed:
            return cells


def _are_twins(rows: tuple[int, ...], u: int, v: int) -> bool:
    return (rows[u] ^ rows[v]) & ~((1 << u) | (1 << v)) == 0


def _canonical_search(g: Graph) -> tuple[int, list[int]]:
    """Lexicographically least adjacency bits over all labelings, with the
    vertex order realizing it."""
    rows, n = g.rows, g.n
    best_bits: int | None = None
    best_order: list[int] = []

    def leaf(order: list[int]) -> None:
        nonlocal best_bits, best_order
        bits = 0
        for i in range(n):
            ri = rows[order[i]]
            for j in range(i + 1, n):
                bits = (bits << 1) | ((ri >> order[j]) & 1)
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_order = order

    def descend(cells: list[list[int]]) -> None:
        cells = _refine(rows, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            leaf([c[0] for c in cells])
            return
        cell = cells[target]
        reps: list[int] = []
        for v in cell:
            if not any(_are_twins(rows, u, v) for u in reps):
                reps.append(v)
        for v in reps:
            rest = [w for w in cell if w != v]
            descend(cells[:target] + [[v], rest] + cells[target + 1:])

    descend([list(range(n))])
    assert best_bits is not None
    return best_bits, best_order


def canonical_label(g: Graph) -> Graph:
    """Relabel g into its canonical form (invariant under any relabeling).

    Iterative refinement to an equitable ordered partition, then backtracking
    over the residual cell orderings, keeping the lexicographically least
    adjacency bit-matrix.  Capped at 20 vertices.
    """
    if g.n > CANONICAL_CAP:
        raise ValueError(f"canonical labeling is capped at {CANONICAL_CAP} vertices")
    _bits, order = _canonical_search(g)
    perm = [0] * g.n
    for pos, v in enumerate(order):
        perm[v] = pos
    return g.relabel(perm)


def canonical_bits(g: Graph) -> int:
    """The canonical upper-triangle adjacency bits (row-major) of g."""
    if g.n > CANONICAL_CAP:
        raise ValueError(f"canonical labeling is capped at {CANONICAL_CAP} vertices")
    bits, _order = _canonical_search(g)
    return bits


# ---------------------------------------------------------------------------
# Switching-class certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCertificate:
    """Complete invariant of a switching class up to isomorphism (a two-graph).

    canonical_bits is the least canonical adjacency matrix over all 2^(n-1)
    switchings; the prefilter hash digests the multiset of switched degree
    sequences.
    """

    n: int
    canonical_bits: int
    prefilter_hash: str

    def serialize(self) -> dict:
        return {
            "prefilterHash": self.prefilter_hash,
            "canonicalBits": f"0x{self.canonical_bits:x}",
        }


def _twin_components(g: Graph) -> list[list[int]]:
    """Partition vertices into components of the pairwise-twin relation.

    Transpositions of twins are automorphisms, and transpositions spanning a
    component generate its full symmetric group, so subsets with equal
    per-component intersection counts switch to isomorphic graphs.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if _are_twins(g.rows, u, v):
                parent[find(u)] = find(v)
    comps: dict[int, list[int]] = {}
    for v in range(g.n):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values())


def degree_multiset_prefilter(g: Graph) -> Counter:
    """Multiset of switched degree sequences over all 2^(n-1) switchings."""
    matches, _count = _search_chunk(g.rows, g.n, 0, 1 << max(g.n - 1, 0),
                                    lambda dm: True, True)
    return Counter(dm for _rank, _mask, dm in matches)


def _prefilter_hash(prefilter: Counter) -> str:
    payload = repr(sorted(prefilter.items())).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def class_certificate(g: Graph) -> ClassCertificate:
    """Deterministic certificate deciding switching-isomorphism equivalence.

    The canonical matrix is minimized over one switching subset per orbit of
    the twin-component automorphisms, which covers every isomorphism type in
    the class at a fraction of the 2^(n-1) enumeration.
    """
    check_certificate_size(g.n)
    prefilter = degree_multiset_prefilter(g)
    comps = _twin_components(g)
    sizes = [len(c) for c in comps]
    best: int | None = None
    for counts in product(*(range(s + 1) for s in sizes)):
        # A subset and its complement switch identically; keep one per pair.
        comp_counts = tuple(s - c for s, c in zip(sizes, counts))
        if comp_counts < counts:
            continue
        mask = 0
        for comp, c in zip(comps, counts):
            for v in comp[:c]:
                mask |= 1 << v
        bits = canonical_bits(switch_on_subset(g, mask))
        if best is None or bits < best:
            best = bits
    assert best is not None
    return ClassCertificate(g.n, best, _prefilter_hash(prefilter))


def switching_equivalent(g: Graph, h: Graph, mode: str = "switching-isomorphism") -> bool:
    """Decide whether h lies in the switching class of g.

    "switching-only" keeps labels fixed: h must literally equal some
    switching of g.  The switching subset is then forced by the first Seidel
    row (the diagonal conjugation signs), so this is an O(n^2) check,
    capped at 2000 vertices.  "switching-isomorphism" allows relabeling and
    compares class certificates (capped at 16 vertices).
    """
    check_same_order(g.n, h.n)
    if mode == "switching-only":
        check_plain_size(g.n)
        n = g.n
        if n <= 1:
            return g.rows == h.rows
        # d_0 = +1; d_j is the product of the (0, j) Seidel signs of g and h.
        mask = 0
        for j in range(1, n):
            sg = -1 if (g.rows[0] >> j) & 1 else 1
            sh = -1 if (h.rows[0] >> j) & 1 else 1
            if sg * sh == -1:
                mask |= 1 << j
        return switch_on_subset(g, mask).rows == h.rows
    if mode == "switching-isomorphism":
        cg, ch = class_certificate(g), class_certificate(h)
        return cg == ch
    raise ValueError(f"unknown mode: {mode!r}")
