"""Seidel switching, switching-class searches, and canonical forms.

Switching a graph on a vertex subset U complements every edge/non-edge
between U and its complement; at the Seidel level this conjugates S by the
diagonal sign matrix that is -1 on U.  A switching class is given by the
2^(n-1) subsets that exclude vertex 0 (U and its complement switch to the
same graph).  Twins are interchangeable, so subsets are enumerated by orbit
under permutations of twins: one vector of per-component counts per orbit,
weighted by the orbit size.  An orbit's switched degrees follow from its
counts by integer arithmetic on the twin components, in numpy blocks of
orbits, without building a subset or a row.  The work follows the number of
orbits, for a chain graph with cells C_1..C_2k at most
|C_1| * prod_{i>1} (|C_i| + 1).  A graph without twins, such as the half
graph of the unit-cell string (01)^k, has 2^(n-1) one-subset orbits.

A degree profile maps an array of switched degree rows (the last axis one
degree sequence) to one boolean per row; regular_profile and
biregular_profile are numpy reductions along that axis.  The search calls
it once per block, and only matching orbits become Python tuples.  Its
witnesses are WitnessColumns: the matching masks in Gray-code order, the
orbit of each, and one (degrees, split) per matching orbit, so a
thousand-witness search builds no object per witness; a SwitchingWitness is
made only when one is read.  The class certificate's canonical form takes
one switching on N(v) per twin component; its degree-multiset prefilter
walks every orbit.  The canonical search splits a cell that is one twin
class into singletons without a branch or a refinement, and its refinement
does not try again a cell that has split nothing.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from collections.abc import Sequence
from itertools import combinations, product, repeat
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np
from numpy.typing import ArrayLike

from ._record import record
from .chain import ChainGraph
from .graphs import Graph

SEARCH_CAP = 30
CANONICAL_CAP = 20
CERTIFICATE_CAP = 16
PLAIN_CAP = 2000
# Orbits per numpy block of _orbit_blocks, which bounds its memory at any orbit count.
_ORBIT_BLOCK = 1 << 12


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


def _switched_rows(g: Graph, u: int) -> tuple[int, ...]:
    """Adjacency rows of g switched on the vertex mask u: each row flips its
    bits on the other side of the cut."""
    comp = ((1 << g.n) - 1) ^ u
    return tuple(row ^ comp if (u >> v) & 1 else row ^ u for v, row in enumerate(g.rows))


def switch_on_subset(g: Graph, subset) -> Graph:
    """Switch g on a subset (bitmask or iterable of vertices).

    Edges inside the subset and inside its complement are unchanged; the cut
    is complemented.  Involution: switching twice on the same subset, or on
    the complement subset, restores g.
    """
    return Graph(g.n, _switched_rows(g, _as_mask(subset, g.n)))


# ---------------------------------------------------------------------------
# Twin orbits of the switching subsets
# ---------------------------------------------------------------------------

def _are_twins(rows: tuple[int, ...], u: int, v: int) -> bool:
    return (rows[u] ^ rows[v]) & ~((1 << u) | (1 << v)) == 0


def _twin_components(g: Graph) -> list[list[int]]:
    """Partition vertices into components of the pairwise-twin relation.

    Transpositions of twins are automorphisms, and transpositions spanning a
    component generate its full symmetric group, so subsets with equal
    per-component intersection counts switch to isomorphic graphs.

    False twins share their row, true twins their row plus their own bit, so
    each kind is an equivalence grouped by that key.  No vertex has twins of
    both kinds: a false twin u and a true twin w of v would have w in N(u) =
    N(v) but u outside N[w] = N[v].  So a vertex's component is its group of
    false twins if it has one, and otherwise its group of true twins.
    """
    false_twins: dict[int, list[int]] = {}
    true_twins: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        false_twins.setdefault(row, []).append(v)
        true_twins.setdefault(row | 1 << v, []).append(v)
    comps: dict[int, list[int]] = {}
    for v, row in enumerate(g.rows):
        comp = false_twins[row] if len(false_twins[row]) > 1 else true_twins[row | 1 << v]
        comps[comp[0]] = comp
    return sorted(comps.values())


def _free_twins(components: list[list[int]]) -> list[list[int]]:
    """Each twin component's free vertices: those other than vertex 0."""
    return [[v for v in comp if v] for comp in components]


def _orbit_blocks(
    g: Graph, components: list[list[int]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The orbits of the subsets excluding vertex 0 under permutations of twins,
    _ORBIT_BLOCK orbits at a time.

    An orbit is the set of subsets with counts[i] of the free vertices of the
    i-th twin component T_i (_free_twins); all of its subsets switch to
    isomorphic graphs.  Each block yields (counts, degrees, sizes), one row
    per orbit: the count vectors in itertools.product order (that of
    np.unravel_index over the shape (|free_i| + 1)), the switched degree
    sequences, non-increasing, and the orbit sizes prod C(|free_i|, counts_i),
    which sum to 2^(n-1) over all blocks.

    No subset is built.  Each T_i is a clique or an independent set, and is
    joined to all or none of each T_j.  With A the component adjacency
    (A_ii = 1 for a clique) and W = 1 - 2A, switching on a subset with counts
    c gives a vertex of T_i outside the subset the degree deg_i + (W c)_i,
    and a vertex inside it n - 2 A_ii minus that.  Vertex 0, never inside,
    comes last in its component, so the j-th vertex of T_i is inside exactly
    when j < c_i.
    """
    n, m = g.n, len(components)
    dims = [len(f) + 1 for f in _free_twins(components)]
    first = [comp[0] for comp in components]
    adj = np.array([[g.rows[u] >> comp[-1] & 1 for comp in components] for u in first],
                   dtype=np.int32).reshape(m, m)
    # W in float64, so that counts @ W runs in BLAS (numpy's integer matmul
    # has none); every entry of the product is at most n in size, exact in a double.
    w = (1 - 2 * adj).astype(np.float64)
    deg = np.array([g.rows[u].bit_count() for u in first], dtype=np.int32)
    inside = n - 2 * np.diagonal(adj)
    col = np.array([i for i, comp in enumerate(components) for _ in comp], dtype=np.intp)
    rank = np.array([j for comp in components for j in range(len(comp))], dtype=np.int32)
    # An orbit's size is at most 2^(n-1).
    large = np.int64 if n < 64 else object
    combs = [np.array([math.comb(d - 1, c) for c in range(d)], dtype=large) for d in dims]
    total = math.prod(dims)
    for start in range(0, total, _ORBIT_BLOCK):
        orbits = np.arange(start, min(start + _ORBIT_BLOCK, total))
        # The leading axis of length 1 lets a graph without vertices have its one orbit.
        counts = np.array(np.unravel_index(orbits, (1, *dims)), dtype=np.int32)[1:].T
        out = (deg + (counts @ w).astype(np.int32))[:, col]
        degrees = np.where(rank < counts[:, col], inside[col] - out, out)
        degrees.sort(axis=1)
        sizes = np.ones(len(orbits), dtype=large)
        for i, comb in enumerate(combs):
            sizes *= comb[counts[:, i]]
        yield counts, degrees[:, ::-1], sizes


def _orbit_masks(free: list[list[int]], counts: tuple[int, ...]) -> Iterator[int]:
    """Every subset of the orbit with the given counts."""
    parts = [[sum(1 << v for v in pick) for pick in combinations(f, c)]
             for f, c in zip(free, counts)]
    return map(sum, product(*parts))


def _least_gray_mask(free: list[list[int]], counts: tuple[int, ...]) -> int:
    """The subset of the orbit with the least Gray rank, without listing the orbit.

    Bit v - 1 of the rank is the parity of the chosen vertices >= v.  Going
    down from the top vertex, each vertex is chosen exactly when that keeps
    its rank bit 0, unless its component's count forces the other choice.
    """
    left = list(counts)
    room = [len(f) for f in free]
    mask = parity = 0
    for v, i in sorted(((v, i) for i, f in enumerate(free) for v in f), reverse=True):
        room[i] -= 1
        if left[i] > room[i] or (left[i] and parity):
            mask |= 1 << v
            left[i] -= 1
            parity ^= 1
    return mask


def _gray_ranks(masks) -> np.ndarray:
    """Positions of subsets excluding vertex 0 in the Gray-code order of the
    switching subsets, as an int64 array: the inverse of rank
    r -> (r ^ (r >> 1)) << 1, the prefix XOR of mask >> 1, taken in doubling
    steps.  Masks must be below 2^63; check_search_size keeps them below
    2^SEARCH_CAP."""
    rank = np.array(masks, dtype=np.int64) >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        rank ^= rank >> shift
    return rank


# ---------------------------------------------------------------------------
# Degree-profile search over a switching class
# ---------------------------------------------------------------------------

@record
class SwitchingWitness:
    """A switching subset plus the degree multiset of the switched graph."""

    subset: int
    degrees: tuple[int, ...]
    split_per_cell: tuple[int, ...] | None = None


# The (degrees, split_per_cell) that every witness of one orbit shares.
OrbitWitness = tuple[tuple[int, ...], tuple[int, ...] | None]


class WitnessColumns(Sequence):
    """The witnesses of a search, held as three columns.

    masks are the witness subsets (plain ints), orbit_of[i] indexes the
    orbit of masks[i] in orbits, and orbits holds one (degrees,
    split_per_cell) per orbit.  It reads as the tuple of SwitchingWitness it
    stands for: indexing and iteration build each witness when asked,
    slicing gives columns again, and it is equal to, and hashes like, that
    tuple.
    """

    __slots__ = ("masks", "orbit_of", "orbits")

    def __init__(self, masks: tuple[int, ...], orbit_of: tuple[int, ...],
                 orbits: tuple[OrbitWitness, ...]):
        self.masks, self.orbit_of, self.orbits = masks, orbit_of, orbits

    def __len__(self) -> int:
        return len(self.masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return WitnessColumns(self.masks[i], self.orbit_of[i], self.orbits)
        return SwitchingWitness(self.masks[i], *self.orbits[self.orbit_of[i]])

    def __iter__(self) -> Iterator[SwitchingWitness]:
        orbits = self.orbits
        return (SwitchingWitness(m, *orbits[o]) for m, o in zip(self.masks, self.orbit_of))

    def __eq__(self, other) -> bool:
        if isinstance(other, (WitnessColumns, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"WitnessColumns({tuple(self)!r})"


@record
class SearchResult:
    """The witnesses of a switching search, the number of subsets that
    matched, and the number examined."""

    witnesses: Sequence[SwitchingWitness]
    match_count: int
    subsets_examined: int


# Degree rows (last axis) -> one boolean per row, or one for all of them.
DegreeProfile = Callable[[np.ndarray], ArrayLike]


def regular_profile(degrees: ArrayLike) -> np.ndarray:
    """Exactly one distinct degree, per row of degrees (last axis)."""
    d = np.asarray(degrees)
    return (d.shape[-1] > 0) & (d == d[..., :1]).all(axis=-1)


def biregular_profile(a: int, b: int) -> DegreeProfile:
    """Exactly the two distinct degrees {a, b}, per row of degrees (last axis)."""
    def profile(degrees: ArrayLike) -> np.ndarray:
        d = np.asarray(degrees)
        is_a, is_b = d == a, d == b
        return (is_a | is_b).all(axis=-1) & is_a.any(axis=-1) & is_b.any(axis=-1)

    return profile


def _witness_split(
    g: Graph, components: list[list[int]],
) -> Callable[[tuple[int, ...], int], tuple[int, ...] | None]:
    """The splitPerCell of an orbit's witnesses, from its counts and any one
    of its masks.

    None for a graph without cells.  When every twin component is a whole
    cell, the components are the cells in string order, and an orbit's
    counts are its split.  Otherwise (the two cells of "0 1" are twins) the
    mask's bits are counted in each cell.  The subsets of one orbit have one
    split: the cells of a chain graph are twin classes, and a twin component
    spans two cells only when vertex 0 alone is the first cell and is a true
    twin of the next cell's vertices, so the component's free vertices all
    lie in that next cell.
    """
    if not isinstance(g, ChainGraph):
        return lambda counts, mask: None
    cells = [((1 << size) - 1) << start for _lab, start, size in g.cells()]
    if cells == [sum(1 << v for v in comp) for comp in components]:
        return lambda counts, mask: counts
    return lambda counts, mask: tuple((mask & cell).bit_count() for cell in cells)


def search_class_by_degree_profile(
    g: Graph,
    profile: DegreeProfile,
    *,
    all_witnesses: bool = False,
) -> SearchResult:
    """Search the 2^(n-1) switchings of g on subsets excluding vertex 0.

    The profile is called once per block of _orbit_blocks, on its degrees:
    one row per orbit, the degree multiset of the orbit's switchings, sorted
    non-increasing.  It returns one boolean per row, or a single boolean for
    the whole block; any other shape raises ValueError.  A match counts the
    whole orbit, and only matching orbits are looked at one by one.
    Witnesses are matching subsets in Gray-code order: the first one (least
    Gray rank), or every one when all_witnesses is set.  Ranks come from
    _gray_ranks over arrays of masks: all witnesses are ordered by one
    argsort, and the first is kept by one argmin per block.  The witnesses
    come as WitnessColumns: no object is built per witness, only one
    (degrees, split) per matching orbit.
    """
    check_search_size(g.n)
    components = _twin_components(g)
    free = _free_twins(components)
    split = _witness_split(g, components)
    # The matching subsets kept so far, the index of each one's orbit in
    # orbits, and per orbit its (degrees, counts, first mask).
    masks: list[int] = []
    orbit_of: list[int] = []
    orbits: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
    match_count = 0
    for block_counts, block_degrees, block_sizes in _orbit_blocks(g, components):
        mask = np.asarray(profile(block_degrees), dtype=bool)
        if mask.ndim == 0:
            mask = np.broadcast_to(mask, block_sizes.shape)
        elif mask.shape != block_sizes.shape:
            raise ValueError(f"a degree profile must give one boolean per row, "
                             f"not an array of shape {mask.shape}")
        rows = np.flatnonzero(mask)
        for dm, counts, size in zip(map(tuple, block_degrees[rows].tolist()),
                                    map(tuple, block_counts[rows].tolist()),
                                    block_sizes[rows].tolist()):
            match_count += size
            # A one-subset orbit (every orbit of a twin-free graph) is its representative.
            if size == 1:
                subsets = (sum(1 << v for f, c in zip(free, counts) if c for v in f),)
            elif all_witnesses:
                subsets = _orbit_masks(free, counts)
            else:
                subsets = (_least_gray_mask(free, counts),)
            kept = len(masks)
            masks.extend(subsets)
            orbit_of.extend(repeat(len(orbits), len(masks) - kept))
            orbits.append((dm, counts, masks[kept]))
        if not all_witnesses and len(masks) > 1:
            # Keep the least of this block's subsets and the one kept before.
            least = int(_gray_ranks(masks).argmin())
            masks, orbit_of, orbits = [masks[least]], [0], [orbits[orbit_of[least]]]
    if len(masks) > 1:
        pick = itemgetter(*_gray_ranks(masks).argsort().tolist())
        masks, orbit_of = pick(masks), pick(orbit_of)
    witnesses = WitnessColumns(tuple(masks), tuple(orbit_of),
                               tuple((dm, split(counts, m)) for dm, counts, m in orbits))
    return SearchResult(witnesses, match_count, 1 << max(g.n - 1, 0))


# ---------------------------------------------------------------------------
# Canonical labeling (refinement + individualization backtracking)
# ---------------------------------------------------------------------------

def _mask(cell: list[int]) -> int:
    mask = 0
    for v in cell:
        mask |= 1 << v
    return mask


def _refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Refine an ordered partition to equitability.

    Cells are repeatedly split by neighbor counts into each cell, sub-cells
    ordered by count, so the result is invariant under relabeling.  Each
    pass tries the first cell not yet tried as the splitter of every cell.
    A cell that has been tried is not tried again while it remains a cell:
    after its pass every cell has one count into it, and the cells only get
    finer, so it would split nothing.  Each cell's vertex mask is kept next
    to it, and a split computes the masks of the cells it creates only.
    """
    cells = [cell for cell in cells if cell]  # an empty cell (n = 0) splits into no cells
    masks = [_mask(cell) for cell in cells]
    stable: set[int] = set()
    while True:
        for mask in masks:
            if mask in stable:
                continue
            # Every cell will have one count into this one.
            stable.add(mask)
            split = []
            for i, cell in enumerate(cells):
                if len(cell) > 1:
                    first = (rows[cell[0]] & mask).bit_count()
                    for v in cell:
                        if (rows[v] & mask).bit_count() != first:
                            split.append(i)
                            break
            if split:
                break
        else:
            return cells
        for i in reversed(split):  # from the right, so the indices stay valid
            groups: dict[int, list[int]] = {}
            for v in cells[i]:
                groups.setdefault((rows[v] & mask).bit_count(), []).append(v)
            parts = [groups[key] for key in sorted(groups)]
            cells[i:i + 1] = parts
            masks[i:i + 1] = map(_mask, parts)


def _canonical_search(g: Graph) -> tuple[int, list[int]]:
    """Lexicographically least adjacency bits over all labelings, with the
    vertex order realizing it.

    Each node refines its partition and branches on the first cell that is
    not a singleton, one branch per twin class in it.  A cell that is one
    twin class is split into singletons in its listed order, with no
    refinement and no branch: the partition is equitable and the cell's
    vertices are pairwise twins, so each has the same neighbours outside
    the cell, every vertex elsewhere sees all of the cell or none of it,
    and the split partition is equitable again.  Branching on the cell's
    first vertex, as on any other cell, would reach that same partition
    with one refinement per vertex.
    """
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
        while True:
            target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if target is None:
                leaf([c[0] for c in cells])
                return
            cell = cells[target]
            reps = [cell[0]]
            for v in cell[1:]:
                if not any(_are_twins(rows, u, v) for u in reps):
                    reps.append(v)
            if len(reps) > 1:
                break
            cells[target:target + 1] = [[v] for v in cell]
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

@record
class ClassCertificate:
    """Complete invariant of a switching class up to isomorphism (a two-graph).

    canonical_bits is the least canonical adjacency matrix over all 2^(n-1)
    switchings; the prefilter hash digests the multiset of switched degree
    sequences.
    """

    n: int
    canonical_bits: int
    prefilter_hash: str


def degree_multiset_prefilter(g: Graph, *, components: list[list[int]] | None = None) -> Counter:
    """Multiset of switched degree sequences over all 2^(n-1) switchings
    (components: g's _twin_components, if the caller has them already)."""
    components = _twin_components(g) if components is None else components
    prefilter: Counter = Counter()
    for _counts, degrees, sizes in _orbit_blocks(g, components):
        for dm, size in zip(map(tuple, degrees.tolist()), sizes.tolist()):
            prefilter[dm] += size
    return prefilter


def _prefilter_hash(prefilter: Counter) -> str:
    payload = repr(sorted(prefilter.items())).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def class_certificate(g: Graph) -> ClassCertificate:
    """Deterministic certificate deciding switching-isomorphism equivalence.

    The least canonical form over the 2^(n-1) switchings is the least
    canonical form of g switched on N(v), over one vertex v per twin
    component, so it takes one canonical search per component:

    - The least form has a vertex with no neighbours.  The first refinement
      of _canonical_search orders cells by degree, so a graph with an
      isolated vertex puts it first and its leading n-1 bits are 0, while a
      graph without one has a 1 among those bits.  Every class holds a
      graph with an isolated vertex (the next point).
    - The only switching that isolates v is the one on N(v), or on its
      complement: switching on U gives v the neighbours N(v) xor U when v
      is not in U.
    - Swapping two twins is an automorphism of g that carries N(u) to N(v),
      so twins give isomorphic switched graphs.
    """
    check_certificate_size(g.n)
    components = _twin_components(g)
    prefilter = degree_multiset_prefilter(g, components=components)
    if components:
        best = min(canonical_bits(switch_on_subset(g, g.rows[comp[0]])) for comp in components)
    else:
        best = canonical_bits(g)
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
        # d_0 = +1, and d_j = -1 exactly where the (0, j) Seidel signs of g
        # and h differ: where their first rows differ (bit 0 is never set).
        mask = g.rows[0] ^ h.rows[0] if g.n else 0
        return switch_on_subset(g, mask).rows == h.rows
    if mode == "switching-isomorphism":
        cg, ch = class_certificate(g), class_certificate(h)
        return cg == ch
    raise ValueError(f"unknown mode: {mode!r}")
