"""Simple undirected graphs stored as bitset adjacency rows.

Row v is an integer whose bit w is set iff {v, w} is an edge.  Graphs are
immutable; every derived graph is a new object.

The graph checks, the naming of a fault and Graph.adjacency() work on the
runs of equal consecutive rows (the cells of a chain graph): only the row
of each of the r runs is unpacked, into an r x n 0/1 numpy array B, and
the n x n adjacency matrix A is B with each row repeated over its run.  So
a chain graph with 2k cells costs O(k * n) to check, and a graph with no
two equal consecutive rows (r = n) costs one n x n unpack, as it would
without runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter, sub

import numpy as np


def _row_runs(rows: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The row of each run of equal consecutive rows, and the run lengths."""
    distinct = list(map(itemgetter(0), groupby(rows)))
    if len(distinct) == len(rows):
        return distinct, [1] * len(rows)
    # A run starts where its row first occurs after the previous run's start.
    starts = [0]
    for row in distinct[1:]:
        starts.append(rows.index(row, starts[-1] + 1))
    return distinct, list(map(sub, starts[1:] + [len(rows)], starts))


def _unpack(rows: list[int] | tuple[int, ...], n: int) -> np.ndarray:
    """The len(rows) x n 0/1 matrix (uint8) whose entry (i, w) is bit w of rows[i]."""
    width = (n + 7) // 8
    packed = b"".join([row.to_bytes(width, "little") for row in rows])
    return np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(len(rows), width),
                         axis=1, count=n, bitorder="little")


def _first_fault(n: int, rows: tuple[int, ...]) -> str:
    """The first fault of rows known to be faulty, as a row-by-row scan meets it.

    An asymmetric pair is named from the r x n run rows, in O(r * n) memory.
    """
    for v, row in enumerate(rows):
        if row >> n:
            return f"row {v} has bits beyond vertex range"
        if (row >> v) & 1:
            return f"vertex {v} has a self-loop"
    # Asymmetric pairs come in mirror pairs, so the first one in row-major
    # order is (v, w) with v the first vertex whose row differs from its
    # column, and w the first place where they differ.  Vertex v of run j
    # has row B[j], and its column is B[:, v] repeated over the runs: they
    # are equal iff B[j] is constant, K[j][i], on every run i of columns and
    # B[i][v] = K[j][i] for every run i.
    distinct, lengths = _row_runs(rows)
    b = _unpack(distinct, n)
    starts = list(accumulate(lengths[:-1], initial=0))
    k = np.minimum.reduceat(b, starts, axis=1)
    constant = (k == np.maximum.reduceat(b, starts, axis=1)).all(axis=1)
    run_of = np.arange(len(distinct)).repeat(lengths)
    v = int((constant[run_of] & (b == k.T[:, run_of]).all(axis=0)).argmin())
    w = int((b[run_of[v]] != b[:, v].repeat(lengths)).argmax())
    return f"adjacency not symmetric at ({v}, {w})"


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitmask rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n, rows = self.n, self.rows
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        distinct, lengths = _row_runs(rows)
        if distinct and (min(distinct) < 0 or max(distinct) >> n):
            raise ValueError(_first_fault(n, rows))
        # With C = B at the run starts (the r x r run matrix), A is symmetric
        # iff B's transpose is C with each row repeated over its run: that
        # makes B constant on every run of columns and C symmetric, so that
        # A[v][w] = C[run(v)][run(w)].  A is then loopless iff C's diagonal
        # is zero.
        b = _unpack(distinct, n)
        if len(distinct) == n:  # every run is one row: C is B, and B is A
            c = expanded = b
        else:
            c = b.take(list(accumulate(lengths[:-1], initial=0)), axis=1)
            expanded = c.repeat(lengths, axis=0)
        if 1 in c.tobytes()[::len(distinct) + 1] or expanded.tobytes() != b.T.tobytes():
            raise ValueError(_first_fault(n, rows))

    def run_rows(self) -> tuple[np.ndarray, list[int]]:
        """The r x n 0/1 matrix B (uint8) of the row of each run of equal
        consecutive rows, and the run lengths: the adjacency matrix is B with
        row i repeated lengths[i] times."""
        distinct, lengths = _row_runs(self.rows)
        return _unpack(distinct, self.n), lengths

    def adjacency(self) -> np.ndarray:
        """The n x n 0/1 adjacency matrix (uint8): entry (v, w) is bit w of row v.

        Only the row of each run of equal consecutive rows is unpacked, and
        repeated over its run.
        """
        b, lengths = self.run_rows()
        return b.repeat(lengths, axis=0)

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside range({n})")
            if u == v:
                raise ValueError("self-loops not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def relabel(self, perm: list[int] | tuple[int, ...]) -> Graph:
        """Image under the vertex map v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        rows = [0] * self.n
        for v in range(self.n):
            row = self.rows[v]
            new = 0
            w = 0
            while row:
                if row & 1:
                    new |= 1 << perm[w]
                row >>= 1
                w += 1
            rows[perm[v]] = new
        return Graph(self.n, tuple(rows))


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees in non-increasing order."""
    return sorted(g.degrees(), reverse=True)
