"""Simple undirected graphs stored as bitset adjacency rows.

Row v is an integer whose bit w is set iff {v, w} is an edge.  Graphs are
immutable; every derived graph is a new object.  Graph.adjacency() unpacks
the rows into an n x n 0/1 numpy array, on which the graph checks and the
Seidel matrix run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        if rows and (min(rows) < 0 or max(rows) >> n):
            # Report the first faulty row, as a row-by-row scan meets it.
            for v, row in enumerate(rows):
                if row >> n:
                    raise ValueError(f"row {v} has bits beyond vertex range")
                if (row >> v) & 1:
                    raise ValueError(f"vertex {v} has a self-loop")
        a = self.adjacency()
        flat = a.tobytes()
        loops = flat[::n + 1]  # the diagonal
        if 1 in loops:
            raise ValueError(f"vertex {loops.index(1)} has a self-loop")
        if flat != a.T.tobytes():
            # The first mismatch in row-major order lies above the diagonal.
            v, w = divmod(int((a != a.T).argmax()), n)
            raise ValueError(f"adjacency not symmetric at ({v}, {w})")

    def adjacency(self) -> np.ndarray:
        """The n x n 0/1 adjacency matrix (uint8): entry (v, w) is bit w of row v."""
        width = (self.n + 7) // 8
        packed = b"".join([row.to_bytes(width, "little") for row in self.rows])
        return np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width),
                             axis=1, count=self.n, bitorder="little")

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        rows = [0] * n
        for u, v in edges:
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
