"""Simple undirected graphs stored as bitset adjacency rows.

Row v is an integer whose bit w is set iff {v, w} is an edge.  Graphs are
immutable; every derived graph is a new object.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitmask rows."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        for v, row in enumerate(self.rows):
            if row >> self.n:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v in range(self.n):
            for w in range(v + 1, self.n):
                if (self.rows[v] >> w) & 1 != (self.rows[w] >> v) & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {w})")

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
