"""Block binary strings and the chain graphs they encode.

A block string 0^s1 1^t1 0^s2 ... 0^sk 1^tk (all exponents >= 1) describes a
bipartite graph on n = sum(s_i + t_i) vertices: the i-th 0-block contributes an
independent cell V_si, the j-th 1-block a cell V_tj, and a 0-vertex of block i
is adjacent to a 1-vertex of block j exactly when i <= j.  Neighborhoods of
the 1-cells are therefore nested, which characterizes these graphs as the
{C3, C5, 2K2}-free graphs.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph

_ATOM = re.compile(r"\s*([01])(?:\^(\d+))?")


# The interpreter's int <-> str digit limit (0: none, or an interpreter without one).
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
# A limit is 0 or at least 640 digits, so str() takes any int of this many bits.
_ALWAYS_STR_BITS = 3 * 640


def _digits(v: int) -> str:
    """str(v) at any size, the interpreter's int -> str digit limit left alone.

    Below 3 * limit bits (under 0.91 * limit digits) that is str(v) itself;
    a larger v is split at a power of ten near half its digits, and each
    part converted the same way.  Every int that the library and the CLI
    render goes through here: a string's exponents are each within the
    limit, but merged runs, n and the values derived from them need not be.
    """
    if v.bit_length() <= _ALWAYS_STR_BITS:
        return str(v)
    limit = _int_max_str_digits()
    if not limit or v.bit_length() <= 3 * limit:
        return str(v)
    sign, v = ("-", -v) if v < 0 else ("", v)
    k = v.bit_length() * 3 // 20  # 0.15 * bits: about half the 0.301 * bits digits
    hi, lo = divmod(v, 10 ** k)
    return sign + _digits(hi) + _digits(lo).rjust(k, "0")


@dataclass(frozen=True)
class BlockString:
    """Run-length form of an alternating block binary string.

    blocks[i] = (s_i, t_i): the sizes of the i-th 0-block and 1-block, stored
    as Python ints in a tuple of tuples.  A tuple of pairs, each a tuple of
    two sizes of type exactly int and at least 1, is kept as given.  Any
    other input passes each size through operator.index and is stored
    afresh: a float or a string is refused with TypeError, and a bool, an
    int subclass or a numpy integer becomes the int it holds, so no size
    overflows a fixed width.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        blocks = self.blocks
        if type(blocks) is tuple and blocks:
            for pair in blocks:
                if type(pair) is not tuple or len(pair) != 2:
                    break
                s, t = pair
                if type(s) is not int or type(t) is not int or s < 1 or t < 1:
                    break
            else:
                return
        index, blocks = operator.index, []
        for s, t in self.blocks:
            s, t = index(s), index(t)
            if s < 1 or t < 1:
                raise ValueError("block sizes must be positive")
            blocks.append((s, t))
        if not blocks:
            raise ValueError("block string needs at least one (0-block, 1-block) pair")
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return sum(s + t for s, t in self.blocks)

    def caret(self) -> str:
        """Canonical rendering `0^s1 1^t1 ...` with ^1 omitted, exponents of any size."""
        parts = []
        for s, t in self.blocks:
            parts.append("0" if s == 1 else "0^" + _digits(s))
            parts.append("1" if t == 1 else "1^" + _digits(t))
        return " ".join(parts)

    def literal(self) -> str:
        """Expanded 0/1 rendering."""
        return "".join("0" * s + "1" * t for s, t in self.blocks)

    def cells(self) -> tuple[tuple[str, int, int], ...]:
        """The 2k cells as (label, start index, size), in string order."""
        out = []
        pos = 0
        for s, t in self.blocks:
            out.append(("0", pos, s))
            pos += s
            out.append(("1", pos, t))
            pos += t
        return tuple(out)

    def __str__(self) -> str:
        return self.caret()


def parse_block_string(text: str) -> BlockString:
    """Parse caret form ("0^3 1^7"), literal form ("0001111111"), or a mix.

    The string must start with a 0-block and end with a 1-block; exponents
    must be positive; characters outside {0, 1, ^, digits, whitespace} are
    rejected.  An exponent past the interpreter's int <-> str digit limit
    (4300 digits by default) is refused too, as int() refuses it.  The
    limit is kept: ExactSpectrum.validate bisects root cells to
    n.bit_length() + 12 bits, about 14300 at the limit, and without it a
    string's digits would set that depth with no bound.
    Adjacent runs of one digit merge, so a block, and n, may still exceed
    the limit; they are rendered by _digits.
    """
    if not text or not text.strip():
        raise ValueError("empty block string")
    runs: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        m = _ATOM.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"invalid character at position {pos}: {text[pos:]!r}")
        digit, exp = m.group(1), m.group(2)
        count = 1 if exp is None else int(exp)
        if count < 1:
            raise ValueError("zero exponent not allowed")
        if runs and runs[-1][0] == digit:
            runs[-1] = (digit, runs[-1][1] + count)
        else:
            runs.append((digit, count))
        pos = m.end()
    if runs[0][0] != "0":
        raise ValueError("block string must start with a 0-block")
    if runs[-1][0] != "1":
        raise ValueError("block string must end with a 1-block")
    # Runs alternate by construction, so they pair up as (0-block, 1-block).
    blocks = tuple(
        (runs[i][1], runs[i + 1][1]) for i in range(0, len(runs), 2)
    )
    return BlockString(blocks)


@dataclass(frozen=True)
class ChainGraph(Graph):
    """A chain graph together with the block string that generated it.

    Vertices are indexed cell by cell in string order, so matrices and
    switching witnesses derived from the graph are reproducible bit for bit.
    """

    block_string: BlockString

    def cells(self) -> tuple[tuple[str, int, int], ...]:
        return self.block_string.cells()


def cell_signs(b: BlockString) -> tuple[tuple[int, ...], ...]:
    """The Seidel sign of each pair of the 2k cells, in string order.

    sigma = -1 exactly when one cell is the i-th 0-cell and the other the
    j-th 1-cell with i <= j (the cells are joined by every edge), else +1,
    also on the diagonal.  Cell p is the 0-cell of block p // 2 for even p
    and its 1-cell for odd p, so i <= j says the 0-cell comes first: a
    0-cell meets every later 1-cell, and a 1-cell every earlier 0-cell.
    """
    m = 2 * b.k
    at_ones, at_zeros = (1, -1) * b.k, (-1, 1) * b.k
    return tuple(
        (1,) * (p + 1) + at_ones[p + 1:] if p % 2 == 0 else at_zeros[:p] + (1,) * (m - p)
        for p in range(m)
    )


def build_chain_graph(b: BlockString) -> ChainGraph:
    """Construct the chain graph of a block string.

    Every vertex of a cell is joined to every vertex of each cell with sign
    -1 (cell_signs): a vertex of the i-th 0-cell is adjacent to a vertex of
    the j-th 1-cell iff i <= j.  The result is connected: every 1-cell sees
    the first 0-cell and every 0-cell is seen by the last 1-cell.
    """
    cells = b.cells()
    masks = [((1 << size) - 1) << start for _lab, start, size in cells]
    rows: list[int] = []
    for (_lab, _start, size), signs in zip(cells, cell_signs(b)):
        row = 0
        for mask, sigma in zip(masks, signs):
            if sigma < 0:
                row |= mask
        rows.extend([row] * size)
    return ChainGraph(b.n, tuple(rows), b)


def chain_graph(text: str) -> ChainGraph:
    """Parse a block string and build its chain graph in one step."""
    return build_chain_graph(parse_block_string(text))


def is_chain_graph(g: Graph) -> bool:
    """Brute-force test that g has no induced C3, 2K2, or C5.

    Desk-scale oracle only: checks all 3-, 4- and 5-vertex subsets, capped at
    n <= 64.
    """
    if g.n > 64:
        raise ValueError("is_chain_graph is capped at 64 vertices")
    rows = g.rows
    verts = range(g.n)
    for a, b, c in combinations(verts, 3):
        if (rows[a] >> b) & (rows[b] >> c) & (rows[a] >> c) & 1:
            return False
    for quad in combinations(verts, 4):
        mask = 0
        for v in quad:
            mask |= 1 << v
        degs = sorted((rows[v] & mask).bit_count() for v in quad)
        if degs == [1, 1, 1, 1]:
            # Two disjoint induced edges.
            return False
    for quint in combinations(verts, 5):
        mask = 0
        for v in quint:
            mask |= 1 << v
        if all((rows[v] & mask).bit_count() == 2 for v in quint):
            # 2-regular on 5 vertices is necessarily a 5-cycle.
            return False
    return True
