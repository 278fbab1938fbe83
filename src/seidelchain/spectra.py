"""Seidel matrices, quotient matrices, and exact spectra of chain graphs.

The Seidel matrix of a simple graph is J - I - 2A: -1 on edges, +1 on
non-edges, 0 on the diagonal.  For a chain graph with 2k cells the spectrum
splits as spectrum(Q) together with -1 repeated n - 2k times, where Q is the
2k x 2k quotient matrix of the cell partition, so the cost of an exact
spectrum depends on k, not on n: the characteristic polynomial of Q comes
from the cell sizes by principal minors, of which only the sets of cells
alternating in parity count, O(k^2) integer operations
(intpoly.char_poly_ints).  The quotient matrix itself is its cell sizes;
its rows are built only when read.  Strings of one or two blocks need none
of that: k = 1 has the quotient spectrum {-1, n - 1}, and k = 2 the
eigenvalue -1 and the roots of the cubic y^3 - n y^2 + 4pqr in y = x + 1
(intpoly.four_cell_cubic), {p, q, r} the string's class (four_cell_class).
When two arcs equal m and the third is o, y = 2m is a root, as 8m^3 -
4(o + 2m)m^2 + 4om^2 = 0, so the values are 2m - 1 and the roots of x^2 +
(2 - o) x + (1 - o - 2om), of discriminant o(o + 8m): two ints or two
surds, in closed form at any size (four_cell_spectrum; the unit and mirror
chains of the families module are such classes).  Otherwise the cubic's
discriminant 16pqr(n^3 - 27pqr), n = p + q + r, is positive, since by the
AM-GM inequality n^3 >= 27pqr with equality only at p = q = r.  So the
cubic is square-free: its roots are isolated and certified by its degree,
with no Sturm chain and no square-free split.

Roots are located by guess, then certified, in one pass.  One float
eigensolve of the symmetric form of Q gives a guess for every eigenvalue
(none when the floats overflow); the cubic of k = 2 gets its guesses from
the trigonometric formula instead, computed in y / n so that no float
overflows below the float range of n.  A guess is within about 12 n 2^-53
of its root, so the integer-root candidates are the roundings of the
guesses within n 2^-40 of an integer, and integer roots are the candidates
that exact synthetic division confirms; the rounding of a guess further
from every integer would only fail a division.  From k = 3 on the residual
gets one Sturm chain, which both splits it square-free (its last member is
gcd(p, p')) and counts its distinct real roots, all inside [-(n-1), n-1]:
by Sturm's theorem at -infinity and +infinity that count comes from the
members' leading coefficients and degrees, so no member is evaluated.  The
guesses locate the isolating cells: a cell of the [-n, n] bisection tree
whose ends carry opposite signs holds a root, and when such cells number
the Sturm count (or, for a factor with no chain, its degree) each holds
exactly one; otherwise Sturm bisection isolates them.  The guesses are
placed on the tree's final grid, of width at most 2^-40: from n = 128 on,
where a guess's error can exceed a quarter cell, a guess whose own cell
shows no sign change is carried to its root's cell by secant steps through
the values at cell ends (intpoly._guessed_cells).  refine_root returns such
a cell as it is, and narrows a cell of Sturm bisection to its dyadic cell,
all on integer grids.  An integer root the candidates missed is found in
its square-free factor, inside a refined cell or on a grid point, and
divided out of that factor alone, so no step costs more than a bisection of
[-n, n]: the cost does not depend on n beyond the size of its digits.  The
spectrum is sorted by one integer enclosure of each value, and only
neighbours whose enclosures overlap are compared exactly; validate() checks
the trace and Frobenius identities on integers.

Eigenvalues are exact objects: plain ints, quadratic surds (a +- sqrt(D))/c
in canonical form, or sign-certified root intervals of an integer polynomial
factor, each a dyadic cell (lo / 2^shift, hi / 2^shift) of width at most
2^-40 held as integers.  They are equal when their fields are, and are
ordered, sorted and summed in validate() through one rule: integers enclosing
the value scaled by 2^bits.  A Fraction appears only as the equiangular
cosine 1/|lambda_min| of an integer lambda_min.  The cosine of a root
interval is a root of its factor's reversal, located by float guesses and
certified by a sign change like every other root (_reciprocal_abs).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Union

import numpy as np

from . import intpoly
from ._record import record
from .chain import BlockString, _digits, cell_signs
from .graphs import Graph

CHAR_POLY_ORDER_CAP = 256
MATRIX_CAP = 2000
INTERVAL_BITS = intpoly.GRID_BITS
_TRIAL_BOUND = 100_000
# An integer-root candidate is a guess within bound * 2^-_CANDIDATE_BITS of an integer.
_CANDIDATE_BITS = 40
# value_cmp's rounds: the first at the width of a computed cell, then doubled.
_CMP_BITS = tuple(INTERVAL_BITS << i for i in range(5))


# ---------------------------------------------------------------------------
# Exact eigenvalue representations
# ---------------------------------------------------------------------------

def _reducing_factor(a: int, c: int, d: int) -> int:
    """The largest g with g | a, g | c and g^2 | d (c != 0), up to large primes.

    Such a g divides h = gcd(a, c, d), usually 1 or 2, so that is what is
    trial-divided, by every q up to the bound 10^5.  What is left of h then has
    no prime factor below the bound and joins g whole if its square divides d.
    A leftover with two prime factors above the bound, only one of which
    reduces the surd, is left in the fields.
    """
    h = math.gcd(a, c, d)
    g, q = 1, 2
    while q <= _TRIAL_BOUND and q * q <= h:
        while h % q == 0:
            h //= q
            if d % (g * q) ** 2 == 0:
                g *= q
        q += 1
    if h > 1 and d % (g * h) ** 2 == 0:
        g *= h
    return g


@record
class Surd:
    """The real quadratic irrational (a + sign*sqrt(d)) / c, d not square.

    Stored in canonical form: c > 0, and no g > 1 divides both a and c with
    g^2 dividing d, for every g that _reducing_factor finds: all of them
    unless gcd(a, c, d) has two prime factors above 10^5 of which only one
    reduces the surd.  Every representation of a value is a multiple
    (g a, sign, g^2 d, g c) of the canonical one, so field equality and hash
    are value equality wherever the form is canonical.
    """

    a: int
    sign: int
    d: int
    c: int

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        if self.c == 0:
            raise ValueError("zero denominator")
        if self.d <= 0:
            raise ValueError("radicand must be positive")
        if math.isqrt(self.d) ** 2 == self.d:
            raise ValueError("radicand is a perfect square; use an int instead")
        a, sign, c = (-self.a, -self.sign, -self.c) if self.c < 0 else (self.a, self.sign, self.c)
        g = _reducing_factor(a, c, self.d)
        for name, value in (("a", a // g), ("sign", sign), ("d", self.d // (g * g)), ("c", c // g)):
            object.__setattr__(self, name, value)

    def negate(self) -> Surd:
        return Surd(-self.a, -self.sign, self.d, self.c)

    def reciprocal(self) -> Surd:
        # 1 / ((a + s sqrt(d))/c) = c (a - s sqrt(d)) / (a^2 - d)
        e = self.a * self.a - self.d
        if e == 0:
            raise ZeroDivisionError("surd is zero")
        return Surd(self.c * self.a, -self.sign, self.c * self.c * self.d, e)

    def __float__(self) -> float:
        # The midpoint of the 2^-60 enclosure as one correctly rounded division.
        r = math.isqrt(self.d << 120)
        return ((self.a << 61) + self.sign * (2 * r + 1)) / (self.c << 61)

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"({_digits(self.a)}{s}√{_digits(self.d)})/{_digits(self.c)}"


@record(init=False)
class RootInterval:
    """A real algebraic number: the unique root of `poly` inside the dyadic
    cell (lo / 2^shift, hi / 2^shift).

    poly is primitive, square-free, and has no rational roots; sign_lo and
    sign_hi record the certifying sign change at the endpoints.  The cell is
    stored with the least shift, so equality is field equality: refinement
    from [-n, n] always ends in the same dyadic cell of a root
    (intpoly.refine_root), and distinct roots of one factor never share a
    cell.
    """

    poly: tuple[int, ...]
    lo: int
    hi: int
    shift: int
    sign_lo: int
    sign_hi: int

    def __init__(self, poly: tuple[int, ...], lo: int, hi: int, shift: int, sign_lo: int, sign_hi: int) -> None:
        # Drop the factors of two that lo and hi share, down to shift 0.
        both = lo | hi
        t = (both & -both).bit_length() - 1
        if t > shift:
            t = shift
        if t > 0:
            lo, hi, shift = lo >> t, hi >> t, shift - t
        # Straight into the instance dict: the frozen class's own __setattr__
        # refuses the fields.  Six object.__setattr__ calls would leave the
        # dict unbuilt and later reads faster, but cost more than those reads
        # save: the spectrum_small inputs ran 1.5 % slower with them.
        d = self.__dict__
        d["poly"] = poly
        d["lo"], d["hi"], d["shift"] = lo, hi, shift
        d["sign_lo"], d["sign_hi"] = sign_lo, sign_hi

    def refined(self, bits: int) -> RootInterval:
        """The cell of the root at width at most 2^-bits."""
        cell = (self.lo, self.hi, self.shift, self.sign_lo, self.sign_hi)
        return RootInterval(self.poly, *intpoly.refine_root(self.poly, cell, bits))

    def __float__(self) -> float:
        # The midpoint as one correctly rounded integer division.
        return (self.lo + self.hi) / (2 << self.shift)

    def __str__(self) -> str:
        return f"[{_decimal_string(self.lo, self.shift)},{_decimal_string(self.hi, self.shift)}]"


Eigenvalue = Union[int, Surd, RootInterval]


def _enclosure(v: Eigenvalue, bits: int) -> tuple[int, int]:
    """Integers lo <= v * 2^bits <= hi, rounded outward: a root interval by
    its cell as it is, an int exactly, a surd through isqrt."""
    if isinstance(v, RootInterval):
        d = bits - v.shift
        if d >= 0:
            return v.lo << d, v.hi << d
        return v.lo >> -d, -(-v.hi >> -d)
    if isinstance(v, int):
        return v << bits, v << bits
    r = math.isqrt(v.d << 2 * bits)  # r <= sqrt(d) * 2^bits < r + 1
    a = v.a << bits
    lo, hi = (a + r, a + r + 1) if v.sign > 0 else (a - r - 1, a - r)
    return lo // v.c, -(-hi // v.c)


def value_cmp(u: Eigenvalue, v: Eigenvalue) -> int:
    """-1, 0 or 1 as u is below, equal to or above v; 0 means equal fields.

    Enclosures at 2^-40, 2^-80, ... 2^-640 (INTERVAL_BITS doubled four times)
    are compared until they separate.  Root cells (computed ones are at most
    2^-INTERVAL_BITS wide) are refined to 2^-bits from the second round on,
    when wider.
    """
    if u == v:
        return 0
    for bits in _CMP_BITS:
        if bits > INTERVAL_BITS:
            u, v = (w.refined(bits) if isinstance(w, RootInterval) else w for w in (u, v))
        (ulo, uhi), (vlo, vhi) = _enclosure(u, bits), _enclosure(v, bits)
        if uhi < vlo:
            return -1
        if vhi < ulo:
            return 1
    raise ArithmeticError("could not separate two distinct eigenvalues")


def _decimal_string(num: int, shift: int) -> str:
    """Exact decimal rendering of num / 2^shift in the fewest digits.

    With the shift least, num / 2^shift = num * 5^shift / 10^shift: the
    digits of num * 5^shift with the point shift places from the right.
    """
    if num == 0:
        return "0"
    t = min((num & -num).bit_length() - 1, shift)
    num, shift = num >> t, shift - t
    sign = "-" if num < 0 else ""
    text = _digits(abs(num) * 5 ** shift).rjust(shift + 1, "0")
    if shift == 0:
        return sign + text
    return f"{sign}{text[:-shift]}.{text[-shift:]}"


def value_to_string(v: Eigenvalue) -> str:
    if isinstance(v, int):
        return "int:" + _digits(v)
    if isinstance(v, Surd):
        return f"surd:{v}"
    return f"interval:{v}"


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

@record(eq=False)
class SeidelMatrix:
    """Symmetric {-1, 0, +1} matrix with zero diagonal: J - I - 2A.

    entries is a read-only n x n int8 numpy array, copied from any n x n
    array-like of integers and checked.  A matrix compares by identity.
    seidel_matrix builds its matrix from a checked graph through _of_graph,
    which neither checks nor copies it again.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        try:
            m = np.asarray(self.entries)
        except ValueError:  # ragged rows
            m = None
        # For n = 0, any empty input (such as ()) is the 0 x 0 matrix.
        if m is None or m.shape != (self.n, self.n) and (self.n > 0 or m.size > 0):
            raise ValueError("entries are not an n x n matrix")
        m = m.reshape(self.n, self.n)
        if m.diagonal().any():
            raise ValueError("diagonal must be zero")
        bad = np.abs(m) != 1  # the zero diagonal included
        # A bad entry below the diagonal only faces a +-1 above it: asymmetry.
        if np.count_nonzero(bad) > self.n and np.triu(bad, 1).any():
            raise ValueError("off-diagonal entries must be -1 or +1")
        if (m != m.T).any():
            raise ValueError("matrix must be symmetric")
        entries = m.astype(np.int8)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of_graph(cls, entries: np.ndarray) -> SeidelMatrix:
        """The matrix of a fresh n x n int8 array 1 - 2A of a checked graph,
        with its diagonal zeroed: valid by construction, so it is made
        read-only and taken as it is."""
        entries.flags.writeable = False
        s = object.__new__(cls)
        object.__setattr__(s, "__dict__", {"n": len(entries), "entries": entries})
        return s


def check_matrix_size(n: int) -> None:
    """Refuse a Seidel matrix or numeric spectrum on more than MATRIX_CAP vertices."""
    if n > MATRIX_CAP:
        raise ValueError(f"numeric_spectrum is capped at {MATRIX_CAP} vertices")


def seidel_matrix(g: Graph) -> SeidelMatrix:
    """Seidel matrix of any simple graph: -1 on edges, +1 on non-edges.

    The size cap is checked first, so a refused graph never has an n x n
    array built.  Then S = 1 - 2A is formed as 1 - 2B on the r x n rows of
    g's runs of equal consecutive rows (Graph.run_rows), and repeated over
    the runs.  g is a checked simple graph, so S is a Seidel matrix and is
    not checked again.
    """
    check_matrix_size(g.n)
    b, lengths = g.run_rows()
    s = (1 - 2 * b.view(np.int8)).repeat(lengths, axis=0)
    np.fill_diagonal(s, 0)
    return SeidelMatrix._of_graph(s)


@record
class QuotientMatrix:
    """Quotient of the Seidel matrix over the 2k-cell chain partition.

    The cell sizes determine it; its charpoly and its float guesses read
    them alone.  The rows, Q = Sigma D - I with Sigma the cell signs
    (chain.cell_signs) and D the diagonal of cell sizes, are built when
    entries is first read: the (p, q) entry is sigma_pq * |C_q|, and the
    diagonal entry for cell C_p is |C_p| - 1.
    """

    size: int
    cell_sizes: tuple[int, ...]

    @functools.cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        for p, signs in enumerate(_cell_sign_template(self.size // 2)[0]):
            row = list(map(operator.mul, signs, self.cell_sizes))
            row[p] -= 1
            rows.append(tuple(row))
        return tuple(rows)


def check_quotient_order(k: int) -> None:
    """Refuse a block string with k blocks whose 2k x 2k quotient is over the cap."""
    if 2 * k > CHAR_POLY_ORDER_CAP:
        raise ValueError(f"quotient order {2 * k} exceeds cap {CHAR_POLY_ORDER_CAP}")


def quotient_matrix(b: BlockString) -> QuotientMatrix:
    """The 2k x 2k quotient matrix of a block string's cell partition: its
    cell sizes in string order, O(k); the rows wait until they are read."""
    sizes = tuple(size for block in b.blocks for size in block)
    return QuotientMatrix(len(sizes), sizes)


@functools.lru_cache(maxsize=32)
def _cell_sign_template(k: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """The cell signs of every k-block string (chain.cell_signs reads k
    alone), as int rows for QuotientMatrix.entries and as a read-only float
    array for _quotient_guesses: built once per quotient order, for the 32
    orders last used."""
    rows = cell_signs(BlockString(((1, 1),) * k))
    sigma = np.array(rows, dtype=float)
    sigma.flags.writeable = False
    return rows, sigma


@record
class CharPoly:
    """Monic integer characteristic polynomial, coefficients in ascending power order."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def char_poly(q: QuotientMatrix) -> CharPoly:
    """Exact monic characteristic polynomial of a chain quotient (order <= 256).

    Computed from the cell sizes alone by intpoly.char_poly_ints, one pass
    over the sets of cells that alternate in parity; the cap is checked
    first.
    """
    check_quotient_order(q.size // 2)
    return CharPoly(intpoly.char_poly_ints(q.cell_sizes))


# ---------------------------------------------------------------------------
# Exact spectra
# ---------------------------------------------------------------------------

@record
class ExactSpectrum:
    """Eigenvalue multiset: ((value, multiplicity), ...) sorted ascending.

    Spectra, like their values, compare by representation.  That is exact
    for the values of computed spectra: every rational eigenvalue is an int,
    a surd is stored in canonical form, the roots of distinct square-free
    factors are distinct, and a root interval is the canonical cell of its
    root.  The one value equality it misses is a root interval equal to a
    surd, which no library path compares.
    """

    entries: tuple[tuple[Eigenvalue, int], ...]

    @property
    def n(self) -> int:
        return sum(map(operator.itemgetter(1), self.entries))

    @property
    def distinct_count(self) -> int:
        return len(self.entries)

    @property
    def min_value(self) -> Eigenvalue:
        return self.entries[0][0]

    @property
    def max_value(self) -> Eigenvalue:
        return self.entries[-1][0]

    def multiplicity(self, value: Eigenvalue) -> int:
        for v, m in self.entries:
            if v == value:
                return m
        return 0

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v, _m in self.entries)

    def to_floats(self) -> list[float]:
        out: list[float] = []
        for v, m in self.entries:
            out.extend([float(v)] * m)
        return out

    def serialize(self) -> list[dict]:
        return [{"value": value_to_string(v), "mult": m} for v, m in self.entries]

    def __str__(self) -> str:
        parts = []
        for v, m in self.entries:
            parts.append(str(v) if m == 1 else f"{v}^{m}")
        return "{" + ", ".join(parts) + "}"

    def validate(self) -> None:
        """Check the trace and Frobenius identities for a Seidel spectrum.

        Both sums are integers (0 and n(n-1)).  Without root intervals they
        are checked exactly, surd parts symbolically.  With root intervals
        every other value is enclosed in integers scaled by 2^80 (more for n
        of 2^28 and beyond), rounded outward, the integer values are added
        exactly, and the enclosed sum must hold the target and be narrower
        than 1; that is exact because the enclosures are far narrower than 1.
        """
        n = self.n
        if n <= 0:
            raise ValueError("empty spectrum")
        for v, _m in self.entries:
            if isinstance(v, RootInterval):
                _assert_enclosed_sums(self.entries, n)
                return
        for power, target in ((1, 0), (2, n * (n - 1))):
            if not _exact_power_sum_is(self.entries, power, target):
                raise ValueError(f"spectrum identity failed: power {power} sum != {target}")


def _exact_power_sum_is(entries, power: int, target: int) -> bool:
    """Whether the power sum of ints and surds is exactly target.

    Every term is put over den, the lcm of the surd denominators c^power.
    The coefficients of sqrt(d), keyed by the reduced radicand, must cancel
    across conjugate branches.
    """
    den = math.lcm(*(v.c ** power for v, _m in entries if isinstance(v, Surd)))
    rational = 0
    radicals: dict[int, int] = {}
    for v, m in entries:
        if isinstance(v, int):
            rational += m * v ** power * den
            continue
        scale = m * (den // v.c ** power)
        if power == 1:
            rat, rad = v.a, v.sign
        else:
            rat, rad = v.a * v.a + v.d, 2 * v.a * v.sign
        rational += scale * rat
        radicals[v.d] = radicals.get(v.d, 0) + scale * rad
    return rational == target * den and not any(radicals.values())


def _assert_enclosed_sums(entries, n: int) -> None:
    """The trace and Frobenius identities by integer enclosures at 2^(2 bits).

    bits is INTERVAL_BITS (40), the width of computed root cells, up to
    n < 2^28, and n.bit_length() + 12 beyond, where the cells are refined to
    2^-bits first: by Newton steps from each cell's midpoint, a few
    evaluations a cell for any n when they converge (intpoly.refine_root).
    The square of a value below n in such a cell is known to within
    2n 2^-bits < 2^-11, so the at most 256 quotient values keep the
    enclosed sum narrower than 1.  Integer values are summed exactly, apart;
    root intervals and surds go through _enclosure, the only rounding: the
    squares of its integer ends are exact, at twice its scale.
    """
    bits = max(INTERVAL_BITS, n.bit_length() + 12)
    refine = bits > INTERVAL_BITS
    scale = 2 * bits
    sum1 = sum2 = 0  # the exact sums of the integer values and their squares
    lo1 = hi1 = lo2 = hi2 = 0
    for v, m in entries:
        if isinstance(v, int):
            sum1 += m * v
            sum2 += m * v * v
            continue
        if refine and isinstance(v, RootInterval):
            v = v.refined(bits)
        lo, hi = _enclosure(v, scale)
        if lo >= 0:
            sq_lo, sq_hi = lo * lo, hi * hi
        elif hi <= 0:
            sq_lo, sq_hi = hi * hi, lo * lo
        else:
            sq_lo, sq_hi = 0, max(lo * lo, hi * hi)
        if m != 1:
            lo, hi, sq_lo, sq_hi = m * lo, m * hi, m * sq_lo, m * sq_hi
        lo1 += lo
        hi1 += hi
        lo2 += sq_lo
        hi2 += sq_hi
    for power, target, lo_sum, hi_sum, shift in ((1, 0, lo1 + (sum1 << scale), hi1 + (sum1 << scale), scale),
                                                 (2, n * (n - 1), lo2 + (sum2 << 2 * scale),
                                                  hi2 + (sum2 << 2 * scale), 2 * scale)):
        if not (lo_sum <= target << shift <= hi_sum) or (hi_sum - lo_sum) >> shift:
            raise ValueError(f"spectrum identity failed: power {power} enclosure misses {target}")


def spectrum_from_counts(counts) -> ExactSpectrum:
    """Build a sorted ExactSpectrum from (value, multiplicity) pairs, merging equals.

    The pairs are sorted by one integer key each, the enclosure
    _enclosure(v, INTERVAL_BITS), which exists at any size.  Neighbours
    whose enclosures are disjoint are ordered by them; only neighbours
    whose enclosures overlap are compared exactly by value_cmp, and if one
    such pair is out of order, a full sort by value_cmp runs.  The order is
    the same either way.  Equal neighbours, which value_cmp finds by their
    fields (values are equal when their representations are, see
    ExactSpectrum), then merge, in the same pass.
    """
    keyed = [(_enclosure(v, INTERVAL_BITS), v, m) for v, m in counts if m]
    keyed.sort(key=operator.itemgetter(0))
    entries = _merged(keyed)
    if entries is None:
        keyed.sort(key=functools.cmp_to_key(lambda p, q: value_cmp(p[1], q[1])))
        entries = _merged(keyed)
    return ExactSpectrum(tuple(entries))


def _merged(keyed) -> list[tuple[Eigenvalue, int]] | None:
    """The (value, multiplicity) pairs of keyed, (enclosure, value,
    multiplicity) triples in order, with equal neighbours merged; None when
    two neighbours with overlapping enclosures are out of order."""
    entries: list[tuple[Eigenvalue, int]] = []
    top = None  # the upper end of the last enclosure
    for (lo, hi), v, m in keyed:
        if top is not None and lo <= top:
            order = value_cmp(entries[-1][0], v)
            if order > 0:
                return None
            if order == 0:
                entries[-1] = (v, entries[-1][1] + m)
                continue
        entries.append((v, m))
        top = hi
    return entries


def _quotient_guesses(q: QuotientMatrix) -> list[float]:
    """Finite float eigenvalues of q, ascending, from numpy's eigvalsh; none
    when a cell size is beyond the float range or the eigensolver fails.

    Q + I = Sigma D, with D the cell sizes, so Q is similar to the symmetric
    D^1/2 (Q + I) D^-1/2 - I = D^1/2 Sigma D^1/2 - I.  The guesses are only
    hints, so a spectrum runs without those that floats cannot give.
    """
    try:
        sizes = np.array(q.cell_sizes, dtype=float)
        root = np.sqrt(sizes)
        # sigma_pq |C_q| sqrt(|C_p| / |C_q|), built in place: the same rounded
        # products as sigma * sizes * (root[:, None] / root).  It cannot
        # overflow: the product is at most n.
        m = root[:, None] / root
        m *= sizes
        m *= _cell_sign_template(q.size // 2)[1]
        m.ravel()[::q.size + 1] -= 1.0  # - I
        vals = np.linalg.eigvalsh(m)
    except (OverflowError, np.linalg.LinAlgError):
        return []
    return [g for g in vals.tolist() if math.isfinite(g)]


def _factor_roots(factor: tuple[int, ...], bound: int, guesses: list[float],
                  chain: list[tuple[int, ...]] | None) -> list[Eigenvalue]:
    """Every root of a monic square-free factor whose roots lie in [-bound, bound].

    A linear factor is its integer root, and a quadratic gives two integers
    when its discriminant is a square, two surds otherwise.  A larger factor
    is isolated and refined; each integer root it turns out to hold, inside
    a refined cell or hit exactly by a grid point (a rational root of a
    monic integer polynomial is an integer), is divided out, and the
    cofactor is solved the same way.  Such a root is one that no integer
    candidate named (_integer_candidates): its guess was missing or off.
    Each cell is refined, checked for an integer and made a root interval
    in one loop; after a cell that holds an integer no further root
    interval is made, since the cofactor is solved again.  Cells are
    canonical, so the cofactor's cells are the ones it would have had with
    the integer stripped first.
    """
    if factor[-1] != 1:
        raise ArithmeticError("residual factor is not monic")
    ints: list[int] = []
    while intpoly.poly_degree(factor) > 2:
        roots, hits = [], []
        try:
            for cell in intpoly.isolate_real_roots(factor, bound, guesses, chain):
                # A placed cell is on the final grid already, and refine_root returns it as it is.
                lo, hi, shift, s_lo, s_hi = intpoly.refine_root(factor, cell, INTERVAL_BITS)
                # The one integer a cell may hold is the least one above its lower end.
                z = (lo >> shift) + 1
                if z << shift < hi and intpoly.poly_eval(factor, z) == 0:
                    hits.append(z)
                elif not hits:
                    roots.append(RootInterval(factor, lo, hi, shift, s_lo, s_hi))
        except intpoly.RationalRootError as exc:
            hits = [exc.num // exc.den]
        if not hits:
            return ints + roots
        for z in hits:
            factor, rem = intpoly.synthetic_div(factor, z)
            if rem:
                raise ArithmeticError("a peeled integer is not a root")
        ints += hits
    if len(factor) == 2:
        return ints + [-factor[0]]
    if len(factor) == 3:
        return ints + _quadratic_roots(factor[0], factor[1])
    return ints


def _quadratic_roots(c0: int, c1: int) -> list[Eigenvalue]:
    """The two roots of x^2 + c1 x + c0, with real roots: two ints when the
    discriminant is a square (then it has the parity of c1), two surds
    otherwise."""
    disc = c1 * c1 - 4 * c0
    r = math.isqrt(disc)
    if r * r == disc:
        return [(-c1 - r) // 2, (-c1 + r) // 2]
    return [Surd(-c1, 1, disc, 2), Surd(-c1, -1, disc, 2)]


def _integer_candidates(guesses: list[float], bound: int) -> list[float]:
    """The guesses within bound * 2^-40 of an integer: the only ones whose
    rounding can be an integer root.

    A guess is within 12.01 * bound * 2^-53 of its root (see
    intpoly._guessed_cells), so an integer root's guess is inside the window
    with a margin of about 680; a guess further from every integer belongs
    to another root, and its rounding would cost integer_roots a failed
    synthetic division.  From bound = 2^39 on the window is 1/2 or more and
    every guess is a candidate.
    """
    if bound.bit_length() >= _CANDIDATE_BITS:
        return guesses
    window = bound / (1 << _CANDIDATE_BITS)
    return [g for g in guesses if abs(g - round(g)) <= window]


def _quotient_roots(coeffs: tuple[int, ...], bound: int, guesses: list[float],
                    square_free: bool = False) -> list[tuple[Eigenvalue, int]]:
    """(value, multiplicity) of every root of a monic quotient charpoly, in one pass.

    Every root lies in [-bound, bound], and the guesses are finite.  Only 0,
    -1 and the roundings of the guesses within bound * 2^-40 of an integer
    (_integer_candidates) are tried as integer roots; an integer root they
    miss stays in the residual and is taken out of its square-free factor
    by _factor_roots.  So no step is linear in the bound.  Each stripped
    integer root takes the guess nearest it out of all the guesses left for
    the residual, once per multiplicity, so that isolation does not place
    it for nothing; a guess taken wrongly costs a placement or a fallback,
    never a different root (isolate_real_roots).

    The residual's Sturm chain is built once: the square-free split reads
    its gcd off it, and when the residual is one simple factor, isolation
    counts its roots with it and certifies the cells the guesses locate.
    A residual known to be square-free (square_free) is one factor with no
    chain and no split: isolation certifies its cells by its degree, as it
    does every other factor's (isolate_real_roots).
    """
    int_roots, residual = intpoly.integer_roots(coeffs, bound=bound, guesses=_integer_candidates(guesses, bound))
    counts: list[tuple[Eigenvalue, int]] = list(int_roots.items())
    found = sum(int_roots.values())
    rest = sorted(guesses)
    for z, mult in int_roots.items():
        for _ in range(min(mult, len(rest))):
            i = bisect.bisect_left(rest, z)
            # rest[i - 1] < z <= rest[i]; int-float comparisons are exact.
            if i == len(rest) or (i > 0 and 2 * z <= rest[i - 1] + rest[i]):
                i -= 1
            del rest[i]
    chain = None
    if intpoly.poly_degree(residual) < 1:
        factors = []
    elif square_free:
        factors = [(residual, 1)]
    else:
        chain = intpoly.sturm_chain(residual)
        factors = intpoly.square_free_decomposition(residual, chain)
    for factor, mult in factors:
        values = _factor_roots(factor, bound, rest, chain)
        counts += zip(values, itertools.repeat(mult))
        found += len(values) * mult
    if found != len(coeffs) - 1:
        raise ArithmeticError("failed to account for every quotient eigenvalue")
    return counts


def _four_cell_guesses(p: int, q: int, r: int, n: int) -> list[float]:
    """Float roots, ascending, of the four-cell cubic (intpoly.four_cell_cubic)
    in x = y - 1; none when n is beyond the float range.

    In u = y / n, n = p + q + r, the cubic is u^3 - u^2 + c with c = 4pqr /
    n^3 in (0, 4/27], whose roots lie in [-1/3, 1]: no float overflows
    however large n is, and x = u n - 1.  By the trigonometric formula the
    roots are 1/3 + (2/3) cos((theta - 2 pi j) / 3), j = 0, 1, 2, where
    cos(theta) = 1 - 27c/2.  So theta / 2 has sin^2 = 27pqr / n^3 and cos^2
    = (n^3 - 27pqr) / n^3, each one correctly rounded integer division, and
    theta is taken from the smaller of the two: it keeps its relative
    precision where two roots nearly meet (p, q, r nearly equal) and where
    two are near u = 0 (one of p, q, r far above the others), where
    arccos(1 - 27c/2) in floats would lose half the digits.  Over 1500
    random triples with up to 60 digits every guess was within 4.3 * n *
    2^-53 of its root, below eigvalsh's 12.01 (intpoly._guessed_cells).
    """
    try:
        scale = float(n)
    except OverflowError:
        return []
    cube, prod = n ** 3, 27 * p * q * r
    if 2 * prod <= cube:
        half = math.asin(math.sqrt(prod / cube))
    else:
        half = math.acos(math.sqrt((cube - prod) / cube))
    guesses = [(1 / 3 + 2 / 3 * math.cos((2 * half - 2 * math.pi * j) / 3)) * scale - 1 for j in range(3)]
    return sorted(g for g in guesses if math.isfinite(g))


def four_cell_class(b: BlockString) -> tuple[int, int, int]:
    """The sorted multiset (p, q, r) of {a+d, b, c} for the four-cell string
    0^a 1^b 0^c 1^d; any other k is refused.

    It is the string's bracelet (a+d, b, c): three numbers up to rotation
    and reflection are a multiset.  The quotient's characteristic
    polynomial is y times intpoly.four_cell_cubic(p, q, r), so strings with
    equal sum and product of their multisets are cospectral.
    """
    if b.k != 2:
        raise ValueError(f"a four-cell string has k = 2 blocks, not {b.k}")
    (a, b1), (c, d) = b.blocks
    return tuple(sorted((a + d, b1, c)))


def _four_cell_roots(p: int, q: int, r: int) -> list[tuple[Eigenvalue, int]]:
    """(value, multiplicity) of the roots, in x = y - 1, of the cubic
    y^3 - n y^2 + 4pqr of the four-cell class p <= q <= r, n = p + q + r.

    Two equal arcs m = q and a third o = n - 2m give the closed form: y = 2m
    is a root, since 8m^3 - 4(o + 2m)m^2 + 4om^2 = 0, and the cofactor
    y^2 - o y - 2om is x^2 + (2 - o) x + (1 - o - 2om), whose discriminant
    is o(o + 8m).  So the values are 2m - 1 and two ints or two surds
    (_quadratic_roots); at p = q = r one of them is 2m - 1 again.  Three
    distinct arcs give the positive discriminant 16pqr(n^3 - 27pqr) (n^3 >
    27pqr by the AM-GM inequality), so the cubic is square-free:
    _quotient_roots strips its integer roots and isolates the rest by its
    degree, with no Sturm chain and no square-free split, from guesses by
    the trigonometric formula (_four_cell_guesses).
    """
    n = p + q + r
    if q in (p, r):
        o = n - 2 * q
        return [(2 * q - 1, 1)] + [(v, 1) for v in _quadratic_roots(1 - o - 2 * o * q, 2 - o)]
    cubic = intpoly.poly_shift(intpoly.four_cell_cubic(p, q, r), 1)
    return _quotient_roots(cubic, n, _four_cell_guesses(p, q, r, n), square_free=True)


def four_cell_spectrum(p: int, q: int, r: int) -> ExactSpectrum:
    """Exact Seidel spectrum of every four-cell string of the class {p, q, r}
    (four_cell_class), on n = p + q + r vertices: -1 with multiplicity n - 3
    (the quotient's y = 0 and the n - 4 vertices outside it) and the roots
    of the class's cubic (_four_cell_roots).

    The arcs may come in any order.  A class has arcs of at least 1, and
    a + d >= 2, so (1, 1, 1) is the class of no string; both are refused.
    """
    p, q, r = sorted((p, q, r))
    if p < 1 or r < 2:
        raise ValueError("a four-cell class has arcs of at least 1, one of them at least 2")
    sp = spectrum_from_counts(_four_cell_roots(p, q, r) + [(-1, p + q + r - 3)])
    sp.validate()
    return sp


def _quotient_counts(b: BlockString, n: int) -> list[tuple[Eigenvalue, int]]:
    """(value, multiplicity) of every eigenvalue of the quotient matrix of b,
    on n = b.n vertices, unsorted: the one place the three paths of
    quotient_spectrum part.  The caller has checked the cap."""
    if b.k == 1:
        return [(-1, 1), (n - 1, 1)]
    if b.k == 2:
        return [(-1, 1)] + _four_cell_roots(*four_cell_class(b))
    q = quotient_matrix(b)
    cp = char_poly(q)
    # All eigenvalues lie in [-(n-1), n-1]: every |row| sum of Q is n - 1.
    return _quotient_roots(cp.coeffs, n, _quotient_guesses(q))


def quotient_spectrum(b: BlockString) -> ExactSpectrum:
    """Exact eigenvalue multiset of the quotient matrix (2k values with multiplicity).

    The cap is checked before any work.  The float guesses steer the search
    for roots; the roots are certified exactly whatever they are.

    Strings of one or two blocks take their closed forms, with no quotient
    matrix, principal-minor charpoly or eigensolve.  For k = 1 the
    charpoly is y (y - n) in y = x + 1, so the spectrum is {-1, n - 1}.  For
    k = 2 it is y times intpoly.four_cell_cubic(p, q, r), {p, q, r} the
    class {a + d, b, c} (four_cell_class): -1 and the roots of the cubic
    shifted to x (_four_cell_roots).  Two equal arcs m and a third o give
    2m - 1 and the roots of x^2 + (2 - o) x + (1 - o - 2om), since y = 2m is
    a root of the cubic; three distinct arcs give a square-free cubic,
    isolated by its degree from guesses by the trigonometric formula
    (_four_cell_guesses).  Those are computed in y / n, where every
    quantity stays in [-1, 1], so n up to the float range gives guesses.
    """
    check_quotient_order(b.k)
    return spectrum_from_counts(_quotient_counts(b, b.n))


def exact_spectrum(b: BlockString) -> ExactSpectrum:
    """Exact Seidel spectrum of the chain graph of b.

    Computed as the quotient spectrum plus the eigenvalue -1 with
    multiplicity n - 2k, assembled once: the quotient's counts
    (_quotient_counts) always hold the eigenvalue -1, since Q + I = Sigma D
    is singular, and the n - 2k copies are added to its multiplicity there,
    before the one sort and merge (spectrum_from_counts).  The spectrum is
    then validated.  The cap is checked before any work, n included.
    """
    check_quotient_order(b.k)
    n = b.n
    counts = _quotient_counts(b, n)
    for i, (v, m) in enumerate(counts):
        if isinstance(v, int) and v == -1:
            counts[i] = (-1, m + n - 2 * b.k)
            break
    else:
        raise ArithmeticError("quotient spectrum lacks the eigenvalue -1")
    sp = spectrum_from_counts(counts)
    sp.validate()
    return sp


def has_spectrum(b: BlockString, counts) -> bool:
    """Whether the chain graph of b has the integer Seidel spectrum counts,
    given as (value, multiplicity) pairs like ExactSpectrum.entries.

    The Seidel spectrum is the quotient's with -1 added n - 2k times (see
    exact_spectrum), so this holds exactly when the quotient's characteristic
    polynomial, computed from the cell sizes by intpoly.char_poly_y in
    y = x + 1, is the product of (y - (v + 1))^mult over counts with those
    n - 2k copies of -1 taken out: when dividing it by each of these factors
    in turn leaves no remainder and ends at 1.  No root is located and no
    Taylor shift is taken: the cost is O(k^2) integer operations.  A value
    that is not an int gives False, as does a claim of more than n values
    (at its first value past the 2k of the quotient).  The quotient cap is
    checked first.
    """
    check_quotient_order(b.k)
    sizes = [size for block in b.blocks for size in block]
    rest = sum(sizes) - len(sizes)  # copies of -1 outside the quotient
    p = intpoly.char_poly_y(sizes)
    for v, mult in counts:
        if not isinstance(v, int) or mult < 0:
            return False
        if v == -1:
            take = min(mult, rest)
            mult, rest = mult - take, rest - take
        for _ in range(mult):
            p, remainder = intpoly.synthetic_div(p, v + 1)
            if remainder:
                return False
    return not rest and p == (1,)


def numeric_spectrum(s: SeidelMatrix) -> list[float]:
    """Floating-point eigenvalues, ascending; the independent numeric oracle."""
    check_matrix_size(s.n)
    try:
        vals = np.linalg.eigvalsh(s.entries.astype(float))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ValueError(f"eigensolver did not converge: {exc}") from exc
    return vals.tolist()


def is_integral(sp: ExactSpectrum) -> bool:
    """True iff every eigenvalue is an integer."""
    return sp.is_integral()


# ---------------------------------------------------------------------------
# Equiangular line parameters
# ---------------------------------------------------------------------------

@record
class EquiangularParams:
    """Line system parameters read off a Seidel spectrum.

    n lines in dimension n - mult(lambda_min), pairwise angle
    arccos(1/|lambda_min|).
    """

    lines: int
    dimension: int
    cosine: Union[Fraction, Surd, RootInterval]
    lambda_min: Eigenvalue
    multiplicity: int


def _negated_reciprocal(u: RootInterval) -> float:
    """-1/u as a float, from the midpoint of u's cell in one correctly rounded
    division; u's cell lies on one side of 0, so its midpoint is not 0."""
    return -(2 << u.shift) / (u.lo + u.hi)


def _reciprocal_abs(v: Eigenvalue, sp: ExactSpectrum) -> Union[Fraction, Surd, RootInterval]:
    """1/|v| for a negative eigenvalue v < -1 of the spectrum sp.

    A root interval maps to the reversal rev(y) = y^d p(-1/y) of its factor
    p: x -> -1/x takes the roots of p one to one onto those of rev, and
    v's cell (lo, hi) / 2^shift, below -1, onto (2^shift / -lo, 2^shift / -hi),
    which therefore holds exactly one root of rev, 1/|v|.  rev is isolated
    on [-B, B], B the least power of two at or above its root bound, with
    the float guess -1/u of each root u of p that sp lists.  An exact
    spectrum lists every root of p, all real, so the degree-many cells the
    guesses place certify rev with no Sturm chain; the chain is built only
    where placement falls short.  A root inside (-1, 1) is refined to
    2 * INTERVAL_BITS first, since -1/u of its 2^-INTERVAL_BITS cell can be
    several cells off.  B is a power of two, so the window's final grid is
    the 2^-INTERVAL_BITS dyadic grid of [-1, 1], and each cell is the one a
    narrower window would give.  The isolating cell whose part inside v's
    image shows a sign change of rev holds 1/|v|; no other cell can, since
    the image holds no other root.  That cell is refined to the final grid.
    """
    if isinstance(v, int):
        return Fraction(1, -v)
    if isinstance(v, Surd):
        return v.negate().reciprocal()
    d = len(v.poly) - 1
    rev = intpoly.primitive(tuple(v.poly[d - i] * (-1) ** (d - i) for i in range(d + 1)))
    # Computed cells are at most 2^-INTERVAL_BITS wide, so hi < 0 below -1.
    v = v.refined(INTERVAL_BITS)
    guesses = [_negated_reciprocal(u if abs(u.lo + u.hi) > 2 << u.shift else u.refined(2 * INTERVAL_BITS))
               for u, _m in sp.entries if isinstance(u, RootInterval) and u.poly == v.poly]
    bound = 1 << (intpoly.root_bound(rev) - 1).bit_length()
    # The image's ends a < b as (numerator, denominator), and the signs of rev there.
    (a_num, a_den), (b_num, b_den) = (1 << v.shift, -v.lo), (1 << v.shift, -v.hi)
    s_a, s_b = intpoly.sign_at(rev, a_num, a_den), intpoly.sign_at(rev, b_num, b_den)
    for lo, hi, shift, s_lo, s_hi in intpoly.isolate_real_roots(rev, bound, guesses):
        # x / 2^shift against num / den is x * den against num * 2^shift.
        if lo * b_den < b_num << shift and a_num << shift < hi * a_den:  # the cell meets the image
            left = s_lo if lo * a_den >= a_num << shift else s_a
            right = s_hi if hi * b_den <= b_num << shift else s_b
            if left != right:
                cell = (lo, hi, shift, s_lo, s_hi)
                return RootInterval(rev, *intpoly.refine_root(rev, cell, INTERVAL_BITS))
    raise ArithmeticError("failed to isolate the reciprocal eigenvalue")


def equiangular_params(sp: ExactSpectrum) -> EquiangularParams:
    """Equiangular-line parameters of a Seidel spectrum.

    Requires lambda_min < -1; a spectrum whose least eigenvalue is -1 (or
    larger) carries no nontrivial line system and is reported as degenerate.
    """
    lam = sp.min_value
    mult = sp.entries[0][1]
    if value_cmp(lam, -1) >= 0:
        raise ValueError("degenerate spectrum: smallest eigenvalue is not below -1")
    n = sp.n
    return EquiangularParams(
        lines=n,
        dimension=n - mult,
        cosine=_reciprocal_abs(lam, sp),
        lambda_min=lam,
        multiplicity=mult,
    )
