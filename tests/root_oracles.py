"""Reference versions of the exact spectrum path, kept as test oracles.

The library isolates, refines, compares, validates and renders on integers,
and holds a root cell as integers (lo, hi, shift) for the interval
(lo / 2^shift, hi / 2^shift).  These are the plain Fraction forms of the same
algorithms: isolation that counts the Sturm variations at both ends of every
interval afresh, refinement on a Fraction grid, Fraction bounds of surds and
root cells for exact comparison, trace/Frobenius sums over Fractions, and the
decimal rendering of a Fraction.  Signs come from Fraction evaluation with
intpoly.poly_eval, not from intpoly.sign_at.  cell_fractions and
root_interval convert between the two forms of a cell.

The library multiplies no polynomials; poly_add and poly_mul build the
test polynomials.

The library pseudo-divides with no gcd, scaling the remainder by |lc(b)| at
every step; pseudo_divmod is the earlier form, which scales it by
lc(b) / gcd(lc(r), lc(b)) and takes a gcd at every step, and sturm_chain is
the chain built on it, with contents taken one gcd at a time.

The library computes a quotient's characteristic polynomial from its cell
sizes alone, by principal minors; continuant_char_poly derives it from the
same sizes by the matrix determinant lemma and continuant recurrences, and
faddeev_leverrier works on any square integer matrix.  And surd_fields is the canonical surd form built by trial division of the
radicand up to 10^5.

The library lists the Seidel-integral unit chains from the triples (g, a, b)
and certifies each by one characteristic-polynomial identity;
brute_scan_seidel_integral is the O(n_max^2) perfect-square scan that checks
every hit's exact spectrum, and tags it by bisecting each family's m(r).

The library reads the spectra of unit and mirror chains off the closed form
of a four-cell class with two equal arcs; unit_chain_oracle and
mirror_chain_oracle are the paper's formulas for them, with surds in the
canonical form of surd_fields, compared by spectrum_fields.

The library finds the equiangular cosine 1/|lambda| of a root interval on its
factor's reversal, isolated from float guesses and picked by one sign change;
reciprocal_abs re-isolates it with no guesses, from Fraction bounds of the
image cell and a Sturm count in every isolating cell.

The library's canonical search splits a cell that is one twin class into
singletons without branching, and its refinement tries each cell as a
splitter once while it remains a cell; canonical_search is the plain form,
which tries every cell as a splitter on every pass and branches on every
non-singleton cell, one branch per twin class in it.  The library keeps each
cell's vertex mask next to the cell; refine_rebuilding_masks is the earlier
refinement, which rebuilds the masks on every pass.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from seidelchain import intpoly
from seidelchain.families import (
    SPORADIC_PAIRS,
    ScanHit,
    integral_family_params,
    is_perfect_square,
    unit_chain_string,
)
from seidelchain.graphs import Graph
from seidelchain.spectra import INTERVAL_BITS, RootInterval, Surd, exact_spectrum
from seidelchain.switching import _are_twins


def cell_fractions(cell) -> tuple[Fraction, Fraction, int, int]:
    """(lo, hi, sign_lo, sign_hi) of an integer cell (lo, hi, shift, sign_lo, sign_hi)."""
    lo, hi, shift, s_lo, s_hi = cell
    return Fraction(lo, 1 << shift), Fraction(hi, 1 << shift), s_lo, s_hi


def interval_fractions(v: RootInterval) -> tuple[Fraction, Fraction]:
    """The ends of a root interval's cell as Fractions."""
    return Fraction(v.lo, 1 << v.shift), Fraction(v.hi, 1 << v.shift)


def root_interval(poly, lo: Fraction, hi: Fraction, s_lo: int, s_hi: int) -> RootInterval:
    """The RootInterval of a cell with dyadic Fraction ends, over their common denominator."""
    den = max(lo.denominator, hi.denominator)
    return RootInterval(poly, int(lo * den), int(hi * den), den.bit_length() - 1, s_lo, s_hi)


def decimal_string(fr: Fraction) -> str:
    """Exact decimal rendering of a rational with denominator 2^a * 5^b."""
    num, den = fr.numerator, fr.denominator
    a = b = 0
    while den % 2 == 0:
        den //= 2
        a += 1
    while den % 5 == 0:
        den //= 5
        b += 1
    if den != 1:
        raise ValueError("denominator is not of the form 2^a * 5^b")
    digits = max(a, b)
    scaled = num * 10 ** digits // fr.denominator
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return intpoly.poly_trim(out)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return intpoly.poly_trim(out)


def fraction_sign(p, x: Fraction) -> int:
    val = intpoly.poly_eval(p, Fraction(x))
    return (val > 0) - (val < 0)


def content(p) -> int:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
    return g


def primitive(p):
    """Divide out the content and normalize the leading coefficient positive."""
    p = intpoly.poly_trim(p)
    if not p:
        return p
    g = content(p)
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)


def pseudo_divmod(a, b):
    """(q, r) with c*a = q*b + r and deg r < deg b, for some integer c > 0.

    Each step scales the running remainder by lc(b) / gcd(lc(r), lc(b)),
    made positive, so r is a positive multiple of the rational remainder
    and keeps its sign pattern.
    """
    r, b = list(intpoly.poly_trim(a)), intpoly.poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lb = b[-1]
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        g = gcd(r[-1], lb)
        scale, coef = lb // g, r[-1] // g
        if scale < 0:
            scale, coef = -scale, -coef
        if scale != 1:
            r = [scale * c for c in r]
            q = [scale * c for c in q]
        shift = len(r) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            r[shift + i] -= coef * c
        r = list(intpoly.poly_trim(r))
    return tuple(q), tuple(r)


def sturm_chain(p):
    """The Sturm chain of p on pseudo_divmod: primitive members, each
    remainder divided by its positive content only."""
    chain = [primitive(p)]
    dp = primitive(intpoly.poly_derivative(p))
    if dp:
        chain.append(dp)
    while intpoly.poly_degree(chain[-1]) > 0:
        _, r = pseudo_divmod(chain[-2], chain[-1])
        if not r:
            break
        g = content(r)
        chain.append(tuple(-c // g for c in r))
    return chain


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (fraction_sign(q, x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(p, bound: int | None = None) -> list[tuple[Fraction, Fraction]]:
    """Sturm bisection of [-bound, bound]; each interval's ends are counted afresh."""
    p = intpoly.primitive(p)
    if intpoly.poly_degree(p) < 1:
        return []
    b = Fraction(bound if bound is not None else intpoly.root_bound(p))
    chain = intpoly.sturm_chain(p)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        cnt = _variations(chain, lo) - _variations(chain, hi)
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if fraction_sign(p, mid) == 0:
            raise ValueError("rational root encountered during isolation")
        stack.append((lo, mid))
        stack.append((mid, hi))
    out.sort()
    return out


def refine_root(p, lo: Fraction, hi: Fraction,
                width: Fraction = Fraction(1, 2 ** 40)) -> tuple[Fraction, Fraction, int, int]:
    """Bisection on the Fraction grid lo + j * (hi - lo) / 2^m, m the least
    depth at which a grid cell is no wider than width."""
    s_lo, s_hi = fraction_sign(p, lo), fraction_sign(p, hi)
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("interval endpoints do not certify a sign change")
    ratio = (hi - lo) / width
    steps = -(-ratio.numerator // ratio.denominator)
    if steps <= 1:
        return lo, hi, s_lo, s_hi
    cells = 1 << (steps - 1).bit_length()
    step = (hi - lo) / cells
    a, b = 0, cells
    while b - a > 1:
        mid = (a + b) // 2
        s = fraction_sign(p, lo + mid * step)
        if s == 0:
            raise ValueError("rational root encountered during refinement")
        if s != s_lo:
            b = mid
        else:
            a = mid
    return lo + a * step, lo + b * step, s_lo, s_hi


def surd_bounds(v: Surd, bits: int) -> tuple[Fraction, Fraction]:
    """Fraction bounds of a surd of width 2^-bits / c, from isqrt(d * 4^bits)."""
    r = isqrt(v.d << (2 * bits))
    lo_s = Fraction(r, 1 << bits)
    hi_s = Fraction(r + 1, 1 << bits)
    if v.sign > 0:
        return (v.a + lo_s) / v.c, (v.a + hi_s) / v.c
    return (v.a - hi_s) / v.c, (v.a - lo_s) / v.c


def value_bounds(v, bits: int) -> tuple[Fraction, Fraction]:
    """Fraction bounds of an eigenvalue; a root cell is refined to width 2^-bits first."""
    if isinstance(v, int):
        return Fraction(v), Fraction(v)
    if isinstance(v, Surd):
        return surd_bounds(v, bits)
    lo, hi, _s_lo, _s_hi = refine_root(v.poly, *interval_fractions(v), Fraction(1, 1 << bits))
    return lo, hi


def fraction_value_cmp(u, v) -> int:
    """The order of two eigenvalues from Fraction bounds at 2^-40 ... 2^-640."""
    if u == v:
        return 0
    for bits in (40, 80, 160, 320, 640):
        ulo, uhi = value_bounds(u, bits)
        vlo, vhi = value_bounds(v, bits)
        if uhi < vlo:
            return -1
        if vhi < ulo:
            return 1
    raise ArithmeticError("could not separate two distinct eigenvalues")


def _power_bounds(lo: Fraction, hi: Fraction, power: int) -> tuple[Fraction, Fraction]:
    if power == 1:
        return lo, hi
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Fraction(0), max(lo * lo, hi * hi)


def assert_integer_sum(entries, power: int, target: int) -> None:
    """Exact sums for ints and surds; Fraction enclosures once a root interval is present."""
    rational = Fraction(0)
    radicals: dict[Fraction, Fraction] = {}
    lo_sum = hi_sum = Fraction(0)
    has_interval = False
    for v, m in entries:
        if isinstance(v, int):
            val = Fraction(v ** power)
            rational += m * val
            lo_sum += m * val
            hi_sum += m * val
        elif isinstance(v, Surd):
            if power == 1:
                rat, rad = Fraction(v.a, v.c), Fraction(v.sign, v.c)
            else:
                rat = Fraction(v.a * v.a + v.d, v.c * v.c)
                rad = Fraction(2 * v.a * v.sign, v.c * v.c)
            key = Fraction(v.d)
            radicals[key] = radicals.get(key, Fraction(0)) + m * rad
            rational += m * rat
            plo, phi = _power_bounds(*surd_bounds(v, 80), power)
            lo_sum += m * plo
            hi_sum += m * phi
        else:
            assert isinstance(v, RootInterval)
            has_interval = True
            plo, phi = _power_bounds(*interval_fractions(v), power)
            lo_sum += m * plo
            hi_sum += m * phi
    if not has_interval:
        if rational != target or any(coef != 0 for coef in radicals.values()):
            raise ValueError(f"spectrum identity failed: power {power} sum != {target}")
    elif not (lo_sum <= target <= hi_sum) or hi_sum - lo_sum >= 1:
        raise ValueError(f"spectrum identity failed: power {power} enclosure misses {target}")


def validate(entries) -> None:
    """ExactSpectrum.validate over Fractions."""
    n = sum(m for _v, m in entries)
    if n <= 0:
        raise ValueError("empty spectrum")
    assert_integer_sum(entries, power=1, target=0)
    assert_integer_sum(entries, power=2, target=n * (n - 1))


def faddeev_leverrier(matrix) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - M) of a square integer matrix.

    Faddeev-LeVerrier trace recursion; every division is exact over the
    integers.  The running matrix M_k is kept as a list of columns, so each
    entry of A M_k is one dot product of a row of A with a column of M_k.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return (1,)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    coeffs_desc = [1]
    for k in range(1, n + 1):
        cols = [[sum(map(mul, row, col)) for row in a] for col in cols]
        tr = sum(cols[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace not divisible")
        ck = -(tr // k)
        coeffs_desc.append(ck)
        for i in range(n):
            cols[i][i] += ck
    return tuple(reversed(coeffs_desc))


def _continuant_border(sizes) -> tuple[list[int], list[int]]:
    """(det T, sum_p d_p * adj(T)[p][0]) as lists of len(sizes) + 1 and
    len(sizes) coefficients in y (the top one of det T may be zero).

    T is the symmetric tridiagonal matrix with diagonal 2 * sizes and
    off-diagonal entries +-y.  From the last cell back, the continuant of
    the cells from p on is 2 d_p * (the one from p + 1) - y^2 * (the one
    from p + 2).  The cofactor is (-1)^p, times the product of
    T[i][i+1] = (-1)^i y over i < p, times the continuant of the cells after
    p: adj(T)[p][0] = (-1)^(p(p+1)/2) y^p (continuant from p + 1).  The sum
    over p runs by Horner's rule in y in the same pass.
    """
    prev, cur, border = [], [1], []
    for p in range(len(sizes) - 1, -1, -1):
        d = sizes[p]
        coef, twice = (-d if p % 4 in (1, 2) else d), 2 * d
        border = [coef * c + a for c, a in zip(cur, [0] + border)]
        prev, cur = cur, [twice * c - e for c, e in zip(cur + [0], [0, 0] + prev)]
    return cur, border


def continuant_char_poly(sizes) -> tuple[int, ...]:
    """Monic characteristic polynomial of the chain quotient with these
    interleaved cell sizes, by the matrix determinant lemma.

    With A the 0/1 adjacency of the 2k cells, Sigma = J - 2A their signs and
    D = diag(sizes), the quotient is Q = Sigma D - I.  In interleaved order
    A^-1 is tridiagonal with zero diagonal and off-diagonal entries
    (-1)^i, A^-1 1 = e_0 + e_{2k-1} and det A = (-1)^k.  So with y = x + 1,

        chi_Q(x) = det(y I - Sigma D) = det(A) det(T - (e_0 + e_{2k-1}) d^T)
                 = (-1)^k [det T - d^T adj(T) e_0 - d^T adj(T) e_{2k-1}],

    T = y A^-1 + 2D.  det T and both adjugate columns come from the
    three-term continuant recurrences of T, the last column as the first
    column of the reversed cells, and a Taylor shift returns to x.
    """
    sizes = tuple(sizes)
    det_t, first = _continuant_border(sizes)
    last = _continuant_border(sizes[::-1])[1]
    det_a = -1 if len(sizes) % 4 else 1
    # det T has degree 2k in y with leading coefficient det A; the borders 2k - 1.
    y_poly = [det_a * (t - a - b) for t, a, b in zip(det_t, first + [0], last + [0])]
    return intpoly.poly_shift(y_poly, 1)


def _extract_square_part(d: int) -> tuple[int, int]:
    """Write d = f^2 * d' with d' free of square factors below the trial bound 10^5."""
    f = 1
    i = 2
    while i * i <= d and i <= 100_000:
        while d % (i * i) == 0:
            d //= i * i
            f *= i
        i += 1
    return f, d


def surd_fields(a: int, sign: int, d: int, c: int) -> tuple[int, int, int, int]:
    """Canonical (a, sign, d, c) of (a + sign*sqrt(d)) / c: c > 0 and, with
    d = f^2 d', gcd(a, f, c) = 1."""
    if c < 0:
        a, sign, c = -a, -sign, -c
    f, rest = _extract_square_part(d)
    g = gcd(a, f, c)
    return a // g, sign, (f // g) ** 2 * rest, c // g


def reciprocal_abs(v):
    """1/|v| for a negative eigenvalue v < -1, with no guesses: a Fraction for an
    int, a surd for a surd, and for a root interval the root of the reversed
    factor y^d p(-1/y) in the image (-1/lo, -1/hi) of v's cell, found by Sturm
    counts over Fraction bounds."""
    if isinstance(v, int):
        return Fraction(1, -v)
    if isinstance(v, Surd):
        return v.negate().reciprocal()
    d = len(v.poly) - 1
    rev = intpoly.primitive(tuple(v.poly[d - i] * (-1) ** (d - i) for i in range(d + 1)))
    y_lo, y_hi = Fraction(-1 << v.shift, v.lo), Fraction(-1 << v.shift, v.hi)
    chain = intpoly.sturm_chain(rev)
    for cell in intpoly.isolate_real_roots(rev, bound=1, chain=chain):
        lo, hi, shift = cell[:3]
        a, b = max(Fraction(lo, 1 << shift), y_lo), min(Fraction(hi, 1 << shift), y_hi)
        if a < b and intpoly.count_roots_between(chain, a, b) == 1:
            return RootInterval(rev, *intpoly.refine_root(rev, cell, INTERVAL_BITS))
    raise ArithmeticError("failed to isolate the reciprocal eigenvalue")


FAMILY_R_MIN = {"F1": 2, "F2": 2, "F3": 2, "F4": 1, "F5": 3, "F6": 1}


def classify_by_bisection(n: int, m: int) -> tuple[str, ...]:
    """Family ids generating (n, m): m(r) rises strictly in every family and
    m(r) >= r, so a bisection over r_min .. max(m, r_min) finds the one
    candidate r of each family."""
    tags = []
    for family_id, r_min in FAMILY_R_MIN.items():
        rs = range(r_min, max(m, r_min) + 1)
        i = bisect.bisect_left(rs, m, key=lambda r: integral_family_params(family_id, r)[1])
        if i < len(rs) and integral_family_params(family_id, rs[i]) == (n, m):
            tags.append(family_id)
    if (n, m) in SPORADIC_PAIRS:
        tags.append("S")
    return tuple(tags)


def _add(counts: dict, value, mult: int) -> dict:
    counts[value] = counts.get(value, 0) + mult
    return counts


def unit_chain_oracle(n: int, m: int) -> dict:
    """{value: multiplicity} of the Seidel spectrum of 0 1^m 0^m 1^(n-2m-1) by
    the paper's formula: -1^(n-3), 2m - 1 and -(m+1) + (n +- sqrt(D))/2 with
    D = (n-2m)(n+6m).  An int stands for itself, a surd for its canonical
    fields ("surd", a, sign, d, c)."""
    counts = _add({-1: n - 3}, 2 * m - 1, 1)
    d = (n - 2 * m) * (n + 6 * m)
    root = isqrt(d)
    for sign in (1, -1):
        if root * root == d:
            _add(counts, -(m + 1) + (n + sign * root) // 2, 1)
        else:
            _add(counts, ("surd", *surd_fields(n - 2 * m - 2, sign, d, 2)), 1)
    return counts


def mirror_chain_oracle(s: int) -> dict:
    """{value: multiplicity} of the Seidel spectrum of 0^s 1^2s 0^2s 1^s by the
    paper's formula: -1^(6s-3), -(2s+1), (4s-1)^2."""
    return {-1: 6 * s - 3, -(2 * s + 1): 1, 4 * s - 1: 2}


def spectrum_fields(sp) -> dict:
    """An ExactSpectrum of ints and surds as {value: multiplicity}, in the
    form of unit_chain_oracle."""
    return {v if isinstance(v, int) else ("surd", v.a, v.sign, v.d, v.c): mult for v, mult in sp.entries}


def brute_scan_seidel_integral(n_max: int) -> list[ScanHit]:
    """Every (n, m) with 2m+1 < n <= n_max and (n-2m)(n+6m) a perfect square,
    ascending, each verified by the exact spectrum of its unit chain."""
    hits = []
    for n in range(4, n_max + 1):
        for m in range(1, (n - 2) // 2 + 1):
            if not is_perfect_square((n - 2 * m) * (n + 6 * m)):
                continue
            sp = exact_spectrum(unit_chain_string(m, n - 2 * m - 1))
            hits.append(ScanHit(n, m, classify_by_bisection(n, m), sp.is_integral()))
    return hits


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


def refine_rebuilding_masks(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """The refinement the library had before it kept its cell masks: each
    pass rebuilds the mask of every splitter it looks at, bit by bit, and a
    fresh cell list, and skips the splitters already tried."""
    stable: set[int] = set()
    while True:
        changed = False
        for t in range(len(cells)):
            mask = 0
            for v in cells[t]:
                mask |= 1 << v
            if mask in stable:
                continue
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
            # Every cell now has one count into this one.
            stable.add(mask)
            if changed:
                cells = new_cells
                break
        if not changed:
            return cells


def canonical_search(g: Graph) -> tuple[int, list[int]]:
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
