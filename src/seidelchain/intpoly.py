"""Exact arithmetic for integer polynomials, and chain quotient charpolys.

Polynomials are tuples of Python ints in ascending power order, so (c0, c1,
c2) is c0 + c1*x + c2*x^2.  Everything here is exact: no floats, no rounding.
Gcds, exact quotients, Musser square-free decomposition and Sturm chains all
rest on one integer pseudo-division, which scales the remainder by |lc(b)|
at every step and takes no gcd; each caller divides out a content once.
primitive takes it by one gcd over all coefficients.  A Sturm chain's
remainders carry contents of most of their bits, so it takes the gcd of
the lead and the constant term and divides every coefficient by it with
its remainder, refining the gcd by any nonzero remainder
(_negated_primitive).  A remainder step whose degree drops by one,
as in nearly every step of a Sturm chain, is one pass over the coefficients
with no quotient kept (_pseudo_rem).  One Sturm chain serves a polynomial
twice: its last member is the gcd that Musser's decomposition starts from,
and it counts the distinct real roots that isolation must find.  That count
is over the whole line, so by Sturm's theorem it is read off the members'
leading coefficients and degrees, with no member evaluated; the chain is
evaluated, at the ends of a window and at bisection points, only when the
guessed cells fall short of it.  A polynomial isolated with no chain of
its own is certified by its degree first: degree-many guessed cells with
a sign change hold all of its roots, one each, and its chain is built
only when they fall short.  Sign evaluation, root isolation and
refinement run on integer grids too; at a dyadic point num / 2^m the sign
is taken by Horner's rule with the coefficients shifted, not multiplied by
powers of the denominator.  A grid search (guess placement, refinement)
shifts them once, scaling p to the integers of 2^(m deg p) p(x / 2^m)
(scaled_to_grid), and then works at integer grid points: refinement takes
the sign at one point at a time, and guess placement the values at both
ends of a cell (its secant steps read them) in one Horner pass with two
accumulators (poly_eval_pair); refinement's exact Newton steps
x -= G(x) // G'(x) run on the same integers (_newton).  A root cell is
the 5-tuple (lo, hi, shift, sign_lo, sign_hi): the open interval
(lo / 2^shift, hi / 2^shift) with the signs of the polynomial at its ends,
all integers, from isolation through refinement to the caller.
The root machinery (integer-root stripping, square-free decomposition, Sturm
isolation, sign-certified refinement) assumes monic inputs whose remaining
roots are all real, which holds for characteristic polynomials of symmetric
integer matrices.  Float guesses may steer integer-root stripping, which
tries the rounding of every finite guess it is given (spectra gives it
only the guesses within n 2^-40 of an integer), and locate the isolating
cells, but every root they lead to is certified exactly: a cell by the
signs at its ends, and the set of cells by the degree or the Sturm count,
with Sturm bisection as the fallback when they disagree.  Non-finite
guesses are skipped.  The cells the guesses locate are those of the final 2^-40 grid, which refinement
returns as they are: from a root bound of 128 on, where a guess's error can
exceed a quarter cell, a guess tries its own cell first, then takes secant
steps through the values at cell ends.
Refinement of a wider cell takes Newton steps from its midpoint before it
bisects.
Isolation and refinement expect no rational roots; one that a grid point
hits exactly is raised as a RationalRootError carrying that point, so the
caller can divide it out.
The characteristic polynomial of a chain graph's cell quotient is read off
its cell sizes by principal minors over Z[y], with y = x + 1: only the sets
of cells alternating in parity contribute, each by a signed power of 4
(char_poly_y); char_poly_ints shifts it back to x.  For four cells it is y
times the cubic y^3 - n y^2 + 4pqr (four_cell_cubic).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from math import floor, gcd, isfinite, ldexp

IntPoly = tuple[int, ...]
# (lo, hi, shift, sign at lo, sign at hi) for the interval (lo / 2^shift, hi / 2^shift).
Cell = tuple[int, int, int, int, int]
# Root cells are refined onto the final grid: the first depth of their
# bisection tree no wider than 2^-GRID_BITS (spectra.INTERVAL_BITS).
GRID_BITS = 40


class RationalRootError(ValueError):
    """p is zero at the dyadic point num / den that isolation or refinement
    evaluated, so p has a rational root there."""

    def __init__(self, stage: str, num: int, den: int) -> None:
        super().__init__(f"rational root encountered during {stage}")
        self.num, self.den = num, den


def poly_trim(p) -> IntPoly:
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_derivative(p: IntPoly) -> IntPoly:
    return poly_trim(tuple(i * c for i, c in enumerate(p)))[1:] if len(p) > 1 else ()


def poly_eval(p: IntPoly, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_pair(p: IntPoly, a, b) -> tuple:
    """(p(a), p(b)) in one Horner pass over p, with two accumulators."""
    u = v = 0
    for c in reversed(p):
        u = u * a + c
        v = v * b + c
    return u, v


def poly_degree(p: IntPoly) -> int:
    return len(p) - 1


def sign_at(p: IntPoly, x, den: int = 1) -> int:
    """Sign of p(x / den) at a rational point, computed with integer arithmetic.

    x is an int and den a positive int, or den is 1 and x any rational with
    integer numerator and denominator attributes.  Horner's rule gives
    den^deg(p) * p(x / den), the coefficient of x^j times den^(deg(p) - j);
    for den = 2^m that factor is a shift by m * (deg(p) - j).  At an integer
    point it is one plain Horner pass: the branch that a grid search takes
    with its polynomial scaled to the grid once (scaled_to_grid), so that
    sign_at(scaled_to_grid(p, m), x) is the sign of p(x / 2^m).
    """
    if den == 1:
        x, den = x.numerator, x.denominator
    acc = 0
    if den == 1:
        for c in reversed(p):
            acc = acc * x + c
    elif den & (den - 1) == 0:  # den = 2^m: scale the coefficients by shifts
        m = den.bit_length() - 1
        shift = 0
        for c in reversed(p):
            acc = acc * x + (c << shift)
            shift += m
    else:
        den_pow = 1
        for c in reversed(p):
            acc = acc * x + c * den_pow
            den_pow *= den
    return (acc > 0) - (acc < 0)


def scaled_to_grid(p: IntPoly, m: int) -> IntPoly:
    """The integer coefficients of 2^(m * deg(p)) * p(x / 2^m): p read on
    the grid of step 2^-m, the coefficient of x^j shifted by m * (deg(p) - j)."""
    d = len(p) - 1
    return tuple([c << m * (d - j) for j, c in enumerate(p)])


def synthetic_div(p: IntPoly, r: int) -> tuple[IntPoly, int]:
    """Divide p by (x - r): returns (quotient, remainder = p(r))."""
    acc = 0
    out = []
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return tuple(out), rem


def content(p: IntPoly) -> int:
    return gcd(*p)


def primitive(p: IntPoly) -> IntPoly:
    """Divide out the content and normalize the leading coefficient positive."""
    p = poly_trim(p)
    if not p:
        return p
    g = content(p)
    if p[-1] < 0:
        g = -g
    elif g == 1:
        return p
    return tuple(c // g for c in p)


def _iroot_ceil(a: int, i: int) -> int:
    """Least integer r >= 0 with r**i >= a, for an integer a >= 0."""
    if a <= 1:
        return a
    r = 1 << -(-a.bit_length() // i)  # r**i > a
    while True:  # integer Newton from above converges to the floor root
        s = ((i - 1) * r + a // r ** (i - 1)) // i
        if s >= r:
            break
        r = s
    return r if r ** i >= a else r + 1


def root_bound(p: IntPoly) -> int:
    """Integer B with every complex root of p strictly inside |z| < B (p nonconstant).

    Fujiwara's bound 2 * max |c_{d-i} / c_d|^(1/i), each term rounded up with
    exact integer i-th roots.
    """
    d = len(p) - 1
    lead = abs(p[-1])
    top = max(_iroot_ceil(-(-abs(p[d - i]) // lead), i) for i in range(1, d + 1))
    return max(2 * top, 1)


def integer_roots(p: IntPoly, bound: int | None = None,
                  guesses: list[float] | None = None) -> tuple[dict[int, int], IntPoly]:
    """Strip integer roots of a monic integer polynomial.

    0 is stripped first and -1 is always tried next.  Without guesses the
    other candidates are every integer in [-bound, bound] (bound defaults to
    root_bound), so all integer roots are found.  With float guesses they are
    only the distinct roundings of the finite guesses inside [-bound, bound],
    and completeness is up to the caller to certify.  Every candidate
    dividing the running constant term is tried by exact synthetic division.
    Returns ({root: multiplicity}, residual factor).
    """
    p = poly_trim(p)
    if not p or p[-1] != 1:
        raise ValueError("integer_roots expects a monic polynomial")
    roots: dict[int, int] = {}
    while len(p) > 1 and p[0] == 0:
        roots[0] = roots.get(0, 0) + 1
        p = p[1:]
    if len(p) == 1:
        return roots, p
    b = bound if bound is not None else root_bound(p)
    if guesses is None:
        rest = (d for d in range(-b, b + 1) if d not in (0, -1))
    else:
        rounded = {round(g) for g in guesses if isfinite(g)} - {0, -1}
        rest = sorted(d for d in rounded if -b <= d <= b)
    for d in itertools.chain((-1,), rest):
        if len(p) == 1:
            break
        while len(p) > 1 and p[0] % d == 0:
            q, rem = synthetic_div(p, d)
            if rem != 0:
                break
            roots[d] = roots.get(d, 0) + 1
            p = q
    return roots, p


# ---------------------------------------------------------------------------
# Pseudo-division, gcds, square-free decomposition and Sturm chains
# ---------------------------------------------------------------------------

def _pseudo_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(q, r) with c*a = q*b + r and deg r < deg b, for some integer c > 0.

    Each step scales the running remainder by |lc(b)| and subtracts
    sign(lc(b)) * lead * x^shift * b, lead being its leading coefficient, so
    c = |lc(b)|^steps and r is a positive multiple of the rational remainder
    with its sign pattern.  No gcd is taken: the callers make r or q
    primitive once, and a positive scale leaves a primitive part unchanged.
    """
    r, b = list(poly_trim(a)), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    sign, scale, db = (1 if b[-1] > 0 else -1), abs(b[-1]), len(b) - 1
    low = [sign * c for c in b[:-1]]
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        lead = r.pop()
        shift = len(r) - db
        if scale != 1:
            r = [scale * c for c in r]
            q = [scale * c for c in q]
        q[shift] = sign * lead
        for i, c in enumerate(low, shift):
            r[i] -= lead * c
        while r and not r[-1]:
            r.pop()
    return tuple(q), tuple(r)


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """A positive multiple of the remainder of a by b (both trimmed, b nonzero).

    When deg a = deg b + 1 = n, the rational quotient is q1 x + q0 with
    q1 = a_n / beta and q0 = (a_(n-1) - q1 b_(n-2)) / beta, beta = lc(b), so
    beta^2 (a - (q1 x + q0) b) has the integer coefficients

        beta^2 a_i - beta a_n b_(i-1) - (beta a_(n-1) - a_n b_(n-2)) b_i,

    one pass over the coefficients with no quotient kept.  A larger degree
    drop goes through _pseudo_divmod.
    """
    if len(a) != len(b) + 1 or len(b) < 2:
        return _pseudo_divmod(a, b)[1]
    beta = b[-1]
    beta2, beta_lead = beta * beta, beta * a[-1]
    t = beta * a[-2] - a[-1] * b[-2]
    r = [beta2 * ai - beta_lead * bp - t * bi for ai, bp, bi in zip(a, (0,) + b, b[:-1])]
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(_pseudo_rem(a, b))
    return a


def poly_div_exact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a / b up to primitive scaling; raises on a remainder."""
    q, r = _pseudo_divmod(a, b)
    if r:
        raise ValueError("polynomial division is not exact")
    return primitive(q)


def square_free_decomposition(p: IntPoly, chain: list[IntPoly] | None = None) -> list[tuple[IntPoly, int]]:
    """Musser decomposition: [(f_i, i)] with p ~ prod f_i^i, each f_i square-free.

    Uses only gcds and exact quotients, which ignore integer scaling, so it
    runs over the integers; factors come back as primitive integer
    polynomials with positive leading coefficient, pairwise coprime.
    gcd(p, p') is read off the last member of sturm_chain(p), the remainder
    sequence of p and p' up to sign and positive scale; chain, if it is
    sturm_chain(p), is used instead of building it again.  When that gcd is
    constant, p is square-free and [(primitive(p), 1)] comes back.
    """
    p = primitive(p)
    if poly_degree(p) < 1:
        return []
    if chain is None or chain[0] != p:
        chain = sturm_chain(p)
    a = primitive(chain[-1])
    if poly_degree(a) < 1:
        return [(p, 1)]
    w = poly_div_exact(p, a)
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while poly_degree(w) > 0:
        y = poly_gcd(w, a)
        f = poly_div_exact(w, y)
        if poly_degree(f) > 0:
            out.append((f, i))
        w, a = y, poly_div_exact(a, y)
        i += 1
    return out


def _negated_primitive(r: IntPoly) -> IntPoly:
    """-r divided by the content of r (r nonzero), with the content taken
    from two coefficients and exact division.

    g = gcd(lead, constant) is a multiple of the content c.  Each
    coefficient is divided by g with its remainder; a nonzero remainder m
    is a multiple of c too (c divides g and the coefficient), so
    g = gcd(g, m), still a multiple of c and smaller than before, and the
    division starts over.  When every remainder is 0, g divides every
    coefficient, so g = c and the quotients are those of one gcd over every
    coefficient.
    """
    g = gcd(r[-1], r[0])
    while g > 1:
        out = []
        for c in r:
            q, m = divmod(-c, g)
            if m:
                g = gcd(g, m)
                break
            out.append(q)
        else:
            return tuple(out)
    return tuple([-c for c in r])


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """The Sturm chain of p: primitive(p), primitive(p'), then each
    negated remainder of the two members before it over its positive
    content, up to the last nonzero one, a multiple of gcd(p, p').

    Dividing by the positive content keeps the sign of -r, which is all
    that Sturm's theorem reads, and makes each member the same whatever
    positive multiple of the remainder _pseudo_rem returns.  By the
    subresultant theorem (Brown and Traub, JACM 18, 1971) that multiple is
    about the square of the dividend's leading coefficient, so the content
    is most of each coefficient's bits and is found without a gcd over
    every coefficient (_negated_primitive).
    """
    chain = [primitive(p)]
    dp = primitive(poly_derivative(p))
    if dp:
        chain.append(dp)
    while poly_degree(chain[-1]) > 0:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_negated_primitive(r))
    return chain


# ---------------------------------------------------------------------------
# Sturm isolation and certified bisection
# ---------------------------------------------------------------------------

def _sign_variations(chain: list[IntPoly], x, den: int = 1) -> tuple[int, int]:
    """(Sturm sign variations of chain at x / den, sign of chain[0] there)."""
    signs = [sign_at(q, x, den) for q in chain]
    nonzero = [s for s in signs if s]
    return sum(a != b for a, b in zip(nonzero, nonzero[1:])), signs[0]


def _variations_at_infinity(chain: list[IntPoly], side: int) -> int:
    """Sturm sign variations of chain at +infinity (side 1) or -infinity (side -1).

    There each member has the sign of its leading coefficient, times
    (-1)^degree at -infinity: no member is evaluated.
    """
    positive = [(q[-1] > 0) != (side < 0 and len(q) % 2 == 0) for q in chain]
    return sum(a != b for a, b in zip(positive, positive[1:]))


def count_roots_between(chain: list[IntPoly], lo, hi) -> int:
    """Distinct real roots in (lo, hi], via Sturm sign variations (lo, hi
    rationals, as for sign_at; lo None is -infinity and hi None +infinity)."""
    v_lo = _variations_at_infinity(chain, -1) if lo is None else _sign_variations(chain, lo)[0]
    v_hi = _variations_at_infinity(chain, 1) if hi is None else _sign_variations(chain, hi)[0]
    return v_lo - v_hi


def isolate_real_roots(p: IntPoly, bound: int | None = None, guesses: Iterable[float] = (),
                       chain: list[IntPoly] | None = None) -> list[Cell]:
    """Disjoint open cells, each containing exactly one real root of p.

    Returns a cell (lo, hi, shift, sign of p at lo, sign of p at hi) for each
    root in [-bound, bound], ascending; the endpoint signs differ, and
    refine_root takes the cell as it is.  p must be square-free; a rational
    root that a bisection point hits raises RationalRootError, so the
    (always dyadic) cell ends are never roots themselves.  chain, if it is
    sturm_chain(p), counts the roots; any other chain is not used.

    Every cell is a cell of the bisection tree of [-bound, bound], so every
    cell has span 2 * bound over its power of two and refine_root ends in
    the same cell from either path below.  The float guesses, in any order,
    locate the roots first (_guessed_cells): cells of the tree's final
    grid, the first depth no wider than 2^-GRID_BITS, that show a sign
    change of p at their ends.  Each holds a root, and they are disjoint,
    so when they number the distinct real roots of p they hold all of them,
    one each.  With no chain of p that number is first taken to be the
    degree: degree-many such cells hold every complex root, one each, so p
    is real-rooted and square-free there and no chain is built.  With its
    chain, or when the cells fall short of the degree and the chain is
    built then, it is the Sturm count: the chain's sign variations at
    -infinity less those at +infinity, where each member has the sign of
    its leading coefficient, flipped at -infinity when its degree is odd,
    so no member is evaluated, and the cells already placed are kept.
    Only when the cells fall short of that too, as when some roots lie
    outside the window, is the chain evaluated at -bound and bound, for the
    count of the roots in (-bound, bound]; cells numbering that count are
    the answer too.  Otherwise, or if a sign at a tree point is 0, the tree
    is bisected from the top with a Sturm count at every point
    (_bisected_cells), starting from the counts at -bound and bound.
    """
    p = poly_trim(p)
    if len(p) < 2:
        return []
    flip = 1 if p[-1] > 0 else -1  # primitive() makes the lead positive
    if p[-1] != 1:  # a monic p is primitive already
        p = primitive(p)
    b = bound if bound is not None else root_bound(p)
    own = chain is not None and chain[0] == p
    total = count_roots_between(chain, None, None) if own else poly_degree(p)
    cells = _guessed_cells(p, b, total, guesses)
    if not own and (cells is None or len(cells) < total):
        chain = sturm_chain(p)
        total = count_roots_between(chain, None, None)
    if cells is None or len(cells) < total:
        lo_end, hi_end = _sign_variations(chain, -b), _sign_variations(chain, b)
        if cells is None or len(cells) < lo_end[0] - hi_end[0]:
            cells = _bisected_cells(chain, b, lo_end, hi_end)
    if flip < 0:
        return [(lo, hi, shift, -s_lo, -s_hi) for lo, hi, shift, s_lo, s_hi in cells]
    return cells


def _guessed_cells(p: IntPoly, b: int, total: int, guesses: Iterable[float]) -> list[Cell] | None:
    """The cells of the final grid of the [-b, b] bisection tree, the first
    depth no wider than 2^-GRID_BITS, that the float guesses certify to hold
    a root of p, ascending, and at most total of them; None when p is 0 at a
    tree point that a guess tries.

    A cell whose ends give p two nonzero, opposite signs holds a root, and
    distinct cells of one depth are disjoint.  So once the certified cells
    number a count of the roots in the tree (the degree, or a Sturm count),
    each holds exactly one root and no root is left out; the search stops
    when they number total.  It is one pass over the guesses, and every
    cell tried is read afresh: the values of grid at both of its ends come
    from one Horner pass (poly_eval_pair), and a certified cell keeps the
    end signs read off them.  No value is kept from one cell to the next:
    a neighbour shares an end with the cell tried before it, but that is
    rare enough that keeping values cost more than it saved.  The index of
    a cell is clamped to the tree, and "a cell and its neighbours" tries
    the cell, then the one below, then the one above, and takes the first
    showing a sign change.

    eigvalsh's absolute error scales with ||Q|| <= n - 1 < b, and over 1680
    random quotients (k <= 12, n up to 10^15) a guess was never further than
    12.01 * n * 2^-53 from its root.  Below b = 128 that is under a quarter
    cell, so a guess tries the cell it falls in and its neighbours.  From
    b = 128 on the error can pass a cell, and the guess walks first: it
    tries the cell it falls in, since most guesses lie in their root's cell,
    and while the cell tried shows no sign change, the secant through the
    values at its ends names the next cell to try.  That is a Newton step
    with the slope over one cell, so near a root each step lands in the
    root's cell or next to it, and the two values it needs are the cell's
    certificate too.  The walk stops where the secant has no slope or names
    the cell it came from, or after m.bit_length() steps, about as many as
    Newton steps take to reach any cell of the grid; the neighbours of the
    cell where it stops are tried next.  A guess that certifies no cell is
    left to the Sturm count and bisection of isolate_real_roots.
    """
    m = (2 * b - 1).bit_length() + GRID_BITS
    origin, span, last = -b << m, 2 * b, (1 << m) - 1
    grid, evaluate = scaled_to_grid(p, m), poly_eval_pair
    steps = m.bit_length() if b >= 128 else 0
    found: dict[int, Cell] = {}  # index -> certified cell
    for g in guesses:
        if len(found) == total:
            break
        try:
            x = floor(ldexp(g, m))  # g * 2^m is exact in floats unless it overflows
        except (OverflowError, ValueError):  # an infinity or nan, or g * 2^m past the floats
            if not isfinite(g):
                continue
            g_num, g_den = g.as_integer_ratio()
            x = (g_num << m) // g_den
        i = (x - origin) // span
        if i < 0:
            i = 0
        elif i > last:
            i = last
        left, neighbours = steps, None
        while True:
            lo = origin + i * span
            hi = lo + span
            v_lo, v_hi = evaluate(grid, lo, hi)
            if not v_lo or not v_hi:
                return None
            if (v_lo > 0) != (v_hi > 0):
                found[i] = (lo, hi, m, 1, -1) if v_lo > 0 else (lo, hi, m, -1, 1)
                break
            if neighbours is None:
                rise = v_hi - v_lo
                if left and rise:
                    step_to = min(max(i + -v_lo // rise, 0), last)
                    if step_to != i:
                        i, left = step_to, left - 1
                        continue
                neighbours = [c for c in (i + 1, i - 1) if 0 <= c <= last]
            if not neighbours:
                break
            i = neighbours.pop()
    return sorted(found.values())  # distinct cells of one depth, so by their lower ends


def _newton(grid: IntPoly, slope: IntPoly, x: int, lo: int, hi: int, span: int, steps: int) -> int:
    """The integer point that exact Newton steps x -= G(x) // G'(x) reach
    from x, G = grid and G' = slope, each kept in [lo, hi]: at most steps of
    them, ending after the first of 0 or under a quarter of span, or where
    G' is 0.

    On G = scaled_to_grid(p, m) a step is 2^m p / p' in units of 2^-m, so
    near a simple root each step roughly doubles the bits that x shares with
    it, and about log2 of the grid's depth of them reach any cell.
    """
    for _ in range(steps):
        num, den = poly_eval(grid, x), poly_eval(slope, x)
        if den == 0:
            break
        step = num // den
        x = min(max(x - step, lo), hi)
        if step == 0 or 4 * abs(num) < span * abs(den):
            break
    return x


def _bisected_cells(chain: list[IntPoly], b: int, lo_end: tuple[int, int],
                    hi_end: tuple[int, int]) -> list[Cell]:
    """The isolating cells of the roots of chain[0] in (-b, b], by Sturm bisection.

    lo_end and hi_end are _sign_variations(chain, -b) and (chain, b).  Each
    bisection point gets its Sturm sign variations once, shared by the two
    halves, and the upper half is stacked first, so the cells come out in
    order.
    """
    out: list[Cell] = []
    # (lo, hi, shift, variations at lo and hi, signs of p at lo and hi) for
    # the interval (lo / 2^shift, hi / 2^shift].
    stack = [(-b, b, 0, lo_end[0], hi_end[0], lo_end[1], hi_end[1])]
    while stack:
        lo, hi, shift, v_lo, v_hi, s_lo, s_hi = stack.pop()
        cnt = v_lo - v_hi
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((lo, hi, shift, s_lo, s_hi))
            continue
        mid, shift = lo + hi, shift + 1
        v_mid, s_mid = _sign_variations(chain, mid, 1 << shift)
        if s_mid == 0:
            raise RationalRootError("isolation", mid, 1 << shift)
        stack.append((mid, 2 * hi, shift, v_mid, v_hi, s_mid, s_hi))
        stack.append((2 * lo, mid, shift, v_lo, v_mid, s_lo, s_mid))
    return out


def refine_root(p: IntPoly, cell: Cell, bits: int = GRID_BITS) -> Cell:
    """Shrink a root cell to width at most 2^-bits.

    With (lo, hi, shift) the cell, the result is the cell of the grid
    (lo * 2^m + j * (hi - lo)) / 2^(shift + m) that holds the root, with m
    the least depth at which a cell is no wider than 2^-bits: the cell that
    sign bisection reaches, and the cell itself when it is that narrow.  The
    cell holds exactly one root, so the exact sign at a grid point tells on
    which side of it the root lies.  Exact Newton steps (_newton) from the
    cell's midpoint come first.  The signs at the grid point nearest the
    point they reach, then at its neighbour on the root's side, bracket the
    root's grid cell when the steps converged, and bisection closes the
    rest.  A converging start costs two sign evaluations whatever m is, a
    misled one at most about m more.

    The differing endpoint signs of the cell, as isolate_real_roots returns
    them, are the certificate that a root lies inside; the result carries
    them on.  A grid point that is a root raises RationalRootError.
    """
    lo, hi, shift, s_lo, s_hi = cell
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("interval endpoints do not certify a sign change")
    span = hi - lo
    steps = -(-(span << bits) >> shift)  # the cell width over 2^-bits, rounded up
    if steps <= 1:
        return cell
    m = (steps - 1).bit_length()
    base, shift = lo << m, shift + m
    grid = scaled_to_grid(p, shift)

    a, b = 0, 1 << m  # the root lies between grid points a and b

    def narrow(j: int) -> None:
        """Move a or b to grid point j, by the sign there."""
        nonlocal a, b
        s = sign_at(grid, base + j * span)
        if s == 0:
            raise RationalRootError("refinement", base + j * span, 1 << shift)
        if s == s_lo:
            a = j
        else:
            b = j

    top = base + b * span
    x = _newton(grid, poly_derivative(grid), (base + top) // 2, base, top, span, shift.bit_length())
    j = min(max((x - base + span // 2) // span, 1), b - 1)  # the inner grid point nearest x
    narrow(j)
    j = j - 1 if j == b else j + 1  # and its neighbour on the root's side
    if a < j < b:
        narrow(j)
    while b - a > 1:
        narrow((a + b) // 2)
    return base + a * span, base + b * span, shift, s_lo, s_hi


# ---------------------------------------------------------------------------
# Characteristic polynomial of a chain quotient
# ---------------------------------------------------------------------------

def poly_shift(p: IntPoly, t: int) -> IntPoly:
    """p(x + t), by repeated synthetic division (Ruffini-Horner Taylor shift)."""
    c = list(p)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += t * c[j + 1]
    return tuple(c)


def char_poly_y(cell_sizes) -> IntPoly:
    """Characteristic polynomial of the chain quotient with these interleaved
    cell sizes (0-cell, 1-cell, 0-cell, ...), in y = x + 1.

    With Sigma the cell signs (chain.cell_signs) and D = diag(sizes), the
    quotient is Q = Sigma D - I, so the expansion of a determinant by
    principal minors gives

        chi_Q(x) = det(y I - Sigma D)
                 = sum over S of (-1)^|S| det(Sigma_S) prod_{p in S} d_p y^(2k - |S|),

    S running over the sets of cells and Sigma_S the principal submatrix on
    S.  Rows a < c of Sigma of one parity differ exactly at the cells of the
    other parity strictly between them, by 2 Sigma[a][b] at such a cell b.
    So two chosen cells of one parity with no chosen cell between them give
    Sigma_S two equal rows, and det(Sigma_S) = 0 unless S alternates in
    parity (every gap between consecutive chosen cells is odd).  For an
    alternating S = (p_1 < p_2 < p_3 < ...), row 1 less row 3 of Sigma_S is
    2 sigma e_2 with sigma = Sigma[p_1][p_2]; expanding along it, then along
    column 1 less column 3 of the minor left (2 sigma at row 2 only, since
    Sigma is symmetric), gives det(Sigma_S) = -4 det(Sigma_{S - {p_1, p_2}}).
    With det = 1 for one cell and 0 for two alternating cells, det(Sigma_S)
    is 0 for even |S| >= 2 and (-4)^((j - 1) / 2) for odd |S| = j.  So the
    coefficient of y^(2k - j) is -(-4)^((j - 1) / 2) E_j for odd j and 0 for
    even j >= 2, with E_j the sum of prod d_p over the alternating sets of j
    cells.  One pass over the cells gives every E_j from two accumulators
    keyed by the parity of the last chosen cell: entry j - 1 sums the
    alternating sets of j cells seen so far, and each cell extends the sets
    that end on the other parity: O(k^2) integer operations.

    An odd alternating set begins and ends on one parity, so it never holds
    both cell 0 (size s_1) and cell 2k - 1 (size t_k), and one holding
    either is that cell plus a rest of one kind: empty, or alternating from
    an odd to an even cell within cells 1 to 2k - 2.  So chi_Q depends on
    s_1 + t_k, not on s_1 and t_k apart.
    """
    sizes = tuple(cell_sizes)
    if not sizes or len(sizes) % 2:
        raise ValueError("a chain quotient has an even, positive number of cells")
    # same / other: the sets ending on the parity of the next cell / the other one.
    same, other = [], []
    for d in sizes:
        same, other = other, [a + d * b for a, b in zip(same + [0, 0], [1] + other)]
    desc = [1]  # coefficients of y^2k, y^(2k-1), ...
    for i, (even, odd) in enumerate(zip(same[::2], other[::2])):
        desc += (-(-4) ** i * (even + odd), 0)
    return tuple(desc[::-1])


def four_cell_cubic(p: int, q: int, r: int) -> IntPoly:
    """The y-coefficients (4pqr, 0, -n, 1) of y^3 - n y^2 + 4pqr, n = p+q+r.

    For a four-cell string 0^a 1^b 0^c 1^d with {p, q, r} = {a+d, b, c}, the
    quotient's characteristic polynomial is y times this cubic, y = x + 1.
    Proof, from char_poly_y's alternating-set expansion at k = 2: the
    coefficient of y^(4 - j) is -(-4)^((j - 1) / 2) E_j for odd j and 0 for
    even j >= 2; E_1 = a+b+c+d = n, and the alternating 3-sets of cells
    0..3 are {0, 1, 2} and {1, 2, 3}, so E_3 = abc + bcd = bc(a+d) = pqr.
    So chi_Q = y^4 - n y^3 + 4pqr y.
    """
    return (4 * p * q * r, 0, -(p + q + r), 1)


def char_poly_ints(cell_sizes) -> IntPoly:
    """Monic characteristic polynomial in x of the chain quotient with these
    interleaved cell sizes: char_poly_y shifted back by a Taylor shift.

    The name is the one the general-matrix version (Faddeev-LeVerrier, now
    a test oracle) had: the benchmark's tracer binds intpoly.char_poly_ints
    by name, until the library has its own stage hooks (ROADMAP item 1).
    """
    return poly_shift(char_poly_y(cell_sizes), 1)
