import ast
import hashlib
import importlib.util
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import root_oracles
from conftest import cut_block_string, poly_pow, random_block_string
from seidelchain import BlockString, exact_spectrum, intpoly, parse_block_string, quotient_matrix, spectra
from seidelchain.chain import cell_signs


# ---------------------------------------------------------------------------
# Independent characteristic-polynomial oracle: Laplace expansion over
# polynomial entries.  Exponential, so only used at order <= 6.
# ---------------------------------------------------------------------------

def _poly_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = ()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = root_oracles.poly_mul(m[0][j], _poly_det(minor))
        acc = root_oracles.poly_add(acc, term if j % 2 == 0 else tuple(-c for c in term))
    return acc


def charpoly_by_cofactors(a):
    n = len(a)
    m = [
        [
            intpoly.poly_trim((-a[i][j], 1)) if i == j else intpoly.poly_trim((-a[i][j],))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _poly_det(m)


def test_char_poly_k2_seidel():
    assert root_oracles.faddeev_leverrier([[0, -1], [-1, 0]]) == (-1, 0, 1)
    # "01" is K2: its quotient is its Seidel matrix.
    assert intpoly.char_poly_ints((1, 1)) == (-1, 0, 1)


def test_char_poly_mirror_quotient():
    # Quotient of 0 1^2 0^2 1: roots -1, -3, 3, 3, expanded by hand.
    q = quotient_matrix(parse_block_string("0 1^2 0^2 1"))
    assert intpoly.char_poly_ints(q.cell_sizes) == (27, 18, -12, -2, 1)


def test_faddeev_leverrier_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert root_oracles.faddeev_leverrier(a) == charpoly_by_cofactors(a)


def test_faddeev_leverrier_rejects_non_square():
    with pytest.raises(ValueError):
        root_oracles.faddeev_leverrier([[1, 2, 3], [4, 5, 6]])


def test_poly_shift():
    assert intpoly.poly_shift((0, 1), 1) == (1, 1)
    assert intpoly.poly_shift((-2, 0, 1), -3) == (7, -6, 1)  # (x - 3)^2 - 2
    assert intpoly.poly_shift((), 5) == ()


def test_char_poly_rejects_an_odd_cell_count():
    for sizes in ((), (1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            intpoly.char_poly_ints(sizes)


@settings(max_examples=25, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=1, max_size=8))
@example(blocks=[(1, 1)])
@example(blocks=[(1, 1)] * 8)
def test_char_poly_equals_sympy_on_quotients(blocks):
    sympy = pytest.importorskip("sympy")

    q = quotient_matrix(BlockString(tuple(blocks)))
    want = _from_sympy(sympy.Matrix(q.entries).charpoly(sympy.Symbol("x")))
    assert intpoly.char_poly_ints(q.cell_sizes) == want


def test_char_poly_at_the_order_cap_is_fast():
    b = cut_block_string(random.Random(128), spectra.CHAR_POLY_ORDER_CAP // 2, 20_000)
    start = time.perf_counter()
    p = intpoly.char_poly_ints(quotient_matrix(b).cell_sizes)
    assert time.perf_counter() - start < 0.5
    assert len(p) == 257 and p[-1] == 1
    assert intpoly.poly_eval(p, -1) == 0  # Q + I is singular


def _alternating_sets(m):
    """Every nonempty set of cells 0 .. m - 1 whose consecutive members differ in parity."""
    return [s for j in range(1, m + 1) for s in itertools.combinations(range(m), j)
            if all((b - a) % 2 for a, b in zip(s, s[1:]))]


@pytest.mark.parametrize("k", range(1, 7))
def test_cell_rows_of_one_parity_differ_only_between_them(k):
    # The first premise of char_poly_ints, from the one sign rule chain.cell_signs:
    # two chosen cells of one parity with no chosen cell between them give
    # Sigma_S equal rows.
    signs = cell_signs(BlockString(((1, 1),) * k))
    m = 2 * k
    for a in range(m):
        for c in range(a + 2, m, 2):
            diff = [signs[a][q] - signs[c][q] for q in range(m)]
            assert diff == [2 * signs[a][q] if a < q < c and (q - a) % 2 else 0 for q in range(m)]
            for mask in range(1 << m):
                chosen = [q for q in range(m) if mask >> q & 1]
                if a in chosen and c in chosen and not any(a < q < c for q in chosen):
                    assert [signs[a][q] for q in chosen] == [signs[c][q] for q in chosen]


@pytest.mark.parametrize("k", range(1, 7))
def test_alternating_cell_sets_have_determinant_a_power_of_minus_4(k):
    # The second premise: det Sigma_S over an alternating set S of j cells is
    # 0 for even j and (-4)^((j - 1) / 2) for odd j.
    signs = cell_signs(BlockString(((1, 1),) * k))
    for s in _alternating_sets(2 * k):
        # det M = (-1)^j det(0 I - M), the oracle's constant term.
        det = (-1) ** len(s) * root_oracles.faddeev_leverrier([[signs[i][j] for j in s] for i in s])[0]
        assert det == (0 if len(s) % 2 == 0 else (-4) ** (len(s) // 2)), s


def _cell_sizes(max_k, max_size=30):
    size = st.integers(1, max_size)
    pairs = st.lists(st.tuples(size, size), min_size=1, max_size=max_k)
    return pairs.map(lambda blocks: [d for block in blocks for d in block])


@settings(max_examples=150, deadline=None)
@given(sizes=_cell_sizes(12))
@example(sizes=[1, 1])
@example(sizes=[3, 7])
@example(sizes=[1] * 20)
@example(sizes=[1] * 24)
@example(sizes=[10 ** 400, 1])
@example(sizes=[1, 10 ** 400, 3, 10 ** 400])
@example(sizes=[2 ** 53 + 1, 2, 2 ** 53 + 1, 1, 5, 2 ** 53 + 1])
def test_char_poly_equals_the_continuant_and_faddeev_oracles(sizes):
    q = quotient_matrix(BlockString(tuple(zip(sizes[::2], sizes[1::2]))))
    assert q.cell_sizes == tuple(sizes)
    p = intpoly.char_poly_ints(sizes)
    assert p == root_oracles.continuant_char_poly(sizes)
    assert p == root_oracles.faddeev_leverrier(q.entries)


@settings(max_examples=100, deadline=None)
@given(sizes=_cell_sizes(12, 10 ** 6))
@example(sizes=[1, 1])
@example(sizes=[10 ** 400, 2 ** 53 + 1] * 3)
def test_char_poly_in_y_has_only_odd_terms_and_no_constant(sizes):
    # chi_Q(y - 1) = y^2k plus terms y^(2k - j) with odd j only: the factor y
    # is the quotient eigenvalue -1, and every even j >= 2 term vanishes.
    y_poly = intpoly.poly_shift(intpoly.char_poly_ints(sizes), -1)
    m = len(sizes)
    assert len(y_poly) == m + 1 and y_poly[m] == 1 and y_poly[0] == 0
    assert all(y_poly[m - j] == 0 for j in range(2, m + 1, 2))
    assert y_poly[m - 1] == -sum(sizes)


def _bracelet_strings(sizes):
    """Every cell-size tuple whose bracelet (s_1 + t_k, t_1, s_2, ..., s_k),
    up to rotation and reflection, is that of sizes."""
    ring = [sizes[0] + sizes[-1], *sizes[1:-1]]
    for turned in (ring, ring[:1] + ring[:0:-1]):
        for r in range(len(turned)):
            first, *rest = turned[r:] + turned[:r]
            for s_1 in range(1, first):
                yield (s_1, *rest, first - s_1)


@settings(max_examples=40, deadline=None)
@given(sizes=_cell_sizes(6, 6))
@example(sizes=[1, 1])
@example(sizes=[1, 2, 3, 4, 5, 6])
def test_char_poly_depends_on_the_bracelet_only(sizes):
    p = intpoly.char_poly_ints(sizes)
    variants = list(_bracelet_strings(sizes))
    assert tuple(sizes) in variants
    for other in variants:
        assert intpoly.char_poly_ints(other) == p, other


# ---------------------------------------------------------------------------
# Integer roots, gcd, square-free decomposition
# ---------------------------------------------------------------------------

def test_integer_roots_with_multiplicity():
    # (x+1)^3 (x-4) = x^4 - x^3 - 9x^2 - 11x - 4
    roots, residual = intpoly.integer_roots((-4, -11, -9, -1, 1))
    assert roots == {-1: 3, 4: 1}
    assert residual == (1,)


def test_integer_roots_strips_zero():
    # x^2 (x - 2)
    roots, residual = intpoly.integer_roots((0, 0, -2, 1))
    assert roots == {0: 2, 2: 1}
    assert residual == (1,)


def test_integer_roots_leaves_irrational_factor():
    # (x - 1)(x^2 - 2)
    p = root_oracles.poly_mul((-1, 1), (-2, 0, 1))
    roots, residual = intpoly.integer_roots(p)
    assert roots == {1: 1}
    assert residual == (-2, 0, 1)


def test_poly_gcd_and_exact_division():
    a = root_oracles.poly_mul((1, 1), (-2, 1))
    b = root_oracles.poly_mul((1, 1), (3, 1))
    assert intpoly.poly_gcd(a, b) == (1, 1)
    assert intpoly.poly_div_exact(a, (1, 1)) == (-2, 1)
    with pytest.raises(ValueError):
        intpoly.poly_div_exact((1, 1, 1), (1, 1))


def test_square_free_decomposition():
    # (x - 1)^2 (x + 2)
    p = root_oracles.poly_mul(root_oracles.poly_mul((-1, 1), (-1, 1)), (2, 1))
    assert intpoly.square_free_decomposition(p) == [((2, 1), 1), ((-1, 1), 2)]
    # Already square-free
    assert intpoly.square_free_decomposition((-2, 0, 1)) == [((-2, 0, 1), 1)]
    # (x^2 - 2)^2
    p = root_oracles.poly_mul((-2, 0, 1), (-2, 0, 1))
    assert intpoly.square_free_decomposition(p) == [((-2, 0, 1), 2)]


def test_square_free_input_takes_no_division_or_gcd(monkeypatch):
    """A constant gcd(p, p') ends the decomposition at once: [(primitive(p), 1)]."""
    def refuse(*_args):
        raise AssertionError("square-free input reached the Musser loop")

    cases = [(-2, 0, 1), (-4, 0, 2), (6, 0, -3), root_oracles.poly_mul((-2, 0, 1), (-3, 0, 1)), (5, 1)]
    chains = [intpoly.sturm_chain(p) for p in cases]
    monkeypatch.setattr(intpoly, "poly_div_exact", refuse)
    monkeypatch.setattr(intpoly, "poly_gcd", refuse)
    for p, chain in zip(cases, chains):
        want = [(intpoly.primitive(p), 1)]
        assert intpoly.square_free_decomposition(p) == want
        assert intpoly.square_free_decomposition(p, chain) == want


def test_pseudo_divmod_scales_by_a_negative_leading_coefficient():
    # x^3 + 1 divided by 1 - 2x leaves 9/8 over the rationals.  lc(b) = -2 at
    # each of the three steps, so each must flip its scale to keep c > 0 and
    # the remainder positive.
    a, b = (1, 0, 0, 1), (1, -2)
    q, r = intpoly._pseudo_divmod(a, b)
    qb_r = root_oracles.poly_add(root_oracles.poly_mul(q, b), r)
    c = qb_r[-1] // a[-1]
    assert c > 0
    assert qb_r == tuple(c * x for x in a)
    assert len(r) == 1 and r[0] > 0
    assert intpoly.poly_div_exact(root_oracles.poly_mul(a, b), b) == a


# ---------------------------------------------------------------------------
# Gcd-free pseudo-division, Sturm chains and dyadic signs against the
# gcd-scaled oracle (root_oracles) and Fraction evaluation
# ---------------------------------------------------------------------------

_BIG = 2 ** 200
_coefficients = st.one_of(st.integers(-3, 3), st.integers(-_BIG, _BIG))


def _polys(max_degree: int, min_size: int = 1):
    """Trimmed polynomials of degree <= max_degree, zero coefficients and
    negative leading ones included; () only when min_size is 0."""
    polys = st.lists(_coefficients, min_size=min_size, max_size=max_degree + 1).map(intpoly.poly_trim)
    return polys if min_size == 0 else polys.filter(bool)


_small_factors = st.lists(st.integers(-4, 4), min_size=2, max_size=4).map(intpoly.poly_trim).filter(
    lambda f: len(f) > 1)


@st.composite
def _products(draw, max_degree: int = 14):
    """A constant times powers of small factors, degree <= max_degree: often
    with repeated roots, so the Sturm chain ends on a nonconstant gcd."""
    p = (draw(st.sampled_from((-6, -1, 1, 5))),)
    for f, e in draw(st.lists(st.tuples(_small_factors, st.integers(1, 3)), min_size=1, max_size=3)):
        if intpoly.poly_degree(p) + e * intpoly.poly_degree(f) <= max_degree:
            p = root_oracles.poly_mul(p, poly_pow(f, e))
    return p


# x^5 - x: the remainder of p by p' is -4x/5, a drop from degree 4 to 1.
_DEGREE_DROP = (0, -1, 0, 0, 0, 1)
# (x^2 - 2)^2 (x + 1)^3, times -3: repeated roots and a negative lead.
_REPEATED = tuple(-3 * c for c in root_oracles.poly_mul(poly_pow((-2, 0, 1), 2), poly_pow((1, 1), 3)))


def _spectrum_large_residuals():
    """Residuals of quotient charpolys at k = 8..16 and n <= 2*10^4, cut
    uniformly as the spectrum_large benchmark cuts them, with the integer
    roots stripped as exact_spectrum strips them."""
    rng = random.Random(28)
    for k in range(8, 17):
        for n in (4 * k, rng.randint(2 * k, 20_000), 20_000):
            q = quotient_matrix(cut_block_string(rng, k, n))
            coeffs = intpoly.char_poly_ints(q.cell_sizes)
            yield intpoly.integer_roots(coeffs, bound=n, guesses=spectra._quotient_guesses(q))[1]


# x^5 + x^2 + 2: a drop from degree 4 to 2 (through _pseudo_divmod), then
# one-pass steps by members with negative leads.
_DROP_OF_TWO = (2, 0, 1, 0, 0, 1)
# -2 (x - 1)^3: a negative input lead, and a one-pass step with zero remainder.
_ZERO_REMAINDER = (2, -6, 6, -2)
# x^3 + x + 1: members -(2x + 3) and -1, divided by a negative lead in one pass.
_NEGATIVE_LEADS = (1, 1, 0, 1)


def _random_residual(k: int):
    """The residual of a random k-block string (cells of 1 to 6,
    random.Random(5)): its quotient charpoly with the integer roots stripped."""
    rng = random.Random(5)
    sizes = [rng.randint(1, 6) for _ in range(2 * k)]
    return intpoly.integer_roots(intpoly.char_poly_ints(sizes), bound=sum(sizes))[1]


# Degrees 47 and 63: remainders whose lead and constant term share more than
# the content, so _negated_primitive refines its gcd.
_RESIDUAL_K24, _RESIDUAL_K32 = _random_residual(24), _random_residual(32)
# x (x^2 - (2^70 + 1)) (x^2 - 3 * 2^69): odd, so every other remainder is odd
# too, with constant term 0, and gcd(lead, 0) is the lead itself.
_ODD_WIDE = root_oracles.poly_mul((0, 1), root_oracles.poly_mul((-(1 << 70) - 1, 0, 1), (-(3 << 69), 0, 1)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_polys(14), _products()))
@example(_DEGREE_DROP)
@example(_REPEATED)
@example((-(_BIG - 1), 0, 0, -_BIG, 0, 5, 0, -_BIG))
@example(_DROP_OF_TWO)
@example(_ZERO_REMAINDER)
@example(_NEGATIVE_LEADS)
@example(_RESIDUAL_K24)
@example(_RESIDUAL_K32)
@example(_ODD_WIDE)
def test_sturm_chain_equals_the_gcd_scaled_oracle(p):
    assert intpoly.sturm_chain(p) == root_oracles.sturm_chain(p)


@settings(max_examples=300, deadline=None)
@given(_polys(8).map(lambda r: tuple(6 * c for c in r)))
@example((4, 2, 8))  # gcd(lead, constant) = 4 against a content of 2
@example((12, 30, 20, 0, 36))  # refined twice: 12, then 6, then 2
@example((0, 15, 0, 10))  # constant term 0: the gcd starts from the lead
def test_negated_primitive_divides_by_the_content(r):
    assert intpoly._negated_primitive(r) == tuple(-c // math.gcd(*r) for c in r)


def test_the_chain_examples_refine_the_two_coefficient_gcd():
    """The wide examples above reach what they are named for: remainders
    where gcd(lead, constant), from which _negated_primitive starts,
    exceeds the content, and remainders with constant term 0."""
    def remainders(p):
        chain = intpoly.sturm_chain(p)
        return [intpoly._pseudo_rem(a, b) for a, b in zip(chain, chain[1:-1])]

    assert (len(_RESIDUAL_K24), len(_RESIDUAL_K32)) == (48, 64)
    for p in (_RESIDUAL_K24, _RESIDUAL_K32):
        assert any(math.gcd(r[-1], r[0]) > math.gcd(*r) for r in remainders(p))
    assert any(r[0] == 0 and r[-1].bit_length() > 64 for r in remainders(_ODD_WIDE))


def test_the_chain_examples_take_both_remainder_paths():
    """The examples above reach what they are named for: a step dropping
    two degrees, a one-pass step whose remainder is zero, and one-pass steps
    dividing by a negative lead."""
    def steps(p):
        chain = intpoly.sturm_chain(p)
        return [(len(a) - len(b), b[-1] < 0) for a, b in zip(chain, chain[1:])], chain

    drops, _ = steps(_DROP_OF_TWO)
    assert (2, True) in drops and (1, True) in drops
    _, chain = steps(_ZERO_REMAINDER)
    assert len(chain[-2]) == len(chain[-1]) + 1 and len(chain[-1]) > 1
    assert intpoly._pseudo_rem(chain[-2], chain[-1]) == ()
    drops, chain = steps(_NEGATIVE_LEADS)
    assert drops[-1] == (1, True) and chain[-2] == (-3, -2)


@settings(max_examples=200, deadline=None)
@given(_polys(10), _polys(9))
@example(_DROP_OF_TWO, (0, 2, 0, 0, 5))
@example((-1, 3, -3, 1), (1, -2, 1))
def test_pseudo_remainder_is_a_positive_multiple_of_the_rational_one(a, b):
    """_pseudo_rem, one pass or through _pseudo_divmod, is t times the
    remainder of a by b over the rationals, t > 0."""
    r = intpoly._pseudo_rem(a, b)
    _, want = root_oracles.pseudo_divmod(a, b)
    assert _positive_multiple(r, want)


def test_sturm_chains_of_spectrum_large_residuals_equal_the_oracle():
    degrees = []
    for residual in _spectrum_large_residuals():
        chain = intpoly.sturm_chain(residual)
        assert chain == root_oracles.sturm_chain(residual)
        degrees.append(intpoly.poly_degree(residual))
    assert len(degrees) == 27 and max(degrees) >= 25, degrees


def test_primitive_of_a_content_one_input_is_that_input():
    for p in [(1, 2, 3), (-5, 0, 7), (3, 2), (1,), _DEGREE_DROP, _NEGATIVE_LEADS]:
        assert intpoly.primitive(p) == p
    assert intpoly.primitive((3, 2, 0, 0)) == (3, 2)
    assert intpoly.primitive((-3, -2)) == (3, 2)
    assert intpoly.primitive((2, -6, 6, -2)) == (-1, 3, -3, 1)


def _positive_multiple(u, v) -> bool:
    """u = t * v for some rational t > 0 (both trimmed)."""
    if not u or not v:
        return u == v
    return (len(u) == len(v) and (u[-1] > 0) == (v[-1] > 0)
            and all(x * v[-1] == y * u[-1] for x, y in zip(u, v)))


_divisors = st.builds(lambda low, lead: tuple(low) + (lead,),
                      st.lists(_coefficients, max_size=6),
                      st.one_of(st.sampled_from((1, -1, -2)), _coefficients.filter(bool)))


@settings(max_examples=300, deadline=None)
@given(_polys(14, min_size=0), _divisors)
@example((1, 0, 0, 1), (1, -2))
@example((5, 1), (1, 2, 3))
@example((0, 0, 0, 0, 7), (-1, 0, 1))
@example((3, 1, 4, 1, 5), (-9,))
def test_pseudo_divmod_is_a_pseudo_division(a, b):
    """c*a = q*b + r with c > 0 and deg r < deg b, and q and r are positive
    multiples of the oracle's (of the rational quotient and remainder)."""
    q, r = intpoly._pseudo_divmod(a, b)
    assert len(r) < len(b)
    assert q == intpoly.poly_trim(q) and r == intpoly.poly_trim(r)
    qb_r = root_oracles.poly_add(root_oracles.poly_mul(q, b), r)
    if a:
        c = qb_r[-1] // a[-1]
        assert c > 0 and qb_r == tuple(c * x for x in a)
    else:
        assert q == r == ()
    oq, o_r = root_oracles.pseudo_divmod(a, b)
    assert _positive_multiple(q, oq) and _positive_multiple(r, o_r)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_polys(7), _products(7)), st.one_of(_polys(7), _products(7)))
@example((-2, 0, 1), (2, -3, 1))
@example(_REPEATED[:4], (-1, 1))
def test_gcd_quotient_and_split_are_those_of_the_oracle_division(f, g):
    p = root_oracles.poly_mul(f, g)

    def results():
        return (intpoly.poly_gcd(p, f), intpoly.poly_gcd(f, g), intpoly.poly_div_exact(p, g),
                intpoly.square_free_decomposition(p), intpoly.sturm_chain(p))

    got = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intpoly, "_pseudo_divmod", root_oracles.pseudo_divmod)
        assert results() == got
    assert got[2] == intpoly.primitive(f)


@settings(max_examples=300, deadline=None)
@given(st.lists(_coefficients, max_size=15).map(tuple), st.integers(-_BIG, _BIG),
       st.one_of(st.integers(0, 300).map(lambda m: 1 << m), st.integers(1, 10 ** 40)))
@example((), 3, 4)
@example((-5,), -7, 1 << 300)
@example((7, 0, 0), 0, 3)
@example(_DEGREE_DROP, -1, 1)
def test_sign_at_equals_the_fraction_sign(p, num, den):
    want = root_oracles.fraction_sign(p, Fraction(num, den))
    assert intpoly.sign_at(p, num, den) == want
    assert intpoly.sign_at(p, Fraction(num, den)) == want


def test_sign_at_every_dyadic_denominator_up_to_2_300():
    rng = random.Random(29)
    p = tuple(rng.randint(-_BIG, _BIG) for _ in range(15))
    # Roots -sqrt(3), -sqrt(2), sqrt(2), sqrt(3): the grid points next to them
    # have opposite signs at every depth.
    q = root_oracles.poly_mul((-2, 0, 1), (-3, 0, 1))
    for m in range(301):
        for num in (rng.randint(-_BIG, _BIG), -rng.randint(1, 1 << m), 1, 0):
            want = root_oracles.fraction_sign(p, Fraction(num, 1 << m))
            assert intpoly.sign_at(p, num, 1 << m) == want
            assert intpoly.sign_at(p, Fraction(num, 1 << m)) == want
        for d in (2, 3):
            below = math.isqrt(d << 2 * m)
            for num in (below, below + 1, -below, -below - 1):
                want = root_oracles.fraction_sign(q, Fraction(num, 1 << m))
                assert intpoly.sign_at(q, num, 1 << m) == want != 0
    # A point where p vanishes: x^5 - x at -1/1, 0/2^300 and 1.
    for num, den in ((-1, 1), (0, 1 << 300), (1 << 7, 1 << 7)):
        assert intpoly.sign_at(_DEGREE_DROP, num, den) == 0


@settings(max_examples=300, deadline=None)
@given(p=st.lists(_coefficients, max_size=15).map(tuple), m=st.integers(0, 300),
       num=st.one_of(st.integers(-(1 << 400), 1 << 400), st.integers(-5, 0)), root=st.booleans())
@example(p=(), m=0, num=0, root=False)
@example(p=(3, -1), m=300, num=0, root=True)
@example(p=_DEGREE_DROP, m=0, num=-1, root=False)
def test_sign_on_grid_coefficients_equals_the_dyadic_sign(p, m, num, root):
    """The grid searches scale p to their grid once (scaled_to_grid) and
    take each sign at an integer point: sign_at(scaled, x) is the sign of p
    at x / 2^m, also where p vanishes there (root: p times (2^m x - num))."""
    if root:
        p = root_oracles.poly_mul(p, (-num, 1 << m))
    scaled = intpoly.scaled_to_grid(p, m)
    assert intpoly.sign_at(scaled, num) == intpoly.sign_at(p, num, 1 << m)
    assert intpoly.sign_at(scaled, num) == root_oracles.fraction_sign(p, Fraction(num, 1 << m))
    if root and p:
        assert intpoly.sign_at(scaled, num) == 0


@settings(max_examples=300, deadline=None)
@given(p=st.integers(0, 40).flatmap(lambda d: st.lists(st.integers(-(1 << 400), 1 << 400),
                                                      min_size=d + 1, max_size=d + 1)).map(tuple),
       a=st.integers(-(1 << 200), 1 << 200), b=st.integers(-(1 << 200), 1 << 200))
@example(p=(7,), a=0, b=-1)
@example(p=tuple(range(-20, 21)), a=-(1 << 200), b=(1 << 200) - 1)
@example(p=_DEGREE_DROP, a=-1, b=1)
def test_poly_eval_pair_is_two_evaluations(p, a, b):
    """Guess placement reads both ends of a cell in one Horner pass with two
    accumulators: the values poly_eval gives at a and at b, for degrees 0 to
    40, coefficients up to 2^400 and points of either sign up to 2^200."""
    assert intpoly.poly_eval_pair(p, a, b) == (intpoly.poly_eval(p, a), intpoly.poly_eval(p, b))


def test_sturm_chain_gcd_calls(monkeypatch):
    """The gcds a chain takes, each as its number of arguments: one over all
    coefficients for primitive(p) and primitive(p'), then for each remainder
    one of its lead and constant term, and one more for each refinement of
    the content (_negated_primitive); none refines on these cases.  None
    runs inside the pseudo-division.  A gcd over all coefficients of each
    member took 15 and 16 arguments at most on the last two cases."""
    calls, dividing = [], [0]
    gcd = math.gcd
    monkeypatch.setattr(intpoly, "gcd", lambda *args: calls.append((len(args), dividing[0])) or gcd(*args))

    def inside(fn):
        def wrapper(*args):
            dividing[0] += 1
            try:
                return fn(*args)
            finally:
                dividing[0] -= 1
        return wrapper

    for name in ("_pseudo_rem", "_pseudo_divmod"):
        monkeypatch.setattr(intpoly, name, inside(getattr(intpoly, name)))
    rng = random.Random(30)
    cases = [_DEGREE_DROP, _REPEATED, tuple(rng.randint(-_BIG, _BIG) for _ in range(15)),
             next(_spectrum_large_residuals())]
    want = [[6, 5, 2, 2], [8, 7, 2, 2], [15, 14] + [2] * 19, [16, 15] + [2] * 22]
    for p, arities in zip(cases, want):
        calls.clear()
        intpoly.sturm_chain(p)
        assert calls == [(n, 0) for n in arities]


# ---------------------------------------------------------------------------
# Independent oracle: sympy, on seeded random products of powers of small
# integer polynomials (non-monic and negative leading coefficients included)
# ---------------------------------------------------------------------------

def _random_factor(rng):
    while True:
        f = intpoly.poly_trim(tuple(rng.randint(-5, 5) for _ in range(rng.randint(2, 4))))
        if len(f) > 1:
            return f


def _random_product(rng):
    p = (rng.choice((-3, -2, -1, 1, 2, 3)),)
    for _ in range(rng.randint(1, 4)):
        p = root_oracles.poly_mul(p, poly_pow(_random_factor(rng), rng.randint(1, 3)))
    return p


def _to_sympy(sympy, p):
    return sympy.Poly(list(reversed(p)), sympy.Symbol("x"), domain="ZZ")


def _from_sympy(poly):
    return intpoly.poly_trim(tuple(int(c) for c in reversed(poly.all_coeffs())))


def test_square_free_decomposition_against_sympy():
    """Musser's factors against sympy's, with and without p's Sturm chain
    given; gcd(p, p') is read off its last member, which for repeated factors
    is not constant."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    repeated = 0
    for _ in range(200):
        p = _random_product(rng)
        _, factors = _to_sympy(sympy, p).sqf_list()
        want = [(intpoly.primitive(_from_sympy(f)), m) for f, m in factors]
        assert intpoly.square_free_decomposition(p) == sorted(want, key=lambda fm: fm[1])
        chain = intpoly.sturm_chain(p)
        assert intpoly.square_free_decomposition(p, chain) == intpoly.square_free_decomposition(p)
        repeated += intpoly.poly_degree(chain[-1]) > 0
    assert repeated > 100, repeated


def test_poly_gcd_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6)
    for _ in range(200):
        shared = _random_product(rng)
        a = root_oracles.poly_mul(_random_product(rng), shared)
        b = root_oracles.poly_mul(_random_product(rng), shared)
        want = _from_sympy(sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b)))
        assert intpoly.poly_gcd(a, b) == intpoly.primitive(want)


def test_sturm_root_count_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        p = _from_sympy(_to_sympy(sympy, _random_product(rng)).sqf_part())
        if len(p) < 2:
            continue
        chain = intpoly.sturm_chain(p)
        for _ in range(5):
            lo, hi = sorted(Fraction(rng.randint(-96, 96), 16) for _ in range(2))
            if lo == hi or intpoly.sign_at(p, lo) == 0 or intpoly.sign_at(p, hi) == 0:
                continue
            want = _to_sympy(sympy, p).count_roots(
                sympy.Rational(lo.numerator, lo.denominator),
                sympy.Rational(hi.numerator, hi.denominator))
            assert intpoly.count_roots_between(chain, lo, hi) == want
            checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# Sturm isolation and certified refinement
# ---------------------------------------------------------------------------

def test_isolation_and_refinement():
    # (x^2 - 2)(x^2 - 3): roots +-sqrt(2), +-sqrt(3)
    p = root_oracles.poly_mul((-2, 0, 1), (-3, 0, 1))
    intervals = intpoly.isolate_real_roots(p)
    assert len(intervals) == 4
    for (_lo1, hi1, shift1, *_), (lo2, _hi2, shift2, *_) in zip(intervals, intervals[1:]):
        assert hi1 << shift2 <= lo2 << shift1
    roots = []
    for cell in intervals:
        lo, hi, shift, sign_lo, sign_hi = cell
        assert (sign_lo, sign_hi) == (intpoly.sign_at(p, lo, 1 << shift), intpoly.sign_at(p, hi, 1 << shift))
        rlo, rhi, rshift, s_lo, s_hi = intpoly.refine_root(p, cell, 40)
        assert (rhi - rlo) << 40 <= 1 << rshift
        assert s_lo != 0 and s_hi != 0 and s_lo != s_hi
        roots.append((rlo + rhi) / (2 << rshift))
    expected = sorted([-(3 ** 0.5), -(2 ** 0.5), 2 ** 0.5, 3 ** 0.5])
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-10


def test_a_chain_of_another_polynomial_is_not_used():
    """A chain that is not sturm_chain(p) is not trusted: isolation goes on
    as with no chain."""
    other = intpoly.sturm_chain((-5, 0, 1))
    p = root_oracles.poly_mul(root_oracles.poly_mul((-1, 1), (-1, 1)), (2, 1))
    assert intpoly.square_free_decomposition(p, other) == [((2, 1), 1), ((-1, 1), 2)]
    p = root_oracles.poly_mul((-2, 0, 1), (-3, 0, 1))
    assert intpoly.isolate_real_roots(p, 4, (), other) == intpoly.isolate_real_roots(p, 4)


def _no_call(*args):
    raise AssertionError("not to be called")


def _residual_and_guesses(text):
    """The residual of a k >= 3 string's quotient charpoly, its integer
    roots stripped, and the quotient's float guesses."""
    b = parse_block_string(text)
    q = quotient_matrix(b)
    guesses = spectra._quotient_guesses(q)
    _roots, residual = intpoly.integer_roots(intpoly.char_poly_ints(q.cell_sizes), b.n, guesses)
    return residual, b.n, guesses


@pytest.mark.parametrize("text", ["0 1^2 0^3 1 0 1^4", "0^3 1 0 1^2 0 1^4", "0^40 1^3 0^900 1^7 0^2 1^50"])
def test_isolation_without_a_chain_certifies_by_degree(monkeypatch, text):
    """Degree-many cells with a sign change each hold every root, one each,
    so isolation given no chain builds none when the guesses certify that
    many.  Drop a guess and the cells may fall short: then it builds the
    chain and ends with the cells of the chain route."""
    residual, n, guesses = _residual_and_guesses(text)
    chain = intpoly.sturm_chain(residual)
    with_chain = intpoly.isolate_real_roots(residual, n, guesses, chain)
    assert len(with_chain) == intpoly.poly_degree(residual) >= 3
    sturm_chain = intpoly.sturm_chain
    monkeypatch.setattr(intpoly, "sturm_chain", _no_call)
    assert intpoly.isolate_real_roots(residual, n, guesses) == with_chain
    built = []
    monkeypatch.setattr(intpoly, "sturm_chain", lambda p: built.append(p) or sturm_chain(p))
    for dropped in range(len(guesses)):
        fewer = guesses[:dropped] + guesses[dropped + 1:]
        assert intpoly.isolate_real_roots(residual, n, fewer) == intpoly.isolate_real_roots(residual, n, fewer, chain)
    # Every root has a guess of its own, and the others belong to stripped integer roots.
    assert len(built) == len(with_chain)


def test_sturm_root_counting():
    p = (-2, 0, 1)  # x^2 - 2
    chain = intpoly.sturm_chain(p)
    assert intpoly.count_roots_between(chain, Fraction(-2), Fraction(2)) == 2
    assert intpoly.count_roots_between(chain, Fraction(0), Fraction(2)) == 1
    assert intpoly.count_roots_between(chain, Fraction(2), Fraction(3)) == 0
    assert intpoly.count_roots_between(chain, None, None) == 2
    assert intpoly.count_roots_between(chain, None, Fraction(0)) == 1
    assert intpoly.count_roots_between(chain, Fraction(2), None) == 0
    assert intpoly.count_roots_between(intpoly.sturm_chain((1, 0, 1)), None, None) == 0  # x^2 + 1


@settings(max_examples=300, deadline=None)
@given(st.one_of(_polys(12), _products()))
@example((1, 0, 1))  # x^2 + 1: no real root
@example(_REPEATED)
@example(_DROP_OF_TWO)
def test_whole_line_count_equals_the_count_within_the_root_bound(p):
    """The count over the whole line, read off leading coefficients and
    degrees, equals the Sturm count over (-B, B] by evaluation, B the root
    bound, and splits at 0 as the evaluated counts do."""
    assume(intpoly.poly_degree(p) >= 1)
    chain = intpoly.sturm_chain(p)
    b = intpoly.root_bound(p)
    total = intpoly.count_roots_between(chain, None, None)
    assert total == intpoly.count_roots_between(chain, -b, b)
    assert intpoly.count_roots_between(chain, None, 0) == intpoly.count_roots_between(chain, -b, 0)
    assert intpoly.count_roots_between(chain, 0, None) == intpoly.count_roots_between(chain, 0, b)


def test_whole_line_count_against_sympy():
    """The whole-line count is the number of distinct real roots, on seeded
    products of powers of small factors: complex roots and repeated roots
    included."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    complex_roots = repeated = 0
    for _ in range(200):
        p = _random_product(rng)
        want = len(_to_sympy(sympy, p).real_roots(multiple=False))
        chain = intpoly.sturm_chain(p)
        assert intpoly.count_roots_between(chain, None, None) == want
        sqf_degree = intpoly.poly_degree(p) - intpoly.poly_degree(chain[-1])
        complex_roots += want < sqf_degree
        repeated += intpoly.poly_degree(chain[-1]) > 0
    assert complex_roots > 50 and repeated > 50, (complex_roots, repeated)


def test_sign_at_matches_eval():
    rng = random.Random(12)
    for _ in range(50):
        p = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 6)))
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        val = intpoly.poly_eval(p, x)
        assert intpoly.sign_at(p, x) == (val > 0) - (val < 0)


def test_poly_helpers():
    assert root_oracles.poly_mul((1, 1), (1, 1)) == (1, 2, 1)
    assert intpoly.poly_derivative((5, 3, 1)) == (3, 2)
    assert intpoly.poly_trim((0, 0)) == ()
    assert intpoly.primitive((-4, -2)) == (2, 1)


# ---------------------------------------------------------------------------
# Root bound, guided integer-root strip and guided refinement
# ---------------------------------------------------------------------------

def test_root_bound_encloses_every_root():
    rng = random.Random(13)
    for _ in range(300):
        p = _random_product(rng)
        if len(p) < 2:
            continue
        b = intpoly.root_bound(p)
        assert max(abs(z) for z in np.roots(list(reversed(p)))) < b
    assert intpoly.root_bound((-2, -3, 0, 1)) == 4  # 2 * ceil(sqrt(3))
    assert intpoly.root_bound((0, 0, 1)) == 1


def test_integer_roots_default_bound_is_small():
    b = cut_block_string(random.Random(24), 24, 200)
    p = intpoly.char_poly_ints(quotient_matrix(b).cell_sizes)
    assert intpoly.root_bound(p) < 1000
    start = time.perf_counter()
    got = intpoly.integer_roots(p)
    assert time.perf_counter() - start < 1.0
    assert got == intpoly.integer_roots(p, bound=b.n)


def test_integer_roots_tries_only_rounded_guesses():
    # (x + 1)(x - 3)(x - 7)(x^2 - 2)
    p = (1,)
    for f in ((1, 1), (-3, 1), (-7, 1), (-2, 0, 1)):
        p = root_oracles.poly_mul(p, f)
    assert intpoly.integer_roots(p, guesses=[-1.2, 2.9, 7.4, -1.41, 1.41]) == ({-1: 1, 3: 1, 7: 1}, (-2, 0, 1))
    # A guess that rounds to the wrong integer leaves that root in the residual.
    roots, residual = intpoly.integer_roots(p, guesses=[3.6, 7.0])
    assert roots == {-1: 1, 7: 1}
    assert residual == root_oracles.poly_mul((-3, 1), (-2, 0, 1))
    # Guesses outside [-bound, bound] are not tried.
    assert intpoly.integer_roots(p, bound=5, guesses=[3.0, 7.0])[0] == {-1: 1, 3: 1}


def _bisect_reference(p, cell, bits):
    """Plain sign bisection of a cell to width 2^-bits: the cell refine_root
    must return, whatever its Newton steps reach."""
    lo, hi, shift, s_lo, s_hi = cell
    if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
        raise ValueError("interval endpoints do not certify a sign change")
    while (hi - lo) << bits > 1 << shift:
        mid, shift = lo + hi, shift + 1
        s_mid = intpoly.sign_at(p, mid, 1 << shift)
        if s_mid == 0:
            raise ValueError("rational root encountered during refinement")
        lo, hi = (mid, 2 * hi) if s_mid == s_lo else (2 * lo, mid)
    return lo, hi, shift, s_lo, s_hi


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(-12, 12), min_size=3, max_size=7).filter(lambda c: c[-1] != 0),
    depth=st.integers(0, 44),
    pick=st.integers(0, 10),
)
def test_refine_root_ends_in_the_cell_of_plain_bisection(coeffs, depth, pick):
    """Newton steps from the cell's midpoint, then the signs at the ends of
    the grid cell they reach, then bisection: the same cell, or the same
    error, as plain sign bisection."""
    p = tuple(coeffs)
    p = intpoly.poly_div_exact(p, intpoly.poly_gcd(p, intpoly.poly_derivative(p)))
    assume(intpoly.poly_degree(p) >= 1)
    try:
        intervals = intpoly.isolate_real_roots(p)
    except ValueError:  # a rational root on a bisection point
        assume(False)
    assume(intervals)
    cell = intervals[pick % len(intervals)]
    assert _outcome(intpoly.refine_root, p, cell, depth) == _outcome(_bisect_reference, p, cell, depth)


def test_a_rational_root_on_a_grid_point_is_raised_with_the_point():
    """Isolation and refinement name the dyadic point where p is 0, so the
    caller can divide that root out."""
    cubic = root_oracles.poly_mul((-1, 1), (-2, 0, 1))  # (x - 1)(x^2 - 2): bisection of [-4, 4] hits 1
    with pytest.raises(intpoly.RationalRootError, match="during isolation") as isolated:
        intpoly.isolate_real_roots(cubic, 4)
    quadratic = (3, -4, 1)  # (x - 1)(x - 3): the midpoint of the cell (0, 2) is 1
    with pytest.raises(intpoly.RationalRootError, match="during refinement") as refined:
        intpoly.refine_root(quadratic, (0, 2, 0, 1, -1), 4)
    for exc in (isolated.value, refined.value):
        assert isinstance(exc, ValueError) and exc.num == exc.den


def test_refine_root_by_newton_steps_needs_few_signs(monkeypatch):
    """x^2 - 2 from the cell (1, 2) to 2^-40: Newton steps from 3/2 reach the
    root's grid cell, whose two ends are the only signs taken (plain
    bisection takes 40)."""
    calls, evals = [], []
    sign_at, poly_eval = intpoly.sign_at, intpoly.poly_eval
    monkeypatch.setattr(intpoly, "sign_at", lambda p, *x: calls.append(x) or sign_at(p, *x))
    monkeypatch.setattr(intpoly, "poly_eval", lambda p, x: evals.append(x) or poly_eval(p, x))
    p, cell = (-2, 0, 1), (1, 2, 0, -1, 1)  # the endpoint signs come with the cell
    got = intpoly.refine_root(p, cell)
    assert len(calls) == 2  # the two ends of the cell the Newton steps reach
    assert 0 < len(evals) <= 2 * (40).bit_length()
    assert got == _bisect_reference(p, cell, 40)


# ---------------------------------------------------------------------------
# The integer-grid root path against its Fraction form (tests/root_oracles.py)
# ---------------------------------------------------------------------------

_QUADRATICS = st.integers(-12, 12).flatmap(  # x^2 + b x + c with b^2 > 4c
    lambda b: st.integers(-30, (b * b - 1) // 4).map(lambda c: (c, b, 1)))


def _depressed_cubics(b):
    """x^3 + b x + c for b < 0, with three distinct real roots: 27 c^2 < -4 b^3."""
    bound = math.isqrt(-4 * b ** 3 // 27)
    return st.integers(-bound, bound).filter(lambda c: 27 * c * c < -4 * b ** 3).map(lambda c: (c, b, 0, 1))


_CUBICS = st.builds(intpoly.poly_shift, st.integers(-24, -3).flatmap(_depressed_cubics), st.integers(-3, 3))


def _scaled_product(factors, scale):
    p = (scale,)
    for f in factors:
        p = root_oracles.poly_mul(p, f)
    return p


# Real-rooted quadratics and cubics, times a content that may be negative.
_REAL_ROOTED = st.builds(_scaled_product, st.lists(st.one_of(_QUADRATICS, _CUBICS), min_size=1, max_size=3),
                         st.sampled_from((1, -1, 2, -3)))


def _as_fractions(outcome):
    """A cell outcome with Fraction ends, for comparison with the oracle; errors as they are."""
    return root_oracles.cell_fractions(outcome) if len(outcome) == 5 else outcome


def _check_root_path_against_oracle(p, bound, data):
    """Isolation, then refinement of every cell, against the Fraction oracle;
    p has all its roots real and in [-bound, bound], so there is one cell per
    degree.  Each cell is refined as isolation returned it and with its ends
    scaled by 2^3."""
    want = _outcome(root_oracles.isolate_real_roots, p, bound)
    got = _outcome(intpoly.isolate_real_roots, p, bound)
    if not isinstance(want, list):  # a rational root on a bisection point
        assert got == want
        return
    sign = root_oracles.fraction_sign
    assert [_as_fractions(cell) for cell in got] == [(lo, hi, sign(p, lo), sign(p, hi)) for lo, hi in want]
    assert len(got) == intpoly.poly_degree(p)
    bits = data.draw(st.sampled_from((0, 3, 17, 40, 44)))
    for i, cell in enumerate(got):
        lo, hi, shift, s_lo, s_hi = cell
        scaled = (lo << 3, hi << 3, shift + 3, s_lo, s_hi)
        want_cell = _outcome(root_oracles.refine_root, p, *want[i], Fraction(1, 1 << bits))
        assert _as_fractions(_outcome(intpoly.refine_root, p, cell, bits)) == want_cell
        assert _as_fractions(_outcome(intpoly.refine_root, p, scaled, bits)) == want_cell


@settings(max_examples=60, deadline=None)
@given(p=_REAL_ROOTED, data=st.data())
def test_real_rooted_products_match_the_fraction_oracle(p, data):
    assume(intpoly.poly_degree(intpoly.poly_gcd(p, intpoly.poly_derivative(p))) == 0)
    _check_root_path_against_oracle(p, intpoly.root_bound(intpoly.primitive(p)), data)


@settings(max_examples=150, deadline=None)
@given(p=_REAL_ROOTED, pick=st.integers(0, 8), scale=st.integers(0, 6), bits=st.integers(0, 48))
def test_refine_root_ends_in_the_oracle_cell(p, pick, scale, bits):
    """Any cell of a root, in any form (its ends scaled by 2^scale), ends in
    the cell the Fraction oracle's bisection reaches."""
    assume(intpoly.poly_degree(intpoly.poly_gcd(p, intpoly.poly_derivative(p))) == 0)
    cells = _outcome(intpoly.isolate_real_roots, p)
    assume(isinstance(cells, list) and cells)
    lo, hi, shift, s_lo, s_hi = cells[pick % len(cells)]
    cell = (lo << scale, hi << scale, shift + scale, s_lo, s_hi)
    flo, fhi, _s_lo, _s_hi = root_oracles.cell_fractions(cell)
    want = _outcome(root_oracles.refine_root, p, flo, fhi, Fraction(1, 1 << bits))
    assert _as_fractions(_outcome(intpoly.refine_root, p, cell, bits)) == want


def test_intpoly_does_not_import_fractions():
    """Root cells are integers over a power of two from isolation to the
    caller; a second, Fraction form of them is not to come back."""
    tree = ast.parse(Path(intpoly.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert imported and not any(name.split(".")[0] == "fractions" for name in imported)


def _criterion4(max_size, max_cell=5):
    """Criterion-4 block strings of 1 to max_size blocks, cells of 1 to max_cell vertices."""
    cell = st.integers(1, max_cell)
    return st.lists(st.tuples(cell, cell), min_size=1, max_size=max_size)


_CRITERION4 = _criterion4(6)


@settings(max_examples=40, deadline=None)
@given(blocks=_CRITERION4, data=st.data())
def test_musser_factors_of_quotient_charpolys_match_the_fraction_oracle(blocks, data):
    b = BlockString(tuple(blocks))
    _roots, residual = intpoly.integer_roots(intpoly.char_poly_ints(quotient_matrix(b).cell_sizes), bound=b.n)
    factors = intpoly.square_free_decomposition(residual) if intpoly.poly_degree(residual) >= 1 else []
    for factor, _mult in factors:
        _check_root_path_against_oracle(factor, b.n, data)


def _sixty_strings():
    """60 fixed criterion-4 strings (random.Random(60)): k <= 6, n <= 60."""
    rng = random.Random(60)
    return [random_block_string(rng) for _ in range(60)]


# The evaluators of intpoly and the points each call evaluates: placement
# reads both ends of a cell in one poly_eval_pair call.
_EVALUATED_POINTS = (("sign_at", 1), ("poly_eval", 1), ("poly_eval_pair", 2))


def _count_root_path_evaluations(monkeypatch, strings):
    """Run exact_spectrum on the strings and count: "signs", the sign
    evaluations under isolate_real_roots and refine_root (sign_at calls,
    and two for each poly_eval_pair call of guess placement);
    "refine_signs", the sign_at calls made by refine_root itself; "sturm",
    the Sturm evaluations made by isolate_real_roots; and the calls of each
    of the two, under its own name."""
    counts, open_calls = {"signs": 0, "refine_signs": 0, "sturm": 0}, []
    sign_at, sign_variations, eval_pair = intpoly.sign_at, intpoly._sign_variations, intpoly.poly_eval_pair

    def counting_sign_at(*args):
        if open_calls:
            counts["signs"] += 1
            counts["refine_signs"] += open_calls[-1] == "refine_root"
        return sign_at(*args)

    def counting_eval_pair(*args):
        counts["signs"] += 2 * bool(open_calls)
        return eval_pair(*args)

    def counting_sign_variations(*args):
        counts["sturm"] += bool(open_calls) and open_calls[-1] == "isolate_real_roots"
        return sign_variations(*args)

    def tracked(name):
        fn = getattr(intpoly, name)
        counts[name] = 0

        def wrapper(*args, **kwargs):
            open_calls.append(name)
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                open_calls.pop()
        return wrapper

    monkeypatch.setattr(intpoly, "sign_at", counting_sign_at)
    monkeypatch.setattr(intpoly, "poly_eval_pair", counting_eval_pair)
    monkeypatch.setattr(intpoly, "_sign_variations", counting_sign_variations)
    for name in ("isolate_real_roots", "refine_root"):
        monkeypatch.setattr(intpoly, name, tracked(name))
    for b in strings:
        exact_spectrum(b)
    return counts


def test_isolation_and_refinement_sign_evaluations_halved(monkeypatch):
    """The sign evaluations under isolate_real_roots and refine_root, for the
    60 fixed criterion-4 strings, are at most half of the Fraction form's:
    23267, counted the same way with every interval end recounted and both
    endpoint signs evaluated again in refine_root.  Below n = 128 the guessed
    cells are on the final grid already, so refine_root evaluates no sign."""
    counts = _count_root_path_evaluations(monkeypatch, _sixty_strings())
    assert counts["signs"] <= 23267 // 2
    assert counts["refine_root"] > 0 and counts["refine_signs"] == 0


def test_refine_root_evaluates_through_the_counted_sign_at(monkeypatch):
    """From n = 2^28 on, validate refines each root cell beyond the final
    grid, and refine_root narrows it through intpoly.sign_at, which the
    benchmark counts."""
    rng = random.Random(8)
    counts = _count_root_path_evaluations(monkeypatch, [cut_block_string(rng, 8, 1 << 30)])
    assert counts["refine_signs"] > 0


# ---------------------------------------------------------------------------
# Guessed isolation: the Sturm count certifies the cells the guesses locate
# ---------------------------------------------------------------------------

def _residual_factors(b):
    """(factor, bound, residual's Sturm chain) of each square-free factor of the quotient
    charpoly of b left after every integer root is stripped, as
    spectra._quotient_roots isolates it, with the float guesses of the quotient.
    The integer roots are the quotient spectrum's, each checked by exact
    division; a scan of [-n, n] for them would be linear in n."""
    q = quotient_matrix(b)
    residual = intpoly.char_poly_ints(q.cell_sizes)
    for v, mult in spectra.quotient_spectrum(b).entries:
        for _ in range(mult if isinstance(v, int) else 0):
            residual, rem = intpoly.synthetic_div(residual, v)
            assert rem == 0
    if intpoly.poly_degree(residual) < 1:
        return [], []
    chain = intpoly.sturm_chain(residual)
    factors = [(f, b.n, chain) for f, _mult in intpoly.square_free_decomposition(residual, chain)]
    return factors, spectra._quotient_guesses(q)


def _refined_cells(factor, bound, chain, guesses):
    return [intpoly.refine_root(factor, cell, spectra.INTERVAL_BITS)
            for cell in intpoly.isolate_real_roots(factor, bound, guesses, chain)]


def _placement_width(b):
    """Width of the cells of the final grid of the [-b, b] bisection tree,
    where guesses are placed: its first width <= 2^-GRID_BITS."""
    limit = Fraction(1, 1 << intpoly.GRID_BITS)
    width = Fraction(2 * b)
    while width > limit:
        width /= 2
    return width


@settings(max_examples=40, deadline=None)
@given(blocks=_criterion4(12) | _criterion4(12, 4 * 10 ** 13), data=st.data())
def test_guessed_isolation_refines_to_the_cells_of_bisection(blocks, data):
    """Isolation then refinement ends in the same cells with the true guesses,
    with every guess moved by one final cell either way (the neighbour
    probe, or Newton steps from n = 128 on) or by many (Newton steps or the
    Sturm fallback), with one guess dropped, and with no guesses (Sturm
    bisection alone), for n up to about 10^15."""
    b = BlockString(tuple(blocks))
    factors, guesses = _residual_factors(b)
    width = float(_placement_width(b.n))
    near = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(guesses), max_size=len(guesses)))
    far = data.draw(st.lists(st.integers(-(1 << 20), 1 << 20).filter(lambda t: abs(t) > 1),
                             min_size=len(guesses), max_size=len(guesses)))
    dropped = data.draw(st.integers(0, max(len(guesses) - 1, 0)))
    for factor, bound, chain in factors:
        want = _refined_cells(factor, bound, chain, [])
        assert _refined_cells(factor, bound, chain, guesses) == want
        for moves in (near, far):
            assert _refined_cells(factor, bound, chain, [g + t * width for g, t in zip(guesses, moves)]) == want
        assert _refined_cells(factor, bound, chain, guesses[:dropped] + guesses[dropped + 1:]) == want


def test_guesses_locate_every_root_up_to_n_10_24(monkeypatch):
    """Every guess, moved by Newton steps from n = 128 on, holds its root's
    final cell or neighbours it, so isolation never falls back to Sturm
    bisection on these 101 strings (k <= 12, n up to 10^24, cells within
    the float range); each placed cell has the final width of its bound.
    Cells of a fixed width 2^-20 sent strings from about n = 2^39 on to
    Sturm bisection."""
    bisected, placed = [], []
    bisect_cells, guessed_cells = intpoly._bisected_cells, intpoly._guessed_cells

    def placing(p, b, *args):
        cells = guessed_cells(p, b, *args)
        placed.append((b, cells))
        return cells

    monkeypatch.setattr(intpoly, "_bisected_cells", lambda *args: bisected.append(args) or bisect_cells(*args))
    monkeypatch.setattr(intpoly, "_guessed_cells", placing)
    rng = random.Random(39)
    strings = [parse_block_string("0^549755813888 1^549755813895 0^3 1^5")]  # 2^39 and 2^39 + 7
    for _ in range(100):
        k = rng.randint(1, 12)
        strings.append(cut_block_string(rng, k, rng.randint(2 * k, 10 ** rng.randint(2, 24))))
    assert max(b.n for b in strings) > 10 ** 23
    for b in strings:
        exact_spectrum(b)
    assert not bisected and placed
    for b, cells in placed:
        assert all(Fraction(hi - lo, 1 << shift) == _placement_width(b) for lo, hi, shift, _s, _t in cells)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), bits=st.integers(7, 66), data=st.data())
def test_placed_cells_are_the_oracle_cells_of_sturm_bisection(k, bits, data):
    """For n in [128, 10^20], isolate_real_roots places every root of each
    residual factor from the guesses in exactly the cell that the Fraction
    oracle's refinement to 2^-GRID_BITS reaches from its Sturm-bisected
    cells: the final cell, with no refinement left."""
    n = data.draw(st.integers(max(128, 1 << bits), min(10 ** 20, 2 << bits)), label="n")
    b = cut_block_string(random.Random(data.draw(st.integers(0, 2 ** 32), label="seed")), k, n)
    factors, guesses = _residual_factors(b)
    width = Fraction(1, 1 << intpoly.GRID_BITS)
    for factor, bound, chain in factors:
        want = [root_oracles.refine_root(factor, lo, hi, width) for lo, hi in root_oracles.isolate_real_roots(factor, bound)]
        got = intpoly.isolate_real_roots(factor, bound, guesses, chain)
        assert [root_oracles.cell_fractions(cell) for cell in got] == want


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), bits=st.integers(7, 66), data=st.data())
def test_placement_does_not_depend_on_the_order_of_the_guesses(k, bits, data):
    """_guessed_cells takes the guesses in any order: on the strings of the
    test above, the guesses reversed and shuffled certify the same cells as
    in ascending order whenever both orders certify a cell for every root
    of a factor.  (Degree-many certified cells are then the final-grid cells
    of the roots, one each, so the cells are determined.)"""
    n = data.draw(st.integers(max(128, 1 << bits), min(10 ** 20, 2 << bits)), label="n")
    b = cut_block_string(random.Random(data.draw(st.integers(0, 2 ** 32), label="seed")), k, n)
    factors, guesses = _residual_factors(b)
    shuffled = data.draw(st.permutations(guesses), label="shuffled")
    for factor, bound, _chain in factors:
        total = intpoly.poly_degree(factor)
        want = intpoly._guessed_cells(factor, bound, total, guesses)
        for order in (guesses[::-1], shuffled):
            got = intpoly._guessed_cells(factor, bound, total, order)
            if want is not None and got is not None and len(want) == len(got) == total:
                assert got == want


def test_a_missing_guess_falls_back_to_sturm_bisection(monkeypatch):
    b = parse_block_string("0^3 1 0^2 1^4 0 1^2 0^5 1")
    [(factor, bound, chain)], guesses = _residual_factors(b)
    assert intpoly.poly_degree(factor) >= 3
    bisected = []
    bisect_cells = intpoly._bisected_cells
    monkeypatch.setattr(intpoly, "_bisected_cells", lambda *args: bisected.append(args) or bisect_cells(*args))
    want = _refined_cells(factor, bound, chain, guesses)
    assert not bisected  # every root was located from its guess
    lo, hi, shift, _s, _t = intpoly.isolate_real_roots(factor, bound, guesses, chain)[0]
    missing = min(guesses, key=lambda g: abs(g - (lo + hi) / (2 << shift)))
    assert _refined_cells(factor, bound, chain, [g for g in guesses if g != missing]) == want
    assert len(bisected) == 1


def test_roots_outside_the_window_take_the_evaluated_window_count(monkeypatch):
    """(x^2 - 3)(3x^2 - 1), isolated on [-1, 1] as _reciprocal_abs isolates a
    reversed factor: the guesses locate the two roots +-1/sqrt(3) inside,
    fewer than the four real roots, so the chain is evaluated at -1 and 1
    (two Sturm evaluations), and its count of two certifies the cells with
    no bisection.  The cells are those that bisection with no guesses
    reaches."""
    p = root_oracles.poly_mul((-3, 0, 1), (-1, 0, 3))
    chain = intpoly.sturm_chain(p)
    assert intpoly.count_roots_between(chain, None, None) == 4
    evaluated, bisected = [], []
    sign_variations, bisect_cells = intpoly._sign_variations, intpoly._bisected_cells
    monkeypatch.setattr(intpoly, "_sign_variations", lambda *args: evaluated.append(args) or sign_variations(*args))
    monkeypatch.setattr(intpoly, "_bisected_cells", lambda *args: bisected.append(args) or bisect_cells(*args))
    guesses = [-1 / math.sqrt(3), 1 / math.sqrt(3)]
    cells = intpoly.isolate_real_roots(p, 1, guesses, chain)
    assert len(cells) == 2 and len(evaluated) == 2 and not bisected
    assert [intpoly.refine_root(p, cell) for cell in cells] == [
        intpoly.refine_root(p, cell) for cell in intpoly.isolate_real_roots(p, 1, (), chain)]
    assert len(bisected) == 1
    # One guess located: the window count of two sends isolation to bisection.
    assert intpoly.isolate_real_roots(p, 1, guesses[:1], chain) == intpoly.isolate_real_roots(p, 1, (), chain)


def _isolated(p, guesses, bound=None):
    """isolate_real_roots(p, bound) with these guesses, or the point of its RationalRootError."""
    try:
        return intpoly.isolate_real_roots(p, bound, guesses)
    except intpoly.RationalRootError as exc:
        return ("rational root", exc.num, exc.den)


_SQRT2 = math.sqrt(2)


def test_nan_and_infinite_guesses_are_skipped():
    p = (-2, 0, 1)  # x^2 - 2
    finite = [-_SQRT2, _SQRT2]
    assert intpoly._guessed_cells(p, 2, 2, [math.nan, math.inf, -math.inf]) == []
    assert _isolated(p, [math.nan, math.inf, -math.inf]) == _isolated(p, ())
    assert _isolated(p, [math.nan, -_SQRT2, math.inf, _SQRT2, -math.inf]) == _isolated(p, finite)
    assert _isolated(p, finite) != _isolated(p, ())  # the guessed cells are the narrow ones
    # integer_roots skips them too: round() would raise on each.
    q = (2, -3, 1)  # (x - 1)(x - 2)
    assert intpoly.integer_roots(q, guesses=[math.inf, 1.0]) == ({1: 1}, (-2, 1))
    assert intpoly.integer_roots(q, guesses=[math.nan, -math.inf, 2.0, math.inf]) == ({2: 1}, (-1, 1))
    assert intpoly.integer_roots(q, guesses=[math.nan, math.inf, -math.inf]) == ({}, q)


@pytest.mark.parametrize("bound", [None, 128])  # the root bound, and a tree placed by values
@pytest.mark.parametrize("p,guesses", [
    ((0, -2, 0, 1), [-_SQRT2, 0.0, _SQRT2]),  # x^3 - 2x: bisection hits the root 0 too
    ((2, -8, -1, 4), [-_SQRT2, 0.25, _SQRT2]),  # (4x - 1)(x^2 - 2): bisection misses 1/4 in [-4, 4]
])
def test_a_zero_sign_at_a_tree_point_falls_back_to_bisection(p, guesses, bound):
    """A guessed rational root sits on a point of the guess tree, so p is 0
    there and the guesses give way to Sturm bisection, which ends as it does
    with no guesses."""
    b = bound or intpoly.root_bound(p)
    total = intpoly.count_roots_between(intpoly.sturm_chain(p), -b, b)
    assert intpoly._guessed_cells(p, b, total, guesses) is None
    assert _isolated(p, guesses, bound) == _isolated(p, (), bound)


def test_guessed_isolation_sign_evaluations_and_sturm_count(monkeypatch):
    """For the 60 fixed criterion-4 strings of the test above: at most 752
    sign evaluations under isolate_real_roots and refine_root, all of them
    guess placement's, two for each poly_eval_pair call (751 points while
    the value at each tree point was kept; the bound was 1801 sign_at calls
    of an earlier placement, and counted none of the poly_eval calls that
    replaced them; 2550 with guess cells of width 2^-20, 7270 when
    isolation bisected with a Sturm evaluation at every point), and no Sturm
    evaluation at all: the guesses located every root, which the count over
    the whole line, read off the chain's leading coefficients, certifies (it
    took two evaluations per isolation, at -bound and bound, when the count
    was of (-bound, bound])."""
    counts = _count_root_path_evaluations(monkeypatch, _sixty_strings())
    assert counts["isolate_real_roots"] > 0
    assert counts["signs"] <= 752
    assert counts["sturm"] == 0


def _bench_workloads():
    """bench/workloads.py, imported as a module of its own."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads_for_tests", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def _spectrum_small_pass_strings(seed: int) -> list[BlockString]:
    """The 500 criterion-4 strings of one spectrum_small pass of the benchmark
    (bench/workloads.py: criterion4_slots(500), cut by random.Random(seed))."""
    workloads = _bench_workloads()
    rng = random.Random(seed)
    return [BlockString(workloads.random_blocks(rng, k, n)) for k, n in workloads.criterion4_slots(500)]


def test_placement_sign_evaluations_on_a_spectrum_small_pass(monkeypatch):
    """The points that guess placement (_guessed_cells) evaluates on the
    500 strings of a spectrum_small pass, random.Random(3): 5732, two for
    each poly_eval_pair call.  They were 5707 while the value at each tree
    point was kept and read again by a neighbouring cell, 5709 with the
    four-cell strings' guesses from eigvalsh rather than from their cubic,
    and 7365 with the guesses of stripped integer roots still placed."""
    signs, placing = [0], [0]
    guessed_cells = intpoly._guessed_cells

    def counting(fn, points):
        def wrapper(*args):
            signs[0] += points * (placing[0] > 0)
            return fn(*args)
        return wrapper

    def counting_guessed_cells(*args):
        placing[0] += 1
        try:
            return guessed_cells(*args)
        finally:
            placing[0] -= 1

    for name, points in _EVALUATED_POINTS:
        monkeypatch.setattr(intpoly, name, counting(getattr(intpoly, name), points))
    monkeypatch.setattr(intpoly, "_guessed_cells", counting_guessed_cells)
    for b in _spectrum_small_pass_strings(3):
        exact_spectrum(b)
    assert signs[0] == 5732


# (k, n) of the k = 8-16 strings of the spectrum byte pin, cut by random.Random(8).
_PINNED_LARGE_SLOTS = ((8, 20_000), (8, 2_000), (9, 10_000), (10, 2_000), (11, 1_000), (12, 500),
                       (13, 300), (14, 100), (15, 80), (16, 64), (16, 20_000))


def test_spectrum_bytes_are_pinned():
    """sha256 over serialize() of the 500 strings of a spectrum_small pass,
    random.Random(1), and 11 seeded strings with k = 8-16 and n up to
    2 * 10^4, one JSON line each: a change to the spectrum path that moves
    any printed value or multiplicity fails here."""
    workloads = _bench_workloads()
    rng = random.Random(8)
    strings = _spectrum_small_pass_strings(1)
    strings += [BlockString(workloads.random_blocks(rng, k, n)) for k, n in _PINNED_LARGE_SLOTS]
    digest = hashlib.sha256()
    for b in strings:
        digest.update(json.dumps(exact_spectrum(b).serialize()).encode() + b"\n")
    assert digest.hexdigest() == "3ceee448c448aa7439faf23cad32bd10d97c1946d3636e402f35099fb32d0473"


def test_integer_root_trial_divisions_on_a_spectrum_small_pass(monkeypatch):
    """The synthetic divisions that integer_roots makes on the 500 strings
    of a spectrum_small pass, random.Random(3): 763.  They were 797 while
    four-cell strings with two equal arcs, 15 of this pass, were stripped by
    integer_roots rather than read off their closed form
    (spectra._four_cell_roots), and 1416 when the rounding of every guess
    was a candidate, most of the extra ones the rounding of a non-integer
    guess that divides the constant term; now a candidate is a guess within
    n * 2^-40 of an integer (spectra._integer_candidates)."""
    divisions, stripping = [0], [0]
    synthetic_div, integer_roots = intpoly.synthetic_div, intpoly.integer_roots

    def counting_synthetic_div(*args):
        divisions[0] += stripping[0] > 0
        return synthetic_div(*args)

    def counting_integer_roots(*args, **kwargs):
        stripping[0] += 1
        try:
            return integer_roots(*args, **kwargs)
        finally:
            stripping[0] -= 1

    monkeypatch.setattr(intpoly, "synthetic_div", counting_synthetic_div)
    monkeypatch.setattr(intpoly, "integer_roots", counting_integer_roots)
    for b in _spectrum_small_pass_strings(3):
        exact_spectrum(b)
    assert divisions[0] == 763


def test_placement_evaluations_on_a_spectrum_large_pass(monkeypatch):
    """The points that guess placement (_guessed_cells) evaluates on the
    non-refused inputs of a spectrum_large pass, seed 1, per input class,
    two for each poly_eval_pair call: 482 in all (462 while the value at
    each tree point was kept), none above the 766 (386 sign_at, 380
    poly_eval) made when every guess from b = 128 on took Newton steps
    before any cell was tried.  From b = 128 on each guess's own cell, then
    the secant steps through cell ends, place every guess; below (k14, k16)
    the evaluations are those of the neighbour search."""
    counts: dict[str, int] = {}
    placing, label = [0], [""]

    def counting(fn, points):
        def wrapper(*args):
            if placing[0]:
                counts[label[0]] = counts.get(label[0], 0) + points
            return fn(*args)
        return wrapper

    def counting_guessed_cells(*args):
        placing[0] += 1
        try:
            return guessed_cells(*args)
        finally:
            placing[0] -= 1

    guessed_cells = intpoly._guessed_cells
    for name, points in _EVALUATED_POINTS:
        monkeypatch.setattr(intpoly, name, counting(getattr(intpoly, name), points))
    monkeypatch.setattr(intpoly, "_guessed_cells", counting_guessed_cells)
    [ops] = _bench_workloads().make_passes("spectrum_large", 1, 1)
    for op in ops:
        if not op.refuse:
            label[0] = op.label
            exact_spectrum(BlockString(op.data))
    before = {"k8_n20000": 262, "k10_n2000": 164, "k12_n500": 188, "k14_n100": 54, "k16_n64": 62,
              "k2_n1e5-3e5": 36}
    assert counts == {"k8_n20000": 156, "k10_n2000": 88, "k12_n500": 98, "k14_n100": 54, "k16_n64": 62,
                      "k2_n1e5-3e5": 24}
    assert all(counts[c] <= before[c] for c in before) and sum(counts.values()) == 482 < 766


def test_a_stalled_secant_walk_gives_way_to_sturm_bisection():
    """(2^41 x - 2^40 - 1)^2 - 2^6 has its vertex at the midpoint of the
    final cell (1/2, 1/2 + 2^-40) of the [-128, 128] tree, and its roots 4
    cells either side.  A guess in that cell sees equal values at its ends,
    so the secant has no slope and the walk stops there; neither the cell
    nor its neighbours hold a root, so no cell is placed and isolation ends
    as it does with no guesses."""
    half = (-(1 << 40) - 1, 1 << 41)
    p = root_oracles.poly_add(root_oracles.poly_mul(half, half), (-(1 << 6),))
    guesses = [0.5 + 2.0 ** -42, 0.5 + 3 * 2.0 ** -42]
    assert intpoly._guessed_cells(p, 128, 2, guesses) == []
    assert _isolated(p, guesses, 128) == _isolated(p, (), 128)


def _bench_inputs(workload: str, seed: int) -> list[BlockString]:
    """The non-refused inputs of one pass of a benchmark spectrum workload
    (bench/workloads.py), drawn from the seed."""
    [ops] = _bench_workloads().make_passes(workload, seed, 1)
    return [BlockString(op.data) for op in ops if not op.refuse]


def test_spectrum_large_cells_are_placed_final(monkeypatch):
    """On the inputs of one spectrum_large pass (k up to 16, n up to 10^6),
    every cell is placed on the final grid, so refine_root, called on each
    (193 calls), evaluates no sign.  It made 396 when cells from n = 128 on
    were placed about n * 2^-47 wide and refined from their guess."""
    counts = _count_root_path_evaluations(monkeypatch, _bench_inputs("spectrum_large", 1))
    assert counts["refine_root"] > 0
    assert counts["refine_signs"] == 0


def test_refinement_for_validate_at_n_10_300_takes_few_evaluations(monkeypatch):
    """0^(10^300) 1^5 0 1: validate refines each root cell to
    2^-(bitlen(n) + 12), about 1000 bits.  The sign_at and poly_eval calls
    inside refine_root are pinned below a bound just over the 2062 and 78
    measured; plain bisection from the placed cells took 6926 signs and no
    poly_eval.  Most of what is left is bisection of the two cells that
    Sturm bisection isolates: their guesses are about 10^284 from roots
    near 4, too far for Newton steps, which refine_root takes from the
    midpoints of those cells too.  Guess placement (_guessed_cells)
    evaluates 60 points, two for each poly_eval_pair call, and the secant
    walks of those two guesses certify no cell, so each tries both
    neighbours of the cell where it stops; keeping the value at each tree
    point saved the 4 points those neighbours share with it (56).  Newton
    steps from every guess before any cell was tried made 60 evaluations."""
    counts, scope = {}, [None]

    def counting(name, points):
        fn = getattr(intpoly, name)

        def wrapper(*args):
            if scope[0]:
                counts[scope[0], name] = counts.get((scope[0], name), 0) + points
            return fn(*args)
        return wrapper

    def scoped(name):
        fn = getattr(intpoly, name)

        def wrapper(*args):
            outer, scope[0] = scope[0], name
            try:
                return fn(*args)
            finally:
                scope[0] = outer
        return wrapper

    for name, points in _EVALUATED_POINTS:
        monkeypatch.setattr(intpoly, name, counting(name, points))
    for name in ("refine_root", "_guessed_cells"):
        monkeypatch.setattr(intpoly, name, scoped(name))
    exact_spectrum(parse_block_string(f"0^{10 ** 300} 1^5 0 1"))
    assert counts.get(("refine_root", "sign_at"), 0) <= 2100
    assert counts.get(("refine_root", "poly_eval"), 0) <= 100
    assert sum(counts.get(("_guessed_cells", name), 0) for name, _points in _EVALUATED_POINTS) == 60
