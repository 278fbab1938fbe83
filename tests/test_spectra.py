import ast
import functools
import io
import math
import operator
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import root_oracles
from conftest import cut_block_string, poly_pow, random_block_string, random_graph
from seidelchain import (
    BlockString,
    CharPoly,
    ExactSpectrum,
    Graph,
    RootInterval,
    SeidelMatrix,
    Surd,
    build_chain_graph,
    canonical_bits,
    char_poly,
    chain_graph,
    equiangular_params,
    exact_spectrum,
    four_cell_class,
    four_cell_spectrum,
    is_integral,
    numeric_spectrum,
    parse_block_string,
    quotient_matrix,
    quotient_spectrum,
    seidel_matrix,
    spectrum_from_counts,
    switch_on_subset,
)
from seidelchain import cli, intpoly, spectra
from seidelchain.families import (
    generate_cospectral_pair,
    generate_integral_family,
    mirror_chain_string,
    unit_chain_spectrum,
    unit_chain_string,
)
from seidelchain.spectra import value_cmp, value_to_string


def _raise(*args, **kwargs):
    raise AssertionError("not to be called")


class _Spy:
    """Counts the calls of a wrapped function."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Seidel and quotient matrices
# ---------------------------------------------------------------------------

def test_seidel_k2():
    s = seidel_matrix(chain_graph("01"))
    assert s.entries.tolist() == [[0, -1], [-1, 0]]


def test_seidel_empty_graph():
    s = seidel_matrix(Graph.empty(3))
    assert s.entries.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_seidel_block_template():
    # 0 1^2 0^2 1: cells {0}, {1,2}, {3,4}, {5}; edges 0-1, 0-2, 0-5, 3-5, 4-5.
    s = seidel_matrix(chain_graph("0 1^2 0^2 1"))
    assert s.entries.tolist() == [
        [0, -1, -1, 1, 1, -1],
        [-1, 0, 1, 1, 1, 1],
        [-1, 1, 0, 1, 1, 1],
        [1, 1, 1, 0, 1, -1],
        [1, 1, 1, 1, 0, -1],
        [-1, 1, 1, -1, -1, 0],
    ]


def test_seidel_entry_identities():
    rng = random.Random(21)
    for _ in range(10):
        g = build_chain_graph(random_block_string(rng, max_k=4, max_n=25))
        s = seidel_matrix(g)
        entries = s.entries.tolist()
        assert sum(entries[i][i] for i in range(s.n)) == 0
        assert sum(x * x for row in entries for x in row) == s.n * (s.n - 1)


@pytest.mark.parametrize("n,entries,message", [
    (2, ((0, 1),), "entries are not an n x n matrix"),
    (2, ((0, 1), (1,)), "entries are not an n x n matrix"),
    (2, ((0, 1, 1), (1, 0, 1)), "entries are not an n x n matrix"),
    (2, ((1, 1), (1, 0)), "diagonal must be zero"),
    (3, ((0, 1, 1), (1, 0, 1), (1, 1, -1)), "diagonal must be zero"),
    (2, ((0, 2), (2, 0)), "off-diagonal entries must be -1 or +1"),
    (3, ((0, 1, 0), (1, 0, 1), (0, 1, 0)), "off-diagonal entries must be -1 or +1"),
    (2, ((0, 1), (-1, 0)), "matrix must be symmetric"),
    # A bad entry below the diagonal shows as asymmetry.
    (3, ((0, 1, 1), (1, 0, 1), (3, 1, 0)), "matrix must be symmetric"),
])
def test_seidel_matrix_rejects(n, entries, message):
    with pytest.raises(ValueError) as exc:
        SeidelMatrix(n, entries)
    assert str(exc.value) == message


@pytest.mark.parametrize("refused, message", [
    (lambda: Graph.from_edges(3, [(0, 1), (2, 2)]), "self-loops not allowed"),
    (lambda: Graph.from_edges(3, []).relabel([0, 0, 1]), "perm is not a permutation of the vertices"),
    (lambda: switch_on_subset(Graph.from_edges(3, []), [0, 3]),
     "subset contains vertices outside the graph"),
    (lambda: canonical_bits(Graph.from_edges(21, [])), "canonical labeling is capped at 20 vertices"),
    (lambda: Surd(1, 0, 2, 1), "sign must be -1 or +1"),
    (lambda: Surd(1, 1, 2, 0), "zero denominator"),
    (lambda: Surd(1, 1, 0, 2), "radicand must be positive"),
    (lambda: Surd(1, -1, -3, 2), "radicand must be positive"),
    (lambda: CharPoly((1, 2)), "characteristic polynomial must be monic"),
    (lambda: CharPoly(()), "characteristic polynomial must be monic"),
    (lambda: ExactSpectrum(()).validate(), "empty spectrum"),
    (lambda: unit_chain_string(0, 3), "block sizes must be positive"),
    (lambda: unit_chain_string(2, -1), "block sizes must be positive"),
])
def test_library_refusals_name_their_cause(refused, message):
    with pytest.raises(ValueError) as exc:
        refused()
    assert str(exc.value) == message


def test_spectrum_str_matches_the_readme_tour():
    assert str(exact_spectrum(parse_block_string("0 1^5 0^5 1^4"))) == "{-6, -1^12, 9^2}"


def test_seidel_matrix_entries_are_a_read_only_int8_copy():
    source = np.array([[0, -1], [-1, 0]])
    s = SeidelMatrix(2, source)
    source[0, 1] = 1
    assert s.entries.dtype == np.int8 and not s.entries.flags.writeable
    assert s.entries.tolist() == [[0, -1], [-1, 0]]
    assert SeidelMatrix(0, ()).entries.shape == (0, 0)
    assert seidel_matrix(Graph.empty(0)).entries.shape == (0, 0)


def test_seidel_matrix_matches_the_entrywise_rule():
    rng = random.Random(27)
    graphs = [random_graph(rng, rng.randint(1, 40)) for _ in range(30)]
    graphs += [build_chain_graph(random_block_string(rng, max_k=5, max_n=80)) for _ in range(20)]
    for g in graphs:
        rule = [[0 if w == v else (-1 if (row >> w) & 1 else 1) for w in range(g.n)]
                for v, row in enumerate(g.rows)]
        s = seidel_matrix(g)
        assert s.entries.tolist() == rule
        reference = np.linalg.eigvalsh(np.array(rule, dtype=float))
        assert np.abs(np.array(numeric_spectrum(s)) - reference).max() < 1e-12


def test_seidel_matrix_of_a_graph_is_the_checked_matrix_read_only():
    """seidel_matrix skips the constructor's checks for a checked graph; its
    entries are still those the checked constructor keeps, and read-only."""
    rng = random.Random(37)
    graphs = [Graph.empty(0), Graph.empty(1)] + [random_graph(rng, rng.randint(2, 40)) for _ in range(40)]
    graphs += [build_chain_graph(random_block_string(rng, max_k=5, max_n=40)) for _ in range(20)]
    for g in graphs:
        s = seidel_matrix(g)
        checked = SeidelMatrix(g.n, s.entries)
        assert s.n == g.n and s.entries.shape == (g.n, g.n)
        assert s.entries.dtype == checked.entries.dtype == np.int8
        assert np.array_equal(s.entries, checked.entries)
        assert not s.entries.flags.writeable


def test_quotient_matrix_examples():
    q = quotient_matrix(parse_block_string("0 1^3 0^3 1^7"))
    assert q.entries == (
        (0, -3, 3, -7),
        (-1, 2, 3, 7),
        (1, 3, 2, -7),
        (-1, 3, -3, 6),
    )
    assert q.cell_sizes == (1, 3, 3, 7)
    assert quotient_matrix(parse_block_string("01")).entries == ((0, -1), (-1, 0))


def test_quotient_rows_are_built_when_read(monkeypatch):
    """quotient_matrix keeps the cell sizes; the rows are built on the first
    read of entries, once, and exact_spectrum never reads them."""
    q = quotient_matrix(parse_block_string("0 1^3 0^3 1^7"))
    assert "entries" not in vars(q)
    rows = q.entries
    assert vars(q)["entries"] is rows and q.entries is rows
    assert q == quotient_matrix(parse_block_string("0 1^3 0^3 1^7"))
    built = []
    monkeypatch.setattr(spectra, "quotient_matrix", lambda b: built.append(quotient_matrix(b)) or built[-1])
    exact_spectrum(parse_block_string("0 1^2 0^3 1 0 1^4"))
    assert len(built) == 1 and "entries" not in vars(built[0])


def test_quotient_row_sums_are_equitable():
    rng = random.Random(22)
    for _ in range(15):
        b = random_block_string(rng, max_k=4, max_n=25)
        g = build_chain_graph(b)
        s = seidel_matrix(g).entries.tolist()
        q = quotient_matrix(b)
        cells = [(start, size) for _lab, start, size in b.cells()]
        for p, (p_start, p_size) in enumerate(cells):
            for qq, (q_start, q_size) in enumerate(cells):
                for v in range(p_start, p_start + p_size):
                    row_sum = sum(s[v][w] for w in range(q_start, q_start + q_size))
                    assert row_sum == q.entries[p][qq]


def test_char_poly_order_cap():
    assert char_poly(quotient_matrix(BlockString(((1, 1),) * 128))).degree == 256
    with pytest.raises(ValueError, match="exceeds cap 256"):
        char_poly(quotient_matrix(BlockString(((1, 1),) * 129)))


# ---------------------------------------------------------------------------
# Exact spectra
# ---------------------------------------------------------------------------

def test_exact_spectrum_examples():
    assert exact_spectrum(parse_block_string("01^3 0^3 1^7")).entries == (
        (-5, 1), (-1, 11), (5, 1), (11, 1))
    assert exact_spectrum(parse_block_string("0^2 1^4 0^4 1^2")).entries == (
        (-5, 1), (-1, 9), (7, 2))
    assert exact_spectrum(parse_block_string("01^6 0^6 1^26")).entries == (
        (-10, 1), (-1, 36), (11, 1), (35, 1))
    assert exact_spectrum(parse_block_string("01")).entries == ((-1, 1), (1, 1))


def test_exact_spectrum_complete_bipartite():
    # K_{3,7}: quotient roots -1 and 9, then -1 appended n-2k = 8 more times.
    assert exact_spectrum(parse_block_string("0^3 1^7")).entries == ((-1, 9), (9, 1))


def test_full_char_poly_factors_through_quotient():
    rng = random.Random(23)
    for _ in range(10):
        b = random_block_string(rng, max_k=4, max_n=40)
        g = build_chain_graph(b)
        full = root_oracles.faddeev_leverrier(seidel_matrix(g).entries)
        quot = char_poly(quotient_matrix(b)).coeffs
        lifted = root_oracles.poly_mul(quot, poly_pow((1, 1), b.n - 2 * b.k))
        assert full == lifted


def test_exact_matches_numeric_oracle():
    rng = random.Random(24)
    for _ in range(60):
        b = random_block_string(rng, max_k=6, max_n=60)
        sp = exact_spectrum(b)
        assert sp.n == b.n
        approx = sp.to_floats()
        numeric = numeric_spectrum(seidel_matrix(build_chain_graph(b)))
        assert len(approx) == len(numeric)
        for a, x in zip(approx, numeric):
            assert abs(a - x) < 1e-8


def test_exact_spectrum_assembles_once(monkeypatch):
    assembled = _Spy(spectra.spectrum_from_counts)
    monkeypatch.setattr(spectra, "spectrum_from_counts", assembled)
    for text in ("01", "0^3 1^7", "010101", "0 1^2 0^3 1^4 0 1"):
        assembled.calls = 0
        exact_spectrum(parse_block_string(text))
        assert assembled.calls == 1


_HUGE = 10 ** 20


@settings(max_examples=150, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=6)
       .filter(lambda blocks: sum(s + t for s, t in blocks) <= 60))
@example(blocks=[(_HUGE, _HUGE)])
@example(blocks=[(_HUGE, 1), (_HUGE + 7, 3)])
@example(blocks=[(_HUGE, 3), (7, _HUGE + 1), (2, 5)])
@example(blocks=[(1, _HUGE), (_HUGE, 2), (3, _HUGE + 5), (_HUGE - 1, 1)])
def test_exact_spectrum_is_the_quotient_spectrum_with_minus_one_added(blocks):
    """exact_spectrum assembles its entries once, from the quotient's counts:
    they are quotient_spectrum's entries with n - 2k more copies of -1."""
    b = BlockString(tuple(blocks))
    extra = b.n - 2 * b.k
    want = tuple((v, m + extra) if isinstance(v, int) and v == -1 else (v, m)
                 for v, m in quotient_spectrum(b).entries)
    assert exact_spectrum(b).entries == want


def test_exact_spectrum_needs_the_quotient_eigenvalue_minus_one(monkeypatch):
    monkeypatch.setattr(spectra, "_quotient_counts", lambda b, n: [(-2, 1), (2, 1)])
    with pytest.raises(ArithmeticError, match="lacks the eigenvalue -1"):
        exact_spectrum(parse_block_string("0^3 1^7"))


# ---------------------------------------------------------------------------
# Closed forms for one and two blocks
# ---------------------------------------------------------------------------

def _general_quotient_spectrum(b):
    """The quotient spectrum by the path that k >= 3 takes: quotient matrix,
    principal-minor charpoly and eigensolve guesses."""
    q = quotient_matrix(b)
    return spectrum_from_counts(spectra._quotient_roots(char_poly(q).coeffs, b.n, spectra._quotient_guesses(q)))


def _assert_closed_form_is_general(b):
    assert repr(quotient_spectrum(b).entries) == repr(_general_quotient_spectrum(b).entries), b.caret()


def test_closed_forms_equal_the_general_path_on_every_string_up_to_n_30():
    """k = 2 takes two equal arcs in closed form and isolates every other
    cubic, square-free, with no Sturm chain and no split; the general path builds
    the chain and splits.  Every four-cell string with n <= 30 gets the same
    spectrum from both."""
    strings = 0
    for n in range(2, 31):
        for a in range(1, n):
            _assert_closed_form_is_general(BlockString(((a, n - a),)))
            for b in range(1, n - a):
                for c in range(1, n - a - b):
                    _assert_closed_form_is_general(BlockString(((a, b), (c, n - a - b - c))))
                    strings += 1
    assert strings == math.comb(30, 4)  # every four-cell string with n <= 30


def _forbid_root_search(monkeypatch):
    for name in ("integer_roots", "isolate_real_roots", "sturm_chain"):
        monkeypatch.setattr(intpoly, name, _raise)


@pytest.mark.parametrize("blocks", [
    *(((1, m), (m, m - 1)) for m in (*range(2, 13), 10 ** 20)),  # {m, m, m}
    ((2, 3), (1, 1)),  # {1, 3, 3}: o = 1
    ((1, 1), (1, 1)),  # {1, 1, 2}: the surds -sqrt(5) and sqrt(5)
    ((1, 3), (3, 5)),  # {3, 3, 6}
    ((1, 7), (7, 1)),  # {2, 7, 7}
    ((4, 2), (2, 5)),  # {2, 2, 9}
    ((10 ** 20 - 1, 5), (10 ** 20, 1)),  # {5, 10^20, 10^20}
    ((1, 10 ** 20), (10 ** 20, 10 ** 30)),  # {10^20, 10^20, 10^30 + 1}
])
def test_equal_arcs_take_the_closed_form(monkeypatch, blocks):
    """Two arcs m and a third o: y = 2m is a root of the cubic, so the
    quotient values are -1, 2m - 1 and the roots of x^2 + (2 - o) x +
    (1 - o - 2om), with no root isolated: the values of the general path,
    which builds the Sturm chain and isolates.  At p = q = r = m the
    spectrum is {-(m + 1), -1^(3m - 3), (2m - 1)^2}."""
    b = BlockString(blocks)
    p, q, r = four_cell_class(b)
    assert q in (p, r)
    want = _general_quotient_spectrum(b).entries
    if p == r:
        assert want == ((-(q + 1), 1), (-1, 1), (2 * q - 1, 2))
        assert spectra.has_spectrum(b, ((-(q + 1), 1), (-1, 3 * q - 3), (2 * q - 1, 2)))
    _forbid_root_search(monkeypatch)
    assert repr(quotient_spectrum(b).entries) == repr(want)
    assert exact_spectrum(b) == four_cell_spectrum(r, q, p)


def test_two_equal_arcs_past_the_float_range_take_the_closed_form(monkeypatch):
    """0 1^X 0^X 1^5 with X = 10^1000 - 1 is the unit chain of class {6, X, X}:
    no float guesses its integer value 2X - 1, and none is needed.  Its
    spectrum is the paper's formula (root_oracles.unit_chain_oracle).  And
    0^2 1^3 0 1, of class {1, 3, 3}, is {-3, -1^4, 2, 5}."""
    x = 10 ** 1000 - 1
    _forbid_root_search(monkeypatch)
    sp = exact_spectrum(BlockString(((1, x), (x, 5))))
    assert root_oracles.spectrum_fields(sp) == root_oracles.unit_chain_oracle(2 * x + 6, x)
    assert sp.entries[-1] == (2 * x - 1, 1)  # the largest: the pair is about 2 +- sqrt(12X)
    assert str(exact_spectrum(parse_block_string("0^2 1^3 0 1"))) == "{-3, -1^4, 2, 5}"


@settings(max_examples=150, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 10 ** 15), st.integers(1, 10 ** 15)), min_size=1, max_size=2))
@example(blocks=[(10 ** 15, 10 ** 15), (10 ** 15, 1)])  # p = q = r: a double root
@example(blocks=[(1, 10 ** 15), (10 ** 15 + 1, 10 ** 15 - 1)])  # two roots 4/3 apart near 2 * 10^15
@example(blocks=[(1, 1), (10 ** 15, 1)])  # two roots near -1 +- 2 * sqrt(2)
def test_closed_forms_equal_the_general_path_up_to_n_10_15(blocks):
    _assert_closed_form_is_general(BlockString(tuple(blocks)))


@pytest.mark.parametrize("e", [100, 200, 307, 309, 400])
def test_closed_forms_equal_the_general_path_for_huge_n(e):
    """Up to n of 10^307 both paths have guesses; past the float range
    neither has, and both isolate by Sturm bisection."""
    rng = random.Random(e)
    for k in (1, 2, 2):
        sizes = [rng.randint(10 ** (e - 1), 10 ** e) for _ in range(2 * k)]
        b = BlockString(tuple(zip(sizes[::2], sizes[1::2])))
        assert (b.n < 2 ** 1024) == (e < 308)
        _assert_closed_form_is_general(b)


@pytest.mark.parametrize("text, kinds", [
    ("0 1 0^3 1^2", "int int int int"),  # {-3, -1, 2, 5}
    ("0 1 0 1", "Surd int int Surd"),  # {-sqrt(5), -1, 1, sqrt(5)}
    ("0 1 0^2 1^2", "RootInterval int RootInterval RootInterval"),
    ("0 1^2 0^2 1", "int int int"),  # p = q = r = 2: {-3, -1, 3^2}
    ("0^7 1^3", "int int"),  # {-1, 9}
])
def test_closed_forms_cover_every_kind_of_root(text, kinds):
    b = parse_block_string(text)
    assert " ".join(type(v).__name__ for v, _m in quotient_spectrum(b).entries) == kinds
    _assert_closed_form_is_general(b)


def test_one_and_two_blocks_build_no_quotient_and_solve_no_eigenproblem(monkeypatch):
    """Nor do they build a Sturm chain or split a residual square-free:
    every four-cell cubic but p = q = r is square-free, and its roots are
    certified by its degree."""
    spies = {}
    for module, name in ((spectra, "quotient_matrix"), (np.linalg, "eigvalsh"), (intpoly, "char_poly_ints"),
                         (intpoly, "sturm_chain"), (intpoly, "square_free_decomposition")):
        spies[name] = _Spy(getattr(module, name))
        monkeypatch.setattr(module, name, spies[name])
    for text in ("0 1", "0^5 1^3", "0 1 0^2 1^2", "0 1^2 0^2 1", "0^9 1^2 0^4 1", "0 1 0 1", "0^3 1^6 0^6 1^3",
                 "0^40 1^900 0^7 1^5000", "0^999 1^1000 0^1001 1"):
        exact_spectrum(parse_block_string(text))
    assert [spy.calls for spy in spies.values()] == [0, 0, 0, 0, 0]
    exact_spectrum(parse_block_string("0 1^2 0^3 1 0 1^4"))  # k = 3 takes the general path
    assert [spy.calls for spy in spies.values()] == [1, 1, 1, 1, 1]


# (p, q, r) = (a + d, b, c) of four-cell strings: spread, and nearly equal
# (a double root at p = q = r, two roots nearly meeting next to it).
_FOUR_CELL_CLASSES = st.one_of(
    st.tuples(st.integers(2, 10 ** 15), st.integers(1, 10 ** 15), st.integers(1, 10 ** 15)),
    st.builds(lambda m, i, j: (m, m + i, m + j), st.integers(2, 10 ** 15), st.integers(0, 3), st.integers(0, 3)),
)


@settings(max_examples=200, deadline=None)
@given(pqr=_FOUR_CELL_CLASSES)
@example(pqr=(5, 5, 5))
@example(pqr=(2, 1, 10 ** 15))
@example(pqr=(10 ** 15, 10 ** 15, 10 ** 15 + 1))
def test_four_cell_guesses_lie_within_a_few_units_of_n_ulp(pqr):
    """Every guess is within 8 * n * 2^-53 of its root (4.3 at most seen),
    eigvalsh's 12.01 being the bound that guess placement is sized by.  The
    roots are the certified ones, cells of width at most 2^-40."""
    p, q, r = pqr
    b = BlockString(((1, q), (r, p - 1)))
    guesses = spectra._four_cell_guesses(p, q, r, b.n)
    roots = [float(v) for v, m in quotient_spectrum(b).entries for _ in range(m) if v != -1]
    assert len(guesses) == 3 and guesses == sorted(guesses)
    assert max(abs(g - v) for g, v in zip(guesses, roots)) <= 8 * b.n * 2.0 ** -53 + 2.0 ** -40


def test_four_cell_guesses_stop_at_the_float_range():
    assert spectra._four_cell_guesses(1, 1, 10 ** 308, 10 ** 308 + 2) != []
    assert spectra._four_cell_guesses(1, 1, 10 ** 309, 10 ** 309 + 2) == []


def test_minus_one_multiplicity():
    rng = random.Random(25)
    for _ in range(40):
        b = random_block_string(rng, max_k=6, max_n=60)
        sp = exact_spectrum(b)
        assert sp.multiplicity(-1) == b.n - 2 * b.k + 1


def test_quotient_eigenvalue_multiplicity_at_most_two():
    rng = random.Random(26)
    for _ in range(40):
        b = random_block_string(rng, max_k=8, max_n=60)
        qs = quotient_spectrum(b)
        assert qs.n == 2 * b.k
        assert all(m <= 2 for _v, m in qs.entries)


def test_interval_eigenvalues_certified():
    # k=3 alternating singletons: the quotient residual exceeds degree 2.
    b = parse_block_string("010101")
    sp = exact_spectrum(b)
    numeric = numeric_spectrum(seidel_matrix(build_chain_graph(b)))
    for a, x in zip(sp.to_floats(), numeric):
        assert abs(a - x) < 1e-8
    intervals = [v for v, _m in sp.entries if isinstance(v, RootInterval)]
    assert intervals, "expected interval-certified eigenvalues"
    for iv in intervals:
        assert (iv.hi - iv.lo) << 40 <= 1 << iv.shift
        assert iv.sign_lo != iv.sign_hi
        assert intpoly.sign_at(iv.poly, iv.lo, 1 << iv.shift) == iv.sign_lo
        assert intpoly.sign_at(iv.poly, iv.hi, 1 << iv.shift) == iv.sign_hi


@settings(max_examples=300, deadline=None)
@given(num=st.builds(operator.lshift, st.integers(-10 ** 30, 10 ** 30), st.integers(0, 60)),
       shift=st.integers(0, 140))
@example(num=0, shift=7)
@example(num=-3, shift=0)
@example(num=1, shift=41)
def test_decimal_rendering_equals_the_fraction_oracle(num, shift):
    assert spectra._decimal_string(num, shift) == root_oracles.decimal_string(Fraction(num, 1 << shift))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int -> str digit limit")
def test_values_past_the_int_str_digit_limit_render_in_full():
    """Interval ends and surd fields past the interpreter's int -> str digit
    limit (4300 by default; interval cells reach it from about n = 10^900)
    are converted in chunks, to the text that plain str gives with the limit
    lifted.  The limit is restored afterwards."""
    cells = [(3 ** 6000 + 1, 3400), (-(7 ** 5200), 17), (1 << 20000, 0), ((10 ** 4400 + 1) << 3, 9000)]
    surds = [(1, 1, 10 ** 4400 + 3, 2), (-(10 ** 4301), -1, 10 ** 9000 + 7, 3)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError):
            str((3 ** 6000 + 1) * 5 ** 3400)  # the digits of the first cell end
        got = [spectra._decimal_string(num, shift) for num, shift in cells]
        got += [str(Surd(*fields)) for fields in surds]
        sys.set_int_max_str_digits(0)
        want = [root_oracles.decimal_string(Fraction(num, 1 << shift)) for num, shift in cells]
        for fields in surds:
            a, sign, d, c = _fields(Surd(*fields))
            want.append(f"({a}{'+' if sign > 0 else '-'}√{d})/{c}")
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert max(map(len, got)) > 9000


def test_interval_ends_render_in_their_own_fewest_digits():
    # The cell (3/8, 1/2) has shift 3; its upper end prints as 0.5, not 0.500.
    assert str(RootInterval((-2, 0, 0, 1), 3, 4, 3, -1, 1)) == "[0.375,0.5]"
    assert str(RootInterval((-2, 0, 0, 1), -4, 4, 3, -1, 1)) == "[-0.5,0.5]"


# (lo, width, shift) of a small cell: equal values in different forms are common.
_SMALL_CELLS = st.tuples(st.integers(-24, 24), st.integers(1, 24), st.integers(0, 5))


@settings(max_examples=300, deadline=None)
@given(a=_SMALL_CELLS, b=_SMALL_CELLS, scale_a=st.integers(0, 5), scale_b=st.integers(0, 5))
@example(a=(2, 2, 1), b=(1, 1, 0), scale_a=0, scale_b=3)
def test_root_interval_fields_are_equal_exactly_when_the_fraction_ends_are(a, b, scale_a, scale_b):
    def interval(lo, width, shift, scale):
        return RootInterval((-2, 0, 1), lo << scale, (lo + width) << scale, shift + scale, -1, 1)

    u, v = interval(*a, scale_a), interval(*b, scale_b)
    assert (u == v) == (root_oracles.interval_fractions(u) == root_oracles.interval_fractions(v))
    assert u != v or hash(u) == hash(v)
    for w in (u, v):  # the least shift: no common factor of two left in the ends
        assert w.shift == 0 or (w.lo | w.hi) & 1


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1, max_size=8))
@example(blocks=[(1, 1)] * 8)
def test_quotient_guesses_are_the_eigenvalues_of_the_quotient(blocks):
    q = quotient_matrix(BlockString(tuple(blocks)))
    got = spectra._quotient_guesses(q)
    want = np.sort(np.linalg.eigvals(np.array(q.entries, dtype=float)).real)
    assert got == sorted(got)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-9 * sum(q.cell_sizes)


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 2 ** 53), st.integers(1, 2 ** 53)), min_size=3, max_size=8))
@example(blocks=[(1, 1)] * 3)
def test_quotient_guesses_from_the_sign_template_are_the_entrywise_ones(blocks):
    """Up to 2^53 every cell size and quotient entry is an exact float, so the
    guesses from the cached cell-sign template equal, bit for bit, those
    from the quotient's own entries: Q + I scaled to its symmetric form."""
    q = quotient_matrix(BlockString(tuple(blocks)))
    root = np.sqrt(np.array(q.cell_sizes, dtype=float))
    shifted = np.array(q.entries, dtype=float) + np.eye(q.size)
    want = np.linalg.eigvalsh(shifted * (root[:, None] / root) - np.eye(q.size)).tolist()
    assert spectra._quotient_guesses(q) == [g for g in want if math.isfinite(g)]


def test_refined_interval_matches_the_fraction_oracle():
    for v, _m in exact_spectrum(parse_block_string("010101")).entries:
        if isinstance(v, RootInterval):
            fine = v.refined(90)
            assert v.lo << fine.shift <= fine.lo << v.shift < fine.hi << v.shift <= v.hi << fine.shift
            assert (fine.hi - fine.lo) << 90 <= 1 << fine.shift
            want = root_oracles.refine_root(v.poly, *root_oracles.interval_fractions(v), Fraction(1, 2 ** 90))
            assert fine == root_oracles.root_interval(v.poly, *want)


def test_spectrum_validation_rejects_bad_multiset():
    with pytest.raises(ValueError):
        spectrum_from_counts([(-1, 2), (3, 1)]).validate()  # trace is 1, not 0


def test_is_integral():
    assert is_integral(exact_spectrum(parse_block_string("0 1^2 0^2 1")))
    assert not is_integral(exact_spectrum(parse_block_string("0101")))
    assert is_integral(spectrum_from_counts([(-3, 1), (-1, 3), (3, 2)]))


# ---------------------------------------------------------------------------
# Exact value machinery
# ---------------------------------------------------------------------------

def test_surd_normalization_and_equality():
    assert Surd(0, 1, 20, 2) == Surd(0, 1, 5, 1)
    assert Surd(2, -1, 8, 4) == Surd(1, -1, 2, 2)
    assert Surd(0, 1, 5, 1) != Surd(0, -1, 5, 1)
    with pytest.raises(ValueError):
        Surd(0, 1, 9, 1)  # perfect square radicand


def test_negative_denominator_keeps_its_sign():
    low = Surd(1, 1, 2, -1)  # (1 + sqrt(2)) / -1 = -1 - sqrt(2)
    assert low == Surd(-1, -1, 2, 1) and hash(low) == hash(Surd(-1, -1, 2, 1))
    assert low != Surd(-1, 1, 2, 1)
    assert str(low) == "(-1-√2)/1"
    sp = spectrum_from_counts([(low, 1), (Surd(-1, 1, 2, 1), 1)])
    assert sp.entries == ((Surd(-1, -1, 2, 1), 1), (Surd(-1, 1, 2, 1), 1))


def _same_value(u: tuple, v: tuple) -> bool:
    """(a1 + s1 sqrt(d1)) / c1 == (a2 + s2 sqrt(d2)) / c2, by cross-multiplication.

    With x = a1 c2 - a2 c1, the equation is x + s1 c2 sqrt(d1) = s2 c1 sqrt(d2);
    sqrt(d1) is irrational, so it holds iff x = 0, s1 c2 and s2 c1 have one
    sign, and c2^2 d1 = c1^2 d2.
    """
    (a1, s1, d1, c1), (a2, s2, d2, c2) = u, v
    return a1 * c2 == a2 * c1 and (s1 * c2 > 0) == (s2 * c1 > 0) and c2 * c2 * d1 == c1 * c1 * d2


def _fields(v: Surd) -> tuple:
    return v.a, v.sign, v.d, v.c


# Raw surd fields (a, sign, d, c): c of either sign, and radicands f^2 t with
# small square factors.
_RAW_SURD = st.builds(
    lambda a, sign, f, t, c: (a, sign, f * f * t, c),
    st.integers(-30, 30), st.sampled_from((-1, 1)), st.integers(1, 12),
    st.integers(2, 60).filter(lambda t: math.isqrt(t) ** 2 != t), st.integers(-6, 6).filter(bool))


@settings(max_examples=300, deadline=None)
@given(raw=_RAW_SURD, other=_RAW_SURD, k=st.integers(-4, 4).filter(bool), sign=st.sampled_from((-1, 1)),
       scaled=st.booleans())
def test_surd_equality_and_hash_are_value_equality(raw, other, k, sign, scaled):
    a, _s, d, c = raw
    if scaled:  # the same value or its conjugate, from other fields
        other = (k * a, sign, k * k * d, k * c)
    u, v = Surd(*raw), Surd(*other)
    assert u.c > 0 and _same_value(_fields(u), raw) and _same_value(_fields(v), other)
    assert (u == v) == _same_value(raw, other)
    if u == v:
        assert hash(u) == hash(v)


@settings(max_examples=60, deadline=None)
@given(raw=_RAW_SURD, big=st.integers(10 ** 8, 10 ** 40))
def test_surd_float_is_the_fraction_midpoint(raw, big):
    for v in (Surd(*raw), Surd(big, raw[1], big * big + 1, raw[3])):
        lo, hi = root_oracles.surd_bounds(v, 60)
        assert float(v) == float((lo + hi) / 2)


@settings(max_examples=300, deadline=None)
@given(raw=_RAW_SURD, g=st.sampled_from((1, 2, 3, 6, 7, 12, 30)))
def test_surd_fields_equal_the_trial_division_form(raw, g):
    a, sign, d, c = raw
    for fields in (raw, (g * a, sign, g * g * d, g * c)):
        assert _fields(Surd(*fields)) == root_oracles.surd_fields(*fields)


def test_surd_reduces_by_a_large_prime_factor():
    # A prime above the trial bound 10^5 is what is left of gcd(a, c, d).
    p = 1_000_003
    assert Surd(p, 1, 2 * p * p, p) == Surd(1, 1, 2, 1)
    assert _fields(Surd(3 * p, -1, 5 * p * p, 6 * p)) == (3, -1, 5, 6)
    assert _fields(Surd(p, 1, 2 * p, p)) == (p, 1, 2 * p, p)  # p^2 does not divide d


def test_surd_with_two_large_primes_in_the_gcd_is_fast():
    # Trial division of gcd(a, c, d) stops at 10^5, not at the square root of
    # its second-largest prime factor.
    p, q = 1_000_000_000_039, 2_000_000_000_003
    start = time.perf_counter()
    assert _fields(Surd(p * q, 1, 2 * (p * q) ** 2, p * q)) == (1, 1, 2, 1)
    assert _fields(Surd(6 * p * q, -1, 5 * (2 * p * q) ** 2, 2 * p * q)) == (3, -1, 5, 1)
    # Only p^2 divides d: the leftover p q does not reduce whole, so it stays.
    assert _fields(Surd(p * q, 1, 2 * p * p * q, p * q)) == (p * q, 1, 2 * p * p * q, p * q)
    assert time.perf_counter() - start < 0.5


def test_surd_arithmetic_helpers():
    v = Surd(0, -1, 5, 1)            # -sqrt(5)
    w = v.negate()
    assert float(w) == pytest.approx(5 ** 0.5, abs=1e-12)
    r = w.reciprocal()               # 1/sqrt(5) = sqrt(5)/5
    assert r == Surd(0, 1, 5, 5)
    assert float(r) == pytest.approx(1 / 5 ** 0.5, abs=1e-12)


def test_value_comparison_and_sorting():
    root5 = Surd(0, 1, 5, 1)
    assert value_cmp(-3, -1) < 0
    assert value_cmp(root5, 2) > 0
    assert value_cmp(root5, 3) < 0
    assert value_cmp(root5, root5) == 0
    assert spectrum_from_counts([(2, 1), (2, 1)]).entries == ((2, 2),)
    assert spectrum_from_counts([(root5, 1), (2, 1)]).entries == ((2, 1), (root5, 1))


def test_root_intervals_compare_by_cell():
    sp = exact_spectrum(parse_block_string("010101"))
    again = exact_spectrum(parse_block_string("0 1 0 1 0 1"))
    cells = [v for v, _m in sp.entries if isinstance(v, RootInterval)]
    assert len(cells) >= 2
    assert sp == again and hash(sp) == hash(again)
    assert len(set(cells)) == len(cells)  # distinct roots, distinct cells
    assert all(value_cmp(u, v) < 0 for u, v in zip(cells, cells[1:]))


_BLOCKS = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(blocks=_BLOCKS, data=st.data())
def test_merging_split_and_shuffled_entries_rebuilds_the_spectrum(blocks, data):
    sp = exact_spectrum(BlockString(tuple(blocks)))
    pieces = []
    for v, m in sp.entries:
        cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), max_size=3)) if m > 1 else ())
        pieces += [(v, b - a) for a, b in zip([0, *cuts], [*cuts, m])]
        pieces += [(v, 0)] * data.draw(st.integers(0, 1))
    merged = spectrum_from_counts(data.draw(st.permutations(pieces)))
    assert merged == sp and hash(merged) == hash(sp)
    assert merged.serialize() == sp.serialize()


# ---------------------------------------------------------------------------
# Sorting by integer enclosures, checked exactly
# ---------------------------------------------------------------------------

def test_enclosure_ties_fall_back_to_the_exact_sort(monkeypatch):
    """Values whose 2^-40 enclosures overlap are compared exactly, and only
    those; neighbours out of order send the whole list to the exact sort."""
    big = Surd(0, 1, 10 ** 30 + 1, 1)  # sqrt(10^30 + 1) = 10^15 + 5 * 10^-16
    bigger = Surd(0, 1, 10 ** 30 + 2, 1)  # 10^15 + 10^-15, in big's enclosure
    key = spectra._enclosure(10 ** 15, spectra.INTERVAL_BITS)
    assert spectra._enclosure(big, spectra.INTERVAL_BITS) == spectra._enclosure(bigger, spectra.INTERVAL_BITS) == (key[0], key[1] + 1)
    cmp = _Spy(spectra.value_cmp)
    monkeypatch.setattr(spectra, "value_cmp", cmp)
    # -1 and 10^15 have disjoint enclosures; only 10^15 and big are compared.
    assert spectrum_from_counts([(10 ** 15, 2), (big, 1), (-1, 1)]).entries == ((-1, 1), (10 ** 15, 2), (big, 1))
    assert cmp.calls == 1
    # Equal neighbours pass the check too, and merge afterwards.
    cmp.calls = 0
    assert spectrum_from_counts([(10 ** 15, 1), (-1, 1), (10 ** 15, 1), (big, 1)]).entries == ((-1, 1), (10 ** 15, 2), (big, 1))
    assert cmp.calls == 2
    # The integer key puts 10^15 (lo = hi) before big (hi one higher) in any input order.
    cmp.calls = 0
    assert spectrum_from_counts([(big, 1), (10 ** 15, 2), (-1, 1)]).entries == ((-1, 1), (10 ** 15, 2), (big, 1))
    assert cmp.calls == 1
    # bigger and big share a key, so the stable sort keeps bigger first; the
    # check finds it and the full sort runs.
    cmp.calls = 0
    counts = [(bigger, 1), (big, 1), (10 ** 15, 2), (-1, 1)]
    sp = spectrum_from_counts(counts)
    assert cmp.calls > 3
    assert sp.entries == ((-1, 1), (10 ** 15, 2), (big, 1), (bigger, 1))
    assert [v for v, _m in sp.entries] == sorted(dict(counts), key=functools.cmp_to_key(value_cmp))


def test_values_beyond_the_float_range_sort_by_their_integer_keys(monkeypatch):
    huge = Surd(10 ** 400, -1, 2, 1)  # 10^400 - sqrt(2): no float holds it
    with pytest.raises(OverflowError):
        float(huge)
    cmp = _Spy(spectra.value_cmp)
    monkeypatch.setattr(spectra, "value_cmp", cmp)
    assert spectrum_from_counts([(10 ** 400, 1), (huge, 1), (0, 1)]).entries == ((0, 1), (huge, 1), (10 ** 400, 1))
    assert cmp.calls == 0


# Root intervals from a few exact spectra, for mixing with ints and surds.
_INTERVALS = [v for text in ("010101", "0 1 0^2 1^2", "0^3 1 0 1^2 0 1^4", "0 1 0 1^2 0 1 0^2 1 0 1")
              for v, _m in exact_spectrum(parse_block_string(text)).entries if isinstance(v, RootInterval)]
_NON_SQUARE = st.integers(2, 10 ** 6).filter(lambda d: math.isqrt(d) ** 2 != d)
_VALUES = st.one_of(
    st.integers(-40, 40),
    st.builds(Surd, st.integers(-40, 40), st.sampled_from((-1, 1)), _NON_SQUARE, st.integers(1, 4)),
    st.sampled_from(_INTERVALS),
    # n and sqrt(n^2 + 1) = n + 1/(2n) - ..., whose 2^-40 enclosures overlap from n of about 5 * 10^11 on.
    st.integers(10 ** 8, 10 ** 15).flatmap(lambda n: st.sampled_from((n, Surd(0, 1, n * n + 1, 1)))),
)


@settings(max_examples=80, deadline=None)
@given(counts=st.lists(st.tuples(_VALUES, st.integers(0, 3)), max_size=12))
def test_enclosure_sort_then_exact_check_equals_the_exact_sort(counts):
    merged: dict = {}
    for v, m in counts:
        if m:
            merged[v] = merged.get(v, 0) + m
    want = tuple((v, merged[v]) for v in sorted(merged, key=functools.cmp_to_key(root_oracles.fraction_value_cmp)))
    assert spectrum_from_counts(counts).entries == want


# The isolating cells of the same roots, before refinement: wider than 2^-40.
_WIDE_CELLS = [RootInterval(p, *cell) for p in sorted({v.poly for v in _INTERVALS})
               for cell in intpoly.isolate_real_roots(p)]


def _order(cmp, u, v):
    try:
        return cmp(u, v)
    except ArithmeticError:  # equal values with unequal fields: a wide and a narrow cell
        return "inseparable"


@settings(max_examples=200, deadline=None)
@given(u=st.one_of(_VALUES, st.sampled_from(_WIDE_CELLS)), v=st.one_of(_VALUES, st.sampled_from(_WIDE_CELLS)))
@example(u=Surd(0, 1, 10 ** 30 + 1, 1), v=10 ** 15)
@example(u=10 ** 15, v=Surd(0, 1, 10 ** 30 + 1, 1))
@example(u=Surd(0, 1, 10 ** 30 + 1, 1), v=Surd(0, 1, 10 ** 30 + 1, 1))
def test_value_cmp_equals_the_fraction_oracle(u, v):
    assert _order(value_cmp, u, v) == _order(root_oracles.fraction_value_cmp, u, v)


@settings(max_examples=200, deadline=None)
@given(v=st.one_of(_VALUES, st.sampled_from(_WIDE_CELLS), _RAW_SURD.map(lambda raw: Surd(*raw))),
       bits=st.sampled_from((40, 80, 160)))
def test_enclosure_holds_the_fraction_bounds_rounded_outward(v, bits):
    # A surd against its Fraction bounds of width 2^-bits / c, a cell as it is.
    if isinstance(v, int):
        lo_f = hi_f = Fraction(v)
    elif isinstance(v, Surd):
        lo_f, hi_f = root_oracles.surd_bounds(v, bits)
    else:
        lo_f, hi_f = root_oracles.interval_fractions(v)
    lo, hi = spectra._enclosure(v, bits)
    assert lo == math.floor(lo_f * 2 ** bits) and hi == math.ceil(hi_f * 2 ** bits)


# ---------------------------------------------------------------------------
# validate() on integers against its Fraction form (tests/root_oracles.py)
# ---------------------------------------------------------------------------

_MIXED = "0 1 0 1^2 0 1 0^2 1 0 1"  # surds and root intervals in one spectrum


def _validation(entries):
    """validate()'s outcome, after checking that the Fraction oracle agrees."""
    try:
        ExactSpectrum(tuple(entries)).validate()
        got = "accepted"
    except ValueError as exc:
        got = str(exc)
    try:
        root_oracles.validate(entries)
        want = "accepted"
    except ValueError as exc:
        want = str(exc)
    assert got == want
    return got


def _perturbed(entries, i, kind):
    entries = list(entries)
    v, m = entries[i]
    if kind == "mult":
        entries[i] = (v, m + 1)
    elif kind == "shift" and isinstance(v, RootInterval):
        w = v.hi - v.lo
        entries[i] = (RootInterval(v.poly, v.lo + w, v.hi + w, v.shift, v.sign_lo, v.sign_hi), m)
    elif kind == "flip" and isinstance(v, Surd):
        entries[i] = (Surd(v.a, -v.sign, v.d, v.c), m)
    return entries


def test_validate_rejects_as_before():
    entries = exact_spectrum(parse_block_string("0 1 0^2 1^2")).entries
    assert isinstance(entries[3][0], RootInterval)
    # One cell up, the Frobenius enclosure misses; the trace enclosure is wide enough.
    assert _validation(_perturbed(entries, 3, "shift")) == "spectrum identity failed: power 2 enclosure misses 30"
    surds = exact_spectrum(parse_block_string("0 1^2 0^3 1")).entries
    assert isinstance(surds[0][0], Surd)
    assert _validation(_perturbed(surds, 0, "flip")) == "spectrum identity failed: power 1 sum != 0"
    assert _validation(_perturbed(surds, 1, "mult")) == "spectrum identity failed: power 1 sum != 0"
    mixed = exact_spectrum(parse_block_string(_MIXED)).entries
    kinds = [type(v) for v, _m in mixed]
    assert Surd in kinds and RootInterval in kinds
    assert _validation(mixed) == "accepted"
    surd = kinds.index(Surd)
    assert _validation(_perturbed(mixed, surd, "flip")) == "spectrum identity failed: power 1 enclosure misses 0"
    assert _validation(_perturbed(mixed, surd, "mult")) == "spectrum identity failed: power 1 enclosure misses 0"


def test_validate_encloses_nothing_without_root_intervals(monkeypatch):
    """Ints and surds alone are checked exactly: no value is enclosed, which
    for a surd of n ~ 10^1000 would be an isqrt of some 16 700 bits."""
    x = 10 ** 1000 - 1
    surd_spectra = [exact_spectrum(BlockString(((1, x), (x, 5)))), exact_spectrum(parse_block_string("0 1^2 0^3 1"))]
    assert all(isinstance(v, (int, Surd)) for sp in surd_spectra for v, _m in sp.entries)
    monkeypatch.setattr(spectra, "_enclosure", _raise)
    monkeypatch.setattr(spectra, "_assert_enclosed_sums", _raise)
    for sp in surd_spectra:
        sp.validate()


@pytest.mark.parametrize("split", [
    lambda factors: [(f, 2 * m) for f, m in factors],  # every factor's roots counted twice
    lambda factors: factors[1:],  # a factor dropped
], ids=["doubled", "dropped"])
def test_quotient_roots_account_for_every_eigenvalue(monkeypatch, split):
    """Each factor gives as many roots as its degree either way; only the
    total over the integer roots and the factors' multiplicities shows that
    the split does not add up to the charpoly's degree."""
    b = parse_block_string("0 1 0^2 1^2 0^2 1")
    q = quotient_matrix(b)
    coeffs, guesses = char_poly(q).coeffs, spectra._quotient_guesses(q)
    spectra._quotient_roots(coeffs, b.n, guesses)
    decompose = intpoly.square_free_decomposition
    monkeypatch.setattr(intpoly, "square_free_decomposition", lambda p, chain: split(decompose(p, chain)))
    with pytest.raises(ArithmeticError, match="failed to account for every quotient eigenvalue"):
        spectra._quotient_roots(coeffs, b.n, guesses)


@settings(max_examples=60, deadline=None)
@given(blocks=_BLOCKS, data=st.data())
def test_validate_agrees_with_the_fraction_oracle(blocks, data):
    entries = exact_spectrum(BlockString(tuple(blocks))).entries
    assert _validation(entries) == "accepted"
    i = data.draw(st.integers(0, len(entries) - 1))
    _validation(_perturbed(entries, i, data.draw(st.sampled_from(("mult", "shift", "flip")))))


@settings(max_examples=60, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=12))
def test_trace_and_frobenius_identities_hold_on_the_enclosures(blocks):
    """A Seidel matrix has zero diagonal and +-1 off it, so its eigenvalues
    sum to 0 and their squares to n(n - 1).  The sums are taken here from the
    2^-80 enclosures of the values, with exact squares, not by validate()."""
    b = BlockString(tuple(blocks))
    sp = exact_spectrum(b)
    assert sp.n == b.n
    one = 1 << 80
    lo1 = hi1 = lo2 = hi2 = 0
    for v, m in sp.entries:
        lo, hi = spectra._enclosure(v, 80)
        assert lo <= hi
        lo1, hi1 = lo1 + m * lo, hi1 + m * hi
        lo2 += m * (0 if lo <= 0 <= hi else min(lo * lo, hi * hi))
        hi2 += m * max(lo * lo, hi * hi)
    assert lo1 <= 0 <= hi1 and hi1 - lo1 < one
    assert lo2 <= b.n * (b.n - 1) * one * one <= hi2 and hi2 - lo2 < one * one


def test_value_serialization():
    assert value_to_string(-5) == "int:-5"
    assert value_to_string(Surd(1, 1, 5, 2)) == "surd:(1+√5)/2"
    sp = exact_spectrum(parse_block_string("0101"))
    rendered = [e["value"] for e in sp.serialize()]
    assert rendered[0] == "surd:(0-√5)/1"
    assert rendered[1] == "int:-1"


# ---------------------------------------------------------------------------
# Equiangular parameters
# ---------------------------------------------------------------------------

def test_equiangular_cospectral_pair_n14():
    ep = equiangular_params(exact_spectrum(parse_block_string("01^3 0^3 1^7")))
    assert (ep.lines, ep.dimension) == (14, 13)
    assert ep.cosine == Fraction(1, 5)
    assert ep.lambda_min == -5 and ep.multiplicity == 1


def test_equiangular_mirror_s1():
    ep = equiangular_params(exact_spectrum(parse_block_string("0 1^2 0^2 1")))
    assert (ep.lines, ep.dimension) == (6, 5)
    assert ep.cosine == Fraction(1, 3)


def test_equiangular_surd_cosine():
    ep = equiangular_params(exact_spectrum(parse_block_string("0101")))
    assert ep.lambda_min == Surd(0, -1, 5, 1)
    assert ep.cosine == Surd(0, 1, 5, 5)
    assert ep.dimension == 3


def test_equiangular_interval_cosine():
    sp = exact_spectrum(parse_block_string("010101"))
    ep = equiangular_params(sp)
    assert isinstance(ep.cosine, RootInterval)
    lam = float(sp.min_value)
    assert float(ep.cosine) == pytest.approx(1 / abs(lam), abs=1e-9)


def _block_strings_up_to(n_max: int):
    """Every block string on 2..n_max vertices: a 0, any bits, a 1."""
    for n in range(2, n_max + 1):
        for bits in range(1 << (n - 2)):
            yield parse_block_string("0" + bin(bits | 1 << (n - 2))[3:] + "1")


def test_equiangular_cosine_matches_the_oracle_on_every_string_up_to_n_12():
    spectra_ = [exact_spectrum(b) for b in _block_strings_up_to(12)]
    with_interval = [sp for sp in spectra_ if isinstance(sp.min_value, RootInterval)]
    assert len(spectra_) == 2047 and len(with_interval) == 1785
    start = time.perf_counter()
    cosines = [equiangular_params(sp).cosine for sp in with_interval]
    assert time.perf_counter() - start < 1.0
    assert cosines == [root_oracles.reciprocal_abs(sp.min_value) for sp in with_interval]


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=8))
def test_equiangular_cosine_matches_the_oracle(blocks):
    sp = exact_spectrum(BlockString(tuple(blocks)))
    if value_cmp(sp.min_value, -1) < 0:
        assert equiangular_params(sp).cosine == root_oracles.reciprocal_abs(sp.min_value)


def test_equiangular_cosine_of_cells_beyond_the_float_range_matches_the_oracle():
    n = 10 ** 400
    sp = exact_spectrum(parse_block_string(f"0^{n} 1^{n + 7} 0^3 1^5"))
    assert isinstance(sp.min_value, RootInterval)
    assert _timed(equiangular_params, sp).cosine == root_oracles.reciprocal_abs(sp.min_value)


@pytest.mark.parametrize("listed", [(1,), (0, 1, 2)], ids=["second_root_only", "every_root"])
def test_equiangular_cosine_of_the_second_root_below_minus_1(listed):
    """x^3 + 5x^2 + 6x + 1 has roots near -3.25, -1.55 and -0.20.  Its
    reversal's first positive cell holds 1/3.25, so the cosine of -1.55 must
    come from the second, whether or not the spectrum lists the other roots."""
    p = (1, 6, 5, 1)
    roots = [RootInterval(p, *intpoly.refine_root(p, cell, spectra.INTERVAL_BITS))
             for cell in intpoly.isolate_real_roots(p)]
    sp = spectrum_from_counts([(roots[i], 1) for i in listed] + [(3, 2)])
    lam = roots[1]
    cosine = spectra._reciprocal_abs(lam, sp)
    assert cosine == root_oracles.reciprocal_abs(lam)
    assert float(cosine) == pytest.approx(1 / 1.5549581320871653)


def test_equiangular_cosine_needs_no_sturm_count_and_one_fraction():
    """The cosine is certified by one sign change on the reversal's isolating
    cells, so spectra counts no roots by Sturm sequence, builds the one shared
    Sturm chain of a quotient residual, and builds a Fraction only for a
    rational cosine."""
    tree = ast.parse(Path(spectra.__file__).read_text())
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def calls(root, name):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == name]

    assert calls(tree, "count_roots_between") == []
    assert len(calls(tree, "sturm_chain")) == 1
    assert calls(tree, "sturm_chain") == calls(functions["_quotient_roots"], "sturm_chain")
    assert len(calls(tree, "Fraction")) == 1
    assert calls(tree, "Fraction") == calls(functions["_reciprocal_abs"], "Fraction")


def test_equiangular_degenerate():
    with pytest.raises(ValueError):
        equiangular_params(exact_spectrum(parse_block_string("01")))
    with pytest.raises(ValueError):
        equiangular_params(spectrum_from_counts([(-1, 2), (2, 1)]))


def test_numeric_spectrum_cap():
    with pytest.raises(ValueError):
        numeric_spectrum(seidel_matrix(Graph.empty(2001)))


def _few_block_string(n: int) -> BlockString:
    return BlockString(((n // 3, n // 5), (n // 4, n - n // 3 - n // 5 - n // 4)))


def test_oracle_graph_and_seidel_matrix_at_the_cap_are_fast():
    b = _few_block_string(2000)
    start = time.perf_counter()
    s = seidel_matrix(build_chain_graph(b))
    assert time.perf_counter() - start < 0.2
    assert s.n == 2000


def test_oracle_refusal_over_the_cap_is_fast():
    text = _few_block_string(2001).caret()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="capped at 2000 vertices"):
        seidel_matrix(build_chain_graph(parse_block_string(text)))
    assert time.perf_counter() - start < 0.1


def test_numeric_spectrum_at_the_cap_matches_exact():
    b = _few_block_string(2000)
    numeric = numeric_spectrum(seidel_matrix(build_chain_graph(b)))
    exact = exact_spectrum(b).to_floats()
    assert len(numeric) == len(exact) == 2000
    assert max(abs(a - x) for a, x in zip(exact, numeric)) < 1e-9 * 2000


def test_seidel_matrix_refuses_over_the_cap_before_building_rows():
    g = Graph.empty(2001)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap"):
        seidel_matrix(g)
    assert time.perf_counter() - start < 0.1


def test_exact_spectrum_quotient_order_cap(monkeypatch):
    big = BlockString(((1, 1),) * 129)  # 2k = 258
    built = _Spy(spectra.quotient_matrix)
    monkeypatch.setattr(spectra, "quotient_matrix", built)
    with pytest.raises(ValueError, match="quotient order 258 exceeds cap 256"):
        quotient_spectrum(big)
    assert built.calls == 0  # refused before the quotient is built
    spectra.check_quotient_order(128)


def test_has_spectrum_accepts_exactly_the_integral_exact_spectra():
    """A true claim with a surd or an interval in it is refused too."""
    rng = random.Random(61)
    strings = [random_block_string(rng, max_k=4, max_n=40) for _ in range(150)]
    strings += [parse_block_string(t) for t in ("01", "0 1^5 0^5 1^4", "0^3 1^6 0^6 1^3", "0 1^6 0^6 1^26")]
    integral = surds = 0
    for b in strings:
        sp = exact_spectrum(b)
        assert spectra.has_spectrum(b, sp.entries) == sp.is_integral(), b
        if not sp.is_integral():
            surds += any(isinstance(v, Surd) for v, _m in sp.entries)
            continue
        integral += 1
        entries = list(sp.entries)
        i = entries.index((-1, sp.multiplicity(-1)))
        split = entries[:i] + [(-1, 1)] + entries[i + 1:] + [(-1, entries[i][1] - 1)]
        assert spectra.has_spectrum(b, split)  # -1 over two entries, in any place
        assert not spectra.has_spectrum(b, entries + [(5, 1)])  # n + 1 values
        assert not spectra.has_spectrum(b, entries + [(7, 10 ** 9)])  # refused at its first extra value
        assert not spectra.has_spectrum(b, entries + [(7, 1), (7, -1)])
        assert not spectra.has_spectrum(b, entries[:i] + [(Fraction(-1), entries[i][1])] + entries[i + 1:])
    assert integral >= 8 and surds >= 8
    with pytest.raises(ValueError, match="quotient order 258 exceeds cap 256"):
        spectra.has_spectrum(BlockString(((1, 1),) * 129), [(-1, 1)])


# ---------------------------------------------------------------------------
# Guess-then-certify root location against the unguided path and the full scan
# ---------------------------------------------------------------------------

# The shapes of the large-spectrum benchmark: k = 8..16 up to n = 2*10^4,
# and few-block strings with n = 10^5..10^6.
_LARGE_SHAPES = ((8, 20_000), (10, 2_000), (12, 500), (14, 100), (16, 64), (2, 100_000), (2, 300_000))


def _unguided(monkeypatch, strings):
    """Serialized spectra with no float guesses: only 0 and -1 stripped as
    integer roots, Sturm bisection, every other integer root taken out of
    its square-free factor."""
    with monkeypatch.context() as m:
        _patch_guesses(m, lambda gs: [])
        return [exact_spectrum(b).serialize() for b in strings]


def _patch_guesses(monkeypatch, change):
    """Pass the float guesses of both sources, the quotient's eigensolve and
    the four-cell cubic's closed form, through change."""
    quotient_guesses, four_cell_guesses = spectra._quotient_guesses, spectra._four_cell_guesses
    monkeypatch.setattr(spectra, "_quotient_guesses", lambda q: change(quotient_guesses(q)))
    monkeypatch.setattr(spectra, "_four_cell_guesses", lambda *args: change(four_cell_guesses(*args)))


def _int_entries_by_full_scan(b):
    """{eigenvalue: multiplicity} of the integer eigenvalues of b, from the
    trial division of every integer in [-n, n] into the quotient charpoly."""
    roots, _residual = intpoly.integer_roots(intpoly.char_poly_ints(quotient_matrix(b).cell_sizes), bound=b.n)
    roots[-1] += b.n - 2 * b.k
    return roots


def test_guided_path_equals_scan_and_bisect(monkeypatch):
    rng = random.Random(2026)
    strings = [random_block_string(rng, max_k=8, max_n=rng.choice((30, 60, 300))) for _ in range(150)]
    strings += [cut_block_string(rng, k, n) for k, n in _LARGE_SHAPES]
    strings.append(BlockString(((999_999, 1),)))
    spectra_ = [exact_spectrum(b) for b in strings]
    assert [sp.serialize() for sp in spectra_] == _unguided(monkeypatch, strings)
    for b, sp in zip(strings, spectra_):
        assert {v: m for v, m in sp.entries if isinstance(v, int)} == _int_entries_by_full_scan(b), b.caret()


@pytest.mark.parametrize("text, missed", [
    ("0 1 0^2 1^2 0 1^2", -3),  # the residual keeps (x + 3)^2: a linear square-free factor
    ("0 1 0 1 0 1^3", -3),  # n = 8: isolation on [-8, 8] bisects at -3
    ("0 1 0 1 0^2 1", 3),   # n = 7: 3 ends inside a certified cell of a quartic residual
])
def test_guesses_that_miss_an_integer_root_peel_it_off_its_factor(monkeypatch, text, missed):
    b = parse_block_string(text)
    want = exact_spectrum(b).serialize()
    assert any(e["value"] == f"int:{missed}" for e in want)
    # The guesses of `missed` now round to its neighbour.
    _patch_guesses(monkeypatch, lambda gs: [g + 0.7 if round(g) == missed else g for g in gs])
    strip = _Spy(intpoly.integer_roots)
    monkeypatch.setattr(intpoly, "integer_roots", strip)
    assert exact_spectrum(b).serialize() == want
    assert strip.calls == 1  # one pass: no second strip


@pytest.mark.parametrize("text, root", [
    ("0 1 0 1 0^2 1", 3),  # k = 3: a simple integer root
    ("0 1 0^2 1^2 0 1^2", -3),  # k = 3: a double one, both guesses moved
    ("0 1^15 0^24 1^9", 23),  # k = 2: a root of the four-cell cubic of {10, 15, 24}
])
def test_a_guess_0_3_off_its_integer_root_is_no_candidate(monkeypatch, text, root):
    """A guess 0.3 from its integer root still rounds to it, but lies
    outside the candidate window, so integer_roots is not handed it; the
    root is peeled off its factor instead, and the spectrum is unchanged."""
    b = parse_block_string(text)
    want = exact_spectrum(b).serialize()
    assert any(e["value"] == f"int:{root}" for e in want)
    _patch_guesses(monkeypatch, lambda gs: [g + 0.3 if round(g) == root else g for g in gs])
    handed = []
    integer_roots = intpoly.integer_roots
    monkeypatch.setattr(intpoly, "integer_roots",
                        lambda p, **kw: handed.append(kw["guesses"]) or integer_roots(p, **kw))
    assert exact_spectrum(b).serialize() == want
    [candidates] = handed
    assert root not in map(round, candidates)


_WINDOW_STRINGS = st.one_of(
    st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6).map(
        lambda blocks: BlockString(tuple(blocks))),
    st.builds(unit_chain_string, st.integers(1, 29), st.integers(1, 29)),
    st.builds(lambda family, r: generate_integral_family(family, r).string,
              st.sampled_from(("F1", "F2", "F3", "F4", "F5", "F6")), st.integers(3, 12)),
    st.builds(mirror_chain_string, st.integers(1, 10)),
)


@settings(max_examples=150, deadline=None)
@given(b=_WINDOW_STRINGS)
@example(b=parse_block_string("0 1 0 1 0^2 1"))
@example(b=unit_chain_string(3, 5))
def test_the_candidate_window_leaves_every_spectrum_as_it_is(b):
    """k <= 6 and n <= 60, with unit-chain strings, the integral families'
    and the mirror strings, whose quotients have integer eigenvalues: the
    spectrum is the same when every guess's rounding is an integer-root
    candidate."""
    want = exact_spectrum(b).serialize()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectra, "_integer_candidates", lambda guesses, bound: guesses)
        assert exact_spectrum(b).serialize() == want


@pytest.mark.parametrize("bad", [lambda gs: [g + 100.3 for g in gs], lambda gs: [], lambda gs: [0.0] * 40])
def test_arbitrary_guesses_still_give_the_exact_spectrum(monkeypatch, bad):
    rng = random.Random(31)
    strings = [random_block_string(rng, max_k=5, max_n=40) for _ in range(20)]
    want = _unguided(monkeypatch, strings)
    _patch_guesses(monkeypatch, bad)
    assert [exact_spectrum(b).serialize() for b in strings] == want


def test_missed_pair_of_integer_roots_is_caught_by_the_discriminant():
    # (x + 1)(x - 2)(x - 5): guesses that miss 2 and 5 leave x^2 - 7x + 10,
    # whose discriminant 9 is a square.
    p = root_oracles.poly_mul(root_oracles.poly_mul((1, 1), (-2, 1)), (-5, 1))
    assert spectra._quotient_roots(p, 8, [-1.0, 9.0, 9.0]) == [(-1, 1), (2, 1), (5, 1)]
    assert spectra._quotient_roots(p, 8, []) == [(-1, 1), (2, 1), (5, 1)]


def test_each_stripped_integer_root_takes_its_nearest_guess(monkeypatch):
    # (x + 1)^2 (x - 3)(x^2 - 2): -1 twice and 3 are stripped, so the
    # residual's factor gets only the guesses of +-sqrt(2).  The integer
    # guesses are about 1e-13 off, inside the candidate window 8 * 2^-40
    # and near eigvalsh's error at bound 8 (12.01 * 8 * 2^-53).
    p = root_oracles.poly_mul(root_oracles.poly_mul(poly_pow((1, 1), 2), (-3, 1)), (-2, 0, 1))
    handed = []
    factor_roots = spectra._factor_roots
    monkeypatch.setattr(spectra, "_factor_roots",
                        lambda factor, bound, guesses, chain: handed.append(list(guesses))
                        or factor_roots(factor, bound, guesses, chain))
    guesses = [3.0000000000001, -1.0000000000002, -1.4142, -0.9999999999998, 1.4142]
    assert spectra._quotient_roots(p, 8, guesses) == [
        (-1, 2), (3, 1), (Surd(0, 1, 2, 1), 1), (Surd(0, -1, 2, 1), 1)]
    assert handed == [[-1.4142, 1.4142]]
    # Fewer guesses than stripped roots: all are taken, and isolation bisects.
    handed.clear()
    spectra._quotient_roots(p, 8, [-1.0, 3.0])
    assert handed == [[]]


@pytest.mark.parametrize("square, bound, stage", [
    (2, 4, "isolation"),   # Sturm bisection of [-4, 4] hits 1 at its third point
    (8, 4, "refinement"),  # 1 is the midpoint of the isolating cell (0, 2)
    (2, 3, None),          # no grid point of [-3, 3] is 1: it ends inside a refined cell
])
def test_an_integer_root_of_a_cubic_factor_is_peeled_off(monkeypatch, square, bound, stage):
    """(x - 1)(x^2 - square) with no guesses: the integer 1 is divided out,
    and the cofactor gives its surd pair."""
    hits = []

    def recording(fn):
        def wrapped(*args):
            try:
                return fn(*args)
            except intpoly.RationalRootError as exc:
                hits.append((str(exc).split()[-1], exc.num // exc.den, exc.num % exc.den))
                raise
        return wrapped

    for name in ("isolate_real_roots", "refine_root"):
        monkeypatch.setattr(intpoly, name, recording(getattr(intpoly, name)))
    p = root_oracles.poly_mul((-1, 1), (-square, 0, 1))
    assert spectra._factor_roots(p, bound, [], None) == [1, Surd(0, 1, 4 * square, 2), Surd(0, -1, 4 * square, 2)]
    assert hits == ([(stage, 1, 0)] if stage else [])


def test_spectra_strips_integer_roots_by_guesses_only():
    """integer_roots without guesses scans every integer in [-n, n], O(n);
    every integer_roots and _quotient_roots call in spectra passes guesses,
    never the constant None, so that scan stays off the library path."""

    def guesses(call):
        given = [kw.value for kw in call.keywords if kw.arg == "guesses"] + call.args[2:3]
        return given[0] if given else None

    tree = ast.parse(Path(spectra.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
             in ("integer_roots", "_quotient_roots")]
    assert len(calls) >= 2
    for call in calls:
        arg = guesses(call)
        assert arg is not None and not (isinstance(arg, ast.Constant) and arg.value is None), call.lineno


def test_integer_roots_of_huge_n_without_a_scan():
    b = parse_block_string("0^1000000000 1")
    start = time.perf_counter()
    sp = exact_spectrum(b)
    assert time.perf_counter() - start < 0.1
    assert sp.serialize() == [{"value": "int:-1", "mult": 10 ** 9}, {"value": "int:1000000000", "mult": 1}]


# ---------------------------------------------------------------------------
# Cost independent of n: strings beyond the float range of integers
# ---------------------------------------------------------------------------

def _timed(fn, *args, budget=1.0):
    start = time.perf_counter()
    out = fn(*args)
    assert time.perf_counter() - start < budget
    return out


def test_an_integer_eigenvalue_beyond_2_53_is_exact():
    n = 2 ** 53 + 1  # the float guess rounds to 2^53
    sp = _timed(exact_spectrum, parse_block_string(f"0^{n} 1"))
    assert sp.serialize() == [{"value": "int:-1", "mult": n}, {"value": f"int:{n}", "mult": 1}]


def test_a_unit_chain_of_m_10_15_is_its_predicted_spectrum():
    m = 10 ** 15
    sp = _timed(exact_spectrum, parse_block_string(f"0 1^{m} 0^{m} 1^{2 * m + 1}"))
    assert sp == unit_chain_spectrum(4 * m + 2, m)


def test_cospectral_pair_and_integral_family_at_r_10_30_verify():
    assert _timed(generate_cospectral_pair(10 ** 30 + 1).verify)
    assert _timed(generate_integral_family("F1", 10 ** 30).verify)


def test_cli_cospectral_at_r_10_30_exits_0():
    out = io.StringIO()
    assert _timed(cli.run, ["cospectral", "--r", str(10 ** 30 + 1)], out) == 0
    assert "verified=True" in out.getvalue()


@pytest.mark.parametrize("e", [39, 64, 200])
def test_validate_encloses_interval_eigenvalues_beyond_2_39(e):
    """The quotient of 0^N 1^(N+7) 0^3 1^5 has interval eigenvalues near
    +-sqrt(3N) and N; for N >= 2^39 their squares need cells finer than 2^-40."""
    n = 2 ** e
    sp = _timed(exact_spectrum, parse_block_string(f"0^{n} 1^{n + 7} 0^3 1^5"))
    assert sum(isinstance(v, RootInterval) for v, _m in sp.entries) >= 2
    assert sp.multiplicity(-1) >= 2 * n


def _spectrum_with_finite_guesses(text):
    """exact_spectrum of text, whose float stage must give finite guesses only."""
    b = parse_block_string(text)
    assert all(math.isfinite(g) for g in spectra._quotient_guesses(quotient_matrix(b)))
    return _timed(exact_spectrum, b, budget=5.0)


def test_cell_sizes_beyond_the_float_range_run_without_guesses():
    n = 10 ** 400  # float(n) overflows
    assert spectra._quotient_guesses(quotient_matrix(parse_block_string(f"0^{n} 1"))) == []
    sp = _spectrum_with_finite_guesses(f"0^{n} 1")
    assert sp.serialize() == [{"value": "int:-1", "mult": n}, {"value": f"int:{n}", "mult": 1}]


@pytest.mark.parametrize("text", [
    f"0^{10 ** 300} 1^5 0 1",
    f"0^{10 ** 300} 1^{10 ** 300 + 7} 0^3 1^5",
], ids=["nan", "no_convergence"])
def test_guesses_for_cells_of_10_300_are_finite(text):
    # The symmetric form scales each entry to at most n: sqrt(|C_p|) |C_q|,
    # taken first, would be inf, and eigvalsh of it NaN or no convergence.
    b = parse_block_string(text)
    assert len(_spectrum_with_finite_guesses(text).entries) == 2 * b.k


def test_an_infinite_eigenvalue_guess_is_dropped():
    n = 10 ** 308  # the eigenvalue 2n - 1 is beyond the float range: eigvalsh gives inf
    b = parse_block_string(f"0^{n} 1^{n}")
    assert spectra._quotient_guesses(quotient_matrix(b)) == [0.0]
    sp = _spectrum_with_finite_guesses(f"0^{n} 1^{n}")
    assert sp.serialize() == [{"value": "int:-1", "mult": 2 * n - 1}, {"value": f"int:{2 * n - 1}", "mult": 1}]


def test_a_root_cell_beyond_the_float_range_is_refined():
    n = 10 ** 308  # n fits in a float, 2n + 8 does not: cells near 2n have no float ends
    b = parse_block_string(f"0^{n} 1^{n} 0^3 1^5")
    assert len(spectra._quotient_guesses(quotient_matrix(b))) == 3
    sp = _spectrum_with_finite_guesses(b.caret())
    assert sp.n == 2 * n + 8 and sum(isinstance(v, RootInterval) for v, _m in sp.entries) >= 2
    top = sp.max_value
    assert isinstance(top, RootInterval) and top.lo >> top.shift > 2 ** 1024
    want = root_oracles.refine_root(top.poly, *root_oracles.interval_fractions(top), Fraction(1, 2 ** 80))
    assert top.refined(80) == root_oracles.root_interval(top.poly, *want)


def test_quotient_guesses_keep_only_finite_values(monkeypatch):
    q = quotient_matrix(parse_block_string("0^3 1^2 0 1"))
    assert len(spectra._quotient_guesses(q)) == 4
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([-np.inf, np.nan, 1.0, 2.0]))
    assert spectra._quotient_guesses(q) == [1.0, 2.0]

    def diverge(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    assert spectra._quotient_guesses(q) == []
