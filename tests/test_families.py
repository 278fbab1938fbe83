import itertools
import math
from fractions import Fraction

import pytest

import root_oracles
from seidelchain import (
    Surd,
    classify_integral_pair,
    cospectral_pairs_up_to,
    equiangular_params,
    exact_spectrum,
    generate_cospectral_pair,
    generate_integral_family,
    integral_family_params,
    is_perfect_square,
    mirror_chain_family,
    mirror_chain_string,
    parse_block_string,
    scan_seidel_integral,
    spectrum_from_counts,
    unit_chain_spectrum,
    verify_tables,
)
from seidelchain import (
    BlockString, families, four_cell_class, four_cell_cubic, four_cell_spectrum, intpoly, spectra, tables,
)
from seidelchain.chain import cell_signs
from seidelchain.spectra import RootInterval, has_spectrum


# ---------------------------------------------------------------------------
# Integer square root oracle
# ---------------------------------------------------------------------------

def test_perfect_square_basics():
    assert is_perfect_square(0) and is_perfect_square(1) and is_perfect_square(196)
    assert not is_perfect_square(20)
    big = (10 ** 30 + 7) ** 2
    assert is_perfect_square(big) and not is_perfect_square(big + 1)
    with pytest.raises(ValueError):
        is_perfect_square(-4)


def test_family_discriminants_are_squares():
    for fam in ("F1", "F2", "F3", "F4", "F5", "F6"):
        r0 = {"F5": 3}.get(fam, {"F4": 1, "F6": 1}.get(fam, 2))
        for r in range(r0, 51):
            n, m = integral_family_params(fam, r)
            assert is_perfect_square((n - 2 * m) * (n + 6 * m)), (fam, r)
    for idx in range(3):
        n, m = integral_family_params("S", idx)
        assert is_perfect_square((n - 2 * m) * (n + 6 * m))


# ---------------------------------------------------------------------------
# Cospectral pairs
# ---------------------------------------------------------------------------

def test_pair_r1():
    p = generate_cospectral_pair(1)
    assert (p.r, p.m, p.n) == (1, 3, 14)
    assert p.string_a.caret() == "0 1^3 0^3 1^7"
    assert p.string_b.caret() == "0 1^6 0^6 1"
    assert p.predicted.entries == ((-5, 1), (-1, 11), (5, 1), (11, 1))
    assert p.verify()


def test_pair_r3_and_r19():
    p = generate_cospectral_pair(3)
    assert (p.m, p.n) == (6, 28)
    assert p.predicted.entries == ((-9, 1), (-1, 25), (11, 1), (23, 1))
    p = generate_cospectral_pair(19)
    assert (p.m, p.n) == (30, 140)
    assert p.predicted.entries == ((-41, 1), (-1, 137), (59, 1), (119, 1))


@pytest.mark.parametrize("bad_r", [0, -1, 2, 6])
def test_pair_rejects_bad_r(bad_r):
    with pytest.raises(ValueError):
        generate_cospectral_pair(bad_r)


def test_pairs_are_exactly_cospectral():
    for r in range(1, 43, 2):
        p = generate_cospectral_pair(r)
        sa, sb = exact_spectrum(p.string_a), exact_spectrum(p.string_b)
        assert sa == sb == p.predicted
        assert sa.distinct_count == 4
        # Least eigenvalue -(2m-r) is simple; spectral radius is n-(r+2).
        assert sa.min_value == -(2 * p.m - p.r) and sa.entries[0][1] == 1
        assert sa.max_value == p.n - (p.r + 2) == 4 * p.m - 1


def test_pair_equiangular_parameters():
    for r in (1, 3, 5):
        p = generate_cospectral_pair(r)
        ep = equiangular_params(exact_spectrum(p.string_a))
        assert ep.lines == p.n == 4 * p.m + p.r + 1
        assert ep.dimension == p.n - 1
        assert ep.cosine == Fraction(1, 2 * p.m - p.r)


def test_pairs_up_to():
    pairs = cospectral_pairs_up_to(140)
    assert [p.n for p in pairs] == [14, 28, 42, 56, 70, 84, 98, 112, 126, 140]
    assert cospectral_pairs_up_to(13) == []


def test_pairs_up_to_cap(monkeypatch):
    assert len(cospectral_pairs_up_to(5000)) == 357
    built = []
    monkeypatch.setattr(families, "generate_cospectral_pair", lambda r: built.append(r))
    for n_max in (5001, 10 ** 9):
        with pytest.raises(ValueError, match="capped at"):
            cospectral_pairs_up_to(n_max)
    assert built == []  # refused before any pair is built


# ---------------------------------------------------------------------------
# Mirror chains
# ---------------------------------------------------------------------------

def test_mirror_family_small():
    s, sp = mirror_chain_family(1)
    assert s.caret() == "0 1^2 0^2 1"
    assert sp.entries == ((-3, 1), (-1, 3), (3, 2))
    s, sp = mirror_chain_family(5)
    assert s.caret() == "0^5 1^10 0^10 1^5"
    assert sp.entries == ((-11, 1), (-1, 27), (19, 2))


def test_mirror_family_exact_and_shape():
    for s in range(1, 11):
        string, predicted = mirror_chain_family(s)
        sp = exact_spectrum(string)
        assert sp == predicted
        assert sp.is_integral()
        assert sp.distinct_count == 3
        # trace identity in closed form
        assert -(6 * s - 3) - (2 * s + 1) + 2 * (4 * s - 1) == 0


def test_mirror_string_rejects_bad_s():
    with pytest.raises(ValueError):
        mirror_chain_string(0)


def test_sym_family_members_are_the_mirror_chains():
    for r in (1, 2, 7):
        member = generate_integral_family("SYM", r)
        string, predicted = mirror_chain_family(r)
        assert (member.family_id, member.r, member.n, member.m) == ("SYM", r, 6 * r, 2 * r)
        assert member.string == string and member.predicted == predicted
        assert member.verify()
    with pytest.raises(ValueError, match="s must be positive"):
        generate_integral_family("SYM", 0)
    assert "SYM" not in families.FAMILY_IDS


# ---------------------------------------------------------------------------
# Unit-chain spectra and parameterized families
# ---------------------------------------------------------------------------

def test_unit_chain_spectrum_examples():
    assert unit_chain_spectrum(15, 5).entries == ((-6, 1), (-1, 12), (9, 2))
    assert unit_chain_spectrum(14, 6).entries == ((-5, 1), (-1, 11), (5, 1), (11, 1))
    sp = unit_chain_spectrum(4, 1)
    assert sp.entries == (
        (Surd(0, -1, 5, 1), 1), (-1, 1), (1, 1), (Surd(0, 1, 5, 1), 1))
    assert not sp.is_integral()


def _assert_ascending(sp) -> None:
    values = [float(v) for v, _m in sp.entries]
    assert values == sorted(set(values))


def test_unit_chain_spectrum_matches_the_papers_formula():
    """Every unit chain with n < 200 against -1^(n-3), 2m-1 and
    -(m+1) + (n +- sqrt((n-2m)(n+6m)))/2 (root_oracles.unit_chain_oracle)."""
    chains = 0
    for n in range(4, 200):
        for m in range(1, (n - 2) // 2 + 1):
            sp = unit_chain_spectrum(n, m)
            assert root_oracles.spectrum_fields(sp) == root_oracles.unit_chain_oracle(n, m), (n, m)
            _assert_ascending(sp)
            chains += 1
    assert chains == sum((n - 2) // 2 for n in range(4, 200))


def test_mirror_chain_family_matches_the_papers_formula():
    """Every mirror chain with s <= 100 against -1^(6s-3), -(2s+1), (4s-1)^2
    (root_oracles.mirror_chain_oracle)."""
    for s in range(1, 101):
        sp = mirror_chain_family(s)[1]
        assert root_oracles.spectrum_fields(sp) == root_oracles.mirror_chain_oracle(s), s
        _assert_ascending(sp)


def test_unit_chain_charpoly_symbolically():
    """The quotient charpoly of 0 1^m 0^m 1^(n-2m-1) for all m and n at once."""
    sympy = pytest.importorskip("sympy")
    m, n, x, s = sympy.symbols("m n x s")
    chi = sum(c * x ** i for i, c in enumerate(intpoly.char_poly_ints((1, m, m, n - 2 * m - 1))))
    quad = x ** 2 - (n - 2 * m - 2) * x + 4 * m ** 2 - 2 * m * n + 2 * m - n + 1
    assert sympy.expand(chi - (x + 1) * (x - 2 * m + 1) * quad) == 0
    disc = (n - 2 * m) * (n + 6 * m)
    assert sympy.expand(sympy.discriminant(quad, x) - disc) == 0
    # The product of 2m-1 and the two roots of quad is f(m).
    assert sympy.expand((2 * m - 1) * quad.subs(x, 0) - (8 * m ** 3 - 4 * n * m ** 2 + n - 1)) == 0
    # unit_chain_spectrum's pair -(m+1) + (n +- s)/2 are the roots of quad when s^2 = disc.
    for sign in (1, -1):
        value = -(m + 1) + (n + sign * s) / 2
        assert sympy.expand(quad.subs(x, value) - (s ** 2 - disc) / 4) == 0


# ---------------------------------------------------------------------------
# Four-cell chain graphs: the class {a+d, b, c} and its cubic
# ---------------------------------------------------------------------------

def test_four_cell_cubic_equals_the_charpoly_on_every_string_up_to_n_30():
    strings = 0
    for a in range(1, 28):
        for b in range(1, 29 - a):
            for c in range(1, 30 - a - b):
                for d in range(1, 31 - a - b - c):
                    y_poly = (0, *four_cell_cubic(*four_cell_class(BlockString(((a, b), (c, d))))))
                    assert intpoly.poly_shift(y_poly, 1) == intpoly.char_poly_ints((a, b, c, d)), (a, b, c, d)
                    strings += 1
    assert strings == 27405


def test_four_cell_cubic_symbolically():
    """det(xI - Q) for 0^a 1^b 0^c 1^d, from the cell signs and symbolic
    sizes, is y (y^3 - n y^2 + 4 bc(a+d)) with y = x + 1."""
    sympy = pytest.importorskip("sympy")
    a, b, c, d, x = sympy.symbols("a b c d x", positive=True)
    sizes = (a, b, c, d)
    signs = cell_signs(BlockString(((1, 1), (1, 1))))
    q = sympy.Matrix([[signs[i][j] * sizes[j] - int(i == j) for j in range(4)] for i in range(4)])
    y = x + 1
    p, n = (a + d) * b * c, a + b + c + d
    cubic = sum(coeff * y ** i for i, coeff in enumerate(four_cell_cubic(a + d, b, c)))
    assert sympy.expand((x * sympy.eye(4) - q).det() - y * cubic) == 0
    assert sympy.expand(cubic - (y ** 3 - n * y ** 2 + 4 * p)) == 0


def test_four_cell_class_is_the_sorted_multiset_and_refuses_other_k():
    assert four_cell_class(parse_block_string("0^2 1^7 0^3 1^5")) == (3, 7, 7)
    assert four_cell_cubic(3, 7, 7) == (588, 0, -17, 1)
    for text in ("0 1", "0 1 0 1 0 1"):
        with pytest.raises(ValueError):
            four_cell_class(parse_block_string(text))


@pytest.mark.parametrize("texts", [
    ("0 1^5 0 1^7", "0 1^2 0^2 1^9"),  # {1, 5, 8} and {2, 2, 10}, n = 14
    ("0 1^15 0^20 1^3", "0 1^10 0^24 1^4", "0 1^8 0^25 1^5"),  # {4, 15, 20}, {5, 10, 24}, {6, 8, 25}
])
def test_equal_sum_and_product_classes_are_cospectral(texts):
    strings = [parse_block_string(t) for t in texts]
    classes = [four_cell_class(b) for b in strings]
    assert len(set(classes)) == len(classes)
    assert len({four_cell_cubic(*cls) for cls in classes}) == 1
    spectra_ = [exact_spectrum(b) for b in strings]
    assert all(sp == spectra_[0] for sp in spectra_)
    if strings[0].n == 39:  # the cubic is irreducible: three interval eigenvalues
        assert sum(isinstance(v, RootInterval) for v, _m in spectra_[0].entries) == 3


def test_unit_chain_spectrum_validates_input():
    with pytest.raises(ValueError):
        unit_chain_spectrum(5, 2)  # n = 2m+1
    with pytest.raises(ValueError):
        unit_chain_spectrum(4, 0)


@pytest.mark.parametrize("arcs", [(0, 2, 3), (3, -1, 3), (1, 1, 1), (0, 0, 0)])
def test_four_cell_spectrum_refuses_what_is_no_class(arcs):
    """A class {a+d, b, c} has arcs of at least 1 and a + d >= 2."""
    with pytest.raises(ValueError, match="four-cell class"):
        four_cell_spectrum(*arcs)


def test_four_cell_spectrum_is_the_spectrum_of_its_class():
    """On every four-cell string with n <= 16, in any order of the arcs; and
    four_cell_class is the one of spectra, importable from families too."""
    assert families.four_cell_class is spectra.four_cell_class is four_cell_class
    for a, b, c, d in itertools.product(range(1, 14), repeat=4):
        if a + b + c + d <= 16:
            string = BlockString(((a, b), (c, d)))
            assert four_cell_spectrum(c, a + d, b) == exact_spectrum(string), string


@pytest.mark.parametrize("family,r,expected", [
    ("F1", 2, (6, 2)),
    ("F2", 2, (26, 12)),
    ("F3", 2, (26, 4)),
    ("F4", 1, (6, 2)),
    ("F5", 3, (31, 3)),
    ("F6", 1, (12, 4)),
    ("S", 0, (6, 2)),
    ("S", 1, (14, 6)),
    ("S", 2, (12, 4)),
])
def test_family_params(family, r, expected):
    assert integral_family_params(family, r) == expected


@pytest.mark.parametrize("family,r", [
    ("F1", 1), ("F2", 1), ("F3", 0), ("F4", 0), ("F5", 2), ("F6", 0),
    ("S", 3), ("S", -1), ("XX", 2),
])
def test_family_params_rejects(family, r):
    with pytest.raises(ValueError):
        integral_family_params(family, r)


def test_generated_families_are_integral():
    for fam in ("F1", "F2", "F3", "F4", "F5", "F6"):
        r0 = {"F5": 3, "F4": 1, "F6": 1}.get(fam, 2)
        for r in range(r0, r0 + 5):
            member = generate_integral_family(fam, r)
            assert member.predicted.is_integral()
            assert member.verify()


def test_sporadics_verify():
    for idx in range(3):
        member = generate_integral_family("S", idx)
        assert member.verify()


# ---------------------------------------------------------------------------
# Integral scan
# ---------------------------------------------------------------------------

def _scan_fields(hits) -> list[tuple]:
    return [(h.n, h.m, h.families, h.verified_integral) for h in hits]


def test_scan_matches_the_brute_oracle():
    for n_max in [*range(-2, 61), 150, 500]:
        want = _scan_fields(root_oracles.brute_scan_seidel_integral(n_max))
        assert _scan_fields(scan_seidel_integral(n_max)) == want, n_max
    assert len(want) == 771 and all(verified for *_, verified in want)  # n_max = 500


def test_scan_calls_no_exact_spectrum_and_no_square_test(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scan must not call this")
    monkeypatch.setattr(spectra, "exact_spectrum", refuse)
    monkeypatch.setattr(families, "is_perfect_square", refuse)
    hits = scan_seidel_integral(500)
    assert len(hits) == 771 and all(h.verified_integral for h in hits)


@pytest.mark.parametrize("n,m", [(9, 3), (15, 5), (6, 2), (14, 6), (494, 238), (499, 225)])
def test_integral_certificate(n, m):
    root = math.isqrt((n - 2 * m) * (n + 6 * m))
    assert root * root == (n - 2 * m) * (n + 6 * m)
    assert families._integral_certificate(n, m, root)
    if n == 3 * m:  # the upper value -(m+1) + (n + root)/2 is 2m-1 again
        assert (2 * m - 1, 2) in unit_chain_spectrum(n, m).entries
    for wrong in (root + 2, root - 2, root + 1, 0, -root - 2):
        assert not families._integral_certificate(n, m, wrong)


def test_integral_certificate_refuses_a_non_square_discriminant():
    for n, m in ((4, 1), (7, 2), (500, 3)):
        disc = (n - 2 * m) * (n + 6 * m)
        assert not is_perfect_square(disc)
        for root in (math.isqrt(disc), math.isqrt(disc) + 1):
            assert not families._integral_certificate(n, m, root)


def test_integral_certificate_refuses_a_generator_off_by_one():
    """Each scan hit's root, with n or m off by one, is refused unless the
    moved (n, m) is itself an integral unit chain with that root: only
    (39, 6) and (39, 7) share one, 45, up to n = 500."""
    shared = []
    for hit in scan_seidel_integral(500):
        n, m = hit.n, hit.m
        root = math.isqrt((n - 2 * m) * (n + 6 * m))
        for n2, m2 in ((n + 1, m), (n - 1, m), (n, m + 1), (n, m - 1)):
            true_claim = m2 >= 1 and n2 > 2 * m2 + 1 and (n2 - 2 * m2) * (n2 + 6 * m2) == root * root
            assert families._integral_certificate(n2, m2, root) == true_claim, (n, m, n2, m2)
            if true_claim:
                shared.append((n2, m2))
    assert shared == [(39, 7), (39, 6)]


# ---------------------------------------------------------------------------
# Spectrum certificates
# ---------------------------------------------------------------------------

def test_claims_are_certified_without_root_isolation(monkeypatch):
    """Every table row, cospectral pair, family member and scan hit is
    certified by the charpoly identity alone: no integer-root strip, Sturm
    chain or isolation runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum certificate must not locate roots")
    for name in ("isolate_real_roots", "sturm_chain", "integer_roots"):
        monkeypatch.setattr(intpoly, name, refuse)
    assert verify_tables()["all_pass"]
    assert all(pair.verify() for pair in cospectral_pairs_up_to(140))
    for fam in ("F1", "F2", "F3", "F4", "F5", "F6"):
        r0 = {"F5": 3, "F4": 1, "F6": 1}.get(fam, 2)
        assert all(generate_integral_family(fam, r).verify() for r in range(r0, r0 + 5)), fam
    assert all(generate_integral_family("S", r).verify() for r in range(3))
    assert all(generate_integral_family("SYM", r).verify() for r in range(1, 6))
    hits = scan_seidel_integral(500)
    assert len(hits) == 771 and all(h.verified_integral for h in hits)


def test_pair_prediction_is_the_closed_form():
    """The pair's prediction, read off unit_chain_spectrum, is the paper's
    -1^(n-3), -(2m-r), 2m-1, 4m-1."""
    for r in range(1, 200, 2):
        p = generate_cospectral_pair(r)
        m, n = p.m, p.n
        assert p.predicted == spectrum_from_counts(
            [(-1, n - 3), (-(2 * m - r), 1), (2 * m - 1, 1), (4 * m - 1, 1)]), r


_TABLE_CLAIMS = ([(text, row[3]) for row in tables.COSPECTRAL_TABLE for text in row[1:3]]
                 + [claim for row in tables.INTEGRAL_TABLE for claim in (row[:2], row[2:])])


@pytest.mark.parametrize("text,entries", _TABLE_CLAIMS)
def test_has_spectrum_refuses_altered_claims(text, entries):
    b = parse_block_string(text)
    assert has_spectrum(b, entries)
    for i, (v, mult) in enumerate(entries):
        for shift in (-2, 2):
            assert not has_spectrum(b, entries[:i] + ((v + shift, mult),) + entries[i + 1:])
    for i, j in itertools.permutations(range(len(entries)), 2):
        moved = [list(e) for e in entries]
        moved[i][1] -= 1
        moved[j][1] += 1
        assert not has_spectrum(b, [tuple(e) for e in moved])


def test_an_altered_golden_row_fails(monkeypatch):
    n, sa, sb, entries = tables.COSPECTRAL_TABLE[3]
    cospectral = list(tables.COSPECTRAL_TABLE)
    cospectral[3] = (n, sa, sb, ((entries[0][0] + 2, 1),) + entries[1:])
    ms, m_exp, us, u_exp = tables.INTEGRAL_TABLE[-1]
    integral = list(tables.INTEGRAL_TABLE)
    integral[-1] = (ms, m_exp[:-1] + ((m_exp[-1][0] - 2, m_exp[-1][1]),), us, u_exp)
    monkeypatch.setattr(tables, "COSPECTRAL_TABLE", tuple(cospectral))
    monkeypatch.setattr(tables, "INTEGRAL_TABLE", tuple(integral))
    report = verify_tables()
    assert [row["pass"] for row in report["cospectral"]["rows"]] == [True] * 3 + [False] + [True] * 6
    last = report["integral"]["rows"][-1]
    assert (last["mirror_pass"], last["unit_pass"], last["pass"]) == (False, True, False)
    assert report["integral"]["passed"] == 9 and not report["all_pass"]


def test_scan_to_15_frozen():
    hits = {(h.n, h.m): h for h in scan_seidel_integral(15)}
    assert set(hits) == {(6, 2), (9, 3), (12, 4), (13, 2), (14, 3), (14, 6), (15, 5)}
    assert all(h.verified_integral for h in hits.values())
    assert hits[(6, 2)].families == ("F1", "F4", "S")
    assert hits[(12, 4)].families == ("F1", "F6", "S")
    assert hits[(14, 6)].families == ("F4", "S")
    assert hits[(15, 5)].families == ("F1",)
    # The r=1 members of the 13r families and the r=1 cospectral string fall
    # outside every stated family range.
    assert hits[(13, 2)].unclassified
    assert hits[(14, 3)].unclassified


def test_scan_contains_all_family_members():
    hits = {(h.n, h.m) for h in scan_seidel_integral(100)}
    for fam in ("F1", "F2", "F3", "F4", "F5", "F6"):
        r0 = {"F5": 3, "F4": 1, "F6": 1}.get(fam, 2)
        r = r0
        while True:
            n, m = integral_family_params(fam, r)
            if n > 100:
                break
            assert (n, m) in hits, (fam, r)
            r += 1


def test_scan_cap():
    with pytest.raises(ValueError):
        scan_seidel_integral(501)


def test_scan_hit_serialization():
    hit = scan_seidel_integral(6)[0]
    doc = hit.serialize()
    assert doc == {
        "n": 6, "m": 2, "families": ["F1", "F4", "S"],
        "unclassified": False, "verified": True,
    }


def test_classify_integral_pair_direct():
    assert classify_integral_pair(26, 12) == ("F2", "F4")
    assert classify_integral_pair(31, 3) == ("F5",)
    assert classify_integral_pair(19, 5) == ()


@pytest.mark.parametrize("n,m", [
    (0, 0), (6, 0), (2, 0), (4, 0), (6, -2), (12, -4), (-6, 2), (0, 2), (-3, -1), (-12, -4),
    (3, -10 ** 30), (-10 ** 30, 10 ** 30),
])
def test_classify_nonpositive_pairs(n, m):
    assert classify_integral_pair(n, m) == ()


def test_classify_below_each_family_range():
    # The members at r_min - 1: F1 (3, 1), F2 (13, 6), F3 (13, 2), F4 (2, 0),
    # F5 (13, 2), F6 (4, 0); none of them is in another family's range.
    for n, m in ((3, 1), (13, 6), (13, 2), (2, 0), (4, 0)):
        assert classify_integral_pair(n, m) == ()


@pytest.mark.parametrize("family_id,r", [
    ("F1", 10 ** 30), ("F2", 10 ** 30), ("F3", 10 ** 30), ("F4", 10 ** 15), ("F5", 10 ** 30),
    ("F6", 10 ** 15), ("F4", 10 ** 15 - 1), ("F6", 10 ** 15 + 1),
])
def test_classify_huge_members(family_id, r):
    n, m = integral_family_params(family_id, r)
    assert m >= 10 ** 30 - 2 * 10 ** 15
    assert classify_integral_pair(n, m) == (family_id,)
    assert classify_integral_pair(n + 1, m) == classify_integral_pair(n, m + 1) == ()


def test_classify_integral_pair_matches_a_walk_of_the_families():
    """Every scan hit up to n = 500 gets the families that generate it, by
    a walk of integral_family_params over every r whose n can be <= 500."""
    walked: dict[tuple[int, int], list[str]] = {}
    for family_id in families.FAMILY_IDS:
        for r in range(501):  # n(r) > r in every family
            try:
                n, m = integral_family_params(family_id, r)
            except ValueError:  # r below the family's range, or no such sporadic pair
                continue
            if n <= 500:
                walked.setdefault((n, m), []).append(family_id)
    hits = scan_seidel_integral(500)
    assert len(hits) == 771 and any(walked.get((h.n, h.m)) for h in hits)
    for h in hits:
        assert h.families == classify_integral_pair(h.n, h.m) == tuple(walked.get((h.n, h.m), ())), (h.n, h.m)


def test_predicted_spectra_satisfy_identities():
    # spectrum_from_counts + validate() runs the trace/Frobenius identities.
    for r in (1, 5, 9):
        generate_cospectral_pair(r).predicted.validate()
    for s in (1, 4, 8):
        mirror_chain_family(s)[1].validate()
    with pytest.raises(ValueError):
        # trace is 0 but the Frobenius sum is 2, not 3*2
        spectrum_from_counts([(-1, 1), (0, 1), (1, 1)]).validate()
