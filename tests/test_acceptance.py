"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here: spectra and witnesses are exact
(zero tolerance), numeric cross-checks allow 1e-8 per sorted position, and
the stated runtime budgets are asserted.

Criterion 3 asserts that 0 1^5 0^5 1^4 has exactly one regular switching,
which refutes the bundled claim that this graph (spectrum {-6, -1^12, 9^2},
three distinct integer eigenvalues) has none.  Count by hand with cells
C1 = one 0-vertex, C2 = five 1-vertices, C3 = five 0-vertices and C4 = four
1-vertices; the edges are C1-C2, C1-C4 and C3-C4.  Switching on C3 u C4
(vertices 6..14, mask 0b111111111000000) keeps C1-C2 and C3-C4, drops C1-C4
and adds C1-C3, C2-C3 and C2-C4, so the degrees become C1: 5+5,
C2: 1+5+4, C3: 4+1+5 and C4: 5+5, all 10.  This agrees with the spectrum,
since the all-ones vector of a d-regular graph is a Seidel eigenvector with
eigenvalue n-1-2d = 14-20 = -6.  The exhaustive search finds this witness
and no other, in agreement with the brute-force rebuild in
tests/test_switching.py.  The criterion also checks the witness without the
Gray walk (switch_on_subset on that mask, and -6 in exact_spectrum), and
keeps its other checks: 16384 subsets examined, a bi-regular {7,8} witness
with per-cell split (0,2,3,2), and both searches under 1 s.  Whether the
source's general answer to Greaves' question still holds by some other
example is not settled here; this example is not a counterexample.
"""

import random
import time
from fractions import Fraction

from conftest import random_block_string, random_graph, random_subset_mask
from seidelchain import (
    biregular_profile,
    build_chain_graph,
    class_certificate,
    equiangular_params,
    exact_spectrum,
    generate_cospectral_pair,
    generate_integral_family,
    integral_family_params,
    is_perfect_square,
    mirror_chain_family,
    numeric_spectrum,
    parse_block_string,
    quotient_spectrum,
    regular_profile,
    scan_seidel_integral,
    search_class_by_degree_profile,
    seidel_matrix,
    spectrum_from_counts,
    switch_on_subset,
    unit_chain_string,
)
from seidelchain.tables import COSPECTRAL_TABLE, INTEGRAL_TABLE

NUMERIC_TOL = 1e-8


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_01_cospectral_table():
    start = time.monotonic()
    ok = True
    for n, sa, sb, expected in COSPECTRAL_TABLE:
        golden = spectrum_from_counts(list(expected))
        spec_a = exact_spectrum(parse_block_string(sa))
        spec_b = exact_spectrum(parse_block_string(sb))
        row_ok = spec_a == golden and spec_b == golden
        row_ok = row_ok and spec_a.n == n and golden.multiplicity(-1) == n - 3
        ok = ok and row_ok
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, "cospectral table reproduced exactly (10 rows)",
            f"{elapsed*1000:.0f} ms")
    assert ok


def test_criterion_02_integral_table():
    ok = True
    for ms, m_exp, us, u_exp in INTEGRAL_TABLE:
        ok = ok and exact_spectrum(parse_block_string(ms)) == spectrum_from_counts(list(m_exp))
        ok = ok and exact_spectrum(parse_block_string(us)) == spectrum_from_counts(list(u_exp))
    # Annotated last row: 39 vertices, -1 multiplicity 36 = n - 3.
    last = exact_spectrum(parse_block_string("01^6 0^6 1^26"))
    ok = ok and last.n == 39 and last.multiplicity(-1) == 36
    _report(2, ok, "integral table reproduced exactly (10 rows, both columns)",
            "last row: n=39, mult(-1)=36")
    assert ok


def test_criterion_03_corollary_counterexample_search():
    start = time.monotonic()
    b = parse_block_string("01^5 0^5 1^4")
    g = build_chain_graph(b)
    reg = search_class_by_degree_profile(g, regular_profile, all_witnesses=True)
    bireg = search_class_by_degree_profile(g, biregular_profile(7, 8), all_witnesses=True)
    elapsed = time.monotonic() - start
    splits = {w.split_per_cell for w in bireg.witnesses}
    # Certificate without the Gray walk: switch on C3 u C4 directly, and
    # check that the valency d = 10 gives the eigenvalue n-1-2d = -6.
    mask = 0b111111111000000
    switched_degrees = {row.bit_count() for row in switch_on_subset(g, mask).rows}
    spectrum = exact_spectrum(b)
    checks = {
        "16384 subsets": reg.subsets_examined == 16384,
        "1 regular witness": reg.match_count == 1,
        "witness 10-regular, split (0,0,5,4), subset 0b111111111000000":
            [(w.degrees, w.split_per_cell, w.subset) for w in reg.witnesses]
            == [((10,) * 15, (0, 0, 5, 4), mask)],
        "certificate: switched rows all of popcount 10": switched_degrees == {10},
        "certificate: n-1-2*10 = -6 in exact spectrum":
            spectrum.multiplicity(g.n - 1 - 2 * 10) >= 1,
        "bi-regular {7,8} witness": bireg.match_count >= 1,
        "split (0,2,3,2)": (0, 2, 3, 2) in splits,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    detail = "; ".join(f"{name}: {'ok' if ok_ else 'FAILED'}" for name, ok_ in checks.items())
    if not ok:
        detail += f"; {reg.match_count} regular witnesses found"
        for w in reg.witnesses:
            detail += (f"; degrees {sorted(set(w.degrees))}, split {w.split_per_cell}, "
                       f"subset {w.subset:#b}")
        detail += f"; switched degrees {sorted(switched_degrees)}"
    _report(3, ok, "0 1^5 0^5 1^4 has exactly one regular switching "
            "(10-regular, split (0,0,5,4)), so the source's corollary fails "
            "for this example", detail)
    assert ok


def test_criterion_04_minus_one_multiplicity_and_numeric_agreement():
    rng = random.Random(20260808)
    worst = 0.0
    ok = True
    for _ in range(500):
        b = random_block_string(rng, max_k=6, max_n=60)
        sp = exact_spectrum(b)
        ok = ok and sp.multiplicity(-1) == b.n - 2 * b.k + 1
        numeric = numeric_spectrum(seidel_matrix(build_chain_graph(b)))
        approx = sp.to_floats()
        ok = ok and len(approx) == len(numeric)
        for a, x in zip(approx, numeric):
            worst = max(worst, abs(a - x))
    ok = ok and worst < NUMERIC_TOL
    _report(4, ok, "mult(-1) = n-2k+1 and exact/numeric agreement, 500 strings",
            f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_05_quotient_multiplicity_bound():
    rng = random.Random(20260808)
    ok = True
    for _ in range(500):
        b = random_block_string(rng, max_k=6, max_n=60)
        ok = ok and all(m <= 2 for _v, m in quotient_spectrum(b).entries)
    _report(5, ok, "no quotient eigenvalue multiplicity exceeds 2 (500 strings)")
    assert ok


def test_criterion_06_inequivalence_of_string_pairs():
    start = time.monotonic()
    certs = {}
    for total in range(5, 14):
        for a in range(1, (total - 1) // 2 + 1):
            key = (a, total - 2 * a)
            certs[key] = class_certificate(
                build_chain_graph(unit_chain_string(*key)))
    pairs = 0
    failures = []
    for total in range(5, 14):
        group = [(a, total - 2 * a) for a in range(1, (total - 1) // 2 + 1)]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                pairs += 1
                if certs[group[i]] == certs[group[j]]:
                    failures.append((group[i], group[j]))
    elapsed = time.monotonic() - start
    table_pair_ok = certs[(3, 7)] != certs[(6, 1)]
    ok = not failures and table_pair_ok and pairs == 55 and elapsed < 300
    _report(6, ok, "string pairs (a1 != a2, 2a1+b1 = 2a2+b2, n <= 14) never switching-isomorphic",
            f"{pairs} pairs, {elapsed:.1f} s")
    assert ok


def test_criterion_07_mirror_family():
    ok = True
    lam_min_mults = []
    for s in range(1, 11):
        string, predicted = mirror_chain_family(s)
        sp = exact_spectrum(string)
        ok = ok and sp == predicted
        ok = ok and sp.entries == ((-(2 * s + 1), 1), (-1, 6 * s - 3), (4 * s - 1, 2))
        ok = ok and sp.distinct_count == 3
        lam_min_mults.append(sp.entries[0][1])
    for s in (1, 2):
        g = build_chain_graph(mirror_chain_family(s)[0])
        res = search_class_by_degree_profile(g, regular_profile, all_witnesses=True)
        ok = ok and any(w.degrees == (3 * s,) * (6 * s) for w in res.witnesses)
    # Documented discrepancy: the computed multiplicity of the least
    # eigenvalue -(2s+1) is 1 for every s, not 2.
    mult_detail = f"computed mult(lambda_min) = {sorted(set(lam_min_mults))} (stated elsewhere as 2)"
    ok = ok and all(m == 1 for m in lam_min_mults)
    _report(7, ok, "mirror family spectra, 3 distinct values, 3s-regular switching for s <= 2",
            mult_detail)
    assert ok


def test_criterion_08_integral_families_and_scan():
    ok = True
    family_hits = []
    for fam in ("F1", "F2", "F3", "F4", "F5", "F6"):
        r0 = {"F5": 3, "F4": 1, "F6": 1}.get(fam, 2)
        for r in range(r0, 31):
            member = generate_integral_family(fam, r)
            ok = ok and is_perfect_square((member.n - 2 * member.m) * (member.n + 6 * member.m))
            ok = ok and exact_spectrum(member.string).is_integral()
            family_hits.append((member.n, member.m))
    for idx in range(3):
        member = generate_integral_family("S", idx)
        ok = ok and member.verify()
    hits = scan_seidel_integral(200)
    hit_set = {(h.n, h.m) for h in hits}
    ok = ok and all(h.verified_integral for h in hits)
    missing = [nm for nm in family_hits if nm[0] <= 200 and nm not in hit_set]
    ok = ok and not missing
    unclassified = sorted((h.n, h.m) for h in hits if h.unclassified)
    _report(8, ok, "integral families r <= 30 verified; scan to n=200 covers them",
            f"{len(hits)} hits, unclassified: {unclassified}")
    assert ok


def test_criterion_09_structural_invariants():
    rng = random.Random(90909)
    ok = True
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(2, 20)
        g = random_graph(rng, n)
        u = random_subset_mask(rng, n)
        s = seidel_matrix(g)
        entries = s.entries.tolist()
        ok = ok and sum(entries[i][i] for i in range(n)) == 0
        ok = ok and sum(x * x for row in entries for x in row) == n * (n - 1)
        h = switch_on_subset(g, u)
        ok = ok and switch_on_subset(h, u).rows == g.rows
        ok = ok and switch_on_subset(g, ((1 << n) - 1) ^ u).rows == h.rows
        sh = seidel_matrix(h)
        switched = sh.entries.tolist()
        d = [-1 if (u >> v) & 1 else 1 for v in range(n)]
        ok = ok and all(
            switched[i][j] == d[i] * entries[i][j] * d[j]
            for i in range(n) for j in range(n)
        )
        for x, y in zip(numeric_spectrum(s), numeric_spectrum(sh)):
            worst = max(worst, abs(x - y))
    ok = ok and worst < NUMERIC_TOL
    _report(9, ok, "trace/Frobenius, switching involution/complement, DSD, cospectrality (1000 trials)",
            f"worst numeric deviation {worst:.2e}")
    assert ok


def test_criterion_10_equiangular_parameters():
    ok = True
    for r in range(1, 21, 2):
        pair = generate_cospectral_pair(r)
        for string in (pair.string_a, pair.string_b):
            ep = equiangular_params(exact_spectrum(string))
            ok = ok and ep.lines == 4 * pair.m + r + 1 == pair.n
            ok = ok and ep.dimension == pair.n - 1
            ok = ok and ep.cosine == Fraction(1, 2 * pair.m - r)
    _report(10, ok, "equiangular parameters (n, n-1, 1/(2m-r)) for every table pair")
    assert ok
