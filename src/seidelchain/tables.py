"""Bundled golden tables and their recomputation harness.

Two reference tables ship with the library: ten cospectral unit-chain pairs
(n = 14 .. 140) and ten rows of integral chain graphs (a mirror-chain column
and a unit-chain column).  verify_tables() certifies every tabulated
spectrum by spectra.has_spectrum, one characteristic-polynomial identity per
string with no root isolation, and reports row by row; the CLI exposes it as
`verify-tables`.
"""

from __future__ import annotations

from .chain import parse_block_string
from .spectra import has_spectrum, spectrum_from_counts

# (n, string_a, string_b, spectrum entries ascending)
COSPECTRAL_TABLE: tuple[tuple[int, str, str, tuple[tuple[int, int], ...]], ...] = (
    (14, "0 1^3 0^3 1^7", "0 1^6 0^6 1", ((-5, 1), (-1, 11), (5, 1), (11, 1))),
    (28, "0 1^6 0^6 1^15", "0 1^12 0^12 1^3", ((-9, 1), (-1, 25), (11, 1), (23, 1))),
    (42, "0 1^9 0^9 1^23", "0 1^18 0^18 1^5", ((-13, 1), (-1, 39), (17, 1), (35, 1))),
    (56, "0 1^12 0^12 1^31", "0 1^24 0^24 1^7", ((-17, 1), (-1, 53), (23, 1), (47, 1))),
    (70, "0 1^15 0^15 1^39", "0 1^30 0^30 1^9", ((-21, 1), (-1, 67), (29, 1), (59, 1))),
    (84, "0 1^18 0^18 1^47", "0 1^36 0^36 1^11", ((-25, 1), (-1, 81), (35, 1), (71, 1))),
    (98, "0 1^21 0^21 1^55", "0 1^42 0^42 1^13", ((-29, 1), (-1, 95), (41, 1), (83, 1))),
    (112, "0 1^24 0^24 1^63", "0 1^48 0^48 1^15", ((-33, 1), (-1, 109), (47, 1), (95, 1))),
    (126, "0 1^27 0^27 1^71", "0 1^54 0^54 1^17", ((-37, 1), (-1, 123), (53, 1), (107, 1))),
    (140, "0 1^30 0^30 1^79", "0 1^60 0^60 1^19", ((-41, 1), (-1, 137), (59, 1), (119, 1))),
)

# (mirror string, mirror spectrum, unit string, unit spectrum)
INTEGRAL_TABLE: tuple[tuple[str, tuple, str, tuple], ...] = (
    ("0 1^2 0^2 1", ((-3, 1), (-1, 3), (3, 2)),
     "0 1^3 0^3 1^2", ((-4, 1), (-1, 6), (5, 2))),
    ("0^2 1^4 0^4 1^2", ((-5, 1), (-1, 9), (7, 2)),
     "0 1^3 0^3 1^24", ((-6, 1), (-1, 28), (5, 1), (29, 1))),
    ("0^3 1^6 0^6 1^3", ((-7, 1), (-1, 15), (11, 2)),
     "0 1^4 0^4 1^48", ((-8, 1), (-1, 54), (7, 1), (55, 1))),
    ("0^4 1^8 0^8 1^4", ((-9, 1), (-1, 21), (15, 2)),
     "0 1^6 0^6 1", ((-5, 1), (-1, 11), (5, 1), (11, 1))),
    ("0^5 1^10 0^10 1^5", ((-11, 1), (-1, 27), (19, 2)),
     "0 1^5 0^5 1^80", ((-10, 1), (-1, 88), (9, 1), (89, 1))),
    ("0^6 1^12 0^12 1^6", ((-13, 1), (-1, 33), (23, 2)),
     "0 1^4 0^4 1^3", ((-5, 1), (-1, 9), (7, 2))),
    ("0^7 1^14 0^14 1^7", ((-15, 1), (-1, 39), (27, 2)),
     "0 1^12 0^12 1", ((-7, 1), (-1, 23), (7, 1), (23, 1))),
    ("0^8 1^16 0^16 1^8", ((-17, 1), (-1, 45), (31, 2)),
     "0 1^4 0^4 1^17", ((-7, 1), (-1, 23), (7, 1), (23, 1))),
    ("0^9 1^18 0^18 1^9", ((-19, 1), (-1, 51), (35, 2)),
     "0 1^5 0^5 1^4", ((-6, 1), (-1, 12), (9, 2))),
    ("0^10 1^20 0^20 1^10", ((-21, 1), (-1, 57), (39, 2)),
     "0 1^6 0^6 1^26", ((-10, 1), (-1, 36), (11, 1), (35, 1))),
)

# The final unit-chain row often reads as if its order were 36; it is a
# 39-vertex graph, and the -1 multiplicity 36 equals n - 3 as in every row.
LAST_ROW_ANNOTATION = (
    "0 1^6 0^6 1^26 has n = 39 vertices; the eigenvalue -1 has multiplicity"
    " 36 = n - 3, so the spectrum lists 39 values in total."
)


def verify_tables() -> dict:
    """Certify both golden tables exactly; returns a row-by-row report."""
    cos_rows = []
    for n, sa, sb, expected in COSPECTRAL_TABLE:
        ba, bb = parse_block_string(sa), parse_block_string(sb)
        ok = has_spectrum(ba, expected) and has_spectrum(bb, expected) and ba.n == n
        cos_rows.append({
            "n": n,
            "string_a": sa,
            "string_b": sb,
            "expected": spectrum_from_counts(expected).serialize(),
            "pass": ok,
        })
    int_rows = []
    for idx, (ms, m_exp, us, u_exp) in enumerate(INTEGRAL_TABLE):
        m_ok = has_spectrum(parse_block_string(ms), m_exp)
        u_ok = has_spectrum(parse_block_string(us), u_exp)
        row = {
            "mirror_string": ms,
            "mirror_expected": spectrum_from_counts(m_exp).serialize(),
            "mirror_pass": m_ok,
            "unit_string": us,
            "unit_expected": spectrum_from_counts(u_exp).serialize(),
            "unit_pass": u_ok,
            "pass": m_ok and u_ok,
        }
        if idx == len(INTEGRAL_TABLE) - 1:
            row["annotation"] = LAST_ROW_ANNOTATION
        int_rows.append(row)
    cos_passed = sum(1 for r in cos_rows if r["pass"])
    int_passed = sum(1 for r in int_rows if r["pass"])
    return {
        "cospectral": {"rows": cos_rows, "passed": cos_passed, "total": len(cos_rows)},
        "integral": {"rows": int_rows, "passed": int_passed, "total": len(int_rows)},
        "all_pass": cos_passed == len(cos_rows) and int_passed == len(int_rows),
    }
