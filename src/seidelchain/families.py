"""Cospectral pairs and Seidel-integral families of chain graphs.

Two shapes of block string drive everything here:

* unit chains 0 1^a 0^a 1^b (a single leading 0-vertex, equal middle
  blocks): the n-vertex unit chain with a = m has Seidel spectrum
  -1^(n-3), 2m-1, and -(m+1) + (n +- sqrt((n-2m)(n+6m)))/2, so it is
  integral exactly when (n-2m)(n+6m) is a perfect square.
* mirror chains 0^s 1^2s 0^2s 1^s, always integral with spectrum
  -1^(6s-3), -(2s+1), (4s-1)^2.

Pairs of unit chains with the same spectrum arise for every odd r >= 1 via
m = 3(r+1)/2; the parameterized families below enumerate perfect-square
solutions (n, m).

Every integral unit chain comes from a triple (g, a, b).  Two positive
integers whose product is a square have the same square-free part g, so
(n-2m)(n+6m) is a square exactly when n - 2m = g a^2 and n + 6m = g b^2
with g square-free, and then a < b since m >= 1.  Conversely such a triple
gives n = g(3a^2 + b^2)/4 and m = g(b^2 - a^2)/8 whenever 8 divides
g(b^2 - a^2) (which needs b = a mod 2, and makes 4 divide g(3a^2 + b^2)),
with sqrt((n-2m)(n+6m)) = g a b.  Distinct triples give distinct (n, m),
since g, a and b are read back off n - 2m and n + 6m.  So
scan_seidel_integral lists every integral unit chain up to n_max, once,
from the triples alone.

Every string here has four cells, 0^a 1^b 0^c 1^d, and the quotient's
characteristic polynomial of such a string is y (y^3 - n y^2 + 4pqr) in
y = x + 1, with {p, q, r} = {a+d, b, c} (spectra.four_cell_class,
four_cell_cubic).  A unit chain's class is {n-2m, m, m} and a mirror
chain's {2s, 2s, 2s}: two equal arcs m, whose cubic has the root y = 2m, so
their spectra are read off spectra.four_cell_spectrum.  A scan hit is
certified by Vieta's formulas against the cubic: the three claimed roots
must have sum n, pairwise products summing to 0 and product -4pqr, with
no polynomial built.  A pair's shared spectrum, a family member's
spectrum and a table row are certified by spectra.has_spectrum: the
quotient's characteristic polynomial must be the product of the claimed
linear factors.  No root is isolated.
"""

from __future__ import annotations

import math
from itertools import count

from ._record import record
from .chain import BlockString
from .intpoly import four_cell_cubic
# four_cell_class is imported to stay importable from here.
from .spectra import ExactSpectrum, four_cell_class, four_cell_spectrum, has_spectrum  # noqa: F401


def is_perfect_square(x: int) -> bool:
    if x < 0:
        raise ValueError("is_perfect_square of a negative number")
    return math.isqrt(x) ** 2 == x


def unit_chain_string(a: int, b: int) -> BlockString:
    """The block string 0 1^a 0^a 1^b; BlockString refuses a or b below 1."""
    return BlockString(((1, a), (a, b)))


def mirror_chain_string(s: int) -> BlockString:
    """The block string 0^s 1^2s 0^2s 1^s."""
    if s < 1:
        raise ValueError("s must be positive")
    return BlockString(((s, 2 * s), (2 * s, s)))


def unit_chain_spectrum(n: int, m: int) -> ExactSpectrum:
    """Predicted Seidel spectrum of the n-vertex unit chain 0 1^m 0^m 1^(n-2m-1).

    The string's class is {n-2m, m, m}, so this is
    spectra.four_cell_spectrum(n-2m, m, m): y = 2m is a root of the cubic
    (8m^3 - 4nm^2 + 4m^2(n-2m) = 0), and the cofactor y^2 - (n-2m) y -
    2m(n-2m) has discriminant D = (n-2m)(n+6m).  In x = y - 1: -1 with
    multiplicity n-3 (the quotient's y = 0 and the n - 4 vertices outside
    it), the value 2m-1, and the conjugate pair -(m+1) + (n +- sqrt(D))/2.
    D has the parity of n, so whenever D is a perfect square the pair is
    integral; coinciding values are merged (at n = 3m the upper branch
    equals 2m-1).
    """
    if m < 1 or n <= 2 * m + 1:
        raise ValueError("need n > 2m+1 >= 3")
    return four_cell_spectrum(n - 2 * m, m, m)


# ---------------------------------------------------------------------------
# Cospectral pairs
# ---------------------------------------------------------------------------

@record
class CospectralPair:
    """Two inequivalent unit chains sharing an exact Seidel spectrum.

    For odd r >= 1 and m = 3(r+1)/2: the strings 0 1^m 0^m 1^(2m+r) and
    0 1^2m 0^2m 1^r on n = 4m+r+1 vertices.  Predicted spectrum:
    -1^(n-3), -(2m-r), 2m-1, 4m-1, so the least eigenvalue is -(2m-r)
    (simple) and the spectral radius is 4m-1 = n-(r+2).
    """

    r: int
    m: int
    n: int
    string_a: BlockString
    string_b: BlockString
    predicted: ExactSpectrum

    def verify(self) -> bool:
        """Certify the prediction for both strings by spectra.has_spectrum."""
        return all(has_spectrum(b, self.predicted.entries) for b in (self.string_a, self.string_b))

    def serialize(self) -> dict:
        return {
            "r": self.r,
            "m": self.m,
            "n": self.n,
            "string_a": self.string_a.caret(),
            "string_b": self.string_b.caret(),
            "spectrum": self.predicted.serialize(),
        }


def generate_cospectral_pair(r: int) -> CospectralPair:
    if r < 1 or r % 2 == 0:
        raise ValueError("r must be an odd positive integer")
    m = 3 * (r + 1) // 2
    n = 4 * m + r + 1
    return CospectralPair(
        r=r,
        m=m,
        n=n,
        string_a=unit_chain_string(m, 2 * m + r),
        string_b=unit_chain_string(2 * m, r),
        predicted=unit_chain_spectrum(n, m),
    )


COSPECTRAL_CAP = 5000


def cospectral_pairs_up_to(n_max: int) -> list[CospectralPair]:
    """All cospectral pairs with n = 4m+r+1 <= n_max, ascending r.

    The work and output grow linearly in n_max, so n_max is capped at 5000
    (357 pairs), checked before any pair is built.
    """
    if n_max > COSPECTRAL_CAP:
        raise ValueError(f"cospectral range is capped at n_max = {COSPECTRAL_CAP}")
    out = []
    r = 1
    while True:
        pair = generate_cospectral_pair(r)
        if pair.n > n_max:
            return out
        out.append(pair)
        r += 2


# ---------------------------------------------------------------------------
# Integral families
# ---------------------------------------------------------------------------

def mirror_chain_family(s: int) -> tuple[BlockString, ExactSpectrum]:
    """The integral mirror chain 0^s 1^2s 0^2s 1^s with its predicted spectrum.

    Its class is {2s, 2s, 2s}, so the spectrum is
    spectra.four_cell_spectrum(2s, 2s, 2s): the cubic is (y + 2s)(y - 4s)^2,
    and the values are -1^(6s-3), -(2s+1) and (4s-1)^2.
    """
    return mirror_chain_string(s), four_cell_spectrum(2 * s, 2 * s, 2 * s)


def _pronic_index(p: int) -> int:
    """The r >= 0 with r(r+1) <= p < (r+1)(r+2), for p >= 0."""
    return (math.isqrt(4 * p + 1) - 1) // 2


# Family id -> ((n, m) as a function of r, least r, the one r whose m(r)
# can equal a given m >= 1).
_FAMILY_PARAMS = {
    "F1": (lambda r: (3 * r, r), 2, lambda m: m),
    "F2": (lambda r: (13 * r, 6 * r), 2, lambda m: m // 6),
    "F3": (lambda r: (13 * r, 2 * r), 2, lambda m: m // 2),
    "F4": (lambda r: (2 * r * r + 2 * r + 2, r * r + r), 1, _pronic_index),
    "F5": (lambda r: (4 * r * r - 2 * r + 1, r), 3, lambda m: m),
    "F6": (lambda r: (4 * r * r + 4 * r + 4, 2 * r * r + 2 * r), 1, lambda m: _pronic_index(m // 2)),
}

SPORADIC_PAIRS: tuple[tuple[int, int], ...] = ((6, 2), (14, 6), (12, 4))

FAMILY_IDS: tuple[str, ...] = ("F1", "F2", "F3", "F4", "F5", "F6", "S")


def integral_family_params(family_id: str, r: int) -> tuple[int, int]:
    """The (n, m) pair of a parameterized integral family member.

    F1: (3r, r), F2: (13r, 6r), F3: (13r, 2r) for r >= 2; F4:
    (2r^2+2r+2, r^2+r), F6: (4r^2+4r+4, 2r^2+2r) for r >= 1; F5:
    (4r^2-2r+1, r) for r >= 3.  "S" indexes the sporadic pairs (6,2),
    (14,6), (12,4) with r in {0, 1, 2}.
    """
    if family_id == "S":
        if not 0 <= r < len(SPORADIC_PAIRS):
            raise ValueError("sporadic index must be 0, 1, or 2")
        return SPORADIC_PAIRS[r]
    if family_id not in _FAMILY_PARAMS:
        raise ValueError(f"unknown family {family_id!r}")
    formula, r_min, _r_of_m = _FAMILY_PARAMS[family_id]
    if r < r_min:
        raise ValueError(f"family {family_id} requires r >= {r_min}")
    return formula(r)


@record
class IntegralFamily:
    """One member of a Seidel-integral family: a unit chain, or for "SYM" the
    mirror chain 0^r 1^2r 0^2r 1^r (n = 6r, m = 2r)."""

    family_id: str
    r: int
    n: int
    m: int
    string: BlockString
    predicted: ExactSpectrum

    def verify(self) -> bool:
        """Certify the integral prediction by spectra.has_spectrum."""
        return has_spectrum(self.string, self.predicted.entries)

    def serialize(self) -> dict:
        return {
            "family": self.family_id,
            "r": self.r,
            "n": self.n,
            "m": self.m,
            "string": self.string.caret(),
            "spectrum": self.predicted.serialize(),
        }


def generate_integral_family(family_id: str, r: int) -> IntegralFamily:
    if family_id == "SYM":
        string, predicted = mirror_chain_family(r)
        return IntegralFamily(family_id, r, string.n, 2 * r, string, predicted)
    n, m = integral_family_params(family_id, r)
    return IntegralFamily(
        family_id=family_id,
        r=r,
        n=n,
        m=m,
        string=unit_chain_string(m, n - 2 * m - 1),
        predicted=unit_chain_spectrum(n, m),
    )


def classify_integral_pair(n: int, m: int) -> tuple[str, ...]:
    """Family ids whose stated parameter ranges generate (n, m).

    m(r) rises strictly in every family, so at most one r has m(r) = m: r
    itself, m/6 or m/2 for the linear families, and for F4 and F6 the r
    with r(r+1) = m or m/2, read off math.isqrt.  That r is checked against
    the family's range and both of its parameters.
    """
    if m < 1:  # every family member and sporadic pair has m >= 2
        return ()
    tags = [family_id for family_id, (formula, r_min, r_of_m) in _FAMILY_PARAMS.items()
            if (r := r_of_m(m)) >= r_min and formula(r) == (n, m)]
    if (n, m) in SPORADIC_PAIRS:
        tags.append("S")
    return tuple(tags)


@record
class ScanHit:
    """One (n, m) whose unit chain 0 1^m 0^m 1^(n-2m-1) is Seidel integral.

    Hits come from the triples (g, a, b) of the module docstring.
    verified_integral is the exact certificate of _integral_certificate:
    the three values that the triple predicts are the roots of the chain's
    four-cell cubic, by Vieta's formulas.
    """

    n: int
    m: int
    families: tuple[str, ...]
    verified_integral: bool

    @property
    def unclassified(self) -> bool:
        return not self.families

    def serialize(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "families": list(self.families),
            "unclassified": self.unclassified,
            "verified": self.verified_integral,
        }


def _square_free_flags(n: int) -> bytearray:
    """flags[g] = 1 iff g is square-free, for 0 <= g <= n (flags[0] = 0)."""
    flags = bytearray(b"\1") * (n + 1)
    flags[0] = 0
    p = 2
    while p * p <= n:
        flags[p * p::p * p] = bytes(n // (p * p))
        p += 1
    return flags


def _integral_certificate(n: int, m: int, root: int) -> bool:
    """Whether the unit chain 0 1^m 0^m 1^(n-2m-1) has Seidel spectrum
    -1^(n-3), 2m-1, -(m+1) + (n +- root)/2, all integers.

    In y = x + 1 the claim is the roots 2m and (n +- root)/2 - m of
    four_cell_cubic(n-2m, m, m), the cubic of the string's multiset
    {n-2m, m, m}; the -1s are the quotient's y = 0 and the n - 4 vertices
    outside it.  Three integers are the roots of the monic cubic
    y^3 + c2 y^2 + c1 y + c0 exactly when their sum is -c2, their pairwise
    products sum to c1 and their product is -c0 (Vieta), so that is the
    whole check: O(1) integer operations, no polynomial and no BlockString.
    It does not use where n, m and root came from: a wrong root, or an
    (n, m) with no unit chain, gives False.
    """
    if m < 1 or n <= 2 * m + 1 or (n + root) % 2:
        return False
    c0, c1, c2, _ = four_cell_cubic(n - 2 * m, m, m)
    y1, y2, y3 = 2 * m, (n + root) // 2 - m, (n - root) // 2 - m
    return y1 + y2 + y3 == -c2 and y1 * y2 + y1 * y3 + y2 * y3 == c1 and y1 * y2 * y3 == -c0


def scan_seidel_integral(n_max: int) -> list[ScanHit]:
    """All (n, m) with 2m+1 < n <= n_max whose unit chain is Seidel integral,
    ascending in (n, m).

    Listed from the triples (g, a, b) of the module docstring: g square-free
    (one sieve up to n_max), a >= 1, b = a + 2, a + 4, ... (b = a mod 2) with
    8 | g(b^2 - a^2) and n = g(3a^2 + b^2)/4 <= n_max; g a^2 = n - 2m must be
    at least 2.  Each hit is certified by _integral_certificate with
    root = g a b.  Hits outside all family ranges are surfaced as
    unclassified, never suppressed.
    """
    if n_max > 500:
        raise ValueError("scan is capped at n_max = 500")
    found = []
    square_free = _square_free_flags(max(n_max, 0))
    for g in range(1, n_max // 3 + 1):  # n >= g(a^2 + a + 1) >= 3g
        if not square_free[g]:
            continue
        for a in count(1 if g > 1 else 2):  # n - 2m = g a^2 >= 2
            if g * (a * a + a + 1) > n_max:  # n at b = a + 2
                break
            for b in range(a + 2, math.isqrt(4 * n_max // g - 3 * a * a) + 1, 2):
                m8 = g * (b * b - a * a)
                if m8 % 8 == 0:
                    found.append((g * (3 * a * a + b * b) // 4, m8 // 8, g * a * b))
    found.sort()
    return [ScanHit(n, m, classify_integral_pair(n, m), _integral_certificate(n, m, root))
            for n, m, root in found]
