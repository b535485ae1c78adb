"""Ehrhart quasi-polynomial of the closed fundamental alcove, the
quasi-polynomial data type, and its shift-operator action.

L_Phi(q) counts nonnegative integer vectors (m_1..m_l) with
sum(c_i m_i) <= q, equivalently the coefficients of the series
1 / prod_{i=0..l} (1 - z^{c_i}) with the slack mark c_0 = 1.  Constituents
are recovered by exact Lagrange interpolation of denumerant counts, with a
hard out-of-sample consistency guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from .ratpoly import IntegerTable, RatPoly, ShiftPoly, shift_constituent
from .rootdata import RootSystemId, lookup


@dataclass(frozen=True)
class QuasiPoly:
    """A period and one constituent polynomial per residue class."""

    period: int
    constituents: tuple[RatPoly, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.constituents) != self.period:
            raise ValueError("need exactly one constituent per residue class")

    def constituent(self, d: int) -> RatPoly:
        return self.constituents[d % self.period]

    @cached_property
    def numerators(self) -> IntegerTable:
        """The constituents over their common denominator, computed once per
        instance (so once per system for the cached `ehrhart_qp`)."""
        return IntegerTable.of(self.constituents)

    def value(self, q: int) -> Fraction:
        """Evaluate at an integer, using mathematical mod (valid for q < 0)."""
        return self.constituent(q).evaluate(Fraction(q))

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.constituents)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "constituents": [c.to_json() for c in self.constituents],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuasiPoly":
        return cls(
            period=int(obj["period"]),
            constituents=tuple(RatPoly.from_json(c) for c in obj["constituents"]),
        )


@dataclass(frozen=True)
class GcdPropertyReport:
    holds: bool
    witness: Optional[tuple[int, int]]  # residues with equal gcd, unequal constituents


def _denumerant_counts(marks, upto: int) -> list[int]:
    """counts[q] = #{m >= 0 : sum marks_i * m_i = q} for q = 0..upto."""
    dp = [0] * (upto + 1)
    dp[0] = 1
    for c in marks:
        for q in range(c, upto + 1):
            dp[q] += dp[q - c]
    return dp


def _lagrange(points) -> RatPoly:
    total = RatPoly.zero()
    for j, (xj, yj) in enumerate(points):
        num = RatPoly.one()
        den = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k != j:
                num = num * RatPoly((-xk, 1))
                den *= xj - xk
        total = total + num.scale(Fraction(yj) / den)
    return total


@lru_cache(maxsize=None)
def ehrhart_qp(ident: RootSystemId) -> QuasiPoly:
    """Ehrhart quasi-polynomial of the closed fundamental alcove of Phi."""
    data = lookup(ident)
    n, l = data.period, data.rank
    guard_upto = 3 * n * (l + 1)
    counts = _denumerant_counts(data.marks, guard_upto)
    constituents = []
    for d in range(n):
        pts = [(d + j * n, counts[d + j * n]) for j in range(l + 1)]
        constituents.append(_lagrange(pts))
    qp = QuasiPoly(period=n, constituents=tuple(constituents))
    for q in range(guard_upto + 1):
        if qp.value(q) != counts[q]:
            raise AssertionError(
                f"period guard failed for {ident} at q = {q}: "
                f"interpolation disagrees with the denumerant count"
            )
    return qp


def series_coeffs(ident: RootSystemId, count: int) -> list[int]:
    """First `count` coefficients of 1 / prod_i (1 - z^{c_i}).

    Computed by expanding the denominator and inverting the power series --
    a code path independent of the denumerant dynamic programming.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    data = lookup(ident)
    denom = RatPoly.one()
    for c in data.marks:
        factor = [0] * (c + 1)
        factor[0], factor[c] = 1, -1
        denom = denom * RatPoly(factor)
    a = [int(x) for x in denom.coeffs]
    out = [0] * count
    out[0] = 1
    for k in range(1, count):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def check_reciprocity(L: QuasiPoly, rank: int, h: int) -> bool:
    """Exact Ehrhart-Macdonald reciprocity L(-q) = (-1)^rank L(q - h),
    checked constituent by constituent."""
    sign = (-1) ** rank
    for d in range(L.period):
        lhs = L.constituent(-d).compose_affine(-1, 0)
        rhs = L.constituent(d - h).compose_affine(1, -h).scale(sign)
        if lhs != rhs:
            return False
    return True


def apply_shift_qp(f: ShiftPoly, step: int, L: QuasiPoly) -> QuasiPoly:
    """Apply f(S**step) to a quasi-polynomial: the constituent at d becomes
    sum_i f_i * L_{(d - step*i) mod period}(t - step*i)."""
    table = L.numerators
    return QuasiPoly(L.period, tuple(shift_constituent(f, step, table, d) for d in range(L.period)))


def gcd_property(L: QuasiPoly) -> GcdPropertyReport:
    """Do the constituents depend only on gcd(residue, period)?"""
    first_by_gcd: dict[int, int] = {}
    for d in range(L.period):
        g = math.gcd(d, L.period)
        if g not in first_by_gcd:
            first_by_gcd[g] = d
        elif L.constituents[d] != L.constituents[first_by_gcd[g]]:
            return GcdPropertyReport(holds=False, witness=(first_by_gcd[g], d))
    return GcdPropertyReport(holds=True, witness=None)
