"""Ehrhart quasi-polynomial of the closed fundamental alcove, the
quasi-polynomial data type, and its shift-operator action.

L_Phi(q) counts nonnegative integer vectors (m_1..m_l) with
sum(c_i m_i) <= q, equivalently the coefficients of the series
1 / prod_{i=0..l} (1 - z^{c_i}) with the slack mark c_0 = 1.  Constituent d
is interpolated from the l+1 denumerant counts at d, d+n, ..., d+l*n (n the
period) through their integer forward differences: every constituent is an
integer numerator over the one common denominator n**l * l!, and each
coefficient is divided once, when the polynomial is built.  A guard checks
every integer 0..3n(l+1) against the counts, in integers, before anything
is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import SelfCheckFailed
from .ratpoly import IntegerTable, RatPoly, shift_constituent
from .rootdata import RootSystemId, lookup

#: Most coefficients `series_coeffs` computes: the list is refused up front
#: rather than left to exhaust memory.
SERIES_MAX = 10**6


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


def _denumerant_counts(marks, upto: int) -> list[int]:
    """counts[q] = #{m >= 0 : sum marks_i * m_i = q} for q = 0..upto."""
    dp = [0] * (upto + 1)
    dp[0] = 1
    for c in marks:
        for q in range(c, upto + 1):
            dp[q] += dp[q - c]
    return dp


def _newton_numerator(samples: list[int], d: int, n: int) -> list[int]:
    """Integer numerator N of the degree-l polynomial p through the points
    (d + j*n, samples[j]), j = 0..l, with p = N / (n**l * l!).

    Newton's forward-difference form with step n gives
    p(t) = sum_k Delta^k y_0 / (k! n^k) * prod_{i<k} (t - d - i*n); over the
    common denominator the weight of the k-th basis product is the integer
    Delta^k y_0 * n^(l-k) * l!/k!.  The sum is expanded in nested form,
    w_0 + (t - d)(w_1 + (t - d - n)(w_2 + ...)), ascending coefficients.
    """
    heads, diffs = [], list(samples)  # heads[k] = Delta^k y_0
    while diffs:
        heads.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    num: list[int] = []
    scale = 1  # n^(l-k) * l!/k!
    for k in range(len(samples) - 1, -1, -1):
        root = d + k * n
        # num <- num * (t - root) + weight_k
        num = [0] + num
        for j in range(len(num) - 1):
            num[j] -= root * num[j + 1]
        num[0] += heads[k] * scale
        scale *= n * k
    return num


def _horner(coeffs: list[int], x: int) -> int:
    """Value at x of the polynomial with ascending coefficients `coeffs`."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def ehrhart_qp(ident: RootSystemId) -> QuasiPoly:
    """Ehrhart quasi-polynomial of the closed fundamental alcove of Phi."""
    data = lookup(ident)
    n, l = data.period, data.rank
    guard_upto = 3 * n * (l + 1)
    counts = _denumerant_counts(data.marks, guard_upto)
    den = n**l * math.factorial(l)
    nums = [_newton_numerator(counts[d : d + l * n + 1 : n], d, n) for d in range(n)]
    for q in range(guard_upto + 1):
        if _horner(nums[q % n], q) != counts[q] * den:
            raise SelfCheckFailed(
                f"period guard failed for {ident} at q = {q}: "
                f"interpolation disagrees with the denumerant count"
            )
    constituents = tuple(RatPoly(Fraction(c, den) for c in num) for num in nums)
    return QuasiPoly(period=n, constituents=constituents)


def series_coeffs(ident: RootSystemId, count: int) -> list[int]:
    """First `count` coefficients of 1 / prod_i (1 - z^{c_i}).

    Computed by expanding the denominator and inverting the power series --
    a code path independent of the denumerant dynamic programming.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > SERIES_MAX:
        raise ValueError(f"count must be <= {SERIES_MAX}")
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


def apply_shift_qp(f: RatPoly, step: int, L: QuasiPoly) -> QuasiPoly:
    """Apply f(S**step) to a quasi-polynomial: the constituent at d becomes
    sum_i f_i * L_{(d - step*i) mod period}(t - step*i)."""
    table = L.numerators
    return QuasiPoly(L.period, tuple(shift_constituent(f, step, table, d) for d in range(L.period)))

