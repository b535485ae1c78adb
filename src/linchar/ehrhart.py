"""Ehrhart quasi-polynomial of the closed fundamental alcove, the
quasi-polynomial data type, and its shift-operator action.

L_Phi(q) counts nonnegative integer vectors (m_1..m_l) with
sum(c_i m_i) <= q, equivalently the coefficients of the series
1 / prod_{i=0..l} (1 - z^{c_i}) with the slack mark c_0 = 1.  The whole
build runs on Python ints.  The denumerant counts are running sums, one
per mark c and residue class mod c.  Constituent d is interpolated from the
l+1 counts at d, d+n, ..., d+l*n (n the period) through their integer
forward differences, all n residues at once: every constituent is an
integer numerator over the one common denominator n**l * l!, and the table
is then divided by the gcd of that denominator and all numerators, which
leaves the least common denominator of the constituents.  A guard checks
every integer 0..3n(l+1) against the counts on this table, in integers,
before anything is returned.  `ehrhart_table` caches that table, the one
cached form of L_Phi, which the shift kernel reads as it is.  `ehrhart_qp`
makes each row over the common denominator a `RatPoly` in canonical form.
No `Fraction` is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .errors import SelfCheckFailed
from .ratpoly import IntegerTable, RatPoly, shift_constituents
from .rootdata import RootSystemId, lookup

#: Most coefficients `series_coeffs` computes: the list is refused up front
#: rather than left to exhaust memory.
SERIES_MAX = 10**6


@dataclass(frozen=True)
class QuasiPoly:
    """One constituent polynomial per residue class; the period is their count."""

    constituents: tuple[RatPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "constituents", tuple(self.constituents))
        if not self.constituents:
            raise ValueError("need at least one constituent")

    @property
    def period(self) -> int:
        return len(self.constituents)

    def constituent(self, d: int) -> RatPoly:
        return self.constituents[d % self.period]

    def value(self, q: int) -> Fraction:
        """Evaluate at an integer, using mathematical mod (valid for q < 0)."""
        return self.constituent(q).evaluate(q)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "constituents": [c.to_json() for c in self.constituents],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QuasiPoly":
        qp = cls(tuple(RatPoly.from_json(c) for c in obj["constituents"]))
        if int(obj["period"]) != qp.period:
            raise ValueError(f"period {obj['period']} disagrees with {qp.period} constituents")
        return qp


def _denumerant_counts(marks, upto: int) -> list[int]:
    """counts[q] = #{m >= 0 : sum marks_i * m_i = q} for q = 0..upto.

    Each mark c turns dp[q] += dp[q - c] into a running sum along every
    residue class mod c."""
    dp = [0] * (upto + 1)
    dp[0] = 1
    for c in marks:
        for r in range(c):
            dp[r::c] = accumulate(dp[r::c])
    return dp


def _newton_numerators(counts: list[int], n: int, l: int) -> list[tuple[int, ...]]:
    """Integer numerators N_d, d = 0..n-1, of the degree-l polynomials p_d
    through the points (d + j*n, counts[d + j*n]), j = 0..l, with
    p_d = N_d / (n**l * l!); ascending coefficients.

    Newton's forward-difference form with step n gives
    p_d(t) = sum_k Delta^k y_0 / (k! n^k) * prod_{i<k} (t - d - i*n); over the
    common denominator the weight of the k-th basis product is the integer
    Delta^k y_0 * n^(l-k) * l!/k!.  The sum is expanded in nested form,
    w_0 + (t - d)(w_1 + (t - d - n)(w_2 + ...)).  Every step runs on all n
    residues at once: each list below is indexed by d.
    """
    rows = [counts[j * n : j * n + n] for j in range(l + 1)]  # rows[j][d] = y_j of residue d
    heads = []  # heads[k][d] = Delta^k y_0 of residue d
    while rows:
        heads.append(rows[0])
        rows = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(rows, rows[1:])]
    num: list[list[int]] = []  # num[j][d] = coefficient of t^j in N_d
    scale = 1  # n^(l-k) * l!/k!
    for k in range(l, -1, -1):
        roots = range(k * n, k * n + n)  # d + k*n
        # num <- num * (t - root) + weight_k
        num = [[0] * n] + num
        for j in range(len(num) - 1):
            num[j] = [a - root * b for a, b, root in zip(num[j], num[j + 1], roots)]
        num[0] = [a + h * scale for a, h in zip(num[0], heads[k])]
        scale *= n * k
    return list(zip(*num))


@lru_cache(maxsize=None)
def ehrhart_table(ident: RootSystemId) -> IntegerTable:
    """L_Phi's constituents over their least common denominator, period-guarded."""
    data = lookup(ident)
    n, l = data.period, data.rank
    counts = _denumerant_counts(data.marks, 3 * n * (l + 1))
    nums = _newton_numerators(counts, n, l)
    den = n**l * math.factorial(l)
    g = math.gcd(den, *(c for num in nums for c in num))
    den //= g
    nums = tuple(tuple(c // g for c in num) for num in nums)
    descending = [num[::-1] for num in nums]
    for q, count in enumerate(counts):
        acc = 0
        for c in descending[q % n]:
            acc = acc * q + c
        if acc != count * den:
            raise SelfCheckFailed(
                f"period guard failed for {ident} at q = {q}: "
                f"interpolation disagrees with the denumerant count"
            )
    return IntegerTable.from_rows(den, nums)


def ehrhart_qp(ident: RootSystemId) -> QuasiPoly:
    """Ehrhart quasi-polynomial of the closed fundamental alcove of Phi: the
    rows of `ehrhart_table` as polynomials."""
    table = ehrhart_table(ident)
    return QuasiPoly(tuple(RatPoly.over(num, table.den) for num in table.nums))


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
        denom = denom * RatPoly.over(factor)
    a = denom.nums
    out = [0] * count
    out[0] = 1
    for k in range(1, count):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def check_reciprocity(L: QuasiPoly, rank: int, h: int) -> bool:
    """Exact Ehrhart-Macdonald reciprocity L(-q) = (-1)^rank L(q - h),
    checked constituent by constituent; each side is substituted once per
    distinct constituent."""
    sign = (-1) ** rank
    distinct = set(L.constituents)
    lhs = {c: c.compose_affine(-1, 0) for c in distinct}
    rhs = {c: c.compose_affine(1, -h).scale(sign) for c in distinct}
    return all(lhs[L.constituent(-d)] == rhs[L.constituent(d - h)] for d in range(L.period))


def apply_shift_qp(f: RatPoly, step: int, table: IntegerTable) -> QuasiPoly:
    """Apply f(S**step) to the quasi-polynomial whose constituents are the
    rows of `table`: the constituent at d becomes
    sum_i f_i * L_{(d - step*i) mod period}(t - step*i)."""
    return QuasiPoly(shift_constituents(f, step, table, range(len(table.nums))))

