"""Ehrhart quasi-polynomial of the closed fundamental alcove, the
quasi-polynomial data type, and its shift-operator action.

L_Phi(q) counts nonnegative integer vectors (m_1..m_l) with
sum(c_i m_i) <= q, equivalently the coefficients of the series
1 / prod_{i=0..l} (1 - z^{c_i}) with the slack mark c_0 = 1.  The whole
build runs on Python ints.  The denumerant counts are running sums, one
per mark c and residue class mod c; they are also the series that
`series_coeffs` returns (the power-series inversion of the denominator is a
second path kept in the tests).  (-1)^l (|W|/f) L_Phi(-q) is the
characteristic quasi-polynomial of the Weyl arrangement, so L_Phi has the GCD
property (Kamiya, Takemura and Terao, J. Algebraic Combin. 27, 2008): its
constituent at d depends on gcd(d, n) alone, n the period.  So one row is
interpolated per divisor v of n, at residue v mod n, from the l+1 counts at
v, v+n, ..., v+l*n through their integer forward differences, and residue d
takes the row of gcd(d, n).  Every row is an integer numerator over the one
common denominator n**l * l!, and the table is then divided by the gcd of that
denominator and the distinct rows, which leaves the least common denominator
of the constituents.  Before anything is returned a guard proves, in
integers, that the table equals L_Phi at every q >= 0, from the counts at
q = 0..(l+1)n - 1 that the interpolation reads and no others: (a) every count
lies on its residue's row, which checks the GCD property on the residues
that share a row; (b) the counts times prod_i (1 - z^{c_i}) are 1 mod
z^((l+1)n), so they are L_Phi's values; (c) every mark divides n, so the
series is Q(z) / (1 - z^n)^(l+1) with deg Q < (l+1)n and L_Phi is a
polynomial of degree <= l on each residue class for all q >= 0 (Stanley,
Enumerative Combinatorics I, 4.4).  A row through l+1 of L_Phi's values on
its residue is then L_Phi there.
`ehrhart_table` caches that table, the one cached form of L_Phi, which the
shift kernel reads as it is.  `ehrhart_qp` makes each distinct row over the
common denominator one `RatPoly` in canonical form, shared by its gcd class.
No `Fraction` is made.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .errors import SelfCheckFailed
from .ratpoly import IntegerTable, RatPoly, shift_constituents
from .rootdata import RootSystemId, lookup

#: Most denumerant counts `series_coeffs` returns: a longer list is refused
#: up front rather than left to exhaust memory.
SERIES_MAX = 10**6


class QuasiPoly(namedtuple("QuasiPoly", "constituents")):
    """One constituent polynomial per residue class; the period is their count."""

    __slots__ = ()

    def __new__(cls, constituents):
        constituents = tuple(constituents)
        if not constituents:
            raise ValueError("need at least one constituent")
        return super().__new__(cls, constituents)

    @classmethod
    def _make(cls, fields):
        # what `_replace` builds with: check the new fields too
        return cls(*fields)

    @property
    def period(self) -> int:
        return len(self.constituents)

    def constituent(self, d: int) -> RatPoly:
        return self.constituents[d % self.period]

    def value(self, q: int) -> Fraction:
        """Evaluate at an integer, using mathematical mod (valid for q < 0)."""
        c = self.constituent(q)
        return Fraction(c.scaled_value(q), c.den)

    def to_json(self) -> dict:
        """{"period", "constituents"}; equal constituents share one dict,
        made once, so the writer renders each distinct one once."""
        forms = {c: c.to_json() for c in set(self.constituents)}
        return {
            "period": self.period,
            "constituents": [forms[c] for c in self.constituents],
        }


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


def _newton_numerators(
    counts: list[int], n: int, l: int, residues: Sequence[int]
) -> list[tuple[int, ...]]:
    """Integer numerators N_d, d in `residues` (each in 0..n-1), of the
    degree-l polynomials p_d through the points (d + j*n, counts[d + j*n]),
    j = 0..l, with p_d = N_d / (n**l * l!); ascending coefficients, one per
    residue, in order.

    Newton's forward-difference form with step n gives
    p_d(t) = sum_k Delta^k y_0 / (k! n^k) * prod_{i<k} (t - d - i*n); over the
    common denominator the weight of the k-th basis product is the integer
    Delta^k y_0 * n^(l-k) * l!/k!.  The sum is expanded in nested form,
    w_0 + (t - d)(w_1 + (t - d - n)(w_2 + ...)).  Every step runs on all the
    residues at once: each list below is indexed like `residues`.
    `ehrhart_table` asks for one residue per divisor of n.
    """
    rows = [[counts[d + j * n] for d in residues] for j in range(l + 1)]  # rows[j][i] = y_j of residue i
    heads = []  # heads[k][i] = Delta^k y_0 of residue i
    while rows:
        heads.append(rows[0])
        rows = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(rows, rows[1:])]
    num: list[list[int]] = []  # num[j][i] = coefficient of t^j in N_(residues[i])
    scale = 1  # n^(l-k) * l!/k!
    for k in range(l, -1, -1):
        roots = [d + k * n for d in residues]
        # num <- num * (t - root) + weight_k
        num = [[0] * len(residues)] + num
        for j in range(len(num) - 1):
            num[j] = [a - root * b for a, b, root in zip(num[j], num[j + 1], roots)]
        num[0] = [a + h * scale for a, h in zip(num[0], heads[k])]
        scale *= n * k
    return list(zip(*num))


@lru_cache(maxsize=None)
def ehrhart_table(ident: RootSystemId, /) -> IntegerTable:
    """L_Phi's constituents over their least common denominator, one row per
    gcd class shared by its residues, proved equal to L_Phi at every q >= 0
    by the period guard's three checks on the counts it interpolates."""
    data = lookup(ident)
    n, l = data.period, data.rank
    counts = _denumerant_counts(data.marks, (l + 1) * n - 1)
    divisors = [v for v in range(1, n + 1) if n % v == 0]
    reps = _newton_numerators(counts, n, l, [v % n for v in divisors])
    den = n**l * math.factorial(l)
    g = math.gcd(den, *(c for num in reps for c in num))
    den //= g
    by_gcd = {v: tuple(c // g for c in num) for v, num in zip(divisors, reps)}
    nums = tuple(by_gcd[math.gcd(d, n)] for d in range(n))
    descending = [num[::-1] for num in nums]
    # (a) each count lies on the row of its residue.  This also reads each
    # interpolated residue at its own nodes, which on a gcd class with one
    # residue (E8: 0 and 30 mod 60) is the only runtime check of
    # `_newton_numerators`, so those nodes are kept
    for q, count in enumerate(counts):
        acc = 0
        for c in descending[q % n]:
            acc = acc * q + c
        if acc != count * den:
            raise SelfCheckFailed(
                f"period guard failed for {ident} at q = {q}: "
                f"interpolation disagrees with the denumerant count"
            )
    # (b) the counts times prod_i (1 - z^c_i) leave 1; counts is not read again
    for c in data.marks:
        counts[c:] = map(sub, counts[c:], counts[:-c])
    counts[0] -= 1
    if any(counts):
        k = next(k for k, x in enumerate(counts) if x)
        raise SelfCheckFailed(
            f"period guard failed for {ident} at z^{k}: "
            f"the denumerant counts are not the series 1 / prod_i (1 - z^c_i)"
        )
    # (c) every mark divides the period, so L_Phi has degree <= l on each
    # residue class for all q >= 0, and by (a) and (b) equals its row there
    for c in data.marks:
        if n % c:
            raise SelfCheckFailed(
                f"period guard failed for {ident}: mark {c} does not divide "
                f"the period {n}"
            )
    return IntegerTable.from_rows(den, nums)


def ehrhart_qp(ident: RootSystemId) -> QuasiPoly:
    """Ehrhart quasi-polynomial of the closed fundamental alcove of Phi: the
    rows of `ehrhart_table` as polynomials."""
    table = ehrhart_table(ident)
    polys = {num: RatPoly.over(num, table.den) for num in set(table.nums)}
    return QuasiPoly(tuple(polys[num] for num in table.nums))


def series_coeffs(ident: RootSystemId, count: int) -> list[int]:
    """First `count` coefficients of 1 / prod_i (1 - z^{c_i}): the denumerant
    counts L_Phi(0..count-1) that `ehrhart_table` interpolates."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > SERIES_MAX:
        raise ValueError(f"count must be <= {SERIES_MAX}")
    return _denumerant_counts(lookup(ident).marks, count - 1)


def mirror_failure(P: QuasiPoly, rank: int, c: int) -> int | None:
    """First residue d at which P_d(t) = (-1)^rank P_(c-d)(c - t) fails, or
    None if it holds for all; the right side is substituted once per
    distinct constituent.  c = -h is Ehrhart-Macdonald reciprocity of L_Phi,
    c = m*h the functional equation of chi."""
    sign = (-1) ** rank
    mirror = {p: p.compose_affine(-1, c).scale(sign) for p in set(P.constituents)}
    for d in range(P.period):
        if P.constituent(d) != mirror[P.constituent(c - d)]:
            return d
    return None


def apply_shift_qp(f: RatPoly, step: int, table: IntegerTable) -> QuasiPoly:
    """Apply f(S**step) to the quasi-polynomial whose constituents are the
    rows of `table`: the constituent at d becomes
    sum_i f_i * L_{(d - step*i) mod period}(t - step*i)."""
    return QuasiPoly(shift_constituents(f, step, table, range(len(table.nums))))

