"""Root localization: numeric root finding, exact line and half-plane
certificates, limit polynomials, brute-force counting oracles, and
asymptotic root tracking.

Exactness boundary: membership on the vertical line Re t = M/2 and strict
half-plane bounds are decided over Q (Sturm / Routh); floating point is used
only for root coordinates in reports and for asymptotic distances.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from typing import Sequence

from .errors import NonConvergence, OracleTooLarge, QTooSmall, UnsupportedRank
from .eulerian import generalized_eulerian, truncate_half
# char_quasi is unused here; perfbench's tracer tests look it up in this module.
from .linial import char_constituent, char_quasi  # noqa: F401
from .ratpoly import (
    RatPoly,
    ShiftPoly,
    all_roots_real_nonpositive,
    apply_shift,
    routh_hurwitz_all_roots_left,
)
from .rootdata import RootSystemId, lookup, positive_roots

_MAX_ITER = 200
_CORRECTION_TOL = 1e-13  # relative to the initial inclusion radius
_FLOOR_TOL = 1e-8  # stagnation below this (relative) counts as converged
_INIT_ROTATION = 0.4  # radians; breaks conjugate symmetry deterministically

#: Most points `bruteforce_modq` enumerates: q**rank above this is refused.
#: The count holds one q-bit mask per prefix, q**(rank-1) of them, and a
#: table of q such masks per distinct last root coefficient.
ORACLE_MAX_POINTS = 10**7


@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots of a polynomial, with a posteriori quality data."""

    roots: tuple[complex, ...]
    residual_bound: float  # max |p(root)| relative to the evaluation scale
    certified_radius: tuple[float, ...]  # per-root inclusion disc radius
    converged: bool = True

    def to_json(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "residual_bound": self.residual_bound,
            "certified_radius": list(self.certified_radius),
            "converged": self.converged,
        }


@dataclass(frozen=True)
class LineCheckReport:
    """Outcome of a vertical-line certification at Re t = center."""

    on_line: bool
    center: Fraction
    method: str  # "exact-sturm" or "numeric"
    details: dict

    def to_json(self) -> dict:
        return {
            "on_line": self.on_line,
            "center": [str(self.center.numerator), str(self.center.denominator)],
            "method": self.method,
            "details": self.details,
        }


def _horner2(coeffs: Sequence[complex], z: complex) -> tuple[complex, complex]:
    """Value and derivative at z (coefficients ascending)."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth(monic_like: Sequence[float]) -> tuple[list[complex], list[float], bool]:
    """Ehrlich-Aberth iteration on a square-free polynomial (ascending floats).

    Deterministic: the starting points are a rotated circle of radius
    min(Cauchy bound, Fujiwara bound).  Returns roots, per-root inclusion
    radii n*|p/p'|, and a convergence flag.
    """
    n = len(monic_like) - 1
    lead = monic_like[-1]
    c = [x / lead for x in monic_like]
    if n == 1:
        z = complex(-c[0])
        return [z], [abs(_horner2(c, z)[0])], True
    cauchy = 1.0 + max(abs(x) for x in c[:-1])
    fujiwara = 2.0 * max(abs(c[n - k]) ** (1.0 / k) for k in range(1, n + 1))
    radius = max(min(cauchy, fujiwara), 1e-30)
    z = [
        radius * cmath.exp(1j * (2 * math.pi * j / n + _INIT_ROTATION))
        for j in range(n)
    ]
    converged = False
    prev_corr = math.inf
    for _ in range(_MAX_ITER):
        max_corr = 0.0
        for j in range(n):
            p, dp = _horner2(c, z[j])
            if p == 0:
                continue
            if dp == 0:
                z[j] += radius * (1e-6 + 1e-6j)
                max_corr = radius
                continue
            newton = p / dp
            s = sum(1.0 / (z[j] - z[k]) for k in range(n) if k != j)
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            z[j] -= w
            max_corr = max(max_corr, abs(w))
        if max_corr < _CORRECTION_TOL * radius:
            converged = True
            break
        # Rounding of the polynomial evaluation puts a floor under the
        # corrections; once they stop shrinking there, the roots are as good
        # as double precision allows.
        if max_corr < _FLOOR_TOL * radius and max_corr >= prev_corr:
            converged = True
            break
        prev_corr = max_corr
    radii = []
    for zj in z:
        p, dp = _horner2(c, zj)
        radii.append(n * abs(p) / abs(dp) if dp != 0 else math.inf)
    return z, radii, converged


def find_roots(p: RatPoly) -> ComplexRootSet:
    """All complex roots of p (double precision), multiplicities included.

    The exact square-free decomposition is taken first so the Aberth
    iteration only ever sees simple roots; multiple roots are then replicated.
    Raises NonConvergence (with partial results attached) if any factor fails
    to settle within the iteration budget.
    """
    if p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    roots: list[complex] = []
    radii: list[float] = []
    all_converged = True
    for factor, mult in p.squarefree_factors():
        scale = max(abs(x) for x in factor.coeffs)
        floats = [float(x / scale) for x in factor.coeffs]
        zs, rads, ok = _aberth(floats)
        all_converged = all_converged and ok
        order = sorted(range(len(zs)), key=lambda i: (zs[i].real, zs[i].imag))
        for i in order:
            roots.extend([zs[i]] * mult)
            radii.extend([rads[i]] * mult)
    scale = max(abs(float(x)) for x in p.coeffs)
    residual = 0.0
    for z in roots:
        val = abs(p.evaluate(complex(z)))
        denom = sum(abs(float(c)) * max(1.0, abs(z)) ** i for i, c in enumerate(p.coeffs))
        residual = max(residual, val / denom if denom else val / scale)
    result = ComplexRootSet(
        roots=tuple(roots),
        residual_bound=residual,
        certified_radius=tuple(radii),
        converged=all_converged,
    )
    if not all_converged:
        raise NonConvergence(
            f"Aberth iteration did not converge within {_MAX_ITER} iterations",
            partial=result,
        )
    return result


@lru_cache(maxsize=None)
def limit_poly(ident: RootSystemId) -> RatPoly:
    """The rescaled m -> infinity limit R'_Phi(S) t^l = sum a'_i (t - i)^l."""
    data = lookup(ident)
    half = truncate_half(generalized_eulerian(ident), data.coxeter_number)
    return apply_shift(ShiftPoly.from_poly(half), 1, RatPoly.monomial(data.rank))


def max_real_part(p: RatPoly) -> float:
    """Largest real part among the roots of p."""
    return max(z.real for z in find_roots(p).roots)


def check_on_line_exact(p: RatPoly, center_times_2: int) -> LineCheckReport:
    """Exact verdict: do all roots of p satisfy Re t = M/2 (M = center_times_2)?

    Substitutes t = M/2 + s over Q.  All roots lie on the line iff the
    substituted polynomial g has the parity g(s) = (-1)^deg g(-s) and its
    even part G(s^2) has only real nonpositive roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    center = Fraction(center_times_2, 2)
    if p.degree == 0:
        return LineCheckReport(True, center, "exact-sturm", {"degree": 0})
    g = p.compose_affine(1, center)
    parity_ok = g.compose_affine(-1, 0) == g.scale((-1) ** g.degree)
    if not parity_ok:
        return LineCheckReport(False, center, "exact-sturm", {"parity_ok": False})
    eps = g.degree % 2
    ghat = RatPoly(g.coeffs[eps::2])
    on_line = ghat.degree == 0 or all_roots_real_nonpositive(ghat)
    details = {
        "parity_ok": True,
        "even_part": ghat.to_json(),
        "even_part_all_roots_real_nonpositive": on_line,
    }
    return LineCheckReport(on_line, center, "exact-sturm", details)


def check_on_line_numeric(
    p: RatPoly, center_times_2: int, tol: float = 1e-8
) -> LineCheckReport:
    """Numeric counterpart: max |Re root - M/2| against a tolerance."""
    center = Fraction(center_times_2, 2)
    rs = find_roots(p)
    deviation = max((abs(z.real - float(center)) for z in rs.roots), default=0.0)
    return LineCheckReport(
        on_line=deviation <= tol,
        center=center,
        method="numeric",
        details={
            "max_deviation": deviation,
            "roots": [[z.real, z.imag] for z in rs.roots],
            "residual_bound": rs.residual_bound,
        },
    )


def halfplane_exact(p: RatPoly, bound_times_2: int) -> bool:
    """Exact verdict that every root satisfies Re t < H/2 (H = bound_times_2).

    Shifts to q(z) = p(z + H/2), so the claim becomes Hurwitz stability of q.
    The Routh test decides it either way: a zero pivot or a zero row in the
    Routh array proves a root with Re t >= H/2, so the verdict is False.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    shifted = p.compose_affine(1, Fraction(bound_times_2, 2))
    return routh_hurwitz_all_roots_left(shifted)


def halfplane_numeric_margin(p: RatPoly, bound_times_2: int) -> float:
    """H/2 minus the numeric max real part (positive = inside the half-plane)."""
    return float(Fraction(bound_times_2, 2)) - max_real_part(p)


def _window_bits(n: int, s: int, q: int, top: int) -> int:
    """Bitmask of the x in 0..q-1 with (n*x + s) mod q in 1..top, for
    0 < n < q, 0 <= s < q and 1 <= top < q.

    n*x + s runs through [s, s + n*(q-1)], so its residue is in 1..top exactly
    when it lies in one of the windows [k*q + 1, k*q + top], k = 0..n, and
    each window holds a run of consecutive x.
    """
    bits = 0
    for k in range(n + 1):
        lo = max(0, -((s - k * q - 1) // n))  # ceil((k*q + 1 - s) / n)
        hi = min(q - 1, (k * q + top - s) // n)
        if lo <= hi:
            bits |= (1 << (hi + 1)) - (1 << lo)
    return bits


def _hit_rows(n: int, q: int, top: int) -> list[int]:
    """`_window_bits(n, s, q, top)` for every s in 0..q-1, computed for only
    the g = gcd(n, q) rows s < g: since n*x + (s + n*y) = n*(x + y) + s, row
    s + n*y is row s rotated down by y bits.  So row s is base row s % g
    rotated by y = (s // g) * (n / g)**-1 mod q / g, one shift of a doubled
    copy of the base row."""
    full = (1 << q) - 1
    if n == 0:  # n*x + s = s: row s holds every x or none
        return [0] + [full] * top + [0] * (q - 1 - top)
    g = math.gcd(n, q)
    doubled = [bits | (bits << q) for bits in (_window_bits(n, j, q, top) for j in range(g))]
    inverse = pow(n // g, -1, q // g)
    return [(doubled[s % g] >> (s // g * inverse % (q // g))) & full for s in range(q)]


def bruteforce_modq(
    ident: RootSystemId, m: int, q: int, unsafe: bool = False
) -> int:
    """Count points of (Z/qZ)^l avoiding alpha(x) = 1..m for all positive roots.

    Pure enumeration over the stored root forms (rank <= 3): the prefixes
    x_1..x_{l-1} are listed explicitly, and the last coordinate is a q-bit
    mask.  For each prefix the masks of the x_l that put some root's residue
    in 1..m are OR-ed, and the points counted are q**l minus their bits.  A
    root's mask depends only on its last coefficient and its prefix residue,
    so it is read from a table of q masks per distinct last coefficient.
    Requires the safe regime q > m*h unless `unsafe` is set, and refuses more
    than ORACLE_MAX_POINTS points with OracleTooLarge.
    """
    data = lookup(ident)
    if ident.rank > 3:
        raise UnsupportedRank(f"enumeration oracle capped at rank 3, got {ident}")
    if m < 0:
        raise ValueError("m must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    if not unsafe and q <= m * data.coxeter_number:
        raise QTooSmall(
            f"q = {q} is not above m*h = {m * data.coxeter_number}; "
            "pass unsafe=True to override"
        )
    l = ident.rank
    top = min(m, q - 1)  # residue 0 is never on a hyperplane, even when m >= q
    if top == 0:
        return q**l
    if q**l > ORACLE_MAX_POINTS:
        raise OracleTooLarge(
            f"q**{l} = {q**l} points exceed the enumeration cap of {ORACLE_MAX_POINTS}"
        )
    roots = [tuple(c % q for c in form) for form in positive_roots(ident).roots]
    if l == 1:  # one empty prefix, residue 0; a full table could be 10**7 masks of 10**7 bits
        return q - reduce(or_, (_window_bits(n, 0, q, top) for (n,) in roots)).bit_count()
    tables = {n: _hit_rows(n, q, top) for n in {r[-1] for r in roots}}
    hits = [0] * q ** (l - 1)  # one mask per prefix x_1..x_{l-1}, in product order
    for *head, n in roots:
        residues = [0]
        for a in head:
            residues = [(r + a * x) % q for r in residues for x in range(q)]
        hits = list(map(or_, hits, map(tables[n].__getitem__, residues)))
    return q**l - sum(map(int.bit_count, hits))


@lru_cache(maxsize=None)
def limit_combination(ident: RootSystemId) -> RatPoly:
    """F(t) + (-1)^l F(h - t) for F = limit_poly: the degree-l polynomial whose
    roots the rescaled constituent roots approach."""
    data = lookup(ident)
    F = limit_poly(ident)
    return F + F.compose_affine(-1, data.coxeter_number).scale((-1) ** data.rank)


def _min_cost_assignment(cost: Sequence[Sequence[float]]) -> list[int]:
    """Column assigned to each row of a square cost matrix, minimizing the
    total cost: the O(n^3) Hungarian method, one shortest augmenting path
    per row with dual potentials u (rows) and v (columns)."""
    n = len(cost)
    if any(len(row) != n for row in cost):
        raise ValueError("square cost matrix expected")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    owner = [0] * (n + 1)  # owner[j]: row (1-based) matched to column j; column 0 is a sentinel
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [math.inf] * (n + 1)
        used = [False] * (n + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], math.inf, 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, n + 1):
        cols[owner[j] - 1] = j - 1
    return cols


def _match_distance(found: Sequence[complex], target: Sequence[complex]) -> float:
    """Max pair distance under the optimal (sum-minimizing) assignment."""
    cost = [[abs(a - b) for b in target] for a in found]
    return max(row[j] for row, j in zip(cost, _min_cost_assignment(cost)))


def asymptotic_track(
    ident: RootSystemId, d: int, m_list: Sequence[int]
) -> list[tuple[int, float]]:
    """For each m: roots of the d-constituent rescaled by 1/m, matched against
    the roots of the limit combination; returns (m, max matched distance)."""
    data = lookup(ident)
    if not 0 <= d < data.period:
        raise ValueError(f"residue must be in 0..{data.period - 1}")
    target = find_roots(limit_combination(ident)).roots
    out = []
    for m in m_list:
        if m < 1:
            raise ValueError("m must be >= 1 for tracking")
        constituent = char_constituent(ident, m, d)
        scaled = constituent.compose_affine(m, 0).scale(Fraction(1, m**data.rank))
        rs = find_roots(scaled).roots
        out.append((m, _match_distance(rs, target)))
    return out
