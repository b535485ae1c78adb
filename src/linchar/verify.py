"""Root localization: numeric root finding, exact line and half-plane
certificates, limit polynomials, and asymptotic root tracking.

Exactness boundary: membership on the vertical line Re t = M/2 and strict
half-plane bounds are decided over Q (Sturm / Routh); floating point is used
only for root coordinates in reports and for asymptotic distances.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .errors import NonConvergence, OutOfDoubleRange
# char_quasi is unused here; perfbench's tracer tests look it up in this module.
from .linial import char_constituent, char_quasi, shift_operator  # noqa: F401
from .ratpoly import (
    RatPoly,
    all_roots_real_nonpositive,
    apply_shift,
    routh_hurwitz_all_roots_left,
)
from .rootdata import RootSystemId, lookup

_MAX_ITER = 200
_CORRECTION_TOL = 1e-13  # relative to the start radius of the polynomial iterated
_FLOOR_TOL = 1e-8  # stagnation below this (relative) counts as converged
_LINE_TOL = 1e-8  # max |Re root - M/2| that `check_on_line_numeric` accepts
# A double holds a root s only to about 2**-53 * |s|, and its Horner value
# and last Aberth correction each add a few such units; a root may sit that
# far off the line where _LINE_TOL is smaller (from |s| ~ 1.4e6 on).
_LINE_ULPS = 64
_INIT_ROTATION = 0.4  # radians; breaks conjugate symmetry deterministically
_OUT_OF_RANGE = "polynomial does not fit in doubles"


class ComplexRootSet(namedtuple(
    "ComplexRootSet", "roots residual_bound certified_radius converged", defaults=(True,)
)):
    """All complex roots of a polynomial, with a posteriori quality data:
    `residual_bound` is max |p(root)| relative to the evaluation scale, and
    `certified_radius` the inclusion disc radius of each root."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "residual_bound": self.residual_bound,
            "certified_radius": list(self.certified_radius),
            "converged": self.converged,
        }


class LineCheckReport(namedtuple("LineCheckReport", "on_line center method details")):
    """Outcome of a vertical-line certification at Re t = center (a
    `Fraction`); `method` is "exact-sturm" or "numeric"."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "on_line": self.on_line,
            "center": [str(self.center.numerator), str(self.center.denominator)],
            "method": self.method,
            "details": self.details,
        }


def _complex(c: Sequence[float]) -> list[complex]:
    """c as complex numbers, converted once for the Horner passes below.

    CPython 3.10-3.13 turns the float operand of a mixed float/complex
    operation into complex(x, 0.0) before every such operation, so Horner's
    rule on these gives the same bits as on c, only faster.
    """
    return [complex(x) for x in c]


def _horner2(coeffs: Sequence[complex], z: complex) -> tuple[complex, complex]:
    """Value and derivative at z (coefficients ascending)."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _monic_floats(poly: RatPoly) -> list[float]:
    """Ascending coefficients as doubles, scaled by the largest one and then
    divided by the leading one."""
    scale = max(map(abs, poly.nums))
    floats = [x / scale for x in poly.nums]
    lead = floats[-1]
    if lead == 0:
        raise OutOfDoubleRange(_OUT_OF_RANGE)
    return [x / lead for x in floats]


def _start_radius(c: Sequence[float]) -> float:
    """min(Cauchy bound, Fujiwara bound) on the root moduli of monic c."""
    n = len(c) - 1
    cauchy = 1.0 + max(abs(x) for x in c[:-1])
    fujiwara = 2.0 * max(abs(c[n - k]) ** (1.0 / k) for k in range(1, n + 1))
    return max(min(cauchy, fujiwara), 1e-30)


def _aberth(c: Sequence[float], z: list[complex], radius: float) -> str:
    """Ehrlich-Aberth iteration on a monic square-free polynomial (ascending
    floats), updating the iterates z in place.

    Returns "converged" once the corrections fall below _CORRECTION_TOL or
    stop shrinking below _FLOOR_TOL (both relative to `radius`), "stalled"
    once they stop shrinking above _FLOOR_TOL while every |p(z_j)| is inside
    `_horner_error_bound`, and "spent" after _MAX_ITER iterations.  Raises
    OutOfDoubleRange once an iterate is not finite.

    A residual inside the rounding bound carries no information about the
    root, so no further correction can improve it (Bini, "Numerical
    computation of polynomial zeros by means of Aberth's method", Numer.
    Algorithms 13, 1996).
    """
    coeffs = _complex(c)
    prev_corr = math.inf
    for _ in range(_MAX_ITER):
        max_corr = 0.0
        start = z[:]
        values = []
        for j, zj in enumerate(start):
            p, dp = _horner2(coeffs, zj)
            values.append(p)
            if p == 0:
                continue
            if dp == 0:
                z[j] += radius * (1e-6 + 1e-6j)
                max_corr = radius
                continue
            newton = p / dp
            # (1 + 0j) is what 1.0 becomes in a complex division (see _complex)
            s = sum([(1 + 0j) / (zj - zk) for zk in chain(z[:j], z[j + 1:])])
            denom = (1 + 0j) - newton * s
            w = newton if denom == 0 else newton / denom
            z[j] -= w
            if not cmath.isfinite(z[j]):  # max() below would drop a NaN correction
                raise OutOfDoubleRange("Aberth iterate left the range of doubles")
            max_corr = max(max_corr, abs(w))
        if max_corr < _CORRECTION_TOL * radius:
            return "converged"
        if max_corr >= prev_corr:
            # Rounding of the polynomial evaluation puts a floor under the
            # corrections; once they stop shrinking there, the roots are as
            # good as double precision allows.
            if max_corr < _FLOOR_TOL * radius:
                return "converged"
            if all(abs(p) <= _horner_error_bound(c, zj) for p, zj in zip(values, start)):
                return "stalled"
        prev_corr = max_corr
    return "spent"


def _horner_error_bound(c: Sequence[float], z: complex) -> float:
    """gamma_4n * sum |c_k| |z|^k, which bounds |fl(p(z)) - p(z)| for the
    value `_horner2` computes (coefficients ascending, degree n).

    gamma_k = k*u / (1 - k*u) with u = 2**-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 5.1); 4n rather than 2n because a
    complex product errs by up to sqrt(2)*gamma_2 (Lemma 3.5).
    """
    nu = 4 * (len(c) - 1) * 2.0**-53
    r = abs(z)
    acc = 0.0
    for ck in reversed(c):
        acc = acc * r + abs(ck)
    return nu / (1 - nu) * acc


def _inclusion_radii(c: Sequence[float], z: Sequence[complex]) -> list[float]:
    """Per-root inclusion disc radius n*|p/p'|."""
    n = len(c) - 1
    coeffs = _complex(c)
    radii = []
    for zj in z:
        p, dp = _horner2(coeffs, zj)
        radii.append(n * abs(p) / abs(dp) if dp != 0 else math.inf)
    return radii


def _factor_roots(factor: RatPoly) -> tuple[list[complex], list[float], str]:
    """Roots of a square-free factor, their inclusion radii and the status
    `_aberth` ended on, in two deterministic stages.

    Stage 1 iterates on the factor as given, from a rotated circle of radius
    `_start_radius`.  When the roots sit far from 0, the monomial
    coefficients cancel in doubles and the corrections stall on a noise
    floor above _FLOOR_TOL; once every residual is inside the rounding bound
    of Horner's rule there, stage 2 shifts the factor exactly over Q by its
    root centroid c = -a_(n-1) / (n*a_n) and continues, under the same
    stops, from the stalled iterates minus c.  A stall in stage 2 is final.
    Runs that do not stall return stage 1's roots unchanged.
    """
    c = _monic_floats(factor)
    n = len(c) - 1
    if n == 1:
        z = complex(-c[0])
        return [z], [abs(_horner2(c, z)[0])], "converged"
    radius = _start_radius(c)
    z = [
        radius * cmath.exp(1j * (2 * math.pi * j / n + _INIT_ROTATION))
        for j in range(n)
    ]
    status = _run_aberth(c, z, radius)
    if status != "stalled":
        return z, _inclusion_radii(c, z), status
    centroid = Fraction(-factor.nums[-2], n * factor.nums[-1])
    shift = float(centroid)
    c = _monic_floats(factor.compose_affine(1, centroid))
    s = [zj - shift for zj in z]
    status = _run_aberth(c, s, _start_radius(c))
    return [sj + shift for sj in s], _inclusion_radii(c, s), status


def _run_aberth(c: Sequence[float], z: list[complex], radius: float) -> str:
    """`_aberth`, with its one division by zero, 1 / (z_j - z_k) for two
    equal iterates, raised as the NonConvergence it is."""
    try:
        return _aberth(c, z, radius)
    except ZeroDivisionError as exc:
        raise NonConvergence("Aberth iterates collided: two became equal") from exc


def find_roots(p: RatPoly) -> ComplexRootSet:
    """All complex roots of p (double precision), multiplicities included.

    The exact square-free decomposition is taken first so the Aberth
    iteration only ever sees simple roots; multiple roots are then replicated.
    Each factor is solved by `_factor_roots`, which centres it over Q if the
    iteration stalls.  Raises NonConvergence (with partial results attached)
    if any factor stalls again after centring or fails to settle within the
    iteration budget, naming the stop it hit, or (with none attached) once
    two iterates become equal, and OutOfDoubleRange if p or one of its
    factors does not fit in doubles, or an iterate or a residual leaves them.
    """
    if p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    roots: list[complex] = []
    radii: list[float] = []
    failed: set[str] = set()
    try:
        for factor, mult in p.squarefree_factors():
            zs, rads, status = _factor_roots(factor)
            if status != "converged":
                failed.add(status)
            order = sorted(range(len(zs)), key=lambda i: (zs[i].real, zs[i].imag))
            for i in order:
                roots.extend([zs[i]] * mult)
                radii.extend([rads[i]] * mult)
        floats = [c / p.den for c in p.nums]
        coeffs = _complex(floats)
        moduli = [abs(c) for c in floats]
        residuals = []
        for z in roots:
            val = abs(_horner2(coeffs, z)[0])
            # fsum, not sum: Python 3.12 made float sum compensated, and the
            # last digit must not depend on the interpreter
            r = max(1.0, abs(z))
            denom = math.fsum(a * r**i for i, a in enumerate(moduli))
            residuals.append(val / denom)
        if not all(map(math.isfinite, residuals)):
            raise OutOfDoubleRange(_OUT_OF_RANGE)
    except (OverflowError, ZeroDivisionError) as exc:  # p/den overflows or underflows to 0.0
        raise OutOfDoubleRange(_OUT_OF_RANGE) from exc
    residual = max(residuals, default=0.0)
    result = ComplexRootSet(
        roots=tuple(roots),
        residual_bound=residual,
        certified_radius=tuple(radii),
        converged=not failed,
    )
    if failed:
        stops = {
            "stalled": "stalled at the rounding floor of Horner's rule after centring",
            "spent": f"did not converge within {_MAX_ITER} iterations",
        }
        message = " and ".join(stops[status] for status in sorted(failed))
        raise NonConvergence(f"Aberth iteration {message}", partial=result)
    return result


@lru_cache(maxsize=None)
def limit_poly(ident: RootSystemId) -> RatPoly:
    """The rescaled m -> infinity limit R'_Phi(S) t^l = sum a'_i (t - i)^l."""
    return apply_shift(shift_operator(ident, True), 1, RatPoly.monomial(ident.rank))


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
    eps = g.degree % 2
    if any(g.nums[1 - eps::2]):
        return LineCheckReport(False, center, "exact-sturm", {"parity_ok": False})
    ghat = RatPoly.over(g.nums[eps::2], g.den)
    on_line = all_roots_real_nonpositive(ghat)
    details = {
        "parity_ok": True,
        "even_part": ghat.to_json(),
        "even_part_all_roots_real_nonpositive": on_line,
    }
    return LineCheckReport(on_line, center, "exact-sturm", details)


def check_on_line_numeric(p: RatPoly, center_times_2: int) -> LineCheckReport:
    """Numeric counterpart: each |Re root - M/2| against `_LINE_TOL`, or
    against `_LINE_ULPS` units of the root's modulus where that is larger.

    The roots are found in the centred variable s = t - M/2, exactly as the
    Sturm check substitutes, so the deviation is max |Re s| and is not lost
    to cancellation among the monomial coefficients about 0.
    """
    center = Fraction(center_times_2, 2)
    rs = find_roots(p.compose_affine(1, center))
    deviation = max((abs(s.real) for s in rs.roots), default=0.0)
    shift = float(center)
    return LineCheckReport(
        on_line=all(abs(s.real) <= max(_LINE_TOL, _LINE_ULPS * 2.0**-53 * abs(s))
                    for s in rs.roots),
        center=center,
        method="numeric",
        details={
            "max_deviation": deviation,
            "roots": [[s.real + shift, s.imag] for s in rs.roots],
            "residual_bound": rs.residual_bound,
        },
    )


def halfplane_exact(p: RatPoly, bound_times_2: int) -> bool:
    """Exact verdict that every root satisfies Re t < H/2 (H = bound_times_2).

    Shifts to q(z) = p(z + H/2), so the claim becomes Hurwitz stability of q.
    The Routh test decides it either way: a Routh row whose degree falls by
    more than one (a zero pivot or a zero row of the array) proves a root
    with Re t >= H/2, so the verdict is False.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    shifted = p.compose_affine(1, Fraction(bound_times_2, 2))
    return routh_hurwitz_all_roots_left(shifted)


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
