"""Root location: the two exact verdicts first, then numeric root finding
and asymptotic root tracking.  It builds none of the engine's polynomials
and caches nothing; `linchar.linial` builds them.

Exactness boundary: membership on the vertical line Re t = M/2 and strict
half-plane bounds Re t < H/2 for rational H are decided over Q by one count
of the roots left of, on and right of a vertical line (`_counts`), read off
primitive remainder sequences over Z (`_remainders`, with no quotient):
`check_on_line_exact` wants every root on the line, `halfplane_exact` every
root left of it.  Two half-plane bounds bracket a maximal real part.
`_quotient` divides exactly in integers (Gauss's lemma).  Floats may
propose, never decide: from a degree on, the line verdict first lets a
real Aberth run propose points between the roots of the even part and
proves them with signs evaluated in integers (`_line_witness`, in the
numeric section); what it cannot prove, `_counts` decides.  Otherwise
floats give root coordinates in reports and asymptotic distances.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import ne

from .errors import InexactDivision, NonConvergence, OutOfDoubleRange
# char_quasi is unused here; perfbench's tracer tests look it up in this module.
from .linial import char_constituent, char_quasi, limit_combination  # noqa: F401
from .ratpoly import RatPoly
from .rootdata import RootSystemId, lookup

# -- exact root location ------------------------------------------------------


class LineCheckReport(namedtuple("LineCheckReport", "on_line center method details")):
    """Outcome of a vertical-line certification at Re t = center (a
    `Fraction`); `method` is "exact-sturm" or "numeric".  Exact outputs print
    that name, so it stays though `_counts` runs more than a Sturm chain and
    `_line_witness` may answer first: either proof gives the same report,
    which does not say which one answered."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "on_line": self.on_line,
            "center": [str(self.center.numerator), str(self.center.denominator)],
            "method": self.method,
            "details": self.details,
        }


def _primitive(a: Sequence[int]) -> list[int]:
    """a divided by the (positive) gcd of its coefficients."""
    g = math.gcd(*a)
    return [x // g for x in a]


def _remainders(a: Sequence[int], b: Sequence[int]) -> list[Sequence[int]]:
    """The primitive remainder sequence a, b, -pp(prem(a, b)), ... over Z,
    up to its last nonzero element, which is gcd(a, b) up to a factor in Q
    (Brown, JACM 18, 1971).  ``a`` is nonzero; a zero ``b`` gives [a].  Each
    elimination step scales the remainder by |lc b| and forms no quotient,
    so each element is the primitive positive multiple of its match in a,
    b, -rem, ... over Q."""
    seq = [a]
    while b:
        seq.append(b)
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        lower = b[:-1]
        r = list(seq[-2])
        while len(r) > len(lower):
            c = sign * r.pop()
            k = len(r) - len(lower)
            r = [lead * x for x in r]
            for j, x in enumerate(lower):
                r[k + j] -= c * x
            while r and not r[-1]:
                r.pop()
        b = [-x for x in _primitive(r)]
    return seq


def _quotient(a: Sequence[int], g: Sequence[int]) -> list[int]:
    """pp(a) / pp(g) = pp(a / g) for a nonzero g that divides a over Q, else
    `InexactDivision`: by Gauss's lemma, long division of the primitive
    parts in integers is then exact, so a rest at any step raises."""
    r, b = _primitive(a), _primitive(g)
    lower = b[:-1]
    q = []
    while len(r) > len(lower):
        c, rest = divmod(r.pop(), b[-1])
        if rest:
            raise InexactDivision("division was not exact")
        k = len(r) - len(lower)
        for j, x in enumerate(lower):
            r[k + j] -= c * x
        q.append(c)
    if any(r):
        raise InexactDivision("division was not exact")
    return q[::-1]


#: The prime of the square-free witness, 2**30 - 35, the largest below
#: 2**30: its residues are single-digit ints in CPython.
WITNESS_PRIME = 1073741789


def _squarefree_mod_prime(a: Sequence[int]) -> bool:
    """True if q = `WITNESS_PRIME` does not divide lc(a) and a, a' are
    coprime over GF(q).

    Then a is square-free over Q (Brown, JACM 18, 1971): a common factor of
    a and a' of positive degree can be taken primitive in Z[t], its leading
    coefficient divides lc(a), so it keeps its degree mod q and divides both
    images there.  False proves nothing.  ``a`` carries no trailing zeros
    and has degree below q.  Euclid's steps leave their products unreduced,
    and each remainder is reduced mod q once, when it becomes the divisor.
    """
    q = WITNESS_PRIME
    if a[-1] % q == 0:
        return False
    u = [x % q for x in a]
    v = [j * x % q for j, x in enumerate(a)][1:]  # lc is deg(a) * lc(a), nonzero mod q
    while len(v) > 1:
        inv = pow(v[-1], -1, q)
        lower = v[:-1]
        while len(u) >= len(v):  # u[-1] is the leading term, nonzero mod q
            c = u.pop() * inv % q
            k = len(u) - len(lower)
            for j, x in enumerate(lower):
                u[k + j] -= c * x
            while u and not u[-1] % q:
                u.pop()
        u, v = v, [x % q for x in u]
    return len(v) == 1


def _squarefree_factors(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Square-free decomposition of a nonzero p: [(f_1, 1), (f_2, 2), ...]
    with p = leading * prod f_i**i, each f_i monic square-free, deg f_i > 0.

    A prime witness answers first: when `_squarefree_mod_prime` proves p
    square-free, the result is [(p made monic, 1)] with no gcd over Z
    taken.  Otherwise Musser's split decides, in integers: g_0 = pp(p) and
    g_k = gcd(g_(k-1), g_(k-1)'), the last element of their remainder
    sequence, until g_k is constant; h_k = g_(k-1) / g_k is the product of
    the f_i with i >= k, so f_k = h_k / h_(k+1)."""
    if _squarefree_mod_prime(p.nums):
        return [(RatPoly.over(p.nums, p.nums[-1]), 1)]
    gs = [_primitive(p.nums)]
    while len(gs[-1]) > 1:
        g = gs[-1]
        gs.append(_remainders(g, _primitive([j * x for j, x in enumerate(g)][1:]))[-1])
    hs = [_quotient(a, g) for a, g in zip(gs, gs[1:])]
    factors = []
    for k, (h, h_next) in enumerate(zip(hs, hs[1:] + [[1]]), 1):
        f = _quotient(h, h_next)
        if len(f) > 1:
            factors.append((RatPoly.over(f, f[-1]), k))
    return factors


def _counts(q: Sequence[int]) -> tuple[int, int, int]:
    """(left, on, right): the roots of a nonzero q over Z, with multiplicity,
    in Re z < 0, on Re z = 0 and in Re z > 0 (Gantmacher, The Theory of
    Matrices II, ch. XV).  q(iy) = U(y) + iV(y), with U the even and V the
    odd terms of q, the k-th times (-1)^(k // 2).  The remainder sequence of
    the one of degree n = deg q and the other has the Cauchy index of their
    quotient as var(-inf) - var(+inf), where neighbours of odd degree gap
    add 1 if their leading coefficients agree in sign and -1 if not; idx is
    that, negated at even n.  Its last element g = gcd(U, V) holds the roots
    on the line, with multiplicity, and pairs z, -z, which split evenly; q / g
    has idx more roots left than right.  g = y^j G(y^2) with G(0) != 0, so
    `on` is j plus twice the positive roots of G, gcd(G, G'), ..., each
    counted by its Sturm chain at 0 and +inf.
    """
    n = len(q) - 1
    hi = [x if k % 4 < 2 else -x for k, x in enumerate(q)]
    g, idx = hi, 0  # where q has one parity: hi is U or V, and the other is 0
    if any(q[1 - n % 2::2]):
        lo = hi[:-1]
        hi[1 - n % 2::2] = [0] * ((n + 1) // 2)  # U or V, whichever has degree n
        lo[n % 2::2] = [0] * (n // 2)  # the other
        while not lo[-1]:
            lo.pop()
        seq = _remainders(hi, lo)
        idx = sum(1 if (a[-1] > 0) == (b[-1] > 0) else -1 for a, b in zip(seq, seq[1:]) if (len(a) - len(b)) % 2)
        idx, g = idx if n % 2 else -idx, seq[-1]
    on = 0
    while not g[on]:  # g = y^j G(y^2): on starts at j
        on += 1
    G = _primitive(g[on::2])
    while len(G) > 1:
        chain = _remainders(G, _primitive([k * x for k, x in enumerate(G)][1:]))
        at_0, at_inf = [f[0] > 0 for f in chain if f[0]], [f[-1] > 0 for f in chain]
        on += 2 * (sum(map(ne, at_0, at_0[1:])) - sum(map(ne, at_inf, at_inf[1:])))
        G = chain[-1]
    return (n - on + idx) // 2, on, (n - on - idx) // 2


# The least deg G1 at which `check_on_line_exact` tries `_line_witness`
# before `_counts`.  Both grow with the coefficients, the count faster: on
# CPython 3.11.7 (2-vCPU x86-64) the witness took 1.7-2.2 times the count's
# time at deg G1 2-7 for m <= 500, and broke even at deg 9 from m ~ 100-300
# and at deg 10 from m ~ 10.  The 280 pooled classical-sweep inputs, at
# deg G1 6-14, took 38.7 ms without the witness, 23.1 with this cut, 22.4
# at 9 and 24.2 at 11; 10 keeps small m at deg 9 on the count.
_WITNESS_MIN_DEGREE = 10


def check_on_line_exact(p: RatPoly, center_times_2: int) -> LineCheckReport:
    """Exact verdict: do all roots of p satisfy Re t = M/2 (M = center_times_2)?

    Substitutes t = M/2 + s over Q.  All roots of g lie on Re s = 0 iff
    g(s) = s^eps G(s^2) with eps = deg g mod 2 (the parity test) and
    `_counts` finds all deg g there: every root of G real and <= 0.  From
    deg G1 = `_WITNESS_MIN_DEGREE` on, where G = u^j G1(u) with G1(0) != 0,
    `_line_witness` may prove first that G1 has deg G1 distinct negative
    roots, which is enough; it proves nothing else, so `_counts` decides
    every other case.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    center = Fraction(center_times_2, 2)
    g = p.compose_affine(1, center)
    eps = g.degree % 2
    if any(g.nums[1 - eps::2]):
        return LineCheckReport(False, center, "exact-sturm", {"parity_ok": False})
    G = g.nums[eps::2]
    j = next(k for k, x in enumerate(G) if x)  # G = u^j G1(u)
    on_line = ((len(G) - 1 - j >= _WITNESS_MIN_DEGREE and _line_witness(G[j:]))
               or _counts(g.nums)[1] == g.degree)
    details = {
        "parity_ok": True,
        "even_part": RatPoly.over(G, g.den).to_json(),
        "even_part_all_roots_real_nonpositive": on_line,
    }
    return LineCheckReport(on_line, center, "exact-sturm", details)


def halfplane_exact(p: RatPoly, bound_times_2: int | Fraction) -> bool:
    """Exact verdict that every root satisfies Re t < H/2 (H = bound_times_2,
    any rational): `_counts` of q(z) = p(z + H/2) finds all deg q of its
    roots in Re z < 0, none on the line or right of it."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    q = p.compose_affine(1, Fraction(bound_times_2, 2))
    return _counts(q.nums)[0] == q.degree


# -- numeric root location ----------------------------------------------------

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


class ComplexRootSet(namedtuple("ComplexRootSet", "roots residual_bound certified_radius")):
    """All complex roots of a polynomial, as `find_roots` returns them once
    every factor converged, with a posteriori quality data:
    `residual_bound` is max |p(root)| relative to the evaluation scale, and
    `certified_radius` holds, per root, n*|f/f'| for its square-free factor
    f of degree n.  In exact arithmetic the disc of that radius holds a root
    of f; here it is evaluated in doubles with no bound on the rounding and
    no check that the discs are disjoint, so it is an unproven estimate,
    whatever its name (the JSON key keeps it)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "residual_bound": self.residual_bound,
            "certified_radius": list(self.certified_radius),
            "converged": True,
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


def _aberth(c: Sequence[float], z: list[complex] | list[float]) -> str:
    """Ehrlich-Aberth iteration on a monic square-free polynomial (ascending
    floats), updating the iterates z in place, in the arithmetic of the
    starts: complex, or real for float starts on a polynomial whose roots
    are expected real.

    Returns "converged" once the corrections fall below _CORRECTION_TOL or
    stop shrinking below _FLOOR_TOL (both relative to `_start_radius(c)`),
    "stalled" once they stop shrinking above _FLOOR_TOL while every |p(z_j)|
    is inside `_horner_error_bound`, and "spent" after _MAX_ITER iterations.
    Raises OutOfDoubleRange once an iterate is not finite.

    A residual inside the rounding bound carries no information about the
    root, so no further correction can improve it (Bini, "Numerical
    computation of polynomial zeros by means of Aberth's method", Numer.
    Algorithms 13, 1996).

    Each iterate runs `_horner2`'s loop inline, on the coefficients reversed
    once per call, and adds the reciprocals in a loop from zero over z[:j]
    (moved earlier in this sweep, Gauss-Seidel) and then z[j + 1:].  These
    are the operations and the order of `_horner2` and of `sum` over the
    same terms, which CPython 3.10-3.13 does not compensate for complex
    numbers, so every iterate keeps their bits with no call and no list per
    iterate.  No operation mixes a float into complex arithmetic (see
    `_complex`).  A real run stays real unless a derivative vanishes at an
    iterate, whose kick off the axis makes it complex.
    """
    radius = _start_radius(c)
    real = isinstance(z[0], float)
    rcoeffs = (c if real else _complex(c))[::-1]
    # (1 + 0j) is what 1.0 becomes in a complex division (see _complex)
    zero, one = (0.0, 1.0) if real else (0j, 1 + 0j)
    prev_corr = math.inf
    for _ in range(_MAX_ITER):
        max_corr = 0.0
        start = z[:]
        values = []
        for j, zj in enumerate(start):
            p = dp = zero
            for ck in rcoeffs:
                dp = dp * zj + p
                p = p * zj + ck
            values.append(p)
            if p == 0:
                continue
            if dp == 0:
                z[j] += radius * (1e-6 + 1e-6j)
                max_corr = radius
                continue
            newton = p / dp
            s = zero
            for zk in z[:j]:
                s += one / (zj - zk)
            for zk in z[j + 1:]:
                s += one / (zj - zk)
            denom = one - newton * s
            w = newton if denom == 0 else newton / denom
            z[j] -= w
            if not cmath.isfinite(z[j]):  # the comparison below would drop a NaN
                raise OutOfDoubleRange("Aberth iterate left the range of doubles")
            corr = abs(w)
            if corr > max_corr:
                max_corr = corr
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
    value `_horner2` computes, and `_aberth`'s inline pass with it
    (coefficients ascending, degree n).

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


# A factor starts centred once `_horner_error_bound` at its root centroid c
# reaches 1/_CENTRE_MARGIN of |p(c)|.  Over the 280 pooled classical-sweep
# inputs, log10(bound / |p(c)|) is at most -2.72 where stage 1 converges and
# -2.25 to -0.05 where it stalls (log10 2**-8 = -2.41); the routed ones read
# from 0.01 up.
_CENTRE_MARGIN = 2**8


def _barely_resolved_at_centroid(factor: RatPoly, c: Sequence[float], centroid: Fraction) -> bool:
    """True if `_horner_error_bound` at float(centroid) is at least
    |p(centroid)| / _CENTRE_MARGIN for the monic p = factor / lc, whose
    doubles are c: then c resolves p at the centre of its roots to fewer
    than 8 bits, and on the classical-sweep pool every factor that does so
    and runs Aberth on c as given stalls on the rounding floor of Horner's
    rule before it converges.  A wrong answer costs a run and never a
    root: a centred run that does not converge falls back to the two stages.

    Decided exactly: with centroid = u/v, one Horner pass over Z gives
    H = sum a_k u^k v^(n-k) = lc * v^n * p(centroid), and the bound, an exact
    ratio of integers, is compared with |H| / (|lc| * v^n) by
    cross-multiplying, so no quotient of the integers is rounded or can
    overflow.  A bound or a float(centroid) outside the doubles raises
    OverflowError.
    """
    u, v = centroid.numerator, centroid.denominator
    value, power = 0, 1
    for a in reversed(factor.nums):
        value = value * u + a * power
        power *= v
    num, den = _horner_error_bound(c, float(centroid)).as_integer_ratio()
    return _CENTRE_MARGIN * num * abs(factor.nums[-1]) * (power // v) >= abs(value) * den


def _start_circle(radius: float, n: int, turn: float) -> list[complex]:
    """n starts on the circle of that radius about 0, the first at angle turn."""
    return [radius * cmath.exp(1j * (2 * math.pi * k / n + turn)) for k in range(n)]


def _polygon_edges(c: Sequence[float]) -> list[tuple[int, int, float]]:
    """(i, j, r) for each edge of the Newton polygon of |c| (ascending
    doubles), left to right: the upper convex hull of the points
    (k, log|c_k|) with c_k != 0, whose edge (i, j) has the j - i roots of
    modulus about r = (|c_i| / |c_j|)^(1/(j - i)) (Bini, Numer. Algorithms
    13, 1996).  Built left to right, the hull keeps a vertex only where the
    radius, as a double, grows past it, so no two edges share a radius.  The
    hull starts at the lowest k with c_k != 0; below it c has a root at 0 of
    that multiplicity.
    """

    def radius(i: int, j: int) -> float:
        return (abs(c[i]) / abs(c[j])) ** (1 / (j - i))

    hull: list[int] = []
    for k, ck in enumerate(c):
        if not ck:
            continue
        while len(hull) > 1 and radius(hull[-2], hull[-1]) >= radius(hull[-1], k):
            hull.pop()
        hull.append(k)
    return [(i, j, radius(i, j)) for i, j in zip(hull, hull[1:])]


def _polygon_starts(c: Sequence[float]) -> list[complex]:
    """n starts for monic c (ascending doubles, degree n): for each edge
    (i, j, r) of `_polygon_edges`, j - i starts on the circle of radius r
    about 0, rotated by 2*pi*i/n + _INIT_ROTATION, and a start at 0 for each
    root of c there.  A square-free c has at most one root at 0, so its
    starts are distinct.
    """
    n = len(c) - 1
    edges = _polygon_edges(c)
    starts = [0j] * (edges[0][0] if edges else n)
    for i, j, r in edges:
        starts += _start_circle(r, j - i, 2 * math.pi * i / n + _INIT_ROTATION)
    return starts


def _line_starts(c: Sequence[float]) -> list[float]:
    """Negative real starts for monic c (ascending doubles) whose roots are
    expected real and negative, one per root off 0: for each edge (i, j, r)
    of `_polygon_edges`, with k = j - i, the k starts
    -r * e^((t + 1/2)/k - 1/2) for t < k, spread within a factor e about
    -r."""
    return [-r * math.exp((t + 0.5) / (j - i) - 0.5) for i, j, r in _polygon_edges(c) for t in range(j - i)]


def _real_aberth(G: Sequence[int]) -> tuple[list[float], str] | None:
    """`_aberth` in real doubles on G (integers, ascending, degree n >= 1)
    where G may have n distinct negative roots: its n iterates, sorted,
    each a negative double and no two equal, and the status the run ended
    on.  None proves nothing.

    Two exact tests go first, which every such G passes: all coefficients
    nonzero of one sign (G = lc * prod (u + r_k), r_k > 0), and Newton's
    inequalities held strictly, a_k^2 k(n-k) > a_(k-1) a_(k+1) (k+1)(n-k+1)
    for 0 < k < n (Hardy, Littlewood and Polya, Inequalities, Theorem 51:
    real roots, not all equal).  A G that fails either answers None with no
    run, rather than after _MAX_ITER sweeps that cannot settle on the reals.
    The run is on G's monic doubles from `_line_starts`; it also answers
    None for fewer than n starts (low coefficients of G that the doubles
    read as 0.0 leave their roots none), an iterate that left the reals
    (a vanishing derivative kicks it off the axis) or the doubles, two
    equal iterates, an iterate at or right of 0, or coefficients outside
    the doubles.
    """
    n = len(G) - 1
    if not (min(G) > 0 or max(G) < 0):
        return None
    if not all(a * a * k * (n - k) > b * d * (k + 1) * (n - k + 1)
               for k, (b, a, d) in enumerate(zip(G, G[1:], G[2:]), 1)):
        return None
    try:
        c = _monic_floats(RatPoly.over(G))
        x = _line_starts(c)
        if len(x) < n:  # the doubles read low coefficients as 0.0
            return None
        status = _aberth(c, x)
    except ArithmeticError:  # OutOfDoubleRange, OverflowError, two equal iterates
        return None
    if not all(isinstance(xk, float) for xk in x):
        return None
    x.sort()
    if not (x[-1] < 0 and all(u < v for u, v in zip(x, x[1:]))):
        return None
    return x, status


def _line_witness(G: Sequence[int]) -> bool:
    """True if G (integers, ascending, degree n >= 1, G_0 != 0) has n
    distinct negative roots; False proves nothing.

    Floats propose: the iterates x_1 < ... < x_n of `_real_aberth`, whatever
    status its run ended on, give the n + 1 increasing points 2*x_1, the
    midpoints (x_k + x_(k+1))/2 and 0, exact dyadic rationals.  Integers
    confirm: if G, evaluated at each exactly, changes sign between every
    two neighbours, then each of the n intervals between them holds a root
    of G, all left of 0.  No alternation, or no iterates, answers False.
    """
    run = _real_aberth(G)
    if run is None:
        return False
    # each x_k = a_k / h over one power of two h, so each point is an
    # integer over 2h and G at u / (2h) has the sign of
    # sum G_k u^k (2h)^(n-k), one integer Horner pass over `scaled`
    ratios = [xk.as_integer_ratio() for xk in run[0]]
    h = max(den for _, den in ratios)
    a = [num * (h // den) for num, den in ratios]
    points = [4 * a[0]] + [u + v for u, v in zip(a, a[1:])]
    scaled, power = [], 1
    for gk in reversed(G):
        scaled.append(gk * power)
        power *= 2 * h
    positive = G[0] > 0
    for u in reversed(points):  # leftward from 0, where G is G_0
        value = 0
        for b in scaled:
            value = value * u + b
        if not value or (value > 0) == positive:
            return False
        positive = not positive
    return True


def _centred_roots(
    factor: RatPoly, centroid: Fraction, starts: list[complex] | None = None
) -> tuple[list[complex], list[float], str]:
    """`_aberth` on g(s) = factor(s + c), shifted exactly over Q by the
    centroid c: the roots of factor, g's inclusion radii and the status.

    Given starts near the roots of factor, the run is on g from the starts
    minus c.  Without, it runs on G if g = s^eps G(s^2) with eps = deg g % 2;
    the roots of g are then 0 for odd degree and r and -r for r = sqrt(u)
    at each root u of G.  On the line Re s = 0, which the paper puts every
    root on, each u is real and negative: the run is first `_real_aberth`'s,
    in real doubles, taken if it converged, and each r = sqrt(u) then has
    real part 0.0, so every root of factor has real part float(c) exactly.
    Otherwise, and on g without the parity, the run is complex, from the
    circles of the Newton polygon (`_polygon_starts`), as the roots spread
    over orders of magnitude.
    """
    g = factor.compose_affine(1, centroid)
    cc = _monic_floats(g)
    shift = float(centroid)
    eps = g.degree % 2
    if starts is None and not any(g.nums[1 - eps::2]):
        G = g.nums[eps::2]
        run = _real_aberth(G)
        if run and run[1] == "converged":
            u, status = run
        else:
            cg = _monic_floats(RatPoly.over(G, g.den))
            u = _polygon_starts(cg)
            status = _aberth(cg, u)
        halves = [0j] * eps + [cmath.sqrt(uk) for uk in u]
        # the terms of g have one parity, so Horner's rule at -r gives
        # +-p(r) and -+p'(r), each of the same modulus to the bit: the radii
        # at r serve -r
        radii = _inclusion_radii(cc, halves)
        s, radii = halves + [-r for r in halves[eps:]], radii + radii[eps:]
    else:
        s = _polygon_starts(cc) if starts is None else [zj - shift for zj in starts]
        status = _aberth(cc, s)
        radii = _inclusion_radii(cc, s)
    return [sj + shift for sj in s], radii, status


def _factor_roots(factor: RatPoly) -> tuple[list[complex], list[float], str]:
    """Roots of a square-free factor, their inclusion radii and the status
    `_aberth` ended on, routed by the factor's root centroid
    c = -a_(n-1) / (n*a_n).

    When the roots sit far from 0 compared with their spread, the monomial
    coefficients cancel in doubles.  If they cancel so far that the doubles
    resolve p at c to fewer than 8 bits (`_barely_resolved_at_centroid`),
    stage 1 below would only stall, so the factor takes the centred run of
    `_centred_roots` first.  A factor with c = 0 is centred already: it
    takes that run if it is s^eps G(s^2), and the two stages otherwise.
    Any end of that run but "converged", or of the test (a stall, the spent
    budget, two equal iterates, a bound, iterate or coefficient outside the
    doubles), falls back to the two stages below, from their usual start, so
    the route fails no factor the two stages solve.

    The two stages, which every other factor runs: stage 1 iterates on the
    factor as given, from a rotated circle of radius `_start_radius`.  If
    the corrections stall on a noise floor above _FLOOR_TOL with every
    residual inside the rounding bound of Horner's rule, stage 2 is
    `_centred_roots` from the stalled iterates, at full degree.  A stall in
    stage 2 is final.  Runs that do not stall return stage 1's roots
    unchanged.  `_aberth`'s one division by zero, 1 / (z_j - z_k) for two
    equal iterates, is raised as the NonConvergence it is.
    """
    c = _monic_floats(factor)
    n = len(c) - 1
    if n == 1:
        z = complex(-c[0])
        return [z], [abs(_horner2(c, z)[0])], "converged"
    centroid = Fraction(-factor.nums[-2], n * factor.nums[-1])
    try:
        # a factor centred already gains only from the run on G
        if (_barely_resolved_at_centroid(factor, c, centroid) if centroid
                else not any(factor.nums[1 - n % 2::2])):
            roots = _centred_roots(factor, centroid)
            if roots[2] == "converged":
                return roots
    except ArithmeticError:  # OverflowError, OutOfDoubleRange, two equal iterates
        pass
    z = _start_circle(_start_radius(c), n, _INIT_ROTATION)
    try:
        status = _aberth(c, z)
        if status != "stalled":
            return z, _inclusion_radii(c, z), status
        return _centred_roots(factor, centroid, z)
    except ZeroDivisionError as exc:
        raise NonConvergence("Aberth iterates collided: two became equal") from exc


def find_roots(p: RatPoly) -> ComplexRootSet:
    """All complex roots of p (double precision), multiplicities included.

    The exact square-free decomposition is taken first so the Aberth
    iteration only ever sees simple roots; multiple roots are then replicated.
    Each factor is solved by `_factor_roots`, which runs `_aberth` on it
    centred exactly over Q at its root centroid (`_centred_roots`): first,
    on its even part where it has one, if its doubles resolve it there to
    fewer than 8 bits (where the iteration as given stalls), and otherwise,
    or if that run fails, once the iteration as given stalls, from its
    iterates.  The run on the even part is in real doubles where that
    converges, which puts each root at a real part of exactly float(c), in
    conjugate pairs ordered by their imaginary parts, and complex from the
    Newton polygon where not.  Every set returned converged.
    Raises NonConvergence if any factor stalls again after centring or
    fails to settle within the iteration budget, naming the stop it hit, or
    once two iterates become equal, and OutOfDoubleRange if p or one of its
    factors does not fit in doubles, or an iterate or a residual leaves
    them; the residuals are checked first, so an input that fails both ways
    is out of range.
    """
    if p.degree < 1:
        raise ValueError("need a polynomial of degree >= 1")
    roots: list[complex] = []
    radii: list[float] = []
    failed: set[str] = set()
    try:
        for factor, mult in _squarefree_factors(p):
            zs, rads, status = _factor_roots(factor)
            if status != "converged":
                failed.add(status)
            order = sorted(range(len(zs)), key=lambda i: (zs[i].real, zs[i].imag))
            for i in order:
                roots.extend([zs[i]] * mult)
                radii.extend([rads[i]] * mult)
        floats = [c / p.den for c in p.nums]
        rcoeffs = _complex(floats)[::-1]
        moduli = [abs(c) for c in floats]
        residuals = []
        for z in roots:
            val = 0j  # `_horner2`'s value, without its derivative
            for c in rcoeffs:
                val = val * z + c
            # fsum, not sum: Python 3.12 made float sum compensated, and the
            # last digit must not depend on the interpreter
            r = max(1.0, abs(z))
            denom = math.fsum(a * r**i for i, a in enumerate(moduli))
            residuals.append(abs(val) / denom)
        if not all(map(math.isfinite, residuals)):
            raise OutOfDoubleRange(_OUT_OF_RANGE)
    except (OverflowError, ZeroDivisionError) as exc:  # p/den overflows or underflows to 0.0
        raise OutOfDoubleRange(_OUT_OF_RANGE) from exc
    if failed:
        stops = {
            "stalled": "stalled at the rounding floor of Horner's rule after centring",
            "spent": f"did not converge within {_MAX_ITER} iterations",
        }
        message = " and ".join(stops[status] for status in sorted(failed))
        raise NonConvergence(f"Aberth iteration {message}")
    return ComplexRootSet(
        roots=tuple(roots),
        residual_bound=max(residuals, default=0.0),
        certified_radius=tuple(radii),
    )


def check_on_line_numeric(p: RatPoly, center_times_2: int) -> LineCheckReport:
    """Numeric counterpart: each |Re root - M/2| against `_LINE_TOL`, or
    against `_LINE_ULPS` units of the root's modulus where that is larger.

    The roots are found in the centred variable s = t - M/2, exactly as the
    exact check substitutes, so the deviation is max |Re s| and is not lost
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
