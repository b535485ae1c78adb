"""Characteristic quasi-polynomials of extended Linial arrangements and of
Weyl arrangements, half quasi-polynomials, admissible residues, the averaging
construction, the polynomial toy case and the m -> infinity limit polynomial.

Everything here composes the Eulerian polynomial (as a shift operator) with
the alcove Ehrhart quasi-polynomial or with a polynomial; the half
quasi-polynomial and the limit polynomial use the truncated operator, chosen
by a `half` flag.  m = 0 always means the empty arrangement.  Residues live
in 0..period-1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .ehrhart import QuasiPoly, apply_shift_qp, ehrhart_qp, ehrhart_table
from .errors import NotAdmissible
from .eulerian import generalized_eulerian, truncate_half
from .ratpoly import RatPoly, apply_shift, shift_constituents
from .rootdata import RootSystemId, lookup

# Entries kept by the m-keyed `char_quasi` cache, full and half builds
# together.  The acceptance matrix builds 191 full quasi-polynomials, read
# again in later criteria, and 21 half ones, from which `averaged_half` reads
# every orbit member; this holds all 212 while keeping m-sweeps from growing
# without limit.
_QUASI_CACHE_SIZE = 256


class AdmissibleReport(namedtuple("AdmissibleReport", "residues divisors m0")):
    """`residues`: all admissible residues in 0..period-1; `divisors`: the
    admissible divisors of the period (the period itself as residue 0)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


@lru_cache(maxsize=None)
def shift_operator(ident: RootSystemId, half: bool, /) -> RatPoly:
    """R_Phi, or its truncation R'_Phi when `half`, read as a polynomial in S."""
    R = generalized_eulerian(ident)
    if half:
        R = truncate_half(R, lookup(ident).coxeter_number)
    return R


def char_constituent(ident: RootSystemId, m: int, d: int, half: bool = False) -> RatPoly:
    """The residue-d constituent of `char_quasi(ident, m, half)`, computed on
    its own without building the other residues."""
    if m < 0:
        raise ValueError("m must be >= 0")
    table = ehrhart_table(ident)
    return shift_constituents(shift_operator(ident, half), m + 1, table, (d,))[0]


def char_quasi(ident: RootSystemId, m: int, half: bool = False) -> QuasiPoly:
    """Characteristic quasi-polynomial of the m-th extended Linial arrangement:
    R_Phi(S^(m+1)) applied to L_Phi; when `half`, the half characteristic
    quasi-polynomial, with the truncation R'_Phi in place of R_Phi.  Cached by
    value, however the call spells `half`."""
    return _char_quasi(ident, m, half)


@lru_cache(maxsize=_QUASI_CACHE_SIZE)
def _char_quasi(ident: RootSystemId, m: int, half: bool, /) -> QuasiPoly:
    if m < 0:
        raise ValueError("m must be >= 0")
    return apply_shift_qp(shift_operator(ident, half), m + 1, ehrhart_table(ident))


def char_poly(ident: RootSystemId, m: int) -> RatPoly:
    """Characteristic polynomial: the prime (d = 1) constituent."""
    return char_constituent(ident, m, 1)


def weyl_char_quasi(ident: RootSystemId) -> QuasiPoly:
    """Characteristic quasi-polynomial of the Weyl arrangement:
    (-1)^l * (|W|/f) * L_Phi(-q), constituent by constituent."""
    data = lookup(ident)
    L = ehrhart_qp(ident)
    scale = Fraction((-1) ** data.rank * data.weyl_order, data.index_of_connection)
    return QuasiPoly(
        tuple(L.constituent(-d).compose_affine(-1, 0).scale(scale) for d in range(L.period))
    )


@lru_cache(maxsize=None)
def admissible_residues(ident: RootSystemId, /) -> AdmissibleReport:
    """Residues d whose constituent is invariant under d -> +-d + k*h.

    Because the characteristic quasi-polynomial has the GCD-property, d is
    admissible iff gcd(d, period) = gcd(d + k*h, period) for all k; the map
    k -> gcd(d + k*h, period) has period dividing m0 = period/gcd(h, period).
    """
    data = lookup(ident)
    n, h = data.period, data.coxeter_number
    m0 = n // math.gcd(h, n)
    residues = tuple(
        d
        for d in range(n)
        if all(math.gcd(d, n) == math.gcd((d + k * h) % n, n) for k in range(m0))
    )
    divisors = tuple(v for v in range(1, n + 1) if n % v == 0 and (v % n) in residues)
    return AdmissibleReport(residues=residues, divisors=divisors, m0=m0)


def averaged_half(ident: RootSystemId, m: int, d: int) -> RatPoly:
    """The averaged half-polynomial F_d^(m) over the orbit {+-d + k*h}:

        F = (1/(2*m0)) * sum_k [ L'_{d+kh} + L'_{-d+kh} ],

    which satisfies  L_d^(m)(t) = F(t) + (-1)^l F(m*h - t)  exactly for
    admissible d."""
    data = lookup(ident)
    n, h = data.period, data.coxeter_number
    report = admissible_residues(ident)
    if d % n not in report.residues:
        raise NotAdmissible(f"residue {d} mod {n} is not admissible for {ident}")
    half = char_quasi(ident, m, True)
    acc = RatPoly.over(())
    for k in range(report.m0):
        for r in (d + k * h, -d + k * h):
            acc = acc + half.constituent(r)
    return acc.scale(Fraction(1, 2 * report.m0))


def toy_poly(ident: RootSystemId, m: int) -> RatPoly:
    """Toy-case polynomial R_Phi(S^(m+1)) g for the symmetric seed
    g(t) = prod_i (t + e_i), with g(t - h) = (-1)^rank g(-t)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    g = [1]
    for e in lookup(ident).exponents:  # g <- (t + e) g, over Z
        g = [e * a + b for a, b in zip(g + [0], [0] + g)]
    return apply_shift(shift_operator(ident, False), m + 1, RatPoly.over(g))


@lru_cache(maxsize=None)
def limit_poly(ident: RootSystemId, /) -> RatPoly:
    """The rescaled m -> infinity limit R'_Phi(S) t^l = sum a'_i (t - i)^l."""
    return apply_shift(shift_operator(ident, True), 1, RatPoly.over([0] * ident.rank + [1]))


def limit_combination(ident: RootSystemId) -> RatPoly:
    """F(t) + (-1)^l F(h - t) for F = limit_poly: the degree-l polynomial whose
    roots the rescaled constituent roots approach."""
    data = lookup(ident)
    F = limit_poly(ident)
    return F + F.compose_affine(-1, data.coxeter_number).scale((-1) ** data.rank)
