"""Characteristic quasi-polynomials of extended Linial arrangements and of
Weyl arrangements, half quasi-polynomials, admissible residues, the averaging
construction, and the polynomial toy case.

Everything here composes the Eulerian polynomial (as a shift operator) with
the alcove Ehrhart quasi-polynomial; m = 0 always means the empty
arrangement.  Residues live in 0..period-1.
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

# Entries kept per m-keyed quasi-polynomial cache, full and half alike.  The
# acceptance matrix builds 31 systems for m <= 5 and reads them again in later
# criteria, and `averaged_half` reads every orbit member from one cached half
# build, so this holds all of it while keeping m-sweeps from growing without
# limit.
_QUASI_CACHE_SIZE = 256


class AdmissibleReport(namedtuple("AdmissibleReport", "residues divisors m0")):
    """`residues`: all admissible residues in 0..period-1; `divisors`: the
    admissible divisors of the period (the period itself as residue 0)."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"residues": self.residues, "divisors": self.divisors, "m0": self.m0}


@lru_cache(maxsize=None)
def shift_operator(ident: RootSystemId, half: bool) -> RatPoly:
    """R_Phi, or its truncation R'_Phi when `half`, read as a polynomial in S."""
    R = generalized_eulerian(ident)
    if half:
        R = truncate_half(R, lookup(ident).coxeter_number)
    return R


def char_constituent(ident: RootSystemId, m: int, d: int, half: bool = False) -> RatPoly:
    """The residue-d constituent of `char_quasi` (or of `half_char_quasi`
    when `half`), computed on its own without building the other residues."""
    if m < 0:
        raise ValueError("m must be >= 0")
    table = ehrhart_table(ident)
    return shift_constituents(shift_operator(ident, half), m + 1, table, (d,))[0]


@lru_cache(maxsize=_QUASI_CACHE_SIZE)
def char_quasi(ident: RootSystemId, m: int) -> QuasiPoly:
    """Characteristic quasi-polynomial of the m-th extended Linial arrangement:
    R_Phi(S^(m+1)) applied to L_Phi."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return apply_shift_qp(shift_operator(ident, False), m + 1, ehrhart_table(ident))


def char_poly(ident: RootSystemId, m: int) -> RatPoly:
    """Characteristic polynomial: the prime (d = 1) constituent."""
    return char_constituent(ident, m, 1)


@lru_cache(maxsize=_QUASI_CACHE_SIZE)
def half_char_quasi(ident: RootSystemId, m: int) -> QuasiPoly:
    """Half characteristic quasi-polynomial: the truncated Eulerian polynomial
    applied with step m + 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return apply_shift_qp(shift_operator(ident, True), m + 1, ehrhart_table(ident))


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
def admissible_residues(ident: RootSystemId) -> AdmissibleReport:
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
    half = half_char_quasi(ident, m)
    acc = RatPoly.zero()
    for k in range(report.m0):
        for r in (d + k * h, -d + k * h):
            acc = acc + half.constituent(r)
    return acc.scale(Fraction(1, 2 * report.m0))


def toy_poly(ident: RootSystemId, m: int) -> RatPoly:
    """Toy-case polynomial R_Phi(S^(m+1)) g for the symmetric seed
    g(t) = prod_i (t + e_i), with g(t - h) = (-1)^rank g(-t)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    g = RatPoly.from_roots([-e for e in lookup(ident).exponents])
    return apply_shift(shift_operator(ident, False), m + 1, g)
