"""Characteristic quasi-polynomials of extended Linial arrangements and of
Weyl arrangements, half quasi-polynomials, admissible residues, the averaging
construction, and the polynomial toy case.

Everything here composes the Eulerian polynomial (as a shift operator) with
the alcove Ehrhart quasi-polynomial; m = 0 always means the empty
arrangement.  Residues live in 0..period-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ehrhart import QuasiPoly, apply_shift_qp, ehrhart_qp
from .errors import NotAdmissible, SymmetryViolation
from .eulerian import generalized_eulerian, truncate_half
from .ratpoly import RatPoly, ShiftPoly, apply_shift, shift_constituent
from .rootdata import RootSystemId, lookup

# Entries kept per m-keyed quasi-polynomial cache.  The acceptance matrix
# builds 31 systems for m <= 5 and reads them again in later criteria, so
# this holds all of it while keeping m-sweeps from growing without limit.
_QUASI_CACHE_SIZE = 256


@dataclass(frozen=True)
class AdmissibleReport:
    residues: tuple[int, ...]  # all admissible residues in 0..period-1
    divisors: tuple[int, ...]  # the admissible divisors of the period (period itself as residue 0)
    m0: int


@lru_cache(maxsize=None)
def _operator(ident: RootSystemId, half: bool) -> ShiftPoly:
    """R_Phi, or its truncation R'_Phi when `half`, as a shift operator."""
    R = generalized_eulerian(ident)
    if half:
        R = truncate_half(R, lookup(ident).coxeter_number)
    return ShiftPoly.from_poly(R)


def char_constituent(ident: RootSystemId, m: int, d: int, half: bool = False) -> RatPoly:
    """The residue-d constituent of `char_quasi` (or of `half_char_quasi`
    when `half`), computed on its own without building the other residues."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return shift_constituent(_operator(ident, half), m + 1, ehrhart_qp(ident).numerators, d)


@lru_cache(maxsize=_QUASI_CACHE_SIZE)
def char_quasi(ident: RootSystemId, m: int) -> QuasiPoly:
    """Characteristic quasi-polynomial of the m-th extended Linial arrangement:
    R_Phi(S^(m+1)) applied to L_Phi."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return apply_shift_qp(_operator(ident, False), m + 1, ehrhart_qp(ident))


def char_poly(ident: RootSystemId, m: int) -> RatPoly:
    """Characteristic polynomial: the prime (d = 1) constituent."""
    return char_constituent(ident, m, 1)


@lru_cache(maxsize=_QUASI_CACHE_SIZE)
def half_char_quasi(ident: RootSystemId, m: int) -> QuasiPoly:
    """Half characteristic quasi-polynomial: the truncated Eulerian polynomial
    applied with step m + 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return apply_shift_qp(_operator(ident, True), m + 1, ehrhart_qp(ident))


def weyl_char_quasi(ident: RootSystemId) -> QuasiPoly:
    """Characteristic quasi-polynomial of the Weyl arrangement:
    (-1)^l * (|W|/f) * L_Phi(-q), constituent by constituent."""
    data = lookup(ident)
    L = ehrhart_qp(ident)
    scale = Fraction((-1) ** data.rank * data.weyl_order, data.index_of_connection)
    out = tuple(
        L.constituent(-d).compose_affine(-1, 0).scale(scale) for d in range(L.period)
    )
    return QuasiPoly(period=L.period, constituents=out)


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
    acc = RatPoly.zero()
    for k in range(report.m0):
        for r in (d + k * h, -d + k * h):
            acc = acc + char_constituent(ident, m, r, half=True)
    return acc.scale(Fraction(1, 2 * report.m0))


def default_toy_symmetric(ident: RootSystemId) -> RatPoly:
    """The canonical symmetric seed g(t) = prod_i (t + e_i)."""
    return RatPoly.from_roots([-e for e in lookup(ident).exponents])


def toy_poly(ident: RootSystemId, m: int, g: RatPoly | None = None) -> RatPoly:
    """Toy-case polynomial R_Phi(S^(m+1)) g for a symmetric seed g.

    g must be degree-rank and satisfy g(t - h) = (-1)^rank g(-t); the default
    seed is prod(t + e_i)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    data = lookup(ident)
    if g is None:
        g = default_toy_symmetric(ident)
    else:
        if g.degree != data.rank:
            raise ValueError(f"seed degree {g.degree} != rank {data.rank}")
        shifted = g.compose_affine(1, -data.coxeter_number)
        mirrored = g.compose_affine(-1, 0).scale((-1) ** data.rank)
        if shifted != mirrored:
            raise SymmetryViolation("seed fails g(t - h) = (-1)^rank g(-t)")
    return apply_shift(_operator(ident, False), m + 1, g)
