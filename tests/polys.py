"""Reference arithmetic that the tests need and linchar does not (products,
negation, derivatives, JSON read-back), as plain functions over a `RatPoly`'s
``nums`` and ``den``."""

from fractions import Fraction

from linchar.ehrhart import QuasiPoly
from linchar.ratpoly import RatPoly

ONE = RatPoly.over((1,))


def mul(*factors: RatPoly) -> RatPoly:
    """The product of `factors` (1 for none), by schoolbook convolution."""
    prod = ONE
    for p in factors:
        out = [0] * (len(prod.nums) + len(p.nums) - 1)
        for i, a in enumerate(prod.nums):
            for j, b in enumerate(p.nums):
                out[i + j] += a * b
        prod = RatPoly.over(out, prod.den * p.den)
    return prod


def power(p: RatPoly, k: int) -> RatPoly:
    return mul(*[p] * k)


def neg(p: RatPoly) -> RatPoly:
    return RatPoly.over([-x for x in p.nums], p.den)


def sub(p: RatPoly, q: RatPoly) -> RatPoly:
    return p + neg(q)


def from_roots(roots, leading: int | Fraction = 1) -> RatPoly:
    """leading * prod (t - r) over `roots`."""
    return mul(RatPoly((leading,)), *(RatPoly((-r, 1)) for r in roots))


def derivative(p: RatPoly) -> RatPoly:
    return RatPoly.over([j * x for j, x in enumerate(p.nums)][1:], p.den)


def coeff(p: RatPoly, j: int) -> Fraction:
    """The coefficient of t**j, 0 past the degree."""
    return Fraction(p.nums[j], p.den) if 0 <= j < len(p.nums) else Fraction(0)


def from_json(obj: dict) -> RatPoly:
    """The inverse of `RatPoly.to_json`."""
    return RatPoly(Fraction(int(n), int(d)) for n, d in obj["coeffs"])


def quasi_from_json(obj: dict) -> QuasiPoly:
    """The inverse of `QuasiPoly.to_json`; a stated period that disagrees
    with the constituents is a ValueError."""
    qp = QuasiPoly(from_json(c) for c in obj["constituents"])
    if int(obj["period"]) != qp.period:
        raise ValueError(f"period {obj['period']} disagrees with {qp.period} constituents")
    return qp
