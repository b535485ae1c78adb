"""Reference arithmetic that the tests need and linchar does not (products,
negation, derivatives, monic normalisation, evaluation at a rational point,
JSON read-back), as
plain functions over a `RatPoly`'s ``nums`` and ``den``."""

from fractions import Fraction

from linchar.ehrhart import QuasiPoly
from linchar.ratpoly import RatPoly

ZERO = RatPoly.over(())
ONE = RatPoly.over((1,))


def monomial(exponent: int, coeff: int | Fraction = 1) -> RatPoly:
    """coeff * t**exponent."""
    return RatPoly([0] * exponent + [coeff])


def evaluate(p: RatPoly, x: int | Fraction) -> Fraction:
    """p(x) at an int or Fraction x, by Horner's rule homogenized over Z:
    v = sum nums_k u^k w^(deg - k) for x = u / w.  A float or complex x is a
    TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"exact scalar expected (int or Fraction), got {type(x).__name__}")
    x = Fraction(x)
    u, w = x.numerator, x.denominator
    v, wpow = 0, 1
    for c in reversed(p.nums):
        v = v * u + c * wpow
        wpow *= w
    return Fraction(v * w, p.den * wpow)


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


def monic(p: RatPoly) -> RatPoly:
    """p over its leading coefficient; the zero polynomial is a ValueError."""
    if p.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    return RatPoly.over(p.nums, p.nums[-1])


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
