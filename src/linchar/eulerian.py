"""Generalized Eulerian polynomials and their truncation.

R_Phi comes from the product formula
R_Phi(x) = [c_0]_x [c_1]_x ... [c_l]_x * R_{A_l}(x), where [c]_x is the
x-analogue 1 + x + ... + x^(c-1), computed over Python ints.  Its
ascent-statistic definition over the Weyl group is the second path in
`oracles.asc_oracle`.
"""

from __future__ import annotations

from itertools import accumulate

from .ratpoly import RatPoly
from .rootdata import RootSystemId, lookup


def _eulerian_row(n: int) -> list[int]:
    """Eulerian numbers A(n, 0..n-1), built row by row with the additive
    recurrence A(k, j) = (j+1) A(k-1, j) + (k-j) A(k-1, j-1)."""
    row = [1]
    for k in range(2, n + 1):
        row = [(j + 1) * a + (k - j) * b for j, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


def generalized_eulerian(ident: RootSystemId) -> RatPoly:
    """R_Phi(x) = [c_0]_x ... [c_l]_x * R_{A_l}(x); degree h-1, integer coefficients.

    The product is taken over Python ints: multiplying by the x-analogue
    [c]_x = 1 + x + ... + x^(c-1) is a window sum of width c: one prefix sum,
    then one difference per coefficient.
    """
    data = lookup(ident)
    coeffs = [0] + _eulerian_row(data.rank)
    for c in data.marks:
        prefix = list(accumulate([0] * c + coeffs + [0] * (c - 1)))
        coeffs = [hi - lo for hi, lo in zip(prefix[c:], prefix)]
    return RatPoly.over(coeffs)


def truncate_half(R: RatPoly, h: int) -> RatPoly:
    """Lower half of an Eulerian polynomial of a system with Coxeter number h.

    Keeps the terms of index < h/2 and, when h is even, half of the middle
    x^(h/2) coefficient, so that R(x) = R'(x) + x^h R'(1/x).
    """
    if R.degree != h - 1:
        raise ValueError(f"degree mismatch: deg R = {R.degree}, expected h - 1 = {h - 1}")
    nums = R.nums[: (h + 1) // 2]  # indices < ceil(h/2), i.e. < h/2 for even h
    if h % 2:
        return RatPoly.over(nums, R.den)
    return RatPoly.over([2 * x for x in nums] + [R.nums[h // 2]], 2 * R.den)
