"""Classical and generalized Eulerian polynomials, truncation, and a
small-rank Weyl-group oracle.

The production path for R_Phi is the product formula
R_Phi(x) = [c_0]_x [c_1]_x ... [c_l]_x * R_{A_l}(x), where [c]_x is the
x-analogue 1 + x + ... + x^(c-1), computed over Python ints.  The
ascent-statistic definition over the Weyl group is kept only as an
independently derived oracle for rank <= 3.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .errors import InexactDivision, SelfCheckFailed, UnsupportedRank
from .ratpoly import RatPoly
from .rootdata import RootSystemId, lookup, positive_roots


def _eulerian_row(n: int) -> list[int]:
    """Eulerian numbers A(n, 0..n-1), built row by row with the additive
    recurrence A(k, j) = (j+1) A(k-1, j) + (k-j) A(k-1, j-1)."""
    row = [1]
    for k in range(2, n + 1):
        row = [(j + 1) * a + (k - j) * b for j, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row


@lru_cache(maxsize=None)
def classical_eulerian(rank: int) -> RatPoly:
    """R_{A_l}(x) = x * A_l(x): lowest term x, degree l."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return RatPoly.over([0] + _eulerian_row(rank))


@lru_cache(maxsize=None)
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


def _weyl_elements(cartan, rank: int):
    """Enumerate W as tuples of images of the simple roots (BFS closure)."""
    identity = tuple(tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for j in range(rank):
                # w * s_j maps alpha_i to w(s_j(alpha_i)) = w(alpha_i) - A_ij w(alpha_j)
                img = tuple(
                    tuple(
                        w[i][k] - cartan[i][j] * w[j][k] for k in range(rank)
                    )
                    for i in range(rank)
                )
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def asc_oracle(ident: RootSystemId) -> RatPoly:
    """(1/f) * sum over W of x^asc(w), by explicit Weyl-group enumeration.

    asc(w) adds c_i over the i in {0..l} with w(alpha_i) positive, where
    alpha_0 = -highest root and c_0 = 1.  Rank <= 3 only; the marks used here
    are the highest-root coefficients in coordinate order.
    """
    if ident.rank > 3:
        raise UnsupportedRank(f"asc oracle capped at rank 3, got {ident}")
    forms = positive_roots(ident)
    data = lookup(ident)
    rank = ident.rank
    c_coord = (1,) + forms.highest
    counts: dict[int, int] = {}
    elements = _weyl_elements(forms.cartan, rank)
    for w in elements:
        alpha0_img = tuple(
            -sum(forms.highest[i] * w[i][k] for i in range(rank)) for k in range(rank)
        )
        images = (alpha0_img,) + tuple(w)
        asc = sum(
            c_coord[i]
            for i, img in enumerate(images)
            if any(x != 0 for x in img) and all(x >= 0 for x in img)
        )
        counts[asc] = counts.get(asc, 0) + 1
    if len(elements) != data.weyl_order:
        raise SelfCheckFailed(
            f"Weyl enumeration for {ident} found {len(elements)} elements, "
            f"expected {data.weyl_order}"
        )
    f = data.index_of_connection
    coeffs = [0] * (max(counts) + 1)
    for asc, cnt in counts.items():
        if cnt % f != 0:
            raise InexactDivision(
                f"ascent count {cnt} at exponent {asc} is not divisible by f = {f}"
            )
        coeffs[asc] = cnt // f
    return RatPoly.over(coeffs)
