"""Enumeration oracles: second paths, derived independently, for rank <= 3.

Each function recomputes by enumeration what the engine derives by formula:
`positive_roots` closes the simple roots under the simple reflections of a
stored Cartan matrix and checks the result against the catalog,
`asc_oracle` builds R_Phi from the ascent statistic over an enumerated Weyl
group, and `bruteforce_modq_counts` counts the points of (Z/qZ)^l off every
hyperplane alpha(x) = 1..m.  No engine module imports this one (only
`acceptance` and `cli` do), and of linchar it imports only `errors`,
`ratpoly` and `rootdata`, so an oracle shares no code with what it checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Sequence

from .errors import InexactDivision, OracleTooLarge, QTooSmall, SelfCheckFailed, UnsupportedRank
from .ratpoly import RatPoly
from .rootdata import RootSystemId, lookup

#: Most points `bruteforce_modq_counts` enumerates: q**rank above this is
#: refused.  One enumeration per (system, q) holds one q-bit mask per prefix,
#: q**(rank-1) of them, which each m updates with its new window only, and
#: tables of q such masks from which each root's rows are sliced.
ORACLE_MAX_POINTS = 10**7

# Roots are coefficient vectors on the simple roots; the Cartan matrix entry
# cartan[i][j] = <alpha_i, alpha_j^vee>, so the simple reflection s_j sends a
# vector n to n with n_j replaced by n_j - sum_i n_i * cartan[i][j].  The
# numbering below is chosen so the produced positive systems match the
# standard small-rank tables; the highest-root coefficients agree with the
# catalog marks as a multiset (the catalog keeps the printed order, which
# need not be the coordinate order).
_CARTAN = {
    ("A", 1): ((2,),),
    ("A", 2): ((2, -1), (-1, 2)),
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("B", 2): ((2, -1), (-2, 2)),
    ("C", 2): ((2, -1), (-2, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
}


def _cartan(ident: RootSystemId) -> tuple[tuple[int, ...], ...]:
    """The stored Cartan matrix of `ident` (D3 is A3); every oracle passes
    this rank gate."""
    if ident.rank > 3:
        raise UnsupportedRank(f"enumeration oracle capped at rank 3, got {ident}")
    return _CARTAN["A" if ident.family == "D" else ident.family, ident.rank]


def _reflections(ident: RootSystemId) -> list[Callable]:
    """The simple reflections s_1..s_l of `ident`, acting on root
    coefficient vectors."""
    cartan = _cartan(ident)
    return [
        lambda v, j=j: v[:j] + (v[j] - sum(n * row[j] for n, row in zip(v, cartan)),) + v[j + 1:]
        for j in range(ident.rank)
    ]


def _orbit(seeds: Iterable, moves: Sequence[Callable]) -> set:
    """Every image of `seeds` under words in `moves` (breadth-first closure)."""
    seen, frontier = set(seeds), set(seeds)
    while frontier:
        frontier = {move(x) for x in frontier for move in moves} - seen
        seen |= frontier
    return seen


def _units(l: int) -> tuple[tuple[int, ...], ...]:
    """The simple roots alpha_1..alpha_l as coefficient vectors."""
    return tuple(tuple(int(i == j) for i in range(l)) for j in range(l))


@dataclass(frozen=True)
class PositiveRootForms:
    """Positive roots of a rank <= 3 system as integer linear forms.

    In the coordinates dual to the simple roots (the coweight basis), the
    root sum(n_i alpha_i) is the linear form x -> sum(n_i x_i).
    """

    roots: tuple[tuple[int, ...], ...]
    highest: tuple[int, ...]


@lru_cache(maxsize=None)
def positive_roots(ident: RootSystemId) -> PositiveRootForms:
    """All l*h/2 positive-root coefficient vectors (rank <= 3 only).

    Checked against the catalog, else SelfCheckFailed: the highest root is
    unique and its coefficients are the marks, and for every k there are as
    many roots of height k as exponents >= k (Kostant), which also fixes
    their number at the sum of the exponents, l*h/2.
    """
    positives = sorted(v for v in _orbit(_units(ident.rank), _reflections(ident)) if min(v) >= 0)
    data = lookup(ident)
    top_height = max(map(sum, positives))
    tallest = [v for v in positives if sum(v) == top_height]
    if len(tallest) != 1:
        raise SelfCheckFailed(f"highest root of {ident} not unique")
    heights = Counter(map(sum, positives))
    for k in range(1, max(top_height, *data.exponents) + 1):
        exponents = sum(e >= k for e in data.exponents)
        if heights[k] != exponents:
            raise SelfCheckFailed(
                f"root closure for {ident} has {heights[k]} positive roots of height {k}, "
                f"but {exponents} exponents are >= {k}"
            )
    if sorted(tallest[0]) != sorted(data.marks[1:]):
        raise SelfCheckFailed(
            f"highest root {tallest[0]} of {ident} does not carry the marks {data.marks[1:]}"
        )
    return PositiveRootForms(roots=tuple(positives), highest=tallest[0])


def asc_oracle(ident: RootSystemId) -> RatPoly:
    """(1/f) * sum over W of x^asc(w), by explicit Weyl-group enumeration.

    W is enumerated as the tuples (w(alpha_1), ..., w(alpha_l)), closing the
    identity under left multiplication by the simple reflections.  asc(w)
    adds c_i over the i in {0..l} with w(alpha_i) positive, where
    alpha_0 = -highest root and c_0 = 1.  Rank <= 3 only; the marks used here
    are the highest-root coefficients in coordinate order.
    """
    forms = positive_roots(ident)
    data = lookup(ident)
    rank = ident.rank
    moves = [lambda w, s=s: tuple(map(s, w)) for s in _reflections(ident)]
    elements = _orbit([_units(rank)], moves)
    if len(elements) != data.weyl_order:
        raise SelfCheckFailed(
            f"Weyl enumeration for {ident} found {len(elements)} elements, "
            f"expected {data.weyl_order}"
        )
    c_coord = (1,) + forms.highest
    counts: Counter = Counter()
    for w in elements:
        alpha0_img = tuple(-sum(c * v[k] for c, v in zip(forms.highest, w)) for k in range(rank))
        images = (alpha0_img,) + w
        counts[sum(c for c, img in zip(c_coord, images) if any(img) and min(img) >= 0)] += 1
    f = data.index_of_connection
    coeffs = [0] * (max(counts) + 1)
    for asc, cnt in counts.items():
        if cnt % f != 0:
            raise InexactDivision(
                f"ascent count {cnt} at exponent {asc} is not divisible by f = {f}"
            )
        coeffs[asc] = cnt // f
    return RatPoly.over(coeffs)


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


def _prefix_rows(table: list[int], head: Sequence[int], q: int, shift: int) -> list[int]:
    """table[(head . x - shift) % q] for every prefix x, in product order,
    taken by slicing: the rows along x_k = 0..q-1 are every a-th entry of
    the rotated table repeated a times (a = head[-1]), and a rank-3 prefix
    rotates once per first coordinate."""
    *outer, a = head
    starts = [(outer[0] * x - shift) % q for x in range(q)] if outer else [-shift % q]
    rows: list[int] = []
    for k in starts:
        rotated = table[k:] + table[:k]
        rows += (rotated * a)[::a] if a else [rotated[0]] * q
    return rows


def bruteforce_modq_counts(
    ident: RootSystemId, ms: Sequence[int], q: int, unsafe: bool = False
) -> tuple[int, ...]:
    """For every m in `ms` (any order, repeats allowed), the number of points
    of (Z/qZ)^l with alpha(x) not in 1..m for every positive root alpha,
    from one enumeration over the stored root forms (rank <= 3).

    Each prefix x_1..x_{l-1} keeps a q-bit mask of the x_l that put some
    root's residue in 1..t.  The distinct tops t = min(m, q-1) are walked in
    ascending order with the masks carried over, so each ORs in only its new
    window (t_prev, t]: row (s - t_prev) mod q of a table of q masks per
    (last coefficient, window width), where s is the prefix residue.  The
    cost grows with the number of m asked, never with their size.  Requires
    the safe regime q > m*h unless `unsafe` is set, and refuses more than
    ORACLE_MAX_POINTS points with OracleTooLarge.
    """
    forms = positive_roots(ident).roots
    if any(m < 0 for m in ms):
        raise ValueError("m must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    m_max = max(ms, default=0)
    h = lookup(ident).coxeter_number
    if not unsafe and q <= m_max * h:
        raise QTooSmall(
            f"q = {q} is not above m*h = {m_max * h}; pass unsafe=True to override"
        )
    l = ident.rank
    counts = {0: q**l}  # residue 0 is never on a hyperplane, even when m >= q
    tops = sorted({min(m, q - 1) for m in ms} - {0})
    if not tops:
        return (counts[0],) * len(ms)
    if q**l > ORACLE_MAX_POINTS:
        raise OracleTooLarge(
            f"q**{l} = {q**l} points exceed the enumeration cap of {ORACLE_MAX_POINTS}"
        )
    roots = [tuple(c % q for c in form) for form in forms]
    hits = [0] * q ** (l - 1)  # one mask per prefix x_1..x_{l-1}, in product order
    tables: dict[tuple[int, int], list[int]] = {}  # (last coefficient, window width) -> rows
    done = 0
    for top in tops:
        width = top - done
        if l == 1:  # one empty prefix, residue 0; a full table could be 10**7 masks of 10**7 bits
            hits[0] |= reduce(or_, (_window_bits(n, -done % q, q, width) for (n,) in roots))
        else:
            for *head, n in roots:
                if (n, width) not in tables:
                    tables[n, width] = _hit_rows(n, q, width)
                hits = list(map(or_, hits, _prefix_rows(tables[n, width], head, q, done)))
        counts[top] = q**l - sum(map(int.bit_count, hits))
        done = top
    return tuple(counts[min(m, q - 1)] for m in ms)
