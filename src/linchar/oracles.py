"""Enumeration oracles: second paths, derived independently, for rank <= 3.

Each function recomputes by enumeration what the engine derives by formula:
`positive_roots` closes the simple roots under the simple reflections of a
stored Cartan matrix and checks the result against the catalog,
`asc_oracle` builds R_Phi from the ascent statistic over an enumerated Weyl
group, and `bruteforce_modq_counts` counts the points of (Z/qZ)^l off every
hyperplane alpha(x) = 1..m, marking each root's hyperplanes in a grid of one
byte per point with strided slices and counting each point as it is first
marked, so the grid is never scanned whole.  No engine module imports this
one (only `acceptance` and `cli` do), and of linchar it imports only
`errors`, `ratpoly` and `rootdata`, so an oracle shares no code with what it
checks.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import lru_cache
from itertools import product
from operator import mul

from .errors import InexactDivision, OracleTooLarge, QTooSmall, SelfCheckFailed, UnsupportedRank
from .ratpoly import RatPoly
from .rootdata import RootSystemId, lookup

#: Most points `bruteforce_modq_counts` enumerates: q**rank above this is
#: refused.  One enumeration per (system, q) holds a grid of one byte per
#: point, so at most 10**7 bytes, and at most 2**16 bytes of ones; each
#: count is taken in place or on one line of at most q bytes, so the peak
#: stays the grid's.
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


def _reflections(ident: RootSystemId) -> list[Callable]:
    """The simple reflections s_1..s_l of `ident`, acting on root
    coefficient vectors, from its stored Cartan matrix (D3 is A3); every
    oracle passes this rank gate."""
    if ident.rank > 3:
        raise UnsupportedRank(f"enumeration oracle capped at rank 3, got {ident}")
    cartan = _CARTAN["A" if ident.family == "D" else ident.family, ident.rank]
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


@lru_cache(maxsize=None)
def positive_roots(ident: RootSystemId, /) -> tuple[tuple[int, ...], ...]:
    """All l*h/2 positive-root coefficient vectors, sorted (rank <= 3 only).

    In the coordinates dual to the simple roots (the coweight basis), the
    root sum(n_i alpha_i) is the linear form x -> sum(n_i x_i).  Checked
    against the catalog, else SelfCheckFailed: the highest root is unique
    and sorts last, and its coefficients are the marks; and for every k
    there are as many roots of height k as exponents >= k (Kostant), which
    also fixes their number at the sum of the exponents, l*h/2.
    """
    positives = sorted(v for v in _orbit(_units(ident.rank), _reflections(ident)) if min(v) >= 0)
    data = lookup(ident)
    top_height = max(map(sum, positives))
    tallest = [v for v in positives if sum(v) == top_height]
    if tallest != positives[-1:]:
        raise SelfCheckFailed(f"highest root of {ident} not unique, or not last in sorted order")
    heights = Counter(map(sum, positives))
    for k in range(1, max(top_height, *data.exponents) + 1):
        exponents = sum(e >= k for e in data.exponents)
        if heights[k] != exponents:
            raise SelfCheckFailed(
                f"root closure for {ident} has {heights[k]} positive roots of height {k}, "
                f"but {exponents} exponents are >= {k}"
            )
    if sorted(positives[-1]) != sorted(data.marks[1:]):
        raise SelfCheckFailed(
            f"highest root {positives[-1]} of {ident} does not carry the marks {data.marks[1:]}"
        )
    return tuple(positives)


def asc_oracle(ident: RootSystemId) -> RatPoly:
    """(1/f) * sum over W of x^asc(w), by explicit Weyl-group enumeration.

    W is enumerated as the tuples (w(alpha_1), ..., w(alpha_l)), closing the
    identity under left multiplication by the simple reflections.  asc(w)
    adds c_i over the i in {0..l} with w(alpha_i) positive, where
    alpha_0 = -highest root and c_0 = 1.  Rank <= 3 only; the marks used here
    are the highest-root coefficients in coordinate order.
    """
    highest = positive_roots(ident)[-1]
    data = lookup(ident)
    rank = ident.rank
    moves = [lambda w, s=s: tuple(map(s, w)) for s in _reflections(ident)]
    elements = _orbit([_units(rank)], moves)
    if len(elements) != data.weyl_order:
        raise SelfCheckFailed(
            f"Weyl enumeration for {ident} found {len(elements)} elements, "
            f"expected {data.weyl_order}"
        )
    c_coord = (1,) + highest
    counts: Counter = Counter()
    for w in elements:
        alpha0_img = tuple(-sum(c * v[k] for c, v in zip(highest, w)) for k in range(rank))
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


def _fill(grid: bytearray, ones: bytearray, start: int, stop: int) -> None:
    """Set grid[start:stop] (start < stop) to 1: its first len(ones) cells
    from `ones`, then each next run by copying all that is set before it.
    The copies go through a memoryview of the grid, which moves the bytes in
    place, where a bytearray slice assignment first copies its source."""
    view = memoryview(grid)
    done = min(stop, start + len(ones))
    view[start:done] = ones[:done - start]
    while done < stop:
        done, end = min(stop, 2 * done - start), done
        view[end:done] = view[start:start + done - end]


def _mark(
    grid: bytearray, ones: bytearray, q: int, rows: int, roots: list[tuple],
    lo: int, hi: int, tally: list[int],
) -> None:
    """For each root (slabs, a, n, reach, g, span, drop, step, inverse) of
    `bruteforce_modq_counts`, set to 1 each cell base + q*x + y (x < rows,
    y < q) of each slab (base, c) where (c + a*x + n*y) mod q is in
    lo+1..hi, for 0 <= a, n < q and 0 <= lo < hi < q, with the residues
    1..lo already marked, and keep ``tally[i]``, the cells of slab i set so
    far, up to date.

    Residue r is taken on the lines a*x + n*y = v, v = (r - c) mod q + k*q,
    one per wrap k, up to reach = a*(rows - 1) + n*(q - 1).  Along a line x
    steps by span = n/g and y by -drop = -a/g (g = gcd(a, n)), so its cells
    are one slice of the given step, q*span - drop (for n = 0, the run of
    row x = v/a); inverse is 1/drop mod span.  At rank 1 (A1, whose one
    root is the form y) the window is one run of the one row instead, and a
    window wider than twice the residues hi+1..q fills the slab and writes
    the saved lines of those residues back.  The lines of distinct v are
    disjoint, so the new cells are counted as they are written, and no slab
    is scanned whole: a strided line's zeros (at most q bytes) just before
    it, a run's in place, and a slab filled whole holds all its cells but
    the zeros of the lines written back.
    """
    size = rows * q
    wide = hi - lo > 2 * (q - hi)
    for slabs, a, n, reach, g, span, drop, step, inverse in roots:
        if not reach:  # the form is c on every cell of a slab
            for i, (base, c) in enumerate(slabs):
                if lo < c <= hi:
                    _fill(grid, ones, base, base + size)
                    tally[i] = size
            continue
        if rows == 1:  # A1: one slab, one row, the form y; the window is one run
            tally[0] += grid.count(0, lo + 1, hi + 1)
            _fill(grid, ones, lo + 1, hi + 1)
            continue
        for i, (base, c) in enumerate(slabs):
            kept = []
            for r in range(hi + 1, q + 1) if wide else range(lo + 1, hi + 1):
                for v in range((r - c) % q, reach + 1, q):
                    if v % g:
                        continue
                    if n:
                        x = v // g * inverse % span  # the least x >= 0 with n | v - a*x
                        y = (v - a * x) // n
                        if y >= q:  # walk down the line into the slab (drop > 0 here)
                            t = (y - q) // drop + 1
                            x, y = x + t * span, y - t * drop
                        count = min((rows - 1 - x) // span, y // drop if drop else rows) + 1
                        start = base + q * x + y
                        cells = slice(start, start + step * (count - 1) + 1, step)
                    else:
                        count, start = q, base + q * (v // a)
                        cells = slice(start, start + q)
                    if count <= 0:
                        continue
                    if wide:
                        kept.append((cells, grid[cells]))
                        continue
                    tally[i] += grid[cells].count(0) if n else grid.count(0, start, start + q)
                    grid[cells] = ones[:count]
            if wide:
                _fill(grid, ones, base, base + size)
                tally[i] = size
                for cells, old in kept:
                    tally[i] -= old.count(0)
                    grid[cells] = old


def bruteforce_modq_counts(
    ident: RootSystemId, ms: Sequence[int], q: int, unsafe: bool = False
) -> tuple[int, ...]:
    """For every m in `ms` (any order, repeats allowed), the number of points
    of (Z/qZ)^l with alpha(x) not in 1..m for every positive root alpha,
    from one enumeration over the stored root forms (rank <= 3).

    One byte per point, x_1..x_l in product order, marks the points at which
    some root's residue is in 1..t.  The distinct tops t = min(m, q-1) are
    walked in ascending order with the marks kept, each adding only its new
    window (t_prev, t] with `_mark` on every slab of the last two coordinates
    (rank 1: one row).  `_mark` keeps a tally of the points each slab has
    marked, so the count at t is q**l less their sum, and the grid is never
    scanned whole.  A window costs the lines of its residues or of the
    fewer residues above it: its cost grows with its width up to 2q/3
    residues' worth, and any m >= q - 1 costs what m = 1 does.  Requires
    the safe regime q > m*h unless `unsafe` is set, and refuses more than
    ORACLE_MAX_POINTS points with OracleTooLarge, but only when it must
    enumerate: when every top is 0 (each m is 0, or q = 1) every count is
    q**l, returned without a grid or a refusal however large.
    """
    forms = positive_roots(ident)
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
    rows = q if l > 1 else 1
    firsts = list(product(range(q), repeat=max(l - 2, 0)))  # the slabs' first l-2 coordinates
    roots = []  # each root's slabs and the geometry of its lines, as `_mark` reads them
    for form in forms:
        *head, a, n = [0] * (2 - l) + [c % q for c in form]
        g = math.gcd(a, n)
        span, drop = (n // g, a // g) if g else (0, 0)
        roots.append((
            [(i * rows * q, sum(map(mul, head, x)) % q) for i, x in enumerate(firsts)],
            a, n, a * (rows - 1) + n * (q - 1), g, span, drop, q * span - drop,
            pow(drop, -1, span) if n else 0,
        ))
    # a bytearray of ones: a slice of it is assigned without a second copy
    grid, ones = bytearray(q**l), bytearray(b"\x01" * min(rows * q, 2**16))  # a line has <= q cells
    tally = [0] * len(firsts)  # the points of each slab marked so far
    done = 0
    for top in tops:
        _mark(grid, ones, q, rows, roots, done, top, tally)
        counts[top] = q**l - sum(tally)
        done = top
    return tuple(counts[min(m, q - 1)] for m in ms)
