"""Static catalog of irreducible root-system data.

Exponents, marks, Coxeter number, index of connection, Weyl group order,
period and its radical for the classical families A/B/C/D (any rank) and the
exceptional types E6, E7, E8, F4, G2.  For rank <= 3 the module also provides
explicit positive-root coefficient vectors and Cartan matrices, which back
the small-rank enumeration oracles elsewhere in the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import SelfCheckFailed, UnsupportedRank

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_ID_RE = re.compile(r"^([A-G])\s*(\d+)$")


@dataclass(frozen=True, order=True)
class RootSystemId:
    """A family letter plus rank, e.g. B5 or E8."""

    family: str
    rank: int

    def __post_init__(self):
        lo_hi = _RANK_BOUNDS.get(self.family)
        if lo_hi is None:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = lo_hi
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "RootSystemId":
        m = _ID_RE.match(text.strip().upper())
        if not m:
            raise ValueError(f"cannot parse root system id {text!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystemData:
    """One catalog row: all invariants are exact integers."""

    rank: int
    exponents: tuple[int, ...]
    marks: tuple[int, ...]  # (c_0, c_1, ..., c_l) with c_0 == 1
    coxeter_number: int
    index_of_connection: int
    weyl_order: int
    period: int
    rad_period: int


def _radical(n: int) -> int:
    out, rest, p = 1, n, 2
    while p * p <= rest:
        if rest % p == 0:
            out *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return out * (rest if rest > 1 else 1)


_EXCEPTIONAL = {
    ("E", 6): ((1, 4, 5, 7, 8, 11), (1, 1, 2, 2, 2, 3), 3),
    ("E", 7): ((1, 5, 7, 9, 11, 13, 17), (1, 2, 2, 2, 3, 3, 4), 2),
    ("E", 8): ((1, 7, 11, 13, 17, 19, 23, 29), (2, 2, 3, 3, 4, 4, 5, 6), 1),
    ("F", 4): ((1, 5, 7, 11), (2, 2, 3, 4), 1),
    ("G", 2): ((1, 5), (2, 3), 1),
}


@lru_cache(maxsize=None)
def lookup(ident: RootSystemId) -> RootSystemData:
    """Exact catalog data; classical families come from the closed-form rows."""
    fam, l = ident.family, ident.rank
    if fam == "A":
        exponents = tuple(range(1, l + 1))
        marks_tail = (1,) * l
        f = l + 1
    elif fam in ("B", "C"):
        exponents = tuple(range(1, 2 * l, 2))
        marks_tail = (1,) + (2,) * (l - 1)
        f = 2
    elif fam == "D":
        if l == 3:
            return lookup(RootSystemId("A", 3))  # D3 = A3 coincidence
        exponents = tuple(sorted(list(range(1, 2 * l - 2, 2)) + [l - 1]))
        marks_tail = (1, 1, 1) + (2,) * (l - 3)
        f = 4
    else:
        exponents, marks_tail, f = _EXCEPTIONAL[(fam, l)]
    marks = (1,) + marks_tail
    weyl = math.prod(e + 1 for e in exponents)
    period = math.lcm(*marks_tail)
    return RootSystemData(
        rank=l,
        exponents=exponents,
        marks=marks,
        coxeter_number=sum(marks),
        index_of_connection=f,
        weyl_order=weyl,
        period=period,
        rad_period=_radical(period),
    )


ALL_TABLE_IDS = tuple(
    [RootSystemId("A", l) for l in range(2, 9)]
    + [RootSystemId("B", l) for l in range(2, 9)]
    + [RootSystemId("C", l) for l in range(2, 9)]
    + [RootSystemId("D", l) for l in range(4, 9)]
    + [RootSystemId("E", l) for l in (6, 7, 8)]
    + [RootSystemId("F", 4), RootSystemId("G", 2)]
)

EXCEPTIONAL_IDS = tuple(
    RootSystemId.parse(s) for s in ("E6", "E7", "E8", "F4", "G2")
)


# -- explicit root coordinates for rank <= 3 -----------------------------------
#
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


@dataclass(frozen=True)
class PositiveRootForms:
    """Positive roots of a rank <= 3 system as integer linear forms.

    In the coordinates dual to the simple roots (the coweight basis), the
    root sum(n_i alpha_i) is the linear form x -> sum(n_i x_i).
    """

    roots: tuple[tuple[int, ...], ...]
    highest: tuple[int, ...]
    cartan: tuple[tuple[int, ...], ...]


def reflect_vector(cartan, vec: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Apply the simple reflection s_j to a root coefficient vector."""
    pairing = sum(vec[i] * cartan[i][j] for i in range(len(vec)))
    out = list(vec)
    out[j] -= pairing
    return tuple(out)


@lru_cache(maxsize=None)
def positive_roots(ident: RootSystemId) -> PositiveRootForms:
    """All l*h/2 positive-root coefficient vectors (rank <= 3 only)."""
    if ident.rank > 3:
        raise UnsupportedRank(f"explicit roots only stored for rank <= 3, got {ident}")
    key = (ident.family, ident.rank)
    if key == ("D", 3):
        key = ("A", 3)  # D3 = A3
    cartan = _CARTAN[key]
    l = ident.rank
    simple = [tuple(1 if i == j else 0 for i in range(l)) for j in range(l)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for vec in frontier:
            for j in range(l):
                img = reflect_vector(cartan, vec, j)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    positives = sorted(v for v in seen if all(c >= 0 for c in v))
    data = lookup(ident)
    expected = l * data.coxeter_number // 2
    if len(positives) != expected:
        raise SelfCheckFailed(
            f"root closure for {ident} produced {len(positives)} positives, expected {expected}"
        )
    top_height = max(sum(v) for v in positives)
    tallest = [v for v in positives if sum(v) == top_height]
    if len(tallest) != 1:
        raise SelfCheckFailed(f"highest root of {ident} not unique")
    return PositiveRootForms(roots=tuple(positives), highest=tallest[0], cartan=cartan)
