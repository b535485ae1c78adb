"""Static catalog of irreducible root-system data.

Exponents, marks, Coxeter number, index of connection, Weyl group order,
period and its radical for the classical families A/B/C/D (any rank) and the
exceptional types E6, E7, E8, F4, G2.  Only the exponents e_i, the marks c_i
and the index of connection f are given, by closed form per classical family
(D3 comes out as A3's row) or as a stored exceptional row; `lookup` derives
the rest: h = sum c_i, |W| = prod (e_i + 1), the period lcm c_i and its
radical.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from functools import lru_cache

# The least rank of each classical family; the exceptional types are the
# keys of `_EXCEPTIONAL`.
_LEAST_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}

_ID_RE = re.compile(r"^([A-G])\s*(\d+)$")


class RootSystemId(namedtuple("RootSystemId", "family rank")):
    """A family letter plus rank, e.g. B5 or E8; ids sort by family, then rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int):
        least = _LEAST_RANK.get(family)
        if least is not None:
            valid = rank >= least
        elif any(known == family for known, _ in _EXCEPTIONAL):
            valid = (family, rank) in _EXCEPTIONAL
        else:
            raise ValueError(f"unknown family {family!r}")
        if not valid:
            raise ValueError(f"invalid rank {rank} for family {family}")
        return super().__new__(cls, family, rank)

    @classmethod
    def _make(cls, fields):
        # what `_replace` builds with: check the new fields too
        return cls(*fields)

    @classmethod
    def parse(cls, text: str) -> "RootSystemId":
        m = _ID_RE.match(text.strip().upper())
        if not m:
            raise ValueError(f"cannot parse root system id {text!r}")
        return cls(m.group(1), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class RootSystemData(namedtuple(
    "RootSystemData",
    "rank exponents marks coxeter_number index_of_connection weyl_order period rad_period",
)):
    """One catalog row: all invariants are exact integers, `exponents` and
    `marks` tuples of them; `marks` is (c_0, c_1, ..., c_l) with c_0 == 1."""

    __slots__ = ()

    def to_json(self) -> dict:
        return self._asdict()


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
def lookup(ident: RootSystemId, /) -> RootSystemData:
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
