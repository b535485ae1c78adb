"""The full verification suite: one callable per acceptance criterion.

Each check recomputes its claim from scratch and returns `(passed, detail)`
or `(passed, detail, reported)`; its docstring is the criterion's name.
`run_all` numbers the criteria by their position in `ALL_CHECKS` and builds
each `CheckResult`.  The CLI `verify-all` subcommand and the test suite both
drive `run_all`, so a passing matrix here and a green pytest run certify the
same facts.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import ehrhart, eulerian, linial, oracles, rootdata, verify
from .ratpoly import RatPoly
from .rootdata import ALL_TABLE_IDS, EXCEPTIONAL_IDS, RootSystemId


class CheckResult(namedtuple("CheckResult", "number name passed detail reported")):
    """One criterion's verdict; `reported` lists informational lines, which
    are not asserted."""

    __slots__ = ()

    def __new__(cls, number: int, name: str, passed: bool, detail: str = "",
                reported: list[str] | None = None):
        return super().__new__(cls, number, name, passed, detail, [] if reported is None else reported)

    def to_json(self) -> dict:
        return self._asdict()


_PRINTED_ROWS = {
    "A3": ((1, 2, 3), (1, 1, 1, 1), 4, 4, 24, 1, 1),
    "B4": ((1, 3, 5, 7), (1, 1, 2, 2, 2), 8, 2, 384, 2, 2),
    "C4": ((1, 3, 5, 7), (1, 1, 2, 2, 2), 8, 2, 384, 2, 2),
    "D5": ((1, 3, 4, 5, 7), (1, 1, 1, 1, 2, 2), 8, 4, 1920, 2, 2),
    "E6": ((1, 4, 5, 7, 8, 11), (1, 1, 1, 2, 2, 2, 3), 12, 3, 51840, 6, 6),
    "E7": ((1, 5, 7, 9, 11, 13, 17), (1, 1, 2, 2, 2, 3, 3, 4), 18, 2, 2903040, 12, 6),
    "E8": ((1, 7, 11, 13, 17, 19, 23, 29), (1, 2, 2, 3, 3, 4, 4, 5, 6), 30, 1, 696729600, 60, 30),
    "F4": ((1, 5, 7, 11), (1, 2, 2, 3, 4), 12, 1, 1152, 12, 6),
    "G2": ((1, 5), (1, 2, 3), 6, 1, 12, 6, 6),
}


def check_table1():
    """Table of root systems"""
    for name, row in _PRINTED_ROWS.items():
        data = rootdata.lookup(RootSystemId.parse(name))
        got = (
            data.exponents,
            data.marks,
            data.coxeter_number,
            data.index_of_connection,
            data.weyl_order,
            data.period,
            data.rad_period,
        )
        if got != row:
            return False, f"{name}: {got} != {row}"
    for ident in ALL_TABLE_IDS:
        d = rootdata.lookup(ident)
        l, h = d.rank, d.coxeter_number
        exps = sorted(d.exponents)
        ok = (
            # |W| = l! f prod c_i (Bourbaki, Lie Groups and Lie Algebras,
            # ch. VI): exponents, marks and f are stored apart
            d.weyl_order == math.factorial(l) * d.index_of_connection * math.prod(d.marks)
            and all(exps[i] + exps[l - 1 - i] == h for i in range(l))
            and h % d.rad_period == 0
        )
        if not ok:
            return False, f"invariants fail for {ident}"
    return True, f"{len(ALL_TABLE_IDS)} systems"


def check_eulerian():
    """Eulerian polynomials"""
    printed = {
        "A2": RatPoly((0, 1, 1)),
        "A6": RatPoly((0, 1, 57, 302, 302, 57, 1)),
        "E6": RatPoly((0, 1, 61, 537, 1916, 3782, 4686, 3782, 1916, 537, 61, 1)),
    }
    for name, want in printed.items():
        got = eulerian.generalized_eulerian(RootSystemId.parse(name))
        if got != want:
            return False, f"{got} != {want}"
    for name in ("A1", "A2", "B2", "G2"):
        ident = RootSystemId.parse(name)
        if oracles.asc_oracle(ident) != eulerian.generalized_eulerian(ident):
            return False, f"asc oracle mismatch for {name}"
    return True, ""


def check_worpitzky():
    """Worpitzky identity"""
    for ident in ALL_TABLE_IDS:
        data = rootdata.lookup(ident)
        qp = linial.char_quasi(ident, 0)
        want = RatPoly.over([0] * data.rank + [1])
        if any(c != want for c in qp.constituents):
            return False, f"fails for {ident}"
    return True, f"{len(ALL_TABLE_IDS)} systems"


# The G2 worked example: for each quasi-polynomial, its denominator and the
# numerators of its constituents d = 0..5
_G2_EXAMPLE = {
    "L": (12, ((12, 6, 1), (5, 6, 1), (8, 6, 1), (9, 6, 1), (8, 6, 1), (5, 6, 1))),
    "Weyl": (1, ((12, -6, 1), (5, -6, 1), (8, -6, 1), (9, -6, 1), (8, -6, 1), (5, -6, 1))),
    "chi": (1, ((14, -6, 1), (11, -6, 1)) * 3),
    "half (m=0)": (12, ((0, 10, 6), (-4, 10, 6), (4, 10, 6)) * 2),
    "half (m=1)": (6, ((12, -8, 3), (5, -8, 3), (10, -8, 3), (3, -8, 3), (14, -8, 3), (1, -8, 3))),
}


def check_g2_example():
    """G2 worked example"""
    g2 = RootSystemId.parse("G2")
    computed = {
        "L": ehrhart.ehrhart_qp(g2),
        "Weyl": linial.weyl_char_quasi(g2),
        "chi": linial.char_quasi(g2, 1),
        "half (m=0)": linial.char_quasi(g2, 0, True),
        "half (m=1)": linial.char_quasi(g2, 1, True),
    }
    for name, (den, rows) in _G2_EXAMPLE.items():
        for d, nums in enumerate(rows):
            if computed[name].constituent(d) != RatPoly.over(nums, den):
                return False, f"{name} constituent {d}"
    return True, ""


# printed truncated, not rounded: E8's maximum is 14.66048..., G2's is 13/6
_TABLE2 = {"E6": "5.3703", "E7": "8.4367", "E8": "14.6604", "F4": "4.8967", "G2": "2.166"}

_E6_PRINTED_ROOTS = [
    complex(4.55334, -0.465487),
    complex(4.55334, 0.465487),
    complex(4.78675, -1.55735),
    complex(4.78675, 1.55735),
    complex(5.37033, -3.11072),
    complex(5.37033, 3.11072),
]


def check_table2():
    """Maximal real parts"""
    for name, printed in _TABLE2.items():
        F = linial.limit_poly(RootSystemId.parse(name))
        places = len(printed.partition(".")[2])
        unit = 10**places
        low = Fraction(printed)
        high = low + Fraction(1, unit)
        # low <= max Re t < high: Re t < low fails for some root, Re t < high holds for all
        if [verify.halfplane_exact(F, 2 * x) for x in (low, high)] != [False, True]:
            top = int(high * unit)  # high printed to the places of low
            return False, f"{name}: max real part not in [{printed}, {top // unit}.{top % unit:0{places}d})"
    roots = verify.find_roots(linial.limit_poly(RootSystemId.parse("E6"))).roots
    dist = verify._match_distance(roots, _E6_PRINTED_ROOTS)
    if dist > 1e-4:
        return False, f"E6 roots off by {dist}"
    return True, ""


def check_halfplane():
    """Half-plane bound"""
    lines = []
    for ident in EXCEPTIONAL_IDS:
        h = rootdata.lookup(ident).coxeter_number
        F = linial.limit_poly(ident)
        if not verify.halfplane_exact(F, h):
            return False, f"{ident}: exact verdict False"
        lines.append(f"{ident}: exact")
    return True, "; ".join(lines)


def check_reciprocity_functional():
    """Reciprocity + functional equation"""
    for ident in ALL_TABLE_IDS:
        data = rootdata.lookup(ident)
        L = ehrhart.ehrhart_qp(ident)
        if ehrhart.mirror_failure(L, data.rank, -data.coxeter_number) is not None:
            return False, f"reciprocity {ident}"
        for m in range(0, 6):
            cq = linial.char_quasi(ident, m)
            d = ehrhart.mirror_failure(cq, data.rank, m * data.coxeter_number)
            if d is not None:
                return False, f"functional equation fails for {ident}, m={m}, d={d}"
    return True, "m <= 5, all systems"


_TABLE3 = {
    "E6": ((1, 2, 3, 6), 1),
    "E7": ((1, 3), 2),
    "E8": ((1, 3, 5, 15), 2),
    "F4": ((1, 2, 3, 4, 6, 12), 1),
    "G2": ((1, 2, 3, 6), 1),
}


def check_admissible():
    """Admissible residues"""
    for name, (divisors, m0) in _TABLE3.items():
        rep = linial.admissible_residues(RootSystemId.parse(name))
        if rep.divisors != divisors or rep.m0 != m0:
            return False, f"{name}: {rep.divisors}, m0={rep.m0}"
    # re-verify the defining constituent equalities directly
    for ident in EXCEPTIONAL_IDS:
        data = rootdata.lookup(ident)
        h = data.coxeter_number
        rep = linial.admissible_residues(ident)
        for m in range(1, 7):
            cq = linial.char_quasi(ident, m)
            for d in rep.residues:
                base = cq.constituent(d)
                for k in range(rep.m0):
                    if cq.constituent(d + k * h) != base or cq.constituent(-d + k * h) != base:
                        return False, f"defining equality fails: {ident} d={d} m={m} k={k}"
    return True, "definition re-verified for m = 1..6"


def check_averaging():
    """Averaging identity"""
    for ident in EXCEPTIONAL_IDS:
        data = rootdata.lookup(ident)
        n, h = data.period, data.coxeter_number
        sign = (-1) ** data.rank
        rep = linial.admissible_residues(ident)
        # F depends on d's orbit {+-d + k*h mod n} alone: one F per orbit
        orbit = {d: frozenset((s * d + k * h) % n for s in (1, -1) for k in range(rep.m0))
                 for d in rep.residues}
        for m in range(1, 5):
            cq = linial.char_quasi(ident, m)
            mh = m * h
            recombined = {}
            for d in rep.residues:
                if orbit[d] not in recombined:
                    F = linial.averaged_half(ident, m, d)
                    recombined[orbit[d]] = F + F.compose_affine(-1, mh).scale(sign)
                if recombined[orbit[d]] != cq.constituent(d):
                    return False, f"{ident} m={m} d={d}"
    return True, "all admissible residues, m <= 4"


_ASSERTED_M = {
    "G2": tuple(range(1, 31)),
    "E6": (5, 11, 17, 23),
    "E7": (5, 11, 17, 23),
    "F4": (5, 11, 17, 23),
    "E8": (29, 59),
}


def check_line_certification():
    """Line certification"""
    reported = []
    for name, asserted in _ASSERTED_M.items():
        ident = RootSystemId.parse(name)
        h = rootdata.lookup(ident).coxeter_number
        all_m = sorted(set(range(1, 31)) | set(asserted))
        verdicts = {}
        for m in all_m:
            rep = verify.check_on_line_exact(linial.char_poly(ident, m), m * h)
            verdicts[m] = rep.on_line
        for m in asserted:
            if not verdicts[m]:
                return False, f"{name} m={m} expected on-line"
        on = [m for m, v in verdicts.items() if v]
        off = [m for m, v in verdicts.items() if not v]
        smallest = min(on) if on else None
        reported.append(
            f"{name}: smallest certified m = {smallest}; on-line for m={on}"
            + (f"; off for m={off}" if off else "")
        )
    return True, "asserted set passes", reported


def check_oracle():
    """Enumeration oracle"""
    for ident in map(RootSystemId.parse, ("A2", "B2", "G2")):
        h = rootdata.lookup(ident).coxeter_number
        cqs = [linial.char_quasi(ident, m) for m in range(0, 4)]
        for q in range(1, 151):
            ms = [m for m in range(0, 4) if q > m * h]
            for m, count in zip(ms, oracles.bruteforce_modq_counts(ident, ms, q)):
                value = cqs[m].constituent(q)  # count == value(q), compared in Z
                if count * value.den != value.scaled_value(q):
                    return False, f"{ident} m={m} q={q}"
    return True, "A2/B2/G2, m <= 3, q <= 150"


def check_asymptotics():
    """Asymptotic root tracking"""
    track = verify.asymptotic_track(RootSystemId.parse("E6"), 1, [10, 100, 1000])
    dists = [dist for _m, dist in track]
    if not (dists[0] > dists[1] > dists[2]):
        return False, f"not decreasing: {track}"
    if dists[2] >= 0.05:
        return False, f"m=1000 distance {dists[2]}"
    return True, ", ".join(f"m={m}: {dist:.4f}" for m, dist in track)


ALL_CHECKS = (
    check_table1,
    check_eulerian,
    check_worpitzky,
    check_g2_example,
    check_table2,
    check_halfplane,
    check_reciprocity_functional,
    check_admissible,
    check_averaging,
    check_line_certification,
    check_oracle,
    check_asymptotics,
)


def run_all(numbers=None) -> list[CheckResult]:
    """Run the selected criteria (all by default), in order.  A criterion's
    number is its position in ALL_CHECKS and its name its check's docstring."""
    return [
        CheckResult(number, check.__doc__, *check())
        for number, check in enumerate(ALL_CHECKS, start=1)
        if numbers is None or number in numbers
    ]
