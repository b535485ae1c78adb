"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
matrix, or `linchar verify-all` for the same checks via the CLI."""

import pytest

from linchar import acceptance, ehrhart, eulerian, linial, oracles, rootdata, verify
from linchar.acceptance import ALL_CHECKS, check_oracle, run_all
from linchar.ehrhart import QuasiPoly
from linchar.ratpoly import RatPoly
from linchar.rootdata import RootSystemId, lookup
from polys import monomial, mul


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__)
def test_criterion(check):
    number = ALL_CHECKS.index(check) + 1
    [result] = run_all({number})
    status = "PASS" if result.passed else "FAIL"
    print(f"[{result.number:2d}] {status} {result.name}"
          + (f": {result.detail}" if result.detail else ""))
    for line in result.reported:
        print(f"     {line}")
    assert result.number == number
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_numbers_follow_all_checks_and_names_are_unique():
    results = run_all()
    assert [r.number for r in results] == list(range(1, len(ALL_CHECKS) + 1)) == list(range(1, 13))
    names = [r.name for r in results]
    assert names == [check.__doc__ for check in ALL_CHECKS]
    assert all(isinstance(name, str) and name.strip() for name in names)
    assert len(set(names)) == len(names)
    assert run_all(set()) == []


def oracle_triples():
    """Every (system, m, q) criterion 11 must compare: A2/B2/G2, m <= 3, m*h < q <= 150."""
    return [
        (name, m, q)
        for name in ("A2", "B2", "G2")
        for m in range(4)
        for q in range(m * lookup(RootSystemId.parse(name)).coxeter_number + 1, 151)
    ]


def recording_oracle(monkeypatch, off_by_one=None):
    """Wrap the mod-q kernel: record each (system, m, q) it answers, and add 1
    to the count of `off_by_one`."""
    kernel = oracles.bruteforce_modq_counts
    seen = []

    def recorded(ident, ms, q, unsafe=False):
        counts = kernel(ident, ms, q, unsafe)
        triples = [(str(ident), m, q) for m in ms]
        seen.extend(triples)
        return tuple(c + (t == off_by_one) for c, t in zip(counts, triples))

    monkeypatch.setattr(oracles, "bruteforce_modq_counts", recorded)
    return seen


def test_oracle_criterion_compares_every_triple(monkeypatch):
    seen = recording_oracle(monkeypatch)
    assert check_oracle() == (True, "A2/B2/G2, m <= 3, q <= 150")
    assert len(seen) == len(set(seen)) == 1722
    assert set(seen) == set(oracle_triples())


@pytest.mark.parametrize("triple", [("A2", 0, 1), ("B2", 2, 77), ("G2", 3, 150)])
def test_oracle_criterion_fails_on_one_count_off_by_one(monkeypatch, triple):
    recording_oracle(monkeypatch, off_by_one=triple)
    name, m, q = triple
    assert check_oracle() == (False, f"{name} m={m} q={q}")


# -- every other criterion fails when one engine or printed value is off ---------

T = RatPoly((0, 1))


def plus_t(qp, d):
    """`qp` with t added to its constituent d."""
    return QuasiPoly(c + T if i == d else c for i, c in enumerate(qp.constituents))


def when(match, change):
    """A `change(honest result, *args)` that alters the result only for the
    arguments `match` accepts."""
    return lambda result, *args: change(result, *args) if match(*args) else result


def query(name, *args):
    """Accepts a call on the system `name` whose further arguments are `args`."""
    return lambda ident, *rest: str(ident) == name and rest == args


def printed(name, value):
    """Table 2 with `value` printed for the system `name`."""
    return lambda table: {**table, name: value}


A3_ROW = "(1, 2, 3), (1, 1, 1, 1), 4, 4"

FAILURES = [
    pytest.param(
        acceptance.check_table1, rootdata, "lookup",
        when(query("A3"), lambda data, ident: data._replace(weyl_order=25)),
        f"A3: ({A3_ROW}, 25, 1, 1) != ({A3_ROW}, 24, 1, 1)", id="1-printed-row"),
    pytest.param(
        acceptance.check_table1, rootdata, "lookup",
        when(query("A2"), lambda data, ident: data._replace(weyl_order=7)),
        "invariants fail for A2", id="1-invariants"),
    pytest.param(
        acceptance.check_table1, rootdata, "lookup",
        when(query("C8"), lambda data, ident: data._replace(index_of_connection=1)),
        "invariants fail for C8", id="1-index-of-connection"),
    pytest.param(
        acceptance.check_eulerian, eulerian, "generalized_eulerian",
        when(query("A6"), lambda R, ident: R + monomial(3)),
        f"{RatPoly((0, 1, 57, 303, 302, 57, 1))} != {RatPoly((0, 1, 57, 302, 302, 57, 1))}",
        id="2-eulerian"),
    pytest.param(
        acceptance.check_eulerian, oracles, "asc_oracle",
        when(query("B2"), lambda R, ident: R + T),
        "asc oracle mismatch for B2", id="2-asc-oracle"),
    pytest.param(
        acceptance.check_worpitzky, linial, "char_quasi",
        when(query("C5", 0), lambda qp, *args: plus_t(qp, 1)),
        "fails for C5", id="3"),
    pytest.param(
        acceptance.check_g2_example, ehrhart, "ehrhart_qp",
        when(query("G2"), lambda qp, ident: plus_t(qp, 2)),
        "L constituent 2", id="4-ehrhart"),
    pytest.param(
        acceptance.check_g2_example, linial, "weyl_char_quasi",
        when(query("G2"), lambda qp, ident: plus_t(qp, 3)),
        "Weyl constituent 3", id="4-weyl"),
    pytest.param(
        acceptance.check_g2_example, linial, "char_quasi",
        when(query("G2", 1), lambda qp, *args: plus_t(qp, 4)),
        "chi constituent 4", id="4-chi"),
    pytest.param(
        acceptance.check_g2_example, linial, "char_quasi",
        when(query("G2", 0, True), lambda qp, *args: plus_t(qp, 2)),
        "half (m=0) constituent 2", id="4-half-0"),
    pytest.param(
        acceptance.check_g2_example, linial, "char_quasi",
        when(query("G2", 1, True), lambda qp, *args: plus_t(qp, 5)),
        "half (m=1) constituent 5", id="4-half-1"),
    pytest.param(
        acceptance.check_table2, linial, "limit_poly",
        when(query("E7"), lambda F, ident: mul(F, RatPoly((-9, 1)))),
        "E7: max real part not in [8.4367, 8.4368)", id="5-max-real-part"),
    pytest.param(
        acceptance.check_table2, acceptance, "_TABLE2", printed("E8", "14.6605"),
        "E8: max real part not in [14.6605, 14.6606)", id="5-e8-rounded"),
    pytest.param(
        acceptance.check_table2, acceptance, "_TABLE2", printed("G2", "2.167"),
        "G2: max real part not in [2.167, 2.168)", id="5-g2-rounded"),
    pytest.param(
        acceptance.check_table2, acceptance, "_TABLE2", printed("E7", "8.4366"),
        "E7: max real part not in [8.4366, 8.4367)", id="5-e7-one-unit-low"),
    pytest.param(
        acceptance.check_table2, acceptance, "_TABLE2", printed("E7", "8.4368"),
        "E7: max real part not in [8.4368, 8.4369)", id="5-e7-one-unit-high"),
    pytest.param(
        acceptance.check_table2, verify, "find_roots",
        lambda found, F: found._replace(roots=[z + 1e-3j for z in found.roots]),
        lambda altered: "E6 roots off by {}".format(
            verify._match_distance(altered[-1].roots, acceptance._E6_PRINTED_ROOTS)),
        id="5-e6-roots"),
    pytest.param(
        acceptance.check_halfplane, linial, "limit_poly",
        when(query("E7"), lambda F, ident: mul(F, RatPoly((-9, 1)))),
        "E7: exact verdict False", id="6"),
    pytest.param(
        acceptance.check_reciprocity_functional, ehrhart, "ehrhart_qp",
        when(query("B3"), lambda qp, ident: plus_t(qp, 1)),
        "reciprocity B3", id="7-reciprocity"),
    pytest.param(
        acceptance.check_reciprocity_functional, linial, "char_quasi",
        when(query("G2", 2), lambda qp, *args: plus_t(qp, 1)),
        "functional equation fails for G2, m=2, d=1", id="7-functional-equation"),
    pytest.param(
        acceptance.check_admissible, linial, "admissible_residues",
        when(query("E7"), lambda rep, ident: rep._replace(m0=3)),
        "E7: (1, 3), m0=3", id="8-table3"),
    pytest.param(
        acceptance.check_admissible, linial, "char_quasi",
        when(query("E6", 1), lambda qp, *args: plus_t(qp, 5)),
        "defining equality fails: E6 d=1 m=1 k=0", id="8-definition"),
    pytest.param(
        acceptance.check_averaging, linial, "averaged_half",
        when(query("E7", 3, 1), lambda F, *args: F + T),
        "E7 m=3 d=1", id="9"),
    pytest.param(
        # 29 is the last residue met of the orbit {1, 29, 31, 59}, whose F is made at d = 1
        acceptance.check_averaging, linial, "char_quasi",
        when(query("E8", 2), lambda qp, *args: plus_t(qp, 29)),
        "E8 m=2 d=29", id="9-later-orbit-member"),
    pytest.param(
        acceptance.check_line_certification, linial, "char_poly",
        when(query("E8", 59), lambda p, *args: mul(p, RatPoly((-1, 1)))),
        "E8 m=59 expected on-line", id="10"),
    pytest.param(
        acceptance.check_asymptotics, verify, "asymptotic_track",
        lambda track, *args: [track[0], (track[1][0], track[0][1]), track[2]],
        lambda altered: f"not decreasing: {altered[0]}", id="12-decreasing"),
    pytest.param(
        acceptance.check_asymptotics, verify, "asymptotic_track",
        lambda track, *args: [(m, 20 * dist) for m, dist in track],
        lambda altered: f"m=1000 distance {altered[0][2][1]}", id="12-bound"),
]


@pytest.mark.parametrize("check, module, name, change, detail", FAILURES)
def test_criterion_fails_on_one_engine_value_off(monkeypatch, check, module, name, change, detail):
    honest = getattr(module, name)
    altered = []

    def patched(*args):
        result = change(honest(*args), *args)
        altered.append(result)
        return result

    # a printed table is replaced whole; an engine function by `patched`
    monkeypatch.setattr(module, name, patched if callable(honest) else change(honest))
    passed, got = check()
    # a detail that prints a float is read back from the altered values
    assert (passed, got) == (False, detail if isinstance(detail, str) else detail(altered))
