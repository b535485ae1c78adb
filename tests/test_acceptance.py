"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
matrix, or `linchar verify-all` for the same checks via the CLI."""

import pytest

from linchar import oracles
from linchar.acceptance import ALL_CHECKS, check_oracle, run_all
from linchar.rootdata import RootSystemId, lookup


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
