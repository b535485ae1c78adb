"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
matrix, or `linchar verify-all` for the same checks via the CLI."""

import pytest

from linchar.acceptance import ALL_CHECKS, run_all


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
