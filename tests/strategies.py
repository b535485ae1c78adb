"""Flat hypothesis strategies for exact values, shared by the property tests.

A rational is an integer numerator over an integer denominator, a polynomial
is integer numerators over one drawn denominator (`RatPoly.over`), and a
table is its integer rows over one denominator (`IntegerTable.from_rows`).
Drawing is where these tests spend their time, so an example is as few
plain integer draws as its structure allows, where `st.fractions` spends
several draws and maps on each coefficient.
"""

from fractions import Fraction

from hypothesis import strategies as st

from linchar.ratpoly import IntegerTable, RatPoly


def numerators(bound: int, den: int):
    """Integers x with |x / den| <= bound."""
    return st.integers(-bound * den, bound * den)


def sized(draw, elements, min_size: int, max_size: int) -> list:
    """min_size..max_size draws from `elements`: the length is one integer
    draw, where `st.lists` draws a boolean before each element."""
    return [draw(elements) for _ in range(draw(st.integers(min_size, max_size)))]


@st.composite
def rationals(draw, bound: int, max_den: int):
    """x / den with 1 <= den <= max_den and |x / den| <= bound."""
    den = draw(st.integers(1, max_den))
    return Fraction(draw(numerators(bound, den)), den)


@st.composite
def polys(draw, bound: int, max_den: int, min_size: int = 0, max_size: int = 6):
    """min_size..max_size coefficients, each x / den with |x / den| <= bound,
    over one den in 1..max_den."""
    den = draw(st.integers(1, max_den))
    return RatPoly.over(sized(draw, numerators(bound, den), min_size, max_size), den)


def table_over(den: int, rows) -> IntegerTable:
    """The rows over `den`, each without its trailing zeros as `RatPoly`
    stores them (over 1, which reduces nothing)."""
    return IntegerTable.from_rows(den, tuple(RatPoly.over(row).nums for row in rows))


def polys_of(table: IntegerTable) -> tuple[RatPoly, ...]:
    """The rows of `table` as polynomials, for the `Fraction` paths."""
    return tuple(RatPoly.over(row, table.den) for row in table.nums)
