"""The moment kernel `shift_constituent` against the naive shift sum.

The naive sum substitutes t -> t - step*i into each constituent and adds the
scaled results; it is kept here only, as the slow and independently written
second path for every shift-operator application in the package.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linchar.ehrhart import ehrhart_qp
from linchar.eulerian import generalized_eulerian, truncate_half
from linchar.linial import char_constituent, char_quasi, half_char_quasi
from linchar.ratpoly import IntegerTable, RatPoly, shift_constituent
from linchar.rootdata import ALL_TABLE_IDS, lookup


def naive_constituent(f: RatPoly, step: int, constituents, d: int) -> RatPoly:
    """sum_i f_i * g_(d - step*i)(t - step*i), one substitution per term."""
    acc = RatPoly.zero()
    for i, fi in enumerate(f.coeffs):
        if fi != 0:
            g = constituents[(d - step * i) % len(constituents)]
            acc = acc + g.compose_affine(1, -step * i).scale(fi)
    return acc


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def operators(draw):
    """Shift operators like R_Phi and its truncation: integer coefficients,
    sometimes with a half-integer top term."""
    coeffs = draw(st.lists(st.integers(-40, 40), max_size=12))
    if coeffs and draw(st.booleans()):
        coeffs[-1] = Fraction(draw(st.integers(-40, 40)) * 2 + 1, 2)
    extra = draw(st.lists(fractions, max_size=3))
    return RatPoly(list(coeffs) + extra)


@st.composite
def quasi_tables(draw):
    period = draw(st.integers(1, 6))
    return tuple(
        RatPoly(draw(st.lists(fractions, max_size=6))) for _ in range(period)
    )


class TestKernelMatchesNaiveSum:
    @settings(max_examples=200, deadline=None)
    @given(f=operators(), step=st.integers(1, 50), constituents=quasi_tables())
    def test_every_residue(self, f, step, constituents):
        table = IntegerTable.of(constituents)
        for d in range(len(constituents)):
            assert shift_constituent(f, step, table, d) == naive_constituent(
                f, step, constituents, d
            )

    def test_residue_is_taken_mod_period(self):
        constituents = (RatPoly((1, 2)), RatPoly((0, 0, 3)), RatPoly((5,)))
        table = IntegerTable.of(constituents)
        f = RatPoly((1, Fraction(1, 2), 3))
        for d in (-4, 7, 11):
            assert shift_constituent(f, 4, table, d) == naive_constituent(f, 4, constituents, d)


@pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
class TestCharConstituent:
    def test_matches_full_quasi_polynomial(self, ident):
        for m in range(4):
            full, half = char_quasi(ident, m), half_char_quasi(ident, m)
            for d in range(full.period):
                assert char_constituent(ident, m, d) == full.constituent(d)
                assert char_constituent(ident, m, d, half=True) == half.constituent(d)

    def test_matches_naive_sum(self, ident):
        data = lookup(ident)
        L = ehrhart_qp(ident).constituents
        R = generalized_eulerian(ident)
        operators = {
            False: R,
            True: truncate_half(R, data.coxeter_number),
        }
        for m in range(4):
            for d in {0, 1, data.period - 1}:
                for half, f in operators.items():
                    want = naive_constituent(f, m + 1, L, d)
                    assert char_constituent(ident, m, d, half=half) == want
