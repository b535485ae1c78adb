"""The batched moment kernel `shift_constituents` against the naive shift sum.

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
from linchar.ratpoly import IntegerTable, RatPoly, shift_constituents
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


@st.composite
def tables_with_repeated_rows(draw):
    """Tables like L_Phi, whose rows repeat, but with no GCD structure: each
    row is drawn from a pool of at most 3 polynomials."""
    pool = draw(
        st.lists(st.lists(fractions, max_size=6).map(RatPoly), min_size=1, max_size=3)
    )
    period = draw(st.integers(1, 12))
    return tuple(draw(st.sampled_from(pool)) for _ in range(period))


class TestKernelMatchesNaiveSum:
    @settings(max_examples=200, deadline=None)
    @given(f=operators(), step=st.integers(1, 50), constituents=quasi_tables())
    def test_every_residue(self, f, step, constituents):
        table = IntegerTable.of(constituents)
        residues = range(len(constituents))
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    @settings(max_examples=300, deadline=None)
    @given(
        f=operators(),
        step=st.integers(1, 50),
        constituents=tables_with_repeated_rows(),
        data=st.data(),
    )
    def test_repeated_rows_any_residue_list(self, f, step, constituents, data):
        """Residue lists in any order, with duplicates, or covering only part
        of the period: classes are merged by the row they read, so a kernel
        that reuses results between residues whose own rows are equal fails
        here."""
        period = len(constituents)
        residues = data.draw(st.lists(st.integers(0, period - 1), max_size=2 * period))
        table = IntegerTable.of(constituents)
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    def test_residue_is_taken_mod_period(self):
        constituents = (RatPoly((1, 2)), RatPoly((0, 0, 3)), RatPoly((5,)))
        table = IntegerTable.of(constituents)
        f = RatPoly((1, Fraction(1, 2), 3))
        residues = (-4, 7, 11)
        want = tuple(naive_constituent(f, 4, constituents, d) for d in residues)
        assert shift_constituents(f, 4, table, residues) == want

    def test_equal_rows_merge_but_results_follow_the_residue(self):
        """f = 1 + S**2 on period 5 has classes 0 and 3.  Residue 2 reads
        rows 2 and 0, which are equal, so its two classes merge into one
        convolution; residue 0 reads rows 0 and 3.  Rows 0 and 2 are equal,
        yet constituents 0 and 2 differ."""
        g, h = RatPoly((1, 2)), RatPoly((0, 0, 3))
        constituents = (g, h, g, h, h)
        table = IntegerTable.of(constituents)
        f = RatPoly((1, 0, 1))
        residues = (2, 0, 2)
        got = shift_constituents(f, 1, table, residues)
        assert got == tuple(naive_constituent(f, 1, constituents, d) for d in residues)
        assert got[0] != got[1]

    def test_empty_residue_list(self):
        table = IntegerTable.of((RatPoly((1, 2)),))
        assert shift_constituents(RatPoly((1, 1)), 3, table, ()) == ()


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
