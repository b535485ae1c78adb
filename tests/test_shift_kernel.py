"""The layered moment kernel `shift_constituents` against the naive shift
sum, and the split of a table into layers by column period.

The naive sum substitutes t -> t - step*i into each constituent and adds the
scaled results; it is kept here only, as the slow and independently written
second path for every shift-operator application in the package.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linchar import ratpoly
from linchar.ehrhart import apply_shift_qp, ehrhart_qp, ehrhart_table
from linchar.eulerian import generalized_eulerian, truncate_half
from linchar.linial import char_constituent, char_quasi, half_char_quasi
from linchar.ratpoly import IntegerTable, RatPoly, shift_constituents
from linchar.rootdata import ALL_TABLE_IDS, RootSystemId, lookup


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


entries = st.one_of(st.just(Fraction(0)), fractions)


@st.composite
def layered_tables(draw):
    """Tables shaped like an Ehrhart quasi-polynomial: each column has its
    own period, a divisor of the table period.  Some columns are zero, and
    each row drops its trailing zeros, so rows differ in length."""
    period = draw(st.integers(1, 12))
    divisors = [p for p in range(1, period + 1) if period % p == 0]
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        p = draw(st.sampled_from(divisors))
        values = draw(st.one_of(st.just([0] * p), st.lists(entries, min_size=p, max_size=p)))
        columns.append([values[r % p] for r in range(period)])
    return tuple(RatPoly([col[r] for col in columns]) for r in range(period))


def least_period(column) -> int:
    """The least divisor p of len(column) with column[r] == column[r % p]."""
    n = len(column)
    return min(
        p for p in range(1, n + 1) if n % p == 0 and all(column[r] == column[r % p] for r in range(n))
    )


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
        of the period: a kernel that reused results between residues whose
        own rows are equal, rather than between residues with the same d
        mod p within one layer, fails here."""
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
        rows 2 and 0, which are equal, and residue 0 reads rows 0 and 3.
        Every column has period 5, so the table is one layer and no residue
        reuses another's share.  Rows 0 and 2 are equal, yet constituents 0
        and 2 differ."""
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

    @settings(max_examples=300, deadline=None)
    @given(f=operators(), step=st.integers(1, 50), constituents=layered_tables())
    def test_layered_tables_every_residue(self, f, step, constituents):
        table = IntegerTable.of(constituents)
        residues = range(len(constituents))
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    @settings(max_examples=300, deadline=None)
    @given(f=operators(), step=st.integers(1, 50), constituents=layered_tables(), data=st.data())
    def test_layered_tables_any_residue_list(self, f, step, constituents, data):
        """Residues with repeats, negative or past the period: each reads
        the share of its own d mod p in every layer."""
        period = len(constituents)
        residues = data.draw(st.lists(st.integers(-2 * period, 3 * period), max_size=2 * period))
        table = IntegerTable.of(constituents)
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want


class TestLayers:
    @settings(max_examples=300, deadline=None)
    @given(constituents=layered_tables())
    def test_split_by_least_period(self, constituents):
        """Every column lands in exactly one layer, that of its least period,
        and each layer row holds C(k, q) * nums[r][k] at (q, k - q)."""
        table = IntegerTable.of(constituents)
        period = len(table.nums)
        width = max(map(len, table.nums), default=0)
        columns = [[row[k] if k < len(row) else 0 for row in table.nums] for k in range(width)]
        seen = []
        for layer_period, layer_columns, rows in table.layers:
            assert period % layer_period == 0
            assert len(rows) == layer_period
            for k in layer_columns:
                assert least_period(columns[k]) == layer_period
            for r, row in enumerate(rows):
                want = {
                    (q, k - q): math.comb(k, q) * columns[k][r]
                    for k in layer_columns
                    if columns[k][r]
                    for q in range(k + 1)
                }
                assert {(q, j): w for q, j, w in row} == want
                assert len(row) == len(want)
            seen += layer_columns
        assert sorted(seen) == list(range(width))

    def test_split_is_made_once_per_table(self, monkeypatch):
        """L_Phi is cached as its table, and with it the split, for every call."""
        e8 = RootSystemId.parse("E8")
        R = generalized_eulerian(e8)
        full = apply_shift_qp(R, 2, ehrhart_table(e8))
        monkeypatch.setattr(ratpoly, "_layers", None)  # a second split would fail
        assert apply_shift_qp(R, 2, ehrhart_table(e8)) == full == char_quasi(e8, 1)
        assert ehrhart_qp(e8).period == 60

    def test_period_one_table_is_one_layer(self):
        table = IntegerTable.of((RatPoly((3, 0, 5)),))
        assert [(p, columns) for p, columns, _ in table.layers] == [(1, (0, 1, 2))]
        assert IntegerTable.of((RatPoly(()),)).layers == ()


_EXCEPTIONAL_SPLITS = {
    "E6": {6: (0,), 2: (1, 2), 1: (3, 4, 5, 6)},
    "E7": {12: (0,), 6: (1,), 2: (2, 3), 1: (4, 5, 6, 7)},
    "E8": {60: (0,), 12: (1,), 6: (2,), 2: (3, 4), 1: (5, 6, 7, 8)},
    "F4": {12: (0,), 2: (1, 2), 1: (3, 4)},
    "G2": {6: (0,), 1: (1, 2)},
}


@pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
def test_alcove_table_split(ident):
    """The split of L_Phi: one layer for A_l; t^0..t^(l-2) at period 2 for
    B_l and C_l, t^0..t^(l-4) for D_l, and the rest at period 1; the
    exceptional types as listed."""
    split = {p: columns for p, columns, _ in ehrhart_table(ident).layers}
    l = ident.rank
    if ident.family == "A":
        want = {1: tuple(range(l + 1))}
    elif ident.family in "BC":
        want = {2: tuple(range(l - 1)), 1: (l - 1, l)}
    elif ident.family == "D":
        want = {2: tuple(range(l - 3)), 1: tuple(range(l - 3, l + 1))}
    else:
        want = _EXCEPTIONAL_SPLITS[str(ident)]
    assert split == want


@pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
class TestCharConstituent:
    def test_matches_full_quasi_polynomial(self, ident):
        # a full build shares one convolution per layer and d mod p between
        # residues; each of its constituents must equal the one built alone,
        # also at the shift steps m + 1 = 7 and 380
        for m in (0, 1, 2, 3, 6, 379):
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
