"""The layered moment kernel `shift_constituents` against the naive shift
sum, and the split of a table into layers by column period.

The naive sum substitutes t -> t - step*i into each constituent and adds the
scaled results; it is kept here only, as the slow and independently written
second path for every shift-operator application in the package.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linchar import ratpoly
from linchar.ehrhart import apply_shift_qp, ehrhart_qp, ehrhart_table
from linchar.eulerian import generalized_eulerian, truncate_half
from linchar.linial import _char_quasi, char_constituent, char_quasi, shift_operator
from linchar.ratpoly import IntegerTable, RatPoly, shift_constituents
from linchar.rootdata import ALL_TABLE_IDS, RootSystemId, lookup
from polys import ZERO
from strategies import numerators, polys_of, sized, table_over


def naive_constituent(f: RatPoly, step: int, constituents, d: int) -> RatPoly:
    """sum_i f_i * g_(d - step*i)(t - step*i), one substitution per term."""
    acc = ZERO
    for i, fi in enumerate(f.coeffs):
        if fi != 0:
            g = constituents[(d - step * i) % len(constituents)]
            acc = acc + g.compose_affine(1, -step * i).scale(fi)
    return acc


#: The bounds of a drawn table entry or rational operator term: x / den with
#: |x / den| <= BOUND and den in 1..MAX_DEN.
BOUND, MAX_DEN = 50, 12


@st.composite
def operators(draw):
    """Shift operators like R_Phi and its truncation: integer coefficients,
    sometimes with a half-integer top term, then up to 3 rational terms over
    one denominator; all over 2 * den."""
    coeffs = sized(draw, st.integers(-40, 40), 0, 12)
    den = draw(st.integers(1, MAX_DEN))
    extra = sized(draw, numerators(BOUND, den), 0, 3)
    nums = [2 * den * c for c in coeffs] + [2 * x for x in extra]
    if coeffs and draw(st.booleans()):
        nums[len(coeffs) - 1] = den * (2 * draw(st.integers(-40, 40)) + 1)
    return RatPoly.over(nums, 2 * den)


@st.composite
def quasi_tables(draw):
    """Periods 1..6, rows of up to 6 entries."""
    den = draw(st.integers(1, MAX_DEN))
    period = draw(st.integers(1, 6))
    return table_over(den, (sized(draw, numerators(BOUND, den), 0, 6) for _ in range(period)))


@st.composite
def tables_with_repeated_rows(draw):
    """Tables like L_Phi, whose rows repeat, but with no GCD structure: each
    row is drawn from a pool of at most 3 rows."""
    den = draw(st.integers(1, MAX_DEN))
    pool = [sized(draw, numerators(BOUND, den), 0, 6) for _ in range(draw(st.integers(1, 3)))]
    period = draw(st.integers(1, 12))
    return table_over(den, (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(period)))


@st.composite
def layered_tables(draw, periods=st.integers(1, 12)):
    """Tables shaped like an Ehrhart quasi-polynomial: each column has its
    own period, a divisor of the table period (drawn from `periods`).  Some
    columns are zero, the others have a zero entry at each clear bit of a
    drawn mask, and each row drops its trailing zeros, so rows differ in
    length."""
    period = draw(periods)
    den = draw(st.integers(1, MAX_DEN))
    divisors = [p for p in range(1, period + 1) if period % p == 0]
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        p = divisors[draw(st.integers(0, len(divisors) - 1))]
        mask = 0 if draw(st.booleans()) else draw(st.integers(0, 2**p - 1))
        values = [draw(numerators(BOUND, den)) if mask >> r & 1 else 0 for r in range(p)]
        columns.append([values[r % p] for r in range(period)])
    return table_over(den, ([col[r] for col in columns] for r in range(period)))


@st.composite
def with_residues(draw, tables, residue):
    """(table, residues): a drawn table and a list of up to twice its period
    residues, each drawn from ``residue(period)``."""
    table = draw(tables)
    period = len(table.nums)
    return table, sized(draw, residue(period), 0, 2 * period)


#: Corners for the examples: a half-integer top term; a period-12 table with
#: a zero column whose rows r != 0 mod 3 lose their trailing zeros; and a
#: period-12 table whose rows come from a pool of one.
HALF_TOP = RatPoly((1, -2, Fraction(7, 2)))
ZERO_COLUMN = table_over(6, ((r + 1, 0, (5, 0, 0)[r % 3]) for r in range(12)))
POOL_OF_ONE = table_over(1, [(3, -1, 4)] * 12)
#: A period-6 table whose layers come as 6, 2, 3, 1: period 3 does not divide
#: the 2 before it, so that layer folds from the classes mod 6, not mod 2.
BROKEN_CHAIN = table_over(5, ((r + 1, (4, -3)[r % 2], (2, 0, -7)[r % 3], 9) for r in range(6)))
#: An operator with a term in every class mod 6 at step 1.
SIX_CLASSES = RatPoly((3, -1, 4, 1, -5, 9, Fraction(2, 3)))


def least_period(column) -> int:
    """The least divisor p of len(column) with column[r] == column[r % p]."""
    n = len(column)
    return min(
        p for p in range(1, n + 1) if n % p == 0 and all(column[r] == column[r % p] for r in range(n))
    )


class TestKernelMatchesNaiveSum:
    @settings(max_examples=200, deadline=None)
    @given(f=operators(), step=st.integers(1, 50), table=quasi_tables())
    @example(f=HALF_TOP, step=5, table=table_over(4, ((1, 2), (0, 0, 3), (-7,))))
    def test_every_residue(self, f, step, table):
        constituents = polys_of(table)
        residues = range(len(constituents))
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    @settings(max_examples=300, deadline=None)
    @given(
        f=operators(),
        step=st.integers(1, 50),
        case=with_residues(tables_with_repeated_rows(), lambda n: st.integers(0, n - 1)),
    )
    @example(f=HALF_TOP, step=7, case=(POOL_OF_ONE, (11, 0, 5, 5, 3)))
    def test_repeated_rows_any_residue_list(self, f, step, case):
        """Residue lists in any order, with duplicates, or covering only part
        of the period: a kernel that reused results between residues whose
        own rows are equal, rather than between residues with the same d
        mod p within one layer, fails here."""
        table, residues = case
        constituents = polys_of(table)
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    def test_residue_is_taken_mod_period(self):
        table = IntegerTable.from_rows(1, ((1, 2), (0, 0, 3), (5,)))
        f = RatPoly((1, Fraction(1, 2), 3))
        residues = (-4, 7, 11)
        want = tuple(naive_constituent(f, 4, polys_of(table), d) for d in residues)
        assert shift_constituents(f, 4, table, residues) == want

    def test_equal_rows_merge_but_results_follow_the_residue(self):
        """f = 1 + S**2 on period 5 has classes 0 and 3.  Residue 2 reads
        rows 2 and 0, which are equal, and residue 0 reads rows 0 and 3.
        Every column has period 5, so the table is one layer and no residue
        reuses another's share.  Rows 0 and 2 are equal, yet constituents 0
        and 2 differ."""
        g, h = (1, 2), (0, 0, 3)
        table = IntegerTable.from_rows(1, (g, h, g, h, h))
        f = RatPoly((1, 0, 1))
        residues = (2, 0, 2)
        got = shift_constituents(f, 1, table, residues)
        assert got == tuple(naive_constituent(f, 1, polys_of(table), d) for d in residues)
        assert got[0] != got[1]

    def test_equal_results_are_normalised_once(self, monkeypatch):
        """E8's 60 constituents at m = 1 take 2 values, so the call builds 2
        polynomials, one per distinct sum, and each still equals the naive
        sum of its residue."""
        e8 = RootSystemId.parse("E8")
        f, table = shift_operator(e8, False), ehrhart_table(e8)
        over = RatPoly.over.__func__
        built = []

        def recording_over(cls, nums, den=1):
            built.append(tuple(nums))
            return over(cls, nums, den)

        monkeypatch.setattr(RatPoly, "over", classmethod(recording_over))
        got = _char_quasi.__wrapped__(e8, 1, False).constituents
        monkeypatch.undo()
        distinct = {id(c): c for c in got}
        assert len(got) == 60 and len(distinct) == len(built) == 2
        assert len(set(built)) == 2
        L = polys_of(table)
        assert got == tuple(naive_constituent(f, 2, L, d) for d in range(60))

    def test_empty_residue_list(self):
        table = IntegerTable.from_rows(1, ((1, 2),))
        assert shift_constituents(RatPoly((1, 1)), 3, table, ()) == ()

    @settings(max_examples=300, deadline=None)
    @given(f=operators(), step=st.integers(1, 50), table=layered_tables())
    @example(f=ZERO, step=1, table=ZERO_COLUMN)
    @example(f=HALF_TOP, step=4, table=ZERO_COLUMN)
    @example(f=SIX_CLASSES, step=1, table=BROKEN_CHAIN)
    def test_layered_tables_every_residue(self, f, step, table):
        constituents = polys_of(table)
        residues = range(len(constituents))
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    @settings(max_examples=300, deadline=None)
    @given(
        f=operators(),
        step=st.integers(1, 50),
        case=with_residues(layered_tables(), lambda n: st.integers(-2 * n, 3 * n)),
    )
    @example(f=HALF_TOP, step=9, case=(ZERO_COLUMN, (-24, 13, 35, 2, 2)))
    def test_layered_tables_any_residue_list(self, f, step, case):
        """Residues with repeats, negative or past the period: each reads
        the share of its own d mod p in every layer."""
        table, residues = case
        constituents = polys_of(table)
        want = tuple(naive_constituent(f, step, constituents, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want


def per_call_moments(f: RatPoly, step: int, period: int, size: int) -> dict[int, list[int]]:
    """The moments sum_i f.nums[i] * (-step*i)^j of each class
    (-step*i) mod period, j < size, rebuilt on every call as the kernel
    once did."""
    moments: dict[int, list[int]] = {}
    if size:
        for i, x in enumerate(f.nums):
            if x:
                shift = -step * i
                mu = moments.get(shift % period)
                if mu is None:
                    mu = moments[shift % period] = [0] * size
                mu[0] += x
                for j in range(1, size):
                    x *= shift
                    mu[j] += x
    return moments


def moment_kernel(f: RatPoly, step: int, table: IntegerTable, d: int) -> RatPoly:
    """Constituent d from `per_call_moments` and one flat convolution:
    [t^q] = sum_c sum_k C(k, q) nums[(d + c) % period][k] mu_c[k - q]."""
    period = len(table.nums)
    size = max(map(len, table.nums))
    out = [0] * size
    for c, mu in per_call_moments(f, step, period, size).items():
        row = table.nums[(d + c) % period]
        for k, x in enumerate(row):
            for q in range(k + 1):
                out[q] += math.comb(k, q) * x * mu[k - q]
    return RatPoly.over(out, f.den * table.den)


@st.composite
def kernel_steps(draw, period: int):
    """Step 1, a multiple of the period, or a step above 10^4."""
    return draw(st.one_of(
        st.just(1),
        st.integers(1, 200).map(lambda k: k * period),
        st.integers(10**4 + 1, 10**9),
    ))


@st.composite
def kernel_cases(draw):
    """(f, step, table): an operator, a table of period 1, 2, 6, 12 or 60,
    and a step from `kernel_steps`."""
    table = draw(layered_tables(st.sampled_from((1, 2, 6, 12, 60))))
    return draw(operators()), draw(kernel_steps(len(table.nums))), table


class TestClassSums:
    """The per-class sums of `ratpoly._class_sums`, cached per operator and
    step mod period, against the moment loop the kernel ran on every call."""

    @settings(max_examples=200, deadline=None)
    @given(case=kernel_cases())
    @example(case=(SIX_CLASSES, 7, BROKEN_CHAIN))
    @example(case=(HALF_TOP, 12 * 10**4 + 5, ZERO_COLUMN))
    def test_kernel_matches_per_call_moments(self, case):
        f, step, table = case
        residues = range(len(table.nums))
        want = tuple(moment_kernel(f, step, table, d) for d in residues)
        assert shift_constituents(f, step, table, residues) == want

    def test_exceptional_operators_on_their_alcove_tables(self):
        """Every exceptional operator at steps 1 to period + 1 and past
        10^4, each against the per-call moments."""
        for ident in (i for i in ALL_TABLE_IDS if i.family in "EFG"):
            table = ehrhart_table(ident)
            period = len(table.nums)
            for half in (False, True):
                f = shift_operator(ident, half)
                for step in (*range(1, period + 2), 10**4 + 7):
                    residues = range(period)
                    want = tuple(moment_kernel(f, step, table, d) for d in residues)
                    assert shift_constituents(f, step, table, residues) == want, (ident, half, step)

    def test_steps_alike_mod_the_period_share_one_entry(self):
        """A sweep over consecutive m builds each class sum once: the steps
        1..120 on E8's table, of period 60, make 60 entries, one per step
        mod 60, and hit each once more."""
        e8 = RootSystemId.parse("E8")
        f, table = RatPoly((1, -2, Fraction(5, 3), 7, 0, 11)), ehrhart_table(e8)
        ratpoly._class_sums.cache_clear()
        for step in range(1, 121):
            shift_constituents(f, step, table, (1,))
        info = ratpoly._class_sums.cache_info()
        assert (info.misses, info.hits, info.currsize) == (60, 60, 60)


class TestLayers:
    @settings(max_examples=300, deadline=None)
    @given(table=layered_tables())
    @example(table=ZERO_COLUMN)
    @example(table=POOL_OF_ONE)
    def test_split_by_least_period(self, table):
        """Every column lands in exactly one layer, that of its least period,
        and each layer row holds C(k, q) * nums[r][k] at (q, k - q)."""
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

    def test_a_share_reads_at_most_p_rows_of_its_layer(self):
        """The operator's classes mod the table period are folded mod p for a
        layer of period p, so each of the layer's p shares reads at most p of
        its rows, however many classes the operator has."""

        class CountedRows(tuple):
            reads = 0

            def __getitem__(self, r):
                self.reads += 1
                return super().__getitem__(r)

        e8 = RootSystemId.parse("E8")
        table = ehrhart_table(e8)
        counted = [CountedRows(rows) for _, _, rows in table.layers]
        layers = tuple((p, columns, rows) for (p, columns, _), rows in zip(table.layers, counted))
        R = generalized_eulerian(e8)  # 29 terms, each in its own class mod 60 at step 1
        residues = range(60)
        got = shift_constituents(R, 1, IntegerTable(table.den, table.nums, layers), residues)
        assert got == shift_constituents(R, 1, table, residues)
        assert [(p, rows.reads) for (p, _, _), rows in zip(layers, counted)] == [
            (60, 60 * 29), (12, 12 * 12), (6, 6 * 6), (2, 2 * 2), (1, 1)
        ]

    def test_a_layer_can_leave_the_divisor_chain(self):
        """BROKEN_CHAIN, an example of the kernel tests, has a layer whose
        period does not divide the one before it; no L_Phi has one."""
        assert [p for p, _, _ in BROKEN_CHAIN.layers] == [6, 2, 3, 1]

    def test_period_one_table_is_one_layer(self):
        table = IntegerTable.from_rows(1, ((3, 0, 5),))
        assert [(p, columns) for p, columns, _ in table.layers] == [(1, (0, 1, 2))]
        assert IntegerTable.from_rows(1, ((),)).layers == ()


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


@pytest.mark.parametrize("name", ["A60", "A120", "B30", "C40", "D30"])
def test_layer_binomials_at_high_degree(name):
    """The layer terms hold C(k, q) * nums[r][k] up to k = rank, past the
    few columns the drawn tables reach."""
    table = ehrhart_table(RootSystemId.parse(name))
    for _, columns, rows in table.layers:
        for r, terms in enumerate(rows):
            num = table.nums[r]
            want = [(q, k - q, math.comb(k, q) * num[k]) for k in columns if num[k] for q in range(k + 1)]
            assert list(terms) == want


@pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
class TestCharConstituent:
    def test_matches_full_quasi_polynomial(self, ident):
        # a full build shares one convolution per layer and d mod p between
        # residues; each of its constituents must equal the one built alone,
        # also at the shift steps m + 1 = 7 and 380
        for m in (0, 1, 2, 3, 6, 379):
            full, half = char_quasi(ident, m), char_quasi(ident, m, True)
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
