import copy
import math
import pickle
from fractions import Fraction

import pytest

from linchar import ehrhart, ratpoly
from linchar.ehrhart import (
    QuasiPoly,
    apply_shift_qp,
    ehrhart_qp,
    ehrhart_table,
    series_coeffs,
)
from linchar.errors import SelfCheckFailed
from linchar.eulerian import generalized_eulerian, truncate_half
from linchar.ratpoly import IntegerTable, RatPoly
from linchar.rootdata import ALL_TABLE_IDS, RootSystemId, lookup
from polys import ONE, ZERO, from_roots, monomial, mul, quasi_from_json


def rid(text):
    return RootSystemId.parse(text)


#: Every exceptional system and the classical families up to rank 30.
TWO_PATH_IDS = tuple(
    [RootSystemId(family, l) for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for l in range(lo, 31)]
    + [rid(name) for name in ("E6", "E7", "E8", "F4", "G2")]
)


def nested_denumerant_counts(marks, upto):
    """The denumerant DP as one nested loop, dp[q] += dp[q - c]: a second
    path for the running sums of `_denumerant_counts`."""
    dp = [0] * (upto + 1)
    dp[0] = 1
    for c in marks:
        for q in range(c, upto + 1):
            dp[q] += dp[q - c]
    return dp


def inverted_series(ident, count) -> list[int]:
    """First `count` coefficients of 1 / prod_i (1 - z^{c_i}), by expanding
    the denominator and inverting the power series: a second path for the
    denumerant counts that `series_coeffs` returns."""
    a = mul(*(RatPoly.over([1] + [0] * (c - 1) + [-1]) for c in lookup(ident).marks)).nums
    out = [0] * count
    out[0] = 1
    for k in range(1, count):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def all_residue_table(ident) -> IntegerTable:
    """L_Phi's table with every residue interpolated from its own nodes and
    the gcd reduction run over all rows: a second path for the build that
    interpolates one row per gcd class."""
    data = lookup(ident)
    n, l = data.period, data.rank
    counts = inverted_series(ident, (l + 1) * n)
    nums = ehrhart._newton_numerators(counts, n, l, range(n))
    den = n**l * math.factorial(l)
    g = math.gcd(den, *(c for num in nums for c in num))
    return IntegerTable.from_rows(den // g, tuple(tuple(c // g for c in num) for num in nums))


def gcd_witness(L: QuasiPoly):
    """None if the constituents depend only on gcd(residue, period), else the
    first pair of residues with equal gcd and unequal constituents."""
    first_by_gcd: dict[int, int] = {}
    for d in range(L.period):
        g = first_by_gcd.setdefault(math.gcd(d, L.period), d)
        if L.constituents[d] != L.constituents[g]:
            return g, d
    return None


def lagrange(points) -> RatPoly:
    """Interpolating polynomial through (x, y) points, by Lagrange's formula
    in Fraction arithmetic: a second path for `ehrhart_qp`."""
    total = ZERO
    for j, (xj, yj) in enumerate(points):
        num = ONE
        den = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k != j:
                num = mul(num, RatPoly((-xk, 1)))
                den *= xj - xk
        total = total + num.scale(Fraction(yj) / den)
    return total


class TestQuasiPoly:
    def test_value_uses_mathematical_mod(self):
        qp = QuasiPoly((RatPoly((0, 1)), RatPoly((1,))))
        assert qp.value(4) == 4
        assert qp.value(-3) == 1  # -3 mod 2 = 1
        assert qp.value(-4) == -4

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            QuasiPoly(())
        # a stated period is outside input: one that disagrees is refused
        stated = {"period": 3, "constituents": [RatPoly((1,)).to_json()]}
        with pytest.raises(ValueError):
            quasi_from_json(stated)

    def test_json_round_trip(self):
        qp = ehrhart_qp(rid("G2"))
        assert qp.to_json()["period"] == 6
        assert quasi_from_json(qp.to_json()) == qp

    def test_json_makes_each_distinct_constituent_once(self):
        # equal constituents share one dict, which the CLI's writer then
        # renders once: E8 has 12 distinct constituents of 60
        qp = ehrhart_qp(rid("E8"))
        forms = qp.to_json()["constituents"]
        assert forms == [c.to_json() for c in qp.constituents]
        assert len({id(form) for form in forms}) == len(set(qp.constituents)) == 12

    def test_immutable(self):
        qp = QuasiPoly((RatPoly((1,)),))
        with pytest.raises(AttributeError):
            qp.period = 2
        with pytest.raises(AttributeError):
            qp.constituents = ()

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda qp: pickle.loads(pickle.dumps(qp))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_equality_and_hash(self, clone):
        E8 = ehrhart_qp(rid("E8"))
        for qp in (E8, QuasiPoly((ZERO,))):
            other = clone(qp)
            assert other == qp and hash(other) == hash(qp)
            assert other.period == qp.period
            with pytest.raises(AttributeError):
                other.period = 2


class TestEhrhartQP:
    def test_g2_constituents(self):
        L = ehrhart_qp(rid("G2"))
        twelfth = Fraction(1, 12)
        assert L.constituent(1) == RatPoly((5, 6, 1)).scale(twelfth)
        assert L.constituent(5) == RatPoly((5, 6, 1)).scale(twelfth)
        assert L.constituent(0) == RatPoly((12, 6, 1)).scale(twelfth)
        assert L.constituent(3) == RatPoly((9, 6, 1)).scale(twelfth)

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_value_at_zero_is_one(self, ident):
        assert ehrhart_qp(ident).value(0) == 1

    def test_e8_value_at_one(self):
        # all marks except the slack are >= 2, so only the origin fits
        assert ehrhart_qp(rid("E8")).value(1) == 1

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_degree_and_leading_coefficient(self, ident):
        data = lookup(ident)
        L = ehrhart_qp(ident)
        lead = Fraction(data.index_of_connection, data.weyl_order)
        for c in L.constituents:
            assert c.degree == data.rank
            assert c.coeffs[-1] == lead

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_coprime_residues_factor_through_exponents(self, ident):
        data = lookup(ident)
        L = ehrhart_qp(ident)
        lead = Fraction(data.index_of_connection, data.weyl_order)
        want = from_roots([-e for e in data.exponents], leading=1).scale(lead)
        for d in range(L.period):
            if math.gcd(d, L.period) == 1:
                assert L.constituent(d) == want

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_gcd_property_holds(self, ident):
        assert gcd_witness(ehrhart_qp(ident)) is None

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_period_is_minimal(self, ident):
        L = ehrhart_qp(ident)
        if L.period > 1:
            assert len(set(L.constituents)) > 1


class TestIntegerBuild:
    @pytest.mark.parametrize("ident", TWO_PATH_IDS, ids=str)
    def test_counts_match_nested_loop(self, ident):
        data = lookup(ident)
        upto = 3 * data.period * (data.rank + 1)
        assert ehrhart._denumerant_counts(data.marks, upto) == nested_denumerant_counts(data.marks, upto)

    @pytest.mark.parametrize("ident", TWO_PATH_IDS, ids=str)
    def test_table_matches_the_nested_loop_past_the_nodes(self, ident):
        # the guard proves the table for every q from the nodes alone; this
        # reads it against a second path three times as far
        data = lookup(ident)
        n = data.period
        table = ehrhart_table(ident)
        counts = nested_denumerant_counts(data.marks, 3 * n * (data.rank + 1))
        for q, count in enumerate(counts):
            assert sum(c * q**j for j, c in enumerate(table.nums[q % n])) == count * table.den

    @pytest.mark.parametrize("name", ["G2", "F4", "E8", "A5", "C30"])
    def test_counts_stop_at_the_last_node(self, monkeypatch, name):
        data = lookup(rid(name))
        honest = ehrhart._denumerant_counts
        asked = []

        def recording(marks, upto):
            asked.append(upto)
            return honest(marks, upto)

        monkeypatch.setattr(ehrhart, "_denumerant_counts", recording)
        ehrhart_table.__wrapped__(rid(name))
        assert asked == [(data.rank + 1) * data.period - 1]

    @pytest.mark.parametrize("ident", TWO_PATH_IDS, ids=str)
    def test_table_is_the_reduced_table_of_the_constituents(self, ident):
        table = ehrhart_table(ident)
        coeffs = [c.coeffs for c in ehrhart_qp(ident).constituents]
        den = math.lcm(*(x.denominator for row in coeffs for x in row))
        assert table.den == den
        assert table.nums == tuple(tuple(x * den for x in row) for row in coeffs)

    @pytest.mark.parametrize("ident", TWO_PATH_IDS, ids=str)
    def test_table_round_trips_through_the_constituents(self, ident):
        constituents = ehrhart_qp(ident).constituents
        den = math.lcm(*(p.den for p in constituents))
        nums = tuple(tuple(x * (den // p.den) for x in p.nums) for p in constituents)
        assert IntegerTable.from_rows(den, nums) == ehrhart_table(ident)

    @pytest.mark.parametrize("ident", TWO_PATH_IDS, ids=str)
    def test_table_is_the_all_residue_table(self, ident):
        assert ehrhart_table(ident) == all_residue_table(ident)

    @pytest.mark.parametrize("name", ["G2", "F4", "E8", "A5", "C30"])
    def test_one_row_is_interpolated_per_divisor_of_the_period(self, monkeypatch, name):
        n = lookup(rid(name)).period
        honest = ehrhart._newton_numerators
        asked = []

        def recording(counts, period, rank, residues):
            asked.append(list(residues))
            return honest(counts, period, rank, residues)

        monkeypatch.setattr(ehrhart, "_newton_numerators", recording)
        table = ehrhart_table.__wrapped__(rid(name))
        assert asked == [[v % n for v in range(1, n + 1) if n % v == 0]]
        # residue d shares the row of gcd(d, n)
        for d in range(n):
            assert table.nums[d] is table.nums[math.gcd(d, n) % n]

    @pytest.mark.parametrize("name", ["G2", "F4", "E8"])
    def test_qp_builds_one_polynomial_per_distinct_row(self, name):
        table = ehrhart_table(rid(name))
        L = ehrhart_qp(rid(name))
        assert len({id(c) for c in L.constituents}) == len(set(table.nums))
        assert list(L.constituents) == [RatPoly.over(num, table.den) for num in table.nums]

    @pytest.mark.parametrize("name", ["G2", "F4", "E8"])
    def test_numerators_is_the_cached_table(self, monkeypatch, name):
        # L_Phi is cached once, as its table, so `_layers` splits it once:
        # neither ehrhart_qp nor the shift kernel splits it again.
        table = ehrhart_table(rid(name))
        monkeypatch.setattr(ratpoly, "_layers", None)  # a second split would fail
        L = ehrhart_qp(rid(name))
        assert L.period == len(table.nums)
        assert apply_shift_qp(ONE, 1, ehrhart_table(rid(name))) == L


class TestInterpolation:
    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_matches_fraction_lagrange(self, ident):
        data = lookup(ident)
        n, l = data.period, data.rank
        counts = inverted_series(ident, l * n + n)
        L = ehrhart_qp(ident)
        for d in range(n):
            nodes = [(d + j * n, counts[d + j * n]) for j in range(l + 1)]
            assert L.constituent(d) == lagrange(nodes)

    def test_lagrange_oracle_by_hand(self):
        # (0, 1), (1, 3), (2, 7) lie on t^2 + t + 1
        assert lagrange([(0, 1), (1, 3), (2, 7)]) == RatPoly((1, 1, 1))

    @pytest.mark.parametrize("name", ["G2", "B3", "E6", "A4", "F4", "E8"])
    @pytest.mark.parametrize("where", ["first", "last", "first-residue-1", "last-residue-n-1"])
    def test_period_guard_catches_a_count_past_the_nodes(self, monkeypatch, name, where):
        # q is a node of a residue alone in its gcd class: the row of that
        # residue is interpolated through the wrong count and no other residue
        # reads it, so check (a) cannot see the fault and check (b) must.
        # Residues 0 and n/2 (n even) are alone; at n = 1 the second pair
        # takes inner nodes of residue 0.  The ids are kept stable from a
        # sampled guard that read counts past the nodes.
        data = lookup(rid(name))
        n, l = data.period, data.rank
        r = n // 2
        inner = 1 if r == 0 else 0
        q = {
            "first": 0,
            "last": l * n,
            "first-residue-1": r + inner * n,
            "last-residue-n-1": r + (l - inner) * n,
        }[where]
        assert [d for d in range(n) if math.gcd(d, n) == math.gcd(q, n)] == [q % n]
        honest = ehrhart._denumerant_counts

        def perturbed(marks, upto):
            counts = honest(marks, upto)
            counts[q] += 1
            return counts

        monkeypatch.setattr(ehrhart, "_denumerant_counts", perturbed)
        # past the table cache, which holds the honest table
        with pytest.raises(AssertionError, match=rf"period guard failed for {name} at z\^{q}: "):
            ehrhart_table.__wrapped__(rid(name))

    def test_period_guard_refuses_a_period_the_marks_do_not_divide(self, monkeypatch):
        # B2 read with period 1: the three counts 1, 2, 4 at q = 0..2 pass
        # checks (a) and (b), and their parabola gives 7 at q = 3 where
        # L_Phi(3) = 6; only check (c), that every mark divides the period,
        # refuses the table.
        honest = ehrhart.lookup
        monkeypatch.setattr(ehrhart, "lookup", lambda ident: honest(ident)._replace(period=1))
        with pytest.raises(SelfCheckFailed, match="period guard failed for B2: mark 2 does not divide the period 1"):
            ehrhart_table.__wrapped__(rid("B2"))

    @pytest.mark.parametrize(
        "name, q",
        [("E8", 7), ("E8", 7 + 8 * 60), ("E8", 59), ("F4", 10), ("G2", 5)],
    )
    def test_period_guard_catches_a_count_off_the_interpolated_rows(self, monkeypatch, name, q):
        # q is a node of its own residue (q mod n + j*n, j <= l), but that
        # residue shares the row of a smaller one with the same gcd, so only
        # the guard reads the count at q.
        data = lookup(rid(name))
        n, l = data.period, data.rank
        assert q < (l + 1) * n and math.gcd(q, n) % n != q % n
        honest = ehrhart._denumerant_counts

        def perturbed(marks, upto):
            counts = honest(marks, upto)
            counts[q] += 1
            return counts

        monkeypatch.setattr(ehrhart, "_denumerant_counts", perturbed)
        with pytest.raises(AssertionError, match=f"period guard failed for {name} at q = {q}:"):
            ehrhart_table.__wrapped__(rid(name))


class TestSeries:
    def test_g2_first_eight(self):
        assert series_coeffs(rid("G2"), 8) == [1, 1, 2, 3, 4, 5, 7, 8]

    def test_a1(self):
        assert series_coeffs(rid("A1"), 4) == [1, 2, 3, 4]

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_two_path_equivalence(self, ident):
        # series inversion vs the denumerant counts vs interpolated
        # quasi-polynomial evaluation
        N = 40
        coeffs = inverted_series(ident, N)
        assert series_coeffs(ident, N) == coeffs
        L = ehrhart_qp(ident)
        assert [L.value(q) for q in range(N)] == coeffs

    def test_count_validation(self):
        with pytest.raises(ValueError):
            series_coeffs(rid("G2"), 0)


class TestReciprocity:
    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_holds_for_all_systems(self, ident):
        data = lookup(ident)
        assert ehrhart.mirror_failure(ehrhart_qp(ident), data.rank, -data.coxeter_number) is None

    def test_a1_by_hand(self):
        assert ehrhart.mirror_failure(QuasiPoly((RatPoly((1, 1)),)), 1, -2) is None

    def test_mutation_detected(self):
        L = ehrhart_qp(rid("G2"))
        bumped = list(L.constituents)
        bumped[2] = bumped[2] + RatPoly((1,))
        # residue 2 mirrors residue -6 - 2 = 4 mod 6; 2 is met first
        assert ehrhart.mirror_failure(QuasiPoly(tuple(bumped)), 2, -6) == 2

    @pytest.mark.parametrize("name", ["A3", "B3", "E6", "G2"])
    def test_numeric_form(self, name):
        data = lookup(rid(name))
        L = ehrhart_qp(rid(name))
        for q in range(0, 20):
            assert L.value(-q) == (-1) ** data.rank * L.value(q - data.coxeter_number)


class TestApplyShiftQP:
    def test_identity_operator(self):
        g2 = rid("G2")
        assert apply_shift_qp(ONE, 1, ehrhart_table(g2)) == ehrhart_qp(g2)

    def test_worpitzky_g2(self):
        g2 = rid("G2")
        R = generalized_eulerian(g2)
        out = apply_shift_qp(R, 1, ehrhart_table(g2))
        assert all(c == RatPoly((0, 0, 1)) for c in out.constituents)

    def test_half_operator_mod_three_table(self):
        g2 = rid("G2")
        half = truncate_half(generalized_eulerian(g2), 6)
        out = apply_shift_qp(half, 1, ehrhart_table(g2))
        expect = {
            0: RatPoly((0, 10, 6)).scale(Fraction(1, 12)),
            1: RatPoly((-4, 10, 6)).scale(Fraction(1, 12)),
            2: RatPoly((4, 10, 6)).scale(Fraction(1, 12)),
        }
        for d in range(6):
            assert out.constituent(d) == expect[d % 3]

    def test_period_preserved(self):
        L = ehrhart_qp(rid("E7"))
        out = apply_shift_qp(monomial(1), 5, ehrhart_table(rid("E7")))
        assert out.period == L.period
        assert out.constituent(3) == L.constituent(3 - 5).compose_affine(1, -5)


class TestGcdProperty:
    def test_constant_quasi_polynomial(self):
        qp = QuasiPoly((RatPoly((7,)),) * 4)
        assert gcd_witness(qp) is None

    def test_half_char_quasi_fails_gcd(self):
        from linchar.linial import char_quasi

        i, j = gcd_witness(char_quasi(rid("G2"), 1, True))
        assert math.gcd(i, 6) == math.gcd(j, 6)

    def test_witness_identifies_differing_pair(self):
        qp = QuasiPoly((RatPoly((1,)), RatPoly((2,)), RatPoly((3,)), RatPoly((5,))))
        assert gcd_witness(qp) == (1, 3)
