import math
from fractions import Fraction

import pytest

from linchar.ehrhart import series_coeffs
from linchar.errors import UnsupportedRank
from linchar.eulerian import generalized_eulerian, truncate_half
from linchar.oracles import asc_oracle
from linchar.ratpoly import RatPoly
from linchar.rootdata import ALL_TABLE_IDS, RootSystemId, lookup
from polys import coeff, evaluate, mul


def rid(text):
    return RootSystemId.parse(text)


#: Every exceptional system and the classical families up to rank 30.
TWO_PATH_IDS = tuple(
    [RootSystemId(family, l) for family, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for l in range(lo, 31)]
    + [rid(name) for name in ("E6", "E7", "E8", "F4", "G2")]
)


def q_analogue(c: int) -> RatPoly:
    """[c]_x = (x^c - 1)/(x - 1) = 1 + x + ... + x^(c-1)."""
    return RatPoly((1,) * c)


def classical(l: int) -> RatPoly:
    """R_{A_l}(x) = sum_k A(l, k) x^(k+1), each Eulerian number from the
    closed sum A(l, k) = sum_{j <= k} (-1)^j C(l+1, j) (k+1-j)^l rather than
    the recurrence `generalized_eulerian` builds its rows with."""
    return RatPoly([0] + [
        sum((-1) ** j * math.comb(l + 1, j) * (k + 1 - j) ** l for j in range(k + 1))
        for k in range(l)
    ])


def product_formula(ident) -> RatPoly:
    """R_Phi = R_{A_l} * prod_i [c_i]_x as `RatPoly` products over Fraction:
    a second path for the integer window sums of `generalized_eulerian`."""
    data = lookup(ident)
    return mul(classical(data.rank), *map(q_analogue, data.marks))


class TestClassicalEulerian:
    """R_{A_l} = generalized_eulerian(A_l), against the closed sum."""

    def test_small_ranks(self):
        for l, want in ((1, (0, 1)), (2, (0, 1, 1)), (3, (0, 1, 4, 1))):
            assert generalized_eulerian(RootSystemId("A", l)) == classical(l) == RatPoly(want)

    def test_rank_six(self):
        want = RatPoly((0, 1, 57, 302, 302, 57, 1))
        assert generalized_eulerian(RootSystemId("A", 6)) == classical(6) == want

    def test_coefficient_sum_is_factorial(self):
        for l in range(1, 9):
            assert evaluate(generalized_eulerian(RootSystemId("A", l)), 1) == Fraction(
                lookup(RootSystemId("A", l)).weyl_order, l + 1
            )

    def test_rank_past_the_recursion_limit(self):
        # generalized_eulerian keeps no cache: every row below 600 is built
        # here, in a loop.
        R = generalized_eulerian(RootSystemId("A", 600))
        assert R.degree == 600
        assert coeff(R, 1) == coeff(R, 600) == 1
        assert coeff(R, 2) == 2**600 - 601
        assert evaluate(R, 1) == math.factorial(600)


class TestGeneralizedEulerian:
    def test_g2(self):
        assert generalized_eulerian(rid("G2")) == RatPoly((0, 1, 3, 4, 3, 1))

    def test_e6(self):
        assert generalized_eulerian(rid("E6")) == RatPoly(
            (0, 1, 61, 537, 1916, 3782, 4686, 3782, 1916, 537, 61, 1)
        )

    @pytest.mark.parametrize("ident", TWO_PATH_IDS, ids=str)
    def test_matches_fraction_product(self, ident):
        assert generalized_eulerian(ident) == product_formula(ident)

    def test_type_a_reduces_to_classical(self):
        for l in (1, 3, 5):
            assert generalized_eulerian(RootSystemId("A", l)) == classical(l)

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_structure(self, ident):
        data = lookup(ident)
        R = generalized_eulerian(ident)
        assert R.degree == data.coxeter_number - 1
        assert coeff(R, 0) == 0 and coeff(R, 1) == 1
        assert all(c.denominator == 1 for c in R.coeffs)
        assert evaluate(R, 1) == Fraction(data.weyl_order, data.index_of_connection)

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_duality(self, ident):
        h = lookup(ident).coxeter_number
        R = generalized_eulerian(ident)
        # x^h R(1/x) reverses the coefficients of a degree-(h-1) polynomial
        # into indices 1..h; with R(0)=0 this is exactly coefficient reversal.
        reversed_R = RatPoly((0,) + tuple(reversed(R.coeffs[1:])))
        assert reversed_R == R

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_series_identity_with_ehrhart(self, ident):
        # R(z) * Ehr(z) = sum k^l z^k, checked on the first 50 coefficients
        N = 50
        data = lookup(ident)
        R = generalized_eulerian(ident)
        ehr = series_coeffs(ident, N)
        for k in range(N):
            conv = sum(int(coeff(R, j)) * ehr[k - j] for j in range(min(k, R.degree) + 1))
            assert conv == k**data.rank


class TestTruncateHalf:
    def test_g2(self):
        assert truncate_half(generalized_eulerian(rid("G2")), 6) == RatPoly((0, 1, 3, 2))

    def test_e6(self):
        assert truncate_half(generalized_eulerian(rid("E6")), 12) == RatPoly(
            (0, 1, 61, 537, 1916, 3782, 2343)
        )

    def test_odd_coxeter_number(self):
        assert truncate_half(RatPoly((0, 1, 1)), 3) == RatPoly((0, 1))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            truncate_half(RatPoly((0, 1, 1)), 6)

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_reassembly(self, ident):
        # R(x) = R'(x) + x^h R'(1/x)
        h = lookup(ident).coxeter_number
        R = generalized_eulerian(ident)
        half = truncate_half(R, h)
        mirrored = [Fraction(0)] * (h + 1)
        for i, c in enumerate(half.coeffs):
            if c:
                mirrored[h - i] = c
        assert half + RatPoly(mirrored) == R


class TestAscOracle:
    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    def test_matches_product_formula(self, name):
        assert asc_oracle(rid(name)) == generalized_eulerian(rid(name))

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D3"])
    def test_rank_three_types(self, name):
        assert asc_oracle(rid(name)) == generalized_eulerian(rid(name))

    def test_rank_cap(self):
        with pytest.raises(UnsupportedRank):
            asc_oracle(rid("B4"))
