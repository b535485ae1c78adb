import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linchar.errors import InexactDivision
from linchar.ratpoly import (
    NEG_INF,
    POS_INF,
    RatPoly,
    ShiftPoly,
    all_roots_real_nonpositive,
    apply_shift,
    reflect,
    routh_hurwitz_all_roots_left,
    sturm_real_root_count,
)

T = RatPoly((0, 1))


def poly(*ascending):
    return RatPoly(ascending)


small_fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)
small_polys = st.lists(small_fractions, min_size=0, max_size=6).map(RatPoly)


class TestRatPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero
        assert poly().degree == -1

    def test_arithmetic(self):
        p, q = poly(1, 2), poly(0, 0, 3)
        assert p + q == poly(1, 2, 3)
        assert p - p == RatPoly.zero()
        assert p * q == poly(0, 0, 3, 6)
        assert (T + 1) ** 2 == poly(1, 2, 1)
        assert p.scale(Fraction(1, 2)) == poly(Fraction(1, 2), 1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RatPoly((0.5, 1))

    def test_evaluate_exact_and_numeric(self):
        p = poly(1, -3, 2)  # 2t^2 - 3t + 1
        assert p.evaluate(Fraction(1, 2)) == 0
        assert p.evaluate(2) == 3
        assert p.evaluate(1.0) == pytest.approx(0.0)
        assert p.evaluate(1j) == pytest.approx(1 - 2 - 3j)

    def test_compose_affine(self):
        p = poly(0, 0, 1)  # t^2
        assert p.compose_affine(1, -1) == poly(1, -2, 1)
        assert p.compose_affine(2, 3) == poly(9, 12, 4)
        assert poly(5).compose_affine(7, -2) == poly(5)

    def test_divrem_and_gcd(self):
        p = RatPoly.from_roots([1, 2, 3])
        q, r = p.divrem(RatPoly.from_roots([2]))
        assert r.is_zero and q == RatPoly.from_roots([1, 3])
        assert p.gcd(RatPoly.from_roots([2, 5])) == RatPoly.from_roots([2])

    def test_inexact_division_is_named(self):
        p = RatPoly.from_roots([1, 2, 3])
        assert p.exact_div(RatPoly.from_roots([2])) == RatPoly.from_roots([1, 3])
        with pytest.raises(InexactDivision):
            p.exact_div(RatPoly.from_roots([4]))

    def test_squarefree(self):
        p = RatPoly.from_roots([-1, -1, -3])
        assert p.squarefree_part() == RatPoly.from_roots([-1, -3])
        assert p.squarefree_factors() == [
            (RatPoly.from_roots([-3]), 1),
            (RatPoly.from_roots([-1]), 2),
        ]

    def test_json_round_trip(self):
        p = poly(Fraction(-5, 3), 0, 7)
        assert RatPoly.from_json(p.to_json()) == p
        assert p.to_json() == {"coeffs": [["-5", "3"], ["0", "1"], ["7", "1"]]}

    def test_pretty(self):
        assert poly(11, -6, 1).pretty() == "t^2 - 6*t + 11"
        assert RatPoly.zero().pretty() == "0"


class TestApplyShift:
    def test_one_plus_s_on_square(self):
        # t^2 + (t-1)^2
        assert apply_shift(ShiftPoly((1, 1)), 1, poly(0, 0, 1)) == poly(1, -2, 2)

    def test_single_shift_step_three(self):
        assert apply_shift(ShiftPoly((0, 1)), 3, T) == poly(-3, 1)

    def test_g2_half_on_square_is_limit_poly(self):
        # (t-1)^2 + 3(t-2)^2 + 2(t-3)^2, expanded by hand
        f = ShiftPoly((0, 1, 3, 2))
        assert apply_shift(f, 1, poly(0, 0, 1)) == poly(31, -26, 6)

    def test_identity_and_zero_operator(self):
        g = poly(2, -1, 4)
        assert apply_shift(ShiftPoly((1,)), 1, g) == g
        assert apply_shift(ShiftPoly(()), 1, g) == RatPoly.zero()

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            apply_shift(ShiftPoly((1,)), 0, T)

    @given(
        f1=st.lists(small_fractions, max_size=4).map(ShiftPoly),
        f2=st.lists(small_fractions, max_size=4).map(ShiftPoly),
        g=small_polys,
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_operator(self, f1, f2, g, k):
        assert apply_shift(f1 + f2, k, g) == apply_shift(f1, k, g) + apply_shift(f2, k, g)

    @given(
        f=st.lists(small_fractions, max_size=4).map(ShiftPoly),
        g1=small_polys,
        g2=small_polys,
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_argument(self, f, g1, g2, k):
        assert apply_shift(f, k, g1 + g2) == apply_shift(f, k, g1) + apply_shift(f, k, g2)

    @given(
        f=st.lists(small_fractions, max_size=4).map(ShiftPoly),
        g=small_polys,
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_inflate_agrees_with_step(self, f, g, k):
        assert apply_shift(f, k, g) == apply_shift(f.inflate(k), 1, g)


class TestReflect:
    def test_examples(self):
        assert reflect(T, 6) == poly(6, -1)
        fixed = poly(11, -6, 1)  # symmetric about 3
        assert reflect(fixed, 6) == fixed
        cube = RatPoly.from_roots([1, 1, 1])
        assert reflect(cube, 0) == -RatPoly.from_roots([-1, -1, -1])

    @given(g=small_polys, M=small_fractions)
    @settings(max_examples=80, deadline=None)
    def test_involution(self, g, M):
        assert reflect(reflect(g, M), M) == g


class TestSturm:
    def test_examples(self):
        assert sturm_real_root_count(RatPoly.from_roots([1, 2]), NEG_INF, POS_INF) == 2
        assert sturm_real_root_count(poly(1, 0, 1), NEG_INF, POS_INF) == 0
        cubic = RatPoly.from_roots([0, 0, 5])
        assert sturm_real_root_count(cubic, 0, POS_INF) == 1
        assert sturm_real_root_count(cubic, -1, POS_INF) == 2

    def test_right_endpoint_included_left_excluded(self):
        p = RatPoly.from_roots([0, 3])
        assert sturm_real_root_count(p, 0, 3) == 1  # root 3 in, root 0 out
        assert sturm_real_root_count(p, -1, 0) == 1
        assert sturm_real_root_count(p, 3, 10) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sturm_real_root_count(RatPoly.zero(), NEG_INF, POS_INF)

    def test_random_planted_integer_roots(self):
        rng = random.Random(20240811)
        for _ in range(150):
            deg = rng.randint(1, 6)
            roots = [rng.randint(-6, 6) for _ in range(deg)]
            p = RatPoly.from_roots(roots, leading=rng.choice([1, -2, 3]))
            n_complex_pairs = rng.randint(0, 1)
            for _ in range(n_complex_pairs):
                a, b = rng.randint(-3, 3), rng.randint(1, 3)
                p = p * poly(a * a + b * b, -2 * a, 1)  # (t-a)^2 + b^2
            assert sturm_real_root_count(p, NEG_INF, POS_INF) == len(set(roots))


class TestAllRootsRealNonpositive:
    def test_examples(self):
        assert all_roots_real_nonpositive(RatPoly.from_roots([-1, -1, -3]))
        assert not all_roots_real_nonpositive(poly(1, 0, 1))
        assert all_roots_real_nonpositive(RatPoly.from_roots([0, -2]))

    def test_positive_root_detected(self):
        assert not all_roots_real_nonpositive(RatPoly.from_roots([-1, 2]))

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            all_roots_real_nonpositive(RatPoly.zero())


class TestRouthHurwitz:
    def test_examples(self):
        assert routh_hurwitz_all_roots_left(poly(1, 1)) is True
        assert routh_hurwitz_all_roots_left(poly(-1, 0, 1)) is False
        assert routh_hurwitz_all_roots_left(poly(1, 0, 1)) is None

    def test_roots_on_axis_not_conclusive_true(self):
        # (t^2+1)(t+1): zero row in the array
        p = poly(1, 0, 1) * poly(1, 1)
        assert routh_hurwitz_all_roots_left(p) is not True

    def test_stable_cubic_and_unstable_cubic(self):
        assert routh_hurwitz_all_roots_left(RatPoly.from_roots([-1, -2, -3])) is True
        assert routh_hurwitz_all_roots_left(poly(2, 1, 1, 1)) is False

    def test_degree_zero_vacuous(self):
        assert routh_hurwitz_all_roots_left(poly(5)) is True

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            routh_hurwitz_all_roots_left(RatPoly.zero())

    def test_true_implies_numeric_left_halfplane(self):
        from linchar.verify import find_roots

        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            deg = rng.randint(1, 6)
            p = RatPoly.from_roots([rng.randint(-9, -1) for _ in range(deg)])
            for _ in range(rng.randint(0, 2)):
                a, b = rng.randint(-5, -1), rng.randint(1, 4)
                p = p * poly(a * a + b * b, -2 * a, 1)
            if routh_hurwitz_all_roots_left(p) is True:
                checked += 1
                assert max(z.real for z in find_roots(p).roots) < 0
        assert checked >= 50
