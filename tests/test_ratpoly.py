import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linchar import verify
from linchar.errors import InexactDivision
from linchar.ratpoly import RatPoly, apply_shift
from linchar.verify import (
    WITNESS_PRIME,
    _primitive,
    _quotient,
    _remainders,
    _squarefree_factors,
    _squarefree_mod_prime,
    check_on_line_exact,
    halfplane_exact,
)
from polys import ONE, ZERO, coeff, derivative, evaluate, from_json, from_roots, monic, monomial, mul, neg, power, sub
from strategies import numerators, polys, rationals, sized

T = RatPoly((0, 1))
NEG_INF = -math.inf  # the left end of (-inf, 0] in `fraction_sturm_count`


def poly(*ascending):
    return RatPoly(ascending)


def all_roots_real_nonpositive(G):
    """Every root of G real and <= 0, with multiplicity, as the line
    verdict decides it: G(s^2) has even parity, and `check_on_line_exact` at
    Re s = 0 asks `verify._counts` for all 2 deg G of its roots on the line."""
    return check_on_line_exact(RatPoly.over([x for c in G.nums for x in (c, 0)], G.den), 0).on_line


#: Coefficients x / den with |x / den| <= 10 and den in 1..6.
small_fractions = rationals(10, 6)
small_polys = polys(10, 6)
small_operators = polys(10, 6, max_size=4)


class TestRatPolyBasics:
    def test_normalization_strips_trailing_zeros(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero
        assert poly().degree == -1

    def test_arithmetic(self):
        p, q = poly(1, 2), poly(0, 0, 3)
        assert p + q == poly(1, 2, 3)
        assert sub(p, p) == ZERO
        assert mul(p, q) == poly(0, 0, 3, 6)
        assert power(T + ONE, 2) == poly(1, 2, 1)
        assert p.scale(Fraction(1, 2)) == poly(Fraction(1, 2), 1)
        with pytest.raises(TypeError):  # a sum takes two polynomials, no scalar
            p + 1

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            RatPoly((0.5, 1))

    def test_evaluate_exact_and_numeric(self):
        # the reference evaluation of tests/polys.py, and linchar's own
        # integer-point value, den * p(x), against it
        p = poly(1, -3, 2)  # 2t^2 - 3t + 1
        assert evaluate(p, Fraction(1, 2)) == 0
        assert evaluate(p, 2) == 3
        q = poly(Fraction(1, 2), 0, Fraction(1, 3))  # (3 + 2t^2) / 6
        assert evaluate(q, Fraction(1, 2)) == Fraction(7, 12)
        points = (-3, 0, 3)
        assert [q.scaled_value(x) for x in points] == [q.den * evaluate(q, x) for x in points] == [21, 3, 21]
        for x in (1.0, 1j):
            with pytest.raises(TypeError):
                evaluate(p, x)

    def test_compose_affine(self):
        p = poly(0, 0, 1)  # t^2
        assert p.compose_affine(1, -1) == poly(1, -2, 1)
        assert p.compose_affine(2, 3) == poly(9, 12, 4)
        assert poly(5).compose_affine(7, -2) == poly(5)

    @pytest.mark.parametrize("a, b", [(1.0, 3), (-1.0, 3), (1, 3.0), (Fraction(1), 2.5)])
    def test_compose_affine_refuses_floats(self, a, b):
        # a float equal to +-1 is refused like any other, on the zero polynomial too
        for p in (poly(1, 2, 3), ZERO):
            with pytest.raises(TypeError, match=r"^exact scalar expected \(int or Fraction\), got float$"):
                p.compose_affine(a, b)

    def test_divrem_and_gcd(self):
        p = from_roots([1, 2, 3])
        q, r = fraction_divrem(p, from_roots([2]))
        assert r.is_zero and q == from_roots([1, 3])
        assert remainder_gcd(p, from_roots([2, 5])) == from_roots([2])

    def test_inexact_division_is_named(self):
        p = from_roots([1, 2, 3])
        assert _quotient(p.nums, from_roots([2]).nums) == [3, -4, 1]
        with pytest.raises(InexactDivision):
            _quotient(p.nums, from_roots([4]).nums)

    def test_quotient_checks_every_leading_division(self):
        # 3 / 2 leaves a rest, though 1 - 1 * 1 leaves the final remainder 0
        # once the leading term is popped
        with pytest.raises(InexactDivision):
            _quotient([1, 3], [1, 2])  # (3t + 1) / (2t + 1)

    def test_quotient_keeps_the_sign_of_a_over_g(self):
        # primitive divisors with a negative leading coefficient
        assert _quotient([-1, 0, 1], [-1, -1]) == [1, -1]  # (t^2 - 1) / (-t - 1)
        assert _quotient([2, -5, -3], [1, -3]) == [2, 1]  # (1 - 3t)(t + 2) / (1 - 3t)
        assert _quotient([-2, 5, 3], [1, -3]) == [-2, -1]

    def test_quotient_divides_the_primitive_parts(self):
        # pp(a) / pp(g) whatever the contents of a and g
        assert _quotient([2, 3, 1], [2, 2]) == [2, 1]  # (t + 1)(t + 2) / (2t + 2)
        assert _quotient([12, 18, 6], [1, 1]) == [2, 1]
        assert _quotient([12, 18, 6], [-4, -4]) == [-2, -1]

    def test_squarefree(self):
        p = from_roots([-1, -1, -3])
        assert _squarefree_factors(p) == [
            (from_roots([-3]), 1),
            (from_roots([-1]), 2),
        ]

    def test_json_round_trip(self):
        p = poly(Fraction(-5, 3), 0, 7)
        assert from_json(p.to_json()) == p
        assert p.to_json() == {"coeffs": [["-5", "3"], ["0", "1"], ["7", "1"]]}

    @given(
        nums=st.lists(
            st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**260), 2**260)), max_size=8
        ),
        den=st.one_of(st.just(1), st.integers(1, 12), st.integers(2**200, 2**260)),
    )
    @example(nums=[0, 0, 5], den=1)
    @example(nums=[-(2**230) - 1, 0, 2**201], den=3 * 2**200)
    @settings(max_examples=200, deadline=None)
    def test_json_matches_the_fraction_form(self, nums, den):
        # The Fraction form is the oracle: to_json builds no Fraction.
        p = RatPoly.over(nums, den)
        assert p.to_json() == {"coeffs": [[str(c.numerator), str(c.denominator)] for c in p.coeffs]}
        assert from_json(p.to_json()) == p

    def test_pretty(self):
        assert poly(11, -6, 1).pretty() == "t^2 - 6*t + 11"
        assert ZERO.pretty() == "0"

    @pytest.mark.parametrize("p", [ZERO, poly(Fraction(-5, 3), 0, 7), poly(4, -6, 2)])
    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_equality_hash_and_canonical_form(self, p, clone):
        q = clone(p)
        assert q == p and hash(q) == hash(p)
        assert (q.nums, q.den) == (p.nums, p.den)
        with pytest.raises(AttributeError):
            q.den = 2


class TestApplyShift:
    def test_one_plus_s_on_square(self):
        # t^2 + (t-1)^2
        assert apply_shift(poly(1, 1), 1, poly(0, 0, 1)) == poly(1, -2, 2)

    def test_single_shift_step_three(self):
        assert apply_shift(poly(0, 1), 3, T) == poly(-3, 1)

    def test_g2_half_on_square_is_limit_poly(self):
        # (t-1)^2 + 3(t-2)^2 + 2(t-3)^2, expanded by hand
        f = poly(0, 1, 3, 2)
        assert apply_shift(f, 1, poly(0, 0, 1)) == poly(31, -26, 6)

    def test_identity_and_zero_operator(self):
        g = poly(2, -1, 4)
        assert apply_shift(poly(1), 1, g) == g
        assert apply_shift(ZERO, 1, g) == ZERO

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            apply_shift(poly(1), 0, T)

    @given(
        f1=small_operators,
        f2=small_operators,
        g=small_polys,
        k=st.integers(min_value=1, max_value=4),
    )
    @example(f1=ZERO, f2=poly(3, Fraction(-1, 2)), g=poly(0, 0, 1), k=2)
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_operator(self, f1, f2, g, k):
        assert apply_shift(f1 + f2, k, g) == apply_shift(f1, k, g) + apply_shift(f2, k, g)

    @given(
        f=small_operators,
        g1=small_polys,
        g2=small_polys,
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_in_argument(self, f, g1, g2, k):
        assert apply_shift(f, k, g1 + g2) == apply_shift(f, k, g1) + apply_shift(f, k, g2)

    @given(
        f=small_operators,
        g=small_polys,
        k=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_inflate_agrees_with_step(self, f, g, k):
        # f(S**k) as an operator in S: coefficient i moves to k*i
        inflated = ZERO
        for i, c in enumerate(f.coeffs):
            inflated = inflated + monomial(k * i, c)
        assert apply_shift(f, k, g) == apply_shift(inflated, 1, g)


class TestReflect:
    def test_examples(self):
        assert T.compose_affine(-1, 6) == poly(6, -1)
        fixed = poly(11, -6, 1)  # symmetric about 3
        assert fixed.compose_affine(-1, 6) == fixed
        cube = from_roots([1, 1, 1])
        assert cube.compose_affine(-1, 0) == neg(from_roots([-1, -1, -1]))

    @given(g=small_polys, M=small_fractions)
    @settings(max_examples=80, deadline=None)
    def test_involution(self, g, M):
        assert g.compose_affine(-1, M).compose_affine(-1, M) == g


class TestSturm:
    """The on-line reading of `verify._counts`, through `check_on_line_exact`,
    against planted roots and the Fraction Sturm chain."""

    def test_examples(self):
        assert not all_roots_real_nonpositive(from_roots([1, 2]))
        assert all_roots_real_nonpositive(from_roots([-1, -2]))
        assert not all_roots_real_nonpositive(poly(1, 0, 1))
        assert not all_roots_real_nonpositive(from_roots([0, 0, 5]))
        assert all_roots_real_nonpositive(from_roots([0, 0, -5]))

    def test_right_endpoint_included_left_excluded(self):
        # (-inf, 0]: a root at 0 counts, of any multiplicity; one just right of 0 does not
        for roots in ([0, -3], [0, 0, 0, -3, -3], [0, 0]):
            assert all_roots_real_nonpositive(from_roots(roots))
        assert not all_roots_real_nonpositive(from_roots([Fraction(1, 100), -3]))
        assert not all_roots_real_nonpositive(from_roots([0, 0, Fraction(1, 100)]))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            all_roots_real_nonpositive(ZERO)
        assert all_roots_real_nonpositive(poly(-3))  # no roots at all

    def test_random_planted_integer_roots(self):
        rng = random.Random(20240811)
        verdicts = []
        for _ in range(150):
            deg = rng.randint(1, 6)
            roots = [rng.randint(-6, 2) for _ in range(deg)]
            p = from_roots(roots, leading=rng.choice([1, -2, 3]))
            n_complex_pairs = rng.randint(0, 1)
            for _ in range(n_complex_pairs):
                a, b = rng.randint(-3, 3), rng.randint(1, 3)
                p = mul(p, poly(a * a + b * b, -2 * a, 1))  # (t-a)^2 + b^2
            expected = not n_complex_pairs and max(roots) <= 0
            assert all_roots_real_nonpositive(p) is expected
            assert fraction_sturm_count(p, NEG_INF, 0) == len({r for r in roots if r <= 0})
            verdicts.append(expected)
        assert 20 <= sum(verdicts) <= 130


small_roots = st.one_of(st.just(Fraction(0)), small_fractions)
nonzero_fractions = small_fractions.filter(bool)


@st.composite
def planted_root_polys(draw):
    """(p, expected): p = lead * prod (t - r)^k * prod ((t - a)^2 + b^2)^j with
    rational r of either sign (0 included), k in 1..3, b != 0 and j in 1..2,
    so every root is real and <= 0 exactly when no r is positive and there
    is no complex pair."""
    linear = sized(draw, st.tuples(small_roots, st.integers(1, 3)), 0, 3)
    pairs = sized(draw, st.tuples(small_fractions, nonzero_fractions, st.integers(1, 2)), 0, 2)
    p = RatPoly((draw(nonzero_fractions),))
    for r, k in linear:
        p = mul(p, power(RatPoly((-r, 1)), k))
    for a, b, j in pairs:
        p = mul(p, power(RatPoly((a * a + b * b, -2 * a, 1)), j))
    return p, not pairs and all(r <= 0 for r, _k in linear)


class TestAllRootsRealNonpositive:
    @given(case=planted_root_polys())
    @settings(max_examples=120, deadline=None)
    def test_planted_factors(self, case):
        p, expected = case
        assert all_roots_real_nonpositive(p) is expected

    @given(case=planted_root_polys())
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy_roots(self, case):
        sympy = pytest.importorskip("sympy")
        p, _expected = case
        if p.degree == 0:
            return
        x = sympy.Symbol("x")
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        expr = sympy.Poly(coeffs, x)
        real = sympy.real_roots(expr)  # with multiplicity
        expected = len(real) == p.degree and all(r <= 0 for r in real)
        assert all_roots_real_nonpositive(p) is expected

    def test_examples(self):
        assert all_roots_real_nonpositive(from_roots([-1, -1, -3]))
        assert not all_roots_real_nonpositive(poly(1, 0, 1))
        assert all_roots_real_nonpositive(from_roots([0, -2]))

    def test_positive_root_detected(self):
        assert not all_roots_real_nonpositive(from_roots([-1, 2]))

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            all_roots_real_nonpositive(ZERO)


class TestRouthHurwitz:
    """The left reading of `verify._counts`, through `halfplane_exact`, on
    examples of Routh's test and against numeric roots."""

    def test_examples(self):
        assert halfplane_exact(poly(1, 1), 0) is True
        assert halfplane_exact(poly(-1, 0, 1), 0) is False
        assert halfplane_exact(poly(1, 0, 1), 0) is False

    def test_roots_on_axis_not_conclusive_true(self):
        # (t^2+1)(t+1): the roots +-i count on the line, not left of it
        p = mul(poly(1, 0, 1), poly(1, 1))
        assert halfplane_exact(p, 0) is not True

    def test_stable_cubic_and_unstable_cubic(self):
        assert halfplane_exact(from_roots([-1, -2, -3]), 0) is True
        assert halfplane_exact(poly(2, 1, 1, 1), 0) is False

    def test_degree_zero_vacuous(self):
        assert halfplane_exact(poly(5), 0) is True

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            halfplane_exact(ZERO, 0)

    def test_true_implies_numeric_left_halfplane(self):
        from linchar.verify import find_roots

        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            deg = rng.randint(1, 6)
            p = from_roots([rng.randint(-9, -1) for _ in range(deg)])
            for _ in range(rng.randint(0, 2)):
                a, b = rng.randint(-5, -1), rng.randint(1, 4)
                p = mul(p, poly(a * a + b * b, -2 * a, 1))
            if halfplane_exact(p, 0) is True:
                checked += 1
                assert max(z.real for z in find_roots(p).roots) < 0
        assert checked >= 50


# -- second paths for the integer routines ---------------------------------------
#
# The package computes substitution, gcd, exact division, the square-free split
# and Sturm chains on integer numerators.  The oracles below are the Fraction
# algorithms those replaced: Horner substitution, Euclid with Fraction long
# division, Yun's algorithm on those, and the Sturm chain of negated
# long-division remainders, evaluated at the endpoints in Fraction.


def remainder_gcd(p, q):
    """Monic gcd of p and q (not both zero): the last element of the
    integer remainder sequence."""
    if p.is_zero:
        p, q = q, p
    g = _remainders(_primitive(p.nums), _primitive(q.nums))[-1]
    return RatPoly.over(g, g[-1])


def fraction_divrem(p, q):
    """(quotient, remainder) of p by a nonzero q, by long division in Fraction."""
    quo = [Fraction(0)] * max(0, p.degree - q.degree + 1)
    rem = list(p.coeffs)
    while len(rem) > q.degree and rem:
        k = len(rem) - 1 - q.degree
        factor = rem[-1] / q.coeffs[-1]
        quo[k] = factor
        for j, c in enumerate(q.coeffs):
            rem[k + j] -= factor * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return RatPoly(quo), RatPoly(rem)


def fraction_remainders(p, q):
    """The Euclid sequence p, q, -rem(p, q), ... by Fraction long division,
    r_(k+1) = -rem(r_(k-1), r_k), up to its last nonzero element."""
    seq = [p]
    while not q.is_zero:
        seq.append(q)
        q = neg(fraction_divrem(seq[-2], q)[1])
    return seq


def fraction_compose_affine(p, a, b):
    """p(a*t + b) by Horner in Fraction."""
    acc = ZERO
    lin = RatPoly((b, a))
    for c in reversed(p.coeffs):
        acc = mul(acc, lin) + RatPoly((c,))
    return acc


def fraction_gcd(p, q):
    """Monic gcd over Q by Euclid with Fraction long division."""
    while not q.is_zero:
        p, q = q, fraction_divrem(p, q)[1]
    return ONE if p.is_zero else monic(p)


def fraction_exact_div(p, q):
    quo, rem = fraction_divrem(p, q)
    assert rem.is_zero
    return quo


def fraction_squarefree_factors(p):
    """Yun's decomposition with `fraction_gcd` and Fraction long division."""
    p = monic(p)
    if p.degree == 0:
        return []
    g = fraction_gcd(p, derivative(p))
    b = fraction_exact_div(p, g)
    c = fraction_exact_div(derivative(p), g)
    d = sub(c, derivative(b))
    factors, i = [], 1
    while b.degree > 0:
        a = fraction_gcd(b, d)
        if a.degree > 0:
            factors.append((a, i))
        b = fraction_exact_div(b, a)
        d = sub(fraction_exact_div(d, a), derivative(b))
        i += 1
    return factors


def fraction_sturm_count(p, a, b):
    """Distinct real roots of p in (a, b] from the Fraction Sturm chain,
    evaluated at rational endpoints in Fraction; ``a`` may be `NEG_INF`."""
    ps = fraction_exact_div(p, fraction_gcd(p, derivative(p)))
    if ps.degree == 0:
        return 0
    chain = [ps, derivative(ps)]
    while chain[-1].degree > 0:
        rem = fraction_divrem(chain[-2], chain[-1])[1]
        if rem.is_zero:
            break
        chain.append(neg(rem))

    def sign(q, x):
        v = q.coeffs[-1] * (-1) ** q.degree if x == NEG_INF else evaluate(q, x)
        return (v > 0) - (v < 0)

    def variations(x):
        nz = [s for s in (sign(q, x) for q in chain) if s]
        return sum(1 for u, v in zip(nz, nz[1:]) if u != v)

    return variations(a) - variations(b)


def fraction_all_roots_real_nonpositive(p):
    """The Fraction Sturm chain's verdict: the distinct real roots of p in
    (-inf, 0] are as many as the roots of its square-free part."""
    return fraction_sturm_count(p, NEG_INF, 0) == p.degree - fraction_gcd(p, derivative(p)).degree


@st.composite
def polys_with_repeats(draw):
    """Products f1 * f2**2 * f3**k of small rational polynomials, so that
    repeated factors (and common factors of p and p') are frequent."""
    factor = polys(10, 6, min_size=1, max_size=4)
    return mul(draw(factor), power(draw(factor), 2), power(draw(factor), draw(st.integers(0, 3))))


#: Products with repeated factors, or planted root sets that are often all
#: real and <= 0, each times t**k for k in 0..3: both verdicts are frequent,
#: and so is 0 as a multiple root, where g = gcd(p, p') has g(0) = 0.
sturm_inputs = st.builds(
    lambda p, k: mul(p, power(T, k)),
    st.one_of(polys_with_repeats(), planted_root_polys().map(lambda case: case[0])),
    st.integers(0, 3),
)


def fraction_form(coeffs):
    """Fraction coefficients with the trailing zeros dropped, as `coeffs` reads."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def assert_canonical(p):
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1] != 0


class TestSquarefreeWitness:
    """The prime witness against the integer split it skips (Musser's, on
    `_remainders`) and against Yun's algorithm over Fraction."""

    @pytest.fixture
    def remainder_calls(self, monkeypatch):
        calls = []
        remainders = verify._remainders

        def counted(a, b):
            calls.append((a, b))
            return remainders(a, b)

        monkeypatch.setattr(verify, "_remainders", counted)
        return calls

    def test_squarefree_input_skips_yun(self, remainder_calls):
        p = from_roots([Fraction(-1, 2), 3, 7], leading=6)
        assert _squarefree_mod_prime(p.nums)
        assert _squarefree_factors(p) == [(monic(p), 1)]
        assert remainder_calls == []
        assert fraction_squarefree_factors(p) == [(monic(p), 1)]

    def test_repeated_root_falls_back(self, remainder_calls):
        p = from_roots([-1, -1, -3])
        assert not _squarefree_mod_prime(p.nums)
        assert _squarefree_factors(p) == [
            (from_roots([-3]), 1),
            (from_roots([-1]), 2),
        ]
        assert remainder_calls

    def test_squarefree_over_q_but_not_mod_the_prime(self, remainder_calls):
        # (t - 1)**2 + q has discriminant -4q, but is (t - 1)**2 mod q
        p = poly(1 + WITNESS_PRIME, -2, 1)
        assert not _squarefree_mod_prime(p.nums)
        assert _squarefree_factors(p) == [(p, 1)]
        assert remainder_calls

    def test_prime_dividing_the_leading_coefficient_is_no_witness(self, remainder_calls):
        p = poly(1, 1, WITNESS_PRIME)
        assert not _squarefree_mod_prime(p.nums)
        assert _squarefree_factors(p) == [(monic(p), 1)]
        assert remainder_calls

    def test_witness_prime_is_a_prime_below_2_to_the_30(self):
        # below 2**30 every residue is one digit of a CPython int
        sympy = pytest.importorskip("sympy")
        assert sympy.isprime(WITNESS_PRIME)
        assert WITNESS_PRIME < 2**30

    def test_linear_and_constant(self):
        assert _squarefree_mod_prime((5, 3))
        assert _squarefree_factors(poly(7)) == []

    @given(p=polys_with_repeats())
    @settings(max_examples=80, deadline=None)
    def test_witness_agrees_with_yun(self, p):
        if p.degree < 1:
            return
        yun = fraction_squarefree_factors(p)
        with pytest.MonkeyPatch.context() as mp:  # force the integer split
            mp.setattr(verify, "_squarefree_mod_prime", lambda a: False)
            assert _squarefree_factors(p) == yun
        if _squarefree_mod_prime(p.nums):
            assert yun == [(monic(p), 1)]
        assert _squarefree_factors(p) == yun


class TestIntegerPaths:
    @given(p=small_polys, q=small_polys)
    @example(p=ZERO, q=poly(Fraction(-5, 3), 0, 7))
    @settings(max_examples=100, deadline=None)
    def test_add_sub_mul_match_fraction_formulas(self, p, q):
        n = max(p.degree, q.degree) + 1
        sums = [coeff(p, j) + coeff(q, j) for j in range(n)]
        diffs = [coeff(p, j) - coeff(q, j) for j in range(n)]
        prods = [
            sum((coeff(p, i) * coeff(q, k - i) for i in range(k + 1)), Fraction(0))
            for k in range(2 * n)
        ]
        for got, want in ((p + q, sums), (sub(p, q), diffs), (mul(p, q), prods)):
            assert got.coeffs == fraction_form(want)
            assert_canonical(got)

    @given(p=small_polys, s=small_fractions)
    @example(p=ZERO, s=Fraction(7, 6))
    @settings(max_examples=100, deadline=None)
    def test_scale_derivative_monic_match_fraction_formulas(self, p, s):
        assert p.scale(s).coeffs == fraction_form(c * s for c in p.coeffs)
        assert derivative(p).coeffs == fraction_form(j * c for j, c in enumerate(p.coeffs) if j)
        for got in (p.scale(s), derivative(p)):
            assert_canonical(got)
        if not p.is_zero:
            normalized = monic(p)
            assert normalized.coeffs == fraction_form(c / p.coeffs[-1] for c in p.coeffs)
            assert_canonical(normalized)

    @given(p=small_polys, x=st.one_of(st.integers(-20, 20), small_fractions))
    @settings(max_examples=100, deadline=None)
    def test_exact_evaluate_matches_fraction_sum(self, p, x):
        value = evaluate(p, x)
        assert isinstance(value, Fraction)
        assert value == sum((c * Fraction(x) ** j for j, c in enumerate(p.coeffs)), Fraction(0))

    @given(p=small_polys, x=st.integers(-200, 200))
    @settings(max_examples=100, deadline=None)
    def test_scaled_value_is_den_times_the_value(self, p, x):
        value = p.scaled_value(x)
        assert type(value) is int and value == p.den * evaluate(p, x)

    @given(
        nums=st.lists(st.integers(-50, 50), max_size=6),
        den=st.integers(-30, 30).filter(bool),
        k=st.integers(-12, 12).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_over_is_canonical(self, nums, den, k):
        p = RatPoly.over(nums, den)
        q = RatPoly.over([k * x for x in nums], k * den)
        assert_canonical(p)
        assert (q.den, q.nums, hash(q)) == (p.den, p.nums, hash(p))
        assert p == q == RatPoly([Fraction(x, den) for x in nums])

    def test_over_examples(self):
        assert (RatPoly.over((), 5).nums, RatPoly.over((), 5).den) == ((), 1)
        p = RatPoly.over([2, 4, 0], -6)
        assert (p.nums, p.den) == ((-1, -2), 3)
        assert p.coeffs == (Fraction(-1, 3), Fraction(-2, 3))
        with pytest.raises(ZeroDivisionError):
            RatPoly.over([1], 0)

    @given(p=small_polys, a=small_fractions, b=small_fractions)
    @example(p=ZERO, a=Fraction(-1, 2), b=3)
    @settings(max_examples=100, deadline=None)
    def test_compose_affine_matches_fraction_horner(self, p, a, b):
        assert p.compose_affine(a, b) == fraction_compose_affine(p, a, b)

    @given(
        p=polys(10, 6, max_size=10),
        a=st.one_of(st.sampled_from([1, -1]), small_fractions),
        b=st.one_of(
            st.integers(-3 * 10**7, 3 * 10**7),  # E8's centre m*h/2 at m = 10**6
            st.integers(-60, 60).map(Fraction),
            small_fractions,
        ),
    )
    @example(p=poly(1, -2, 3, 4), a=-1, b=Fraction(5, 2))
    @settings(max_examples=200, deadline=None)
    def test_compose_affine_matches_fraction_horner_at_linchar_substitutions(self, p, a, b):
        """t -> +-t + b with an integer b is nearly every substitution linchar
        makes; a rational a or b scales the shift by powers of c and A."""
        assert p.compose_affine(a, b) == fraction_compose_affine(p, a, b)

    @given(p=polys_with_repeats(), q=polys_with_repeats())
    @settings(max_examples=60, deadline=None)
    def test_gcd_matches_euclid(self, p, q):
        if p.is_zero and q.is_zero:
            return
        assert remainder_gcd(p, q) == fraction_gcd(p, q)
        if not p.is_zero:
            assert remainder_gcd(p, derivative(p)) == fraction_gcd(p, derivative(p))

    @given(p=polys_with_repeats(), q=polys_with_repeats())
    # coprime, so the sequence ends in a constant
    @example(p=from_roots([1, 2, 3], leading=-2), q=from_roots([-1, 5], leading=3))
    # it ends in the nonconstant gcd (t - 1)(t + 2)
    @example(p=mul(from_roots([1, -2]), poly(1, 0, 3)), q=mul(from_roots([1, -2]), poly(4, 1)))
    @example(p=poly(3, -1, 2), q=ZERO)  # b = 0 gives [a]
    # division by a negative leading coefficient: by q in the first and the
    # third, by -2t in t^3 + t, t^2 - 1, -2t, 1
    @example(p=from_roots([1, 2, 3], leading=2), q=from_roots([-1, 5], leading=-3))
    @example(p=poly(0, 1, 0, 1), q=poly(-1, 0, 1))
    @example(p=mul(from_roots([1, -2]), poly(1, 0, 3)), q=mul(from_roots([1, -2]), poly(4, -7)))
    @settings(max_examples=80, deadline=None)
    def test_remainders_match_fraction_euclid_element_by_element(self, p, q):
        """Each element of the integer sequence is a positive multiple of
        its match in the Fraction Euclid sequence, and the two end together."""
        if p.is_zero:
            return
        seq = _remainders(_primitive(p.nums), _primitive(q.nums))
        euclid = fraction_remainders(p, q)
        assert len(seq) == len(euclid)
        for got, want in zip(seq, euclid):
            ratio = got[-1] / want.coeffs[-1]
            assert ratio > 0 and RatPoly(got) == want.scale(ratio)

    @given(p=polys_with_repeats(), q=small_polys)
    @settings(max_examples=60, deadline=None)
    def test_exact_div_matches_long_division(self, p, q):
        if q.is_zero:
            return
        assert _quotient(mul(p, q).nums, q.nums) == _primitive(p.nums)
        quo, rem = fraction_divrem(p, q)
        if rem.is_zero:
            assert _quotient(p.nums, q.nums) == _primitive(quo.nums)
        else:
            with pytest.raises(InexactDivision):
                _quotient(p.nums, q.nums)

    @given(p=polys_with_repeats())
    @settings(max_examples=60, deadline=None)
    def test_squarefree_factors_match_yun_over_fractions(self, p):
        if p.is_zero:
            return
        assert _squarefree_factors(p) == fraction_squarefree_factors(p)

    @given(p=sturm_inputs)
    @example(from_roots([0, 0, -1, -1, -2]))
    @example(from_roots([0, 0, -1, Fraction(1, 3)]))
    @settings(max_examples=80, deadline=None)
    def test_sturm_count_matches_fraction_chain(self, p):
        if p.is_zero:
            return
        assert all_roots_real_nonpositive(p) is fraction_all_roots_real_nonpositive(p)

    @given(p=sturm_inputs)
    @settings(max_examples=50, deadline=None)
    def test_sturm_count_matches_sympy(self, p):
        sympy = pytest.importorskip("sympy")
        if p.is_zero or p.degree == 0:
            return
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
        real = sympy.real_roots(sympy.Poly(coeffs, sympy.Symbol("x")))  # with multiplicity
        expected = len(real) == p.degree and all(r <= 0 for r in real)
        assert all_roots_real_nonpositive(p) is expected

    @given(
        a=st.lists(st.integers(-30, 30), min_size=1, max_size=8),
        b=st.lists(st.integers(-30, 30), min_size=1, max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_sturm_verdict_through_negative_leading_coefficients(self, a, b):
        """The count's remainder sequences divide by elements with a negative
        leading coefficient, and still decide like the Fraction chain."""
        a, b = RatPoly(a), RatPoly(b)
        if a.is_zero or b.is_zero:
            return
        b = neg(b) if b.nums[-1] > 0 else b  # negative leading coefficient
        for p in (b, mul(a, a, b), mul(a, a, b, T, T)):
            assert all_roots_real_nonpositive(p) is fraction_all_roots_real_nonpositive(p)


def hurwitz_minors(p):
    """Leading principal minors of the Hurwitz matrix of p (leading
    coefficient made positive), each an exact Fraction determinant."""
    desc = list(reversed(p.coeffs))
    if desc[0] < 0:
        desc = [-c for c in desc]
    n = len(desc) - 1

    def a(k):
        return desc[k] if 0 <= k <= n else Fraction(0)

    H = [[a(2 * (j + 1) - (i + 1)) for j in range(n)] for i in range(n)]
    minors = []
    for k in range(1, n + 1):
        m = [row[:k] for row in H[:k]]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if m[r][col] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != col:
                m[col], m[pivot] = m[pivot], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, k):
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        minors.append(det)
    return minors


@st.composite
def routh_inputs(draw):
    """Coefficients x / den with |x / den| <= 6 over one den in 1..4 (den 1:
    integers), and in half of the draws only the even or only the odd powers
    of t, so that one parity part vanishes."""
    den = draw(st.integers(1, 4))
    nums = sized(draw, numerators(6, den), 1, 7)
    parity = draw(st.sampled_from([None, None, 0, 1]))
    if parity is not None:
        nums = [x if j % 2 == parity else 0 for j, x in enumerate(nums)]
    return RatPoly.over(nums, den)


class TestRouthAgainstHurwitzMinors:
    """The left reading of `verify._counts` against Hurwitz's criterion:
    every leading principal minor of the Hurwitz matrix positive."""

    @given(routh_inputs())
    @example(poly(2, 0, 3, 0, 1))  # t^4 + 3t^2 + 2: the odd part vanishes
    @example(poly(0, 1, 0, 1))  # t^3 + t: the even part vanishes
    @settings(max_examples=300, deadline=None)
    def test_matches_hurwitz_determinants(self, p):
        if p.is_zero:
            return
        expected = all(d > 0 for d in hurwitz_minors(p))
        assert halfplane_exact(p, 0) is expected

    @given(
        st.lists(st.integers(1, 5), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_planted_stable_polynomials(self, real, pairs):
        # roots -r and -a +- b*i: strictly Hurwitz by construction
        p = from_roots([-r for r in real])
        for re, im in pairs:
            p = mul(p, poly(re * re + im * im, 2 * re, 1))
        assert halfplane_exact(p, 0) is True
        assert all(d > 0 for d in hurwitz_minors(p))
