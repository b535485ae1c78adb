import cmath
import functools
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linchar.oracles as oracles
import linchar.verify as verify
from linchar.errors import (
    NonConvergence,
    OracleTooLarge,
    OutOfDoubleRange,
    QTooSmall,
    UnsupportedRank,
)
from linchar.linial import char_poly, char_quasi, toy_poly
from linchar.oracles import ORACLE_MAX_POINTS, bruteforce_modq_counts, positive_roots
from linchar.ratpoly import RatPoly
from linchar.rootdata import EXCEPTIONAL_IDS, RootSystemId, lookup
from linchar.verify import (
    asymptotic_track,
    check_on_line_exact,
    check_on_line_numeric,
    find_roots,
    halfplane_exact,
    limit_combination,
    limit_poly,
    max_real_part,
)


GOLDEN = Path(__file__).parent / "data"


def rid(text):
    return RootSystemId.parse(text)


def line_center(name, m):
    """m*h/2, the line the conjecture puts every root of chi on."""
    return m * lookup(rid(name)).coxeter_number / 2


class TestFindRoots:
    def test_simple_quadratic(self):
        roots = find_roots(RatPoly((11, -6, 1))).roots
        assert sorted(z.imag for z in roots) == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-10)
        assert all(z.real == pytest.approx(3.0, abs=1e-10) for z in roots)

    def test_g2_limit_poly_roots(self):
        roots = find_roots(RatPoly((31, -26, 6))).roots
        assert all(z.real == pytest.approx(13 / 6, abs=1e-10) for z in roots)
        assert sorted(abs(z.imag) for z in roots) == pytest.approx(
            [math.sqrt(17) / 6, math.sqrt(17) / 6], abs=1e-10
        )

    def test_e6_limit_roots_match_printed_values(self):
        printed = [
            complex(4.55334, 0.465487),
            complex(4.55334, -0.465487),
            complex(4.78675, 1.55735),
            complex(4.78675, -1.55735),
            complex(5.37033, 3.11072),
            complex(5.37033, -3.11072),
        ]
        roots = find_roots(limit_poly(rid("E6"))).roots
        assert verify._match_distance(roots, printed) < 1e-4

    def test_multiplicities_and_root_count(self):
        p = RatPoly.from_roots([3, 3]) * RatPoly((1, 0, 1))
        rs = find_roots(p)
        assert len(rs.roots) == 4
        near3 = [z for z in rs.roots if abs(z - 3) < 1e-8]
        assert len(near3) == 2
        assert rs.converged

    def test_degree_one(self):
        rs = find_roots(RatPoly((Fraction(7, 3), 2)))
        assert rs.roots[0] == pytest.approx(-7 / 6)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            find_roots(RatPoly((5,)))

    def test_coefficients_below_double_range_are_a_named_error(self):
        # every coefficient divides to 0.0, so no residual can be scaled
        with pytest.raises(OutOfDoubleRange):
            find_roots(RatPoly.over([1, 1], 10**400))

    def test_residual_bound_small_on_project_polynomials(self):
        polys = [limit_poly(i) for i in EXCEPTIONAL_IDS]
        polys += [char_poly(rid(n), m) for n in ("G2", "F4", "E6") for m in (1, 2, 5)]
        polys += [toy_poly(rid("E7"), 3), limit_combination(rid("E8"))]
        for p in polys:
            assert find_roots(p).residual_bound < 1e-9

    def test_nonconvergence_carries_partial_results(self, monkeypatch):
        monkeypatch.setattr(verify, "_MAX_ITER", 1)
        with pytest.raises(NonConvergence) as excinfo:
            find_roots(limit_poly(rid("E6")))
        partial = excinfo.value.partial
        assert partial is not None
        assert not partial.converged
        assert len(partial.roots) == 6

    def test_nonconvergence_names_the_stop(self, monkeypatch):
        # A60's limit polynomial stalls again after centring, long before the
        # budget; a budget of one iteration stops E6's first.
        with pytest.raises(NonConvergence) as floor:
            find_roots(limit_poly(rid("A60")))
        assert str(floor.value) == (
            "Aberth iteration stalled at the rounding floor of Horner's rule after centring"
        )
        assert len(floor.value.partial.roots) == 60
        monkeypatch.setattr(verify, "_MAX_ITER", 1)
        with pytest.raises(NonConvergence) as budget:
            find_roots(limit_poly(rid("E6")))
        assert str(budget.value) == "Aberth iteration did not converge within 1 iterations"

    def test_colliding_iterates_are_named(self, monkeypatch):
        # Two equal iterates divide by zero in the Aberth sum; that is a
        # failure to converge, not a polynomial outside the doubles.
        real_aberth = verify._aberth

        def collide(c, z, radius):
            z[1] = z[0]
            return real_aberth(c, z, radius)

        monkeypatch.setattr(verify, "_aberth", collide)
        with pytest.raises(NonConvergence) as excinfo:
            find_roots(RatPoly((1, 0, 1)))
        assert str(excinfo.value) == "Aberth iterates collided: two became equal"
        assert excinfo.value.partial is None
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_deterministic(self):
        p = limit_poly(rid("F4"))
        assert find_roots(p).roots == find_roots(p).roots


# Classical inputs whose monomial coefficients cancel so heavily in doubles
# that the iteration stalls on a noise floor and has to finish on the factor
# centred at its root centroid.
STALLING = [("A20", 9999), ("A24", 1084), ("A28", 1), ("B16", 33), ("C18", 1630)]


def record_statuses(monkeypatch):
    """The list every later `_aberth` call appends its status to."""
    real_aberth = verify._aberth
    statuses = []

    def recording(c, z, radius):
        statuses.append(real_aberth(c, z, radius))
        return statuses[-1]

    monkeypatch.setattr(verify, "_aberth", recording)
    return statuses


class TestFindRootsCentredStage:
    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_converges_on_the_line(self, name, m):
        rs = find_roots(char_poly(rid(name), m))
        assert rs.converged
        assert len(rs.roots) == rid(name).rank
        assert all(z.real == line_center(name, m) for z in rs.roots)
        assert rs.residual_bound < 1e-15

    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_matches_mpmath(self, name, m):
        mpmath = pytest.importorskip("mpmath")
        p = char_poly(rid(name), m)
        with mpmath.workdps(50):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
            want = [complex(z) for z in mpmath.polyroots(coeffs, maxsteps=400, extraprec=100)]
        scale = max(abs(w) for w in want)
        assert verify._match_distance(find_roots(p).roots, want) <= 1e-10 * scale

    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_stage_one_stops_at_the_rounding_floor(self, name, m, monkeypatch):
        statuses = record_statuses(monkeypatch)
        find_roots(char_poly(rid(name), m))
        assert statuses == ["stalled", "converged"]

    def test_stage_one_roots_unchanged(self, monkeypatch):
        """Inputs that converge without centring keep the exact floats they had
        before the centred stage existed."""
        statuses = record_statuses(monkeypatch)
        golden = json.loads((GOLDEN / "find_roots_golden.json").read_text())
        for key, want in golden["char_poly"].items():
            name, m = key.split()
            got = find_roots(char_poly(rid(name), int(m))).roots
            assert [[z.real, z.imag] for z in got] == want, key
        for name, want in golden["limit_poly"].items():
            got = find_roots(limit_poly(rid(name))).roots
            assert [[z.real, z.imag] for z in got] == want, name
        assert set(statuses) == {"converged"}

    def test_failed_centred_stage_raises_with_partial_results(self, monkeypatch):
        real_aberth = verify._aberth
        statuses = []

        def centred_stage_fails(c, z, radius):
            statuses.append(real_aberth(c, z, radius))
            return statuses[-1] if len(statuses) == 1 else "spent"

        monkeypatch.setattr(verify, "_aberth", centred_stage_fails)
        with pytest.raises(NonConvergence) as excinfo:
            find_roots(char_poly(rid("A20"), 9999))
        assert statuses == ["stalled", "converged"]
        partial = excinfo.value.partial
        assert not partial.converged
        assert len(partial.roots) == 20


def exact_value(c, z):
    """p(z) over Q as (real, imaginary) for float coefficients c (ascending)
    and a complex float z."""
    x, y = Fraction(z.real), Fraction(z.imag)
    re, im = Fraction(0), Fraction(0)
    for ck in reversed(c):
        re, im = re * x - im * y + Fraction(ck), re * y + im * x
    return re, im


@functools.lru_cache(maxsize=None)
def stalling_case(index):
    """Monic floats of a STALLING polynomial and its roots."""
    name, m = STALLING[index]
    p = char_poly(rid(name), m)
    return verify._monic_floats(p), find_roots(p).roots


# Components of evaluation points: zero or of modulus in [1e-3, 1e3], so no
# product underflows, which the rounding model of the bound excludes.
component = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


class TestHornerErrorBound:
    def check(self, c, z):
        got = verify._horner2(c, z)[0]
        re, im = exact_value(c, z)
        error_squared = (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2
        assert error_squared <= Fraction(verify._horner_error_bound(c, z)) ** 2

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-8, 1e8), st.floats(-1e8, -1e-8)),
            min_size=1,
            max_size=30,
        ),
        component,
        component,
    )
    def test_monic_polynomials(self, lower, x, y):
        self.check(lower + [1.0], complex(x, y))

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(0, len(STALLING) - 1),
        st.data(),
        st.integers(-14, 0),
        st.floats(-1, 1),
        st.floats(-1, 1),
    )
    def test_stalling_inputs_near_their_roots(self, index, data, exponent, a, b):
        """Points within 10**exponent * |root| of a root on the line
        Re t = m*h/2, where the coefficients cancel most."""
        c, roots = stalling_case(index)
        root = data.draw(st.sampled_from(roots))
        self.check(c, root + complex(a, b) * abs(root) * 10.0**exponent)


# The sweep as it was when it computed with float coefficients and a float
# numerator, kept verbatim as the reference for its complex-only form: the
# two must give the same statuses and the same iterates to the last bit.
# That holds only where a float operand becomes complex(x, 0.0) before a
# mixed operation, as in CPython 3.10-3.13; CPython 3.14 adds and divides
# mixed operands by C99 Annex G rules instead, so -0.0 + 0.0 and 1.0 / w
# may round otherwise there.
FLOATS_BECOME_COMPLEX = (complex(1.0, -0.0) + 1.0).imag.hex() == (
    complex(1.0, -0.0) + complex(1.0)
).imag.hex()


def reference_horner2(coeffs, z):
    """Value and derivative at z (coefficients ascending)."""
    p = 0j
    dp = 0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def reference_aberth(c, z, radius):
    """`verify._aberth` on float coefficients, with 1.0 as the numerator."""
    prev_corr = math.inf
    for _ in range(verify._MAX_ITER):
        max_corr = 0.0
        start = z[:]
        values = []
        for j, zj in enumerate(start):
            p, dp = reference_horner2(c, zj)
            values.append(p)
            if p == 0:
                continue
            if dp == 0:
                z[j] += radius * (1e-6 + 1e-6j)
                max_corr = radius
                continue
            newton = p / dp
            s = sum([1.0 / (zj - zk) for zk in itertools.chain(z[:j], z[j + 1:])])
            denom = 1.0 - newton * s
            w = newton if denom == 0 else newton / denom
            z[j] -= w
            if not cmath.isfinite(z[j]):  # max() below would drop a NaN correction
                raise OutOfDoubleRange("Aberth iterate left the range of doubles")
            max_corr = max(max_corr, abs(w))
        if max_corr < verify._CORRECTION_TOL * radius:
            return "converged"
        if max_corr >= prev_corr:
            # Rounding of the polynomial evaluation puts a floor under the
            # corrections; once they stop shrinking there, the roots are as
            # good as double precision allows.
            if max_corr < verify._FLOOR_TOL * radius:
                return "converged"
            if all(abs(p) <= verify._horner_error_bound(c, zj) for p, zj in zip(values, start)):
                return "stalled"
        prev_corr = max_corr
    return "spent"


def bits(z):
    """Real and imaginary parts as float.hex, so that -0.0 and 0.0 differ."""
    return [(x.real.hex(), x.imag.hex()) for x in z]


def outcome(aberth, c, z, radius):
    """The status, or the name of the arithmetic error raised, and the
    iterates z as the call left them."""
    try:
        status = aberth(c, z, radius)
    except ArithmeticError as exc:  # OutOfDoubleRange, or two equal iterates
        status = type(exc).__name__
    return status, bits(z)


def assert_matches_reference(c, z, radius):
    """The outcome of `_aberth` on copies of c and z, checked bit for bit
    against the reference's."""
    want = outcome(reference_aberth, list(c), list(z), radius)
    assert outcome(verify._aberth, list(c), list(z), radius) == want
    return want


def check_every_call(monkeypatch):
    """The list every later `_aberth` call appends its status to, each call
    checked against the reference on the same input."""
    real_aberth = verify._aberth
    statuses = []

    def checked(c, z, radius):
        want = outcome(reference_aberth, list(c), list(z), radius)
        try:
            status = real_aberth(c, z, radius)
        except ArithmeticError as exc:  # raised on to find_roots, as unpatched
            assert (type(exc).__name__, bits(z)) == want
            statuses.append(want[0])
            raise
        assert (status, bits(z)) == want
        statuses.append(status)
        return status

    monkeypatch.setattr(verify, "_aberth", checked)
    return statuses


finite = st.floats(-1e3, 1e3)


@pytest.mark.skipif(
    not FLOATS_BECOME_COMPLEX,
    reason="this Python does not turn a float operand into complex(x, 0.0)",
)
class TestAberthMatchesFloatReference:
    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_stalling_inputs_and_their_centred_stage(self, name, m, monkeypatch):
        statuses = check_every_call(monkeypatch)
        find_roots(char_poly(rid(name), m))
        assert statuses == ["stalled", "converged"]

    def test_limit_polynomials(self, monkeypatch):
        statuses = check_every_call(monkeypatch)
        names = [str(i) for i in EXCEPTIONAL_IDS] + [f"A{n}" for n in range(2, 31)]
        for name in names:
            find_roots(limit_poly(rid(name)))
        assert len(statuses) >= len(names) - 1  # A2's is (t - 1)^2: no call

    @pytest.mark.parametrize("name", [f"A{n}" for n in range(12, 29)] + ["D14", "B16", "C18"])
    def test_classical_char_polys(self, name, monkeypatch):
        statuses = check_every_call(monkeypatch)
        for m in (1, 2, 99, 1000, 9999):
            find_roots(char_poly(rid(name), m))
        assert len(statuses) >= 5

    @settings(deadline=None, max_examples=60)
    @given(st.lists(finite, min_size=1, max_size=20), st.data())
    def test_random_monic_polynomials_and_starts(self, lower, data):
        c = lower + [1.0]
        n = len(lower)
        z = data.draw(st.lists(st.builds(complex, finite, finite), min_size=n, max_size=n))
        assert_matches_reference(c, z, verify._start_radius(c))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(finite, min_size=1, max_size=25), finite, finite)
    def test_horner_passes(self, c, x, y):
        z = complex(x, y)
        want = reference_horner2(c, z)
        coeffs = verify._complex(c)
        assert bits(verify._horner2(coeffs, z)) == bits(want)

    def test_start_on_a_root(self):
        c, z = [2.0, -3.0, 1.0], [1 + 0j, 5 + 1j]
        assert reference_horner2(c, z[0])[0] == 0
        assert assert_matches_reference(c, z, verify._start_radius(c))[0] == "converged"

    def test_start_on_a_critical_point_is_kicked(self):
        c, z = [-1.0, 0.0, 1.0], [0j, 3 + 1j]
        assert reference_horner2(c, z[0])[1] == 0
        assert assert_matches_reference(c, z, verify._start_radius(c))[0] == "converged"

    def test_iterate_leaving_the_doubles(self):
        status, z = assert_matches_reference([1.0, 0.0, 1.0], [1e300 + 0j, -1e300 + 1j], 1.0)
        assert status == "OutOfDoubleRange"
        assert z[0] == ("nan", "nan")

    def test_equal_starts(self):
        c = [1.0, 0.0, 1.0]
        assert assert_matches_reference(c, [1 + 1j, 1 + 1j], 1.0)[0] == "ZeroDivisionError"


class TestLimitPoly:
    def test_g2(self):
        assert limit_poly(rid("G2")) == RatPoly((31, -26, 6))

    def test_e6_display_form(self):
        weights = {1: 1, 2: 61, 3: 537, 4: 1916, 5: 3782, 6: 2343}
        want = RatPoly.zero()
        for i, a in weights.items():
            want = want + RatPoly.from_roots([i] * 6).scale(a)
        assert limit_poly(rid("E6")) == want

    @pytest.mark.parametrize("ident", EXCEPTIONAL_IDS, ids=str)
    def test_leading_coefficient(self, ident):
        data = lookup(ident)
        assert limit_poly(ident).leading == Fraction(data.weyl_order, 2 * data.index_of_connection)


class TestMaxRealPart:
    @pytest.mark.parametrize(
        "name,value",
        [("E6", 5.3703), ("E7", 8.4367), ("E8", 14.6604), ("F4", 4.8967), ("G2", 2.166)],
    )
    def test_printed_table(self, name, value):
        assert max_real_part(limit_poly(rid(name))) == pytest.approx(value, abs=1e-3)

    def test_g2_exact_value(self):
        assert max_real_part(limit_poly(rid("G2"))) == pytest.approx(13 / 6, abs=1e-12)


class TestCheckOnLineExact:
    def test_quadratic_centered_at_three(self):
        rep = check_on_line_exact(RatPoly((11, -6, 1)), 6)
        assert rep.on_line and rep.method == "exact-sturm" and rep.center == 3

    def test_real_roots_off_line(self):
        rep = check_on_line_exact(RatPoly.from_roots([2, 4]), 6)
        assert not rep.on_line

    def test_parity_violation(self):
        rep = check_on_line_exact(RatPoly.from_roots([0, 0, 1]), 0)
        assert not rep.on_line and rep.details == {"parity_ok": False}

    def test_degenerate_degree_zero(self):
        assert check_on_line_exact(RatPoly((4,)), 6).on_line

    def test_odd_center_times_two(self):
        # roots 3/2 +- i
        p = RatPoly((Fraction(13, 4), -3, 1))
        assert check_on_line_exact(p, 3).on_line

    def test_repeated_roots_on_line(self):
        p = (RatPoly((5, -4, 1)) ** 2) * RatPoly((-2, 1))  # ((t-2)^2+1)^2 (t-2)
        assert check_on_line_exact(p, 4).on_line

    def test_planted_lines_and_mutations(self):
        rng = random.Random(1234)
        flipped = 0
        for _ in range(40):
            M = 2 * rng.randint(-3, 6)
            c = M // 2
            n_linear = rng.randint(0, 1)
            n_pairs = rng.randint(1, 4 - n_linear)  # keep degree <= 8
            p = RatPoly.from_roots([c] * n_linear)
            for _ in range(n_pairs):
                y = rng.randint(1, 9)
                p = p * RatPoly((c * c + y * y, -2 * c, 1))
            assert check_on_line_exact(p, M).on_line
            # bump one coefficient by 1 and compare with the numeric truth
            idx = rng.randrange(len(p.coeffs))
            bumped = RatPoly(
                tuple(x + 1 if i == idx else x for i, x in enumerate(p.coeffs))
            )
            if bumped.degree < 1:
                continue
            verdict = check_on_line_exact(bumped, M).on_line
            numeric = max(
                abs(z.real - M / 2) for z in find_roots(bumped).roots
            )
            assert verdict == (numeric < 1e-7)
            if not verdict:
                flipped += 1
        assert flipped >= 10

    def test_g2_pipeline_all_m(self):
        for m in range(1, 31):
            assert check_on_line_exact(char_poly(rid("G2"), m), 6 * m).on_line

    @pytest.mark.parametrize("c", [0, 3, Fraction(5, 2), -2])
    def test_multiple_root_at_the_sturm_endpoint(self, c):
        # each even part has a multiple root at u = 0, where an undivided
        # Sturm chain vanishes in every element
        s, M = RatPoly((-c, 1)), int(2 * c)  # t - c and the line Re t = M/2
        assert check_on_line_exact(s**5, M).on_line
        assert check_on_line_exact(s**4 * (s * s + 1), M).on_line
        assert not check_on_line_exact(s**4 * (s * s - 1), M).on_line

    def test_e6_at_m_zero(self):
        # char_poly(E6, 0) = t^6, whose even part about M = 0 is u^3
        p = char_poly(rid("E6"), 0)
        assert p == RatPoly.monomial(6)
        rep = check_on_line_exact(p, 0)
        assert rep.on_line and rep.details["even_part"] == RatPoly.monomial(3).to_json()


class TestCheckOnLineNumeric:
    def test_agrees_with_exact_on_line(self):
        rep = check_on_line_numeric(char_poly(rid("E6"), 5), 60)
        assert rep.on_line and rep.method == "numeric"
        assert rep.details["max_deviation"] < 1e-8

    def test_detects_off_line(self):
        assert not check_on_line_numeric(RatPoly.from_roots([2, 4]), 6).on_line

    @pytest.mark.parametrize("name", ["A12", "A20", "A28", "D14", "B16", "C18"])
    @pytest.mark.parametrize("m", [1, 17, 1086, 9999])
    def test_agrees_with_exact_on_classical_systems(self, name, m):
        p = char_poly(rid(name), m)
        M = m * lookup(rid(name)).coxeter_number
        rep = check_on_line_numeric(p, M)
        assert rep.on_line == check_on_line_exact(p, M).on_line
        assert len(rep.details["roots"]) == rid(name).rank
        # the roots are reported in t = s + M/2; rounding that sum at most doubles |Re s|
        assert all(abs(re - M / 2) <= 2 * rep.details["max_deviation"] for re, _im in rep.details["roots"])

    @pytest.mark.parametrize("name", ["G2", "F4"])
    def test_agrees_with_exact_at_modulus_past_double_resolution(self, name):
        # roots of modulus ~1e30, whose real parts doubles hold only to ~1e-8
        # absolute, far above what they can resolve there
        m = 10**30
        p = char_poly(rid(name), m)
        M = m * lookup(rid(name)).coxeter_number
        assert check_on_line_exact(p, M).on_line
        assert check_on_line_numeric(p, M).on_line

    @pytest.mark.parametrize("re, im, on_line", [
        (0, 10**6, True),
        (Fraction(1, 1000), 10**6, False),  # |s| ~ 1e6: 64 ulps of |s| is still below 1e-8
        (10**20, 10**30, False),  # 1e-10 relative is far above 64 ulps
    ])
    def test_planted_pair_at_large_modulus(self, re, im, on_line):
        M = 2 * 10**6
        center = Fraction(M, 2)
        p = RatPoly.from_roots([center + re]) * RatPoly.from_roots([center + re])
        p = p + RatPoly((im**2,))  # (t - M/2 - re)^2 + im^2: roots M/2 + re +- i*im
        rep = check_on_line_numeric(p, M)
        assert rep.on_line is on_line
        assert rep.details["max_deviation"] == pytest.approx(float(re), abs=1e-9)


class TestHalfplane:
    @pytest.mark.parametrize("ident", EXCEPTIONAL_IDS, ids=str)
    def test_limit_polynomials_strictly_inside(self, ident):
        h = lookup(ident).coxeter_number
        assert halfplane_exact(limit_poly(ident), h) is True

    def test_linear_counterexample(self):
        assert halfplane_exact(RatPoly((-4, 1)), 6) is False

    def test_boundary_inconclusive(self):
        # root exactly on Re = 3: a zero Routh row proves the strict bound fails
        assert halfplane_exact(RatPoly((-3, 1)), 6) is False


ORACLE_SYSTEMS = ["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3"]  # every stored rank 1-3


@st.composite
def oracle_cases(draw):
    ident = rid(draw(st.sampled_from(ORACLE_SYSTEMS)))
    q = draw(st.integers(1, 40 if ident.rank < 3 else 15))
    return ident, draw(st.integers(0, q + 2)), q


@st.composite
def oracle_batches(draw):
    """A system, q, and an unordered list of m with a repeat, 0 and some m >= q."""
    ident = rid(draw(st.sampled_from(ORACLE_SYSTEMS)))
    q = draw(st.integers(1, 30 if ident.rank < 3 else 12))
    drawn = draw(st.lists(st.integers(0, q + 3), min_size=1, max_size=6))
    ms = draw(st.permutations(drawn + [drawn[0], 0, q + draw(st.integers(0, 2))]))
    return ident, ms, q


def bruteforce_modq(ident, m, q, unsafe=False):
    return bruteforce_modq_counts(ident, (m,), q, unsafe)[0]


def enumerated_modq(ident, m, q):
    """The points of (Z/q)^l on no hyperplane alpha(x) = 1..m, counted one by one."""
    forms = positive_roots(ident)
    return sum(
        all(sum(c * x for c, x in zip(form, point)) % q not in range(1, m + 1) for form in forms)
        for point in itertools.product(range(q), repeat=ident.rank)
    )


def oracle_lines(call, budget):
    """`call()` and the lines of `linchar.oracles` it executed, a cost that is
    the same on every machine; past `budget` lines the call stops and fails."""
    executed = 0

    def count(frame, event, arg):
        nonlocal executed
        executed += event == "line"
        assert executed <= budget, f"the oracle ran more than {budget} lines"
        return count

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename == oracles.__file__ else None)
    try:
        return call(), executed
    finally:
        sys.settrace(previous)


class TestBruteforceModq:
    @given(case=oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_point_by_point_enumeration(self, case):
        ident, m, q = case
        assert bruteforce_modq(ident, m, q, unsafe=True) == enumerated_modq(ident, m, q)

    @given(case=oracle_batches())
    @settings(max_examples=150, deadline=None)
    def test_batched_counts_match_point_by_point_enumeration(self, case):
        ident, ms, q = case
        counts = bruteforce_modq_counts(ident, ms, q, unsafe=True)
        expected = {m: enumerated_modq(ident, m, q) for m in set(ms)}
        assert counts == tuple(expected[m] for m in ms)
        assert counts == tuple(bruteforce_modq(ident, m, q, unsafe=True) for m in ms)

    def test_g2_parity_formulas(self):
        for q in (7, 11, 49):
            assert bruteforce_modq(rid("G2"), 1, q) == q * q - 6 * q + 11
        for q in (8, 12, 50):
            assert bruteforce_modq(rid("G2"), 1, q) == q * q - 6 * q + 14

    def test_empty_arrangement(self):
        assert bruteforce_modq(rid("G2"), 0, 9) == 81
        assert bruteforce_modq(rid("A3"), 0, 5) == 125

    def test_matches_char_quasi_spot(self):
        for name, m, q in [("A2", 1, 7), ("B2", 2, 17), ("G2", 3, 20), ("A3", 1, 9)]:
            assert bruteforce_modq(rid(name), m, q) == char_quasi(rid(name), m).value(q)

    def test_guard(self):
        with pytest.raises(QTooSmall):
            bruteforce_modq(rid("G2"), 2, 12)
        assert bruteforce_modq(rid("G2"), 2, 12, unsafe=True) == 48
        # q <= m: every nonzero residue is on a hyperplane, so only x = 0 survives
        assert bruteforce_modq(rid("G2"), 5, 3, unsafe=True) == 1
        assert bruteforce_modq(rid("A1"), 7, 7, unsafe=True) == 1
        assert bruteforce_modq(rid("B3"), 4, 2, unsafe=True) == 1

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRank):
            bruteforce_modq(rid("E6"), 1, 13)

    def test_point_cap_refuses_before_allocating(self):
        with pytest.raises(OracleTooLarge):
            bruteforce_modq(rid("G2"), 1, 10**12)
        with pytest.raises(OracleTooLarge):
            bruteforce_modq(rid("A3"), 1, 10**5)
        just_over = math.isqrt(ORACLE_MAX_POINTS) + 1
        with pytest.raises(OracleTooLarge):
            bruteforce_modq(rid("G2"), 1, just_over)

    def test_largest_accepted_input_of_each_rank(self):
        # q**rank at the cap: one window per m, so a huge m costs no more than m = 1
        assert bruteforce_modq(rid("A1"), 10**6, 10**7) == 9_000_000
        for name, m, q in [("G2", 3, 3162), ("A3", 2, 215)]:
            assert bruteforce_modq(rid(name), m, q) == char_quasi(rid(name), m).value(q)
        for name, m, q in [("A1", 10**6, 10**7 + 1), ("G2", 3, 3163), ("A3", 2, 216)]:
            with pytest.raises(OracleTooLarge):
                bruteforce_modq(rid(name), m, q)

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_every_window_of_small_q_matches_point_by_point_enumeration(self, name):
        # one batch per q with every m up to q + 2: windows of every width,
        # coefficients that vanish mod q, and rank-3 slabs whose residue is 0
        ident = rid(name)
        for q in range(1, 11 if ident.rank < 3 else 8):
            ms = range(q + 3)
            expected = tuple(enumerated_modq(ident, m, q) for m in ms)
            assert bruteforce_modq_counts(ident, ms, q, unsafe=True) == expected, q

    @pytest.mark.parametrize("name, m, q, expected, windows", [
        ("A1", 10**6, 10**7, 9_000_000, 2), ("A1", 10**7, 10**7, 1, 2),
        ("G2", 10**6, 3162, 1, 2), ("A3", 10**6, 215, 1, 2),
        ("B2", 25, 100, 2838, 25), ("G2", 25, 100, 1353, 25),
        ("A3", 10, 40, 10400, 10), ("C3", 6, 24, 956, 6),
    ])
    def test_the_cost_grows_with_the_window_and_not_with_m(self, name, m, q, expected, windows):
        # counted in lines executed, at most `windows` times what m = 1
        # costs: a window of m < 2q/3 residues (m = q // 4 here) costs at
        # most m windows of one, and a huge m at the cap, one window of up
        # to q - 1 residues (m >= q leaves only x = 0), at most two
        ident = rid(name)
        positive_roots(ident)  # the cached root closure stays out of the count
        _, small = oracle_lines(lambda: bruteforce_modq(ident, 1, q, unsafe=True), 10**5)
        count, _ = oracle_lines(lambda: bruteforce_modq(ident, m, q, unsafe=True), windows * small)
        assert count == expected

    def test_point_cap_leaves_the_empty_arrangement(self):
        # m = 0 is answered as q**rank without enumerating anything
        assert bruteforce_modq(rid("G2"), 0, 10**12) == 10**24


def random_cost(rng, n):
    found = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    target = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    return [[abs(a - b) for b in target] for a in found]


class TestMinCostAssignment:
    def test_matches_exhaustive_search(self):
        rng = random.Random(3)
        for n in range(1, 7):
            for _ in range(20):
                cost = random_cost(rng, n)
                best = min(
                    itertools.permutations(range(n)),
                    key=lambda perm: sum(cost[i][j] for i, j in enumerate(perm)),
                )
                assert verify._min_cost_assignment(cost) == list(best)

    def test_matches_scipy(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(5)
        for n in range(1, 13):
            for _ in range(25):
                cost = random_cost(rng, n)
                rows, cols = scipy_optimize.linear_sum_assignment(cost)
                assert list(rows) == list(range(n))
                assert verify._min_cost_assignment(cost) == [int(c) for c in cols]

    def test_ties_and_zero_costs(self):
        assert verify._min_cost_assignment([[0.0, 0.0], [0.0, 0.0]]) in ([0, 1], [1, 0])
        assert verify._min_cost_assignment([[1.0, 0.0], [0.0, 1.0]]) == [1, 0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            verify._min_cost_assignment([[1.0, 2.0]])


class TestAsymptoticTrack:
    def test_g2_distances_decrease(self):
        track = asymptotic_track(rid("G2"), 1, [1, 10, 100])
        dists = [d for _, d in track]
        assert dists[0] > dists[1] > dists[2]

    def test_limit_combination_roots_on_center_line(self):
        for ident in EXCEPTIONAL_IDS:
            h = lookup(ident).coxeter_number
            assert check_on_line_exact(limit_combination(ident), h).on_line

    def test_residue_validated(self):
        with pytest.raises(ValueError):
            asymptotic_track(rid("G2"), 6, [1])
