import cmath
import collections
import functools
import importlib.util
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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
from linchar.linial import (
    admissible_residues,
    char_constituent,
    char_poly,
    char_quasi,
    limit_combination,
    limit_poly,
    toy_poly,
)
from linchar.oracles import ORACLE_MAX_POINTS, bruteforce_modq_counts, positive_roots
from linchar.ratpoly import RatPoly
from linchar.rootdata import EXCEPTIONAL_IDS, RootSystemId, lookup
from linchar.verify import (
    asymptotic_track,
    check_on_line_exact,
    check_on_line_numeric,
    find_roots,
    halfplane_exact,
)
from polys import ONE, ZERO, from_roots, monomial, mul, power, sub
from strategies import rationals


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
        p = mul(from_roots([3, 3]), RatPoly((1, 0, 1)))
        rs = find_roots(p)
        assert len(rs.roots) == 4
        near3 = [z for z in rs.roots if abs(z - 3) < 1e-8]
        assert len(near3) == 2

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

    def test_nonconvergence_names_the_stop(self, monkeypatch):
        # A60's limit polynomial stalls again after centring, long before the
        # budget; a budget of one iteration stops E6's first.
        with pytest.raises(NonConvergence) as floor:
            find_roots(limit_poly(rid("A60")))
        assert str(floor.value) == (
            "Aberth iteration stalled at the rounding floor of Horner's rule after centring"
        )
        monkeypatch.setattr(verify, "_MAX_ITER", 1)
        with pytest.raises(NonConvergence) as budget:
            find_roots(limit_poly(rid("E6")))
        assert str(budget.value) == "Aberth iteration did not converge within 1 iterations"

    def test_colliding_iterates_are_named(self, monkeypatch):
        # Two equal iterates divide by zero in the Aberth sum; that is a
        # failure to converge, not a polynomial outside the doubles.
        real_aberth = verify._aberth

        def collide(c, z):
            z[1] = z[0]
            return real_aberth(c, z)

        monkeypatch.setattr(verify, "_aberth", collide)
        with pytest.raises(NonConvergence) as excinfo:
            find_roots(RatPoly((1, 1, 1)))  # no parity: both iterates run on t^2 + t + 1
        assert str(excinfo.value) == "Aberth iterates collided: two became equal"
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_deterministic(self):
        p = limit_poly(rid("F4"))
        assert find_roots(p).roots == find_roots(p).roots


# Classical inputs whose monomial coefficients cancel so heavily in doubles
# that the iteration on the factor as given stalls on a noise floor, so the
# roots come from the factor centred at its root centroid.  Those of
# CENTRED_FIRST cancel so far that their doubles resolve p at the centroid
# to fewer than 8 bits, and start centred (B16 33, log10(bound / |p(c)|) =
# -1.71, among them), where one real run on the even part finds them on the
# line; A16 5 (-2.51) resolves it a little better, stalls in stage 1 and
# finishes in stage 2, both complex.
STALLING = [("A16", 5), ("A20", 9999), ("A24", 1084), ("A28", 1), ("B16", 33), ("C18", 1630)]
CENTRED_FIRST = {("A20", 9999), ("A24", 1084), ("A28", 1), ("B16", 33), ("C18", 1630)}


def expected_runs(name, m):
    """(status, arithmetic) of each `_aberth` call on a STALLING input."""
    if (name, m) in CENTRED_FIRST:
        return [("converged", "real")]
    return [("stalled", "complex"), ("converged", "complex")]


def expected_statuses(name, m):
    """What each `_aberth` call on a STALLING input ends on."""
    return [status for status, _ in expected_runs(name, m)]


AberthCall = namedtuple("AberthCall", "degree starts status arithmetic")


def record_calls(monkeypatch):
    """The list every later `_aberth` call of root finding appends an
    `AberthCall` to: the degree of its polynomial, the number of its
    starts, the status it returned or the name of the arithmetic error it
    raised, and the arithmetic of its starts, "real" or "complex".  The
    exact line check's runs (`_real_aberth` under `_line_witness`) are not
    recorded."""
    real_aberth, line_witness = verify._aberth, verify._line_witness
    calls, in_witness = [], []

    def witness(G):
        in_witness.append(True)
        try:
            return line_witness(G)
        finally:
            in_witness.pop()

    def recording(c, z):
        if in_witness:
            return real_aberth(c, z)
        degree, starts = len(c) - 1, len(z)
        arithmetic = "real" if isinstance(z[0], float) else "complex"
        try:
            status = real_aberth(c, z)
        except ArithmeticError as exc:  # raised on to find_roots, as unpatched
            calls.append(AberthCall(degree, starts, type(exc).__name__, arithmetic))
            raise
        calls.append(AberthCall(degree, starts, status, arithmetic))
        return status

    monkeypatch.setattr(verify, "_aberth", recording)
    monkeypatch.setattr(verify, "_line_witness", witness)
    return calls


def statuses(calls):
    return [call.status for call in calls]


class TestFindRootsCentredStage:
    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_converges_on_the_line(self, name, m):
        rs = find_roots(char_poly(rid(name), m))
        assert len(rs.roots) == rid(name).rank
        assert all(z.real == line_center(name, m) for z in rs.roots)
        assert rs.residual_bound < 1e-15

    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_matches_mpmath(self, name, m):
        """Against `mpmath.polyroots` at 50 digits, on the centred polynomial
        split by parity (`mpmath_roots_on_the_line`); A16 5, which reaches
        the centring only in stage 2, against mpmath on p as given, so that
        one reference shares nothing with the centring."""
        p = char_poly(rid(name), m)
        if (name, m) == ("A16", 5):
            mpmath = pytest.importorskip("mpmath")
            with mpmath.workdps(50):
                coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
                want = [complex(z) for z in mpmath.polyroots(coeffs, maxsteps=400, extraprec=100)]
        else:
            want = mpmath_roots_on_the_line(p)
        scale = max(abs(w) for w in want)
        assert verify._match_distance(find_roots(p).roots, want) <= 1e-10 * scale

    @pytest.mark.parametrize("name,m", STALLING, ids=str)
    def test_stage_one_stops_at_the_rounding_floor(self, name, m, monkeypatch):
        calls = record_calls(monkeypatch)
        find_roots(char_poly(rid(name), m))
        assert [(call.status, call.arithmetic) for call in calls] == expected_runs(name, m)

    def test_stage_one_roots_unchanged(self, monkeypatch):
        """Inputs that converge without centring keep the exact floats they had
        before the centred stage existed."""
        calls = record_calls(monkeypatch)
        golden = json.loads((GOLDEN / "find_roots_golden.json").read_text())
        for key, want in golden["char_poly"].items():
            name, m = key.split()
            got = find_roots(char_poly(rid(name), int(m))).roots
            assert [[z.real, z.imag] for z in got] == want, key
        for name, want in golden["limit_poly"].items():
            got = find_roots(limit_poly(rid(name))).roots
            assert [[z.real, z.imag] for z in got] == want, name
        assert set(statuses(calls)) == {"converged"}

    def test_failed_centred_stage_raises(self, monkeypatch):
        real_aberth = verify._aberth
        ends = []

        def centred_stage_fails(c, z):
            ends.append(real_aberth(c, z))
            return ends[-1] if len(ends) == 1 else "spent"

        monkeypatch.setattr(verify, "_aberth", centred_stage_fails)
        with pytest.raises(NonConvergence) as excinfo:
            find_roots(char_poly(rid("A16"), 5))
        assert ends == ["stalled", "converged"]
        assert str(excinfo.value) == "Aberth iteration did not converge within 200 iterations"

    @staticmethod
    def failing_first(end, runs):
        """An `_aberth` that runs honestly, then makes its first `runs`
        calls end on `end`: that status, or that error raised."""
        real_aberth = verify._aberth
        ends = []

        def fails(c, z):
            ends.append(real_aberth(c, z))
            if len(ends) > runs:
                return ends[-1]
            if isinstance(end, str):
                return end
            raise end("made to fail")

        return fails, ends

    @pytest.mark.parametrize("end", ["stalled", "spent", ZeroDivisionError, OutOfDoubleRange])
    def test_failed_centred_first_run_falls_back(self, end, monkeypatch):
        """Centred first runs that end any way but "converged", the real one
        on the even part and then the complex one, leave the roots to the
        two stages, started afresh: the same floats, to the bit, as when the
        route is never taken."""
        p = char_poly(rid("A20"), 9999)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_barely_resolved_at_centroid", lambda *args: False)
            calls = record_calls(patch)
            want = find_roots(p)
        assert statuses(calls) == ["stalled", "converged"]
        fails, ends = self.failing_first(end, 2)
        monkeypatch.setattr(verify, "_aberth", fails)
        got = find_roots(p)
        assert ends == ["converged", "converged", "stalled", "converged"]
        assert bits(got.roots) == bits(want.roots)
        assert got.certified_radius == want.certified_radius
        assert got.residual_bound == want.residual_bound

    @pytest.mark.parametrize("end", ["stalled", "spent", ZeroDivisionError, OutOfDoubleRange])
    def test_failed_real_run_falls_back_to_the_complex_run(self, end, monkeypatch):
        """A real run on the even part that ends any way but "converged"
        leaves the roots to the complex run from the Newton polygon: the
        same floats, to the bit, as when no real run is tried."""
        p = char_poly(rid("A20"), 9999)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_real_aberth", lambda G: None)
            calls = record_calls(patch)
            want = find_roots(p)
        assert calls == [(10, 10, "converged", "complex")]
        fails, ends = self.failing_first(end, 1)
        monkeypatch.setattr(verify, "_aberth", fails)
        got = find_roots(p)
        assert ends == ["converged", "converged"]
        assert bits(got.roots) == bits(want.roots)
        assert got.certified_radius == want.certified_radius
        assert got.residual_bound == want.residual_bound


def mpmath_roots_on_the_line(p):
    """The roots of a p whose roots lie on Re t = c, its root centroid, from
    `mpmath.polyroots` at 50 digits on a polynomial of half the degree: p(c +
    s) = s^eps G(s^2) exactly, checked here, so the roots are c + sqrt(x)
    and c - sqrt(x) for each root x of G (and c itself for odd degree).  The
    roots of G are found as x = R w, with R a power of two near the largest,
    so they lie about the unit circle, where the iteration converges fast."""
    mpmath = pytest.importorskip("mpmath")
    n = p.degree
    c = Fraction(-p.nums[-2], n * p.nums[-1])
    q = p.compose_affine(1, c)
    eps = n % 2
    assert not any(q.nums[1 - eps::2])
    g = RatPoly.over(q.nums[eps::2])
    k = g.degree
    scale = Fraction(2) ** round(max(
        (math.log2(abs(x)) - math.log2(abs(g.nums[-1]))) / (k - j)
        for j, x in enumerate(g.nums[:-1]) if x
    ))
    w = g.compose_affine(scale, 0)
    with mpmath.workdps(50):
        def mpf(x):
            return mpmath.mpf(x.numerator) / x.denominator

        found = mpmath.polyroots([mpf(x) for x in reversed(w.coeffs)], maxsteps=400, extraprec=100)
        halves = [mpmath.sqrt(mpf(scale) * x) for x in found]
        return [complex(mpf(c) + s) for s in [*halves, *(-s for s in halves), *[0] * eps]]


# Per classical-sweep system with inputs that start centred, the one of
# largest m among the pooled inputs of perfbench's workloads.all_sweep_ops().
CENTRED_FIRST_POOLED = [("A18", 5482), ("A20", 8109), ("A24", 9057), ("A28", 7398), ("C18", 8409)]


def perfbench_module(name):
    """perfbench/<name>.py, loaded by path; perfbench's workloads.py and
    golden.py import linchar only inside their functions."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pooled_sweep_inputs():
    """The (system, m) inputs the classical-sweep workload draws from."""
    return perfbench_module("workloads").all_sweep_ops()


def off_line_parity_factor(kind, eps):
    """s^eps G(s^2), a factor of one parity about its root centroid 0 whose
    roots lie off the line Re s = 0, as G has non-real roots.  "gated": G =
    prod (u^2 + 2ku + k^2 + 4) over k = 1..8, of the roots -k +- 2i, which
    breaks Newton's inequalities, so `_real_aberth` runs nothing; "spent":
    G = (u + 1) ... (u + 8) (u^2 + 18u + 81 + 1/4), of the roots -1, ...,
    -8 and -9 +- i/2, which keeps them, so the real run spends its budget."""
    if kind == "gated":
        G = mul(*[RatPoly((k * k + 4, 2 * k, 1)) for k in range(1, 9)])
    else:
        G = mul(from_roots(range(-1, -9, -1)), RatPoly((Fraction(325, 4), 18, 1)))
    return RatPoly.over([0] * eps + [v for x in G.nums for v in (x, 0)][:-1], G.den)


OFF_LINE = [(kind, eps) for kind in ("gated", "spent") for eps in (0, 1)]


class TestCentredFirstRun:
    @pytest.mark.parametrize("name,m", CENTRED_FIRST_POOLED, ids=str)
    def test_pooled_inputs_match_mpmath(self, name, m, monkeypatch):
        p = char_poly(rid(name), m)
        calls = record_calls(monkeypatch)
        got = find_roots(p).roots
        assert calls == [(p.degree // 2, p.degree // 2, "converged", "real")]
        want = mpmath_roots_on_the_line(p)
        scale = max(abs(w) for w in want)
        assert verify._match_distance(got, want) <= 1e-10 * scale

    def test_real_runs_match_mpmath(self, monkeypatch):
        """Of the 186 pooled inputs whose roots come from the real run on G,
        every third in pool order (62; all 186 took 7.6 s on a 2-vCPU x86-64
        VM), each root within 1e-10 of the largest modulus of mpmath's."""
        calls = record_calls(monkeypatch)
        real = 0
        for name, m in pooled_sweep_inputs():
            del calls[:]
            p = char_poly(rid(name), m)
            got = find_roots(p).roots
            if calls[0].arithmetic == "real":
                real += 1
                if real % 3 == 1:
                    want = mpmath_roots_on_the_line(p)
                    assert verify._match_distance(got, want) <= 1e-10 * max(map(abs, want)), (name, m)
        assert real == 186

    @pytest.mark.parametrize("kind,eps", OFF_LINE, ids=str)
    def test_off_line_parity_factors_keep_the_complex_run(self, kind, eps, monkeypatch):
        """A factor of one parity about its root centroid whose G has
        non-real roots gets the roots of the complex run from the Newton
        polygon, to the bit, as before the real run: with no real run where
        Newton's inequalities fail, and after one that spends its budget
        where they hold."""
        p = off_line_parity_factor(kind, eps)
        n = p.degree // 2
        calls = record_calls(monkeypatch)
        got = find_roots(p)
        real = [(n, n, "spent", "real")] if kind == "spent" else []
        assert calls == real + [(n, n, "converged", "complex")]
        want = reference_centred_roots(p, Fraction(0))[0]
        assert bits(got.roots) == bits(sorted(want, key=lambda z: (z.real, z.imag)))
        assert max(abs(z.real) for z in got.roots) > 0.01

    @pytest.mark.parametrize("name,m,routed", [
        ("A20", 9999, True), ("A28", 1, True), ("B16", 33, True), ("A16", 5, False),
        ("A16", 4, False), ("A12", 1, False), ("E8", 0, False),
    ], ids=str)
    def test_route_is_decided_exactly(self, name, m, routed):
        """The rule against its definition in Fractions: the bound at
        float(c) against 2**-8 |p(c)| for the monic p.  B16 33 sits at
        log10(bound / |p(c)|) = -1.71, A16 5 at -2.51 and A16 4, whose
        stage-1 roots find_roots_golden.json pins, at -2.72."""
        p = limit_poly(rid(name)) if m == 0 else char_poly(rid(name), m)
        (factor, _), = verify._squarefree_factors(p)
        c = verify._monic_floats(factor)
        centroid = Fraction(-factor.nums[-2], factor.degree * factor.nums[-1])
        monic = [x / factor.coeffs[-1] for x in factor.coeffs]
        value = sum(a * centroid**k for k, a in enumerate(monic))
        bound = Fraction(verify._horner_error_bound(c, float(centroid)))
        assert (bound >= abs(value) / 256) == routed
        assert verify._barely_resolved_at_centroid(factor, c, centroid) == routed

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=12),
        st.integers(1, 10**6),
        st.integers(1, 1000),
    )
    def test_rule_matches_fractions(self, lower, lead, centre):
        """Random factors, also shifted far out so that the doubles lose p at
        the centroid, against the rule written in Fractions."""
        factor = RatPoly.over(lower + [lead]).compose_affine(1, centre)
        c = verify._monic_floats(factor)
        centroid = Fraction(-factor.nums[-2], factor.degree * factor.nums[-1])
        value = sum(Fraction(a, factor.nums[-1]) * centroid**k for k, a in enumerate(factor.nums))
        bound = Fraction(verify._horner_error_bound(c, float(centroid)))
        assert verify._barely_resolved_at_centroid(factor, c, centroid) == (
            bound >= abs(value) / 256)

    @pytest.mark.parametrize("name,m", sorted(CENTRED_FIRST) + CENTRED_FIRST_POOLED, ids=str)
    def test_runs_on_the_half_degree_even_part(self, name, m, monkeypatch):
        """Centred at m*h/2, these are g(s) = G(s^2) exactly (even rank), and
        the one run is on G, in real doubles: every root has the real part
        float(m*h/2), and they come in the order of their imaginary parts."""
        calls = record_calls(monkeypatch)
        p = char_poly(rid(name), m)
        rs = find_roots(p)
        n = p.degree
        assert calls == [(n // 2, n // 2, "converged", "real")]
        assert len(rs.roots) == n
        assert all(z.real == line_center(name, m) for z in rs.roots)
        assert [z.imag for z in rs.roots] == sorted(z.imag for z in rs.roots)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(2, 28), st.integers(1, 20), st.data())
    def test_planted_roots_on_a_line_far_out(self, n, y, data):
        """c + i*y_k and c - i*y_k for n // 2 distinct y_k, and c itself at
        odd n, with c so far from 0 that the doubles of p cannot resolve p
        at c: the route is taken, and each planted root comes back.  Each
        y_k is at least 5/4 of the one before, so G is well conditioned."""
        ys = [y]
        for _ in range(n // 2 - 1):
            ys.append(ys[-1] + max(1, ys[-1] // 4) + data.draw(st.integers(0, ys[-1])))
        eps = n % 2
        # large enough for the route, small enough for the doubles of p
        twice_c = data.draw(st.integers(2 * ys[-1], 4 * ys[-1])) * 10 ** (3 + 20 // n)
        c = Fraction(twice_c + data.draw(st.integers(0, 1)), 2)
        centred = mul(monomial(eps), *[RatPoly((yk * yk, 0, 1)) for yk in ys])
        p = centred.compose_affine(1, -c)
        planted = [complex(c)] * eps + [complex(c, s * yk) for yk in ys for s in (1, -1)]
        with pytest.MonkeyPatch.context() as patch:
            calls = record_calls(patch)
            got = find_roots(p).roots
        assert calls == [(n // 2, n // 2, "converged", "real")]
        assert len(got) == n
        assert all(z.real == c for z in got)
        assert verify._match_distance(got, planted) <= 1e-10 * ys[-1]

    def test_centred_factor_without_parity_runs_at_full_degree(self, monkeypatch):
        """A24's limit polynomial is routed, but centred it has terms of both
        parities: its roots come from one run at full degree on the centred
        factor, to the bit (the `limit-roots A24` digest lines pin them)."""
        p = limit_poly(rid("A24"))
        (factor, _), = verify._squarefree_factors(p)
        n = factor.degree
        centroid = Fraction(-factor.nums[-2], n * factor.nums[-1])
        g = factor.compose_affine(1, centroid)
        assert any(g.nums[1::2]) and any(g.nums[::2])
        cc = verify._monic_floats(g)
        s = verify._polygon_starts(cc)
        assert verify._aberth(cc, s) == "converged"
        want = sorted((z + float(centroid) for z in s), key=lambda z: (z.real, z.imag))
        calls = record_calls(monkeypatch)
        assert bits(find_roots(p).roots) == bits(want)
        assert calls == [(n, n, "converged", "complex")]

    def test_no_pooled_input_stalls(self, monkeypatch):
        """Each pooled classical-sweep input, run as the workload runs it
        (`workloads.sweep_op`), gives perfbench/golden.json's outputs and is
        solved by one `_aberth` call: 94 by stage 1 at full degree in
        complex doubles, whose roots golden.json pins, and 186 centred first
        on G at half the degree in real doubles, whose roots it does not
        pin; those must lie on the line the exact check proves, each real
        part float(m*h/2) to the bit, come in the order of their imaginary
        parts and have a residual bound under 1e-15.  With the margin at 1,
        65 of them would stall in stage 1 first; at 2**-10, A16 4 and B16 4
        would leave stage 1."""
        workloads, golden = perfbench_module("workloads"), perfbench_module("golden")
        want = golden.load()
        calls = record_calls(monkeypatch)
        ops = workloads.all_sweep_ops()
        runs = collections.Counter()
        for name, m in ops:
            del calls[:]
            poly, line, roots = workloads.sweep_op(name, m)
            rec = golden.sweep_record(name, m, poly, line, roots)
            assert golden.sweep_problems(want, rec) == []
            assert rec["outcome"] == "ok", (name, m)
            (call,) = calls
            assert call.status == "converged", (name, m)
            pinned = want["classical-sweep"][rec["key"]]["outcome"] == "ok"
            runs[call.arithmetic, call.degree == poly.degree, pinned] += 1
            if not pinned:
                assert all(z.real == line_center(name, m) for z in roots.roots), (name, m)
                assert [z.imag for z in roots.roots] == sorted(z.imag for z in roots.roots), (name, m)
                assert roots.residual_bound < 1e-15, (name, m)
        assert runs == {("complex", True, True): 94, ("real", False, False): 186}

    def test_centred_inputs_converge_within_11_sweeps(self, monkeypatch):
        """From `_line_starts` each of the 186 pooled inputs that start
        centred converges in its one `_aberth` call, real, within 11 sweeps
        (a median of 5); the complex run from the circles of
        `_polygon_starts` took up to 14 (a median of 8), and from one circle
        of `_start_radius` up to 34."""
        monkeypatch.setattr(verify, "_MAX_ITER", 11)
        calls = record_calls(monkeypatch)
        centred = 0
        for name, m in pooled_sweep_inputs():
            del calls[:]
            try:
                find_roots(char_poly(rid(name), m))
            except NonConvergence:  # stage 1 may need more than 11
                pass
            if calls[0].degree < rid(name).rank:
                centred += 1
                assert calls == [(calls[0].degree,) * 2 + ("converged", "real")], (name, m)
        assert centred == 186

    def test_a_root_at_the_centroid_keeps_its_start(self, monkeypatch):
        """The roots 10^6 + {-3, 0, 1, 2}: centred, g(s) = s^4 - 7s^2 + 6s
        has no parity and g(0) = 0, so the Newton polygon of its nonzero
        coefficients covers 3 roots, and the fourth start sits at 0."""
        centre = 10**6
        p = from_roots([centre - 3, centre, centre + 1, centre + 2])
        calls = record_calls(monkeypatch)
        got = find_roots(p).roots
        assert calls == [(4, 4, "converged", "complex")]
        assert len(got) == 4
        assert verify._match_distance(got, [centre - 3, centre, centre + 1, centre + 2]) <= 1e-9

    def test_a_factor_centred_at_zero_runs_on_its_even_part(self, monkeypatch):
        """prod (s^2 + y^2) over y = 21..30 has root centroid 0, and its
        doubles stall in both stages; its even part G, of degree 10,
        converges in real doubles, and the roots come back on Re s = 0."""
        p = mul(*[RatPoly((y * y, 0, 1)) for y in range(21, 31)])
        calls = record_calls(monkeypatch)
        got = find_roots(p).roots
        assert calls == [(10, 10, "converged", "real")]
        assert all(z.real == 0 for z in got)
        planted = [complex(0, s * y) for y in range(21, 31) for s in (1, -1)]
        assert verify._match_distance(got, planted) <= 1e-6 * 30

    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 28), st.integers(1, 20), st.data())
    def test_planted_roots_on_the_imaginary_axis(self, n, y, data):
        """i*y_k and -i*y_k for n // 2 distinct y_k, and 0 at odd n, spaced
        as in the test above: centroid 0, so one run on G, and each planted
        root comes back."""
        ys = [y]
        for _ in range(n // 2 - 1):
            ys.append(ys[-1] + max(1, ys[-1] // 4) + data.draw(st.integers(0, ys[-1])))
        eps = n % 2
        p = mul(monomial(eps), *[RatPoly((yk * yk, 0, 1)) for yk in ys])
        planted = [0j] * eps + [complex(0, s * yk) for yk in ys for s in (1, -1)]
        with pytest.MonkeyPatch.context() as patch:
            calls = record_calls(patch)
            got = find_roots(p).roots
        assert calls == [(n // 2, n // 2, "converged", "real")]
        assert all(z.real == 0 for z in got)
        assert verify._match_distance(got, planted) <= 1e-10 * ys[-1]

    def test_a_factor_centred_at_zero_without_parity_runs_stage_one(self, monkeypatch):
        # (t - 1)(t - 2)(t + 3) = t^3 - 7t + 6: centroid 0, terms of both parities
        calls = record_calls(monkeypatch)
        got = find_roots(RatPoly((6, -7, 0, 1))).roots
        assert calls == [(3, 3, "converged", "complex")]
        assert verify._match_distance(got, [-3, 1, 2]) <= 1e-14

    def test_a_root_at_the_centroid_is_routed(self):
        # (t - 5)(t^2 - 10 t + 26): centroid 5, where p vanishes
        factor = RatPoly((-130, 76, -15, 1))
        c = verify._monic_floats(factor)
        assert verify._barely_resolved_at_centroid(factor, c, Fraction(5))
        assert sorted(find_roots(factor).roots, key=lambda z: z.imag) == [5 - 1j, 5, 5 + 1j]

    @pytest.mark.parametrize("name,routed,ends", [
        ("A13", False, ["stalled", "converged"]),
        ("A40", True, ["stalled", "stalled", "converged"]),
        ("A43", True, ["converged"]),
        ("A42", True, ["stalled", "stalled", "stalled"]),
    ], ids=str)
    def test_each_run_kind_carries_traffic(self, name, routed, ends, monkeypatch):
        """Why stage 1, stage 2 and the centred first run all stay, on A_n limit
        polynomials: each is one square-free factor of degree n, and every run
        is at full degree.  A13 is not routed; stage 1 stalls and stage 2
        converges, so stage 2 cannot go.  A43 is routed and converges in its one
        centred run.  A40 is routed, and its centred run from the Newton polygon
        stalls, and so does stage 1; stage 2, centred from stage 1's iterates,
        converges, so neither the circle of stage 1 nor stage 2 can go.  A42
        stalls in all three, the smallest A_n limit polynomial that ends in
        NonConvergence."""
        p = limit_poly(rid(name))
        (factor, _), = verify._squarefree_factors(p)
        n = factor.degree
        centroid = Fraction(-factor.nums[-2], n * factor.nums[-1])
        c = verify._monic_floats(factor)
        assert verify._barely_resolved_at_centroid(factor, c, centroid) == routed
        calls = record_calls(monkeypatch)
        if ends[-1] == "converged":
            assert len(find_roots(p).roots) == n
        else:
            with pytest.raises(NonConvergence, match="after centring"):
                find_roots(p)
        assert calls == [(n, n, end, "complex") for end in ends]


# Lower coefficients of monic doubles: zero or of modulus in [1e-20, 1e20].
coefficient = st.one_of(st.just(0.0), st.floats(1e-20, 1e20), st.floats(-1e20, -1e-20))


class TestPolygonStarts:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(coefficient, min_size=1, max_size=40))
    @example([0.0, 6.0, -7.0, 0.0])  # s^4 - 7s^2 + 6s, a root at 0
    def test_n_distinct_finite_starts(self, lower):
        """Any degree 1-40, with zeros anywhere below the leading 1 but at
        most a simple root at 0 (c_0 or c_1 nonzero), as a square-free
        factor has; a zero c_0 puts one start at 0."""
        c = lower + [1.0]
        if not c[0] and not c[1]:
            c[1] = 1.0
        starts = verify._polygon_starts(c)
        assert len(starts) == len(c) - 1
        assert len(set(starts)) == len(starts)
        assert all(cmath.isfinite(z) for z in starts)
        assert starts.count(0j) == (c[0] == 0)

    @settings(deadline=None, max_examples=200)
    @given(st.floats(1e-3, 1e3), st.lists(st.tuples(st.floats(10, 1000), st.booleans()), max_size=11),
           st.booleans())
    def test_radii_follow_separated_moduli(self, smallest, steps, negative):
        """Real roots whose moduli are at least 10 times apart: the sorted
        radii of the starts are within a factor 2 of the sorted moduli."""
        roots = [-smallest if negative else smallest]
        for ratio, sign in steps:
            roots.append((-1 if sign else 1) * abs(roots[-1]) * ratio)
        c = [float(x) for x in from_roots([Fraction(r) for r in roots]).coeffs]
        radii = sorted(abs(z) for z in verify._polygon_starts(c))
        for r, modulus in zip(radii, sorted(map(abs, roots))):
            assert modulus / 2 <= r <= 2 * modulus


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


def outcome(aberth, c, z, *radius):
    """The status, or the name of the arithmetic error raised, and the
    iterates z as the call left them."""
    try:
        status = aberth(c, z, *radius)
    except ArithmeticError as exc:  # OutOfDoubleRange, or two equal iterates
        status = type(exc).__name__
    return status, bits(z)


def assert_matches_reference(c, z):
    """The outcome of `_aberth` on copies of c and z, checked bit for bit
    against the reference's at the radius `_aberth` takes, `_start_radius(c)`."""
    want = outcome(reference_aberth, list(c), list(z), verify._start_radius(c))
    assert outcome(verify._aberth, list(c), list(z)) == want
    return want


def check_every_call(monkeypatch):
    """The list every later `_aberth` call appends its status to, each call
    checked against the reference on the same input."""
    real_aberth = verify._aberth
    statuses = []

    def checked(c, z):
        want = outcome(reference_aberth, list(c), list(z), verify._start_radius(c))
        try:
            status = real_aberth(c, z)
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
        assert statuses == expected_statuses(name, m)

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
        assert_matches_reference(c, z)

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
        assert assert_matches_reference(c, z)[0] == "converged"

    def test_start_on_a_critical_point_is_kicked(self):
        c, z = [-1.0, 0.0, 1.0], [0j, 3 + 1j]
        assert reference_horner2(c, z[0])[1] == 0
        assert assert_matches_reference(c, z)[0] == "converged"

    def test_iterate_leaving_the_doubles(self):
        status, z = assert_matches_reference([1.0, 0.0, 1.0], [1e300 + 0j, -1e300 + 1j])
        assert status == "OutOfDoubleRange"
        assert z[0] == ("nan", "nan")

    def test_equal_starts(self):
        c = [1.0, 0.0, 1.0]
        assert assert_matches_reference(c, [1 + 1j, 1 + 1j])[0] == "ZeroDivisionError"


def refusing_floats(name):
    """complex's operation `name`, raising TypeError on a float operand and
    returning a ComplexOnly."""
    method = getattr(complex, name)

    def operation(self, other):
        if isinstance(other, float):
            raise TypeError(f"float operand in complex {name}")
        return ComplexOnly(method(self, other))

    return operation


class ComplexOnly(complex):
    """A complex number whose +, -, * and / refuse a float operand."""

    __add__, __radd__, __sub__, __rsub__, __mul__, __rmul__, __truediv__, __rtruediv__ = map(
        refusing_floats, ("__add__", "__radd__", "__sub__", "__rsub__",
                          "__mul__", "__rmul__", "__truediv__", "__rtruediv__"))


class TestAberthComplexArithmetic:
    @staticmethod
    def strict_statuses(monkeypatch):
        """The list every later `_aberth` call on complex starts appends its
        status to, each run on starts that refuse a float operand; runs on
        real starts go through untouched."""
        honest = verify._aberth
        statuses = []

        def strict(c, z):
            if isinstance(z[0], float):
                return honest(c, z)
            strict_z = [ComplexOnly(zj) for zj in z]
            try:
                statuses.append(honest(c, strict_z))
                return statuses[-1]
            finally:
                z[:] = map(complex, strict_z)

        monkeypatch.setattr(verify, "_aberth", strict)
        return statuses

    @pytest.mark.parametrize("name,m", STALLING[:3], ids=str)
    def test_complex_runs_take_no_float_operand(self, name, m, monkeypatch):
        """Each `_aberth` call on complex starts, over the runs of
        find_roots, computes with complex operands only, and so to the
        same bits: a float operand costs a conversion in CPython 3.10-3.13
        and rounds by C99 Annex G rules from 3.14.  A20 9999 and A24 1084
        take the real run on G; with it refused, as on a G it cannot
        solve, they take the complex run on G from the Newton polygon."""
        monkeypatch.setattr(verify, "_real_aberth", lambda G: None)
        p = char_poly(rid(name), m)
        want = bits(find_roots(p).roots)
        statuses = self.strict_statuses(monkeypatch)
        assert bits(find_roots(p).roots) == want
        assert statuses == expected_statuses(name, m)

    @pytest.mark.parametrize("kind,eps", OFF_LINE, ids=str)
    def test_complex_runs_off_the_line_take_no_float_operand(self, kind, eps, monkeypatch):
        """The same on factors off the line, centred at 0 already, whose one
        complex run on G is unforced."""
        p = off_line_parity_factor(kind, eps)
        want = bits(find_roots(p).roots)
        statuses = self.strict_statuses(monkeypatch)
        assert bits(find_roots(p).roots) == want
        assert statuses == ["converged"]


def reference_residual_bound(p, roots):
    """`find_roots`' residual bound as it was computed, with `_horner2`
    evaluating the derivative beside each value."""
    floats = [c / p.den for c in p.nums]
    coeffs = verify._complex(floats)
    moduli = [abs(c) for c in floats]
    residuals = []
    for z in roots:
        val = abs(verify._horner2(coeffs, z)[0])
        r = max(1.0, abs(z))
        denom = math.fsum(a * r**i for i, a in enumerate(moduli))
        residuals.append(val / denom)
    return max(residuals, default=0.0)


def reference_centred_roots(factor, centroid):
    """`verify._centred_roots` with no starts as it was before the real run
    on the even part, the inclusion radii evaluated at every root of g, -r
    included."""
    g = factor.compose_affine(1, centroid)
    cc = verify._monic_floats(g)
    shift = float(centroid)
    eps = g.degree % 2
    if not any(g.nums[1 - eps::2]):
        cg = verify._monic_floats(RatPoly.over(g.nums[eps::2], g.den))
        u = verify._polygon_starts(cg)
        status = verify._aberth(cg, u)
        halves = [cmath.sqrt(uk) for uk in u]
        s = [0j] * eps + halves + [-r for r in halves]
    else:
        s = verify._polygon_starts(cc)
        status = verify._aberth(cc, s)
    return [sj + shift for sj in s], verify._inclusion_radii(cc, s), status


def reference_line_roots(factor, centroid):
    """`verify._centred_roots` with no starts on a factor whose even part
    G takes the real run: i*sqrt(-x) and its negative for each iterate x of
    `_real_aberth`, and 0 at odd degree, shifted by c; the inclusion radii
    evaluated at every root of g, -r included."""
    g = factor.compose_affine(1, centroid)
    cc = verify._monic_floats(g)
    eps = g.degree % 2
    x, status = verify._real_aberth(g.nums[eps::2])
    halves = [complex(0.0, math.sqrt(-xk)) for xk in x]
    s = [0j] * eps + halves + [-r for r in halves]
    return [sj + float(centroid) for sj in s], verify._inclusion_radii(cc, s), status


def one_parity_factors():
    """(label, factor, centroid) for each factor of `root_finder_inputs`
    that has one parity about its root centroid, as the route runs it."""
    for label, p in root_finder_inputs():
        for factor, _ in verify._squarefree_factors(p):
            n = factor.degree
            centroid = Fraction(-factor.nums[-2], n * factor.nums[-1])
            if n > 1 and not any(factor.compose_affine(1, centroid).nums[1 - n % 2::2]):
                yield label, factor, centroid


def reference_squarefree_mod_prime(a):
    """`verify._squarefree_mod_prime` reducing mod q after every product."""
    q = verify.WITNESS_PRIME
    if a[-1] % q == 0:
        return False
    u = [x % q for x in a]
    v = [j * x % q for j, x in enumerate(a)][1:]
    while len(v) > 1:
        inv = pow(v[-1], -1, q)
        while len(u) >= len(v):
            c = u[-1] * inv % q
            k = len(u) - len(v)
            for j, x in enumerate(v):
                u[k + j] = (u[k + j] - c * x) % q
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(v) == 1


@functools.cache
def root_finder_inputs():
    """The 280 pooled classical-sweep inputs, then the limit polynomials and
    limit combinations of A, B, C and D at ranks 2 to 41."""
    inputs = [(f"{name} {m}", char_poly(rid(name), m)) for name, m in pooled_sweep_inputs()]
    for family in "ABCD":
        for rank in range(4 if family == "D" else 2, 42):
            ident = RootSystemId(family, rank)
            inputs += [(f"limit {ident}", limit_poly(ident)), (f"comb {ident}", limit_combination(ident))]
    return inputs


def radii_bits(radii):
    return [r.hex() for r in radii]


class TestRootFinderKeepsItsBits:
    """Three shortcuts of the root finder against the forms they replace,
    to the bit: the residual pass without the derivative, the radii of a
    one-parity run mirrored from r to -r, and the witness reduced once per
    remainder."""

    def test_residual_bound(self):
        for label, p in root_finder_inputs():
            rs = find_roots(p)
            assert rs.residual_bound.hex() == reference_residual_bound(p, rs.roots).hex(), label

    def test_mirrored_radii(self):
        """Every factor whose centred form has one parity, run as the route
        runs it: the 280 pooled inputs, two limit polynomials and 79 limit
        combinations at even degree, and 79 limit combinations at odd.
        Each takes the real run on its even part, and again, with that run
        refused, the complex run as it was before; then planted factors off
        the line take the complex run unforced."""

        def run_bits(roots, radii, status):
            return bits(roots), radii_bits(radii), status

        parities = [0, 0]
        for label, factor, centroid in one_parity_factors():
            parities[factor.degree % 2] += 1
            want = reference_line_roots(factor, centroid)
            assert want[2] == "converged", label
            assert run_bits(*verify._centred_roots(factor, centroid)) == run_bits(*want), label
        assert parities == [361, 79]
        planted = [(f"{kind} {eps}", off_line_parity_factor(kind, eps), Fraction(0)) for kind, eps in OFF_LINE]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_real_aberth", lambda G: None)
            refused = [(label, factor, centroid, verify._centred_roots(factor, centroid))
                       for label, factor, centroid in one_parity_factors()]
        unforced = [(label, factor, centroid, verify._centred_roots(factor, centroid))
                    for label, factor, centroid in planted]
        for label, factor, centroid, got in refused + unforced:
            assert run_bits(*got) == run_bits(*reference_centred_roots(factor, centroid)), label
        assert len(refused) == 440 and len(unforced) == 4

    def test_squarefree_witness(self):
        """Every input but A2's limit polynomial, (t - 1)^2, is square-free,
        and so the witness proves; a planted square it does not."""
        repeated = mul(power(from_roots([2, Fraction(-3, 5)]), 2), from_roots([7]))
        cases = [*root_finder_inputs(), ("repeated", repeated)]
        answers = []
        for label, p in cases:
            answers.append(verify._squarefree_mod_prime(p.nums))
            assert answers[-1] == reference_squarefree_mod_prime(p.nums), label
        assert answers.count(False) == 2 and answers[-1] is False


class TestLimitPoly:
    def test_g2(self):
        assert limit_poly(rid("G2")) == RatPoly((31, -26, 6))

    def test_e6_display_form(self):
        weights = {1: 1, 2: 61, 3: 537, 4: 1916, 5: 3782, 6: 2343}
        want = ZERO
        for i, a in weights.items():
            want = want + from_roots([i] * 6).scale(a)
        assert limit_poly(rid("E6")) == want

    @pytest.mark.parametrize("ident", EXCEPTIONAL_IDS, ids=str)
    def test_leading_coefficient(self, ident):
        data = lookup(ident)
        assert limit_poly(ident).coeffs[-1] == Fraction(data.weyl_order, 2 * data.index_of_connection)


class TestMaxRealPart:
    """Table 2 truncates the maximal real part to its printed digits: for a
    value P with k decimals, P <= max Re t < P + 10^-k, decided exactly."""

    @pytest.mark.parametrize(
        "name,value",
        [("E6", "5.3703"), ("E7", "8.4367"), ("E8", "14.6604"), ("F4", "4.8967"), ("G2", "2.166")],
    )
    def test_printed_table(self, name, value):
        F = limit_poly(rid(name))
        low = Fraction(value)
        high = low + Fraction(1, 10 ** len(value.partition(".")[2]))
        assert not halfplane_exact(F, 2 * low)
        assert halfplane_exact(F, 2 * high)

    def test_g2_exact_value(self):
        F = limit_poly(rid("G2"))
        assert not halfplane_exact(F, Fraction(13, 3))
        assert halfplane_exact(F, Fraction(13, 3) + Fraction(1, 2**60))


class TestCheckOnLineExact:
    def test_quadratic_centered_at_three(self):
        rep = check_on_line_exact(RatPoly((11, -6, 1)), 6)
        assert rep.on_line and rep.method == "exact-sturm" and rep.center == 3

    def test_real_roots_off_line(self):
        rep = check_on_line_exact(from_roots([2, 4]), 6)
        assert not rep.on_line

    def test_parity_violation(self):
        rep = check_on_line_exact(from_roots([0, 0, 1]), 0)
        assert not rep.on_line and rep.details == {"parity_ok": False}

    def test_degenerate_degree_zero(self):
        assert check_on_line_exact(RatPoly((4,)), 6).on_line
        # a constant takes the general path: the same detail keys as any
        # on-line verdict, with its even part the constant itself
        keys = {"parity_ok", "even_part", "even_part_all_roots_real_nonpositive"}
        assert set(check_on_line_exact(RatPoly((11, -6, 1)), 6).details) == keys
        for c in (4, -7, Fraction(-2, 3)):
            rep = check_on_line_exact(RatPoly((c,)), 6)
            assert rep.on_line and rep.method == "exact-sturm" and rep.center == 3
            assert set(rep.details) == keys
            assert rep.details["parity_ok"] and rep.details["even_part_all_roots_real_nonpositive"]
            assert rep.details["even_part"] == RatPoly((c,)).to_json()

    def test_odd_center_times_two(self):
        # roots 3/2 +- i
        p = RatPoly((Fraction(13, 4), -3, 1))
        assert check_on_line_exact(p, 3).on_line

    def test_repeated_roots_on_line(self):
        p = mul(power(RatPoly((5, -4, 1)), 2), RatPoly((-2, 1)))  # ((t-2)^2+1)^2 (t-2)
        assert check_on_line_exact(p, 4).on_line

    def test_planted_lines_and_mutations(self):
        rng = random.Random(1234)
        flipped = 0
        for _ in range(40):
            M = 2 * rng.randint(-3, 6)
            c = M // 2
            n_linear = rng.randint(0, 1)
            n_pairs = rng.randint(1, 4 - n_linear)  # keep degree <= 8
            p = from_roots([c] * n_linear)
            for _ in range(n_pairs):
                y = rng.randint(1, 9)
                p = mul(p, RatPoly((c * c + y * y, -2 * c, 1)))
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
        # each even part has a multiple root at u = 0, where a Sturm chain
        # vanishes in every element unless the root is divided out first
        s, M = RatPoly((-c, 1)), int(2 * c)  # t - c and the line Re t = M/2
        assert check_on_line_exact(power(s, 5), M).on_line
        assert check_on_line_exact(mul(power(s, 4), mul(s, s) + ONE), M).on_line
        assert not check_on_line_exact(mul(power(s, 4), sub(mul(s, s), ONE)), M).on_line

    def test_e6_at_m_zero(self):
        # char_poly(E6, 0) = t^6, whose even part about M = 0 is u^3
        p = char_poly(rid("E6"), 0)
        assert p == monomial(6)
        rep = check_on_line_exact(p, 0)
        assert rep.on_line and rep.details["even_part"] == monomial(3).to_json()


def with_even_part(G1, eps, j, M):
    """p(t) = g(t - M/2) for g(s) = s^eps (s^2)^j G1(s^2): p has the parity
    about Re t = M/2 that the exact line check tests, and its G1 is G1."""
    nums = [0] * (eps + 2 * j) + [v for x in G1.nums for v in (x, 0)][:-1]
    return RatPoly.over(nums, G1.den).compose_affine(1, Fraction(-M, 2))


def counted_report(p, M):
    """The exact line report with the witness out of reach: `_counts` alone."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_WITNESS_MIN_DEGREE", math.inf)
        return check_on_line_exact(p, M)


def record_witness(monkeypatch):
    """The list every later `_line_witness` call appends (deg G1, answer) to."""
    honest = verify._line_witness
    calls = []

    def recording(G1):
        calls.append((len(G1) - 1, honest(G1)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "_line_witness", recording)
    return calls


def g1_degree(p, M):
    """deg G1 of p about Re t = M/2, None without the parity."""
    g = p.compose_affine(1, Fraction(M, 2))
    eps = g.degree % 2
    if any(g.nums[1 - eps::2]):
        return None
    G = g.nums[eps::2]
    return len(G) - 1 - next(k for k, x in enumerate(G) if x)


def planted(kind, a, x=0, e=0, eps=0, j=0, M=0):
    """(kind, G1, negatives, p, M): G1 has the simple roots -a_k for the
    positive rationals a and, by kind, no other root, the positive root x,
    the pair -x +- i*e, or the double root -x; negatives lists the -a_k,
    and p is planted about Re t = M/2 by `with_even_part`.  Only the first
    and last kinds are on the line, and only the first has deg G1 distinct
    negative roots."""
    G1 = from_roots([-r for r in a])
    if kind == "one positive":
        G1 = mul(G1, from_roots([x]))
    elif kind != "distinct negative":
        G1 = mul(G1, RatPoly((x * x + e * e, 2 * x, 1)))
    return kind, G1, sorted(-r for r in a), with_even_part(G1, eps, j, M), M


#: The roots planted beyond the simple negative ones, by kind.
LINE_KINDS = {"distinct negative": 0, "one positive": 1, "pair near the axis": 2, "double root": 2}


@st.composite
def planted_even_parts(draw):
    """`planted` at deg G1 from the cut to 4 above it, with distinct a_k up to
    300 over one denominator, a positive root nearer 0 than every -a_k, so
    that no iterate need cross the others to reach it, and a pair within
    2**-40 to 1 of the negative axis."""
    kind = draw(st.sampled_from(sorted(LINE_KINDS)))
    n = draw(st.integers(verify._WITNESS_MIN_DEGREE, verify._WITNESS_MIN_DEGREE + 4)) - LINE_KINDS[kind]
    den = draw(st.integers(1, 4))
    a = [Fraction(k, den) for k in draw(st.lists(st.integers(1, 300), min_size=n, max_size=n, unique=True))]
    x = min(a) * Fraction(draw(st.integers(1, 7)), 8) if kind == "one positive" else Fraction(
        draw(st.integers(1, 300)), den)
    e = Fraction(1, 2 ** draw(st.integers(0, 40))) if kind == "pair near the axis" else 0
    eps, j, M = draw(st.integers(0, 1)), draw(st.integers(0, 1)), draw(st.integers(-40, 40))
    return planted(kind, a, x, e, eps, j, M)


class TestLineWitness:
    """`_line_witness` ahead of `_counts` in `check_on_line_exact`: it
    proves only what is true, whatever the floats propose, leaves every
    report as the count makes it, and answers where it should."""

    @given(planted_even_parts())
    @example(planted("one positive", range(1, 10), Fraction(1, 8)))
    @example(planted("pair near the axis", range(1, 9), 9, Fraction(1, 2**18)))
    @example(planted("double root", range(1, 9), 9))
    @settings(max_examples=120, deadline=None)
    def test_planted_even_parts(self, case):
        kind, G1, _, p, M = case
        g = p.compose_affine(1, Fraction(M, 2))
        on_line = kind in ("distinct negative", "double root")
        assert (verify._counts(g.nums)[1] == g.degree) is on_line
        rep = check_on_line_exact(p, M)
        assert rep.on_line is on_line
        assert rep == counted_report(p, M)
        assert not verify._line_witness(G1.nums) or kind == "distinct negative"

    @given(planted_even_parts(), st.lists(st.floats(-1, 1), min_size=2, max_size=2))
    @example(planted("one positive", range(1, 10), Fraction(1, 8)), [-1.0, -1.0])
    @settings(max_examples=120, deadline=None)
    def test_any_proposal(self, case, extras):
        """With `_aberth` replaced by one that leaves the planted negative
        roots, as doubles, and for each other root of G1 a double within
        4 * max |a_k| of 0, the witness proves exactly the G1 of distinct
        negative roots: what floats propose does not decide."""
        kind, G1, negatives, _, _ = case
        spread = 4 * float(-negatives[0])
        proposal = [float(r) for r in negatives] + [spread * f for f in extras[:LINE_KINDS[kind]]]

        def propose(c, z):
            z[:] = proposal
            return "spent"

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_aberth", propose)
            assert verify._line_witness(G1.nums) is (kind == "distinct negative")

    def test_roots_lost_below_the_doubles(self, monkeypatch):
        """G1 = (2**1200 u - 1) (u + 1) ... (u + 10): its doubles read the
        constant term as 0.0, so `_line_starts` gives its root 2**-1200 no
        start, and iterates on all ten negative roots prove nothing.  Nor
        does 2**1200 u^10 + 1, whose doubles read u^10 and give no start.
        Both verdicts are the count's: off the line."""
        G1 = mul(RatPoly((-1, 2**1200)), from_roots(range(-1, -11, -1)))
        assert len(verify._line_starts(verify._monic_floats(G1))) == G1.degree - 1
        monkeypatch.setattr(verify, "_aberth", lambda c, z: z.__setitem__(slice(None), map(float, range(-10, 0))))
        assert not verify._line_witness(G1.nums)
        for G1 in (G1, RatPoly([1] + [0] * 9 + [2**1200])):
            p = with_even_part(G1, 1, 0, 6)
            assert check_on_line_exact(p, 6) == counted_report(p, 6)
            assert not check_on_line_exact(p, 6).on_line

    def test_traffic(self, monkeypatch):
        """The witness answers every pooled classical-sweep input with
        deg G1 at the cut or above (A20, A24, A28), is not called below it,
        answers A60 m=3, C60 m=5 and D50 m=7, and falls back on A80 m=1,
        where doubles do not separate the roots of G1."""
        calls = record_witness(monkeypatch)
        answered = 0
        for name, m in pooled_sweep_inputs():
            del calls[:]
            p, M = char_poly(rid(name), m), m * lookup(rid(name)).coxeter_number
            assert check_on_line_exact(p, M).on_line
            n = g1_degree(p, M)
            assert calls == ([(n, True)] if n >= verify._WITNESS_MIN_DEGREE else []), (name, m)
            answered += bool(calls)
        assert answered == 84
        for name, m, want in [("A60", 3, True), ("C60", 5, True), ("D50", 7, True), ("A80", 1, False)]:
            del calls[:]
            p, M = char_constituent(rid(name), m, 1), m * lookup(rid(name)).coxeter_number
            assert check_on_line_exact(p, M).on_line
            assert calls == [(g1_degree(p, M), want)], (name, m)


def pairs_off_the_axis(K):
    """prod (u^2 + 2ku + k^2 + 4) over k = 1..K: positive coefficients and
    the roots -k +- 2i, none real."""
    return mul(*[RatPoly((k * k + 4, 2 * k, 1)) for k in range(1, K + 1)])


def refuse_to_run(c, z):
    raise AssertionError("_aberth ran")


def counting_runs(monkeypatch):
    """The list every later `_aberth` call appends its degree to, each
    ending "spent" with its starts untouched."""
    runs = []

    def count(c, z):
        runs.append(len(c) - 1)
        return "spent"

    monkeypatch.setattr(verify, "_aberth", count)
    return runs


class TestRealAberth:
    """`_real_aberth`'s two exact tests, one sign and Newton's inequalities
    held strictly: every G with distinct negative roots passes both, and G
    that fails either costs no run."""

    @pytest.mark.parametrize("K", [5, 8, 12, 16])
    def test_pairs_off_the_axis_run_nothing(self, K, monkeypatch):
        """Off the line at deg G 10, 16, 24 and 32, which took all 200 real
        sweeps before the count; the line verdict is the count's."""
        G1 = pairs_off_the_axis(K)
        monkeypatch.setattr(verify, "_aberth", refuse_to_run)
        assert verify._real_aberth(G1.nums) is None
        p = with_even_part(G1, 1, 0, 6)
        assert check_on_line_exact(p, 6) == counted_report(p, 6)
        assert not check_on_line_exact(p, 6).on_line

    @pytest.mark.parametrize("n", [2, 3, 10, 11])
    def test_equal_roots_run_nothing(self, n, monkeypatch):
        """(u + 3)^n meets Newton's inequalities with equality at every k,
        so the strict test turns it away; on the line all the same."""
        G1 = power(from_roots([-3]), n)
        monkeypatch.setattr(verify, "_aberth", refuse_to_run)
        assert verify._real_aberth(G1.nums) is None
        p = with_even_part(G1, 0, 1, -4)
        assert check_on_line_exact(p, -4) == counted_report(p, -4)
        assert check_on_line_exact(p, -4).on_line

    @pytest.mark.parametrize("G", [
        [-6, 1, 1],  # (u + 3)(u - 2)
        [1, 0, 1],  # u^2 + 1
        [6, 5, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # a zero run in the middle
        [2, 3, -1],
    ], ids=str)
    def test_mixed_signs_and_zeros_run_nothing(self, G, monkeypatch):
        monkeypatch.setattr(verify, "_aberth", refuse_to_run)
        assert verify._real_aberth(G) is None

    @given(st.lists(rationals(30, 8).map(abs).filter(bool), min_size=1, max_size=20, unique=True),
           st.sampled_from([1, -1]))
    @example([Fraction(1), Fraction(1, 10**6), Fraction(10**6)], 1)  # roots 12 orders apart
    @settings(max_examples=150, deadline=None)
    def test_distinct_negative_roots_run(self, a, sign):
        G = from_roots([-r for r in a]).scale(sign)
        with pytest.MonkeyPatch.context() as patch:
            runs = counting_runs(patch)
            verify._real_aberth(G.nums)
        assert runs == [len(a)]

    @pytest.mark.parametrize("proposal", [
        [-3.0, -2.0, 0.5], [-3.0, -2.0, 0.0], [-3.0, -2.0, -2.0], [-3.0, -2.0, -1 + 1e-9j],
    ], ids=str)
    def test_converged_iterates_off_the_negative_axis_answer_none(self, proposal, monkeypatch):
        """Iterates that are not negative, distinct doubles answer None
        whatever the run's status, and the root finder takes the complex
        run: a positive one would have no real square root."""
        G = from_roots([-1, -2, -3])
        p = with_even_part(G, 1, 0, 0)
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_real_aberth", lambda G: None)
            want = find_roots(p)
        honest = verify._aberth
        proposed = []

        def propose(c, z):
            if not isinstance(z[0], float):
                return honest(c, z)
            z[:] = proposal
            proposed.append(len(c) - 1)
            return "converged"

        monkeypatch.setattr(verify, "_aberth", propose)
        assert verify._real_aberth(G.nums) is None
        assert bits(find_roots(p).roots) == bits(want.roots)
        assert proposed == [3, 3]

    def test_every_pooled_even_part_runs(self, monkeypatch):
        """The even part G of each of the 280 pooled classical-sweep inputs
        about its line passes both tests; G(0) != 0, so G is G1, on which
        the line check runs, and the G on which the root finder runs."""
        runs = counting_runs(monkeypatch)
        for name, m in pooled_sweep_inputs():
            g = char_poly(rid(name), m).compose_affine(1, Fraction(m * lookup(rid(name)).coxeter_number, 2))
            G = g.nums[g.degree % 2::2]
            assert G[0]
            verify._real_aberth(G)
        assert len(runs) == 280


class TestCheckOnLineNumeric:
    def test_agrees_with_exact_on_line(self):
        rep = check_on_line_numeric(char_poly(rid("E6"), 5), 60)
        assert rep.on_line and rep.method == "numeric"
        assert rep.details["max_deviation"] < 1e-8

    def test_detects_off_line(self):
        assert not check_on_line_numeric(from_roots([2, 4]), 6).on_line

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
        p = mul(from_roots([center + re]), from_roots([center + re]))
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
        # root exactly on Re = 3: counted on the line, so the strict bound fails
        assert halfplane_exact(RatPoly((-3, 1)), 6) is False


def pair(re, im):
    """(t - re)^2 + im^2, with the roots re +- i*im."""
    return RatPoly((re * re + im * im, -2 * re, 1))


#: Each kind of factor planted about a centre c, built from nonzero rationals
#: x and y, with the (left, on, right) counts of its roots about Re t = c.
PLANTED = {
    "real root": lambda c, x, y: (from_roots([c + x]), (int(x < 0), 0, int(x > 0))),
    "pair on the line": lambda c, x, y: (pair(c, y), (0, 2, 0)),
    "pair off the line": lambda c, x, y: (pair(c + x, y), (2 * int(x < 0), 0, 2 * int(x > 0))),
    "mirrored pair": lambda c, x, y: (from_roots([c - x, c + x]), (1, 0, 1)),
    "quadruple": lambda c, x, y: (mul(pair(c - x, y), pair(c + x, y)), (2, 0, 2)),
    "root at the centre": lambda c, x, y: (from_roots([c]), (0, 1, 0)),
}
nonzero_rationals = rationals(6, 4).filter(bool)


@st.composite
def planted_counts(draw):
    """(p, c, counts): p = lead * prod f^k over one to three factors f of
    `PLANTED` about a rational centre c, each with k in 1..3, and the
    (left, on, right) counts of its roots about Re t = c."""
    c = draw(rationals(6, 4))
    p, counts = RatPoly((draw(nonzero_rationals),)), (0, 0, 0)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(PLANTED)))
        f, adds = PLANTED[kind](c, draw(nonzero_rationals), draw(nonzero_rationals))
        k = draw(st.integers(1, 3))
        p = mul(p, power(f, k))
        counts = tuple(n + k * a for n, a in zip(counts, adds))
    return p, c, counts


def counts_about(p, c):
    """(left, on, right) for the roots of p about Re t = c."""
    return verify._counts(p.compose_affine(1, c).nums)


class TestCounts:
    """`verify._counts` on planted roots: every kind it tells apart, with
    multiplicity, about a rational centre."""

    @given(planted_counts())
    @example((RatPoly((-5,)), 3, (0, 0, 0)))  # no roots
    @example((from_roots([1, 2]), 0, (0, 0, 2)))  # even degree, both roots right
    @example((power(pair(Fraction(1, 2), 3), 2), Fraction(1, 2), (0, 4, 0)))  # a repeated root on the line
    @example((from_roots([-2, -2, -2, 0, 0, 0]), -2, (0, 3, 3)))  # a triple root at the centre
    @example((from_roots([Fraction(-1, 3), Fraction(7, 3)]), 1, (1, 0, 1)))  # a mirrored pair
    @example((mul(pair(-1, 2), pair(3, 2)), 1, (2, 0, 2)))  # a quadruple
    @settings(max_examples=200, deadline=None)
    def test_planted_roots(self, case):
        p, c, counts = case
        assert counts_about(p, c) == counts
        assert sum(counts) == p.degree

    @given(planted_counts())
    @example((from_roots([1, 2, 2]), 0, (0, 0, 3)))
    @settings(max_examples=100, deadline=None)
    def test_mirror_image_swaps_left_and_right(self, case):
        p, c, (left, on, right) = case
        assert counts_about(p.compose_affine(-1, 2 * c), c) == (right, on, left)

    @given(planted_counts(), nonzero_rationals.map(lambda x: -abs(x)))
    @settings(max_examples=100, deadline=None)
    def test_negative_scale_changes_nothing(self, case, s):
        p, c, counts = case
        assert counts_about(p.scale(s), c) == counts


class TestExceptionalCensus:
    """Every constituent of G2, F4, E6, E7 and E8 at m = 1..24, counted about
    its line Re t = m*h/2."""

    def test_census(self):
        off_line = collections.Counter()
        for ident in EXCEPTIONAL_IDS:
            data = lookup(ident)
            admissible = admissible_residues(ident).residues
            for m in range(1, 25):
                for d in range(data.period):
                    p = char_constituent(ident, m, d)
                    counts = counts_about(p, Fraction(m * data.coxeter_number, 2))
                    on_line = counts == (0, p.degree, 0)
                    assert on_line is check_on_line_exact(p, m * data.coxeter_number).on_line
                    if d in admissible:
                        assert on_line, (str(ident), m, d, counts)
                    else:  # off the line exactly when m = 3 mod 4
                        assert on_line is (m % 4 != 3), (str(ident), m, d, counts)
                    if not on_line:
                        assert counts[1] == 0, (str(ident), m, d, counts)
                        off_line[str(ident), counts] += 1
        assert off_line == {("E7", (3, 0, 4)): 18, ("E7", (4, 0, 3)): 18, ("E8", (4, 0, 4)): 180}


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

    def test_counting_the_marks_holds_no_copy_at_the_cap(self):
        # A1 at q = 10**7 marks one point for m = 1 and 10**7 - 1 points in
        # one run for m = q; counted in place, both peak at the grid's size.
        # Each child prints its peak resident set from VmHWM, which starts
        # afresh at exec: on Linux ru_maxrss keeps the peak of the process
        # that forked it, here the test runner's, which is above both.
        script = (
            "import re, sys\n"
            "from linchar.oracles import bruteforce_modq_counts\n"
            "from linchar.rootdata import RootSystemId\n"
            "m = int(sys.argv[1])\n"
            "print(bruteforce_modq_counts(RootSystemId('A', 1), [m], 10**7, unsafe=True)[0])\n"
            "with open('/proc/self/status') as status:\n"
            "    print(re.search(r'VmHWM:\\s*(\\d+) kB', status.read())[1])\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        peaks_kb = {}
        for m, count in ((1, 10**7 - 1), (10**7, 1)):
            out = subprocess.run(
                [sys.executable, "-c", script, str(m)], capture_output=True, text=True, env=env, check=True
            ).stdout.split()
            assert int(out[0]) == count
            peaks_kb[m] = int(out[1])
        assert peaks_kb[10**7] - peaks_kb[1] < 2 * 1024, peaks_kb

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


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: char_constituent(rid("G2"), -1, 1), "m must be >= 0",
                 id="char_constituent"),
    pytest.param(lambda: char_quasi(rid("G2"), -1, True), "m must be >= 0", id="half_char_quasi"),
    pytest.param(lambda: toy_poly(rid("G2"), -1), "m must be >= 0", id="toy_poly"),
    pytest.param(lambda: bruteforce_modq_counts(rid("G2"), (2, -1), 7), "m must be >= 0",
                 id="modq-m"),
    pytest.param(lambda: bruteforce_modq_counts(rid("G2"), (0,), 0), "q must be >= 1",
                 id="modq-q"),
    pytest.param(lambda: asymptotic_track(rid("G2"), 1, [0]), "m must be >= 1 for tracking",
                 id="asymptotic_track"),
    pytest.param(lambda: check_on_line_exact(ZERO, 2), "zero polynomial",
                 id="check_on_line_exact"),
    pytest.param(lambda: halfplane_exact(ZERO, 2), "zero polynomial",
                 id="halfplane_exact"),
])
def test_input_guards_refuse(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
