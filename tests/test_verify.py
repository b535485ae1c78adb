import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linchar.verify as verify
from linchar.errors import NonConvergence, OracleTooLarge, QTooSmall, UnsupportedRank
from linchar.linial import char_poly, char_quasi, toy_poly
from linchar.ratpoly import RatPoly
from linchar.rootdata import EXCEPTIONAL_IDS, RootSystemId, lookup, positive_roots
from linchar.verify import (
    asymptotic_track,
    bruteforce_modq,
    check_on_line_exact,
    check_on_line_numeric,
    find_roots,
    halfplane_exact,
    halfplane_numeric_margin,
    limit_combination,
    limit_poly,
    max_real_part,
)


def rid(text):
    return RootSystemId.parse(text)


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

    def test_deterministic(self):
        p = limit_poly(rid("F4"))
        assert find_roots(p).roots == find_roots(p).roots


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


class TestCheckOnLineNumeric:
    def test_agrees_with_exact_on_line(self):
        rep = check_on_line_numeric(char_poly(rid("E6"), 5), 60)
        assert rep.on_line and rep.method == "numeric"
        assert rep.details["max_deviation"] < 1e-8

    def test_detects_off_line(self):
        assert not check_on_line_numeric(RatPoly.from_roots([2, 4]), 6).on_line


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

    def test_numeric_margin_matches_table(self):
        assert halfplane_numeric_margin(limit_poly(rid("E8")), 30) == pytest.approx(
            15 - 14.6604, abs=1e-3
        )


@st.composite
def oracle_cases(draw):
    ident = rid(draw(st.sampled_from(["A1", "A2", "B2", "C2", "G2", "A3", "B3", "C3", "D3"])))
    q = draw(st.integers(1, 40 if ident.rank < 3 else 15))
    return ident, draw(st.integers(0, q + 2)), q


def enumerated_modq(ident, m, q):
    """The points of (Z/q)^l on no hyperplane alpha(x) = 1..m, counted one by one."""
    forms = positive_roots(ident).roots
    return sum(
        all(sum(c * x for c, x in zip(form, point)) % q not in range(1, m + 1) for form in forms)
        for point in itertools.product(range(q), repeat=ident.rank)
    )


class TestBruteforceModq:
    @given(case=oracle_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_point_by_point_enumeration(self, case):
        ident, m, q = case
        assert bruteforce_modq(ident, m, q, unsafe=True) == enumerated_modq(ident, m, q)

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
        just_over = math.isqrt(verify.ORACLE_MAX_POINTS) + 1
        with pytest.raises(OracleTooLarge):
            bruteforce_modq(rid("G2"), 1, just_over)

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
