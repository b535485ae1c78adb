from fractions import Fraction

import pytest

from linchar.ehrhart import gcd_property
from linchar.errors import NotAdmissible, SymmetryViolation
from linchar.linial import (
    admissible_residues,
    averaged_half,
    char_poly,
    char_quasi,
    half_char_quasi,
    toy_poly,
    weyl_char_quasi,
)
from linchar.ratpoly import RatPoly
from linchar.rootdata import EXCEPTIONAL_IDS, RootSystemId, lookup
from linchar.verify import check_on_line_exact


def rid(text):
    return RootSystemId.parse(text)


class TestCharQuasi:
    def test_g2_m1_collapses_by_parity(self):
        cq = char_quasi(rid("G2"), 1)
        for d in range(6):
            want = RatPoly((11, -6, 1)) if d % 2 else RatPoly((14, -6, 1))
            assert cq.constituent(d) == want

    @pytest.mark.parametrize("name", ["A2", "B3", "E6", "G2"])
    def test_m_zero_is_empty_arrangement(self, name):
        data = lookup(rid(name))
        cq = char_quasi(rid(name), 0)
        assert all(c == RatPoly.monomial(data.rank) for c in cq.constituents)

    @pytest.mark.parametrize("name,m", [("G2", 2), ("B2", 3), ("E6", 1), ("F4", 2)])
    def test_constituents_monic_integer(self, name, m):
        data = lookup(rid(name))
        cq = char_quasi(rid(name), m)
        for c in cq.constituents:
            assert c.degree == data.rank
            assert c.leading == 1
            assert all(x.denominator == 1 for x in c.coeffs)

    @pytest.mark.parametrize("name,m", [("G2", 1), ("E6", 2), ("E8", 1), ("F4", 3)])
    def test_gcd_property(self, name, m):
        assert gcd_property(char_quasi(rid(name), m)).holds

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            char_quasi(rid("G2"), -1)

    @pytest.mark.parametrize("name,m", [("G2", 1), ("G2", 3), ("E7", 2), ("B3", 4)])
    def test_functional_equation(self, name, m):
        data = lookup(rid(name))
        cq = char_quasi(rid(name), m)
        mh = m * data.coxeter_number
        sign = (-1) ** data.rank
        for d in range(cq.period):
            assert cq.constituent(d) == cq.constituent(mh - d).compose_affine(-1, mh).scale(sign)


class TestCharPoly:
    def test_g2_m1(self):
        assert char_poly(rid("G2"), 1) == RatPoly((11, -6, 1))

    def test_m_zero(self):
        assert char_poly(rid("E6"), 0) == RatPoly.monomial(6)

    def test_e6_m1_functional_equation(self):
        p = char_poly(rid("E6"), 1)
        assert p.degree == 6 and p.leading == 1
        # self-check used in place of an external table: chi is symmetric
        # about t = mh/2 = 6 up to the sign (-1)^l
        assert p.compose_affine(-1, 12) == p


class TestBruteforceCrossCheck:
    def test_g2_m2_at_q100(self):
        from linchar.verify import bruteforce_modq

        assert char_quasi(rid("G2"), 2).value(100) == bruteforce_modq(rid("G2"), 2, 100)

    def test_a2_m1_at_q7(self):
        from linchar.verify import bruteforce_modq

        assert char_quasi(rid("A2"), 1).value(7) == bruteforce_modq(rid("A2"), 1, 7)


class TestHalfCharQuasi:
    def test_g2_m1_table(self):
        half = half_char_quasi(rid("G2"), 1)
        constants = {0: 12, 1: 5, 2: 10, 3: 3, 4: 14, 5: 1}
        for d, c in constants.items():
            assert half.constituent(d) == RatPoly((c, -8, 3)).scale(Fraction(1, 6))

    @pytest.mark.parametrize("name,m", [("G2", 1), ("E6", 2), ("F4", 1), ("B3", 2)])
    def test_decomposition_into_halves(self, name, m):
        data = lookup(rid(name))
        cq = char_quasi(rid(name), m)
        half = half_char_quasi(rid(name), m)
        mh = m * data.coxeter_number
        sign = (-1) ** data.rank
        for d in range(cq.period):
            mirrored = half.constituent(mh - d).compose_affine(-1, mh).scale(sign)
            assert cq.constituent(d) == half.constituent(d) + mirrored

    def test_a1_half_is_half_the_shift(self):
        # R_{A1} = x, so R' = x/2 and the half is half of one shifted copy
        a1 = rid("A1")
        for m in (0, 1, 3):
            half = half_char_quasi(a1, m)
            cq = char_quasi(a1, m)
            assert half.constituent(0) == cq.constituent(0).scale(Fraction(1, 2))


class TestWeylCharQuasi:
    def test_g2_table(self):
        W = weyl_char_quasi(rid("G2"))
        assert W.constituent(1) == RatPoly((5, -6, 1))
        assert W.constituent(3) == RatPoly((9, -6, 1))
        assert W.constituent(0) == RatPoly((12, -6, 1))
        assert W.constituent(2) == RatPoly((8, -6, 1))

    def test_a2_classical(self):
        W = weyl_char_quasi(rid("A2"))
        assert W.constituent(0) == RatPoly.from_roots([1, 2])

    @pytest.mark.parametrize("name", ["A3", "B2", "E6", "F4", "G2"])
    def test_monic(self, name):
        for c in weyl_char_quasi(rid(name)).constituents:
            assert c.leading == 1

    def test_a2_counts_points_off_reflection_hyperplanes(self):
        # direct enumeration over (Z/7)^2 with the three positive forms
        q = 7
        forms = [(1, 0), (0, 1), (1, 1)]
        count = sum(
            1
            for x in range(q)
            for y in range(q)
            if all((a * x + b * y) % q != 0 for a, b in forms)
        )
        assert count == weyl_char_quasi(rid("A2")).value(q)


class TestAdmissible:
    @pytest.mark.parametrize(
        "name,divisors,m0",
        [
            ("E6", (1, 2, 3, 6), 1),
            ("E7", (1, 3), 2),
            ("E8", (1, 3, 5, 15), 2),
            ("F4", (1, 2, 3, 4, 6, 12), 1),
            ("G2", (1, 2, 3, 6), 1),
        ],
    )
    def test_table_of_divisors(self, name, divisors, m0):
        rep = admissible_residues(rid(name))
        assert rep.divisors == divisors
        assert rep.m0 == m0

    def test_one_is_always_admissible(self):
        for ident in EXCEPTIONAL_IDS:
            assert 1 in admissible_residues(ident).residues

    def test_g2_all_residues_admissible(self):
        assert admissible_residues(rid("G2")).residues == (0, 1, 2, 3, 4, 5)

    def test_e8_admissible_set_is_odd_residues(self):
        assert admissible_residues(rid("E8")).residues == tuple(range(1, 60, 2))

    @pytest.mark.parametrize("name", ["E7", "E8"])
    def test_defining_equalities_and_their_failure(self, name):
        ident = rid(name)
        data = lookup(ident)
        rep = admissible_residues(ident)
        h, n = data.coxeter_number, data.period
        for m in (1, 2):
            cq = char_quasi(ident, m)
            for d in rep.residues:
                for k in range(rep.m0):
                    assert cq.constituent(d) == cq.constituent(d + k * h)
                    assert cq.constituent(d) == cq.constituent(-d + k * h)
        # some inadmissible residue must violate the equalities for small m
        inadmissible = [d for d in range(n) if d not in rep.residues]
        assert inadmissible
        violated = False
        for m in (1, 2, 3):
            cq = char_quasi(ident, m)
            for d in inadmissible:
                for k in range(rep.m0):
                    if cq.constituent(d) != cq.constituent(d + k * h):
                        violated = True
        assert violated


class TestAveragedHalf:
    def test_g2_identity_and_odd_part(self):
        g2 = rid("G2")
        F = averaged_half(g2, 1, 1)
        chi = char_poly(g2, 1)
        assert F + F.compose_affine(-1, 6) == chi
        # 2F - chi is odd about t = 3
        odd = F.scale(2) - chi
        assert odd.compose_affine(-1, 6) == -odd

    def test_e6_identity(self):
        e6 = rid("E6")
        F = averaged_half(e6, 5, 1)
        chi = char_poly(e6, 5)
        assert F + F.compose_affine(-1, 60) == chi

    def test_type_a_single_class(self):
        a3 = rid("A3")
        F = averaged_half(a3, 2, 0)
        half = half_char_quasi(a3, 2)
        assert F == half.constituent(0)

    def test_not_admissible_rejected(self):
        with pytest.raises(NotAdmissible):
            averaged_half(rid("E7"), 1, 2)


class TestToyPoly:
    def test_default_seed_roots_on_line(self):
        rep = check_on_line_exact(toy_poly(rid("G2"), 1), 6)
        assert rep.on_line

    def test_m_zero_degree_and_leading(self):
        for name in ("A2", "G2", "F4"):
            data = lookup(rid(name))
            p = toy_poly(rid(name), 0)
            assert p.degree == data.rank
            assert p.leading == Fraction(data.weyl_order, data.index_of_connection)

    def test_default_seed_for_e6(self):
        seed = RatPoly.from_roots([-1, -4, -5, -7, -8, -11])
        assert toy_poly(rid("E6"), 0, seed) == toy_poly(rid("E6"), 0)

    def test_symmetry_violation(self):
        with pytest.raises(SymmetryViolation):
            toy_poly(rid("G2"), 1, RatPoly((1, 0, 1)))

    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            toy_poly(rid("G2"), 1, RatPoly((0, 1)))
