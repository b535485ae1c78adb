import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import linchar
from linchar import linial
from linchar.errors import NotAdmissible
from linchar.linial import (
    _QUASI_CACHE_SIZE,
    admissible_residues,
    averaged_half,
    char_constituent,
    char_poly,
    char_quasi,
    toy_poly,
    weyl_char_quasi,
)
from linchar.eulerian import generalized_eulerian
from linchar.ratpoly import RatPoly
from linchar.rootdata import EXCEPTIONAL_IDS, RootSystemId, lookup
from linchar.verify import check_on_line_exact
from polys import ZERO, from_roots, monomial, neg, sub


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
        assert all(c == monomial(data.rank) for c in cq.constituents)

    @pytest.mark.parametrize("name,m", [("G2", 2), ("B2", 3), ("E6", 1), ("F4", 2)])
    def test_constituents_monic_integer(self, name, m):
        data = lookup(rid(name))
        cq = char_quasi(rid(name), m)
        for c in cq.constituents:
            assert c.degree == data.rank
            assert c.coeffs[-1] == 1
            assert all(x.denominator == 1 for x in c.coeffs)

    @pytest.mark.parametrize("name,m", [("G2", 1), ("E6", 2), ("E8", 1), ("F4", 3)])
    def test_gcd_property(self, name, m):
        # constituents depend only on gcd(d, period): each equals the one at its gcd
        cq = char_quasi(rid(name), m)
        for d in range(cq.period):
            assert cq.constituent(d) == cq.constituent(math.gcd(d, cq.period))

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
        assert char_poly(rid("E6"), 0) == monomial(6)

    def test_e6_m1_functional_equation(self):
        p = char_poly(rid("E6"), 1)
        assert p.degree == 6 and p.coeffs[-1] == 1
        # self-check used in place of an external table: chi is symmetric
        # about t = mh/2 = 6 up to the sign (-1)^l
        assert p.compose_affine(-1, 12) == p


class TestBruteforceCrossCheck:
    def test_g2_m2_at_q100(self):
        from linchar.oracles import bruteforce_modq_counts

        [count] = bruteforce_modq_counts(rid("G2"), (2,), 100)
        assert char_quasi(rid("G2"), 2).value(100) == count

    def test_a2_m1_at_q7(self):
        from linchar.oracles import bruteforce_modq_counts

        [count] = bruteforce_modq_counts(rid("A2"), (1,), 7)
        assert char_quasi(rid("A2"), 1).value(7) == count


class TestHalfCharQuasi:
    def test_g2_m1_table(self):
        half = char_quasi(rid("G2"), 1, True)
        constants = {0: 12, 1: 5, 2: 10, 3: 3, 4: 14, 5: 1}
        for d, c in constants.items():
            assert half.constituent(d) == RatPoly((c, -8, 3)).scale(Fraction(1, 6))

    @pytest.mark.parametrize("name,m", [("G2", 1), ("E6", 2), ("F4", 1), ("B3", 2)])
    def test_decomposition_into_halves(self, name, m):
        data = lookup(rid(name))
        cq = char_quasi(rid(name), m)
        half = char_quasi(rid(name), m, True)
        mh = m * data.coxeter_number
        sign = (-1) ** data.rank
        for d in range(cq.period):
            mirrored = half.constituent(mh - d).compose_affine(-1, mh).scale(sign)
            assert cq.constituent(d) == half.constituent(d) + mirrored

    def test_a1_half_is_half_the_shift(self):
        # R_{A1} = x, so R' = x/2 and the half is half of one shifted copy
        a1 = rid("A1")
        for m in (0, 1, 3):
            half = char_quasi(a1, m, True)
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
        assert W.constituent(0) == from_roots([1, 2])

    @pytest.mark.parametrize("name", ["A3", "B2", "E6", "F4", "G2"])
    def test_monic(self, name):
        for c in weyl_char_quasi(rid(name)).constituents:
            assert c.coeffs[-1] == 1

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


def orbit_sum_of_single_constituents(ident, m, d):
    """The averaged half-polynomial built the slow way: every orbit member
    {+-d + k*h} as its own single-constituent shift, then averaged."""
    data, report = lookup(ident), admissible_residues(ident)
    acc = ZERO
    for k in range(report.m0):
        for r in (d + k * data.coxeter_number, -d + k * data.coxeter_number):
            acc = acc + char_constituent(ident, m, r, half=True)
    return acc.scale(Fraction(1, 2 * report.m0))


class TestAveragedHalf:
    @pytest.mark.parametrize("ident", EXCEPTIONAL_IDS, ids=str)
    def test_matches_orbit_sum_of_single_constituents(self, ident):
        for m in (1, 2, 3, 4, 100):
            for d in admissible_residues(ident).residues:
                assert averaged_half(ident, m, d) == orbit_sum_of_single_constituents(ident, m, d)

    def test_g2_identity_and_odd_part(self):
        g2 = rid("G2")
        F = averaged_half(g2, 1, 1)
        chi = char_poly(g2, 1)
        assert F + F.compose_affine(-1, 6) == chi
        # 2F - chi is odd about t = 3
        odd = sub(F.scale(2), chi)
        assert odd.compose_affine(-1, 6) == neg(odd)

    def test_e6_identity(self):
        e6 = rid("E6")
        F = averaged_half(e6, 5, 1)
        chi = char_poly(e6, 5)
        assert F + F.compose_affine(-1, 60) == chi

    def test_type_a_single_class(self):
        a3 = rid("A3")
        F = averaged_half(a3, 2, 0)
        half = char_quasi(a3, 2, True)
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
            assert p.coeffs[-1] == Fraction(data.weyl_order, data.index_of_connection)

    def test_default_seed_for_e6(self):
        # g = prod (t + e_i) over the exponents of E6, h = 12:
        # g(t - h) = (-1)^rank g(-t), and toy_poly is R_Phi(S^(m+1)) g
        seed = from_roots([-1, -4, -5, -7, -8, -11])
        assert seed.compose_affine(1, -12) == seed.compose_affine(-1, 0)
        R = generalized_eulerian(rid("E6"))
        for m in (0, 1, 4):
            shifted = [seed.compose_affine(1, -(m + 1) * i).scale(c) for i, c in enumerate(R.coeffs)]
            assert toy_poly(rid("E6"), m) == sum(shifted, ZERO)


# In a fresh interpreter: one acceptance matrix, then the counts of every
# `functools.lru_cache` that a linchar module defines, then the misses of the
# char_quasi cache after two more spellings of a build the matrix made.
CACHE_TRAFFIC = """
import importlib, json, pkgutil
import linchar
from linchar import acceptance, linial
from linchar.rootdata import RootSystemId
modules = [importlib.import_module("linchar." + m.name) for m in pkgutil.iter_modules(linchar.__path__)]
assert all(result.passed for result in acceptance.run_all())
caches = {
    f"{module.__name__}.{name}": fn.cache_info()._asdict()
    for module in modules for name, fn in vars(module).items()
    if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
}
g2 = RootSystemId("G", 2)
linial.char_quasi(g2, 1, False)
linial.char_quasi(g2, 1, half=False)
print(json.dumps([caches, linial._char_quasi.cache_info().misses]))
"""


def test_every_cache_is_hit_and_builds_each_key_once():
    # A cache that no caller hits only holds memory; one whose misses exceed
    # its size evicted or built a key twice.  char_quasi holds the matrix's
    # full and half builds together, within its bound, keyed by value:
    # criterion 4 built (G2, 1), so no other spelling of it builds again.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", CACHE_TRAFFIC], env=env, capture_output=True,
                          text=True, check=True)
    caches, misses_after = json.loads(proc.stdout.splitlines()[-1])
    assert "linchar.linial._char_quasi" in caches and "linchar.rootdata.lookup" in caches
    for name, info in caches.items():
        assert info["hits"] >= 1, (name, info)
        assert info["misses"] == info["currsize"], (name, info)
    assert caches["linchar.linial._char_quasi"]["currsize"] <= _QUASI_CACHE_SIZE
    assert misses_after == caches["linchar.linial._char_quasi"]["misses"]


def test_a_cached_build_has_one_spelling():
    # A cache keys by how a call is spelled: were f(G2, half=True) allowed
    # beside f(G2, True), it would build the same value twice.  So every
    # builder behind a `functools.lru_cache` takes its arguments by position
    # only, and a keyword spelling raises before it can add an entry.
    modules = [importlib.import_module("linchar." + m.name) for m in pkgutil.iter_modules(linchar.__path__)]
    cached = {
        f"{module.__name__.removeprefix('linchar.')}.{name}": fn
        for module in modules for name, fn in vars(module).items()
        if hasattr(fn, "cache_info") and fn.__module__ == module.__name__
    }
    assert sorted(cached) == [
        "ehrhart.ehrhart_table", "linial._char_quasi", "linial.admissible_residues",
        "linial.limit_poly", "linial.shift_operator", "oracles.positive_roots", "ratpoly._class_sums",
        "rootdata.lookup",
    ]
    for name, fn in cached.items():
        kinds = {p.kind for p in inspect.signature(fn.__wrapped__).parameters.values()}
        assert kinds == {inspect.Parameter.POSITIONAL_ONLY}, name
    g2 = rid("G2")
    linial.shift_operator(g2, True)
    before = linial.shift_operator.cache_info().currsize
    with pytest.raises(TypeError):
        linial.shift_operator(g2, half=True)
    assert linial.shift_operator.cache_info().currsize == before
