import math
import os
import subprocess
import sys

import pytest

from linchar.errors import UnsupportedRank
from linchar.oracles import _reflections, positive_roots
from linchar.rootdata import ALL_TABLE_IDS, RootSystemId, lookup


def rid(text):
    return RootSystemId.parse(text)


class TestLookup:
    def test_e8_row(self):
        d = lookup(rid("E8"))
        assert d.exponents == (1, 7, 11, 13, 17, 19, 23, 29)
        assert d.marks == (1, 2, 2, 3, 3, 4, 4, 5, 6)
        assert d.coxeter_number == 30
        assert d.index_of_connection == 1
        assert d.period == 60
        assert d.rad_period == 30

    def test_g2_row(self):
        d = lookup(rid("G2"))
        assert d.exponents == (1, 5)
        assert d.marks == (1, 2, 3)
        assert (d.coxeter_number, d.index_of_connection, d.weyl_order, d.period) == (6, 1, 12, 6)

    def test_a3_row(self):
        d = lookup(rid("A3"))
        assert d.exponents == (1, 2, 3)
        assert d.marks == (1, 1, 1, 1)
        assert (d.coxeter_number, d.index_of_connection, d.period) == (4, 4, 1)

    def test_classical_rows(self):
        b5 = lookup(rid("B5"))
        assert b5.exponents == (1, 3, 5, 7, 9)
        assert b5.marks == (1, 1, 2, 2, 2, 2)
        assert (b5.coxeter_number, b5.index_of_connection, b5.weyl_order) == (10, 2, 2**5 * 120)
        assert (b5.period, b5.rad_period) == (2, 2)
        d6 = lookup(rid("D6"))
        assert d6.exponents == (1, 3, 5, 5, 7, 9)
        assert d6.marks == (1, 1, 1, 1, 2, 2, 2)
        assert (d6.coxeter_number, d6.index_of_connection, d6.weyl_order) == (10, 4, 2**5 * 720)

    def test_b_and_c_share_data(self):
        for l in range(2, 9):
            assert lookup(RootSystemId("B", l)) == lookup(RootSystemId("C", l))

    def test_d3_is_a3(self):
        assert lookup(rid("D3")) == lookup(rid("A3"))

    @pytest.mark.parametrize("ident", ALL_TABLE_IDS, ids=str)
    def test_catalog_invariants(self, ident):
        d = lookup(ident)
        l, h = d.rank, d.coxeter_number
        assert d.marks[0] == 1
        assert h == sum(d.marks)
        exps = sorted(d.exponents)
        assert all(exps[i] + exps[l - 1 - i] == h for i in range(l))
        assert d.weyl_order == math.prod(e + 1 for e in d.exponents)
        assert d.weyl_order % d.index_of_connection == 0
        assert d.period == math.lcm(*d.marks[1:])
        assert h % d.rad_period == 0

    def test_printed_period_column(self):
        printed = {"A5": 1, "B7": 2, "C4": 2, "D8": 2, "E6": 6, "E7": 12, "E8": 60, "F4": 12, "G2": 6}
        for name, period in printed.items():
            assert lookup(rid(name)).period == period

    @pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "F5", "G1", "G4", "H3"])
    def test_invalid_ids(self, bad):
        family, rank = bad[0], int(bad[1:])
        if family == "H":
            direct, parsed = "unknown family 'H'", "cannot parse root system id 'H3'"
        else:
            direct = parsed = f"invalid rank {rank} for family {family}"
        with pytest.raises(ValueError) as err:
            RootSystemId(family, rank)
        assert str(err.value) == direct
        with pytest.raises(ValueError) as err:
            rid(bad)
        assert str(err.value) == parsed

    def test_parse_is_lenient_about_case(self):
        assert rid("e6") == RootSystemId("E", 6)
        assert str(rid("b12")) == "B12"


RANK3_IDS = [rid(s) for s in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2")]


class TestPositiveRoots:
    def test_a2(self):
        assert positive_roots(rid("A2")) == ((0, 1), (1, 0), (1, 1))

    def test_b2(self):
        roots = positive_roots(rid("B2"))
        assert set(roots) == {(1, 0), (0, 1), (1, 1), (2, 1)}
        assert roots[-1] == (2, 1)

    def test_g2(self):
        roots = positive_roots(rid("G2"))
        assert set(roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}
        assert roots[-1] == (3, 2)

    @pytest.mark.parametrize("ident", RANK3_IDS, ids=str)
    def test_counts_and_highest_marks(self, ident):
        data = lookup(ident)
        roots = positive_roots(ident)
        assert len(roots) == data.rank * data.coxeter_number // 2
        # the highest root sorts last; its coefficients are the marks
        # (coordinate order may differ)
        assert sorted(roots[-1]) == sorted(data.marks[1:])

    @pytest.mark.parametrize("ident", RANK3_IDS, ids=str)
    def test_closed_under_simple_reflections_up_to_sign(self, ident):
        roots = set(positive_roots(ident))
        for vec in roots:
            for reflect in _reflections(ident):
                img = reflect(vec)
                neg = tuple(-x for x in img)
                assert img in roots or neg in roots

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRank):
            positive_roots(rid("A4"))
        with pytest.raises(UnsupportedRank):
            positive_roots(rid("F4"))

    def test_ambiguous_highest_root_raises_under_optimisation(self):
        # A1 x A1 posing as a rank-2 system with h = 2 has two roots of top
        # height; the check must fire even with asserts stripped by -O.
        script = (
            "from linchar import oracles\n"
            "a2 = oracles.RootSystemId.parse('A2')\n"
            "fake = oracles.lookup(a2)._replace(coxeter_number=2)\n"
            "oracles.lookup = lambda ident: fake\n"
            "oracles._CARTAN[('A', 2)] = ((2, 0), (0, 2))\n"
            "try:\n"
            "    oracles.positive_roots(a2)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
        ).stdout
        assert "highest root of A2 not unique" in out
