"""The second paths kept apart: the import graph around `linchar.oracles`,
the catalog self-check of the root closure, and a closed form for type A
at every rank."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linchar
from linchar import oracles
from linchar.errors import SelfCheckFailed
from linchar.linial import char_poly
from linchar.ratpoly import RatPoly
from linchar.rootdata import RootSystemId
from polys import monomial

PACKAGE = Path(linchar.__file__).parent
ORACLE_NAMES = {
    "_CARTAN", "positive_roots", "asc_oracle", "bruteforce_modq_counts",
}


def rid(text):
    return RootSystemId.parse(text)


def linchar_imports(path):
    """The linchar modules that the module at `path` imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("linchar.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and module:  # from .x import ...
                found.add(module)
            elif node.level == 1 or module == "linchar":  # from . import x
                found |= {a.name for a in node.names}
            elif module.startswith("linchar."):
                found.add(module.split(".")[1])
    return found


def top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


class TestImportGraph:
    def test_only_acceptance_and_cli_import_oracles(self):
        importers = {
            path.stem for path in PACKAGE.glob("*.py") if "oracles" in linchar_imports(path)
        }
        assert importers == {"acceptance", "cli"}

    def test_oracles_import_only_errors_ratpoly_and_rootdata(self):
        assert linchar_imports(PACKAGE / "oracles.py") == {"errors", "ratpoly", "rootdata"}

    def test_only_oracles_defines_the_oracles(self):
        definers = {
            path.stem for path in PACKAGE.glob("*.py") if top_level_names(path) & ORACLE_NAMES
        }
        assert definers == {"oracles"}
        assert ORACLE_NAMES <= top_level_names(PACKAGE / "oracles.py")

    def test_engine_import_leaves_oracles_unloaded(self):
        script = (
            "import sys\n"
            "import linchar.linial, linchar.verify, linchar.ehrhart, linchar.eulerian\n"
            "print('linchar.oracles' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        ).stdout
        assert out == "False\n"


class TestRootClosureSelfCheck:
    def test_one_perturbed_cartan_entry_breaks_the_height_partition(self, monkeypatch):
        # A3 with one double bond is B3: nine positive roots where A3's
        # exponents (1, 2, 3) allow one of height 3, not two
        monkeypatch.setitem(oracles._CARTAN, ("A", 3), ((2, -1, 0), (-1, 2, -2), (0, -1, 2)))
        with pytest.raises(SelfCheckFailed, match="2 positive roots of height 3, but 1 exponents"):
            oracles.positive_roots.__wrapped__(rid("A3"))

    def test_marks_that_differ_from_the_highest_root(self, monkeypatch):
        g2 = rid("G2")
        perturbed = oracles.lookup(g2)._replace(marks=(1, 1, 4))
        monkeypatch.setattr(oracles, "lookup", lambda ident: perturbed)
        with pytest.raises(SelfCheckFailed, match="does not carry the marks"):
            oracles.positive_roots.__wrapped__(g2)


def type_a_closed_form(l, m):
    """(m+1)^-(l+1) * sum_j c_j (t - j)^l with c_j = [x^j] (1 + x + ... + x^m)^(l+1)
    (Athanasiadis 1999; Postnikov and Stanley 2000 for m = 1), by integer
    binomial sums: c_j = sum_k (-1)^k C(l+1, k) C(j - k(m+1) + l, l), and the
    t^i coefficient is C(l, i) sum_j c_j (-j)^(l-i)."""
    s = m + 1
    moments = [0] * (l + 1)  # moments[e] = sum_j c_j (-j)^e
    for j in range(m * (l + 1) + 1):
        c = sum((-1) ** k * math.comb(l + 1, k) * math.comb(j - k * s + l, l)
                for k in range(j // s + 1))
        power = c
        for e in range(l + 1):
            moments[e] += power
            power *= -j
    return RatPoly.over([math.comb(l, i) * moments[l - i] for i in range(l + 1)], s ** (l + 1))


class TestTypeAClosedForm:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 17])
    def test_ranks_up_to_30(self, m):
        for l in range(1, 31):
            assert char_poly(RootSystemId("A", l), m) == type_a_closed_form(l, m), l

    @pytest.mark.parametrize("l", [60, 100])
    def test_high_rank(self, l):
        assert char_poly(RootSystemId("A", l), 3) == type_a_closed_form(l, 3)

    def test_small_cases_by_hand(self):
        # A1: chi = t - m (the m points 1..m removed from the line)
        assert type_a_closed_form(1, 4) == RatPoly((-4, 1))
        assert type_a_closed_form(3, 0) == monomial(3)
