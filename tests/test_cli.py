import argparse
import ast
import contextlib
import io
import itertools
import json
import os
import pathlib
import re
import shlex
import signal
import subprocess
import sys
import time
import types
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_digests
from linchar import linial, ratpoly, verify
from linchar.cli import COMMANDS, ROOT, main, parse_args, to_json_str
from linchar.linial import shift_operator
from linchar.rootdata import RootSystemId

DIGESTS = cli_digests.load()
README = pathlib.Path(__file__).parent.parent / "README.md"


def run_subprocess(code, *flags, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, text=True, **kwargs)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestEnvelope:
    def test_charquasi_constituent(self, capsys):
        code, data = run_json(capsys, "charquasi", "G2", "-m", "1", "--constituent", "1", "--json")
        assert code == 0
        assert data["command"] == "charquasi"
        assert data["schema_version"] == 1
        assert data["result"] == {"coeffs": [["11", "1"], ["-6", "1"], ["1", "1"]]}

    def test_limit_roots_e8(self, capsys):
        code, data = run_json(capsys, "limit-roots", "E8", "--json")
        assert code == 0
        # criterion 5 proves the exact maximum lies in this bracket
        assert 14.6604 <= data["result"]["max_real_part"] < 14.6605

    def test_eulerian_of_rank_500_in_a_fresh_interpreter(self):
        # A fresh interpreter has no Eulerian rows cached from earlier tests.
        proc = run_subprocess(
            "from linchar.cli import main\n"
            "raise SystemExit(main(['eulerian', 'A500', '--json']))",
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        coeffs = json.loads(proc.stdout)["result"]["coeffs"]
        assert len(coeffs) == 501
        assert coeffs[0] == ["0", "1"] and coeffs[1] == coeffs[500] == ["1", "1"]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str limit on this interpreter")
    def test_integers_past_the_int_to_str_limit_print(self, capsys):
        # Eulerian coefficients of A400 have up to 868 digits, past the
        # lowest limit CPython allows; main lifts the limit while it runs
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, data = run_json(capsys, "eulerian", "A400", "--json")
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0, data
        assert data["result"] == shift_operator(RootSystemId.parse("A400"), False).to_json()

    def test_round_trip_identity(self, capsys):
        code, out = run_cli(capsys, "ehrhart", "G2", "--series", "6", "--json")
        assert code == 0
        parsed = json.loads(out)
        assert to_json_str(parsed) == out.rstrip("\n")

    def test_quasi_polynomial_payload_parses_back(self, capsys):
        from linchar.ehrhart import ehrhart_qp
        from polys import quasi_from_json

        code, data = run_json(capsys, "ehrhart", "B3", "--json")
        assert code == 0
        qp = quasi_from_json(data["result"]["quasi_polynomial"])
        assert qp == ehrhart_qp(RootSystemId.parse("B3"))


JsonPair = namedtuple("JsonPair", "left right")


def json_values():
    """JSON-able values as linchar's records hold them, and their edge cases:
    nested dicts with string keys, lists, tuples and named tuples; strings
    with quotes, backslashes, control, non-ASCII and astral characters (and a
    lone surrogate); huge and negative ints; bools; None; every finite float,
    with -0.0, subnormals and 1e308 among the examples; empty containers."""
    text = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\xe9\u2028\ud800\U0001d11e') | st.characters(),
                   max_size=6)
    ints = st.integers(-(10**300), 10**300) | st.sampled_from([-(2**63), 2**64, -1, 0])
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 0.1])
    scalars = text | ints | floats | st.booleans() | st.none()
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.builds(JsonPair, inner, inner),
        st.dictionaries(text, inner, max_size=4),
        st.lists(text, min_size=1, max_size=4),
        st.lists(ints, min_size=1, max_size=4),
    ), max_leaves=24)


def json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


class TestJsonWriter:
    """`to_json_str` against its oracle, the stdlib encoder."""

    @given(value=json_values())
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_as_the_stdlib_encoder(self, value):
        # the same object again at one depth and at others
        for doc in (value, {"value": value, "again": [value, value, {"deeper": value}]}):
            assert to_json_str(doc) == json_dumps(doc)

    @pytest.mark.parametrize("bad", [float("nan"), [float("inf")], {"a": [1, -float("inf")]}],
                             ids=["nan", "inf", "-inf"])
    def test_nan_and_infinities_raise_the_stdlib_error(self, bad):
        with pytest.raises(ValueError) as want:
            json_dumps(bad)
        with pytest.raises(ValueError) as got:
            to_json_str(bad)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("bad", [object(), [1, {2}], {"a": b"bytes"}, (Fraction(1, 2),)],
                             ids=["object", "set", "bytes", "fraction"])
    def test_unsupported_types_raise_the_stdlib_error(self, bad):
        with pytest.raises(TypeError) as want:
            json_dumps(bad)
        with pytest.raises(TypeError) as got:
            to_json_str(bad)
        assert str(got.value) == str(want.value)

    def test_a_cycle_raises_the_stdlib_error(self):
        cycle = {"a": []}
        cycle["a"].append(cycle)
        with pytest.raises(ValueError, match="Circular reference detected"):
            to_json_str(cycle)


class TestHumanOutput:
    def test_admissible_e7(self, capsys):
        code, out = run_cli(capsys, "admissible", "E7")
        assert code == 0
        assert "admissible divisors: 1, 3" in out
        assert "m0 = 2" in out

    def test_eulerian_descending_powers(self, capsys):
        code, out = run_cli(capsys, "eulerian", "G2")
        assert code == 0
        assert "x^5 + 3*x^4 + 4*x^3 + 3*x^2 + x" in out

    def test_eulerian_half(self, capsys):
        code, out = run_cli(capsys, "eulerian", "G2", "--half")
        assert code == 0
        assert "2*x^3 + 3*x^2 + x" in out

    def test_charquasi_half_json(self, capsys):
        code, data = run_json(
            capsys, "charquasi", "G2", "-m", "1", "--half", "--constituent", "5", "--json"
        )
        assert code == 0
        # (3q^2 - 8q + 1)/6
        assert data["result"] == {"coeffs": [["1", "6"], ["-4", "3"], ["1", "2"]]}

    def test_charquasi_collapsed_display(self, capsys):
        code, out = run_cli(capsys, "charquasi", "G2", "-m", "1")
        assert code == 0
        assert "q = 1, 3, 5 (mod 6):  q^2 - 6*q + 11" in out
        assert "q = 0, 2, 4 (mod 6):  q^2 - 6*q + 14" in out

    def test_table_contains_g2_row(self, capsys):
        code, out = run_cli(capsys, "table")
        assert code == 0
        assert any(line.startswith("G2") for line in out.splitlines())

    def test_check_line_exact(self, capsys):
        code, out = run_cli(capsys, "check-line", "G2", "-m", "4")
        assert code == 0
        assert "True" in out and "exact-sturm" in out

    def test_oracle_agreement(self, capsys):
        code, out = run_cli(capsys, "oracle", "modq", "B2", "-m", "1", "-q", "11")
        assert code == 0
        assert "agree" in out

    def test_track(self, capsys):
        code, out = run_cli(capsys, "track", "G2", "-d", "1", "--m-list", "1,5")
        assert code == 0
        assert "m =      1" in out and "m =      5" in out


class TestErrors:
    def test_computational_error_exit_one_with_name(self, capsys):
        code, data = run_json(capsys, "oracle", "modq", "G2", "-m", "2", "-q", "5", "--json")
        assert code == 1
        assert data["error"] == "QTooSmall"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["charquasi", "Z9", "-m", "1"])
        assert excinfo.value.code == 2
        for m_list in (",", ""):  # a list with no integers in it
            with pytest.raises(SystemExit) as excinfo:
                main(["track", "G2", "-d", "1", "--m-list", m_list])
            assert excinfo.value.code == 2
            assert "expected a comma-separated integer list" in capsys.readouterr().err
        # the oracle group takes no options of its own; modq's --json is given after modq
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "--json", "modq", "B2", "-m", "1", "-q", "11"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    @pytest.mark.parametrize("count, message", [
        pytest.param("0", "count must be >= 1", id="0"),
        pytest.param("-2", "count must be >= 1", id="-2"),
        # refused before the list of coefficients is allocated
        pytest.param("1000001", "count must be <= 1000000", id="1000001"),
        pytest.param("100000000000", "count must be <= 1000000", id="100000000000"),
    ])
    def test_series_count_below_one_is_a_value_error(self, capsys, count, message):
        code, data = run_json(capsys, "ehrhart", "G2", "--series", count, "--json")
        assert code == 1
        assert data["error"] == "ValueError"
        assert data["message"] == message

    @pytest.mark.parametrize("name, m", [("A20", "1000000000000000"), ("A28", "100000000000")])
    def test_numeric_check_outside_double_range_is_a_named_error(self, capsys, name, m):
        # coefficients past the double range (A20) and a leading coefficient
        # that underflows once scaled (A28); the exact check certifies both
        code = main(["check-line", name, "-m", m, "--numeric", "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"] == "OutOfDoubleRange"
        assert captured.err == ""

    def test_numeric_check_whose_iterates_overflow_is_a_named_error(self, capsys):
        # the coefficients fit in doubles, but p(z) overflows on the Aberth
        # path; a NaN iterate once counted as converged and wrote NaN tokens
        code = main(["check-line", "A100", "-m", "3", "--numeric", "--json"])
        out = capsys.readouterr().out

        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        assert code == 1
        assert json.loads(out, parse_constant=reject)["error"] == "OutOfDoubleRange"
        with pytest.raises(ValueError):
            to_json_str({"residual_bound": float("nan")})

    def test_plain_value_errors_are_structured(self, capsys):
        code, data = run_json(capsys, "track", "G2", "-d", "7", "--m-list", "1", "--json")
        assert code == 1
        assert data["error"] == "ValueError"
        code, _out = run_cli(capsys, "charquasi", "G2", "-m", "-3")
        assert code == 1

    def test_oracle_point_cap(self, capsys):
        code, data = run_json(capsys, "oracle", "modq", "G2", "-m", "1", "-q", "1000000000", "--json")
        assert code == 1
        assert data["error"] == "OracleTooLarge"

    def test_unsafe_q_flag(self, capsys):
        code, out = run_cli(capsys, "oracle", "modq", "G2", "-m", "2", "-q", "5", "--unsafe-q")
        assert code == 0

    def test_failed_self_check_is_a_named_error(self, capsys, monkeypatch):
        from linchar import ehrhart

        honest = ehrhart._denumerant_counts

        def perturbed(marks, upto):
            counts = honest(marks, upto)
            counts[-1] += 1
            return counts

        monkeypatch.setattr(ehrhart, "_denumerant_counts", perturbed)
        ehrhart.ehrhart_table.cache_clear()  # the guard runs where the table is built
        code, data = run_json(capsys, "ehrhart", "G2", "--json")
        assert code == 1
        assert data["error"] == "SelfCheckFailed"
        assert "period guard failed for G2" in data["message"]

    def test_wrong_period_is_a_named_error(self, capsys, monkeypatch):
        # B2 read with period 1 passes every count check; only the guard's
        # check that the marks divide the period refuses the table
        from linchar import ehrhart

        honest = ehrhart.lookup
        monkeypatch.setattr(ehrhart, "lookup", lambda ident: honest(ident)._replace(period=1))
        ehrhart.ehrhart_table.cache_clear()
        code, data = run_json(capsys, "ehrhart", "B2", "--json")
        assert code == 1
        assert data["error"] == "SelfCheckFailed"
        assert data["message"] == "period guard failed for B2: mark 2 does not divide the period 1"

    def test_closed_pipe_exits_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            proc = run_subprocess(
                "import sys; from linchar.cli import main; sys.exit(main(['ehrhart', 'E8']))",
                stdout=write_end, stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_interrupt_exits_130_without_traceback(self):
        # the exact A250 check runs for over a minute; start-up takes well
        # under the second waited, so SIGINT lands inside the command
        argv = [sys.executable, "-m", "linchar.cli", "check-line", "A250", "-m", "1", "--exact", "--json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(argv, env=env, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            time.sleep(1.0)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert (proc.returncode, out) == (130, "")
        assert "Traceback" not in err


class TestImports:
    def test_cli_imports_only_stdlib(self):
        # A diff of sys.modules ignores what .pth files load at interpreter start.
        proc = run_subprocess(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import linchar.cli\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'linchar'}))",
            capture_output=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_cli_imports_no_dataclasses_or_typing(self):
        # Records are named tuples: nothing in linchar needs dataclasses (and
        # with it inspect, ast and dis) or typing at run time.  -S, since a
        # .pth file that site runs may load typing before the diff starts.
        proc = run_subprocess(
            "import sys\n"
            "before = set(sys.modules)\n"
            "import linchar.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & (set(sys.modules) - before)))",
            "-S", capture_output=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_cold_query_loads_no_option_parser_modules(self):
        proc = run_subprocess(
            "import sys\n"
            "from linchar.cli import main\n"
            "code = main(['check-line', 'G2', '-m', '1', '--json'])\n"
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
            capture_output=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_ratpoly_stands_alone(self):
        # the ring and the shift kernel: no linchar import, four public names
        tree = ast.parse(pathlib.Path(ratpoly.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module.partition(".")[0] != "linchar", ast.dump(node)
            elif isinstance(node, ast.Import):
                assert all(alias.name.partition(".")[0] != "linchar" for alias in node.names), ast.dump(node)
        public = {
            name for name, value in vars(ratpoly).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
            and getattr(value, "__module__", ratpoly.__name__) == ratpoly.__name__
        }
        assert public == {"RatPoly", "IntegerTable", "shift_constituents", "apply_shift"}

    def test_verify_builds_no_engine_value(self):
        # root location only: the polynomials it locates are built in linial
        tree = ast.parse(pathlib.Path(verify.__file__).read_text())
        imported, names = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.setdefault(node.module, set()).update(alias.name for alias in node.names)
            names.add(getattr(node, "id", None) or getattr(node, "attr", None)
                      or getattr(node, "name", None))
        assert "lru_cache" not in names
        assert imported["linial"] == {"char_constituent", "char_quasi", "limit_combination"}
        assert imported["ratpoly"] == {"RatPoly"}
        defined = {
            node.name for node in ast.parse(pathlib.Path(linial.__file__).read_text()).body
            if isinstance(node, ast.FunctionDef)
        }
        assert {"limit_poly", "limit_combination"} <= defined

    def test_package_all_resolves_without_duplicates(self):
        import linchar

        for name in linchar.__all__:
            assert hasattr(linchar, name), name
        assert len(set(linchar.__all__)) == len(linchar.__all__)


# The Test*Golden classes check lines of tests/data/cli_digests.json one by
# one, so a changed output fails under the name of its command;
# test_cli_digests.py checks that every line they name is in the table, with
# its exit code.


class TestTrackGolden:
    # `track ... --json`; first captured with the scipy assignment solver
    # that `_match_distance` used before.
    CASES = (
        "E6 -d 1 --m-list 1,10,100,1000",
        "E6 -d 0 --m-list 2,30",
        "F4 -d 1 --m-list 1,7,50,400",
        "F4 -d 6 --m-list 3,90",
        "A5 -d 0 --m-list 1,3,20,300",
    )

    @pytest.mark.parametrize("args", CASES)
    def test_byte_identical(self, args):
        line = f"track {args} --json"
        assert cli_digests.run_in_process(line) == DIGESTS[line]


class TestExactGolden:
    # Commands whose `--json` output is exact (no floats); first captured
    # while RatPoly still stored Fraction coefficients.
    CASES = (
        "table",
        "eulerian E8",
        "eulerian E7 --half",
        "ehrhart E8",
        "ehrhart G2 --series 30",
        "charquasi E8 -m 379",
        "charquasi E6 -m 5 --half",
        "charquasi F4 -m 3 --constituent 5",
        "admissible E8",
        "toy E8 -m 3",
        "check-line E8 -m 59",
        "check-line E7 -m 23 -d 2",
        "check-line B6 -m 7",
        "oracle modq G2 -m 2 -q 40",
    )

    @pytest.mark.parametrize("command", CASES)
    def test_byte_identical(self, command):
        line = f"{command} --json"
        assert cli_digests.run_in_process(line) == DIGESTS[line]


class TestRenderOnDemand:
    """A --json query renders no human text and builds no L_Phi constituent
    it does not print."""

    def test_json_goldens_hold_when_rendering_fails(self, monkeypatch):
        from linchar import cli
        from linchar.ratpoly import RatPoly

        def refuse(*args):
            raise RuntimeError("rendered")

        monkeypatch.setattr(RatPoly, "pretty", refuse)
        monkeypatch.setattr(cli, "_qp_human", refuse)
        lines = [line for line in DIGESTS if "--json" in shlex.split(line)]
        assert cli_digests.changed(DIGESTS, cli_digests.run_in_process, lines) == {}
        with pytest.raises(RuntimeError, match="rendered"):
            main(["charquasi", "G2", "-m", "1"])

    def test_single_constituent_queries_build_no_quasi_polynomial(self):
        # A fresh interpreter: earlier tests have filled the caches here.
        proc = run_subprocess(
            "from linchar import cli, ehrhart, linial\n"
            "from linchar.rootdata import RootSystemId\n"
            "built, honest = [], ehrhart.ehrhart_qp\n"
            "def counted(ident):\n"
            "    built.append(ident)\n"
            "    return honest(ident)\n"
            "ehrhart.ehrhart_qp = linial.ehrhart_qp = counted\n"
            "codes = [cli.main(['check-line', 'E8', '-m', '59', '--exact', '--json'])]\n"
            "table = ehrhart.ehrhart_table.cache_info()\n"
            "ehrhart.ehrhart_table(RootSystemId.parse('E8'))\n"
            "held = ehrhart.ehrhart_table.cache_info().hits - table.hits\n"
            "codes.append(cli.main(['charquasi', 'F4', '-m', '3', '--constituent', '5', '--json']))\n"
            "codes.append(cli.main(['oracle', 'modq', 'G2', '-m', '2', '-q', '40', '--json']))\n"
            "print(codes, table.currsize, held, len(built))",
            capture_output=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] 1 1 0"

    def test_reports_are_the_dicts_of_their_fields(self):
        # A record's own _asdict() is the oracle.
        from linchar import acceptance, linial, rootdata

        for ident in rootdata.ALL_TABLE_IDS:
            assert rootdata.lookup(ident).to_json() == rootdata.lookup(ident)._asdict()
            assert linial.admissible_residues(ident).to_json() == linial.admissible_residues(ident)._asdict()
        result = acceptance.CheckResult(3, "name", False, "detail", ["one", "two"])
        assert result.to_json() == result._asdict()


class TestNumericGolden:
    # Commands whose `--json` output prints double roots and residuals.  Every
    # float is printed in full, so these hold only if each last digit is the
    # same on every supported Python.
    CASES = (
        "limit-roots E6",
        "limit-roots E7",
        "limit-roots E8",
        "limit-roots F4",
        "limit-roots G2",
        "limit-roots A24",
        "limit-roots A40",
        "check-line A24 -m 1084 --numeric",
        "check-line G2 -m 2 --numeric",
        "check-line A12 -m 1086 --numeric",
        "check-line E8 -m 59 --numeric",
        "track E6 -d 1 --m-list 10,100,1000",
        "verify-all",
    )

    @pytest.mark.parametrize("command", CASES)
    def test_byte_identical(self, command):
        line = f"{command} --json"
        assert cli_digests.run_in_process(line) == DIGESTS[line]


class TestHumanGolden:
    # Human output of every command path, plus `verify-all --json`, each with
    # its exit code.  Every float in them is printed rounded, so they are the
    # same on every supported Python.
    CASES = {
        "table": 0,
        "eulerian E6": 0,
        "eulerian E7 --half": 0,
        "ehrhart G2": 0,
        "ehrhart B3": 0,
        "ehrhart G2 --series 30": 0,
        "charquasi G2 -m 1": 0,
        "charquasi E6 -m 5 --half": 0,
        "charquasi F4 -m 3 --constituent 5": 0,
        "charquasi G2 -m 2 --half --constituent 1": 0,
        "admissible E7": 0,
        "admissible E8": 0,
        "toy E6 -m 3": 0,
        "toy A4 -m 2": 0,
        "check-line E8 -m 59": 0,
        "check-line E7 -m 23 -d 2 --exact": 0,
        "check-line G2 -m 2 --numeric": 0,
        "check-line A12 -m 1086 --numeric": 0,
        "limit-roots G2": 0,
        "limit-roots E6": 0,
        "oracle modq G2 -m 2 -q 40": 0,
        "oracle modq B2 -m 1 -q 4 --unsafe-q": 0,
        "track E6 -d 1 --m-list 10,100,1000": 0,
        "verify-all": 0,
        "verify-all --only 3,1,10": 0,
        "verify-all --json": 0,
        "ehrhart G2 --series 0": 1,
        "oracle modq G2 -m 2 -q 7": 1,
        "charquasi G2 -m -1": 1,
    }

    @pytest.mark.parametrize("line", CASES)
    def test_byte_identical(self, line):
        assert cli_digests.run_in_process(line) == DIGESTS[line]


class TestVerifyAll:
    def test_subset_passes_and_is_deterministic(self, capsys):
        code1, out1 = run_cli(capsys, "verify-all", "--only", "1,2,4", "--json")
        code2, out2 = run_cli(capsys, "verify-all", "--only", "1,2,4", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        results = json.loads(out1)["result"]
        assert [r["number"] for r in results] == [1, 2, 4]
        assert all(r["passed"] for r in results)

    @pytest.mark.parametrize("only", ["99", "0,3", ","])
    def test_unknown_or_empty_selection_is_a_usage_error(self, capsys, only):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify-all", "--only", only])
        assert excinfo.value.code == 2
        assert "all selected criteria pass" not in capsys.readouterr().out


class TestOutFile:
    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["eulerian", "G2", "--json", "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        assert data["command"] == "eulerian"

    def test_unwritable_out_file_is_a_named_error(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.json")
        code, data = run_json(capsys, "table", "--out", target, "--json")
        assert code == 1
        assert data["error"] == "FileNotFoundError"
        assert main(["table", "--out", target]) == 1
        assert "error: FileNotFoundError" in capsys.readouterr().err


# -- the parser against the stdlib's argparse -----------------------------------------


def build_oracle_parser() -> argparse.ArgumentParser:
    """An argparse parser built from the same command table.  `int` stays as
    it is, which argparse's message names; any other converter's ValueError
    becomes an `argparse.ArgumentTypeError`, whose message argparse prints as
    linchar does."""

    def oracle_type(convert):
        if convert in (None, int):
            return convert

        def converted(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return converted

    def fill(parser, command):
        for arg in command.positionals:
            parser.add_argument(arg.dest, type=oracle_type(arg.type), help=arg.help)
        group = parser.add_mutually_exclusive_group() if command.exclusive else None
        for arg in command.options:
            target = group if arg.dest in command.exclusive else parser
            if arg.type is None:
                target.add_argument(*arg.flags, dest=arg.dest, action="store_true", help=arg.help)
            else:
                target.add_argument(*arg.flags, dest=arg.dest, type=oracle_type(arg.type), required=arg.required,
                                    default=arg.default, metavar=arg.metavar, help=arg.help)
        if command.subcommands is not None:
            sub = parser.add_subparsers(dest=command.dest, required=True)
            for name, child in command.subcommands.items():
                fill(sub.add_parser(name, help=child.help), child)

    parser = argparse.ArgumentParser(prog="linchar", description=ROOT.help)
    fill(parser, ROOT)
    return parser


ORACLE = build_oracle_parser()


def outcome(parse, argv):
    """(vars of the namespace, or the exit code; captured stdout; captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def agree_with_oracle(argv):
    ours, _, our_error = outcome(parse_args, argv)
    theirs, _, their_error = outcome(ORACLE.parse_args, argv)
    # Before Python 3.13 argparse drops `--` from an attached value (`-m=--`)
    # and stores [], which every handler rejects with a traceback; 3.13
    # stores "--" itself.  The CLI refuses it, so a line that attaches `--`
    # is held to the exit code alone.
    attached = any(piece != "--" and piece.endswith("--") for piece in argv)
    if isinstance(theirs, dict) and (
        [] in theirs.values()
        or ("--" in theirs.values() and any(piece.endswith("=--") for piece in argv))
    ):
        theirs = 2
    assert ours == theirs, argv
    # The error line too, on the argparse the CLI follows: 3.13's words some
    # messages differently.
    if ours == 2 and not attached and sys.version_info[:2] == (3, 11):
        assert our_error.splitlines()[-1] == their_error.splitlines()[-1], argv
    return ours


COMMAND_PATHS = [(name,) for name, c in COMMANDS.items() if c.subcommands is None] + [
    ("oracle", name) for name in COMMANDS["oracle"].subcommands
]
VALUES = ["0", "1", "5", "12", "-1", "-3", "x", "G2", "E6", "Z9", "A0", "1,5", ",", "", "--"]
STRAY = ["--", "extra", "G2", "-", "-z", "--bogus", "-5", "-1.5", "1 2", "-h"]


def command_at(path):
    command = ROOT
    for name in path:
        command = command.subcommands[name]
    return command


def spellings(flag: str) -> list[str]:
    """The flag and, for a long flag, every prefix that could abbreviate it."""
    if not flag.startswith("--"):
        return [flag]
    return [flag[:k] for k in range(3, len(flag) + 1)]


def converts(arg, value: str) -> bool:
    try:
        arg.type(value)
    except ValueError:
        return False
    return value != "--"


@st.composite
def command_lines(draw):
    path = draw(st.sampled_from(COMMAND_PATHS + [(), ("oracle",), ("bogus",)]))
    command = command_at(path) if path != ("bogus",) else ROOT

    def option(arg, valid=False):
        flag = draw(st.sampled_from(spellings(draw(st.sampled_from(arg.flags)))))
        value = draw(st.sampled_from(VALUES))
        if arg.type is None:  # a flag, rarely with a value it must refuse
            return draw(st.sampled_from([[flag], [flag], [f"{flag}={value}"]]))
        if valid or draw(st.booleans()):
            value = draw(st.sampled_from([v for v in VALUES if converts(arg, v)]))
        forms = [[flag, value], [f"{flag}={value}"]]
        if not flag.startswith("--"):
            forms.append([flag + value])
        if not valid:
            forms.append([flag])  # the value is missing unless the next piece supplies one
        return draw(st.sampled_from(forms))

    pieces = []
    # Mostly complete the command, so that many lines parse.
    if draw(st.booleans()):
        pieces += [[draw(st.sampled_from(["G2", "E6", "B2"]))] for _ in command.positionals]
        pieces += [option(arg, valid=True) for arg in command.options if arg.required]
    options = st.sampled_from(command.options).map(option) if command.options else st.nothing()
    extra = st.one_of(
        options,
        options,
        st.sampled_from(VALUES).map(lambda v: [v]),
        st.sampled_from(STRAY).map(lambda v: [v]),
    )
    pieces += draw(st.lists(extra, max_size=draw(st.sampled_from([1, 3, 6]))))
    if command.exclusive and draw(st.booleans()):
        pieces += [[f"--{dest}"] for dest in command.exclusive]
    pieces = draw(st.permutations(pieces))
    return [*path, *itertools.chain.from_iterable(pieces)]


class TestParser:
    @given(argv=command_lines())
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_argparse(self, argv):
        agree_with_oracle(argv)

    @pytest.mark.parametrize("argv", [
        ["charquasi", "-m", "-1", "G2"],
        ["charquasi", "--m", "1", "G2"],
        ["check-line", "G2", "-m5", "--exa", "-d=-2"],
        ["check-line", "-m=5", "--js", "--", "G2"],
        ["check-line", "G2", "-m", "1", "--exact", "--numeric"],
        ["check-line", "G2", "-m", "1", "-m", "7", "--out", "a", "--out=b"],
        ["oracle", "--json", "modq", "B2", "-q", "11", "-m", "1"],
        ["oracle", "modq", "-hm"],
        ["eulerian", "G2", "--"],
        ["eulerian", "--", "--half"],
        ["table", "--"],
        ["--", "table"],
        ["verify-all", "--o", "1"],
        ["verify-all", "--on=1,2", "--ou", "f"],
        ["track", "G2", "-d", "1", "--m-list", "1,,5"],
        ["charquasi", "G2", "-m=--"],
        ["table", "--out=--"],
        [],
        ["eulerian", "--out", "--", "Z9"],
    ])
    def test_edge_cases_agree(self, argv):
        agree_with_oracle(argv)

    def test_each_level_has_at_most_one_positional_slot(self):
        # The parser reads a level with one slot: a command's one positional,
        # or a group's subcommand; a second one would be mis-parsed.
        levels = [ROOT]
        for command in levels:  # at most one positional, and none in a group
            assert len(command.positionals) <= (command.subcommands is None), command.help
            levels += (command.subcommands or {}).values()
        assert len(levels) == len(COMMANDS) + 2  # the root and `oracle modq` too

    def test_negative_value_reaches_the_library(self, capsys):
        assert parse_args(["charquasi", "G2", "-m", "-1"]).m == -1
        code, data = run_json(capsys, "charquasi", "G2", "-m", "-1", "--json")
        assert code == 1 and data["error"] == "ValueError"

    @pytest.mark.parametrize("path", [(), ("oracle",)] + COMMAND_PATHS, ids=" ".join)
    def test_help_names_every_option(self, path):
        code, text, _ = outcome(parse_args, [*path, "-h"])
        assert code == 0
        command = command_at(path)
        assert text.startswith(f"usage: {' '.join(('linchar',) + path)} [-h]")
        names = ["-h", "--help"] + [flag for arg in command.options for flag in arg.flags]
        names += list(command.subcommands or ())
        for name in names:
            assert re.search(rf"(^|[\s\[{{,]){re.escape(name)}\b", text), (path, name)
        # every row with help text has its name fit the help column: the
        # text starts two or more spaces after the name, at one column
        helps = ["show this help message and exit"]
        helps += [arg.help for arg in command.positionals + command.options if arg.help]
        helps += [sub.help for sub in (command.subcommands or {}).values()]
        columns = set()
        for help_text in helps:
            line = next(line for line in text.splitlines() if line.startswith("  ") and line.endswith(help_text))
            column = len(line) - len(help_text)
            assert line[column - 2:column] == "  ", (path, line)
            columns.add(column)
        assert len(columns) == 1, (path, columns)

    def test_readme_examples_parse(self):
        lines = []
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
            lines += [line.split("#")[0] for line in block.splitlines()
                      if line.startswith("linchar ")]
        commands = set()
        for line in lines:
            choices = [alt.split("|") for alt in re.findall(r"\[([^\]]+)\]", line)]
            template = re.sub(r"\[[^\]]+\]", "{}", line)
            for picked in itertools.product(*[[""] + alts for alts in choices]):
                argv = shlex.split(template.format(*picked))[1:]
                assert isinstance(agree_with_oracle(argv), dict), argv
                commands.add(tuple(argv[:2]) if argv[0] == "oracle" else (argv[0],))
        assert commands == set(COMMAND_PATHS)


class TestReportEnvelope:
    # A short query of each command path.
    QUERIES = {
        ("table",): "table",
        ("eulerian",): "eulerian G2",
        ("ehrhart",): "ehrhart G2",
        ("charquasi",): "charquasi G2 -m 1",
        ("admissible",): "admissible G2",
        ("toy",): "toy G2 -m 1",
        ("check-line",): "check-line G2 -m 1",
        ("limit-roots",): "limit-roots G2",
        ("oracle", "modq"): "oracle modq G2 -m 1 -q 7",
        ("track",): "track G2 -d 1 --m-list 10",
        ("verify-all",): "verify-all --only 1",
    }

    def test_every_command_path_has_a_query(self):
        assert set(self.QUERIES) == set(COMMAND_PATHS)

    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
    def test_error_envelope_names_the_command_as_the_result_does(self, capsys, tmp_path, path):
        argv = shlex.split(self.QUERIES[path]) + ["--json"]
        code, result = run_json(capsys, *argv)
        assert code == 0
        code, error = run_json(capsys, *argv, "--out", str(tmp_path / "missing" / "x"))
        assert code == 1
        assert error["error"] == "FileNotFoundError"
        assert error["command"] == result["command"] == "-".join(path)

    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
    def test_inputs_are_the_arguments_but_json_out_and_exact(self, capsys, tmp_path, path):
        target = tmp_path / "report.json"
        argv = shlex.split(self.QUERIES[path]) + ["--json", "--out", str(target)]
        assert main(argv) == 0
        inputs = json.loads(target.read_text())["inputs"]
        command = command_at(path)
        dests = [arg.dest for arg in command.positionals + command.options]
        assert list(inputs) == [dest for dest in dests if dest not in ("json", "out", "exact")]
        assert all(isinstance(value, (str, int, list, type(None))) for value in inputs.values())

    def test_check_line_and_verify_all_inputs(self, capsys):
        code, data = run_json(capsys, "check-line", "G2", "-m", "1", "--exact", "--json")
        assert code == 0
        assert data["inputs"] == {"phi": "G2", "m": 1, "d": 1, "numeric": False}
        code, data = run_json(capsys, "verify-all", "--only", "3,1,3", "--json")
        assert code == 0
        assert data["inputs"] == {"only": [1, 3]}
        assert [r["number"] for r in data["result"]] == [1, 3]
