import json
import os
import pathlib
import subprocess
import sys

import pytest

from linchar.cli import main, to_json_str

GOLDEN = pathlib.Path(__file__).parent / "data"


def run_subprocess(code, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, text=True, **kwargs)


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
        assert abs(data["result"]["max_real_part"] - 14.6604) < 1e-3

    def test_round_trip_identity(self, capsys):
        code, out = run_cli(capsys, "ehrhart", "G2", "--series", "6", "--json")
        assert code == 0
        parsed = json.loads(out)
        assert to_json_str(parsed) == out.rstrip("\n")

    def test_quasi_polynomial_payload_parses_back(self, capsys):
        from linchar.ehrhart import QuasiPoly, ehrhart_qp
        from linchar.rootdata import RootSystemId

        code, data = run_json(capsys, "ehrhart", "B3", "--json")
        assert code == 0
        qp = QuasiPoly.from_json(data["result"]["quasi_polynomial"])
        assert qp == ehrhart_qp(RootSystemId.parse("B3"))


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
        ehrhart.ehrhart_qp.cache_clear()
        code, data = run_json(capsys, "ehrhart", "G2", "--json")
        assert code == 1
        assert data["error"] == "SelfCheckFailed"
        assert "period guard failed for G2" in data["message"]

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


class TestImports:
    def test_cli_does_not_load_scipy(self):
        proc = run_subprocess(
            "import sys, linchar.cli; print('scipy' in sys.modules)",
            capture_output=True, check=True,
        )
        assert proc.stdout.strip() == "False"


class TestTrackGolden:
    # Captured with the scipy assignment solver that `_match_distance` used before.
    @pytest.mark.parametrize(
        "case",
        json.loads((GOLDEN / "track_golden.json").read_text()),
        ids=lambda case: " ".join(case["argv"][1:6]),
    )
    def test_byte_identical(self, capsys, case):
        code, out = run_cli(capsys, *case["argv"])
        assert code == 0
        assert out == to_json_str(case["stdout"]) + "\n"


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
