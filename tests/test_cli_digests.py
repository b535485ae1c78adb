"""Every command line of tests/data/cli_digests.json, run through `cli.main`
in this process, keeps its exit code, stdout and stderr; the table names
every line the Test*Golden classes of test_cli.py pin; a one-character
change to any part of an output fails its line and no other; the script
runs this checkout's linchar with no PYTHONPATH, in process and fresh; and
the table is written back byte for byte as it was read."""

import os
import subprocess
import sys

import cli_digests
import test_cli

DIGESTS = cli_digests.load()


def test_every_line_keeps_its_digest():
    assert sorted(cli_digests.changed(DIGESTS, cli_digests.run_in_process)) == []


def test_goldens_agree_with_the_digests():
    codes = {f"{command} --json": 0 for command in test_cli.TestExactGolden.CASES}
    codes.update({f"{command} --json": 0 for command in test_cli.TestNumericGolden.CASES})
    codes.update({f"track {args} --json": 0 for args in test_cli.TestTrackGolden.CASES})
    codes.update(test_cli.TestHumanGolden.CASES)
    assert {line: DIGESTS.get(line, {}).get("code") for line in codes} == codes


def test_one_changed_character_fails_only_its_line():
    altered = {
        "admissible E8 --json": "stdout",
        "table": "stdout",
        "track G2 -d 1 --m-list ,": "stderr",
        "charquasi G2 -m -1": "code",
    }
    untouched = ["admissible E8", "table --json", "table -h", "charquasi G2 -m -1 --json"]

    def run(line):
        outputs = dict(zip(("code", "stdout", "stderr"), cli_digests.capture(line)))
        part = altered.get(line)
        if part == "code":
            outputs[part] ^= 1
        elif part:
            data, i = outputs[part], len(outputs[part]) // 2
            outputs[part] = data[:i] + bytes([data[i] ^ 1]) + data[i + 1:]
        return cli_digests.digest(**outputs)

    news = cli_digests.changed(DIGESTS, run, [*altered, *untouched])
    assert {line: [key for key in new if new[key] != DIGESTS[line][key]] for line, new in news.items()} == {
        line: [part] for line, part in altered.items()
    }


def test_runs_this_checkout_with_no_pythonpath():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    for flags in ([], ["--fresh"]):
        proc = subprocess.run([sys.executable, cli_digests.__file__, *flags, "admissible G2 --json"],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1 lines, 0 changed\n", "")


def test_the_table_round_trips():
    assert cli_digests.dump(cli_digests.load()) == cli_digests.TABLE.read_text()
