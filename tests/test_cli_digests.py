"""Every command line of tests/data/cli_digests.json, run through `cli.main`
in this process, keeps its exit code, stdout and stderr; and the goldens
say what the digests say."""

import hashlib
import json
import pathlib

import cli_digests

GOLDEN = pathlib.Path(__file__).parent / "data"
DIGESTS = cli_digests.load()


def test_every_line_keeps_its_digest():
    assert sorted(cli_digests.changed(DIGESTS, cli_digests.run_in_process)) == []


def test_goldens_agree_with_the_digests():
    for kind in ("exact", "numeric"):
        golden = json.loads((GOLDEN / f"cli_{kind}_golden.json").read_text())
        for command, stdout in golden.items():
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            assert DIGESTS[command + " --json"]["stdout"] == digest, command
    for command, case in json.loads((GOLDEN / "cli_human_golden.json").read_text()).items():
        digest = cli_digests.digest(case["code"], case["stdout"].encode(), case["stderr"].encode())
        assert DIGESTS[command] == digest, command
