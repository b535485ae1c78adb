"""Check linchar's command lines against their committed output digests.

`tests/data/cli_digests.json` maps each command line (the arguments after
`linchar`, as `shlex.split` reads them) to its exit code and the sha256 of
its stdout and of its stderr.  Run from the root of the repository:

    python tests/cli_digests.py              # through cli.main, in this process
    python tests/cli_digests.py --fresh      # each in `python -m linchar.cli`, one per CPU at once
    python tests/cli_digests.py --recapture  # rewrite, print the lines that changed

Both ways run the linchar of this checkout, `src/` beside `tests/`,
whatever `PYTHONPATH` says: the in-process run puts it first on
`sys.path`, and each fresh interpreter gets it as its `PYTHONPATH`.

Lines given after the options restrict a run to them; with `--recapture`, a
line not yet in the table is added.  Without `--recapture` nothing is
written, and the exit code is 1 if any line differs from its digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

TABLE = pathlib.Path(__file__).parent / "data" / "cli_digests.json"
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def digest(code, stdout: bytes, stderr: bytes) -> dict:
    return {
        "code": code,
        "stdout": hashlib.sha256(stdout).hexdigest(),
        "stderr": hashlib.sha256(stderr).hexdigest(),
    }


def capture(line: str) -> tuple:
    """(exit code, stdout, stderr) of `line` run through `cli.main`; `-h` and
    usage errors end in SystemExit, whose code is the exit code."""
    from linchar.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(line))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_in_process(line: str) -> dict:
    """The digest of `line` run through `cli.main`."""
    return digest(*capture(line))


def run_fresh(line: str) -> dict:
    """The digest of `line` run by `python -m linchar.cli` in a new interpreter."""
    argv = [sys.executable, "-m", "linchar.cli", *shlex.split(line)]
    proc = subprocess.run(argv, capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))
    return digest(proc.returncode, proc.stdout, proc.stderr)


def load() -> dict:
    return json.loads(TABLE.read_text())


def dump(table: dict) -> str:
    """One entry per line, in the table's order."""
    entries = (f"{json.dumps(line)}: {json.dumps(entry)}" for line, entry in table.items())
    return "{\n" + ",\n".join(entries) + "\n}\n"


def changed(table: dict, run, lines=None) -> dict:
    """{line: its new digest} for each of `lines` (default: every line of
    `table`) whose digest under `run` is not the one in `table`."""
    news = {}
    for line in table if lines is None else lines:
        new = run(line)
        if table.get(line) != new:
            news[line] = new
    return news


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("lines", nargs="*", help="run only these command lines")
    parser.add_argument("--fresh", action="store_true",
                        help="run each line in a new interpreter, not through cli.main")
    parser.add_argument("--recapture", action="store_true",
                        help="write the new digests to the table")
    args = parser.parse_args(argv)
    table = load()
    lines = args.lines or list(table)
    run = run_in_process
    if args.fresh:
        # each line is its own subprocess, so threads can wait on them side by side
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            run = dict(zip(lines, pool.map(run_fresh, lines))).__getitem__
    news = changed(table, run, lines)
    for line, new in news.items():
        old = table.get(line) or {}
        parts = [key for key in ("code", "stdout", "stderr") if old.get(key) != new[key]]
        print(f"{line}: {', '.join(parts)}" + ("" if line in table else " (new)"))
    print(f"{len(lines)} lines, {len(news)} changed")
    if args.recapture:
        if news:
            table.update(news)
            TABLE.write_text(dump(table))
        return 0
    return 1 if news else 0


if __name__ == "__main__":
    sys.exit(main())
