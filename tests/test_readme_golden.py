"""Golden output of every README command.

Each `geosplit ...` line of the README's command-line block runs in-process
through `cli.main`, in a fresh working directory holding the default cache
directory, and must print exactly the recorded stdout and return the
recorded exit code; `census --level 25` therefore writes its cache.
`--jobs` is pinned to at most 2: it only spreads the trace enumeration over
workers and never changes the output.

The captures live in tests/golden/readme_cli.json.  After a change that is
meant to alter CLI output, rewrite them with

    PYTHONPATH=src python tests/test_readme_golden.py --write

and review the diff of that file.
"""

import json
import os
import re
import sys
from contextlib import redirect_stdout
from io import StringIO

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "readme_cli.json")
JOBS = str(min(2, os.cpu_count() or 1))


def readme_commands():
    """The `geosplit` lines of the README's command-line block, comments cut."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", text, re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines()
            if line.startswith("geosplit ")]


def run_command(command):
    """(exit code, stdout) of one README command, run in the current directory."""
    from geosplit.cli import main

    out = StringIO()
    with redirect_stdout(out):
        code = main(["--jobs", JOBS] + command.split()[1:])
    return code, out.getvalue()


def capture(workdir):
    os.chdir(workdir)
    return [dict(zip(("command", "exit", "stdout"), (c, *run_command(c))))
            for c in readme_commands()]


def test_readme_commands_match_golden(tmp_path, monkeypatch):
    monkeypatch.delenv("GEODESIC_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert [g["command"] for g in golden] == readme_commands()
    for want in golden:
        code, out = run_command(want["command"])
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode()), want["command"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_readme_golden.py --write")
    os.environ.pop("GEODESIC_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as workdir:
        records = capture(workdir)
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
