"""Report bytes: one sha256 of (exit code, stdout, stderr) per command of a
fixed sweep, against digests recorded in `report_digests.json`.

The sweep runs `tcube.cli.main` in-process:
  - `verify` for every suite in json, csv and pretty at D = 1..5;
  - `verify --corrupt` of each corruptible operator for every suite at
    D = 3, 4, and for `--suite all` at D = 6, where an endpoint has up to
    9 modules;
  - `decompose` and `leonard-check` in json, csv and pretty, and
    `module-report` in json and pretty, at D = 1..5.

A refactor that keeps every report byte passes unchanged.  To record the
digests of the current tree (only when a report is meant to change):

    PYTHONPATH=src python tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os

from tcube import cli

DIGESTS = os.path.join(os.path.dirname(__file__), "report_digests.json")
FORMATS = ("json", "csv", "pretty")


def sweep():
    """The commands of the sweep, each a list of arguments."""
    commands = []
    for D in range(1, 6):
        for suite in cli.SUITES:
            for fmt in FORMATS:
                commands.append(["verify", "--d", str(D), "--suite", suite,
                                 "--format", fmt])
    for D in (3, 4):
        for corrupt in sorted(cli.CORRUPT_OPS):
            for suite in cli.SUITES:
                commands.append(["verify", "--d", str(D), "--suite", suite,
                                 "--corrupt", corrupt])
    for corrupt in sorted(cli.CORRUPT_OPS):
        commands.append(["verify", "--d", "6", "--suite", "all",
                         "--corrupt", corrupt])
    for D in range(1, 6):
        for command, formats in (("decompose", FORMATS),
                                 ("leonard-check", FORMATS),
                                 ("module-report", ("json", "pretty"))):
            for fmt in formats:
                commands.append([command, "--d", str(D), "--format", fmt])
    return commands


def run(argv):
    """(exit code, stdout, sha256 of the exit code, stdout and stderr) of
    one command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return code, stdout.getvalue(), hashlib.sha256(blob.encode()).hexdigest()


def digests():
    """{command: sha256 of its exit code, stdout and stderr} over the sweep."""
    return {" ".join(argv): run(argv)[2] for argv in sweep()}


def test_every_report_keeps_its_digest():
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    got = digests()
    assert sorted(got) == sorted(recorded)
    differ = [command for command, h in got.items() if recorded[command] != h]
    assert differ == [], "reports changed: " + "; ".join(differ)


if __name__ == "__main__":
    recorded = digests()
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS}")
