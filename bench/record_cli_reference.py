"""Record the reference results of the cli_mix commands into cli_reference.json.

Run from the repository root with ``python3 bench/record_cli_reference.py``.
It runs every cli_mix command in every format it may take once through ``cli.run`` and stores the exit
code, the SHA-256 of stdout and the checked JSON fields.  Commands whose
output contains ``interval:`` values are refused, because that rendering is
due to change.  Re-record only when a change of the program's output is
intended.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.require_program()
    cli = run.fresh_import()["cli"]
    reference = {}
    for cls, command, formats in workloads.CLI_PASS:
        for argv in (workloads.with_format(fmt, command) for fmt in formats):
            code, stdout = workloads.execute(workloads.Op("cli", tuple(argv), cls),
                                             workloads.cli_argv(cls, argv), None, cli)
            if "interval:" in stdout:
                print(f"refusing {argv}: output contains interval: values", file=sys.stderr)
                return 1
            if cls.startswith("refuse") != (code == 1):
                print(f"unexpected exit {code} for {argv} in class {cls}", file=sys.stderr)
                return 1
            record = workloads.cli_record(code, stdout)
            if reference.setdefault(workloads.cli_key(argv), record) != record:
                print(f"{argv} gives another result in class {cls}", file=sys.stderr)
                return 1
    workloads.CLI_REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} commands into {workloads.CLI_REFERENCE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
