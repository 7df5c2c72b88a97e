"""Record the outputs of every preset command as benchmark/reference.json.

    python3 benchmark/record_reference.py

Run from the root of a checkout whose outputs are trusted.  The checks in
run.py compare later outputs against this file within checks.REL_TOL.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    _, cli = run.import_program(Path.cwd())
    runner = run.Runner(cli, references={})
    run.OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    references = {}
    try:
        for cmd in workloads.preset_commands(work_dir):
            _, code, stdout, stderr = runner.call(cmd, traced=False)
            if code != 0:
                raise SystemExit(f"{' '.join(cmd.argv)} exited {code}: {stderr}")
            outputs = checks.collect(cmd, stdout)
            problems = checks.invariants(cmd.kind, outputs)
            if problems:
                raise SystemExit(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
            references[cmd.reference_key] = checks.reference_view(cmd.kind, outputs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"recorded {len(references)} commands in {run.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
