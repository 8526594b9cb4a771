"""Shows that the benchmark's correctness gate fires.

    python3 bench/selftest.py

Runs the verify workload twice for one second each: once as is, once with
the first instance's first cached training gold cost bumped by one in the
saved dataset.  Exits 0 when the clean run passes and the tampered run
fails with correct=false and exit code 1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ARGS = ["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
# Each run gets its own interpreter: run.main imports the program afresh.
CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
    "sys.exit(run.main(json.loads(sys.argv[2]), tamper=sys.argv[3] == '1'))"
)


def quiet_run(tamper: bool) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(HERE), json.dumps(ARGS), "1" if tamper else "0"],
        capture_output=True,
        text=True,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    failures = []
    code, result, _ = quiet_run(tamper=False)
    if code != 0 or not result["correct"]:
        failures.append(f"clean run: exit {code}, correct={result['correct']}")
    code, result, text = quiet_run(tamper=True)
    if code != 1 or result["correct"]:
        failures.append(f"tampered run: exit {code}, correct={result['correct']}")
    if "cached gold cost" not in text:
        failures.append("tampered run did not report the cached gold cost mismatch")
    for line in failures:
        print(f"FAIL {line}")
    if not failures:
        print("PASS the gate accepts the clean dataset and fails the tampered one")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
