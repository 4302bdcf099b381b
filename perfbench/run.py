"""Benchmark entry point: one measured run of one sagetok workload.

    python3 perfbench/run.py --workload sage --seed 3 --seconds 50 --trace 0

Run from anywhere inside a sagetok checkout. The run happens in a fresh
child process (child.py), which generates the corpora from the seed, runs
the workload's CLI commands in-process for the given seconds, checks the
outputs and prints a ``{"record": ...}`` line followed by the result line
``{"correct", "attempted", "failed", "metrics"}``. This process only
checks that the checkout has the program, enforces a time limit and
relays the child's output.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NEEDED = ("src/sagetok/cli.py", "tests/textgen.py")
TIMEOUT_S = 170


def main(argv: list[str]) -> int:
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a sagetok checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: run failed with exit code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
