"""What the ``bench/`` scripts share: exporting the base revision, running
one measurement in a fresh process, alternating the two sides, the
record's header, and saving corpus lines for a child to read."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Extract ``rev`` with ``git archive`` into ``dest``; returns its ``src``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def header(benchmark: str, base: str, repeats: int) -> dict:
    import numpy

    return {
        "benchmark": benchmark,
        "base": {"rev": base, "sha": git("rev-parse", base)},
        "change": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src"))},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": repeats,
        "cases": [],
    }


def pack_lines(lines):
    """Corpus lines as one uint8 array of their UTF-8 text, newline-joined:
    a compact form to save with ``np.savez``."""
    import numpy as np

    return np.frombuffer("\n".join(lines).encode("utf-8"), dtype=np.uint8)


def unpack_lines(packed) -> list[str]:
    """The lines :func:`pack_lines` packed."""
    return packed.tobytes().decode("utf-8").split("\n")


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB, read as ``VmHWM``: a
    program image starts it afresh. Linux carries the forking process's
    RSS into ``ru_maxrss`` across ``fork`` and ``exec``, so a child of the
    script's parent, which holds every case's inputs, would report at
    least that process's size; ``ru_maxrss`` is the fallback where
    ``/proc`` is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_child(script: str, *args: str) -> dict:
    """Run ``script --child args...`` in a fresh interpreter; its stdout is
    one JSON object."""
    out = subprocess.run(
        [sys.executable, script, "--child", *args], check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out)


def alternate(repeats: int, measure) -> dict[str, list[dict]]:
    """``measure(side)`` ``repeats`` times per side, the first side
    switching every round."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for r in range(repeats):
        for side in ("base", "change") if r % 2 == 0 else ("change", "base"):
            runs[side].append(measure(side))
    return runs


def same_digest(runs: list[dict]) -> str:
    """The digest every run of one side agrees on."""
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise SystemExit(f"bench: runs of one side disagree on the output: {sorted(digests)}")
    return runs[0]["digest"]
