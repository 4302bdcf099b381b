"""Every hook point the benchmark patches by name still exists, and the
hooks still read the arguments they expect.

perfbench replaces sagetok functions by name to time them; a name that a
refactor removes is skipped without an error, and the benchmark would then
measure a different program. Some hooks also read a call's arguments by
position to count its work, so a traced smoke run of each workload checks
that those counts are still taken. These guards only read and run perfbench.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def test_every_trace_hook_resolves():
    assert tracing.Tracer().absent == []


def test_every_setup_point_resolves():
    assert tracing.SetupTimer().absent == []


def _traced_tiny_run(workload: str) -> dict:
    got = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--tiny", "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["absent_hooks"] == [] and record["absent_setup_points"] == []
    return result["metrics"]


def test_baselines_hooks_run_traced():
    _traced_tiny_run("baselines")


def test_sage_hooks_read_their_arguments():
    """The hooks that read arguments by position still find them: each
    count they derive from an argument is non-zero on the sage workload."""
    metrics = _traced_tiny_run("sage")
    for name in ("corpus.retokenize_sentences.sentences", "embeddings.pairs",
                 "encoder.encode_word.banned_calls"):
        assert metrics[name]["value"] > 0, name
