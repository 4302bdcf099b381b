"""Every hook point the benchmark patches by name still exists.

perfbench replaces sagetok functions by name to time them; a name that a
refactor removes is skipped without an error, and the benchmark would then
measure a different program. This guard only reads perfbench.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


def test_every_trace_hook_resolves():
    assert tracing.Tracer().absent == []


def test_every_setup_point_resolves():
    assert tracing.SetupTimer().absent == []
