"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str) -> tuple[dict, dict]:
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert got.returncode == 0, got.stderr
    lines = got.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_run(name, trace):
    record, result = _run("--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace, "--tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert record["end_to_end"]["ops_failed"]["value"] == 0
    want = child.GATED if trace == "0" else [row[0] for row in child.PER_LAYER]
    assert list(result["metrics"]) == list(want)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(child.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in child.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent)


def test_self_time_from_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 1.5, 2.5, parent=1),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: the union counts once
        _span("c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0])


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(19))) is None
    assert tracing.tail_percentile(list(range(20)))[0] == 50.0
    assert tracing.tail_percentile(list(range(39)))[0] == 50.0
    assert tracing.tail_percentile(list(range(40)))[0] == 75.0
    assert tracing.tail_percentile(list(range(100)))[0] == 90.0
    assert tracing.tail_percentile(list(range(999)))[0] == 95.0
    q, value = tracing.tail_percentile([float(i) for i in range(1000)])
    assert q == 99.0 and value == pytest.approx(989.01)
    assert tracing.tail_percentile(list(range(10_000)))[0] == 99.9


def test_trimmed_mean_drops_a_fifth_at_each_end():
    assert tracing.trimmed_mean([5.0]) == 5.0
    assert tracing.trimmed_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert tracing.trimmed_mean([9.0, 1.0, 2.0, 3.0, 100.0]) == pytest.approx(14 / 3)
    assert tracing.trimmed_mean([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 90.0]) == 5.5


def test_removed_hook_is_listed_absent_and_tracing_still_works():
    import sagetok.encoder
    import sagetok.sage

    gone = tracing.Hook("corpus.gone_function", "sagetok.corpus:gone_function")
    tracer = tracing.Tracer(tracing.HOOKS + (gone,))
    assert tracer.absent == ["corpus.gone_function"]
    original = sagetok.sage.ablation_loss
    rec = tracing.Recorder()
    tracer.install(rec)
    try:
        assert sagetok.sage.ablation_loss is not original
        assert sagetok.objective.ablation_loss is sagetok.sage.ablation_loss
    finally:
        tracer.uninstall()
    assert sagetok.sage.ablation_loss is original
    assert "encode_word" in vars(sagetok.encoder.CompiledVocab)
