"""One measured run of one workload, in a fresh process (started by run.py).

The run generates the workload's corpora from the seed, stops before
timing if the generator no longer reproduces the recorded corpora, then
repeats passes of the workload's CLI commands, called in-process through
``sagetok.cli.main``, until ``--seconds`` have passed. Outputs are checked
after every pass, outside the timed region.

With ``--trace 0`` every pass is untraced and the result holds the
end-to-end metrics. With ``--trace 1`` untraced and traced passes
alternate; the result holds the per-layer metrics of the traced passes and
the tracing overhead against the untraced ones. Both print, before the
result line, one ``{"record": ...}`` line with the run record, all
end-to-end metrics with sample counts, and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import textgen  # noqa: E402
from sagetok import cli  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "reference.json"
# The child must leave time for the parent's own 180 s limit.
HARD_LIMIT_S = 150.0

# Every end-to-end metric with its unit; a workload reports those that apply.
# BENCHMARK.json gates GATED, the ones every workload reports (ops_failed is
# the result's "failed" field, and 0 when all is well).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_sage_s": "s",
    "train_bpe_s": "s",
    "train_unigram_s": "s",
    "analyze_s": "s",
    "encode_tokens_per_s": "1/s",
    "ops": "count",
    "ops_failed": "count",
    "resume_s": "s",
}
GATED = ("wall_s", "setup_s", "peak_rss_mb")
OP_METRIC = {
    "train-sage": "train_sage_s",
    "train-bpe": "train_bpe_s",
    "train-unigram": "train_unigram_s",
    "analyze": "analyze_s",
    "resume": "resume_s",
}

# Per-layer metrics: (name, unit, better, hook it needs or None).
PER_LAYER = (
    ("embeddings.train_embeddings.calls", "count", "lower", "embeddings.train_embeddings"),
    ("embeddings.train_embeddings.s", "s", "lower", "embeddings.train_embeddings"),
    ("embeddings.init_tables.s", "s", "lower", "embeddings.init_tables"),
    ("embeddings.pairs", "count", "lower", "embeddings.train_embeddings"),
    ("embeddings.pairs_per_s", "1/s", "higher", "embeddings.train_embeddings"),
    ("objective.ablation_loss.calls", "count", "lower", "objective.ablation_loss"),
    ("objective.ablation_loss.s", "s", "lower", "objective.ablation_loss"),
    ("objective.ablation_loss.self_s", "s", "lower", "objective.ablation_loss"),
    ("objective.ablation_loss.p50_ms", "ms", "lower", "objective.ablation_loss"),
    ("objective.ablation_loss.p99_ms", "ms", "lower", "objective.ablation_loss"),
    ("objective.ablation_loss.sentences", "count", "lower", "objective.ablation_loss"),
    ("objective.ablation_loss.sentences_per_s", "1/s", "higher", "objective.ablation_loss"),
    ("objective.batched_sentence_nll.calls", "count", "lower", "objective.batched_sentence_nll"),
    ("objective.batched_sentence_nll.s", "s", "lower", "objective.batched_sentence_nll"),
    ("objective.batched_sentence_nll.sentences", "count", "lower", "objective.batched_sentence_nll"),
    ("objective.corpus_nll.s", "s", "lower", "objective.corpus_nll"),
    ("objective.attach_nll_cache.s", "s", "lower", "objective.attach_nll_cache"),
    ("corpus.retokenize_sentences.calls", "count", "lower", "corpus.retokenize_sentences"),
    ("corpus.retokenize_sentences.s", "s", "lower", "corpus.retokenize_sentences"),
    ("corpus.retokenize_sentences.sentences", "count", "lower", "corpus.retokenize_sentences"),
    ("corpus.build_index.s", "s", "lower", "corpus.build_index"),
    ("corpus.load_corpus.s", "s", "lower", "corpus.load_corpus"),
    ("encoder.compile.calls", "count", "lower", "encoder.compile"),
    ("encoder.compile.s", "s", "lower", "encoder.compile"),
    ("encoder.encode_corpus.s", "s", "lower", "encoder.encode_corpus"),
    ("encoder.encode_corpus.tokens_per_s", "1/s", "higher", "encoder.encode_corpus"),
    ("encoder.encode_word.calls", "count", "lower", "encoder.encode_word"),
    ("encoder.encode_word.banned_calls", "count", "lower", "encoder.encode_word"),
    ("bpe.train_bpe.s", "s", "lower", "bpe.train_bpe"),
    ("bpe.merges_per_s", "1/s", "higher", "bpe.train_bpe"),
    ("unigram.init_substring_vocab.s", "s", "lower", "unigram.init_substring_vocab"),
    ("unigram.train_unigram.s", "s", "lower", "unigram.train_unigram"),
    ("unigram.candidates", "count", "lower", "unigram.train_unigram"),
    ("unigram.candidates_per_s", "1/s", "higher", "unigram.train_unigram"),
    ("sage.init_state.s", "s", "lower", "sage.init_state"),
    ("sage.init_state.self_s", "s", "lower", "sage.init_state"),
    ("sage.prune_iteration.calls", "count", "lower", "sage.prune_iteration"),
    ("sage.prune_iteration.s", "s", "lower", "sage.prune_iteration"),
    ("sage.prune_iteration.self_s", "s", "lower", "sage.prune_iteration"),
    ("sage.prune_iteration.p50_ms", "ms", "lower", "sage.prune_iteration"),
    ("sage.prune_iteration.p75_ms", "ms", "lower", "sage.prune_iteration"),
    ("sage.save_checkpoint.s", "s", "lower", "sage.save_checkpoint"),
    ("sage.load_checkpoint.s", "s", "lower", "sage.load_checkpoint"),
    ("sage.loss_evals", "count", "lower", None),
    ("sage.pruned", "count", "higher", None),
    ("sage.prune_yield", "ratio", "higher", None),
    ("sage.full_recalcs", "count", "lower", None),
    ("sage.forced_recalcs", "count", "lower", None),
    ("sage.retrains", "count", "lower", None),
    ("analysis.token_stats.s", "s", "lower", "analysis.token_stats"),
    ("analysis.fertility_hist.s", "s", "lower", "analysis.fertility_hist"),
    ("analysis.efficiency.s", "s", "lower", "analysis.efficiency"),
    ("analysis.summary_report.self_s", "s", "lower", "analysis.summary_report"),
    ("trace.overhead_frac", "ratio", "lower", None),
)
# Layers whose share of each train-sage command the record's split gives.
SPLIT_LAYERS = ("embeddings.train_embeddings", "objective.ablation_loss",
                "corpus.retokenize_sentences", "bpe.train_bpe")
# Derived rates: metric -> (count key, seconds key).
RATES = {
    "embeddings.pairs_per_s": ("embeddings.pairs", "embeddings.train_embeddings.s"),
    "objective.ablation_loss.sentences_per_s": (
        "objective.ablation_loss.sentences", "objective.ablation_loss.s"),
    "encoder.encode_corpus.tokens_per_s": ("encoder.encode_corpus.tokens", "encoder.encode_corpus.s"),
    "bpe.merges_per_s": ("bpe.merges", "bpe.train_bpe.s"),
    "unigram.candidates_per_s": ("unigram.candidates", "unigram.train_unigram.s"),
}


@dataclass
class Pass:
    traced: bool
    wall_s: float
    setup_s: float
    op_s: list[float]
    failures: list[list[str]]
    results: list[dict]
    tree: dict[str, str]
    layers: dict[str, float] = field(default_factory=dict)
    durations: dict[str, list[float]] = field(default_factory=dict)
    op_layers: list[dict[str, float]] = field(default_factory=list)


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        sha = got.stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    thread_vars = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


def generate(wl: workloads.Workload, seed: int, tiny: bool, reference: dict | None,
             work: Path) -> dict[str, list[str]]:
    """Write the workload's corpora; raise SystemExit if the generator drifted."""
    corpora = {}
    for spec in wl.corpora:
        key = f"{wl.name}/{spec.role}"
        lines = textgen.generate_corpus(spec.lines, seed=spec.seed(seed), n_stems=spec.n_stems)
        corpora[spec.role] = lines
        (work / f"{spec.role}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if reference is None:
            continue
        want = reference["corpora"].get(key)
        probe = textgen.generate_corpus(
            workloads.PROBE_LINES, seed=spec.seed(workloads.DEFAULT_SEED), n_stems=spec.n_stems
        )
        drifted = want is None or checks.corpus_digest(probe) != want["probe"]
        if seed == workloads.DEFAULT_SEED and not tiny:
            drifted = drifted or checks.corpus_digest(lines) != want["full"]
        if drifted:
            raise SystemExit(
                f"perfbench: tests/textgen.py no longer generates the recorded {key} corpus; "
                "the workload changed, so its timings are not comparable"
            )
    return corpora


def run_pass(wl, work: Path, corpora, tracer: tracing.Tracer | None) -> Pass:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    rec = tracing.Recorder()
    setup = tracing.SetupTimer()
    if tracer is not None:
        tracer.install(rec)
    setup.install()
    op_s, bounds, errors = [], [], []
    try:
        first = time.perf_counter()
        for op in wl.ops:
            start = time.perf_counter()
            error = None
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(op.args(str(work)))
                if code != 0:
                    error = f"exit code {code}"
            except SystemExit as exc:
                error = f"exit code {exc.code}"
            except Exception:  # an op that raises is a failed op; the run goes on
                error = traceback.format_exc(limit=-3)
            end = time.perf_counter()
            op_s.append(end - start)
            bounds.append((start, end))
            errors.append(error)
        wall = time.perf_counter() - first
    finally:
        setup.uninstall()
        if tracer is not None:
            tracer.uninstall()
    results = [checks.check_op(op, out, corpora) for op in wl.ops]
    failures = [([e] if e else []) + r["problems"] for e, r in zip(errors, results)]
    p = Pass(tracer is not None, wall, setup.seconds, op_s, failures, results, checks.tree_digests(out))
    if tracer is not None:
        p.layers, p.durations = tracing.pass_layers(rec)
        p.op_layers = [
            {name: sum(s.end - s.start for s in rec.spans if s.name == name and start <= s.start < end)
             for name in SPLIT_LAYERS}
            for start, end in bounds
        ]
    return p


def sage_counts(p: Pass) -> dict[str, float]:
    """Event-log counts summed over the pass's train-sage commands."""
    out = {name: 0 for name, _, _, hook in PER_LAYER if name.startswith("sage.") and hook is None}
    for r in p.results:
        for name, value in r.get("sage", {}).items():
            out[name] += value
    out["sage.prune_yield"] = out["sage.pruned"] / out["sage.loss_evals"] if out["sage.loss_evals"] else 0.0
    return out


def end_to_end(wl, passes: list[Pass]) -> dict[str, dict]:
    """All end-to-end metrics that apply to the workload, as the trimmed
    mean over passes (``tracing.trimmed_mean``), with the median and tail
    alongside. A command kind that runs more than once in a pass is summed
    per pass."""
    samples: dict[str, list[float]] = {"wall_s": [p.wall_s for p in passes],
                                       "setup_s": [p.setup_s for p in passes]}
    for kind, metric in OP_METRIC.items():
        idx = [i for i, op in enumerate(wl.ops) if op.kind == kind]
        if idx:
            samples[metric] = [sum(p.op_s[i] for i in idx) for p in passes]
    enc = [i for i, op in enumerate(wl.ops) if op.kind == "encode"]
    if enc:
        samples["encode_tokens_per_s"] = [
            sum(p.results[i].get("tokens", 0) for i in enc) / sum(p.op_s[i] for i in enc)
            for p in passes
        ]
    out = {}
    for name, values in samples.items():
        tail = tracing.tail_percentile(values)
        out[name] = {
            "value": tracing.trimmed_mean(values),
            "unit": END_TO_END[name],
            "n": len(values),
            "median": statistics.median(values),
            "tail": None if tail is None else {"q": tail[0], "value": tail[1]},
        }
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1, "tail": None,
    }
    return out


def per_layer(tracer: tracing.Tracer, traced: list[Pass], untraced: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics: per-pass medians over the traced passes, with
    percentiles pooled over every traced call; plus percentile notes."""
    def per_pass(p: Pass) -> dict[str, float]:
        vals = dict(p.layers)
        for name, (count, seconds) in RATES.items():
            vals[name] = tracing.rate(vals.get(count, 0), vals.get(seconds, 0.0))
        vals.update(sage_counts(p))
        return vals

    rows = [per_pass(p) for p in traced]
    pooled: dict[str, list[float]] = {}
    for p in traced:
        for name, durs in p.durations.items():
            pooled.setdefault(name, []).extend(durs)
    notes = {}
    metrics = {}
    for name, unit, _better, hook in PER_LAYER:
        if hook is not None and hook not in tracer.present:
            continue
        if name == "trace.overhead_frac":
            value = (statistics.median(p.wall_s for p in traced)
                     / statistics.median(p.wall_s for p in untraced) - 1.0)
        elif name.endswith("_ms") and ".p" in name:
            q = float(name.rsplit(".p", 1)[1][:-3])
            durs = pooled.get(hook, [])
            value = tracing.percentile(durs, q) * 1000.0
            tail = tracing.tail_percentile(durs)
            notes[name] = {"n": len(durs), "supported": tracing.supports(len(durs), q),
                           "tail": None if tail is None else {"q": tail[0], "ms": tail[1] * 1000.0}}
        else:
            value = statistics.median(row.get(name, 0) for row in rows)
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics, notes


def split(wl, traced: list[Pass]) -> dict[str, dict[str, float]]:
    """Layer shares of each train-sage command's time in the traced passes."""
    out = {}
    for i, op in enumerate(wl.ops):
        if op.kind != "train-sage":
            continue
        op_s = statistics.median(p.op_s[i] for p in traced)
        out[op.param("vocab")] = {
            f"{layer}.s/op_s": statistics.median(p.op_layers[i][layer] for p in traced) / op_s
            for layer in SPLIT_LAYERS
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record", action="store_true",
                        help="rewrite this workload's entries in reference.json from this run")
    args = parser.parse_args(argv)
    if args.record and (args.tiny or args.seed != workloads.DEFAULT_SEED):
        parser.error("--record needs the default seed and full sizes")
    started = time.perf_counter()

    wl = workloads.build(args.workload, args.tiny)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    use_reference = not args.record
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        corpora = generate(wl, args.seed, args.tiny, reference if use_reference else None, work)
        tracer = tracing.Tracer() if args.trace else None
        t0 = time.perf_counter()
        # The first pass warms up (imports, first allocations); it is checked
        # like the others but left out of every timing.
        warmup = run_pass(wl, work, corpora, None)
        passes: list[Pass] = [warmup]
        while True:
            traced = tracer is not None and len(passes) % 2 == 0
            passes.append(run_pass(wl, work, corpora, tracer if traced else None))
            enough = time.perf_counter() - t0 >= args.seconds and (tracer is None or len(passes) >= 3)
            if enough or time.perf_counter() - started + passes[-1].wall_s > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    ref_outputs = reference["outputs"].get(wl.name) if use_reference else None
    check_reference = ref_outputs is not None and args.seed == workloads.DEFAULT_SEED and not args.tiny
    failed_ops = 0
    problems = []
    for p in passes:
        for i, op in enumerate(wl.ops):
            found = list(p.failures[i])
            if check_reference and p.results[i]["digests"] != ref_outputs[i]["digests"]:
                found.append("token-level output differs from reference.json")
            prefix = checks.output_prefix(op)
            if any(p.tree.get(f) != passes[0].tree.get(f)
                   for f in p.tree.keys() | passes[0].tree.keys() if f.startswith(prefix)):
                found.append("output files differ from the first pass")
            if found:
                failed_ops += 1
                problems.append({"op": op.kind, "traced": p.traced, "problems": found[:3]})
    attempted = len(passes) * len(wl.ops)

    untraced = [p for p in passes[1:] if not p.traced]
    traced_passes = [p for p in passes[1:] if p.traced]
    e2e = end_to_end(wl, untraced)
    e2e["ops"] = {"value": attempted, "unit": "count", "n": 1, "tail": None}
    e2e["ops_failed"] = {"value": failed_ops, "unit": "count", "n": 1, "tail": None}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "env": environment(),
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(traced_passes)},
        "pass_wall_s": [p.wall_s for p in passes],
        "op_s": [{"op": op.kind, "writes": checks.output_prefix(op),
                  "median_s": statistics.median(p.op_s[i] for p in untraced)}
                 for i, op in enumerate(wl.ops)],
        "end_to_end": e2e,
        "sage": sage_counts(passes[0]),
        "reference_checked": check_reference,
        "problems": problems[:10],
    }
    if tracer is not None:
        layer_metrics, notes = per_layer(tracer, traced_passes, untraced)
        record.update(per_layer=layer_metrics, percentiles=notes, split=split(wl, traced_passes),
                      absent_hooks=tracer.absent)
        metrics = layer_metrics
    else:
        metrics = {name: {"value": float(e2e[name]["value"]), "unit": e2e[name]["unit"]} for name in GATED}
    record["absent_setup_points"] = tracing.SetupTimer().absent

    if args.record:
        _record(wl, corpora, passes[0])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed_ops == 0,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": metrics,
    }))
    return 0


def _record(wl, corpora, p: Pass) -> None:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    for spec in wl.corpora:
        probe = textgen.generate_corpus(workloads.PROBE_LINES, seed=spec.seed(workloads.DEFAULT_SEED),
                                        n_stems=spec.n_stems)
        reference["corpora"][f"{wl.name}/{spec.role}"] = {
            "lines": spec.lines,
            "probe": checks.corpus_digest(probe),
            "full": checks.corpus_digest(corpora[spec.role]),
        }
    reference["outputs"][wl.name] = [
        {"op": op.kind, "digests": r["digests"]} for op, r in zip(wl.ops, p.results)
    ]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
