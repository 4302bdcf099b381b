"""Ablation scoring benchmark: parent commit against the working tree.

    python3 bench/ablation.py --base HEAD --out BENCH_ablation.json
    python3 bench/ablation.py --base HEAD --criterion7   # adds one Criterion 7 run per side

Exports ``--base`` with ``git archive`` into a temporary directory and
runs the ``sage`` benchmark workload's three ``train-sage`` commands
(``perfbench/workloads.py``: a 60-line run with an in-loop retrain, a
250-line run of 30 iterations with checkpoints, and a resume from its last
checkpoint) from that tree and from this checkout's ``src/``, each on the
same seeded ``tests/textgen.py`` corpora. Each measurement runs in a fresh
process that calls ``sagetok.cli.main`` in-process and wraps, by module
attribute, ``sage.ablation_losses`` (seconds, candidates passed in),
``encoder.compile`` (calls), ``sage.save_checkpoint`` (seconds, bytes of
the file written) and ``sage.prune_iteration`` (the ``loss_evals`` of the
event it appends: candidates ranked). A candidate ranked but not passed
to ``ablation_losses`` was reused: ``reused = ranked - scored``. The
two sides alternate, the record keeps every run and the medians, and a
digest of every vocabulary and event log must agree across all runs.

``--criterion7`` also runs ``tests/test_acceptance.py``'s Criterion 7
(the 100k-line protocol, ``SAGETOK_ACCEPTANCE_FULL=1``) once per side, one
after the other, each in a fresh process, and records its seconds, peak
RSS (``common.peak_rss_mb``), outcome and reported values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

COMMANDS = ("embed", "prune", "resume")


def _child(src: str, seed: str) -> dict:
    with tempfile.TemporaryDirectory() as work:
        return _measure(src, int(seed), Path(work))


def _measure(src: str, seed: int, work: Path) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(0, str(common.ROOT / "perfbench"))
    sys.path.insert(0, str(common.ROOT / "tests"))
    import textgen
    import workloads
    from sagetok import cli, encoder, sage

    wl = workloads.build("sage")
    for spec in wl.corpora:
        lines = textgen.generate_corpus(spec.lines, seed=spec.seed(seed), n_stems=spec.n_stems)
        (work / f"{spec.role}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "out").mkdir()

    counts: dict[str, float] = {}

    def add(key: str, n: float) -> None:
        counts[key] = counts.get(key, 0) + n

    real_ablation, real_compile = sage.ablation_losses, encoder.compile
    real_save, real_iteration = sage.save_checkpoint, sage.prune_iteration

    def ablation_losses(candidates, *args):
        start = time.perf_counter()
        try:
            return real_ablation(candidates, *args)
        finally:
            add("ablation_s", time.perf_counter() - start)
            add("scored", len(candidates))

    def compile(*args, **kwargs):
        add("compile_calls", 1)
        return real_compile(*args, **kwargs)

    def save_checkpoint(state, cfg, corpus, path):
        start = time.perf_counter()
        real_save(state, cfg, corpus, path)
        add("checkpoint_s", time.perf_counter() - start)
        add("checkpoints", 1)
        add("checkpoint_bytes", os.path.getsize(path))

    def prune_iteration(state, cfg):
        real_iteration(state, cfg)
        add("ranked", state.events[-1]["loss_evals"])
        return state

    sage.ablation_losses, encoder.compile = ablation_losses, compile
    sage.save_checkpoint, sage.prune_iteration = save_checkpoint, prune_iteration
    out: dict = {}
    digest = hashlib.sha256()
    for name, op in zip(COMMANDS, wl.ops):
        counts.clear()
        events = work / "out" / f"{name}.events.jsonl"
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(op.args(str(work)) + ["--events-out", str(events)])
        seconds = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"bench: {name} exited {code}")
        ranked, scored = int(counts.get("ranked", 0)), int(counts.get("scored", 0))
        vocab = work / "out" / op.param("vocab")
        for path in (vocab, events):
            digest.update(path.read_bytes())
        out[name] = {
            "seconds": seconds, "ablation_s": counts.get("ablation_s", 0.0),
            "ranked": ranked, "scored": scored, "reused": ranked - scored,
            "compile_calls": int(counts.get("compile_calls", 0)),
            "checkpoints": int(counts.get("checkpoints", 0)),
            "checkpoint_s": counts.get("checkpoint_s", 0.0),
            "checkpoint_bytes": int(counts.get("checkpoint_bytes", 0)),
        }
    out["peak_rss_mb"] = common.peak_rss_mb()
    out["digest"] = digest.hexdigest()
    return out


# the peak comes from this checkout's `common`, which an older tree may lack
_CRITERION7 = """
import json, time
import pytest
from common import peak_rss_mb
start = time.perf_counter()
code = pytest.main(["-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py", "-k", "Criterion7"])
print(json.dumps({"exit": int(code), "seconds": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb()}))
"""


def _criterion7(tree: Path) -> dict:
    """One Criterion 7 run from ``tree``, in a fresh interpreter."""
    env = dict(os.environ, SAGETOK_ACCEPTANCE_FULL="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(common.ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-c", _CRITERION7], cwd=tree, env=env, check=False,
                         stdout=subprocess.PIPE, text=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["passed"] = result["exit"] == 0
    result["report"] = next((line for line in out if line.startswith("ACCEPTANCE 7")), None)
    return result


def main(argv: list[str]) -> int:
    parser = common.parser(__doc__, "BENCH_ablation.json", repeats=5)
    parser.add_argument("--seeds", type=int, nargs="*", default=[7, 11])
    parser.add_argument("--criterion7", action="store_true", help="also run Criterion 7 once per side")
    args = parser.parse_args(argv)
    record = common.header("sagetok.objective.ablation_losses", args.base, args.repeats)
    with common.exported(args.base) as (_, sides):
        for seed in args.seeds:
            case = {"workload": "sage", "seed": seed}
            record["cases"].append(common.compare(__file__, sides, args.repeats, case, str(seed)))
        if args.criterion7:
            record["criterion7"] = {side: _criterion7(sides[side].parent) for side in common.SIDES}
            print(f"criterion 7: {json.dumps(record['criterion7'])}", file=sys.stderr)
    return common.finish(record, args.out)


if __name__ == "__main__":
    sys.exit(common.dispatch(_child, main))
