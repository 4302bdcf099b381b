"""The ``bench/`` scripts still run against this checkout.

Each script builds its inputs in the parent process and measures in a
child that imports the library of one side; a library change that breaks
either half shows only when someone runs the script. These tests build
the inputs of one small case of each script, run its child against this
checkout's ``src/`` and hold the child's output digest to the same
computation made directly. One test runs the shared compare loop end to
end, with this checkout on both sides.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from sagetok import cli, embeddings, encoder, sage, unigram
from sagetok.bpe import _kernel as bpe_kernel, train_bpe
from sagetok.corpus import RawCorpus, build_index
from sagetok.embeddings import EmbedConfig, SkipGramTable, train_embeddings
from sagetok.objective import ablation_losses, attach_nll_cache
from sagetok.vocab import Vocabulary, is_protected

from textgen import generate_corpus

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


def _script(name, monkeypatch):
    """``bench/<name>.py`` as a module; the scripts import ``common`` from
    their own directory, and their children prepend a ``src`` to
    ``sys.path``, which the monkeypatch undoes."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _case(module, name):
    """The case's fields after its name, and its corpus built directly."""
    _, lines, seed, n_stems, alpha, size, config = next(c for c in module.CASES if c[0] == name)
    corpus = RawCorpus.from_lines(generate_corpus(lines, seed=seed, n_stems=n_stems, zipf_alpha=alpha))
    return (lines, seed, n_stems, alpha, size, config), corpus


def _bpe_digest(vocab, merges):
    payload = json.dumps(
        [list(vocab.tokens), list(vocab.provenance), [(m.left, m.right, m.count) for m in merges]],
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_sgns_child_trains_on_the_saved_lines(tmp_path, monkeypatch):
    sgns = _script("sgns", monkeypatch)
    (lines, seed, n_stems, alpha, size, cfg), corpus = _case(sgns, "sage-embed")
    built, store, arrays = sgns.common.build_inputs(lines, seed, n_stems, alpha, size)
    inputs = tmp_path / "sage-embed.npz"
    np.savez(inputs, **arrays)
    got = sgns._child(SRC, str(inputs), json.dumps(cfg), "1000")

    vocab, _ = train_bpe(corpus, size)
    direct = encoder.encode_corpus(corpus, encoder.compile(vocab))
    table = train_embeddings(direct, vocab, EmbedConfig(**cfg))
    assert built.tokens == vocab.tokens and np.array_equal(store.flat, direct.flat)
    assert got["digest"] == hashlib.sha256(table.target.tobytes() + table.context.tobytes()).hexdigest()
    assert got["seconds"] > 0 and got["peak_rss_mb"] > 0 and got["pairs_per_s"] == 1000 / got["seconds"]
    assert got["row_sums"] == ("numpy" if embeddings._kernel() is None else "compiled")


def test_encode_child_segments_the_saved_lines(tmp_path, monkeypatch):
    bench = _script("encode", monkeypatch)
    for name, call, corpus_spec, bpe_spec, cfg in bench.CASES[:2]:
        lines, arrays = bench._inputs(corpus_spec, bpe_spec)
        inputs = tmp_path / f"{name}.npz"
        np.savez(inputs, **arrays)
        got = bench._child(SRC, str(inputs), call, json.dumps({**cfg, "passes": 1}))

        corpus = RawCorpus.from_lines(lines)
        if call == "build_index":
            index = build_index(corpus, encoder.compile(Vocabulary(arrays["tokens"].tolist())))
            payload = index.segs
            assert got["words_per_s"] == len(index.type_ids) / got["seconds"]
        else:
            payload = list(unigram.train_unigram(corpus, cfg["target"], cfg["prune_batch"]).tokens)
        digest = hashlib.sha256(json.dumps(payload, ensure_ascii=False).encode("utf-8")).hexdigest()
        assert got["digest"] == digest
        assert got["seconds"] > 0 and got["peak_rss_mb"] > 0
        assert got["encoder"] == ("python" if encoder._kernel() is None else "compiled")


def test_nll_children_score_the_saved_lines(tmp_path, monkeypatch):
    nll = _script("nll", monkeypatch)
    (lines, seed, n_stems, alpha, size, sgns), corpus = _case(nll, "sage-ablation")
    inputs = tmp_path / "sage-ablation.npz"
    shape = nll._prepare(inputs, lines, seed, n_stems, alpha, size, sgns)
    ablation = nll._child(SRC, "ablation", str(inputs))
    # the attach and top children read the same inputs, so this case covers them too
    attach = nll._child(SRC, "attach", str(inputs))
    top = nll._child(SRC, "top", str(inputs))

    vocab, _ = train_bpe(corpus, size)
    cv = encoder.compile(vocab)
    index = build_index(corpus, cv)
    store = index.store(vocab.digest())
    trained = train_embeddings(store, vocab, EmbedConfig(**sgns))
    table = SkipGramTable(trained.target, trained.context, trained.dim, nll.WINDOW, vocab.digest())
    scores, total = attach_nll_cache(store, table, nll.WINDOW)
    candidates = [t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])]
    losses = ablation_losses(candidates, scores, index, table, cv, nll.WINDOW)
    assert shape["sentences"] == len(store) and shape["tokens"] == store.total_tokens()
    assert ablation["digest"] == nll._digest(scores, np.array([r.loss for r in losses]))
    assert attach["digest"] == nll._digest(scores, np.array([total]))
    counts = np.bincount(store.flat, minlength=len(vocab))
    frequent = max(candidates, key=lambda t: counts[t])
    assert top["top_token"] == vocab.tokens[frequent]
    assert top["digest"] == nll._digest(scores, np.array([losses[candidates.index(frequent)].loss]))
    assert ablation["seconds"] > 0 and attach["repeat_seconds"] > 0 and top["top_scoring_peak_mb"] > 0


def test_ablation_child_runs_the_sage_workload(tmp_path, monkeypatch):
    ablation = _script("ablation", monkeypatch)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    wl = workloads.build("sage")
    for spec in wl.corpora:
        lines = generate_corpus(spec.lines, seed=spec.seed(7), n_stems=spec.n_stems)
        (tmp_path / f"{spec.role}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "out").mkdir()
    digest = hashlib.sha256()
    for name, op in zip(ablation.COMMANDS, wl.ops):
        events = tmp_path / "out" / f"{name}.events.jsonl"
        assert cli.main(op.args(str(tmp_path)) + ["--events-out", str(events)]) == 0
        digest.update((tmp_path / "out" / op.param("vocab")).read_bytes() + events.read_bytes())

    # the child wraps these by module attribute; the monkeypatch puts them back
    for name in ("ablation_losses", "save_checkpoint", "prune_iteration"):
        monkeypatch.setattr(sage, name, getattr(sage, name))
    monkeypatch.setattr(encoder, "compile", encoder.compile)
    got = ablation._child(SRC, "7")
    assert got["digest"] == digest.hexdigest()
    prune = got["prune"]
    assert prune["ranked"] == prune["scored"] + prune["reused"] and prune["scored"] > 0
    assert prune["checkpoints"] > 0 and prune["checkpoint_bytes"] > 0 and got["peak_rss_mb"] > 0


def test_compare_loop_records_a_bpe_case(tmp_path, monkeypatch):
    bpe = _script("bpe", monkeypatch)
    # this checkout on both sides: no export, and no git history read
    monkeypatch.setattr(bpe.common, "export", lambda rev, dest: Path(SRC))
    monkeypatch.setattr(bpe.common, "git", lambda *args: "")
    out = tmp_path / "BENCH_bpe.json"
    assert bpe.main(["--cases", "1.2k", "--repeats", "1", "--out", str(out)]) == 0

    (case,) = json.loads(out.read_text(encoding="utf-8"))["cases"]
    name, lines, seed, n_stems, target = bpe.CASES[0]
    vocab, merges = train_bpe(RawCorpus.from_lines(generate_corpus(lines, seed=seed, n_stems=n_stems)), target)
    assert case["name"] == name and case["identical_output"] is True
    for side in ("base", "change"):
        summary = case[side]
        assert summary["digest"] == _bpe_digest(vocab, merges)
        assert summary["merges_median"] == len(merges) and summary["heap_pops_median"] > 0
        assert summary["kernel"] == ("python" if bpe_kernel() is None else "compiled")
        assert summary["seconds"] == [summary["seconds_median"]] and summary["peak_rss_mb_max"] > 0
    assert case["speedup"] > 0


def test_summary_rule(monkeypatch):
    common = _script("bpe", monkeypatch).common
    runs = [
        {"seconds": s, "merges_per_s": 10 / s, "calls": 4, "token": "a", "peak_rss_mb": m,
         "scoring_peak_mb": m / 2, "embed": {"ablation_s": s / 2, "ranked": 3}, "digest": "d"}
        for s, m in ((1.0, 30.0), (4.0, 20.0), (2.0, 10.0))
    ]
    assert common.summary(runs) == {
        "seconds_median": 2.0, "seconds": [1.0, 4.0, 2.0], "merges_per_s_median": 5.0, "calls_median": 4,
        "token": "a", "peak_rss_mb_max": 30.0, "scoring_peak_mb_max": 15.0,
        "embed": {"ablation_s_median": 1.0, "ablation_s": [0.5, 2.0, 1.0], "ranked_median": 3}, "digest": "d",
    }
    runs[1]["token"] = "b"
    assert common.summary(runs)["token"] == ["a", "b", "a"]
    runs[1]["digest"] = "e"
    with pytest.raises(SystemExit, match="disagree"):
        common.summary(runs)
