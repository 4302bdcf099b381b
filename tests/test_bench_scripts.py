"""The ``bench/`` scripts still run against this checkout.

Each script builds its inputs in the parent process and measures in a
child that imports the library of one side; a library change that breaks
either half shows only when someone runs the script. These tests build
the inputs of one small case of each script and run its child in-process,
against this checkout's ``src/``, and hold the child's output digest to
the same computation made directly.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from sagetok import encoder
from sagetok.bpe import train_bpe
from sagetok.corpus import RawCorpus, build_index
from sagetok.embeddings import EmbedConfig, SkipGramTable, train_embeddings
from sagetok.objective import ablation_losses, attach_nll_cache
from sagetok.vocab import is_protected

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
    """The case's corpus (as the script builds it), BPE vocabulary and remaining fields."""
    _, lines, seed, n_stems, alpha, size, config = next(c for c in module.CASES if c[0] == name)
    corpus = RawCorpus.from_lines(generate_corpus(lines, seed=seed, n_stems=n_stems, zipf_alpha=alpha))
    vocab, _ = train_bpe(corpus, size)
    return (lines, seed, n_stems, alpha, size, config), corpus, vocab


def test_sgns_child_trains_on_the_saved_lines(tmp_path, monkeypatch):
    sgns = _script("sgns", monkeypatch)
    (lines, seed, n_stems, alpha, size, cfg), corpus, vocab = _case(sgns, "sage-embed")
    inputs = tmp_path / "sage-embed.npz"
    shape = sgns._build_store(inputs, lines, seed, n_stems, alpha, size)
    got = sgns._child(SRC, str(inputs), json.dumps(cfg))

    store = encoder.encode_corpus(corpus, encoder.compile(vocab))
    table = train_embeddings(store, vocab, EmbedConfig(**cfg))
    assert shape["vocab"] == len(vocab) and shape["tokens"] == store.total_tokens()
    assert got["digest"] == hashlib.sha256(table.target.tobytes() + table.context.tobytes()).hexdigest()
    assert got["seconds"] > 0 and got["peak_rss_mb"] > 0


def test_nll_children_score_the_saved_lines(tmp_path, monkeypatch):
    nll = _script("nll", monkeypatch)
    (lines, seed, n_stems, alpha, size, sgns), corpus, vocab = _case(nll, "sage-ablation")
    inputs = tmp_path / "sage-ablation.npz"
    shape = nll._build_inputs(inputs, lines, seed, n_stems, alpha, size, sgns)
    ablation = nll._child(SRC, "ablation", str(inputs))
    # the attach and top children read the same inputs, so this case covers them too
    attach = nll._child(SRC, "attach", str(inputs))
    top = nll._child(SRC, "top", str(inputs))

    cv = encoder.compile(vocab)
    index = build_index(corpus, cv)
    store = index.store(vocab.digest())
    trained = train_embeddings(store, vocab, EmbedConfig(**sgns))
    table = SkipGramTable(trained.target, trained.context, trained.dim, nll.WINDOW, vocab.digest())
    scores, total = attach_nll_cache(store, table, nll.WINDOW)
    candidates = [t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])]
    losses = ablation_losses(candidates, scores, index, vocab, table, cv, nll.WINDOW)
    assert shape["sentences"] == len(store) and shape["tokens"] == store.total_tokens()
    assert ablation["digest"] == nll._digest(scores, np.array([r.loss for r in losses]))
    assert attach["digest"] == nll._digest(scores, np.array([total]))
    counts = np.bincount(store.flat, minlength=len(vocab))
    frequent = max(candidates, key=lambda t: counts[t])
    assert top["top_token"] == vocab.tokens[frequent]
    assert top["digest"] == nll._digest(scores, np.array([losses[candidates.index(frequent)].loss]))
    assert ablation["seconds"] > 0 and attach["repeat_seconds"] > 0 and top["top_scoring_peak_mb"] > 0
