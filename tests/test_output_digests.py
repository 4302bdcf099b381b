"""CLI outputs pinned to recorded sha256 digests.

A refactor that must keep every output byte-identical is checked here
instead of by hand with ``cmp``: each case runs small seeded commands
in-process and compares the digest of every output file with the one
recorded before the refactor. A checkpoint is a zip archive whose bytes
also hold each member's write time (and, for checkpoints written
compressed by earlier versions, depend on the zlib build), so its digest
covers the member names and their contents instead.

After an intended output change, print the new digests with

    PYTHONPATH=src python tests/test_output_digests.py

and replace ``DIGESTS`` with them.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import zipfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sagetok import bpe, embeddings, encoder  # noqa: E402
from sagetok.cli import main  # noqa: E402

from textgen import generate_corpus  # noqa: E402

_SMALL_SAGE = [
    "--prune-batch", "5", "--candidate-pool", "20", "--window", "2", "--dim", "8",
    "--embed-window", "3", "--negatives", "3", "--epochs", "1", "--quiet",
]


def _write_corpus(path: Path, n_lines: int, seed: int, n_stems: int = 1500) -> str:
    path.write_text("\n".join(generate_corpus(n_lines, seed=seed, n_stems=n_stems)) + "\n", encoding="utf-8")
    return str(path)


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def _sage_bpe(d: Path) -> list[Path]:
    """BPE base, 275 -> 220 tokens in 11 iterations: an in-loop retrain at
    iteration 6 and checkpoints at 4, 8 and 11."""
    corpus = _write_corpus(d / "c.txt", 300, seed=5)
    _run("train-sage", "--corpus", corpus, "--out", d / "s.vocab", "--vocab-size", 220,
         "--recalc-every", 3, "--embed-every", 2, "--checkpoint", d / "s.ckpt.npz",
         "--checkpoint-every", 4, *_SMALL_SAGE)
    events = (d / "s.vocab.events.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    assert sum(json.loads(e)["embeddings_retrained"] for e in events) == 1
    return [d / "s.vocab", d / "s.vocab.events.jsonl", d / "s.ckpt.npz"]


def _sage_unigram(d: Path) -> list[Path]:
    corpus = _write_corpus(d / "c.txt", 40, seed=21, n_stems=50)
    _run("train-sage", "--corpus", corpus, "--out", d / "u.vocab", "--vocab-size", 100,
         "--overshoot", 1.4, "--base-trainer", "unigram", "--recalc-every", 2,
         "--embed-every", 2, "--checkpoint", d / "u.ckpt.npz", *_SMALL_SAGE)
    return [d / "u.vocab", d / "u.vocab.events.jsonl", d / "u.ckpt.npz"]


def _unigram_probs(d: Path) -> list[Path]:
    corpus = _write_corpus(d / "c.txt", 40, seed=22, n_stems=50)
    _run("train-unigram", "--corpus", corpus, "--out", d / "g.vocab", "--vocab-size", 90,
         "--prune-batch", 8, "--probs-out", d / "g.probs")
    return [d / "g.vocab", d / "g.probs"]


def _encode_analyze(d: Path) -> list[Path]:
    """A BPE vocabulary over a held-out corpus whose first line holds
    characters the vocabulary lacks (UNK emissions)."""
    corpus = _write_corpus(d / "c.txt", 120, seed=23, n_stems=200)
    held = d / "h.txt"
    _write_corpus(held, 150, seed=24, n_stems=300)
    held.write_text("Ωmega ünïcode q!\n" + held.read_text(encoding="utf-8"), encoding="utf-8")
    _run("train-bpe", "--corpus", corpus, "--out", d / "b.vocab", "--vocab-size", 150)
    for fmt in ("tokens", "ids"):
        _run("encode", "--vocab", d / "b.vocab", "--in", held, "--out", d / f"enc.{fmt}", "--format", fmt)
    _run("analyze", "--vocab", d / "b.vocab", "--corpus", held, "--outdir", d / "an", "--window", 3)
    names = ("token_length.csv", "fertility.csv", "token_stats.csv", "summary.json")
    return [d / "b.vocab", d / "enc.tokens", d / "enc.ids", *(d / "an" / n for n in names)]


CASES = {
    "sage-bpe": _sage_bpe,
    "sage-unigram": _sage_unigram,
    "unigram-probs": _unigram_probs,
    "encode-analyze": _encode_analyze,
}

DIGESTS = {
    "encode-analyze": {
        "an/fertility.csv": "6e44be8ce4e06e193ead6f8bb9f2f28503c021cc1302f8c54aba4d11d960bd73",
        "an/summary.json": "cbebcd45accd1cea62aea8947fdb5387c60d863699bcde041ce49e3606507d1a",
        "an/token_length.csv": "40e0fbb58c25ffaf1bcbd7983abfff8adaeb3535eb774d14b20c54c51c80fd25",
        "an/token_stats.csv": "f64a889ee3c9ffa5a0570dd87e27ca9c7d99f7046066f62c0e1655d0049eb6fa",
        "b.vocab": "8f3c59f3114c71ae1061cc705231670306e8ce617211d2e45f41ba09107a2e95",
        "enc.ids": "51b5ca26bb64fecd0b1293bc4cc6a44f0539be88e5a5611533e5e51f12f8e23c",
        "enc.tokens": "edfa50be9193882b3027fc19561a59ccf4578375ab056d1f8c0026e5e5a4c138"
    },
    "sage-bpe": {
        "s.ckpt.npz": "fa488bceeb4f2b73d0eb27d8a3f8a5b390fb6af16ab614e4edf5b18a99793db3",
        "s.vocab": "a852ec09badf087f3c4c99cb1bf8c3284fc9bbbb01833c6d9ee26cb4624fceb2",
        "s.vocab.events.jsonl": "32058637aa4ee9b1166c46862028f63fc032d247284e01c5f236b426d485fe4e"
    },
    "sage-unigram": {
        "u.ckpt.npz": "03c1632f25af9f41baaecd1eda1238bcbcfd6abfaab86ee896d35ca3d822b757",
        "u.vocab": "5a721490d1487143f5194e3e23b5fccca52a2f79b86a3dc828eb21878725f6d6",
        "u.vocab.events.jsonl": "3169ec61c900bf68ea76b95f36047f1a9211ba3cd7de6d241f4abf1c18ba7e72"
    },
    "unigram-probs": {
        "g.probs": "f00b0b74cc2f41d962f81626f30312a0c3152eb5a8722e8248a06aa817b852c3",
        "g.vocab": "1bed64abbcda2f2262c956cd461e07a25fc18311e86a8183af92d0c3f8ce6d06"
    }
}


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with zipfile.ZipFile(path) as z:
            for name in sorted(z.namelist()):
                h.update(name.encode("utf-8") + b"\0")
                h.update(z.read(name))
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def case_digests(name: str, workdir: Path) -> dict[str, str]:
    return {p.relative_to(workdir).as_posix(): _digest(p) for p in CASES[name](workdir)}


_PATHS = [(name, path) for path in ("compiled", "python") for name in sorted(CASES)]


# the compiled cases keep the bare case name as their id
@pytest.mark.parametrize("name, path", _PATHS,
                         ids=[name if path == "compiled" else f"{name}-{path}" for name, path in _PATHS])
def test_outputs_match_recorded_digests(name, path, tmp_path, monkeypatch):
    """Both the compiled kernels and the Python and numpy code that stands
    in for them where they cannot be built give the recorded bytes."""
    modules = (bpe, encoder, embeddings)
    if path == "compiled":
        if any(module._kernel() is None for module in modules):
            pytest.skip("no C compiler: the compiled kernels cannot be built here")
    else:
        for module in modules:
            monkeypatch.setattr(module, "_kernel", lambda: None)
    assert case_digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    recorded = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            recorded[case] = case_digests(case, Path(tmp))
    print(json.dumps(recorded, indent=4, sort_keys=True))
