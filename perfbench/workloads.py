"""The benchmark's workloads: seeded corpora and the CLI commands run on them.

Every workload is a closed loop with one client: a pass runs its commands
one after another, serially (the CLI default ``--threads 1``), and the next
pass starts after the previous one ends. Sizes are scaled from the
paper-style runs so that one pass takes a few seconds on a 2-core machine
and several passes fit in one measured run; the layer split each workload
exists for still holds at these sizes.

* ``sage``: two ``train-sage`` commands and a resume. In the first, on
  60 lines with one in-loop retrain and its full-store ``corpus_nll`` pass,
  skipgram (SGNS) training is about 70% and ablation scoring about a
  quarter. In the second, 30 iterations on 250 lines that each re-tokenize
  the corpus, recompile the trie and may write a checkpoint, ablation
  scoring is about 60% and SGNS under a fifth. Then a ``--resume`` from
  the final checkpoint.
* ``baselines``: BPE, unigram pruning, two encodes and an analyze; no SGNS
  and no ablation, so SaGe-layer changes should leave it unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 0
# Corpora for the generator drift guard are compared on this many leading
# lines at the default seed (the generator emits lines in order, so a
# prefix does not depend on the requested line count).
PROBE_LINES = 200


@dataclass(frozen=True)
class CorpusSpec:
    role: str            # file name stem under the work directory
    lines: int
    n_stems: int = 1500
    seed_offset: int = 0  # keeps a held-out corpus apart from the training one

    def seed(self, seed: int) -> int:
        return seed * 1000 + self.seed_offset


@dataclass(frozen=True)
class Op:
    """One CLI command; ``kind`` selects its output checks."""

    kind: str                 # train-sage, resume, train-bpe, train-unigram, encode, analyze
    argv: tuple[str, ...]     # '{w}' stands for the work directory
    params: tuple[tuple[str, object], ...] = ()

    def param(self, key: str):
        return dict(self.params)[key]

    def args(self, work: str) -> list[str]:
        return [a.replace("{w}", work) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: tuple[CorpusSpec, ...]
    ops: tuple[Op, ...]


def _sage(tiny: bool) -> Workload:
    """Two train-sage commands and a resume. The first, on a small corpus
    with one in-loop retrain, spends most of its time in SGNS training; the
    second, 30 small iterations with checkpoints, in ablation scoring."""
    e_lines, e_vocab, e_batch, e_pool = (40, 120, 10, 60) if tiny else (60, 200, 10, 150)
    p_lines, p_vocab, every = (60, 160, 4) if tiny else (250, 600, 10)
    embed = (
        "train-sage", "--corpus", "{w}/embed.txt", "--out", "{w}/out/embed.vocab",
        "--vocab-size", str(e_vocab), "--prune-batch", str(e_batch), "--candidate-pool", str(e_pool),
        "--recalc-every", "1", "--embed-every", "3", "--epochs", "2", "--quiet",
    )
    common = (
        "--corpus", "{w}/prune.txt", "--vocab-size", str(p_vocab), "--prune-batch", "5",
        "--candidate-pool", "75", "--epochs", "1", "--embed-window", "2", "--quiet",
    )
    # The checkpoint uses the documented run.ckpt.npz form. A name without
    # the .npz suffix is a known defect (numpy appends the suffix, so
    # --resume cannot find the file); it has its own fix and is not tested here.
    prune = ("train-sage", "--out", "{w}/out/prune.vocab") + common + (
        "--checkpoint", "{w}/out/run.ckpt.npz", "--checkpoint-every", str(every),
    )
    resume = ("train-sage", "--out", "{w}/out/resumed.vocab") + common + (
        "--resume", "{w}/out/run.ckpt.npz",
    )
    return Workload(
        "sage",
        (CorpusSpec("embed", e_lines), CorpusSpec("prune", p_lines, seed_offset=1)),
        (
            Op("train-sage", embed, (("vocab", "embed.vocab"), ("target", e_vocab), ("corpus", "embed"))),
            Op("train-sage", prune, (("vocab", "prune.vocab"), ("target", p_vocab), ("corpus", "prune"))),
            Op("resume", resume, (("vocab", "resumed.vocab"), ("of", "prune.vocab"))),
        ),
    )


def _baselines(tiny: bool) -> Workload:
    bpe_lines, bpe_vocab = (100, 200) if tiny else (1200, 1600)
    uni_lines, uni_vocab = (40, 200) if tiny else (180, 1000)
    held_lines = 100 if tiny else 2500
    return Workload(
        "baselines",
        (
            CorpusSpec("bpe", bpe_lines, n_stems=4000),
            CorpusSpec("unigram", uni_lines, seed_offset=1),
            CorpusSpec("heldout", held_lines, n_stems=4000, seed_offset=2),
        ),
        (
            Op(
                "train-bpe",
                ("train-bpe", "--corpus", "{w}/bpe.txt", "--vocab-size", str(bpe_vocab),
                 "--out", "{w}/out/bpe.vocab"),
                (("vocab", "bpe.vocab"), ("target", bpe_vocab), ("corpus", "bpe")),
            ),
            Op(
                "train-unigram",
                ("train-unigram", "--corpus", "{w}/unigram.txt", "--vocab-size", str(uni_vocab),
                 "--prune-batch", str(uni_vocab), "--out", "{w}/out/unigram.vocab"),
                (("vocab", "unigram.vocab"), ("target", uni_vocab), ("corpus", "unigram")),
            ),
            Op(
                "encode",
                ("encode", "--vocab", "{w}/out/bpe.vocab", "--in", "{w}/heldout.txt",
                 "--out", "{w}/out/bpe.enc", "--format", "tokens"),
                (("vocab", "bpe.vocab"), ("out", "bpe.enc"), ("corpus", "heldout")),
            ),
            Op(
                "encode",
                ("encode", "--vocab", "{w}/out/unigram.vocab", "--in", "{w}/heldout.txt",
                 "--out", "{w}/out/unigram.enc", "--format", "tokens"),
                (("vocab", "unigram.vocab"), ("out", "unigram.enc"), ("corpus", "heldout")),
            ),
            Op(
                "analyze",
                ("analyze", "--vocab", "{w}/out/bpe.vocab", "--corpus", "{w}/heldout.txt",
                 "--outdir", "{w}/out/analysis"),
                (("vocab", "bpe.vocab"), ("outdir", "analysis"), ("corpus", "heldout"),
                 ("encoded", "bpe.enc")),
            ),
        ),
    )


_FACTORIES = {"sage": _sage, "baselines": _baselines}
NAMES = tuple(_FACTORIES)


def build(name: str, tiny: bool = False) -> Workload:
    return _FACTORIES[name](tiny)


def sage_initial_size(target: int, overshoot: float = 1.25) -> int:
    """Base vocabulary size train-sage asks of BPE (the CLI default overshoot)."""
    return math.ceil(overshoot * target)
