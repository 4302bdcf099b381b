"""Context-aware vocabulary pruning driven by the skipgram objective.

The trainer overshoots the target vocabulary size with a base trainer
(BPE by default), trains embedding tables over the tokenized corpus,
then iteratively removes the batch of tokens whose ablation least hurts
the corpus skipgram likelihood. Heavy steps are amortized: full loss
recalculation happens every ``recalc_period`` iterations (candidates in
between come from a cached bottom set), and embeddings are retrained
every ``embed_period`` full-recalculation cycles. Only the loss differs
from unigram pruning: both take their candidates from ``corpus.prunable``
(never a protected token) and prune in ``corpus.prune_order``. One
word-type index (``corpus.WordIndex``) carries the
segmentation and one array the NLL of each sentence: a candidate is
scored by re-segmenting only the word types that hold it, and a prune
re-segments those types and rescores only the sentences holding them.
The whole corpus is gathered as flat ids (a ``SentenceStore``) only to
train embeddings and refill the array. Every pruning decision is
appended to a replayable event log, and a checkpoint resumes the loop
exactly.

Ablation losses are reused, bit for bit, while nothing they depend on
has changed. ``PruneState.scored`` keeps, for each candidate scored under
the current table, its loss and the tokens its banned segmentation used.
A candidate is scored again only when it has no entry. After a prune,
the entries of every token found in a rescored sentence (before or after
re-segmentation), of every candidate whose banned segmentation used a
pruned token, and of the pruned tokens are dropped; a retrain drops them
all. Any other candidate's sentences, their NLL entries and its banned
segmentation are unchanged (greedy matching never picks a token it did
not pick before when others are removed), so its loss is too. The entries
are not checkpointed: a resumed run scores afresh and gets the same bits.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .bpe import train_bpe
from .corpus import RawCorpus, WordIndex, build_index, prunable, prune_order, retokenize_sentences
from .embeddings import EmbedConfig, SkipGramTable, train_embeddings
from .errors import ConfigError, DataError, VocabError
# ablation_loss is re-exported only for perfbench/test_perfbench.py, which
# looks it up here; it goes when perfbench's hooks move to ablation_losses
from .objective import ablation_loss, ablation_losses, attach_nll_cache, corpus_nll  # noqa: F401
from .unigram import MAX_LEN, MIN_COUNT, train_unigram
from .vocab import Vocabulary, check_target, is_protected, load_vocab

BASE_TRAINERS = ("bpe", "unigram", "file")


@dataclass(frozen=True)
class SageConfig:
    """All pruning-loop hyperparameters.

    ``window`` scopes the scoring objective; embedding training has its
    own window inside ``embed``.
    """

    final_size: int
    overshoot: float = 1.25
    prune_batch: int = 100
    recalc_period: int = 10
    candidate_pool: int = 1500
    embed_period: int = 4
    window: int = 5
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    base_trainer: str = "bpe"
    initial_vocab_path: str | None = None
    unigram_max_len: int = MAX_LEN
    unigram_min_count: int = MIN_COUNT

    def initial_size(self) -> int:
        return math.ceil(self.overshoot * self.final_size)

    def validate(self) -> None:
        """Raise one ConfigError listing every problem, before any work starts."""
        problems = []
        if self.final_size < 1:
            problems.append("final vocabulary size must be >= 1")
        if self.prune_batch < 1:
            problems.append("prune batch must be >= 1")
        if self.recalc_period < 1:
            problems.append("loss recalculation period must be >= 1")
        if self.embed_period < 1:
            problems.append("embedding recalculation period must be >= 1")
        if self.candidate_pool < self.prune_batch:
            problems.append("candidate pool must be at least the prune batch size")
        if self.window < 1:
            problems.append("window must be >= 1")
        if self.base_trainer not in BASE_TRAINERS:
            problems.append(f"unknown base trainer {self.base_trainer!r}")
        if self.base_trainer == "file" and not self.initial_vocab_path:
            problems.append("base trainer 'file' requires initial_vocab_path")
        if self.unigram_max_len < 1:
            problems.append("unigram_max_len must be >= 1")
        if self.unigram_min_count < 1:
            problems.append("unigram_min_count must be >= 1")
        if self.final_size > sys.float_info.max:
            # compared as ints: the float products below would overflow
            problems.append("final vocabulary size is too large")
        elif not math.isfinite(self.overshoot * self.final_size):
            problems.append("overshoot must be finite")
        elif (
            self.base_trainer != "file"
            and self.final_size >= 1
            and self.initial_size() <= self.final_size
        ):
            problems.append("overshoot must make the initial vocabulary larger than the target")
        try:
            self.embed.validate()
        except ConfigError as exc:
            problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(problems))

    def digest(self) -> str:
        import hashlib

        payload = dataclasses.asdict(self)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class PruneState:
    """Everything the pruning loop mutates, plus its replayable event log."""

    cv: encoder.CompiledVocab
    index: WordIndex
    nll: np.ndarray
    table: SkipGramTable
    total_nll: float
    iteration: int = 0
    # the bottom set: token -> ablation loss, in prune order
    bottom: dict[int, float] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)
    # candidate -> (loss under the current table, tokens its banned
    # segmentation used); see the module docstring for when entries go
    scored: dict[int, tuple[float, frozenset[int]]] = field(default_factory=dict)

    @property
    def vocab(self) -> Vocabulary:
        return self.cv.vocab

    def alive_size(self) -> int:
        return len(self.cv.active)

    def alive_vocabulary(self) -> Vocabulary:
        return self.vocab.subset(self.cv.active.values())


def _train_base(corpus: RawCorpus, cfg: SageConfig) -> Vocabulary:
    size = cfg.initial_size()
    if cfg.base_trainer == "bpe":
        vocab, _ = train_bpe(corpus, size)
    elif cfg.base_trainer == "unigram":
        vocab = train_unigram(
            corpus,
            size,
            prune_batch=cfg.prune_batch,
            max_len=cfg.unigram_max_len,
            min_count=cfg.unigram_min_count,
        )
    else:
        vocab, _ = load_vocab(cfg.initial_vocab_path)
        _check_encodable(corpus, vocab)
    if len(vocab) < cfg.final_size:
        raise DataError(
            f"base vocabulary has {len(vocab)} tokens, below the target {cfg.final_size}"
        )
    return vocab


def _check_encodable(corpus: RawCorpus, vocab: Vocabulary) -> None:
    """Raise DataError naming the corpus characters that the protected
    tokens of ``vocab`` cannot encode. Pruning never removes those tokens,
    so a corpus they encode without UNK stays encodable at every step."""
    protected = [i for i, t in enumerate(vocab.tokens) if is_protected(t)]
    cv = encoder.compile(vocab, protected)
    index = build_index(corpus, cv)
    missing = sorted({ch for w, seg in zip(index.types, index.segs) for ch in cv.unk_chars(w, seg)})
    if missing:
        raise DataError(
            "initial vocabulary lacks corpus characters: " + " ".join(map(repr, missing))
        )


def init_state(corpus: RawCorpus, cfg: SageConfig) -> PruneState:
    """Base vocabulary, index, initial embeddings and per-sentence NLL."""
    cfg.validate()
    if len(corpus) == 0:
        raise DataError("cannot train on an empty corpus")
    vocab = _train_base(corpus, cfg)
    check_target(vocab, cfg.final_size)
    return _encoded_state(corpus, cfg, vocab, set(range(len(vocab))))


def _encoded_state(
    corpus: RawCorpus, cfg: SageConfig, vocab: Vocabulary, alive: set[int], table=None
) -> PruneState:
    """Loop state at a pruning boundary: the corpus segmented under the
    ``alive`` tokens and its per-sentence NLL under ``table`` (trained
    afresh when not given)."""
    cv = encoder.compile(vocab, alive)
    index = build_index(corpus, cv)
    store = index.store(vocab.digest())
    if table is None:
        table = train_embeddings(store, vocab, cfg.embed)
    nll, total_nll = attach_nll_cache(store, table, cfg.window)
    return PruneState(cv, index, nll, table, total_nll)


def prune_iteration(state: PruneState, cfg: SageConfig) -> PruneState:
    """One pass of the pruning loop; appends one event and advances i."""
    if state.alive_size() <= cfg.final_size:
        raise VocabError("vocabulary already at (or below) the target size")

    cycle = cfg.embed_period * cfg.recalc_period
    retrained = False
    if state.iteration % cycle == 0 and state.iteration > 0:
        embed_cfg = dataclasses.replace(cfg.embed, seed=cfg.embed.seed + state.iteration)
        store = state.index.store(state.vocab.digest())
        state.table = train_embeddings(store, state.vocab, embed_cfg)
        state.total_nll = corpus_nll(store, state.table, cfg.window, state.nll)
        state.scored.clear()
        retrained = True

    need = min(cfg.prune_batch, state.alive_size() - cfg.final_size)
    full = state.iteration % cfg.recalc_period == 0
    forced = False
    if not full and len(state.bottom) < need:
        full = True
        forced = True

    candidates = prunable(state.cv) if full else list(state.bottom)
    todo = [t for t in candidates if t not in state.scored]
    for r in ablation_losses(todo, state.nll, state.index, state.table, state.cv, cfg.window):
        state.scored[r.token_id] = (r.loss, r.uses)
    losses = {t: state.scored[t][0] for t in candidates}

    # between full recalculations the bottom set is within the pool
    ranked = prune_order(losses, state.index, state.cv)[: cfg.candidate_pool]
    pruned_list = ranked[:need]
    pruned = set(pruned_list)
    state.bottom = {t: losses[t] for t in ranked[need:]}

    delta, touched = retokenize_sentences(state.nll, state.index, pruned, state.cv, state.table, cfg.window)
    state.total_nll += delta
    stale = pruned.union(touched.tolist())
    state.scored = {
        t: entry for t, entry in state.scored.items() if t not in stale and entry[1].isdisjoint(pruned)
    }

    state.events.append(
        {
            "iteration": state.iteration,
            "pruned": [
                {"id": int(t), "token": state.vocab.tokens[t], "loss": float(losses[t])}
                for t in pruned_list
            ],
            "vocab_size": state.alive_size(),
            "total_nll": float(state.total_nll),
            "full_recalc": bool(full),
            "forced_recalc": bool(forced),
            "embeddings_retrained": bool(retrained),
            "loss_evals": len(candidates),
        }
    )
    state.iteration += 1
    return state


def train_sage(
    corpus: RawCorpus,
    cfg: SageConfig,
    checkpoint_path=None,
    checkpoint_every: int | None = None,
    resume_path=None,
    progress=None,
) -> tuple[Vocabulary, list[dict]]:
    """Run the full pruning loop down to exactly ``final_size`` tokens.

    Returns the final vocabulary (initial order preserved) and the event
    log. ``checkpoint_path``/``checkpoint_every`` write resumable
    snapshots at iteration boundaries, and one of the final state unless
    the last iteration has just written it; ``resume_path`` continues one.
    """
    if resume_path is not None:
        state = load_checkpoint(resume_path, corpus, cfg)
    else:
        state = init_state(corpus, cfg)
    saved_at = None
    while state.alive_size() > cfg.final_size:
        prune_iteration(state, cfg)
        if progress is not None:
            progress(state.events[-1])
        if checkpoint_path is not None and checkpoint_every:
            if state.iteration % checkpoint_every == 0:
                save_checkpoint(state, cfg, corpus, checkpoint_path)
                saved_at = state.iteration
    if checkpoint_path is not None and saved_at != state.iteration:
        save_checkpoint(state, cfg, corpus, checkpoint_path)
    return state.alive_vocabulary(), state.events


def save_events(events: list[dict], path, meta: dict | None = None) -> None:
    """Event log as JSON lines; the first record carries run metadata."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"meta": meta or {}}) + "\n")
        for event in events:
            f.write(json.dumps(event) + "\n")


def save_checkpoint(state: PruneState, cfg: SageConfig, corpus: RawCorpus, path) -> None:
    """Resumable snapshot at an iteration boundary, written to exactly
    ``path``: into a temporary file beside it, then renamed into place,
    so a reader never sees a partial file. A failed write is a DataError.

    Neither the segmentation, the per-sentence NLL nor the reusable
    ablation losses are serialized: resuming re-segments the corpus under
    the alive vocabulary, which reproduces the index exactly, recomputes
    the NLL array from the dumped tables bit-for-bit and scores candidates
    afresh; ``total_nll`` is restored as saved. The archive is stored
    uncompressed (float64 tables shrink little under zlib, and compressing
    cost more than writing); :func:`load_checkpoint` reads either form.
    """
    arrays = dict(
        tokens=np.frombuffer(
            json.dumps(list(state.vocab.tokens)).encode("utf-8"), dtype=np.uint8
        ),
        provenance=np.frombuffer(
            json.dumps(list(state.vocab.provenance)).encode("utf-8"), dtype=np.uint8
        ),
        alive=np.asarray(sorted(state.cv.active.values()), dtype=np.int64),
        iteration=np.asarray([state.iteration], dtype=np.int64),
        target=state.table.target,
        context=state.table.context,
        window=np.asarray([state.table.window], dtype=np.int64),
        bottom=np.asarray(list(state.bottom), dtype=np.int64),
        bottom_losses=np.asarray(list(state.bottom.values())),
        events=np.frombuffer(json.dumps(state.events).encode("utf-8"), dtype=np.uint8),
        total_nll=np.asarray([state.total_nll]),
        config_digest=np.frombuffer(cfg.digest().encode("utf-8"), dtype=np.uint8),
        corpus_digest=np.frombuffer(corpus.digest().encode("utf-8"), dtype=np.uint8),
        # no longer read on resume; written as before so the archive does not change
        embeddings_fresh=np.asarray([state.iteration == 0]),
    )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_checkpoint(path, corpus: RawCorpus, cfg: SageConfig) -> PruneState:
    """Resume a snapshot written by :func:`save_checkpoint`.

    A missing, truncated, non-checkpoint or incomplete file is a
    DataError; one written under another configuration is a ConfigError.
    """
    cfg.validate()
    try:
        with np.load(path) as z:
            if bytes(z["config_digest"]).decode() != cfg.digest():
                raise ConfigError("checkpoint was written under a different configuration")
            if bytes(z["corpus_digest"]).decode() != corpus.digest():
                raise DataError("checkpoint was written for a different corpus")
            vocab = Vocabulary(
                json.loads(bytes(z["tokens"]).decode("utf-8")),
                json.loads(bytes(z["provenance"]).decode("utf-8")),
            )
            alive = set(int(t) for t in z["alive"])
            table = SkipGramTable(
                z["target"].copy(), z["context"].copy(), z["target"].shape[1],
                int(z["window"][0]), vocab.digest(),
            )
            bottom = [int(t) for t in z["bottom"]]
            if (not set(bottom) <= alive <= set(range(len(vocab))) or table.rows() != len(vocab)
                    or table.context.shape != table.target.shape):
                raise DataError(f"checkpoint {path} does not match its own vocabulary")
            saved = dict(
                iteration=int(z["iteration"][0]),
                bottom=dict(zip(bottom, (float(x) for x in z["bottom_losses"]), strict=True)),
                events=json.loads(bytes(z["events"]).decode("utf-8")),
                total_nll=float(z["total_nll"][0]),
            )
    except (OSError, EOFError, ValueError, KeyError, IndexError, TypeError,
            zipfile.BadZipFile, zlib.error, VocabError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    state = _encoded_state(corpus, cfg, vocab, alive, table)
    return dataclasses.replace(state, **saved)
