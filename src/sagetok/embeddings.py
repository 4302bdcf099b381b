"""Skipgram-with-negative-sampling embedding training over token ids.

Training is deterministic given the config seed: pairs are processed in
corpus order grouped by window offset, negatives come from one seeded
stream, and updates are applied in mini-batches with a fixed reduction
order. Randomness is keyed to token *strings*, not ids (row
initialization and the noise distribution use a canonical string order),
so relabeling ids and permuting rows commute with training. Row sums
use one weighted ``np.bincount`` per column, which adds in batch order at
double precision like ``np.unique`` + ``np.add.at`` (the test oracle) but
without the sort, so the tables stay bit-identical to that plain form.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .corpus import SentenceStore, window_offsets
from .errors import ConfigError, DataError, VocabError
from .vocab import Vocabulary

_NOISE_POWER = 0.75
_MAX_EXP = 6.0


@dataclass(frozen=True)
class EmbedConfig:
    dim: int = 50
    window: int = 5
    negatives: int = 15
    epochs: int = 5
    lr_initial: float = 0.025
    lr_final: float = 1e-4
    seed: int = 1
    batch_pairs: int = 1024
    clip_row: float = 0.1

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError("embedding dim must be >= 1")
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.negatives < 0:
            raise ConfigError("negative sample count must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_pairs < 1:
            raise ConfigError("batch_pairs must be >= 1")
        if self.clip_row <= 0:
            raise ConfigError("clip_row must be positive")


@dataclass
class SkipGramTable:
    """Target and context embedding matrices, one row per vocabulary id."""

    target: np.ndarray
    context: np.ndarray
    dim: int
    window: int
    vocab_digest: str = ""

    def rows(self) -> int:
        return self.target.shape[0]


def _token_seed(seed: int, token: str) -> int:
    h = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=str(seed).encode())
    return int.from_bytes(h.digest(), "little")


def init_tables(vocab: Vocabulary, cfg: EmbedConfig) -> SkipGramTable:
    """Seeded initialization: target rows uniform in [-0.5/dim, 0.5/dim],
    context rows all zero.

    Each row is drawn from a generator keyed by (seed, token string), so
    a token's starting point does not depend on its id.
    """
    cfg.validate()
    n = len(vocab)
    bound = 0.5 / cfg.dim
    target = np.empty((n, cfg.dim), dtype=np.float64)
    for i, token in enumerate(vocab.tokens):
        rng = np.random.Generator(np.random.PCG64(_token_seed(cfg.seed, token)))
        target[i] = rng.uniform(-bound, bound, cfg.dim)
    context = np.zeros((n, cfg.dim), dtype=np.float64)
    return SkipGramTable(target, context, cfg.dim, cfg.window, vocab.digest())


def _apply_clipped(matrix: np.ndarray, ids: np.ndarray, grads: np.ndarray, clip: float) -> None:
    """Sum per-row gradients for the batch, clip each row's total update
    norm, and apply.

    Sequential reference updates are self-limiting; summed stale-row
    updates are not, so rows hit many times in one batch need the cap.
    """
    rows = matrix.shape[0]
    touched = np.flatnonzero(np.bincount(ids, minlength=rows))
    buf = np.empty((len(touched), grads.shape[1]))
    for j in range(grads.shape[1]):
        buf[:, j] = np.bincount(ids, weights=grads[:, j], minlength=rows)[touched]
    norms = np.sqrt(np.einsum("ij,ij->i", buf, buf))
    np.clip(norms / clip, 1.0, None, out=norms)
    matrix[touched] += buf / norms[:, None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _pair_arrays(store: SentenceStore, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, contexts) id arrays for every in-window ordered pair.

    Grouped by offset, forward then backward pairs; order depends only
    on token positions, never on id numbering.
    """
    lengths = [len(a) for a in store.ids]
    flat = (
        np.concatenate(store.ids).astype(np.int64)
        if store.ids
        else np.zeros(0, dtype=np.int64)
    )
    sent_of = np.repeat(np.arange(len(lengths)), lengths)
    t_parts: list[np.ndarray] = []
    c_parts: list[np.ndarray] = []
    for delta, same in window_offsets(sent_of, window):
        left = flat[:-delta][same]
        right = flat[delta:][same]
        t_parts.extend((left, right))
        c_parts.extend((right, left))
    if not t_parts:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(t_parts), np.concatenate(c_parts)


def _noise_cdf(store: SentenceStore, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Unigram^0.75 noise distribution in canonical (string-sorted) order."""
    counts = np.bincount(np.concatenate(store.ids), minlength=len(vocab))[: len(vocab)]
    counts = counts.astype(np.float64)
    canon = np.argsort(np.asarray(vocab.tokens, dtype=object))
    weights = counts[canon] ** _NOISE_POWER
    total = weights.sum()
    if total <= 0:
        raise DataError("cannot build a noise distribution over an empty store")
    return np.cumsum(weights / total), canon.astype(np.int64)


def train_embeddings(store: SentenceStore, vocab: Vocabulary, cfg: EmbedConfig) -> SkipGramTable:
    """Train target/context tables by SGNS over the tokenized store.

    For each in-window ordered pair, ascends the log-sigmoid of the
    positive dot product and descends on ``cfg.negatives`` ids sampled
    from the unigram^0.75 noise distribution. The learning rate decays
    linearly from ``lr_initial`` to ``lr_final`` over all updates.
    With ``epochs == 0`` the initialization is returned unchanged.
    """
    cfg.validate()
    if len(store) == 0 or store.total_tokens() == 0:
        raise DataError("cannot train embeddings on an empty store")
    table = init_tables(vocab, cfg)
    if cfg.epochs == 0:
        return table
    targets, contexts = _pair_arrays(store, cfg.window)
    n_pairs = len(targets)
    if n_pairs == 0:
        return table
    cdf, canon = _noise_cdf(store, vocab)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    total_updates = n_pairs * cfg.epochs
    tgt, ctx = table.target, table.context
    k = cfg.negatives
    # context-side gradients of a batch: b positive rows, then b*k negative
    ctx_grads_buf = np.empty((cfg.batch_pairs * (1 + k), cfg.dim))
    done = 0
    for _epoch in range(cfg.epochs):
        for start in range(0, n_pairs, cfg.batch_pairs):
            t_ids = targets[start : start + cfg.batch_pairs]
            c_ids = contexts[start : start + cfg.batch_pairs]
            b = len(t_ids)
            lr = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * (
                (done + np.arange(b)) / max(total_updates - 1, 1)
            )
            done += b
            ctx_grads = ctx_grads_buf[: b * (1 + k)]

            t_rows = tgt[t_ids]
            c_rows = ctx[c_ids]
            dots = np.clip(np.einsum("ij,ij->i", t_rows, c_rows), -_MAX_EXP, _MAX_EXP)
            g_pos = (1.0 - _sigmoid(dots)) * lr
            grad_t = g_pos[:, None] * c_rows
            ctx_ids = c_ids
            np.multiply(g_pos[:, None], t_rows, out=ctx_grads[:b])
            if k > 0:
                u = rng.random((b, k))
                n_ids = canon[np.minimum(np.searchsorted(cdf, u), len(canon) - 1)]
                n_rows = ctx[n_ids]
                neg_dots = np.clip(np.einsum("ij,ikj->ik", t_rows, n_rows), -_MAX_EXP, _MAX_EXP)
                g_neg = -_sigmoid(neg_dots) * lr[:, None]
                grad_t += np.einsum("ik,ikj->ij", g_neg, n_rows)
                ctx_ids = np.concatenate([c_ids, n_ids.ravel()])
                np.multiply(
                    g_neg[:, :, None], t_rows[:, None, :], out=ctx_grads[b:].reshape(b, k, cfg.dim)
                )
            _apply_clipped(tgt, t_ids, grad_t, cfg.clip_row)
            _apply_clipped(ctx, ctx_ids, ctx_grads, cfg.clip_row)
    if not (np.isfinite(tgt).all() and np.isfinite(ctx).all()):
        raise VocabError("embedding training diverged to non-finite values")
    return table
