"""Skipgram-with-negative-sampling embedding training over token ids.

Training reads a ``SentenceStore``'s flat ids and sentence lengths. It
is deterministic given the config seed: pairs are processed in corpus
order grouped by window offset, negatives come from one seeded
stream, and updates are applied in mini-batches with a fixed reduction
order. Randomness is keyed to token *strings*, not ids (row
initialization and the noise distribution use a canonical string order),
so relabeling ids and permuting rows commute with training.

The tables stay bit-identical to the plain form in the test oracle
(materialised pair arrays, ``searchsorted`` noise draws, and
``np.unique`` + ``np.add.at`` row sums over concatenated gradients):

* Pairs are streamed one window offset at a time and cut into batches at
  the same global positions.
* A batch's negatives are gathered, dotted and turned into target-side
  gradients in blocks of pairs (``_NEG_BLOCK_BYTES``), not all ``b * k``
  context rows at once. Each pair's values depend on its own rows
  alone, so the blocks change no bit.
* Row sums compact the touched ids once, then add each row's gradients
  in batch order from 0.0 at double precision, one rounded product and
  one rounded add per element. Both tables use one routine: the context
  side weighs the target rows by the positive and negative scales, the
  target side weighs its gradient rows by 1.0, which changes no bit. One
  loop in ``_sgns_rows.c`` does this, compiled on the first training
  into the package's ``__pycache__`` and called through ``ctypes``.
  Where no C compiler runs or that directory cannot be written, one
  weighted ``np.bincount`` per gradient column does the same adds in the
  same order (``_bincount_sums``), so the tables do not depend on which
  path ran. Only the sums are in C: the dot products, ``einsum``
  contractions and ``exp`` stay in numpy, because numpy fixes neither
  the order in which its dot products accumulate nor the bits of its
  SIMD ``exp``, so C could not match them.
* Negative draws look their id up in a table of M = 2^ceil(log2(4V))
  equal buckets of [0, 1). A bucket that holds no cdf value yields one
  id for every draw in it; draws in the other buckets use
  ``searchsorted``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._kernels import build_kernel
from .corpus import SentenceStore, window_pairs
from .errors import ConfigError, DataError, VocabError
from .vocab import Vocabulary

_NOISE_POWER = 0.75
_MAX_EXP = 6.0
# bytes of negatives' context rows gathered at once: a batch's negatives
# are processed in blocks of max(1, this // (8 * k * dim)) pairs, 65 at the
# default k = 15 and dim 50, so a block's rows stay in cache and the
# working set does not grow with batch_pairs; a row's dot products and
# gradient have the same bits in any block
_NEG_BLOCK_BYTES = 3 << 17
_KERNEL_SOURCE = Path(__file__).with_name("_sgns_rows.c")


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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.clip_row <= 0:
            raise ConfigError("clip_row must be positive")
        if not (math.isfinite(self.lr_initial) and math.isfinite(self.lr_final)):
            raise ConfigError("learning rate must be finite")
        if self.lr_initial <= 0:
            raise ConfigError("learning rate must be > 0")


@dataclass
class SkipGramTable:
    """Target and context embedding matrices, one row per vocabulary id.

    A table is not modified after :func:`train_embeddings` returns it:
    ``pair_terms`` holds skipgram NLL terms computed from its rows and
    would go stale. A new set of rows is a new table.
    """

    target: np.ndarray
    context: np.ndarray
    dim: int
    window: int
    vocab_digest: str = ""
    # objective.PairTerms, filled on demand by the objective module
    pair_terms: object = field(default=None, init=False, compare=False, repr=False)

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


def _apply_clipped(
    matrix: np.ndarray, ids: np.ndarray, clip: float, row_sums: Callable[..., np.ndarray], rows: np.ndarray,
    g_pos: np.ndarray, g_neg: np.ndarray,
) -> None:
    """Sum per-row gradients for the batch, clip each row's total update
    norm, and apply. ``row_sums(rows, g_pos, g_neg, rids, n)`` returns the
    ``(n, dim)`` sums in which row ``i`` of ``rows`` is added times
    ``g_pos[i]``, then times each ``g_neg[i, q]``, in the order of
    ``rids``: ``ids`` compacted to ``0..n-1``.

    Sequential reference updates are self-limiting; summed stale-row
    updates are not, so rows hit many times in one batch need the cap.
    """
    hit = np.bincount(ids, minlength=matrix.shape[0]) > 0
    touched = np.flatnonzero(hit)
    buf = row_sums(rows, g_pos, g_neg, (np.cumsum(hit) - 1)[ids], len(touched))
    norms = np.sqrt(np.einsum("ij,ij->i", buf, buf))
    np.clip(norms / clip, 1.0, None, out=norms)
    matrix[touched] += buf / norms[:, None]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` for ``x >= 0`` and ``exp(x) / (1 + exp(x))``
    below, so ``exp`` never overflows; ``-|x|`` is ``-x`` or ``x`` exactly,
    so each branch has the bits of computing it on its own entries."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _pair_count(store: SentenceStore, window: int) -> int:
    """Number of in-window ordered pairs over the store (no offset past the longest sentence pairs any)."""
    window = min(window, int(store.lengths.max(initial=0)))
    return 2 * sum(int(np.maximum(store.lengths - d, 0).sum()) for d in range(1, window + 1))


def _pair_batches(
    store: SentenceStore, window: int, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(targets, contexts)`` id batches of ``size`` pairs (the last
    may be shorter) over every in-window ordered pair of the store.

    Pairs come grouped by offset, forward then backward pairs, one offset
    at a time, so no more than one offset's pairs are held at once. A
    batch may span two directions; it alone is copied, and every other
    batch is a view. The order depends only on token positions, never on
    id numbering.
    """
    rest_t = rest_c = store.flat[:0]
    for left, right in window_pairs(store.flat, store.lengths, window):
        for t, c in ((left, right), (right, left)):
            # pairs of this direction that complete the carried batch
            head = (size - len(rest_t)) % size
            if len(t) < head:
                rest_t, rest_c = np.concatenate([rest_t, t]), np.concatenate([rest_c, c])
                continue
            if head:
                yield np.concatenate([rest_t, t[:head]]), np.concatenate([rest_c, c[:head]])
            stop = head + (len(t) - head) // size * size
            for i in range(head, stop, size):
                yield t[i : i + size], c[i : i + size]
            rest_t, rest_c = t[stop:], c[stop:]
    if len(rest_t):
        yield rest_t, rest_c


def _noise_cdf(store: SentenceStore, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Unigram^0.75 noise distribution in canonical (string-sorted) order."""
    counts = np.bincount(store.flat, minlength=len(vocab))[: len(vocab)]
    counts = counts.astype(np.float64)
    canon = np.argsort(np.asarray(vocab.tokens, dtype=object))
    weights = counts[canon] ** _NOISE_POWER
    total = weights.sum()
    if total <= 0:
        raise DataError("cannot build a noise distribution over an empty store")
    return np.cumsum(weights / total), canon.astype(np.int64)


class _NoiseSampler:
    """Inverse-CDF draws ``canon[min(searchsorted(cdf, u), V - 1)]``,
    resolved by table where that is exact.

    ``[0, 1)`` is cut into M buckets, M = 2^ceil(log2(4V)). A power of two
    keeps ``u * M`` and every edge ``k / M`` exact, so ``floor(u * M)`` is
    the bucket that holds ``u``. A bucket whose lowest and highest values
    search to the same index takes that index for every draw in it; the
    draws in the other buckets, which hold a cdf value, fall back to
    ``searchsorted``.
    """

    def __init__(self, cdf: np.ndarray, canon: np.ndarray):
        self.cdf = cdf
        self.canon = canon
        self.buckets = 1 << (4 * len(canon) - 1).bit_length()
        edges = np.arange(self.buckets + 1) / self.buckets
        lo = np.searchsorted(cdf, edges[:-1])
        hi = np.searchsorted(cdf, np.nextafter(edges[1:], 0.0))
        # the drawn id per bucket, or -1 where the bucket needs a search
        self.table = np.where(lo == hi, canon[np.minimum(lo, len(canon) - 1)], -1)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        ids = self.table[(u * self.buckets).astype(np.intp)]
        miss = ids < 0
        found = np.searchsorted(self.cdf, u[miss])
        ids[miss] = self.canon[np.minimum(found, len(self.canon) - 1)]
        return ids


def _bincount_sums(batch_pairs: int, negatives: int) -> Callable[..., np.ndarray]:
    """A batch's row sums in numpy, one weighted ``np.bincount`` per
    gradient column: the path where the compiled loop cannot be built, and
    its oracle. ``col`` holds one column's weights: ``b`` rows, then
    ``b * k`` negatives."""
    col = np.empty(batch_pairs * (1 + negatives))

    def row_sums(rows, g_pos, g_neg, rids, n):
        b, dim = rows.shape
        weights = col[: b + g_neg.size]
        sums_t = np.empty((dim, n))
        for j, x in enumerate(np.ascontiguousarray(rows.T)):
            np.multiply(g_pos, x, out=weights[:b])
            np.multiply(g_neg, x[:, None], out=weights[b:].reshape(g_neg.shape))
            sums_t[j] = np.bincount(rids, weights=weights, minlength=n)
        return np.ascontiguousarray(sums_t.T)

    return row_sums


def _compiled_sums(lib: ctypes.CDLL) -> Callable[..., np.ndarray]:
    """The same row sums from the loop of ``_sgns_rows.c``. The loop
    indexes without bounds checks, so the shapes are checked here; every
    ``rids`` entry is below ``n`` by construction (``_apply_clipped``)."""

    def row_sums(rows, g_pos, g_neg, rids, n):
        (b, dim), k = rows.shape, g_neg.shape[1]
        if len(g_pos) != b or len(g_neg) != b or len(rids) != b * (1 + k):
            raise ValueError("batch shapes disagree")
        acc = np.zeros((n, dim))
        lib.row_sums(acc, rids, rows, g_pos, g_neg, b, k, dim)
        return acc

    return row_sums


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled row-sum loop, built on the first training into the
    package's own ``__pycache__`` (``_kernels.build_kernel``), or None:
    then training sums in numpy, silently, with the same output."""
    lib = build_kernel(_KERNEL_SOURCE, Path(__file__).with_name("__pycache__"))
    if lib is not None:
        rows = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        ids = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
        size = ctypes.c_int64
        lib.row_sums.argtypes = [rows, ids, rows, rows, rows, size, size, size]
        lib.row_sums.restype = None
    return lib


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
    n_pairs = _pair_count(store, cfg.window)
    if n_pairs == 0:
        return table
    sample = _NoiseSampler(*_noise_cdf(store, vocab))
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    total_updates = n_pairs * cfg.epochs
    tgt, ctx = table.target, table.context
    k = cfg.negatives
    lib = _kernel()
    row_sums = _bincount_sums(cfg.batch_pairs, k) if lib is None else _compiled_sums(lib)
    # the target side's weights: its gradient rows are summed as they are
    ones = np.ones(cfg.batch_pairs)
    block = max(1, _NEG_BLOCK_BYTES // (8 * max(k, 1) * cfg.dim))
    done = 0
    for _epoch in range(cfg.epochs):
        for t_ids, c_ids in _pair_batches(store, cfg.window, cfg.batch_pairs):
            b = len(t_ids)
            lr = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * (
                (done + np.arange(b)) / max(total_updates - 1, 1)
            )
            done += b

            t_rows = tgt[t_ids]
            c_rows = ctx[c_ids]
            dots = np.clip(np.einsum("ij,ij->i", t_rows, c_rows), -_MAX_EXP, _MAX_EXP)
            g_pos = (1.0 - _sigmoid(dots)) * lr
            grad_t = g_pos[:, None] * c_rows
            # with k = 0 this draws nothing and leaves the stream where it was
            n_ids = sample(rng.random((b, k)))
            g_neg = np.empty((b, k))
            for s in range(0, b, block):
                blk = slice(s, s + block)
                n_rows = ctx[n_ids[blk]]
                neg_dots = np.clip(np.einsum("ij,ikj->ik", t_rows[blk], n_rows), -_MAX_EXP, _MAX_EXP)
                g_neg[blk] = -_sigmoid(neg_dots) * lr[blk, None]
                grad_t[blk] += np.einsum("ik,ikj->ij", g_neg[blk], n_rows)
            _apply_clipped(tgt, t_ids, cfg.clip_row, row_sums, grad_t, ones[:b], g_neg[:, :0])
            _apply_clipped(ctx, np.concatenate([c_ids, n_ids.ravel()]), cfg.clip_row, row_sums, t_rows, g_pos, g_neg)
    if not (np.isfinite(tgt).all() and np.isfinite(ctx).all()):
        raise VocabError("embedding training diverged to non-finite values")
    return table
