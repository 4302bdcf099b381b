"""Skipgram corpus likelihood and per-token ablation losses.

The score of a tokenized corpus is the negative log-likelihood of
predicting each in-window context token from its target token through
the sigmoid of the target/context embedding dot product. Windows span
``window`` tokens on each side, truncated at sentence boundaries, and
every ordered (target, context) pair contributes one term. No negative
sampling enters this computation; it is pure likelihood estimation over
frozen embedding tables.

:func:`ablation_losses` scores the re-segmented sentences of consecutive
candidates in one pass of up to ``_SCORE_BUDGET_TOKENS`` tokens, paying
numpy's per-call cost once per batch. Per-sentence values do not depend
on the grouping, so the budget never moves a score; it bounds memory. A
pass gathers 2 x 8,192 x dim doubles, the size of the context-gradient
buffer alone of one default embedding-training batch (1,024 pairs x 16
rows), so scoring stays below training's transient whatever the dim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import SentenceStore, WordIndex, window_offsets
from .errors import VocabError
from .vocab import Vocabulary, is_protected

# tokens per batched scoring pass: a memory bound (see the module docstring)
_SCORE_BUDGET_TOKENS = 8192
# sentences per corpus_nll pass; above it the chunk sums set the total's low bits
_CHUNK_SENTENCES = 4096


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) with the standard large-|x| stable branch."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass(frozen=True)
class AblationLoss:
    """Change in total NLL caused by removing one token and re-encoding."""

    token_id: int
    loss: float
    affected_sentences: int


def _check_ids(ids: np.ndarray, rows: int) -> None:
    if len(ids) and (int(ids.max()) >= rows or int(ids.min()) < 0):
        raise VocabError(
            f"token id out of bounds for embedding table with {rows} rows"
        )


def batched_sentence_nll(sentences: list[np.ndarray], table, window: int) -> np.ndarray:
    """Per-sentence NLL for a batch, sharing one vectorized pass.

    Pairs never cross sentence boundaries. Per-sentence sums are
    accumulated offset by offset in a fixed order, so results do not
    depend on how sentences are grouped into batches.
    """
    if not sentences:
        return np.zeros(0, dtype=np.float64)
    # per-sentence accumulation in extended precision, rounded once at
    # the end; keeps sums independent of addition order at double
    # precision (the zero-table combinatorial identity holds exactly)
    acc = np.zeros(len(sentences), dtype=np.longdouble)
    flat = np.concatenate(sentences) if len(sentences) > 1 else np.asarray(sentences[0])
    flat = flat.astype(np.int64, copy=False)
    _check_ids(flat, table.target.shape[0])
    if len(flat) == 0:
        return acc.astype(np.float64)
    sent_of = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    tgt = table.target[flat]
    ctx = table.context[flat]
    for delta, same in window_offsets(sent_of, window):
        # target at i predicting context at i+delta, and the reverse; dot
        # products on the shifted views, then only in-sentence pairs kept
        fwd = np.einsum("ij,ij->i", tgt[:-delta], ctx[delta:])[same]
        bwd = np.einsum("ij,ij->i", tgt[delta:], ctx[:-delta])[same]
        vals = softplus(-fwd) + softplus(-bwd)
        # widening first is exact and lets add.at take its same-dtype path
        np.add.at(acc, sent_of[:-delta][same], vals.astype(np.longdouble))
    return acc.astype(np.float64)


def sentence_nll(ids, table, window: int) -> float:
    """NLL of one sentence; zero when it has fewer than two tokens."""
    arr = np.asarray(ids, dtype=np.int64)
    return float(batched_sentence_nll([arr], table, window)[0])


def corpus_nll(store: SentenceStore, table, window: int, nll: np.ndarray) -> float:
    """Sum of per-sentence NLL over the whole store, each sentence's value
    written into ``nll``.

    Chunking is by whole sentences, so the written values do not depend
    on the chunk size; the total is the sum of the chunk sums.
    """
    if store.vocab_digest and getattr(table, "vocab_digest", "") and store.vocab_digest != table.vocab_digest:
        raise VocabError(
            "store and embedding table were built under different vocabularies"
        )
    total = 0.0
    for start in range(0, len(store.ids), _CHUNK_SENTENCES):
        chunk = store.ids[start : start + _CHUNK_SENTENCES]
        vals = batched_sentence_nll(chunk, table, window)
        nll[start : start + len(chunk)] = vals
        total += float(np.sum(vals))
    return total


def attach_nll_cache(store: SentenceStore, table, window: int) -> tuple[np.ndarray, float]:
    """A new per-sentence NLL array for ``store`` under ``table``, and its total."""
    nll = np.zeros(len(store.ids), dtype=np.float64)
    return nll, corpus_nll(store, table, window, nll)


def ablation_losses(
    candidates,
    nll: np.ndarray,
    index: WordIndex,
    vocab: Vocabulary,
    table,
    cv,
    window: int,
) -> list[AblationLoss]:
    """Score removing each of ``candidates``, in order: re-segment the word
    types that hold the token (the index is never touched), rebuild the
    sentences that contain them, and return new-minus-old NLL over those
    sentences, scored in batches.

    The old side is read from ``nll``, the current per-sentence NLL, not
    recomputed.
    """
    results: list[AblationLoss] = []
    for pending, batch in _rebuilt_batches(candidates, index, vocab, cv):
        vals = batched_sentence_nll(batch, table, window)
        offset = 0
        for token_id, affected in pending:
            end = offset + len(affected)
            loss = float(np.sum(vals[offset:end]) - np.sum(nll[affected]))
            results.append(AblationLoss(token_id, loss, len(affected)))
            offset = end
    return results


def _rebuilt_batches(candidates, index: WordIndex, vocab: Vocabulary, cv):
    """Yield ``(candidates with their sorted affected sentences, the
    sentences rebuilt without each candidate)``, closing a batch once it
    holds ``_SCORE_BUDGET_TOKENS`` tokens."""
    pending: list[tuple[int, list[int]]] = []
    batch: list[np.ndarray] = []
    tokens = 0
    for token_id in candidates:
        token = vocab.tokens[token_id]
        if is_protected(token):
            raise VocabError(f"token {token!r} is protected and cannot be ablated")
        affected = sorted(index.sentences(token_id))
        changed = index.segment_without(token_id, cv)
        for s in affected:
            batch.append(np.asarray(index.sentence(s, changed), dtype=np.int64))
            tokens += len(batch[-1])
        pending.append((token_id, affected))
        if tokens >= _SCORE_BUDGET_TOKENS:
            yield pending, batch
            pending, batch, tokens = [], [], 0
    if pending:
        yield pending, batch


def ablation_loss(
    token_id: int,
    nll: np.ndarray,
    index: WordIndex,
    vocab: Vocabulary,
    table,
    cv,
    window: int,
) -> AblationLoss:
    """Score removing one token; :func:`ablation_losses` for one candidate."""
    return ablation_losses([token_id], nll, index, vocab, table, cv, window)[0]
