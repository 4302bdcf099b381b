"""Skipgram corpus likelihood and per-token ablation losses.

The score of a tokenized corpus is the negative log-likelihood of
predicting each in-window context token from its target token through
the sigmoid of the target/context embedding dot product. Windows span
``window`` tokens on each side, truncated at sentence boundaries, and
every ordered (target, context) pair contributes one term. No negative
sampling enters this computation; it is pure likelihood estimation over
frozen embedding tables. Sentences are scored in flat form: one id
array and each sentence's length, as a ``SentenceStore`` holds them.

:func:`ablation_losses` scores the re-segmented sentences of consecutive
candidates in one pass of up to ``_SCORE_BUDGET_TOKENS`` tokens, paying
numpy's per-call cost once per batch. A batch's sentences are built in
one ``WordIndex.gather``, each candidate's re-segmented types passed as
an override of the sentences holding them. A candidate whose sentences
alone hold more than the budget, such as a frequent word-initial token,
is scored by itself in parts cut at sentence boundaries: each gather
holds about a budget of the sentences' current tokens and each scoring
call about a budget of their re-segmented tokens, a sentence longer than
the budget being one part. Per-sentence values do not depend on the
grouping, and a candidate's values are summed once in sentence order, so
the budget never moves a score; it bounds the memory of one pass, which
would otherwise grow with a candidate's frequency.

A candidate's loss is a function of the table, the sentences holding it,
their segmentations and NLL entries, and how the types holding it
segment with it banned. Each result therefore also reports the tokens
that banned segmentation uses: a removal that touches none of the
candidate's sentences and prunes none of those tokens leaves the loss
bit-identical, which is what lets ``sage`` reuse it (see the ``sage``
module docstring).

Under a fixed table every pair term depends only on the unordered id
pair, so each is computed once and kept in the table's ``pair_terms``, a
:class:`PairTerms` hash keyed by ``min(a, b) * V + max(a, b)``. Its size
follows the distinct pairs scored, not V: two 8-byte arrays at most half
full, and more than a quarter full once they have grown, so 32 to 64
bytes per distinct pair, and half as much again while they double.
Measured by ``bench/nll.py`` at V = 20,000 (100k textgen lines, 1.7
million distinct pairs), two passes over the corpus peak at 137 MB of
numpy allocations, against 56 MB when every term was recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import SentenceStore, WordIndex, sorted_unique, window_pairs
from .errors import VocabError
from .vocab import is_protected

# tokens per batched scoring pass (see the module docstring)
_SCORE_BUDGET_TOKENS = 8192
# sentences per corpus_nll pass; above it the chunk sums set the total's low bits
_CHUNK_SENTENCES = 4096
# new pair terms computed per block, so that each block's four gathered
# row blocks stay in cache: at V = 20,000 and dim 50, 1.2 million new pairs
# took 0.75 s in one block and 0.28 s in blocks of 4,096 (2-core Xeon);
# a row's dot product has the same bits in any block
_TERM_BLOCK = 4096


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) with the standard large-|x| stable branch."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


@dataclass(frozen=True)
class AblationLoss:
    """Change in total NLL caused by removing one token and re-encoding.

    ``uses`` holds the token ids of the re-segmented (banned) word types.
    """

    token_id: int
    loss: float
    affected_sentences: int
    uses: frozenset[int] = frozenset()


def _check_ids(ids: np.ndarray, rows: int) -> None:
    if len(ids) and (int(ids.max()) >= rows or int(ids.min()) < 0):
        raise VocabError(
            f"token id out of bounds for embedding table with {rows} rows"
        )


def batched_sentence_nll(ids: np.ndarray, lengths: np.ndarray, table, window: int) -> np.ndarray:
    """Per-sentence NLL for a batch, sharing one vectorized pass.

    The batch is flat: sentence ``i`` is the next ``lengths[i]`` entries
    of ``ids``, the form ``WordIndex.gather`` builds and a
    ``SentenceStore`` holds. Pairs never cross sentence boundaries.
    Per-sentence sums are accumulated offset by offset in a fixed order,
    so results do not depend on how sentences are grouped into batches.
    Each in-sentence pair's term is read from the table's pair-term store
    (see :func:`_pair_terms`).
    """
    if not len(lengths):
        return np.zeros(0, dtype=np.float64)
    # per-sentence accumulation in extended precision, rounded once at
    # the end; keeps sums independent of addition order at double
    # precision (the zero-table combinatorial identity holds exactly)
    acc = np.zeros(len(lengths), dtype=np.longdouble)
    flat = np.asarray(ids).astype(np.int64, copy=False)
    rows = table.target.shape[0]
    _check_ids(flat, rows)
    owners: list[np.ndarray] = []
    keys: list[np.ndarray] = []
    sentences = np.arange(len(lengths))
    for delta, (left, right) in enumerate(window_pairs(flat, lengths, window), 1):
        # each pair keyed by its unordered ids
        owners.append(np.repeat(sentences, np.maximum(lengths - delta, 0)))
        keys.append(np.minimum(left, right) * rows + np.maximum(left, right))
    if keys:
        terms = _pair_terms(table, np.concatenate(keys))
        # add.at adds in index order, so one call over the offsets in turn
        # adds as one call per offset would; widening first is exact and
        # lets add.at take its same-dtype path
        np.add.at(acc, np.concatenate(owners), terms.astype(np.longdouble))
    return acc.astype(np.float64)


def _pair_terms(table, keys: np.ndarray) -> np.ndarray:
    """The term ``softplus(-t_a.c_b) + softplus(-t_b.c_a)`` of each key
    ``a * V + b`` (``a <= b``), read from ``table.pair_terms`` after
    computing and storing the keys not there yet.

    numpy's row dot products and ``softplus`` give a row or element the
    same bits whatever batch it is computed in, and the two halves of a
    term commute, so a term read here equals the one the pair's own
    gathered rows would give (``tests/test_objective.py::TestPairTerms``
    holds the scorer to that oracle).
    """
    if table.pair_terms is None:
        table.pair_terms = PairTerms()
    store = table.pair_terms
    slot, absent = store.find(keys)
    vals = store.terms[slot]
    if len(absent):
        missing = keys[absent]
        new = sorted_unique(missing)
        terms = np.empty(len(new), dtype=np.float64)
        for start in range(0, len(new), _TERM_BLOCK):
            a, b = np.divmod(new[start : start + _TERM_BLOCK], table.target.shape[0])
            fwd = np.einsum("ij,ij->i", table.target[a], table.context[b])
            bwd = np.einsum("ij,ij->i", table.target[b], table.context[a])
            terms[start : start + _TERM_BLOCK] = softplus(-fwd) + softplus(-bwd)
        store.add(new, terms)
        vals[absent] = terms[np.searchsorted(new, missing)]
    return vals


# 2**64 / golden ratio: multiplicative (Fibonacci) hashing of pair keys
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class PairTerms:
    """Pair keys and their NLL terms in an open-addressing hash: one
    array of keys (-1 marks a free slot) and one of terms, a power of two
    long and kept at most half full, with linear probing from each key's
    Fibonacci-hashed home slot. Lookups and inserts are vectorized: one
    numpy pass per probe step, over the keys still probing.
    """

    def __init__(self) -> None:
        self.bits = 12
        self.keys = np.full(1 << self.bits, -1, dtype=np.int64)
        self.terms = np.zeros(1 << self.bits, dtype=np.float64)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def _home(self, keys: np.ndarray) -> np.ndarray:
        # uint64 products wrap; the top ``bits`` bits pick the slot
        home = keys.astype(np.uint64)
        home *= _GOLDEN
        home >>= np.uint64(64 - self.bits)
        return home.view(np.int64)

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's slot, and the positions of the keys not stored (whose
        slot is a free one)."""
        mask = len(self.keys) - 1
        slot = self._home(keys)
        todo = np.flatnonzero(self.keys[slot] != keys)
        absent = [todo[:0]]
        while len(todo):
            free = self.keys[slot[todo]] == -1
            absent.append(todo[free])
            todo = todo[~free]
            slot[todo] = (slot[todo] + 1) & mask
            todo = todo[self.keys[slot[todo]] != keys[todo]]
        return slot, np.concatenate(absent)

    def add(self, keys: np.ndarray, terms: np.ndarray) -> None:
        """Store ``terms`` under ``keys``: distinct keys, none stored yet."""
        self.count += len(keys)
        if 2 * self.count > len(self.keys):
            live = self.keys != -1
            old_keys, old_terms = self.keys[live], self.terms[live]
            while 2 * self.count > 1 << self.bits:
                self.bits += 1
            self.keys = np.full(1 << self.bits, -1, dtype=np.int64)
            self.terms = np.zeros(1 << self.bits, dtype=np.float64)
            self._place(old_keys, old_terms)
        self._place(keys, terms)

    def _place(self, keys: np.ndarray, terms: np.ndarray) -> None:
        mask = len(self.keys) - 1
        slot = self._home(keys)
        todo = np.arange(len(keys))
        while len(todo):
            at = slot[todo]
            free = self.keys[at] == -1
            # keys sharing a free slot all write it; one of them lands
            self.keys[at[free]] = keys[todo[free]]
            placed = self.keys[at] == keys[todo]
            self.terms[at[placed]] = terms[todo[placed]]
            todo = todo[~placed]
            slot[todo] = (slot[todo] + 1) & mask


def corpus_nll(store: SentenceStore, table, window: int, nll: np.ndarray) -> float:
    """Sum of per-sentence NLL over the whole store, each sentence's value
    written into ``nll``.

    The flat ids and the lengths are cut at the same sentences, every
    ``_CHUNK_SENTENCES``, so the written values do not depend on the chunk
    size; the total is the sum of the chunk sums, in order.
    """
    if store.vocab_digest and getattr(table, "vocab_digest", "") and store.vocab_digest != table.vocab_digest:
        raise VocabError(
            "store and embedding table were built under different vocabularies"
        )
    cuts = np.arange(_CHUNK_SENTENCES, len(store), _CHUNK_SENTENCES)
    chunks = zip(np.split(store.flat, np.cumsum(store.lengths)[cuts - 1]), np.split(store.lengths, cuts))
    vals = [batched_sentence_nll(flat, lengths, table, window) for flat, lengths in chunks]
    nll[:] = np.concatenate(vals)
    return sum(float(np.sum(v)) for v in vals)


def attach_nll_cache(store: SentenceStore, table, window: int) -> tuple[np.ndarray, float]:
    """A new per-sentence NLL array for ``store`` under ``table``, and its total."""
    nll = np.zeros(len(store), dtype=np.float64)
    return nll, corpus_nll(store, table, window, nll)


def ablation_losses(
    candidates,
    nll: np.ndarray,
    index: WordIndex,
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
    lengths = index.sentence_lengths()
    for pending in _batches(candidates, index, cv, lengths):
        vals = _batch_values(pending, index, lengths, table, window)
        offset = 0
        for token_id, affected, changed in pending:
            end = offset + len(affected)
            loss = float(np.sum(vals[offset:end]) - np.sum(nll[affected]))
            uses = frozenset(chain.from_iterable(changed.values()))
            results.append(AblationLoss(token_id, loss, len(affected), uses))
            offset = end
    return results


def _batches(candidates, index: WordIndex, cv, lengths: np.ndarray):
    """Yield lists of ``(candidate, its sorted affected sentences, its
    re-segmented types)`` whose sentences, rebuilt without each
    candidate, hold at most ``_SCORE_BUDGET_TOKENS`` tokens, or of one
    candidate that alone holds more. ``lengths`` is every sentence's
    current token count."""
    pending: list[tuple[int, np.ndarray, dict[int, list[int]]]] = []
    tokens = 0
    for token_id in candidates:
        token = cv.vocab.tokens[token_id]
        if is_protected(token):
            raise VocabError(f"token {token!r} is protected and cannot be ablated")
        affected = np.array(sorted(index.sentences(token_id)), dtype=np.int64)
        changed = index.segment_without(token_id, cv)
        # every occurrence of a re-segmented type lies in the affected sentences
        own = int(lengths[affected].sum()) + sum(
            int(index.counts[w]) * (len(ids) - len(index.segs[w])) for w, ids in changed.items())
        if tokens and tokens + own > _SCORE_BUDGET_TOKENS:
            yield pending
            pending, tokens = [], 0
        pending.append((token_id, affected, changed))
        tokens += own
    if pending:
        yield pending


def _batch_values(pending, index: WordIndex, lengths: np.ndarray, table, window: int) -> np.ndarray:
    """Per-sentence NLL of a batch's affected sentences, each candidate's
    re-segmented with its types, in batch order.

    The sentences are gathered in parts of about a budget of their
    current ``lengths``, and each part is scored in calls of about a
    budget of its re-segmented tokens; a batch within the budget is
    usually one gather and one call.
    """
    sentences = np.concatenate([affected for _, affected, _ in pending])
    owner = np.repeat(np.arange(len(pending)), [len(a) for _, a, _ in pending])
    overrides = [changed for _, _, changed in pending]
    cuts = _budget_cuts(lengths[sentences])
    vals = []
    for part, part_owner in zip(np.split(sentences, cuts), np.split(owner, cuts)):
        flat, new = index.gather(part, overrides, part_owner)
        calls = _budget_cuts(new)
        for ids, lens in zip(np.split(flat, np.cumsum(new)[calls - 1]), np.split(new, calls)):
            vals.append(batched_sentence_nll(ids, lens, table, window))
    return np.concatenate(vals)


def _budget_cuts(lengths: np.ndarray) -> np.ndarray:
    """Positions that cut a run of sentences of ``lengths`` tokens into
    parts whose sentences all start within one window of
    ``_SCORE_BUDGET_TOKENS`` tokens, so that a part holds fewer than the
    budget plus its last sentence's tokens."""
    window_of = (np.cumsum(lengths) - lengths) // _SCORE_BUDGET_TOKENS
    return np.flatnonzero(np.diff(window_of)) + 1


def ablation_loss(
    token_id: int,
    nll: np.ndarray,
    index: WordIndex,
    table,
    cv,
    window: int,
) -> AblationLoss:
    """Score removing one token; :func:`ablation_losses` for one candidate."""
    return ablation_losses([token_id], nll, index, table, cv, window)[0]
