"""Unigram-likelihood vocabulary pruning baseline.

Starts from every frequent word-internal substring, then repeatedly
removes the batch of tokens whose ablation costs the least corpus
log-likelihood, where likelihood uses maximum-likelihood unigram
probabilities refit to the retokenized corpus. Decoding is the shared
greedy encoder throughout, and protected tokens are never candidates.
It is the SaGe trainer's loop with another loss: the same word-type index
(``corpus.WordIndex``), ``corpus.prunable`` and ``corpus.prune_order``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import encoder
from .bpe import word_type_counts
from .corpus import RawCorpus, SentenceStore, WordIndex, build_index, prunable, prune_order
from .errors import ConfigError, DataError
from .vocab import PROV_ALPHABET, PROV_SURVIVOR, Vocabulary, check_target, corpus_alphabet, header_lines

MAX_LEN = 16
MIN_COUNT = 2


def init_substring_vocab(corpus: RawCorpus, max_len: int = MAX_LEN, min_count: int = MIN_COUNT) -> Vocabulary:
    """All word-internal substrings (marker included) of length <= max_len
    occurring at least min_count times, plus the full alphabet.

    Ordered: alphabet by code point, then substrings by descending count
    and string.
    """
    if max_len < 1:
        raise ConfigError("max_len must be >= 1")
    if min_count < 1:
        raise ConfigError("min_count must be >= 1")
    if len(corpus) == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")
    wcounts = word_type_counts(corpus)
    sub_counts: Counter = Counter()
    for word, count in wcounts.items():
        n = len(word)
        for i in range(n):
            top = min(n, i + max_len)
            for j in range(i + 1, top + 1):
                sub_counts[word[i:j]] += count
    chars, initials = corpus_alphabet(wcounts.keys())
    protected = set(chars) | set(initials)
    alphabet = sorted(protected)
    learned = sorted(
        (t for t, c in sub_counts.items() if c >= min_count and t not in protected),
        key=lambda t: (-sub_counts[t], t),
    )
    tokens = alphabet + learned
    provenance = [PROV_ALPHABET] * len(alphabet) + [PROV_SURVIVOR] * len(learned)
    return Vocabulary(tokens, provenance)


@dataclass
class UnigramModel:
    """Unigram probabilities fit to the current tokenization (MLE).

    ``probs`` has one entry per vocabulary id; ids never emitted by the
    tokenization carry probability zero and must not be scored.
    """

    vocab: Vocabulary
    probs: np.ndarray

    @classmethod
    def fit(cls, store: SentenceStore, vocab: Vocabulary) -> "UnigramModel":
        counts = np.bincount(store.flat, minlength=len(vocab))[: len(vocab)]
        total = counts.sum()
        if total == 0:
            raise DataError("store is empty; cannot fit unigram probabilities")
        return cls(vocab, counts / total)


class _CountLogTerms:
    """MLE corpus log-likelihood of token counts, ``sum(c·log c) - N·log N``
    over the used ids, with the ``c·log c`` terms cached once so that a
    candidate patches only the ids whose counts it changes.

    Every sum runs over the compressed array of used ids in id order, as a
    from-scratch sum would: numpy's pairwise sum groups values by position,
    so summing only the touched terms, or a zero-padded full-length array,
    would change the low bits.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = counts.tolist()
        self.total = sum(self.counts)
        used = np.flatnonzero(counts > 0)
        self.used_ids = used.tolist()
        self.slot = {t: i for i, t in enumerate(self.used_ids)}
        c = counts[used].astype(np.float64)
        self.terms = c * np.log(c)
        self._memo: dict[int, float] = {}
        self.base = self._loglik(self.terms, self.total)

    @staticmethod
    def _loglik(terms: np.ndarray, total: int) -> float:
        return float(np.sum(terms) - total * np.log(total)) if total else 0.0

    def _term(self, count: int) -> float:
        """``c·log c`` of one count, by the same numpy kernel as the cache."""
        term = self._memo.get(count)
        if term is None:
            c = np.array([count], dtype=np.float64)
            term = self._memo[count] = float((c * np.log(c))[0])
        return term

    def loglik(self, delta: dict[int, int]) -> float:
        """The log-likelihood after adding ``delta`` (id -> count change)."""
        changed = sorted(t for t, d in delta.items() if d)
        if not changed:
            return self.base
        terms = self.terms.copy()
        total = self.total
        pieces: list = []  # set when an id leaves or enters the used set
        start = 0
        for t in changed:
            total += delta[t]
            count = self.counts[t] + delta[t]
            slot = self.slot.get(t)
            if slot is None:
                at = bisect_left(self.used_ids, t)
                pieces += [terms[start:at], [self._term(count)]]
                start = at
            elif count:
                terms[slot] = self._term(count)
            else:
                pieces.append(terms[start:slot])
                start = slot + 1
        if pieces:
            terms = np.concatenate(pieces + [terms[start:]])
        return self._loglik(terms, total)


def train_unigram(
    corpus: RawCorpus,
    target_size: int,
    prune_batch: int = 1,
    max_len: int = MAX_LEN,
    min_count: int = MIN_COUNT,
) -> Vocabulary:
    """Prune an all-substrings vocabulary down to ``target_size``.

    Each iteration scores every prunable token by the likelihood change
    of removing it (retokenizing affected words, refitting MLE
    probabilities), prunes the first min(batch, excess) tokens in
    ``corpus.prune_order``, and refits.
    """
    if prune_batch < 1:
        raise ConfigError("prune batch must be >= 1")
    vocab = init_substring_vocab(corpus, max_len=max_len, min_count=min_count)
    check_target(vocab, target_size)
    if target_size >= len(vocab):
        return vocab

    cv = encoder.compile(vocab)
    index = build_index(corpus, cv)
    while len(cv.active) > target_size:
        batch = min(prune_batch, len(cv.active) - target_size)
        losses = score_candidates(index, cv)
        index.resegment(prune_order(losses, index, cv)[:batch], cv)

    return vocab.subset(cv.active.values())


def score_candidates(index: WordIndex, cv) -> dict[int, float]:
    """Loss of every ``corpus.prunable`` token of ``cv``, in id order: the
    log-likelihood change of removing it, with the types that hold it
    re-segmented and MLE probabilities refit."""
    terms = _CountLogTerms(index.frequencies())
    weights = index.counts.tolist()
    losses: dict[int, float] = {}
    for t in prunable(cv):
        delta: dict[int, int] = {}
        for w, new_ids in index.segment_without(t, cv).items():
            weight = weights[w]
            for old_t in index.segs[w]:
                delta[old_t] = delta.get(old_t, 0) - weight
            for new_t in new_ids:
                delta[new_t] = delta.get(new_t, 0) + weight
        losses[t] = terms.loglik(delta) - terms.base
    return losses


def save_probs(model: UnigramModel, path, meta: dict | None = None) -> None:
    """TSV dump: token <TAB> log-probability, support only."""
    lines = header_lines(meta)
    for i, token in enumerate(model.vocab.tokens):
        if model.probs[i] > 0:
            lines.append(f"{token}\t{np.log(model.probs[i])}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
