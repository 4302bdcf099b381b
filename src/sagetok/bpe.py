"""Bottom-up BPE vocabulary training.

Counting is over word types weighted by corpus frequency. Each step
merges the most frequent adjacent symbol pair; exact count ties go to
the lexicographically smaller (left, right) string pair. Pairs occurring
fewer than twice are never merged, so training can stop short of the
requested size on tiny corpora (reported as a warning).
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass

from .corpus import RawCorpus, pretokenize
from .errors import ConfigError, DataError
from .vocab import PROV_ALPHABET, PROV_MERGED, Vocabulary

log = logging.getLogger(__name__)

MIN_MERGE_COUNT = 2


@dataclass(frozen=True)
class MergeRecord:
    left: str
    right: str
    result: str
    count: int


def word_type_counts(corpus: RawCorpus) -> Counter:
    """Marker-prefixed word types with their corpus occurrence counts."""
    counts: Counter = Counter()
    for line in corpus.lines:
        counts.update(pretokenize(line))
    return counts


def _pair_counter(symbols: list[str], weight: int) -> Counter:
    c: Counter = Counter()
    for pair in zip(symbols, symbols[1:]):
        c[pair] += weight
    return c


def _replace_pair(symbols: list[str], left: str, right: str) -> list[str]:
    """Left-to-right non-overlapping replacement of (left, right) by their concatenation."""
    out: list[str] = []
    i = 0
    n = len(symbols)
    merged = left + right
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def train_bpe(corpus: RawCorpus, target_size: int) -> tuple[Vocabulary, list[MergeRecord]]:
    """Grow a vocabulary from the corpus alphabet up to ``target_size``.

    The vocabulary order is the sorted alphabet followed by merge results
    in creation order, so any merge-log prefix is itself a valid smaller
    vocabulary.
    """
    if len(corpus) == 0:
        raise DataError("cannot train on an empty corpus")
    wcounts = word_type_counts(corpus)
    words: list[list[str]] = []
    weights: list[int] = []
    for word, count in sorted(wcounts.items()):
        words.append(list(word))
        weights.append(count)

    alphabet = sorted({ch for w in words for ch in w})
    if target_size < len(alphabet):
        raise ConfigError(
            f"target size {target_size} is below the alphabet size {len(alphabet)}"
        )
    tokens: list[str] = list(alphabet)
    provenance: list[str] = [PROV_ALPHABET] * len(alphabet)
    known = set(tokens)

    pair_counts: Counter = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for wi, symbols in enumerate(words):
        for pair, c in _pair_counter(symbols, weights[wi]).items():
            pair_counts[pair] += c
            pair_words.setdefault(pair, set()).add(wi)

    heap = [(-c, l, r) for (l, r), c in pair_counts.items() if c >= MIN_MERGE_COUNT]
    heapq.heapify(heap)
    merges: list[MergeRecord] = []

    while len(tokens) < target_size:
        best = None
        while heap:
            negc, left, right = heapq.heappop(heap)
            current = pair_counts.get((left, right), 0)
            if -negc != current:
                if current >= MIN_MERGE_COUNT:
                    heapq.heappush(heap, (-current, left, right))
                continue
            best = (left, right, current)
            break
        if best is None:
            log.warning(
                "merge pool exhausted at %d tokens (requested %d)", len(tokens), target_size
            )
            break
        left, right, count = best
        result = left + right
        merges.append(MergeRecord(left, right, result, count))
        if result not in known:
            tokens.append(result)
            provenance.append(PROV_MERGED)
            known.add(result)

        for wi in sorted(pair_words.get((left, right), ())):
            symbols = words[wi]
            before = _pair_counter(symbols, weights[wi])
            new_symbols = _replace_pair(symbols, left, right)
            if new_symbols == symbols:
                continue
            after = _pair_counter(new_symbols, weights[wi])
            words[wi] = new_symbols
            for pair in before.keys() | after.keys():
                diff = after.get(pair, 0) - before.get(pair, 0)
                if diff == 0:
                    continue
                updated = pair_counts[pair] + diff
                if updated <= 0:
                    pair_counts.pop(pair, None)
                else:
                    pair_counts[pair] = updated
                    if diff > 0 and updated >= MIN_MERGE_COUNT:
                        heapq.heappush(heap, (-updated, pair[0], pair[1]))
                if pair in after:
                    pair_words.setdefault(pair, set()).add(wi)
                elif pair in pair_words:
                    pair_words[pair].discard(wi)
        pair_counts.pop((left, right), None)
        pair_words.pop((left, right), None)

    return Vocabulary(tokens, provenance), merges


def save_merges(merges: list[MergeRecord], path, meta: dict | None = None) -> None:
    """TSV merge log: left<TAB>right<TAB>count, one merge per line."""
    lines = [f"#sagetok {k}={v}" for k, v in (meta or {}).items()]
    lines.extend(f"{m.left}\t{m.right}\t{m.count}" for m in merges)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_merges(path) -> list[MergeRecord]:
    merges = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line or line.startswith("#sagetok "):
                continue
            left, right, count = line.split("\t")
            merges.append(MergeRecord(left, right, left + right, int(count)))
    return merges
