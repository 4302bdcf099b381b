"""Bottom-up BPE vocabulary training.

Counting is over word types weighted by corpus frequency. Each step
merges the most frequent adjacent symbol pair; exact count ties go to
the lexicographically smaller (left, right) string pair. Pairs occurring
fewer than twice are never merged, so training can stop short of the
requested size on tiny corpora (reported as a warning).

Words are lists of int symbol ids. A symbol string is interned once, so
it has one id whichever merge made it, and the id order is the
vocabulary order. A merge rewrites only the words that hold its pair and
updates only the pairs next to each merge site, as in Sennrich et al.'s
reference BPE (arXiv 1508.07909); the changes of all words are summed
and applied to the pair counts once per merge. The heap is lazy: an
entry whose count is out of date is re-pushed with the current count
when it is popped, so the pop order, and with it the tie rule, is that
of a full recount.
"""

from __future__ import annotations

import heapq
import logging
from collections import Counter
from dataclasses import dataclass

from .corpus import RawCorpus, pretokenize
from .errors import ConfigError, DataError
from .vocab import PROV_ALPHABET, PROV_MERGED, Vocabulary, header_lines

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


def train_bpe(corpus: RawCorpus, target_size: int) -> tuple[Vocabulary, list[MergeRecord]]:
    """Grow a vocabulary from the corpus alphabet up to ``target_size``.

    The vocabulary order is the sorted alphabet followed by merge results
    in creation order, so any merge-log prefix is itself a valid smaller
    vocabulary.
    """
    if len(corpus) == 0:
        raise DataError("cannot train on an empty corpus")
    wcounts = word_type_counts(corpus)
    alphabet = sorted({ch for word in wcounts for ch in word})
    if target_size < len(alphabet):
        raise ConfigError(
            f"target size {target_size} is below the alphabet size {len(alphabet)}"
        )
    # id -> symbol string; alphabet first, then merge results in creation order
    tokens: list[str] = list(alphabet)
    ids: dict[str, int] = {s: i for i, s in enumerate(tokens)}
    words: list[list[int]] = []
    weights: list[int] = []
    for word, count in sorted(wcounts.items()):
        words.append([ids[ch] for ch in word])
        weights.append(count)

    pair_counts: Counter = Counter()
    # pair -> ids of the words that hold it; may keep words that lost it
    pair_words: dict[tuple[int, int], set[int]] = {}
    for wi, symbols in enumerate(words):
        weight = weights[wi]
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += weight
            pair_words.setdefault(pair, set()).add(wi)

    heap = [
        (-c, tokens[a], tokens[b], a, b)
        for (a, b), c in pair_counts.items()
        if c >= MIN_MERGE_COUNT
    ]
    heapq.heapify(heap)
    merges: list[MergeRecord] = []

    while len(tokens) < target_size:
        best = None
        while heap:
            negc, left, right, a, b = heapq.heappop(heap)
            current = pair_counts.get((a, b), 0)
            if -negc != current:
                if current >= MIN_MERGE_COUNT:
                    heapq.heappush(heap, (-current, left, right, a, b))
                continue
            best = (left, right, a, b, current)
            break
        if best is None:
            log.warning(
                "merge pool exhausted at %d tokens (requested %d)", len(tokens), target_size
            )
            break
        left, right, a, b, count = best
        result = left + right
        merges.append(MergeRecord(left, right, result, count))
        m = ids.get(result)
        if m is None:
            m = ids[result] = len(tokens)
            tokens.append(result)

        delta: Counter = Counter()
        for wi in pair_words.pop((a, b)):
            old = words[wi]
            n = len(old)
            new: list[int] = []
            sites: list[int] = []
            new_sites: list[int] = []
            i = 0
            while i < n:
                if old[i] == a and i + 1 < n and old[i + 1] == b:
                    sites.append(i)
                    new_sites.append(len(new))
                    new.append(m)
                    i += 2
                else:
                    new.append(old[i])
                    i += 1
            if not sites:
                continue
            words[wi] = new
            weight = weights[wi]
            for k in {k for i in sites for k in (i - 1, i, i + 1) if 0 <= k < n - 1}:
                delta[old[k], old[k + 1]] -= weight
            last = len(new) - 1
            for k in {k for j in new_sites for k in (j - 1, j) if 0 <= k < last}:
                pair = (new[k], new[k + 1])
                delta[pair] += weight
                pair_words.setdefault(pair, set()).add(wi)

        for pair, d in delta.items():
            if d == 0:
                continue
            updated = pair_counts[pair] + d
            if updated > 0:
                pair_counts[pair] = updated
                if d > 0 and updated >= MIN_MERGE_COUNT:
                    heapq.heappush(heap, (-updated, tokens[pair[0]], tokens[pair[1]], *pair))
            else:
                del pair_counts[pair]
                pair_words.pop(pair, None)

    n_alpha = len(alphabet)
    provenance = [PROV_ALPHABET] * n_alpha + [PROV_MERGED] * (len(tokens) - n_alpha)
    return Vocabulary(tokens, provenance), merges


def save_merges(merges: list[MergeRecord], path, meta: dict | None = None) -> None:
    """TSV merge log: left<TAB>right<TAB>count, one merge per line."""
    lines = header_lines(meta)
    lines.extend(f"{m.left}\t{m.right}\t{m.count}" for m in merges)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
