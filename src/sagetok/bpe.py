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

The merge loop runs in one call of the C loop in ``_bpe.c``: the word
types go in once as UTF-32 code points mapped to alphabet ids, with a
start offset and an int64 weight per word, and one (left id, right id,
result id, count) row comes back per merge. The library is compiled on
first use into the package's ``__pycache__``, as the encoder's is
(``_kernels.build_kernel``). Where it cannot be built or loaded, the
Python loop (:func:`_python_merges`) runs instead, silently; it is also
the oracle of the compiled one. Both give the same merges: each pop is
the maximum of the pair counts under the tie rule, and the counts after
a merge do not depend on the order in which the words are rewritten or
the pairs stored, so neither loop's layout can move a merge. The target
the compiled loop gets is clamped to the alphabet plus the most merges
there can be (each merge shortens a word), so any ``target_size`` works.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._kernels import build_kernel
from .corpus import RawCorpus, pretokenize
from .errors import ConfigError, DataError
from .vocab import PROV_ALPHABET, PROV_MERGED, Vocabulary, header_lines

log = logging.getLogger(__name__)

MIN_MERGE_COUNT = 2

_KERNEL_SOURCE = Path(__file__).with_name("_bpe.c")


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
    word_types = sorted(wcounts.items())
    lib = _kernel()
    if lib is None:
        tokens, merges = _python_merges(alphabet, word_types, target_size)
    else:
        tokens, merges = _compiled_merges(lib, alphabet, word_types, target_size)
    if len(tokens) < target_size:
        log.warning("merge pool exhausted at %d tokens (requested %d)", len(tokens), target_size)
    n_alpha = len(alphabet)
    provenance = [PROV_ALPHABET] * n_alpha + [PROV_MERGED] * (len(tokens) - n_alpha)
    return Vocabulary(tokens, provenance), merges


def _compiled_merges(lib: ctypes.CDLL, alphabet: list[str], word_types: list[tuple[str, int]],
                     target_size: int) -> tuple[list[str], list[MergeRecord]]:
    """The merge loop of ``_bpe.c``: the words go in once as alphabet ids
    with start offsets and weights, and come back as one row of (left id,
    right id, result id, count) per merge."""
    points = np.frombuffer("".join(w for w, _ in word_types).encode("utf-32-le"), dtype=np.uint32)
    codes = np.fromiter(map(ord, alphabet), dtype=np.uint32, count=len(alphabet))
    symbols = np.searchsorted(codes, points).astype(np.int32)
    start = np.zeros(len(word_types) + 1, dtype=np.int64)
    np.cumsum([len(w) for w, _ in word_types], out=start[1:])
    weights = np.fromiter((c for _, c in word_types), dtype=np.int64, count=len(word_types))
    # each merge shortens a word, so there are at most this many, and the
    # vocabulary cannot grow past the alphabet plus them
    pool = len(points) - len(word_types)
    rows = np.empty(4 * pool, dtype=np.int64)
    n = lib.bpe_merges(codes, len(codes), symbols, start, weights, len(word_types),
                       min(target_size, len(alphabet) + pool), rows, pool)
    if n < 0:
        raise MemoryError("the BPE merge loop ran out of memory")
    tokens = list(alphabet)
    merges = []
    for left, right, result, count in rows[: 4 * n].reshape(n, 4).tolist():
        if result == len(tokens):
            tokens.append(tokens[left] + tokens[right])
        merges.append(MergeRecord(tokens[left], tokens[right], tokens[result], count))
    return tokens, merges


def _python_merges(alphabet: list[str], word_types: list[tuple[str, int]],
                   target_size: int) -> tuple[list[str], list[MergeRecord]]:
    """The merge loop in Python: the fallback where ``_bpe.c`` cannot be
    built, and the oracle of the compiled loop."""
    # id -> symbol string; alphabet first, then merge results in creation order
    tokens: list[str] = list(alphabet)
    ids: dict[str, int] = {s: i for i, s in enumerate(tokens)}
    words: list[list[int]] = []
    weights: list[int] = []
    for word, count in word_types:
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

    return tokens, merges


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled merge loop of ``_bpe.c``, built on first use into the
    package's own ``__pycache__`` (``_kernels.build_kernel``), or None:
    then the Python loop runs, silently, with the same merges."""
    lib = build_kernel(_KERNEL_SOURCE, Path(__file__).with_name("__pycache__"))
    if lib is not None:
        def arr(dtype):
            return np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS")

        size = ctypes.c_int64
        lib.bpe_merges.argtypes = [arr(np.uint32), size, arr(np.int32), arr(np.int64), arr(np.int64),
                                   size, size, arr(np.int64), size]
        lib.bpe_merges.restype = size
    return lib


def save_merges(merges: list[MergeRecord], path, meta: dict | None = None) -> None:
    """TSV merge log: left<TAB>right<TAB>count, one merge per line."""
    lines = header_lines(meta)
    lines.extend(f"{m.left}\t{m.right}\t{m.count}" for m in merges)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
