"""Intrinsic vocabulary and tokenization statistics.

Conventions, also recorded in every report header: token length excludes
the boundary marker; fertility counts word occurrences over running
text, not word types; neighbor sets are symmetric within-sentence
co-occurrences and UNK emissions never enter them. Any vocabulary can be
paired with any corpus, so domain-robustness runs are just an argument
pairing.

``measure`` segments a corpus once (one ``corpus.WordIndex``) and takes
fertility, efficiency and token statistics from that one segmentation;
the standalone ``fertility_hist``, ``efficiency``, ``token_stats`` and
``summary_report`` are the same computations on an index of their own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .corpus import RawCorpus, WordIndex, build_index, sorted_unique, window_pairs
from .encoder import CompiledVocab
from .vocab import Vocabulary, content_length, header_lines, is_word_initial


@dataclass
class Histogram:
    """Integer-keyed counts with a cached total."""

    buckets: dict[int, int] = field(default_factory=dict)
    total: int = 0

    def add(self, key: int, count: int = 1) -> None:
        self.buckets[key] = self.buckets.get(key, 0) + count
        self.total += count

    def mean(self) -> float:
        if self.total == 0:
            return 0.0
        return sum(k * c for k, c in self.buckets.items()) / self.total

    def share(self, keys) -> float:
        """Fraction of total mass on the given bucket keys."""
        if self.total == 0:
            return 0.0
        keys = set(keys)
        return sum(c for k, c in self.buckets.items() if k in keys) / self.total

    def weighted_sum(self) -> int:
        return sum(k * c for k, c in self.buckets.items())


@dataclass(frozen=True)
class TokenStat:
    frequency: int
    distinct_neighbors: int
    ratio: float
    word_initial: bool


@dataclass
class TokenStatsTable:
    """Per-token frequency and contextual-exponence measurements."""

    rows: dict[str, TokenStat]
    window: int
    total_tokens: int

    def mean_ratio(self) -> float:
        if not self.rows:
            return 0.0
        return sum(s.ratio for s in self.rows.values()) / len(self.rows)


def token_length_hist(vocab: Vocabulary) -> Histogram:
    """Vocabulary token lengths in characters, boundary marker excluded."""
    hist = Histogram()
    for token in vocab.tokens:
        hist.add(content_length(token))
    return hist


def fertility_hist(corpus: RawCorpus, cv: CompiledVocab) -> Histogram:
    """Subwords per word occurrence over the running text."""
    return _fertility(build_index(corpus, cv))


def efficiency(corpus: RawCorpus, cv: CompiledVocab) -> tuple[int, float]:
    """(total token count, tokens per word) over the encoded corpus."""
    return _efficiency(_fertility(build_index(corpus, cv)))


def token_stats(corpus: RawCorpus, cv: CompiledVocab, window: int) -> TokenStatsTable:
    """Frequency, distinct in-window neighbors, and their ratio per token.

    Neighbors are counted over unordered in-window co-occurrences inside
    sentences, in both directions; tokens never emitted are absent from
    the table.
    """
    return _token_stats(build_index(corpus, cv), cv.vocab, window)


@dataclass
class CorpusMeasures:
    """Every corpus-dependent measurement of one vocabulary."""

    fertility: Histogram
    stats: TokenStatsTable

    def summary(self, vocab: Vocabulary, meta: dict | None = None) -> dict:
        """JSON-ready bundle of every per-vocabulary measurement."""
        lengths = token_length_hist(vocab)
        fertility = self.fertility
        total_tokens, per_word = _efficiency(fertility)
        return {
            "meta": dict(meta or {}),
            "conventions": {
                "token_length": "characters excluding the boundary marker",
                "fertility": "word occurrences over running text",
                "neighbors": f"symmetric within-sentence co-occurrence, window {self.stats.window}, UNK excluded",
            },
            "token_length": {"mean": lengths.mean(), "histogram": {str(k): v for k, v in sorted(lengths.buckets.items())}},
            "fertility": {
                "mean": fertility.mean(),
                "single_token_fraction": fertility.share([1]),
                "five_plus_fraction": fertility.share([k for k in fertility.buckets if k >= 5]),
                "histogram": {str(k): v for k, v in sorted(fertility.buckets.items())},
            },
            "token_stats": {
                "mean_neighbor_frequency_ratio": self.stats.mean_ratio(),
                "tokens_observed": len(self.stats.rows),
            },
            "efficiency": {"total_tokens": total_tokens, "tokens_per_word": per_word},
        }


def measure(corpus: RawCorpus, cv: CompiledVocab, window: int) -> CorpusMeasures:
    """Segment ``corpus`` once and take every corpus-dependent measurement
    from that one segmentation."""
    index = build_index(corpus, cv)
    return CorpusMeasures(_fertility(index), _token_stats(index, cv.vocab, window))


def _fertility(index: WordIndex) -> Histogram:
    hist = Histogram()
    for seg, count in zip(index.segs, index.counts.tolist()):
        hist.add(len(seg), count)
    return hist


def _efficiency(fertility: Histogram) -> tuple[int, float]:
    total_tokens = fertility.weighted_sum()
    return total_tokens, (total_tokens / fertility.total if fertility.total else 0.0)


def _token_stats(index: WordIndex, vocab: Vocabulary, window: int) -> TokenStatsTable:
    flat, lengths = index.token_stream()
    unk = index.unk_id
    counts = np.bincount(flat, minlength=unk + 1)
    key_base = np.int64(unk + 1)
    # distinct (token, neighbor) keys, deduplicated per offset before the
    # merge so that the merged array stays small
    unique_parts: list[np.ndarray] = []
    for a, b in window_pairs(flat, lengths, window):
        keep = (a != unk) & (b != unk)
        a, b = a[keep], b[keep]
        if len(a) == 0:
            continue
        unique_parts.append(sorted_unique(np.concatenate([a * key_base + b, b * key_base + a])))
    neighbor_count = np.zeros(unk + 1, dtype=np.int64)
    if unique_parts:
        all_keys = sorted_unique(np.concatenate(unique_parts))
        neighbor_count = np.bincount(all_keys // key_base, minlength=unk + 1)
    rows: dict[str, TokenStat] = {}
    for t in np.nonzero(counts[: len(vocab)])[0]:
        t = int(t)
        freq = int(counts[t])
        token = vocab.tokens[t]
        rows[token] = TokenStat(
            frequency=freq,
            distinct_neighbors=int(neighbor_count[t]),
            ratio=float(neighbor_count[t]) / freq,
            word_initial=is_word_initial(token),
        )
    return TokenStatsTable(rows, window, int(counts[: len(vocab)].sum()))


@dataclass
class VocabDiff:
    intersection: int
    only_a: list[str]
    only_b: list[str]
    word_initial_frac_a: float
    word_initial_frac_b: float
    short_frac_a: float
    short_frac_b: float
    long_frac_a: float
    long_frac_b: float

    def to_dict(self) -> dict:
        return {
            "intersection": self.intersection,
            "only_a": {
                "count": len(self.only_a),
                "word_initial_fraction": self.word_initial_frac_a,
                "length_2_3_fraction": self.short_frac_a,
                "length_5_plus_fraction": self.long_frac_a,
            },
            "only_b": {
                "count": len(self.only_b),
                "word_initial_fraction": self.word_initial_frac_b,
                "length_2_3_fraction": self.short_frac_b,
                "length_5_plus_fraction": self.long_frac_b,
            },
        }


def _side_fractions(tokens: list[str]) -> tuple[float, float, float]:
    if not tokens:
        return 0.0, 0.0, 0.0
    initial = sum(1 for t in tokens if is_word_initial(t)) / len(tokens)
    short = sum(1 for t in tokens if content_length(t) in (2, 3)) / len(tokens)
    long_ = sum(1 for t in tokens if content_length(t) >= 5) / len(tokens)
    return initial, short, long_


def vocab_diff(vocab_a: Vocabulary, vocab_b: Vocabulary) -> VocabDiff:
    """Exclusive-token report: sizes, word-initial and length-bucket fractions."""
    set_a, set_b = set(vocab_a.tokens), set(vocab_b.tokens)
    only_a = sorted(set_a - set_b)
    only_b = sorted(set_b - set_a)
    ia, sa, la = _side_fractions(only_a)
    ib, sb, lb = _side_fractions(only_b)
    return VocabDiff(
        intersection=len(set_a & set_b),
        only_a=only_a,
        only_b=only_b,
        word_initial_frac_a=ia,
        word_initial_frac_b=ib,
        short_frac_a=sa,
        short_frac_b=sb,
        long_frac_a=la,
        long_frac_b=lb,
    )


def write_histogram_csv(hist: Histogram, path, key_name: str, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(line + "\n" for line in header_lines(meta))
        writer = csv.writer(f)
        writer.writerow([key_name, "count"])
        for key in sorted(hist.buckets):
            writer.writerow([key, hist.buckets[key]])


def write_token_stats_csv(stats: TokenStatsTable, path, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.writelines(line + "\n" for line in header_lines(meta))
        writer = csv.writer(f)
        writer.writerow(["token", "frequency", "distinct_neighbors", "ratio", "word_initial"])
        for token in sorted(stats.rows, key=lambda t: (-stats.rows[t].distinct_neighbors, t)):
            s = stats.rows[token]
            writer.writerow([token, s.frequency, s.distinct_neighbors, f"{s.ratio:.6f}", int(s.word_initial)])


def summary_report(
    vocab: Vocabulary,
    corpus: RawCorpus,
    cv: CompiledVocab,
    window: int,
    meta: dict | None = None,
) -> dict:
    """JSON-ready bundle of every per-vocabulary measurement."""
    return measure(corpus, cv, window).summary(vocab, meta)
