import numpy as np
import pytest

from sagetok import encoder
from sagetok.analysis import (
    Histogram,
    fertility_hist,
    efficiency,
    summary_report,
    token_length_hist,
    token_stats,
    vocab_diff,
    write_histogram_csv,
    write_token_stats_csv,
)
from sagetok.corpus import RawCorpus
from sagetok.vocab import MARKER, Vocabulary

from textgen import generate_corpus


def _compiled(tokens):
    vocab = Vocabulary(tokens)
    return vocab, encoder.compile(vocab)


class TestTokenLengthHist:
    def test_marker_excluded_from_length(self):
        vocab = Vocabulary([MARKER + "a", "ab", MARKER + "abc"])
        hist = token_length_hist(vocab)
        assert hist.buckets == {1: 1, 2: 1, 3: 1}

    def test_alphabet_at_one(self):
        vocab = Vocabulary(["a", "b", "c", MARKER + "x"])
        hist = token_length_hist(vocab)
        assert hist.buckets == {1: 4}

    def test_bare_marker_counts_zero(self):
        hist = token_length_hist(Vocabulary([MARKER, "a"]))
        assert hist.buckets == {0: 1, 1: 1}


class TestFertilityHist:
    def test_whole_word_tokens(self):
        corpus = RawCorpus.from_lines(["aa bb", "aa"])
        vocab, cv = _compiled([MARKER, "a", "b", MARKER + "aa", MARKER + "bb"])
        hist = fertility_hist(corpus, cv)
        assert hist.buckets == {1: 3}
        assert hist.total == 3

    def test_word_split_into_three(self):
        corpus = RawCorpus.from_lines(["abb"])
        vocab, cv = _compiled([MARKER, "a", "b", MARKER + "a"])
        hist = fertility_hist(corpus, cv)
        assert hist.buckets == {3: 1}

    def test_occurrence_weighted(self):
        corpus = RawCorpus.from_lines(["ab ab ab", "ab"])
        vocab, cv = _compiled([MARKER, "a", "b", MARKER + "ab"])
        hist = fertility_hist(corpus, cv)
        assert hist.buckets == {1: 4}


class TestTokenStats:
    def test_hand_enumerable_window_one(self):
        corpus = RawCorpus.from_lines(["aba"])
        vocab, cv = _compiled([MARKER + "a", "b", "a"])
        # encoded word: [▁a, b, a]
        stats = token_stats(corpus, cv, window=1)
        row_a_init = stats.rows[MARKER + "a"]
        row_b = stats.rows["b"]
        row_a = stats.rows["a"]
        assert row_a_init.frequency == 1 and row_a_init.distinct_neighbors == 1
        assert row_b.frequency == 1 and row_b.distinct_neighbors == 2
        assert row_a.frequency == 1 and row_a.distinct_neighbors == 1
        assert row_b.ratio == 2.0

    def test_absent_token_excluded(self):
        corpus = RawCorpus.from_lines(["aa"])
        vocab, cv = _compiled([MARKER, "a", MARKER + "aa", "zz"])
        stats = token_stats(corpus, cv, window=2)
        assert "zz" not in stats.rows

    def test_matches_bruteforce_pair_scan(self):
        rng = np.random.default_rng(3)
        letters = list("abcdefgh")
        lines = [
            " ".join(
                "".join(rng.choice(letters, size=rng.integers(1, 5)))
                for _ in range(rng.integers(1, 8))
            )
            for _ in range(40)
        ]
        corpus = RawCorpus.from_lines(lines)
        # enough tokens that the neighbor sets are not yet full at any
        # offset the windows below reach, so a missed offset shows
        vocab, cv = _compiled(
            [MARKER, *letters, *(MARKER + c for c in letters), "ab", "bc", "cd", "de", "ef", "fg", "gh"]
        )
        store = encoder.encode_corpus(corpus, cv)
        for window in (1, 3, 5):
            stats = token_stats(corpus, cv, window)
            freq = {}
            neighbors = {}
            for ids in store.ids:
                ids = [int(t) for t in ids]
                for i, t in enumerate(ids):
                    freq[t] = freq.get(t, 0) + 1
                    lo, hi = max(0, i - window), min(len(ids), i + window + 1)
                    for j in range(lo, hi):
                        if j != i:
                            neighbors.setdefault(t, set()).add(ids[j])
            for t, count in freq.items():
                token = vocab.tokens[t]
                assert stats.rows[token].frequency == count
                assert stats.rows[token].distinct_neighbors == len(neighbors.get(t, ()))

    def test_unk_excluded_from_neighbor_sets(self):
        corpus = RawCorpus.from_lines(["a¤b"])
        vocab, cv = _compiled([MARKER, "a", "b", MARKER + "a"])
        stats = token_stats(corpus, cv, window=2)
        assert all("¤" not in token for token in stats.rows)
        # UNK neither contributes a row nor appears in neighbor counts
        assert stats.rows[MARKER + "a"].distinct_neighbors == 1  # just "b"


class TestVocabDiff:
    def test_identical_vocabularies(self):
        vocab = Vocabulary([MARKER, "a", MARKER + "ab"])
        report = vocab_diff(vocab, vocab)
        assert report.only_a == [] and report.only_b == []
        assert report.intersection == 3

    def test_word_initial_fractions(self):
        vocab_a = Vocabulary([MARKER + "a", MARKER + "b"])
        vocab_b = Vocabulary([MARKER + "a", "bc"])
        report = vocab_diff(vocab_a, vocab_b)
        assert report.only_a == [MARKER + "b"]
        assert report.only_b == ["bc"]
        assert report.word_initial_frac_a == 1.0
        assert report.word_initial_frac_b == 0.0

    def test_length_bucket_fractions(self):
        vocab_a = Vocabulary(["ab", "cde", MARKER + "fghij", "klmnopq"])
        vocab_b = Vocabulary(["zz"])
        report = vocab_diff(vocab_a, vocab_b)
        assert report.short_frac_a == pytest.approx(0.5)
        assert report.long_frac_a == pytest.approx(0.5)


class TestEfficiency:
    def test_single_word_single_token(self):
        corpus = RawCorpus.from_lines(["ab"])
        vocab, cv = _compiled([MARKER, "a", "b", MARKER + "ab"])
        total, per_word = efficiency(corpus, cv)
        assert total == 1 and per_word == 1.0

    def test_equals_fertility_weighted_sum(self):
        corpus = RawCorpus.from_lines(generate_corpus(30, seed=2))
        chars = sorted({c for l in corpus.lines for c in MARKER + l.replace(" ", "")})
        vocab, cv = _compiled(chars + ["th", "the", MARKER + "the", "ing", "ed"])
        total, _ = efficiency(corpus, cv)
        hist = fertility_hist(corpus, cv)
        assert total == hist.weighted_sum()

    def test_sum_of_frequencies_equals_efficiency(self):
        corpus = RawCorpus.from_lines(generate_corpus(20, seed=4))
        chars = sorted({c for l in corpus.lines for c in MARKER + l.replace(" ", "")})
        vocab, cv = _compiled(chars + ["an", "on", MARKER + "s"])
        total, _ = efficiency(corpus, cv)
        stats = token_stats(corpus, cv, 5)
        assert sum(s.frequency for s in stats.rows.values()) == total


class TestHistogram:
    def test_mean_and_share(self):
        hist = Histogram()
        hist.add(1, 3)
        hist.add(5, 1)
        assert hist.total == 4
        assert hist.mean() == pytest.approx(2.0)
        assert hist.share([1]) == pytest.approx(0.75)


class TestReports:
    def test_csv_and_summary_outputs(self, tmp_path):
        corpus = RawCorpus.from_lines(["aa ab", "ab aa aa"])
        vocab, cv = _compiled([MARKER, "a", "b", MARKER + "aa", MARKER + "ab"])
        hist = token_length_hist(vocab)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path, "length", {"version": "0.1.0"})
        text = path.read_text(encoding="utf-8")
        assert text.startswith("#sagetok version=0.1.0")
        assert "length,count" in text

        stats = token_stats(corpus, cv, 2)
        spath = tmp_path / "stats.csv"
        write_token_stats_csv(stats, spath, {"k": "v"})
        assert "token,frequency" in spath.read_text(encoding="utf-8")

        report = summary_report(vocab, corpus, cv, 2, {"seed": 1})
        assert report["efficiency"]["total_tokens"] == 5
        assert report["fertility"]["single_token_fraction"] == 1.0
        assert report["meta"] == {"seed": 1}
