import pytest

from sagetok import encoder, unigram
from sagetok.corpus import RawCorpus, SentenceStore
from sagetok.errors import ConfigError
from sagetok.unigram import (
    UnigramModel,
    init_substring_vocab,
    save_probs,
    train_unigram,
)
from sagetok.vocab import MARKER, Vocabulary, is_protected

from oracles import flatten, unigram_loglik_oracle, unigram_reference_losses
from textgen import generate_corpus


class TestInitSubstringVocab:
    def test_repeated_word_substrings(self):
        vocab = init_substring_vocab(RawCorpus.from_lines(["aa aa"]), min_count=2)
        assert set(vocab.tokens) == {MARKER, "a", MARKER + "a", "aa", MARKER + "aa"}

    def test_nothing_repeats_gives_alphabet_only(self):
        vocab = init_substring_vocab(RawCorpus.from_lines(["ab cd"]), min_count=2)
        assert set(vocab.tokens) == {MARKER, "a", "b", "c", "d", MARKER + "a", MARKER + "c"}

    def test_max_len_cap(self):
        vocab = init_substring_vocab(RawCorpus.from_lines(["ab ab ab"]), max_len=2, min_count=2)
        assert MARKER + "ab" not in vocab.tokens
        assert "ab" in vocab.tokens

    @pytest.mark.parametrize("min_count", [0, -3])
    def test_min_count_below_one_rejected(self, min_count):
        with pytest.raises(ConfigError, match="min_count must be >= 1"):
            init_substring_vocab(RawCorpus.from_lines(["ab ab"]), min_count=min_count)

    def test_counts_are_occurrence_weighted(self):
        # "xy" appears twice in one line: substring counted per occurrence
        vocab = init_substring_vocab(RawCorpus.from_lines(["xy xy"]), min_count=2)
        assert "xy" in vocab.tokens

    def test_matches_exhaustive_enumeration(self):
        lines = ["abab cd", "ab abab", "cd cd"]
        corpus = RawCorpus.from_lines(lines)
        vocab = init_substring_vocab(corpus, max_len=16, min_count=2)
        from collections import Counter

        counts = Counter()
        for line in lines:
            for w in line.split(" "):
                word = MARKER + w
                for i in range(len(word)):
                    for j in range(i + 1, min(len(word), i + 16) + 1):
                        counts[word[i:j]] += 1
        expected = {s for s, c in counts.items() if c >= 2}
        expected |= {MARKER, *{c for line in lines for c in line if c != " "}}
        expected |= {MARKER + w[0] for line in lines for w in line.split(" ")}
        assert set(vocab.tokens) == expected


class TestCorpusLoglik:
    """The MLE unigram fit that ``train-unigram --probs-out`` writes."""

    def _store(self, id_lists, vocab):
        return SentenceStore(*flatten(id_lists), vocab.digest())

    def test_mle_fit_sums_to_one(self):
        vocab = Vocabulary(["a", "b", "c"])
        store = self._store([[0, 0, 1]], vocab)
        model = UnigramModel.fit(store, vocab)
        assert model.probs.sum() == pytest.approx(1.0)
        assert model.probs[0] == pytest.approx(2 / 3)


def _exhaustive_unigram_oracle(corpus, vocab, target_size):
    """Prune one token per step; every candidate rescored by full
    retokenization of the whole corpus and a scratch likelihood."""
    from collections import Counter

    alive = set(range(len(vocab)))
    sequence = []

    def tokenize_all(active):
        cv = encoder.compile(vocab, active)
        store = encoder.encode_corpus(corpus, cv)
        return [list(map(int, ids)) for ids in store.ids]

    while len(alive) > target_size:
        current = tokenize_all(alive)
        base = unigram_loglik_oracle(current, len(vocab))
        freq = Counter(t for ids in current for t in ids)
        scored = []
        for t in sorted(alive):
            if is_protected(vocab.tokens[t]):
                continue
            trial = tokenize_all(alive - {t})
            loss = unigram_loglik_oracle(trial, len(vocab)) - base
            scored.append((loss, freq.get(t, 0), vocab.tokens[t], t))
        scored.sort(key=lambda item: item[:3])
        chosen = scored[0][3]
        sequence.append(chosen)
        alive.discard(chosen)
    return sequence


class TestTrainUnigram:
    def test_target_equal_to_current_size_is_identity(self):
        corpus = RawCorpus.from_lines(["aa aa", "ab ab"])
        full = init_substring_vocab(corpus)
        out = train_unigram(corpus, len(full))
        assert out.tokens == full.tokens

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ConfigError):
            train_unigram(RawCorpus.from_lines(["abc abc"]), 1)

    def test_single_character_tokens_never_pruned(self):
        corpus = RawCorpus.from_lines(["aab aab bba", "aab bba bba"])
        full = init_substring_vocab(corpus)
        protected = {t for t in full.tokens if is_protected(t)}
        out = train_unigram(corpus, len(protected))
        assert set(out.tokens) == protected

    def test_monotone_size_and_alphabet_retention(self):
        corpus = RawCorpus.from_lines(["abab abab cdcd", "cdcd abab", "ab cd ab"])
        full = init_substring_vocab(corpus)
        target = len(full) - 4
        out = train_unigram(corpus, target, prune_batch=3)
        assert len(out) == target
        protected = {t for t in full.tokens if is_protected(t)}
        assert protected <= set(out.tokens)
        assert set(out.tokens) <= set(full.tokens)

    def test_pruning_sequence_matches_exhaustive_oracle(self):
        lines = [
            "abab cdcd abab",
            "cdcd cdcd ab",
            "abab ab cd",
            "cd cdcd abab ab",
            "ab ab cdcd",
        ] * 2
        corpus = RawCorpus.from_lines(lines)
        full = init_substring_vocab(corpus, max_len=6)
        assert len(full) <= 60
        lowest = sum(1 for t in full.tokens if is_protected(t))
        sequence = _exhaustive_unigram_oracle(corpus, full, lowest)
        for steps in (1, 3, 7, len(sequence)):
            if steps > len(sequence):
                continue
            target = len(full) - steps
            got = train_unigram(corpus, target)
            expected = set(full.tokens) - {full.tokens[t] for t in sequence[:steps]}
            assert set(got.tokens) == expected

    def test_negative_losses_handled(self):
        # removing a token can raise likelihood; the trainer must not special-case it
        lines = ["aaa aaa aaa", "aa aa aa aa", "a aaa aa"] * 3
        corpus = RawCorpus.from_lines(lines)
        full = init_substring_vocab(corpus, max_len=4)
        out = train_unigram(corpus, len(full) - 2)
        assert len(out) == len(full) - 2


class TestScoreCandidates:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_losses_equal_full_resum_oracle(self, seed, monkeypatch):
        """Every candidate's loss from the cached log terms is == to the
        full re-sum over the first iterations, including candidates whose
        removal makes an id leave or enter the used set."""
        corpus = RawCorpus.from_lines(generate_corpus(70, seed=seed, n_stems=60))
        real = unigram.score_candidates
        seen = {"iterations": 0, "candidates": 0, "entered": 0, "left": 0}

        def checked(index, cv):
            got = real(index, cv)
            ref = unigram_reference_losses(index, cv.vocab, cv.active.values(), cv)
            assert list(got.items()) == [(t, loss) for t, loss, _, _ in ref]
            seen["iterations"] += 1
            seen["candidates"] += len(ref)
            seen["entered"] += sum(entered for _, _, entered, _ in ref)
            seen["left"] += sum(left for _, _, _, left in ref)
            return got

        monkeypatch.setattr(unigram, "score_candidates", checked)
        full = init_substring_vocab(corpus, max_len=8)
        batch = len(full) // 5
        train_unigram(corpus, len(full) - 3 * batch, prune_batch=batch, max_len=8)
        assert seen["iterations"] == 3
        assert seen["entered"] > 0 and seen["left"] > 0


class TestProbsIO:
    def test_tsv_dump(self, tmp_path):
        corpus = RawCorpus.from_lines(["ab ab"])
        vocab = init_substring_vocab(corpus)
        cv = encoder.compile(vocab)
        store = encoder.encode_corpus(corpus, cv)
        model = UnigramModel.fit(store, vocab)
        path = tmp_path / "probs.tsv"
        save_probs(model, path, {"version": "x"})
        lines = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#sagetok")]
        assert all("\t" in l for l in lines)
        assert all(float(l.split("\t")[1]) <= 0 for l in lines)
