import logging

import numpy as np
import pytest

from sagetok import bpe
from sagetok.bpe import MergeRecord, save_merges, train_bpe
from sagetok.corpus import RawCorpus
from sagetok.errors import ConfigError
from sagetok.vocab import MARKER, PROV_ALPHABET, PROV_MERGED

from oracles import bpe_merge_oracle
from textgen import generate_corpus


def _random_corpus(rng, n_words=30, alphabet="abcd"):
    words = [
        "".join(rng.choice(list(alphabet), size=rng.integers(1, 6)))
        for _ in range(n_words)
    ]
    lines = []
    i = 0
    while i < len(words):
        take = int(rng.integers(1, 6))
        lines.append(" ".join(words[i : i + take]))
        i += take
    return RawCorpus.from_lines(lines)


@pytest.fixture(params=["compiled", "python"])
def path(request, monkeypatch):
    """Train with the compiled merge loop, or with the Python one."""
    if request.param == "compiled":
        if bpe._kernel() is None:
            pytest.skip("no C compiler: the compiled merge loop cannot be built here")
    else:
        monkeypatch.setattr(bpe, "_kernel", lambda: None)
    return request.param


class TestTrainBpe:
    def test_forced_merge_order(self):
        corpus = RawCorpus.from_lines(["a ab ab"])
        vocab, merges = train_bpe(corpus, 5)
        assert vocab.tokens == ("a", "b", MARKER, MARKER + "a", MARKER + "ab")
        assert [(m.left, m.right, m.count) for m in merges] == [
            (MARKER, "a", 3),
            (MARKER + "a", "b", 2),
        ]
        assert vocab.provenance == (
            PROV_ALPHABET,
            PROV_ALPHABET,
            PROV_ALPHABET,
            PROV_MERGED,
            PROV_MERGED,
        )

    def test_alphabet_only_target(self):
        corpus = RawCorpus.from_lines(["a ab ab"])
        vocab, merges = train_bpe(corpus, 3)
        assert vocab.tokens == ("a", "b", MARKER)
        assert merges == []

    def test_target_below_alphabet(self):
        with pytest.raises(ConfigError, match="alphabet size 3"):
            train_bpe(RawCorpus.from_lines(["a ab ab"]), 2)

    def test_merge_pool_exhaustion_warns(self, caplog):
        corpus = RawCorpus.from_lines(["ab cd"])  # nothing repeats twice except marker pairs
        with caplog.at_level(logging.WARNING):
            vocab, merges = train_bpe(corpus, 50)
        assert len(vocab) < 50
        assert any("exhausted" in r.message for r in caplog.records)

    def test_min_merge_count_is_two(self):
        # single occurrence pairs are never merged
        corpus = RawCorpus.from_lines(["ab cd ef"])
        vocab, merges = train_bpe(corpus, 20)
        assert all(m.count >= 2 for m in merges)

    def test_tie_break_lexicographic(self):
        # (x,y) and (y,x)... construct two pairs with equal counts
        corpus = RawCorpus.from_lines(["xy xy", "yx yx"])
        vocab, merges = train_bpe(corpus, len({MARKER, "x", "y"}) + 1)
        # candidates include (▁,x):2, (▁,y):2, (x,y):2, (y,x):2; marker sorts lowest? it is U+2581, above ascii
        first = merges[0]
        pair_counts = {(MARKER, "x"): 2, (MARKER, "y"): 2, ("x", "y"): 2, ("y", "x"): 2}
        expected = min(pair_counts, key=lambda p: p)
        assert (first.left, first.right) == expected


class TestMergeStep:
    """Single merge steps of the brute-force oracle that the trainer is checked against."""

    def test_enumeration_example(self):
        # words ▁a x1 and ▁ab x2: (▁, a) occurs 3 times and merges first,
        # and the rewritten words then merge (▁a, b) twice
        tokens, merges = bpe_merge_oracle(["a ab ab"], 5)
        assert merges == [(MARKER, "a", 3), (MARKER + "a", "b", 2)]
        assert tokens[-2:] == [MARKER + "a", MARKER + "ab"]

    def test_no_pairs_gives_no_merges(self):
        tokens, merges = bpe_merge_oracle(["x"], 10)
        assert merges == []
        assert tokens == sorted({MARKER, "x"})

    def test_result_is_concatenation(self):
        tokens, merges = bpe_merge_oracle(["ab ab", "ba ba"], 8)
        assert merges
        merged = tokens[len(tokens) - len(merges):]
        assert merged == [left + right for left, right, _ in merges]


class TestProperties:
    def test_prefix_property(self):
        corpus = RawCorpus.from_lines(generate_corpus(40, seed=1))
        vocab, merges = train_bpe(corpus, 120)
        # every merged token concatenates two earlier tokens
        for i, token in enumerate(vocab.tokens):
            if vocab.provenance[i] == PROV_MERGED:
                earlier = set(vocab.tokens[:i])
                assert any(
                    token[:k] in earlier and token[k:] in earlier
                    for k in range(1, len(token))
                )

    def test_subset_property(self):
        corpus = RawCorpus.from_lines(generate_corpus(40, seed=2))
        small, _ = train_bpe(corpus, 90)
        large, _ = train_bpe(corpus, 130)
        assert set(small.tokens) < set(large.tokens)
        assert large.tokens[: len(small)] == small.tokens

    def test_merge_chain_property(self):
        corpus = RawCorpus.from_lines(generate_corpus(40, seed=3))
        vocab, merges = train_bpe(corpus, 140)
        present = set(vocab.tokens)
        for m in vocab.tokens:
            if len(m) <= 1:
                continue
            # both merge parents of a merged token stay in the vocabulary
            matching = [mm for mm in merges if mm.result == m]
            for mm in matching:
                assert mm.left in present and mm.right in present

    def test_determinism(self):
        corpus = RawCorpus.from_lines(generate_corpus(30, seed=4))
        v1, m1 = train_bpe(corpus, 100)
        v2, m2 = train_bpe(corpus, 100)
        assert v1.tokens == v2.tokens
        assert m1 == m2

    def test_matches_bruteforce_oracle_on_random_corpora(self, path):
        rng = np.random.default_rng(42)
        for trial in range(30):
            corpus = _random_corpus(rng, n_words=int(rng.integers(5, 40)))
            target = int(rng.integers(4, 30))
            oracle_tokens, oracle_merges = bpe_merge_oracle(corpus.lines, target)
            try:
                vocab, merges = train_bpe(corpus, target)
            except ConfigError:
                assert target < len({c for l in corpus.lines for c in MARKER + l.replace(" ", "")})
                continue
            assert [(m.left, m.right, m.count) for m in merges] == oracle_merges
            assert list(vocab.tokens) == oracle_tokens

    def test_matches_bruteforce_oracle_on_repetitive_words(self, path):
        # a two-letter alphabet, longer words and runs of one letter put
        # merge sites next to each other and make them overlap (as in aaaa)
        rng = np.random.default_rng(43)
        for trial in range(300):
            words = [
                "".join(rng.choice(["a", "b"], size=rng.integers(1, 14)))
                for _ in range(int(rng.integers(3, 25)))
            ]
            words += ["a" * int(rng.integers(2, 12)) for _ in range(int(rng.integers(1, 5)))]
            order = rng.permutation(len(words))
            corpus = RawCorpus.from_lines([" ".join(words[i] for i in order)])
            target = 3 + int(rng.integers(1, 30))
            oracle_tokens, oracle_merges = bpe_merge_oracle(corpus.lines, target)
            vocab, merges = train_bpe(corpus, target)
            assert [(m.left, m.right, m.count) for m in merges] == oracle_merges, trial
            assert list(vocab.tokens) == oracle_tokens, trial

    def test_matches_bruteforce_oracle_on_textgen(self, path):
        corpus = RawCorpus.from_lines(generate_corpus(150, seed=11, n_stems=300))
        oracle_tokens, oracle_merges = bpe_merge_oracle(corpus.lines, 400)
        vocab, merges = train_bpe(corpus, 400)
        assert [(m.left, m.right, m.count) for m in merges] == oracle_merges
        assert list(vocab.tokens) == oracle_tokens


class TestCompiledLoop:
    def test_equals_the_python_loop_on_random_corpora(self, caplog):
        if bpe._kernel() is None:
            pytest.skip("no C compiler: the compiled merge loop cannot be built here")
        # astral-plane letters are one code point and one Python character;
        # combining marks are code points of their own; runs of one letter
        # and alternations (aaaa, abab) make merge sites overlap and abut
        rng = np.random.default_rng(2026)
        letters = ["a", "b", "c", "\u0301", "\u0308", "é", "𝔘", "𝔙", "😀"]
        repeats = ["aaaa", "abab", "aaaaaaa", "ababab", "aab", "abb", "𝔘𝔘𝔘𝔘"]
        for trial in range(150):
            alphabet = list(rng.choice(letters, size=int(rng.integers(1, len(letters) + 1)), replace=False))
            words = ["".join(rng.choice(alphabet, size=rng.integers(1, 9))) for _ in range(int(rng.integers(1, 30)))]
            words += list(rng.choice(repeats, size=int(rng.integers(0, 8))))
            lines = [" ".join(words[i:i + 4]) for i in range(0, len(words), 4)]
            corpus = RawCorpus.from_lines(lines)
            n_alpha = len({ch for w in words for ch in MARKER + w})
            # up to well past the most merges there can be, and one target
            # in ten past any int64
            target = n_alpha + int(rng.integers(0, 2 * sum(map(len, words)) + 2))
            if trial % 10 == 0:
                target = 10**400
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                vocab, merges = train_bpe(corpus, target)
            warned = any("exhausted" in r.message for r in caplog.records)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bpe, "_kernel", lambda: None)
                oracle_vocab, oracle_merges = train_bpe(corpus, target)
            assert merges == oracle_merges, trial
            assert vocab.tokens == oracle_vocab.tokens and vocab.provenance == oracle_vocab.provenance, trial
            assert warned == (len(vocab) < target), trial


class TestMergeLogIO:
    def test_roundtrip(self, tmp_path):
        merges = [MergeRecord("a", "b", "ab", 5), MergeRecord(MARKER, "a", MARKER + "a", 3)]
        path = tmp_path / "m.tsv"
        save_merges(merges, path, {"version": "0.1.0"})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#sagetok version=0.1.0"
        parsed = []
        for line in lines[1:]:
            left, right, count = line.split("\t")
            parsed.append(MergeRecord(left, right, left + right, int(count)))
        assert parsed == merges
