import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sagetok import encoder
from sagetok.corpus import RawCorpus, build_index, pretokenize
from sagetok.errors import VocabError
from sagetok.vocab import MARKER, Vocabulary

from oracles import decode_line, decode_words, naive_encode_word, naive_longest_prefix, sentence
from textgen import generate_corpus


def _vocab(*extra):
    base = [MARKER, "a", "b", MARKER + "a", MARKER + "ab"]
    return Vocabulary(base + [t for t in extra if t not in base])


class TestCompile:
    def test_longest_prefix_example(self):
        cv = encoder.compile(_vocab())
        token_id, length = cv.longest_prefix(MARKER + "abb")
        assert cv.vocab.tokens[token_id] == MARKER + "ab"
        assert length == 3

    def test_empty_word_no_match(self):
        cv = encoder.compile(_vocab())
        assert cv.encode_word("") == ([], [])

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(VocabError):
            Vocabulary(["a", "a"])

    def test_random_vocabularies_match_naive_scan(self):
        rng = np.random.default_rng(11)
        alphabet = list("abcd")
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            tokens = set(alphabet) | {MARKER}
            for _i in range(n):
                length = int(rng.integers(1, 5))
                tokens.add("".join(rng.choice(alphabet, size=length)))
            vocab = Vocabulary(sorted(tokens))
            cv = encoder.compile(vocab)
            word = MARKER + "".join(rng.choice(alphabet, size=int(rng.integers(1, 9))))
            token_id, length = cv.longest_prefix(word)
            naive_token, naive_len = naive_longest_prefix(vocab.tokens, word)
            assert vocab.tokens[token_id] == naive_token
            assert length == naive_len


def _trie(node):
    return node.token_id, {ch: _trie(child) for ch, child in node.children.items()}


class TestRemove:
    def test_removal_in_batches_equals_fresh_compile(self):
        from sagetok.bpe import train_bpe
        from sagetok.vocab import is_protected

        corpus = RawCorpus.from_lines(generate_corpus(80, seed=6, n_stems=70))
        vocab, _ = train_bpe(corpus, 200)
        words = sorted({w for line in corpus.lines for w in pretokenize(line)})
        cv = encoder.compile(vocab)
        alive = set(range(len(vocab)))
        rng = np.random.default_rng(6)
        prunable = [t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])]
        for batch in np.array_split(rng.permutation(prunable), 6):
            cv.remove(batch.tolist())
            alive -= set(batch.tolist())
            fresh = encoder.compile(vocab, alive)
            assert _trie(cv.root) == _trie(fresh.root)
            assert [cv.encode_word(w) for w in words] == [fresh.encode_word(w) for w in words]
        # only protected tokens are left; nothing below them was dropped
        assert _trie(cv.root) == _trie(encoder.compile(vocab, alive).root)

    def test_inactive_token_rejected(self):
        vocab = _vocab("bb")
        cv = encoder.compile(vocab, [0, 1, 2, 3])
        for token in (MARKER + "ab", "bb"):
            with pytest.raises(VocabError):
                cv.remove([vocab.id_of[token]])
        cv.remove([vocab.id_of[MARKER + "a"]])
        with pytest.raises(VocabError):
            cv.remove([vocab.id_of[MARKER + "a"]])


class TestEncodeWord:
    def test_longest_match_beats_shorter(self):
        tokens = [MARKER, *sorted(set("pseudogene")), MARKER + "pseud", "ogene", "og", "ene"]
        vocab = Vocabulary(tokens)
        cv = encoder.compile(vocab)
        ids, _ = cv.encode_word(MARKER + "pseudogene")
        assert [vocab.tokens[i] for i in ids] == [MARKER + "pseud", "ogene"]

    def test_alphabet_fallback_one_token_per_char(self):
        vocab = Vocabulary([MARKER, "x", "y", "z"])
        cv = encoder.compile(vocab)
        ids, _ = cv.encode_word(MARKER + "zyx")
        assert [vocab.tokens[i] for i in ids] == [MARKER, "z", "y", "x"]

    def test_unk_preserves_source_characters(self):
        vocab = Vocabulary([MARKER, "x", "y", MARKER + "x"])
        cv = encoder.compile(vocab)
        ids, unks = cv.encode_word(MARKER + "x¤y")
        assert ids.count(cv.unk_id) == 1
        assert unks == ["¤"]
        rebuilt = "".join(
            unks.pop(0) if i == cv.unk_id else vocab.tokens[i] for i in ids
        )
        assert rebuilt == MARKER + "x¤y"

    def test_banned_tokens_are_skipped(self):
        vocab = _vocab()
        cv = encoder.compile(vocab)
        banned = frozenset((vocab.id_of[MARKER + "ab"],))
        ids, _ = cv.encode_word(MARKER + "ab", banned)
        assert [vocab.tokens[i] for i in ids] == [MARKER + "a", "b"]

    def test_greedy_dominance(self):
        # no emitted token extends to a longer vocabulary token at its position
        vocab = _vocab("ba", "bab", MARKER + "aba")
        cv = encoder.compile(vocab)
        word = MARKER + "ababab"
        ids, _ = cv.encode_word(word)
        pos = 0
        for i in ids:
            token = vocab.tokens[i]
            _, best_len = cv.longest_prefix(word, pos)
            assert len(token) == best_len
            pos += len(token)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fuzz_roundtrip(self, data):
        alphabet = "abcxyz¤"
        tokens = {MARKER, "a", "b", "c"}
        n_extra = data.draw(st.integers(0, 10))
        for _ in range(n_extra):
            tokens.add(
                data.draw(st.text(alphabet="abcxyz", min_size=1, max_size=5))
            )
        vocab = Vocabulary(sorted(tokens))
        cv = encoder.compile(vocab)
        word = MARKER + data.draw(st.text(alphabet=alphabet, min_size=1, max_size=12))
        ids, unks = cv.encode_word(word)
        queue = list(unks)
        rebuilt = "".join(
            queue.pop(0) if i == cv.unk_id else vocab.tokens[i] for i in ids
        )
        assert rebuilt == word

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_fuzz_matches_naive(self, data):
        tokens = {MARKER, "a", "b"}
        for _ in range(data.draw(st.integers(0, 8))):
            tokens.add(data.draw(st.text(alphabet="ab", min_size=1, max_size=4)))
        vocab = Vocabulary(sorted(tokens))
        cv = encoder.compile(vocab)
        word = MARKER + data.draw(st.text(alphabet="ab", min_size=1, max_size=10))
        ids, unks = cv.encode_word(word)
        queue = list(unks)
        got = [queue.pop(0) if i == cv.unk_id else vocab.tokens[i] for i in ids]
        expected = [
            t[1] if isinstance(t, tuple) else t
            for t in naive_encode_word(vocab.tokens, word)
        ]
        assert got == expected


class TestEncodeCorpus:
    def test_empty_corpus_rejected_upstream(self):
        with pytest.raises(Exception):
            RawCorpus.from_lines([])

    def test_deterministic_and_idempotent(self):
        corpus = RawCorpus.from_lines(["ab ba ab", "ba ab"])
        vocab = _vocab("ba", MARKER + "b")
        cv = encoder.compile(vocab)
        store1 = encoder.encode_corpus(corpus, cv)
        store2 = encoder.encode_corpus(corpus, cv)
        assert all(np.array_equal(a, b) for a, b in zip(store1.ids, store2.ids))
        # re-encoding the decoded text is a fixed point
        index = build_index(corpus, cv)
        decoded = [decode_line(index, s, vocab) for s in range(len(store1))]
        store3 = encoder.encode_corpus(RawCorpus.from_lines(decoded), cv)
        assert all(np.array_equal(a, b) for a, b in zip(store1.ids, store3.ids))

    def test_random_roundtrip_lines(self):
        rng = np.random.default_rng(5)
        letters = list("abcdef¤")
        lines = [
            " ".join(
                "".join(rng.choice(letters, size=rng.integers(1, 7)))
                for _ in range(rng.integers(1, 6))
            )
            for _ in range(1000)
        ]
        corpus = RawCorpus.from_lines(lines)
        vocab = Vocabulary([MARKER, *"abcdef", MARKER + "a", "ab", "cde"])
        cv = encoder.compile(vocab)
        index = build_index(corpus, cv)
        store = encoder.encode_corpus(corpus, cv)
        for s in range(len(store)):
            assert decode_line(index, s, vocab) == corpus.lines[s]
            assert decode_words(index, s, vocab) == pretokenize(corpus.lines[s])
            assert store.ids[s].tolist() == sentence(index, s)
