import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sagetok import bpe, encoder
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
        assert cv.encode_word("") == []
        assert cv.unk_chars("", []) == []

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


def _active_state(cv):
    """The active-token map and, on the compiled path, the ids that the
    flat trie still holds."""
    return cv.active, None if cv.flat is None else np.flatnonzero(cv.flat[4] >= 0).tolist()


def _word_by_word(cv, words):
    """``encode_words``'s result from one ``encode_word`` call per word."""
    return [cv.encode_word(w) for w in words]


def _removal_in_batches():
    from sagetok.bpe import train_bpe
    from sagetok.vocab import is_protected

    corpus = RawCorpus.from_lines(generate_corpus(80, seed=6, n_stems=70))
    vocab, _ = train_bpe(corpus, 200)
    words = sorted({w for line in corpus.lines for w in pretokenize(line)}) + [MARKER + "x¤𝔘", ""]
    cv = encoder.compile(vocab)
    alive = set(range(len(vocab)))
    rng = np.random.default_rng(6)
    prunable = [t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])]
    for batch in np.array_split(rng.permutation(prunable), 6):
        cv.remove(batch.tolist())
        alive -= set(batch.tolist())
        fresh = encoder.compile(vocab, alive)
        assert cv.encode_words(words) == fresh.encode_words(words)
        assert _active_state(cv) == _active_state(fresh)
        assert [cv.encode_word(w) for w in words] == [fresh.encode_word(w) for w in words]
        assert cv.encode_words(words) == _word_by_word(fresh, words)


class TestRemove:
    def test_removal_in_batches_equals_fresh_compile(self):
        _removal_in_batches()

    def test_removal_on_the_python_path(self, monkeypatch):
        monkeypatch.setattr(encoder, "_kernel", lambda: None)
        _removal_in_batches()

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
        ids = cv.encode_word(MARKER + "pseudogene")
        assert [vocab.tokens[i] for i in ids] == [MARKER + "pseud", "ogene"]

    def test_alphabet_fallback_one_token_per_char(self):
        vocab = Vocabulary([MARKER, "x", "y", "z"])
        cv = encoder.compile(vocab)
        ids = cv.encode_word(MARKER + "zyx")
        assert [vocab.tokens[i] for i in ids] == [MARKER, "z", "y", "x"]

    def test_unk_preserves_source_characters(self):
        vocab = Vocabulary([MARKER, "x", "y", MARKER + "x"])
        cv = encoder.compile(vocab)
        ids = cv.encode_word(MARKER + "x¤y")
        unks = cv.unk_chars(MARKER + "x¤y", ids)
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
        ids = cv.encode_word(MARKER + "ab", banned)
        assert [vocab.tokens[i] for i in ids] == [MARKER + "a", "b"]

    def test_greedy_dominance(self):
        # no emitted token extends to a longer vocabulary token at its position
        vocab = _vocab("ba", "bab", MARKER + "aba")
        cv = encoder.compile(vocab)
        word = MARKER + "ababab"
        ids = cv.encode_word(word)
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
        ids = cv.encode_word(word)
        queue = cv.unk_chars(word, ids)
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
        ids = cv.encode_word(word)
        queue = cv.unk_chars(word, ids)
        got = [queue.pop(0) if i == cv.unk_id else vocab.tokens[i] for i in ids]
        expected = [
            t[1] if isinstance(t, tuple) else t
            for t in naive_encode_word(vocab.tokens, word)
        ]
        assert got == expected


def _compiled_kernel():
    lib = encoder._kernel()
    if lib is None:
        pytest.skip("no C compiler: the compiled encoder cannot be built here")
    return lib


@pytest.fixture(params=["compiled", "python"])
def path(request, monkeypatch):
    """Compile on the kernel's path, or on the Python walk's."""
    if request.param == "compiled":
        _compiled_kernel()
    else:
        monkeypatch.setattr(encoder, "_kernel", lambda: None)
    return request.param


def _bpe_case():
    from sagetok.bpe import train_bpe

    vocab, _ = train_bpe(RawCorpus.from_lines(generate_corpus(150, seed=31, n_stems=120)), 260)
    held = RawCorpus.from_lines(generate_corpus(120, seed=32, n_stems=300) + ["x¤y z¤¤ ¤", "𝔘nicode a𝔘b 😀"])
    words = list(dict.fromkeys(w for line in held.lines for w in pretokenize(line)))
    return vocab, words + ["", MARKER, "¤"]


class TestEncodeWords:
    def test_equals_encode_word_on_both_paths(self, path):
        # encode_word is the Python walk on both paths
        vocab, words = _bpe_case()
        cv = encoder.compile(vocab)
        assert (cv.flat is None) == (path == "python")
        segs = cv.encode_words(words)
        assert segs == _word_by_word(cv, words)
        unks = [cv.unk_chars(w, seg) for w, seg in zip(words, segs)]
        assert any(unks) and cv.encode_words([]) == []
        for word, seg, chars in zip(words, segs, unks):
            queue = iter(chars)
            assert "".join(next(queue) if i == cv.unk_id else vocab.tokens[i] for i in seg) == word

    @given(st.data())
    # the path fixture is meant to hold for every example
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzz_matches_encode_word(self, path, data):
        # "¤" and "😀" are never tokens, so they segment as UNK; "𝔘" is
        # outside the BMP, one code point and one Python character
        tokens = {MARKER, "a", "b", "𝔘"}
        for _ in range(data.draw(st.integers(0, 10))):
            tokens.add(data.draw(st.text(alphabet="ab𝔘" + MARKER, min_size=1, max_size=5)))
        vocab = Vocabulary(sorted(tokens))
        active = sorted(data.draw(st.sets(st.sampled_from(range(len(vocab))))))
        banned = frozenset(data.draw(st.sets(st.sampled_from(range(len(vocab))))))
        cv = encoder.compile(vocab, active)
        words = data.draw(st.lists(st.text(alphabet="ab𝔘¤😀" + MARKER, max_size=10), max_size=6))
        expected = _word_by_word(cv, words)
        assert cv.encode_words(words) == expected
        for word, ids in zip(words, expected):
            queue = cv.unk_chars(word, ids)
            assert "".join(queue.pop(0) if i == cv.unk_id else vocab.tokens[i] for i in ids) == word
        allowed = [vocab.tokens[i] for i in active if i not in banned]
        for word in words:
            ids = cv.encode_word(word, banned)
            queue = cv.unk_chars(word, ids)
            got = [("UNK", queue.pop(0)) if i == cv.unk_id else vocab.tokens[i] for i in ids]
            assert got == naive_encode_word(allowed, word)

    def test_bad_vocabularies_rejected_on_both_paths(self, path):
        vocab = _vocab()
        with pytest.raises(VocabError):
            encoder.compile(vocab, [0, len(vocab)])
        with pytest.raises(VocabError):
            encoder.compile(vocab, [-1, 0])
        twice = Vocabulary(["a", "b"])
        twice.tokens = ("a", "a")
        with pytest.raises(VocabError, match="duplicate"):
            encoder.compile(twice)


class TestEncodeKernelBuild:
    def test_a_cached_library_loads_without_importing_subprocess(self, tmp_path):
        # every command segments words; only a build needs subprocess
        _compiled_kernel()
        if bpe._kernel() is None:
            pytest.skip("no C compiler: the compiled merge loop cannot be built here")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(generate_corpus(30, seed=3, n_stems=40)) + "\n", encoding="utf-8")
        vocab, out = tmp_path / "bpe.vocab", tmp_path / "enc.txt"
        script = (
            "import sys\n"
            "from sagetok import bpe, cli, encoder\n"
            f"assert cli.main(['train-bpe', '--corpus', {str(corpus)!r}, '--vocab-size', '60', '--out', {str(vocab)!r}]) == 0\n"
            f"assert cli.main(['encode', '--vocab', {str(vocab)!r}, '--in', {str(corpus)!r}, '--out', {str(out)!r}]) == 0\n"
            "assert encoder._kernel() is not None and bpe._kernel() is not None\n"
            "print('subprocess' in sys.modules)\n"
        )
        src = str(Path(encoder.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-1] == "False"


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
