import numpy as np
import pytest

from sagetok import encoder
from sagetok.corpus import (
    RawCorpus,
    WordIndex,
    build_index,
    load_corpus,
    normalize_line,
    pretokenize,
    prunable,
    prune_order,
    retokenize_sentences,
)
from sagetok.embeddings import EmbedConfig
from sagetok.errors import DataError, VocabError
from sagetok.objective import attach_nll_cache
from sagetok.sage import SageConfig, init_state, prune_iteration
from sagetok.unigram import init_substring_vocab, train_unigram
from sagetok.vocab import MARKER, Vocabulary

from conftest import random_table
from oracles import decode_line, decode_words, naive_encode_word, sentence
from textgen import generate_corpus


class TestLoadCorpus:
    def test_empty_lines_dropped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("ab ab\n\nc\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert corpus.lines == ("ab ab", "c")

    def test_whitespace_normalized(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a\t b \n", encoding="utf-8")
        assert load_corpus(path).lines == ("a b",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "nope.txt")

    def test_all_empty_is_an_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("\n\n  \n", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"fine line\n\xff\xfe broken\n")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_marker_scrubbed_at_load(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(f"a{MARKER}b c\n", encoding="utf-8")
        assert load_corpus(path).lines == ("a_b c",)

    def test_lowercase_policy(self):
        assert normalize_line("A Big DOG", lowercase=True) == "a big dog"


class TestPretokenize:
    def test_marker_prefixing(self):
        assert pretokenize("ab ab") == (MARKER + "ab", MARKER + "ab")

    def test_single_word(self):
        assert pretokenize("a") == (MARKER + "a",)

    def test_case_preserved(self):
        assert pretokenize("His son") == (MARKER + "His", MARKER + "son")

    def test_empty_line(self):
        assert pretokenize("") == ()

    def test_roundtrip_against_source(self):
        line = "some words in a line"
        words = pretokenize(line)
        assert " ".join(w[1:] for w in words) == line

    def test_equals_the_per_word_form(self):
        # one replace and one split give what prefixing each split word gives
        lines = ["", " a", "a ", "a  b", " ", "a" + MARKER + "b c"]
        for seed in (0, 5):
            lines += generate_corpus(300, seed=seed, n_stems=200)
        for line in lines:
            assert pretokenize(line) == (tuple(MARKER + w for w in line.split(" ")) if line else ())


class TestBuildIndex:
    def test_direct_enumeration(self):
        corpus = RawCorpus.from_lines(["ab b", "b"])
        vocab = Vocabulary([MARKER, "a", "b", MARKER + "a", MARKER + "ab", MARKER + "b"])
        index = build_index(corpus, encoder.compile(vocab))
        assert index.types == (MARKER + "ab", MARKER + "b")
        assert index.counts.tolist() == [1, 2]
        assert index.type_ids.tolist() == [0, 1, 1]
        assert index.offsets.tolist() == [0, 2, 3]
        assert index.type_sentences == [[0], [0, 1]]
        assert index.segs == [[4], [5]]
        assert index.postings == {4: {0}, 5: {1}}
        assert index.sentences(4) == {0}
        assert index.sentences(5) == {0, 1}
        assert index.sentences(1) == set()
        assert index.frequencies().tolist() == [0, 0, 0, 0, 1, 2]

    def test_pruning_maps_built_on_first_use(self):
        corpus = RawCorpus.from_lines(["ab b", "b"])
        vocab = Vocabulary([MARKER, "a", "b", MARKER + "a", MARKER + "ab", MARKER + "b"])
        index = build_index(corpus, encoder.compile(vocab))
        assert index._type_sentences is None and index._postings is None
        assert index.sentences(5) == {0, 1}
        assert index._type_sentences == [[0], [0, 1]]
        assert index._postings == {4: {0}, 5: {1}}

    def test_equality_compares_pruning_maps(self):
        corpus = RawCorpus.from_lines(["ab b", "b ab"])
        vocab = Vocabulary([MARKER, "a", "b", MARKER + "a", MARKER + "ab", MARKER + "b"])
        cv = encoder.compile(vocab)
        index, other = build_index(corpus, cv), build_index(corpus, cv)
        assert index == other
        other.postings[4].discard(0)
        assert index != other
        other = build_index(corpus, cv)
        other.type_sentences[1].pop()
        assert index != other

    def test_empty_store(self):
        index = build_index(RawCorpus(()), encoder.compile(Vocabulary([MARKER])))
        assert index.postings == {}
        assert index.frequencies().tolist() == [0]
        assert len(index.store("x")) == 0

    def test_matches_bruteforce_scan(self):
        rng = np.random.default_rng(7)
        lines = [
            " ".join("".join(rng.choice(list("abcd¤"), size=rng.integers(1, 6)))
                     for _ in range(rng.integers(1, 6)))
            for _ in range(50)
        ]
        corpus = RawCorpus.from_lines(lines)
        tokens = [MARKER, "a", "b", "c", MARKER + "a", MARKER + "ab", "ab", "bc", "cd", "abc", "dd"]
        vocab = Vocabulary(tokens)
        cv = encoder.compile(vocab)
        index = build_index(corpus, cv)
        # naive greedy segmentation of every word, UNK pieces dropped
        segmented = [
            [tokens.index(p) for w in pretokenize(line) for p in naive_encode_word(tokens, w)
             if not isinstance(p, tuple)]
            for line in corpus.lines
        ]
        for token in range(len(vocab)):
            expected = {s for s, ids in enumerate(segmented) if token in ids}
            assert index.sentences(token) == expected
            assert index.frequencies()[token] == sum(ids.count(token) for ids in segmented)
        # the store gathered from the type segmentations, UNK pieces included,
        # and the UNK characters of each sentence's types in emission order
        pieces = [[p for w in pretokenize(line) for p in naive_encode_word(tokens, w)] for line in corpus.lines]
        store = index.store("x")
        assert [a.tolist() for a in store.ids] == [
            [vocab.unk_id if isinstance(p, tuple) else tokens.index(p) for p in ps] for ps in pieces
        ]
        assert store.lengths.tolist() == [len(ps) for ps in pieces]
        unk_chars = [tuple(ch for w in index.sentence_types(s) for ch in cv.unk_chars(index.types[w], index.segs[w]))
                     for s in range(len(store))]
        assert unk_chars == [tuple(p[1] for p in ps if isinstance(p, tuple)) for ps in pieces]
        assert any(unk_chars)


def _setup_encoded(corpus_lines, extra_tokens, seed=0):
    corpus = RawCorpus.from_lines(corpus_lines)
    chars = sorted({ch for line in corpus.lines for ch in MARKER + line.replace(" ", "")})
    tokens = chars + [t for t in extra_tokens if t not in chars]
    vocab = Vocabulary(tokens)
    cv = encoder.compile(vocab)
    index = build_index(corpus, cv)
    rng = np.random.default_rng(seed)
    table = random_table(len(vocab), 6, rng)
    nll, _ = attach_nll_cache(index.store(vocab.digest()), table, 2)
    return corpus, vocab, cv, nll, index, table


def _sentences(index):
    return [sentence(index, s) for s in range(len(index.offsets) - 1)]


class TestGather:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_sentence_oracle(self, seed):
        # random sentences (repeats, any order) under random overrides, with
        # word types that absorb a character no active token covers
        from itertools import chain

        from sagetok.bpe import train_bpe

        rng = np.random.default_rng(seed)
        lines = generate_corpus(80, seed=40 + seed, n_stems=60)
        lines = [l + " q¤z" if i % 5 == 0 else l for i, l in enumerate(lines)]
        corpus = RawCorpus.from_lines(lines)
        vocab, _ = train_bpe(corpus, 150)
        alive = [t for t in range(len(vocab)) if "¤" not in vocab.tokens[t]]
        index = build_index(corpus, encoder.compile(vocab, alive))
        assert any(vocab.unk_id in seg for seg in index.segs)
        sentences = rng.integers(0, len(corpus), size=70)
        overrides = []
        for _ in range(6):
            held = index.sentence_types(int(rng.choice(sentences)))
            types = rng.choice(held, size=min(len(held), 3), replace=False).tolist()
            types.append(int(rng.integers(len(index.types))))
            overrides.append({int(w): rng.integers(0, vocab.unk_id + 1, size=int(rng.integers(1, 6))).tolist()
                              for w in types})
        override_of = rng.integers(-1, len(overrides), size=len(sentences))
        want = [sentence(index, int(s), overrides[o] if o >= 0 else None) for s, o in zip(sentences, override_of)]
        flat, lengths = index.gather(sentences, overrides, override_of)
        assert flat.dtype == np.int64 and lengths.dtype == np.int64
        assert lengths.tolist() == [len(ids) for ids in want]
        assert flat.tolist() == list(chain.from_iterable(want))
        assert any(o >= 0 and flat_ids != sentence(index, int(s)) for s, o, flat_ids in zip(sentences, override_of, want))
        flat, lengths = index.gather(sentences)
        assert flat.tolist() == [t for s in sentences for t in sentence(index, int(s))]
        flat, lengths = index.gather([])
        assert len(flat) == 0 and len(lengths) == 0

    def test_follows_resegmentation(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(
            ["abc abc", "bbb abc"], [MARKER + "abc", "bb"]
        )
        assert index.gather([1, 0])[0].tolist() == sentence(index, 1) + sentence(index, 0)
        abc = vocab.id_of[MARKER + "abc"]
        retokenize_sentences(nll, index, {abc}, cv, table, 2)
        assert abc not in index.gather([0, 1])[0]
        assert index.gather([1, 0])[0].tolist() == sentence(index, 1) + sentence(index, 0)
        assert index.sentence_lengths().tolist() == [len(sentence(index, 0)), len(sentence(index, 1))]


class TestRetokenize:
    def test_removed_token_absent_everywhere(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(
            ["abc abc", "cab cab"], [MARKER + "abc", MARKER + "cab", "zzz"]
        )
        unused = vocab.id_of["zzz"]
        before, nll_before = _sentences(index), nll.copy()
        delta, touched = retokenize_sentences(nll, index, {unused}, cv, table, 2)
        assert delta == 0.0 and len(touched) == 0
        assert "zzz" not in cv.active
        assert _sentences(index) == before
        assert nll.tobytes() == nll_before.tobytes()

    def test_word_initial_removal_forces_longer_segmentation(self):
        # removing a word-initial token re-segments that word only
        lines = ["include the directive", "include it"]
        extras = [MARKER + "includ", MARKER + "inc", "de", "e", MARKER + "the",
                  MARKER + "directive", MARKER + "it"]
        corpus, vocab, cv, nll, index, table = _setup_encoded(lines, extras)
        includ = vocab.id_of[MARKER + "includ"]
        tokens_of = lambda s: [vocab.tokens[t] for t in sentence(index, s)]
        assert tokens_of(0)[:2] == [MARKER + "includ", "e"]
        tail_before = tokens_of(0)[2:]
        retokenize_sentences(nll, index, {includ}, cv, table, 2)
        assert tokens_of(0)[:4] == [MARKER + "inc", "l", "u", "de"]
        assert tokens_of(0)[4:] == tail_before

    def test_matches_full_reencode_oracle(self):
        rng = np.random.default_rng(3)
        lines = [
            " ".join(
                "".join(rng.choice(list("abcd"), size=rng.integers(2, 6)))
                for _ in range(rng.integers(2, 6))
            )
            for _ in range(30)
        ]
        extras = [MARKER + "ab", "ab", "cd", MARKER + "abc", "bcd", "abc"]
        corpus, vocab, cv, nll, index, table = _setup_encoded(lines, extras)
        target = vocab.id_of["ab"]
        alive = set(range(len(vocab))) - {target}
        cv2 = encoder.compile(vocab, alive)
        retokenize_sentences(nll, index, {target}, cv, table, 2)
        scratch = encoder.encode_corpus(corpus, cv2)
        assert _sentences(index) == [a.tolist() for a in scratch.ids]
        assert build_index(corpus, cv2) == index
        # rescored entries equal a fresh fill over the re-encoded corpus
        assert np.array_equal(nll, attach_nll_cache(scratch, table, 2)[0])

    def test_reports_tokens_of_rescored_sentences_before_and_after(self):
        lines = ["include the directive", "include it", "the it"]
        extras = [MARKER + "includ", MARKER + "inc", "de", "e", MARKER + "the",
                  MARKER + "directive", MARKER + "it"]
        corpus, vocab, cv, nll, index, table = _setup_encoded(lines, extras)
        includ = vocab.id_of[MARKER + "includ"]
        rescored = sorted(index.sentences(includ))
        before = {t for s in rescored for t in sentence(index, s)}
        _, touched = retokenize_sentences(nll, index, {includ}, cv, table, 2)
        after = {t for s in rescored for t in sentence(index, s)}
        assert rescored == [0, 1] and before != after
        assert touched.tolist() == sorted(before | after)

    def test_locality_untouched_sentences_bit_identical(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(
            ["abc abc", "bbb bbb"], [MARKER + "abc", "bb"]
        )
        abc = vocab.id_of[MARKER + "abc"]
        before, nll_before = _sentences(index), nll.copy()
        retokenize_sentences(nll, index, {abc}, cv, table, 2)
        assert sentence(index, 0) != before[0]
        assert sentence(index, 1) == before[1]
        assert nll[1:].tobytes() == nll_before[1:].tobytes()

    def test_protected_token_removal_rejected(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(["ab ab"], ["ab"])
        single = vocab.id_of["a"]
        with pytest.raises(VocabError):
            retokenize_sentences(nll, index, {single}, cv, table, 2)
        assert cv.active == encoder.compile(vocab).active

    def test_delta_tracks_total(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(
            ["abc abc abc", "abc cab"], [MARKER + "abc", "bc"]
        )
        total_before = nll.sum()
        abc = vocab.id_of[MARKER + "abc"]
        delta, _ = retokenize_sentences(nll, index, {abc}, cv, table, 2)
        assert nll.sum() == pytest.approx(total_before + delta, rel=1e-12)


class TestPruneRules:
    def test_prunable_is_the_unprotected_active_ids_in_id_order(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(["ab cd", "ef"], [MARKER + "ab", "cd", MARKER + "ef"])
        extras = [vocab.id_of[t] for t in (MARKER + "ab", "cd", MARKER + "ef")]
        assert prunable(cv) == sorted(extras)
        index.resegment([vocab.id_of["cd"]], cv)
        assert prunable(cv) == sorted(set(extras) - {vocab.id_of["cd"]})

    def test_loss_then_frequency_then_string(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(
            ["ab cd ab", "ef gh"], [MARKER + "ab", MARKER + "cd", MARKER + "ef", MARKER + "gh"]
        )
        ab, cd, ef, gh = (vocab.id_of[MARKER + w] for w in ("ab", "cd", "ef", "gh"))
        assert index.frequencies()[[ab, cd, ef, gh]].tolist() == [2, 1, 1, 1]
        # ab and cd tie in loss: the rarer cd goes first; ef and cd tie in
        # loss and frequency: the smaller string goes first
        losses = {ab: 0.5, ef: 0.5, gh: 0.7, cd: 0.5}
        assert prune_order(losses, index, cv) == [cd, ef, ab, gh]


class TestRoundTrip:
    def test_decode_reproduces_pretokenized_words(self):
        corpus, vocab, cv, nll, index, table = _setup_encoded(
            ["the cat", "a hat"], [MARKER + "the", "at"]
        )
        store = index.store(vocab.digest())
        for s in range(len(store)):
            assert decode_words(index, s, vocab) == pretokenize(corpus.lines[s])
            assert decode_line(index, s, vocab) == corpus.lines[s]
            assert store.ids[s].tolist() == sentence(index, s)

    def test_decode_with_unk_characters(self):
        corpus = RawCorpus.from_lines(["ax¤y b"])
        vocab = Vocabulary([MARKER, "a", "b", "x", "y", MARKER + "a", MARKER + "b"])
        cv = encoder.compile(vocab)
        index = build_index(corpus, cv)
        assert vocab.unk_id in encoder.encode_corpus(corpus, cv).ids[0]
        assert decode_line(index, 0, vocab) == "ax¤y b"

    def test_encoder_agrees_with_naive_scan(self):
        vocab = Vocabulary([MARKER, "a", "b", "c", MARKER + "a", MARKER + "ab", "bc"])
        cv = encoder.compile(vocab)
        for word in [MARKER + "abc", MARKER + "abcbc", MARKER + "ccc"]:
            got = [vocab.tokens[i] for i in cv.encode_word(word)]
            assert got == naive_encode_word(vocab.tokens, word)


class TestSegmentWithout:
    def test_equals_a_full_banned_encode(self):
        # the tokens before the banned token's first occurrence are kept and
        # only the rest of the word is segmented again; UNK characters ("¤",
        # "𝔘") count one character each in that prefix
        rng = np.random.default_rng(23)
        alphabet = list("abc")
        for _ in range(200):
            tokens = {MARKER, *alphabet}
            for _i in range(int(rng.integers(1, 10))):
                token = "".join(rng.choice(alphabet, size=int(rng.integers(2, 5))))
                tokens.add(MARKER + token if rng.random() < 0.3 else token)
            vocab = Vocabulary(sorted(tokens))
            cv = encoder.compile(vocab)
            letters = alphabet + ["¤", "𝔘"]
            lines = [" ".join("".join(rng.choice(letters, size=int(rng.integers(1, 9))))
                              for _w in range(int(rng.integers(1, 4)))) for _l in range(6)]
            index = build_index(RawCorpus.from_lines(lines), cv)
            for t in range(len(vocab)):
                banned = frozenset((t,))
                expected = {w: cv.encode_word(index.types[w], banned) for w in index.postings.get(t, ())}
                assert index.segment_without(t, cv) == expected


def _assert_matches_rebuild(corpus, index, cv):
    """The maintained index equals a scratch build under ``cv``, its store
    snapshot equals a fresh encode, and derived frequencies equal a store
    bincount.

    The maintained index built its pruning maps on first use and has kept
    them in step since; the scratch build has not built them yet, and the
    comparison builds and compares them.
    """
    scratch = build_index(corpus, cv)
    assert index._postings is not None and scratch._postings is None
    assert index == scratch
    assert index.postings == scratch.postings
    assert index.type_sentences == scratch.type_sentences
    store = index.store(cv.vocab.digest())
    fresh = encoder.encode_corpus(corpus, cv)
    assert len(store) == len(fresh)
    assert np.array_equal(store.flat, fresh.flat)
    assert np.array_equal(store.lengths, fresh.lengths)
    n = cv.unk_id
    counts = np.bincount(np.concatenate(store.ids), minlength=n + 1)[:n]
    assert np.array_equal(index.frequencies(), counts)


@pytest.mark.parametrize("trainer", ["sage", "unigram"])
def test_index_matches_rebuild_after_every_step(trainer, monkeypatch):
    corpus = RawCorpus.from_lines(generate_corpus(60, seed=17, n_stems=50))
    if trainer == "sage":
        cfg = SageConfig(
            final_size=70, overshoot=1.5, prune_batch=5, recalc_period=2, candidate_pool=20,
            embed_period=2, window=2, embed=EmbedConfig(dim=6, window=2, negatives=2, epochs=1),
        )
        state = init_state(corpus, cfg)
        steps = 0
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
            _assert_matches_rebuild(corpus, state.index, state.cv)
            steps += 1
    else:
        resegment = WordIndex.resegment
        steps = 0

        def checked(index, removed, cv):
            nonlocal steps
            resegment(index, removed, cv)
            _assert_matches_rebuild(corpus, index, cv)
            steps += 1

        monkeypatch.setattr(WordIndex, "resegment", checked)
        full = init_substring_vocab(corpus, max_len=6)
        train_unigram(corpus, len(full) - 40, prune_batch=4, max_len=6)
    assert steps >= 5
