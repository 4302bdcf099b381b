import math

import numpy as np
import pytest

from sagetok import encoder, objective
from sagetok.bpe import train_bpe
from sagetok.corpus import RawCorpus, build_index, pretokenize
from sagetok.errors import VocabError
from sagetok.objective import (
    ablation_loss,
    ablation_losses,
    attach_nll_cache,
    batched_sentence_nll,
    corpus_nll,
    softplus,
)
from sagetok.vocab import MARKER, Vocabulary, is_protected

from conftest import random_table, zero_table
from oracles import flatten, gathered_sentence_nll, nll_oracle, pair_count
from textgen import generate_corpus


def one_sentence_nll(ids, table, window):
    """NLL of one sentence scored as a batch of one."""
    return float(batched_sentence_nll(*flatten([np.asarray(ids, dtype=np.int64)]), table, window)[0])


class TestSentenceNll:
    def test_single_token_no_pairs(self):
        table = zero_table(4, 3)
        assert one_sentence_nll(np.array([2]), table, 5) == 0.0

    def test_zero_embeddings_forced_value(self):
        table = zero_table(4, 3)
        val = one_sentence_nll(np.array([0, 1, 2]), table, 1)
        assert val == 4 * math.log(2)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        table = random_table(10, 5, rng)
        ids = rng.integers(0, 10, size=6)
        got = one_sentence_nll(ids, table, 2)
        want = nll_oracle(list(ids), table.target, table.context, 2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_id_out_of_bounds(self):
        table = zero_table(3, 2)
        with pytest.raises(VocabError):
            one_sentence_nll(np.array([0, 5]), table, 1)

    def test_window_truncated_at_ends(self):
        rng = np.random.default_rng(1)
        table = random_table(6, 4, rng)
        ids = rng.integers(0, 6, size=4)
        wide = one_sentence_nll(ids, table, 50)
        full = one_sentence_nll(ids, table, 3)
        assert wide == pytest.approx(full, abs=1e-12)


class TestCorpusNll:
    def _store(self, id_lists):
        from sagetok.corpus import SentenceStore

        return SentenceStore(*flatten(id_lists), "")

    def _total(self, id_lists, table, window):
        return corpus_nll(self._store(id_lists), table, window, np.zeros(len(id_lists)))

    def test_empty_store(self):
        assert self._total([], zero_table(3, 2), 2) == 0.0

    def test_additivity_of_duplicates(self):
        rng = np.random.default_rng(2)
        table = random_table(8, 4, rng)
        sentence = rng.integers(0, 8, size=5).tolist()
        one = self._total([sentence], table, 2)
        two = self._total([sentence, sentence], table, 2)
        assert two == 2 * one

    def test_matches_per_sentence_oracle_sum(self):
        rng = np.random.default_rng(3)
        table = random_table(12, 4, rng)
        id_lists = [rng.integers(0, 12, size=rng.integers(1, 9)).tolist() for _ in range(100)]
        got = self._total(id_lists, table, 3)
        want = sum(nll_oracle(ids, table.target, table.context, 3) for ids in id_lists)
        assert got == pytest.approx(want, abs=1e-9)

    def test_chunking_does_not_change_cache_values(self, monkeypatch):
        rng = np.random.default_rng(4)
        table = random_table(9, 4, rng)
        id_lists = [rng.integers(0, 9, size=rng.integers(1, 7)).tolist() for _ in range(50)]
        whole, whole_total = attach_nll_cache(self._store(id_lists), table, 2)
        monkeypatch.setattr(objective, "_CHUNK_SENTENCES", 3)
        chunked, chunked_total = attach_nll_cache(self._store(id_lists), table, 2)
        assert np.array_equal(whole, chunked)
        assert chunked_total == pytest.approx(whole_total, rel=1e-12)

    def test_digest_mismatch_rejected(self):
        store = self._store([[0, 1]])
        store.vocab_digest = "aaaa"
        table = zero_table(3, 2)
        table.vocab_digest = "bbbb"
        with pytest.raises(VocabError):
            corpus_nll(store, table, 2, np.zeros(1))

    def test_cache_entries_equal_single_sentence_evaluation(self):
        rng = np.random.default_rng(9)
        table = random_table(10, 4, rng)
        id_lists = [rng.integers(0, 10, size=rng.integers(1, 8)).tolist() for _ in range(30)]
        nll, total = attach_nll_cache(self._store(id_lists), table, 2)
        assert total == pytest.approx(float(np.sum(nll)), rel=1e-12)
        for s, ids in enumerate(id_lists):
            assert nll[s] == pytest.approx(one_sentence_nll(np.asarray(ids), table, 2), abs=1e-12)


def _ablation_setup(lines, extras, seed=0, window=2, dim=5):
    corpus = RawCorpus.from_lines(lines)
    chars = sorted({ch for line in corpus.lines for ch in MARKER + line.replace(" ", "")})
    vocab = Vocabulary(chars + [t for t in extras if t not in chars])
    cv = encoder.compile(vocab)
    index = build_index(corpus, cv)
    rng = np.random.default_rng(seed)
    table = random_table(len(vocab), dim, rng)
    nll, _ = attach_nll_cache(index.store(vocab.digest()), table, window)
    return corpus, vocab, cv, nll, index, table


class TestAblationLoss:
    def test_empty_postings(self):
        corpus, vocab, cv, nll, index, table = _ablation_setup(["ab ab"], ["zz"])
        result = ablation_loss(vocab.id_of["zz"], nll, index, table, cv, 2)
        assert result.loss == 0.0
        assert result.affected_sentences == 0

    def test_word_initial_ablation_matches_full_rescore(self):
        lines = ["include the directive here", "an include there", "no overlap line"]
        extras = [MARKER + "includ", MARKER + "inc", "de", MARKER + "the",
                  MARKER + "directive", MARKER + "here", MARKER + "an", MARKER + "there"]
        corpus, vocab, cv, nll, index, table = _ablation_setup(lines, extras)
        target = vocab.id_of[MARKER + "includ"]
        old = encoder.encode_corpus(corpus, cv)
        got = ablation_loss(target, nll, index, table, cv, 2)
        # oracle: re-encode the whole corpus from scratch and rescore everything
        alive = set(range(len(vocab))) - {target}
        cv2 = encoder.compile(vocab, alive)
        scratch = encoder.encode_corpus(corpus, cv2)
        new_total = float(np.sum(batched_sentence_nll(*flatten(scratch.ids), table, 2)))
        old_total = float(np.sum(batched_sentence_nll(*flatten(old.ids), table, 2)))
        assert got.loss == pytest.approx(new_total - old_total, abs=1e-10)
        assert got.affected_sentences == 2

    def test_zero_embeddings_reduce_to_pair_counting(self):
        lines = ["abc abc abc", "abc x"]
        extras = [MARKER + "abc", "bc"]
        corpus, vocab, cv, nll, index, table = _ablation_setup(lines, extras)
        ztable = zero_table(len(vocab), 4)
        store = index.store(vocab.digest())
        znll, _ = attach_nll_cache(store, ztable, 2)
        target = vocab.id_of[MARKER + "abc"]
        got = ablation_loss(target, znll, index, ztable, cv, 2)
        alive = set(range(len(vocab))) - {target}
        scratch = encoder.encode_corpus(corpus, encoder.compile(vocab, alive))
        diff = sum(pair_count(list(ids), 2) for ids in scratch.ids) - sum(
            pair_count(list(ids), 2) for ids in store.ids
        )
        assert got.loss == pytest.approx(math.log(2) * diff, rel=1e-12)

    def test_purity_store_untouched(self):
        corpus, vocab, cv, nll, index, table = _ablation_setup(
            ["abab abab", "ba ab"], ["ab", "ba", MARKER + "ab"]
        )
        nll_before = nll.copy()
        ablation_loss(vocab.id_of["ab"], nll, index, table, cv, 2)
        assert np.array_equal(nll_before, nll)
        assert index == build_index(corpus, cv)

    def test_stored_segmentations_give_identical_loss(self):
        # ablation re-segments only the word types holding the token and
        # reuses the index's segmentation for the rest; banning the token
        # while re-segmenting every word of the affected sentences agrees
        lines = ["abc abc ab", "ab abc", "cc ab cc"]
        extras = ["ab", "abc", MARKER + "ab", MARKER + "abc", "cc"]
        corpus, vocab, cv, nll, index, table = _ablation_setup(lines, extras)
        for token in ["ab", "abc", MARKER + "abc"]:
            t = vocab.id_of[token]
            affected = sorted(index.sentences(t))
            banned = frozenset((t,))
            rescored = [
                np.asarray([i for w in pretokenize(corpus.lines[s]) for i in cv.encode_word(w, banned)])
                for s in affected
            ]
            want = float(np.sum(batched_sentence_nll(*flatten(rescored), table, 2)) - np.sum(nll[affected]))
            assert ablation_loss(t, nll, index, table, cv, 2).loss == want

    def test_protected_token_rejected(self):
        corpus, vocab, cv, nll, index, table = _ablation_setup(["ab ab"], [])
        with pytest.raises(VocabError):
            ablation_loss(vocab.id_of["a"], nll, index, table, cv, 2)


class TestAblationLosses:
    @pytest.mark.parametrize("budget", [1, 7, None, 10**9])
    def test_batches_equal_one_candidate_at_a_time(self, monkeypatch, budget):
        # batching candidates and cutting one into parts only regroup
        # sentences, so every score must be exactly the one-candidate score;
        # budget None keeps the module's own
        corpus = RawCorpus.from_lines(generate_corpus(150, seed=4, n_stems=90))
        vocab, _ = train_bpe(corpus, 220)
        cv = encoder.compile(vocab)
        index = build_index(corpus, cv)
        table = random_table(len(vocab), 6, np.random.default_rng(4))
        nll, _ = attach_nll_cache(index.store(vocab.digest()), table, 3)
        candidates = [t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])]
        single = [ablation_loss(t, nll, index, table, cv, 3) for t in candidates]

        passes = []

        def counted(ids, lengths, table, window):
            passes.append((len(lengths), len(ids), int(lengths.max(initial=0))))
            return batched_sentence_nll(ids, lengths, table, window)

        monkeypatch.setattr(objective, "batched_sentence_nll", counted)
        if budget is not None:
            monkeypatch.setattr(objective, "_SCORE_BUDGET_TOKENS", budget)
        batched = ablation_losses(candidates, nll, index, table, cv, 3)
        assert [r.token_id for r in batched] == candidates
        for got, want in zip(batched, single):
            assert got.loss == want.loss
            assert got.affected_sentences == want.affected_sentences
            assert got.uses == want.uses
        assert sum(n for n, _, _ in passes) == sum(r.affected_sentences for r in single)
        # a pass holds at most a budget of tokens, or one part of a candidate
        # whose sentences start within a budget of tokens of each other
        limit = objective._SCORE_BUDGET_TOKENS
        assert all(tokens <= limit + longest for _, tokens, longest in passes)
        if budget == 1:
            assert all(n == 1 for n, _, _ in passes)
        elif budget == 7:
            # candidates cut into parts, so more passes than candidates scored
            assert len(passes) > sum(1 for r in single if r.affected_sentences)
        elif budget == 10**9:
            assert len(passes) == 1
        else:
            assert 1 < len(passes) < len(candidates)

    def test_protected_candidate_rejected(self):
        corpus, vocab, cv, nll, index, table = _ablation_setup(["ab ab"], ["ab"])
        ids = [vocab.id_of["ab"], vocab.id_of["a"]]
        with pytest.raises(VocabError):
            ablation_losses(ids, nll, index, table, cv, 2)


def _zipf_sentences(rng, rows, tokens):
    """Sentences of 1 to 30 ids, Zipf-distributed so that pairs repeat,
    holding at least ``tokens`` ids in all."""
    sentences, total = [], 0
    while total < tokens:
        ids = (rng.zipf(1.3, size=int(rng.integers(1, 31))) - 1) % rows
        sentences.append(ids.astype(np.int32))
        total += len(ids)
    return sentences


class TestPairTerms:
    """The scorer reads each pair's term from the table's pair-term store;
    every result must equal the gather-and-recompute oracle bit for bit."""

    def test_workload_shaped_batch(self):
        rng = np.random.default_rng(21)
        table = random_table(750, 50, rng, scale=0.3)
        batches = [_zipf_sentences(rng, 750, 8192) for _ in range(3)]
        for batch in batches + batches:
            assert np.array_equal(batched_sentence_nll(*flatten(batch), table, 5), gathered_sentence_nll(batch, table, 5))
        assert len(table.pair_terms) > 1000

    def test_both_orders_self_pairs_and_last_id(self):
        rng = np.random.default_rng(22)
        rows = 12
        table = random_table(rows, 7, rng)
        a, b, last = 3, 8, rows - 1
        sentences = [np.array(s) for s in (
            [a, a], [a, b], [b, a], [last, a], [a, last], [last, last], [b, last, a, a, last, b],
        )]
        for window in (1, 3):
            one_by_one = [one_sentence_nll(s, table, window) for s in sentences]
            together = batched_sentence_nll(*flatten(sentences), table, window)
            assert np.array_equal(together, gathered_sentence_nll(sentences, table, window))
            assert together.tolist() == one_by_one
            assert together[1] == together[2] and together[3] == together[4]

    def test_terms_that_underflow_to_zero(self):
        # dot products above ~745 make both softplus terms exactly 0.0, and
        # a stored 0.0 must read back as the term
        rng = np.random.default_rng(23)
        table = random_table(20, 4, rng)
        table.target[:5] = 30.0
        table.context[:5] = 30.0
        sentences = [rng.integers(0, 20, size=9) for _ in range(40)] + [np.array([0, 1, 2, 3, 4])]
        for _ in range(2):
            got = batched_sentence_nll(*flatten(sentences), table, 3)
            assert np.array_equal(got, gathered_sentence_nll(sentences, table, 3))
        assert got[-1] == 0.0
        slot, absent = table.pair_terms.find(np.array([0 * 20 + 1]))
        assert len(absent) == 0 and table.pair_terms.terms[slot[0]] == 0.0

    def test_tables_of_equal_shape_scored_alternately(self):
        rng = np.random.default_rng(24)
        first, second = random_table(40, 6, rng), random_table(40, 6, rng)
        batch = _zipf_sentences(rng, 40, 500)
        for table in (first, second, first, second):
            assert np.array_equal(batched_sentence_nll(*flatten(batch), table, 4), gathered_sentence_nll(batch, table, 4))
        assert not np.array_equal(batched_sentence_nll(*flatten(batch), first, 4), batched_sentence_nll(*flatten(batch), second, 4))

    def test_table_restored_from_checkpoint(self, tmp_path):
        from sagetok.embeddings import EmbedConfig
        from sagetok.sage import SageConfig, init_state, load_checkpoint, prune_iteration, save_checkpoint

        corpus = RawCorpus.from_lines(generate_corpus(60, seed=25, n_stems=60))
        cfg = SageConfig(final_size=60, overshoot=1.4, prune_batch=4, recalc_period=2, candidate_pool=16,
                         window=3, embed=EmbedConfig(dim=6, window=3, negatives=3, epochs=1, seed=5))
        state = prune_iteration(init_state(corpus, cfg), cfg)
        path = tmp_path / "run.ckpt.npz"
        save_checkpoint(state, cfg, corpus, path)
        resumed = load_checkpoint(path, corpus, cfg)
        assert resumed.table.pair_terms is not state.table.pair_terms
        store = resumed.index.store(resumed.vocab.digest())
        assert np.array_equal(resumed.nll, gathered_sentence_nll(store.ids, resumed.table, cfg.window))
        assert np.array_equal(resumed.nll, state.nll)


    def test_large_vocabulary_scores_without_v_squared_memory(self):
        # V = 40,000: a dense V x V store would be 12.8 GB; the store must
        # grow with the distinct pairs scored instead
        import tracemalloc

        rng = np.random.default_rng(26)
        rows = 40_000
        table = random_table(rows, 4, rng)
        batch = [rng.integers(0, rows, size=int(rng.integers(2, 40))) for _ in range(300)]
        batch.append(np.array([rows - 1, 0, rows - 1, rows - 2]))
        tracemalloc.start()
        try:
            got = batched_sentence_nll(*flatten(batch), table, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.array_equal(got, gathered_sentence_nll(batch, table, 5))


class TestPairTermStore:
    def test_growth_keeps_every_key(self):
        from sagetok.objective import PairTerms

        rng = np.random.default_rng(27)
        store = PairTerms()
        keys = rng.permutation(10**7)[:50_000].astype(np.int64)
        terms = rng.random(len(keys))
        for part in np.array_split(np.arange(len(keys)), 7):
            store.add(keys[part], terms[part])
            seen = keys[: part[-1] + 1]
            slot, absent = store.find(seen)
            assert len(absent) == 0
            assert np.array_equal(store.terms[slot], terms[: part[-1] + 1])
            assert 2 * len(store) <= len(store.keys)
        slot, absent = store.find(np.array([-5 + 10**7, keys[0], 10**7 + 3]))
        assert absent.tolist() == [0, 2]
        assert store.terms[slot[1]] == terms[0]

    def test_keys_sharing_a_home_slot_in_one_batch(self):
        # many new keys race for one free slot; each must land on its own
        from sagetok.objective import PairTerms

        store = PairTerms()
        pool = np.arange(200_000, dtype=np.int64)
        homes = store._home(pool)
        keys = pool[homes == homes[0]][:40]
        assert len(keys) == 40
        terms = np.arange(len(keys), dtype=np.float64) + 0.5
        store.add(keys, terms)
        slot, absent = store.find(keys[::-1])
        assert len(absent) == 0
        assert np.array_equal(store.terms[slot], terms[::-1])
        assert len(set(slot.tolist())) == len(keys)


class TestSoftplus:
    def test_stable_for_large_inputs(self):
        assert softplus(np.array([800.0]))[0] == 800.0
        assert softplus(np.array([-800.0]))[0] == 0.0

    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-30, 30, 500)
        naive = np.log(1 + np.exp(x))
        assert np.allclose(softplus(x), naive, atol=1e-12)
