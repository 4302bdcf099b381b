import json
import shutil
import zipfile

import numpy as np
import pytest

from sagetok import encoder, sage
from sagetok.corpus import RawCorpus, build_index
from sagetok.embeddings import EmbedConfig
from sagetok.errors import ConfigError, DataError, VocabError
from sagetok.objective import ablation_losses, attach_nll_cache, batched_sentence_nll
from sagetok.sage import (
    SageConfig,
    init_state,
    load_checkpoint,
    prune_iteration,
    save_checkpoint,
    save_events,
    train_sage,
)
from sagetok.vocab import MARKER, Vocabulary, is_protected, save_vocab

from conftest import random_table
from oracles import decode_line, exhaustive_prune_oracle, flatten, sentence
from textgen import generate_corpus


def _small_embed(seed=5):
    return EmbedConfig(dim=6, window=3, negatives=3, epochs=1, seed=seed)


def _toy_corpus(n_lines=60, seed=0):
    return RawCorpus.from_lines(generate_corpus(n_lines, seed=seed, n_stems=60))


class TestSageConfig:
    def test_initial_size_arithmetic(self):
        assert SageConfig(final_size=16000, overshoot=1.25).initial_size() == 20000

    def test_pool_must_cover_batch(self):
        cfg = SageConfig(final_size=10, prune_batch=5, candidate_pool=4)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_overshoot_must_exceed_target(self):
        cfg = SageConfig(final_size=10, overshoot=1.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_file_base_requires_path(self):
        cfg = SageConfig(final_size=10, base_trainer="file")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unigram_limits_listed_with_the_other_problems(self):
        cfg = SageConfig(final_size=10, window=0, unigram_max_len=0, unigram_min_count=-3)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        for message in ("window must be >= 1", "unigram_max_len must be >= 1", "unigram_min_count must be >= 1"):
            assert message in str(err.value)

    def test_defaults_match_documented_values(self):
        cfg = SageConfig(final_size=16000)
        assert (cfg.overshoot, cfg.prune_batch, cfg.candidate_pool) == (1.25, 100, 1500)
        assert (cfg.recalc_period, cfg.embed_period, cfg.window) == (10, 4, 5)
        assert (cfg.embed.dim, cfg.embed.window, cfg.embed.negatives) == (50, 5, 15)


class TestInitState:
    def test_invariants_on_toy_corpus(self):
        corpus = _toy_corpus(50)
        cfg = SageConfig(
            final_size=70, overshoot=1.4, prune_batch=4, recalc_period=2,
            candidate_pool=20, embed_period=2, window=2, embed=_small_embed(),
        )
        state = init_state(corpus, cfg)
        assert state.iteration == 0
        assert set(state.cv.active.values()) == set(range(len(state.vocab)))
        # the index round-trips every sentence, and a store snapshot of it
        # holds each sentence's ids
        store = state.index.store(state.vocab.digest())
        for s in range(len(store)):
            assert decode_line(state.index, s, state.vocab) == corpus.lines[s]
            assert store.ids[s].tolist() == sentence(state.index, s)
        # index equals a fresh build
        assert build_index(corpus, state.cv) == state.index
        # per-sentence likelihoods sum to the maintained total
        assert state.total_nll == pytest.approx(float(np.sum(state.nll)), rel=1e-12)
        # frequencies match a scratch count
        counts = np.zeros(len(state.vocab), dtype=np.int64)
        for ids in store.ids:
            counts += np.bincount(ids, minlength=len(state.vocab))[: len(state.vocab)]
        assert np.array_equal(counts, state.index.frequencies())

    def test_one_step_when_overshoot_is_one_token(self):
        corpus = _toy_corpus(40)
        probe = init_state(
            corpus,
            SageConfig(final_size=60, overshoot=1.5, prune_batch=3, recalc_period=2,
                       candidate_pool=12, window=2, embed=_small_embed()),
        )
        base = len(probe.vocab)
        cfg = SageConfig(
            final_size=base - 1, overshoot=base / (base - 1), prune_batch=3,
            recalc_period=2, candidate_pool=12, window=2, embed=_small_embed(),
        )
        assert cfg.initial_size() == base
        vocab, events = train_sage(corpus, cfg)
        assert len(events) == 1
        assert len(events[0]["pruned"]) == 1
        assert len(vocab) == base - 1

    def test_base_vocab_below_target_rejected(self):
        corpus = RawCorpus.from_lines(["ab ab"])
        cfg = SageConfig(final_size=50, overshoot=1.2, candidate_pool=100,
                         prune_batch=1, window=2, embed=_small_embed())
        with pytest.raises(Exception):
            init_state(corpus, cfg)


class TestPruneIteration:
    def test_embedding_retrain_schedule(self):
        corpus = _toy_corpus(50, seed=3)
        cfg = SageConfig(
            final_size=62, overshoot=1.6, prune_batch=2, recalc_period=2,
            candidate_pool=30, embed_period=2, window=2, embed=_small_embed(),
        )
        state = init_state(corpus, cfg)
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        cycle = cfg.embed_period * cfg.recalc_period
        for event in state.events:
            expected = event["iteration"] % cycle == 0 and event["iteration"] > 0
            assert event["embeddings_retrained"] == expected

    def test_final_batch_is_partial(self):
        corpus = _toy_corpus(40, seed=4)
        probe = init_state(
            corpus,
            SageConfig(final_size=55, overshoot=1.5, prune_batch=4, recalc_period=3,
                       candidate_pool=16, window=2, embed=_small_embed()),
        )
        base = len(probe.vocab)
        cfg = SageConfig(
            final_size=base - 5, overshoot=(base - 0.5) / (base - 5), prune_batch=4,
            recalc_period=3, candidate_pool=16, window=2, embed=_small_embed(),
        )
        assert cfg.initial_size() == base
        vocab, events = train_sage(corpus, cfg)
        assert [len(e["pruned"]) for e in events] == [4, 1]

    def test_bottom_set_only_rescored_between_full_recalcs(self):
        corpus = _toy_corpus(60, seed=5)
        cfg = SageConfig(
            final_size=60, overshoot=1.6, prune_batch=2, recalc_period=4,
            candidate_pool=10, embed_period=4, window=2, embed=_small_embed(),
        )
        state = init_state(corpus, cfg)
        sizes = []
        while state.alive_size() > cfg.final_size:
            bottom_before = len(state.bottom)
            prune_iteration(state, cfg)
            event = state.events[-1]
            if not event["full_recalc"]:
                assert event["loss_evals"] <= cfg.candidate_pool
                assert event["loss_evals"] == bottom_before
            sizes.append(event["vocab_size"])
        assert sizes == sorted(sizes, reverse=True)

    def test_forced_recalc_on_bottom_exhaustion(self):
        corpus = _toy_corpus(60, seed=6)
        # pool barely above batch size so it drains before the scheduled recalc
        cfg = SageConfig(
            final_size=58, overshoot=1.7, prune_batch=3, recalc_period=10,
            candidate_pool=4, embed_period=2, window=2, embed=_small_embed(),
        )
        state = init_state(corpus, cfg)
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        assert any(e["forced_recalc"] for e in state.events)
        for e in state.events:
            if e["forced_recalc"]:
                assert e["full_recalc"]

    def test_incremental_caches_match_scratch_after_every_iteration(self):
        corpus = _toy_corpus(80, seed=7)
        probe = init_state(
            corpus,
            SageConfig(final_size=80, overshoot=1.5, prune_batch=8, recalc_period=2,
                       candidate_pool=40, window=2, embed=_small_embed()),
        )
        base = len(probe.vocab)
        target = base - 40
        cfg = SageConfig(
            final_size=target, overshoot=(base - 0.5) / target, prune_batch=8,
            recalc_period=2, candidate_pool=40, embed_period=2, window=2,
            embed=_small_embed(),
        )
        assert cfg.initial_size() == base
        state = init_state(corpus, cfg)
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
            # cache-maintained total against a from-scratch rescore
            scratch = encoder.encode_corpus(corpus, state.cv)
            scratch_total = float(
                np.sum(batched_sentence_nll(*flatten(scratch.ids), state.table, cfg.window))
            )
            assert state.total_nll == pytest.approx(scratch_total, rel=1e-6)
            # maintained index against a fresh build
            assert build_index(corpus, state.cv) == state.index
            # maintained per-sentence NLL against a fresh fill, bit-for-bit
            assert np.array_equal(state.nll, attach_nll_cache(scratch, state.table, cfg.window)[0])

    def test_pruning_below_target_rejected(self):
        corpus = _toy_corpus(30, seed=8)
        cfg = SageConfig(final_size=40, overshoot=1.3, prune_batch=2, recalc_period=2,
                         candidate_pool=10, window=2, embed=_small_embed())
        state = init_state(corpus, cfg)
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        with pytest.raises(VocabError):
            prune_iteration(state, cfg)


def _assert_entries_fresh(state, cfg):
    """Every loss the next iteration may reuse equals a from-scratch
    ablation_losses call on the current state, bit for bit, and so do the
    tokens its banned segmentation uses."""
    kept = sorted(state.scored)
    fresh = ablation_losses(kept, state.nll, state.index, state.table, state.cv, cfg.window)
    assert [(r.loss, r.uses) for r in fresh] == [state.scored[t] for t in kept]


class TestLossReuse:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_reused_losses_equal_fresh_scores(self, seed, tmp_path, monkeypatch):
        corpus = RawCorpus.from_lines(generate_corpus(150, seed=seed, n_stems=90))
        cfg = SageConfig(
            final_size=100, overshoot=1.45, prune_batch=3, recalc_period=3,
            candidate_pool=30, embed_period=2, window=3, embed=_small_embed(),
        )
        scored = []
        real = sage.ablation_losses

        def counting(candidates, *args):
            scored.append(len(candidates))
            return real(candidates, *args)

        monkeypatch.setattr(sage, "ablation_losses", counting)
        # ``plain`` forgets every loss before each iteration, as if nothing
        # were reused; ``resumed`` continues from a mid-run checkpoint
        state, plain, resumed = init_state(corpus, cfg), init_state(corpus, cfg), None
        path = tmp_path / "run.ckpt.npz"
        state_scored = 0
        while state.alive_size() > cfg.final_size:
            plain.scored.clear()
            prune_iteration(plain, cfg)
            assert scored.pop() == plain.events[-1]["loss_evals"]
            prune_iteration(state, cfg)
            state_scored += scored.pop()
            _assert_entries_fresh(state, cfg)
            if resumed is not None:
                prune_iteration(resumed, cfg)
                _assert_entries_fresh(resumed, cfg)
            if state.iteration == 7:
                save_checkpoint(state, cfg, corpus, path)
                resumed = load_checkpoint(path, corpus, cfg)
                assert resumed.scored == {}
        assert len(state.events) == 15
        assert any(e["embeddings_retrained"] for e in state.events[7:])
        assert json.dumps(state.events) == json.dumps(plain.events) == json.dumps(resumed.events)
        # the run reused losses: it scored fewer candidates than it ranked
        assert state_scored < sum(e["loss_evals"] for e in state.events)

    def test_prune_that_changes_a_banned_segmentation_drops_the_loss(self):
        # c = "▁abc" is the whole word "▁abc"; with c banned the word
        # segments "▁ab c", which uses p = "▁ab". p also segments "▁abd".
        # Pruning p rescores only the sentence "abd r", which does not hold
        # c, yet it changes c's banned segmentation and so its loss
        lines = ["abc q", "abd r"]
        chars = sorted({ch for line in lines for ch in MARKER + line.replace(" ", "")})
        vocab = Vocabulary(chars + [MARKER + "ab", MARKER + "abc"])
        p, c = vocab.id_of[MARKER + "ab"], vocab.id_of[MARKER + "abc"]
        cfg = SageConfig(final_size=len(vocab) - 1, prune_batch=1, recalc_period=10,
                         candidate_pool=10, embed_period=1000, window=2, embed=_small_embed())
        table = random_table(len(vocab), 6, np.random.default_rng(31), window=2)
        state = sage._encoded_state(RawCorpus.from_lines(lines), cfg, vocab, set(range(len(vocab))), table)
        before = ablation_losses([c], state.nll, state.index, table, state.cv, cfg.window)[0]
        assert p in before.uses
        # a bottom-set iteration between full recalculations, in which p's
        # loss is the lowest and c is scored
        state.iteration, state.bottom, state.scored = 1, {p: -1e9, c: before.loss}, {p: (-1e9, frozenset())}
        nll_before = state.nll.copy()
        prune_iteration(state, cfg)
        assert [e["id"] for e in state.events[-1]["pruned"]] == [p]
        assert state.index.segs[state.index.types.index(MARKER + "abc")] == [c]
        assert state.nll[0] == nll_before[0] and state.nll[1] != nll_before[1]
        assert c not in state.scored
        after = ablation_losses([c], state.nll, state.index, table, state.cv, cfg.window)[0]
        assert p not in after.uses and after.loss != before.loss


class TestExhaustiveOracle:
    def test_heuristic_loop_equals_exhaustive_loop(self):
        corpus = RawCorpus.from_lines(generate_corpus(120, seed=9, n_stems=40))
        assert len(corpus) <= 200
        probe_cfg = SageConfig(
            final_size=90, overshoot=1.3, prune_batch=1, recalc_period=1,
            candidate_pool=10_000, embed_period=10**6, window=2,
            embed=_small_embed(seed=11),
        )
        state = init_state(corpus, probe_cfg)
        base = len(state.vocab)
        assert base <= 120
        target = base - 25
        cfg = SageConfig(
            final_size=target, overshoot=(base - 0.5) / target, prune_batch=1,
            recalc_period=1, candidate_pool=10_000, embed_period=10**6, window=2,
            embed=_small_embed(seed=11),
        )
        assert cfg.initial_size() == base
        state = init_state(corpus, cfg)
        frozen_table = state.table
        initial_vocab = state.vocab
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        got_sequence = [e["pruned"][0]["id"] for e in state.events]
        want_sequence = exhaustive_prune_oracle(
            corpus, initial_vocab, frozen_table, cfg.window, target, prune_batch=1
        )
        assert got_sequence == want_sequence


class TestTrainSage:
    def test_zero_iterations_with_exact_size_external_vocab(self, tmp_path):
        corpus = _toy_corpus(30, seed=10)
        from sagetok.bpe import train_bpe

        base_vocab, _ = train_bpe(corpus, 70)
        path = tmp_path / "base.vocab"
        save_vocab(base_vocab, path)
        cfg = SageConfig(
            final_size=len(base_vocab), base_trainer="file", initial_vocab_path=str(path),
            prune_batch=2, recalc_period=2, candidate_pool=10, window=2,
            embed=_small_embed(),
        )
        vocab, events = train_sage(corpus, cfg)
        assert events == []
        assert vocab.tokens == base_vocab.tokens

    def test_deterministic_rerun(self):
        corpus = _toy_corpus(60, seed=11)
        cfg = SageConfig(
            final_size=65, overshoot=1.5, prune_batch=5, recalc_period=2,
            candidate_pool=25, embed_period=2, window=2, embed=_small_embed(),
        )
        v1, e1 = train_sage(corpus, cfg)
        v2, e2 = train_sage(corpus, cfg)
        assert v1.tokens == v2.tokens
        assert json.dumps(e1) == json.dumps(e2)

    def test_output_invariants(self):
        corpus = _toy_corpus(60, seed=12)
        cfg = SageConfig(
            final_size=70, overshoot=1.4, prune_batch=6, recalc_period=2,
            candidate_pool=30, embed_period=2, window=2, embed=_small_embed(),
        )
        state = init_state(corpus, cfg)
        initial_tokens = set(state.vocab.tokens)
        protected = {t for t in state.vocab.tokens if is_protected(t)}
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        final = state.alive_vocabulary()
        assert len(final) == cfg.final_size
        assert protected <= set(final.tokens)
        assert set(final.tokens) <= initial_tokens
        for event in state.events:
            for entry in event["pruned"]:
                assert not is_protected(entry["token"])

    def test_event_log_replays_vocabulary(self):
        corpus = _toy_corpus(50, seed=13)
        cfg = SageConfig(
            final_size=68, overshoot=1.4, prune_batch=4, recalc_period=2,
            candidate_pool=16, embed_period=2, window=2, embed=_small_embed(),
        )
        state = init_state(corpus, cfg)
        initial = list(state.vocab.tokens)
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        removed = {e["token"] for ev in state.events for e in ev["pruned"]}
        replayed = [t for t in initial if t not in removed]
        assert replayed == list(state.alive_vocabulary().tokens)


class TestCheckpoint:
    def test_resume_equals_uninterrupted(self, tmp_path):
        corpus = _toy_corpus(50, seed=14)
        cfg = SageConfig(
            final_size=64, overshoot=1.5, prune_batch=4, recalc_period=2,
            candidate_pool=20, embed_period=2, window=2, embed=_small_embed(),
        )
        # uninterrupted run
        direct_vocab, direct_events = train_sage(corpus, cfg)
        # interrupted: stop after 2 iterations, checkpoint, resume
        state = init_state(corpus, cfg)
        prune_iteration(state, cfg)
        prune_iteration(state, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, cfg, corpus, path)
        resumed_vocab, resumed_events = train_sage(corpus, cfg, resume_path=path)
        assert resumed_vocab.tokens == direct_vocab.tokens
        assert json.dumps(resumed_events) == json.dumps(direct_events)

    @pytest.mark.parametrize("every, expected", [(4, [4, 8]), (3, [3, 6, 8]), (None, [8])])
    def test_final_checkpoint_written_once(self, tmp_path, monkeypatch, every, expected):
        corpus = _toy_corpus(50, seed=14)
        cfg = SageConfig(
            final_size=64, overshoot=1.5, prune_batch=4, recalc_period=2,
            candidate_pool=20, embed_period=2, window=2, embed=_small_embed(),
        )
        saved = []
        real = sage.save_checkpoint

        def counting(state, *args):
            saved.append(state.iteration)
            real(state, *args)

        monkeypatch.setattr(sage, "save_checkpoint", counting)
        path = tmp_path / "run.ckpt.npz"
        vocab, events = train_sage(corpus, cfg, checkpoint_path=path, checkpoint_every=every)
        assert len(events) == 8
        # the loop's last step wrote the final state already when 8 is a multiple of every
        assert saved == expected
        final = tmp_path / "final.npz"
        shutil.copy(path, final)
        # no iteration runs on a resume from the final state, so it is written once more
        resumed_vocab, resumed_events = train_sage(
            corpus, cfg, checkpoint_path=path, checkpoint_every=every, resume_path=path
        )
        assert saved == expected + [8]
        assert resumed_vocab.tokens == vocab.tokens
        assert json.dumps(resumed_events) == json.dumps(events)
        # the rewrite holds the restored state, the bottom set and its
        # losses among it, member for member
        with np.load(final) as want, np.load(path) as got:
            assert len(want["bottom"]) > 0
            assert got.files == want.files
            for name in want.files:
                assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_compressed_checkpoint_resumes(self, tmp_path):
        # checkpoints are written stored (uncompressed); one written
        # compressed, as earlier versions did, resumes all the same
        corpus = _toy_corpus(50, seed=14)
        cfg = SageConfig(
            final_size=64, overshoot=1.5, prune_batch=4, recalc_period=2,
            candidate_pool=20, embed_period=2, window=2, embed=_small_embed(),
        )
        direct_vocab, direct_events = train_sage(corpus, cfg)
        state = init_state(corpus, cfg)
        prune_iteration(state, cfg)
        prune_iteration(state, cfg)
        path = tmp_path / "run.ckpt.npz"
        save_checkpoint(state, cfg, corpus, path)
        with zipfile.ZipFile(path) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path) as z:
            arrays = {name: z[name] for name in z.files}
        packed = tmp_path / "packed.npz"
        np.savez_compressed(packed, **arrays)
        with zipfile.ZipFile(packed) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_DEFLATED}
        resumed_vocab, resumed_events = train_sage(corpus, cfg, resume_path=packed)
        assert resumed_vocab.tokens == direct_vocab.tokens
        assert json.dumps(resumed_events) == json.dumps(direct_events)

    def test_checkpoint_rejects_other_config(self, tmp_path):
        corpus = _toy_corpus(30, seed=15)
        cfg = SageConfig(final_size=55, overshoot=1.3, prune_batch=2, recalc_period=2,
                         candidate_pool=10, window=2, embed=_small_embed())
        state = init_state(corpus, cfg)
        prune_iteration(state, cfg)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(state, cfg, corpus, path)
        other = SageConfig(final_size=54, overshoot=1.3, prune_batch=2, recalc_period=2,
                           candidate_pool=10, window=2, embed=_small_embed())
        with pytest.raises(ConfigError):
            load_checkpoint(path, corpus, other)

    @staticmethod
    def _rewritten_checkpoint(path, edit):
        """A checkpoint after one iteration, saved to ``path`` and then
        rewritten with ``edit(arrays, vocabulary size)`` applied to its
        member arrays; returns the corpus and config to resume with."""
        corpus = _toy_corpus(30, seed=15)
        cfg = SageConfig(final_size=55, overshoot=1.3, prune_batch=2, recalc_period=2,
                         candidate_pool=10, window=2, embed=_small_embed())
        state = init_state(corpus, cfg)
        prune_iteration(state, cfg)
        save_checkpoint(state, cfg, corpus, path)
        with np.load(path) as z:
            arrays = dict(z)
        edit(arrays, len(state.vocab))
        with open(path, "wb") as f:
            np.savez(f, **arrays)
        return corpus, cfg

    def test_checkpoint_ids_outside_vocabulary_rejected(self, tmp_path):
        def add_alive(arrays, size):
            arrays["alive"] = np.append(arrays["alive"], size)

        corpus, cfg = self._rewritten_checkpoint(tmp_path / "ckpt", add_alive)
        with pytest.raises(DataError, match="does not match"):
            load_checkpoint(tmp_path / "ckpt", corpus, cfg)

    @pytest.mark.parametrize("cut", ["rows", "dim"])
    def test_checkpoint_context_of_another_shape_rejected(self, tmp_path, cut):
        def shrink_context(arrays, size):
            context = arrays["context"]
            arrays["context"] = context[:-1] if cut == "rows" else context[:, :-1]

        corpus, cfg = self._rewritten_checkpoint(tmp_path / "ckpt", shrink_context)
        with pytest.raises(DataError, match="does not match"):
            load_checkpoint(tmp_path / "ckpt", corpus, cfg)

    def test_checkpoint_bottom_losses_of_another_length_rejected(self, tmp_path):
        def drop_loss(arrays, size):
            assert len(arrays["bottom_losses"]) > 0
            arrays["bottom_losses"] = arrays["bottom_losses"][:-1]

        corpus, cfg = self._rewritten_checkpoint(tmp_path / "ckpt", drop_loss)
        with pytest.raises(DataError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "ckpt", corpus, cfg)


class TestEventLogIO:
    def test_roundtrip(self, tmp_path):
        events = [
            {"iteration": 0, "pruned": [{"id": 3, "token": "ab", "loss": -0.5}],
             "vocab_size": 99, "total_nll": 123.4, "full_recalc": True,
             "forced_recalc": False, "embeddings_retrained": False, "loss_evals": 50},
        ]
        path = tmp_path / "events.jsonl"
        save_events(events, path, {"seed": 1})
        with open(path, encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        assert records == [{"meta": {"seed": 1}}] + events
