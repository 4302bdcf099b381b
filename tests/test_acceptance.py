"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 7 replicates the qualitative vocabulary comparisons at desk
scale and takes a while (a synthetic corpus of 100k+ lines, two full
vocabulary trainings, five measurement families). It runs only when
SAGETOK_ACCEPTANCE_FULL=1 is set; `make`-style usage is documented in
the README. Everything else runs in the default suite.
"""


import math
import os

import numpy as np
import pytest

from sagetok import analysis, encoder
from sagetok.bpe import train_bpe
from sagetok.corpus import RawCorpus, build_index, normalize_line, pretokenize
from sagetok.embeddings import EmbedConfig, SkipGramTable
from sagetok.objective import attach_nll_cache, batched_sentence_nll, corpus_nll
from sagetok.sage import SageConfig, init_state, prune_iteration, train_sage
from sagetok.vocab import MARKER, Vocabulary, is_protected

from conftest import zero_table
from oracles import bpe_merge_oracle, exhaustive_prune_oracle, flatten, nll_oracle, pair_count
from textgen import generate_corpus


def _report(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


class TestCriterion1SkipgramOracle:
    def test_sentence_and_corpus_nll_match_double_loop(self):
        rng = np.random.default_rng(1001)
        checked = 0
        batch_sentences = []
        batch_tables = []
        for _ in range(1000):
            rows = int(rng.integers(2, 12))
            dim = int(rng.integers(1, 8))
            window = int(rng.integers(1, 5))
            table = SkipGramTable(
                rng.normal(0, 0.8, (rows, dim)), rng.normal(0, 0.8, (rows, dim)), dim, window
            )
            ids = rng.integers(0, rows, size=int(rng.integers(1, 12)))
            got = float(batched_sentence_nll(*flatten([ids]), table, window)[0])
            want = nll_oracle(list(ids), table.target, table.context, window)
            assert got == pytest.approx(want, abs=1e-9)
            checked += 1
            batch_sentences.append(ids)
            batch_tables.append((table, window))
        # corpus_nll over multi-sentence stores against the same oracle
        rng2 = np.random.default_rng(1002)
        for _ in range(20):
            rows, dim, window = 15, 4, 3
            table = SkipGramTable(
                rng2.normal(0, 0.8, (rows, dim)), rng2.normal(0, 0.8, (rows, dim)), dim, window
            )
            id_lists = [
                rng2.integers(0, rows, size=int(rng2.integers(1, 10))).tolist()
                for _ in range(50)
            ]
            from sagetok.corpus import SentenceStore

            store = SentenceStore(*flatten(id_lists), "")
            nll = np.zeros(len(store))
            got = corpus_nll(store, table, window, nll)
            want = sum(nll_oracle(ids, table.target, table.context, window) for ids in id_lists)
            assert got == pytest.approx(want, abs=1e-9)
        _report("1a", f"({checked} sentence instances + 20 corpus instances vs double-loop oracle, 1e-9)")

    def test_zero_embeddings_equal_ln2_times_pair_count(self):
        rng = np.random.default_rng(1003)
        ln2 = math.log(2)
        for _ in range(300):
            rows, dim = 9, 4
            window = int(rng.integers(1, 4))
            table = zero_table(rows, dim)
            ids = rng.integers(0, rows, size=int(rng.integers(1, 9)))
            got = float(batched_sentence_nll(*flatten([ids]), table, window)[0])
            count = pair_count(list(ids), window)
            assert got == count * ln2
        _report("1b", "(zero-embedding NLL equals ln2 x pair count exactly, 300 instances)")


class TestCriterion2BpeOracle:
    def test_merge_logs_match_bruteforce(self):
        rng = np.random.default_rng(2001)
        corpora = 0
        while corpora < 200:
            n_words = int(rng.integers(3, 100))
            words = [
                "".join(rng.choice(list("abcde"), size=rng.integers(1, 7)))
                for _ in range(n_words)
            ]
            lines = []
            i = 0
            while i < len(words):
                take = int(rng.integers(1, 7))
                lines.append(" ".join(words[i : i + take]))
                i += take
            corpus = RawCorpus.from_lines(lines)
            alphabet_size = len({c for l in corpus.lines for c in MARKER + l.replace(" ", "")})
            target = alphabet_size + int(rng.integers(0, 25))
            oracle_tokens, oracle_merges = bpe_merge_oracle(corpus.lines, target)
            vocab, merges = train_bpe(corpus, target)
            assert [(m.left, m.right, m.count) for m in merges] == oracle_merges
            assert list(vocab.tokens) == oracle_tokens
            corpora += 1
        _report("2", "(200 random corpora <=100 words, merge logs identical to brute-force oracle)")


class TestCriterion3ExhaustiveOracle:
    def test_pruning_sequence_identical(self):
        corpus = RawCorpus.from_lines(
            generate_corpus(150, seed=3001, n_stems=40, words_per_line=(6, 12))
        )
        assert len(corpus) <= 200
        embed = EmbedConfig(dim=6, window=3, negatives=3, epochs=1, seed=31)
        probe = SageConfig(
            final_size=80, overshoot=1.4, prune_batch=1, recalc_period=1,
            candidate_pool=10_000, embed_period=10**6, window=2, embed=embed,
        )
        state = init_state(corpus, probe)
        base = len(state.vocab)
        assert base <= 120
        target = base - 30
        cfg = SageConfig(
            final_size=target, overshoot=(base - 0.5) / target, prune_batch=1,
            recalc_period=1, candidate_pool=10_000, embed_period=10**6, window=2,
            embed=embed,
        )
        assert cfg.initial_size() == base
        state = init_state(corpus, cfg)
        table = state.table
        vocab = state.vocab
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
        got = [e["pruned"][0]["id"] for e in state.events]
        want = exhaustive_prune_oracle(corpus, vocab, table, cfg.window, target, prune_batch=1)
        assert got == want
        _report("3", f"(k=1, m=1, M=|V|, frozen embeddings: {len(got)} pruning steps identical to exhaustive oracle)")


class TestCriterion4IncrementalCaches:
    def test_cache_and_index_consistency_120_to_80(self):
        corpus = RawCorpus.from_lines(
            generate_corpus(200, seed=4001, n_stems=60, words_per_line=(6, 12))
        )
        embed = EmbedConfig(dim=8, window=3, negatives=3, epochs=1, seed=41)
        probe = SageConfig(
            final_size=100, overshoot=1.3, prune_batch=8, recalc_period=3,
            candidate_pool=40, embed_period=2, window=3, embed=embed,
        )
        state = init_state(corpus, probe)
        base = len(state.vocab)
        target = base - 40
        cfg = SageConfig(
            final_size=target, overshoot=(base - 0.5) / target, prune_batch=8,
            recalc_period=3, candidate_pool=40, embed_period=2, window=3, embed=embed,
        )
        assert cfg.initial_size() == base
        state = init_state(corpus, cfg)
        iterations = 0
        while state.alive_size() > cfg.final_size:
            prune_iteration(state, cfg)
            iterations += 1
            scratch = encoder.encode_corpus(corpus, state.cv)
            scratch_total = float(
                np.sum(batched_sentence_nll(*flatten(scratch.ids), state.table, cfg.window))
            )
            assert state.total_nll == pytest.approx(scratch_total, rel=1e-6)
            assert build_index(corpus, state.cv) == state.index
            assert np.array_equal(state.nll, attach_nll_cache(scratch, state.table, cfg.window)[0])
        assert state.alive_size() == target
        _report("4", f"({base}->{target} run, {iterations} iterations, cache within 1e-6 rel and index exact each iteration)")


class TestCriterion5RoundTrip:
    def test_100k_fuzzed_lines(self):
        rng = np.random.default_rng(5001)
        # alphabet includes characters the vocabulary will not know
        known = list("abcdefgh")
        unknown = list("¤ØñΩ語")
        vocab = Vocabulary(
            [MARKER, *known, MARKER + "a", MARKER + "ab", "ab", "cd", "efg", MARKER + "cde"]
        )
        cv = encoder.compile(vocab)
        checked = 0
        failures = 0
        for _ in range(100_000):
            n_words = int(rng.integers(1, 7))
            words = []
            for _w in range(n_words):
                length = int(rng.integers(1, 9))
                chars = rng.choice(known + unknown, size=length, p=[0.115] * 8 + [0.016] * 5)
                words.append("".join(chars))
            raw = ("  " if rng.random() < 0.1 else " ").join(words)
            if rng.random() < 0.05:
                raw = "\t" + raw + "  "
            line = normalize_line(raw)
            if not line:
                continue
            ids = []
            unks = []
            for word in pretokenize(line):
                got_ids = cv.encode_word(word)
                ids.extend(got_ids)
                unks.extend(cv.unk_chars(word, got_ids))
            queue = list(unks)
            pieces = [queue.pop(0) if i == cv.unk_id else vocab.tokens[i] for i in ids]
            rebuilt = "".join(pieces).replace(MARKER, " ").lstrip(" ")
            if rebuilt != line:
                failures += 1
            checked += 1
        assert failures == 0
        _report("5", f"({checked} fuzzed lines round-tripped exactly, including out-of-alphabet characters)")


class TestCriterion6VocabularyInvariants:
    def test_completed_run_and_event_audit(self):
        corpus = RawCorpus.from_lines(
            generate_corpus(300, seed=6001, n_stems=120, words_per_line=(6, 14))
        )
        embed = EmbedConfig(dim=8, window=3, negatives=4, epochs=1, seed=61)
        probe = SageConfig(
            final_size=150, overshoot=1.3, prune_batch=10, recalc_period=4,
            candidate_pool=60, embed_period=2, window=3, embed=embed,
        )
        state = init_state(corpus, probe)
        base = len(state.vocab)
        target = int(base / 1.25)
        cfg = SageConfig(
            final_size=target, overshoot=(base - 0.5) / target, prune_batch=10,
            recalc_period=4, candidate_pool=60, embed_period=2, window=3, embed=embed,
        )
        assert cfg.initial_size() == base
        state = init_state(corpus, cfg)
        initial_tokens = set(state.vocab.tokens)
        protected = {t for t in state.vocab.tokens if is_protected(t)}
        vocab, events = train_sage(corpus, cfg)
        assert len(vocab) == target
        assert protected <= set(vocab.tokens)
        assert set(vocab.tokens) <= initial_tokens
        batch_tokens = [e["token"] for ev in events for e in ev["pruned"]]
        assert all(not is_protected(t) for t in batch_tokens)
        assert len(batch_tokens) == base - target
        _report("6", f"(final size {target} exact, alphabet retained, output within initial, {len(batch_tokens)} pruned all multi-character)")


FULL = os.environ.get("SAGETOK_ACCEPTANCE_FULL") == "1"


@pytest.mark.skipif(not FULL, reason="criterion 7 runs the 100k-line protocol; set SAGETOK_ACCEPTANCE_FULL=1")
class TestCriterion7DirectionalReplication:
    def test_sage_vs_bpe_directions_at_scale(self):
        n_lines = int(os.environ.get("SAGETOK_ACCEPTANCE_LINES", "100000"))
        final_size = int(os.environ.get("SAGETOK_ACCEPTANCE_VOCAB", "4000"))
        assert n_lines >= 100_000
        # stem inventory grows with the corpus so the word-type long tail
        # keeps single-token coverage away from saturation; fractions of
        # a percent of fertility mass are meaningless at 0.9+ coverage
        n_stems = max(int(n_lines * 0.625), 2000)
        train = RawCorpus.from_lines(
            generate_corpus(n_lines, seed=7001, n_stems=n_stems, zipf_alpha=1.15)
        )
        held = RawCorpus.from_lines(
            generate_corpus(max(n_lines // 6, 10_000), seed=7002, n_stems=n_stems, zipf_alpha=1.15)
        )
        bpe_vocab, _ = train_bpe(train, final_size)
        prune_batch = max(final_size // 80, 10)
        cfg = SageConfig(
            final_size=final_size, overshoot=1.25, prune_batch=prune_batch,
            recalc_period=10, candidate_pool=15 * prune_batch, embed_period=4, window=5,
            embed=EmbedConfig(dim=50, window=5, negatives=15, epochs=5, seed=3),
        )
        sage_vocab, _events = train_sage(train, cfg)
        cv_bpe = encoder.compile(bpe_vocab)
        cv_sage = encoder.compile(sage_vocab)

        mean_sage = analysis.token_length_hist(sage_vocab).mean()
        mean_bpe = analysis.token_length_hist(bpe_vocab).mean()
        assert mean_sage > mean_bpe

        fert_bpe = analysis.fertility_hist(train, cv_bpe)
        fert_sage = analysis.fertility_hist(train, cv_sage)
        assert fert_sage.share([1]) > fert_bpe.share([1])
        assert fert_sage.share([k for k in fert_sage.buckets if k >= 5]) > fert_bpe.share(
            [k for k in fert_bpe.buckets if k >= 5]
        )
        assert fert_sage.share([2, 3]) < fert_bpe.share([2, 3])

        total_bpe, _ = analysis.efficiency(held, cv_bpe)
        total_sage, _ = analysis.efficiency(held, cv_sage)
        ratio = total_sage / total_bpe
        assert 1.0 < ratio < 1.25

        for window in (5, 2):
            ratio_bpe = analysis.token_stats(train, cv_bpe, window).mean_ratio()
            ratio_sage = analysis.token_stats(train, cv_sage, window).mean_ratio()
            assert ratio_sage < ratio_bpe

        diff = analysis.vocab_diff(sage_vocab, bpe_vocab)
        assert diff.word_initial_frac_a > diff.word_initial_frac_b
        _report(
            "7",
            f"(lines={n_lines} V={final_size}: token length {mean_sage:.2f}>{mean_bpe:.2f}, "
            f"fertility directions hold, held-out ratio {ratio:.3f}, neighbor ratios lower, "
            f"word-initial {diff.word_initial_frac_a:.2f}>{diff.word_initial_frac_b:.2f})",
        )


class TestCriterion8ExplicitExclusions:
    def test_no_downstream_evaluation_surface(self):
        # downstream model training is out of scope by design; nothing
        # in the package imports or requires it
        import sagetok

        for name in ("bert", "glue", "xnli", "finetune"):
            assert not hasattr(sagetok, name)
        _report("8", "(downstream model evaluation is explicitly out of scope)")
