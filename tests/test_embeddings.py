import shutil
import subprocess

import numpy as np
import pytest

from sagetok import bpe, cli, embeddings, encoder
from sagetok._kernels import KERNEL_FLAGS, build_kernel
from sagetok.bpe import train_bpe
from sagetok.corpus import RawCorpus
from sagetok.embeddings import (
    EmbedConfig,
    _NoiseSampler,
    _pair_batches,
    _pair_count,
    init_tables,
    train_embeddings,
)
from sagetok.errors import ConfigError, DataError
from sagetok.vocab import MARKER, Vocabulary

from oracles import flatten, sgns_pairs, sgns_reference_trainer, sigmoid
from textgen import generate_corpus


def _encode(lines, tokens):
    corpus = RawCorpus.from_lines(lines)
    vocab = Vocabulary(tokens)
    cv = encoder.compile(vocab)
    return vocab, encoder.encode_corpus(corpus, cv)


def _char_vocab(lines):
    chars = sorted({c for l in lines for c in MARKER + l.replace(" ", "")})
    return chars


class TestInitTables:
    def test_bounds_at_default_dim(self):
        vocab = Vocabulary([MARKER, "a", "b"])
        table = init_tables(vocab, EmbedConfig(dim=50))
        assert np.all(np.abs(table.target) <= 0.01)

    def test_context_zero(self):
        vocab = Vocabulary([MARKER, "a"])
        table = init_tables(vocab, EmbedConfig(dim=8))
        assert np.all(table.context == 0.0)

    def test_same_seed_identical(self):
        vocab = Vocabulary([MARKER, "a", "b", "ab"])
        cfg = EmbedConfig(dim=8, seed=9)
        t1 = init_tables(vocab, cfg)
        t2 = init_tables(vocab, cfg)
        assert np.array_equal(t1.target, t2.target)

    def test_different_seed_differs(self):
        vocab = Vocabulary([MARKER, "a", "b"])
        t1 = init_tables(vocab, EmbedConfig(dim=8, seed=1))
        t2 = init_tables(vocab, EmbedConfig(dim=8, seed=2))
        assert not np.array_equal(t1.target, t2.target)

    def test_dim_zero_rejected(self):
        with pytest.raises(ConfigError):
            init_tables(Vocabulary(["a"]), EmbedConfig(dim=0))


class TestTrainEmbeddings:
    def test_zero_epochs_returns_initialization(self):
        lines = ["ab ba", "ba ab"]
        tokens = _char_vocab(lines)
        vocab, store = _encode(lines, tokens)
        cfg = EmbedConfig(dim=6, epochs=0, seed=3)
        trained = train_embeddings(store, vocab, cfg)
        init = init_tables(vocab, cfg)
        assert np.array_equal(trained.target, init.target)
        assert np.array_equal(trained.context, init.context)

    def test_deterministic_given_seed(self):
        lines = ["abc cab bca", "cab abc"] * 5
        vocab, store = _encode(lines, _char_vocab(lines))
        cfg = EmbedConfig(dim=6, epochs=2, negatives=3, seed=12)
        t1 = train_embeddings(store, vocab, cfg)
        t2 = train_embeddings(store, vocab, cfg)
        assert np.array_equal(t1.target, t2.target)
        assert np.array_equal(t1.context, t2.context)

    def test_cooccurring_tokens_score_higher(self):
        # A,B always co-occur; C,D always co-occur; never across
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(1000):
            lines.append("ab ab ab" if rng.random() < 0.5 else "cd cd cd")
        vocab, store = _encode(lines, _char_vocab(lines))
        cfg = EmbedConfig(dim=16, window=2, epochs=5, negatives=5, seed=0)
        table = train_embeddings(store, vocab, cfg)
        a, b, d = vocab.id_of["a"], vocab.id_of["b"], vocab.id_of["d"]
        together = float(table.target[a] @ table.context[b])
        apart = float(table.target[a] @ table.context[d])
        assert together > apart

    def test_outputs_finite(self):
        lines = ["aaa bbb ab ba"] * 50
        vocab, store = _encode(lines, _char_vocab(lines))
        cfg = EmbedConfig(dim=10, epochs=5, negatives=10, lr_initial=0.05, seed=4)
        table = train_embeddings(store, vocab, cfg)
        assert np.isfinite(table.target).all()
        assert np.isfinite(table.context).all()

    def test_empty_store_rejected(self):
        vocab = Vocabulary([MARKER, "a"])
        from sagetok.corpus import SentenceStore

        store = SentenceStore(*flatten([]), vocab.digest())
        with pytest.raises(DataError):
            train_embeddings(store, vocab, EmbedConfig(dim=4))

    def test_training_commutes_with_id_relabeling(self):
        # the embedding a token ends up with does not depend on its id
        lines = ["ab ba ab", "ba ab ba", "ab ab"] * 3
        tokens = _char_vocab(lines)
        vocab, store = _encode(lines, tokens)
        cfg = EmbedConfig(dim=5, epochs=2, negatives=4, seed=6)
        base = train_embeddings(store, vocab, cfg)

        perm_tokens = list(reversed(tokens))
        perm_vocab = Vocabulary(perm_tokens)
        perm_cv = encoder.compile(perm_vocab)
        perm_store = encoder.encode_corpus(RawCorpus.from_lines(lines), perm_cv)
        permuted = train_embeddings(perm_store, perm_vocab, cfg)

        rows = [perm_vocab.id_of[token] for token in vocab.tokens]
        assert np.array_equal(permuted.target[rows], base.target)
        assert np.array_equal(permuted.context[rows], base.context)

    @pytest.mark.parametrize("negatives", [0, 6])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_reference_scatter_bit_for_bit(self, seed, negatives):
        # the bincount scatter and the in-place gradient buffer add in the
        # same order and precision as np.unique + np.add.at over
        # concatenated gradients, so the tables are identical
        corpus = RawCorpus.from_lines(generate_corpus(120, seed=seed, n_stems=80))
        vocab, _ = train_bpe(corpus, 180)
        store = encoder.encode_corpus(corpus, encoder.compile(vocab))
        cfg = EmbedConfig(dim=7, window=3, negatives=negatives, epochs=2, seed=seed, batch_pairs=300)
        table = train_embeddings(store, vocab, cfg)
        target, context = sgns_reference_trainer(store, vocab, cfg)
        assert np.array_equal(table.target, target)
        assert np.array_equal(table.context, context)

    def test_matches_reference_scatter_bit_for_bit_at_workload_shape(self):
        # the sizes of the benchmark's second train-sage corpus and base
        # vocabulary, under the default dim, negatives and batch; the last
        # batch is a short one
        corpus = RawCorpus.from_lines(generate_corpus(250, seed=1, n_stems=1500))
        vocab, _ = train_bpe(corpus, 750)
        assert len(vocab) >= 700
        store = encoder.encode_corpus(corpus, encoder.compile(vocab))
        cfg = EmbedConfig(dim=50, window=2, negatives=15, epochs=1, seed=5, batch_pairs=1024)
        assert _pair_count(store, cfg.window) % cfg.batch_pairs != 0
        table = train_embeddings(store, vocab, cfg)
        target, context = sgns_reference_trainer(store, vocab, cfg)
        assert np.array_equal(table.target, target)
        assert np.array_equal(table.context, context)

    @pytest.mark.parametrize("negatives", [0, 1, 6])
    @pytest.mark.parametrize("batch_pairs", [1, 3, 4, 10])
    def test_negative_blocks_match_reference_bit_for_bit(self, monkeypatch, batch_pairs, negatives):
        # negatives are processed in blocks of 4 pairs here: batches below,
        # equal to and not a multiple of the block, and batches of one pair
        corpus = RawCorpus.from_lines(generate_corpus(30, seed=2, n_stems=60))
        vocab, _ = train_bpe(corpus, 120)
        store = encoder.encode_corpus(corpus, encoder.compile(vocab))
        cfg = EmbedConfig(dim=5, window=2, negatives=negatives, epochs=1, seed=batch_pairs, batch_pairs=batch_pairs)
        monkeypatch.setattr(embeddings, "_NEG_BLOCK_BYTES", 8 * max(negatives, 1) * cfg.dim * 4)
        table = train_embeddings(store, vocab, cfg)
        target, context = sgns_reference_trainer(store, vocab, cfg)
        assert np.array_equal(table.target, target)
        assert np.array_equal(table.context, context)

    def test_working_set_does_not_grow_with_the_batch(self):
        """tracemalloc peak of one training at the ``sage`` workload's first
        corpus (60 lines, V=250) under the default batch of 1,024 pairs,
        15 negatives and dim 50. Gathering all 1,024 x 15 negative context
        rows at once peaked at 13.6 MB; in blocks of 65 pairs it peaks at
        3.0 MB (numpy 2.4, Python 3.11)."""
        import tracemalloc

        corpus = RawCorpus.from_lines(generate_corpus(60, seed=7000, n_stems=1500, zipf_alpha=1.3))
        vocab, _ = train_bpe(corpus, 250)
        store = encoder.encode_corpus(corpus, encoder.compile(vocab))
        cfg = EmbedConfig(dim=50, window=5, negatives=15, epochs=1, seed=1)
        assert _pair_count(store, cfg.window) > 4 * cfg.batch_pairs
        tracemalloc.start()
        try:
            train_embeddings(store, vocab, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestPairBatches:
    @pytest.mark.parametrize("size", [1, 7, 300, 1024, 100_000, "divisor"])
    @pytest.mark.parametrize("window", [1, 3, 5])
    def test_streamed_batches_are_slices_of_materialised_pairs(self, window, size):
        corpus = RawCorpus.from_lines(generate_corpus(60, seed=window, n_stems=80))
        vocab, _ = train_bpe(corpus, 150)
        store = encoder.encode_corpus(corpus, encoder.compile(vocab))
        targets, contexts = sgns_pairs(store, window)
        assert _pair_count(store, window) == len(targets)
        if size == "divisor":
            # a size that divides the pair count: every batch is full
            size = next(d for d in range(50, len(targets)) if len(targets) % d == 0)
        batches = list(_pair_batches(store, window, size))
        assert len(batches) == -(-len(targets) // size)
        for i, (t_ids, c_ids) in enumerate(batches):
            assert np.array_equal(t_ids, targets[i * size : (i + 1) * size])
            assert np.array_equal(c_ids, contexts[i * size : (i + 1) * size])

    def test_sentences_shorter_than_the_window(self):
        vocab, store = _encode(["ab", "a", "abba ab"], ["a", "b", MARKER])
        targets, contexts = sgns_pairs(store, 5)
        batches = list(_pair_batches(store, 5, 4))
        assert np.array_equal(np.concatenate([t for t, _ in batches]), targets)
        assert np.array_equal(np.concatenate([c for _, c in batches]), contexts)
        assert _pair_count(store, 5) == len(targets)
        # no offset beyond the longest sentence pairs anything
        assert _pair_count(store, 10**12) == _pair_count(store, int(store.lengths.max()))


def _sampler_reference(cdf, canon, u):
    return canon[np.minimum(np.searchsorted(cdf, u), len(canon) - 1)]


def _adversarial_draws(cdf, grids):
    """Every bucket edge k/M of each grid, each cdf value, their float
    neighbours on both sides, 0.0 and the largest double below 1."""
    points = np.concatenate([cdf] + [np.arange(m + 1) / m for m in grids])
    u = np.concatenate(
        [points, np.nextafter(points, 0.0), np.nextafter(points, 2.0), [0.0, np.nextafter(1.0, 0.0)]]
    )
    return u[(u >= 0.0) & (u < 1.0)]


class TestNoiseSampler:
    def _check(self, cdf, seed=0):
        v = len(cdf)
        canon = np.random.default_rng(seed).permutation(v).astype(np.int64)
        sample = _NoiseSampler(cdf, canon)
        # the sampler's own grid, the 4V grid, and a neighbouring power of two
        grids = (sample.buckets, 4 * v, 2 * sample.buckets)
        u = _adversarial_draws(cdf, grids)
        assert np.array_equal(sample(u), _sampler_reference(cdf, canon, u))
        draws = np.random.default_rng(seed).random((64, 15))
        assert np.array_equal(sample(draws), _sampler_reference(cdf, canon, draws))

    @pytest.mark.parametrize("v", [1, 2, 3, 250, 750, 1250])
    def test_matches_searchsorted_on_zipf_noise_with_zero_weights(self, v):
        rng = np.random.default_rng(v)
        weights = (1.0 / np.arange(1, v + 1)) ** 0.75
        if v > 2:
            # tokens that never occur: first, last, and a scattered few
            weights[[0, v - 1, *rng.choice(v, v // 10)]] = 0.0
        self._check(np.cumsum(weights / weights.sum()), seed=v)

    @pytest.mark.parametrize("v", [750, 1250])
    def test_matches_searchsorted_with_cdf_on_bucket_edges(self, v):
        # every cdf value sits on, or one ulp beside, an edge k/M of the
        # 4V grid or of the power-of-two grid, where a rounded bucket
        # index or edge would pick the neighbouring token
        rng = np.random.default_rng(v)
        grid_edges = [np.arange(1, m) / m for m in (4 * v, 1 << (4 * v - 1).bit_length())]
        edges = np.concatenate(grid_edges)
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        cdf = np.sort(rng.choice(near, v - 1, replace=False))
        self._check(np.append(cdf, np.nextafter(1.0, 0.0)), seed=v)

    def test_most_draws_resolve_from_the_table(self):
        weights = (1.0 / np.arange(1, 751)) ** 0.75
        cdf = np.cumsum(weights / weights.sum())
        sample = _NoiseSampler(cdf, np.arange(750, dtype=np.int64))
        assert sample.buckets == 4096
        assert np.mean(sample.table >= 0) > 0.75


def _compiled_kernel():
    lib = embeddings._kernel()
    if lib is None:
        pytest.skip("no C compiler: the compiled row sums cannot be built here")
    return lib


def _bpe_store(lines, seed, n_stems, size):
    corpus = RawCorpus.from_lines(generate_corpus(lines, seed=seed, n_stems=n_stems))
    vocab, _ = train_bpe(corpus, size)
    return vocab, encoder.encode_corpus(corpus, encoder.compile(vocab))


class TestSigmoid:
    def test_matches_the_masked_form_bit_for_bit(self):
        rng = np.random.default_rng(0)
        tiny = np.finfo(np.float64).tiny
        special = np.array([0.0, -0.0, 6.0, -6.0, tiny, -tiny, tiny / 7, -tiny / 7, 5e-324, -5e-324, 1e-300, 36.0, -36.0])
        # lengths around SIMD widths put values in both the vector body and the tail
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 65, 975, 15_360):
            x = np.clip(rng.normal(0.0, 3.0, n), -6.0, 6.0)
            assert embeddings._sigmoid(x).tobytes() == sigmoid(x).tobytes()
        x = np.concatenate([special, rng.uniform(-6.0, 6.0, 100_000), rng.uniform(-1e-3, 1e-3, 1000)])
        assert embeddings._sigmoid(x).tobytes() == sigmoid(x).tobytes()
        block = x[:975].reshape(65, 15)
        assert embeddings._sigmoid(block).tobytes() == sigmoid(block).tobytes()


def _batch(rng, b, k, dim, rows):
    """One synthetic batch: target rows, the two gradient scales, and the
    context ids of the positives then every pair's negatives, Zipf-drawn so
    that ids repeat, compacted to row ids ``0..n-1`` as ``_apply_clipped``
    compacts them."""
    t_rows = rng.normal(0.0, 0.3, (b, dim))
    g_pos = rng.normal(0.0, 0.01, b)
    g_neg = rng.normal(0.0, 0.01, (b, k))
    ids = np.minimum(rng.zipf(1.3, b * (1 + k)) - 1, rows - 1)
    hit = np.bincount(ids) > 0
    return t_rows, g_pos, g_neg, (np.cumsum(hit) - 1)[ids], int(hit.sum())


class TestRowSums:
    @pytest.mark.parametrize(
        "b, k, dim",
        [(1024, 15, 50), (1024, 0, 50), (1, 15, 50), (1, 0, 1), (300, 3, 1), (7, 1, 3), (65, 15, 50)],
    )
    def test_compiled_sums_equal_bincount_sums_bit_for_bit(self, b, k, dim):
        # a buffer for 1,024 pairs, so every b below it is a short last batch
        compiled = embeddings._compiled_sums(_compiled_kernel())
        numpy_sums = embeddings._bincount_sums(1024, k)
        ones = np.ones(1024)
        rng = np.random.default_rng(b * 100 + k * 10 + dim)
        for _ in range(5):
            t_rows, g_pos, g_neg, rids, n = _batch(rng, b, k, dim, rows=40)
            assert n < len(rids) or len(rids) == 1
            context = compiled(t_rows, g_pos, g_neg, rids, n)
            assert context.tobytes() == numpy_sums(t_rows, g_pos, g_neg, rids, n).tobytes()
            # the target side as training calls it: unit weights and no
            # negatives, g_neg[:, :0] a non-contiguous view
            grad_t = rng.normal(0.0, 0.01, (b, dim))
            target = compiled(grad_t, ones[:b], g_neg[:, :0], rids[:b], n)
            assert target.tobytes() == numpy_sums(grad_t, ones[:b], g_neg[:, :0], rids[:b], n).tobytes()

    @pytest.mark.parametrize("b, dim", [(1024, 50), (1, 1), (65, 7)])
    def test_target_sums_equal_add_at(self, b, dim):
        # unit weights change no bit: both paths give what np.add.at over
        # the gradient rows gives, the reference trainer's form
        rng = np.random.default_rng(b + dim)
        _, _, g_neg, rids, _ = _batch(rng, b, 15, dim, rows=40)
        rids = rids[:b]
        n = int(rids.max()) + 1
        grad_t = rng.normal(0.0, 0.01, (b, dim))
        grad_t[::3] *= 1e-310  # subnormal rows too
        expected = np.zeros((n, dim))
        np.add.at(expected, rids, grad_t)
        lib = embeddings._kernel()
        paths = [embeddings._bincount_sums(b, 15)] + ([] if lib is None else [embeddings._compiled_sums(lib)])
        for row_sums in paths:
            assert row_sums(grad_t, np.ones(b), g_neg[:, :0], rids, n).tobytes() == expected.tobytes()

    def test_compiled_sums_reject_mismatched_shapes(self):
        compiled = embeddings._compiled_sums(_compiled_kernel())
        rng = np.random.default_rng(1)
        t_rows, g_pos, g_neg, rids, n = _batch(rng, 8, 2, 4, rows=10)
        with pytest.raises(ValueError):
            compiled(t_rows, g_pos, g_neg, rids[:-1], n)
        with pytest.raises(ValueError):
            compiled(t_rows, g_pos[:7], g_neg, rids, n)
        with pytest.raises(ValueError):
            compiled(t_rows, g_pos, g_neg[:7], rids, n)
        with pytest.raises(ValueError):
            compiled(t_rows, np.ones(8), g_neg[:, :0], rids[:7], n)

    @pytest.mark.parametrize("negatives, batch_pairs", [(0, 300), (6, 300), (15, 1), (15, 1024)])
    def test_tables_equal_on_both_paths(self, monkeypatch, negatives, batch_pairs):
        _compiled_kernel()
        vocab, store = _bpe_store(30, 4, 60, 120)
        cfg = EmbedConfig(dim=7, window=3, negatives=negatives, epochs=1, seed=4, batch_pairs=batch_pairs)
        compiled = train_embeddings(store, vocab, cfg)
        monkeypatch.setattr(embeddings, "_kernel", lambda: None)
        fallback = train_embeddings(store, vocab, cfg)
        assert np.array_equal(compiled.target, fallback.target)
        assert np.array_equal(compiled.context, fallback.context)


# every C file of the package goes through one builder, so a kernel
# added later is built and checked here without a new entry
SOURCES = tuple(sorted(embeddings._KERNEL_SOURCE.parent.glob("_*.c")))


def test_sources_hold_every_kernel_the_package_loads():
    assert {embeddings._KERNEL_SOURCE, encoder._KERNEL_SOURCE, bpe._KERNEL_SOURCE} <= set(SOURCES)


class TestKernelBuild:
    def test_builds_once_then_loads_from_the_cache(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        for source in SOURCES:
            cache = tmp_path / f"{source.stem}.pycache"
            assert build_kernel(source, cache) is not None
            built = sorted(p.name for p in cache.iterdir())
            assert len(built) == 1 and built[0].startswith(source.stem + ".") and built[0].endswith(".so")
            # the cached library loads without a compiler
            assert build_kernel(source, cache, compiler="no-such-cc") is not None
            assert sorted(p.name for p in cache.iterdir()) == built

    def test_source_compiles_without_warnings(self, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        for source in SOURCES:
            argv = ["cc", *KERNEL_FLAGS, "-Wall", "-Wextra", "-Werror", str(source),
                    "-o", str(tmp_path / f"{source.stem}.so")]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("case", ["no compiler", "compiler fails", "cache not writable"])
    def test_falls_back_to_numpy_silently_with_the_same_tables(self, tmp_path, monkeypatch, capfd, case):
        cache = tmp_path / "__pycache__"
        compiler = {"no compiler": "no-such-cc", "compiler fails": "false"}.get(case, "cc")
        if case == "cache not writable":
            # a path below a regular file cannot be created, even by root
            (tmp_path / "file").write_text("")
            cache = tmp_path / "file" / "__pycache__"
        for source in SOURCES:
            assert build_kernel(source, cache, compiler) is None
        monkeypatch.setattr(embeddings, "_kernel", lambda: build_kernel(embeddings._KERNEL_SOURCE, cache, compiler))
        vocab, store = _bpe_store(60, 9, 80, 150)
        cfg = EmbedConfig(dim=5, window=2, negatives=4, epochs=1, seed=2, batch_pairs=200)
        table = train_embeddings(store, vocab, cfg)
        target, context = sgns_reference_trainer(store, vocab, cfg)
        assert np.array_equal(table.target, target)
        assert np.array_equal(table.context, context)
        assert capfd.readouterr() == ("", "")
        if cache.is_dir():
            assert list(cache.iterdir()) == []

    def test_only_train_sage_loads_the_kernel(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(embeddings, "_kernel", lambda: calls.append(1))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(generate_corpus(40, seed=20, n_stems=50)) + "\n", encoding="utf-8")
        tiny = tmp_path / "tiny.txt"
        tiny.write_text("abab abab cd\ncd abab ab\n", encoding="utf-8")
        vocab = str(tmp_path / "bpe.vocab")
        for argv in (
            ["train-bpe", "--corpus", str(corpus), "--vocab-size", "80", "--out", vocab],
            ["train-unigram", "--corpus", str(tiny), "--vocab-size", "10", "--out", str(tmp_path / "uni.vocab")],
            ["encode", "--vocab", vocab, "--in", str(corpus), "--out", str(tmp_path / "enc.txt")],
            ["analyze", "--vocab", vocab, "--corpus", str(corpus), "--outdir", str(tmp_path / "reports")],
        ):
            assert cli.main(argv) == 0
        assert calls == []
        assert cli.main(["train-sage", "--corpus", str(corpus), "--out", str(tmp_path / "sage.vocab"),
                         "--vocab-size", "60", "--overshoot", "1.2", "--prune-batch", "6", "--dim", "6",
                         "--negatives", "3", "--epochs", "1", "--quiet"]) == 0
        assert calls
