import numpy as np
import pytest

from sagetok import encoder
from sagetok.bpe import train_bpe
from sagetok.corpus import RawCorpus
from sagetok.embeddings import EmbedConfig, init_tables, train_embeddings
from sagetok.errors import ConfigError, DataError
from sagetok.vocab import MARKER, Vocabulary

from oracles import sgns_reference_trainer
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

        store = SentenceStore([], [], vocab.digest())
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
