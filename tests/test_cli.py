import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sagetok
from sagetok import analysis, bpe, encoder, sage
from sagetok.cli import _config_digest, _meta, main
from sagetok.corpus import load_corpus
from sagetok.vocab import MARKER, load_vocab

from textgen import generate_corpus


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(generate_corpus(40, seed=20, n_stems=50)), encoding="utf-8")
    return path


def _sage_args(corpus_file, out, **overrides):
    args = [
        "train-sage",
        "--corpus", str(corpus_file),
        "--out", str(out),
        "--vocab-size", "60",
        "--overshoot", "1.4",
        "--prune-batch", "4",
        "--candidate-pool", "16",
        "--recalc-every", "2",
        "--embed-every", "2",
        "--window", "2",
        "--dim", "6",
        "--embed-window", "3",
        "--negatives", "3",
        "--epochs", "1",
        "--quiet",
    ]
    for key, value in overrides.items():
        args += [f"--{key}", str(value)]
    return args


class TestTrainBpeCommand:
    def test_writes_vocab_and_merges_with_headers(self, tmp_path, corpus_file):
        out = tmp_path / "bpe.vocab"
        rc = main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "80", "--out", str(out)])
        assert rc == 0
        vocab, meta = load_vocab(out)
        assert len(vocab) == 80
        assert {"version", "config", "corpus"} <= set(meta)
        merges = (tmp_path / "bpe.vocab.merges").read_text(encoding="utf-8")
        assert merges.startswith("#sagetok ")

    def test_vocab_size_below_alphabet_exits_2(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "bpe.vocab"
        rc = main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "3", "--out", str(out)])
        assert rc == 2
        assert "alphabet size" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["compiled", "python"])
    def test_vocab_size_past_the_merge_pool_exits_0_with_a_warning(self, tmp_path, corpus_file, caplog,
                                                                  monkeypatch, path):
        # the compiled loop takes the target clamped to the most merges there can be
        if path == "compiled" and bpe._kernel() is None:
            pytest.skip("no C compiler: the compiled merge loop cannot be built here")
        if path == "python":
            monkeypatch.setattr(bpe, "_kernel", lambda: None)
        out = tmp_path / "bpe.vocab"
        with caplog.at_level(logging.WARNING):
            rc = main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "9" * 401, "--out", str(out)])
        assert rc == 0
        assert any("merge pool exhausted" in r.message for r in caplog.records)
        assert out.exists()

    def test_missing_corpus_exits_3(self, tmp_path):
        rc = main(["train-bpe", "--corpus", str(tmp_path / "nope.txt"), "--vocab-size", "50",
                   "--out", str(tmp_path / "v")])
        assert rc == 3

    def test_rerun_is_byte_identical(self, tmp_path, corpus_file):
        out1, out2 = tmp_path / "a.vocab", tmp_path / "b.vocab"
        main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "70", "--out", str(out1)])
        main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "70", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestTrainUnigramCommand:
    def test_basic_run(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abab abab cd\ncd abab ab\n", encoding="utf-8")
        out = tmp_path / "uni.vocab"
        rc = main(["train-unigram", "--corpus", str(corpus), "--vocab-size", "10",
                   "--out", str(out), "--probs-out", str(tmp_path / "p.tsv")])
        assert rc == 0
        vocab, _ = load_vocab(out)
        assert len(vocab) == 10
        assert (tmp_path / "p.tsv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--min-count", "0"], "min_count must be >= 1"),
        (["--min-count", "-3"], "min_count must be >= 1"),
        (["--max-len", "0"], "max_len must be >= 1"),
    ], ids=["min-count-0", "min-count-negative", "max-len-0"])
    def test_invalid_flag_exits_2_before_writing(self, tmp_path, corpus_file, capsys, flags, message):
        argv = ["train-unigram", "--corpus", str(corpus_file), "--vocab-size", "30",
                "--out", str(tmp_path / "u.vocab"), "--probs-out", str(tmp_path / "p.tsv")]
        assert main(argv + flags) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus_file]


class TestSageDefaults:
    def test_no_flag_defaults(self):
        from sagetok.cli import build_parser, _sage_config

        args = build_parser().parse_args(
            ["train-sage", "--corpus", "c.txt", "--out", "v.vocab"]
        )
        cfg = _sage_config(args)
        assert cfg.final_size == 16000
        assert cfg.initial_size() == 20000
        assert cfg.prune_batch == 100
        assert cfg.candidate_pool == 1500
        assert cfg.recalc_period == 10
        assert cfg.embed_period == 4
        assert cfg.window == 5
        assert (cfg.embed.dim, cfg.embed.window, cfg.embed.negatives) == (50, 5, 15)
        # embeddings are retrained every recalc_period * embed_period iterations
        assert cfg.recalc_period * cfg.embed_period == 40
        # every other field is the dataclasses' own default
        assert dataclasses.asdict(cfg) == dataclasses.asdict(sage.SageConfig(16000))

    def test_config_file_sets_every_key_as_its_flag_does(self, tmp_path):
        from sagetok.cli import build_parser, _sage_config

        values = {
            "vocab_size": 58, "overshoot": 1.5, "prune_batch": 4, "candidate_pool": 16,
            "recalc_every": 2, "embed_every": 3, "window": 2, "dim": 6, "embed_window": 3,
            "negatives": 3, "epochs": 1, "lr": 0.05, "seed": 9, "base_trainer": "unigram",
            "initial_vocab": "base.vocab",
        }
        cfg_path = tmp_path / "sage.json"
        cfg_path.write_text(json.dumps(values), encoding="utf-8")
        required = ["train-sage", "--corpus", "c.txt", "--out", "v.vocab"]
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
        from_file = _sage_config(build_parser().parse_args(required + ["--config", str(cfg_path)]))
        from_flags = _sage_config(build_parser().parse_args(required + flags))
        assert dataclasses.asdict(from_file) == dataclasses.asdict(from_flags)
        assert from_file.digest() == from_flags.digest()
        # every key reached its field
        got = dataclasses.asdict(from_file)
        assert (got["final_size"], got["overshoot"], got["prune_batch"], got["candidate_pool"]) == (58, 1.5, 4, 16)
        assert (got["recalc_period"], got["embed_period"], got["window"]) == (2, 3, 2)
        assert (got["base_trainer"], got["initial_vocab_path"]) == ("file", "base.vocab")
        embed = got["embed"]
        assert (embed["dim"], embed["window"], embed["negatives"], embed["epochs"]) == (6, 3, 3, 1)
        assert (embed["lr_initial"], embed["seed"]) == (0.05, 9)


class TestTrainSageCommand:
    def test_full_run_writes_vocab_and_events(self, tmp_path, corpus_file):
        out = tmp_path / "sage.vocab"
        rc = main(_sage_args(corpus_file, out))
        assert rc == 0
        vocab, meta = load_vocab(out)
        assert len(vocab) == 60
        assert "seed" in meta
        events_path = tmp_path / "sage.vocab.events.jsonl"
        lines = events_path.read_text(encoding="utf-8").splitlines()
        assert "meta" in json.loads(lines[0])
        assert all("pruned" in json.loads(l) for l in lines[1:])

    def test_rerun_is_byte_identical(self, tmp_path, corpus_file):
        out1, out2 = tmp_path / "s1.vocab", tmp_path / "s2.vocab"
        main(_sage_args(corpus_file, out1))
        main(_sage_args(corpus_file, out2))
        assert out1.read_bytes() == out2.read_bytes()
        e1 = (tmp_path / "s1.vocab.events.jsonl").read_text(encoding="utf-8")
        e2 = (tmp_path / "s2.vocab.events.jsonl").read_text(encoding="utf-8")
        assert e1.splitlines()[1:] == e2.splitlines()[1:]

    def test_resume_from_checkpoint_matches_direct_run(self, tmp_path, corpus_file):
        direct = tmp_path / "direct.vocab"
        main(_sage_args(corpus_file, direct))
        # checkpoint every iteration, then resume from the final checkpoint
        ckpt = tmp_path / "run.ckpt.npz"
        first = tmp_path / "first.vocab"
        rc = main(_sage_args(corpus_file, first) + ["--checkpoint", str(ckpt), "--checkpoint-every", "2"])
        assert rc == 0
        resumed = tmp_path / "resumed.vocab"
        rc = main(_sage_args(corpus_file, resumed) + ["--resume", str(ckpt)])
        assert rc == 0
        direct_tokens = load_vocab(direct)[0].tokens
        assert load_vocab(resumed)[0].tokens == direct_tokens
        events = [(tmp_path / f"{name}.vocab.events.jsonl").read_bytes() for name in ("direct", "first", "resumed")]
        assert events[0] == events[1] == events[2]

    def test_checkpoint_written_to_exact_path(self, tmp_path, corpus_file):
        direct = tmp_path / "direct.vocab"
        main(_sage_args(corpus_file, direct))
        ckpt = tmp_path / "run.ckpt"
        rc = main(_sage_args(corpus_file, tmp_path / "first.vocab") + ["--checkpoint", str(ckpt)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir() if "ckpt" in p.name) == ["run.ckpt"]
        resumed = tmp_path / "resumed.vocab"
        rc = main(_sage_args(corpus_file, resumed) + ["--resume", str(ckpt)])
        assert rc == 0
        assert load_vocab(resumed)[0].tokens == load_vocab(direct)[0].tokens

    def test_initial_vocab_bypasses_base_training(self, tmp_path, corpus_file):
        base = tmp_path / "base.vocab"
        main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "70", "--out", str(base)])
        out = tmp_path / "pruned.vocab"
        rc = main(_sage_args(corpus_file, out) + ["--initial-vocab", str(base)])
        assert rc == 0
        pruned, _ = load_vocab(out)
        base_vocab, _ = load_vocab(base)
        assert len(pruned) == 60
        assert set(pruned.tokens) <= set(base_vocab.tokens)

    def test_config_file_with_flag_precedence(self, tmp_path, corpus_file):
        cfg_path = tmp_path / "sage.json"
        cfg_path.write_text(json.dumps({
            "vocab_size": 58, "overshoot": 1.4, "prune_batch": 4, "candidate_pool": 16,
            "recalc_every": 2, "embed_every": 2, "window": 2, "dim": 6,
            "embed_window": 3, "negatives": 3, "epochs": 1,
        }), encoding="utf-8")
        out = tmp_path / "cfg.vocab"
        rc = main(["train-sage", "--corpus", str(corpus_file), "--out", str(out),
                   "--config", str(cfg_path), "--vocab-size", "62", "--quiet"])
        assert rc == 0
        vocab, _ = load_vocab(out)
        assert len(vocab) == 62  # flag wins over config file

    def test_invalid_config_exits_2_before_work(self, tmp_path, corpus_file):
        out = tmp_path / "x.vocab"
        rc = main(_sage_args(corpus_file, out, **{"candidate-pool": 2}))
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["overshoot", "lr"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_exits_2(self, tmp_path, corpus_file, capsys, flag, value):
        out = tmp_path / "x.vocab"
        assert main(_sage_args(corpus_file, out, **{flag: value})) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overshoot_overflowing_the_initial_size_exits_2(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "x.vocab"
        assert main(_sage_args(corpus_file, out, overshoot="1e308")) == 2
        assert "overshoot must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_config_field_without_a_key_exits_2(self, tmp_path, corpus_file, capsys):
        # unigram_max_len is a SageConfig field with no flag and no config key
        config = tmp_path / "sage.json"
        config.write_text(json.dumps({"unigram_max_len": 8}), encoding="utf-8")
        assert main(_sage_args(corpus_file, tmp_path / "x.vocab") + ["--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown config file keys" in err and "unigram_max_len" in err
        assert sorted(tmp_path.iterdir()) == sorted([corpus_file, config])

    @pytest.mark.parametrize("every", ["0", "-2"])
    def test_checkpoint_every_below_one_exits_2(self, tmp_path, corpus_file, capsys, every):
        ckpt = tmp_path / "run.ckpt"
        argv = _sage_args(corpus_file, tmp_path / "x.vocab") + [
            "--checkpoint", str(ckpt), "--checkpoint-every", every]
        assert main(argv) == 2
        assert "checkpoint interval" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "0"], "learning rate must be > 0"),
        (["--lr", "-5"], "learning rate must be > 0"),
        (["--checkpoint-every", "2"], "--checkpoint-every needs --checkpoint"),
        (["--seed", "-1"], "seed must be >= 0"),
        (["--vocab-size", "9" * 401], "final vocabulary size is too large"),
    ], ids=["lr-0", "lr-negative", "checkpoint-every-alone", "seed-negative", "vocab-size-401-digits"])
    def test_invalid_flag_exits_2_before_writing(self, tmp_path, corpus_file, capsys, flags, message):
        assert main(_sage_args(corpus_file, tmp_path / "x.vocab") + flags) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [corpus_file]

    @pytest.mark.parametrize("flag", ["out", "events-out", "checkpoint"])
    @pytest.mark.parametrize("where", ["below-missing-dir", "directory"])
    def test_unwritable_output_fails_before_training(self, tmp_path, corpus_file, capsys, monkeypatch, flag, where):
        def not_called(*args, **kwargs):
            raise AssertionError("training started before the output paths were checked")

        monkeypatch.setattr(sage, "train_sage", not_called)
        (tmp_path / "adir").mkdir()
        bad = tmp_path / "missing" / "x" if where == "below-missing-dir" else tmp_path / "adir"
        before = sorted(tmp_path.rglob("*"))
        if flag == "out":
            argv = _sage_args(corpus_file, bad)
        else:
            argv = _sage_args(corpus_file, tmp_path / "ok.vocab") + [f"--{flag}", str(bad)]
        assert main(argv) == 3
        assert str(bad) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_progress_events_on_stderr(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "p.vocab"
        args = [a for a in _sage_args(corpus_file, out) if a != "--quiet"]
        main(args)
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("{")]
        assert err_lines
        parsed = json.loads(err_lines[0])
        assert {"iteration", "vocab_size", "total_nll"} <= set(parsed)


class TestEncodeCommand:
    def test_token_format(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abc ab\n", encoding="utf-8")
        vocab_path = tmp_path / "v.vocab"
        vocab_path.write_text("\n".join([MARKER, "a", "b", "c", MARKER + "ab"]) + "\n", encoding="utf-8")
        out = tmp_path / "enc.txt"
        rc = main(["encode", "--vocab", str(vocab_path), "--in", str(corpus),
                   "--out", str(out), "--format", "tokens"])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == f"{MARKER}ab c {MARKER}ab\n"

    def test_ids_format(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab\n", encoding="utf-8")
        vocab_path = tmp_path / "v.vocab"
        vocab_path.write_text("\n".join([MARKER, "a", "b", MARKER + "ab"]) + "\n", encoding="utf-8")
        out = tmp_path / "enc.txt"
        rc = main(["encode", "--vocab", str(vocab_path), "--in", str(corpus),
                   "--out", str(out), "--format", "ids"])
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "3\n"

    def test_unk_appears_as_source_character(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a¤b\n", encoding="utf-8")
        vocab_path = tmp_path / "v.vocab"
        vocab_path.write_text("\n".join([MARKER, "a", "b", MARKER + "a"]) + "\n", encoding="utf-8")
        out = tmp_path / "enc.txt"
        main(["encode", "--vocab", str(vocab_path), "--in", str(corpus), "--out", str(out)])
        assert out.read_text(encoding="utf-8") == f"{MARKER}a ¤ b\n"


class TestLowercaseFlag:
    def test_equals_running_on_the_lowercased_corpus(self, tmp_path):
        lines = generate_corpus(40, seed=21, n_stems=50)
        mixed = ["".join(c.upper() if i % 3 == 0 else c for i, c in enumerate(line)) for line in lines]
        assert mixed != [line.lower() for line in mixed]
        mixed_path, lower_path = tmp_path / "mixed.txt", tmp_path / "lower.txt"
        mixed_path.write_text("\n".join(mixed) + "\n", encoding="utf-8")
        lower_path.write_text("\n".join(line.lower() for line in mixed) + "\n", encoding="utf-8")

        def run(*argv):
            assert main(list(argv)) == 0

        run("train-bpe", "--corpus", str(mixed_path), "--vocab-size", "80",
            "--out", str(tmp_path / "a.vocab"), "--lowercase")
        run("train-bpe", "--corpus", str(lower_path), "--vocab-size", "80", "--out", str(tmp_path / "b.vocab"))
        for name in ("a.vocab", "a.vocab.merges"):
            assert (tmp_path / name).read_bytes() == (tmp_path / name.replace("a.", "b.", 1)).read_bytes()

        vocab = str(tmp_path / "a.vocab")
        run("encode", "--vocab", vocab, "--in", str(mixed_path), "--out", str(tmp_path / "a.enc"), "--lowercase")
        run("encode", "--vocab", vocab, "--in", str(lower_path), "--out", str(tmp_path / "b.enc"))
        run("encode", "--vocab", vocab, "--in", str(mixed_path), "--out", str(tmp_path / "c.enc"))
        assert (tmp_path / "a.enc").read_bytes() == (tmp_path / "b.enc").read_bytes()
        assert (tmp_path / "c.enc").read_bytes() != (tmp_path / "b.enc").read_bytes()


class TestAnalyzeCommand:
    def test_writes_reports(self, tmp_path, corpus_file):
        vocab_path = tmp_path / "v.vocab"
        main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "70", "--out", str(vocab_path)])
        outdir = tmp_path / "reports"
        rc = main(["analyze", "--vocab", str(vocab_path), "--corpus", str(corpus_file),
                   "--outdir", str(outdir), "--window", "3"])
        assert rc == 0
        for name in ("token_length.csv", "fertility.csv", "token_stats.csv", "summary.json"):
            assert (outdir / name).exists()
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        assert summary["efficiency"]["total_tokens"] > 0

    def test_reports_equal_standalone_functions(self, tmp_path):
        """analyze segments the corpus once; its four files are byte-equal to
        files written from the standalone analysis functions."""
        lines = generate_corpus(80, seed=31, n_stems=60)
        train, held = tmp_path / "train.txt", tmp_path / "held.txt"
        train.write_text("\n".join(lines[:60]), encoding="utf-8")
        # characters the vocabulary has never seen encode to UNK
        held.write_text("\n".join(l + " q¤z" if i % 4 == 0 else l for i, l in enumerate(lines[40:])), encoding="utf-8")
        vocab_path = tmp_path / "v.vocab"
        main(["train-bpe", "--corpus", str(train), "--vocab-size", "90", "--out", str(vocab_path)])
        outdir = tmp_path / "reports"
        rc = main(["analyze", "--vocab", str(vocab_path), "--corpus", str(held), "--outdir", str(outdir), "--window", "3"])
        assert rc == 0

        vocab, _ = load_vocab(vocab_path)
        corpus = load_corpus(held)
        cv = encoder.compile(vocab)
        meta = _meta(corpus.digest(), _config_digest({"cmd": "analyze", "window": 3}))
        expected = tmp_path / "expected"
        expected.mkdir()
        analysis.write_histogram_csv(analysis.token_length_hist(vocab), expected / "token_length.csv", "length", meta)
        analysis.write_histogram_csv(
            analysis.fertility_hist(corpus, cv), expected / "fertility.csv", "subwords_per_word", meta
        )
        stats = analysis.token_stats(corpus, cv, 3)
        analysis.write_token_stats_csv(stats, expected / "token_stats.csv", meta)
        summary = analysis.summary_report(vocab, corpus, cv, 3, meta)
        with open(expected / "summary.json", "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
        for name in ("token_length.csv", "fertility.csv", "token_stats.csv", "summary.json"):
            assert (outdir / name).read_bytes() == (expected / name).read_bytes(), name

        total_tokens, per_word = analysis.efficiency(corpus, cv)
        assert summary["efficiency"] == {"total_tokens": total_tokens, "tokens_per_word": per_word}
        # UNK emissions count as tokens but never enter the token table
        assert "¤" not in vocab and stats.total_tokens < total_tokens

    @pytest.mark.parametrize("window", ["0", "-2"])
    def test_window_below_one_exits_2_before_outdir(self, tmp_path, corpus_file, capsys, window):
        vocab_path = tmp_path / "v.vocab"
        main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "70", "--out", str(vocab_path)])
        capsys.readouterr()
        outdir = tmp_path / "reports"
        rc = main(["analyze", "--vocab", str(vocab_path), "--corpus", str(corpus_file),
                   "--outdir", str(outdir), "--window", window])
        assert rc == 2
        assert "window must be >= 1" in capsys.readouterr().err
        assert not outdir.exists()

    def test_cross_domain_pairing(self, tmp_path, corpus_file):
        # vocabulary from one corpus, statistics over another
        other = tmp_path / "other.txt"
        other.write_text("\n".join(generate_corpus(20, seed=99, n_stems=40)), encoding="utf-8")
        vocab_path = tmp_path / "v.vocab"
        main(["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "70", "--out", str(vocab_path)])
        outdir = tmp_path / "transfer"
        rc = main(["analyze", "--vocab", str(vocab_path), "--corpus", str(other), "--outdir", str(outdir)])
        assert rc == 0


class TestDiffCommand:
    def test_report(self, tmp_path, capsys):
        a = tmp_path / "a.vocab"
        b = tmp_path / "b.vocab"
        a.write_text(f"{MARKER}a\n{MARKER}b\n", encoding="utf-8")
        b.write_text(f"{MARKER}a\nbc\n", encoding="utf-8")
        rc = main(["diff", "--a", str(a), "--b", str(b), "--out", str(tmp_path / "d.json")])
        assert rc == 0
        report = json.loads((tmp_path / "d.json").read_text(encoding="utf-8"))
        assert report["only_a"]["word_initial_fraction"] == 1.0
        assert report["only_b"]["word_initial_fraction"] == 0.0


def _write_bad_input(tmp_path, kind):
    """A malformed input file of the given kind; returns its path."""
    path = tmp_path / f"bad.{kind.split('-')[0]}"
    if kind == "vocab-invalid-utf8":
        path.write_bytes(b"a\n\xff\xfe\n")
    elif kind == "vocab-duplicate-token":
        path.write_text("a\nb\na\n", encoding="utf-8")
    elif kind == "config-not-json":
        path.write_text("{", encoding="utf-8")
    elif kind == "config-not-object":
        path.write_text("5", encoding="utf-8")
    elif kind == "config-invalid-utf8":
        path.write_bytes(b'{"seed": "\xff"}')
    elif kind == "config-vocab-size-string":
        path.write_text(json.dumps({"vocab_size": "abc"}), encoding="utf-8")
    elif kind == "config-lr-string":
        path.write_text(json.dumps({"lr": "x"}), encoding="utf-8")
    elif kind == "config-overshoot-nan":
        path.write_text('{"overshoot": NaN}', encoding="utf-8")
    elif kind == "config-overshoot-1e308":
        path.write_text('{"overshoot": 1e308}', encoding="utf-8")
    elif kind == "config-lr-infinity":
        path.write_text('{"lr": Infinity}', encoding="utf-8")
    elif kind == "config-lr-zero":
        path.write_text('{"lr": 0}', encoding="utf-8")
    elif kind == "initvocab-missing-chars":
        path.write_text("a\nb\nc\nd\nab\nabc\n", encoding="utf-8")
    elif kind == "corpus-invalid-utf8":
        path.write_bytes(b"fine line\n\xff broken\n")
    elif kind == "corpus-empty":
        path.write_text("\n \n", encoding="utf-8")
    elif kind == "checkpoint-missing":
        pass
    elif kind == "checkpoint-not-npz":
        path.write_text("not a checkpoint\n", encoding="utf-8")
    elif kind == "checkpoint-npy":
        with open(path, "wb") as f:
            np.save(f, np.arange(3))
    elif kind.startswith("output-"):
        # a regular file: no output can be written below it
        path.write_text("not a directory\n", encoding="utf-8")
    elif kind in ("checkpoint-truncated", "checkpoint-missing-keys"):
        with open(path, "wb") as f:
            np.savez_compressed(f, tokens=np.arange(500), alive=np.arange(500))
        if kind == "checkpoint-truncated":
            path.write_bytes(path.read_bytes()[:200])
    else:
        raise AssertionError(kind)
    return path


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("vocab-invalid-utf8", 3),
        ("vocab-duplicate-token", 3),
        ("config-not-json", 2),
        ("config-not-object", 2),
        ("config-invalid-utf8", 2),
        ("config-vocab-size-string", 2),
        ("config-lr-string", 2),
        ("config-overshoot-nan", 2),
        ("config-overshoot-1e308", 2),
        ("config-lr-infinity", 2),
        ("config-lr-zero", 2),
        ("initvocab-missing-chars", 3),
        ("corpus-invalid-utf8", 3),
        ("corpus-empty", 3),
        ("checkpoint-missing", 3),
        ("checkpoint-not-npz", 3),
        ("checkpoint-npy", 3),
        ("checkpoint-truncated", 3),
        ("checkpoint-missing-keys", 3),
        ("output-encode-out", 3),
        ("output-train-bpe-out", 3),
        ("output-train-bpe-merge-log", 3),
        ("output-train-unigram-out", 3),
        ("output-train-unigram-probs-out", 3),
        ("output-analyze-outdir", 3),
        ("output-train-sage-out", 3),
        ("output-train-sage-events-out", 3),
        ("output-train-sage-checkpoint", 3),
        ("output-diff-out", 3),
    ],
)
def test_malformed_input_file_exits_cleanly(tmp_path, corpus_file, kind, expected):
    bad = _write_bad_input(tmp_path, kind)
    out = tmp_path / "out.vocab"
    role = kind.split("-")[0]
    if role == "vocab":
        argv = ["encode", "--vocab", str(bad), "--in", str(corpus_file), "--out", str(out)]
    elif role == "config":
        argv = ["train-sage", "--corpus", str(corpus_file), "--out", str(out), "--config", str(bad)]
    elif role == "corpus":
        argv = ["train-bpe", "--corpus", str(bad), "--vocab-size", "50", "--out", str(out)]
    elif role == "output":
        argv = _unwritable_output_args(kind, tmp_path, corpus_file, str(bad / "x"))
    elif role == "initvocab":
        # the vocabulary has no marker and no x, y or z
        corpus = tmp_path / "uncovered.txt"
        corpus.write_text("abc abd\nxyz abc\n", encoding="utf-8")
        argv = ["train-sage", "--corpus", str(corpus), "--initial-vocab", str(bad),
                "--vocab-size", "5", "--out", str(out)]
    else:
        argv = _sage_args(corpus_file, out) + ["--resume", str(bad)]
    env = dict(os.environ, PYTHONPATH=str(Path(sagetok.__file__).parents[1]))
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "sagetok.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == expected, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("config error:", "data error:"))
    if role == "output":
        assert str(bad / "x") in proc.stderr
        # the paths are checked before any work, so nothing else was written
        assert sorted(tmp_path.rglob("*")) == before
    if role == "initvocab":
        assert all(repr(ch) in proc.stderr for ch in (MARKER, "x", "y", "z"))


def _unwritable_output_args(kind, tmp_path, corpus_file, target):
    """A command whose output flag named by ``kind`` points at ``target``."""
    ok = str(tmp_path / "out.vocab")
    vocab = tmp_path / "chars.vocab"
    chars = sorted(set(corpus_file.read_text(encoding="utf-8")) - set(" \n"))
    vocab.write_text("\n".join([MARKER, *chars]) + "\n", encoding="utf-8")
    unigram = ["train-unigram", "--corpus", str(corpus_file), "--vocab-size", "100000"]
    return {
        "output-encode-out": ["encode", "--vocab", str(vocab), "--in", str(corpus_file), "--out", target],
        "output-train-bpe-out": ["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "50", "--out", target],
        "output-train-bpe-merge-log": ["train-bpe", "--corpus", str(corpus_file), "--vocab-size", "50",
                                       "--out", ok, "--merge-log", target],
        "output-train-unigram-out": unigram + ["--out", target],
        "output-train-unigram-probs-out": unigram + ["--out", ok, "--probs-out", target],
        "output-analyze-outdir": ["analyze", "--vocab", str(vocab), "--corpus", str(corpus_file), "--outdir", target],
        "output-train-sage-out": _sage_args(corpus_file, target),
        "output-train-sage-events-out": _sage_args(corpus_file, ok) + ["--events-out", target],
        "output-train-sage-checkpoint": _sage_args(corpus_file, ok) + ["--checkpoint", target, "--checkpoint-every", "2"],
        "output-diff-out": ["diff", "--a", str(vocab), "--b", str(vocab), "--out", target],
    }[kind]
