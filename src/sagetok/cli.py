"""Command-line entry point.

Subcommands: train-bpe, train-unigram, train-sage, encode, analyze,
diff. Every output file carries a ``#sagetok`` metadata header (tool
version, config hash, corpus hash, seed). Long runs report progress as
JSON lines on stderr. Exit codes: 0 success, 2 config error, 3 data
error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path

from . import __version__, analysis, bpe, encoder, sage, unigram
from .corpus import build_index, load_corpus
from .errors import ConfigError, DataError, SagetokError
from .unigram import UnigramModel
from .vocab import load_vocab, save_vocab


def _meta(corpus_digest: str, config_digest: str, seed: int | None = None) -> dict:
    meta = {"version": __version__, "config": config_digest, "corpus": corpus_digest}
    if seed is not None:
        meta["seed"] = seed
    return meta


def _config_digest(payload: dict) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()[:16]


@contextmanager
def _writing(path):
    """Report a failure to write the output ``path`` as a data error."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _check_writable(*paths) -> None:
    """Fail before a long run, not after it, when one of ``paths`` cannot
    be written (``None`` is skipped); creates nothing."""
    for path in (Path(p) for p in paths if p is not None):
        if path.is_dir() or not path.parent.is_dir() or not os.access(path.parent, os.W_OK):
            raise DataError(f"cannot write {path}: not a file path in a writable directory")


def cmd_train_bpe(args) -> int:
    merge_path = args.merge_log or str(args.out) + ".merges"
    _check_writable(args.out, merge_path)
    corpus = load_corpus(args.corpus, args.lowercase)
    vocab, merges = bpe.train_bpe(corpus, args.vocab_size)
    digest = _config_digest({"cmd": "train-bpe", "vocab_size": args.vocab_size})
    meta = _meta(corpus.digest(), digest)
    with _writing(args.out):
        save_vocab(vocab, args.out, meta)
    with _writing(merge_path):
        bpe.save_merges(merges, merge_path, meta)
    print(f"wrote {len(vocab)} tokens to {args.out}, {len(merges)} merges to {merge_path}")
    return 0


def cmd_train_unigram(args) -> int:
    _check_writable(args.out, args.probs_out or None)
    corpus = load_corpus(args.corpus, args.lowercase)
    vocab = unigram.train_unigram(
        corpus,
        args.vocab_size,
        prune_batch=args.prune_batch,
        max_len=args.max_len,
        min_count=args.min_count,
    )
    digest = _config_digest(
        {
            "cmd": "train-unigram",
            "vocab_size": args.vocab_size,
            "prune_batch": args.prune_batch,
            "max_len": args.max_len,
            "min_count": args.min_count,
        }
    )
    meta = _meta(corpus.digest(), digest)
    with _writing(args.out):
        save_vocab(vocab, args.out, meta)
    if args.probs_out:
        cv = encoder.compile(vocab)
        store = encoder.encode_corpus(corpus, cv)
        with _writing(args.probs_out):
            unigram.save_probs(UnigramModel.fit(store, vocab), args.probs_out, meta)
    print(f"wrote {len(vocab)} tokens to {args.out}")
    return 0


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return cfg


# Each train-sage hyperparameter: its config-file key, which is also its
# flag ("--" + the key with "-" for "_"), and the config field it sets.
# Defaults and flag types come from the fields themselves.
_SAGE_KEYS = {
    "vocab_size": "final_size",
    "overshoot": "overshoot",
    "prune_batch": "prune_batch",
    "candidate_pool": "candidate_pool",
    "recalc_every": "recalc_period",
    "embed_every": "embed_period",
    "window": "window",
    "dim": "embed.dim",
    "embed_window": "embed.window",
    "negatives": "embed.negatives",
    "epochs": "embed.epochs",
    "lr": "embed.lr_initial",
    "seed": "embed.seed",
    "base_trainer": "base_trainer",
    "initial_vocab": "initial_vocab_path",
}
_SAGE_DEFAULTS = sage.SageConfig(final_size=16000)  # the one default of the CLI's own


def _check_type(key: str, value) -> None:
    """A config-file value must have its default's type (an int passes as a float)."""
    default = attrgetter(_SAGE_KEYS[key])(_SAGE_DEFAULTS)
    kinds = {float: (int, float), type(None): (str, type(None))}.get(type(default), type(default))
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {value!r}")


def _sage_config(args) -> sage.SageConfig:
    """Flags > config file > defaults."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(_SAGE_KEYS)
    if unknown:
        raise ConfigError(f"unknown config file keys: {sorted(unknown)}")
    top, embed = {}, {}
    for key, field in _SAGE_KEYS.items():
        value = getattr(args, key)
        if value is None and key in file_cfg:
            _check_type(key, file_cfg[key])
            value = file_cfg[key]
        if value is not None:
            owner, _, name = field.rpartition(".")
            (embed if owner else top)[name] = value
    if top.get("initial_vocab_path"):
        top["base_trainer"] = "file"
    embed_cfg = dataclasses.replace(_SAGE_DEFAULTS.embed, **embed)
    return dataclasses.replace(_SAGE_DEFAULTS, embed=embed_cfg, **top)


def cmd_train_sage(args) -> int:
    cfg = _sage_config(args)
    cfg.validate()
    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        raise ConfigError("checkpoint interval must be >= 1")
    if args.checkpoint_every is not None and args.checkpoint is None:
        raise ConfigError("--checkpoint-every needs --checkpoint")
    events_path = args.events_out or str(args.out) + ".events.jsonl"
    _check_writable(args.out, events_path, args.checkpoint)
    corpus = load_corpus(args.corpus, args.lowercase)

    def progress(event: dict) -> None:
        print(
            json.dumps(
                {
                    "iteration": event["iteration"],
                    "vocab_size": event["vocab_size"],
                    "total_nll": event["total_nll"],
                }
            ),
            file=sys.stderr,
            flush=True,
        )

    vocab, events = sage.train_sage(
        corpus,
        cfg,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume_path=args.resume,
        progress=progress if not args.quiet else None,
    )
    meta = _meta(corpus.digest(), cfg.digest(), cfg.embed.seed)
    with _writing(args.out):
        save_vocab(vocab, args.out, meta)
    with _writing(events_path):
        sage.save_events(events, events_path, meta)
    print(f"wrote {len(vocab)} tokens to {args.out}, event log to {events_path}")
    return 0


def cmd_encode(args) -> int:
    vocab, _ = load_vocab(args.vocab)
    cv = encoder.compile(vocab)
    index = build_index(load_corpus(args.input, args.lowercase), cv)
    # each word type is rendered once; a line joins the renderings of its words
    if args.format == "ids":
        rendered = [" ".join(map(str, seg)) for seg in index.segs]
    else:
        rendered = []
        for word, seg in zip(index.types, index.segs):
            unks = iter(cv.unk_chars(word, seg) if cv.unk_id in seg else ())
            rendered.append(" ".join(next(unks) if i == cv.unk_id else vocab.tokens[i] for i in seg))
    lines = (" ".join(rendered[w] for w in index.sentence_types(s)) + "\n" for s in range(len(index.offsets) - 1))
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as out:
            out.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_analyze(args) -> int:
    if args.window < 1:
        raise ConfigError("window must be >= 1")
    vocab, _ = load_vocab(args.vocab)
    corpus = load_corpus(args.corpus, args.lowercase)
    cv = encoder.compile(vocab)
    digest = _config_digest({"cmd": "analyze", "window": args.window})
    meta = _meta(corpus.digest(), digest)
    outdir = Path(args.outdir)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        measures = analysis.measure(corpus, cv, args.window)
        analysis.write_histogram_csv(
            analysis.token_length_hist(vocab), outdir / "token_length.csv", "length", meta
        )
        analysis.write_histogram_csv(measures.fertility, outdir / "fertility.csv", "subwords_per_word", meta)
        analysis.write_token_stats_csv(measures.stats, outdir / "token_stats.csv", meta)
        with open(outdir / "summary.json", "w", encoding="utf-8") as f:
            json.dump(measures.summary(vocab, meta), f, indent=2, sort_keys=True)
    print(f"wrote analysis reports to {outdir}")
    return 0


def cmd_diff(args) -> int:
    vocab_a, _ = load_vocab(args.a)
    vocab_b, _ = load_vocab(args.b)
    report = analysis.vocab_diff(vocab_a, vocab_b).to_dict()
    report["meta"] = {"version": __version__, "a": str(args.a), "b": str(args.b)}
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sagetok", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-bpe", help="train a BPE vocabulary bottom-up")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--merge-log")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=cmd_train_bpe)

    p = sub.add_parser("train-unigram", help="train a unigram-pruning vocabulary top-down")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prune-batch", type=int, default=1)
    p.add_argument("--max-len", type=int, default=unigram.MAX_LEN)
    p.add_argument("--min-count", type=int, default=unigram.MIN_COUNT)
    p.add_argument("--probs-out")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=cmd_train_unigram)

    p = sub.add_parser("train-sage", help="prune an overshoot vocabulary by skipgram ablation loss")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON config file (flags override it)")
    extras = {
        "base_trainer": {"choices": ("bpe", "unigram")},
        "initial_vocab": {"help": "skip base training, prune this vocabulary file"},
    }
    for key, field in _SAGE_KEYS.items():
        default = attrgetter(field)(_SAGE_DEFAULTS)
        kind = str if default is None else type(default)
        p.add_argument("--" + key.replace("_", "-"), type=kind, **extras.get(key, {}))
    p.add_argument("--events-out")
    p.add_argument("--checkpoint", help="checkpoint file, written to exactly this path at iteration boundaries")
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--resume", help="resume from a checkpoint file")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=cmd_train_sage)

    p = sub.add_parser("encode", help="segment a corpus with a trained vocabulary")
    p.add_argument("--vocab", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("tokens", "ids"), default="tokens")
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("analyze", help="vocabulary and tokenization statistics over a corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diff", help="compare two vocabulary files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. piping into head)
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SagetokError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
