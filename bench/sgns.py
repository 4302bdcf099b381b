"""SGNS training benchmark: parent commit against the working tree.

    python3 bench/sgns.py --base HEAD --out BENCH_sgns.json

Exports ``--base`` with ``git archive`` into a temporary directory and
times ``sagetok.embeddings.train_embeddings`` from that tree and from this
checkout's ``src/``. Each case is one encoded store: seeded
``tests/textgen.py`` lines and a BPE vocabulary trained on them, both built
once by this checkout and saved. Each measurement runs in a fresh process:
it encodes the lines under the vocabulary with its side's
``encoder.encode_corpus`` (each tree builds its own kind of store, and the
encoder is byte-identical across them, so both sides train on the same
ids), times one training with ``time.perf_counter`` and reads its peak RSS
(``common.peak_rss_mb``). The two sides alternate, and the
record keeps every run, the median seconds, pairs/s and a digest of the
target and context tables of each side.

The cases are the two stores of the ``sage`` benchmark workload at seed 7
under that workload's flags (60 lines at V=250, 250 lines at V=750), and
5k and 20k lines under Criterion 7's SGNS configuration with one epoch
(every epoch repeats the same pairs, so one shows the per-pair cost).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import ROOT, alternate, export, header, pack_lines, peak_rss_mb, run_child, same_digest, unpack_lines

# (name, lines, corpus seed, n_stems, zipf alpha, BPE size, SGNS config);
# the first two are the `sage` workload's corpora at seed 7 with its
# train-sage flags, the others Criterion 7's corpus recipe and SGNS config
_CRITERION7 = {"dim": 50, "window": 5, "negatives": 15, "epochs": 1, "seed": 3}
CASES = (
    ("sage-embed", 60, 7000, 1500, 1.3, 250, {"dim": 50, "window": 5, "negatives": 15, "epochs": 2, "seed": 1}),
    ("sage-prune", 250, 7001, 1500, 1.3, 750, {"dim": 50, "window": 2, "negatives": 15, "epochs": 1, "seed": 1}),
    ("5k", 5_000, 7001, 3125, 1.15, 1250, _CRITERION7),
    ("20k", 20_000, 7001, 12500, 1.15, 2500, _CRITERION7),
)


def _child(src: str, inputs: str, cfg_json: str) -> dict:
    sys.path.insert(0, src)
    import numpy as np

    from sagetok import encoder
    from sagetok.corpus import RawCorpus
    from sagetok.embeddings import EmbedConfig, train_embeddings
    from sagetok.vocab import Vocabulary

    with np.load(inputs) as data:
        vocab = Vocabulary([str(t) for t in data["tokens"]])
        lines = unpack_lines(data["text"])
    store = encoder.encode_corpus(RawCorpus.from_lines(lines), encoder.compile(vocab))
    cfg = EmbedConfig(**json.loads(cfg_json))
    t0 = time.perf_counter()
    table = train_embeddings(store, vocab, cfg)
    seconds = time.perf_counter() - t0
    peak_mb = peak_rss_mb()
    digest = hashlib.sha256(table.target.tobytes() + table.context.tobytes()).hexdigest()
    return {"seconds": seconds, "peak_rss_mb": peak_mb, "digest": digest}


def _build_store(path: Path, lines: int, seed: int, n_stems: int, alpha: float, size: int) -> dict:
    """Train a BPE vocabulary of ``size`` on seeded lines and save both;
    returns the shape of the lines encoded under it."""
    import numpy as np

    from sagetok import encoder
    from sagetok.bpe import train_bpe
    from sagetok.corpus import RawCorpus
    from textgen import generate_corpus

    corpus = RawCorpus.from_lines(generate_corpus(lines, seed=seed, n_stems=n_stems, zipf_alpha=alpha))
    vocab, _ = train_bpe(corpus, size)
    store = encoder.encode_corpus(corpus, encoder.compile(vocab))
    np.savez(path, tokens=np.array(vocab.tokens), text=pack_lines(corpus.lines))
    return {"vocab": len(vocab), "tokens": store.total_tokens(), "lengths": store.lengths}


def _pairs(lengths, window: int) -> int:
    return 2 * sum(int((lengths - d).clip(0).sum()) for d in range(1, window + 1))


def _summary(runs: list[dict], pairs: int) -> dict:
    digest = same_digest(runs)
    seconds = [r["seconds"] for r in runs]
    return {
        "seconds_median": statistics.median(seconds),
        "seconds": seconds,
        "pairs_per_s_median": pairs / statistics.median(seconds),
        "peak_rss_mb_max": max(r["peak_rss_mb"] for r in runs),
        "digest": digest,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        src, store, cfg = argv[1:]
        print(json.dumps(_child(src, store, cfg)))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=3, help="fresh processes per side and case")
    parser.add_argument("--cases", nargs="*", default=[c[0] for c in CASES],
                        choices=[c[0] for c in CASES])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_sgns.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    record = header("sagetok.embeddings.train_embeddings", args.base, args.repeats)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"base": export(args.base, tmp / "base"), "change": ROOT / "src"}
        for name, lines, seed, n_stems, alpha, size, cfg in CASES:
            if name not in args.cases:
                continue
            store = tmp / f"{name}.npz"
            shape = _build_store(store, lines, seed, n_stems, alpha, size)
            pairs = _pairs(shape.pop("lengths"), cfg["window"]) * cfg["epochs"]
            runs = alternate(args.repeats,
                             lambda side: run_child(__file__, str(sides[side]), str(store), json.dumps(cfg)))
            case = {"name": name, "lines": lines, "seed": seed, "n_stems": n_stems, "zipf_alpha": alpha,
                    "bpe_size": size, **shape, "config": cfg, "pairs": pairs}
            case.update({side: _summary(runs[side], pairs) for side in ("base", "change")})
            case["identical_output"] = case["base"]["digest"] == case["change"]["digest"]
            case["speedup"] = case["base"]["seconds_median"] / case["change"]["seconds_median"]
            print(f"{name}: {case['base']['seconds_median']:.3f} s -> "
                  f"{case['change']['seconds_median']:.3f} s, peak RSS "
                  f"{case['base']['peak_rss_mb_max']:.0f} -> {case['change']['peak_rss_mb_max']:.0f} MB, "
                  f"identical={case['identical_output']}", file=sys.stderr)
            record["cases"].append(case)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all(c["identical_output"] for c in record["cases"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
