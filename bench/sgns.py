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
(``common.peak_rss_mb``). Each run records which path summed the rows,
``row_sums``: ``compiled`` where the tree has the C row-sum kernel and it
loads (it is built, or loaded from the tree's cache, before the clock
starts: a cached build is what every later process loads), else
``numpy``. The two sides alternate, and the record keeps every run, the
median seconds, pairs/s and a digest of the target and context tables of
each side.

The cases are the two stores of the ``sage`` benchmark workload at seed 7
under that workload's flags (60 lines at V=250, 250 lines at V=750), and
5k and 20k lines under Criterion 7's SGNS configuration with one epoch
(every epoch repeats the same pairs, so one shows the per-pair cost).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import numpy as np

import common

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


def _child(src: str, inputs: str, cfg_json: str, pairs: str) -> dict:
    sys.path.insert(0, src)
    from sagetok import embeddings, encoder
    from sagetok.corpus import RawCorpus
    from sagetok.embeddings import EmbedConfig, train_embeddings
    from sagetok.vocab import Vocabulary

    tokens, lines, _ = common.load_inputs(inputs)
    vocab = Vocabulary(tokens)
    store = encoder.encode_corpus(RawCorpus.from_lines(lines), encoder.compile(vocab))
    cfg = EmbedConfig(**json.loads(cfg_json))
    kernel = getattr(embeddings, "_kernel", None)
    row_sums = "numpy" if kernel is None or kernel() is None else "compiled"
    t0 = time.perf_counter()
    table = train_embeddings(store, vocab, cfg)
    seconds = time.perf_counter() - t0
    peak_mb = common.peak_rss_mb()
    digest = hashlib.sha256(table.target.tobytes() + table.context.tobytes()).hexdigest()
    return {"seconds": seconds, "pairs_per_s": int(pairs) / seconds, "peak_rss_mb": peak_mb, "row_sums": row_sums,
            "digest": digest}


def main(argv: list[str]) -> int:
    args = common.parser(__doc__, "BENCH_sgns.json", CASES).parse_args(argv)
    record = common.header("sagetok.embeddings.train_embeddings", args.base, args.repeats)
    with common.exported(args.base) as (tmp, sides):
        for name, lines, seed, n_stems, alpha, size, cfg in CASES:
            if name not in args.cases:
                continue
            inputs = tmp / f"{name}.npz"
            vocab, store, arrays = common.build_inputs(lines, seed, n_stems, alpha, size)
            np.savez(inputs, **arrays)
            pairs = common.window_pairs(store.lengths, cfg["window"]) * cfg["epochs"]
            case = {"name": name, "lines": lines, "seed": seed, "n_stems": n_stems, "zipf_alpha": alpha,
                    "bpe_size": size, "vocab": len(vocab), "tokens": store.total_tokens(), "config": cfg,
                    "pairs": pairs}
            record["cases"].append(common.compare(__file__, sides, args.repeats, case, str(inputs), json.dumps(cfg),
                                                  str(pairs)))
    return common.finish(record, args.out)


if __name__ == "__main__":
    sys.exit(common.dispatch(_child, main))
