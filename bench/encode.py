"""Encoder benchmark: parent commit against the working tree.

    python3 bench/encode.py --base HEAD --out BENCH_encode.json

Exports ``--base`` with ``git archive`` into a temporary directory and
times the greedy encoder through its two bulk callers, from that tree and
from this checkout's ``src/``: ``sagetok.corpus.build_index``, which
segments every word type of a corpus, and ``sagetok.unigram.train_unigram``,
whose pruning loop re-segments the types that hold each candidate. Each
case's inputs are built once by this checkout and saved: seeded
``tests/textgen.py`` lines and, for ``build_index``, a BPE vocabulary. Each
measurement runs in a fresh process: it compiles the vocabulary (timed on
its own, ``compile_s``), then runs the call ``passes`` times with
``time.perf_counter`` and keeps the median as ``seconds``, and reads its
peak RSS (``common.peak_rss_mb``). ``words_per_s`` is the corpus's running
words over ``seconds``, ``types_per_s`` its distinct words. Each run
records which path segmented, ``encoder``: ``compiled`` where the tree has
the C kernel of ``_encode.c`` and it loads (it is built, or loaded from
the tree's cache, by the untimed first compile), else ``python``. The two
sides alternate, and the record keeps every run, the medians and a digest
of the segmentations (or of the vocabulary) of each side.

The cases:

* ``heldout``: the ``baselines`` benchmark workload at seed 7: its
  2,500 held-out lines, segmented under the 1,600-token BPE vocabulary of
  its 1,200 training lines, as its ``encode`` and ``analyze`` do.
* ``unigram``: that workload's ``train-unigram``, 180 lines pruned to
  1,000 tokens in one batch.
* ``c7-100k``: Criterion 7's 100k training lines, segmented under its
  4,000-token BPE baseline vocabulary. Unigram training at that size is
  not timed: it takes far longer than the rest of the record.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time

import numpy as np

import common

# (name, call, corpus (lines, seed, n_stems, zipf alpha), BPE training
# corpus and size or None, call config)
CASES = (
    ("heldout", "build_index", (2_500, 7002, 4000, 1.3), ((1_200, 7000, 4000, 1.3), 1600), {"passes": 15}),
    ("unigram", "train_unigram", (180, 7001, 1500, 1.3), None, {"passes": 3, "target": 1000, "prune_batch": 1000}),
    ("c7-100k", "build_index", (100_000, 7001, 62_500, 1.15), (None, 4000), {"passes": 3}),
)


def _child(src: str, inputs: str, call: str, cfg_json: str) -> dict:
    sys.path.insert(0, src)
    from sagetok import encoder
    from sagetok.corpus import RawCorpus, build_index
    from sagetok.unigram import train_unigram
    from sagetok.vocab import Vocabulary

    tokens, lines, _ = common.load_inputs(inputs)
    cfg = json.loads(cfg_json)
    corpus = RawCorpus.from_lines(lines)
    kernel = getattr(encoder, "_kernel", None)
    path = "python" if kernel is None or kernel() is None else "compiled"
    times = []
    out: dict = {}
    if call == "build_index":
        vocab = Vocabulary(tokens)
        encoder.compile(vocab)
        t0 = time.perf_counter()
        cv = encoder.compile(vocab)
        out["compile_s"] = time.perf_counter() - t0
        for _ in range(cfg["passes"]):
            t0 = time.perf_counter()
            index = build_index(corpus, cv)
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        out.update(words_per_s=len(index.type_ids) / seconds, types_per_s=len(index.types) / seconds)
        payload = json.dumps(index.segs, ensure_ascii=False)
    else:
        for _ in range(cfg["passes"]):
            t0 = time.perf_counter()
            vocab = train_unigram(corpus, cfg["target"], cfg["prune_batch"])
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        payload = json.dumps(list(vocab.tokens), ensure_ascii=False)
    return {"seconds": seconds, **out, "peak_rss_mb": common.peak_rss_mb(), "encoder": path,
            "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest()}


def _inputs(corpus_spec, bpe_spec) -> tuple[list[str], dict]:
    """The case's lines, and the arrays to save for ``common.load_inputs``:
    the BPE vocabulary (trained on ``bpe_spec``'s corpus, or on the case's
    own lines where that is None) and the lines."""
    sys.path.insert(0, str(common.ROOT / "src"))
    from sagetok.bpe import train_bpe
    from sagetok.corpus import RawCorpus

    lines, seed, n_stems, alpha = corpus_spec
    corpus = RawCorpus.from_lines(common.corpus_lines(lines, seed, n_stems, zipf_alpha=alpha))
    tokens: tuple[str, ...] = ()
    if bpe_spec is not None:
        train_spec, size = bpe_spec
        train = corpus
        if train_spec is not None:
            t_lines, t_seed, t_stems, t_alpha = train_spec
            train = RawCorpus.from_lines(common.corpus_lines(t_lines, t_seed, t_stems, zipf_alpha=t_alpha))
        tokens = train_bpe(train, size)[0].tokens
    text = np.frombuffer("\n".join(corpus.lines).encode("utf-8"), dtype=np.uint8)
    return list(corpus.lines), {"tokens": np.array(tokens, dtype=str), "text": text}


def main(argv: list[str]) -> int:
    args = common.parser(__doc__, "BENCH_encode.json", CASES).parse_args(argv)
    record = common.header("sagetok.corpus.build_index, sagetok.unigram.train_unigram", args.base, args.repeats)
    with common.exported(args.base) as (tmp, sides):
        for name, call, corpus_spec, bpe_spec, cfg in CASES:
            if name not in args.cases:
                continue
            inputs = tmp / f"{name}.npz"
            lines, arrays = _inputs(corpus_spec, bpe_spec)
            np.savez(inputs, **arrays)
            words = sum(len(line.split(" ")) for line in lines)
            case = {"name": name, "call": call, "corpus": corpus_spec, "bpe": bpe_spec, "config": cfg,
                    "vocab": len(arrays["tokens"]), "lines": len(lines), "words": words}
            record["cases"].append(common.compare(__file__, sides, args.repeats, case, str(inputs), call,
                                                  json.dumps(cfg)))
    return common.finish(record, args.out)


if __name__ == "__main__":
    sys.exit(common.dispatch(_child, main))
