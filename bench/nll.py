"""Skipgram NLL scoring benchmark: parent commit against the working tree.

    python3 bench/nll.py --base HEAD --out BENCH_nll.json

Exports ``--base`` with ``git archive`` into a temporary directory and
times the skipgram NLL scorer (``sagetok.objective.batched_sentence_nll``)
through its two callers, from that tree and from this checkout's ``src/``.
Each case's inputs are built once by this checkout and saved: seeded
``tests/textgen.py`` lines, a BPE vocabulary trained on them and an
embedding table. Each measurement runs in a fresh process: it loads the
inputs and encodes the lines under the vocabulary with its side's own
encoder (byte-identical across trees, so both sides score the same ids
under the same rows), times the calls with ``time.perf_counter`` and
reads its peak RSS (``common.peak_rss_mb``), then repeats the calls
untimed on a fresh table under ``tracemalloc`` for the scoring's own peak
allocation (the process peak is mostly the inputs and their encoding).
The two sides alternate, and the record keeps every run, the median
seconds, both peaks and a digest of the NLL (and loss) arrays of each
side.

The cases:

* ``sage-ablation``: the ``sage`` benchmark workload's prune corpus at
  seed 7 (250 lines, BPE to V=750) with a table trained under that
  workload's SGNS flags. ``attach_nll_cache`` at window 5, then one
  full-recalc ``ablation_losses`` over every unprotected token, the
  first iteration of that workload's pruning loop; the time is the
  ablation call's.
* ``attach-20k`` and ``attach-100k``: Criterion 7's corpus recipe at 20k
  lines (V=2,500) and 100k lines (V=5,000), encoded into a store, and
  ``attach_nll_cache`` at window 5 twice on one table: the first pass,
  then a repeat such as a resume or a later full pass makes. The table
  is seeded normal rows (scale 0.1), not trained: scoring reads the rows
  and does the same work whatever their values.
* ``attach-v20k``: the same at 100k lines with BPE to V=20,000, the
  initial vocabulary of the README's ``train-sage --vocab-size 16000``.
* ``top-20k`` and ``top-100k``: the attach cases' corpora and seeded
  tables, and ``ablation_losses`` of the single most frequent unprotected
  token (a ``▁the``-like token, whose sentences hold most of the corpus)
  after an untimed ``attach_nll_cache``; the time is the ablation call's.
  Its scoring peak is what tracemalloc sees above the memory held when
  the call starts, so it leaves out the inputs and the NLL cache.

Attach cases also record ``pair_terms``, the pair terms one pass adds,
and ``distinct_pairs``, the unordered id pairs among them: a first pass
computes only the distinct ones, so ``1 - distinct_pairs / pair_terms``
is the share of terms it reads back rather than computes.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

import common

WINDOW = 5
# (name, lines, corpus seed, n_stems, zipf alpha, BPE size, SGNS config or
# None for seeded rows); the first is the `sage` workload's prune corpus at
# seed 7 with its train-sage flags, the others Criterion 7's corpus recipe
CASES = (
    ("sage-ablation", 250, 7001, 1500, 1.3, 750, {"dim": 50, "window": 2, "negatives": 15, "epochs": 1, "seed": 1}),
    ("attach-20k", 20_000, 7001, 12500, 1.15, 2500, None),
    ("attach-100k", 100_000, 7001, 62500, 1.15, 5000, None),
    ("attach-v20k", 100_000, 7001, 62500, 1.15, 20000, None),
    ("top-20k", 20_000, 7001, 12500, 1.15, 2500, None),
    ("top-100k", 100_000, 7001, 62500, 1.15, 5000, None),
)


def _digest(*arrays) -> str:
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def _child(src: str, kind: str, inputs: str) -> dict:
    sys.path.insert(0, src)
    from sagetok import encoder
    from sagetok.corpus import RawCorpus, build_index
    from sagetok.embeddings import SkipGramTable
    from sagetok.objective import ablation_losses, attach_nll_cache
    from sagetok.vocab import Vocabulary, is_protected

    tokens, lines, arrays = common.load_inputs(inputs)
    vocab = Vocabulary(tokens)
    rows = arrays["target"], arrays["context"]
    corpus = RawCorpus.from_lines(lines)
    cv = encoder.compile(vocab)
    # a tree from before ablation_losses read the vocabulary from cv takes it as an argument
    old_api = (vocab,) if "vocab" in inspect.signature(ablation_losses).parameters else ()

    def table():
        return SkipGramTable(*rows, rows[0].shape[1], WINDOW, vocab.digest())

    if kind == "ablation":
        index = build_index(corpus, cv)
        store = index.store(vocab.digest())
        candidates = [t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])]

        def score(table) -> tuple[dict, str]:
            nll, _ = attach_nll_cache(store, table, WINDOW)
            t0 = time.perf_counter()
            losses = ablation_losses(candidates, nll, index, *old_api, table, cv, WINDOW)
            seconds = {"seconds": time.perf_counter() - t0}
            return seconds, _digest(nll, np.array([r.loss for r in losses]))
    elif kind == "top":
        index = build_index(corpus, cv)
        store = index.store(vocab.digest())
        counts = np.bincount(store.flat, minlength=len(vocab))
        top = max((t for t in range(len(vocab)) if not is_protected(vocab.tokens[t])), key=lambda t: counts[t])

        def score(table) -> tuple[dict, str]:
            nll, _ = attach_nll_cache(store, table, WINDOW)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            t0 = time.perf_counter()
            loss = ablation_losses([top], nll, index, *old_api, table, cv, WINDOW)[0]
            seconds = time.perf_counter() - t0
            # zero when tracemalloc is off
            extra = max(tracemalloc.get_traced_memory()[1] - held, 0)
            return ({"seconds": seconds, "top_scoring_peak_mb": extra / 2**20, "top_token": vocab.tokens[top],
                     "top_count": int(counts[top]), "top_sentence_tokens": int(store.lengths[sorted(
                         index.sentences(top))].sum())}, _digest(nll, np.array([loss.loss])))
    else:
        store = encoder.encode_corpus(corpus, cv)

        def score(table) -> tuple[dict, str]:
            t0 = time.perf_counter()
            first, first_total = attach_nll_cache(store, table, WINDOW)
            t1 = time.perf_counter()
            again, again_total = attach_nll_cache(store, table, WINDOW)
            t2 = time.perf_counter()
            if not np.array_equal(first, again) or first_total != again_total:
                raise SystemExit("bench: a repeated attach_nll_cache gave other values")
            return {"seconds": t1 - t0, "repeat_seconds": t2 - t1}, _digest(first, np.array([first_total]))

    seconds, digest = score(table())
    peak_mb = common.peak_rss_mb()
    # the process peak is mostly the inputs; the scoring's own peak comes
    # from a second, untimed run on a fresh table under tracemalloc, which
    # sees numpy's array allocations
    tracemalloc.start()
    traced, _ = score(table())
    scoring_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if "top_scoring_peak_mb" in traced:
        seconds["top_scoring_peak_mb"] = traced["top_scoring_peak_mb"]
    return {**seconds, "peak_rss_mb": peak_mb, "scoring_peak_mb": scoring_peak / 2**20, "digest": digest}


def _prepare(path, lines: int, seed: int, n_stems: int, alpha: float, size: int, sgns) -> dict:
    """Save the case's inputs (``common.build_inputs`` and a table: trained
    under ``sgns``, or seeded rows); returns their shape."""
    vocab, store, arrays = common.build_inputs(lines, seed, n_stems, alpha, size)
    from sagetok.embeddings import EmbedConfig, train_embeddings  # build_inputs put src/ on sys.path

    if sgns is not None:
        table = train_embeddings(store, vocab, EmbedConfig(**sgns))
        target, context = table.target, table.context
    else:
        rng = np.random.default_rng(seed)
        target, context = rng.normal(0.0, 0.1, (len(vocab), 50)), rng.normal(0.0, 0.1, (len(vocab), 50))
    np.savez(path, **arrays, target=target, context=context)
    shape = {"vocab": len(vocab), "sentences": len(store), "tokens": store.total_tokens(),
             "pairs": common.window_pairs(store.lengths, WINDOW)}
    if sgns is None:
        shape.update(pair_terms=shape["pairs"] // 2, distinct_pairs=_distinct_pairs(store, len(vocab)))
    return shape


def _distinct_pairs(store, rows: int) -> int:
    """Distinct unordered id pairs within ``WINDOW`` positions of each other
    in one sentence of ``store``."""
    from sagetok.corpus import window_pairs  # build_inputs put src/ on sys.path

    seen = np.zeros(0, dtype=np.int64)
    for left, right in window_pairs(store.flat, store.lengths, WINDOW):
        seen = np.union1d(seen, np.minimum(left, right) * rows + np.maximum(left, right))
    return len(seen)


def main(argv: list[str]) -> int:
    args = common.parser(__doc__, "BENCH_nll.json", CASES).parse_args(argv)
    record = common.header("sagetok.objective.batched_sentence_nll", args.base, args.repeats)
    record["window"] = WINDOW
    with common.exported(args.base) as (tmp, sides):
        for name, lines, seed, n_stems, alpha, size, sgns in CASES:
            if name not in args.cases:
                continue
            inputs = tmp / f"{name}.npz"
            shape = _prepare(inputs, lines, seed, n_stems, alpha, size, sgns)
            kind = "ablation" if sgns is not None else name.split("-")[0]
            case = {"name": name, "lines": lines, "seed": seed, "n_stems": n_stems, "zipf_alpha": alpha,
                    "bpe_size": size, **shape, "sgns": sgns}
            record["cases"].append(common.compare(__file__, sides, args.repeats, case, kind, str(inputs)))
    return common.finish(record, args.out)


if __name__ == "__main__":
    sys.exit(common.dispatch(_child, main))
