"""BPE training benchmark: parent commit against the working tree.

    python3 bench/bpe.py --base HEAD --out BENCH_bpe.json

Exports ``--base`` with ``git archive`` into a temporary directory and
times ``sagetok.bpe.train_bpe`` from that tree and from this checkout's
``src/`` on seeded ``tests/textgen.py`` corpora. Both sides read the same
corpus files, generated once by this checkout's generator. Each
measurement runs in a fresh process: it loads the compiled merge loop
(``bpe._kernel``, built first if need be, outside the timing), times one
training with ``time.perf_counter``, reads its peak RSS
(``common.peak_rss_mb``), then trains again on the Python loop with
``heapq.heappop`` wrapped to count heap pops (the wrapper slows that
second run, so it is not timed). ``kernel`` names the loop of the timed
run: ``compiled``, or ``python`` where the library cannot be built or the
tree has none. The two sides alternate, and the record keeps every run,
the median seconds, and a digest of the vocabulary, provenance and merge
log of each side.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import common

# (name, lines, seed, n_stems, target vocabulary size); the first is the
# `baselines` benchmark workload's train-bpe corpus at seed 7
CASES = (
    ("1.2k", 1_200, 7000, 4000, 1600),
    ("20k", 20_000, 20001, 4000, 2500),
    ("100k", 100_000, 100001, 4000, 5000),
)


def _child(src: str, corpus: str, target: str) -> dict:
    sys.path.insert(0, src)
    import heapq

    from sagetok import bpe
    from sagetok.bpe import train_bpe
    from sagetok.corpus import RawCorpus

    with open(corpus, encoding="utf-8") as f:
        lines = f.read().splitlines()
    raw = RawCorpus.from_lines(lines)
    target = int(target)
    kernel = getattr(bpe, "_kernel", None)
    compiled = kernel is not None and kernel() is not None
    t0 = time.perf_counter()
    vocab, merges = train_bpe(raw, target)
    seconds = time.perf_counter() - t0
    peak_mb = common.peak_rss_mb()

    pops = 0
    heappop = heapq.heappop

    def counting_heappop(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    heapq.heappop = counting_heappop
    if kernel is not None:
        bpe._kernel = lambda: None
    try:
        train_bpe(raw, target)
    finally:
        heapq.heappop = heappop
        if kernel is not None:
            bpe._kernel = kernel

    payload = json.dumps(
        [list(vocab.tokens), list(vocab.provenance), [(m.left, m.right, m.count) for m in merges]],
        ensure_ascii=False,
    )
    return {
        "seconds": seconds,
        "merges": len(merges),
        "merges_per_s": len(merges) / seconds,
        "heap_pops": pops,
        "kernel": "compiled" if compiled else "python",
        "peak_rss_mb": peak_mb,
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def main(argv: list[str]) -> int:
    args = common.parser(__doc__, "BENCH_bpe.json", CASES).parse_args(argv)
    record = common.header("sagetok.bpe.train_bpe", args.base, args.repeats)
    with common.exported(args.base) as (tmp, sides):
        for name, lines, seed, n_stems, target in CASES:
            if name not in args.cases:
                continue
            corpus = tmp / f"{name}.txt"
            corpus.write_text("\n".join(common.corpus_lines(lines, seed, n_stems)) + "\n", encoding="utf-8")
            case = {"name": name, "lines": lines, "seed": seed, "n_stems": n_stems, "target": target}
            record["cases"].append(common.compare(__file__, sides, args.repeats, case, str(corpus), str(target)))
    return common.finish(record, args.out)


if __name__ == "__main__":
    sys.exit(common.dispatch(_child, main))
