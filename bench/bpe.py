"""BPE training benchmark: parent commit against the working tree.

    python3 bench/bpe.py --base HEAD --out BENCH_bpe.json

Exports ``--base`` with ``git archive`` into a temporary directory and
times ``sagetok.bpe.train_bpe`` from that tree and from this checkout's
``src/`` on seeded ``tests/textgen.py`` corpora. Both sides read the same
corpus files, generated once by this checkout's generator. Each
measurement runs in a fresh process: it times one training with
``time.perf_counter``, reads its peak RSS (``common.peak_rss_mb``),
then trains again with ``heapq.heappop`` wrapped to count heap pops (the
wrapper slows that second run, so it is not timed). The two sides
alternate, and the record keeps every run, the median seconds, and a
digest of the vocabulary, provenance and merge log of each side.
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

from common import ROOT, alternate, export, header, peak_rss_mb, run_child, same_digest

# (name, lines, seed, n_stems, target vocabulary size); the first is the
# `baselines` benchmark workload's train-bpe corpus at seed 7
CASES = (
    ("1.2k", 1_200, 7000, 4000, 1600),
    ("20k", 20_000, 20001, 4000, 2500),
    ("100k", 100_000, 100001, 4000, 5000),
)


def _child(src: str, corpus: str, target: int) -> dict:
    sys.path.insert(0, src)
    import heapq

    from sagetok.bpe import train_bpe
    from sagetok.corpus import RawCorpus

    with open(corpus, encoding="utf-8") as f:
        lines = f.read().splitlines()
    raw = RawCorpus.from_lines(lines)
    t0 = time.perf_counter()
    vocab, merges = train_bpe(raw, target)
    seconds = time.perf_counter() - t0
    peak_mb = peak_rss_mb()

    pops = 0
    heappop = heapq.heappop

    def counting_heappop(heap):
        nonlocal pops
        pops += 1
        return heappop(heap)

    heapq.heappop = counting_heappop
    try:
        train_bpe(raw, target)
    finally:
        heapq.heappop = heappop

    payload = json.dumps(
        [list(vocab.tokens), list(vocab.provenance), [(m.left, m.right, m.count) for m in merges]],
        ensure_ascii=False,
    )
    return {
        "seconds": seconds,
        "merges": len(merges),
        "merges_per_s": len(merges) / seconds,
        "heap_pops": pops,
        "peak_rss_mb": peak_mb,
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }


def _summary(runs: list[dict]) -> dict:
    digest = same_digest(runs)
    seconds = [r["seconds"] for r in runs]
    return {
        "seconds_median": statistics.median(seconds),
        "seconds": seconds,
        "merges": runs[0]["merges"],
        "merges_per_s_median": statistics.median(r["merges_per_s"] for r in runs),
        "heap_pops": runs[0]["heap_pops"],
        "peak_rss_mb_max": max(r["peak_rss_mb"] for r in runs),
        "digest": digest,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        src, corpus, target = argv[1:]
        print(json.dumps(_child(src, corpus, int(target))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=3, help="fresh processes per side and case")
    parser.add_argument("--cases", nargs="*", default=[c[0] for c in CASES],
                        choices=[c[0] for c in CASES])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_bpe.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "tests"))
    from textgen import generate_corpus

    record = header("sagetok.bpe.train_bpe", args.base, args.repeats)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"base": export(args.base, tmp / "base"), "change": ROOT / "src"}
        for name, lines, seed, n_stems, target in CASES:
            if name not in args.cases:
                continue
            corpus = tmp / f"{name}.txt"
            corpus.write_text("\n".join(generate_corpus(lines, seed=seed, n_stems=n_stems)) + "\n",
                              encoding="utf-8")
            runs = alternate(args.repeats,
                             lambda side: run_child(__file__, str(sides[side]), str(corpus), str(target)))
            case = {"name": name, "lines": lines, "seed": seed, "n_stems": n_stems, "target": target}
            case.update({side: _summary(runs[side]) for side in ("base", "change")})
            case["identical_output"] = case["base"]["digest"] == case["change"]["digest"]
            case["speedup"] = case["base"]["seconds_median"] / case["change"]["seconds_median"]
            print(f"{name}: {case['base']['seconds_median']:.3f} s -> "
                  f"{case['change']['seconds_median']:.3f} s, heap pops "
                  f"{case['base']['heap_pops']} -> {case['change']['heap_pops']}, peak RSS "
                  f"{case['base']['peak_rss_mb_max']:.0f} -> {case['change']['peak_rss_mb_max']:.0f} MB, "
                  f"identical={case['identical_output']}", file=sys.stderr)
            record["cases"].append(case)
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all(c["identical_output"] for c in record["cases"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
