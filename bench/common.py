"""The compare loop every ``bench/`` script runs.

A script declares its cases, prepares each case's inputs and measures one
side in its ``_child``; this module does the rest: the ``--child``
dispatch, the shared flags, exporting ``--base`` with ``git archive``,
running each measurement in a fresh process with the two sides
alternating, one summary rule for every script's runs, and the record
with its exit code (0 when every case's two sides gave the same output).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def dispatch(child, main) -> int:
    """``script --child args...`` prints ``child(*args)`` as one JSON
    object; any other command line is the script's ``main``."""
    argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        print(json.dumps(child(*argv[1:])))
        return 0
    return main(argv)


def parser(doc: str, out: str, cases=None, repeats: int = 3) -> argparse.ArgumentParser:
    """``--base``, ``--repeats``, ``--cases`` (the names of ``cases``, when
    given) and ``--out`` (default ``out`` at the repository root)."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--repeats", type=int, default=repeats, help="fresh processes per side and case")
    if cases is not None:
        names = [c[0] for c in cases]
        parser.add_argument("--cases", nargs="*", default=names, choices=names)
    parser.add_argument("--out", type=Path, default=ROOT / out)
    return parser


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Extract ``rev`` with ``git archive`` into ``dest``; returns its ``src``."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


@contextlib.contextmanager
def exported(base: str):
    """``(scratch directory, {side: its src})``: ``base`` exported into the
    scratch directory, ``change`` this checkout; both last the block."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        yield tmp, {"base": export(base, tmp / "base"), "change": ROOT / "src"}


def header(benchmark: str, base: str, repeats: int) -> dict:
    import numpy

    return {
        "benchmark": benchmark,
        "base": {"rev": base, "sha": git("rev-parse", base)},
        "change": {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--", "src"))},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "repeats": repeats,
        "cases": [],
    }


def corpus_lines(lines: int, seed: int, n_stems: int, **kwargs) -> list[str]:
    """Seeded ``tests/textgen.py`` lines, from this checkout's generator."""
    sys.path.insert(0, str(ROOT / "tests"))
    from textgen import generate_corpus

    return generate_corpus(lines, seed=seed, n_stems=n_stems, **kwargs)


def build_inputs(lines: int, seed: int, n_stems: int, alpha: float, size: int):
    """``(vocabulary, store, arrays)``, built by this checkout: a BPE
    vocabulary of ``size`` trained on seeded lines, the lines encoded under
    it, and the arrays to save with ``np.savez`` for :func:`load_inputs`."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from sagetok import encoder
    from sagetok.bpe import train_bpe
    from sagetok.corpus import RawCorpus

    corpus = RawCorpus.from_lines(corpus_lines(lines, seed, n_stems, zipf_alpha=alpha))
    vocab, _ = train_bpe(corpus, size)
    store = encoder.encode_corpus(corpus, encoder.compile(vocab))
    # the lines as one uint8 array of their newline-joined UTF-8 text
    text = np.frombuffer("\n".join(corpus.lines).encode("utf-8"), dtype=np.uint8)
    return vocab, store, {"tokens": np.array(vocab.tokens), "text": text}


def load_inputs(path) -> tuple[list[str], list[str], dict]:
    """``(vocabulary tokens, corpus lines, other arrays)`` of a file saved
    from :func:`build_inputs`; a child builds its side's objects from them."""
    import numpy as np

    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    return ([str(t) for t in arrays.pop("tokens")], arrays.pop("text").tobytes().decode("utf-8").split("\n"),
            arrays)


def window_pairs(lengths, window: int) -> int:
    """Ordered pairs of positions within ``window`` of each other in one
    sentence, for sentences of ``lengths`` tokens."""
    return 2 * sum(int((lengths - d).clip(0).sum()) for d in range(1, window + 1))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB, read as ``VmHWM``: a
    program image starts it afresh. Linux carries the forking process's
    RSS into ``ru_maxrss`` across ``fork`` and ``exec``, so a child of the
    script's parent, which holds every case's inputs, would report at
    least that process's size; ``ru_maxrss`` is the fallback where
    ``/proc`` is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(runs: list[dict]) -> dict:
    """One side's runs as one record entry, key by key of the first run:
    ``digest``, which every run must agree on; a nested dict (one per
    command), summarized by this rule; a string, as every run gives it, or
    the list of every run's value where they differ; a peak (``peak_rss_mb``, ``*_peak_mb``) as ``<key>_max``; any
    other number as ``<key>_median``, and a time (``seconds``,
    ``*_seconds``, ``*_s`` but not a rate ``*_per_s``) also as the list
    ``<key>`` of every run's value."""
    out: dict = {}
    for key, first in runs[0].items():
        values = [r[key] for r in runs]
        if key == "digest":
            if len(set(values)) != 1:
                raise SystemExit(f"bench: runs of one side disagree on the output: {sorted(set(values))}")
            out[key] = first
        elif isinstance(first, dict):
            out[key] = summary(values)
        elif isinstance(first, str):
            out[key] = first if len(set(values)) == 1 else values
        elif key == "peak_rss_mb" or key.endswith("_peak_mb"):
            out[f"{key}_max"] = max(values)
        else:
            out[f"{key}_median"] = statistics.median(values)
            if key == "seconds" or key.endswith(("_seconds", "_s")) and not key.endswith("_per_s"):
                out[key] = values
    return out


def _lines(label: str, base: dict, change: dict):
    """One stderr line per summary level: each median and maximum, base -> change."""
    yield f"{label}: " + ", ".join(f"{key} {base[key]:.4g} -> {change[key]:.4g}"
                                   for key in base if key.endswith(("_median", "_max")))
    for key, value in base.items():
        if isinstance(value, dict):
            yield from _lines(f"{label} {key}", value, change[key])


def compare(script: str, sides: dict, repeats: int, case: dict, *args: str) -> dict:
    """One case: ``script --child <side's src> args...`` ``repeats`` times
    per side, each in a fresh interpreter whose stdout is one JSON object,
    the first side switching every round. Returns ``case`` with each
    side's :func:`summary`, whether the two gave the same output and,
    where the runs time one thing, the ratio of median seconds (base /
    change)."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for r in range(repeats):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            child = [sys.executable, script, "--child", str(sides[side]), *args]
            runs[side].append(json.loads(subprocess.run(child, check=True, stdout=subprocess.PIPE, text=True).stdout))
    case = {**case, **{side: summary(runs[side]) for side in SIDES}}
    base, change = case["base"], case["change"]
    case["identical_output"] = base["digest"] == change["digest"]
    if "seconds_median" in base:
        case["speedup"] = base["seconds_median"] / change["seconds_median"]
    print(*_lines(case.get("name") or f"seed {case['seed']}", base, change),
          f"identical={case['identical_output']}", sep="\n", file=sys.stderr)
    return case


def finish(record: dict, out: Path) -> int:
    """Write ``record`` to ``out``; the exit code is 0 when every case's two
    sides gave the same output, else 1."""
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0 if all(c["identical_output"] for c in record["cases"]) else 1
