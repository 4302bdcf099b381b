"""Output checks for the benchmark's CLI commands.

The invariants are computed from the files and the generated corpus
alone, without calling into sagetok. Token-level digests (vocabulary
tokens, merge log, the ordered pruned-token list, encode output) are
compared against ``reference.json`` for the default seed; float fields
such as losses, ``total_nll`` and summary ratios stay out of them, so a
rewrite that changes summation order stays legal while a changed prune
order fails.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import Op, sage_initial_size

MARKER = "▁"
HEADER = "#sagetok "


def sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def corpus_digest(lines: list[str]) -> str:
    return sha("\n".join(lines) + "\n")


def _body(path: Path) -> list[str]:
    """Non-empty lines of a sagetok output file, without its header lines."""
    text = path.read_text(encoding="utf-8")
    return [line for line in text.split("\n") if line and not line.startswith(HEADER)]


def _is_protected(token: str) -> bool:
    return len(token) - (1 if token.startswith(MARKER) else 0) <= 1


def _words(lines: list[str]) -> list[str]:
    return [MARKER + w for line in lines for w in line.split(" ")]


def _alphabet(words) -> set[str]:
    chars: set[str] = set()
    for w in words:
        chars.update(w)
    return chars


def _vocab(op: Op, out: Path, target: int, problems: list[str]) -> list[str]:
    tokens = _body(out / op.param("vocab"))
    if len(tokens) != target:
        problems.append(f"vocabulary has {len(tokens)} tokens, expected {target}")
    if len(set(tokens)) != len(tokens):
        problems.append("vocabulary has duplicate tokens")
    return tokens


def _read_events(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    return [r for r in records if "meta" not in r]


def check_train_sage(op: Op, out: Path, corpora: dict[str, list[str]], result: dict) -> None:
    problems, target = result["problems"], op.param("target")
    tokens = _vocab(op, out, target, problems)
    events = _read_events(out / (op.param("vocab") + ".events.jsonl"))
    pruned = [p["token"] for e in events for p in e["pruned"]]
    initial = sage_initial_size(target)
    if len(pruned) != initial - target:
        problems.append(f"event log prunes {len(pruned)} tokens, expected {initial} - {target}")
    if events and events[-1]["vocab_size"] != target:
        problems.append("last event does not report the target size")
    if any(_is_protected(t) for t in pruned):
        problems.append("a protected token was pruned")
    if set(pruned) & set(tokens) or len(set(pruned)) != len(pruned):
        problems.append("pruned tokens overlap the final vocabulary or repeat")
    missing = _alphabet(_words(corpora[op.param("corpus")])) - set(tokens)
    if missing:
        problems.append(f"protected base characters missing: {sorted(missing)[:5]}")
    result["digests"] = {"vocab_tokens": sha("\n".join(tokens)), "pruned_order": sha("\n".join(pruned))}
    evals = sum(e["loss_evals"] for e in events)
    result["sage"] = {
        "sage.loss_evals": evals,
        "sage.pruned": len(pruned),
        "sage.prune_yield": len(pruned) / evals if evals else 0.0,
        "sage.full_recalcs": sum(bool(e["full_recalc"]) for e in events),
        "sage.forced_recalcs": sum(bool(e["forced_recalc"]) for e in events),
        "sage.retrains": sum(bool(e["embeddings_retrained"]) for e in events),
    }


def check_resume(op: Op, out: Path, corpora, result: dict) -> None:
    first, resumed = op.param("of"), op.param("vocab")
    for suffix in ("", ".events.jsonl"):
        if (out / (resumed + suffix)).read_bytes() != (out / (first + suffix)).read_bytes():
            result["problems"].append(f"resumed {resumed + suffix} differs from {first + suffix}")


def check_train_bpe(op: Op, out: Path, corpora, result: dict) -> None:
    problems = result["problems"]
    tokens = _vocab(op, out, op.param("target"), problems)
    merges = [line.split("\t") for line in _body(out / (op.param("vocab") + ".merges"))]
    alphabet = sorted(_alphabet(_words(corpora[op.param("corpus")])))
    replay, known = list(alphabet), set(alphabet)
    for left, right, _count in merges:
        if left + right not in known:
            replay.append(left + right)
            known.add(left + right)
    if replay != tokens:
        problems.append("vocabulary is not the alphabet followed by the merge results")
    result["digests"] = {
        "vocab_tokens": sha("\n".join(tokens)),
        "merges": sha("\n".join("\t".join(m) for m in merges)),
    }


def check_train_unigram(op: Op, out: Path, corpora, result: dict) -> None:
    tokens = _vocab(op, out, op.param("target"), result["problems"])
    words = _words(corpora[op.param("corpus")])
    protected = _alphabet(words) | {w[:2] for w in words if len(w) >= 2}
    missing = protected - set(tokens)
    if missing:
        result["problems"].append(f"protected tokens missing: {sorted(missing)[:5]}")
    result["digests"] = {"vocab_tokens": sha("\n".join(tokens))}


def check_encode(op: Op, out: Path, corpora, result: dict) -> None:
    problems = result["problems"]
    vocab = set(_body(out / op.param("vocab")))
    lines = corpora[op.param("corpus")]
    raw = (out / op.param("out")).read_bytes()
    encoded = raw.decode("utf-8").split("\n")
    if encoded[-1] == "":
        encoded.pop()
    if len(encoded) != len(lines):
        problems.append(f"encode wrote {len(encoded)} lines for {len(lines)} input lines")
    tokens = 0
    for i, (got, line) in enumerate(zip(encoded, lines)):
        pieces = got.split(" ")
        tokens += len(pieces)
        # a piece outside the vocabulary can only be one UNK source character
        if any(p not in vocab and len(p) != 1 for p in pieces):
            problems.append(f"line {i + 1}: output uses a token outside the vocabulary")
            break
        if "".join(pieces).split(MARKER)[1:] != line.split(" "):
            problems.append(f"line {i + 1}: tokens do not join back to the input line")
            break
    result["tokens"] = tokens
    result["digests"] = {"output": sha(raw)}


def _hist_total(path: Path, weighted: bool = False) -> int:
    rows = list(csv.reader(line for line in _body(path)))[1:]
    return sum(int(k) * int(c) if weighted else int(c) for k, c in rows)


def check_analyze(op: Op, out: Path, corpora, result: dict) -> None:
    problems = result["problems"]
    outdir = out / op.param("outdir")
    n_tokens = len(_body(out / op.param("vocab")))
    n_words = sum(len(line.split(" ")) for line in corpora[op.param("corpus")])
    if _hist_total(outdir / "token_length.csv") != n_tokens:
        problems.append("token length histogram total is not the vocabulary size")
    if _hist_total(outdir / "fertility.csv") != n_words:
        problems.append("fertility histogram total is not the word-occurrence count")
    encoded = sum(len(line.split(" ")) for line in _body(out / op.param("encoded")))
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    if not (_hist_total(outdir / "fertility.csv", weighted=True) == encoded
            == summary["efficiency"]["total_tokens"]):
        problems.append("fertility and efficiency token totals disagree with the encoded output")


CHECKS = {
    "train-sage": check_train_sage,
    "resume": check_resume,
    "train-bpe": check_train_bpe,
    "train-unigram": check_train_unigram,
    "encode": check_encode,
    "analyze": check_analyze,
}


def check_op(op: Op, out: Path, corpora: dict[str, list[str]]) -> dict:
    """Problems found, token-level digests, and counts read from the outputs."""
    result: dict = {"problems": [], "digests": {}}
    try:
        CHECKS[op.kind](op, out, corpora, result)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        result["problems"].append(f"unreadable output: {exc!r}")
    return result


def output_prefix(op: Op) -> str:
    """File-name prefix of everything this command writes."""
    return op.param("out" if op.kind == "encode" else "outdir" if op.kind == "analyze" else "vocab")


def tree_digests(out: Path) -> dict[str, str]:
    """Digest of every output file, for the byte-identity check between
    passes. Checkpoints are left out: their zip entries carry write times."""
    return {
        str(p.relative_to(out)): sha(p.read_bytes())
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.suffix != ".npz"
    }
