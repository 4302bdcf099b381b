"""Spans and counters recorded around sagetok's layer boundaries.

Nothing here edits the program. A hook replaces a module attribute that
callers look up: a function defined in one module and imported by name
into others is replaced in every ``sagetok`` module that holds it, and a
method is replaced on its class. Every hook point is resolved by name
when a tracer is built; one that a refactor removed is listed as absent
and its metrics are left out, so the benchmark keeps running.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

# Percentiles tried for the tail, highest last. A percentile is reported
# only when at least TAIL_BEYOND samples lie beyond it.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Recorder:
    """Spans kept in memory, plus named counters, for one pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn, args, kwargs):
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(values) -> tuple[float, float] | None:
    """(q, value) for the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it, or None when even the median has fewer."""
    n = len(values)
    best = None
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_BEYOND - 1e-9:
            best = q
    return None if best is None else (best, percentile(values, best))


def trimmed_mean(values, cut: float = 0.2) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``cut`` share of them (rounded down).

    The end-to-end timings use it over a run's passes. The passes do the
    same work, but the shared host runs them up to 1.5x slower for spells
    of ten seconds or more, so a run's passes are a mix of fast and slow
    ones. The median jumps between the two groups; the mean follows the
    mix, and trimming keeps one stray pass from moving it. In 13 sets of
    five runs on a 2-vCPU VM, the spread between runs (quartile distance
    over median) averaged 0.18 for this mean and 0.20 for the median."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return float(np.mean(ordered[k:len(ordered) - k]))


def supports(n: int, q: float) -> bool:
    return n * (100.0 - q) / 100.0 >= TAIL_BEYOND - 1e-9


# ---------------------------------------------------------------- hook points


def _resolve(path: str):
    """(owner, attribute, original) for 'module:Attr' or 'module:Class.attr'."""
    modname, _, dotted = path.partition(":")
    owner = sys.modules.get(modname)
    if owner is None:
        try:
            __import__(modname)
        except ImportError:
            return None
        owner = sys.modules[modname]
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None
    return owner, parts[-1], original


def _sites(owner, attr: str, original) -> list[tuple[object, str]]:
    """Every place callers look the original up: its owner, plus any
    sagetok module that imported it by name."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "sagetok" or modname.startswith("sagetok.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, name))
    return sites


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------- extra counts


def _pairs(store, window: int) -> int:
    """Ordered in-window (target, context) pairs over a store, per epoch."""
    lengths = np.fromiter((len(a) for a in store.ids), dtype=np.int64, count=len(store.ids))
    return int(sum(2 * np.maximum(lengths - d, 0).sum() for d in range(1, window + 1)))


def _after_train_embeddings(rec, args, kwargs, result):
    store, cfg = args[0], (args[2] if len(args) > 2 else kwargs["cfg"])
    rec.add("embeddings.pairs", _pairs(store, cfg.window) * cfg.epochs)


def _after_ablation(rec, args, kwargs, result):
    rec.add("objective.ablation_loss.sentences", result.affected_sentences)


def _after_batched_nll(rec, args, kwargs, result):
    rec.add("objective.batched_sentence_nll.sentences", len(result))


def _before_retokenize(rec, args, kwargs):
    index, removed = args[1], args[2]
    affected: set[int] = set()
    for t in removed:
        affected |= index.sentences(t)
    rec.add("corpus.retokenize_sentences.sentences", len(affected))


def _after_encode_corpus(rec, args, kwargs, result):
    rec.add("encoder.encode_corpus.tokens", result.total_tokens())


def _after_train_bpe(rec, args, kwargs, result):
    rec.add("bpe.merges", len(result[1]))


def _after_init_substrings(rec, args, kwargs, result):
    from sagetok.vocab import is_protected

    rec.counts["unigram._initial"] = len(result)
    rec.counts["unigram._protected"] = sum(1 for t in result.tokens if is_protected(t))


def _after_train_unigram(rec, args, kwargs, result):
    """Candidates scored, from the initial size, the protected count, the
    target and the batch (the trainer scores every unprotected alive token
    once per iteration)."""
    initial = rec.counts.pop("unigram._initial", None)
    protected = rec.counts.pop("unigram._protected", None)
    if initial is None:
        return
    target = args[1] if len(args) > 1 else kwargs["target_size"]
    batch = args[2] if len(args) > 2 else kwargs.get("prune_batch", 1)
    alive, candidates = int(initial), 0
    while alive > target:
        candidates += alive - int(protected)
        alive -= min(batch, alive - target)
    rec.add("unigram.candidates", candidates)


def _count_encode_word(rec, args, kwargs):
    rec.add("encoder.encode_word.calls")
    banned = args[2] if len(args) > 2 else kwargs.get("banned")
    if banned:
        rec.add("encoder.encode_word.banned_calls")


@dataclass(frozen=True)
class Hook:
    name: str          # metric prefix, <module>.<function>
    path: str          # where the original lives, 'module:attr'
    spans: bool = True  # False: count calls only, no timing
    before: object = None
    after: object = None


HOOKS = (
    Hook("embeddings.train_embeddings", "sagetok.embeddings:train_embeddings", after=_after_train_embeddings),
    Hook("embeddings.init_tables", "sagetok.embeddings:init_tables"),
    Hook("objective.ablation_loss", "sagetok.objective:ablation_loss", after=_after_ablation),
    Hook("objective.batched_sentence_nll", "sagetok.objective:batched_sentence_nll", after=_after_batched_nll),
    Hook("objective.corpus_nll", "sagetok.objective:corpus_nll"),
    Hook("objective.attach_nll_cache", "sagetok.objective:attach_nll_cache"),
    Hook("corpus.retokenize_sentences", "sagetok.corpus:retokenize_sentences", before=_before_retokenize),
    Hook("corpus.build_index", "sagetok.corpus:build_index"),
    Hook("corpus.load_corpus", "sagetok.corpus:load_corpus"),
    Hook("encoder.compile", "sagetok.encoder:compile"),
    Hook("encoder.encode_corpus", "sagetok.encoder:encode_corpus", after=_after_encode_corpus),
    Hook("encoder.encode_word", "sagetok.encoder:CompiledVocab.encode_word", spans=False, before=_count_encode_word),
    Hook("bpe.train_bpe", "sagetok.bpe:train_bpe", after=_after_train_bpe),
    Hook("unigram.init_substring_vocab", "sagetok.unigram:init_substring_vocab", after=_after_init_substrings),
    Hook("unigram.train_unigram", "sagetok.unigram:train_unigram", after=_after_train_unigram),
    Hook("sage.init_state", "sagetok.sage:init_state"),
    Hook("sage.prune_iteration", "sagetok.sage:prune_iteration"),
    Hook("sage.save_checkpoint", "sagetok.sage:save_checkpoint"),
    Hook("sage.load_checkpoint", "sagetok.sage:load_checkpoint"),
    Hook("analysis.token_stats", "sagetok.analysis:token_stats"),
    Hook("analysis.fertility_hist", "sagetok.analysis:fertility_hist"),
    Hook("analysis.efficiency", "sagetok.analysis:efficiency"),
    Hook("analysis.summary_report", "sagetok.analysis:summary_report"),
)


def _wrap(hook: Hook, original, rec: Recorder):
    if not hook.spans:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            hook.before(rec, args, kwargs)
            return original(*args, **kwargs)

        return counted

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if hook.before is not None:
            hook.before(rec, args, kwargs)
        result = rec.timed(hook.name, original, args, kwargs)
        if hook.after is not None:
            hook.after(rec, args, kwargs, result)
        return result

    return traced


class Tracer:
    """Installs HOOKS for the duration of a traced pass."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.present = [h.name for h in hooks if _resolve(h.path) is not None]
        self.absent = [h.name for h in hooks if h.name not in self.present]
        self._patches = Patches()

    def install(self, rec: Recorder) -> None:
        for hook in self.hooks:
            found = _resolve(hook.path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = _wrap(hook, original, rec)
            for site_owner, site_attr in _sites(owner, attr, original):
                self._patches.replace(site_owner, site_attr, wrapper)

    def uninstall(self) -> None:
        self._patches.restore()


# ----------------------------------------------------------------- set-up time

# Input loading and pre-loop initialisation, timed in every pass, traced or
# not. Each entry is (module:attr, only when called from this module).
SETUP_POINTS = (
    ("sagetok.cli:load_corpus", None),
    ("sagetok.cli:load_vocab", None),
    ("sagetok.encoder:compile", "sagetok.cli"),  # the compile done by encode and analyze
    ("sagetok.sage:init_state", None),
    ("sagetok.sage:load_checkpoint", None),
)


class SetupTimer:
    """Sums the time spent in SETUP_POINTS; nested entries count once."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.absent = [p for p, _ in SETUP_POINTS if _resolve(p) is None]
        self._depth = 0
        self._patches = Patches()

    def install(self) -> None:
        for path, caller in SETUP_POINTS:
            found = _resolve(path)
            if found is not None:
                owner, attr, _ = found
                self._patches.replace(owner, attr, self._wrap(getattr(owner, attr), caller))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, fn, caller):
        timer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if timer._depth or (caller and sys._getframe(1).f_globals.get("__name__") != caller):
                return fn(*args, **kwargs)
            timer._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - start
                timer._depth -= 1

        return timed


# ------------------------------------------------------------- per-pass stats


def pass_layers(rec: Recorder) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-pass layer metrics and the call durations (seconds) per hook."""
    selfs = self_times(rec.spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(rec.spans, selfs):
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        own[span.name] = own.get(span.name, 0.0) + self_s
        durations.setdefault(span.name, []).append(span.end - span.start)
    out: dict[str, float] = {}
    for name, seconds in total.items():
        out[f"{name}.calls"] = len(durations[name])
        out[f"{name}.s"] = seconds
        out[f"{name}.self_s"] = own[name]
    out.update(rec.counts)
    return out, durations


def rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
