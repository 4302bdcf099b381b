"""Corpus ingestion, the word-type index and the tokenized sentence store.

A corpus is one sentence per line. Loading optionally lowercases each
line, collapses every run of whitespace to one space, drops empty lines,
and replaces any literal boundary-marker character with ``_`` so that the
marker is unambiguous downstream. Sentences are pretokenized into
marker-prefixed words; skipgram windows never cross sentence boundaries.

``build_index`` turns a corpus into a ``WordIndex``: its distinct words
("types") with their counts, each sentence as a run of type ids, and each
type's segmentation under a compiled vocabulary, all types in one
``encode_words`` call. The encoder, the SaGe trainer and the unigram
trainer all segment through it. Pruning uses two steps on it:
``WordIndex.segment_without`` (pure: how the types holding a token would
segment without it; only the part of each word from the token's first
occurrence on is segmented again) and ``WordIndex.resegment`` (mutating:
remove tokens from the compiled vocabulary and re-segment the types that
held them, in one ``encode_words`` call). Both pruning loops take their
candidates from ``prunable`` and prune in ``prune_order``; they differ
only in the loss. ``WordIndex.gather`` turns
any run of sentences into one flat id array and per-sentence lengths in
a few numpy passes, optionally with per-sentence segmentation overrides
(the candidates of ablation scoring). ``retokenize_sentences`` applies a
removal to the index and rescores, in a per-sentence NLL array, only the
sentences that held a removed token; it reports every token found in
those sentences, before or after, so callers can tell which cached
ablation losses the removal may have changed. A ``SentenceStore`` is a
read-only snapshot of the whole corpus in that flat form (the index's
``token_stream``), built when every sentence is needed at once.
``window_pairs`` walks the in-sentence id pairs of such a flat form one
window offset at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable
from itertools import accumulate, chain

import numpy as np

from .errors import DataError, VocabError
from .vocab import MARKER, is_protected


def normalize_line(line: str, lowercase: bool = False) -> str:
    if lowercase:
        line = line.lower()
    return " ".join(line.split()).replace(MARKER, "_")


@dataclass(frozen=True)
class RawCorpus:
    """Normalized, non-empty corpus lines (one sentence per line)."""

    lines: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.lines)

    @classmethod
    def from_lines(cls, lines: Iterable[str], lowercase: bool = False) -> "RawCorpus":
        kept = [n for n in (normalize_line(l, lowercase) for l in lines) if n]
        if not kept:
            raise DataError("corpus has zero non-empty lines")
        return cls(tuple(kept))

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for line in self.lines:
            h.update(line.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()[:16]


def load_corpus(path, lowercase: bool = False) -> RawCorpus:
    """Read a UTF-8 line-per-sentence file, normalizing each line.

    Invalid UTF-8 is reported with its 1-based line number.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}: invalid UTF-8 on line {lineno}: {exc}") from exc
    try:
        return RawCorpus.from_lines(text.split("\n"), lowercase)
    except DataError:
        raise DataError(f"corpus file {path} has zero non-empty lines") from None


def pretokenize(line: str) -> tuple[str, ...]:
    """Split a normalized line on single spaces and prefix each word with the marker."""
    if not line:
        return ()
    return tuple((MARKER + line.replace(" ", " " + MARKER)).split(" "))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array in ascending order.

    Sorts and masks repeats: ``np.unique`` hashes integer keys in numpy 2.x,
    which is many times slower on arrays of this kind.
    """
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys


def window_pairs(flat: np.ndarray, lengths: np.ndarray, window: int):
    """Yield ``(left, right)`` for each offset ``delta`` in 1..``window``
    that pairs two positions of one sentence: the ids at positions ``i``
    and ``i + delta`` of each such pair, in position order. ``flat`` holds
    the sentences' ids one after another, ``lengths[s]`` of them for
    sentence ``s``, so sentence ``s`` holds ``max(lengths[s] - delta, 0)``
    of the ``delta``-th pairs, one run after another. The first offset
    that pairs nothing ends the walk: no sentence is longer than it."""
    sent_of = np.repeat(np.arange(len(lengths)), lengths)
    for delta in range(1, window + 1):
        same = sent_of[:-delta] == sent_of[delta:]
        if not same.any():
            return
        yield flat[:-delta][same], flat[delta:][same]


class SentenceStore:
    """Corpus as token ids under one vocabulary: a snapshot, in flat form.

    ``flat`` holds every sentence's ids one after another (int64) and
    ``lengths`` each sentence's token count. ``vocab_digest`` is the digest
    of the full vocabulary the ids index into. Nothing changes a store
    after it is built. ``CompiledVocab.unk_chars`` recovers UNK characters.
    """

    __slots__ = ("flat", "lengths", "vocab_digest")

    def __init__(self, flat: np.ndarray, lengths: np.ndarray, vocab_digest: str):
        self.flat = flat
        self.lengths = lengths
        self.vocab_digest = vocab_digest

    def __len__(self) -> int:
        return len(self.lengths)

    def total_tokens(self) -> int:
        return len(self.flat)

    @property
    def ids(self) -> list[np.ndarray]:
        """One id array per sentence, split from ``flat`` on each read. No
        module of the package reads it; perfbench and the tests do."""
        return np.split(self.flat, np.cumsum(self.lengths)[:-1]) if len(self.lengths) else []


class WordIndex:
    """A corpus as word types, each segmented under one compiled vocabulary.

    ``types`` are the distinct pretokenized words, ``counts`` their corpus
    occurrences. Sentence ``s`` is the type-id run
    ``type_ids[offsets[s]:offsets[s + 1]]``; neither ever changes.
    Pruning changes ``segs`` (each type's token ids; an UNK's character is
    read back from the type). Two maps serve only pruning and are built
    together the first time one is read: ``type_sentences[w]`` lists the
    sentences holding type ``w`` (fixed), and ``postings`` maps a token id
    to the types whose segmentation holds it (kept in step with ``segs``
    once built; UNK is not indexed). A token's sentences and corpus
    frequency are derived from these, so there is nothing else to keep in
    step. ``gather`` reads the segmentations in flat form (every type's ids
    in one array, with each type's start and length), built on first use
    after a segmentation changes.
    """

    __slots__ = ("types", "counts", "type_ids", "offsets", "segs", "unk_id",
                 "_type_sentences", "_postings", "_flat")

    def __init__(self, types, counts, type_ids, offsets, unk_id: int, segs):
        self.types: tuple[str, ...] = types
        self.counts: np.ndarray = counts
        self.type_ids: np.ndarray = type_ids
        self.offsets: np.ndarray = offsets
        self.unk_id = unk_id
        self.segs: list[list[int]] = segs
        self._type_sentences: list[list[int]] | None = None
        self._postings: dict[int, set[int]] | None = None
        self._flat: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordIndex)
            and self.types == other.types
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.type_ids, other.type_ids)
            and np.array_equal(self.offsets, other.offsets)
            and self.segs == other.segs
            and self.type_sentences == other.type_sentences
            and self.postings == other.postings
        )

    @property
    def type_sentences(self) -> list[list[int]]:
        if self._type_sentences is None:
            self._build_pruning_maps()
        return self._type_sentences

    @property
    def postings(self) -> dict[int, set[int]]:
        if self._postings is None:
            self._build_pruning_maps()
        return self._postings

    def _build_pruning_maps(self) -> None:
        n = len(self.offsets) - 1
        width = max(n, 1)
        sentence_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.offsets))
        # one key per distinct (type, sentence) pair, ordered by type, then sentence
        keys = sorted_unique(self.type_ids.astype(np.int64) * width + sentence_of)
        sentences = (keys % width).tolist()
        ends = np.cumsum(np.bincount(keys // width, minlength=len(self.types))).tolist()
        self._type_sentences = [sentences[a:b] for a, b in zip([0] + ends, ends)]
        postings: dict[int, set[int]] = {}
        for w, seg in enumerate(self.segs):
            for t in set(seg):
                if t != self.unk_id:
                    postings.setdefault(t, set()).add(w)
        self._postings = postings

    def sentences(self, token_id: int) -> set[int]:
        """Ids of the sentences whose segmentation holds ``token_id``."""
        return set().union(*(self.type_sentences[w] for w in self.postings.get(token_id, ())))

    def _flat_segs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(every type's token ids in type order, each type's start in it,
        each type's length)."""
        if self._flat is None:
            seg_len = np.fromiter(map(len, self.segs), dtype=np.int64, count=len(self.segs))
            seg_flat = np.fromiter(chain.from_iterable(self.segs), dtype=np.int64, count=int(seg_len.sum()))
            self._flat = seg_flat, np.cumsum(seg_len) - seg_len, seg_len
        return self._flat

    def frequencies(self) -> np.ndarray:
        """Corpus occurrence count of every vocabulary id (UNK excluded)."""
        seg_flat, _, seg_len = self._flat_segs()
        freq = np.zeros(self.unk_id + 1, dtype=np.int64)
        np.add.at(freq, seg_flat, np.repeat(self.counts, seg_len))
        return freq[: self.unk_id]

    def sentence_lengths(self) -> np.ndarray:
        """Token count of every sentence under the current segmentations."""
        _, _, seg_len = self._flat_segs()
        # one sum per sentence; a sentence is never empty, so no index repeats
        return np.add.reduceat(seg_len[self.type_ids], self.offsets[:-1])

    def token_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """(token ids of the whole corpus in running order, token count of
        each sentence), gathered from the type segmentations."""
        return self.gather(np.arange(len(self.offsets) - 1))

    def gather(self, sentences, overrides=(), override_of=None) -> tuple[np.ndarray, np.ndarray]:
        """(token ids of ``sentences`` one after another as one int64 array,
        token count of each of them).

        ``overrides`` is a sequence of segmentation overrides, each mapping
        type ids to token ids, and ``override_of[i]`` is the position in it
        of the override that applies to the ``i``-th sentence (-1: none).
        Override rows are appended to the flat segmentations and found by
        ``searchsorted`` on the key ``override * types + type``.
        """
        seg_flat, seg_start, seg_len = self._flat_segs()
        sentences = np.asarray(sentences, dtype=np.int64)
        first = self.offsets[sentences]
        n_words = self.offsets[sentences + 1] - first
        word_end = np.cumsum(n_words)
        n = int(word_end[-1]) if len(word_end) else 0
        at = np.repeat(first - (word_end - n_words), n_words)
        at += np.arange(n)
        types = self.type_ids[at]
        del at
        start, length = seg_start[types], seg_len[types]
        source = seg_flat
        rows = [(k * len(self.types) + w, ids) for k, override in enumerate(overrides) for w, ids in override.items()]
        if rows:
            row_len = np.fromiter((len(ids) for _, ids in rows), dtype=np.int64, count=len(rows))
            row_start = len(seg_flat) + np.cumsum(row_len) - row_len
            keys = np.fromiter((key for key, _ in rows), dtype=np.int64, count=len(rows))
            order = np.argsort(keys)
            keys, row_start, row_len = keys[order], row_start[order], row_len[order]
            owner = np.repeat(np.asarray(override_of, dtype=np.int64), n_words)
            occ = np.where(owner < 0, -1, owner * len(self.types) + types)
            at = np.minimum(np.searchsorted(keys, occ), len(keys) - 1)
            hit = keys[at] == occ
            start[hit] = row_start[at[hit]]
            length[hit] = row_len[at[hit]]
            source = np.concatenate([seg_flat, np.fromiter(
                chain.from_iterable(ids for _, ids in rows), dtype=np.int64, count=int(row_len.sum()))])
        del types
        # the index of each output token in ``source``, built in place
        tok_end = np.cumsum(length)
        m = int(tok_end[-1]) if len(tok_end) else 0
        start -= tok_end
        start += length
        at = np.repeat(start, length)
        del start
        at += np.arange(m)
        return source[at], np.diff(np.r_[0, tok_end][np.r_[0, word_end]])

    def sentence_types(self, s: int) -> list[int]:
        """Type ids of sentence ``s`` in word order."""
        return self.type_ids[self.offsets[s] : self.offsets[s + 1]].tolist()

    def store(self, vocab_digest: str) -> SentenceStore:
        """A snapshot of every sentence encoded under the current segmentations."""
        return SentenceStore(*self.token_stream(), vocab_digest)

    def segment_without(self, token_id: int, cv) -> dict[int, list[int]]:
        """New segmentation, with ``token_id`` banned, of every type holding it.

        Pure: the index is not changed. Types that do not hold the token
        keep their segmentation (greedy matching never reaches it there).
        Within a type, the tokens before the first occurrence of
        ``token_id`` stay too: greedy matching never took it there, so
        only the rest of the word, from that occurrence on, is segmented
        again.
        """
        banned = frozenset((token_id,))
        tokens, unk = cv.vocab.tokens, self.unk_id
        out = {}
        for w in self.postings.get(token_id, ()):
            seg = self.segs[w]
            at = seg.index(token_id)
            pos = 0
            for t in seg[:at]:
                # an UNK stands for one character
                pos += 1 if t == unk else len(tokens[t])
            out[w] = seg[:at] + cv.encode_word(self.types[w][pos:], banned)
        return out

    def resegment(self, removed, cv) -> dict[int, list[int]]:
        """Remove the ``removed`` tokens from ``cv``, re-segment under it
        every type holding one, and return those types' old segmentations.
        """
        cv.remove(removed)
        changed: set[int] = set()
        for t in removed:
            changed |= self.postings.pop(t, set())
        old = {w: self.segs[w] for w in sorted(changed)}
        for w, ids in zip(old, cv.encode_words([self.types[w] for w in old])):
            self._set_segmentation(w, ids)
        return old

    def _set_segmentation(self, w: int, ids: list[int]) -> None:
        if self._postings is not None:
            old, new = set(self.segs[w]), set(ids)
            for t in old - new:
                bucket = self._postings.get(t)
                if bucket is not None:
                    bucket.discard(w)
                    if not bucket:
                        del self._postings[t]
            for t in new - old - {self.unk_id}:
                self._postings.setdefault(t, set()).add(w)
        self.segs[w] = ids
        self._flat = None


def build_index(corpus: RawCorpus, cv) -> WordIndex:
    """Word-type index of ``corpus`` with every type segmented by ``cv``.

    The pruning maps (``type_sentences``, ``postings``) are left to be
    built on first use.
    """
    lines = [pretokenize(line) for line in corpus.lines]
    offsets = np.fromiter(accumulate(map(len, lines), initial=0), dtype=np.int64, count=len(lines) + 1)
    type_of = {w: i for i, w in enumerate(dict.fromkeys(chain.from_iterable(lines)))}
    type_ids = np.fromiter(map(type_of.__getitem__, chain.from_iterable(lines)), dtype=np.int32, count=offsets[-1])
    # the lines hold every running word: free them before segmenting
    del lines
    types = tuple(type_of)
    del type_of
    segs = cv.encode_words(types)
    counts = np.bincount(type_ids, minlength=len(types))
    return WordIndex(types, counts, type_ids, offsets, cv.unk_id, segs)


def prunable(cv) -> list[int]:
    """The unprotected active ids of ``cv`` in id order: a full pass's candidates."""
    return [t for t in sorted(cv.active.values()) if not is_protected(cv.vocab.tokens[t])]


def prune_order(losses: dict[int, float], index: WordIndex, cv) -> list[int]:
    """The tokens of ``losses`` by lowest loss, then corpus frequency, then token string."""
    freq, tokens = index.frequencies(), cv.vocab.tokens
    return sorted(losses, key=lambda t: (losses[t], int(freq[t]), tokens[t]))


def retokenize_sentences(
    nll: np.ndarray,
    index: WordIndex,
    removed: set[int],
    cv,
    table,
    window: int,
) -> tuple[float, np.ndarray]:
    """Remove tokens: update ``cv`` and the index, then rescore exactly the
    sentences that held a removed token.

    ``nll`` holds one skipgram NLL per sentence under ``table``; the
    entries of rescored sentences are replaced and every other entry is
    left bit-identical. Returns the new minus old total NLL, and the sorted
    ids of every token found in a rescored sentence before or after its
    re-segmentation.
    """
    for t in removed:
        if is_protected(cv.vocab.tokens[t]):
            raise VocabError(f"cannot remove protected token {cv.vocab.tokens[t]!r}")
    order = sorted(set().union(*(index.sentences(t) for t in removed)))
    old_segs = index.resegment(removed, cv)
    if not order:
        return 0.0, np.zeros(0, dtype=np.int64)
    from .objective import batched_sentence_nll

    flat, lengths = index.gather(order)
    new_nll = batched_sentence_nll(flat, lengths, table, window)
    old = nll[order]
    nll[order] = new_nll
    # only the re-segmented types changed, so their old ids are all the
    # rescored sentences held before and do not hold now
    gone = np.fromiter(chain.from_iterable(old_segs.values()), dtype=np.int64)
    return float(np.sum(new_nll) - np.sum(old)), sorted_unique(np.concatenate([flat, gone]))
