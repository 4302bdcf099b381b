"""Corpus ingestion, the word-type index and the tokenized sentence store.

A corpus is one sentence per line. Loading normalizes whitespace, drops
empty lines, and scrubs any literal boundary-marker character so that the
marker is unambiguous downstream. Sentences are pretokenized into
marker-prefixed words; skipgram windows never cross sentence boundaries.

``build_index`` turns a corpus into a ``WordIndex``: its distinct words
("types") with their counts, each sentence as a run of type ids, and each
type's segmentation under a compiled vocabulary. The encoder, the SaGe
trainer and the unigram trainer all segment through it. Pruning uses two
steps on it: ``WordIndex.segment_without`` (pure: how the types holding a
token would segment without it) and ``WordIndex.resegment`` (mutating:
re-segment them after the token is removed). ``retokenize_sentences``
applies a removal to the index and rescores, in a per-sentence NLL
array, only the sentences that held a removed token. A ``SentenceStore``
is a read-only snapshot of the whole corpus as id arrays, built from the
index when every sentence is needed at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable
from itertools import accumulate, chain

import numpy as np

from .errors import DataError, VocabError
from .vocab import MARKER, Vocabulary, is_protected


@dataclass(frozen=True)
class NormalizePolicy:
    """Line normalization applied at load time.

    ``marker_fallback`` replaces literal occurrences of the reserved
    boundary marker in raw text, keeping segmentations invertible.
    """

    lowercase: bool = False
    collapse_whitespace: bool = True
    marker_fallback: str = "_"


def normalize_line(line: str, policy: NormalizePolicy = NormalizePolicy()) -> str:
    if policy.lowercase:
        line = line.lower()
    if policy.collapse_whitespace:
        line = " ".join(line.split())
    if MARKER in line:
        line = line.replace(MARKER, policy.marker_fallback)
    return line


@dataclass(frozen=True)
class RawCorpus:
    """Normalized, non-empty corpus lines (one sentence per line)."""

    lines: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.lines)

    @classmethod
    def from_lines(cls, lines: Iterable[str], policy: NormalizePolicy = NormalizePolicy()) -> "RawCorpus":
        kept = [n for n in (normalize_line(l, policy) for l in lines) if n]
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


def load_corpus(path, policy: NormalizePolicy = NormalizePolicy()) -> RawCorpus:
    """Read a UTF-8 line-per-sentence file, normalizing per ``policy``.

    Invalid UTF-8 is reported with its 1-based line number.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc
    kept: list[str] = []
    for lineno, blob in enumerate(raw.split(b"\n"), start=1):
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: invalid UTF-8 on line {lineno}: {exc}") from exc
        norm = normalize_line(text, policy)
        if norm:
            kept.append(norm)
    if not kept:
        raise DataError(f"corpus file {path} has zero non-empty lines")
    return RawCorpus(tuple(kept))


def pretokenize(line: str) -> tuple[str, ...]:
    """Split a normalized line on single spaces and prefix each word with the marker."""
    if not line:
        return ()
    return tuple(MARKER + w for w in line.split(" "))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array in ascending order.

    Sorts and masks repeats: ``np.unique`` hashes integer keys in numpy 2.x,
    which is many times slower on arrays of this kind.
    """
    keys = np.sort(keys)
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys


def window_offsets(sent_of: np.ndarray, window: int):
    """Yield ``(delta, same)`` for each offset ``delta`` in 1..``window``
    that pairs two positions of one sentence, where ``same[i]`` tells
    whether positions ``i`` and ``i + delta`` do. ``sent_of`` gives each
    position's sentence in runs, so the first offset that pairs nothing
    ends the walk: no sentence is longer than it."""
    for delta in range(1, window + 1):
        same = sent_of[:-delta] == sent_of[delta:]
        if not same.any():
            return
        yield delta, same


class SentenceStore:
    """Corpus as token-id sequences under one vocabulary: a snapshot.

    Holds, per sentence, the encoded id array and the characters absorbed
    by UNK tokens (in emission order, for exact round-trips).
    ``vocab_digest`` is the digest of the full vocabulary the ids index
    into. Nothing changes a store after it is built.
    """

    __slots__ = ("ids", "unk_chars", "vocab_digest")

    def __init__(self, ids: list[np.ndarray], unk_chars: list[tuple[str, ...]], vocab_digest: str):
        self.ids = ids
        self.unk_chars = unk_chars
        self.vocab_digest = vocab_digest

    def __len__(self) -> int:
        return len(self.ids)

    def total_tokens(self) -> int:
        return sum(len(a) for a in self.ids)

    def decode_words(self, sentence: int, vocab: Vocabulary) -> tuple[str, ...]:
        """Reconstruct the pretokenized words of one sentence.

        A new word starts at every marker-initial token. UNK ids are
        replaced by their recorded source characters.
        """
        unk_iter = iter(self.unk_chars[sentence])
        words: list[str] = []
        for token_id in self.ids[sentence]:
            if token_id == vocab.unk_id:
                piece = next(unk_iter)
            else:
                piece = vocab.tokens[token_id]
            if piece.startswith(MARKER) and token_id != vocab.unk_id:
                words.append(piece)
            elif words:
                words[-1] += piece
            else:
                words.append(piece)
        return tuple(words)

    def decode_line(self, sentence: int, vocab: Vocabulary) -> str:
        return " ".join(w[1:] if w.startswith(MARKER) else w for w in self.decode_words(sentence, vocab))


class WordIndex:
    """A corpus as word types, each segmented under one compiled vocabulary.

    ``types`` are the distinct pretokenized words, ``counts`` their corpus
    occurrences. Sentence ``s`` is the type-id run
    ``type_ids[offsets[s]:offsets[s + 1]]``; neither ever changes.
    Pruning changes ``segs`` (each type's token ids) and ``unks`` (its UNK
    characters). Two maps serve only pruning and are built together the
    first time one is read: ``type_sentences[w]`` lists the sentences
    holding type ``w`` (fixed), and ``postings`` maps a token id to the
    types whose segmentation holds it (kept in step with ``segs`` once
    built; UNK is not indexed). A token's sentences and corpus frequency
    are derived from these, so there is nothing else to keep in step.
    """

    __slots__ = ("types", "counts", "type_ids", "offsets", "segs", "unks", "unk_id", "_type_sentences", "_postings")

    def __init__(self, types, counts, type_ids, offsets, unk_id: int):
        self.types: tuple[str, ...] = types
        self.counts: np.ndarray = counts
        self.type_ids: np.ndarray = type_ids
        self.offsets: np.ndarray = offsets
        self.unk_id = unk_id
        self.segs: list[list[int]] = [[] for _ in types]
        self.unks: list[tuple[str, ...]] = [() for _ in types]
        self._type_sentences: list[list[int]] | None = None
        self._postings: dict[int, set[int]] | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WordIndex)
            and self.types == other.types
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.type_ids, other.type_ids)
            and np.array_equal(self.offsets, other.offsets)
            and self.segs == other.segs
            and self.unks == other.unks
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

    def frequencies(self) -> np.ndarray:
        """Corpus occurrence count of every vocabulary id (UNK excluded)."""
        lengths = [len(seg) for seg in self.segs]
        flat = np.fromiter(chain.from_iterable(self.segs), dtype=np.int64, count=sum(lengths))
        freq = np.zeros(self.unk_id + 1, dtype=np.int64)
        np.add.at(freq, flat, np.repeat(self.counts, lengths))
        return freq[: self.unk_id]

    def token_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """(token ids of the whole corpus in running order, token count of
        each sentence), gathered from the type segmentations."""
        seg_len = np.fromiter(map(len, self.segs), dtype=np.int64, count=len(self.segs))
        seg_flat = np.fromiter(chain.from_iterable(self.segs), dtype=np.int64, count=int(seg_len.sum()))
        seg_start = np.cumsum(seg_len) - seg_len
        occ_len = seg_len[self.type_ids]
        occ_end = np.cumsum(occ_len)
        starts = np.repeat(seg_start[self.type_ids] - (occ_end - occ_len), occ_len)
        flat = seg_flat[starts + np.arange(len(starts))]
        ends = np.r_[0, occ_end][self.offsets]
        return flat, np.diff(ends)

    def sentence_types(self, s: int) -> list[int]:
        """Type ids of sentence ``s`` in word order."""
        return self.type_ids[self.offsets[s] : self.offsets[s + 1]].tolist()

    def sentence(self, s: int, override: dict[int, list[int]] | None = None) -> list[int]:
        """Token ids of sentence ``s``; ``override`` replaces some types' segmentations."""
        ids: list[int] = []
        for w in self.sentence_types(s):
            ids.extend(override[w] if override and w in override else self.segs[w])
        return ids

    def store(self, vocab_digest: str) -> SentenceStore:
        """A snapshot of every sentence encoded under the current segmentations."""
        flat, lengths = self.token_stream()
        ids = np.split(flat.astype(np.int32), np.cumsum(lengths)[:-1]) if len(lengths) else []
        unks: list[tuple[str, ...]] = [()] * len(lengths)
        # walk only the sentences holding a word type that absorbed characters
        has_unk = np.fromiter(map(bool, self.unks), dtype=bool, count=len(self.unks))
        positions = np.flatnonzero(has_unk[self.type_ids])
        for s in sorted_unique(np.searchsorted(self.offsets, positions, side="right") - 1).tolist():
            unks[s] = tuple(ch for w in self.sentence_types(s) for ch in self.unks[w])
        return SentenceStore(ids, unks, vocab_digest)

    def segment_without(self, token_id: int, cv) -> dict[int, list[int]]:
        """New segmentation, with ``token_id`` banned, of every type holding it.

        Pure: the index is not changed. Types that do not hold the token
        keep their segmentation (greedy matching never reaches it there).
        """
        banned = frozenset((token_id,))
        return {w: cv.encode_word(self.types[w], banned)[0] for w in self.postings.get(token_id, ())}

    def resegment(self, removed, cv) -> None:
        """Re-segment under ``cv`` every type holding a removed token.

        ``cv`` must already exclude the removed tokens.
        """
        changed: set[int] = set()
        for t in removed:
            changed |= self.postings.pop(t, set())
        for w in sorted(changed):
            self._segment(w, cv)

    def _segment(self, w: int, cv) -> None:
        ids, unks = cv.encode_word(self.types[w])
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
        self.unks[w] = tuple(unks)


def build_index(corpus: RawCorpus, cv) -> WordIndex:
    """Word-type index of ``corpus`` with every type segmented by ``cv``.

    The pruning maps (``type_sentences``, ``postings``) are left to be
    built on first use.
    """
    lines = [pretokenize(line) for line in corpus.lines]
    words = list(chain.from_iterable(lines))
    type_of = {w: i for i, w in enumerate(dict.fromkeys(words))}
    type_ids = list(map(type_of.__getitem__, words))
    offsets = list(accumulate(map(len, lines), initial=0))
    index = WordIndex(
        tuple(type_of),
        np.bincount(np.asarray(type_ids, dtype=np.int64), minlength=len(type_of)),
        np.asarray(type_ids, dtype=np.int32),
        np.asarray(offsets, dtype=np.int64),
        cv.unk_id,
    )
    for w in range(len(index.types)):
        index._segment(w, cv)
    return index


def retokenize_sentences(
    nll: np.ndarray,
    index: WordIndex,
    removed: set[int],
    vocab: Vocabulary,
    cv,
    table,
    window: int,
) -> float:
    """Re-segment after removing tokens: update the index, then rescore
    exactly the sentences that held a removed token.

    ``cv`` must already exclude the removed tokens. ``nll`` holds one
    skipgram NLL per sentence under ``table``; the entries of rescored
    sentences are replaced and every other entry is left bit-identical.
    Returns the new minus old total NLL.
    """
    for t in removed:
        if is_protected(vocab.tokens[t]):
            raise VocabError(f"cannot remove protected token {vocab.tokens[t]!r}")
    order = sorted(set().union(*(index.sentences(t) for t in removed)))
    if not order:
        return 0.0
    index.resegment(removed, cv)
    from .objective import batched_sentence_nll

    new_nll = batched_sentence_nll([np.asarray(index.sentence(s), dtype=np.int64) for s in order], table, window)
    old = nll[order]
    nll[order] = new_nll
    return float(np.sum(new_nll) - np.sum(old))
