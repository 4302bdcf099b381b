"""Greedy longest-match encoder, the single decoding semantics of the toolkit.

Every trainer and every inference path segments a word the same way:
repeatedly take the longest vocabulary token that prefixes the remaining
suffix. A character with no match at all (not even as a single-character
token) emits the reserved UNK id and advances one position; decoding
reads the character back from the word (:meth:`CompiledVocab.unk_chars`).

Bulk segmentation (:meth:`CompiledVocab.encode_words`, which
``corpus.build_index`` and ``WordIndex.resegment`` call) runs in one call
of the C loop in ``_encode.c`` per batch of words: the words go in as one
UTF-32 buffer and the active tokens as a flat first-child/next-sibling
trie, which that file also builds. The library is compiled on first use
into the package's ``__pycache__``, as the SGNS row sums are
(``_kernels.build_kernel``). Where it cannot be built or loaded, every
word is segmented by the Python walk (:meth:`CompiledVocab.longest_prefix`:
each prefix of the rest of the word, longest first, looked up in a map of
the active tokens), silently, with the same ids; that walk also serves
banned segmentation (``encode_word(word, banned)``), whose calls are too
small for a C call to pay, and is the oracle of the compiled loop.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from ._kernels import build_kernel
from .corpus import RawCorpus, SentenceStore, build_index
from .errors import VocabError
from .vocab import Vocabulary

_KERNEL_SOURCE = Path(__file__).with_name("_encode.c")


class CompiledVocab:
    """Longest-match lookup over the active tokens of a vocabulary.

    Only :meth:`remove` changes it, in place, for the pruning loop; a
    lookup shared with other readers must not be pruned under them. Token
    ids are those of the underlying vocabulary, so a lookup compiled over
    a pruned subset still emits stable ids.

    ``active`` maps each active token to its id, and ``max_len`` is the
    length of the longest token compiled; the Python walk
    (:meth:`longest_prefix`) reads both. ``flat`` holds the same tokens as
    the trie arrays of ``_encode.c``, ``(code points, first children, next
    siblings, token ids, node of each vocabulary id)``, or None where that
    kernel cannot be loaded.
    """

    __slots__ = ("vocab", "unk_id", "active", "max_len", "flat", "_ids")

    def __init__(self, vocab: Vocabulary, active: dict[str, int], flat=None):
        self.vocab = vocab
        self.unk_id = vocab.unk_id
        self.active = active
        self.max_len = max(map(len, active), default=0)
        self.flat = flat
        self._ids: np.ndarray | None = None

    def longest_prefix(self, text: str, start: int = 0, banned: frozenset[int] = frozenset()):
        """(token_id, match length) of the longest active token, not in
        ``banned``, prefixing text[start:].

        Returns (None, 0) when nothing matches.
        """
        active = self.active
        for end in range(min(len(text), start + self.max_len), start, -1):
            token_id = active.get(text[start:end])
            if token_id is not None and token_id not in banned:
                return token_id, end - start
        return None, 0

    def remove(self, token_ids: Iterable[int]) -> None:
        """Deactivate ``token_ids`` in place, leaving the lookup that
        :func:`compile` would build without them. The flat trie keeps the
        nodes of a removed token, and a walk through such a node matches
        nothing there."""
        for token_id in token_ids:
            token = self.vocab.tokens[token_id]
            if self.active.pop(token, None) is None:
                raise VocabError(f"token {token!r} is not active")
            if self.flat is not None:
                tok, node_of = self.flat[3], self.flat[4]
                tok[node_of[token_id]] = -1
                node_of[token_id] = -1

    def encode_word(self, word: str, banned: frozenset[int] = frozenset()) -> list[int]:
        """Segment one marker-prefixed word into token ids."""
        ids: list[int] = []
        pos = 0
        n = len(word)
        while pos < n:
            token_id, length = self.longest_prefix(word, pos, banned)
            if token_id is None:
                ids.append(self.unk_id)
                pos += 1
            else:
                ids.append(token_id)
                pos += length
        return ids

    def encode_words(self, words: Sequence[str]) -> list[list[int]]:
        """The ids of every word, as :meth:`encode_word` gives them, in one
        call of the compiled loop where it is loaded."""
        if self.flat is None:
            return [self.encode_word(w) for w in words]
        ch, child, sibling, tok, _ = self.flat
        text = _code_points("".join(words))
        start = np.zeros(len(words) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, words), dtype=np.int64, count=len(words)), out=start[1:])
        ids = np.empty(len(text), dtype=np.int64)
        counts = np.empty(len(words), dtype=np.int64)
        n = _kernel().encode_words(ch, child, sibling, tok, self.unk_id, text, start, len(words), ids, counts)
        # one int object per id, shared by every segmentation, as the ids
        # of the active map are
        flat = self._id_objects()[ids[:n]].tolist()
        ends = np.cumsum(counts).tolist()
        return [flat[a:b] for a, b in zip([0] + ends, ends)]

    def unk_chars(self, word: str, ids: Sequence[int]) -> list[str]:
        """The characters of ``word`` that its segmentation ``ids`` emits as
        UNK, in order: an UNK stands for one character, any other id for
        its token's length."""
        tokens, unk = self.vocab.tokens, self.unk_id
        chars, pos = [], 0
        for t in ids:
            if t == unk:
                chars.append(word[pos])
            pos += 1 if t == unk else len(tokens[t])
        return chars

    def _id_objects(self) -> np.ndarray:
        """Every id, UNK included, as an object array of Python ints."""
        if self._ids is None:
            self._ids = np.array(range(self.unk_id + 1), dtype=object)
        return self._ids


def _code_points(text: str) -> np.ndarray:
    """``text`` as UTF-32 code points, one per character (a lone surrogate
    included)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def _flat_trie(lib: ctypes.CDLL, vocab: Vocabulary, ids: Sequence[int]):
    """The flat trie arrays of :class:`CompiledVocab`, built by the kernel."""
    tokens = [vocab.tokens[i] for i in ids]
    chars = _code_points("".join(tokens))
    size = len(chars) + 1
    ch = np.empty(size, dtype=np.uint32)
    child, sibling, tok = (np.empty(size, dtype=np.int32) for _ in range(3))
    node_of = np.full(len(vocab), -1, dtype=np.int64)
    lens = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    lib.build_trie(chars, lens, np.asarray(ids, dtype=np.int64), len(tokens), ch, child, sibling, tok, node_of)
    return ch, child, sibling, tok, node_of


@functools.cache
def _kernel() -> ctypes.CDLL | None:
    """The compiled loops of ``_encode.c``, built on first use into the
    package's own ``__pycache__`` (``_kernels.build_kernel``), or None:
    then every word is segmented by the Python walk over the active-token
    map, silently, with the same ids."""
    lib = build_kernel(_KERNEL_SOURCE, Path(__file__).with_name("__pycache__"))
    if lib is not None:
        def arr(dtype):
            return np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS")

        points, index, ids, size = arr(np.uint32), arr(np.int32), arr(np.int64), ctypes.c_int64
        lib.build_trie.argtypes = [points, ids, ids, size, points, index, index, index, ids]
        lib.encode_words.argtypes = [points, index, index, index, size, points, ids, size, ids, ids]
        lib.build_trie.restype = None
        lib.encode_words.restype = size
    return lib


def compile(vocab: Vocabulary, active_ids: Iterable[int] | None = None) -> CompiledVocab:
    """Build the longest-prefix lookup over ``active_ids`` (default: all).

    Build time is linear in total token characters.
    """
    if len(vocab) == 0:
        raise VocabError("cannot compile an empty vocabulary")
    ids = range(len(vocab)) if active_ids is None else sorted(set(active_ids))
    if ids and not 0 <= ids[0] <= ids[-1] < len(vocab):
        raise VocabError("active token id out of range")
    active: dict[str, int] = {}
    for token_id in ids:
        token = vocab.tokens[token_id]
        if active.setdefault(token, token_id) != token_id:
            raise VocabError(f"duplicate token {token!r} while compiling")
    lib = _kernel()
    return CompiledVocab(vocab, active, None if lib is None else _flat_trie(lib, vocab, ids))


def encode_corpus(corpus: RawCorpus, cv: CompiledVocab) -> SentenceStore:
    """Pretokenize and encode every line into a store."""
    return build_index(corpus, cv).store(cv.vocab.digest())
