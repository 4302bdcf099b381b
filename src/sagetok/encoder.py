"""Greedy longest-match encoder, the single decoding semantics of the toolkit.

Every trainer and every inference path segments a word the same way:
repeatedly take the longest vocabulary token that prefixes the remaining
suffix. A character with no match at all (not even as a single-character
token) emits the reserved UNK id and advances one position; the source
character is recorded so decoding stays lossless.
"""

from __future__ import annotations

from collections.abc import Iterable

from .corpus import RawCorpus, SentenceStore, build_index
from .errors import VocabError
from .vocab import Vocabulary


class _TrieNode:
    __slots__ = ("children", "token_id")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.token_id: int | None = None


class CompiledVocab:
    """Prefix trie over the active tokens of a vocabulary.

    Only :meth:`remove` changes it, in place, for the pruning loop; a trie
    shared with other readers must not be pruned under them. ``token_ids``
    keep the ids of the underlying vocabulary, so a trie compiled over a
    pruned subset still emits stable ids.
    """

    __slots__ = ("vocab", "root", "unk_id")

    def __init__(self, vocab: Vocabulary, root: _TrieNode):
        self.vocab = vocab
        self.root = root
        self.unk_id = vocab.unk_id

    def longest_prefix(self, text: str, start: int = 0, banned: frozenset[int] = frozenset()):
        """(token_id, match length) of the longest active token prefixing text[start:].

        Returns (None, 0) when nothing matches.
        """
        node = self.root
        best_id: int | None = None
        best_len = 0
        for i in range(start, len(text)):
            node = node.children.get(text[i])
            if node is None:
                break
            if node.token_id is not None and node.token_id not in banned:
                best_id = node.token_id
                best_len = i - start + 1
        return best_id, best_len

    def remove(self, token_ids: Iterable[int]) -> None:
        """Deactivate ``token_ids`` in place, leaving the trie that
        :func:`compile` would build without them: nodes that no longer
        lead to an active token are dropped."""
        for token_id in token_ids:
            token = self.vocab.tokens[token_id]
            path = [self.root]
            for ch in token:
                node = path[-1].children.get(ch)
                if node is None:
                    break
                path.append(node)
            if len(path) <= len(token) or path[-1].token_id != token_id:
                raise VocabError(f"token {token!r} is not active")
            path[-1].token_id = None
            for depth in range(len(token), 0, -1):
                if path[depth].token_id is not None or path[depth].children:
                    break
                del path[depth - 1].children[token[depth - 1]]

    def encode_word(self, word: str, banned: frozenset[int] = frozenset()):
        """Segment one marker-prefixed word into token ids.

        Returns (ids, unk_chars); unk_chars lists the source characters
        of UNK emissions in order.
        """
        ids: list[int] = []
        unks: list[str] = []
        pos = 0
        n = len(word)
        while pos < n:
            token_id, length = self.longest_prefix(word, pos, banned)
            if token_id is None:
                ids.append(self.unk_id)
                unks.append(word[pos])
                pos += 1
            else:
                ids.append(token_id)
                pos += length
        return ids, unks


def compile(vocab: Vocabulary, active_ids: Iterable[int] | None = None) -> CompiledVocab:
    """Build the longest-prefix structure over ``active_ids`` (default: all).

    Build time is linear in total token characters.
    """
    if len(vocab) == 0:
        raise VocabError("cannot compile an empty vocabulary")
    ids = range(len(vocab)) if active_ids is None else sorted(set(active_ids))
    root = _TrieNode()
    for token_id in ids:
        token = vocab.tokens[token_id]
        node = root
        for ch in token:
            nxt = node.children.get(ch)
            if nxt is None:
                nxt = _TrieNode()
                node.children[ch] = nxt
            node = nxt
        if node.token_id is not None:
            raise VocabError(f"duplicate token {token!r} while compiling")
        node.token_id = token_id
    return CompiledVocab(vocab, root)


def encode_corpus(corpus: RawCorpus, cv: CompiledVocab) -> SentenceStore:
    """Pretokenize and encode every line into a store."""
    return build_index(corpus, cv).store(cv.vocab.digest())
