"""Vocabulary: the ordered token inventory shared by every trainer.

Conventions used throughout the package:

* Words carry a single boundary marker character (``MARKER``, U+2581)
  prefixed by pretokenization, so token strings such as ``"▁the"`` are
  word-initial and ``"he"`` is word-internal.
* A token's *content length* is its character count excluding the marker.
  Tokens with content length <= 1 (the marker itself, bare characters,
  and marker-prefixed single characters) are *protected*: pruning-based
  trainers never remove them, which keeps every in-alphabet word
  encodable.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

from .errors import ConfigError, DataError, VocabError

MARKER = "▁"

PROV_ALPHABET = "alphabet"
PROV_MERGED = "merged"
PROV_SURVIVOR = "survivor"


def content_length(token: str) -> int:
    """Character count of a token excluding its boundary marker."""
    if token.startswith(MARKER):
        return len(token) - 1
    return len(token)


def is_protected(token: str) -> bool:
    """True for tokens pruning must never remove (content length <= 1)."""
    return content_length(token) <= 1


def check_target(vocab: "Vocabulary", target: int) -> None:
    """Raise ConfigError when ``target`` is below the protected token count
    of ``vocab``: pruning never removes those tokens."""
    n_protected = sum(1 for t in vocab.tokens if is_protected(t))
    if target < n_protected:
        raise ConfigError(f"target size {target} is below the {n_protected} protected tokens of the vocabulary")


def is_word_initial(token: str) -> bool:
    return token.startswith(MARKER)


class Vocabulary:
    """Ordered set of token strings with dense ids and provenance flags.

    Ids are positions in ``tokens``; the order is meaningful (BPE order
    encodes merge ancestry) and is preserved by file round-trips.
    """

    __slots__ = ("tokens", "id_of", "provenance")

    def __init__(self, tokens: Sequence[str], provenance: Sequence[str] | None = None):
        self.tokens: tuple[str, ...] = tuple(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabError("duplicate token strings in vocabulary")
        if provenance is None:
            provenance = [
                PROV_ALPHABET if is_protected(t) else PROV_SURVIVOR for t in self.tokens
            ]
        self.provenance: tuple[str, ...] = tuple(provenance)
        if len(self.provenance) != len(self.tokens):
            raise VocabError("provenance length does not match token count")
        self.id_of: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.id_of

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)

    @property
    def unk_id(self) -> int:
        """Reserved id for characters outside the alphabet (one past the last token)."""
        return len(self.tokens)

    def digest(self) -> str:
        """Stable hash of the ordered token list, used for staleness checks."""
        h = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        return h.hexdigest()[:16]

    def subset(self, keep_ids: Iterable[int]) -> "Vocabulary":
        """New dense vocabulary keeping ``keep_ids`` in current order.

        Non-alphabet survivors are reflagged as pruning survivors.
        """
        keep = sorted(set(keep_ids))
        tokens = [self.tokens[i] for i in keep]
        prov = [
            self.provenance[i] if self.provenance[i] == PROV_ALPHABET else PROV_SURVIVOR
            for i in keep
        ]
        return Vocabulary(tokens, prov)


def corpus_alphabet(words: Iterable[str]) -> tuple[list[str], list[str]]:
    """(single characters, marker-prefixed word-initial characters) observed in words.

    Both lists are sorted by code point for determinism.
    """
    chars: set[str] = set()
    initial: set[str] = set()
    for w in words:
        chars.update(w)
        if len(w) >= 2 and w.startswith(MARKER):
            initial.add(MARKER + w[1])
    return sorted(chars), sorted(initial)


HEADER_PREFIX = "#sagetok "


def header_lines(meta: dict | None) -> list[str]:
    """The ``#sagetok key=value`` metadata lines that open every output
    file, without line terminators; :func:`load_vocab` parses them."""
    return [f"{HEADER_PREFIX}{key}={value}" for key, value in (meta or {}).items()]


def save_vocab(vocab: Vocabulary, path, meta: dict | None = None) -> None:
    """Write one token per line, preceded by ``#sagetok`` header lines.

    Header lines contain a space and therefore can never collide with a
    token (tokens are substrings of space-delimited words).
    """
    lines = header_lines(meta)
    lines.extend(vocab.tokens)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_vocab(path) -> tuple[Vocabulary, dict]:
    """Read a vocabulary file written by :func:`save_vocab`.

    Provenance is inferred: protected tokens are flagged alphabet, the
    rest survivor (per-token provenance is not serialized).
    """
    meta: dict[str, str] = {}
    tokens: list[str] = []
    try:
        with open(path, encoding="utf-8") as f:
            for raw in f:
                line = raw.rstrip("\n")
                if line.startswith(HEADER_PREFIX):
                    body = line[len(HEADER_PREFIX):]
                    key, _, value = body.partition("=")
                    meta[key] = value
                elif line:
                    tokens.append(line)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read vocabulary file {path}: {exc}") from exc
    if not tokens:
        raise DataError(f"vocabulary file {path} contains no tokens")
    try:
        return Vocabulary(tokens), meta
    except VocabError as exc:
        raise DataError(f"vocabulary file {path}: {exc}") from exc
