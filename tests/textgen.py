"""Deterministic synthetic English-like corpus generator for tests.

Zipf-distributed stems with compositional suffixes, but also *context
structure*: stems live in topic clusters, sentences stay mostly within
one topic, some stems come as fixed collocation pairs, and suffix choice
correlates with the surrounding function words. Not real language, but
it has what the analyses care about: a long tail of word types,
productive morphology, and repeated, predictable neighborhoods.
"""

import numpy as np

_ONSETS = [
    "b", "bl", "br", "c", "ch", "cl", "cr", "d", "dr", "f", "fl", "fr", "g",
    "gl", "gr", "h", "j", "k", "l", "m", "n", "p", "pl", "pr", "qu", "r",
    "s", "sc", "sh", "sk", "sl", "sm", "sn", "sp", "st", "str", "sw", "t",
    "th", "tr", "v", "w", "wh", "z",
]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "oa", "ou", "oo", "ie"]
_CODAS = [
    "", "b", "ck", "d", "ft", "g", "l", "ld", "ll", "m", "mp", "n", "nd",
    "ng", "nk", "nt", "p", "r", "rd", "rm", "rn", "rt", "s", "sh", "sk",
    "ss", "st", "t", "th", "x",
]

# noun-slot and verb-slot morphology, drawn according to the frame
_NOUN_SUFFIXES = ["", "", "", "s", "s", "ation", "ations", "ment", "ness", "ity", "er", "ers", "ist"]
_VERB_SUFFIXES = ["", "s", "ed", "ed", "ing", "ing", "es", "ate"]

_DETERMINERS = ["the", "the", "the", "a", "its", "this", "each"]
_PREPOSITIONS = ["of", "in", "to", "for", "on", "by", "with", "from", "at"]
_AUXILIARIES = ["is", "was", "are", "were", "has", "had"]
_CONNECTIVES = ["and", "but", "or", "that", "which", "also", "not", "as"]


def _pick(rng, seq):
    # draws the same index as rng.choice(seq) and leaves the stream in the
    # same state, without turning the list into an array on every call
    return seq[int(rng.integers(len(seq)))]


def _make_syllables(rng, count):
    seen = []
    got = set()
    while len(seen) < count:
        s = _pick(rng, _ONSETS) + _pick(rng, _NUCLEI) + _pick(rng, _CODAS)
        if 2 <= len(s) <= 5 and s not in got:
            got.add(s)
            seen.append(s)
    return seen


def _make_stems(rng, count):
    """Stems are short syllable compounds from a small shared inventory,
    so substrings recur across stems the way morphemes do in real text."""
    syllables = _make_syllables(rng, 140)
    stems = []
    seen = set()
    while len(stems) < count:
        n = 2 if rng.random() < 0.7 else (1 if rng.random() < 0.4 else 3)
        stem = "".join(_pick(rng, syllables) for _ in range(n))
        if 3 <= len(stem) <= 14 and stem not in seen:
            seen.add(stem)
            stems.append(stem)
    # frequent words are short in real text; sort with jitter so rank
    # correlates with length without being a staircase
    noise = rng.normal(0.0, 1.5, len(stems))
    order = sorted(range(len(stems)), key=lambda i: len(stems[i]) + noise[i])
    return [stems[i] for i in order]


def _cdf(p):
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


class _Vocab:
    def __init__(self, rng, n_stems, n_topics, zipf_alpha):
        n_topics = max(1, min(n_topics, n_stems // 4))
        self.n_topics = n_topics
        self.stems = _make_stems(rng, n_stems)
        ranks = np.arange(1, n_stems + 1, dtype=np.float64)
        p = 1.0 / ranks**zipf_alpha
        global_p = p / p.sum()
        # round-robin assignment keeps every topic a mix of frequent and rare
        self.topics = [list(range(t, n_stems, n_topics)) for t in range(n_topics)]
        # draw_stem inverts these CDFs exactly as Generator.choice(..., p=...)
        # does, so the draws are the same without rebuilding a CDF per draw
        self.global_cdf = _cdf(global_p)
        self.topic_cdf = []
        for members in self.topics:
            w = global_p[members]
            self.topic_cdf.append(_cdf(w / w.sum()))
        # fixed collocation partner for a third of the stems
        self.partner = {}
        shuffled = rng.permutation(n_stems)
        for i in range(0, n_stems // 3 * 2, 2):
            self.partner[int(shuffled[i])] = int(shuffled[i + 1])
        # a few capitalized names per topic
        self.names = [members[:2] for members in self.topics]

    def draw_stem(self, rng, topic):
        if rng.random() < 0.8:
            members = self.topics[topic]
            return int(members[self.topic_cdf[topic].searchsorted(rng.random(), side="right")])
        return int(self.global_cdf.searchsorted(rng.random(), side="right"))


def _noun(vocab, rng, idx):
    return vocab.stems[idx] + _NOUN_SUFFIXES[int(rng.integers(len(_NOUN_SUFFIXES)))]


def _verb(vocab, rng, idx):
    return vocab.stems[idx] + _VERB_SUFFIXES[int(rng.integers(len(_VERB_SUFFIXES)))]


def _noun_phrase(vocab, rng, topic, out):
    out.append(_DETERMINERS[int(rng.integers(len(_DETERMINERS)))])
    idx = vocab.draw_stem(rng, topic)
    if rng.random() < 0.04:
        names = vocab.names[topic]
        out.append(vocab.stems[names[int(rng.integers(len(names)))]].capitalize())
    out.append(_noun(vocab, rng, idx))
    partner = vocab.partner.get(idx)
    if partner is not None and rng.random() < 0.5:
        out.append(_noun(vocab, rng, partner))
    if rng.random() < 0.35:
        out.append(_PREPOSITIONS[int(rng.integers(len(_PREPOSITIONS)))])
        out.append(_noun(vocab, rng, vocab.draw_stem(rng, topic)))


def _clause(vocab, rng, topic, out):
    _noun_phrase(vocab, rng, topic, out)
    if rng.random() < 0.5:
        out.append(_AUXILIARIES[int(rng.integers(len(_AUXILIARIES)))])
    out.append(_verb(vocab, rng, vocab.draw_stem(rng, topic)))
    if rng.random() < 0.7:
        _noun_phrase(vocab, rng, topic, out)


def generate_corpus(
    n_lines: int,
    seed: int = 0,
    n_stems: int = 1500,
    words_per_line: tuple[int, int] = (8, 18),
    n_topics: int = 40,
    zipf_alpha: float = 1.3,
) -> list[str]:
    rng = np.random.default_rng(seed)
    vocab = _Vocab(rng, n_stems, n_topics, zipf_alpha)
    lines = []
    lo, hi = words_per_line
    for _ in range(n_lines):
        target_len = int(rng.integers(lo, hi + 1))
        topic = int(rng.integers(vocab.n_topics))
        words: list[str] = []
        while len(words) < target_len:
            _clause(vocab, rng, topic, words)
            if len(words) < target_len and rng.random() < 0.4:
                words.append(_CONNECTIVES[int(rng.integers(len(_CONNECTIVES)))])
            if rng.random() < 0.08:
                words.append(",")
        words = words[: max(target_len, 4)]
        words[0] = words[0].capitalize()
        # the occasional typo, as in any real corpus
        for i, w in enumerate(words):
            if len(w) >= 3 and rng.random() < 0.004:
                j = int(rng.integers(len(w) - 1))
                if rng.random() < 0.5:
                    words[i] = w[:j] + w[j + 1] + w[j] + w[j + 2 :]
                else:
                    words[i] = w[:j] + w[j + 1 :]
        words.append(".")
        lines.append(" ".join(words))
    return lines
