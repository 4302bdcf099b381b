"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: plain Python loops, full
recomputation, no shared code with the package internals beyond public
data types.
"""

import math
from collections import Counter

from sagetok.vocab import MARKER, is_protected


def naive_longest_prefix(tokens, text, start=0):
    """Scan every token; return (token, length) of the longest prefix match."""
    best = None
    for t in tokens:
        if text.startswith(t, start):
            if best is None or len(t) > len(best):
                best = t
    return (best, len(best)) if best else (None, 0)


def naive_encode_word(tokens, word):
    """Greedy segmentation against a plain token list; UNK keeps its char."""
    out = []
    pos = 0
    token_set = list(tokens)
    while pos < len(word):
        best, length = naive_longest_prefix(token_set, word, pos)
        if best is None:
            out.append(("UNK", word[pos]))
            pos += 1
        else:
            out.append(best)
            pos += length
    return out


def bpe_merge_oracle(corpus_lines, target_size, min_count=2):
    """Brute-force BPE: full pair recount each step, lexicographic tie-break.

    Returns (ordered token list, merge log [(left, right, count)]).
    """
    words = Counter()
    for line in corpus_lines:
        for w in line.split(" "):
            words[MARKER + w] += 1
    symbol_seqs = {tuple(word): count for word, count in words.items()}
    alphabet = sorted({ch for word in words for ch in word})
    tokens = list(alphabet)
    known = set(tokens)
    merges = []
    while len(tokens) < target_size:
        pair_counts = Counter()
        for seq, count in symbol_seqs.items():
            for pair in zip(seq, seq[1:]):
                pair_counts[pair] += count
        if not pair_counts:
            break
        (left, right), count = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if count < min_count:
            break
        merges.append((left, right, count))
        merged = left + right
        if merged not in known:
            tokens.append(merged)
            known.add(merged)
        new_seqs = {}
        for seq, c in symbol_seqs.items():
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and seq[i] == left and seq[i + 1] == right:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_seqs[tuple(out)] = new_seqs.get(tuple(out), 0) + c
        symbol_seqs = new_seqs
    return tokens, merges


def sentence(index, s, override=None):
    """Token ids of sentence ``s`` of a ``WordIndex``, one word at a time;
    ``override`` maps some type ids to the segmentation used instead."""
    ids = []
    for w in index.sentence_types(s):
        ids.extend(override[w] if override and w in override else index.segs[w])
    return ids


def decode_words(index, s, vocab):
    """The pretokenized words of sentence ``s`` of a ``WordIndex``, decoded
    from its token ids alone.

    A new word starts at every marker-initial token. UNK ids are
    replaced, in order, by the characters that ``naive_encode_word`` over
    all of ``vocab``'s tokens emits as UNK in the sentence's word types.
    """
    unk_iter = iter([piece[1] for w in index.sentence_types(s)
                     for piece in naive_encode_word(vocab.tokens, index.types[w]) if isinstance(piece, tuple)])
    words = []
    for token_id in sentence(index, s):
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


def decode_line(index, s, vocab):
    """Sentence ``s`` of a ``WordIndex`` decoded back to its normalized line."""
    return " ".join(w[1:] if w.startswith(MARKER) else w for w in decode_words(index, s, vocab))


def flatten(sentences):
    """(the ids of ``sentences`` one after another as one int64 array, the
    length of each): the flat form ``batched_sentence_nll`` and
    ``SentenceStore`` take."""
    import numpy as np

    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    flat = np.concatenate(sentences) if len(sentences) else np.zeros(0, dtype=np.int64)
    return flat.astype(np.int64, copy=False), lengths


def nll_oracle(ids, target, context, window):
    """Double loop over ordered in-window pairs, plain math."""
    total = 0.0
    n = len(ids)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        for j in range(lo, hi):
            if j == i:
                continue
            dot = float(sum(target[ids[i]][k] * context[ids[j]][k] for k in range(len(target[0]))))
            total += -math.log(1.0 / (1.0 + math.exp(-dot)))
    return total


def gathered_sentence_nll(sentences, table, window):
    """Per-sentence NLL that recomputes every pair term from gathered rows.

    The batched scorer's arithmetic without its pair-term array: gather
    each position's target and context rows, take the dot products of
    the positions ``delta`` apart for ``delta`` = 1..window, and add each
    in-sentence pair's two ``softplus`` terms to its sentence, offset by
    offset, into an extended-precision accumulator. The scorer must equal
    it bit for bit.
    """
    import numpy as np

    def softplus(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    acc = np.zeros(len(sentences), dtype=np.longdouble)
    if not sentences:
        return acc.astype(np.float64)
    flat = np.concatenate(sentences).astype(np.int64)
    sent_of = np.repeat(np.arange(len(sentences)), [len(s) for s in sentences])
    tgt = table.target[flat]
    ctx = table.context[flat]
    for delta in range(1, window + 1):
        same = sent_of[:-delta] == sent_of[delta:]
        if not same.any():
            break
        fwd = np.einsum("ij,ij->i", tgt[:-delta], ctx[delta:])[same]
        bwd = np.einsum("ij,ij->i", tgt[delta:], ctx[:-delta])[same]
        vals = softplus(-fwd) + softplus(-bwd)
        np.add.at(acc, sent_of[:-delta][same], vals.astype(np.longdouble))
    return acc.astype(np.float64)


def pair_count(ids, window):
    """Ordered in-window pair count of one sentence."""
    n = len(ids)
    total = 0
    for i in range(n):
        total += min(n, i + window + 1) - max(0, i - window) - 1
    return total


def unigram_loglik_oracle(all_ids, vocab_size):
    """MLE log-likelihood from scratch counts, summed in id order."""
    import numpy as np

    counts = np.zeros(vocab_size, dtype=np.int64)
    for ids in all_ids:
        for t in ids:
            counts[t] += 1
    used = counts > 0
    total = int(counts.sum())
    if total == 0:
        return 0.0
    c = counts[used].astype(float)
    return float(np.sum(c * np.log(c)) - total * np.log(total))


def unigram_reference_losses(index, vocab, alive, cv):
    """The unigram trainer's candidate losses by full re-summation.

    For every unprotected alive token, in id order: copy the whole count
    vector, apply the re-segmentation of the word types holding the
    token, and re-sum sum(c log c) - N log N over every used id. Returns
    ``(token id, loss, entered, left)``; ``entered`` says that some id's
    count rose from zero, ``left`` that some id's count fell to zero.
    """
    import numpy as np

    def loglik(counts):
        used = counts > 0
        total = int(counts.sum())
        if total == 0:
            return 0.0
        c = counts[used].astype(np.float64)
        return float(np.sum(c * np.log(c)) - total * np.log(total))

    counts = index.frequencies()
    base = loglik(counts)
    out = []
    for t in sorted(alive):
        if is_protected(vocab.tokens[t]):
            continue
        trial = counts.copy()
        for w, new_ids in index.segment_without(t, cv).items():
            weight = index.counts[w]
            for old_t in index.segs[w]:
                trial[old_t] -= weight
            for new_t in new_ids:
                trial[new_t] += weight
        entered = bool(np.any((trial > 0) & (counts == 0)))
        left = bool(np.any((trial == 0) & (counts > 0)))
        out.append((t, loglik(trial) - base, entered, left))
    return out


def exhaustive_prune_oracle(corpus, vocab, table, window, final_size, prune_batch=1):
    """Reference pruning loop: every step, every candidate is scored by a
    full from-scratch retokenization and rescore of the entire corpus.

    Returns the ordered list of pruned token ids.
    """
    import numpy as np

    from sagetok import encoder
    from sagetok.objective import batched_sentence_nll

    alive = set(range(len(vocab)))
    pruned_sequence = []

    def encode_all(active):
        cv = encoder.compile(vocab, active)
        store = encoder.encode_corpus(corpus, cv)
        return store

    def full_nll(store):
        vals = batched_sentence_nll(*flatten(store.ids), table, window)
        return float(np.sum(vals))

    def frequencies(store):
        freq = Counter()
        for ids in store.ids:
            freq.update(int(t) for t in ids)
        return freq

    while len(alive) > final_size:
        store = encode_all(alive)
        base = full_nll(store)
        freq = frequencies(store)
        scored = []
        for t in sorted(alive):
            if is_protected(vocab.tokens[t]):
                continue
            trial_store = encode_all(alive - {t})
            loss = full_nll(trial_store) - base
            scored.append((loss, freq.get(t, 0), vocab.tokens[t], t))
        scored.sort(key=lambda item: item[:3])
        batch = min(prune_batch, len(alive) - final_size)
        for item in scored[:batch]:
            pruned_sequence.append(item[3])
            alive.discard(item[3])
    return pruned_sequence


def sgns_pairs(store, window):
    """Every in-window ordered (target, context) pair of the store as two
    materialised id arrays: grouped by offset 1..window, forward pairs
    then backward pairs within each offset, in corpus order."""
    import numpy as np

    flat = np.concatenate(store.ids).astype(np.int64)
    sent_of = np.repeat(np.arange(len(store.ids)), [len(a) for a in store.ids])
    t_parts, c_parts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for delta in range(1, window + 1):
        if delta >= len(flat):
            break
        same = sent_of[:-delta] == sent_of[delta:]
        left, right = flat[:-delta][same], flat[delta:][same]
        t_parts.extend((left, right))
        c_parts.extend((right, left))
    return np.concatenate(t_parts), np.concatenate(c_parts)


def sigmoid(x):
    """Logistic function by boolean masks: ``1 / (1 + exp(-x))`` on the
    entries ``>= 0``, ``exp(x) / (1 + exp(x))`` on the rest."""
    import numpy as np

    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sgns_reference_trainer(store, vocab, cfg):
    """SGNS training with the plain scatter: per-sentence noise counts,
    concatenated context gradients, and ``np.unique`` + ``np.add.at``
    row sums. Same seeded pair order, sampling and clipping as
    ``train_embeddings``, so the two must agree bit for bit.

    Returns ``(target, context)``.
    """
    import numpy as np

    from sagetok.embeddings import init_tables

    max_exp, noise_power = 6.0, 0.75

    def apply_clipped(matrix, ids, grads):
        uniq, inverse = np.unique(ids, return_inverse=True)
        buf = np.zeros((len(uniq), grads.shape[1]))
        np.add.at(buf, inverse, grads)
        norms = np.sqrt(np.einsum("ij,ij->i", buf, buf))
        np.clip(norms / cfg.clip_row, 1.0, None, out=norms)
        matrix[uniq] += buf / norms[:, None]

    table = init_tables(vocab, cfg)
    tgt, ctx = table.target, table.context
    targets, contexts = sgns_pairs(store, cfg.window)

    counts = np.zeros(len(vocab), dtype=np.float64)
    for ids in store.ids:
        counts += np.bincount(ids, minlength=len(vocab))[: len(vocab)]
    canon = np.argsort(np.asarray(vocab.tokens, dtype=object))
    weights = counts[canon] ** noise_power
    cdf = np.cumsum(weights / weights.sum())
    canon = canon.astype(np.int64)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n_pairs = len(targets)
    total_updates = n_pairs * cfg.epochs
    done = 0
    for _epoch in range(cfg.epochs):
        for start in range(0, n_pairs, cfg.batch_pairs):
            t_ids = targets[start : start + cfg.batch_pairs]
            c_ids = contexts[start : start + cfg.batch_pairs]
            b = len(t_ids)
            lr = cfg.lr_initial + (cfg.lr_final - cfg.lr_initial) * (
                (done + np.arange(b)) / max(total_updates - 1, 1)
            )
            done += b
            t_rows, c_rows = tgt[t_ids], ctx[c_ids]
            dots = np.clip(np.einsum("ij,ij->i", t_rows, c_rows), -max_exp, max_exp)
            g_pos = (1.0 - sigmoid(dots)) * lr
            grad_t = g_pos[:, None] * c_rows
            ctx_ids, ctx_grads = c_ids, g_pos[:, None] * t_rows
            if cfg.negatives > 0:
                u = rng.random((b, cfg.negatives))
                n_ids = canon[np.minimum(np.searchsorted(cdf, u), len(canon) - 1)]
                n_rows = ctx[n_ids]
                neg_dots = np.clip(np.einsum("ij,ikj->ik", t_rows, n_rows), -max_exp, max_exp)
                g_neg = -sigmoid(neg_dots) * lr[:, None]
                grad_t += np.einsum("ik,ikj->ij", g_neg, n_rows)
                ctx_ids = np.concatenate([c_ids, n_ids.ravel()])
                ctx_grads = np.concatenate(
                    [ctx_grads, (g_neg[:, :, None] * t_rows[:, None, :]).reshape(-1, cfg.dim)]
                )
            apply_clipped(tgt, t_ids, grad_t)
            apply_clipped(ctx, ctx_ids, ctx_grads)
    return tgt, ctx
