/* Greedy longest-match segmentation, for sagetok.encoder.
 *
 * The trie is flat: node 0 is the root, and each node holds its code
 * point (ch), its first child and its next sibling (-1: none) and the id
 * of the token that ends there (tok, -1: none). Text is UTF-32, one code
 * point per Python character, so positions are Python string indices.
 *
 * No bounds checks: the caller sizes every array (a trie has at most one
 * node per token character, plus the root) and passes token ids below the
 * length of node_of.
 */
#include <stdint.h>

/* Insert token t = ids[t_i], the next lens[t_i] code points of chars,
 * for each of the n tokens in turn, and set node_of[ids[t_i]] to the node
 * where it ends. The tokens must be distinct (the caller checks). */
void build_trie(const uint32_t *restrict chars, const int64_t *restrict lens,
                const int64_t *restrict ids, int64_t n, uint32_t *restrict ch,
                int32_t *restrict child, int32_t *restrict sibling,
                int32_t *restrict tok, int64_t *restrict node_of)
{
    int32_t nodes = 1;
    child[0] = sibling[0] = tok[0] = -1;
    ch[0] = 0;
    for (int64_t t_i = 0; t_i < n; t_i++) {
        int32_t node = 0;
        for (int64_t i = 0; i < lens[t_i]; i++) {
            const uint32_t c = *chars++;
            int32_t next = child[node];
            while (next >= 0 && ch[next] != c)
                next = sibling[next];
            if (next < 0) {
                next = nodes++;
                ch[next] = c;
                child[next] = tok[next] = -1;
                sibling[next] = child[node];
                child[node] = next;
            }
            node = next;
        }
        tok[node] = (int32_t)ids[t_i];
        node_of[ids[t_i]] = node;
    }
}

/* Segment word w = text[start[w]:start[w + 1]] for each of the n words:
 * repeatedly take the longest token that prefixes the rest of the word,
 * or unk for one code point where none does. The ids go one word after
 * another into out (room for start[n] - start[0] ids), each word's id
 * count into counts. Returns the number of ids written. */
int64_t encode_words(const uint32_t *restrict ch, const int32_t *restrict child,
                     const int32_t *restrict sibling, const int32_t *restrict tok,
                     int64_t unk, const uint32_t *restrict text,
                     const int64_t *restrict start, int64_t n,
                     int64_t *restrict out, int64_t *restrict counts)
{
    int64_t k = 0;
    for (int64_t w = 0; w < n; w++) {
        const int64_t end = start[w + 1], first = k;
        int64_t pos = start[w];
        while (pos < end) {
            int64_t best = unk, best_len = 1;
            int32_t node = 0;
            for (int64_t i = pos; i < end; i++) {
                int32_t next = child[node];
                while (next >= 0 && ch[next] != text[i])
                    next = sibling[next];
                if (next < 0)
                    break;
                node = next;
                if (tok[node] >= 0) {
                    best = tok[node];
                    best_len = i - pos + 1;
                }
            }
            out[k++] = best;
            pos += best_len;
        }
        counts[w] = k - first;
    }
    return k;
}
