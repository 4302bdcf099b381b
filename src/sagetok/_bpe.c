/* The BPE merge loop, for sagetok.bpe.
 *
 * Words are runs of int32 symbol ids; the alphabet's ids are 0..n_alpha-1
 * and each alphabet token is one code point. A merge result is interned
 * by its string (UTF-32, compared by code point, which is Python's str
 * order), so it has one id whichever merge made it, and new ids are given
 * in creation order.
 *
 * The pair table maps (left, right) to the pair's weighted count and to
 * the words that may hold it (a word that lost the pair may stay listed;
 * visiting it again finds no site). A merge rewrites each listed word in
 * place, subtracts the old pairs next to each merge site and adds the new
 * ones, and once all words are done pushes every pair whose count rose
 * to 2 or more. The heap is lazy: a popped entry whose count is out of
 * date is pushed again with the current count. So every pair with a count
 * of 2 or more has an entry at least as high as its count, and the pop
 * order is that of a full recount: count, then the left string, then the
 * right string. No other order (of words, of table slots) reaches the
 * result.
 *
 * All state lives in one struct on the caller's stack, and everything
 * allocated is freed before returning; an allocation failure returns -1.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN_MERGE_COUNT 2   /* bpe.MIN_MERGE_COUNT */

typedef struct {
    int64_t off;        /* first code point in chars */
    int64_t len;
} Token;

typedef struct {
    int64_t count;
    int64_t before;     /* count when the current merge first touched it */
    int64_t stamp;      /* the merge that last touched it; 0: none */
    int32_t left, right;
    int32_t *words;     /* ids of the words that may hold the pair */
    int64_t n_words, cap_words;
} Pair;

typedef struct {
    int64_t count;
    int32_t left, right;
} Entry;

typedef struct {
    /* tokens: code points in one arena, found through an open table */
    uint32_t *chars;
    int64_t n_chars, cap_chars;
    Token *tokens;
    int64_t n_tokens, cap_tokens;
    int32_t *tok_slots;
    uint64_t tok_mask;
    /* pairs, found through an open table of indices into pairs */
    Pair *pairs;
    int64_t n_pairs, cap_pairs;
    int32_t *pair_slots;
    uint64_t pair_mask;
    /* the lazy heap, best entry first */
    Entry *heap;
    int64_t n_heap, cap_heap;
    /* the pairs touched by the current merge */
    int32_t *touched;
    int64_t n_touched, cap_touched;
} State;

/* Grow the array that the pointer at ptr points to, of capacity *cap,
 * to hold at least need items of size bytes; 0 on failure. The pointer
 * is read and written with memcpy, whatever its type. */
static int reserve(void *ptr, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 1;
    int64_t grown_cap = *cap > 0 ? *cap : 8;
    while (grown_cap < need)
        grown_cap *= 2;
    void *buf;
    memcpy(&buf, ptr, sizeof buf);
    void *grown = realloc(buf, (size_t)grown_cap * size);
    if (grown == NULL)
        return 0;
    memcpy(ptr, &grown, sizeof grown);
    *cap = grown_cap;
    return 1;
}

/* A table of size slots, all empty (-1); NULL on failure. */
static int32_t *empty_slots(uint64_t size)
{
    int32_t *slots = malloc(size * sizeof(int32_t));
    if (slots != NULL)
        memset(slots, 0xff, size * sizeof(int32_t));
    return slots;
}

/* ---- tokens ---- */

static uint64_t string_hash(const uint32_t *x, int64_t nx, const uint32_t *y, int64_t ny)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (int64_t i = 0; i < nx; i++)
        h = (h ^ x[i]) * 0x100000001b3ull;
    for (int64_t i = 0; i < ny; i++)
        h = (h ^ y[i]) * 0x100000001b3ull;
    return h ^ (h >> 31);
}

/* -1, 0 or 1 as the string of token t sorts before, equal to or after
 * that of token u. */
static int token_cmp(const State *s, int32_t t, int32_t u)
{
    const uint32_t *x = s->chars + s->tokens[t].off, *y = s->chars + s->tokens[u].off;
    const int64_t nx = s->tokens[t].len, ny = s->tokens[u].len;
    const int64_t n = nx < ny ? nx : ny;
    for (int64_t i = 0; i < n; i++)
        if (x[i] != y[i])
            return x[i] < y[i] ? -1 : 1;
    return (nx > ny) - (nx < ny);
}

/* Slot token t in the table, which has room. */
static void slot_token(State *s, int32_t t)
{
    const Token *tok = &s->tokens[t];
    uint64_t i = string_hash(s->chars + tok->off, tok->len, NULL, 0) & s->tok_mask;
    while (s->tok_slots[i] >= 0)
        i = (i + 1) & s->tok_mask;
    s->tok_slots[i] = t;
}

/* The id of the token whose string is that of left followed by that of
 * right, appended if new; -1 on failure. */
static int32_t intern(State *s, int32_t left, int32_t right)
{
    const Token a = s->tokens[left], b = s->tokens[right];
    const int64_t len = a.len + b.len;
    uint64_t i = string_hash(s->chars + a.off, a.len, s->chars + b.off, b.len) & s->tok_mask;
    for (int32_t t; (t = s->tok_slots[i]) >= 0; i = (i + 1) & s->tok_mask) {
        const uint32_t *x = s->chars + s->tokens[t].off;
        if (s->tokens[t].len == len
            && memcmp(x, s->chars + a.off, (size_t)a.len * sizeof(uint32_t)) == 0
            && memcmp(x + a.len, s->chars + b.off, (size_t)b.len * sizeof(uint32_t)) == 0)
            return t;
    }
    if (!reserve(&s->chars, &s->cap_chars, s->n_chars + len, sizeof(uint32_t))
        || !reserve(&s->tokens, &s->cap_tokens, s->n_tokens + 1, sizeof(Token)))
        return -1;
    memcpy(s->chars + s->n_chars, s->chars + a.off, (size_t)a.len * sizeof(uint32_t));
    memcpy(s->chars + s->n_chars + a.len, s->chars + b.off, (size_t)b.len * sizeof(uint32_t));
    const int32_t t = (int32_t)s->n_tokens++;
    s->tokens[t] = (Token){s->n_chars, len};
    s->n_chars += len;
    if ((uint64_t)s->n_tokens * 2 > s->tok_mask + 1) {
        const uint64_t size = (s->tok_mask + 1) * 2;
        int32_t *slots = empty_slots(size);
        if (slots == NULL)
            return -1;
        free(s->tok_slots);
        s->tok_slots = slots;
        s->tok_mask = size - 1;
        for (int32_t u = 0; u < t; u++)
            slot_token(s, u);
    }
    slot_token(s, t);
    return t;
}

/* ---- pairs ---- */

static int32_t *pair_slot(const State *s, int32_t left, int32_t right)
{
    const uint64_t key = (uint64_t)(uint32_t)left << 32 | (uint32_t)right;
    uint64_t i = ((key * 0x9E3779B97F4A7C15ull) >> 20) & s->pair_mask;
    for (;;) {
        int32_t *slot = &s->pair_slots[i];
        if (*slot < 0 || (s->pairs[*slot].left == left && s->pairs[*slot].right == right))
            return slot;
        i = (i + 1) & s->pair_mask;
    }
}

/* The index of pair (left, right), added with count 0 if new; -1 on
 * failure. */
static int32_t pair_find(State *s, int32_t left, int32_t right)
{
    int32_t *slot = pair_slot(s, left, right);
    if (*slot >= 0)
        return *slot;
    if (!reserve(&s->pairs, &s->cap_pairs, s->n_pairs + 1, sizeof(Pair)))
        return -1;
    const int32_t p = (int32_t)s->n_pairs++;
    s->pairs[p] = (Pair){0, 0, 0, left, right, NULL, 0, 0};
    *slot = p;
    if ((uint64_t)s->n_pairs * 2 > s->pair_mask + 1) {
        const uint64_t size = (s->pair_mask + 1) * 2;
        int32_t *slots = empty_slots(size);
        if (slots == NULL)
            return -1;
        free(s->pair_slots);
        s->pair_slots = slots;
        s->pair_mask = size - 1;
        for (int32_t q = 0; q < (int32_t)s->n_pairs; q++)
            *pair_slot(s, s->pairs[q].left, s->pairs[q].right) = q;
    }
    return p;
}

/* Add delta to the count of pair (left, right) for merge number stamp
 * (0: the first count, which records no touched pairs), and list word w
 * under it if delta > 0 and w is not the word listed last; 0 on failure. */
static int pair_add(State *s, int32_t left, int32_t right, int64_t delta, int32_t w, int64_t stamp)
{
    const int32_t i = pair_find(s, left, right);
    if (i < 0)
        return 0;
    Pair *p = &s->pairs[i];
    if (p->stamp != stamp) {
        if (!reserve(&s->touched, &s->cap_touched, s->n_touched + 1, sizeof(int32_t)))
            return 0;
        s->touched[s->n_touched++] = i;
        p->stamp = stamp;
        p->before = p->count;
    }
    p->count += delta;
    if (delta < 0 || (p->n_words > 0 && p->words[p->n_words - 1] == w))
        return 1;
    if (!reserve(&p->words, &p->cap_words, p->n_words + 1, sizeof(int32_t)))
        return 0;
    p->words[p->n_words++] = w;
    return 1;
}

/* ---- the heap ---- */

/* Whether heap entry x pops before y. */
static int pops_before(const State *s, const Entry *x, const Entry *y)
{
    if (x->count != y->count)
        return x->count > y->count;
    if (x->left != y->left)
        return token_cmp(s, x->left, y->left) < 0;
    return token_cmp(s, x->right, y->right) < 0;
}

static void sift_down(State *s, int64_t i)
{
    Entry *h = s->heap;
    const Entry e = h[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= s->n_heap)
            break;
        if (c + 1 < s->n_heap && pops_before(s, &h[c + 1], &h[c]))
            c++;
        if (!pops_before(s, &h[c], &e))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = e;
}

static int heap_push(State *s, int64_t count, int32_t left, int32_t right)
{
    if (!reserve(&s->heap, &s->cap_heap, s->n_heap + 1, sizeof(Entry)))
        return 0;
    Entry *h = s->heap;
    const Entry e = {count, left, right};
    int64_t i = s->n_heap++;
    while (i > 0 && pops_before(s, &e, &h[(i - 1) / 2])) {
        h[i] = h[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    h[i] = e;
    return 1;
}

/* The next pair to merge, its count in *count; -1 when none is left,
 * -2 on failure. */
static int32_t pop_best(State *s, int64_t *count)
{
    while (s->n_heap > 0) {
        const Entry top = s->heap[0];
        s->heap[0] = s->heap[--s->n_heap];
        if (s->n_heap > 0)
            sift_down(s, 0);
        const int32_t p = *pair_slot(s, top.left, top.right);
        const int64_t current = s->pairs[p].count;
        if (current == top.count) {
            *count = current;
            return p;
        }
        if (current >= MIN_MERGE_COUNT && !heap_push(s, current, top.left, top.right))
            return -2;
    }
    return -1;
}

/* ---- the loop ---- */

/* Merge pair (a, b) into token m in word w = sym[0..*len), which the
 * caller has copied into old; subtract the old pairs next to each merge
 * site and add the new ones, each once however many sites it is next to.
 * new_sites has room for *len entries. 0 on failure. */
static int merge_word(State *s, int32_t *sym, int64_t *len, const int32_t *old, int64_t *new_sites,
                      int32_t a, int32_t b, int32_t m, int64_t weight, int32_t w, int64_t stamp)
{
    const int64_t n = *len;
    int64_t j = 0, n_sites = 0, next_sub = 0;
    for (int64_t i = 0; i < n;) {
        if (i + 1 < n && old[i] == a && old[i + 1] == b) {
            const int64_t last = i + 1 < n - 2 ? i + 1 : n - 2;
            for (int64_t k = i - 1 > next_sub ? i - 1 : next_sub; k <= last; k++)
                if (!pair_add(s, old[k], old[k + 1], -weight, w, stamp))
                    return 0;
            next_sub = i + 2;
            new_sites[n_sites++] = j;
            sym[j++] = m;
            i += 2;
        } else {
            sym[j++] = old[i++];
        }
    }
    *len = j;
    int64_t next_add = 0;
    for (int64_t q = 0; q < n_sites; q++) {
        const int64_t site = new_sites[q];
        const int64_t last = site < j - 2 ? site : j - 2;
        for (int64_t k = site - 1 > next_add ? site - 1 : next_add; k <= last; k++)
            if (!pair_add(s, sym[k], sym[k + 1], weight, w, stamp))
                return 0;
        next_add = site + 1;
    }
    return 1;
}

static int64_t run(State *s, const uint32_t *alphabet, int64_t n_alpha, int32_t *sym,
                   const int64_t *start, int64_t *len, const int64_t *weight, int64_t n_words,
                   int64_t target, int64_t *rows, int64_t max_rows)
{
    int64_t longest = 1;
    for (int64_t w = 0; w < n_words; w++)
        if (len[w] > longest)
            longest = len[w];
    int32_t *old = malloc((size_t)longest * sizeof(int32_t));
    int64_t *new_sites = malloc((size_t)longest * sizeof(int64_t));
    if (old == NULL || new_sites == NULL) {
        free(old);
        free(new_sites);
        return -1;
    }
    int64_t n_rows = -1;

    uint64_t size = 16;
    while (size < 2 * (uint64_t)n_alpha + 2)
        size *= 2;
    s->tok_slots = empty_slots(size);
    s->tok_mask = size - 1;
    s->pair_slots = empty_slots(size);
    s->pair_mask = size - 1;
    if (s->tok_slots == NULL || s->pair_slots == NULL
        || !reserve(&s->chars, &s->cap_chars, n_alpha, sizeof(uint32_t))
        || !reserve(&s->tokens, &s->cap_tokens, n_alpha, sizeof(Token)))
        goto done;
    for (int32_t t = 0; t < (int32_t)n_alpha; t++) {
        s->chars[t] = alphabet[t];
        s->tokens[t] = (Token){t, 1};
        slot_token(s, t);
    }
    s->n_chars = s->n_tokens = n_alpha;

    for (int64_t w = 0; w < n_words; w++)
        for (int64_t k = start[w]; k + 1 < start[w] + len[w]; k++)
            if (!pair_add(s, sym[k], sym[k + 1], weight[w], (int32_t)w, 0))
                goto done;
    for (int64_t p = 0; p < s->n_pairs; p++)
        if (s->pairs[p].count >= MIN_MERGE_COUNT
            && !heap_push(s, s->pairs[p].count, s->pairs[p].left, s->pairs[p].right))
            goto done;

    int64_t merged = 0;
    while (s->n_tokens < target && merged < max_rows) {
        int64_t count;
        const int32_t p = pop_best(s, &count);
        if (p == -2)
            goto done;
        if (p < 0)
            break;
        const int32_t a = s->pairs[p].left, b = s->pairs[p].right;
        const int32_t m = intern(s, a, b);
        if (m < 0)
            goto done;
        int64_t *row = rows + 4 * merged++;
        row[0] = a;
        row[1] = b;
        row[2] = m;
        row[3] = count;

        /* the pair's list is detached: no word can gain (a, b) back,
         * since every new pair holds m, which is neither a nor b */
        int32_t *words = s->pairs[p].words;
        const int64_t n_listed = s->pairs[p].n_words;
        s->pairs[p].words = NULL;
        s->pairs[p].n_words = s->pairs[p].cap_words = 0;
        s->n_touched = 0;
        for (int64_t q = 0; q < n_listed; q++) {
            const int32_t w = words[q];
            int32_t *word = sym + start[w];
            int64_t i = 0;
            while (i + 1 < len[w] && !(word[i] == a && word[i + 1] == b))
                i++;
            if (i + 1 >= len[w])
                continue;
            memcpy(old, word, (size_t)len[w] * sizeof(int32_t));
            if (!merge_word(s, word, &len[w], old, new_sites, a, b, m, weight[w], w, merged)) {
                free(words);
                goto done;
            }
        }
        free(words);
        for (int64_t q = 0; q < s->n_touched; q++) {
            Pair *t = &s->pairs[s->touched[q]];
            if (t->count == t->before)
                continue;
            if (t->count <= 0) {
                free(t->words);
                t->words = NULL;
                t->n_words = t->cap_words = 0;
            } else if (t->count > t->before && t->count >= MIN_MERGE_COUNT
                       && !heap_push(s, t->count, t->left, t->right)) {
                goto done;
            }
        }
    }
    n_rows = merged;

done:
    free(old);
    free(new_sites);
    return n_rows;
}

/* Merge the words up to target tokens or until no pair occurs twice.
 * Word w is the alphabet ids sym[start[w]..start[w + 1]) with weight
 * weight[w]; alphabet holds the code point of each alphabet id, in
 * ascending order. sym is rewritten. Each merge writes one row of rows:
 * left id, right id, result id (n_alpha upwards in creation order, or an
 * earlier id whose string the result equals) and count. Returns the
 * number of rows, at most max_rows, or -1 when memory ran out. */
int64_t bpe_merges(const uint32_t *alphabet, int64_t n_alpha, int32_t *sym,
                   const int64_t *start, const int64_t *weight, int64_t n_words,
                   int64_t target, int64_t *rows, int64_t max_rows)
{
    State s;
    memset(&s, 0, sizeof(s));
    int64_t *len = malloc((size_t)(n_words > 0 ? n_words : 1) * sizeof(int64_t));
    int64_t n_rows = -1;
    if (len != NULL) {
        for (int64_t w = 0; w < n_words; w++)
            len[w] = start[w + 1] - start[w];
        n_rows = run(&s, alphabet, n_alpha, sym, start, len, weight, n_words, target, rows, max_rows);
    }
    for (int64_t p = 0; p < s.n_pairs; p++)
        free(s.pairs[p].words);
    free(s.pairs);
    free(s.pair_slots);
    free(s.tokens);
    free(s.tok_slots);
    free(s.chars);
    free(s.heap);
    free(s.touched);
    free(len);
    return n_rows;
}
