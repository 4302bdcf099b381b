/* Row sums of one SGNS batch, for sagetok.embeddings.
 *
 * Each loop adds a batch's gradient rows into acc, a zeroed (rows, dim)
 * buffer indexed by compacted row id, in batch order, one rounded product
 * and one rounded add per element. That is what np.multiply followed by a
 * weighted np.bincount per column does, so the sums have the same bits.
 * Build with -ffp-contract=off: a fused multiply-add would round once.
 *
 * No bounds checks: every rid is below the buffer's row count, because the
 * caller computes the rids from ids that numpy's gathers have checked.
 */
#include <stdint.h>

/* acc[rid[i]] += g_pos[i] * t[i] for the b positive pairs, then
 * acc[rid[b + i*k + q]] += g_neg[i*k + q] * t[i] for each pair's k
 * negatives: the order of concatenate([c_ids, n_ids.ravel()]). */
void context_sums(double *restrict acc, const int64_t *restrict rid,
                  const double *restrict t, const double *restrict g_pos,
                  const double *restrict g_neg, int64_t b, int64_t k, int64_t dim)
{
    for (int64_t i = 0; i < b; i++) {
        double *restrict row = acc + rid[i] * dim;
        const double *restrict src = t + i * dim;
        const double g = g_pos[i];
        for (int64_t j = 0; j < dim; j++)
            row[j] += g * src[j];
    }
    rid += b;
    for (int64_t i = 0; i < b; i++) {
        const double *restrict src = t + i * dim;
        for (int64_t q = 0; q < k; q++) {
            double *restrict row = acc + rid[i * k + q] * dim;
            const double g = g_neg[i * k + q];
            for (int64_t j = 0; j < dim; j++)
                row[j] += g * src[j];
        }
    }
}

/* acc[rid[i]] += grad[i] for the n rows of grad. */
void target_sums(double *restrict acc, const int64_t *restrict rid,
                 const double *restrict grad, int64_t n, int64_t dim)
{
    for (int64_t i = 0; i < n; i++) {
        double *restrict row = acc + rid[i] * dim;
        const double *restrict src = grad + i * dim;
        for (int64_t j = 0; j < dim; j++)
            row[j] += src[j];
    }
}
