/* Row sums of one SGNS batch, for sagetok.embeddings.
 *
 * The loop adds a batch's gradient rows into acc, a zeroed (rows, dim)
 * buffer indexed by compacted row id, in batch order, one rounded product
 * and one rounded add per element. That is what np.multiply followed by a
 * weighted np.bincount per column does, so the sums have the same bits.
 * Both tables use it: the target side passes its gradient rows with unit
 * weights and k = 0, and 1.0 * x is x in IEEE arithmetic.
 * Build with -ffp-contract=off: a fused multiply-add would round once.
 *
 * No bounds checks: every rid is below the buffer's row count, because the
 * caller computes the rids from ids that numpy's gathers have checked.
 */
#include <stdint.h>

/* acc[rid[i]] += g_pos[i] * x[i] for the b rows of x, then
 * acc[rid[b + i*k + q]] += g_neg[i*k + q] * x[i] for each row's k
 * negatives: the order of concatenate([c_ids, n_ids.ravel()]). */
void row_sums(double *restrict acc, const int64_t *restrict rid,
              const double *restrict x, const double *restrict g_pos,
              const double *restrict g_neg, int64_t b, int64_t k, int64_t dim)
{
    for (int64_t i = 0; i < b; i++) {
        double *restrict row = acc + rid[i] * dim;
        const double *restrict src = x + i * dim;
        const double g = g_pos[i];
        for (int64_t j = 0; j < dim; j++)
            row[j] += g * src[j];
    }
    rid += b;
    for (int64_t i = 0; i < b; i++) {
        const double *restrict src = x + i * dim;
        for (int64_t q = 0; q < k; q++) {
            double *restrict row = acc + rid[i * k + q] * dim;
            const double g = g_neg[i * k + q];
            for (int64_t j = 0; j < dim; j++)
                row[j] += g * src[j];
        }
    }
}
