/* The Matern-3/2 cross-covariance block behind gp.kernel_matrix, in two
 * passes around numpy's exp, which runs between them on ns in place:
 *
 *   obsurf_matern_s  s = (sqrt(3) * |a_i - b_j|) / l   and   ns = -s
 *   np.exp(ns, out=ns)
 *   obsurf_matern_k  k = ((s + 1) * sf2) * e
 *
 * These are the operations of gp.matern32 on scipy's pairwise Euclidean
 * distances, in the same order, so the block is theirs bit for bit:
 * build without -ffast-math and without FMA contraction
 * (-ffp-contract=off). exp is left to numpy because libm's differs from
 * it in the last bit.
 *
 * Layout (all C-contiguous float64): a (na, d), b (nb, d); s, ns and k
 * (na, nb).
 */
#include <math.h>

/* s and ns over every pair of rows of a and b. The squared differences
 * are summed over the coordinates in order from 0.0, as scipy does. */
void obsurf_matern_s(const double *a, long na, const double *b, long nb,
                     long d, double l, double *s, double *ns)
{
    const double sqrt3 = sqrt(3.0);
    for (long i = 0; i < na; i++) {
        const double *ai = a + d * i;
        for (long j = 0; j < nb; j++) {
            const double *bj = b + d * j;
            double r2 = 0.0;
            for (long c = 0; c < d; c++) {
                double diff = ai[c] - bj[c];
                r2 += diff * diff;
            }
            double v = (sqrt3 * sqrt(r2)) / l;
            s[nb * i + j] = v;
            ns[nb * i + j] = -v;
        }
    }
}

/* k over n entries, from s and e = exp(-s); k may be s. */
void obsurf_matern_k(const double *s, const double *e, long n, double sf2,
                     double *k)
{
    for (long i = 0; i < n; i++)
        k[i] = ((s[i] + 1.0) * sf2) * e[i];
}
