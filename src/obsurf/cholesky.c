/* Jittered Cholesky factor and solve of many subsets of one noisy Gram
 * matrix, behind gp.factor_subsets: every GP solve of the package, one
 * training set in GpSolve and a CMA-ES generation's candidate subsets
 * in SubsetEvaluator.batch. And the explicit inverse from a factor of
 * it, behind gp._inverse: GpSolve.kinv and the marginal-likelihood
 * gradient's.
 *
 * The LAPACK routines are passed in as function pointers: the dpotrf
 * and dpotrs that scipy exports (scipy.linalg.cython_lapack), the very
 * routines scipy's f2py wrappers call. Each matrix is handed to LAPACK
 * in the column-major layout those wrappers give it, so the factor and
 * the solves are theirs bit for bit.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef void (*potrf_fn)(char *uplo, int *n, double *a, int *lda,
                         int *info);
typedef void (*potrs_fn)(char *uplo, int *n, int *nrhs, double *a, int *lda,
                         double *b, int *ldb, int *info);

/* What obsurf_cholesky returns when a candidate fails. */
enum { NO_MEMORY = -1, GRAM_NOT_FINITE = -2, NOT_POSITIVE = -3,
       LABEL_NOT_FINITE = -4 };

/* Whether all m values are finite: none has an all-ones exponent. The
 * test is integer arithmetic, which the compiler vectorizes. */
static int all_finite(const double *x, long m)
{
    uint64_t bad = 0;
    for (long k = 0; k < m; k++) {
        uint64_t w;
        memcpy(&w, x + k, sizeof w);
        /* an all-ones exponent carries into the sign bit */
        bad |= (w & 0x7ff0000000000000u) + 0x0010000000000000u;
    }
    return !(bad >> 63);
}

/* a (s, s, column-major) = ky[idx, idx] + jit * I, where ky is the
 * row-major (n, n) Gram: `ky + jit * np.eye(s) if jit else ky` as
 * numpy computes it, whose off-diagonal entries get + 0.0. */
static void gather(double *a, const double *ky, long n, const long *idx,
                   long s, double jit)
{
    for (long j = 0; j < s; j++)
        for (long i = 0; i < s; i++)
            a[i + s * j] = ky[n * idx[i] + idx[j]];
    if (jit != 0.0)
        for (long j = 0; j < s; j++)
            for (long i = 0; i < s; i++)
                a[i + s * j] += i == j ? jit : 0.0;
}

/* Factor and solve u subsets of the row-major (n, n) noisy Gram ky with
 * labels y (n): subset c keeps the indices where row c of keep (u, n) is
 * nonzero, or every index when keep is NULL. For each candidate, in the
 * order gp._factor checked them one by one: a non-finite kept Gram entry
 * fails it; then dpotrf runs on the kept sub-Gram plus jit[r] on the
 * diagonal for r = 0, 1, ... until one succeeds (nj rungs; none left
 * fails it); then a non-finite kept label fails it; then dpotrs solves
 * for alpha. Writes
 *   alpha (u, n): row c holds the solve in the kept columns, 0 elsewhere;
 *   factor (u, n, n), unless NULL: the first s * s entries of slab c
 *     hold the lower factor, column-major (s, s), with the jittered
 *     sub-Gram above its diagonal, as dpotrf leaves it.
 * An empty subset skips LAPACK (which needs lda >= 1): alpha 0. Returns
 * how many candidates needed a rung past the first, or at the first
 * candidate that fails, or when the scratch allocation fails, the
 * negative code of the enum. */
long obsurf_cholesky(const double *ky, long n, const double *y,
                     const unsigned char *keep, long u, const double *jit,
                     long nj, void *potrf_ptr, void *potrs_ptr,
                     double *alpha, double *factor)
{
    potrf_fn potrf = (potrf_fn)potrf_ptr;
    potrs_fn potrs = (potrs_fn)potrs_ptr;
    size_t len = n ? (size_t)n : 1;
    long *idx = malloc(sizeof(long) * len);
    double *b = malloc(sizeof(double) * len);
    double *scratch = factor ? NULL : malloc(sizeof(double) * len * len);
    long result = 0;
    if (!idx || !b || (!factor && !scratch))
        result = NO_MEMORY;
    /* one scan of the whole Gram spares a finite one the per-subset
     * checks */
    int gram_finite = all_finite(ky, n * n);
    char lower = 'L';
    int one = 1;
    for (long c = 0; c < u && result >= 0; c++) {
        double *row = alpha + n * c;
        double *a = factor ? factor + n * n * c : scratch;
        long s = 0;
        for (long i = 0; i < n; i++)
            if (!keep || keep[n * c + i])
                idx[s++] = i;
        memset(row, 0, sizeof(double) * (size_t)n);
        if (s == 0)
            continue;
        gather(a, ky, n, idx, s, jit[0]);
        if (!gram_finite && !all_finite(a, s * s)) {
            result = GRAM_NOT_FINITE;
            break;
        }
        int si = (int)s, info = 1;
        long r;
        for (r = 0; r < nj; r++) {
            /* the sub-Gram plus this rung's jitter, afresh: a failed
             * dpotrf leaves a partial factor behind */
            if (r > 0)
                gather(a, ky, n, idx, s, jit[r]);
            potrf(&lower, &si, a, &si, &info);
            if (info == 0)
                break;
        }
        if (info != 0) {
            result = NOT_POSITIVE;
            break;
        }
        for (long i = 0; i < s; i++)
            b[i] = y[idx[i]];
        if (!all_finite(b, s)) {
            result = LABEL_NOT_FINITE;
            break;
        }
        potrs(&lower, &si, &one, a, &si, b, &si, &info);
        for (long i = 0; i < s; i++)
            row[idx[i]] = b[i];
        result += r > 0;
    }
    free(idx);
    free(b);
    free(scratch);
    return result;
}

/* x (n, n, column-major) = (c c^T)^-1 for a lower factor c (n, n,
 * column-major): dpotrs on the identity written into x, as scipy's
 * cho_solve(c, eye(n)) calls it: gp._inverse. n = 0 skips LAPACK. */
void obsurf_inverse(void *potrs_ptr, const double *c, long n, double *x)
{
    char lower = 'L';
    int ni = (int)n, info;
    memset(x, 0, sizeof(double) * (size_t)(n * n));
    for (long i = 0; i < n; i++)
        x[i + n * i] = 1.0;
    if (n > 0)
        ((potrs_fn)potrs_ptr)(&lower, &ni, &ni, (double *)c, &ni, x, &ni,
                              &info);
}
