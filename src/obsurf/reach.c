/* Free-space reachability on occupancy grids, behind PathExists: both
 * constraints.path_exists and SubsetEvaluator.batch judge a path by
 * obsurf_reach. A grid's verdict is true when its start cell is free
 * and every goal cell lies in the start cell's free component: 8-
 * connected in 2-D, 26-connected in 3-D (ndimage.label's full
 * structure, as constraints.connected_components labels it).
 *
 * Each grid row is a bitset of 64-bit words, bit c of word k free
 * column 64 k + c, so rows of any width work. The start cell's
 * component grows in alternating down and up sweeps over the rows:
 * a row takes the free cells next to the reach of its neighbouring
 * rows, then fills the free runs those cells touch. The fill stops as
 * soon as every goal cell is inside, or after a sweep in which no row
 * gained a cell: the component is then complete.
 *
 * Layout: occ (u, planes, rows, w) C-contiguous bytes, 1 = occupied
 * and 0 = free (numpy bools), planes = 1 for a 2-D grid; start and
 * goals index one grid's cells in C order.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "judge packs eight cells at a time in little-endian byte order"
#endif

/* One grid's shape and working rows. */
struct grid {
    long planes, rows, w, nw;
    uint64_t *free, *reach, *acc;
};

/* Widen the seeds s (each a free bit of f) to the whole free runs of f
 * they lie in, over a row of nw words. Upward: the carry of f + s runs
 * from a run's lowest seed through the free bits above it. Downward:
 * an occluded fill by shifts of 1 to 32, from word to lower word. */
static void fill_runs(const uint64_t *f, uint64_t *s, long nw)
{
    uint64_t carry = 0;
    for (long k = 0; k < nw; k++) {
        uint64_t t = f[k] + s[k];
        uint64_t sum = t + carry;
        carry = (t < f[k]) | (sum < t);
        s[k] = f[k] & ((sum ^ f[k]) | s[k]);
    }
    uint64_t in = 0;
    for (long k = nw - 1; k >= 0; k--) {
        uint64_t g = f[k], x = s[k] | (g & (in << 63));
        for (int sh = 1; sh < 64; sh <<= 1) {
            x |= g & (x >> sh);
            g &= g >> sh;
        }
        s[k] = x;
        in = x & 1;
    }
}

/* Grow row (p, r) from the reach of the rows (p +- 1, r +- 1) around
 * it; returns whether it gained a cell. Its own reach is whole free
 * runs already, so only the other rows can add to it. */
static int grow(const struct grid *g, long p, long r)
{
    long nw = g->nw;
    uint64_t *acc = g->acc, gained = 0, prev = 0;
    for (long k = 0; k < nw; k++)
        acc[k] = 0;
    for (long q = p > 0 ? p - 1 : 0; q <= p + 1 && q < g->planes; q++)
        for (long t = r > 0 ? r - 1 : 0; t <= r + 1 && t < g->rows; t++) {
            const uint64_t *row = g->reach + (q * g->rows + t) * nw;
            if (q == p && t == r)
                continue;
            for (long k = 0; k < nw; k++)
                acc[k] |= row[k];
        }
    const uint64_t *f = g->free + (p * g->rows + r) * nw;
    uint64_t *own = g->reach + (p * g->rows + r) * nw;
    /* the new free cells next to a reached column, in place: the word
     * below is read before it was overwritten (prev) */
    for (long k = 0; k < nw; k++) {
        uint64_t a = acc[k];
        uint64_t next = k + 1 < nw ? acc[k + 1] << 63 : 0;
        acc[k] = f[k] & ~own[k] & (a | a << 1 | prev >> 63 | a >> 1 | next);
        prev = a;
        gained |= acc[k];
    }
    if (!gained)
        return 0;
    fill_runs(f, acc, nw);
    for (long k = 0; k < nw; k++)
        own[k] |= acc[k];
    return 1;
}

static int all_inside(const struct grid *g, const long *goals, long ng)
{
    for (long i = 0; i < ng; i++) {
        long row = goals[i] / g->w, col = goals[i] % g->w;
        if (!(g->reach[row * g->nw + col / 64] >> (col % 64) & 1))
            return 0;
    }
    return 1;
}

/* The verdict on one grid's cells occ. */
static int judge(const struct grid *g, const unsigned char *occ, long start,
                 const long *goals, long ng)
{
    if (occ[start])
        return 0;
    for (long i = 0; i < ng; i++)
        if (occ[goals[i]])
            return 0;
    if (ng == 0)
        return 1;
    long n = g->planes * g->rows, nw = g->nw, w = g->w;
    for (long i = 0; i < n; i++)
        for (long k = 0; k < nw; k++) {
            const unsigned char *cell = occ + i * w + 64 * k;
            long len = w - 64 * k < 64 ? w - 64 * k : 64;
            uint64_t x = 0, b;
            long c = 0;
            /* eight 0/1 bytes at a time: the product gathers their
             * flipped low bits into its top byte */
            for (; c + 8 <= len; c += 8) {
                memcpy(&b, cell + c, 8);
                x |= ((b ^ 0x0101010101010101u) * 0x0102040810204080u) >> 56
                     << c;
            }
            for (; c < len; c++)
                x |= (uint64_t)!cell[c] << c;
            g->free[i * nw + k] = x;
            g->reach[i * nw + k] = 0;
        }
    long row = start / w, col = start % w;
    g->reach[row * nw + col / 64] = (uint64_t)1 << (col % 64);
    fill_runs(g->free + row * nw, g->reach + row * nw, nw);
    if (all_inside(g, goals, ng))
        return 1;
    /* rows lo..hi hold all the reach, and a row takes from rows up to
     * margin away in C order, so a sweep covers lo - margin..hi + margin */
    long lo = row, hi = row, margin = (g->planes > 1 ? g->rows : 0) + 1;
    for (int down = 1;; down = !down) {
        int changed = 0;
        for (long i = down ? lo - margin : hi + margin;
             down ? i <= hi + margin : i >= lo - margin; i += down ? 1 : -1) {
            if (i < 0 || i >= n || !grow(g, i / g->rows, i % g->rows))
                continue;
            changed = 1;
            lo = i < lo ? i : lo;
            hi = i > hi ? i : hi;
            if (all_inside(g, goals, ng))
                return 1;
        }
        /* no row gained a cell from its neighbours as they now stand */
        if (!changed)
            return 0;
    }
}

/* Judge the u grids of occ, each alone, into out (u bytes, 1 = a path).
 * Returns 0, or -1 when the scratch allocation fails. */
long obsurf_reach(const unsigned char *occ, long u, long planes, long rows,
                  long w, long start, const long *goals, long ng,
                  unsigned char *out)
{
    long nw = (w + 63) / 64, n = planes * rows;
    struct grid g = {planes, rows, w, nw, NULL, NULL, NULL};
    g.free = malloc(sizeof(uint64_t) * (size_t)(n * nw));
    g.reach = malloc(sizeof(uint64_t) * (size_t)(n * nw));
    g.acc = malloc(sizeof(uint64_t) * (size_t)nw);
    long result = (g.free && g.reach && g.acc) ? 0 : -1;
    for (long c = 0; c < u && result == 0; c++)
        out[c] = (unsigned char)judge(&g, occ + n * w * c, start, goals, ng);
    free(g.free);
    free(g.reach);
    free(g.acc);
    return result;
}
