/* Cable relaxation kernel behind envs.CableEnv._sweep.
 *
 * Chains are independent, so each is relaxed alone, start to finish.
 * Every floating-point operation is the one the numpy formulation does,
 * in the same order, so results are bit-identical to it: build without
 * -ffast-math and without FMA contraction (-ffp-contract=off).
 *
 * Layout (all C-contiguous float64): pos and ref (b, n, 2), boxes
 * (nb, 4) as x0 y0 x1 y1, invm (n), clip as lo_x lo_y hi_x hi_y.
 */
#include <math.h>
#include <stdlib.h>

/* Move (x, y) out of every gap-expanded box it lies strictly inside, in
 * box order, onto the face on the side of its reference (rx, ry), or
 * the nearest face when no reference coordinate is outside one (as
 * envs.push_out). Returns whether it moved. */
static int push_point(double *x, double *y, double rx, double ry,
                      const double *boxes, long nb, double gap)
{
    int moved = 0;
    for (long j = 0; j < nb; j++) {
        const double *bx = boxes + 4 * j;
        double lx = bx[0] - gap, ly = bx[1] - gap;
        double hx = bx[2] + gap, hy = bx[3] + gap;
        if (!(*x > lx && *y > ly && *x < hx && *y < hy))
            continue;
        /* one entry per face: -x, +x, -y, +y */
        double depth[4] = {*x - lx, hx - *x, *y - ly, hy - *y};
        double clear[4] = {lx - rx, rx - hx, ly - ry, ry - hy};
        int face = 0, nan = 0;
        for (int f = 0; f < 4; f++) {
            nan |= isnan(clear[f]);
            if (clear[f] > clear[face])
                face = f;
        }
        /* a NaN maximum is not > 0, so the nearest face wins */
        if (nan || !(clear[face] > 0.0)) {
            face = 0;
            for (int f = 1; f < 4; f++)
                if (depth[f] < depth[face])
                    face = f;
        }
        if (face == 0) *x = lx;
        else if (face == 1) *x = hx;
        else if (face == 2) *y = ly;
        else *y = hy;
        moved = 1;
    }
    return moved;
}

/* Whether some segment is off rest by more than tol; a NaN length
 * freezes the chain (the numpy maximum is NaN, and NaN > tol is false). */
static int off_rest(const double *p, long n, double rest, double tol)
{
    int live = 0;
    for (long s = 0; s + 1 < n; s++) {
        double dx = p[2 * s + 2] - p[2 * s], dy = p[2 * s + 3] - p[2 * s + 1];
        double err = fabs(sqrt(dx * dx + dy * dy) - rest);
        if (isnan(err))
            return 0;
        if (err > tol)
            live = 1;
    }
    return live;
}

static double share(double w, double w_pair)
{
    return w_pair > 0.0 ? 2.0 * w / w_pair : 0.0;
}

/* Relax b chains of n points in place; see CableEnv._sweep. Returns how
 * many chains the iteration cap stopped off tolerance, or -1 when the
 * scratch allocation fails. */
long obsurf_sweep(double *pos, const double *ref, long b, long n,
                  const double *boxes, long nb, const double *invm,
                  long iters, double tol, double rest, double gap,
                  const double *clip)
{
    /* per chain: pushed free points, then midpoint corrections */
    double *work = malloc(sizeof(double) * 2 * (size_t)n);
    if (!work)
        return -1;
    long capped = 0;
    for (long c = 0; c < b; c++) {
        double *p = pos + 2 * n * c;
        const double *r = ref + 2 * n * c;
        int live = 1;
        for (long it = 0; it < iters && live; it++) {
            for (long s = 0; s + 1 < n; s++) {
                double w0 = invm[s], w1 = invm[s + 1], wsum = w0 + w1;
                if (wsum == 0.0)
                    continue;
                double *a = p + 2 * s, *q = a + 2;
                double dx = q[0] - a[0], dy = q[1] - a[1];
                double len = sqrt(dx * dx + dy * dy);
                double corr = len > 1e-12 ? (len - rest) / (wsum * len) : 0.0;
                double sx = corr * dx, sy = corr * dy;
                if (w0 != 0.0) {
                    a[0] += w0 * sx;
                    a[1] += w0 * sy;
                }
                if (w1 != 0.0) {
                    q[0] -= w1 * sx;
                    q[1] -= w1 * sy;
                }
            }
            /* push out the free points; p + (out - p) for all of them
             * once any moved */
            int moved = 0;
            for (long i = 0; i < n; i++) {
                if (!(invm[i] > 0.0))
                    continue;
                work[2 * i] = p[2 * i];
                work[2 * i + 1] = p[2 * i + 1];
                moved |= push_point(work + 2 * i, work + 2 * i + 1, r[2 * i],
                                    r[2 * i + 1], boxes, nb, gap);
            }
            if (moved)
                for (long i = 0; i < 2 * n; i++)
                    if (invm[i / 2] > 0.0)
                        p[i] += work[i] - p[i];
            /* segment midpoints collide too, else a segment can pass
             * clean through a thin box while its endpoints stay out */
            moved = 0;
            for (long s = 0; s + 1 < n; s++) {
                double mx = 0.5 * (p[2 * s] + p[2 * s + 2]);
                double my = 0.5 * (p[2 * s + 1] + p[2 * s + 3]);
                double x = mx, y = my;
                moved |= push_point(&x, &y, 0.5 * (r[2 * s] + r[2 * s + 2]),
                                    0.5 * (r[2 * s + 1] + r[2 * s + 3]),
                                    boxes, nb, gap);
                work[2 * s] = x - mx;
                work[2 * s + 1] = y - my;
            }
            if (moved) {
                for (long s = 0; s + 1 < n; s++) {
                    double k = share(invm[s], invm[s] + invm[s + 1]);
                    p[2 * s] += work[2 * s] * k;
                    p[2 * s + 1] += work[2 * s + 1] * k;
                }
                for (long s = 0; s + 1 < n; s++) {
                    double k = share(invm[s + 1], invm[s] + invm[s + 1]);
                    p[2 * s + 2] += work[2 * s] * k;
                    p[2 * s + 3] += work[2 * s + 1] * k;
                }
            }
            for (long i = 0; i < 2 * n; i++) {
                if (!(invm[i / 2] > 0.0))
                    continue;
                double v = p[i], lo = clip[i % 2], hi = clip[2 + i % 2];
                p[i] += (v < lo ? lo : v > hi ? hi : v) - v;
            }
            live = off_rest(p, n, rest, tol);
        }
        capped += live;
        for (long i = 0; i < n; i++)
            if (invm[i] > 0.0)
                push_point(p + 2 * i, p + 2 * i + 1, r[2 * i], r[2 * i + 1],
                           boxes, nb, gap);
    }
    free(work);
    return capped;
}
