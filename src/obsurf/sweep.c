/* Dynamics kernels behind envs: the point slide (PegEnv, its rollout
 * and the cable grippers), the cable relaxation (CableEnv._sweep) and
 * the push-out of the grippers' span clamp (CableEnv._move).
 *
 * Every floating-point operation is the one the numpy formulation does,
 * in the same order, so results are bit-identical to it: build without
 * -ffast-math and without FMA contraction (-ffp-contract=off).
 *
 * Layout (all C-contiguous float64): points and controls (m, 2); pos
 * and ref (b, n, 2); boxes (nb, 4) as x0 y0 x1 y1; invm (n); lim, the
 * range points are clipped into, as lo_x lo_y hi_x hi_y.
 */
#include <math.h>
#include <stdlib.h>

/* numpy's np.clip: NaN passes, a tie keeps v, and an inverted range
 * gives hi. */
static double clip(double v, double lo, double hi)
{
    v = isnan(v) || v >= lo ? v : lo;
    return isnan(v) || v <= hi ? v : hi;
}

/* Advance coordinate a of point p by d, stopping a gap short of the
 * first box face crossed, then clip it into [lo, hi]. A point already
 * resting on a face stays put when pushed toward it and moves freely
 * otherwise. */
static double slide_axis(const double *p, int a, double d,
                         const double *boxes, long nb, double gap,
                         double lo, double hi)
{
    int o = 1 - a;
    double start = p[a], next = start + d;
    for (long j = 0; j < nb; j++) {
        const double *bx = boxes + 4 * j;
        if (!(p[o] > bx[o] - gap && p[o] < bx[o + 2] + gap))
            continue;
        double face = bx[a] - gap;
        if (d > 0 && start <= face + 1e-12 && next > face)
            next = face;
        face = bx[a + 2] + gap;
        if (d < 0 && start >= face - 1e-12 && next < face)
            next = face;
    }
    return clip(next, lo, hi);
}

/* Axis-separable slide of point p by u: the x then the y component,
 * each first clipped to +-u_max. */
static void slide_point(double *p, const double *u, const double *boxes,
                        long nb, const double *lim, double gap, double u_max)
{
    p[0] = slide_axis(p, 0, clip(u[0], -u_max, u_max), boxes, nb, gap,
                      lim[0], lim[2]);
    p[1] = slide_axis(p, 1, clip(u[1], -u_max, u_max), boxes, nb, gap,
                      lim[1], lim[3]);
}

/* Slide m points p in place, each by its row of u. */
void obsurf_slide(double *p, long m, const double *u, const double *boxes,
                  long nb, const double *lim, double gap, double u_max)
{
    for (long i = 0; i < m; i++)
        slide_point(p + 2 * i, u + 2 * i, boxes, nb, lim, gap, u_max);
}

/* Roll k points through t slides: x (k, t + 1, 2) holds each start at
 * step 0 and receives the rest; u is (k, t, 2). */
void obsurf_rollout(double *x, long k, long t, const double *u,
                    const double *boxes, long nb, const double *lim,
                    double gap, double u_max)
{
    for (long c = 0; c < k; c++) {
        double *p = x + 2 * (t + 1) * c;
        for (long s = 0; s < t; s++, p += 2) {
            p[2] = p[0];
            p[3] = p[1];
            slide_point(p + 2, u + 2 * (t * c + s), boxes, nb, lim, gap,
                        u_max);
        }
    }
}

/* Move (x, y) out of every gap-expanded box it lies strictly inside, in
 * box order, onto the face on the side of its reference (rx, ry), or
 * the nearest face when no reference coordinate is outside one. Returns
 * whether it moved. */
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

/* Push m points p out of the boxes in place, each onto the nearest
 * face: a NaN reference is outside no face. */
void obsurf_push_out(double *p, long m, const double *boxes, long nb, double gap)
{
    for (long i = 0; i < m; i++)
        push_point(p + 2 * i, p + 2 * i + 1, NAN, NAN, boxes, nb, gap);
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
                  const double *lim)
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
                p[i] += clip(p[i], lim[i % 2], lim[2 + i % 2]) - p[i];
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
