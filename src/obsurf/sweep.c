/* Dynamics kernels behind envs: the point slide, for K pegs through T
 * steps in one call (PegEnv._advance), and the whole cable step:
 * gripper slide, span clamp with its push-out and both relaxation
 * phases, for K chains through T steps in one call (CableEnv._advance),
 * each chain on one of the worker threads and independent of the
 * others.
 *
 * Every floating-point operation is the one the numpy formulation does,
 * in the same order, so results are bit-identical to it: build without
 * -ffast-math and without FMA contraction (-ffp-contract=off).
 *
 * Layout (all C-contiguous float64): points and controls as x y
 * pairs; pos and ref (b, n, 2); boxes (nb, 4) as x0 y0 x1 y1; invm
 * (n); lim, the range points are clipped into, as lo_x lo_y hi_x hi_y.
 */
#include <math.h>
#include <pthread.h>
#include <stdlib.h>
#include <string.h>

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

/* Relax chain p of n points in place against its pre-step positions
 * r, whose free points (inverse mass invm > 0) move: at most iters
 * Gauss-Seidel passes of distance projection, each followed by the
 * push-out of the free points and of the segment midpoints and by the
 * clip into lim, until every segment is within tol of rest; then a
 * last push-out of the free points. work holds 2n doubles. Returns
 * whether the iteration cap stopped it off tolerance. */
static int relax_chain(double *p, const double *r, long n,
                       const double *boxes, long nb, const double *invm,
                       long iters, double tol, double rest, double gap,
                       const double *lim, double *work)
{
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
    for (long i = 0; i < n; i++)
        if (invm[i] > 0.0)
            push_point(p + 2 * i, p + 2 * i + 1, r[2 * i], r[2 * i + 1],
                       boxes, nb, gap);
    return live;
}

/* One obsurf_cable call: x (k, t + 1, n, 2), u (k, t, 2 ng), the ng
 * gripped point indices, the inverse masses of the two relaxation
 * phases, grippers pinned (zero) and released (all one), and the
 * counter from which the threads take whole chains. */
struct cable {
    double *x;
    const double *u, *boxes, *lim, *pinned, *released;
    const long *grip;
    long next, k, t, n, ng, nb, iters[2];
    double rest, tol, gap, u_max, span_max;
};

/* One thread of a call: its scratch, 2n doubles of relaxation work and
 * then the 2 ng gripper targets, and the chain steps it counted off
 * tolerance in each phase. */
struct part {
    struct cable *cb;
    double *work;
    long capped[2];
    pthread_t id;
};

/* Chain span between two gripper targets, as np.linalg.norm(a - b). */
static double span(const double *a, const double *b)
{
    double dx = a[0] - b[0], dy = a[1] - b[1];
    return sqrt(dx * dx + dy * dy);
}

/* Two gripper targets tg over the span limit are drawn back toward
 * their midpoint, mid + (t - mid) * scale, and pushed out of the boxes
 * onto the nearest face; targets within it stay as they are. */
static void clamp_span(const struct cable *cb, double *tg)
{
    double d = span(tg, tg + 2);
    if (!(d > cb->span_max))
        return;
    double scale = cb->span_max / (d > 1e-12 ? d : 1e-12);
    double mx = 0.5 * (tg[0] + tg[2]), my = 0.5 * (tg[1] + tg[3]);
    for (int j = 0; j < 2; j++) {
        double *q = tg + 2 * j;
        q[0] = mx + (q[0] - mx) * scale;
        q[1] = my + (q[1] - my) * scale;
        push_point(q, q + 1, NAN, NAN, cb->boxes, cb->nb, cb->gap);
    }
}

/* A thread's share of a call: whole chains, taken one at a time, so the
 * threads stay busy however uneven the chains' relaxations are. A
 * chain's steps depend on nothing outside it, so it runs from step 0 to
 * t without waiting for the others. */
static void *cable_part(void *arg)
{
    struct part *pt = arg;
    struct cable *cb = pt->cb;
    long n = cb->n, ng = cb->ng;
    double *tg = pt->work + 2 * n;
    for (long c; (c = __atomic_fetch_add(&cb->next, 1, __ATOMIC_RELAXED))
                 < cb->k;) {
        double *prev = cb->x + 2 * n * (cb->t + 1) * c;
        const double *u = cb->u + 2 * ng * cb->t * c;
        for (long s = 0; s < cb->t; s++, prev += 2 * n, u += 2 * ng) {
            double *next = prev + 2 * n;
            for (long j = 0; j < ng; j++) {
                tg[2 * j] = prev[2 * cb->grip[j]];
                tg[2 * j + 1] = prev[2 * cb->grip[j] + 1];
                slide_point(tg + 2 * j, u + 2 * j, cb->boxes, cb->nb, cb->lim,
                            cb->gap, cb->u_max);
            }
            if (ng == 2)
                clamp_span(cb, tg);
            memcpy(next, prev, sizeof(double) * 2 * (size_t)n);
            for (long j = 0; j < ng; j++) {
                next[2 * cb->grip[j]] = tg[2 * j];
                next[2 * cb->grip[j] + 1] = tg[2 * j + 1];
            }
            for (int ph = 0; ph < 2; ph++)
                pt->capped[ph] += relax_chain(
                    next, prev, n, cb->boxes, cb->nb,
                    ph ? cb->released : cb->pinned, cb->iters[ph], cb->tol,
                    cb->rest, cb->gap, cb->lim, pt->work);
        }
    }
    return NULL;
}

/* Advance k chains of n points through t steps; see CableEnv._advance.
 * x (k, t + 1, n, 2) holds each start at step 0 and receives the rest;
 * u is (k, t, 2 ng), gripper j taking columns 2j and 2j + 1. Each step
 * is relaxed for at most iters[0] iterations with the ng grip points
 * pinned, then iters[1] with them released, and capped[0] and capped[1]
 * receive how many chain steps each phase left off tolerance. Up to
 * `threads` threads share the chains; the result does not depend on
 * their number, nor a chain's on the others. Returns 0, or -1 when the
 * scratch allocation fails. */
long obsurf_cable(double *x, long k, long t, long n, const double *u,
                  const long *grip, long ng, const double *boxes, long nb,
                  const double *lim, const long *iters, double tol,
                  double rest, double gap, double u_max, double span_max,
                  long threads, long *capped)
{
    long parts = threads < k ? threads : k;
    if (parts < 1)
        parts = 1;
    /* the two phases' inverse masses, then each thread's scratch; 8
     * doubles apart, so no two threads write one cache line */
    long per = 2 * (n + ng) + 8;
    double *mem = malloc(sizeof(double) * (size_t)(per * (1 + parts)));
    struct part *pt = malloc(sizeof(struct part) * parts);
    if (!mem || !pt) {
        free(mem);
        free(pt);
        return -1;
    }
    struct cable cb = {
        .x = x, .u = u, .boxes = boxes, .lim = lim, .pinned = mem,
        .released = mem + n, .grip = grip, .k = k, .t = t, .n = n, .ng = ng,
        .nb = nb, .iters = {iters[0], iters[1]}, .rest = rest, .tol = tol,
        .gap = gap, .u_max = u_max, .span_max = span_max};
    for (long i = 0; i < n; i++)
        mem[i] = mem[n + i] = 1.0;
    for (long j = 0; j < ng; j++)
        mem[grip[j]] = 0.0;
    for (long i = 0; i < parts; i++)
        pt[i] = (struct part){.cb = &cb, .work = mem + per * (1 + i)};
    /* the calling thread is the last part; a thread that fails to start
     * leaves its chains to the others */
    long started = 0;
    while (started < parts - 1
           && pthread_create(&pt[started].id, NULL, cable_part,
                             pt + started) == 0)
        started++;
    cable_part(pt + parts - 1);
    capped[0] = capped[1] = 0;
    for (long i = 0; i < parts; i++) {
        if (i < started)
            pthread_join(pt[i].id, NULL);
        capped[0] += pt[i].capped[0];
        capped[1] += pt[i].capped[1];
    }
    free(pt);
    free(mem);
    return 0;
}
