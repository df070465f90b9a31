import contextlib
import ctypes
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obsurf import clib, envs, sensor
from obsurf.constraints import NoPenetration, PathExists, connected_components
from obsurf.envs import (Box, CableEnv, CONTACT_GAP, ObservedSurface, PegEnv,
                         PINNED_ITERATIONS, POLISH_ITERATIONS, Scene,
                         WorldGeometry, make_scene, parse_scene)
from obsurf.gpis import GridSpec, OccupancyGrid
from obsurf.harness import EpisodeConfig, run_episode
from obsurf.mppi import Goal


def simple_world(boxes=()):
    return WorldGeometry(tuple(boxes), (0.0, 0.0), (0.4, 0.4))


# A point near box k: fractions of its gap-expanded extent, reaching
# past it on every side.
_near_box = st.tuples(st.integers(0, 8), st.floats(-0.3, 1.3),
                      st.floats(-0.3, 1.3))


# The push-out as it stood in numpy, kept verbatim as the exactness oracle
# for push_point in sweep.c; with no ref, the nearest face wins.
def _reference_push_out(pts, boxes, gap, ref=None):
    pts = np.atleast_2d(pts).copy()
    if ref is not None:
        ref = np.atleast_2d(ref)
    for box in boxes:
        lo = box[:2] - gap
        hi = box[2:4] + gap
        inside = np.all((pts > lo) & (pts < hi), axis=1)
        if not inside.any():
            continue
        p = pts[inside]
        # clearance[:, f] > 0 when the reference is outside face f
        depths = np.stack([p[:, 0] - lo[0], hi[0] - p[:, 0],
                           p[:, 1] - lo[1], hi[1] - p[:, 1]], axis=1)
        if ref is None:
            face = np.argmin(depths, axis=1)
        else:
            r = ref[inside]
            clearance = np.stack([lo[0] - r[:, 0], r[:, 0] - hi[0],
                                  lo[1] - r[:, 1], r[:, 1] - hi[1]], axis=1)
            face = np.where(np.max(clearance, axis=1) > 0.0,
                            np.argmax(clearance, axis=1),
                            np.argmin(depths, axis=1))
        p[face == 0, 0] = lo[0]
        p[face == 1, 0] = hi[0]
        p[face == 2, 1] = lo[1]
        p[face == 3, 1] = hi[1]
        pts[inside] = p
    return pts


def _numpy_push_out(pts, boxes, gap, ref):
    """_reference_push_out over (..., 2) points, returning pts itself
    when no point is inside any box, as the numpy push-out beneath
    _numpy_sweep did."""
    out = _reference_push_out(pts.reshape(-1, 2), boxes, gap,
                              ref.reshape(-1, 2)).reshape(pts.shape)
    return pts if np.array_equal(out, pts, equal_nan=True) else out


# The relaxation as it stood before the C kernel, kept verbatim but for
# its push-out (`_numpy_push_out`) as the exactness oracle for each
# relaxation phase of a cable step (relax_chain in sweep.c). Run it on one
# chain at a time: in a batch, the push-outs' p + (out - p) reaches a
# chain only when something in its batch moved, and NaN + 0 * NaN
# spreads, so a NaN chain's batch-mates would decide its result.
def _numpy_sweep(self, pos: np.ndarray, boxes: np.ndarray, invm: np.ndarray,
                 iters: int, tol: float, ref: np.ndarray) -> tuple[np.ndarray, int]:
    """Gauss-Seidel distance projection followed by obstacle
    push-out, until every segment is within tol of rest (or the
    iteration cap); batched over the leading axis, in place. `ref`
    holds the pre-step positions used to pick push-out faces.
    Returns the positions and how many chains the cap stopped off
    tolerance."""
    n = pos.shape[1]
    lo = (np.asarray(self.world.bounds_lo) + CONTACT_GAP)[:, None]
    hi = (np.asarray(self.world.bounds_hi) - CONTACT_GAP)[:, None]
    free = np.flatnonzero(invm > 0.0)
    if free.size and free[-1] - free[0] == free.size - 1:
        free = slice(free[0], free[-1] + 1)  # a view, not a copy
    # weight each endpoint's share of a segment-midpoint correction
    w_pair = invm[:-1] + invm[1:]
    share0, share1 = np.divide(
        2.0 * np.stack([invm[:-1], invm[1:]]), w_pair,
        out=np.zeros((2, n - 1)), where=w_pair > 0.0)[..., None, None]
    segs = [(s, invm[s], invm[s + 1], w_pair[s])
            for s in range(n - 1) if w_pair[s] != 0.0]
    # Work on a (link, xy, chain) copy so each per-link update is one
    # contiguous row; the push-out sees (link, chain, xy) views of it.
    p = pos.transpose(1, 2, 0).copy()
    rf = ref[:, free].transpose(1, 0, 2)
    rm = (0.5 * (ref[:, :-1] + ref[:, 1:])).transpose(1, 0, 2)
    # Converged chains freeze and leave the batch (`idx` holds the live
    # ones), so each chain evolves exactly as it would alone.
    idx = np.arange(pos.shape[0])
    for _ in range(iters):
        for s, w0, w1, wsum in segs:
            d = p[s + 1] - p[s]
            sq = d * d
            length = np.sqrt(sq[0] + sq[1])
            corr = (length - self.rest) / (wsum * np.maximum(length, 1e-12))
            if not length.min() > 1e-12:
                corr[~(length > 1e-12)] = 0.0
            shift = corr * d
            if w0:
                p[s] += shift if w0 == 1.0 else w0 * shift
            if w1:
                p[s + 1] -= shift if w1 == 1.0 else w1 * shift
        pf = p[free].transpose(0, 2, 1)
        out = _numpy_push_out(pf, boxes, CONTACT_GAP, rf)
        if out is not pf:
            p[free] += (out - pf).transpose(0, 2, 1)
        # segment midpoints collide too, else a segment can pass
        # clean through a thin box while its endpoints stay out
        mid = (0.5 * (p[:-1] + p[1:])).transpose(0, 2, 1)
        out = _numpy_push_out(mid, boxes, CONTACT_GAP, rm)
        if out is not mid:
            delta = (out - mid).transpose(0, 2, 1)
            p[:-1] += delta * share0
            p[1:] += delta * share1
        pf = p[free]
        p[free] += pf.clip(lo, hi) - pf
        d = p[1:] - p[:-1]
        sq = d * d
        seg = np.sqrt(sq[:, 0] + sq[:, 1])
        live = np.abs(seg - self.rest).max(axis=0) > tol
        if not live.all():
            pos[idx[~live]] = p[..., ~live].transpose(2, 0, 1)
            idx = idx[live]
            p, rf, rm = p[..., live], rf[:, live], rm[:, live]
            if not idx.size:
                break
    pos[idx] = p.transpose(2, 0, 1)
    pos[:, free] = _numpy_push_out(pos[:, free], boxes, CONTACT_GAP,
                                   ref[:, free])
    return pos, idx.size


# The relaxation as it stood before live-chain compaction, kept verbatim
# as a second, independent oracle for relax_chain in sweep.c: batched,
# with converged chains masked out rather than dropped.
def _reference_sweep(self, pos, boxes, invm, iters, tol, ref):
    b, n, _ = pos.shape
    lo = np.asarray(self.world.bounds_lo)
    hi = np.asarray(self.world.bounds_hi)
    free = invm > 0.0
    ref_flat = ref[:, free].reshape(-1, 2)
    ref_mid = (0.5 * (ref[:, :-1] + ref[:, 1:])).reshape(-1, 2)
    # weight each endpoint's share of a segment-midpoint correction
    w_pair = invm[:-1] + invm[1:]
    share0 = np.divide(2.0 * invm[:-1], w_pair, out=np.zeros(n - 1),
                       where=w_pair > 0.0)[None, :, None]
    share1 = np.divide(2.0 * invm[1:], w_pair, out=np.zeros(n - 1),
                       where=w_pair > 0.0)[None, :, None]
    # Converged chains freeze so each batch element evolves exactly as
    # it would alone.
    live = np.ones(b)
    for _ in range(iters):
        for s in range(n - 1):
            wsum = invm[s] + invm[s + 1]
            if wsum == 0.0:
                continue
            d = pos[:, s + 1] - pos[:, s]
            length = np.linalg.norm(d, axis=1)
            corr = np.where(length > 1e-12,
                            (length - self.rest)
                            / (wsum * np.maximum(length, 1e-12)), 0.0)
            shift = (live * corr)[:, None] * d
            pos[:, s] += invm[s] * shift
            pos[:, s + 1] -= invm[s + 1] * shift
        if len(boxes):
            flat = pos[:, free].reshape(-1, 2)
            out = _reference_push_out(flat, boxes, CONTACT_GAP,
                                      ref_flat).reshape(b, -1, 2)
            pos[:, free] += live[:, None, None] * (out - pos[:, free])
            # segment midpoints collide too, else a segment can pass
            # clean through a thin box while its endpoints stay out
            mid = 0.5 * (pos[:, :-1] + pos[:, 1:])
            delta = (_reference_push_out(mid.reshape(-1, 2), boxes,
                                         CONTACT_GAP, ref_mid)
                     .reshape(mid.shape) - mid)
            delta *= live[:, None, None]
            pos[:, :-1] += delta * share0
            pos[:, 1:] += delta * share1
        clipped = np.clip(pos[:, free], lo + CONTACT_GAP, hi - CONTACT_GAP)
        pos[:, free] += live[:, None, None] * (clipped - pos[:, free])
        seg = np.linalg.norm(pos[:, 1:] - pos[:, :-1], axis=2)
        live = (np.max(np.abs(seg - self.rest), axis=1) > tol).astype(float)
        if not live.any():
            break
    if len(boxes):
        flat = pos[:, free].reshape(-1, 2)
        pos[:, free] = _reference_push_out(flat, boxes, CONTACT_GAP,
                                           ref_flat).reshape(b, -1, 2)
    return pos


# The point slide and the env moves as they stood before the C kernel,
# kept verbatim as the exactness oracle for obsurf_rollout, PegEnv's
# steps and the cable grippers of CableEnv._advance.
def _axis_slide(pos: np.ndarray, delta: np.ndarray, axis: int,
                boxes: np.ndarray, lo, hi, gap: float) -> np.ndarray:
    """Advance one coordinate of each point, stopping a gap short of the
    first box face crossed. Points already resting on a face stay put
    when pushed toward it and move freely otherwise."""
    pos = np.atleast_2d(pos)
    delta = np.asarray(delta, dtype=float)
    other = 1 - axis
    start = pos[:, axis]
    new = start + delta
    for box in boxes:
        lo_a, hi_a = box[axis], box[axis + 2]
        lo_o, hi_o = box[other], box[other + 2]
        blocking = (pos[:, other] > lo_o - gap) & (pos[:, other] < hi_o + gap)
        fwd = (blocking & (delta > 0)
               & (start <= lo_a - gap + 1e-12) & (new > lo_a - gap))
        new = np.where(fwd, lo_a - gap, new)
        bwd = (blocking & (delta < 0)
               & (start >= hi_a + gap - 1e-12) & (new < hi_a + gap))
        new = np.where(bwd, hi_a + gap, new)
    new = np.clip(new, lo[axis] + gap, hi[axis] - gap)
    out = pos.copy()
    out[:, axis] = new
    return out


def _numpy_slide_move(pos: np.ndarray, u: np.ndarray, boxes: np.ndarray,
                      lo, hi, gap: float = CONTACT_GAP) -> np.ndarray:
    """Axis-separable sliding: apply the x then the y component, each
    clipped at first contact. A diagonal push into a wall keeps its
    lateral component."""
    u = np.atleast_2d(u)
    p = _axis_slide(np.atleast_2d(pos), u[:, 0], 0, boxes, lo, hi, gap)
    return _axis_slide(p, u[:, 1], 1, boxes, lo, hi, gap)


def _numpy_peg_move(self, states: np.ndarray, u: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    pos = states[:, 0, :]
    u = np.clip(np.atleast_2d(u), -self.u_max, self.u_max)
    new = _numpy_slide_move(pos, u, boxes, self.world.bounds_lo, self.world.bounds_hi)
    return new[:, None, :]


def _numpy_cable_move(self, states: np.ndarray, u: np.ndarray, boxes: np.ndarray,
                      pushed=None, capped=None) -> np.ndarray:
    """One cable step of states (K, n, 2) as it stood before the whole
    step became one kernel: the grippers slid and span-clamped in numpy,
    then each chain relaxed alone by `_numpy_sweep` with the grippers
    pinned, then released, against its pre-step state, at the iteration
    caps of self._iters. Only the chains over the span limit are
    clamped. With a list `pushed`, appends whether the span clamp's
    push-out moved a point; with a list `capped` of two counts, adds
    each phase's capped chains."""
    states = np.ascontiguousarray(states, dtype=float)
    u = np.clip(np.atleast_2d(u), -self.u_max, self.u_max)
    chain = states.copy()
    targets = []
    for j, g in enumerate(self.gripped):
        t = _numpy_slide_move(states[:, g, :], u[:, 2 * j:2 * j + 2], boxes,
                              self.world.bounds_lo, self.world.bounds_hi)
        targets.append(t)
    if len(targets) == 2:
        span = np.linalg.norm(targets[0] - targets[1], axis=1)
        over = span > self._span_max
        if over.any():
            mid = 0.5 * (targets[0][over] + targets[1][over])
            scale = self._span_max / np.maximum(span[over], 1e-12)
            drawn = [mid + (t[over] - mid) * scale[:, None] for t in targets]
            out = [_reference_push_out(d, boxes, CONTACT_GAP) for d in drawn]
            if pushed is not None:
                pushed.append(not all(np.array_equal(o, d, equal_nan=True)
                                      for o, d in zip(out, drawn)))
            for t, o in zip(targets, out):
                t[over] = o
    for j, g in enumerate(self.gripped):
        chain[:, g, :] = targets[j]
    for phase, invm in enumerate((_pinned(self), np.ones(self.n))):
        for i in range(len(chain)):
            _, c = _numpy_sweep(self, chain[i:i + 1], boxes, invm,
                                self._iters[phase], 0.005 * self.rest,
                                states[i:i + 1])
            if capped is not None:
                capped[phase] += c
    return chain


_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf]


@st.composite
def _slide_case(draw, gaps=(CONTACT_GAP, 0.0, 0.004)):
    """Points, controls and 0-4 boxes (some sheet-thin) in the bounds
    (0, 0)-(0.4, 0.4). Coordinates sit on gap-expanded box faces to
    within 1e-12, inside boxes, on and past the bounds, or anywhere,
    and a few are +-0, NaN or +-inf; controls are zero, positive,
    negative, reach a face to within rounding, or are NaN or +-inf.
    With `one_row`, u is a single row for every point."""
    gap = draw(st.sampled_from(gaps))
    lo, hi = (0.0, 0.0), (0.4, 0.4)
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        x0, y0 = draw(st.floats(0.02, 0.3)), draw(st.floats(0.02, 0.3))
        size = st.sampled_from([1e-9, 1e-4, 0.012]) | st.floats(1e-3, 0.15)
        boxes.append([x0, y0, x0 + draw(size), y0 + draw(size)])
    boxes = np.array(boxes, dtype=float).reshape(-1, 4)
    specials = [lo[0], hi[0], lo[0] + gap, hi[0] - gap, -0.01, 0.41]
    for face in boxes.ravel():
        for side in (-gap, gap):
            specials += [face + side + e for e in (-2e-12, -1e-12, 0.0,
                                                   1e-12, 2e-12)]
    for b in boxes:
        specials += [b[0] + f * (b[2] - b[0]) for f in (0.25, 0.5)]
        specials += [b[1] + f * (b[3] - b[1]) for f in (0.25, 0.5)]
    coord = (st.sampled_from(specials) | st.floats(-0.05, 0.45)
             | st.sampled_from(_SPECIAL))
    m = draw(st.integers(1, 12))
    pos = np.array([[draw(coord), draw(coord)] for _ in range(m)])
    rows = 1 if draw(st.booleans()) else m

    def control(start):
        kind = draw(st.sampled_from(["free", "face", "special"]))
        if kind == "free":
            return draw(st.floats(-0.1, 0.1))
        if kind == "face":
            return draw(st.sampled_from(specials)) - start
        return draw(st.sampled_from(_SPECIAL + [1e-12, -1e-12]))

    u = np.array([[control(pos[i, 0]), control(pos[i, 1])]
                  for i in range(rows)])
    return pos, u, boxes, lo, hi, gap


def _slide_move(pos, u, boxes, lo, hi, gap=CONTACT_GAP) -> np.ndarray:
    """The points pos (m, 2) slid within lo-hi by u, broadcast to their
    shape and not clipped: obsurf_rollout of m one-step rollouts."""
    pos = np.atleast_2d(pos)
    x = np.empty((len(pos), 2, 2))
    x[:, 0] = pos
    u = np.ascontiguousarray(np.broadcast_to(u, pos.shape), dtype=float)
    boxes = np.ascontiguousarray(boxes, dtype=float).reshape(len(boxes), 4)
    clib.kernels().obsurf_rollout(
        clib.addr(x), len(x), 1, clib.addr(u),
        clib.arg("boxes", boxes, boxes.shape), len(boxes),
        clib.addr(envs._limits(lo, hi, gap)), gap, math.inf)
    return x[:, 1]


def _kernel_push_out(pts, boxes, gap) -> np.ndarray:
    """The points pts (m, 2) pushed out of the boxes, each against itself
    as reference: one obsurf_cable step in which every point is a gripper
    held still (u = -0.0 adds exactly 0 and keeps -0.0), nothing is
    clipped or span-clamped, and both phases' caps are 0, so only the
    released phase's last push-out acts."""
    m = len(pts)
    x = np.empty((1, 2, m, 2))
    x[0, 0] = pts
    u = np.full((1, 1, 2 * m), -0.0)
    lim = np.array([-math.inf, -math.inf, math.inf, math.inf])
    clib.kernels().obsurf_cable(
        clib.addr(x), 1, 1, m, clib.addr(u), (ctypes.c_long * m)(*range(m)),
        m, clib.arg("boxes", boxes, (len(boxes), 4)), len(boxes),
        clib.addr(lim), (ctypes.c_long * 2)(0, 0), 0.0, 0.0, gap, math.inf,
        math.inf, 1, (ctypes.c_long * 2)())
    return x[0, 1]


def _pinned(env) -> np.ndarray:
    """Inverse masses of env's chain with its grippers pinned."""
    invm = np.ones(env.n)
    invm[list(env.gripped)] = 0.0
    return invm


def _same_bytes(a, b) -> bool:
    return (np.shape(a) == np.shape(b) and np.asarray(a).dtype == np.asarray(b).dtype
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def _one_step(env, states, u, boxes):
    """States (K, n, 2) one step on under controls u, broadcast to (K,
    control_dim), against boxes."""
    u = np.broadcast_to(u, (len(states), env.control_dim))[:, None]
    return env._roll(states, u, boxes)[:, 1]


# The stock scenes as code, before they became text, kept verbatim as
# the exactness oracle for make_scene.
def _zigzag_chain(x0: float, x1: float, y: float, k: int, rest: float) -> np.ndarray:
    """Chain with exact segment rests spanning less than its length."""
    dx = (x1 - x0) / (k - 1)
    if dx >= rest:
        raise ValueError("span too wide for the requested rest length")
    dy = math.sqrt(rest * rest - dx * dx)
    pts = np.zeros((k, 2))
    pts[:, 0] = x0 + dx * np.arange(k)
    pts[:, 1] = y + 0.5 * dy * np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    return pts


def _reference_make_scene(name: str) -> Scene:
    """Build one of the stock tasks.

    peg_u: cup-shaped wall between start and goal, goal inside the cup.
    peg_i: single straight wall across the direct route.
    peg_t: tee-shaped wall; the route must round the stem.
    cable_hook: overhead bar hidden behind a barrier; the chain starts
    below the bar and the goal for its center sits above it.
    """
    if name == "peg_u":
        # Sheet-thin walls: one-step nominal predictions overshoot them,
        # so impeded transitions scatter interior points into the free
        # space beyond, exactly the spurious evidence refinement exists
        # to remove.
        boxes = (
            Box((0.148, 0.16), (0.16, 0.30), observable=False),
            Box((0.24, 0.16), (0.252, 0.30), observable=False),
            Box((0.148, 0.148), (0.252, 0.16), observable=False),
        )
        world = WorldGeometry(boxes, (0.0, 0.0), (0.4, 0.4))
        env = PegEnv(world, [(0.20, 0.05)], u_max=0.02)
        r_g = 0.02
        goal = Goal(0, np.array((0.20, 0.22)))
        grid = GridSpec((0.0, 0.0), (0.4, 0.4), r_g / 2.0)
        return Scene(name, env, goal, r_g, None, None,
                     [PathExists(grid=grid, component=0)], grid)
    if name == "peg_i":
        boxes = (Box((0.12, 0.19), (0.28, 0.22), observable=False),)
        world = WorldGeometry(boxes, (0.0, 0.0), (0.4, 0.4))
        env = PegEnv(world, [(0.20, 0.06)], u_max=0.02)
        r_g = 0.02
        goal = Goal(0, np.array((0.20, 0.34)))
        grid = GridSpec((0.0, 0.0), (0.4, 0.4), r_g / 2.0)
        return Scene(name, env, goal, r_g, None, None,
                     [PathExists(grid=grid, component=0)], grid)
    if name == "peg_t":
        boxes = (
            Box((0.19, 0.08), (0.22, 0.24), observable=False),
            Box((0.10, 0.24), (0.31, 0.27), observable=False),
        )
        world = WorldGeometry(boxes, (0.0, 0.0), (0.4, 0.4))
        env = PegEnv(world, [(0.10, 0.12)], u_max=0.02)
        r_g = 0.02
        goal = Goal(0, np.array((0.30, 0.12)))
        grid = GridSpec((0.0, 0.0), (0.4, 0.4), r_g / 2.0)
        return Scene(name, env, goal, r_g, None, None,
                     [PathExists(grid=grid, component=0)], grid)
    if name == "cable_hook":
        # The chain starts entirely under a long hidden bar, so lifting
        # presses into it anywhere along the span and escape needs a real
        # sideways detour that the goal pull fights. The camera looks
        # down from the left past a small barrier that shadows exactly
        # the bar and the under-bar contact zone; the start, the climb
        # corridor left of the barrier, the traverse above, and the goal
        # all stay visible.
        bar = Box((0.20, 0.28), (0.56, 0.31), observable=False)
        barrier = Box((0.185, 0.282), (0.195, 0.326), observable=True)
        world = WorldGeometry((bar, barrier), (0.0, 0.0), (0.6, 0.5))
        k = 8
        chain = _zigzag_chain(0.24, 0.43, 0.10, k, rest=0.03)
        env = CableEnv(world, chain, rest=0.03, gripped=(0, k - 1), u_max=0.02)
        cam = sensor.Camera.from_fov((0.03, 0.33), yaw=-0.35, fov=2.6,
                                     width=300)
        depth = sensor.render_depth(world.rows(observable_only=False), cam)
        r_g = 0.04
        goal = Goal(k // 2, np.array((0.38, 0.42)))
        grid = GridSpec((0.0, 0.0), (0.6, 0.5), r_g / 2.0)
        return Scene(name, env, goal, r_g, cam, depth,
                     [NoPenetration(zeta=0.4)], grid)
    raise ValueError(f"unknown scene '{name}'")


def _chain_case(seed, batch, links, n_boxes):
    """A cable env gripped at both ends and `batch` chains of `links`
    points near (and across) `n_boxes` random boxes, some at exact rest
    length, some stretched or slack, a few with all but coincident
    neighbours."""
    rng = np.random.default_rng(seed)
    rest = 0.03
    world = WorldGeometry((), (0.0, 0.0), (0.6, 0.5))
    lo = rng.uniform((0.1, 0.1), (0.4, 0.3), (n_boxes, 2))
    boxes = np.hstack([lo, lo + rng.uniform(0.005, 0.15, (n_boxes, 2))])
    if n_boxes:
        box = boxes[rng.integers(n_boxes, size=batch)]
        anchor = (0.5 * (box[:, :2] + box[:, 2:])
                  + rng.uniform(-0.1, 0.1, (batch, 2)))
    else:
        anchor = rng.uniform((0.0, 0.0), (0.6, 0.5), (batch, 2))
    angle = np.cumsum(rng.uniform(-1.0, 1.0, (batch, links - 1)), axis=1)
    angle += rng.uniform(0.0, 2.0 * np.pi, (batch, 1))
    stretch = np.where(rng.random((batch, 1)) < 0.3, 1.0,
                       rng.uniform(0.6, 1.4, (batch, links - 1)))
    # a few all but coincident neighbours take the zero-length guard
    stretch[rng.random(batch) < 0.2, rng.integers(links - 1)] = 1e-13
    step = rest * stretch[..., None] * np.stack([np.cos(angle),
                                                 np.sin(angle)], axis=2)
    pos = np.concatenate([anchor[:, None], anchor[:, None] + np.cumsum(
        step, axis=1)], axis=1)
    env = CableEnv(world, pos[0], rest=rest, gripped=(0, links - 1),
                   u_max=0.02)
    return env, pos, boxes


def _kernel_relax(env, pos, boxes, grip, iters, tol, threads=1):
    """The chains pos (K, n, 2) relaxed against themselves by one
    obsurf_cable step whose grip points (none, or env's two ends) are
    held still (u = -0.0 adds exactly 0; pos must hold them inside
    env's limits, else the slide clips them) and never span-clamped:
    iters[0] iterations with them pinned, then iters[1] released, to
    tolerance tol. Returns the relaxed chains and each phase's count of
    chains its cap stopped."""
    k, n, _ = pos.shape
    x = np.empty((k, 2, n, 2))
    x[:, 0] = pos
    u = np.full((k, 1, 2 * len(grip)), -0.0)
    capped = (ctypes.c_long * 2)()
    assert clib.kernels().obsurf_cable(
        clib.addr(x), k, 1, n, clib.addr(u),
        (ctypes.c_long * max(len(grip), 1))(*grip), len(grip),
        clib.arg("boxes", boxes, (len(boxes), 4)), len(boxes),
        clib.addr(env._lim), (ctypes.c_long * 2)(*iters), tol, env.rest,
        CONTACT_GAP, env.u_max, math.inf, threads, capped) == 0
    return x[:, 1], list(capped)


class TestSweepOracle:
    # The relaxation alone: one cable step of chains whose grippers hold
    # still, of 3-10 links and of 65-100 (past any fixed-size buffer),
    # both ends pinned in the first phase or no grippers at all, caps
    # 0-30 per phase, any tolerance, and with `nan` a NaN coordinate in
    # the first chain.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 12),
           links=st.integers(3, 10) | st.integers(65, 100),
           n_boxes=st.integers(0, 3), pinned=st.booleans(),
           iters=st.tuples(st.integers(0, 30), st.integers(0, 30)),
           tol=st.sampled_from([0.0, 1.5e-4, 1e-3, 0.015]),
           nan=st.booleans(), threads=st.integers(1, 3))
    def test_matches_reference(self, seed, batch, links, n_boxes, pinned,
                               iters, tol, nan, threads):
        env, pos, boxes = _chain_case(seed, batch, links, n_boxes)
        grip = env.gripped if pinned else ()
        ends = list(grip)
        pos[:, ends] = pos[:, ends].clip(env._lim[:2], env._lim[2:])
        if nan:
            rng = np.random.default_rng(seed)
            pos[0, rng.integers(links), rng.integers(2)] = np.nan
        got, capped = _kernel_relax(env, pos, boxes, grip, iters, tol,
                                    threads)
        # Each chain evolves, and counts against the caps, as it would
        # alone.
        alone = [_kernel_relax(env, pos[i:i + 1], boxes, grip, iters, tol)
                 for i in range(batch)]
        assert _same_bytes(np.concatenate([a for a, _ in alone]), got)
        assert capped == np.sum([c for _, c in alone], axis=0).tolist()
        # Both numpy formulations: the one that drops converged chains,
        # each chain alone and bit for bit, and, without NaN, the one
        # that masks them, batched.
        want, want_capped = pos.copy(), [0, 0]
        for phase, invm in enumerate((_pinned(env) if pinned
                                      else np.ones(links), np.ones(links))):
            for i in range(batch):
                _, c = _numpy_sweep(env, want[i:i + 1], boxes, invm,
                                    iters[phase], tol, pos[i:i + 1])
                want_capped[phase] += c
            if not nan:
                ref = _reference_sweep(env, pos.copy() if phase == 0
                                       else ref, boxes, invm, iters[phase],
                                       tol, pos)
        assert _same_bytes(got, want)
        assert capped == want_capped
        if nan:
            # NaN > tol is false, so the chain froze after one iteration
            assert np.isnan(got[0]).any()
        else:
            assert np.array_equal(got, ref)
        for phase in (0, 1):
            if not capped[phase]:
                # every chain converged, so further iterations change
                # nothing
                more = list(iters)
                more[phase] += 5
                assert _same_bytes(_kernel_relax(env, pos, boxes, grip,
                                                 more, tol)[0], got)


# Run in fresh processes by TestSweepKernel: a few relaxations of the
# stock cable, printed as bytes.
_CABLE_RUN = """
import numpy as np
from obsurf.envs import make_scene
env = make_scene("cable_hook").env
for u in np.linspace(-0.02, 0.02, 12).reshape(3, 4):
    env.step_truth(u)
print(env.state.tobytes().hex(), env.pinned_capped, env.polish_capped)
"""


class TestSweepKernel:
    # The cable kernel's argument checks: the chains x (K, T + 1, n, 2)
    # and the boxes (m, 4), each C-contiguous float64.
    @pytest.mark.parametrize("name,bad", [
        ("x", lambda a: a.astype(np.float32)),
        ("x", lambda a: np.asfortranarray(a)),
        ("x", lambda a: a[:, :, :-1]),
        ("x", lambda a: a[:, :, :1].copy()),
        ("x", lambda a: a.reshape(4, 2, -1)),
        ("boxes", lambda a: a.T.copy()),
        ("boxes", lambda a: a.tolist()),
    ])
    def test_bad_arrays_rejected(self, name, bad):
        env, pos, boxes = _chain_case(3, 4, 6, 2)
        x = np.empty((4, 2, 6, 2))
        x[:, 0] = pos
        args = dict(x=x, boxes=boxes)
        args[name] = bad(args[name])
        with pytest.raises(ValueError, match=f"cable: {name}"):
            env._advance(args["x"], np.zeros((4, 1, 4)), args["boxes"])

    def test_missing_compiler_named(self, monkeypatch, tmp_path):
        monkeypatch.setattr(clib, "_compiler", lambda: None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        clib.kernels.cache_clear()
        env = make_scene("cable_hook").env
        try:
            with pytest.raises(RuntimeError, match="C compiler.*cc, gcc"):
                env.step_truth(np.array([0.0, 0.01, 0.0, 0.01]))
        finally:
            clib.kernels.cache_clear()
        assert not any(tmp_path.rglob("*.so*"))

    def test_peg_step_without_compiler_named(self, monkeypatch, tmp_path):
        monkeypatch.setattr(clib, "_compiler", lambda: None)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        clib.kernels.cache_clear()
        env = make_scene("peg_u").env
        try:
            with pytest.raises(RuntimeError, match="C compiler.*cc, gcc"):
                env.step_truth(np.array([0.01, 0.0]))
        finally:
            clib.kernels.cache_clear()
        assert not any(tmp_path.rglob("*.so*"))

    def test_peg_episode_builds_one_library(self, monkeypatch, tmp_path):
        # Peg scenes slide through the kernels too. The library loads at
        # first use, not when the scene is built, and one build serves
        # the slide, the rollout, the relaxation and the GP solves.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        clib.kernels.cache_clear()
        try:
            make_scene("peg_u")
            assert clib.kernels.cache_info().misses == 0
            run_episode(EpisodeConfig.for_scene("peg_u", seed=0, max_steps=5))
            assert clib.kernels.cache_info().misses == 1
        finally:
            clib.kernels.cache_clear()
        built = [p.name for p in (tmp_path / "obsurf").iterdir()]
        assert len(built) == 1 and built[0].endswith(".so"), built

    def test_concurrent_first_builds(self, tmp_path):
        # Two fresh processes find the same empty cache; both build and
        # load the kernel, and compute what this process computes.
        src = str(Path(envs.__file__).resolve().parents[1])
        env_vars = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs = [subprocess.Popen([sys.executable, "-c", _CABLE_RUN],
                                  env=env_vars, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outs = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outs
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(_CABLE_RUN, {})
        assert outs[0][0] == outs[1][0] == here.getvalue()
        built = [p.name for p in (tmp_path / "obsurf").iterdir()]
        assert len(built) == 1 and built[0].endswith(".so"), built


def _bad_shapes_rejected(env):
    """Starts that are not (K, n, 2), or controls that are not (K, T,
    control_dim) for the same K, raise ValueError; so does a true step
    under a control of the wrong size."""
    n, c = env.n, env.control_dim
    for starts, controls in (
            (np.zeros((n, 2)), np.zeros((1, 4, c))),  # one start, unstacked
            (np.zeros((3, n + 1, 2)), np.zeros((3, 4, c))),
            (np.zeros((3, n, 3)), np.zeros((3, 4, c))),
            (np.zeros((3, n, 2)), np.zeros((3, 4, c + 2))),
            (np.zeros((3, n, 2)), np.zeros((3, c))),  # one step, unstacked
            (np.zeros((2, n, 2)), np.zeros((3, 4, c)))):
        with pytest.raises(ValueError, match=rf"starts must be \(K, {n}, 2\)"
                           rf" and controls \(K, T, {c}\)"):
            env.nominal(starts, controls)
    state = env.state.copy()
    with pytest.raises(ValueError, match="controls"):
        env.step_truth(np.zeros(c + 2))
    assert _same_bytes(env.state, state)


class TestSlideOracle:
    @settings(max_examples=800, deadline=None, derandomize=True)
    @given(case=_slide_case())
    # -0.0 on the clip bound 0.0: np.clip keeps the -0.0
    @example(case=(np.array([[-0.0, -0.0]]), np.array([[-0.0, -0.0]]),
                   np.zeros((0, 4)), (0.0, 0.0), (0.4, 0.4), 0.0))
    def test_slide_move_matches_numpy(self, case):
        pos, u, boxes, lo, hi, gap = case
        with np.errstate(invalid="ignore"):
            want = _numpy_slide_move(pos, u, boxes, lo, hi, gap)
        assert _same_bytes(_slide_move(pos, u, boxes, lo, hi, gap), want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_slide_case(gaps=(CONTACT_GAP,)),
           observable=st.lists(st.booleans(), min_size=4, max_size=4),
           u_max=st.sampled_from([0.02, 0.05]), data=st.data())
    def test_peg_moves_match_numpy(self, case, observable, u_max, data):
        pos, u, boxes, lo, hi, _ = case
        world = WorldGeometry(tuple(
            Box(tuple(b[:2]), tuple(b[2:]), observable=o)
            for b, o in zip(boxes, observable)), lo, hi)
        env = PegEnv(world, [(0.1, 0.1)], u_max=u_max)
        for rows in (env._all, env._obs):
            with np.errstate(invalid="ignore"):
                want = _numpy_peg_move(env, pos[:, None], u, rows)
            assert _same_bytes(_one_step(env, pos[:, None], u, rows), want)
        # a rollout is nominal step by step, from each drawn start
        k, t_hor = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        ctrl = st.floats(-0.1, 0.1) | st.sampled_from(_SPECIAL)
        cand = np.array(data.draw(st.lists(ctrl, min_size=2 * k * t_hor,
                                           max_size=2 * k * t_hor)))
        cand = cand.reshape(k, t_hor, 2)
        for x0 in pos:
            want = np.empty((k, t_hor + 1, 1, 2))
            want[:, 0] = x0
            with np.errstate(invalid="ignore"):
                for t in range(t_hor):
                    want[:, t + 1] = _numpy_peg_move(env, want[:, t],
                                                     cand[:, t], env._obs)
            assert _same_bytes(env.nominal(np.broadcast_to(x0, (k, 1, 2)), cand),
                               want)

    def test_cable_grippers_match_numpy(self):
        pushed = []

        @settings(max_examples=150, deadline=None, derandomize=True)
        @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6),
               links=st.integers(3, 8), n_boxes=st.integers(0, 3),
               one_row=st.booleans(), special=st.booleans(),
               pull=st.booleans())
        def check(seed, batch, links, n_boxes, one_row, special, pull):
            env, pos, boxes = _chain_case(seed, batch, links, n_boxes)
            rng = np.random.default_rng(seed)
            u = rng.uniform(-0.05, 0.05, (1 if one_row else batch, 4))
            if pull:
                # straight chains at rest length, near a box, their
                # grippers pulled apart past the span limit
                way = pos[:, -1] - pos[:, 0]
                way /= np.linalg.norm(way, axis=1, keepdims=True)
                pos = pos[:, :1] + env.rest * np.arange(links)[:, None] * way[:, None]
                u = 0.05 * np.hstack([-way, way])
            if special:
                u[rng.integers(len(u)), rng.integers(4)] = rng.choice(_SPECIAL)
            with np.errstate(invalid="ignore"):
                want = _numpy_cable_move(env, pos, u, boxes, pushed)
                got = _one_step(env, pos, u, boxes)
            assert _same_bytes(got, want)

        check()
        # some drawn-back grippers landed in a box and were pushed out
        assert any(pushed)

    def test_cable_span_limit_matches_numpy(self):
        # Grippers pulled apart past the span limit are drawn back toward
        # their midpoint. In the second chain the right one is drawn back
        # from (0.37, 0.24) to (0.348, 0.242), inside the second box,
        # which its slide passed by, and is pushed out.
        links, rest = 6, 0.03
        chain = np.stack([0.2 + rest * np.arange(links),
                          np.full(links, 0.2)], axis=1)
        world = WorldGeometry((Box((0.355, 0.195), (0.4, 0.205)),
                               Box((0.34, 0.236), (0.352, 0.246))),
                              (0.0, 0.0), (0.6, 0.5))
        env = CableEnv(world, chain, rest=rest, gripped=(0, links - 1),
                       u_max=0.02)
        states = np.stack([chain, chain + [0.0, 0.05]])
        u = np.array([[-0.02, 0.0, 0.02, 0.0], [-0.02, 0.01, 0.02, -0.01]])
        assert 0.15 + 0.04 > env._span_max
        pushed = []
        # The relaxation would push a gripper out of the box anyway, so
        # the clamp's own targets are compared too, as the relaxation
        # gets them: with no iterations, only its final push-outs act.
        for iters in ((PINNED_ITERATIONS, POLISH_ITERATIONS), (0, 0)):
            env._iters = (ctypes.c_long * 2)(*iters)
            for rows in (env._all, np.zeros((0, 4))):
                assert _same_bytes(_one_step(env, states, u, rows),
                                   _numpy_cable_move(env, states, u, rows,
                                                     pushed))
        assert pushed == [True, False] * 2

    def test_bad_shapes_rejected(self):
        env = make_scene("peg_u").env
        with pytest.raises(ValueError, match="peg: x"):
            env._advance(np.zeros((2, 2, 1, 3)), np.zeros((2, 1, 2)),
                         env._obs)
        with pytest.raises(ValueError, match="peg: boxes"):
            env._advance(np.zeros((2, 2, 1, 2)), np.zeros((2, 1, 2)),
                         np.zeros((1, 5)))
        _bad_shapes_rejected(env)


class TestCableKernel:
    def test_matches_oracle_chained(self, monkeypatch):
        clamped, coupled, settled = [], [], set()

        # One- and two-gripper chains of 3-9 links and of 65-100 (past
        # any fixed-size buffer), some straight at rest length with their
        # grippers pulled apart past the span limit, 0-3 boxes, NaN or
        # +-inf controls, and with `nan` a NaN coordinate in the first
        # chain, stepped T times with iteration caps of 0-30 per phase;
        # with `low`, every chain is moved to within 0.005 of the lower
        # and the left bound.
        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 7),
               links=st.integers(3, 9) | st.integers(65, 100),
               n_boxes=st.integers(0, 3), steps=st.integers(1, 4),
               gripped=st.sampled_from(["both", "first", "last"]),
               pulled=st.integers(0, 3), special=st.integers(0, 3),
               low=st.booleans(), nan=st.booleans(),
               iters=st.tuples(st.integers(0, 30), st.integers(0, 30)))
        def check(seed, batch, links, n_boxes, steps, gripped, pulled,
                  special, low, nan, iters):
            env, pos, boxes = _chain_case(seed, batch, links, n_boxes)
            if gripped != "both":
                env = CableEnv(env.world, pos[0], rest=env.rest,
                               gripped=(0,) if gripped == "first"
                               else (links - 1,), u_max=0.02)
            env._iters = (ctypes.c_long * 2)(*iters)
            rng = np.random.default_rng(seed)
            u = rng.uniform(-0.05, 0.05, (batch, steps, env.control_dim))
            for i in rng.permutation(batch)[:pulled]:
                way = pos[i, -1] - pos[i, 0]
                way /= np.linalg.norm(way)
                pos[i] = pos[i, 0] + env.rest * np.arange(links)[:, None] * way
                if gripped == "both":
                    u[i] = 0.05 * np.hstack([-way, way])
            if low:
                pos += 0.005 - pos.min(axis=1, keepdims=True)
            if nan:
                pos[0, rng.integers(links), rng.integers(2)] = np.nan
            for _ in range(special):
                u[rng.integers(batch), rng.integers(steps),
                  rng.integers(env.control_dim)] = rng.choice(_SPECIAL)
            want = np.empty((batch, steps + 1, links, 2))
            want[:, 0] = pos
            capped = [0, 0]
            with np.errstate(invalid="ignore"):
                for t in range(steps):
                    want[:, t + 1] = _numpy_cable_move(
                        env, want[:, t], u[:, t], boxes, clamped, capped)
            for threads in (1, 2, 3):
                monkeypatch.setattr(envs, "_threads", lambda k: threads)
                x = np.empty_like(want)
                x[:, 0] = pos
                before = env.pinned_capped, env.polish_capped
                assert _same_bytes(env._advance(x, u, boxes), want)
                assert [env.pinned_capped - before[0],
                        env.polish_capped - before[1]] == capped
            # whether some chain stepped alone ends elsewhere: none may
            monkeypatch.undo()
            alone = np.empty_like(want)
            alone[:, 0] = pos
            for i in range(batch):
                env._advance(alone[i:i + 1], u[i:i + 1], boxes)
            coupled.append(not _same_bytes(alone, want))
            # a phase that no chain step left at its cap converged, so 5
            # more of its iterations change nothing
            for phase in (0, 1):
                if not capped[phase]:
                    more = list(iters)
                    more[phase] += 5
                    env._iters = (ctypes.c_long * 2)(*more)
                    x = np.empty_like(want)
                    x[:, 0] = pos
                    assert _same_bytes(env._advance(x, u, boxes), want)
                    settled.add(phase)

        check()
        # the clamp ran, and its push-out moved a gripper, in some steps,
        # every batch equals its chains stepped alone, and each phase
        # converged everywhere in some example
        assert any(clamped) and not any(coupled) and settled == {0, 1}

    def test_rollout_is_nominal_step_by_step(self):
        # the stock cable from a state pressed under the bar, 20 samples
        # (two threads where two CPUs are allowed) of 6 steps each
        env = make_scene("cable_hook").env
        for _ in range(25):
            env.step_truth(np.array([0.0, 0.02, 0.0, 0.02]))
        rng = np.random.default_rng(7)
        cand = rng.uniform(-0.03, 0.03, (20, 6, 4))
        cand[:4, :, ::2] *= 4.0
        want = np.empty((20, 7, env.n, 2))
        want[:, 0] = env.state
        for t in range(6):
            want[:, t + 1] = env.nominal(want[:, t], cand[:, t:t + 1])[:, 1]
        starts = np.broadcast_to(env.state, (20, env.n, 2))
        assert _same_bytes(env.nominal(starts, cand), want)

    def test_threads(self, monkeypatch):
        monkeypatch.setattr(envs, "_cpus", 2)
        assert [envs._threads(k) for k in (0, 1, 15, 16, 72)] == [1, 1, 1, 2, 2]
        monkeypatch.setattr(envs, "_cpus", 1)
        assert envs._threads(72) == 1

    def test_no_samples_or_no_steps(self):
        env = make_scene("cable_hook").env
        none = env.nominal(np.zeros((0, env.n, 2)), np.zeros((0, 3, 4)))
        assert none.shape == (0, 4, env.n, 2)
        starts = np.repeat(env.state[None], 5, axis=0)
        assert _same_bytes(env.nominal(starts, np.zeros((5, 0, 4))),
                           starts[:, None])
        assert env.pinned_capped == env.polish_capped == 0

    def test_bad_controls_rejected(self):
        _bad_shapes_rejected(make_scene("cable_hook").env)


class TestPushOutProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cells=st.lists(st.tuples(st.integers(0, 8), st.floats(0, 1),
                                    st.floats(0, 1), st.floats(0, 1),
                                    st.floats(0, 1)),
                          min_size=1, max_size=6, unique_by=lambda c: c[0]),
           gap=st.floats(0.0, 0.01),
           pts=st.lists(st.tuples(_near_box, _near_box), min_size=1,
                        max_size=20))
    def test_no_point_left_inside(self, cells, gap, pts):
        # One box per cell of a 3 x 3 grid of 0.1 cells, at least 0.005
        # from the cell edge once expanded by gap, so the expanded boxes
        # are pairwise disjoint.
        boxes = np.array([
            [0.1 * (c % 3) + 0.015 + 0.02 * a, 0.1 * (c // 3) + 0.015 + 0.02 * b,
             0.1 * (c % 3) + 0.085 - 0.02 * u, 0.1 * (c // 3) + 0.085 - 0.02 * v]
            for c, a, b, u, v in cells])
        lo = boxes[:, :2] - gap
        hi = boxes[:, 2:] + gap

        def place(near):
            k, s, t = near
            k %= len(boxes)
            return lo[k] + np.array([s, t]) * (hi[k] - lo[k])

        # Each point is its own reference, which lies inside the box it
        # starts in, so the nearest face wins.
        p = np.array([place(a) for a, _ in pts])
        out = _kernel_push_out(p, boxes, gap)
        inside = np.all((out[:, None] > lo) & (out[:, None] < hi), axis=2)
        assert not inside.any()
        assert _same_bytes(out, _reference_push_out(p, boxes, gap, p))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(case=_slide_case())
    # equally deep behind an x and a y face: the first face in -x, +x,
    # -y, +y order wins
    @example(case=(np.array([[0.12, 0.12], [0.15, 0.15], [0.18, 0.12]]),
                   None, np.array([[0.1, 0.1, 0.2, 0.2]]), None, None, 1e-3))
    def test_matches_reference(self, case):
        # NaN, +-inf and +-0 coordinates, points on faces, gap 0, and
        # sheet-thin or overlapping boxes; once pushed out of one box, a
        # point leaves an overlapping one on the side of where it started
        pos, _, boxes, _, _, gap = case
        assert _same_bytes(_kernel_push_out(pos, boxes, gap),
                           _reference_push_out(pos, boxes, gap, pos))


class TestSlideMove:
    world = simple_world([Box((0.2, 0.1), (0.25, 0.3), observable=False)])

    def rows(self):
        return self.world.rows(observable_only=False)

    def test_free_translation(self):
        p = _slide_move(np.array([[0.1, 0.2]]), np.array([[0.05, 0.0]]),
                        self.rows(), (0.0, 0.0), (0.4, 0.4))
        np.testing.assert_allclose(p, [[0.15, 0.2]])

    def test_stops_at_wall(self):
        p = _slide_move(np.array([[0.1, 0.2]]), np.array([[0.3, 0.0]]),
                        self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(0.2 - CONTACT_GAP)

    def test_diagonal_keeps_lateral(self):
        p = _slide_move(np.array([[0.15, 0.2]]), np.array([[0.2, 0.05]]),
                        self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(0.2 - CONTACT_GAP)
        assert p[0, 1] == pytest.approx(0.25)

    def test_workspace_containment(self):
        p = _slide_move(np.array([[0.39, 0.39]]), np.array([[0.1, 0.1]]),
                        self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert np.all(p <= 0.4 - CONTACT_GAP)

    def test_no_tunneling_through_thin_box(self):
        thin = simple_world([Box((0.2, 0.0), (0.205, 0.4))])
        p = _slide_move(np.array([[0.1, 0.2]]), np.array([[0.3, 0.0]]),
                        thin.rows(False), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(0.2 - CONTACT_GAP)

    def test_resting_contact_slides_along_face(self):
        x = 0.2 - CONTACT_GAP
        p = _slide_move(np.array([[x, 0.2]]), np.array([[0.05, 0.05]]),
                        self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(x)
        assert p[0, 1] == pytest.approx(0.25)


class TestPegEnv:
    def test_determinism(self):
        a = make_scene("peg_u").env
        b = make_scene("peg_u").env
        u = np.array([0.013, 0.017])
        for _ in range(20):
            sa, sb = a.step_truth(u), b.step_truth(u)
        np.testing.assert_array_equal(sa, sb)

    def test_nominal_ignores_hidden_obstacles(self):
        env = make_scene("peg_i").env
        state = np.array([[[0.2, 0.185]]])
        out = env.nominal(state, np.array([[[0.0, 0.02]]]))
        np.testing.assert_allclose(out[0, 1, 0], [0.2, 0.205])

    def test_truth_blocks_at_hidden_wall(self):
        env = make_scene("peg_i").env
        env.state = np.array([[0.2, 0.185]])
        out = env.step_truth(np.array([0.0, 0.02]))
        assert out[0, 1] == pytest.approx(0.19 - CONTACT_GAP)

    def test_control_clamped(self):
        env = make_scene("peg_i").env
        start = env.state.copy()
        out = env.step_truth(np.array([1.0, 0.0]))
        assert out[0, 0] - start[0, 0] == pytest.approx(env.u_max)

    def test_nominal_equals_truth_when_all_observable(self):
        boxes = (Box((0.15, 0.15), (0.25, 0.25), observable=True),)
        world = simple_world(boxes)
        env = PegEnv(world, [(0.1, 0.2)], u_max=0.02)
        rng = np.random.default_rng(0)
        state = env.state.copy()
        for _ in range(50):
            u = rng.uniform(-0.02, 0.02, 2)
            pred = env.nominal(state[None], u[None, None])[0, 1]
            state = env.step_truth(u)
            np.testing.assert_allclose(pred, state, atol=1e-9)

    def test_never_inside_obstacle(self):
        env = make_scene("peg_u").env
        rng = np.random.default_rng(1)
        for _ in range(300):
            s = env.step_truth(rng.uniform(-0.02, 0.02, 2))
            assert not env.world.inside_any(s).any()
            assert np.all(s >= CONTACT_GAP - 1e-12)
            assert np.all(s <= 0.4 - CONTACT_GAP + 1e-12)


class TestCableEnv:
    def test_segment_lengths_maintained(self):
        env = make_scene("cable_hook").env
        rng = np.random.default_rng(2)
        for i in range(80):
            u = (np.array([0.0, 0.02, 0.0, 0.02]) if i < 30
                 else rng.uniform(-0.02, 0.02, 4))
            s = env.step_truth(u)
            seg = np.linalg.norm(np.diff(s, axis=0), axis=1)
            assert np.abs(seg - env.rest).max() <= 0.01 * env.rest

    def test_no_point_inside_obstacles(self):
        env = make_scene("cable_hook").env
        rng = np.random.default_rng(3)
        for i in range(80):
            u = (np.array([0.0, 0.02, 0.0, 0.02]) if i < 30
                 else rng.uniform(-0.02, 0.02, 4))
            s = env.step_truth(u)
            assert not env.world.inside_any(s).any()

    def test_hooked_cable_stays_under_bar(self):
        env = make_scene("cable_hook").env
        bar = env.world.boxes[0]
        for _ in range(40):
            s = env.step_truth(np.array([0.0, 0.02, 0.0, 0.02]))
        under = (s[:, 0] > bar.lo[0]) & (s[:, 0] < bar.hi[0])
        assert (s[under, 1] <= bar.lo[1] - CONTACT_GAP / 2).all()
        # gripped ends rose while the hooked middle stayed down
        assert s[0, 1] > 0.25 and s[-1, 1] > 0.25

    def test_nominal_differs_under_hidden_contact(self):
        env = make_scene("cable_hook").env
        state = env.state.copy()
        u = np.array([0.0, 0.02, 0.0, 0.02])
        worst = 0.0
        for _ in range(30):
            pred = env.nominal(state[None], u[None, None])[0, 1]
            state = env.step_truth(u)
            worst = max(worst, np.abs(pred - state).max())
        # at first bar contact the nominal keeps rising, truth does not
        assert worst > 0.005

    def test_nominal_equals_truth_when_all_observable(self):
        boxes = (Box((0.25, 0.2), (0.4, 0.24), observable=True),)
        world = WorldGeometry(boxes, (0.0, 0.0), (0.6, 0.5))
        chain = _zigzag_chain(0.2, 0.4, 0.1, 8, 0.03)
        env = CableEnv(world, chain, rest=0.03, gripped=(0, 7), u_max=0.02)
        rng = np.random.default_rng(4)
        state = env.state.copy()
        for _ in range(30):
            u = rng.uniform(-0.02, 0.02, 4)
            pred = env.nominal(state[None], u[None, None])[0, 1]
            state = env.step_truth(u)
            np.testing.assert_allclose(pred, state, atol=1e-9)

    def test_determinism(self):
        a = make_scene("cable_hook").env
        b = make_scene("cable_hook").env
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.uniform(-0.02, 0.02, 4)
            sa, sb = a.step_truth(u), b.step_truth(u)
        np.testing.assert_array_equal(sa, sb)

    def test_batched_matches_sequential(self):
        # Each batch element evolves exactly as it would alone, against
        # the observed and against the full geometry, in and out of
        # contact with the bar.
        env = make_scene("cable_hook").env
        starts = []
        for i in range(30):
            s = env.step_truth(np.array([0.0, 0.02, 0.0, 0.02]))
            if i % 10 == 9:
                starts.append(s)
        u = np.array([[0.01, 0.0, -0.01, 0.0],
                      [0.0, 0.02, 0.0, 0.02],
                      [-0.01, -0.01, 0.01, 0.01]])
        states = np.repeat(np.stack(starts), len(u), axis=0)
        u = np.tile(u, (len(starts), 1))
        for boxes in (env._obs, env._all):
            batch = _one_step(env, states, u, boxes)
            for i in range(len(states)):
                single = _one_step(env, states[i:i + 1], u[i:i + 1], boxes)[0]
                np.testing.assert_array_equal(batch[i], single)

    # Known defect (FOUND in CHANGES.md): the push-out after the polish
    # loop can move a converged chain off rest length. Strict, so the
    # mark must go when that is mended.
    @pytest.mark.xfail(strict=True, reason="final push-out breaks rest "
                       "length of chains not counted as capped")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 6),
           links=st.integers(3, 10), n_boxes=st.integers(0, 3))
    @example(seed=6, batch=5, links=6, n_boxes=3)
    def test_relax_reaches_rest_unless_capped(self, seed, batch, links,
                                              n_boxes):
        env, pos, boxes = _chain_case(seed, batch, links, n_boxes)
        u = np.random.default_rng(seed).uniform(-0.02, 0.02, (batch, 4))
        for i in range(batch):
            before = env.polish_capped
            out = env._roll(pos[i:i + 1], u[i:i + 1, None], boxes)[0, 1]
            if env.polish_capped == before:
                seg = np.linalg.norm(np.diff(out, axis=0), axis=1)
                assert np.abs(seg - env.rest).max() <= 0.005 * env.rest

    # A mate over the span limit must not touch the grippers of chains
    # within it: mid + (t - mid) * 1.0 is not t when |t| and |mid| are
    # more than 2x apart.
    def test_span_clamp_leaves_batch_mates_alone(self):
        rng = np.random.default_rng(0)
        links, rest, m = 8, 0.03, 40
        world = WorldGeometry((), (0.0, 0.0), (0.6, 0.5))
        # low, tilted chains: one gripper near the floor and the wall
        start = np.column_stack([rng.uniform(0.01, 0.05, m),
                                 rng.uniform(0.002, 0.01, m)])
        angle = rng.uniform(0.3, 1.2, m)
        way = np.column_stack([np.cos(angle), np.sin(angle)])
        low = start[:, None] + 0.9 * rest * np.arange(links)[:, None] * way[:, None]
        # a straight mate at rest length, its grippers pulled apart
        mate = np.column_stack([0.3 + rest * np.arange(links),
                                np.full(links, 0.25)])
        env = CableEnv(world, mate, rest=rest, gripped=(0, links - 1),
                       u_max=0.02)
        states = np.concatenate([mate[None], low])
        u = np.concatenate([[[-0.02, 0.0, 0.02, 0.0]],
                            rng.uniform(-0.02, 0.02, (m, 4))])
        batch = env.nominal(states, u[:, None])
        alone = np.concatenate([env.nominal(states[i:i + 1], u[i:i + 1, None])
                                for i in range(m + 1)])
        assert _same_bytes(batch, alone)


class TestObservedSurface:
    def test_sign_convention(self):
        world = simple_world([Box((0.1, 0.1), (0.2, 0.2), observable=True),
                              Box((0.3, 0.3), (0.35, 0.35), observable=False)])
        surf = ObservedSurface(world)
        pts = np.array([[0.15, 0.15], [0.32, 0.32], [0.05, 0.05]])
        mean = surf.predict_mean(pts)
        np.testing.assert_array_equal(mean, [-1.0, 1.0, 1.0])
        _, var = surf.predict_many(pts)
        assert (var == 0).all() and var.shape == (3,)
        _, var = surf.predict_many(pts, slice(1, None, 2))
        assert (var == 0).all() and var.shape == (1,)
        assert surf.predict_many(pts, None)[1] is None


class TestScenes:
    def test_unknown_scene_rejected(self):
        with pytest.raises(ValueError):
            make_scene("peg_x")

    def test_peg_u_blocks_straight_line(self):
        sc = make_scene("peg_u")
        start = sc.env.state[0]
        goal = sc.goal.point
        pts = start[None] + np.linspace(0, 1, 200)[:, None] * (goal - start)[None]
        assert sc.env.world.inside_any(pts).any()

    def test_peg_scenes_reachable_in_truth(self):
        for name in ("peg_u", "peg_i", "peg_t"):
            sc = make_scene(name)
            res = 0.005
            nx = int(0.4 / res)
            xs = (np.arange(nx) + 0.5) * res
            centers = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
            occ = sc.env.world.inside_any(
                centers.reshape(-1, 2)).reshape(nx, nx)
            labels = connected_components(OccupancyGrid((0, 0), res, occ))
            si = (int(sc.env.state[0, 0] / res), int(sc.env.state[0, 1] / res))
            gi = (int(sc.goal.point[0] / res),
                  int(sc.goal.point[1] / res))
            assert labels[si] == labels[gi] != 0, name

    def test_goal_region_obstacle_free(self):
        for name in ("peg_u", "peg_i", "peg_t", "cable_hook"):
            sc = make_scene(name)
            g = sc.goal.point
            probe = g[None] + np.array([[0, 0], [1, 0], [-1, 0], [0, 1],
                                        [0, -1]]) * sc.r_g
            assert not sc.env.world.inside_any(probe).any(), name

    def test_cable_hook_occluded(self):
        sc = make_scene("cable_hook")
        bar = sc.env.world.boxes[0]
        assert not bar.observable
        cloud = sc.depth.cloud
        pad = 1e-6
        on_bar = ((cloud[:, 0] > bar.lo[0] - pad)
                  & (cloud[:, 0] < bar.hi[0] + pad)
                  & (cloud[:, 1] > bar.lo[1] - pad)
                  & (cloud[:, 1] < bar.hi[1] + pad))
        # well beyond the 30% occlusion requirement: nothing lands on it
        assert on_bar.sum() == 0

    def test_cable_start_visible(self):
        sc = make_scene("cable_hook")
        vis = sensor.visible(sc.env.state, sc.camera, sc.depth.z)
        assert vis.all()

    def test_default_constraints(self):
        assert isinstance(make_scene("peg_u").constraint_specs[0], PathExists)
        spec = make_scene("cable_hook").constraint_specs[0]
        assert isinstance(spec, NoPenetration)
        assert spec.zeta == pytest.approx(0.4)


class TestSceneFiles:
    @pytest.mark.parametrize("name", sorted(envs.SCENES))
    def test_stock_scene_matches_reference(self, name):
        got, want = make_scene(name), _reference_make_scene(name)
        assert type(got.env) is type(want.env)
        np.testing.assert_array_equal(got.env.state, want.env.state)
        assert got.env.world == want.env.world  # boxes and bounds
        assert got.env.u_max == want.env.u_max
        if isinstance(want.env, CableEnv):
            assert got.env.rest == want.env.rest
            assert got.env.gripped == want.env.gripped
        assert got.goal.component == want.goal.component
        np.testing.assert_array_equal(got.goal.point, want.goal.point)
        assert got.r_g == want.r_g
        assert got.camera == want.camera
        assert (got.depth is None) == (want.depth is None)
        if want.depth is not None:
            np.testing.assert_array_equal(got.depth.z, want.depth.z)
            np.testing.assert_array_equal(got.depth.cloud, want.depth.cloud)
        assert got.constraint_specs == want.constraint_specs
        assert got.grid == want.grid
        assert got.name == want.name

    def test_comments_and_blanks_ignored(self):
        text = """# a scene
bounds 0 0 1 1

box 0.4 0.4 0.6 0.6 0  # hidden
goal 0.9 0.9 0.05
start 0.1 0.1
"""
        sc = parse_scene(text)
        assert len(sc.env.world.boxes) == 1
        assert not sc.env.world.boxes[0].observable

    PEG = "goal 0.9 0.9 0.05\nstart 0.1 0.1\n"
    CABLE = "goal 0.9 0.9 0.05\nstart 0.1 0.1 0.1 0.1\n"

    @pytest.mark.parametrize("text,match", [
        (PEG + "box 0.1 0.1 0.2", r"line 3 'box 0.1 0.1 0.2': takes 5 "),
        (PEG + "goal 0.9 0.9", r"line 3 'goal 0.9 0.9': takes 3 "),
        (PEG + "camera 0 0 0 1", r"line 3 'camera 0 0 0 1': takes 5 "),
        (PEG + "start 0.1 0.1 0.2", r"line 3 .*even number"),
        (PEG + "box 0.5 0.5 0.1 0.1 0", r"line 3 .*x0 < x1 and y0 < y1"),
        (PEG + "box 0.1 0.5 0.2 0.5 1", r"line 3 .*x0 < x1 and y0 < y1"),
        ("bounds 0 1 1 0\n" + PEG, r"line 1 .*x0 < x1 and y0 < y1"),
        (PEG + "box 0.1 0.1 0.2 0.2 x", r"line 3 'box 0.1 0.1 0.2 0.2 x'"),
        (PEG + "goal 0.9 0.9 0", r"line 3 .*must be positive"),
        (CABLE + "rest 0.0", r"line 3 'rest 0.0': .*must be positive"),
        (CABLE + "rest -0.1", r"line 3 .*must be positive"),
        (CABLE, r"rest exactly when start has 2\+ points"),
        (PEG + "rest 0.03", r"rest exactly when start has 2\+ points"),
        (PEG + "camera 0 0 0 0 300", r"line 3 'camera 0 0 0 0 300': .*fov 0"),
        (PEG + "camera 0 0 0 4.0 300", r"line 3 .*0 < fov < pi.*fov 4"),
        (PEG + "camera 0 0 0 1 0", r"line 3 .*positive whole width.*width 0"),
        (PEG + "camera 0 0 0 1 1.5", r"line 3 .*whole width.*width 1.5"),
        (PEG + "box 0.2 0.2 0.3 0.3 inf",
         r"line 3 'box 0.2 0.2 0.3 0.3 inf': observable must be 0 or 1"),
        (PEG + "box 0.2 0.2 0.3 0.3 0.5", r"line 3 .*must be 0 or 1, not 0.5"),
        (PEG + "box 0.2 0.2 0.3 0.3 2", r"line 3 .*must be 0 or 1, not 2"),
        # Scene files come from outside the program: a NaN or an infinity
        # fails here, not steps into an episode, and a second goal,
        # start, bounds, rest or camera does not silently replace the
        # first.
        ("goal 0.9 0.9 0.05\nstart nan 0.1\n",
         r"line 2 'start nan 0.1': values must be finite"),
        ("goal nan 0.2 0.02\nstart 0.1 0.1\n",
         r"line 1 'goal nan 0.2 0.02': values must be finite"),
        ("goal 0.2 0.2 inf\nstart 0.1 0.1\n",
         r"line 1 'goal 0.2 0.2 inf': values must be finite"),
        (PEG + "box nan 0.1 0.2 0.2 1", r"line 3 .*values must be finite"),
        (PEG + "box 0.1 0.1 inf 0.2 0", r"line 3 .*values must be finite"),
        ("bounds -inf 0 1 1\n" + PEG, r"line 1 .*values must be finite"),
        (CABLE + "rest inf", r"line 3 'rest inf': values must be finite"),
        (PEG + "camera 0 nan 0 1 300", r"line 3 .*values must be finite"),
        (PEG + "goal 0.5 0.5 0.05",
         r"line 3 'goal 0.5 0.5 0.05': repeats 'goal', which a scene takes once"),
        (PEG + "start 0.3 0.3", r"line 3 .*repeats 'start'"),
        ("bounds 0 0 1 1\n" + PEG + "bounds 0 0 2 2", r"line 4 .*repeats 'bounds'"),
        (CABLE + "rest 0.03\nrest 0.04", r"line 4 'rest 0.04': repeats 'rest'"),
        (PEG + "camera 0 0 0 1 300\ncamera 0 0 0 1 300",
         r"line 4 .*repeats 'camera'"),
    ], ids=["box-count", "goal-count", "camera-count", "start-odd",
            "box-inverted", "box-flat", "bounds-inverted", "box-not-number",
            "goal-radius-zero", "rest-zero", "rest-negative", "cable-no-rest",
            "peg-with-rest", "camera-fov-zero", "camera-fov-past-pi",
            "camera-width-zero", "camera-width-fraction",
            "box-observable-inf", "box-observable-half", "box-observable-two",
            "start-nan", "goal-nan", "goal-radius-inf", "box-nan", "box-inf",
            "bounds-inf", "rest-inf", "camera-nan", "goal-twice",
            "start-twice", "bounds-twice", "rest-twice", "camera-twice"])
    def test_malformed_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_scene(text)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            parse_scene("bounds 0 0 1 1\nstart 0.1 0.1\n")
        with pytest.raises(ValueError):
            parse_scene("wobble 1 2 3\n")
