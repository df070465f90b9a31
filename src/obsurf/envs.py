"""Planar ground-truth worlds and their nominal dynamics.

Point pegs and particle-chain cables move through axis-aligned box
obstacles. The true simulator collides against everything; the nominal
model collides only against boxes flagged observable, so hidden
geometry shows up purely as prediction error. Motion is quasi-static:
a control is a commanded position delta, resolved with axis-separable
sliding, and chains relax with projected distance constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import sensor
from .gpis import GridSpec
from .mppi import GoalSet
from .constraints import NoPenetration, PathExists

# Resting gap kept between any point and an obstacle face, which avoids
# point-on-surface ambiguity in visibility and occupancy tests.
CONTACT_GAP = 1e-3
# Cable relaxation caps: iterations with the grippers pinned, then with
# them released (see CableEnv).
PINNED_ITERATIONS = 20
POLISH_ITERATIONS = 120


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple
    observable: bool = True

    def as_row(self) -> np.ndarray:
        return np.array([*self.lo, *self.hi], dtype=float)


@dataclass(frozen=True)
class WorldGeometry:
    boxes: tuple
    bounds_lo: tuple
    bounds_hi: tuple

    def rows(self, observable_only: bool) -> np.ndarray:
        sel = [b.as_row() for b in self.boxes if b.observable or not observable_only]
        return np.array(sel, dtype=float).reshape(len(sel), 4)

    def inside_any(self, pts: np.ndarray, observable_only: bool = False) -> np.ndarray:
        pts = np.atleast_2d(pts)[:, None]
        rows = self.rows(observable_only)
        return ((pts > rows[:, :2]) & (pts < rows[:, 2:])).all(axis=2).any(axis=1)


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


def slide_move(pos: np.ndarray, u: np.ndarray, boxes: np.ndarray,
               lo, hi, gap: float = CONTACT_GAP) -> np.ndarray:
    """Axis-separable sliding: apply the x then the y component, each
    clipped at first contact. A diagonal push into a wall keeps its
    lateral component."""
    u = np.atleast_2d(u)
    p = _axis_slide(np.atleast_2d(pos), u[:, 0], 0, boxes, lo, hi, gap)
    return _axis_slide(p, u[:, 1], 1, boxes, lo, hi, gap)


def push_out(pts: np.ndarray, boxes: np.ndarray, gap: float,
             ref: Optional[np.ndarray] = None) -> np.ndarray:
    """Move points strictly inside a (gap-expanded) box onto a face, a
    gap away. Input (..., 2); when no point is inside any box the input
    array itself is returned, otherwise a moved copy.

    With a reference position per point (where it came from), points
    exit through the face on the reference's side, which prevents
    tunneling out the far side of a thin box. Without one, or when the
    reference itself is inside, the nearest face wins.
    """
    pts = given = np.atleast_2d(pts)
    for lo, hi in zip(boxes[:, :2] - gap, boxes[:, 2:4] + gap):
        inside = ((pts > lo) & (pts < hi)).all(axis=-1)
        if not inside.any():
            continue
        if pts is given:
            pts = pts.copy()
        p = pts[inside]
        # one column per face: -x, +x, -y, +y
        depths = np.stack([p - lo, hi - p], axis=2).reshape(-1, 4)
        if ref is None:
            face = depths.argmin(axis=1)
        else:
            r = np.atleast_2d(ref)[inside]
            # clearance[:, f] > 0 when the reference is outside face f
            clearance = np.stack([lo - r, r - hi], axis=2).reshape(-1, 4)
            face = np.where(clearance.max(axis=1) > 0.0,
                            clearance.argmax(axis=1), depths.argmin(axis=1))
        p[np.arange(len(p)), face >> 1] = np.stack([lo, hi], axis=1).flat[face]
        pts[inside] = p
    return pts


class PegEnv:
    """Single tracked point pushed around box obstacles."""

    n = 1

    def __init__(self, world: WorldGeometry, start, u_max: float):
        self.world = world
        self.u_max = float(u_max)
        self.state = np.atleast_2d(np.asarray(start, dtype=float)).copy()
        self._all = world.rows(observable_only=False)
        self._obs = world.rows(observable_only=True)

    def _move(self, states: np.ndarray, u: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        pos = states[:, 0, :]
        u = np.clip(np.atleast_2d(u), -self.u_max, self.u_max)
        new = slide_move(pos, u, boxes, self.world.bounds_lo, self.world.bounds_hi)
        return new[:, None, :]

    def step_truth(self, u: np.ndarray) -> np.ndarray:
        self.state = self._move(self.state[None], u[None], self._all)[0]
        return self.state.copy()

    def nominal(self, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
        """Obstacle-free prediction (workspace walls still apply)."""
        return self._move(states, controls, self._obs)

    @property
    def control_dim(self) -> int:
        return 2


class CableEnv:
    """Particle chain with fixed segment rest lengths, gripped at one or
    both endpoints.

    Relaxation interleaves sequential distance-constraint projection
    with obstacle push-out. Gripped points are pinned at their commanded
    targets during the main iterations, then released for a short polish
    phase so a chain drawn taut over an obstacle recovers its rest
    lengths instead of stretching: the gripper complies when the cable
    cannot follow.
    """

    def __init__(self, world: WorldGeometry, chain, rest: float,
                 gripped: Sequence[int], u_max: float):
        self.world = world
        self.state = np.atleast_2d(np.asarray(chain, dtype=float)).copy()
        self.rest = float(rest)
        self.gripped = tuple(int(i) for i in gripped)
        self.u_max = float(u_max)
        self.n = self.state.shape[0]
        self._all = world.rows(observable_only=False)
        self._obs = world.rows(observable_only=True)
        # Keep a little slack so two grippers can never force the chain
        # beyond its total length.
        self._span_max = 0.98 * self.rest * (self.n - 1)
        self._invm = np.ones(self.n)
        for g in self.gripped:
            self._invm[g] = 0.0
        # Chains each relaxation phase left off tolerance at its cap.
        self.pinned_capped = self.polish_capped = 0

    @property
    def control_dim(self) -> int:
        return 2 * len(self.gripped)

    def _sweep(self, pos: np.ndarray, boxes: np.ndarray, invm: np.ndarray,
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
        # contiguous row; push_out sees (link, chain, xy) views of it.
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
            out = push_out(pf, boxes, CONTACT_GAP, rf)
            if out is not pf:
                p[free] += (out - pf).transpose(0, 2, 1)
            # segment midpoints collide too, else a segment can pass
            # clean through a thin box while its endpoints stay out
            mid = (0.5 * (p[:-1] + p[1:])).transpose(0, 2, 1)
            out = push_out(mid, boxes, CONTACT_GAP, rm)
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
        pos[:, free] = push_out(pos[:, free], boxes, CONTACT_GAP, ref[:, free])
        return pos, idx.size

    def _relax(self, chain: np.ndarray, boxes: np.ndarray,
               ref: np.ndarray) -> np.ndarray:
        tol = 0.005 * self.rest
        pos, capped = self._sweep(chain.copy(), boxes, self._invm,
                                  PINNED_ITERATIONS, tol, ref)
        self.pinned_capped += capped
        # Release the grippers so tautness resolves into compliance
        # rather than stretch.
        pos, capped = self._sweep(pos, boxes, np.ones(self.n),
                                  POLISH_ITERATIONS, tol, ref)
        self.polish_capped += capped
        return pos

    def _move(self, states: np.ndarray, u: np.ndarray, boxes: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        u = np.clip(np.atleast_2d(u), -self.u_max, self.u_max)
        chain = states.copy()
        targets = []
        for j, g in enumerate(self.gripped):
            t = slide_move(states[:, g, :], u[:, 2 * j:2 * j + 2], boxes,
                           self.world.bounds_lo, self.world.bounds_hi)
            targets.append(t)
        if len(targets) == 2:
            span = np.linalg.norm(targets[0] - targets[1], axis=1)
            over = span > self._span_max
            if over.any():
                mid = 0.5 * (targets[0] + targets[1])
                scale = np.where(over, self._span_max / np.maximum(span, 1e-12), 1.0)
                targets = [push_out(mid + (t - mid) * scale[:, None], boxes,
                                    CONTACT_GAP) for t in targets]
        for j, g in enumerate(self.gripped):
            chain[:, g, :] = targets[j]
        return self._relax(chain, boxes, ref=states)

    def step_truth(self, u: np.ndarray) -> np.ndarray:
        self.state = self._move(self.state[None], u[None], self._all)[0]
        return self.state.copy()

    def nominal(self, states: np.ndarray, controls: np.ndarray) -> np.ndarray:
        """Prediction against the observed geometry only."""
        return self._move(states, controls, self._obs)


class ObservedSurface:
    """Surface stand-in for the non-adaptive baseline: exterior (+1)
    everywhere except strictly inside an observable box (-1), with zero
    variance so there is no exploration bonus."""

    def __init__(self, world: WorldGeometry):
        self.world = world

    def predict_mean(self, pts: np.ndarray) -> np.ndarray:
        inside = self.world.inside_any(pts, observable_only=True)
        return np.where(inside, -1.0, 1.0)

    def predict_many(self, pts: np.ndarray):
        mean = self.predict_mean(pts)
        return mean, np.zeros_like(mean)


@dataclass
class Scene:
    """A built task: environment, optional static depth sensing, the
    goal assignment, and the default constraints on the estimate."""

    name: str
    env: object
    goals: GoalSet
    r_g: float
    camera: Optional[sensor.Camera] = None
    depth: Optional[sensor.DepthData] = None
    constraint_specs: list = field(default_factory=list)
    grid: Optional[GridSpec] = None


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


def make_scene(name: str) -> Scene:
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
        goals = GoalSet.single(0, (0.20, 0.22))
        grid = GridSpec((0.0, 0.0), (0.4, 0.4), r_g / 2.0)
        return Scene(name, env, goals, r_g, None, None,
                     [PathExists(grid=grid, component=0)], grid)
    if name == "peg_i":
        boxes = (Box((0.12, 0.19), (0.28, 0.22), observable=False),)
        world = WorldGeometry(boxes, (0.0, 0.0), (0.4, 0.4))
        env = PegEnv(world, [(0.20, 0.06)], u_max=0.02)
        r_g = 0.02
        goals = GoalSet.single(0, (0.20, 0.34))
        grid = GridSpec((0.0, 0.0), (0.4, 0.4), r_g / 2.0)
        return Scene(name, env, goals, r_g, None, None,
                     [PathExists(grid=grid, component=0)], grid)
    if name == "peg_t":
        boxes = (
            Box((0.19, 0.08), (0.22, 0.24), observable=False),
            Box((0.10, 0.24), (0.31, 0.27), observable=False),
        )
        world = WorldGeometry(boxes, (0.0, 0.0), (0.4, 0.4))
        env = PegEnv(world, [(0.10, 0.12)], u_max=0.02)
        r_g = 0.02
        goals = GoalSet.single(0, (0.30, 0.12))
        grid = GridSpec((0.0, 0.0), (0.4, 0.4), r_g / 2.0)
        return Scene(name, env, goals, r_g, None, None,
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
        goals = GoalSet.single(k // 2, (0.38, 0.42))
        grid = GridSpec((0.0, 0.0), (0.6, 0.5), r_g / 2.0)
        return Scene(name, env, goals, r_g, cam, depth,
                     [NoPenetration(zeta=0.4)], grid)
    raise ValueError(f"unknown scene '{name}'")


# -- scene files -------------------------------------------------------

def dump_scene(scene: Scene) -> str:
    """Plain-text scene description, one element per line."""
    env = scene.env
    lines = []
    lines.append("bounds " + " ".join(repr(float(v)) for v in
                                       (*env.world.bounds_lo, *env.world.bounds_hi)))
    for b in env.world.boxes:
        lines.append("box " + " ".join(repr(float(v)) for v in (*b.lo, *b.hi))
                     + f" {1 if b.observable else 0}")
    g = scene.goals
    for comp, pt in zip(g.components, g.points):
        lines.append(f"goal {float(pt[0])!r} {float(pt[1])!r} {float(scene.r_g)!r}")
    start = np.atleast_2d(env.state)
    lines.append("start " + " ".join(repr(float(v)) for v in start.ravel()))
    if scene.camera is not None:
        c = scene.camera
        fov = 2.0 * math.atan((c.width / 2.0) / c.focal_px)
        lines.append(f"camera {c.position[0]!r} {c.position[1]!r} {c.yaw!r} "
                     f"{fov!r} {c.width}")
    return "\n".join(lines) + "\n"


def parse_scene(text: str, name: str = "custom") -> Scene:
    """Inverse of dump_scene. A one-point start builds a peg task, a
    longer start builds a cable gripped at both ends."""
    boxes = []
    bounds = ((0.0, 0.0), (1.0, 1.0))
    goal_pt = None
    r_g = 0.02
    start = None
    cam = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind, vals = tok[0], [float(v) for v in tok[1:]]
        if kind == "box":
            boxes.append(Box((vals[0], vals[1]), (vals[2], vals[3]),
                             observable=bool(int(vals[4]))))
        elif kind == "bounds":
            bounds = ((vals[0], vals[1]), (vals[2], vals[3]))
        elif kind == "goal":
            goal_pt = (vals[0], vals[1])
            r_g = vals[2]
        elif kind == "start":
            start = np.array(vals, dtype=float).reshape(-1, 2)
        elif kind == "camera":
            cam = sensor.Camera.from_fov((vals[0], vals[1]), vals[2], vals[3],
                                         int(vals[4]))
        else:
            raise ValueError(f"unknown scene directive '{kind}'")
    if start is None or goal_pt is None:
        raise ValueError("scene file must define start and goal")
    world = WorldGeometry(tuple(boxes), bounds[0], bounds[1])
    grid = GridSpec(bounds[0], bounds[1], r_g / 2.0)
    if start.shape[0] == 1:
        env = PegEnv(world, start, u_max=0.02)
        goals = GoalSet.single(0, goal_pt)
        specs = [PathExists(grid=grid, component=0)]
    else:
        k = start.shape[0]
        rest = float(np.mean(np.linalg.norm(np.diff(start, axis=0), axis=1)))
        env = CableEnv(world, start, rest=rest, gripped=(0, k - 1), u_max=0.02)
        goals = GoalSet.single(k // 2, goal_pt)
        specs = [NoPenetration(zeta=0.4)]
    depth = None
    if cam is not None:
        depth = sensor.render_depth(world.rows(observable_only=False), cam)
    return Scene(name, env, goals, r_g, cam, depth, specs, grid)
