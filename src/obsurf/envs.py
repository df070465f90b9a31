"""Planar ground-truth worlds and their nominal dynamics.

Point pegs and particle-chain cables move through axis-aligned box
obstacles. The true simulator collides against everything; the nominal
model collides only against boxes flagged observable, so hidden
geometry shows up purely as prediction error. Motion is quasi-static:
a control is a commanded position delta, resolved with axis-separable
sliding, and chains relax with projected distance constraints.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import clib, sensor
from .gpis import GridSpec
from .mppi import Goal
from .constraints import NoPenetration, PathExists

# Resting gap kept between any point and an obstacle face, which avoids
# point-on-surface ambiguity in visibility and occupancy tests.
CONTACT_GAP = 1e-3
# Cable relaxation caps: iterations with the grippers pinned, then with
# them released (see CableEnv).
PINNED_ITERATIONS = 20
POLISH_ITERATIONS = 120
# Worker threads of a cable kernel call: at most the CPUs this process
# may run on (run_batch's pool workers set it to 1), with at least
# _MIN_CHAINS chains each. On a 2-core VM, 8-step rollouts of the
# cable_hook chain took 0.8-1.1x the one-thread time at 8 chains on two
# threads, 0.7x at 16 and 0.6x at 72.
_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_MIN_CHAINS = 8


def _threads(chains: int) -> int:
    return max(1, min(_cpus, chains // _MIN_CHAINS))


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


def _limits(lo, hi, gap: float) -> np.ndarray:
    """Where sliding points are clipped, a gap inside the bounds: lo x,
    lo y, hi x, hi y."""
    return np.array([lo[0] + gap, lo[1] + gap, hi[0] - gap, hi[1] - gap],
                    dtype=float)


class _Env:
    """What the peg and the cable share: a state of n points, the
    nominal model `nominal` and the true step `step_truth`, each one
    `_roll` call. A subclass's `_advance(x, u, boxes)` fills x (K, T + 1,
    n, 2), C-contiguous float64 with each start at step 0, with K starts
    stepped through the C-contiguous float64 controls u (K, T,
    control_dim) against boxes, and returns it."""

    def __init__(self, world: WorldGeometry, start, u_max: float):
        self.world = world
        self.u_max = float(u_max)
        self.state = np.atleast_2d(np.asarray(start, dtype=float)).copy()
        self._all = world.rows(observable_only=False)
        self._obs = world.rows(observable_only=True)
        self._lim = _limits(world.bounds_lo, world.bounds_hi, CONTACT_GAP)
        self._fixed = clib.fixed(self._all, self._obs, self._lim)

    def _roll(self, starts, controls, boxes: np.ndarray) -> np.ndarray:
        """States (K, T + 1, n, 2) of K starts (K, n, 2) stepped through
        controls (K, T, control_dim) against boxes, step 0 being the
        starts, from one `_advance` call; else ValueError."""
        starts = np.asarray(starts, dtype=float)
        controls = np.ascontiguousarray(controls, dtype=float)
        if not (starts.ndim == controls.ndim == 3
                and starts.shape[1:] == (self.n, 2)
                and controls.shape[::2] == (len(starts), self.control_dim)):
            raise ValueError(f"starts must be (K, {self.n}, 2) and controls "
                             f"(K, T, {self.control_dim}), not {starts.shape}"
                             f" and {controls.shape}")
        x = np.empty((len(starts), controls.shape[1] + 1, self.n, 2))
        x[:, 0] = starts
        return self._advance(x, controls, boxes)

    def step_truth(self, u: np.ndarray) -> np.ndarray:
        """The state one step on under the control u (control_dim,),
        against every box."""
        self.state = self._roll(self.state[None], np.reshape(u, (1, 1, -1)),
                                self._all)[0, 1]
        return self.state.copy()

    def nominal(self, starts: np.ndarray, controls: np.ndarray) -> np.ndarray:
        """The nominal states (K, T + 1, n, 2) of K starts (K, n, 2) under
        control sequences (K, T, control_dim), step 0 being the starts:
        the observed boxes only (workspace walls still apply)."""
        return self._roll(starts, controls, self._obs)


class PegEnv(_Env):
    """Single tracked point pushed around box obstacles."""

    n = 1
    control_dim = 2

    def _advance(self, x: np.ndarray, u, boxes: np.ndarray) -> np.ndarray:
        """Slide the points of x (K, T + 1, 1, 2) through u (K, T, 2), as
        `_Env` says: each step moves by the x then the y component, each
        clipped to +-u_max, stopped a gap short of the first box face it
        crosses, then clipped a gap inside the bounds. A point resting
        on a face stays put when pushed toward it and moves freely
        otherwise, so a diagonal push into a wall keeps its lateral
        component. One kernel call (sweep.c) does all of it."""
        k, t_hor = u.shape[:2]
        clib.kernels().obsurf_rollout(
            clib.arg("peg: x", x, (k, t_hor + 1, 1, 2)), k, t_hor,
            clib.addr(u), clib.arg("peg: boxes", boxes, (len(boxes), 4),
                                   self._fixed),
            len(boxes), clib.arg("peg: lim", self._lim, (4,), self._fixed),
            CONTACT_GAP, self.u_max)
        return x


class CableEnv(_Env):
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
        super().__init__(world, chain, u_max)
        self.rest = float(rest)
        self.gripped = tuple(int(i) for i in gripped)
        self.n = self.state.shape[0]
        # Keep a little slack so two grippers can never force the chain
        # beyond its total length.
        self._span_max = 0.98 * self.rest * (self.n - 1)
        self._grip = (ctypes.c_long * len(self.gripped))(
            *np.arange(self.n)[list(self.gripped)])
        self._iters = (ctypes.c_long * 2)(PINNED_ITERATIONS,
                                          POLISH_ITERATIONS)
        # Chains each relaxation phase left off tolerance at its cap.
        self.pinned_capped = self.polish_capped = 0

    @property
    def control_dim(self) -> int:
        return 2 * len(self.gripped)

    def _advance(self, x: np.ndarray, u, boxes: np.ndarray) -> np.ndarray:
        """Step the chains of x (K, T + 1, n, 2) through u (K, T, u), as
        `_Env` says. A step slides the grippers from their pre-step
        positions, clamps two grippers pulled past `_span_max` back
        toward their midpoint and pushes them out of any box, then
        relaxes the chain (`relax_chain`) with the grippers pinned, then
        released, against the pre-step positions, adding the chains each
        phase's cap stopped to pinned_capped and polish_capped. A chain's
        steps depend on nothing outside it, so it ends as it would
        stepped alone. One kernel call (sweep.c) does all of it, over
        `_threads(K)` worker threads; the bytes do not depend on their
        number."""
        k, t_hor = u.shape[:2]
        capped = (ctypes.c_long * 2)()
        if clib.kernels().obsurf_cable(
                clib.arg("cable: x", x, (k, t_hor + 1, self.n, 2)), k, t_hor,
                self.n, clib.addr(u), self._grip, len(self.gripped),
                clib.arg("cable: boxes", boxes, (len(boxes), 4), self._fixed),
                len(boxes), clib.arg("cable: lim", self._lim, (4,),
                                     self._fixed),
                self._iters, 0.005 * self.rest, self.rest, CONTACT_GAP,
                self.u_max, self._span_max, _threads(k), capped) < 0:
            raise MemoryError("cable: no memory for the kernel's scratch")
        self.pinned_capped += capped[0]
        self.polish_capped += capped[1]
        return x


class ObservedSurface:
    """Surface stand-in for the non-adaptive baseline: exterior (+1)
    everywhere except strictly inside an observable box (-1), with zero
    variance so there is no exploration bonus."""

    def __init__(self, world: WorldGeometry):
        self.world = world

    def predict_mean(self, pts: np.ndarray) -> np.ndarray:
        inside = self.world.inside_any(pts, observable_only=True)
        return np.where(inside, -1.0, 1.0)

    def predict_many(self, pts: np.ndarray, var_rows=slice(None)):
        """Mean at every row and zero variance at the rows var_rows
        selects (None skips the variance), as `Gpis.predict_many`."""
        mean = self.predict_mean(pts)
        return mean, None if var_rows is None else np.zeros_like(mean)[var_rows]


@dataclass
class Scene:
    """A built task: environment, optional static depth sensing, the
    goal assignment, and the default constraints on the estimate."""

    name: str
    env: object
    goal: Goal
    r_g: float
    camera: Optional[sensor.Camera] = None
    depth: Optional[sensor.DepthData] = None
    constraint_specs: list = field(default_factory=list)
    grid: Optional[GridSpec] = None


# Stock tasks in parse_scene's format.
#
# peg_u: cup-shaped wall between start and goal, goal inside the cup.
# Its walls are sheet-thin: one-step nominal predictions overshoot
# them, so impeded transitions scatter interior points into the free
# space beyond, exactly the spurious evidence refinement exists to
# remove.
# peg_i: single straight wall across the direct route.
# peg_t: tee-shaped wall; the route must round the stem.
# cable_hook: the chain starts entirely under a long hidden bar, so
# lifting presses into it anywhere along the span and escape needs a
# real sideways detour that the goal pull fights. The camera looks down
# from the left past a small barrier that shadows exactly the bar and
# the under-bar contact zone; the start, the climb corridor left of the
# barrier, the traverse above, and the goal all stay visible. The start
# is a zigzag whose links are all one rest length long.
SCENES = {
    "peg_u": """\
bounds 0.0 0.0 0.4 0.4
box 0.148 0.16 0.16 0.30 0
box 0.24 0.16 0.252 0.30 0
box 0.148 0.148 0.252 0.16 0
goal 0.20 0.22 0.02
start 0.20 0.05
""",
    "peg_i": """\
bounds 0.0 0.0 0.4 0.4
box 0.12 0.19 0.28 0.22 0
goal 0.20 0.34 0.02
start 0.20 0.06
""",
    "peg_t": """\
bounds 0.0 0.0 0.4 0.4
box 0.19 0.08 0.22 0.24 0
box 0.10 0.24 0.31 0.27 0
goal 0.30 0.12 0.02
start 0.10 0.12
""",
    "cable_hook": """\
bounds 0.0 0.0 0.6 0.5
box 0.20 0.28 0.56 0.31 0  # bar
box 0.185 0.282 0.195 0.326 1  # barrier
goal 0.38 0.42 0.04
start 0.24 0.10638876564999941 0.2671428571428571 0.0936112343500006 \
0.29428571428571426 0.10638876564999941 0.3214285714285714 0.0936112343500006 \
0.34857142857142853 0.10638876564999941 0.37571428571428567 0.0936112343500006 \
0.40285714285714286 0.10638876564999941 0.43 0.0936112343500006
rest 0.03
camera 0.03 0.33 -0.35 2.6 300
""",
}

# Value count of each scene directive; `start` takes x y pairs.
_ARITY = {"bounds": 4, "box": 5, "goal": 3, "start": None, "rest": 1, "camera": 5}


def make_scene(name: str) -> Scene:
    """Build one of the stock tasks in SCENES."""
    if name not in SCENES:
        raise ValueError(f"unknown scene '{name}'")
    return parse_scene(SCENES[name], name)


def parse_scene(text: str, name: str = "custom") -> Scene:
    """Build a task from text: one directive per line, `#` comments.
    Directives: `bounds x0 y0 x1 y1` (default 0 0 1 1), `box x0 y0 x1 y1
    observable` (0 or 1), `goal x y radius`, `start x y [x y ...]`, `rest length`
    and `camera x y yaw fov width`. A one-point start builds a peg task; a
    longer one a cable gripped at both ends, which needs `rest`. Every
    directive but `box` comes at most once. Malformed input, a
    non-finite value or a repeat raises ValueError naming the line."""
    boxes, seen = [], set()
    bounds = ((0.0, 0.0), (1.0, 1.0))
    start = goal_pt = r_g = rest = cam = None
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *tok = line.split()
        try:
            if kind not in _ARITY:
                raise ValueError(f"unknown scene directive '{kind}'")
            vals = [float(v) for v in tok]
            want = _ARITY[kind]
            if len(vals) != want if want else not vals or len(vals) % 2:
                raise ValueError(f"takes {want or 'a positive even number of'}"
                                 f" values, not {len(vals)}")
            if kind == "box" and vals[4] not in (0.0, 1.0):
                raise ValueError(f"observable must be 0 or 1, not {tok[4]}")
            if not np.isfinite(vals).all():
                raise ValueError("values must be finite")
            if kind in ("box", "bounds") and not (vals[0] < vals[2]
                                                  and vals[1] < vals[3]):
                raise ValueError("needs x0 < x1 and y0 < y1")
            if kind in ("goal", "rest") and not vals[-1] > 0.0:
                raise ValueError("goal radius and rest must be positive")
            if kind != "box" and kind in seen:
                raise ValueError(f"repeats '{kind}', which a scene takes once")
            seen.add(kind)
            if kind == "box":
                boxes.append(Box((vals[0], vals[1]), (vals[2], vals[3]),
                                 observable=vals[4] == 1.0))
            elif kind == "bounds":
                bounds = ((vals[0], vals[1]), (vals[2], vals[3]))
            elif kind == "goal":
                goal_pt, r_g = np.array(vals[:2]), vals[2]
            elif kind == "start":
                start = np.array(vals, dtype=float).reshape(-1, 2)
            elif kind == "rest":
                rest = vals[0]
            else:
                cam = sensor.Camera.from_fov((vals[0], vals[1]), vals[2],
                                             vals[3], vals[4])
        except ValueError as exc:
            raise ValueError(f"scene line {no} '{line}': {exc}") from None
    if start is None or goal_pt is None:
        raise ValueError("scene file must define start and goal")
    if (rest is None) != (start.shape[0] == 1):
        raise ValueError("scene file needs rest exactly when start has 2+ points")
    world = WorldGeometry(tuple(boxes), bounds[0], bounds[1])
    grid = GridSpec(bounds[0], bounds[1], r_g / 2.0)
    if rest is None:
        env = PegEnv(world, start, u_max=0.02)
        goal = Goal(0, goal_pt)
        specs = [PathExists(grid=grid, component=0)]
    else:
        k = start.shape[0]
        env = CableEnv(world, start, rest=rest, gripped=(0, k - 1), u_max=0.02)
        goal = Goal(k // 2, goal_pt)
        specs = [NoPenetration(zeta=0.4)]
    depth = None
    if cam is not None:
        depth = sensor.render_depth(world.rows(observable_only=False), cam)
    return Scene(name, env, goal, r_g, cam, depth, specs, grid)
