"""Workload inputs, passes and output checks for the obsurf benchmark.

A workload is built from a seed and then runs passes; every pass runs
the same inputs. A pass is a list of units: one unit is one episode
(whose ops are its control steps) or one refinement (a single op).
Checks run after a pass, outside any timed or traced region, and count
the ops whose outputs are wrong.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from obsurf import constraints as cons
from obsurf import envs, harness, mppi, refine
from obsurf.contact import DatasetPair, TAG_GOAL, TAG_OBSERVED, TAG_PREDICTED
from obsurf.gp import KernelParams
from obsurf.gpis import Gpis, GridSpec


@dataclass
class Unit:
    """One episode or one refinement of a pass.

    ops holds one (start, end) perf_counter window per op; attempted
    counts the ops the unit stood for, also when it raised before any
    op finished. output is the raw result until check() replaces it
    with digest and failed.
    """

    ops: list
    attempted: int
    wall_s: float
    output: Any
    digest: str = ""
    failed: int = 0


def derived_seed(seed: int, index: int) -> int:
    """Seed of the index-th unit of a run seeded with `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- episodes -------------------------------------------------------------

class EpisodeWorkload:
    """A chain of closed-loop episodes of one stock scene.

    Episodes are capped at `cap` steps and chained, each with its own
    derived seed, until the chain has taken `steps` control steps. A
    seed that reaches the goal early only hands its remaining steps to
    the next episode, so every pass has exactly `steps` ops.
    """

    def __init__(self, scene: str, seed: int, steps: int, cap: int):
        self.scene = scene
        self.seed = seed
        self.steps = steps
        self.cap = cap
        self.world = envs.make_scene(scene).env.world

    def run_pass(self, max_units: Optional[int] = None) -> list:
        units = []
        done = 0
        while done < self.steps and (max_units is None or len(units) < max_units):
            cfg = harness.EpisodeConfig.for_scene(
                self.scene, seed=derived_seed(self.seed, len(units)),
                max_steps=min(self.cap, self.steps - done))
            unit = self._episode(cfg)
            units.append(unit)
            done += unit.attempted
        return units

    @staticmethod
    def _episode(cfg: harness.EpisodeConfig) -> Unit:
        # An op runs from one mppi_step entry to the next; the last one
        # ends when run_episode returns.
        marks = []
        inner = mppi.mppi_step

        def marked(*args, **kwargs):
            marks.append(time.perf_counter())
            return inner(*args, **kwargs)

        mppi.mppi_step = marked
        t0 = time.perf_counter()
        try:
            report = harness.run_episode(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            report = None
        finally:
            t1 = time.perf_counter()
            mppi.mppi_step = inner
        if report is None:
            return Unit([], cfg.max_steps, t1 - t0, None)
        ops = list(zip(marks, marks[1:] + [t1]))
        return Unit(ops, report.steps_used, t1 - t0, report)

    def check(self, units: list) -> None:
        """Fail every op of an episode that raised, and each step whose
        logged state is non-finite or strictly inside a true-world box."""
        for unit in units:
            report = unit.output
            unit.output = None
            if report is None:
                unit.digest, unit.failed = "raised", unit.attempted
                continue
            unit.digest = _sha256(report.log_text().encode())
            for rec in report.records:
                state = np.asarray(rec["state"], dtype=float)
                if (not np.all(np.isfinite(state))
                        or self.world.inside_any(state).any()):
                    unit.failed += 1


# -- refinement problems --------------------------------------------------

# The construction of the acceptance gate's refinement criterion: a
# ring of interior points closes off the goal, exterior scatter and a
# trail lie around it, and the tracked point sits at STATE.
PARAMS = KernelParams(0.07, 1.0, 1e-4)
GRID = GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)  # 40 x 40 cells
STATE = np.array([[0.05, 0.05]])
GOAL = np.array([0.2, 0.2])
GENERATIONS = 25
POPSIZE = 20
# Every PENETRATION_EVERY-th problem also puts spurious interior points
# right at the tracked point and checks NoPenetration as well; its
# relaxed-set certificate passes because the trail stays close by.
PENETRATION_EVERY = 4


@dataclass
class RefineProblem:
    dp: DatasetPair
    specs: list
    cma_seed: int
    exterior: np.ndarray = field(repr=False)  # rows refinement must keep


def enclosure_problem(seed: int, index: int) -> RefineProblem:
    rng = np.random.default_rng([seed, index])
    penetrating = index % PENETRATION_EVERY == PENETRATION_EVERY - 1
    ang = (np.linspace(0, 2 * np.pi, 12, endpoint=False)
           + rng.uniform(0, 2 * np.pi / 12))
    ring = GOAL + 0.08 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    trail = np.stack([np.linspace(0.05, 0.13, 6)] * 2, axis=1)
    interior = ring
    if penetrating:
        # leave the tracked point itself unlabeled, so the spurious
        # points 0.012 away pull its estimate inside
        trail = trail[1:]
        a = rng.uniform(0, 2 * np.pi) + np.array([0.0, 2.1, 4.2])
        spurious = STATE[0] + 0.012 * np.stack([np.cos(a), np.sin(a)], axis=1)
        interior = np.vstack([ring, spurious])
    ext = np.vstack([trail, rng.uniform(0.0, 0.4, (25, 2))])
    ext = ext[np.min(np.linalg.norm(ext[:, None] - ring[None], axis=2),
                     axis=1) > 0.03]
    ext = ext[np.linalg.norm(ext - GOAL, axis=1) > 0.10]

    pts = np.vstack([GOAL[None], ext, interior])
    labels = np.concatenate([[1.0], np.ones(len(ext)), -np.ones(len(interior))])
    tags = np.concatenate([[TAG_GOAL], np.full(len(ext), TAG_OBSERVED),
                           np.full(len(interior), TAG_PREDICTED)])
    mask = np.zeros(len(pts), dtype=bool)
    dp = DatasetPair(pts, labels, tags, mask,
                     pts.copy(), labels.copy(), tags.copy(), mask.copy())
    specs = [cons.PathExists(grid=GRID, component=0)]
    if penetrating:
        specs.append(cons.NoPenetration(zeta=0.4))
    return RefineProblem(dp, specs, derived_seed(seed, index),
                         pts[labels > 0.0])


class RefineWorkload:
    """Generated keep/remove problems; each op is one refine_contacts."""

    def __init__(self, seed: int, count: int):
        self.problems = [enclosure_problem(seed, i) for i in range(count)]

    def run_pass(self, max_units: Optional[int] = None) -> list:
        return [self._refine(p) for p in self.problems[:max_units]]

    @staticmethod
    def _refine(p: RefineProblem) -> Unit:
        def factory(pts, labs):
            return cons.SubsetEvaluator(p.specs, pts, labs, PARAMS, None,
                                        STATE, GOAL[None])

        t0 = time.perf_counter()
        try:
            out = refine.refine_contacts(p.dp, PARAMS, factory, GENERATIONS,
                                         POPSIZE, p.cma_seed)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        t1 = time.perf_counter()
        return Unit([(t0, t1)], 1, t1 - t0, (p, out))

    def check(self, units: list) -> None:
        """Fail a refinement that raised, dropped an exterior point or
        the goal seed, or whose kept set gets a different constraint
        verdict from SubsetEvaluator than from a fresh Gpis."""
        for unit in units:
            p, out = unit.output
            unit.output = None
            if out is None:
                unit.digest, unit.failed = "raised", 1
                continue
            dp, event = out
            unit.digest = _sha256(
                dp.bar_points.tobytes() + dp.bar_labels.tobytes()
                + json.dumps(event.to_record(), sort_keys=True).encode())
            kept = {row.tobytes() for row in dp.bar_points}
            intact = all(row.tobytes() in kept for row in p.exterior)
            fresh = cons.all_satisfied(
                p.specs, Gpis(dp.bar_points, dp.bar_labels, PARAMS),
                STATE, GOAL[None])
            fast = cons.SubsetEvaluator(
                p.specs, dp.bar_points, dp.bar_labels, PARAMS, None, STATE,
                GOAL[None])(np.ones(dp.bar_size, dtype=bool))
            if not (intact and fresh == fast
                    and (fresh or not event.found_feasible)):
                unit.failed = 1


# Why each workload is here is in README.md next to this file.
WORKLOADS = {
    "peg_u": lambda seed: EpisodeWorkload("peg_u", seed, steps=1200, cap=60),
    "cable_hook": lambda seed: EpisodeWorkload("cable_hook", seed, steps=120,
                                               cap=40),
    "refine_enclosure": lambda seed: RefineWorkload(seed, count=100),
}
