"""Task-informed constraints on the estimated surface.

Two constraint families: a collision-free path must exist on the
occupancy grid between the tracked point and every goal, and the state
estimate must not penetrate the surface under a conservative lower
confidence bound wherever the data supports the surface. A constraint
set is satisfied only when every member is.

`all_satisfied` judges a `Gpis`; `SubsetEvaluator` judges subsets of a
fixed active set for the refiner, a whole stack of them at once. Both
read the same alphas and variances (`gp.factor_subsets`,
`gp.GpSolve.posterior`), the same `gpis.lcb`, the same occupancy step
(`GridSpec.occupied`) and the same compiled flood fill from the start
cell (`obsurf_reach` in reach.c), so they give the same verdicts; grid
means may differ in the last bits, because the refiner's come from one
matrix product for the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import clib
from .gp import (GpSolve, KernelParams, factor_subsets, kernel_matrix,
                 noisy_gram)
from .gpis import Gpis, GridSpec, OccupancyGrid, FREE_LABEL, lcb


@dataclass(frozen=True)
class PathExists:
    """Collision-free grid path between the tracked component and the
    goals must exist."""

    grid: GridSpec
    component: int = 0


# A state component is judged by NoPenetration only where the active
# data has cut its raw posterior variance to at most this share of the
# prior variance (the outputscale). Next to a single datum the ratio is
# 1 - rho^2, so one half asks for a kernel correlation of at least
# 1/sqrt(2) with the data.
SUPPORT_VAR_RATIO = 0.5


@dataclass(frozen=True)
class NoPenetration:
    """No state component the data speaks for may lie below the
    surface's lower confidence bound at quantile zeta.

    The bound is mean + Phi^-1(zeta) * std, and it must be strictly
    positive. It is judged only at supported components: those whose
    raw posterior variance is at most SUPPORT_VAR_RATIO times the prior
    variance. The variance is the surface's confidence (Williams &
    Fitzgibbon, "Gaussian Process Implicit Surfaces", 2006). Near the
    prior the estimate says nothing about a component, and its bound,
    Phi^-1(zeta) * sqrt(outputscale), is negative for every zeta < 1/2
    whatever data is kept, so no refinement could meet it there. The
    free-space override sets a visible component's mean, not its
    variance, so visibility alone does not make a component supported.

    `all_satisfied` and `SubsetEvaluator` judge the spec this way;
    `no_penetration` is the bare bound over every component it is given.
    """

    zeta: float

    def __post_init__(self):
        if not (0.0 < self.zeta < 1.0):
            raise ValueError("zeta must lie in (0, 1)")


ConstraintSpec = Union[PathExists, NoPenetration]


def connected_components(grid: OccupancyGrid) -> np.ndarray:
    """Label free cells by component id (occupied cells get 0).

    Free-space connectivity is 8-neighbor in 2-D and 26-neighbor in
    3-D, the rule `path_exists` judges by.
    """
    from scipy import ndimage  # here only: `import obsurf` skips its ~45 ms

    cells = grid.cells
    if cells.size == 0:
        raise ValueError("empty grid")
    labels, _ = ndimage.label(~cells, structure=np.ones((3,) * cells.ndim))
    return labels


def _path_cells(spec: GridSpec, state_point: np.ndarray,
                goals: np.ndarray) -> tuple:
    """The flat C-order indices of the state point's cell and of every
    goal's cell, as `_reach` takes them."""
    goals = np.atleast_2d(np.asarray(goals, dtype=float))
    flat = [np.ravel_multi_index(spec.cell_index(p), spec.shape)
            for p in (state_point, *goals)]
    return flat[0], np.array(flat[1:], dtype=np.int64)


def _reach(occupied: np.ndarray, start: int, goals: np.ndarray) -> np.ndarray:
    """Per grid of a (U, *grid) stack of occupied cells, each judged
    alone: True when the start cell is free and every goal cell lies in
    its free component (see `connected_components`). One call of
    `obsurf_reach` judges the stack."""
    shape = occupied.shape[1:]
    if not 1 <= len(shape) <= 3:
        raise ValueError(f"PathExists needs a 1-, 2- or 3-D grid, "
                         f"not {len(shape)}-D")
    occ = np.ascontiguousarray(occupied, dtype=bool)
    ok = np.empty(len(occ), dtype=bool)
    if clib.kernels().obsurf_reach(
            clib.addr(occ), len(occ), *((1, 1) + shape)[-3:], start,
            clib.addr(goals), len(goals), clib.addr(ok)) < 0:
        raise MemoryError("obsurf_reach could not allocate its rows")
    return ok


def path_exists(gpis: Gpis, state_point: np.ndarray, goals: np.ndarray,
                spec: GridSpec) -> bool:
    """True when the cells holding the state point and every goal share
    one free component. An occupied endpoint cell counts as violated,
    not as an error: the state sitting on the predicted surface is
    exactly the situation refinement should fix. The surface computes
    its occupancy grid once per spec (`Gpis.occupancy_grid`).
    """
    cells = gpis.occupancy_grid(spec).cells
    return bool(_reach(cells[None], *_path_cells(spec, state_point, goals))[0])


def no_penetration(gpis: Gpis, state: np.ndarray, zeta: float) -> bool:
    """True when every given component's lower confidence bound stays
    strictly above the surface.

    This is the bare bound: a component far from all data sits at the
    prior and fails it for any zeta < 1/2. A `NoPenetration` spec
    judges only the supported components (see its docstring).
    """
    mean, var = gpis.predict_many(np.atleast_2d(np.asarray(state, dtype=float)))
    return bool(np.all(lcb(mean, var, zeta) > 0.0))


def _supported_bound_holds(mean: np.ndarray, var: np.ndarray, zeta: float,
                           outputscale: float) -> bool:
    """The NoPenetration verdict from the post-processed mean and raw
    variance at the state components."""
    judged = var <= SUPPORT_VAR_RATIO * outputscale
    return bool(np.all(lcb(mean[judged], var[judged], zeta) > 0.0))


def satisfied(spec: ConstraintSpec, gpis: Gpis, state: np.ndarray,
              goals: np.ndarray) -> bool:
    state = np.atleast_2d(np.asarray(state, dtype=float))
    if isinstance(spec, PathExists):
        return path_exists(gpis, state[spec.component], goals, spec.grid)
    if isinstance(spec, NoPenetration):
        mean, var = gpis.predict_many(state)
        return _supported_bound_holds(mean, var, spec.zeta,
                                      gpis.params.outputscale)
    raise TypeError(f"unknown constraint spec {spec!r}")


def all_satisfied(specs: Sequence[ConstraintSpec], gpis: Gpis,
                  state: np.ndarray, goals: np.ndarray) -> bool:
    """Conjunction over the configured constraints."""
    if not specs:
        raise ValueError("constraint set must not be empty")
    return all(satisfied(s, gpis, state, goals) for s in specs)


class SubsetEvaluator:
    """Constraint conjunction over candidate subsets of the active set.

    Refinement evaluates hundreds of subsets against fixed query points
    (grid centers, state components), so everything that does not
    depend on the subset is computed once here: the noisy Gram of the
    full active set, the kernel blocks between it and the queries, the
    visibility of the queries and the grid cells of the state and the
    goals. A stack of candidates is judged at once (`batch`): one
    kernel call factors every candidate's slice of the Gram
    (`gp.factor_subsets`, bit for bit a `GpSolve` of the subset), one
    matrix product gives every candidate's grid mean and one call of the
    compiled flood fill every candidate's path verdict; the posterior
    core, `lcb` and occupancy step are those `Gpis` uses. The verdicts are those of a
    fresh surface conditioned on the subset; grid means may differ from
    it in the last bits, because the product sums in another order.
    `jittered` counts the candidate solves that needed jitter on the
    Gram's diagonal.
    """

    def __init__(
        self,
        specs: Sequence[ConstraintSpec],
        points: np.ndarray,
        labels: np.ndarray,
        params: KernelParams,
        free_space: Optional[Callable[[np.ndarray], np.ndarray]],
        state: np.ndarray,
        goals: np.ndarray,
    ):
        if not specs:
            raise ValueError("constraint set must not be empty")
        self.specs = list(specs)
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.labels = np.asarray(labels, dtype=float).ravel()
        self.params = params
        self.state = np.atleast_2d(np.asarray(state, dtype=float))
        self.goals = np.atleast_2d(np.asarray(goals, dtype=float))
        self._ky = noisy_gram(self.points, params)
        self.jittered = 0

        # (spec, visibility, kernel block, None or (start cell, goal cells))
        self._jobs = []
        for spec in self.specs:
            cells = None
            if isinstance(spec, PathExists):
                q = spec.grid.centers()
                cells = _path_cells(spec.grid, self.state[spec.component],
                                    self.goals)
            else:
                q = self.state
            vis = (None if free_space is None
                   else np.asarray(free_space(q), dtype=bool))
            self._jobs.append((spec, vis, kernel_matrix(q, self.points, params),
                               cells))
        # PathExists first: one product and one flood fill judge every
        # live candidate at once, while NoPenetration pays a posterior
        # per candidate, so it should see only the survivors. On the 25
        # penetrating refine_enclosure problems (both specs) of seeds 0
        # and 7, a pass took 1.67 and 1.70 s this way against 2.08 and
        # 2.20 s with NoPenetration first (medians of 8 alternating
        # runs, 2-core VM, one BLAS thread). A conjunction does not
        # depend on the order it is judged in.
        self._jobs.sort(key=lambda job: job[3] is None)

    def __call__(self, keep: np.ndarray) -> bool:
        """Evaluate the conjunction on the subset selected by `keep`."""
        return bool(self.batch(np.asarray(keep, dtype=bool)[None])[0])

    def batch(self, keeps: np.ndarray) -> np.ndarray:
        """Evaluate the conjunction on each subset of a (U, n) stack of
        keep vectors; returns U booleans. A candidate that fails one
        spec is not judged on the later ones."""
        keeps = np.asarray(keeps, dtype=bool)
        alphas, factors, jittered = factor_subsets(
            self._ky, self.labels, keeps,
            any(cells is None for *_, cells in self._jobs))
        self.jittered += jittered
        ok = np.ones(len(keeps), dtype=bool)
        for spec, vis, kq, cells in self._jobs:
            live = np.flatnonzero(ok)
            if live.size == 0:
                break
            if cells is None:
                for u in live:
                    idx = np.flatnonzero(keeps[u])
                    solve = GpSolve.factored(
                        self.points[idx], self.labels[idx], self.params,
                        factors[u], alphas[u, idx])
                    mean, var = solve.posterior(kq[:, idx], slice(None))
                    if vis is not None:
                        mean = np.where(vis, FREE_LABEL, mean)
                    ok[u] = _supported_bound_holds(mean, var, spec.zeta,
                                                   self.params.outputscale)
            else:
                # One product gives every live candidate's grid mean:
                # each alpha row is 0 outside its subset's columns.
                means = alphas[live] @ kq.T
                if vis is not None:
                    means[:, vis] = FREE_LABEL
                ok[live] = _reach(spec.grid.occupied(means), *cells)
        return ok
