"""Implicit-surface environment estimate backed by a GP.

The surface is the 0-level set of the posterior mean over labeled
points: negative means interior, positive exterior. Queries support a
free-space mean override driven by a visibility oracle. The module also
holds the one lower-confidence-bound formula (`lcb`) used for
conservative checks, with scipy's normal quantile behind it, and the
one step from a mean over grid centers to a boolean occupancy grid
(`GridSpec.occupancy`). Goal points enter as data through
`contact.DatasetPair.seeded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .gp import GpSolve, KernelParams

FREE_LABEL = 1.0


def norm_cdf(x: float) -> float:
    """Standard normal CDF."""
    return float(ndtr(x))


def inv_norm_cdf(p: float) -> float:
    """Standard normal quantile."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    return float(ndtri(p))


def lcb(mean, var, zeta: float):
    """Lower confidence bound mean + Phi^-1(zeta) * std, elementwise.

    zeta below one half pulls the bound pessimistic; exactly one half
    gives the mean. Raises ValueError unless 0 < zeta < 1.
    """
    return mean + inv_norm_cdf(zeta) * np.sqrt(var)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned bounding box plus cell size for occupancy export."""

    lo: tuple
    hi: tuple
    resolution: float

    def __post_init__(self):
        if not (self.resolution > 0.0):
            raise ValueError("grid resolution must be positive")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise ValueError("grid bounds must satisfy hi > lo per axis")

    @cached_property
    def shape(self) -> tuple:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return tuple(int(np.ceil((h - l) / self.resolution - 1e-12))
                     for l, h in zip(lo, hi))

    def centers(self) -> np.ndarray:
        """All cell centers, shape (prod(shape), d), C order."""
        axes = [np.asarray(self.lo[i]) + (np.arange(n) + 0.5) * self.resolution
                for i, n in enumerate(self.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_index(self, point) -> tuple:
        """Index of the cell containing a point (clipped to the grid)."""
        p = np.asarray(point, dtype=float).ravel()
        idx = np.floor((p - np.asarray(self.lo)) / self.resolution).astype(int)
        return tuple(min(max(i, 0), n - 1)
                     for i, n in zip(idx.tolist(), self.shape))

    def occupied(self, mean: np.ndarray) -> np.ndarray:
        """Occupied cells from the surface mean at centers(): mean <= 0.
        The boundary value 0 counts as occupied, so a blank prior marks
        everything occupied until data or visibility carves out free
        space. A (U, q) stack of means gives a (U, *shape) stack."""
        return (mean <= 0.0).reshape(mean.shape[:-1] + self.shape)

    def occupancy(self, mean: np.ndarray) -> "OccupancyGrid":
        """The occupancy grid of one mean over centers() (see occupied)."""
        return OccupancyGrid(tuple(float(v) for v in self.lo), self.resolution,
                             self.occupied(mean))


@dataclass(frozen=True)
class OccupancyGrid:
    origin: tuple
    resolution: float
    cells: np.ndarray  # boolean, True = occupied

    def to_text(self) -> str:
        """Header (dimension, resolution, origin, shape), then 0/1 rows."""
        header = " ".join(
            [str(self.cells.ndim), repr(float(self.resolution))]
            + [repr(float(o)) for o in self.origin]
            + [str(n) for n in self.cells.shape]
        )
        rows = self.cells.reshape(-1, self.cells.shape[-1])
        return "\n".join([header] + ["".join("1" if c else "0" for c in row)
                                     for row in rows]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "OccupancyGrid":
        raw = text.splitlines()
        head = raw[0].split()
        d = int(head[0])
        resolution = float(head[1])
        origin = tuple(float(v) for v in head[2:2 + d])
        shape = tuple(int(v) for v in head[2 + d:2 + 2 * d])
        rows = [ln for ln in raw[1:] if ln.strip() != ""]
        flat = np.array([[ch == "1" for ch in ln] for ln in rows], dtype=bool)
        return cls(origin, resolution, flat.reshape(shape))


class Gpis:
    """The estimated environment: a GP implicit surface over labeled points.

    Instances are immutable after construction; every update returns a
    new value, so concurrent readers are safe, and the factorization and
    each occupancy grid are computed at most once per instance. The optional free-space oracle maps a (q, d) array of
    points to a boolean visibility mask; where it reports True the
    predicted mean is overridden to the exterior label value (variance
    is never touched). Every query, `predict_many` or `predict_mean`,
    is one `_predict` call.
    """

    def __init__(
        self,
        points: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        params: Optional[KernelParams] = None,
        free_space: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.params = params if params is not None else KernelParams()
        if points is None or np.asarray(points).size == 0:
            self.points = np.zeros((0, 0))
            self.labels = np.zeros(0)
        else:
            self.points = np.atleast_2d(np.asarray(points, dtype=float)).copy()
            self.labels = np.asarray(labels, dtype=float).ravel().copy()
            if self.points.shape[0] != self.labels.shape[0]:
                raise ValueError("points and labels must have equal length")
            if np.any(self.labels < -1.0) or np.any(self.labels > 1.0):
                raise ValueError("labels must lie in [-1, 1]")
        self.free_space = free_space
        self._solve: Optional[GpSolve] = None
        self._grids: dict = {}  # GridSpec -> OccupancyGrid

    def with_active(self, points: np.ndarray, labels: np.ndarray) -> "Gpis":
        """Surface conditioned on a replacement active set: this instance
        when the set equals its own by value, else a new one."""
        if (np.array_equal(points, self.points)
                and np.array_equal(labels, self.labels)):
            return self
        return Gpis(points, labels, self.params, self.free_space)

    # -- queries -----------------------------------------------------

    def _solver(self) -> Optional[GpSolve]:
        if self.points.size == 0:
            return None
        if self._solve is None:
            self._solve = GpSolve(self.points, self.labels, self.params)
        return self._solve

    def _predict(self, queries: np.ndarray, var_rows):
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        solver = self._solver()
        if solver is None:
            mean = np.zeros(queries.shape[0])
            var = (None if var_rows is None else
                   np.full(queries.shape[0], self.params.outputscale)[var_rows])
        else:
            mean, var = solver.predict(queries, var_rows)
        if self.free_space is not None:
            vis = np.asarray(self.free_space(queries), dtype=bool)
            mean = np.where(vis, FREE_LABEL, mean)
        return mean, var

    def predict_many(self, queries: np.ndarray, var_rows=slice(None)):
        """Post-processed mean at every query row and raw variance at the
        rows var_rows selects (any numpy index, every row by default;
        None skips the variance and returns None), from one kernel
        evaluation."""
        return self._predict(queries, var_rows)

    def predict_mean(self, queries: np.ndarray) -> np.ndarray:
        """Post-processed posterior mean only (cheaper than predict_many
        for large query batches)."""
        return self._predict(queries, None)[0]

    def occupancy_grid(self, spec: GridSpec) -> OccupancyGrid:
        """Boolean occupancy over the grid (see GridSpec.occupancy),
        computed once per spec; the cached cells are read-only."""
        grid = self._grids.get(spec)
        if grid is None:
            grid = spec.occupancy(self.predict_mean(spec.centers()))
            grid.cells.flags.writeable = False
            self._grids[spec] = grid
        return grid
