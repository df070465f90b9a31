"""Implicit-surface environment estimate backed by a GP.

The surface is the 0-level set of the posterior mean over labeled
points: negative means interior, positive exterior. Queries support a
free-space mean override driven by a visibility oracle. The module also
holds the one lower-confidence-bound formula (`lcb`) used for
conservative checks, with a port of cephes' normal quantile behind it
(scipy.special.ndtri's bits, without importing scipy.special), and the
one step from a mean over grid centers to a boolean occupancy grid
(`GridSpec.occupancy`). Goal points enter as data through
`contact.DatasetPair.seeded`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .gp import GpSolve, KernelParams

FREE_LABEL = 1.0

# Cephes' ndtri, the algorithm of scipy.special.ndtri: rational
# approximations in y - 1/2 for |y - 1/2| <= 1/2 - exp(-2) (P0/Q0), and
# in 1 / sqrt(-2 log y) on the tails, down to exp(-32) (P1/Q1) and below
# it (P2/Q2). Each Q has a leading coefficient of 1, left out.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _rational(x: float, p: tuple, q: tuple) -> float:
    """x p(x) / q(x), q monic, each polynomial by Horner's rule in
    cephes' order (polevl and p1evl), so every rounding is cephes'."""
    num, den = p[0], x + q[0]
    for c in p[1:]:
        num = num * x + c
    for c in q[1:]:
        den = den * x + c
    return x * num / den


def norm_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@cache
def inv_norm_cdf(p: float) -> float:
    """Standard normal quantile: scipy.special.ndtri's value, bit for
    bit, from the same cephes algorithm. Cached: lcb asks for the same
    zeta on every call."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    y, upper = float(p), p > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * _rational(y2, _P0, _Q0)) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    tail = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - _rational(1.0 / x, *tail)
    return x if upper else -x


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
        if lo.shape != hi.shape or not np.all(hi > lo):
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
