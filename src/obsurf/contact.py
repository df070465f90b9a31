"""Contact inference from dynamics prediction error.

State sets are plain (n, d) arrays of tracked component positions.
Each executed transition is compared against the nominal-dynamics
prediction to produce labels in [0, 1] for the observed points and
[-1, 1] for the predicted points; `pre_process` then cleans the labels
with visual input and decides, once, which points are kept and which
kept points are stall rows, kept only because the controller stalled.

Two point sets are maintained: the memory set of everything collected
(minus purged stall data) and the active set that conditions the
surface estimate. `DatasetPair.update` stores the kept points in both,
the stall rows with a mask bit; those are wiped when refinement runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .sensor import Camera, DepthData, visible

# Observed points closer than this are treated as the same point; the
# most recent label wins. Keeps the Gram matrix well conditioned.
DEDUP_TOL = 1e-9

# Predicted displacements below this carry no contact signal; the
# observed label defaults to fully free.
EPS_DENOM = 1e-6

TAG_OBSERVED = 0
TAG_PREDICTED = 1
TAG_GOAL = 2


def euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-component distance between two (n, d) state sets."""
    return np.linalg.norm(np.asarray(a, float) - np.asarray(b, float), axis=-1)


@dataclass
class LabelBatch:
    """One transition: its observed and predicted states, their labels,
    and what `pre_process` decided to keep.

    y labels the observed components (0 blocked .. 1 free); y_hat the
    predicted ones, fixed at 2y - 1 from generation. stall marks the
    kept observed components that only a detected stall keeps; they are
    stored with the mask bit set.
    """

    obs: np.ndarray
    pred: np.ndarray
    y: np.ndarray
    y_hat: np.ndarray
    keep_obs: np.ndarray
    keep_pred: np.ndarray
    stall: np.ndarray


def gen_labels(x_t: np.ndarray, x_next: np.ndarray,
               x_pred: np.ndarray) -> LabelBatch:
    """Label a transition by the ratio of realized to predicted motion.

    y_i = min(d(x_t, x_next) / d(x_t, x_pred), 1) with d the Euclidean
    distance; a vanishing predicted displacement yields y_i = 1 (no
    motion commanded means no evidence of contact). Nothing is kept yet.
    """
    num = euclidean(x_t, x_next)
    den = euclidean(x_t, x_pred)
    if not np.all(np.isfinite(den)):
        raise ValueError("predicted displacement must be finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        y = np.minimum(num / den, 1.0)
    y = np.where(den < EPS_DENOM, 1.0, y)
    n = len(y)
    return LabelBatch(
        obs=np.atleast_2d(np.asarray(x_next, dtype=float)),
        pred=np.atleast_2d(np.asarray(x_pred, dtype=float)),
        y=y,
        y_hat=2.0 * y - 1.0,
        keep_obs=np.zeros(n, dtype=bool),
        keep_pred=np.zeros(n, dtype=bool),
        stall=np.zeros(n, dtype=bool),
    )


def pre_process(
    batch: LabelBatch,
    cam: Optional[Camera],
    depth: Optional[DepthData],
    r_c: float,
    local_min: bool,
) -> LabelBatch:
    """Clean labels with visual input and decide what to keep.

    Visible components far from the cloud are free (label 1) but are not
    kept: the free-space oracle already sets the surface mean there.
    Visible components within r_c of a cloud point are surface contacts
    (label 0) and are kept. Occluded components whose prediction looks
    interior keep both their observed and predicted points. A detected
    stall keeps every observed component; those kept for no other
    reason are the stall rows. Without a camera everything is treated
    as not visible.

    An occluded component that moved freely therefore leaves no data,
    and far from other data the surface there stays at the prior. A
    `NoPenetration` spec does not judge such a component (see its
    docstring), since no kept subset could lift its bound.
    """
    if not r_c > 0.0:
        raise ValueError("r_c must be positive")
    x_next = batch.obs
    n = x_next.shape[0]
    if cam is not None and depth is not None:
        vis = visible(x_next, cam, depth.z)
        if depth.cloud.size:
            diff = x_next[:, None, :] - depth.cloud[None, :, :]
            near = np.min(np.linalg.norm(diff, axis=-1), axis=1) < r_c
        else:
            near = np.zeros(n, dtype=bool)
    else:
        vis = np.zeros(n, dtype=bool)
        near = np.zeros(n, dtype=bool)

    y = batch.y.copy()
    y[vis & ~near] = 1.0
    y[vis & near] = 0.0
    interior = ~(vis & ~near) & (batch.y_hat < 0.0)
    contact_obs = (vis & near) | interior
    stall = bool(local_min) & ~contact_obs
    return replace(
        batch,
        y=y,
        keep_obs=contact_obs | stall,
        keep_pred=interior,
        stall=stall,
    )


def local_minimum(x_next: np.ndarray, x_saved: np.ndarray, window: int,
                  d_min: float) -> bool:
    """Stall test: average per-step, per-component travel since the
    saved state is strictly below d_min."""
    avg = float(np.mean(euclidean(x_next, x_saved))) / float(window)
    return avg < d_min


def _add(points, labels, tags, mask, new_pts, new_labels, tag, masked):
    """Fold rows into one set's arrays, in order, and return new arrays.

    A row within DEDUP_TOL of a row already in the set, one added earlier
    in the same call included, is not added: the nearest such row takes
    its label instead, unless it is a goal seed.
    """
    labels = labels.copy()
    for p, lab, mk in zip(new_pts, new_labels, masked):
        if len(points):
            dist = np.linalg.norm(points - p, axis=1)
            j = int(np.argmin(dist))
            if dist[j] <= DEDUP_TOL:
                if tags[j] != TAG_GOAL:
                    labels[j] = lab
                continue
        points = np.vstack([points, p])
        labels = np.append(labels, lab)
        tags = np.append(tags, tag)
        mask = np.append(mask, mk)
    return points, labels, tags, mask


def _select(points, labels, tags, mask, keep):
    return points[keep], labels[keep], tags[keep], mask[keep]


@dataclass(frozen=True)
class DatasetPair:
    """Memory and active point sets with stall masks.

    Entries are (point, label, tag); tags distinguish observed points,
    predicted points, and goal seeds. Updates return new instances; a
    snapshot handed to the refiner never changes under it.
    """

    mem_points: np.ndarray
    mem_labels: np.ndarray
    mem_tags: np.ndarray
    mem_mask: np.ndarray
    bar_points: np.ndarray
    bar_labels: np.ndarray
    bar_tags: np.ndarray
    bar_mask: np.ndarray

    @classmethod
    def seeded(cls, goals: np.ndarray) -> "DatasetPair":
        """Start a pair holding only the goal seeds (label 1, in both
        sets, never removable)."""
        goals = np.atleast_2d(np.asarray(goals, dtype=float))
        ones = np.ones(goals.shape[0])
        tags = np.full(goals.shape[0], TAG_GOAL)
        off = np.zeros(goals.shape[0], dtype=bool)
        return cls(goals.copy(), ones.copy(), tags.copy(), off.copy(),
                   goals.copy(), ones.copy(), tags.copy(), off.copy())

    @property
    def _mem(self):
        return self.mem_points, self.mem_labels, self.mem_tags, self.mem_mask

    @property
    def _bar(self):
        return self.bar_points, self.bar_labels, self.bar_tags, self.bar_mask

    def update(self, batch: LabelBatch) -> "DatasetPair":
        """Fold one pre-processed transition into both sets: its kept
        observed points, the stall rows with the mask bit set, then its
        kept predicted points, unmasked."""
        keep, keep_pred = batch.keep_obs, batch.keep_pred
        obs = (batch.obs[keep], batch.y[keep], TAG_OBSERVED, batch.stall[keep])
        pred = (batch.pred[keep_pred], batch.y_hat[keep_pred], TAG_PREDICTED,
                np.zeros(int(keep_pred.sum()), dtype=bool))
        return DatasetPair(*_add(*_add(*self._mem, *obs), *pred),
                           *_add(*_add(*self._bar, *obs), *pred))

    def purge_masked(self) -> "DatasetPair":
        """Drop every stall-injected entry from both sets."""
        return DatasetPair(*_select(*self._mem, ~self.mem_mask),
                           *_select(*self._bar, ~self.bar_mask))

    def keep_bar(self, keep: np.ndarray) -> "DatasetPair":
        """Restrict the active set to the given boolean selection; the
        memory set is untouched."""
        keep = np.asarray(keep, dtype=bool)
        return DatasetPair(*self._mem, *_select(*self._bar, keep))

    @property
    def bar_size(self) -> int:
        return self.bar_points.shape[0]

    @property
    def mem_size(self) -> int:
        return self.mem_points.shape[0]
