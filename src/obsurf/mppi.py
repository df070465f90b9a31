"""Sampling-based model-predictive control over the estimated surface.

Each control step perturbs a nominal control sequence with Gaussian
noise, rolls the candidates through the nominal dynamics, scores them
with a four-term cost (goal progress with a success basin, action
magnitude, predicted collision with the surface estimate, and negative
posterior variance as an exploration bonus), and returns the
exponentially-weighted average sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class GoalSet:
    """Goal locations for a subset of state components."""

    components: np.ndarray  # (g,) int indices
    points: np.ndarray  # (g, d)

    @classmethod
    def single(cls, component: int, point) -> "GoalSet":
        return cls(np.array([component], dtype=int),
                   np.atleast_2d(np.asarray(point, dtype=float)))

    @property
    def empty(self) -> bool:
        return len(self.components) == 0


@dataclass(frozen=True)
class CostWeights:
    action: float
    exploration: float
    collision: float
    basin: float
    r_g: float

    def __post_init__(self):
        weights = (self.action, self.exploration, self.collision, self.basin)
        if not (all(w >= 0.0 for w in weights) and self.r_g > 0.0):
            raise ValueError("action, exploration, collision and basin "
                             "weights must be >= 0, r_g > 0")


@dataclass(frozen=True)
class MppiConfig:
    temperature: float
    samples: int
    horizon: int
    noise_cov: np.ndarray  # diagonal of the control-noise covariance
    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        if not (self.temperature > 0.0):
            raise ValueError("temperature must be positive")
        if self.samples < 1 or self.horizon < 1:
            raise ValueError("need at least one sample and one step of horizon")
        if np.any(np.asarray(self.noise_cov) < 0.0):
            raise ValueError("noise covariance diagonal must be non-negative")


# -- cost terms (batched over samples; leading axis K) -----------------

def _norm(cols) -> np.ndarray:
    """Euclidean norm of stacked coordinate columns, summing the squares
    in order as np.linalg.norm does over a short last axis."""
    cols = iter(cols)
    first = next(cols)
    sq = first * first
    for c in cols:
        sq += c * c
    return np.sqrt(sq, out=sq)


def _goal_costs(states: np.ndarray, goals: GoalSet, w: CostWeights) -> np.ndarray:
    """Distance-to-goal plus success-basin bonus, summed over t=1..T."""
    k, t1, _, d = states.shape
    if goals.empty:
        return np.zeros(k)
    g = len(goals.components)
    # (K, T, g) laid out goal-major, as np.linalg.norm leaves it over
    # states[:, 1:, components]: the sum below runs in memory order
    dist = np.empty((g, k, t1 - 1)).transpose(1, 2, 0)
    for i, (c, pt) in enumerate(zip(goals.components, goals.points)):
        dist[..., i] = _norm(states[:, 1:, c, j] - pt[j] for j in range(d))
    in_basin = np.all(dist < w.r_g, axis=-1)  # (K, T)
    return dist.sum(axis=(1, 2)) - w.basin * in_basin.sum(axis=1)


def _action_costs(controls: np.ndarray) -> np.ndarray:
    return _norm(controls[..., j] for j in range(controls.shape[-1])).sum(axis=-1)


def _surface_costs(
    states: np.ndarray,
    surface,
    component: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Collision indicator sum and negative-variance exploration term.

    Collision counts every component whose post-processed mean is <= 0;
    exploration uses the raw posterior variance of the selected
    component only. Both come from one surface query: the rows of the
    selected component are every n-th row of the flattened rollout.
    """
    k, t1, n, d = states.shape
    pts = states[:, 1:].reshape(-1, d)
    mean, var = surface.predict_many(pts, slice(component, None, n))
    collision = (mean <= 0.0).reshape(k, -1).sum(axis=1).astype(float)
    exploration = -var.reshape(k, -1).sum(axis=1)
    return collision, exploration


def select_component(surface, state: np.ndarray) -> int:
    """Index of the component the surface rates most interior (argmin of
    the post-processed mean; ties break to the lowest index)."""
    mean = surface.predict_mean(np.atleast_2d(np.asarray(state, float)))
    return int(np.argmin(mean))


def mppi_step(
    x0: np.ndarray,
    nominal: np.ndarray,
    rollout: Callable[[np.ndarray, np.ndarray], np.ndarray],
    surface,
    goals: GoalSet,
    weights: CostWeights,
    cfg: MppiConfig,
    component: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One planning step.

    rollout maps K starts (K, n, d), here each x0 (n, d), and candidate
    control sequences (K, T, u) to their nominal states (K, T + 1, n, d),
    step 0 being the starts.
    Perturbed controls are clamped to bounds before rollout, and the
    clamped values are what enter both the action cost and the weighted
    average. Returns the first action of the averaged sequence and the
    shifted sequence (last step repeated).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    nominal = np.asarray(nominal, dtype=float)
    t_hor, u_dim = nominal.shape
    if t_hor != cfg.horizon:
        raise ValueError("nominal sequence length must match the horizon")
    k = cfg.samples

    std, u_min, u_max = (np.broadcast_to(np.asarray(a, dtype=float), u_dim)
                         for a in (np.sqrt(cfg.noise_cov), cfg.u_min,
                                   cfg.u_max))
    # nominal + noise, clipped, one control column at a time (scalar
    # bounds are the cheap np.clip)
    cand = rng.standard_normal((k, t_hor, u_dim))
    for j in range(u_dim):
        col = cand[..., j]
        col *= std[j]
        np.add(nominal[:, j], col, out=col)
        np.clip(col, u_min[j], u_max[j], out=col)

    states = rollout(np.broadcast_to(x0, (k,) + x0.shape), cand)

    costs = _goal_costs(states, goals, weights)
    costs += weights.action * _action_costs(cand)
    if surface is not None:
        coll, expl = _surface_costs(states, surface, component)
        costs += weights.collision * coll + weights.exploration * expl
    bad = ~np.isfinite(states.reshape(k, -1)).all(axis=1)
    costs = np.where(bad, np.inf, costs)

    finite = np.isfinite(costs)
    if not finite.any():
        sample_w = np.full(k, 1.0 / k)
    else:
        shifted = (costs - costs[finite].min()) / cfg.temperature
        sample_w = np.where(finite, np.exp(-np.where(finite, shifted, 0.0)), 0.0)
        sample_w /= sample_w.sum()

    averaged = np.einsum("k,ktu->tu", sample_w, cand)
    shifted_seq = np.vstack([averaged[1:], averaged[-1:]])
    return averaged[0], shifted_seq
