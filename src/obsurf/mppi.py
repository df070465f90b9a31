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
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Goal:
    """The goal location of one state component."""

    component: int
    point: np.ndarray  # (d,)


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
    noise_cov: float  # control-noise variance of every control dimension
    u_max: float  # every control dimension is clipped to [-u_max, u_max]

    def __post_init__(self):
        if not (self.temperature > 0.0):
            raise ValueError("temperature must be positive")
        if self.samples < 1 or self.horizon < 1:
            raise ValueError("need at least one sample and one step of horizon")
        if self.noise_cov < 0.0:
            raise ValueError("noise variance must be non-negative")


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


def _goal_costs(states: np.ndarray, goal: Goal, w: CostWeights) -> np.ndarray:
    """Distance-to-goal plus success-basin bonus, summed over t=1..T."""
    dist = _norm(states[:, 1:, goal.component, j] - goal.point[j]
                 for j in range(states.shape[-1]))  # (K, T)
    return dist.sum(axis=1) - w.basin * (dist < w.r_g).sum(axis=1)


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
    goal: Goal,
    weights: CostWeights,
    cfg: MppiConfig,
    component: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One planning step.

    rollout maps K starts (K, n, d), here each x0 (n, d), and candidate
    control sequences (K, T, u) to their nominal states (K, T + 1, n, d),
    step 0 being the starts.
    Perturbed controls are clamped to [-u_max, u_max] before rollout, and
    the clamped values are what enter both the action cost and the weighted
    average. Returns the first action of the averaged sequence and the
    shifted sequence (last step repeated).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    nominal = np.asarray(nominal, dtype=float)
    t_hor, u_dim = nominal.shape
    if t_hor != cfg.horizon:
        raise ValueError("nominal sequence length must match the horizon")
    k = cfg.samples

    cand = rng.standard_normal((k, t_hor, u_dim))
    cand *= np.sqrt(cfg.noise_cov)
    cand += nominal
    np.clip(cand, -cfg.u_max, cfg.u_max, out=cand)

    states = rollout(np.broadcast_to(x0, (k,) + x0.shape), cand)

    costs = _goal_costs(states, goal, weights)
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
