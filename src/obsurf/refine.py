"""Constraint-driven refinement of the active dataset.

When the estimated surface violates the task constraints, a binary
keep/remove vector over the active set is optimized to restore
satisfaction while removing as little well-supported data as possible.
The search runs a covariance-matrix-adaptation evolution strategy whose
coordinates are thresholded to bits, with a margin correction that
keeps every bit explorable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .contact import DatasetPair, TAG_GOAL
from .gp import KernelParams, kernel_matrix
from .gpis import inv_norm_cdf

PENALTY = 10.0  # weight of the constraint-violation term in the objective

COV_EIG_FLOOR = 1e-10


def compute_weights(bar_points: np.ndarray, mem_points: np.ndarray,
                    params: KernelParams) -> np.ndarray:
    """Softmax kernel-density weights of active points against memory.

    Active points surrounded by much collected data get large weights,
    biasing the optimizer toward keeping them: repeatedly encountered
    evidence is unlikely to be spurious.
    """
    bar_points = np.atleast_2d(np.asarray(bar_points, dtype=float))
    if bar_points.shape[0] == 0:
        raise ValueError("active set must be non-empty")
    mem_points = np.atleast_2d(np.asarray(mem_points, dtype=float))
    if mem_points.shape[0] == 0:
        score = np.zeros(bar_points.shape[0])
    else:
        score = kernel_matrix(bar_points, mem_points, params).sum(axis=1)
    e = np.exp(score - score.max())
    return e / e.sum()


@dataclass
class RefinementProblem:
    """One keep/remove optimization instance.

    weights is the full-length weight vector; pinned marks entries whose
    bit is fixed at 1 (exterior-labeled points and goal seeds); feasible
    judges the constraint conjunction on a (U, n) stack of full-length
    bit vectors and returns U verdicts, as `SubsetEvaluator.batch` does.
    `run_cmawm` judges each generation's new candidates with one call.
    """

    weights: np.ndarray
    pinned: np.ndarray
    feasible: Callable[[np.ndarray], np.ndarray]


def phi(problem: RefinementProblem, omega: np.ndarray) -> tuple[float, bool]:
    """Objective: negated kept weight plus a flat penalty on violation.

    Returns (value, feasible). For a feasible omega the value is
    -kept + 0.0, so 0.0 - value is the kept weight exactly.
    """
    omega = np.asarray(omega, dtype=bool)
    ok = bool(problem.feasible(omega[None])[0])
    return _value(problem, omega, ok), ok


def _value(problem: RefinementProblem, omega: np.ndarray, ok: bool) -> float:
    """phi's value for a bit vector whose verdict is already known."""
    return float(-(problem.weights @ omega) + PENALTY * (0.0 if ok else 1.0))


def _cma_constants(m: int, popsize: int):
    mu = popsize // 2
    w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w /= w.sum()
    mueff = 1.0 / np.sum(w ** 2)
    c_sigma = (mueff + 2.0) / (m + mueff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mueff - 1.0) / (m + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mueff / m) / (m + 4.0 + 2.0 * mueff / m)
    c_1 = 2.0 / ((m + 1.3) ** 2 + mueff)
    c_mu = min(1.0 - c_1, 2.0 * (mueff - 2.0 + 1.0 / mueff) / ((m + 2.0) ** 2 + mueff))
    chi_n = np.sqrt(m) * (1.0 - 1.0 / (4.0 * m) + 1.0 / (21.0 * m * m))
    return mu, w, mueff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n


def run_cmawm(
    problem: RefinementProblem,
    generations: int,
    popsize: int,
    seed: int,
) -> tuple[np.ndarray, float, bool]:
    """Search for the feasible bit vector keeping the most weight.

    Samples are binarized at 0.5, scored by `phi`, and recombined by
    rank. Each generation's bit vectors not seen before are judged
    together, in order of first appearance (see RefinementProblem);
    scores are cached by bit vector. After each distribution update
    every coordinate's marginal is clipped so the minority bit keeps
    probability >= 1/(popsize * m).
    The best feasible candidate by kept weight is returned; if none is
    found the all-ones vector comes back with found_feasible False.

    Deterministic for a fixed (problem, seed).
    """
    if generations < 1:
        raise ValueError("generations must be >= 1")
    if popsize < 4:
        raise ValueError("population size must be >= 4")
    pinned = np.asarray(problem.pinned, dtype=bool)
    n_all = len(pinned)
    free_idx = np.where(~pinned)[0]
    m = len(free_idx)

    best_omega = np.ones(n_all, dtype=bool)
    best_score = -1.0  # stays -1.0 until a feasible candidate is seen

    def full(bits: np.ndarray) -> np.ndarray:
        omega = np.ones(bits.shape[:-1] + (n_all,), dtype=bool)
        omega[..., free_idx] = bits
        return omega

    if m == 0:
        # Nothing to optimize: the single candidate is the full set.
        value, ok = phi(problem, best_omega)
        return best_omega, (0.0 - value if ok else -1.0), ok

    cache: dict[bytes, tuple[float, bool]] = {}

    mu, w, mueff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n = _cma_constants(m, popsize)
    mean = np.full(m, 0.5)
    step_size = 0.25
    cov = np.eye(m)
    p_sigma = np.zeros(m)
    p_cov = np.zeros(m)
    q_margin = inv_norm_cdf(1.0 - 1.0 / (popsize * m))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    for gen in range(generations):
        cov = 0.5 * (cov + cov.T)
        eigval, eigvec = np.linalg.eigh(cov)
        eigval = np.clip(eigval, COV_EIG_FLOOR, None)
        sqrt_c = eigvec * np.sqrt(eigval)  # B diag(D)
        inv_sqrt_c = (eigvec / np.sqrt(eigval)) @ eigvec.T

        z = rng.standard_normal((popsize, m))
        y = z @ sqrt_c.T
        x = mean[None, :] + step_size * y
        bits = x >= 0.5

        keys = [row.tobytes() for row in bits]
        new = {}  # key -> row of its first appearance
        for k, key in enumerate(keys):
            if key not in cache:
                new.setdefault(key, k)
        if new:
            omegas = full(bits[list(new.values())])
            for key, omega, ok in zip(new, omegas,
                                      map(bool, problem.feasible(omegas))):
                cache[key] = (_value(problem, omega, ok), ok)

        values = np.empty(popsize)
        for k, key in enumerate(keys):
            value, ok = cache[key]
            values[k] = value
            # not -value: a kept weight of 0.0 must not log as -0.0
            kept = 0.0 - value
            if ok and kept > best_score:
                best_omega = full(bits[k])
                best_score = kept

        order = np.argsort(values, kind="stable")[:mu]
        y_w = w @ y[order]
        mean = mean + step_size * y_w

        p_sigma = ((1.0 - c_sigma) * p_sigma
                   + np.sqrt(c_sigma * (2.0 - c_sigma) * mueff)
                   * (inv_sqrt_c @ y_w))
        ps_norm = np.linalg.norm(p_sigma)
        denom = np.sqrt(1.0 - (1.0 - c_sigma) ** (2 * (gen + 1)))
        h_sig = float(ps_norm / denom < (1.4 + 2.0 / (m + 1.0)) * chi_n)
        p_cov = ((1.0 - c_c) * p_cov
                 + h_sig * np.sqrt(c_c * (2.0 - c_c) * mueff) * y_w)

        rank_mu = np.einsum("i,ij,ik->jk", w, y[order], y[order])
        cov = ((1.0 - c_1 - c_mu) * cov
               + c_1 * (np.outer(p_cov, p_cov)
                        + (1.0 - h_sig) * c_c * (2.0 - c_c) * cov)
               + c_mu * rank_mu)
        step_size *= float(np.exp((c_sigma / d_sigma)
                                  * (ps_norm / chi_n - 1.0)))
        step_size = float(np.clip(step_size, 1e-8, 1e4))

        # The mean lives in the bit-encoding box; letting it run past the
        # thresholds only kills exploration without changing any sample's
        # rounding.
        mean = np.clip(mean, 0.0, 1.0)
        # Margin correction: keep both bit values reachable per coordinate.
        sd = step_size * np.sqrt(np.clip(np.diag(cov), COV_EIG_FLOOR, None))
        lo = 0.5 - sd * q_margin
        hi = 0.5 + sd * q_margin
        mean = np.clip(mean, lo, hi)

    return best_omega, best_score, best_score > -1.0


@dataclass(frozen=True)
class RefinementEvent:
    """Structured record of one refinement run.

    phi_star is the kept weight of the returned set, and -1.0 when no
    feasible set was found.
    """

    step: int
    bar_before: int
    bar_after: int
    purged: int
    generations: int
    found_feasible: bool
    phi_star: float
    removed_points: np.ndarray

    def to_record(self) -> dict:
        return {
            "step": self.step,
            "bar_before": self.bar_before,
            "bar_after": self.bar_after,
            "purged": self.purged,
            "generations": self.generations,
            "found_feasible": self.found_feasible,
            "phi_star": self.phi_star,
            "removed": [[float(v) for v in p] for p in self.removed_points],
        }


def refine_contacts(
    dp: DatasetPair,
    params: KernelParams,
    feasible_factory: Callable[[np.ndarray, np.ndarray], object],
    generations: int,
    popsize: int,
    seed: int,
    step: int = -1,
) -> tuple[DatasetPair, RefinementEvent]:
    """Purge stall data, then optimize the keep vector over the
    unpinned points.

    feasible_factory builds the constraint evaluator from the purged
    active set (points, labels), shaped like `SubsetEvaluator`: `batch`
    judges a stack of candidate bit vectors, which index into the set,
    and a call judges one.
    Exterior points (label above one half) and goal seeds are pinned;
    every other point is the optimizer's to keep or drop. The search
    always runs. When it finds no feasible vector, the relaxed set
    (pinned points only) is taken if it is itself feasible; otherwise
    the purged set comes back unchanged with found_feasible False.
    Points removed from the active set stay in memory.
    """
    bar_before = dp.bar_size
    purged_n = int(dp.bar_mask.sum())
    dp = dp.purge_masked()
    if dp.bar_size == 0:
        event = RefinementEvent(step, bar_before, 0, purged_n, 0, False, -1.0,
                                np.zeros((0, dp.bar_points.shape[1])))
        return dp, event

    weights = compute_weights(dp.bar_points, dp.mem_points, params)
    # Observations count as contact evidence when their label is at or
    # below one half (the impeded-motion threshold); only clearly
    # exterior points above it and goal seeds keep their bit fixed at 1.
    # Everything surface-adjacent is the optimizer's to keep or drop.
    pinned = (dp.bar_labels > 0.5) | (dp.bar_tags == TAG_GOAL)
    feasible = feasible_factory(dp.bar_points, dp.bar_labels)
    problem = RefinementProblem(weights=weights, pinned=pinned,
                                feasible=feasible.batch)

    # The search runs even when the relaxed set (pinned points only)
    # fails: dropping a point raises the posterior variance, lowering a
    # confidence bound, and dropping an observed label in (0, 1/2] lowers
    # the mean, so a larger set can pass where the relaxed one fails.
    omega, phi_star, found = run_cmawm(problem, generations, popsize, seed)
    if not found and not pinned.all() and feasible(pinned):
        omega, phi_star, found = pinned, float(weights @ pinned), True

    if found:
        removed = dp.bar_points[~omega]
        out = dp.keep_bar(omega)
    else:
        removed = np.zeros((0, dp.bar_points.shape[1]))
        out = dp
    event = RefinementEvent(step, bar_before, out.bar_size, purged_n,
                            generations, found, phi_star, removed)
    return out, event
