import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsurf import envs, mppi
from obsurf.gp import KernelParams
from obsurf.gpis import Gpis
from obsurf.envs import Box, PegEnv, WorldGeometry, make_scene
from obsurf.mppi import (CostWeights, Goal, MppiConfig, _action_costs,
                         _goal_costs, _norm, _surface_costs, mppi_step,
                         select_component)


W = CostWeights(action=0.5, exploration=1.0, collision=10.0, basin=5.0,
                r_g=0.02)


def straight_traj(start, step, horizon, n=1):
    states = np.zeros((horizon + 1, n, 2))
    for t in range(horizon + 1):
        states[t] = np.asarray(start) + t * np.asarray(step)
    return states


class FreeIntegrator:
    """Obstacle-free rollout of a single point."""

    def __call__(self, starts, cand):
        k, t_hor = cand.shape[:2]
        states = np.empty((k, t_hor + 1) + starts.shape[1:])
        states[:, 0] = starts
        for t in range(t_hor):
            states[:, t + 1] = states[:, t] + cand[:, t, None, :]
        return states


def still(starts, cand):
    """Rollout that never moves: every state is the start."""
    return np.repeat(starts[:, None], cand.shape[1] + 1, axis=1)


class TestGoalCost:
    def test_pinned_at_goal(self):
        goal = Goal(0, np.array((0.1, 0.1)))
        states = straight_traj((0.1, 0.1), (0.0, 0.0), horizon=7)
        assert _goal_costs(states[None], goal, W)[0] == pytest.approx(-5.0 * 7)

    def test_constant_distance(self):
        goal = Goal(0, np.array((1.0, 0.0)))
        states = straight_traj((0.0, 0.0), (0.0, 0.0), horizon=9)
        assert _goal_costs(states[None], goal, W)[0] == pytest.approx(9.0)

    def test_only_the_goal_component_counts(self):
        goal = Goal(1, np.array([1.0, 1.0]))
        states = np.zeros((2, 2, 2))
        states[:, 0] = [5.0, 5.0]       # component 0 is not the goal's
        states[:, 1] = [1.0, 0.5]       # component 1 outside the basin
        val = _goal_costs(states[None], goal, W)[0]
        assert val == pytest.approx(0.5)  # distance only, no basin bonus
        states[:, 1] = [1.0, 1.0]
        assert _goal_costs(states[None], goal, W)[0] == pytest.approx(-5.0)


class TestActionCost:
    def test_zero_controls(self):
        assert _action_costs(np.zeros((1, 6, 2)))[0] == 0.0

    def test_single_norm(self):
        u = np.zeros((4, 2))
        u[2] = [3.0, 4.0]
        assert _action_costs(u[None])[0] == pytest.approx(5.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(5, 2))
        once = _action_costs(u[None])[0]
        assert _action_costs(2 * u[None])[0] == pytest.approx(2 * once)


def tight_surface(points, labels, free=None):
    return Gpis(np.asarray(points, float), np.asarray(labels, float),
                KernelParams(0.05, 1.0, 1e-8), free_space=free)


class TestCollisionCost:
    def test_all_visibly_free(self):
        surf = tight_surface([[0.5, 0.5]], [-1.0],
                             free=lambda q: np.ones(len(q), dtype=bool))
        states = straight_traj((0.5, 0.5), (0.0, 0.0), horizon=6)
        assert _surface_costs(states[None], surf, 0)[0][0] == 0.0

    def test_counts_interior_steps(self):
        surf = tight_surface([[0.0, 0.0], [1.0, 1.0]], [-1.0, 1.0])
        states = straight_traj((1.0, 1.0), (0.0, 0.0), horizon=5)
        states[2:5, 0] = [0.0, 0.0]  # three steps inside the surface
        assert _surface_costs(states[None], surf, 0)[0][0] == pytest.approx(3.0)

    def test_empty_surface_counts_everything(self):
        surf = Gpis(params=KernelParams())
        states = straight_traj((0.2, 0.2), (0.01, 0.0), horizon=8, n=2)
        assert _surface_costs(states[None], surf, 0)[0][0] == pytest.approx(2 * 8)


class TestExplorationCost:
    def test_empty_surface_prior_variance(self):
        surf = Gpis(params=KernelParams(0.1, 1.3, 1e-4))
        states = straight_traj((0.2, 0.2), (0.05, 0.0), horizon=6)
        assert _surface_costs(states[None], surf, 0)[1][0] == pytest.approx(-1.3 * 6)

    def test_visited_data_kills_bonus(self):
        surf = tight_surface([[0.5, 0.5]], [1.0])
        states = straight_traj((0.5, 0.5), (0.0, 0.0), horizon=4)
        _, expl = _surface_costs(states[None], surf, 0)
        assert expl[0] == pytest.approx(0.0, abs=1e-5)

    def test_far_rollout_scores_lower(self):
        surf = tight_surface([[0.5, 0.5]], [1.0])
        near = straight_traj((0.5, 0.5), (0.001, 0.0), horizon=5)
        far = straight_traj((2.0, 2.0), (0.001, 0.0), horizon=5)
        _, expl_far = _surface_costs(far[None], surf, 0)
        _, expl_near = _surface_costs(near[None], surf, 0)
        assert expl_far[0] < expl_near[0]


def two_query_surface_costs(states, surface, component):
    """Reference: the mean over every rollout row from one query, and
    the selected component's variance from a second query on its rows."""
    k, t1, n, d = states.shape
    pts = states[:, 1:].reshape(-1, d)
    mean = surface.predict_mean(pts)
    collision = (mean <= 0.0).reshape(k, -1).sum(axis=1).astype(float)
    sel = states[:, 1:, component, :].reshape(-1, d)
    _, var = surface.predict_many(sel)
    exploration = -var.reshape(k, -1).sum(axis=1)
    return collision, exploration


def _oracle_surface(kind, rng):
    if kind == "observed":
        return envs.ObservedSurface(envs.make_scene("peg_u").env.world)
    free = (lambda q: q[:, 0] > 0.25) if kind.endswith("free") else None
    if kind.startswith("prior"):
        return Gpis(params=KernelParams(0.08, 1.3, 1e-4), free_space=free)
    pts = rng.uniform(0.0, 0.4, (30, 2))
    labels = rng.uniform(-1.0, 1.0, 30)
    return Gpis(pts, labels, KernelParams(0.08, 1.3, 1e-4), free_space=free)


class TestSurfaceCostsOracle:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 8]),
           kind=st.sampled_from(["data", "data+free", "prior", "prior+free",
                                 "observed"]),
           data=st.data())
    def test_one_query_equals_two(self, seed, n, kind, data):
        # One kernel evaluation per step must give the two-query costs
        # bit for bit, for every surface the planner is handed.
        rng = np.random.default_rng(seed)
        component = data.draw(st.integers(0, n - 1))
        surface = _oracle_surface(kind, rng)
        states = rng.uniform(0.0, 0.4, (50, 16, n, 2))
        got = _surface_costs(states, surface, component)
        want = two_query_surface_costs(states, surface, component)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


# The cost terms and the step as they stood before the one-call rollout
# and the column-wise costs, kept verbatim as their exactness oracle.
def _reference_goal_costs(states, goal, w):
    """Distance-to-goal plus success-basin bonus, summed over t=1..T."""
    pos = states[:, 1:, [goal.component], :]  # (K, T, 1, d)
    dist = np.linalg.norm(pos - goal.point[None, None, None, :], axis=-1)
    in_basin = np.all(dist < w.r_g, axis=-1)  # (K, T)
    return dist.sum(axis=(1, 2)) - w.basin * in_basin.sum(axis=1)


def _reference_action_costs(controls):
    return np.linalg.norm(controls, axis=-1).sum(axis=-1)


def _reference_mppi_step(x0, nominal, dynamics, surface, goal, weights, cfg,
                         component, rng):
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    nominal = np.asarray(nominal, dtype=float)
    t_hor, u_dim = nominal.shape
    if t_hor != cfg.horizon:
        raise ValueError("nominal sequence length must match the horizon")
    k = cfg.samples

    std = np.sqrt(cfg.noise_cov)
    eps = rng.standard_normal((k, t_hor, u_dim)) * std
    cand = np.clip(nominal[None] + eps, -cfg.u_max, cfg.u_max)

    states = np.empty((k, t_hor + 1) + x0.shape)
    states[:, 0] = x0[None]
    for t in range(t_hor):
        states[:, t + 1] = dynamics(states[:, t], cand[:, t])

    costs = _reference_goal_costs(states, goal, weights)
    costs += weights.action * _reference_action_costs(cand)
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


def _goal_major_costs(states, components, points, w):
    """The goal cost as it stood for a set of goals, at points (g, d) of
    the state components (g,): distances laid out goal-major."""
    k, t1, _, d = states.shape
    g = len(components)
    dist = np.empty((g, k, t1 - 1)).transpose(1, 2, 0)
    for i, (c, pt) in enumerate(zip(components, points)):
        dist[..., i] = _norm(states[:, 1:, c, j] - pt[j] for j in range(d))
    in_basin = np.all(dist < w.r_g, axis=-1)  # (K, T)
    return dist.sum(axis=(1, 2)) - w.basin * in_basin.sum(axis=1)


def _per_column_candidates(rng, nominal, k, noise_cov, u_min, u_max):
    """The perturbed controls as they stood for per-dimension noise and
    bounds, drawn and clipped one control column at a time."""
    t_hor, u_dim = nominal.shape
    std, u_min, u_max = (np.broadcast_to(np.asarray(a, dtype=float), u_dim)
                         for a in (np.sqrt(noise_cov), u_min, u_max))
    cand = rng.standard_normal((k, t_hor, u_dim))
    for j in range(u_dim):
        col = cand[..., j]
        col *= std[j]
        np.add(nominal[:, j], col, out=col)
        np.clip(col, u_min[j], u_max[j], out=col)
    return cand


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Coordinates: mostly ordinary, a few +-0, NaN or +-inf.
_coord = (st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, np.nan, np.inf,
                                                  -np.inf]))


class TestCostOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
           t_hor=st.integers(1, 16), n=st.integers(1, 8),
           special=st.booleans(), r_g=st.floats(1e-3, 2.0),
           data=st.data())
    def test_goal_costs(self, seed, k, t_hor, n, special, r_g, data):
        # Both the norm formula and the goal-major layout that summed a
        # set of goals give the one goal's cost bit for bit.
        rng = np.random.default_rng(seed)
        goal = Goal(data.draw(st.integers(0, n - 1)),
                    rng.uniform(-0.5, 0.5, 2))
        states = rng.uniform(-1.0, 1.0, (k, t_hor + 1, n, 2))
        if special:
            for _ in range(data.draw(st.integers(1, 4))):
                states[tuple(rng.integers(states.shape))] = data.draw(_coord)
        w = CostWeights(action=0.5, exploration=1.0, collision=10.0,
                        basin=5.0, r_g=r_g)
        with np.errstate(invalid="ignore"):
            want = _reference_goal_costs(states, goal, w)
            major = _goal_major_costs(states, [goal.component],
                                      goal.point[None], w)
        got = _goal_costs(states, goal, w)
        assert _same_bytes(got, want) and _same_bytes(got, major)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
           t_hor=st.integers(1, 16), u_dim=st.sampled_from([1, 2, 3, 4, 6]),
           special=st.booleans(), data=st.data())
    def test_action_costs(self, seed, k, t_hor, u_dim, special, data):
        rng = np.random.default_rng(seed)
        controls = rng.normal(0.0, 0.05, (k, t_hor, u_dim))
        if special:
            for _ in range(data.draw(st.integers(1, 4))):
                controls[tuple(rng.integers(controls.shape))] = data.draw(_coord)
        with np.errstate(invalid="ignore"):
            want = _reference_action_costs(controls)
        assert _same_bytes(_action_costs(controls), want)


class TestPerturbationOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 64),
           horizon=st.integers(1, 16), u_dim=st.sampled_from([1, 2, 4]),
           noise=st.sampled_from([0.0, 1e-4, 0.004, 0.2, 10.0]),
           u_max=st.sampled_from([0.0, 0.02, 1.0]), special=st.booleans(),
           data=st.data())
    def test_scalar_equals_per_column(self, seed, samples, horizon, u_dim,
                                      noise, u_max, special, data):
        # The candidates mppi_step rolls out are the per-column loop's
        # over np.full of the scalar noise and bounds, bit for bit.
        rng = np.random.default_rng(seed)
        nominal = rng.uniform(-0.05, 0.05, (horizon, u_dim))
        if special:
            for _ in range(data.draw(st.integers(1, 4))):
                nominal[tuple(rng.integers(nominal.shape))] = data.draw(_coord)
        seen = []

        def rollout(starts, cand):
            seen.append(cand.copy())
            return still(starts, cand)

        cfg = MppiConfig(temperature=0.1, samples=samples, horizon=horizon,
                         noise_cov=noise, u_max=u_max)
        with np.errstate(invalid="ignore"):
            mppi_step(np.zeros((1, 2)), nominal, rollout, None,
                      Goal(0, np.zeros(2)), W, cfg, 0,
                      np.random.default_rng(seed))
        want = _per_column_candidates(np.random.default_rng(seed), nominal,
                                      samples, np.full(u_dim, noise),
                                      np.full(u_dim, -u_max),
                                      np.full(u_dim, u_max))
        assert _same_bytes(seen[0], want)


def _oracle_step(env, surface, goal, x0, nominal, cfg, seed):
    """Both steps from the same generator state, compared byte for byte."""
    got = mppi_step(x0, nominal, env.nominal, surface, goal, W, cfg, 0,
                    np.random.default_rng(seed))
    want = _reference_mppi_step(x0, nominal,
                                lambda s, u: env.nominal(s, u[:, None])[:, 1],
                                surface, goal, W, cfg, 0,
                                np.random.default_rng(seed))
    for a, b in zip(got, want):
        assert _same_bytes(a, b)
    return got


class TestMppiStepOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 64),
           horizon=st.integers(1, 8), noise=st.sampled_from([0.0, 1e-4, 0.01]),
           surface=st.sampled_from(["none", "prior", "data", "observed"]),
           observable=st.booleans())
    def test_peg(self, seed, samples, horizon, noise, surface, observable):
        # The stock peg scenes have no observable box, so the rollout
        # meets one only here.
        rng = np.random.default_rng(seed)
        boxes = tuple(Box(tuple(lo), tuple(lo + rng.uniform(0.005, 0.1, 2)),
                          observable=observable)
                      for lo in rng.uniform(0.05, 0.3, (3, 2)))
        world = WorldGeometry(boxes, (0.0, 0.0), (0.4, 0.4))
        env = PegEnv(world, rng.uniform(0.0, 0.4, (1, 2)), u_max=0.02)
        cfg = MppiConfig(temperature=0.1, samples=samples, horizon=horizon,
                         noise_cov=noise, u_max=0.015)
        surf = {"none": None, "observed": envs.ObservedSurface(world),
                "prior": Gpis(params=KernelParams(0.08, 1.3, 1e-4)),
                "data": tight_surface(rng.uniform(0.0, 0.4, (6, 2)),
                                      rng.uniform(-1.0, 1.0, 6))}[surface]
        goal = Goal(0, rng.uniform(0.0, 0.4, 2))
        nominal = rng.uniform(-0.03, 0.03, (horizon, 2))
        _oracle_step(env, surf, goal, env.state, nominal, cfg, seed)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 12),
           horizon=st.integers(1, 3), component=st.integers(0, 7))
    def test_cable(self, seed, samples, horizon, component):
        # u_dim = 4, and a goal on any link
        rng = np.random.default_rng(seed)
        env = make_scene("cable_hook").env
        cfg = MppiConfig(temperature=0.1, samples=samples, horizon=horizon,
                         noise_cov=2e-4, u_max=0.01)
        goal = Goal(component, rng.uniform(0.0, 0.5, 2))
        nominal = rng.uniform(-0.03, 0.03, (horizon, 4))
        surf = Gpis(params=KernelParams(0.08, 1.3, 1e-4))
        _oracle_step(env, surf, goal, env.state, nominal, cfg, seed)

    def test_every_rollout_non_finite(self):
        # No finite cost: every sample weighs 1/K, so the step returns
        # the mean candidate, as before.
        cfg = small_cfg(samples=16, horizon=4, noise=0.02)
        goal = Goal(0, np.array((0.1, 0.1)))

        class Nan:
            def nominal(self, starts, cand):
                states = FreeIntegrator()(starts, cand)
                states[:, 1:] = np.nan
                return states

        u0, seq = _oracle_step(Nan(), None, goal, np.zeros((1, 2)),
                               np.zeros((4, 2)), cfg, 3)
        cand = np.clip(np.random.default_rng(3).standard_normal((16, 4, 2))
                       * np.sqrt(cfg.noise_cov), -cfg.u_max, cfg.u_max)
        np.testing.assert_allclose(u0, cand.mean(axis=0)[0], atol=1e-15)
        assert np.isfinite(seq).all()


class TestSelectComponent:
    def test_single_component(self):
        surf = Gpis(params=KernelParams())
        assert select_component(surf, np.array([[0.1, 0.1]])) == 0

    def test_most_interior_wins(self):
        surf = tight_surface([[0.5, 0.5]], [-1.0])
        state = np.array([[0.0, 0.0], [0.2, 0.2], [0.5, 0.5]])
        assert select_component(surf, state) == 2

    def test_tie_break_lowest_index(self):
        surf = Gpis(params=KernelParams(),
                    free_space=lambda q: np.ones(len(q), dtype=bool))
        state = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
        assert select_component(surf, state) == 0


def small_cfg(samples=1, horizon=4, noise=0.0):
    return MppiConfig(temperature=0.1, samples=samples, horizon=horizon,
                      noise_cov=noise, u_max=0.05)


class TestMppiStep:
    def test_single_sample_zero_noise_identity(self):
        nominal = np.tile(np.array([[0.01, -0.02]]), (4, 1))
        goal = Goal(0, np.array((1.0, 1.0)))
        rng = np.random.default_rng(0)
        u0, seq = mppi_step(np.array([[0.0, 0.0]]), nominal, FreeIntegrator(),
                            None, goal, W, small_cfg(), 0, rng)
        np.testing.assert_allclose(u0, nominal[0], atol=1e-15)
        np.testing.assert_allclose(seq[:-1], nominal[1:], atol=1e-15)
        np.testing.assert_allclose(seq[-1], nominal[-1], atol=1e-15)

    def test_moves_toward_goal(self):
        goal = Goal(0, np.array((0.3, 0.0)))
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            u0, _ = mppi_step(np.array([[0.0, 0.0]]),
                              np.zeros((6, 2)), FreeIntegrator(), None, goal,
                              W, small_cfg(samples=64, horizon=6, noise=0.01),
                              0, rng)
            hits += u0[0] > 0
        assert hits >= 95

    def test_equal_cost_samples_average(self):
        # a rollout that stays on the goal, no surface, zero action
        # weight: every sample costs 0
        goal = Goal(0, np.zeros(2))
        w = CostWeights(action=0.0, exploration=0.0, collision=0.0,
                        basin=0.0, r_g=0.02)
        rng = np.random.default_rng(3)
        cfg = small_cfg(samples=2, horizon=3, noise=0.01)
        std = np.sqrt(cfg.noise_cov)
        u0, seq = mppi_step(np.array([[0.0, 0.0]]), np.zeros((3, 2)),
                            still, None, goal, w, cfg, 0, rng)
        rng2 = np.random.default_rng(3)
        noise = rng2.standard_normal((2, 3, 2)) * std
        cand = np.clip(noise, -cfg.u_max, cfg.u_max)
        np.testing.assert_allclose(u0, cand.mean(axis=0)[0], atol=1e-12)

    def test_weights_shift_invariant(self):
        # adding a constant to every sample cost must not change the output;
        # goal offsets shift all costs equally when motion is identical
        goal = Goal(0, np.array((5.0, 5.0)))
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        cfg = small_cfg(samples=16, horizon=4, noise=0.02)
        a, _ = mppi_step(np.array([[0.0, 0.0]]), np.zeros((4, 2)),
                         FreeIntegrator(), None, goal, W, cfg, 0, rng_a)
        w2 = CostWeights(action=W.action, exploration=W.exploration,
                         collision=W.collision, basin=0.0, r_g=W.r_g)
        b, _ = mppi_step(np.array([[0.0, 0.0]]), np.zeros((4, 2)),
                         FreeIntegrator(), None, goal, w2, cfg, 0, rng_b)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_deterministic_given_seed(self):
        goal = Goal(0, np.array((0.2, 0.1)))
        surf = tight_surface([[0.15, 0.05]], [-1.0])
        cfg = small_cfg(samples=32, horizon=5, noise=0.02)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            outs.append(mppi_step(np.array([[0.0, 0.0]]), np.zeros((5, 2)),
                                  FreeIntegrator(), surf, goal, W, cfg, 0,
                                  rng))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_clamped_controls_enter_average(self):
        goal = Goal(0, np.array((0.1, 0.1)))
        w = CostWeights(action=0.0, exploration=0.0, collision=0.0,
                        basin=0.0, r_g=0.02)
        cfg = small_cfg(samples=8, horizon=2, noise=10.0)  # saturates
        rng = np.random.default_rng(5)
        u0, seq = mppi_step(np.array([[0.0, 0.0]]), np.zeros((2, 2)),
                            FreeIntegrator(), None, goal, w, cfg, 0, rng)
        assert np.all(np.abs(u0) <= 0.05 + 1e-12)
        assert np.all(np.abs(seq) <= 0.05 + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MppiConfig(temperature=0.0, samples=1, horizon=1, noise_cov=1.0,
                       u_max=1.0)
        with pytest.raises(ValueError):
            small_cfg(samples=0)

    @pytest.mark.parametrize("field", ["action", "exploration", "collision",
                                       "basin"])
    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_cost_weight_rejected(self, field, bad):
        with pytest.raises(ValueError, match="weights must be >= 0"):
            dataclasses.replace(W, **{field: bad})
        assert getattr(dataclasses.replace(W, **{field: 0.0}), field) == 0.0

    def test_horizon_mismatch_rejected(self):
        goal = Goal(0, np.array((0.1, 0.1)))
        with pytest.raises(ValueError):
            mppi_step(np.array([[0.0, 0.0]]), np.zeros((3, 2)),
                      FreeIntegrator(), None, goal, W, small_cfg(horizon=4),
                      0, np.random.default_rng(0))
