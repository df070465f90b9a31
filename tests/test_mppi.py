import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsurf import envs, mppi
from obsurf.gp import KernelParams
from obsurf.gpis import Gpis
from obsurf.mppi import (CostWeights, GoalSet, MppiConfig, _action_costs,
                         _goal_costs, _surface_costs, mppi_step,
                         select_component)


W = CostWeights(action=0.5, exploration=1.0, collision=10.0, basin=5.0,
                r_g=0.02)


def straight_traj(start, step, horizon, n=1):
    states = np.zeros((horizon + 1, n, 2))
    for t in range(horizon + 1):
        states[t] = np.asarray(start) + t * np.asarray(step)
    return states


class FreeIntegrator:
    """Batched obstacle-free dynamics for a single point."""

    def __call__(self, states, controls):
        return states + controls[:, None, :]


class TestGoalCost:
    def test_pinned_at_goal(self):
        goals = GoalSet.single(0, (0.1, 0.1))
        states = straight_traj((0.1, 0.1), (0.0, 0.0), horizon=7)
        assert _goal_costs(states[None], goals, W)[0] == pytest.approx(-5.0 * 7)

    def test_constant_distance(self):
        goals = GoalSet.single(0, (1.0, 0.0))
        states = straight_traj((0.0, 0.0), (0.0, 0.0), horizon=9)
        assert _goal_costs(states[None], goals, W)[0] == pytest.approx(9.0)

    def test_no_goals_zero(self):
        goals = GoalSet(np.zeros(0, dtype=int), np.zeros((0, 2)))
        states = straight_traj((0.3, 0.3), (0.1, 0.0), horizon=5)
        assert _goal_costs(states[None], goals, W)[0] == 0.0

    def test_basin_requires_all_components(self):
        goals = GoalSet(np.array([0, 1]),
                        np.array([[0.0, 0.0], [1.0, 1.0]]))
        states = np.zeros((2, 2, 2))
        states[:, 0] = [0.0, 0.0]       # component 0 at its goal
        states[:, 1] = [1.0, 0.5]       # component 1 far from its goal
        val = _goal_costs(states[None], goals, W)[0]
        assert val == pytest.approx(0.5)  # distance only, no basin bonus
        states[:, 1] = [1.0, 1.0]
        assert _goal_costs(states[None], goals, W)[0] == pytest.approx(-5.0)


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
                      noise_cov=np.full(2, noise),
                      u_min=np.full(2, -0.05), u_max=np.full(2, 0.05))


class TestMppiStep:
    def test_single_sample_zero_noise_identity(self):
        nominal = np.tile(np.array([[0.01, -0.02]]), (4, 1))
        goals = GoalSet.single(0, (1.0, 1.0))
        rng = np.random.default_rng(0)
        u0, seq = mppi_step(np.array([[0.0, 0.0]]), nominal, FreeIntegrator(),
                            None, goals, W, small_cfg(), 0, rng)
        np.testing.assert_allclose(u0, nominal[0], atol=1e-15)
        np.testing.assert_allclose(seq[:-1], nominal[1:], atol=1e-15)
        np.testing.assert_allclose(seq[-1], nominal[-1], atol=1e-15)

    def test_moves_toward_goal(self):
        goals = GoalSet.single(0, (0.3, 0.0))
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            u0, _ = mppi_step(np.array([[0.0, 0.0]]),
                              np.zeros((6, 2)), FreeIntegrator(), None, goals,
                              W, small_cfg(samples=64, horizon=6, noise=0.01),
                              0, rng)
            hits += u0[0] > 0
        assert hits >= 95

    def test_equal_cost_samples_average(self):
        # no goals, no surface, zero action weight: every sample costs 0
        goals = GoalSet(np.zeros(0, dtype=int), np.zeros((0, 2)))
        w = CostWeights(action=0.0, exploration=0.0, collision=0.0,
                        basin=0.0, r_g=0.02)
        rng = np.random.default_rng(3)
        cfg = small_cfg(samples=2, horizon=3, noise=0.01)
        std = np.sqrt(cfg.noise_cov)
        eps = np.random.Generator(np.random.Philox(3))  # unused, clarity only
        u0, seq = mppi_step(np.array([[0.0, 0.0]]), np.zeros((3, 2)),
                            FreeIntegrator(), None, goals, w, cfg, 0, rng)
        rng2 = np.random.default_rng(3)
        noise = rng2.standard_normal((2, 3, 2)) * std
        cand = np.clip(noise, cfg.u_min, cfg.u_max)
        np.testing.assert_allclose(u0, cand.mean(axis=0)[0], atol=1e-12)

    def test_weights_shift_invariant(self):
        # adding a constant to every sample cost must not change the output;
        # goal offsets shift all costs equally when motion is identical
        goals = GoalSet.single(0, (5.0, 5.0))
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        cfg = small_cfg(samples=16, horizon=4, noise=0.02)
        a, _ = mppi_step(np.array([[0.0, 0.0]]), np.zeros((4, 2)),
                         FreeIntegrator(), None, goals, W, cfg, 0, rng_a)
        w2 = CostWeights(action=W.action, exploration=W.exploration,
                         collision=W.collision, basin=0.0, r_g=W.r_g)
        b, _ = mppi_step(np.array([[0.0, 0.0]]), np.zeros((4, 2)),
                         FreeIntegrator(), None, goals, w2, cfg, 0, rng_b)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_deterministic_given_seed(self):
        goals = GoalSet.single(0, (0.2, 0.1))
        surf = tight_surface([[0.15, 0.05]], [-1.0])
        cfg = small_cfg(samples=32, horizon=5, noise=0.02)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            outs.append(mppi_step(np.array([[0.0, 0.0]]), np.zeros((5, 2)),
                                  FreeIntegrator(), surf, goals, W, cfg, 0,
                                  rng))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_clamped_controls_enter_average(self):
        goals = GoalSet(np.zeros(0, dtype=int), np.zeros((0, 2)))
        w = CostWeights(action=0.0, exploration=0.0, collision=0.0,
                        basin=0.0, r_g=0.02)
        cfg = small_cfg(samples=8, horizon=2, noise=10.0)  # saturates
        rng = np.random.default_rng(5)
        u0, seq = mppi_step(np.array([[0.0, 0.0]]), np.zeros((2, 2)),
                            FreeIntegrator(), None, goals, w, cfg, 0, rng)
        assert np.all(np.abs(u0) <= 0.05 + 1e-12)
        assert np.all(np.abs(seq) <= 0.05 + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MppiConfig(temperature=0.0, samples=1, horizon=1,
                       noise_cov=np.ones(2), u_min=-np.ones(2),
                       u_max=np.ones(2))
        with pytest.raises(ValueError):
            small_cfg(samples=0)

    def test_horizon_mismatch_rejected(self):
        goals = GoalSet.single(0, (0.1, 0.1))
        with pytest.raises(ValueError):
            mppi_step(np.array([[0.0, 0.0]]), np.zeros((3, 2)),
                      FreeIntegrator(), None, goals, W, small_cfg(horizon=4),
                      0, np.random.default_rng(0))
