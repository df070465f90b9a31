import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from obsurf import envs, harness
from obsurf.gpis import OccupancyGrid
from obsurf.harness import (EpisodeConfig, export_artifacts, render_svg,
                            rng_streams, run_batch, run_episode, summarize)


FREE_SCENE = """bounds 0.0 0.0 0.4 0.4
goal 0.2 0.3 0.02
start 0.2 0.2
"""

BLOCKED_SCENE = """bounds 0.0 0.0 0.4 0.4
box 0.12 0.23 0.28 0.26 0
goal 0.2 0.33 0.02
start 0.2 0.1
"""


@pytest.fixture
def free_scene_file(tmp_path):
    p = tmp_path / "free.txt"
    p.write_text(FREE_SCENE)
    return str(p)


@pytest.fixture
def blocked_scene_file(tmp_path):
    p = tmp_path / "blocked.txt"
    p.write_text(BLOCKED_SCENE)
    return str(p)


def quick_cfg(scene_file, seed=0, **kw):
    base = dict(max_steps=60, samples=128, horizon=8)
    base.update(kw)
    return EpisodeConfig.for_scene("custom_peg", seed=seed,
                                   scene_file=scene_file, **base)


class TestRunEpisode:
    def test_free_space_sanity(self, free_scene_file):
        rep = run_episode(quick_cfg(free_scene_file))
        assert rep.success
        assert rep.steps_used < 50

    def test_deterministic_logs(self, free_scene_file):
        cfg = quick_cfg(free_scene_file, seed=5)
        a = run_episode(cfg)
        b = run_episode(dataclasses.replace(cfg))
        assert a.log_text() == b.log_text()

    def test_goal_radius_comes_from_scene(self, tmp_path):
        # The success test uses the scene's goal radius, here wider than
        # the 0.02 of the stock pegs. One step moves at most 0.02 * sqrt 2,
        # so the run crosses 0.02 <= dist < 0.05 before it ends.
        p = tmp_path / "wide_goal.txt"
        p.write_text(FREE_SCENE.replace("0.3 0.02", "0.3 0.05"))
        rep = run_episode(quick_cfg(str(p)))
        dists = [r["goal_dist"][0] for r in rep.records]
        assert rep.success and dists[-1] < 0.05
        assert all(d >= 0.05 for d in dists[:-1])

    def test_seed_changes_trajectory(self, free_scene_file):
        a = run_episode(quick_cfg(free_scene_file, seed=1))
        b = run_episode(quick_cfg(free_scene_file, seed=2))
        assert a.log_text() != b.log_text()

    def test_hidden_wall_generates_data(self, blocked_scene_file):
        rep = run_episode(quick_cfg(blocked_scene_file, max_steps=120))
        sizes = [r["bar_size"] for r in rep.records]
        assert sizes[-1] > 1  # contact happened, points were added

    def test_cadences(self, blocked_scene_file):
        cfg = quick_cfg(blocked_scene_file, max_steps=30, t_m=4)
        rep = run_episode(cfg)
        lm_steps = [r["step"] for r in rep.records if r["local_min"]]
        assert all(s % 4 == 0 for s in lm_steps)

    def test_local_min_ablation(self, blocked_scene_file):
        cfg = quick_cfg(blocked_scene_file, max_steps=80,
                        local_min_detection=False)
        rep = run_episode(cfg)
        assert not any(r["local_min"] for r in rep.records)
        if rep.final_datasets is not None:
            assert not rep.final_datasets.bar_mask.any()

    def test_refinement_ablation_never_prunes(self, blocked_scene_file):
        cfg = quick_cfg(blocked_scene_file, max_steps=80, refinement=False)
        rep = run_episode(cfg)
        assert rep.events == []
        sizes = [r["bar_size"] for r in rep.records]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_non_adaptive_has_no_datasets(self, blocked_scene_file):
        cfg = quick_cfg(blocked_scene_file, adaptive=False, max_steps=20)
        rep = run_episode(cfg)
        assert rep.final_datasets is None
        assert all(r["bar_size"] == 0 for r in rep.records)

    def test_observation_noise_stream_independent(self, free_scene_file):
        # turning noise on must not change the controller's random stream:
        # the first action is planned before any noise is consumed
        a = run_episode(quick_cfg(free_scene_file, obs_noise_std=0.0))
        b = run_episode(quick_cfg(free_scene_file, obs_noise_std=1e-6))
        assert a.records[0]["action"] == b.records[0]["action"]

    @pytest.mark.parametrize("scene", ["peg_u", "cable_hook"])
    def test_step_calls_nominal_twice(self, scene, monkeypatch):
        # MPPI rolls its K samples out in one call, and the harness
        # predicts the executed step from the one observed state in
        # another
        cfg = EpisodeConfig.for_scene(scene, max_steps=1)
        env = envs.make_scene(scene).env
        kind, n, c = type(env), env.n, env.control_dim
        inner, calls = kind.nominal, []

        def nominal(self, starts, controls):
            calls.append((np.shape(starts), np.shape(controls)))
            return inner(self, starts, controls)

        monkeypatch.setattr(kind, "nominal", nominal)
        run_episode(cfg)
        k, t_hor = cfg.samples, cfg.horizon
        assert calls == [((k, n, 2), (k, t_hor, c)), ((1, n, 2), (1, 1, c))]


class TestRngStreams:
    def test_streams_differ(self):
        mppi_rng, cma_ss, noise_rng = rng_streams(0)
        a = mppi_rng.standard_normal(4)
        b = noise_rng.standard_normal(4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = rng_streams(9)[0].standard_normal(8)
        b = rng_streams(9)[0].standard_normal(8)
        np.testing.assert_array_equal(a, b)


class TestBatch:
    def test_identical_steps_zero_ci(self):
        reps = []
        for steps in (10, 10, 10):
            reps.append(harness.EpisodeReport(
                success=True, steps_used=steps, records=[], events=[],
                final_grid=None, final_datasets=None, wall_clock=0.0,
                config=EpisodeConfig()))
        s = summarize(reps, [0, 1, 2])
        assert s.steps_mean == 10
        assert s.steps_ci == 0.0

    def test_no_successes_absent_stats(self):
        reps = [harness.EpisodeReport(False, 50, [], [], None, None, 0.0,
                                      EpisodeConfig())]
        s = summarize(reps, [0])
        assert s.success_rate == 0.0
        assert s.steps_mean is None
        assert s.steps_ci is None

    def test_summary_recompute_matches(self, free_scene_file):
        cfg = quick_cfg(free_scene_file)
        s = run_batch(cfg, [0, 1], workers=1)
        again = summarize(s.reports, [0, 1])
        assert again.to_record() == s.to_record()

    def test_worker_count_does_not_change_logs(self, free_scene_file):
        cfg = quick_cfg(free_scene_file)
        seq = run_batch(cfg, [0, 1], workers=1)
        par = run_batch(cfg, [0, 1], workers=2)
        for a, b in zip(seq.reports, par.reports):
            assert a.log_text() == b.log_text()

    def test_pool_workers_run_cable_kernel_on_one_thread(self, monkeypatch):
        monkeypatch.setattr(envs, "_cpus", 2)
        monkeypatch.setattr(harness, "_episode_for_seed", _report_cpus)
        par = run_batch(EpisodeConfig(), [0, 1], workers=2)
        assert [r.cpus for r in par.reports] == [1, 1]
        assert envs._cpus == 2


def _report_cpus(job):
    """A batch job that reports its process's cable thread ceiling."""
    return SimpleNamespace(success=False, steps_used=0, cpus=envs._cpus)


class TestConfigText:
    def test_scene_defaults(self):
        peg = EpisodeConfig.for_scene("peg_u")
        cable = EpisodeConfig.for_scene("cable_hook")
        assert peg.samples == 500 and peg.max_steps == 750
        assert cable.samples == 72 and cable.max_steps == 200
        # the cable keeps the base refinement budget and thresholds
        assert (cable.t_cma, cable.d_min, cable.r_c) == (25, 0.01, 0.01)
        assert cable.vision and not peg.vision

    # A refinement budget too small for CMA-ES, or a negative or NaN
    # noise level, fails when the config is built: not at the first
    # refinement, dozens of steps in, and not as silently noise-free or
    # NaN states.
    @pytest.mark.parametrize("field, bad, least", [
        ("t_cma", 0, 1), ("n_cma", 3, 4), ("obs_noise_std", -0.01, 0.0),
        ("obs_noise_std", float("nan"), 0.0), ("max_steps", -3, 1),
        ("samples", 0, 1), ("horizon", 0, 1)])
    def test_bad_budget_or_noise_rejected(self, field, bad, least):
        with pytest.raises(ValueError, match=f"{field} must be at least"):
            EpisodeConfig(**{field: bad})
        with pytest.raises(ValueError, match=field):
            EpisodeConfig.for_scene("cable_hook", **{field: bad})
        assert getattr(EpisodeConfig(**{field: least}), field) == least

    # A NaN or out-of-range weight, temperature or radius fails when the
    # config is built. Otherwise a NaN d_min turns stall detection off, a
    # NaN r_c turns off contact labels from vision, and an infinite
    # temperature makes every MPPI weight the same, all without an error.
    # The edge value is the config's bound itself, or just past it.
    @pytest.mark.parametrize("field, bad, want, edge", [
        ("d_min", float("nan"), "d_min must be positive", 1e-12),
        ("d_min", 0.0, "d_min must be positive", 1e-12),
        ("r_c", -0.01, "r_c must be positive", 1e-12),
        ("temperature", float("inf"), "temperature must be finite", 1e-12),
        ("alpha", float("nan"), "alpha must be finite and at least 0", 0.0),
        ("beta", -0.5, "beta must be finite and at least 0", 0.0),
        ("eta", float("inf"), "eta must be finite and at least 0", 0.0),
        ("collision_c", -1.0, "collision_c must be finite and at least 0",
         0.0),
        ("noise_cov", float("nan"), "noise_cov must be finite and at least 0",
         0.0),
        ("obs_noise_std", float("inf"), "obs_noise_std must be finite", 0.0)])
    def test_bad_number_rejected(self, field, bad, want, edge):
        with pytest.raises(ValueError, match=want):
            EpisodeConfig(**{field: bad})
        with pytest.raises(ValueError, match=want):
            EpisodeConfig.for_scene("cable_hook", **{field: bad})
        assert getattr(EpisodeConfig(**{field: edge}), field) == edge


class TestExports:
    def test_artifact_files(self, tmp_path, free_scene_file):
        rep = run_episode(quick_cfg(free_scene_file))
        written = export_artifacts(rep, tmp_path / "out", svg=True)
        names = {p.name for p in written}
        assert {"steps.jsonl", "summary.json", "trajectory.svg"} <= names
        log = (tmp_path / "out" / "steps.jsonl").read_text()
        assert len(log.splitlines()) == rep.steps_used
        for line in log.splitlines():
            json.loads(line)

    def test_zero_step_report_exports(self, tmp_path):
        rep = harness.EpisodeReport(False, 0, [], [], None, None, 0.0,
                                    EpisodeConfig(scene="peg_u"))
        written = export_artifacts(rep, tmp_path / "empty")
        log = (tmp_path / "empty" / "steps.jsonl").read_text()
        assert log == ""

    def test_grid_round_trip(self, tmp_path, blocked_scene_file):
        rep = run_episode(quick_cfg(blocked_scene_file, max_steps=30))
        export_artifacts(rep, tmp_path / "g")
        back = OccupancyGrid.from_text((tmp_path / "g" / "grid.txt").read_text())
        assert np.array_equal(back.cells, rep.final_grid.cells)

    def test_svg_contract(self, blocked_scene_file):
        rep = run_episode(quick_cfg(blocked_scene_file, max_steps=25))
        svg = render_svg(rep)
        n_components = len(rep.records[0]["state"])
        assert svg.count("<polyline") == n_components
        assert svg.count('class="obstacle"') == 1
        assert svg.startswith("<svg")
