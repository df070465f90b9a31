"""Episode loop, experiment configuration, batch running, and exports.

One episode wires the whole pipeline together: plan with the sampling
controller, step the true world, compare against the nominal
prediction, label and store the resulting points, check the task
constraints, refine the active set when they fail, and refit the
kernel on a fixed cadence. Everything is driven by a single seed fanned
out into independent counter-based streams, so ablations never disturb
unrelated randomness.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import constraints as cons
from . import contact, envs, mppi, refine, sensor
from .gp import KernelParams, fit_hyperparams
from .gpis import Gpis, OccupancyGrid


# Kernel every episode starts from, and its periodic refit.
KERNEL0 = KernelParams(lengthscale=0.1, outputscale=1.0, noise=1e-4)
FIT_STEPS = 10
FIT_LR = 0.05
# Refit box: marginal likelihood on discrete contact labels prefers
# degenerate tiny lengthscales, so the fit stays workspace-commensurate.
LENGTHSCALE_BOX = (0.06, 0.25)
OUTPUTSCALE_BOX = (0.25, 4.0)

# Cable scenes override these EpisodeConfig defaults; peg scenes keep them.
CABLE_DEFAULTS = dict(
    temperature=0.167, samples=72, horizon=8, noise_cov=0.004,
    alpha=0.627, beta=0.995, eta=100.0, collision_c=10000.0,
    t_m=3, t_e=3, t_fit=2, n_cma=50, max_steps=200, vision=True,
)


@dataclass
class EpisodeConfig:
    scene: str = "peg_u"
    seed: int = 0
    scene_file: Optional[str] = None
    max_steps: int = 750
    # controller
    temperature: float = 0.01
    samples: int = 500
    horizon: int = 15
    noise_cov: float = 0.2  # per-dimension control noise variance
    alpha: float = 0.590
    beta: float = 0.996
    eta: float = 11.03
    collision_c: float = 15.88
    # contact pipeline
    d_min: float = 0.01
    t_m: int = 5
    t_e: int = 0  # 0 disables periodic re-selection (single component)
    t_fit: int = 3
    r_c: float = 0.01
    # refinement
    t_cma: int = 25
    n_cma: int = 20
    # feature switches
    vision: bool = False
    refinement: bool = True
    local_min_detection: bool = True
    adaptive: bool = True
    obs_noise_std: float = 0.0

    def __post_init__(self):
        for name, least in (("max_steps", 1), ("samples", 1), ("horizon", 1),
                            ("t_m", 1), ("t_fit", 1), ("t_e", 0),
                            ("t_cma", 1), ("n_cma", 4),
                            ("obs_noise_std", 0.0)):
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be at least {least}")
        for name in ("temperature", "d_min", "r_c"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for f in dataclasses.fields(self):
            if f.type == "float" and not 0.0 <= getattr(self, f.name) < np.inf:
                raise ValueError(f"{f.name} must be finite and at least 0")

    @classmethod
    def for_scene(cls, scene: str, seed: int = 0, **overrides) -> "EpisodeConfig":
        """Defaults for the scene, CABLE_DEFAULTS when it is a cable, with
        the overrides on top. The kind is read from the built scene (from
        the `scene_file` override when one is given), not from its name."""
        env = _scene(scene, overrides.get("scene_file")).env
        base = CABLE_DEFAULTS if isinstance(env, envs.CableEnv) else {}
        return cls(scene=scene, seed=seed, **{**base, **overrides})


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_value(name: str, typename: str, val: str):
    """The value of --set name=val for a field of type typename. An
    empty value is None, which only an Optional field takes; a boolean
    is one of _BOOLS, in any case; a number that does not parse names
    the field."""
    if val == "":
        if "Optional" not in typename:
            raise ValueError(f"parameter '{name}' needs a value")
        return None
    if "bool" in typename:
        if val.lower() not in _BOOLS:
            raise ValueError(f"parameter '{name}' takes 1/0, true/false, "
                             f"yes/no or on/off, not '{val}'")
        return _BOOLS[val.lower()]
    cast = int if "int" in typename else float if "float" in typename else str
    try:
        return cast(val)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"parameter '{name}' takes {kind}, "
                         f"not '{val}'") from None


def rng_streams(seed: int):
    """Counter-based streams for the controller, the refiner, and the
    observation noise; one global seed fans out so disabling a feature
    never shifts another stream."""
    root = np.random.SeedSequence(seed)
    ss = root.spawn(3)
    gen = lambda s: np.random.Generator(np.random.Philox(s))
    return gen(ss[0]), ss[1], gen(ss[2])


@dataclass
class EpisodeReport:
    success: bool
    steps_used: int
    records: list
    events: list
    final_grid: Optional[OccupancyGrid]
    final_datasets: Optional[contact.DatasetPair]
    wall_clock: float
    config: EpisodeConfig

    def log_text(self) -> str:
        """Per-step structured log, one JSON record per line. Contains
        no timing, so equal runs produce identical bytes."""
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


def _observe(x_true: np.ndarray, std: float, rng) -> np.ndarray:
    if std <= 0.0:
        return x_true.copy()
    return x_true + rng.normal(0.0, std, size=x_true.shape)


def _scene(name: str, scene_file: Optional[str]) -> envs.Scene:
    if scene_file:
        return envs.parse_scene(Path(scene_file).read_text(), name)
    return envs.make_scene(name)


def run_episode(cfg: EpisodeConfig) -> EpisodeReport:
    """Execute the high-level control loop until success or budget."""
    start_time = time.perf_counter()
    scene = _scene(cfg.scene, cfg.scene_file)
    env = scene.env
    n = env.n
    goal = scene.goal
    goal_pts = goal.point[None]
    weights = mppi.CostWeights(action=cfg.alpha, exploration=cfg.beta,
                               collision=cfg.collision_c, basin=cfg.eta,
                               r_g=scene.r_g)
    mcfg = mppi.MppiConfig(
        temperature=cfg.temperature, samples=cfg.samples, horizon=cfg.horizon,
        noise_cov=cfg.noise_cov, u_max=env.u_max,
    )
    mppi_rng, cma_ss, noise_rng = rng_streams(cfg.seed)

    use_vision = cfg.vision and scene.camera is not None
    cam = scene.camera if use_vision else None
    depth = scene.depth if use_vision else None
    free_space = sensor.free_space_oracle(cam, depth) if use_vision else None

    params = KERNEL0
    if cfg.adaptive:
        dp = contact.DatasetPair.seeded(goal_pts)
        surface = Gpis(dp.bar_points, dp.bar_labels, params, free_space)
    else:
        dp = None
        surface = envs.ObservedSurface(env.world)

    x = _observe(env.state, cfg.obs_noise_std, noise_rng)
    x_saved = x.copy()
    nominal_seq = np.zeros((cfg.horizon, env.control_dim))
    sel = 0
    records = []
    events = []
    success = False
    steps_used = 0

    for step in range(1, cfg.max_steps + 1):
        if n > 1 and cfg.t_e and (step - 1) % cfg.t_e == 0:
            sel = mppi.select_component(surface, x)
        u, nominal_seq = mppi.mppi_step(x, nominal_seq, env.nominal, surface,
                                        goal, weights, mcfg, sel, mppi_rng)
        x_true = env.step_truth(u)
        x_next = _observe(x_true, cfg.obs_noise_std, noise_rng)
        x_pred = env.nominal(x[None], u[None, None])[0, 1]

        added = 0
        local_min = False
        refine_rec = None
        if cfg.adaptive:
            batch = contact.gen_labels(x, x_next, x_pred)
            if cfg.local_min_detection and step % cfg.t_m == 0:
                local_min = contact.local_minimum(x_next, x_saved, cfg.t_m,
                                                  cfg.d_min)
                x_saved = x_next.copy()
            batch = contact.pre_process(batch, cam, depth, cfg.r_c, local_min)
            before = dp.bar_size
            dp = dp.update(batch)
            added = dp.bar_size - before
            surface = surface.with_active(dp.bar_points, dp.bar_labels)
            satisfied = cons.all_satisfied(scene.constraint_specs, surface,
                                           x_next, goal_pts)
            if cfg.refinement and not satisfied:
                def factory(pts, labs):
                    return cons.SubsetEvaluator(scene.constraint_specs, pts,
                                                labs, params, free_space,
                                                x_next, goal_pts)
                seed = int(cma_ss.spawn(1)[0].generate_state(1)[0])
                dp, event = refine.refine_contacts(dp, params, factory,
                                                   cfg.t_cma, cfg.n_cma,
                                                   seed, step=step)
                events.append(event)
                refine_rec = event.to_record()
                surface = surface.with_active(dp.bar_points, dp.bar_labels)
            if step % cfg.t_fit == 0 and dp.bar_size >= 2:
                params = fit_hyperparams(dp.bar_points, dp.bar_labels, params,
                                         steps=FIT_STEPS, lr=FIT_LR,
                                         lengthscale_bounds=LENGTHSCALE_BOX,
                                         outputscale_bounds=OUTPUTSCALE_BOX)
                if params != surface.params:  # else keep its caches
                    surface = Gpis(dp.bar_points, dp.bar_labels, params,
                                   free_space)

        dist = np.linalg.norm(x_true[[goal.component]] - goal_pts, axis=1)
        success = bool(np.all(dist < scene.r_g))
        steps_used = step
        records.append({
            "step": step,
            "state": [[float(v) for v in row] for row in x_next],
            "action": [float(v) for v in u],
            "labels_added": int(added),
            "bar_size": int(dp.bar_size) if dp is not None else 0,
            "mem_size": int(dp.mem_size) if dp is not None else 0,
            "local_min": bool(local_min),
            "selected": int(sel),
            "refinement": refine_rec,
            "goal_dist": [float(v) for v in dist],
            "success": success,
        })
        x = x_next
        if success:
            break

    grid = None
    if scene.grid is not None:
        grid = scene.grid.occupancy(surface.predict_mean(scene.grid.centers()))
    return EpisodeReport(
        success=success, steps_used=steps_used, records=records,
        events=events, final_grid=grid, final_datasets=dp,
        wall_clock=time.perf_counter() - start_time, config=cfg,
    )


@dataclass
class BatchSummary:
    seeds: list
    successes: int
    success_rate: float
    steps_mean: Optional[float]
    steps_ci: Optional[float]
    reports: list

    def to_record(self) -> dict:
        return {
            "seeds": self.seeds,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "steps_mean": self.steps_mean,
            "steps_ci95": self.steps_ci,
        }


def summarize(reports: list, seeds: list) -> BatchSummary:
    """Aggregate reports: success rate plus a 95% confidence interval on
    step counts given success (absent when nothing succeeded)."""
    wins = [r.steps_used for r in reports if r.success]
    m = len(wins)
    if m == 0:
        mean = ci = None
    else:
        mean = float(np.mean(wins))
        sd = float(np.std(wins, ddof=1)) if m > 1 else 0.0
        ci = 1.96 * sd / np.sqrt(m)
    return BatchSummary(list(seeds), m, m / len(reports), mean, ci, reports)


def _episode_for_seed(args) -> EpisodeReport:
    cfg, seed = args
    return run_episode(dataclasses.replace(cfg, seed=seed))


def _one_thread() -> None:
    """Pool worker set-up: the workers already share the CPUs out, so
    the cable kernel runs on one thread in each."""
    envs._cpus = 1


def run_batch(cfg: EpisodeConfig, seeds, workers: int = 1) -> BatchSummary:
    """Run one episode per seed; reports merge in seed order regardless
    of worker count."""
    seeds = list(seeds)
    jobs = [(cfg, s) for s in seeds]
    if workers > 1:
        import multiprocessing as mp
        with mp.Pool(workers, initializer=_one_thread) as pool:
            reports = pool.map(_episode_for_seed, jobs)
    else:
        reports = [_episode_for_seed(j) for j in jobs]
    return summarize(reports, seeds)


# -- exports ------------------------------------------------------------

def export_artifacts(report: EpisodeReport, out_dir, svg: bool = False) -> list:
    """Write the per-step log, final grid, and summary; optionally a
    static drawing of the run. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    log_path = out / "steps.jsonl"
    log_path.write_text(report.log_text())
    written.append(log_path)

    if report.final_grid is not None:
        grid_path = out / "grid.txt"
        grid_path.write_text(report.final_grid.to_text())
        written.append(grid_path)

    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps({
        "success": report.success,
        "steps_used": report.steps_used,
        "wall_clock": report.wall_clock,
        "config": dataclasses.asdict(report.config),
    }, sort_keys=True, indent=2) + "\n")
    written.append(summary_path)

    if svg:
        svg_path = out / "trajectory.svg"
        svg_path.write_text(render_svg(report))
        written.append(svg_path)
    return written


def render_svg(report: EpisodeReport) -> str:
    """World, estimated-surface cells, and one polyline per tracked
    component."""
    scene = _scene(report.config.scene, report.config.scene_file)
    lo = np.asarray(scene.env.world.bounds_lo)
    hi = np.asarray(scene.env.world.bounds_hi)
    span = hi - lo
    scale = 800.0 / max(span)
    w, h = span * scale

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):
        return h - (y - lo[1]) * scale  # flip so +y is up

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">',
             f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>']

    if report.final_grid is not None:
        g = report.final_grid
        cell = g.resolution * scale
        sub = []
        for (i, j) in zip(*np.nonzero(g.cells)):
            cx = sx(g.origin[0] + i * g.resolution)
            cy = sy(g.origin[1] + (j + 1) * g.resolution)
            sub.append(f"M{cx:.1f} {cy:.1f}h{cell:.1f}v{cell:.1f}h{-cell:.1f}Z")
        parts.append(f'<path class="levelset" d="{" ".join(sub)}" '
                     'fill="#9ecae1" fill-opacity="0.6"/>')

    for b in scene.env.world.boxes:
        x0, y0 = sx(b.lo[0]), sy(b.hi[1])
        bw = (b.hi[0] - b.lo[0]) * scale
        bh = (b.hi[1] - b.lo[1]) * scale
        color = "#636363" if b.observable else "#d95f0e"
        parts.append(f'<path class="obstacle" d="M{x0:.1f} {y0:.1f}h{bw:.1f}'
                     f'v{bh:.1f}h{-bw:.1f}Z" fill="{color}"/>')

    states = np.array([r["state"] for r in report.records])  # (T, n, 2)
    if states.size:
        for comp in range(states.shape[1]):
            pts = " ".join(f"{sx(p[0]):.1f},{sy(p[1]):.1f}"
                           for p in states[:, comp])
            parts.append(f'<polyline class="trajectory" points="{pts}" '
                         'fill="none" stroke="#31a354" stroke-width="2"/>')

    pt = scene.goal.point
    parts.append(f'<circle cx="{sx(pt[0]):.1f}" cy="{sy(pt[1]):.1f}" '
                 f'r="{scene.r_g * scale:.1f}" fill="none" '
                 'stroke="#e6550d" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
