"""Command-line front end: run one episode, run seed batches, render."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .gpis import OccupancyGrid
from .harness import (EpisodeConfig, EpisodeReport, _parse_value,
                      export_artifacts, render_svg, run_batch, run_episode)

# Parameter-sheet shorthand accepted by --set alongside field names.
_ALIASES = {
    "lambda": "temperature",
    "K": "samples",
    "T": "horizon",
    "Sigma": "noise_cov",
    "C": "collision_c",
    "T_m": "t_m",
    "T_e": "t_e",
    "T_fit": "t_fit",
    "T_CMA": "t_cma",
    "N": "n_cma",
}

_ABLATIONS = {
    "refinement": ("refinement", False),
    "local_min": ("local_min_detection", False),
    "vision": ("vision", False),
    "adaptive": ("adaptive", False),
}


def _apply_sets(cfg: EpisodeConfig, pairs) -> EpisodeConfig:
    fields = {f.name: f for f in dataclasses.fields(EpisodeConfig)}
    updates = {}
    for pair in pairs or []:
        key, _, val = pair.partition("=")
        name = _ALIASES.get(key, key)
        if name not in fields:
            raise ValueError(f"unknown parameter '{key}'")
        updates[name] = _parse_value(name, fields[name].type, val)
    return dataclasses.replace(cfg, **updates)


def _parse_seeds(spec: str) -> list:
    """The seeds of A..B (both ends kept) or A,B,C. Raises ValueError,
    quoting the spec, unless that gives at least one integer seed."""
    try:
        if ".." in spec:
            a, b = spec.split("..")
            seeds = list(range(int(a), int(b) + 1))
        else:
            seeds = [int(s) for s in spec.split(",") if s != ""]
    except ValueError:
        raise ValueError(f"bad seed list '{spec}': want A..B or A,B,C "
                         f"of integers") from None
    if not seeds:
        raise ValueError(f"empty seed list '{spec}'")
    return seeds


def _build_config(args) -> EpisodeConfig:
    cfg = EpisodeConfig.for_scene(args.scene, seed=getattr(args, "seed", 0),
                                  scene_file=args.scene_file)
    for name in getattr(args, "ablate", None) or []:
        field, value = _ABLATIONS[name]
        cfg = dataclasses.replace(cfg, **{field: value})
    return _apply_sets(cfg, getattr(args, "set", None))


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    report = run_episode(cfg)
    if args.out:
        export_artifacts(report, args.out, svg=args.svg)
    print(f"{cfg.scene} seed={cfg.seed} "
          f"{'success' if report.success else 'failure'} "
          f"steps={report.steps_used} wall={report.wall_clock:.1f}s")
    return 0 if report.success else 1


def _cmd_batch(args) -> int:
    cfg = _build_config(args)
    seeds = _parse_seeds(args.seeds)
    summary = run_batch(cfg, seeds, workers=args.workers)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for seed, rep in zip(seeds, summary.reports):
            export_artifacts(rep, out / f"seed_{seed}")
        (out / "batch.json").write_text(
            json.dumps(summary.to_record(), sort_keys=True, indent=2) + "\n")
    rate = summary.success_rate
    steps = ("-" if summary.steps_mean is None
             else f"{summary.steps_mean:.1f} +/- {summary.steps_ci:.1f}")
    print(f"{cfg.scene} seeds={args.seeds} success={summary.successes}/"
          f"{len(seeds)} ({rate:.0%}) steps(given success)={steps}")
    return 0 if summary.successes == len(seeds) else 1


def _cmd_render(args) -> int:
    report_dir = Path(args.report)
    summary = json.loads((report_dir / "summary.json").read_text())
    cfg = EpisodeConfig(**summary["config"])
    records = [json.loads(ln) for ln in
               (report_dir / "steps.jsonl").read_text().splitlines() if ln]
    grid_path = report_dir / "grid.txt"
    grid = OccupancyGrid.from_text(grid_path.read_text()) if grid_path.exists() else None
    report = EpisodeReport(
        success=summary["success"], steps_used=summary["steps_used"],
        records=records, events=[], final_grid=grid, final_datasets=None,
        wall_clock=summary["wall_clock"], config=cfg,
    )
    Path(args.svg).write_text(render_svg(report))
    print(f"wrote {args.svg}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="obsurf")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single episode")
    p_run.add_argument("--scene", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--scene-file")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_run.add_argument("--ablate", action="append", choices=sorted(_ABLATIONS))
    p_run.add_argument("--out")
    p_run.add_argument("--svg", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_batch = sub.add_parser("batch", help="run a batch of seeds")
    p_batch.add_argument("--scene", required=True)
    p_batch.add_argument("--seeds", required=True, metavar="A..B|A,B,C")
    p_batch.add_argument("--scene-file")
    p_batch.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_batch.add_argument("--ablate", action="append", choices=sorted(_ABLATIONS))
    p_batch.add_argument("--workers", type=int, default=1)
    p_batch.add_argument("--out")
    p_batch.set_defaults(fn=_cmd_batch)

    p_render = sub.add_parser("render", help="draw an exported episode")
    p_render.add_argument("--report", required=True)
    p_render.add_argument("--svg", required=True)
    p_render.set_defaults(fn=_cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
