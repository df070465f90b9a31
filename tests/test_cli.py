import json

import pytest

from obsurf import envs
from obsurf.cli import _apply_sets, _parse_seeds, main
from obsurf.harness import EpisodeConfig


FREE_SCENE = """bounds 0.0 0.0 0.4 0.4
goal 0.2 0.3 0.02
start 0.2 0.2
"""


@pytest.fixture
def scene_file(tmp_path):
    p = tmp_path / "scene.txt"
    p.write_text(FREE_SCENE)
    return str(p)


def test_run_success_exit_zero(tmp_path, scene_file, capsys):
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--seed", "0", "--set", "max_steps=60",
                 "--set", "K=128", "--set", "T=8",
                 "--out", str(tmp_path / "out"), "--svg"])
    assert code == 0
    assert (tmp_path / "out" / "steps.jsonl").exists()
    assert (tmp_path / "out" / "trajectory.svg").exists()
    assert "success" in capsys.readouterr().out


def test_run_failure_exit_one(scene_file):
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", "max_steps=2", "--set", "K=16"])
    assert code == 1


def test_bad_parameter_exit_two(scene_file, capsys):
    # zeta and r_g are not configuration fields: the scene fixes both.
    for pair in ("bogus=1", "zeta=0.1", "r_g=0.05"):
        code = main(["run", "--scene", "free", "--scene-file", scene_file,
                     "--set", pair])
        assert code == 2
        assert "unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize("pair, field", [
    ("t_m=", "t_m"), ("samples=", "samples"), ("T=", "horizon"),
    ("vision=", "vision")])
def test_empty_value_exit_two(scene_file, capsys, pair, field):
    # Only an Optional field takes an empty value, as None.
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", pair])
    assert code == 2
    assert f"parameter '{field}' needs a value" in capsys.readouterr().err
    cfg = EpisodeConfig(scene_file=scene_file)
    assert _apply_sets(cfg, ["scene_file="]).scene_file is None


@pytest.mark.parametrize("val, want", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("false", False), ("NO", False), ("Off", False)])
def test_bool_values(val, want):
    cfg = _apply_sets(EpisodeConfig(), [f"vision={val}", f"adaptive={val}"])
    assert (cfg.vision, cfg.adaptive) == (want, want)


@pytest.mark.parametrize("pair, field", [
    ("vision=ture", "vision"), ("refinement=2", "refinement"),
    ("adaptive=enabled", "adaptive"), ("local_min_detection=y",
                                       "local_min_detection")])
def test_unknown_bool_value_exit_two(scene_file, capsys, pair, field):
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", pair])
    assert code == 2
    err = capsys.readouterr().err
    assert f"parameter '{field}' takes 1/0, true/false, yes/no or on/off" in err
    assert f"'{pair.partition('=')[2]}'" in err


@pytest.mark.parametrize("pair, want", [
    ("samples=abc", "parameter 'samples' takes an integer, not 'abc'"),
    ("horizon=1.5", "parameter 'horizon' takes an integer, not '1.5'"),
    ("temperature=hot", "parameter 'temperature' takes a number, not 'hot'"),
    ("obs_noise_std=1e-3x",
     "parameter 'obs_noise_std' takes a number, not '1e-3x'")])
def test_bad_number_exit_two(scene_file, capsys, pair, want):
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", pair])
    assert code == 2
    assert want in capsys.readouterr().err
    with pytest.raises(ValueError, match=want):
        _apply_sets(EpisodeConfig(), [pair])


def test_number_values():
    cfg = _apply_sets(EpisodeConfig(), ["samples=12", "T=3",
                                        "temperature=0.5", "r_c=1e-3"])
    assert (cfg.samples, cfg.horizon, cfg.temperature, cfg.r_c) == (
        12, 3, 0.5, 1e-3)


@pytest.mark.parametrize("name, stock, want", [
    ("mycable", "cable_hook", (72, 8, 0.004, True)),
    ("cable_peg", "peg_u", (500, 15, 0.2, False)),
])
def test_scene_file_kind_picks_defaults(tmp_path, name, stock, want):
    # The controller defaults follow what the scene file holds, not the
    # name it runs under.
    path = tmp_path / "scene.txt"
    path.write_text(envs.SCENES[stock])
    out = tmp_path / "out"
    main(["run", "--scene", name, "--scene-file", str(path),
          "--set", "max_steps=1", "--out", str(out)])
    cfg = json.loads((out / "summary.json").read_text())["config"]
    assert (cfg["samples"], cfg["horizon"], cfg["noise_cov"],
            cfg["vision"]) == want


@pytest.mark.parametrize("pair, field", [
    ("t_fit=0", "t_fit"), ("T_m=0", "t_m"), ("t_e=-1", "t_e"),
    ("max_steps=-3", "max_steps"), ("K=0", "samples"), ("horizon=0", "horizon")])
def test_bad_cadence_exit_two(scene_file, capsys, pair, field):
    # The cadences are step moduli: rejected when the config is built,
    # not by a modulo by zero mid-run. So are a step budget below 1, which
    # ran no step and exited 1 as a failure, and no samples or horizon,
    # which the controller rejected without naming the field.
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", pair])
    assert code == 2
    assert f"{field} must be at least" in capsys.readouterr().err


def test_nan_stall_threshold_exit_two(scene_file, capsys):
    # A NaN d_min would turn stall detection off for the whole episode.
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", "d_min=nan"])
    assert code == 2
    assert "d_min must be positive" in capsys.readouterr().err


def test_bad_population_exit_two(scene_file, capsys):
    # CMA-ES needs a population of 4; 3 fails before the episode starts.
    code = main(["run", "--scene", "free", "--scene-file", scene_file,
                 "--set", "N=3"])
    assert code == 2
    assert "n_cma must be at least 4" in capsys.readouterr().err


def test_bad_scene_file_exit_two(tmp_path, capsys):
    # A scene file's NaN or repeated directive fails before the episode
    # starts, naming the line.
    for text, line in ((FREE_SCENE + "goal 0.3 0.3 0.02\n",
                        "line 4 'goal 0.3 0.3 0.02': repeats 'goal'"),
                       (FREE_SCENE.replace("start 0.2 0.2", "start nan 0.2"),
                        "line 3 'start nan 0.2': values must be finite")):
        path = tmp_path / "scene.txt"
        path.write_text(text)
        assert main(["run", "--scene", "free", "--scene-file",
                     str(path)]) == 2
        assert line in capsys.readouterr().err


def test_unknown_scene_exit_two():
    assert main(["run", "--scene", "peg_zzz"]) == 2


def test_batch_and_render(tmp_path, scene_file, capsys):
    out = tmp_path / "batch"
    code = main(["batch", "--scene", "free", "--scene-file", scene_file,
                 "--seeds", "0..2", "--set", "max_steps=60",
                 "--set", "K=128", "--set", "T=8", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "batch.json").read_text())
    assert summary["successes"] == 3
    svg_path = tmp_path / "view.svg"
    code = main(["render", "--report", str(out / "seed_1"),
                 "--svg", str(svg_path)])
    assert code == 0
    assert svg_path.read_text().startswith("<svg")


@pytest.mark.parametrize("spec", ["5..2", ","])
def test_batch_empty_seed_list_exit_two(scene_file, capsys, spec):
    code = main(["batch", "--scene", "free", "--scene-file", scene_file,
                 "--seeds", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert "empty seed list" in err and f"'{spec}'" in err


def test_batch_seed_list_and_ablate(tmp_path, scene_file):
    code = main(["batch", "--scene", "free", "--scene-file", scene_file,
                 "--seeds", "0,2", "--ablate", "refinement",
                 "--set", "max_steps=60", "--set", "K=64", "--set", "T=8"])
    assert code == 0


@pytest.mark.parametrize("spec", ["0..0..1", "a..3", "1..b", "1.5,2", "0,x",
                                  "..", "3..", "1,,2..4"])
def test_batch_malformed_seed_list_exit_two(scene_file, capsys, spec):
    code = main(["batch", "--scene", "free", "--scene-file", scene_file,
                 "--seeds", spec])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad seed list '{spec}'" in err


@pytest.mark.parametrize("spec, want", [
    ("0..3", [0, 1, 2, 3]), ("4..4", [4]), ("-1..1", [-1, 0, 1]),
    ("5,2,9", [5, 2, 9]), ("7,", [7])])
def test_seed_lists(spec, want):
    assert _parse_seeds(spec) == want
