import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage
from scipy.linalg import cho_factor, cho_solve

import obsurf
from obsurf import constraints as cons
from obsurf.constraints import (NoPenetration, PathExists, SubsetEvaluator,
                                all_satisfied, connected_components,
                                no_penetration, path_exists)
from obsurf.gp import (GpSolve, KernelParams, SolverError, factor_subsets,
                       kernel_matrix, noisy_gram)
from obsurf.gpis import FREE_LABEL, Gpis, GridSpec, OccupancyGrid


TIGHT = KernelParams(lengthscale=0.04, outputscale=1.0, noise=1e-6)


def flood_fill_oracle(cells):
    """Iterative 8-connected flood fill over free cells."""
    labels = np.zeros(cells.shape, dtype=int)
    nxt = 0
    for i in range(cells.shape[0]):
        for j in range(cells.shape[1]):
            if cells[i, j] or labels[i, j]:
                continue
            nxt += 1
            stack = [(i, j)]
            labels[i, j] = nxt
            while stack:
                a, b = stack.pop()
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        na, nb = a + da, b + db
                        if (0 <= na < cells.shape[0] and 0 <= nb < cells.shape[1]
                                and not cells[na, nb] and not labels[na, nb]):
                            labels[na, nb] = nxt
                            stack.append((na, nb))
    return labels


def partitions_equal(a, b):
    """Same grouping of free cells, label names ignored."""
    free = a > 0
    if not np.array_equal(free, b > 0):
        return False
    mapping = {}
    for x, y in zip(a[free].ravel(), b[free].ravel()):
        if mapping.setdefault(x, y) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def reach_oracle(cells, start, goals):
    """The path verdict on one grid by breadth-first search from the
    start cell over free cells, every cell of the 3^d - 1 around a cell
    a neighbour; start and goals are flat C-order cell indices."""
    free = ~np.asarray(cells, dtype=bool)
    start = np.unravel_index(start, free.shape)
    if not free[start]:
        return False
    seen = {start}
    frontier = [start]
    steps = [d for d in itertools.product((-1, 0, 1), repeat=free.ndim)
             if any(d)]
    while frontier:
        cell = frontier.pop()
        for d in steps:
            nxt = tuple(c + dc for c, dc in zip(cell, d))
            if (nxt not in seen and all(0 <= c < n for c, n in
                                        zip(nxt, free.shape))
                    and free[nxt]):
                seen.add(nxt)
                frontier.append(nxt)
    return all(np.unravel_index(g, free.shape) in seen for g in goals)


def reach(stack, start, goals):
    return cons._reach(stack, start, np.asarray(goals, dtype=np.int64))


def serpentine(h, w, vertical=True, closed=False):
    """An (h, w) grid whose free corridor winds through it all: walls
    every other column (or row), each open at alternate ends, so the
    path from cell 0 to the far corner turns at every wall. `closed`
    shuts the middle wall's opening."""
    if not vertical:
        return serpentine(w, h, True, closed).T.copy()
    cells = np.zeros((h, w), dtype=bool)
    for c in range(1, w, 2):
        cells[:, c] = True
        if h > 1 and not (closed and c == w // 2 | 1):
            cells[0 if (c // 2) % 2 else h - 1, c] = False
    return cells


@st.composite
def reach_case(draw, shape=None, stack=st.integers(1, 4)):
    """A stack of different grids with one shape, its start cell and
    goal cells: free-cell shares from 0 to 1 per grid, a start or a goal
    that may sit on an occupied cell or on the start, 0 to 4 goals."""
    if shape is None:
        shape = (draw(st.integers(1, 50)),
                 draw(st.one_of(st.sampled_from([1, 63, 64, 65, 128, 129, 130]),
                                st.integers(1, 130))))
    n = int(np.prod(shape))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    u = draw(stack)
    shares = [draw(st.sampled_from([0.0, 0.4, 0.5, 0.6, 1.0]) | st.floats(0, 1))
              for _ in range(u)]
    cells = np.stack([rng.random(shape) >= p for p in shares])
    start = draw(st.integers(0, n - 1))
    goals = draw(st.lists(st.integers(0, n - 1), max_size=4))
    if draw(st.booleans()):
        goals.append(start)
    if goals and draw(st.booleans()):
        cells.reshape(u, -1)[:, goals[0]] = draw(st.booleans())
    if draw(st.booleans()):
        cells.reshape(u, -1)[:, start] = draw(st.booleans())
    return cells, start, goals


class TestReachKernel:
    """`_reach`, the compiled flood fill, against a breadth-first search."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=reach_case())
    def test_matches_search(self, case):
        cells, start, goals = case
        want = [reach_oracle(c, start, goals) for c in cells]
        assert reach(cells, start, goals).tolist() == want

    @pytest.mark.parametrize("h,w", [(5, 9), (40, 40), (3, 131), (50, 129),
                                     (20, 64), (9, 65), (7, 128)])
    @pytest.mark.parametrize("vertical", [True, False], ids=["cols", "rows"])
    def test_winding_corridor(self, h, w, vertical):
        # every turn of the corridor needs its own sweep, and the rows
        # run across word boundaries
        cells = serpentine(h, w, vertical)
        far = np.flatnonzero(~cells)[-1]
        for start, goal in ((0, far), (far, 0)):
            assert reach(cells[None], start, [goal]).tolist() == [True]
            assert reach_oracle(cells, start, [goal])
        closed = serpentine(h, w, vertical, closed=True)
        assert reach(closed[None], 0, [far]).tolist() == [False]
        assert not reach_oracle(closed, 0, [far])

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (63, 64), (64, 63),
                                     (127, 128), (128, 127)])
    def test_diagonal_step_joins(self, a, b):
        # one free cell per row, diagonal neighbours, across a word's edge
        cells = np.ones((3, 130), dtype=bool)
        cells[0, a] = cells[1, b] = cells[2, a] = False
        assert reach(cells[None], a, [2 * 130 + a]).tolist() == [True]
        assert reach(cells[None], 2 * 130 + a, [a, 130 + b]).tolist() == [True]
        cells[1, b] = True
        assert reach(cells[None], a, [2 * 130 + a]).tolist() == [False]

    @pytest.mark.parametrize("shape", [(40, 63), (40, 64), (40, 65),
                                       (30, 129), (30, 130), (5, 5, 5),
                                       (12, 12, 12), (3, 9, 70)])
    @pytest.mark.parametrize("pattern", ["checkerboard", "comb", "stripes"])
    def test_many_short_runs(self, shape, pattern):
        # every row holds many short runs, in 2-D at widths around a
        # 64-bit word's edge and in 3-D, where rows join across planes
        idx = np.indices(shape)
        cells = {"checkerboard": idx.sum(0) % 2 == 1,
                 "comb": (idx[-1] % 2 == 1) & (idx[:-1].sum(0) > 0),
                 "stripes": idx.sum(0) % 3 == 2}[pattern]
        first, last = np.flatnonzero(~cells)[[0, -1]]
        assert reach(cells[None], first, [last]).tolist() == [
            reach_oracle(cells, first, [last])]
        # shut the last free cell in: a goal reached first must not stop
        # the fill before the other goal is judged
        around = tuple(slice(max(i - 1, 0), i + 2)
                       for i in np.unravel_index(last, shape))
        shut = cells.copy()
        shut[around] = True
        shut.flat[last] = False
        free = np.flatnonzero(~shut)
        goals = [free[len(free) // 2], last]
        assert reach(shut[None], first, goals).tolist() == [
            reach_oracle(shut, first, goals)] == [False]

    def test_every_goal_must_be_inside(self):
        cells = np.zeros((4, 70), dtype=bool)
        cells[:, 66] = True
        assert reach(cells[None], 0, [65, 3 * 70 + 1]).tolist() == [True]
        assert reach(cells[None], 0, [65, 69, 3 * 70 + 1]).tolist() == [False]
        assert reach(cells[None], 0, [69, 65]).tolist() == [False]

    def test_no_goals_asks_a_free_start(self):
        cells = np.array([[[False, True]], [[True, False]]])
        assert reach(cells, 0, []).tolist() == [True, False]

    def test_grids_past_three_dimensions_rejected(self):
        with pytest.raises(ValueError):
            reach(np.zeros((1, 2, 2, 2, 2), dtype=bool), 0, [])


class TestConnectedComponents:
    def test_all_free(self):
        grid = OccupancyGrid((0, 0), 1.0, np.zeros((4, 4), dtype=bool))
        labels = connected_components(grid)
        assert (labels > 0).all()
        assert len(np.unique(labels)) == 1

    def test_full_column_splits(self):
        cells = np.zeros((5, 5), dtype=bool)
        cells[2, :] = True
        labels = connected_components(OccupancyGrid((0, 0), 1.0, cells))
        free_labels = np.unique(labels[labels > 0])
        assert len(free_labels) == 2

    def test_diagonal_connectivity(self):
        cells = np.array([[False, True], [True, False]])
        labels = connected_components(OccupancyGrid((0, 0), 1.0, cells))
        assert labels[0, 0] == labels[1, 1]

    def test_matches_flood_fill_on_random_grids(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            shape = (int(rng.integers(2, 13)), int(rng.integers(2, 13)))
            cells = rng.random(shape) < rng.uniform(0.2, 0.7)
            got = connected_components(OccupancyGrid((0, 0), 1.0, cells))
            want = flood_fill_oracle(cells)
            assert partitions_equal(got, want)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            connected_components(OccupancyGrid((0, 0), 1.0,
                                               np.zeros((0, 0), dtype=bool)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.one_of(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                           st.tuples(st.integers(1, 5), st.integers(1, 5),
                                     st.integers(1, 5))),
           fill=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
    def test_same_ids_as_plain_labelling(self, shape, fill, seed):
        # the stack-aware labelling of one grid gives the very ids a
        # plain full-neighborhood labelling of that grid gives
        cells = np.random.default_rng(seed).random(shape) < fill
        want, _ = ndimage.label(~cells, structure=np.ones((3,) * len(shape)))
        got = connected_components(OccupancyGrid((0,) * len(shape), 1.0, cells))
        assert np.array_equal(got, want)


class TestStackSeparation:
    @pytest.mark.parametrize("spec", [
        GridSpec((0.0, 0.0), (0.5, 0.5), 0.1),
        GridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), 0.1),
    ], ids=["2d", "3d"])
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_no_path_across_stack(self, spec, data):
        # grid 0 walls the start off from the goal; grid 1 is all free,
        # so the two free cells of grid 0 meet only through grid 1
        start, goal = (np.ravel_multi_index(
            spec.cell_index(np.full(len(spec.lo), x)), spec.shape)
            for x in (0.05, 0.45))
        walled = np.zeros(spec.shape, dtype=bool)
        walled[2] = True
        stack = np.stack([walled, np.zeros(spec.shape, dtype=bool)])
        assert reach(stack, start, [goal]).tolist() == [False, True]
        assert reach(stack[::-1], start, [goal]).tolist() == [True, False]
        # drawn stacks of different grids: each judged as if alone
        cells, start, goals = data.draw(reach_case(spec.shape, st.integers(2, 6)))
        got = reach(cells, start, goals).tolist()
        assert got == [reach_oracle(c, start, goals) for c in cells]
        assert got == [reach(c[None], start, goals)[0] for c in cells]


def ring_points(center, radius, n):
    ang = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=1)


def ring_dataset(drop: int = 0, seed: int = 0):
    """Goal seed, exterior scatter, and an interior ring around the goal
    (optionally with `drop` ring points removed)."""
    goal = np.array([0.2, 0.2])
    ring = ring_points(goal, 0.08, 12)[drop:]
    rng = np.random.default_rng(seed)
    trail = np.stack([np.linspace(0.05, 0.13, 6)] * 2, axis=1)
    scatter = rng.uniform(0.0, 0.4, (25, 2))
    ext = np.vstack([trail, scatter])
    ext = ext[np.min(np.linalg.norm(ext[:, None, :] - ring[None], axis=2),
                     axis=1) > 0.03]
    ext = ext[np.linalg.norm(ext - goal[None], axis=1) > 0.10]
    pts = np.vstack([goal[None], ext, ring])
    labels = np.concatenate([[1.0], np.ones(len(ext)), -np.ones(len(ring))])
    tags = np.concatenate([[2], np.zeros(len(ext) + len(ring), dtype=int)])
    return pts, labels, tags, goal


class TestPathExists:
    spec = GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)
    params = KernelParams(0.07, 1.0, 1e-4)

    def test_no_interior_evidence(self):
        g = Gpis(np.array([[0.3, 0.3], [0.1, 0.1]]), np.array([1.0, 1.0]),
                 TIGHT)
        assert path_exists(g, np.array([0.1, 0.1]), np.array([[0.3, 0.3]]),
                           self.spec)

    def test_enclosing_ring_blocks(self):
        pts, labels, _, goal = ring_dataset(drop=0)
        g = Gpis(pts, labels, self.params)
        assert not path_exists(g, np.array([0.05, 0.05]), goal[None], self.spec)

    def test_open_ring_passes(self):
        pts, labels, _, goal = ring_dataset(drop=3)
        g = Gpis(pts, labels, self.params)
        grid = g.occupancy_grid(self.spec)
        want = flood_fill_oracle(grid.cells)
        si = self.spec.cell_index(np.array([0.05, 0.05]))
        gi = self.spec.cell_index(goal)
        assert want[si] == want[gi] != 0
        assert path_exists(g, np.array([0.05, 0.05]), goal[None], self.spec)

    def test_occupied_endpoint_is_violation(self):
        g = Gpis(np.array([[0.1, 0.1]]), np.array([-1.0]), TIGHT)
        # everywhere-else mean is ~0 which also counts occupied, but the
        # state cell being occupied must already decide it
        assert not path_exists(g, np.array([0.1, 0.1]),
                               np.array([[0.3, 0.3]]), self.spec)


class TestPathExistsKernel:
    params = KernelParams(0.07, 1.0, 1e-4)

    @pytest.mark.parametrize("drop", [0, 3])
    def test_no_labelling_and_agrees_with_oracle(self, drop):
        pts, labels, _, goal = ring_dataset(drop=drop)
        g = Gpis(pts, labels, self.params)
        specs = [GridSpec((0.0, 0.0), (0.4, 0.4), r) for r in (0.01, 0.02)]
        states = [np.array([0.05, 0.05]), goal, np.array([0.2, 0.12])]
        with mock.patch.object(ndimage, "label", wraps=ndimage.label) as label:
            got = [path_exists(g, x, goal[None], spec)
                   for spec in specs for x in states]
        assert label.call_count == 0
        want = [_ref_grid_path_exists(g.occupancy_grid(spec), spec, x, goal[None])
                for spec in specs for x in states]
        assert got == want
        assert want[0] == (drop > 0)

    def test_cli_import_leaves_out_scipy_ndimage(self):
        src = str(Path(obsurf.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, obsurf.cli; sys.exit(sorted(m for m in "
                "sys.modules if m.startswith('scipy.ndimage')) or None)")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestNoPenetration:
    def test_visible_override_passes(self):
        g = Gpis(np.array([[0.1, 0.1]]), np.array([-1.0]), TIGHT,
                 free_space=lambda q: np.ones(len(q), dtype=bool))
        assert no_penetration(g, np.array([[0.1, 0.1]]), 0.5)

    def test_component_on_interior_point_fails(self):
        g = Gpis(np.array([[0.1, 0.1]]), np.array([-1.0]), TIGHT)
        assert not no_penetration(g, np.array([[0.1, 0.1], [0.9, 0.9]]), 0.5)

    def test_quantile_oracle_case(self):
        # prior query point: mean 0, sd 1; the bound flips sign with zeta
        g = Gpis(np.array([[0.0, 0.0]]), np.array([1.0]),
                 KernelParams(0.01, 1.0, 1e-6))
        x = np.array([[0.35, 0.35]])  # far: essentially the prior
        mu, var = g.predict_many(x)
        lcbhi = mu[0] + scipy.stats.norm.ppf(0.5) * np.sqrt(var[0])
        lcblo = mu[0] + scipy.stats.norm.ppf(0.4) * np.sqrt(var[0])
        assert lcbhi > 0 > lcblo
        assert no_penetration(g, x, 0.5)
        assert not no_penetration(g, x, 0.4)

    def test_zeta_half_equals_mean_sign_check(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0, 0.4, (12, 2))
        labels = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        g = Gpis(pts, labels, KernelParams(0.08, 1.0, 1e-4))
        for _ in range(200):
            x = rng.uniform(0, 0.4, (1, 2))
            mu, _ = g.predict_many(x)
            assert no_penetration(g, x, 0.5) == bool(mu[0] > 0)


class TestConjunction:
    def test_requires_nonempty(self):
        g = Gpis(params=TIGHT)
        with pytest.raises(ValueError):
            all_satisfied([], g, np.array([[0.1, 0.1]]), np.zeros((1, 2)))

    def test_conjunction_fails_if_any_fails(self):
        g = Gpis(np.array([[0.1, 0.1]]), np.array([-1.0]), TIGHT)
        sat = NoPenetration(zeta=0.5)
        state_ok = np.array([[0.3, 0.3]])
        state_bad = np.array([[0.1, 0.1]])
        goals = np.array([[0.35, 0.35]])
        assert cons.satisfied(sat, g, state_ok, goals) in (True, False)
        assert not all_satisfied(
            [sat, NoPenetration(zeta=0.4)], g, state_bad, goals)

    def test_zeta_validation(self):
        with pytest.raises(ValueError):
            NoPenetration(zeta=1.2)


class TestSubsetEvaluator:
    def test_matches_fresh_gpis(self):
        rng = np.random.default_rng(5)
        spec = GridSpec((0.0, 0.0), (0.4, 0.4), 0.02)
        pts = rng.uniform(0.05, 0.35, (18, 2))
        labels = np.where(rng.random(18) < 0.4, -1.0, rng.uniform(0, 1, 18))
        state = np.array([[0.05, 0.05]])
        goals = np.array([[0.33, 0.33]])
        params = KernelParams(0.07, 1.0, 1e-4)
        specs = [PathExists(grid=spec), NoPenetration(zeta=0.4)]
        ev = SubsetEvaluator(specs, pts, labels, params, None, state, goals)
        for _ in range(25):
            keep = rng.random(18) < 0.7
            sub = Gpis(pts[keep], labels[keep], params)
            want = all_satisfied(specs, sub, state, goals)
            assert ev(keep) == want

    def test_respects_free_space_override(self):
        pts = np.array([[0.1, 0.1]])
        labels = np.array([-1.0])
        oracle = lambda q: np.ones(len(q), dtype=bool)  # noqa: E731
        ev = SubsetEvaluator([NoPenetration(zeta=0.4)], pts, labels, TIGHT,
                             oracle, np.array([[0.1, 0.1]]),
                             np.zeros((1, 2)))
        assert ev(np.array([True]))


class TestNoPenetrationSupport:
    def test_component_at_prior_is_not_judged(self):
        # the bare bound fails at the prior; the spec does not judge there
        g = Gpis(np.array([[0.0, 0.0]]), np.array([1.0]),
                 KernelParams(0.01, 1.0, 1e-6))
        x = np.array([[0.35, 0.35]])
        assert not no_penetration(g, x, 0.4)
        assert all_satisfied([NoPenetration(zeta=0.4)], g, x, x)

    def test_supported_component_still_judged(self):
        g = Gpis(np.array([[0.1, 0.1]]), np.array([-1.0]), TIGHT)
        state = np.array([[0.1, 0.1], [0.9, 0.9]])
        assert not all_satisfied([NoPenetration(zeta=0.4)], g, state, state)

    def test_support_threshold(self):
        # one datum: var / outputscale = 1 - rho^2 for kernel correlation rho
        params = KernelParams(0.1, 4.0, 1e-9)
        g = Gpis(np.array([[0.0, 0.0]]), np.array([0.05]), params)
        spec = [NoPenetration(zeta=0.4)]
        near, far = np.array([[0.03, 0.0]]), np.array([[0.09, 0.0]])
        for x, judged in ((near, True), (far, False)):
            _, var = g.predict_many(x)
            assert (var[0] <= cons.SUPPORT_VAR_RATIO * params.outputscale) == judged
            assert not no_penetration(g, x, 0.4)
            assert all_satisfied(spec, g, x, x) == (not judged)

    def test_evaluator_matches_when_dropping_unsupports(self):
        # dropping the only datum near a component leaves it unjudged;
        # the evaluator must agree with a fresh surface on every subset
        params = KernelParams(0.06, 4.0, 1e-4)
        pts = np.array([[0.38, 0.42], [0.30, 0.27], [0.305, 0.25]])
        labels = np.array([1.0, -0.5, 0.45])
        state = np.array([[0.30, 0.25], [0.05, 0.45]])
        goals = pts[:1]
        specs = [NoPenetration(zeta=0.4)]
        ev = SubsetEvaluator(specs, pts, labels, params, None, state, goals)
        for mask in range(8):
            keep = np.array([(mask >> i) & 1 for i in range(3)], dtype=bool)
            sub = Gpis(pts[keep], labels[keep], params)
            assert ev(keep) == all_satisfied(specs, sub, state, goals)
        assert ev(np.array([True, False, False]))
        assert not ev(np.array([True, True, False]))


ENCLOSURE_GRID = GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)
ENCLOSURE_STATE = np.array([[0.05, 0.05], [0.3, 0.05]])
ENCLOSURE_GOAL = np.array([[0.2, 0.2]])
ENCLOSURE_SIZE = 1 + 5 + 12 + 3


def penetrating_enclosure(rot: float, spin: float):
    """Goal seed, an exterior trail, an interior ring closing off the
    goal, and three spurious interior points 0.012 from the tracked
    point; ring and spurious points are turned by the given angles."""
    goal = ENCLOSURE_GOAL[0]
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False) + rot
    ring = goal + 0.08 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    trail = np.stack([np.linspace(0.05, 0.13, 6)] * 2, axis=1)[1:]
    a = spin + np.array([0.0, 2.1, 4.2])
    spurious = ENCLOSURE_STATE[0] + 0.012 * np.stack([np.cos(a), np.sin(a)],
                                                      axis=1)
    pts = np.vstack([goal[None], trail, ring, spurious])
    labels = np.concatenate([[1.0], np.ones(len(trail)),
                             -np.ones(len(ring) + len(spurious))])
    return pts, labels


class TestSubsetEvaluatorProperty:
    params = KernelParams(0.07, 1.0, 1e-4)
    specs = [PathExists(grid=ENCLOSURE_GRID, component=0),
             NoPenetration(zeta=0.4)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rot=st.floats(0.0, 2 * np.pi / 12), spin=st.floats(0.0, 2 * np.pi),
           keep=st.lists(st.booleans(), min_size=ENCLOSURE_SIZE,
                         max_size=ENCLOSURE_SIZE))
    @example(rot=0.0, spin=0.0, keep=[False] * ENCLOSURE_SIZE)
    @example(rot=0.0, spin=0.0, keep=[True] * ENCLOSURE_SIZE)
    def test_matches_fresh_gpis_on_any_subset(self, rot, spin, keep):
        pts, labels = penetrating_enclosure(rot, spin)
        keep = np.array(keep, dtype=bool)
        ev = SubsetEvaluator(self.specs, pts, labels, self.params, None,
                             ENCLOSURE_STATE, ENCLOSURE_GOAL)
        fresh = Gpis(pts[keep], labels[keep], self.params)
        assert ev(keep) == all_satisfied(self.specs, fresh, ENCLOSURE_STATE,
                                         ENCLOSURE_GOAL)


# -- reference: the evaluator as it was before it sliced one Gram -------
# Kept verbatim (names prefixed) as an exactness oracle: the GP solve
# built from the points through scipy's checked cho_factor/cho_solve,
# and the evaluator that builds one such solve per subset.

_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def _ref_cholesky(ky: np.ndarray):
    for jit in _JITTERS:
        a = ky + jit * np.eye(len(ky)) if jit else ky
        try:
            return cho_factor(a, lower=True)
        except np.linalg.LinAlgError:
            continue
        except ValueError as exc:  # cho_factor's finiteness check
            raise SolverError("non-finite entries in Gram matrix") from exc
    raise SolverError(f"Gram matrix not positive definite after jitter {max(_JITTERS)}")


class RefGpSolve:
    def __init__(self, points: np.ndarray, labels: np.ndarray, params: KernelParams):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.labels = np.asarray(labels, dtype=float).ravel()
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError("points and labels must have equal length")
        self.params = params
        ky = kernel_matrix(self.points, self.points, params)
        diag = np.arange(ky.shape[0])
        ky[diag, diag] += params.noise
        self._cho = _ref_cholesky(ky)
        self.alpha = cho_solve(self._cho, self.labels)
        self._kinv = None

    @property
    def kinv(self) -> np.ndarray:
        if self._kinv is None:
            self._kinv = cho_solve(self._cho, np.eye(self.points.shape[0]))
        return self._kinv

    def posterior(self, ks: np.ndarray, var_rows):
        mean = ks @ self.alpha
        if var_rows is None:
            return mean, None
        kv = np.ascontiguousarray(ks[var_rows])
        var = self.params.outputscale - np.einsum("qm,qm->q", kv @ self.kinv, kv)
        np.clip(var, 0.0, None, out=var)
        return mean, var


def _ref_grid_path_exists(grid, spec, state_point, goals) -> bool:
    labels = connected_components(grid)
    start = labels[spec.cell_index(state_point)]
    if start == 0:
        return False
    for g in np.atleast_2d(np.asarray(goals, dtype=float)):
        if labels[spec.cell_index(g)] != start:
            return False
    return True


class RefSubsetEvaluator:
    def __init__(self, specs, points, labels, params, free_space, state, goals):
        if not specs:
            raise ValueError("constraint set must not be empty")
        self.specs = list(specs)
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.labels = np.asarray(labels, dtype=float).ravel()
        self.params = params
        self.state = np.atleast_2d(np.asarray(state, dtype=float))
        self.goals = np.atleast_2d(np.asarray(goals, dtype=float))

        self._jobs = []
        for spec in self.specs:
            q = spec.grid.centers() if isinstance(spec, PathExists) else self.state
            vis = (None if free_space is None
                   else np.asarray(free_space(q), dtype=bool))
            self._jobs.append((spec, vis, kernel_matrix(q, self.points, params)))

    def __call__(self, keep: np.ndarray) -> bool:
        """Evaluate the conjunction on the subset selected by `keep`."""
        idx = np.where(np.asarray(keep, dtype=bool))[0]
        solve = RefGpSolve(self.points[idx], self.labels[idx], self.params)
        for spec, vis, kq in self._jobs:
            is_path = isinstance(spec, PathExists)
            mean, var = solve.posterior(kq[:, idx],
                                        None if is_path else slice(None))
            if vis is not None:
                mean = np.where(vis, FREE_LABEL, mean)
            if is_path:
                ok = _ref_grid_path_exists(spec.grid.occupancy(mean), spec.grid,
                                           self.state[spec.component], self.goals)
            else:
                ok = cons._supported_bound_holds(mean, var, spec.zeta,
                                                 self.params.outputscale)
            if not ok:
                return False
        return True


# -- the oracle test ----------------------------------------------------

ORACLE_PARAMS = KernelParams(0.07, 1.0, 1e-4)
# noise 0 leaves a near-duplicate pair's Gram singular, so factorizing
# any subset holding both needs the jitter ladder
ORACLE_NOISELESS = KernelParams(0.07, 1.0, 0.0)
ORACLE_MAX = ENCLOSURE_SIZE + 1


def near_duplicate_enclosure(rot, spin):
    """penetrating_enclosure plus a copy of its first ring point moved
    by 1e-12, which the kernel cannot tell from the point itself."""
    pts, labels = penetrating_enclosure(rot, spin)
    ring0 = 6  # goal seed, five trail points, then the ring
    return (np.vstack([pts, pts[ring0] + 1e-12]),
            np.append(labels, labels[ring0]))


def visible_near_state(q):
    """Free-space oracle: everything within 0.06 of the tracked point."""
    return np.linalg.norm(q - ENCLOSURE_STATE[0], axis=1) < 0.06


class TestSubsetEvaluatorOracle:
    spec_sets = {
        "path": [PathExists(grid=ENCLOSURE_GRID, component=0)],
        "penetration": [NoPenetration(zeta=0.4)],
        # NoPenetration listed first: the evaluator judges it last
        "both": [NoPenetration(zeta=0.4),
                 PathExists(grid=ENCLOSURE_GRID, component=0)],
    }

    def test_near_duplicate_pair_needs_jitter(self):
        pts, _ = near_duplicate_enclosure(0.0, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(noisy_gram(pts, ORACLE_NOISELESS))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rot=st.floats(0.0, 2 * np.pi / 12), spin=st.floats(0.0, 2 * np.pi),
           near_dup=st.booleans(), specs=st.sampled_from(sorted(spec_sets)),
           free=st.booleans(),
           bits=st.lists(st.booleans(), min_size=ORACLE_MAX,
                         max_size=ORACLE_MAX))
    @example(rot=0.0, spin=0.0, near_dup=False, specs="both", free=False,
             bits=[False] * ORACLE_MAX)
    @example(rot=0.0, spin=0.0, near_dup=True, specs="both", free=True,
             bits=[False] * ORACLE_MAX)
    @example(rot=0.0, spin=0.0, near_dup=False, specs="both", free=False,
             bits=[True] * ORACLE_MAX)
    @example(rot=0.0, spin=0.0, near_dup=True, specs="both", free=True,
             bits=[True] * ORACLE_MAX)
    def test_matches_reference(self, rot, spin, near_dup, specs, free, bits):
        if near_dup:
            pts, labels = near_duplicate_enclosure(rot, spin)
            params = ORACLE_NOISELESS
        else:
            pts, labels = penetrating_enclosure(rot, spin)
            params = ORACLE_PARAMS
        keep = np.array(bits[:len(pts)], dtype=bool)
        specs = self.spec_sets[specs]
        oracle = visible_near_state if free else None
        args = (specs, pts, labels, params, oracle, ENCLOSURE_STATE,
                ENCLOSURE_GOAL)
        solved = []

        def recorded(*solve_args):
            out = factor_subsets(*solve_args)
            solved.append(out)
            return out

        with mock.patch.object(cons, "factor_subsets", recorded):
            got = SubsetEvaluator(*args)(keep)
        assert got == RefSubsetEvaluator(*args)(keep)

        # the kernel's solve of the evaluator's sliced Gram is the solve
        # built from the points, bit for bit
        idx = np.where(keep)[0]
        ((alphas, factors, _),) = solved
        ref = RefGpSolve(pts[idx], labels[idx], params)
        assert np.array_equal(alphas[0, idx], ref.alpha)
        assert not alphas[0, ~keep].any()
        if factors is None:  # PathExists alone reads only the alphas
            return
        assert np.array_equal(factors[0], ref._cho[0])
        sliced = GpSolve.factored(pts[idx], labels[idx], params, factors[0],
                                  alphas[0, idx])
        queries = np.vstack([ENCLOSURE_GRID.centers()[::7], ENCLOSURE_STATE])
        ks = kernel_matrix(queries, pts[idx], params)
        for got, want in zip(sliced.posterior(ks, slice(None)),
                             ref.posterior(ks, slice(None))):
            assert np.array_equal(got, want)


def _ref_rung(ky: np.ndarray) -> int:
    """Index of the jitter with which _ref_cholesky factors ky."""
    for rung, jit in enumerate(_JITTERS):
        try:
            cho_factor(ky + jit * np.eye(len(ky)) if jit else ky, lower=True)
            return rung
        except np.linalg.LinAlgError:
            continue
    raise SolverError("no jitter works")


class TestFactorSubsets:
    """The subset kernel alone: every alpha, factor and jitter rung of a
    random stack of subsets is LAPACK's, called on each subset alone."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30),
           u=st.integers(1, 10), dups=st.integers(0, 3),
           noise=st.sampled_from([0.0, 1e-6, 1e-4]),
           lengthscale=st.floats(0.02, 0.3), density=st.floats(0.0, 1.0))
    @example(seed=0, n=2, u=3, dups=1, noise=0.0, lengthscale=0.07,
             density=1.0)
    def test_each_subset_matches_lapack(self, seed, n, u, dups, noise,
                                        lengthscale, density):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0.0, 0.4, (n, 2))
        # near-duplicate pairs, which need jitter when noise is 0
        for k in range(min(dups, n // 2)):
            pts[n - 1 - k] = pts[k] + 1e-12
        labels = rng.uniform(-1.0, 1.0, n)
        params = KernelParams(lengthscale, 1.0, noise)
        keeps = rng.random((u, n)) < density
        keeps[0] = True  # the whole set, as GpSolve factors it

        alphas, factors, jittered = factor_subsets(noisy_gram(pts, params),
                                                   labels, keeps, True)
        assert alphas.shape == (u, n) and len(factors) == u
        rungs = []
        for keep, alpha, factor in zip(keeps, alphas, factors):
            idx = np.flatnonzero(keep)
            ref = RefGpSolve(pts[idx], labels[idx], params)
            # equal factors also mean the same jitter was added
            assert np.array_equal(alpha[idx], ref.alpha)
            assert not alpha[~keep].any()
            assert factor.shape == (len(idx),) * 2
            assert np.array_equal(factor, ref._cho[0])
            rungs.append(_ref_rung(noisy_gram(pts[idx], params)) if len(idx)
                         else 0)
        assert jittered == sum(r > 0 for r in rungs)

    def test_reads_the_lower_triangle(self):
        # LAPACK reads the lower triangle of the layout scipy hands it,
        # so whatever the upper triangle holds, the bits are scipy's
        pts, labels = penetrating_enclosure(0.2, 0.4)
        ky = noisy_gram(pts, ORACLE_PARAMS)
        ky[np.triu_indices(len(ky), 1)] = np.random.default_rng(3).uniform(
            -2.0, 2.0, len(ky) * (len(ky) - 1) // 2)
        keeps = np.random.default_rng(5).random((6, len(pts))) < 0.7
        alphas, factors, _ = factor_subsets(ky, labels, keeps, True)
        for keep, alpha, factor in zip(keeps, alphas, factors):
            idx = np.flatnonzero(keep)
            want = cho_factor(ky[np.ix_(idx, idx)], lower=True)
            assert np.array_equal(factor, want[0])
            assert np.array_equal(alpha[idx], cho_solve(want, labels[idx]))

    def test_empty_subset_skips_lapack(self):
        # dpotrf rejects lda = 0, so an empty subset never reaches it:
        # alphas 0 and empty factors, as a solve of no points gives
        pts, labels = penetrating_enclosure(0.0, 0.0)
        keeps = np.zeros((2, len(pts)), dtype=bool)
        alphas, factors, jittered = factor_subsets(
            noisy_gram(pts, ORACLE_PARAMS), labels, keeps, True)
        assert not alphas.any() and jittered == 0
        ref = RefGpSolve(pts[:0], labels[:0], ORACLE_PARAMS)
        assert [f.shape for f in factors] == [ref._cho[0].shape] * 2

    def test_no_keeps_is_the_whole_set(self):
        # GpSolve's one-set solve passes keeps None, not a row of ones
        pts, labels = penetrating_enclosure(0.3, 1.0)
        pts[-1] = pts[0] + 1e-12  # a near-duplicate, which needs jitter
        ky = noisy_gram(pts, KernelParams(ORACLE_PARAMS.lengthscale, 1.0,
                                          0.0))
        for n in (0, 1, len(pts)):
            sub, y = ky[:n, :n], labels[:n]
            alphas, factors, jittered = factor_subsets(sub, y, None, True)
            want = factor_subsets(sub, y, np.ones((1, n), bool), True)
            assert np.array_equal(alphas, want[0]) and jittered == want[2]
            assert len(factors) == 1 and factors[0].shape == (n, n)
            assert np.array_equal(factors[0], want[1][0])
        assert jittered == 1

    def test_alphas_alone_match(self):
        pts, labels = penetrating_enclosure(0.3, 1.0)
        keeps = np.random.default_rng(4).random((9, len(pts))) < 0.6
        ky = noisy_gram(pts, ORACLE_PARAMS)
        with_factors = factor_subsets(ky, labels, keeps, True)
        alphas, factors, jittered = factor_subsets(ky, labels, keeps, False)
        assert factors is None
        assert np.array_equal(alphas, with_factors[0])
        assert jittered == with_factors[2]


class TestSubsetEvaluatorErrors:
    """A failing subset raises what solving it alone raises, in the same
    order of checks; what an unkept point holds is never looked at."""

    specs = [NoPenetration(zeta=0.4)]

    def _raises_as_reference(self, pts, labels, params, keep, error, match):
        args = (self.specs, pts, labels, params, None, ENCLOSURE_STATE,
                ENCLOSURE_GOAL)
        # a passing row first: the first failing row raises
        stack = np.array([np.zeros_like(keep), keep, keep])
        with pytest.raises(error, match=match) as got:
            SubsetEvaluator(*args).batch(stack)
        with pytest.raises(error) as want:
            RefSubsetEvaluator(*args)(keep)
        assert str(got.value) == str(want.value)

    def test_non_finite_kept_gram_entry(self):
        pts, labels = penetrating_enclosure(0.0, 0.0)
        pts[4] = np.nan
        labels[7] = np.nan  # the Gram is checked first
        self._raises_as_reference(pts, labels, ORACLE_PARAMS,
                                  np.ones(len(pts), dtype=bool), SolverError,
                                  "non-finite entries in Gram matrix")

    def test_no_jitter_works(self):
        # two copies of one point at outputscale 1e20: the Gram is
        # 1e20 * ones((2, 2)), which no jitter up to 1e-4 changes
        pts = np.array([[0.05, 0.05], [0.05, 0.05], [0.3, 0.3]])
        labels = np.array([-1.0, -1.0, 1.0])
        params = KernelParams(0.07, 1e20, 0.0)
        self._raises_as_reference(pts, labels, params,
                                  np.array([True, True, False]), SolverError,
                                  "not positive definite after jitter 0.0001")
        ev = SubsetEvaluator(self.specs, pts, labels, params, None,
                             ENCLOSURE_STATE, ENCLOSURE_GOAL)
        ev.batch(np.array([[True, False, True], [False, True, True]]))

    def test_non_finite_kept_label(self):
        pts, labels = penetrating_enclosure(0.0, 0.0)
        labels[7] = np.inf
        self._raises_as_reference(pts, labels, ORACLE_PARAMS,
                                  np.ones(len(pts), dtype=bool), ValueError,
                                  "must not contain infs or NaNs")

    def test_unkept_non_finite_point_and_label(self):
        pts, labels = penetrating_enclosure(0.0, 0.0)
        bad_pts, bad_labels = pts.copy(), labels.copy()
        bad_pts[4] = np.nan
        bad_labels[7] = np.nan
        keeps = np.random.default_rng(2).random((12, len(pts))) < 0.7
        keeps[:, [4, 7]] = False
        keeps[0] = True
        keeps[0, [4, 7]] = False
        args = (ORACLE_PARAMS, None, ENCLOSURE_STATE, ENCLOSURE_GOAL)
        got = SubsetEvaluator(self.specs, bad_pts, bad_labels, *args).batch(keeps)
        want = SubsetEvaluator(self.specs, pts, labels, *args).batch(keeps)
        assert np.array_equal(got, want)


class TestJitterCount:
    def test_counts_candidates_that_needed_jitter(self):
        pts, labels = near_duplicate_enclosure(0.0, 0.0)
        rng = np.random.default_rng(6)
        keeps = rng.random((20, len(pts))) < 0.8
        keeps[:2] = True  # both copies of the ring point kept
        keeps[2:4, -1] = False  # the copy dropped
        ev = SubsetEvaluator(TestSubsetEvaluatorOracle.spec_sets["both"],
                             pts, labels, ORACLE_NOISELESS, None,
                             ENCLOSURE_STATE, ENCLOSURE_GOAL)
        assert ev.jittered == 0
        ev.batch(keeps)
        want = sum(_ref_rung(noisy_gram(pts[k], ORACLE_NOISELESS)) > 0
                   for k in keeps)
        assert ev.jittered == want >= 2
        ev(keeps[0])
        assert ev.jittered == want + 1

    def test_well_conditioned_needs_none(self):
        pts, labels = penetrating_enclosure(0.0, 0.0)
        ev = SubsetEvaluator([NoPenetration(zeta=0.4)], pts, labels,
                             ORACLE_PARAMS, None, ENCLOSURE_STATE,
                             ENCLOSURE_GOAL)
        ev.batch(np.random.default_rng(1).random((30, len(pts))) < 0.7)
        assert ev.jittered == 0


# -- a stack of candidates against the reference, one by one ------------

# One drawn keep row: none kept, all kept, or any bits.
KEEP_ROW = st.one_of(st.just(False), st.just(True),
                     st.lists(st.booleans(), min_size=ORACLE_MAX,
                              max_size=ORACLE_MAX))


class TestSubsetEvaluatorBatch:
    spec_sets = TestSubsetEvaluatorOracle.spec_sets

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rot=st.floats(0.0, 2 * np.pi / 12), spin=st.floats(0.0, 2 * np.pi),
           near_dup=st.booleans(), specs=st.sampled_from(sorted(spec_sets)),
           free=st.booleans(),
           rows=st.lists(KEEP_ROW, min_size=1, max_size=16),
           copies=st.lists(st.integers(0, 15), max_size=4))
    @example(rot=0.0, spin=0.0, near_dup=True, specs="both", free=False,
             rows=[False, True, [True] * ORACLE_MAX, False], copies=[1, 0])
    @example(rot=0.0, spin=0.0, near_dup=False, specs="path", free=True,
             rows=[True, False], copies=[0, 1, 0, 1])
    def test_each_row_matches_reference(self, rot, spin, near_dup, specs,
                                        free, rows, copies):
        if near_dup:
            pts, labels = near_duplicate_enclosure(rot, spin)
            params = ORACLE_NOISELESS
        else:
            pts, labels = penetrating_enclosure(rot, spin)
            params = ORACLE_PARAMS
        n = len(pts)
        keeps = [np.full(n, r) if isinstance(r, bool)
                 else np.array(r[:n], dtype=bool) for r in rows]
        keeps += [keeps[c % len(keeps)] for c in copies]  # duplicate rows
        stack = np.array(keeps)
        args = (self.spec_sets[specs], pts, labels, params,
                visible_near_state if free else None, ENCLOSURE_STATE,
                ENCLOSURE_GOAL)
        ev = SubsetEvaluator(*args)
        ref = RefSubsetEvaluator(*args)
        got = ev.batch(stack)
        assert got.shape == (len(stack),) and got.dtype == bool
        for keep, verdict in zip(stack, got):
            assert verdict == ref(keep) == ev(keep)
