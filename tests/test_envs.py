import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsurf import envs, sensor
from obsurf.constraints import NoPenetration, PathExists, connected_components
from obsurf.envs import (Box, CableEnv, CONTACT_GAP, ObservedSurface, PegEnv,
                         WorldGeometry, dump_scene, make_scene, parse_scene,
                         push_out, slide_move)
from obsurf.gpis import OccupancyGrid


def simple_world(boxes=()):
    return WorldGeometry(tuple(boxes), (0.0, 0.0), (0.4, 0.4))


# A point near box k: fractions of its gap-expanded extent, reaching
# past it on every side.
_near_box = st.tuples(st.integers(0, 8), st.floats(-0.3, 1.3),
                      st.floats(-0.3, 1.3))


class TestPushOutProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cells=st.lists(st.tuples(st.integers(0, 8), st.floats(0, 1),
                                    st.floats(0, 1), st.floats(0, 1),
                                    st.floats(0, 1)),
                          min_size=1, max_size=6, unique_by=lambda c: c[0]),
           gap=st.floats(0.0, 0.01),
           pts=st.lists(st.tuples(_near_box, _near_box), min_size=1,
                        max_size=20))
    def test_no_point_left_inside(self, cells, gap, pts):
        # One box per cell of a 3 x 3 grid of 0.1 cells, at least 0.005
        # from the cell edge once expanded by gap, so the expanded boxes
        # are pairwise disjoint.
        boxes = np.array([
            [0.1 * (c % 3) + 0.015 + 0.02 * a, 0.1 * (c // 3) + 0.015 + 0.02 * b,
             0.1 * (c % 3) + 0.085 - 0.02 * u, 0.1 * (c // 3) + 0.085 - 0.02 * v]
            for c, a, b, u, v in cells])
        lo = boxes[:, :2] - gap
        hi = boxes[:, 2:] + gap

        def place(near):
            k, s, t = near
            k %= len(boxes)
            return lo[k] + np.array([s, t]) * (hi[k] - lo[k])

        p = np.array([place(a) for a, _ in pts])
        ref = np.array([place(b) for _, b in pts])
        for out in (push_out(p, boxes, gap), push_out(p, boxes, gap, ref)):
            inside = np.all((out[:, None] > lo) & (out[:, None] < hi), axis=2)
            assert not inside.any()


class TestSlideMove:
    world = simple_world([Box((0.2, 0.1), (0.25, 0.3), observable=False)])

    def rows(self):
        return self.world.rows(observable_only=False)

    def test_free_translation(self):
        p = slide_move(np.array([[0.1, 0.2]]), np.array([[0.05, 0.0]]),
                       self.rows(), (0.0, 0.0), (0.4, 0.4))
        np.testing.assert_allclose(p, [[0.15, 0.2]])

    def test_stops_at_wall(self):
        p = slide_move(np.array([[0.1, 0.2]]), np.array([[0.3, 0.0]]),
                       self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(0.2 - CONTACT_GAP)

    def test_diagonal_keeps_lateral(self):
        p = slide_move(np.array([[0.15, 0.2]]), np.array([[0.2, 0.05]]),
                       self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(0.2 - CONTACT_GAP)
        assert p[0, 1] == pytest.approx(0.25)

    def test_workspace_containment(self):
        p = slide_move(np.array([[0.39, 0.39]]), np.array([[0.1, 0.1]]),
                       self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert np.all(p <= 0.4 - CONTACT_GAP)

    def test_no_tunneling_through_thin_box(self):
        thin = simple_world([Box((0.2, 0.0), (0.205, 0.4))])
        p = slide_move(np.array([[0.1, 0.2]]), np.array([[0.3, 0.0]]),
                       thin.rows(False), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(0.2 - CONTACT_GAP)

    def test_resting_contact_slides_along_face(self):
        x = 0.2 - CONTACT_GAP
        p = slide_move(np.array([[x, 0.2]]), np.array([[0.05, 0.05]]),
                       self.rows(), (0.0, 0.0), (0.4, 0.4))
        assert p[0, 0] == pytest.approx(x)
        assert p[0, 1] == pytest.approx(0.25)


class TestPegEnv:
    def test_determinism(self):
        a = make_scene("peg_u").env
        b = make_scene("peg_u").env
        u = np.array([0.013, 0.017])
        for _ in range(20):
            sa, sb = a.step_truth(u), b.step_truth(u)
        np.testing.assert_array_equal(sa, sb)

    def test_nominal_ignores_hidden_obstacles(self):
        env = make_scene("peg_i").env
        state = np.array([[[0.2, 0.185]]])
        out = env.nominal(state, np.array([[0.0, 0.02]]))
        np.testing.assert_allclose(out[0, 0], [0.2, 0.205])

    def test_truth_blocks_at_hidden_wall(self):
        env = make_scene("peg_i").env
        env.state = np.array([[0.2, 0.185]])
        out = env.step_truth(np.array([0.0, 0.02]))
        assert out[0, 1] == pytest.approx(0.19 - CONTACT_GAP)

    def test_control_clamped(self):
        env = make_scene("peg_i").env
        start = env.state.copy()
        out = env.step_truth(np.array([1.0, 0.0]))
        assert out[0, 0] - start[0, 0] == pytest.approx(env.u_max)

    def test_nominal_equals_truth_when_all_observable(self):
        boxes = (Box((0.15, 0.15), (0.25, 0.25), observable=True),)
        world = simple_world(boxes)
        env = PegEnv(world, [(0.1, 0.2)], u_max=0.02)
        rng = np.random.default_rng(0)
        state = env.state.copy()
        for _ in range(50):
            u = rng.uniform(-0.02, 0.02, 2)
            pred = env.nominal(state[None], u[None])[0]
            state = env.step_truth(u)
            np.testing.assert_allclose(pred, state, atol=1e-9)

    def test_never_inside_obstacle(self):
        env = make_scene("peg_u").env
        rng = np.random.default_rng(1)
        for _ in range(300):
            s = env.step_truth(rng.uniform(-0.02, 0.02, 2))
            assert not env.world.inside_any(s).any()
            assert np.all(s >= CONTACT_GAP - 1e-12)
            assert np.all(s <= 0.4 - CONTACT_GAP + 1e-12)


class TestCableEnv:
    def test_segment_lengths_maintained(self):
        env = make_scene("cable_hook").env
        rng = np.random.default_rng(2)
        for i in range(80):
            u = (np.array([0.0, 0.02, 0.0, 0.02]) if i < 30
                 else rng.uniform(-0.02, 0.02, 4))
            s = env.step_truth(u)
            seg = np.linalg.norm(np.diff(s, axis=0), axis=1)
            assert np.abs(seg - env.rest).max() <= 0.01 * env.rest

    def test_no_point_inside_obstacles(self):
        env = make_scene("cable_hook").env
        rng = np.random.default_rng(3)
        for i in range(80):
            u = (np.array([0.0, 0.02, 0.0, 0.02]) if i < 30
                 else rng.uniform(-0.02, 0.02, 4))
            s = env.step_truth(u)
            assert not env.world.inside_any(s).any()

    def test_hooked_cable_stays_under_bar(self):
        env = make_scene("cable_hook").env
        bar = env.world.boxes[0]
        for _ in range(40):
            s = env.step_truth(np.array([0.0, 0.02, 0.0, 0.02]))
        under = (s[:, 0] > bar.lo[0]) & (s[:, 0] < bar.hi[0])
        assert (s[under, 1] <= bar.lo[1] - CONTACT_GAP / 2).all()
        # gripped ends rose while the hooked middle stayed down
        assert s[0, 1] > 0.25 and s[-1, 1] > 0.25

    def test_nominal_differs_under_hidden_contact(self):
        env = make_scene("cable_hook").env
        state = env.state.copy()
        u = np.array([0.0, 0.02, 0.0, 0.02])
        worst = 0.0
        for _ in range(30):
            pred = env.nominal(state[None], u[None])[0]
            state = env.step_truth(u)
            worst = max(worst, np.abs(pred - state).max())
        # at first bar contact the nominal keeps rising, truth does not
        assert worst > 0.005

    def test_nominal_equals_truth_when_all_observable(self):
        boxes = (Box((0.25, 0.2), (0.4, 0.24), observable=True),)
        world = WorldGeometry(boxes, (0.0, 0.0), (0.6, 0.5))
        chain = envs._zigzag_chain(0.2, 0.4, 0.1, 8, 0.03)
        env = CableEnv(world, chain, rest=0.03, gripped=(0, 7), u_max=0.02)
        rng = np.random.default_rng(4)
        state = env.state.copy()
        for _ in range(30):
            u = rng.uniform(-0.02, 0.02, 4)
            pred = env.nominal(state[None], u[None])[0]
            state = env.step_truth(u)
            np.testing.assert_allclose(pred, state, atol=1e-9)

    def test_determinism(self):
        a = make_scene("cable_hook").env
        b = make_scene("cable_hook").env
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.uniform(-0.02, 0.02, 4)
            sa, sb = a.step_truth(u), b.step_truth(u)
        np.testing.assert_array_equal(sa, sb)

    def test_batched_matches_sequential(self):
        env = make_scene("cable_hook").env
        states = np.repeat(env.state[None], 3, axis=0)
        u = np.array([[0.01, 0.0, -0.01, 0.0],
                      [0.0, 0.02, 0.0, 0.02],
                      [-0.01, -0.01, 0.01, 0.01]])
        batch = env.nominal(states, u)
        for i in range(3):
            single = env.nominal(states[i:i + 1], u[i:i + 1])[0]
            np.testing.assert_allclose(batch[i], single, atol=1e-12)


class TestObservedSurface:
    def test_sign_convention(self):
        world = simple_world([Box((0.1, 0.1), (0.2, 0.2), observable=True),
                              Box((0.3, 0.3), (0.35, 0.35), observable=False)])
        surf = ObservedSurface(world)
        pts = np.array([[0.15, 0.15], [0.32, 0.32], [0.05, 0.05]])
        mean = surf.predict_mean(pts)
        np.testing.assert_array_equal(mean, [-1.0, 1.0, 1.0])
        _, var = surf.predict_many(pts)
        assert (var == 0).all()


class TestScenes:
    def test_unknown_scene_rejected(self):
        with pytest.raises(ValueError):
            make_scene("peg_x")

    def test_peg_u_blocks_straight_line(self):
        sc = make_scene("peg_u")
        start = sc.env.state[0]
        goal = sc.goals.points[0]
        pts = start[None] + np.linspace(0, 1, 200)[:, None] * (goal - start)[None]
        assert sc.env.world.inside_any(pts).any()

    def test_peg_scenes_reachable_in_truth(self):
        for name in ("peg_u", "peg_i", "peg_t"):
            sc = make_scene(name)
            res = 0.005
            nx = int(0.4 / res)
            xs = (np.arange(nx) + 0.5) * res
            centers = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
            occ = sc.env.world.inside_any(
                centers.reshape(-1, 2)).reshape(nx, nx)
            labels = connected_components(OccupancyGrid((0, 0), res, occ))
            si = (int(sc.env.state[0, 0] / res), int(sc.env.state[0, 1] / res))
            gi = (int(sc.goals.points[0, 0] / res),
                  int(sc.goals.points[0, 1] / res))
            assert labels[si] == labels[gi] != 0, name

    def test_goal_region_obstacle_free(self):
        for name in ("peg_u", "peg_i", "peg_t", "cable_hook"):
            sc = make_scene(name)
            g = sc.goals.points[0]
            probe = g[None] + np.array([[0, 0], [1, 0], [-1, 0], [0, 1],
                                        [0, -1]]) * sc.r_g
            assert not sc.env.world.inside_any(probe).any(), name

    def test_cable_hook_occluded(self):
        sc = make_scene("cable_hook")
        bar = sc.env.world.boxes[0]
        assert not bar.observable
        cloud = sc.depth.cloud
        pad = 1e-6
        on_bar = ((cloud[:, 0] > bar.lo[0] - pad)
                  & (cloud[:, 0] < bar.hi[0] + pad)
                  & (cloud[:, 1] > bar.lo[1] - pad)
                  & (cloud[:, 1] < bar.hi[1] + pad))
        # well beyond the 30% occlusion requirement: nothing lands on it
        assert on_bar.sum() == 0

    def test_cable_start_visible(self):
        sc = make_scene("cable_hook")
        vis = sensor.visible(sc.env.state, sc.camera, sc.depth.z)
        assert vis.all()

    def test_default_constraints(self):
        assert isinstance(make_scene("peg_u").constraint_specs[0], PathExists)
        spec = make_scene("cable_hook").constraint_specs[0]
        assert isinstance(spec, NoPenetration)
        assert spec.zeta == pytest.approx(0.4)


class TestSceneFiles:
    def test_round_trip_peg(self):
        sc = make_scene("peg_u")
        text = dump_scene(sc)
        back = parse_scene(text, name="peg_u")
        assert isinstance(back.env, PegEnv)
        np.testing.assert_allclose(back.env.state, sc.env.state)
        assert len(back.env.world.boxes) == len(sc.env.world.boxes)
        np.testing.assert_allclose(back.goals.points, sc.goals.points)
        assert back.r_g == sc.r_g

    def test_round_trip_cable(self):
        sc = make_scene("cable_hook")
        back = parse_scene(dump_scene(sc), name="cable_hook")
        assert isinstance(back.env, CableEnv)
        assert back.env.n == sc.env.n
        assert back.camera is not None
        np.testing.assert_allclose(back.env.rest, sc.env.rest, atol=1e-12)

    def test_comments_and_blanks_ignored(self):
        text = """# a scene
bounds 0 0 1 1

box 0.4 0.4 0.6 0.6 0  # hidden
goal 0.9 0.9 0.05
start 0.1 0.1
"""
        sc = parse_scene(text)
        assert len(sc.env.world.boxes) == 1
        assert not sc.env.world.boxes[0].observable

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            parse_scene("bounds 0 0 1 1\nstart 0.1 0.1\n")
        with pytest.raises(ValueError):
            parse_scene("wobble 1 2 3\n")
