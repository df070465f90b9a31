import itertools
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from obsurf import contact
from obsurf.contact import (DEDUP_TOL, DatasetPair, LabelBatch, TAG_GOAL,
                            TAG_OBSERVED, TAG_PREDICTED, gen_labels,
                            local_minimum, pre_process)
from obsurf import sensor
from obsurf.gp import KernelParams
from obsurf.refine import refine_contacts
from test_refine import Rule


def batch_for(x_t, x_next, x_pred):
    return gen_labels(np.asarray(x_t, float), np.asarray(x_next, float),
                      np.asarray(x_pred, float))


class TestGenLabels:
    def test_half_blocked(self):
        b = batch_for([[0, 0]], [[0.5, 0]], [[1, 0]])
        assert b.y[0] == pytest.approx(0.5)
        assert b.y_hat[0] == pytest.approx(0.0)

    def test_nominal_transition(self):
        b = batch_for([[0, 0]], [[1, 0]], [[1, 0]])
        assert b.y[0] == pytest.approx(1.0)
        assert b.y_hat[0] == pytest.approx(1.0)

    def test_overshoot_clamped(self):
        b = batch_for([[0, 0]], [[1.3, 0]], [[1, 0]])
        assert b.y[0] == pytest.approx(1.0)
        assert b.y_hat[0] == pytest.approx(1.0)

    def test_degenerate_denominator(self):
        b = batch_for([[0, 0]], [[0.5, 0]], [[1e-8, 0]])
        assert b.y[0] == 1.0

    def test_property_sweep(self):
        # labels stay in range and the affine link holds exactly
        rng = np.random.default_rng(0)
        x_t = rng.uniform(-1, 1, (10000, 1, 2))
        x_next = x_t + rng.uniform(-0.1, 0.1, x_t.shape)
        x_pred = x_t + rng.uniform(-0.1, 0.1, x_t.shape)
        for i in range(0, 10000, 500):
            b = batch_for(x_t[i], x_next[i], x_pred[i])
            assert 0.0 <= b.y[0] <= 1.0
            assert b.y_hat[0] == 2.0 * b.y[0] - 1.0


class TestLocalMinimum:
    def test_stationary(self):
        x = np.array([[0.1, 0.1]])
        assert local_minimum(x, x, window=5, d_min=0.01)

    def test_fast_motion(self):
        a = np.array([[0.0, 0.0]])
        b = a + [10 * 0.01 * 5, 0.0]
        assert not local_minimum(b, a, window=5, d_min=0.01)

    def test_boundary_is_strict(self):
        # average exactly d_min: one of two components moves 2*d_min*T_m
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[2 * 0.01 * 5, 0.0], [1.0, 1.0]])
        assert not local_minimum(b, a, window=5, d_min=0.01)
        assert local_minimum(b, a, window=5, d_min=0.01 + 1e-9)


def make_depth_scene():
    """Camera looking +x at a wall spanning the view at x = 1."""
    cam = sensor.Camera.from_fov((0.0, 0.0), yaw=0.0, fov=1.2, width=64)
    boxes = np.array([[1.0, -2.0, 1.2, 2.0]])
    depth = sensor.render_depth(boxes, cam)
    return cam, depth


class TestVisible:
    def test_point_in_front_of_surface(self):
        cam, depth = make_depth_scene()
        assert sensor.visible(np.array([[0.5, 0.0]]), cam, depth.z)[0]

    def test_point_behind_surface(self):
        cam, depth = make_depth_scene()
        assert not sensor.visible(np.array([[1.5, 0.0]]), cam, depth.z)[0]

    def test_point_outside_fov(self):
        cam, depth = make_depth_scene()
        assert not sensor.visible(np.array([[0.1, 5.0]]), cam, depth.z)[0]

    def test_point_behind_camera(self):
        cam, depth = make_depth_scene()
        assert not sensor.visible(np.array([[-0.5, 0.0]]), cam, depth.z)[0]


class TestPreProcess:
    def setup_method(self):
        self.cam, self.depth = make_depth_scene()

    def test_visible_free_relabeled(self):
        x_next = np.array([[0.5, 0.0]])
        b = batch_for([[0.4, 0.0]], x_next, [[0.55, 0.0]])
        assert b.y[0] < 1.0
        out = pre_process(b, self.cam, self.depth, r_c=0.05, local_min=False)
        assert out.y[0] == 1.0
        assert not out.keep_obs[0]
        assert not out.keep_pred[0]

    def test_visible_contact_relabeled(self):
        x_next = np.array([[0.97, 0.0]])  # within r_c of the wall cloud
        b = batch_for([[0.9, 0.0]], x_next, [[1.0, 0.0]])
        out = pre_process(b, self.cam, self.depth, r_c=0.05, local_min=False)
        assert out.y[0] == 0.0
        assert out.keep_obs[0]
        assert not out.keep_pred[0]

    def test_occluded_interior_kept(self):
        x_next = np.array([[1.5, 0.0]])  # behind the wall
        b = batch_for([[1.5, 0.0]], x_next, [[1.6, 0.0]])
        b.y[0] = 0.2
        b.y_hat[0] = -0.6
        out = pre_process(b, self.cam, self.depth, r_c=0.05, local_min=False)
        assert out.keep_obs[0]
        assert out.keep_pred[0]
        assert out.y[0] == pytest.approx(0.2)  # labels untouched

    def test_no_vision_reduces_to_interior_rule(self):
        x_next = np.array([[0.5, 0.0], [0.6, 0.0]])
        b = batch_for([[0.5, 0.0], [0.5, 0.0]],
                      x_next, [[0.7, 0.0], [0.61, 0.0]])
        out = pre_process(b, None, None, r_c=0.05, local_min=False)
        assert list(out.keep_obs) == [True, False]  # y_hat < 0 only for 1st
        assert list(out.keep_pred) == [True, False]

    def test_local_min_keeps_everything_observed(self):
        x_next = np.array([[0.5, 0.0], [0.6, 0.0]])
        b = batch_for([[0.49, 0.0], [0.59, 0.0]], x_next, x_next)
        out = pre_process(b, None, None, r_c=0.05, local_min=True)
        assert out.keep_obs.all() and out.stall.all()
        assert not out.keep_pred.any()

    # Where a point of each (visible, near the cloud) class sits.
    WHERE = {(True, True): [0.97, 0.0], (True, False): [0.5, 0.0],
             (False, True): [1.03, 0.0], (False, False): [1.5, 0.0]}

    @staticmethod
    def _oracle(vis, near, interior_motion, local_min):
        """keep_obs, keep_pred, stall and the cleaned label (None when
        left as generated) by the rule as first written: pre_process
        kept every observed point on a stall, and the dataset update
        masked those of them that were neither a visible contact nor
        interior."""
        interior = not (vis and not near) and interior_motion
        keep_obs = (vis and near) or interior or local_min
        stall = keep_obs and not ((vis and near) or interior) and local_min
        label = (1.0 if not near else 0.0) if vis else None
        return keep_obs, interior, stall, label

    def test_rule_table(self):
        # every (visible, near, y_hat < 0, local_min) combination
        cases = list(itertools.product((True, False), repeat=3))
        x_next = np.array([self.WHERE[vis, near] for vis, near, _ in cases])
        x_t = x_next - [0.01, 0.0]
        x_pred = np.where([[neg] for *_, neg in cases],
                          x_t + [0.1, 0.0], x_next)  # y = 0.1 or 1
        b = batch_for(x_t, x_next, x_pred)
        assert list(b.y_hat < 0.0) == [neg for *_, neg in cases]
        assert list(sensor.visible(x_next, self.cam, self.depth.z)) == [
            vis for vis, *_ in cases]
        gap = np.linalg.norm(x_next[:, None] - self.depth.cloud[None], axis=-1)
        assert list(gap.min(axis=1) < 0.05) == [near for _, near, _ in cases]
        for local_min in (False, True):
            out = pre_process(b, self.cam, self.depth, 0.05, local_min)
            for i, case in enumerate(cases):
                keep_obs, keep_pred, stall, label = self._oracle(*case,
                                                                 local_min)
                assert out.keep_obs[i] == keep_obs, (case, local_min)
                assert out.keep_pred[i] == keep_pred, (case, local_min)
                assert out.stall[i] == stall, (case, local_min)
                assert out.y[i] == (b.y[i] if label is None else label)

    def test_r_c_validation(self):
        b = batch_for([[0, 0]], [[1, 0]], [[1, 0]])
        for r_c in (0.0, -0.05, float("nan")):
            with pytest.raises(ValueError, match="r_c must be positive"):
                pre_process(b, None, None, r_c, False)


class TestDatasets:
    def test_seeded_pair(self):
        dp = DatasetPair.seeded(np.array([[0.2, 0.2]]))
        assert dp.bar_size == 1 and dp.mem_size == 1
        assert dp.bar_tags[0] == TAG_GOAL
        assert dp.bar_labels[0] == 1.0

    def test_contact_update_grows_both(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x_next = np.array([[0.08, 0.0]])
        x_pred = np.array([[0.2, 0.0]])
        b = batch_for([[0.0, 0.0]], x_next, x_pred)
        b = pre_process(b, None, None, 0.05, local_min=False)
        out = dp.update(b)
        assert out.bar_size == dp.bar_size + 2
        assert out.mem_size == dp.mem_size + 2
        assert not out.bar_mask.any()

    def test_local_min_adds_all_masked(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
        b = batch_for(x, x, x)  # nominal: no contact signal anywhere
        b = pre_process(b, None, None, 0.05, local_min=True)
        out = dp.update(b)
        assert out.bar_size == dp.bar_size + 3
        assert out.bar_mask.sum() == 3
        assert (out.bar_labels[out.bar_mask] >= 0).all()  # never interior

    def test_nominal_transition_adds_nothing(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x_t = np.array([[0.1, 0.0]])
        x_next = np.array([[0.2, 0.0]])
        b = batch_for(x_t, x_next, x_next)
        b = pre_process(b, None, None, 0.05, local_min=False)
        out = dp.update(b)
        assert out.bar_size == dp.bar_size
        assert out.mem_size == dp.mem_size

    def test_duplicate_point_deduplicated(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x_next = np.array([[0.1, 0.0]])
        x_pred = np.array([[0.2, 0.0]])
        b = batch_for([[0.0, 0.0]], x_next, x_pred)
        b = pre_process(b, None, None, 0.05, local_min=False)
        once = dp.update(b)
        twice = once.update(b)
        assert twice.bar_size == once.bar_size

    def test_dedup_keeps_latest_label(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x_next = np.array([[0.1, 0.0]])
        b1 = batch_for([[0.0, 0.0]], x_next, [[0.2, 0.0]])
        b1 = pre_process(b1, None, None, 0.05, local_min=False)
        dp = dp.update(b1)
        b2 = batch_for([[0.05, 0.0]], x_next, [[0.3, 0.0]])
        b2 = pre_process(b2, None, None, 0.05, local_min=False)
        dp2 = dp.update(b2)
        j = np.argmin(np.linalg.norm(dp2.bar_points - x_next, axis=1))
        assert dp2.bar_labels[j] == pytest.approx(b2.y[0])

    def test_goal_seed_never_relabeled(self):
        goal = np.array([[0.2, 0.2]])
        dp = DatasetPair.seeded(goal)
        b = batch_for([[0.1, 0.2]], goal, [[0.4, 0.2]])
        b = pre_process(b, None, None, 0.05, local_min=False)
        out = dp.update(b)
        assert out.bar_labels[0] == 1.0
        assert out.bar_tags[0] == TAG_GOAL

    def test_no_exterior_prediction_ever_enters(self):
        rng = np.random.default_rng(2)
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        for _ in range(50):
            x_t = rng.uniform(0, 1, (2, 2))
            x_next = x_t + rng.uniform(-0.05, 0.05, (2, 2))
            x_pred = x_t + rng.uniform(-0.05, 0.05, (2, 2))
            b = batch_for(x_t, x_next, x_pred)
            b = pre_process(b, None, None, 0.05,
                            local_min=bool(rng.random() < 0.2))
            dp = dp.update(b)
        pred_rows = dp.bar_tags == TAG_PREDICTED
        assert (dp.bar_labels[pred_rows] < 0).all()
        mem_pred = dp.mem_tags == TAG_PREDICTED
        assert (dp.mem_labels[mem_pred] < 0).all()

    def test_memory_superset_invariant(self):
        rng = np.random.default_rng(3)
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        for _ in range(40):
            x_t = rng.uniform(0, 1, (2, 2))
            x_next = x_t + rng.uniform(-0.05, 0.05, (2, 2))
            x_pred = x_t + rng.uniform(-0.05, 0.05, (2, 2))
            b = batch_for(x_t, x_next, x_pred)
            lm = bool(rng.random() < 0.3)
            b = pre_process(b, None, None, 0.05, lm)
            dp = dp.update(b)
        for p, lab, masked in zip(dp.bar_points, dp.bar_labels, dp.bar_mask):
            if masked:
                continue
            d = np.linalg.norm(dp.mem_points - p[None], axis=1)
            j = int(np.argmin(d))
            assert d[j] <= 1e-9
            assert dp.mem_labels[j] == lab

    def test_purge_masked(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x = np.array([[0.1, 0.1], [0.2, 0.2]])
        b = batch_for(x, x, x)
        b = pre_process(b, None, None, 0.05, local_min=True)
        dp = dp.update(b)
        out = dp.purge_masked()
        assert out.bar_size == 1 and out.mem_size == 1
        assert not out.bar_mask.any() and not out.mem_mask.any()

    def test_keep_bar_leaves_memory(self):
        dp = DatasetPair.seeded(np.array([[0.9, 0.9]]))
        x_next = np.array([[0.1, 0.0]])
        x_pred = np.array([[0.2, 0.0]])
        b = batch_for([[0.0, 0.0]], x_next, x_pred)
        b = pre_process(b, None, None, 0.05, local_min=False)
        dp = dp.update(b)
        keep = np.ones(dp.bar_size, dtype=bool)
        keep[-1] = False
        out = dp.keep_bar(keep)
        assert out.bar_size == dp.bar_size - 1
        assert out.mem_size == dp.mem_size


# Well-separated base points; BASES[0] is the goal seed. A drawn row is a
# base plus a jitter of at most JITTER per coordinate, so two rows near
# one base are within DEDUP_TOL of each other (2 * sqrt(2) * JITTER) and
# rows near different bases are far apart.
BASES = np.array([[0.2, 0.2], [0.05, 0.1], [0.3, 0.05], [0.1, 0.35],
                  [0.35, 0.3], [0.25, 0.12]])
JITTER = 3e-10
_row = st.tuples(st.integers(0, len(BASES) - 1), st.integers(-1, 1),
                 st.integers(-1, 1))
# (observed row, predicted row, y, keep_obs, keep_pred, stall); a stall
# bit off a kept observed row is drawn too, and must not be stored
_component = st.tuples(_row, _row, st.floats(0.0, 1.0), st.booleans(),
                       st.booleans(), st.booleans())
_transition = st.tuples(st.just("update"),
                        st.lists(_component, min_size=1, max_size=3))
_refinement = st.tuples(st.just("refine"), st.integers(0, 2 ** 32 - 1))


def _point(row):
    base, dx, dy = row
    return BASES[base] + JITTER * np.array([dx, dy], dtype=float)


def _base_of(p):
    return int(np.argmin(np.linalg.norm(BASES - p, axis=1)))


def _by_base(points, labels, mask):
    """Base index -> (label, mask bit); at most one row per base in
    either set."""
    bases = [_base_of(p) for p in points]
    assert len(set(bases)) == len(bases)
    return dict(zip(bases, zip(labels, mask)))


class TestDatasetProperty:
    params = KernelParams(0.1, 1.0, 1e-4)

    @staticmethod
    def _update(dp, comps):
        x_next = np.array([_point(c[0]) for c in comps])
        x_pred = np.array([_point(c[1]) for c in comps])
        y = np.array([c[2] for c in comps])
        keep_obs, keep_pred, stall = (np.array([c[k] for c in comps])
                                      for k in range(3, 6))
        batch = LabelBatch(obs=x_next, pred=x_pred, y=y, y_hat=2.0 * y - 1.0,
                           keep_obs=keep_obs, keep_pred=keep_pred,
                           stall=stall)
        out = dp.update(batch)
        # Rows are folded in order, observed then predicted; a row near
        # a base already in the set relabels it (the later label wins)
        # unless it is the goal seed, and leaves its mask bit as it is.
        # A new row's mask bit is its stall bit; predicted rows have none.
        rows = ([(_base_of(p), v, bool(m)) for p, v, m in
                 zip(x_next[keep_obs], y[keep_obs], stall[keep_obs])]
                + [(_base_of(p), v, False) for p, v in
                   zip(x_pred[keep_pred], 2.0 * y[keep_pred] - 1.0)])
        for before, after in (((dp.mem_points, dp.mem_labels, dp.mem_mask),
                               (out.mem_points, out.mem_labels, out.mem_mask)),
                              ((dp.bar_points, dp.bar_labels, dp.bar_mask),
                               (out.bar_points, out.bar_labels, out.bar_mask))):
            want = _by_base(*before)
            for base, label, masked in rows:
                if base not in want:
                    want[base] = (label, masked)
                elif base != 0:
                    want[base] = (label, want[base][1])
            assert _by_base(*after) == want
        return out

    def _refine(self, dp, salt):
        salt = salt.to_bytes(4, "little")

        def factory(pts, labs):
            return Rule(lambda keeps: [zlib.crc32(keep.tobytes() + salt) % 2
                                       == 0 for keep in keeps])

        out, _ = refine_contacts(dp, self.params, factory, generations=3,
                                 popsize=4, seed=0)
        assert not out.bar_mask.any() and not out.mem_mask.any()
        return out

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ops=st.lists(st.one_of(_transition, _refinement), max_size=12))
    # one batch carries two rows within DEDUP_TOL: one row is added, and
    # the later label wins
    @example(ops=[("update", [((1, 0, 0), (2, 0, 0), 0.25, True, False,
                               False),
                              ((1, 1, -1), (2, 0, 0), 0.75, True, False,
                               False)])])
    # a stall row, then a later unmasked row at the same point: it keeps
    # the stall row's mask bit, and refinement purges it
    @example(ops=[("update", [((3, 0, 0), (2, 0, 0), 0.5, True, False,
                               True)]),
                  ("update", [((3, 1, 1), (2, 0, 0), 0.0, True, True,
                               False)]),
                  ("refine", 7)])
    def test_invariants_hold_after_every_operation(self, ops):
        dp = DatasetPair.seeded(BASES[:1])
        for op in ops:
            if op[0] == "update":
                dp = self._update(dp, op[1])
            else:
                dp = self._refine(dp, op[1])
            # every active row is in memory with the same label
            for p, lab in zip(dp.bar_points, dp.bar_labels):
                d = np.linalg.norm(dp.mem_points - p, axis=1)
                j = int(np.argmin(d))
                assert d[j] <= DEDUP_TOL and dp.mem_labels[j] == lab
            # the goal seed is in both sets with label 1
            for pts, labs, tags in ((dp.mem_points, dp.mem_labels, dp.mem_tags),
                                    (dp.bar_points, dp.bar_labels, dp.bar_tags)):
                (g,) = np.flatnonzero(tags == TAG_GOAL)
                assert np.array_equal(pts[g], BASES[0]) and labs[g] == 1.0
