import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from obsurf.contact import DatasetPair, LabelBatch
from obsurf.gp import KernelParams, PosteriorStats
from obsurf.gpis import Gpis, GridSpec, OccupancyGrid, inv_norm_cdf, lcb, \
    norm_cdf


TIGHT = KernelParams(lengthscale=0.05, outputscale=1.0, noise=1e-8)


def _at(g: Gpis, x) -> PosteriorStats:
    """The surface's mean and variance at the one point x."""
    mean, var = g.predict_many(np.atleast_2d(x))
    return PosteriorStats(float(mean[0]), float(var[0]))


class TestInvNormCdf:
    def test_median(self):
        assert inv_norm_cdf(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_known_quantile(self):
        assert inv_norm_cdf(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert inv_norm_cdf(0.975) == pytest.approx(scipy.special.ndtri(0.975),
                                                    abs=1e-12)

    def test_round_trip(self):
        for p in (1e-4, 0.3, 0.999):
            assert abs(norm_cdf(inv_norm_cdf(p)) - p) < 1e-8

    def test_round_trip_dense_sweep(self):
        for p in np.linspace(1e-4, 1 - 1e-4, 501):
            assert abs(norm_cdf(inv_norm_cdf(float(p))) - p) < 1e-8

    def test_domain_checks(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                inv_norm_cdf(bad)

    # the port of cephes' ndtri must give scipy's bits everywhere: lcb's
    # zeta and CMA-ES's q_margin feed them into digests and verdicts
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(p=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(-300.0, 0.0).map(lambda e: 10.0 ** e),
        st.floats(-16.0, 0.0).map(lambda e: 1.0 - 10.0 ** e),
    ).filter(lambda p: 0.0 < p < 1.0))
    @example(p=0.4)
    @example(p=0.5)
    @example(p=1e-300)
    @example(p=math.exp(-2.0))
    @example(p=1.0 - math.exp(-2.0))
    @example(p=math.exp(-32.0))
    def test_equals_scipy_ndtri(self, p):
        assert inv_norm_cdf(p) == scipy.special.ndtri(p)

    def test_q_margin_equals_scipy_ndtri(self):
        # every 1 - 1/(popsize m) that refine_contacts can ask for
        for popsize in (20, 25, 50):
            for m in range(1, 1000):
                p = 1.0 - 1.0 / (popsize * m)
                assert inv_norm_cdf(p) == scipy.special.ndtri(p), (popsize, m)


class TestNormCdf:
    def test_matches_scipy_ndtr(self):
        x = np.linspace(-37.0, 9.0, 46001)
        got = np.array([norm_cdf(float(v)) for v in x])
        want = scipy.special.ndtr(x)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_symmetry_and_limits(self):
        assert norm_cdf(0.0) == 0.5
        assert norm_cdf(-40.0) == 0.0 and norm_cdf(40.0) == 1.0
        for v in (0.1, 1.0, 3.0):
            assert norm_cdf(v) + norm_cdf(-v) == pytest.approx(1.0, abs=1e-15)


class TestSeeding:
    """Goal seeds enter the surface as data through DatasetPair.seeded."""

    def seeded(self, goals):
        dp = DatasetPair.seeded(goals)
        return Gpis(dp.bar_points, dp.bar_labels, TIGHT)

    def test_seed_definition(self):
        g = self.seeded(np.array([[0.0, 0.0]]))
        assert g.points.shape == (1, 2)
        assert g.labels[0] == 1.0

    def test_goal_predicts_exterior(self):
        g = self.seeded(np.array([[0.1, 0.2]]))
        assert _at(g, np.array([0.1, 0.2])).mean > 0.9


class TestPredict:
    def test_prior_without_data(self):
        g = Gpis(params=KernelParams(0.1, 1.3, 1e-4))
        st = _at(g, np.array([0.2, 0.2]))
        assert st.mean == 0.0
        assert st.variance == pytest.approx(1.3)

    def test_override_replaces_mean_keeps_variance(self):
        pts = np.array([[0.1, 0.1]])
        labels = np.array([-1.0])
        seen = Gpis(pts, labels, TIGHT,
                    free_space=lambda q: np.ones(len(q), dtype=bool))
        raw = Gpis(pts, labels, TIGHT)
        q = np.array([0.1, 0.1])
        assert _at(raw, q).mean < 0
        st = _at(seen, q)
        assert st.mean == 1.0
        assert st.variance == pytest.approx(_at(raw, q).variance)

    def test_no_override_when_not_visible(self):
        pts = np.array([[0.1, 0.1]])
        g = Gpis(pts, np.array([-1.0]), TIGHT,
                 free_space=lambda q: np.zeros(len(q), dtype=bool))
        assert _at(g, np.array([0.1, 0.1])).mean < 0

    def test_sign_semantics(self):
        g = Gpis(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([-1.0, 1.0]), TIGHT)
        assert _at(g, np.array([0.0, 0.0])).mean < 0
        assert _at(g, np.array([0.5, 0.5])).mean > 0

    def test_override_never_alters_variance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (15, 2))
        labels = rng.uniform(-1, 1, 15)
        vis = lambda q: rng.random(len(q)) < 0.5  # noqa: E731
        q = rng.uniform(0, 1, (40, 2))
        _, var_seen = Gpis(pts, labels, TIGHT, free_space=vis).predict_many(q)
        _, var_raw = Gpis(pts, labels, TIGHT).predict_many(q)
        np.testing.assert_allclose(var_seen, var_raw, rtol=0, atol=0)

    def test_split_rows_match_separate_queries(self):
        # Variance for any index of rows (an index array here) equals a
        # query on those rows alone; the mean covers every row.
        rng = np.random.default_rng(2)
        q = rng.uniform(0, 1, (40, 2))
        rows = rng.choice(40, 15, replace=False)
        for g in (Gpis(rng.uniform(0, 1, (15, 2)), rng.uniform(-1, 1, 15),
                       TIGHT), Gpis(params=TIGHT)):
            mean, var = g.predict_many(q, rows)
            np.testing.assert_array_equal(mean, g.predict_mean(q))
            np.testing.assert_array_equal(var, g.predict_many(q[rows])[1])
            assert g.predict_many(q, None)[1] is None


class TestLcb:
    def test_half_quantile_is_mean(self):
        g = Gpis(np.array([[0.2, 0.2]]), np.array([0.4]), TIGHT)
        st = _at(g, np.array([0.3, 0.3]))
        assert lcb(st.mean, st.variance, 0.5) == pytest.approx(st.mean)

    def test_derived_quantile_value(self):
        # without data the posterior is the prior: mean 0, variance 1
        g = Gpis(params=KernelParams(1.0, 1.0, 1e-8))
        st = _at(g, np.array([0.0, 0.0]))
        want = 0.0 + scipy.stats.norm.ppf(0.4) * 1.0
        assert lcb(st.mean, st.variance, 0.4) == pytest.approx(want, abs=1e-9)

    def test_zero_variance_returns_mean(self):
        g = Gpis(np.array([[0.0, 0.0]]), np.array([0.7]),
                 KernelParams(1.0, 1.0, 0.0))
        st = _at(g, np.array([0.0, 0.0]))
        for z in (0.1, 0.4, 0.9):
            assert lcb(st.mean, st.variance, z) == pytest.approx(0.7, abs=1e-5)

    def test_monotone_in_zeta(self):
        g = Gpis(params=KernelParams())
        st = _at(g, np.array([0.5, 0.5]))
        vals = [lcb(st.mean, st.variance, z) for z in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_elementwise(self):
        mean, var = np.array([0.2, -0.1]), np.array([0.0, 4.0])
        want = [0.2, -0.1 + scipy.stats.norm.ppf(0.3) * 2.0]
        np.testing.assert_allclose(lcb(mean, var, 0.3), want, rtol=1e-12)

    def test_zeta_domain(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                lcb(0.0, 1.0, bad)


class TestOccupancy:
    def test_empty_prior_all_occupied(self):
        g = Gpis(params=KernelParams())
        grid = g.occupancy_grid(GridSpec((0.0, 0.0), (0.1, 0.1), 0.025))
        assert grid.cells.all()

    def test_exterior_points_free_nearby(self):
        pts = np.array([[0.05, 0.05]])
        g = Gpis(pts, np.array([1.0]), TIGHT)
        grid = g.occupancy_grid(GridSpec((0.0, 0.0), (0.1, 0.1), 0.01))
        assert not grid.cells[5, 5]

    def test_interior_point_occupies_center(self):
        g = Gpis(np.array([[0.05, 0.05]]), np.array([-1.0]), TIGHT)
        grid = g.occupancy_grid(GridSpec((0.0, 0.0), (0.1, 0.1), 0.01))
        assert grid.cells[5, 5]

    def test_shared_centers_agree_across_resolutions(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 0.4, (10, 2))
        labels = np.where(rng.random(10) < 0.4, -1.0, 1.0)
        g = Gpis(pts, labels, KernelParams(0.08, 1.0, 1e-4))
        for divisor in (2, 3):
            coarse_spec = GridSpec((0.0, 0.0), (0.4, 0.4), 0.03)
            fine_spec = GridSpec((0.0, 0.0), (0.4, 0.4), 0.03 / divisor)
            coarse = g.occupancy_grid(coarse_spec)
            fine = g.occupancy_grid(fine_spec)
            cc = coarse_spec.centers().reshape(*coarse_spec.shape, 2)
            fc = fine_spec.centers().reshape(*fine_spec.shape, 2)
            hits = 0
            for i in range(coarse_spec.shape[0]):
                for j in range(coarse_spec.shape[1]):
                    c = cc[i, j]
                    d = np.linalg.norm(fc - c, axis=-1)
                    fi, fj = np.unravel_index(np.argmin(d), d.shape)
                    if d[fi, fj] < 1e-12:
                        hits += 1
                        assert fine.cells[fi, fj] == coarse.cells[i, j]
            if divisor == 3:
                assert hits > 0  # thirds share centers, halves need not

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            GridSpec((0.0, 0.0), (1.0, 1.0), 0.0)

    @pytest.mark.parametrize("lo, hi", [
        ((0.0, float("nan")), (1.0, 1.0)), ((0.0, 0.0), (float("nan"), 1.0)),
        ((0.0, 0.0), (1.0, 0.0))])
    def test_bounds_validation(self, lo, hi):
        # NaN bounds fail when the spec is built, not later in `shape`
        with pytest.raises(ValueError, match="hi > lo"):
            GridSpec(lo, hi, 0.1)


def _observed(x: np.ndarray, y: float) -> LabelBatch:
    """One observed, stored, unmasked label for the single-point state x."""
    no = np.array([False])
    return LabelBatch(obs=x, pred=x, y=np.array([y]),
                      y_hat=np.array([2 * y - 1]), keep_obs=np.array([True]),
                      keep_pred=no, stall=no)


def reference_cell_index(spec, point):
    """The original per-axis np.clip expression of GridSpec.cell_index."""
    p = np.asarray(point, dtype=float).ravel()
    idx = np.floor((p - np.asarray(spec.lo)) / spec.resolution).astype(int)
    return tuple(int(np.clip(i, 0, n - 1)) for i, n in zip(idx, spec.shape))


@st.composite
def grid_and_point(draw):
    """A 2-D or 3-D GridSpec and a point inside it, on a cell edge, or
    outside the box."""
    d = draw(st.sampled_from([2, 3]))
    lo = [draw(st.floats(-2.0, 2.0)) for _ in range(d)]
    res = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.3]))
    cells = [draw(st.integers(1, 40)) for _ in range(d)]
    hi = [l + n * res for l, n in zip(lo, cells)]
    spec = GridSpec(tuple(lo), tuple(hi), res)
    point = []
    for l, h, n in zip(lo, hi, spec.shape):
        kind = draw(st.sampled_from(["inside", "edge", "outside"]))
        if kind == "inside":
            point.append(draw(st.floats(l, h)))
        elif kind == "edge":
            point.append(l + draw(st.integers(0, n)) * res)
        else:
            gap = draw(st.floats(1e-9, 10.0))
            point.append(draw(st.sampled_from([l - gap, h + gap])))
    return spec, np.array(point)


class TestCellIndex:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(grid_and_point())
    def test_matches_clip_expression(self, case):
        spec, point = case
        got = spec.cell_index(point)
        assert got == reference_cell_index(spec, point)
        assert all(type(i) is int for i in got)

    def test_corners_and_far_points(self):
        spec = GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)
        assert spec.cell_index(np.array([0.0, 0.0])) == (0, 0)
        assert spec.cell_index(np.array([0.4, 0.4])) == (39, 39)
        assert spec.cell_index(np.array([-5.0, 7.0])) == (0, 39)


class TestSurfaceReuse:
    SPEC = GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)

    def _pair(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 0.4, (12, 2))
        labels = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        return pts, labels

    def test_unchanged_set_keeps_instance(self):
        pts, labels = self._pair()
        g = Gpis(pts, labels, TIGHT)
        assert g.with_active(pts.copy(), labels.copy()) is g

    def test_relabel_of_same_size_rebuilds(self):
        # A dedup relabel keeps bar_size but changes a label: the
        # surface must follow the values, not the size.
        x = np.array([[0.1, 0.1]])
        dp = DatasetPair.seeded(np.array([[0.3, 0.3]]))
        dp = dp.update(_observed(x, 0.2))
        g = Gpis(dp.bar_points, dp.bar_labels, TIGHT)
        before = _at(g, x[0]).mean
        relabeled = dp.update(_observed(x, 1.0))
        assert relabeled.bar_size == dp.bar_size
        h = g.with_active(relabeled.bar_points, relabeled.bar_labels)
        assert h is not g
        assert np.array_equal(h.labels, relabeled.bar_labels)
        assert before == pytest.approx(0.2, abs=1e-4)
        assert _at(h, x[0]).mean == pytest.approx(1.0, abs=1e-4)

    def test_cached_grid_equals_fresh(self):
        pts, labels = self._pair()
        g = Gpis(pts, labels, KernelParams(0.08, 1.0, 1e-4),
                 free_space=lambda q: q[:, 1] > 0.35)
        first = g.occupancy_grid(self.SPEC)
        assert g.occupancy_grid(self.SPEC) is first
        assert g.occupancy_grid(GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)) is first
        fresh = Gpis(pts, labels, KernelParams(0.08, 1.0, 1e-4),
                     free_space=lambda q: q[:, 1] > 0.35)
        assert np.array_equal(first.cells, fresh.occupancy_grid(self.SPEC).cells)
        assert not first.cells.flags.writeable
        coarse = GridSpec((0.0, 0.0), (0.4, 0.4), 0.02)
        assert g.occupancy_grid(coarse).cells.shape == coarse.shape

    def test_new_instances_start_without_cache(self):
        pts, labels = self._pair()
        g = Gpis(pts, labels, TIGHT)
        old = g.occupancy_grid(self.SPEC)
        flipped = -labels
        h = g.with_active(pts, flipped)
        refit = Gpis(pts, labels, KernelParams(0.2, 1.0, 1e-4))
        for new, want in ((h, Gpis(pts, flipped, TIGHT)),
                          (refit, Gpis(pts, labels, KernelParams(0.2, 1.0, 1e-4)))):
            grid = new.occupancy_grid(self.SPEC)
            assert grid is not old
            assert np.array_equal(grid.cells, want.occupancy_grid(self.SPEC).cells)
            assert not np.array_equal(grid.cells, old.cells)


class TestGridText:
    def test_round_trip_2d(self):
        rng = np.random.default_rng(8)
        cells = rng.random((7, 5)) < 0.5
        grid = OccupancyGrid((0.1, -0.2), 0.05, cells)
        back = OccupancyGrid.from_text(grid.to_text())
        assert back.origin == grid.origin
        assert back.resolution == grid.resolution
        assert np.array_equal(back.cells, grid.cells)

    def test_round_trip_3d(self):
        rng = np.random.default_rng(9)
        cells = rng.random((3, 4, 5)) < 0.5
        grid = OccupancyGrid((0.0, 0.0, 0.0), 0.1, cells)
        back = OccupancyGrid.from_text(grid.to_text())
        assert np.array_equal(back.cells, grid.cells)

    def test_header_fields(self):
        grid = OccupancyGrid((0.0, 0.5), 0.25, np.zeros((2, 2), dtype=bool))
        assert grid.to_text() == "2 0.25 0.0 0.5 2 2\n00\n00\n"
        head = grid.to_text().splitlines()[0].split()
        assert head[0] == "2"
        assert float(head[1]) == 0.25
        assert [float(head[2]), float(head[3])] == [0.0, 0.5]
        assert [int(head[4]), int(head[5])] == [2, 2]
