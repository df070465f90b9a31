import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

import obsurf
from obsurf import gp
from obsurf.gp import KernelParams, fit_hyperparams, gp_posterior, \
    log_marginal_likelihood, matern32


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run with args in a fresh interpreter that imports this
    obsurf."""
    src = str(Path(obsurf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def dense_posterior_oracle(points, labels, params, query):
    """Independent brute-force posterior: explicit kernel loops and an
    LU solve, no shared code with the implementation."""
    m = len(points)
    k = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            r = math.dist(points[i], points[j])
            s = math.sqrt(3.0) * r / params.lengthscale
            k[i, j] = params.outputscale * (1.0 + s) * math.exp(-s)
    ky = k + params.noise * np.eye(m)
    ks = np.empty(m)
    for i in range(m):
        r = math.dist(points[i], query)
        s = math.sqrt(3.0) * r / params.lengthscale
        ks[i] = params.outputscale * (1.0 + s) * math.exp(-s)
    sol = np.linalg.solve(ky, labels)
    mean = ks @ sol
    var = params.outputscale - ks @ np.linalg.solve(ky, ks)
    return mean, max(var, 0.0)


def dense_lml_oracle(points, labels, params):
    m = len(points)
    k = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            r = math.dist(points[i], points[j])
            s = math.sqrt(3.0) * r / params.lengthscale
            k[i, j] = params.outputscale * (1.0 + s) * math.exp(-s)
    ky = k + params.noise * np.eye(m)
    sign, logdet = np.linalg.slogdet(ky)
    assert sign > 0
    return (-0.5 * labels @ np.linalg.solve(ky, labels)
            - 0.5 * logdet - 0.5 * m * math.log(2.0 * math.pi))


class TestMatern:
    def test_zero_distance_is_outputscale(self):
        p = KernelParams(1.0, 1.0, 0.0)
        assert matern32(0.0, p) == pytest.approx(1.0)
        assert matern32(0.0, KernelParams(0.3, 2.5, 0.0)) == pytest.approx(2.5)

    def test_reference_point(self):
        # direct evaluation at r = 1/sqrt(3): (1 + 1) e^{-1}
        p = KernelParams(1.0, 1.0, 0.0)
        assert matern32(1.0 / math.sqrt(3.0), p) == pytest.approx(2.0 / math.e)

    def test_decay_limit(self):
        p = KernelParams(1.0, 1.0, 0.0)
        assert matern32(1e6, p) < 1e-10

    def test_monotone_nonincreasing(self):
        p = KernelParams(0.37, 1.7, 0.0)
        r = np.linspace(0.0, 5.0, 400)
        vals = matern32(r, p)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            matern32(-0.1, KernelParams())

    @staticmethod
    def _reference(r, p):
        s = gp.SQRT3 * np.asarray(r, dtype=float) / p.lengthscale
        return p.outputscale * (1.0 + s) * np.exp(-s)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["empty", "vector", "matrix"]),
           q=st.integers(1, 60), m=st.integers(1, 60),
           lengthscale=st.floats(1e-3, 10.0), outputscale=st.floats(1e-3, 10.0))
    def test_in_place_equals_expression(self, seed, shape, q, m, lengthscale,
                                        outputscale):
        # matern32's bits must equal the reference expression's, and the
        # caller's r must stay untouched.
        rng = np.random.default_rng(seed)
        p = KernelParams(lengthscale, outputscale, 0.0)
        dims = {"empty": (0,), "vector": (q,), "matrix": (q, m)}[shape]
        r = rng.uniform(0.0, 5.0 * lengthscale, dims)
        r[rng.random(dims) < 0.2] = 0.0
        before = r.copy()
        out = matern32(r, p)
        assert isinstance(out, np.ndarray) and out.shape == dims
        assert np.array_equal(out, self._reference(r, p))
        assert np.array_equal(r, before)

        x = float(r.flat[0]) if r.size else 0.0
        for scalar in (x, np.array(x)):
            val = matern32(scalar, p)
            assert type(val) is float
            assert val == float(self._reference(scalar, p))
        zero_d = np.array(x)
        matern32(zero_d, p)
        assert zero_d == x

        if r.size:
            r[tuple(rng.integers(n) for n in dims)] = -1e-12
            with pytest.raises(ValueError):
                matern32(r, p)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KernelParams(lengthscale=0.0)
        with pytest.raises(ValueError):
            KernelParams(outputscale=-1.0)
        with pytest.raises(ValueError):
            KernelParams(noise=-1e-9)
        with pytest.raises(ValueError, match="noise must be non-negative"):
            KernelParams(noise=float("nan"))
        assert KernelParams(noise=0.0).noise == 0.0
        assert KernelParams.nu == 1.5


def _parent_noisy_gram(points, params):
    """noisy_gram as it was built from scipy's cdist, the exactness
    oracle for the compiled kernel block."""
    ky = matern32(cdist(points, points), params)
    diag = np.arange(ky.shape[0])
    ky[diag, diag] += params.noise
    return ky


def _parent_lml(points, labels, params):
    """log_marginal_likelihood with its own cdist and Matern formula, as
    it was before it shared the kernel block: the exactness oracle."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    m = x.shape[0]
    s = gp.SQRT3 * cdist(x, x) / params.lengthscale
    e = np.exp(-s)
    k = params.outputscale * (1.0 + s) * e
    cho, alpha = gp._factor(k + params.noise * np.eye(m), y)
    logdet = 2.0 * np.sum(np.log(np.diag(cho)))
    value = -0.5 * (y @ alpha) - 0.5 * logdet - 0.5 * m * gp.LOG_2PI
    w = np.outer(alpha, alpha) - cho_solve((cho, True), np.eye(m))
    dk_dlog_l = params.outputscale * s * s * e
    return float(value), np.array([0.5 * np.sum(w * dk_dlog_l),
                                   0.5 * np.sum(w * k),
                                   0.5 * params.noise * np.trace(w)])


class TestKernelBlock:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           q=st.integers(0, 300), m=st.integers(0, 300),
           scale=st.floats(1e-3, 10.0), lengthscale=st.floats(1e-3, 10.0),
           outputscale=st.floats(0.1, 10.0),
           special=st.sampled_from([None, None, np.nan, np.inf, -np.inf]))
    def test_equals_matern_of_cdist(self, seed, d, q, m, scale, lengthscale,
                                    outputscale, special):
        rng = np.random.default_rng(seed)
        p = KernelParams(lengthscale, outputscale, 1e-4)
        a = rng.uniform(-scale, scale, (q, d))
        b = rng.uniform(-scale, scale, (m, d))
        if q and m:  # coincident rows: zero distances
            a[rng.random(q) < 0.2] = b[rng.integers(m)]
        if special is not None and q:
            a.flat[rng.integers(a.size, size=3)] = special
        before = a.copy(), b.copy()
        got = gp.kernel_matrix(a, b, p)
        assert got.shape == (q, m) and got.flags.c_contiguous
        with np.errstate(invalid="ignore"):  # inf * 0 where a is infinite
            want = matern32(cdist(a, b), p)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(a, before[0], equal_nan=True)
        assert np.array_equal(b, before[1])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           m=st.integers(1, 40), scale=st.floats(1e-3, 10.0),
           lengthscale=st.floats(1e-3, 10.0), outputscale=st.floats(0.1, 10.0),
           noise=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2]))
    def test_gram_and_fit_equal_parent_formula(self, seed, d, m, scale,
                                               lengthscale, outputscale, noise):
        rng = np.random.default_rng(seed)
        p = KernelParams(lengthscale, outputscale, noise)
        x = rng.uniform(-scale, scale, (m, d))
        x[rng.random(m) < 0.2] = x[0]  # coincident rows
        y = rng.uniform(-1.0, 1.0, m)
        assert np.array_equal(gp.noisy_gram(x, p), _parent_noisy_gram(x, p))
        try:
            want = _parent_lml(x, y, p)
        except gp.SolverError:
            with pytest.raises(gp.SolverError):
                log_marginal_likelihood(x, y, p)
            return
        value, grad = log_marginal_likelihood(x, y, p)
        assert value == want[0] or np.isnan(value) and np.isnan(want[0])
        assert np.array_equal(grad, want[1], equal_nan=True)

    def test_inputs_converted_and_checked(self):
        rng = np.random.default_rng(3)
        p = KernelParams(0.2, 1.5, 0.0)
        a = rng.uniform(0, 1, (9, 3))
        b = rng.uniform(0, 1, (4, 3))
        want = matern32(cdist(a, b), p)
        # Fortran order, a strided view, a 1-D row and integers
        assert np.array_equal(gp.kernel_matrix(np.asfortranarray(a), b, p), want)
        wide = np.repeat(b, 2, axis=1)[:, ::2]
        assert np.array_equal(gp.kernel_matrix(a, wide, p), want)
        assert np.array_equal(gp.kernel_matrix(a[0], b, p), want[:1])
        ints = np.arange(6).reshape(3, 2)
        assert np.array_equal(gp.kernel_matrix(ints, ints, p),
                              matern32(cdist(ints, ints), p))
        for bad in (np.zeros((4, 2)), np.zeros((4, 4)), np.zeros((2, 4, 3))):
            with pytest.raises(ValueError):
                gp.kernel_matrix(a, bad, p)
        with pytest.raises(ValueError):
            log_marginal_likelihood(np.zeros((2, 2, 2)), np.zeros(2), p)

    def test_cli_import_leaves_out_scipy_spatial(self):
        code = ("import sys, obsurf.cli; sys.exit(sorted(m for m in "
                "sys.modules if m.startswith('scipy.spatial')) or None)")
        done = run_fresh(code)
        assert done.returncode == 0, done.stderr


class TestLapackLoader:
    """The solves call scipy's own dpotrf and dpotrs from
    scipy.linalg.cython_lapack, loaded without the scipy.linalg package,
    scipy.special or scipy's array-API layer."""

    def test_episode_leaves_out_scipy_linalg_and_special(self):
        # the golden cable_hook episode: kernel fits, one refinement and
        # NoPenetration checks
        from test_golden import GOLDEN
        code = """if True:
            import hashlib, sys
            import obsurf.cli
            from obsurf.harness import EpisodeConfig, run_episode
            report = run_episode(EpisodeConfig.for_scene(
                "cable_hook", seed=1, max_steps=40, obs_noise_std=0.0))
            print(hashlib.sha256(report.log_text().encode()).hexdigest())
            absent = ("scipy.special", "scipy.linalg", "scipy._lib._array_api")
            sys.exit(sorted(set(absent) & set(sys.modules))
                     or ("scipy.linalg.cython_lapack" not in sys.modules))
        """
        done = run_fresh(code)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.split()[-1] == GOLDEN[("cable_hook", 1, 40, 0.0)]

    def test_reuses_an_imported_cython_lapack(self):
        # either import order ends with the one module that scipy.linalg's
        # own import gives, and the solves call its routines
        code = """if True:
            import ctypes, sys
            import numpy as np
            first = sys.argv[1] == "scipy"
            if first:
                import scipy.linalg
                from scipy.linalg import cython_lapack
            from obsurf import gp
            got = gp._lapack()
            gp.GpSolve(np.eye(3), np.ones(3), gp.KernelParams()).kinv
            if not first:
                import scipy.linalg
                from scipy.linalg import cython_lapack
            assert sys.modules["scipy.linalg.cython_lapack"] is cython_lapack
            name = ctypes.pythonapi.PyCapsule_GetName
            name.restype, name.argtypes = ctypes.c_char_p, [ctypes.py_object]
            ptr = ctypes.pythonapi.PyCapsule_GetPointer
            ptr.restype = ctypes.c_void_p
            ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]
            caps = [cython_lapack.__pyx_capi__[f] for f in ("dpotrf", "dpotrs")]
            assert got == tuple(ptr(c, name(c)) for c in caps), got
        """
        for first in ("scipy", "obsurf"):
            done = run_fresh(code, first)
            assert done.returncode == 0, (first, done.stderr)

    def test_missing_module_is_named(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack",
                            raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy.linalg.cython_lapack"):
            gp._lapack.__wrapped__()


class TestInverse:
    """_inverse is scipy's cho_solve against the identity on a factor of
    factor_subsets: the same dpotrs on the same identity, so the same bits
    in the same memory order, which kv @ kinv and the LML gradient then
    read."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 150))
    @example(seed=1, m=1)
    @example(seed=2, m=150)
    def test_equals_scipy(self, seed, m):
        rng = np.random.default_rng(seed)
        params = KernelParams(rng.uniform(0.03, 0.3), 1.0, 1e-4)
        pts = rng.uniform(0.0, 0.5, (m, 2))
        cho, _ = gp._factor(gp.noisy_gram(pts, params), rng.normal(size=m))
        before = cho.copy(order="A")
        got = gp._inverse(cho)
        want = cho_solve((cho, True), np.eye(m))
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.shape == want.shape and got.strides == want.strides
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert cho.tobytes(order="A") == before.tobytes(order="A")

    def test_empty(self):
        cho, _ = gp._factor(np.eye(2), np.ones(2))
        got = gp._inverse(cho[:0, :0])
        want = cho_solve((cho[:0, :0], True), np.eye(0))
        assert got.shape == want.shape == (0, 0)
        assert got.flags.f_contiguous


class TestPosterior:
    def test_empty_train_is_prior(self):
        p = KernelParams(0.2, 1.7, 1e-4)
        st = gp_posterior(np.zeros((0, 2)), np.zeros(0), p, np.array([0.3, 0.4]))
        assert st.mean == 0.0
        assert st.variance == pytest.approx(1.7)

    def test_interpolates_training_point(self):
        p = KernelParams(1.0, 1.0, 1e-8)
        st = gp_posterior(np.array([[0.1, 0.2]]), np.array([0.7]), p,
                          np.array([0.1, 0.2]))
        assert st.mean == pytest.approx(0.7, abs=1e-3)
        assert st.variance < 1e-6

    def test_two_point_closed_form(self):
        # hand-solved 2x2 system: [[a, b], [b, a]] x = y
        p = KernelParams(0.5, 1.0, 1e-2)
        pts = np.array([[0.0, 0.0], [0.3, 0.0]])
        y = np.array([1.0, -1.0])
        s = math.sqrt(3.0) * 0.3 / 0.5
        b = (1.0 + s) * math.exp(-s)
        a = 1.0 + 1e-2
        det = a * a - b * b
        query = np.array([0.1, 0.05])
        s1 = math.sqrt(3.0) * math.dist(query, pts[0]) / 0.5
        s2 = math.sqrt(3.0) * math.dist(query, pts[1]) / 0.5
        k1 = (1.0 + s1) * math.exp(-s1)
        k2 = (1.0 + s2) * math.exp(-s2)
        alpha = ((a * y[0] - b * y[1]) / det, (a * y[1] - b * y[0]) / det)
        want_mean = k1 * alpha[0] + k2 * alpha[1]
        st = gp_posterior(pts, y, p, query)
        assert st.mean == pytest.approx(want_mean, abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            m = rng.integers(1, 50)
            pts = rng.uniform(-1, 1, (m, 2))
            y = rng.uniform(-1, 1, m)
            p = KernelParams(float(rng.uniform(0.1, 1.0)),
                             float(rng.uniform(0.3, 2.0)),
                             float(rng.uniform(1e-6, 1e-2)))
            q = rng.uniform(-1, 1, 2)
            want_mean, want_var = dense_posterior_oracle(pts, y, p, q)
            st = gp_posterior(pts, y, p, q)
            assert st.mean == pytest.approx(want_mean, abs=1e-6)
            assert st.variance == pytest.approx(want_var, abs=1e-6)

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(3)
        p = KernelParams(0.3, 1.3, 1e-4)
        pts = rng.uniform(0, 1, (30, 2))
        y = rng.uniform(-1, 1, 30)
        for _ in range(50):
            st = gp_posterior(pts, y, p, rng.uniform(-0.5, 1.5, 2))
            assert st.variance <= 1.3 + 1e-9

    def test_adding_point_never_raises_variance(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            p = KernelParams(float(rng.uniform(0.2, 0.8)), 1.0, 1e-4)
            m = int(rng.integers(2, 20))
            pts = rng.uniform(0, 1, (m, 2))
            y = rng.uniform(-1, 1, m)
            extra = rng.uniform(0, 1, 2)
            queries = rng.uniform(0, 1, (20, 2))
            for q in queries:
                before = gp_posterior(pts, y, p, q).variance
                after = gp_posterior(np.vstack([pts, extra]),
                                     np.append(y, 0.5), p, q).variance
                assert after <= before + 1e-8


class TestMarginalLikelihood:
    def test_single_point_zero_label(self):
        # unit total variance makes the value -log(2 pi)/2
        p = KernelParams(1.0, 0.4, 0.6)
        v, _ = log_marginal_likelihood(np.array([[0.0, 0.0]]), np.array([0.0]), p)
        assert v == pytest.approx(-0.5 * math.log(2.0 * math.pi))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(3, 12))
            pts = rng.uniform(0, 1, (m, 2))
            y = rng.uniform(-1, 1, m)
            p = KernelParams(float(rng.uniform(0.1, 1.0)), 1.2, 1e-3)
            v, _ = log_marginal_likelihood(pts, y, p)
            assert v == pytest.approx(dense_lml_oracle(pts, y, p), abs=1e-8)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        names = ("lengthscale", "outputscale", "noise")
        for _ in range(8):
            m = int(rng.integers(2, 15))
            pts = rng.uniform(0, 1, (m, 2))
            y = rng.uniform(-1, 1, m)
            p = KernelParams(float(rng.uniform(0.15, 0.9)),
                             float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(1e-3, 0.1)))
            _, grad = log_marginal_likelihood(pts, y, p)
            for i, name in enumerate(names):
                base = getattr(p, name)
                up = dataclasses.replace(p, **{name: base * math.exp(h)})
                dn = dataclasses.replace(p, **{name: base * math.exp(-h)})
                fd = (log_marginal_likelihood(pts, y, up)[0]
                      - log_marginal_likelihood(pts, y, dn)[0]) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            log_marginal_likelihood(np.zeros((0, 2)), np.zeros(0), KernelParams())


class TestFit:
    def test_zero_steps_noop(self):
        p0 = KernelParams(0.33, 1.1, 0.01)
        rng = np.random.default_rng(0)
        out = fit_hyperparams(rng.normal(size=(5, 2)), rng.normal(size=5),
                              p0, steps=0)
        assert out == p0

    def test_lengthscale_recovery(self):
        # sample from a known GP prior, check the fitted scale lands
        # within a factor of two
        rng = np.random.default_rng(123)
        true = KernelParams(0.4, 1.0, 1e-4)
        pts = rng.uniform(0, 2, (60, 2))
        k = gp.kernel_matrix(pts, pts, true) + 1e-8 * np.eye(60)
        y = np.linalg.cholesky(k) @ rng.standard_normal(60)
        fitted = fit_hyperparams(pts, y, KernelParams(0.1, 1.0, 1e-4),
                                 steps=200, lr=0.1)
        assert 0.2 <= fitted.lengthscale <= 0.8

    def test_lml_never_decreases(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (12, 2))
        y = rng.uniform(-1, 1, 12)
        p = KernelParams(0.5, 1.0, 1e-3)
        prev, _ = log_marginal_likelihood(pts, y, p)
        for _ in range(6):
            p = fit_hyperparams(pts, y, p, steps=3, lr=0.1)
            cur, _ = log_marginal_likelihood(pts, y, p)
            assert cur >= prev - 1e-9
            prev = cur

    def test_bounds_respected(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 0.5, (20, 2))
        y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
        out = fit_hyperparams(pts, y, KernelParams(0.1, 1.0, 1e-4),
                              steps=100, lr=0.2,
                              lengthscale_bounds=(0.06, 0.25),
                              outputscale_bounds=(0.25, 4.0))
        assert 0.06 - 1e-12 <= out.lengthscale <= 0.25 + 1e-12
        assert 0.25 - 1e-12 <= out.outputscale <= 4.0 + 1e-12


def reference_fit(lml, points, labels, p0, steps, lr, lengthscale_bounds,
                  outputscale_bounds, trail=None):
    """fit_hyperparams as it was before it reused scores or scored by
    value, scoring through `lml`: every halving calls the LML, also on a
    candidate it has just scored, and takes its gradient. trail, if
    given, gets the parameters of the start and of each accepted step."""
    if steps == 0:
        return p0
    theta = np.log([p0.lengthscale, p0.outputscale])
    lo = np.log([lengthscale_bounds[0], outputscale_bounds[0]])
    hi = np.log([lengthscale_bounds[1], outputscale_bounds[1]])
    theta = np.clip(theta, lo, hi)

    def unpack(t):
        return dataclasses.replace(p0, lengthscale=float(np.exp(t[0])),
                                   outputscale=float(np.exp(t[1])))

    try:
        best, grad = lml(points, labels, unpack(theta))
    except gp.SolverError:
        return p0
    if not np.isfinite(best):
        return p0
    if trail is not None:
        trail.append(unpack(theta))
    for _ in range(steps):
        step = lr * grad[:2]
        accepted = False
        for _ in range(10):
            cand = np.clip(theta + step, lo, hi)
            try:
                val, g = lml(points, labels, unpack(cand))
            except gp.SolverError:
                val = -np.inf
            if np.isfinite(val) and val >= best and np.any(cand != theta):
                theta, best, grad = cand, val, g
                if trail is not None:
                    trail.append(unpack(theta))
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return unpack(theta)


def outcome(fit, *args, **kwargs):
    """What a fit returns, or the type and message of what it raises."""
    try:
        return fit(*args, **kwargs)
    except ValueError as error:
        return type(error), str(error)


class TestFitScoresOnce:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_clipped_fit_never_rescores(self, seed, monkeypatch):
        # lengthscale runs onto its lower bound and, for seeds 1 and 2,
        # outputscale onto its upper one: every halving from that corner
        # clips back onto the corner, which the reference scores again
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 0.5, (15, 2))
        y = np.where(rng.random(15) < 0.5, -1.0, 1.0)
        p0 = KernelParams(0.08, 1.0, 1e-4)
        args = dict(steps=10, lr=0.05, lengthscale_bounds=(0.06, 0.25),
                    outputscale_bounds=(0.25, 1.2))
        ref_calls, trail, values, grads, reused = [], [], [], [], []

        def counted(points, labels, params):
            ref_calls.append(params)
            return log_marginal_likelihood(points, labels, params)

        def value(x, y, params, se=None):
            values.append(params)
            reused.append(se is not None)
            return lml_value(x, y, params, se)

        def gradient(params, *parts):
            grads.append(params)
            return lml_gradient(params, *parts)

        want = reference_fit(counted, pts, y, p0, trail=trail, **args)
        lml_value, lml_gradient = gp._lml_value, gp._lml_gradient
        monkeypatch.setattr(gp, "_lml_value", value)
        monkeypatch.setattr(gp, "_lml_gradient", gradient)
        got = fit_hyperparams(pts, y, p0, **args)
        assert got == want
        # each candidate scored once, by value
        assert len(values) == len(set(values))
        assert set(values) == set(ref_calls)
        # a gradient where each step starts: at the start and at every
        # accepted point but a last one that ends the fit
        assert grads == trail[:args["steps"]]
        # s and e reused exactly where the lengthscale repeats
        assert reused == [False] + [a.lengthscale == b.lengthscale for a, b
                                    in zip(values, values[1:])]
        if seed in (1, 2):
            assert got.outputscale == 1.2
            assert len(values) == 2 < len(ref_calls) == 12
            assert len(grads) == 2
        else:  # lengthscale held at its lower bound
            assert any(reused)


class TestFitEqualsReference:
    # Drawn to reach every branch of the fit: boxes that bind, candidates
    # whose Gram fails (repeated points without noise at an outputscale
    # near 1e14), values that overflow (labels near 1e154), starts that
    # fail, lengthscales held on a bound, where s and e are reused, and
    # gradients that overflow into a NaN step, on which both fits raise
    # the same ValueError from KernelParams.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 150),
           d=st.integers(1, 3), spread=st.floats(0.05, 2.0),
           repeats=st.sampled_from([0.0, 0.0, 0.3]),
           label_scale=st.sampled_from([1.0, 1.0, 1e3, 1e6, 1e154]),
           noise=st.sampled_from([0.0, 1e-6, 1e-4]),
           lengthscale=st.floats(0.01, 1.0), outputscale=st.floats(0.1, 10.0),
           lengthscale_bounds=st.sampled_from([(0.06, 0.25), (1e-3, 10.0)]),
           outputscale_bounds=st.sampled_from([(0.25, 4.0), (0.25, 1e14)]),
           steps=st.integers(0, 20), lr=st.sampled_from([0.05, 0.5, 5.0]))
    # eight candidates whose Gram fails, in a fit that moves
    @example(seed=509, m=41, d=2, spread=1.0, repeats=0.3, label_scale=1.0,
             noise=0.0, lengthscale=0.1, outputscale=3.0,
             lengthscale_bounds=(0.06, 0.25), outputscale_bounds=(0.25, 1e14),
             steps=15, lr=5.0)
    # a non-finite candidate in a fit that moves
    @example(seed=471, m=26, d=3, spread=0.1, repeats=0.0, label_scale=1e153,
             noise=1e-4, lengthscale=0.05, outputscale=3.0,
             lengthscale_bounds=(1e-3, 10.0), outputscale_bounds=(0.25, 4.0),
             steps=18, lr=0.05)
    # NaN labels: both fits raise at the start
    @example(seed=0, m=5, d=2, spread=1.0, repeats=0.0, label_scale=np.nan,
             noise=1e-4, lengthscale=0.1, outputscale=1.0,
             lengthscale_bounds=(0.06, 0.25), outputscale_bounds=(0.25, 4.0),
             steps=3, lr=0.05)
    # a NaN step: both fits raise
    @example(seed=0, m=1, d=3, spread=1.0, repeats=0.0, label_scale=1e154,
             noise=0.0, lengthscale=1.0, outputscale=0.25,
             lengthscale_bounds=(0.06, 0.25), outputscale_bounds=(0.25, 4.0),
             steps=1, lr=0.05)
    def test_fit_equals_full_lml_reference(self, seed, m, d, spread, repeats,
                                           label_scale, noise, lengthscale,
                                           outputscale, lengthscale_bounds,
                                           outputscale_bounds, steps, lr):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, spread, (m, d))
        x[rng.random(m) < repeats] = x[0]
        y = label_scale * rng.uniform(-1.0, 1.0, m)
        p0 = KernelParams(lengthscale, outputscale, noise)
        args = dict(steps=steps, lr=lr, lengthscale_bounds=lengthscale_bounds,
                    outputscale_bounds=outputscale_bounds)
        with np.errstate(all="ignore"):
            want = outcome(reference_fit, log_marginal_likelihood, x, y, p0,
                           **args)
            got = outcome(fit_hyperparams, x, y, p0, **args)
        assert got == want
