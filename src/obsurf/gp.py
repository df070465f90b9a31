"""Exact Gaussian-process regression with a Matern-3/2 kernel.

Zero-mean GP, dense Cholesky inference, and marginal-likelihood
hyperparameter fitting in log space. Dataset sizes in this project are
O(10^2), so everything is exact; no sparse approximations. Every
Matern block, for a cross-covariance, a Gram or the kernel fit, comes
from the two C passes of matern.c around numpy's exp (`kernel_matrix`);
`matern32` is the same formula on given distances. Every Cholesky
factorization, with its jitter ladder, is one call of the C kernel in
cholesky.c (`factor_subsets`), for one training set or for a stack of
subsets of one, and every explicit inverse from a factor (`_inverse`)
one call of its neighbour there, which solves the identity it writes.
Both call the dpotrf and dpotrs that scipy exports from
scipy.linalg.cython_lapack, loaded alone (`_lapack`): the scipy.linalg
package is never imported. The kernel fit scores each candidate by the
marginal likelihood's value alone (`_lml_value`) and takes its gradient
(`_lml_gradient`, the explicit inverse and the gradient sums) only
where a step is accepted and read.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import clib

SQRT3 = np.sqrt(3.0)

# Jitter escalation ladder applied to the Gram diagonal on factorization
# failure. Bounded so genuine conditioning problems still surface.
_JITTERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

LOG_2PI = np.log(2.0 * np.pi)


class SolverError(RuntimeError):
    """Gram matrix could not be factorized even after jitter escalation."""


@dataclass(frozen=True)
class KernelParams:
    """Matern-3/2 kernel hyperparameters.

    lengthscale and outputscale must be positive, noise non-negative.
    The smoothness is fixed at 3/2 and is not a degree of freedom.
    """

    lengthscale: float = 0.1
    outputscale: float = 1.0
    noise: float = 1e-4

    nu = 1.5  # class constant, immutable by construction

    def __post_init__(self):
        if not (self.lengthscale > 0.0):
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not (self.outputscale > 0.0):
            raise ValueError(f"outputscale must be positive, got {self.outputscale}")
        if not (self.noise >= 0.0):
            raise ValueError(f"noise must be non-negative, got {self.noise}")


@dataclass(frozen=True)
class PosteriorStats:
    """Posterior mean and variance of the GP at a single query point."""

    mean: float
    variance: float


def matern32(r, params: KernelParams):
    """Matern-3/2 covariance as a function of distance.

    k(r) = outputscale * (1 + sqrt(3) r / l) * exp(-sqrt(3) r / l)

    Accepts scalars or arrays; distances must be non-negative.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("matern32 requires non-negative distances")
    s = SQRT3 * r / params.lengthscale
    k = (s + 1.0) * params.outputscale * np.exp(-s)
    return k if k.ndim else float(k)


def _matern(a, b, params: KernelParams, parts: bool):
    """The Matern-3/2 block between the rows of a and b, from the two
    passes of matern.c around numpy's exp: s = sqrt(3) |a_i - b_j| / l,
    e = exp(-s) and k = outputscale * (1 + s) * e, bit for bit as
    matern32 gives them from scipy's pairwise Euclidean distances.
    Returns k alone, written over s, unless parts asks for (s, e, k)."""
    a = np.atleast_2d(np.ascontiguousarray(a, dtype=float))
    b = np.atleast_2d(np.ascontiguousarray(b, dtype=float))
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"kernel_matrix needs two 2-D arrays with the same "
                         f"number of columns, not {a.shape} and {b.shape}")
    q, m = len(a), len(b)
    buf = np.empty((3 if parts else 2, q, m))  # s, e and, for parts, k
    at, size = clib.addr(buf), buf.itemsize * q * m
    lib = clib.kernels()
    lib.obsurf_matern_s(clib.addr(a), q, clib.addr(b), m, a.shape[1],
                        params.lengthscale, at, at + size)
    np.exp(buf[1], out=buf[1])
    lib.obsurf_matern_k(at, at + size, q * m, params.outputscale,
                        at + 2 * size if parts else at)
    return tuple(buf) if parts else buf[0]


def kernel_matrix(a: np.ndarray, b: np.ndarray, params: KernelParams) -> np.ndarray:
    """Cross-covariance matrix k(a_i, b_j) without any noise term.
    Raises ValueError unless a and b have the same number of columns."""
    return _matern(a, b, params, False)


def noisy_gram(points: np.ndarray, params: KernelParams) -> np.ndarray:
    """Training covariance k(x_i, x_j) + noise * [i == j].

    Every entry depends on its own pair of points only, so the Gram of a
    subset is the same subset of this matrix, bit for bit.
    """
    ky = kernel_matrix(points, points, params)
    diag = np.arange(ky.shape[0])
    ky[diag, diag] += params.noise
    return ky


_JITTER_LADDER = np.array(_JITTERS)
_JITTER_ADDR = _JITTER_LADDER.ctypes.data
# What the kernel returns for a failing candidate, and what it raises.
_FAILURES = {
    -2: (SolverError, "non-finite entries in Gram matrix"),
    -3: (SolverError, f"Gram matrix not positive definite after jitter {max(_JITTERS)}"),
    -4: (ValueError, "array must not contain infs or NaNs"),
}
_CYTHON_LAPACK = "scipy.linalg.cython_lapack"


@functools.cache
def _lapack() -> tuple:
    """Addresses of the dpotrf and dpotrs that scipy exports from
    scipy.linalg.cython_lapack, the routines its f2py wrappers call, for
    the kernels in cholesky.c.

    The module is loaded from its file in scipy's linalg directory,
    without importing the scipy.linalg package, whose __init__ pulls in
    much of scipy and numpy (~0.25 s). A module already imported is
    reused, as an import would: an extension module is initialised once
    per process. Raises ImportError naming the module if it is
    missing."""
    module = sys.modules.get(_CYTHON_LAPACK)
    if module is None:
        package = importlib.util.find_spec("scipy")  # does not import it
        spec = package and importlib.machinery.PathFinder.find_spec(
            _CYTHON_LAPACK, [os.path.join(path, "linalg") for path
                             in package.submodule_search_locations])
        if spec is None:
            raise ImportError(f"no module named {_CYTHON_LAPACK!r}",
                              name=_CYTHON_LAPACK)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_CYTHON_LAPACK] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_CYTHON_LAPACK]
            raise

    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype, get_name.argtypes = ctypes.c_char_p, [ctypes.py_object]
    get_ptr = ctypes.pythonapi.PyCapsule_GetPointer
    get_ptr.restype = ctypes.c_void_p
    get_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]
    capsules = (module.__pyx_capi__[name] for name in ("dpotrf", "dpotrs"))
    return tuple(get_ptr(c, get_name(c)) for c in capsules)


def factor_subsets(ky: np.ndarray, y: np.ndarray, keeps: np.ndarray,
                   factors: bool):
    """Jittered Cholesky factor and alpha = Ky^-1 y of each subset of a
    (U, n) stack of keep vectors, from the noisy Gram ky (n, n) of the
    full set and its labels y (n), in one kernel call. keeps None
    stands for the one subset that keeps all n points (U = 1).

    Each subset's Gram is the slice of ky; on failure the smallest
    jitter from _JITTERS that works is added to its diagonal. Returns
    alphas (U, n), each row the subset's alpha in its kept columns and
    0 elsewhere; the U lower factors, (s, s) Fortran-ordered with the
    jittered Gram above the diagonal as scipy's cho_factor leaves it,
    or None unless asked for; and how many subsets needed jitter.
    Raises, for the first subset that fails, what a subset raises
    alone: SolverError on non-finite kept Gram entries or when even the
    largest jitter fails, else ValueError on non-finite kept labels.
    """
    ky = np.ascontiguousarray(ky, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    n = len(y)
    if keeps is None:
        u = 1
    else:
        keeps = np.ascontiguousarray(keeps, dtype=bool)
        u = len(keeps)
    if ky.shape != (n, n) or y.shape != (n,) or (
            keeps is not None and keeps.shape != (u, n)):
        raise ValueError(f"factor_subsets: ky {ky.shape}, y {y.shape} and "
                         f"keeps {np.shape(keeps)} do not match")
    alphas = np.empty((u, n))
    slabs = np.empty((u, n, n)) if factors else None
    jittered = clib.kernels().obsurf_cholesky(
        clib.addr(ky), n, clib.addr(y),
        None if keeps is None else clib.addr(keeps), u, _JITTER_ADDR,
        len(_JITTERS), *_lapack(), clib.addr(alphas),
        None if slabs is None else clib.addr(slabs))
    if jittered < 0:
        if jittered not in _FAILURES:
            raise MemoryError("factor_subsets: no memory for the kernel's "
                              "scratch")
        error, message = _FAILURES[jittered]
        raise error(message)
    if slabs is None:
        return alphas, None, jittered
    # slab u holds its factor column-major in its first s * s entries
    sizes = [n] if keeps is None else keeps.sum(axis=1).tolist()
    return alphas, [slab.reshape(-1)[:s * s].reshape(s, s).T for slab, s
                    in zip(slabs, sizes)], jittered


def _inverse(c: np.ndarray) -> np.ndarray:
    """(c c^T)^-1 for a lower factor c of factor_subsets, as scipy's
    cho_solve(c, eye) gives it: the same dpotrs on the identity, which
    it returns Fortran-ordered."""
    m = len(c)
    x = np.empty((m, m), order="F")
    # the transposes are C-contiguous views of the same column-major data
    clib.kernels().obsurf_inverse(_lapack()[1], clib.addr(c.T), m,
                                  clib.addr(x.T))
    return x


def _factor(ky: np.ndarray, y: np.ndarray):
    """Lower Cholesky factor of ky and alpha = ky^-1 y: factor_subsets
    on the whole set."""
    alphas, factors, _ = factor_subsets(ky, y, None, True)
    return factors[0], alphas[0]


class GpSolve:
    """Reusable factorization of one training set.

    Caches the Cholesky factor, the weight vector alpha = Ky^-1 y, and
    (lazily) the explicit inverse used for batched variance queries.
    Treat instances as immutable once built.
    """

    def __init__(self, points: np.ndarray, labels: np.ndarray,
                 params: KernelParams):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.labels = np.asarray(labels, dtype=float).ravel()
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError("points and labels must have equal length")
        self.params = params
        self._cho, self.alpha = _factor(noisy_gram(self.points, params),
                                        self.labels)
        self._kinv = None

    @classmethod
    def factored(cls, points: np.ndarray, labels: np.ndarray,
                 params: KernelParams, cho: np.ndarray,
                 alpha: np.ndarray) -> "GpSolve":
        """The solve whose noisy Gram factor_subsets has factored
        already: cho the lower factor and alpha the weights, with points
        and labels as the constructor takes them."""
        solve = cls.__new__(cls)
        solve.points, solve.labels, solve.params = points, labels, params
        solve._cho, solve.alpha, solve._kinv = cho, alpha, None
        return solve

    @property
    def kinv(self) -> np.ndarray:
        if self._kinv is None:
            self._kinv = _inverse(self._cho)
        return self._kinv

    def posterior(self, ks: np.ndarray, var_rows):
        """Posterior mean at every row of the cross-covariance ks between
        the queries and the training points, shape (q, m), and the
        variance at the rows var_rows selects (any numpy index, e.g.
        slice(None) for all; None skips the variance and returns None)."""
        mean = ks @ self.alpha
        if var_rows is None:
            return mean, None
        kv = np.ascontiguousarray(ks[var_rows])
        # var = k(0) - diag(kv Ky^-1 kv^T), computed via the explicit
        # inverse so the whole batch is one BLAS call.
        var = self.params.outputscale - np.einsum("qm,qm->q", kv @ self.kinv, kv)
        np.clip(var, 0.0, None, out=var)
        return mean, var

    def predict(self, queries: np.ndarray, var_rows):
        """Posterior mean at each query row and variance at the rows
        var_rows selects (see posterior), from one kernel evaluation."""
        ks = kernel_matrix(queries, self.points, self.params)
        return self.posterior(ks, var_rows)

    def predict_mean(self, queries: np.ndarray) -> np.ndarray:
        """Posterior mean only; skips the quadratic variance term."""
        ks = kernel_matrix(queries, self.points, self.params)
        return self.posterior(ks, None)[0]


def gp_posterior(
    points: np.ndarray,
    labels: np.ndarray,
    params: KernelParams,
    query: np.ndarray,
) -> PosteriorStats:
    """Zero-prior-mean GP posterior at a single query point.

    With empty training data this is the prior: mean 0, variance equal
    to the outputscale.
    """
    query = np.asarray(query, dtype=float).ravel()
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        return PosteriorStats(0.0, params.outputscale)
    solve = GpSolve(points, labels, params)
    mean, var = solve.predict(query[None, :], slice(None))
    return PosteriorStats(float(mean[0]), float(var[0]))


def _lml_value(x: np.ndarray, y: np.ndarray, params: KernelParams,
               se: tuple | None = None) -> tuple[float, tuple]:
    """Log marginal likelihood of labels y at points x, both as
    log_marginal_likelihood converts them, with the arrays its gradient
    reads: (value, (s, e, k, cho, alpha)). se, the Matern s and e of an
    earlier call at the same lengthscale, skips their pass: only k is
    formed again, from the same bits."""
    if se is None:
        s, e, k = _matern(x, x, params, True)
    else:
        s, e = se
        k = np.empty_like(s)
        clib.kernels().obsurf_matern_k(clib.addr(s), clib.addr(e), s.size,
                                       params.outputscale, clib.addr(k))
    m = len(k)
    cho, alpha = _factor(k + params.noise * np.eye(m), y)
    logdet = 2.0 * np.sum(np.log(np.diag(cho)))
    value = -0.5 * (y @ alpha) - 0.5 * logdet - 0.5 * m * LOG_2PI
    return float(value), (s, e, k, cho, alpha)


def _lml_gradient(params: KernelParams, s, e, k, cho, alpha) -> np.ndarray:
    """Gradient of the log marginal likelihood in log-parameter space,
    from the arrays _lml_value returns with its value at params."""
    w = np.outer(alpha, alpha) - _inverse(cho)  # dLML/dKy = 0.5 * w

    # dK/dlog(l) = outputscale * s^2 * exp(-s); dK/dlog(sf2) = K;
    # dKy/dlog(sn2) = noise * I.
    dk_dlog_l = params.outputscale * s * s * e
    g_l = 0.5 * np.sum(w * dk_dlog_l)
    g_sf = 0.5 * np.sum(w * k)
    g_sn = 0.5 * params.noise * np.trace(w)
    return np.array([g_l, g_sf, g_sn])


def log_marginal_likelihood(
    points: np.ndarray,
    labels: np.ndarray,
    params: KernelParams,
) -> tuple[float, np.ndarray]:
    """Log marginal likelihood and its gradient in log-parameter space.

    Returns (value, gradient) with the gradient ordered as
    (d/dlog lengthscale, d/dlog outputscale, d/dlog noise). The value is
    -0.5 y^T Ky^-1 y - 0.5 log|Ky| - (m/2) log(2 pi). It is the value
    half (`_lml_value`) and the gradient half (`_lml_gradient`) in turn;
    fit_hyperparams calls them apart, taking the gradient only where it
    reads one.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    if x.shape[0] == 0:
        raise ValueError("log_marginal_likelihood requires non-empty training data")
    value, parts = _lml_value(x, y, params)
    return value, _lml_gradient(params, *parts)


def fit_hyperparams(
    points: np.ndarray,
    labels: np.ndarray,
    p0: KernelParams,
    steps: int = 20,
    lr: float = 0.05,
    lengthscale_bounds: tuple | None = None,
    outputscale_bounds: tuple | None = None,
) -> KernelParams:
    """Gradient ascent on the LML over (log lengthscale, log outputscale);
    the noise stays at p0.noise.

    Backtracking (step halving, at most 10 times) guarantees the
    accepted LML sequence is non-decreasing; on a non-finite LML the fit
    aborts and returns the last finite parameters. Optional bounds
    box-constrain the search: candidates are projected into the box
    before the acceptance check, so monotonicity still holds.

    Each candidate is scored once, by the LML's value alone; a
    candidate at the lengthscale of the one before it reuses that one's
    Matern s and e. The gradient is taken only at the start and at each
    accepted point that a later step reads, from the arrays of its
    value, so the result is log_marginal_likelihood's ascent bit for bit.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if steps == 0 or np.asarray(points).size == 0:
        return p0

    theta = np.log([p0.lengthscale, p0.outputscale])
    lo = np.full(2, -np.inf)
    hi = np.full(2, np.inf)
    if lengthscale_bounds is not None:
        lo[0], hi[0] = np.log(lengthscale_bounds)
    if outputscale_bounds is not None:
        lo[1], hi[1] = np.log(outputscale_bounds)
    theta = np.clip(theta, lo, hi)

    def unpack(t: np.ndarray) -> KernelParams:
        return replace(p0, lengthscale=float(np.exp(t[0])),
                       outputscale=float(np.exp(t[1])))

    x = np.atleast_2d(np.asarray(points, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()

    def score(t: np.ndarray, last: tuple | None) -> tuple:
        """(t, params, value, arrays) of the candidate t, by value alone:
        value -inf and arrays None where its Gram cannot be factored. At
        the lengthscale of last, the candidate scored before, its
        Matern s and e are reused."""
        params = unpack(t)
        se = None
        if last is not None and last[3] is not None and \
                last[1].lengthscale == params.lengthscale:
            se = last[3][:2]
        try:
            return (t, params) + _lml_value(x, y, params, se)
        except SolverError:
            return t, params, -np.inf, None

    scored = score(theta, None)
    _, params, best, parts = scored
    if not np.isfinite(best):
        return p0

    # A halving clipped onto the box can give the candidate just scored
    # again; its score is reused instead of recomputed. The gradient is
    # taken only where a step starts: at the start and at accepted points.
    for _ in range(steps):
        step = lr * _lml_gradient(params, *parts)[:2]
        accepted = False
        for _ in range(10):
            cand = np.clip(theta + step, lo, hi)
            if np.any(cand != scored[0]):
                scored = score(cand, scored)
            if np.isfinite(scored[2]) and scored[2] >= best and \
                    np.any(cand != theta):
                theta, params, best, parts = scored
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return unpack(theta)
