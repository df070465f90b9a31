import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obsurf import refine
from obsurf.constraints import (NoPenetration, PathExists,
                                SubsetEvaluator, all_satisfied)
from obsurf.contact import DatasetPair, TAG_GOAL, TAG_OBSERVED, TAG_PREDICTED
from obsurf.gp import KernelParams, matern32
from obsurf.gpis import Gpis, inv_norm_cdf
from obsurf.refine import (COV_EIG_FLOOR, PENALTY, RefinementProblem,
                           _cma_constants, compute_weights, phi,
                           refine_contacts, run_cmawm)
from test_constraints import (ENCLOSURE_GOAL, ENCLOSURE_GRID, ENCLOSURE_STATE,
                              penetrating_enclosure)


PARAMS = KernelParams(0.1, 1.0, 1e-4)


def always(omegas):
    return np.ones(len(omegas), dtype=bool)


def never(omegas):
    return np.zeros(len(omegas), dtype=bool)


class Rule:
    """An evaluator shaped like SubsetEvaluator, from a rule on a (U, n)
    stack of keep vectors: `batch` applies it and a call judges one."""

    def __init__(self, rule):
        self.batch = rule

    def __call__(self, keep):
        return bool(self.batch(np.asarray(keep, dtype=bool)[None])[0])


def brute_force_optimum(weights, pinned, feasible):
    """Exhaustive enumeration over the free bits."""
    free = np.where(~pinned)[0]
    best_val, best = -1.0, None
    for mask in range(2 ** len(free)):
        omega = np.ones(len(weights), dtype=bool)
        omega[free] = [(mask >> i) & 1 for i in range(len(free))]
        if feasible(omega[None])[0]:
            val = weights @ omega
            if val > best_val:
                best_val, best = val, omega
    return best_val, best


def random_instance(seed):
    """Synthetic keep/remove instance shaped like the real ones: a few
    low-weight spurious entries must be dropped."""
    r = np.random.default_rng(seed)
    n_all = 12
    m = int(r.integers(6, 13))
    pinned = np.zeros(n_all, dtype=bool)
    pinned[r.choice(n_all, n_all - m, replace=False)] = True
    free = np.where(~pinned)[0]
    depth = int(r.integers(1, 5))
    culprits = r.choice(free, min(depth + int(r.integers(0, 3)), m),
                        replace=False)
    allowed = len(culprits) - depth
    raw = r.uniform(0.8, 1.2, n_all)
    raw[culprits] = r.uniform(0.05, 0.3, len(culprits))
    weights = raw / raw.sum()
    feasible = lambda oms: oms[:, culprits].sum(axis=1) <= allowed  # noqa: E731
    return RefinementProblem(weights, pinned, feasible)


class TestWeights:
    def test_singleton(self):
        c = compute_weights(np.array([[0.1, 0.1]]), np.array([[0.1, 0.1]]),
                            PARAMS)
        assert c == pytest.approx([1.0])

    def test_symmetry(self):
        bar = np.array([[0.0, 0.0], [1.0, 1.0]])
        mem = np.array([[0.0, 0.0], [1.0, 1.0]])
        c = compute_weights(bar, mem, PARAMS)
        assert c[0] == pytest.approx(c[1])
        assert c.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(1)
        bar = rng.uniform(0, 1, (3, 2))
        mem = rng.uniform(0, 1, (7, 2))
        c = compute_weights(bar, mem, PARAMS)
        scores = np.array([
            sum(matern32(np.linalg.norm(b - m), PARAMS) for m in mem)
            for b in bar
        ])
        want = np.exp(scores - scores.max())
        want /= want.sum()
        np.testing.assert_allclose(c, want, atol=1e-9)
        assert np.argmax(scores) == np.argmax(c)

    def test_denser_point_weighs_more(self):
        bar = np.array([[0.0, 0.0], [1.0, 1.0]])
        mem = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.01], [1.0, 1.0]])
        c = compute_weights(bar, mem, PARAMS)
        assert c[0] > c[1]

    def test_empty_bar_rejected(self):
        with pytest.raises(ValueError):
            compute_weights(np.zeros((0, 2)), np.zeros((0, 2)), PARAMS)


class TestPhi:
    def test_all_ones_feasible(self):
        w = np.full(4, 0.25)
        prob = RefinementProblem(w, np.zeros(4, bool), always)
        value, ok = phi(prob, np.ones(4, bool))
        assert value == pytest.approx(-1.0) and ok

    def test_all_ones_infeasible(self):
        w = np.full(4, 0.25)
        prob = RefinementProblem(w, np.zeros(4, bool), never)
        value, ok = phi(prob, np.ones(4, bool))
        assert value == pytest.approx(9.0) and not ok

    def test_partial_keep(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        pinned = np.array([True, True, False, False])
        prob = RefinementProblem(w, pinned, always)
        omega = np.array([True, True, False, False])
        value, ok = phi(prob, omega)
        assert value == pytest.approx(-0.3) and ok


class TestRunCmawm:
    def test_unconstrained_keeps_everything(self):
        prob = random_instance(0)
        prob = RefinementProblem(prob.weights, prob.pinned, always)
        omega, val, found = run_cmawm(prob, 10, 20, seed=0)
        assert found
        assert omega.all()
        assert val == pytest.approx(prob.weights.sum())

    def test_infeasible_returns_all_ones(self):
        prob = random_instance(1)
        prob = RefinementProblem(prob.weights, prob.pinned, never)
        omega, val, found = run_cmawm(prob, 10, 20, seed=0)
        assert not found
        assert omega.all()
        assert val == -1.0

    def test_matches_brute_force_with_margin(self):
        hits = feasible_found = 0
        for seed in range(10):
            prob = random_instance(200 + seed)
            bf_val, _ = brute_force_optimum(prob.weights, prob.pinned,
                                            prob.feasible)
            omega, val, found = run_cmawm(prob, 25, 20, seed=seed)
            assert found  # all these instances are feasible
            feasible_found += 1
            assert prob.feasible(omega[None])[0]
            if abs(val - bf_val) < 1e-12:
                hits += 1
        assert hits >= 9
        assert feasible_found == 10

    def test_deterministic(self):
        prob = random_instance(7)
        a = run_cmawm(prob, 15, 20, seed=3)
        b = run_cmawm(prob, 15, 20, seed=3)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1] and a[2] == b[2]

    def test_feasible_phi_has_no_penalty(self):
        prob = random_instance(9)
        omega, val, found = run_cmawm(prob, 25, 20, seed=1)
        assert found
        value, ok = phi(prob, omega)
        assert ok and value == pytest.approx(-val)

    def test_population_floor(self):
        prob = random_instance(3)
        with pytest.raises(ValueError):
            run_cmawm(prob, 10, 3, seed=0)
        with pytest.raises(ValueError):
            run_cmawm(prob, 0, 20, seed=0)

    def test_zero_free_variables(self):
        w = np.full(3, 1 / 3)
        prob = RefinementProblem(w, np.ones(3, bool), always)
        omega, val, found = run_cmawm(prob, 5, 20, seed=0)
        assert found and omega.all()
        prob = RefinementProblem(w, np.ones(3, bool), never)
        omega, val, found = run_cmawm(prob, 5, 20, seed=0)
        assert not found and omega.all()


def build_pair(seed=0):
    """Dataset with goal seed, exteriors, interiors, and stall entries."""
    rng = np.random.default_rng(seed)
    ext = rng.uniform(0, 0.4, (6, 2))
    interior = rng.uniform(0.1, 0.3, (4, 2))
    stall = rng.uniform(0, 0.4, (3, 2))
    pts = np.vstack([[[0.2, 0.2]], ext, interior, stall])
    labels = np.concatenate([[1.0], np.ones(6), -np.ones(4), np.ones(3)])
    tags = np.concatenate([[TAG_GOAL], np.full(6, TAG_OBSERVED),
                           np.full(4, TAG_PREDICTED), np.full(3, TAG_OBSERVED)])
    mask = np.arange(len(pts)) >= 11
    return DatasetPair(pts, labels, tags, mask,
                       pts.copy(), labels.copy(), tags.copy(), mask.copy())


class TestRefineContacts:
    def test_purges_masked_everywhere(self):
        dp = build_pair()
        out, event = refine_contacts(
            dp, PARAMS, lambda pts, labs: Rule(always),
            generations=5, popsize=20, seed=0, step=17)
        assert not out.bar_mask.any()
        assert not out.mem_mask.any()
        assert event.purged == 3
        assert event.step == 17

    def test_feasible_everywhere_keeps_all(self):
        dp = build_pair()
        out, event = refine_contacts(
            dp, PARAMS, lambda pts, labs: Rule(always),
            generations=5, popsize=20, seed=0)
        assert event.found_feasible
        assert out.bar_size == dp.purge_masked().bar_size

    def test_infeasible_leaves_bar_after_purge(self):
        dp = build_pair()
        out, event = refine_contacts(
            dp, PARAMS, lambda pts, labs: Rule(never),
            generations=5, popsize=20, seed=0)
        assert not event.found_feasible
        assert out.bar_size == dp.purge_masked().bar_size
        assert event.removed_points.shape[0] == 0

    def test_removed_points_stay_in_memory(self):
        dp = build_pair()
        labels = dp.purge_masked().bar_labels

        def factory(pts, labs):
            # require dropping at least two interiors
            interiors = labs < 0
            return Rule(lambda keeps: (keeps & interiors).sum(axis=1)
                        <= interiors.sum() - 2)

        out, event = refine_contacts(dp, PARAMS, factory,
                                     generations=25, popsize=20, seed=0)
        assert event.found_feasible
        assert event.removed_points.shape[0] >= 2
        for p in event.removed_points:
            d = np.linalg.norm(out.mem_points - p[None], axis=1)
            assert d.min() <= 1e-9

    def test_exteriors_and_seeds_never_removed(self):
        dp = build_pair()

        def factory(pts, labs):
            interiors = labs < 0
            return Rule(lambda keeps: (keeps & interiors).sum(axis=1) == 0)

        out, event = refine_contacts(dp, PARAMS, factory,
                                     generations=25, popsize=20, seed=1)
        assert event.found_feasible
        assert (out.bar_labels > 0).sum() == (dp.purge_masked().bar_labels > 0).sum()
        assert (out.bar_tags == TAG_GOAL).sum() == 1
        assert (out.bar_labels < 0).sum() == 0

    def test_event_record_shape(self):
        dp = build_pair()
        _, event = refine_contacts(
            dp, PARAMS, lambda pts, labs: Rule(always),
            generations=4, popsize=20, seed=0, step=3)
        rec = event.to_record()
        assert set(rec) == {"step", "bar_before", "bar_after", "purged",
                            "generations", "found_feasible", "phi_star",
                            "removed"}

    def test_search_runs_when_relaxed_set_fails(self):
        # The relaxed set (goal seed and the exterior point) leaves the
        # state supported but below the bound; the unpinned observed
        # label 0.5 beside it lifts the bound, so the answer is a
        # larger set: keep it and drop only the interior point.
        params = KernelParams(0.1, 1.0, 1e-4)
        state = np.array([[0.2, 0.2]])
        goal = np.array([[0.9, 0.9]])
        pts = np.array([[0.9, 0.9], [0.26, 0.2], [0.2, 0.21], [0.2, 0.19]])
        labs = np.array([1.0, 1.0, 0.5, -1.0])
        tags = np.array([TAG_GOAL, TAG_OBSERVED, TAG_OBSERVED, TAG_PREDICTED])
        mask = np.zeros(4, dtype=bool)
        dp = DatasetPair(pts, labs, tags, mask,
                         pts.copy(), labs.copy(), tags.copy(), mask.copy())
        specs = [NoPenetration(zeta=0.1)]

        def factory(p, l):
            return SubsetEvaluator(specs, p, l, params, None, state, goal)

        ev = factory(pts, labs)
        assert not ev(np.array([True, True, False, False]))  # relaxed
        assert not ev(np.ones(4, dtype=bool))
        out, event = refine_contacts(dp, params, factory, generations=25,
                                     popsize=20, seed=0)
        assert event.found_feasible
        assert event.generations == 25
        np.testing.assert_array_equal(event.removed_points, [[0.2, 0.19]])
        assert ev(np.array([True, True, True, False]))
        assert out.bar_size == 3

    def test_cable_like_far_component_does_not_block(self):
        # After the stall purge only the goal seed is pinned. One
        # occluded link is far from every point and sits at the prior,
        # where no kept subset can lift its bound; another is pulled
        # inside by a spurious interior point. Refinement must drop that
        # point and keep the contact label beside the links.
        params = KernelParams(0.06, 4.0, 1e-4)  # on the refit box
        goal = np.array([[0.38, 0.42]])
        state = np.array([[0.30, 0.25], [0.33, 0.25], [0.05, 0.45]])
        pts = np.array([goal[0], [0.305, 0.25], [0.30, 0.27], [0.33, 0.27]])
        labs = np.array([1.0, 0.45, -0.5, -0.5])
        tags = np.array([TAG_GOAL, TAG_OBSERVED, TAG_PREDICTED, TAG_PREDICTED])
        mask = np.zeros(4, dtype=bool)
        dp = DatasetPair(pts, labs, tags, mask,
                         pts.copy(), labs.copy(), tags.copy(), mask.copy())
        specs = [NoPenetration(zeta=0.4)]
        assert not all_satisfied(specs, Gpis(pts, labs, params), state, goal)

        def factory(p, l):
            return SubsetEvaluator(specs, p, l, params, None, state, goal)

        out, event = refine_contacts(dp, params, factory, generations=25,
                                     popsize=50, seed=0)
        assert event.found_feasible
        np.testing.assert_array_equal(event.removed_points, [[0.33, 0.27]])
        assert (out.bar_tags == TAG_GOAL).sum() == 1
        assert all_satisfied(specs, Gpis(out.bar_points, out.bar_labels, params),
                             state, goal)


# -- reference: the search as it was before it judged whole generations --
# Kept verbatim (names prefixed) as an exactness oracle: every candidate
# not in the cache is scored through phi, one feasible call each, on a
# stack of one.

def _reference_phi(problem: RefinementProblem, omega: np.ndarray) -> tuple[float, bool]:
    """Objective: negated kept weight plus a flat penalty on violation.

    Returns (value, feasible). For a feasible omega the value is
    -kept + 0.0, so 0.0 - value is the kept weight exactly.
    """
    omega = np.asarray(omega, dtype=bool)
    ok = bool(problem.feasible(omega[None])[0])
    return float(-(problem.weights @ omega) + PENALTY * (0.0 if ok else 1.0)), ok


def _reference_run_cmawm(
    problem: RefinementProblem,
    generations: int,
    popsize: int,
    seed: int,
) -> tuple[np.ndarray, float, bool]:
    """Search for the feasible bit vector keeping the most weight.

    Samples are binarized at 0.5, scored by `phi`, and recombined by
    rank; after each distribution update every coordinate's marginal is
    clipped so the minority bit keeps probability >= 1/(popsize * m).
    The best feasible candidate by kept weight is returned; if none is
    found the all-ones vector comes back with found_feasible False.

    Deterministic for a fixed (problem, seed).
    """
    if generations < 1:
        raise ValueError("generations must be >= 1")
    if popsize < 4:
        raise ValueError("population size must be >= 4")
    pinned = np.asarray(problem.pinned, dtype=bool)
    n_all = len(pinned)
    free_idx = np.where(~pinned)[0]
    m = len(free_idx)

    best_omega = np.ones(n_all, dtype=bool)
    best_score = -1.0  # stays -1.0 until a feasible candidate is seen

    def full(bits: np.ndarray) -> np.ndarray:
        omega = np.ones(n_all, dtype=bool)
        omega[free_idx] = bits
        return omega

    if m == 0:
        # Nothing to optimize: the single candidate is the full set.
        value, ok = _reference_phi(problem, best_omega)
        return best_omega, (0.0 - value if ok else -1.0), ok

    cache: dict[bytes, tuple[float, bool]] = {}

    mu, w, mueff, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n = _cma_constants(m, popsize)
    mean = np.full(m, 0.5)
    step_size = 0.25
    cov = np.eye(m)
    p_sigma = np.zeros(m)
    p_cov = np.zeros(m)
    q_margin = inv_norm_cdf(1.0 - 1.0 / (popsize * m))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    for gen in range(generations):
        cov = 0.5 * (cov + cov.T)
        eigval, eigvec = np.linalg.eigh(cov)
        eigval = np.clip(eigval, COV_EIG_FLOOR, None)
        sqrt_c = eigvec * np.sqrt(eigval)  # B diag(D)
        inv_sqrt_c = (eigvec / np.sqrt(eigval)) @ eigvec.T

        z = rng.standard_normal((popsize, m))
        y = z @ sqrt_c.T
        x = mean[None, :] + step_size * y
        bits = x >= 0.5

        values = np.empty(popsize)
        for k in range(popsize):
            key = bits[k].tobytes()
            if key not in cache:
                cache[key] = _reference_phi(problem, full(bits[k]))
            value, ok = cache[key]
            values[k] = value
            # not -value: a kept weight of 0.0 must not log as -0.0
            kept = 0.0 - value
            if ok and kept > best_score:
                best_omega = full(bits[k])
                best_score = kept

        order = np.argsort(values, kind="stable")[:mu]
        y_w = w @ y[order]
        mean = mean + step_size * y_w

        p_sigma = ((1.0 - c_sigma) * p_sigma
                   + np.sqrt(c_sigma * (2.0 - c_sigma) * mueff)
                   * (inv_sqrt_c @ y_w))
        ps_norm = np.linalg.norm(p_sigma)
        denom = np.sqrt(1.0 - (1.0 - c_sigma) ** (2 * (gen + 1)))
        h_sig = float(ps_norm / denom < (1.4 + 2.0 / (m + 1.0)) * chi_n)
        p_cov = ((1.0 - c_c) * p_cov
                 + h_sig * np.sqrt(c_c * (2.0 - c_c) * mueff) * y_w)

        rank_mu = np.einsum("i,ij,ik->jk", w, y[order], y[order])
        cov = ((1.0 - c_1 - c_mu) * cov
               + c_1 * (np.outer(p_cov, p_cov)
                        + (1.0 - h_sig) * c_c * (2.0 - c_c) * cov)
               + c_mu * rank_mu)
        step_size *= float(np.exp((c_sigma / d_sigma)
                                  * (ps_norm / chi_n - 1.0)))
        step_size = float(np.clip(step_size, 1e-8, 1e4))

        # The mean lives in the bit-encoding box; letting it run past the
        # thresholds only kills exploration without changing any sample's
        # rounding.
        mean = np.clip(mean, 0.0, 1.0)
        # Margin correction: keep both bit values reachable per coordinate.
        sd = step_size * np.sqrt(np.clip(np.diag(cov), COV_EIG_FLOOR, None))
        lo = 0.5 - sd * q_margin
        hi = 0.5 + sd * q_margin
        mean = np.clip(mean, lo, hi)

    return best_omega, best_score, best_score > -1.0


class Recorded:
    """A stack judge that logs every bit vector it judges."""

    def __init__(self, inner):
        self.inner = inner
        self.judged = []

    def __call__(self, omegas):
        self.judged += [row.tobytes() for row in omegas]
        return self.inner(omegas)


class TestRunCmawmOracle:
    enclosure_specs = {
        "path": [PathExists(grid=ENCLOSURE_GRID, component=0)],
        "penetration": [NoPenetration(zeta=0.4)],
        "both": [PathExists(grid=ENCLOSURE_GRID, component=0),
                 NoPenetration(zeta=0.4)],
    }

    @staticmethod
    def assert_same_search(weights, pinned, make_feasible, generations,
                           popsize, seed):
        runs = []
        for search in (_reference_run_cmawm, run_cmawm):
            feasible = Recorded(make_feasible())
            out = search(RefinementProblem(weights, pinned, feasible),
                         generations, popsize, seed)
            runs.append((out, feasible.judged))
        (want, want_judged), (got, got_judged) = runs
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert sorted(got_judged) == sorted(want_judged)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(instance=st.integers(0, 10 ** 6), kind=st.sampled_from(
               ["instance", "always", "never", "pinned"]),
           generations=st.integers(1, 12), popsize=st.integers(4, 24),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lambda_problems(self, instance, kind, generations, popsize, seed):
        prob = random_instance(instance)
        pinned = prob.pinned.copy()
        feasible = {"instance": prob.feasible, "always": always,
                    "never": never, "pinned": prob.feasible}[kind]
        if kind == "pinned":  # nothing left to search
            pinned[:] = True
        self.assert_same_search(prob.weights, pinned, lambda: feasible,
                                generations, popsize, seed)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rot=st.floats(0.0, 2 * np.pi / 12), spin=st.floats(0.0, 2 * np.pi),
           specs=st.sampled_from(sorted(enclosure_specs)),
           generations=st.integers(1, 8), popsize=st.integers(4, 24),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_subset_evaluator_problems(self, rot, spin, specs, generations,
                                       popsize, seed):
        pts, labels = penetrating_enclosure(rot, spin)
        weights = compute_weights(pts, pts, PARAMS)
        specs = self.enclosure_specs[specs]

        def make_feasible():
            return SubsetEvaluator(specs, pts, labels, KernelParams(0.07, 1.0, 1e-4),
                                   None, ENCLOSURE_STATE, ENCLOSURE_GOAL).batch

        self.assert_same_search(weights, labels > 0.5, make_feasible,
                                generations, popsize, seed)
