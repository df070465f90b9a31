"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (collected in the terminal summary).
The episode batches are expensive and shared between criteria through
module-scoped fixtures; everything runs from fixed seeds.
"""

import math
import time

import numpy as np
import pytest

from obsurf import harness
from obsurf.constraints import (NoPenetration, PathExists, SubsetEvaluator,
                                connected_components, path_exists)
from obsurf.contact import DatasetPair, TAG_GOAL, TAG_OBSERVED, TAG_PREDICTED, \
    gen_labels
from obsurf.gp import KernelParams, gp_posterior, log_marginal_likelihood
from obsurf.gpis import Gpis, GridSpec, OccupancyGrid, inv_norm_cdf, norm_cdf
from obsurf.refine import RefinementProblem, refine_contacts, run_cmawm

from conftest import record_criterion


def check(num, ok, detail):
    record_criterion(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- criterion 1: GP correctness ---------------------------------------

def test_criterion_1_gp_matches_dense_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_post = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 51))
        pts = rng.uniform(-1, 1, (m, 2))
        y = rng.uniform(-1, 1, m)
        p = KernelParams(float(rng.uniform(0.1, 1.0)),
                         float(rng.uniform(0.3, 2.0)),
                         float(rng.uniform(1e-6, 1e-2)))
        q = rng.uniform(-1, 1, 2)
        k = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                s = math.sqrt(3) * math.dist(pts[i], pts[j]) / p.lengthscale
                k[i, j] = p.outputscale * (1 + s) * math.exp(-s)
        ky = k + p.noise * np.eye(m)
        ks = np.array([
            p.outputscale
            * (1 + math.sqrt(3) * math.dist(pts[i], q) / p.lengthscale)
            * math.exp(-math.sqrt(3) * math.dist(pts[i], q) / p.lengthscale)
            for i in range(m)])
        mean = ks @ np.linalg.solve(ky, y)
        var = max(p.outputscale - ks @ np.linalg.solve(ky, ks), 0.0)
        st = gp_posterior(pts, y, p, q)
        worst_post = max(worst_post, abs(st.mean - mean), abs(st.variance - var))

    worst_grad = 0.0
    h = 1e-5
    for _ in range(20):
        m = int(rng.integers(2, 20))
        pts = rng.uniform(0, 1, (m, 2))
        y = rng.uniform(-1, 1, m)
        p = KernelParams(float(rng.uniform(0.15, 0.9)),
                         float(rng.uniform(0.5, 2.0)),
                         float(rng.uniform(1e-3, 0.1)))
        _, grad = log_marginal_likelihood(pts, y, p)
        import dataclasses
        for i, name in enumerate(("lengthscale", "outputscale", "noise")):
            base = getattr(p, name)
            up = dataclasses.replace(p, **{name: base * math.exp(h)})
            dn = dataclasses.replace(p, **{name: base * math.exp(-h)})
            fd = (log_marginal_likelihood(pts, y, up)[0]
                  - log_marginal_likelihood(pts, y, dn)[0]) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(fd), 1e-8)
            worst_grad = max(worst_grad, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_post < 1e-6 and worst_grad < 1e-4 and elapsed < 10.0
    check(1, ok, f"posterior err {worst_post:.2e} (<1e-6), grad rel err "
                 f"{worst_grad:.2e} (<1e-4), {elapsed:.1f}s (<10s)")


# -- criterion 2: label generation properties --------------------------

def test_criterion_2_label_properties():
    rng = np.random.default_rng(20)
    count = 10_000
    x_t = rng.uniform(-1, 1, (count, 1, 2))
    x_next = x_t + rng.uniform(-0.2, 0.2, x_t.shape)
    x_pred = x_t + rng.uniform(-0.2, 0.2, x_t.shape)
    # force the degenerate-denominator and clamp branches to appear
    x_pred[:100] = x_t[:100] + 1e-9
    x_next[100:200] = x_t[100:200] + 0.3
    x_pred[100:200] = x_t[100:200] + 0.01
    bad = 0
    for i in range(count):
        b = gen_labels(x_t[i], x_next[i], x_pred[i])
        y, y_hat = b.y[0], b.y_hat[0]
        den = np.linalg.norm(x_pred[i, 0] - x_t[i, 0])
        num = np.linalg.norm(x_next[i, 0] - x_t[i, 0])
        # range, the affine link, and the degenerate rule are exact; the
        # ratio itself is checked to rounding error (the oracle's norm
        # may differ from the batched one in the last bit)
        if not (0.0 <= y <= 1.0 and y_hat == 2.0 * y - 1.0):
            bad += 1
        elif den < 1e-6:
            bad += y != 1.0
        elif num / den >= 1.0 + 1e-12:
            bad += y != 1.0
        else:
            bad += abs(y - min(num / den, 1.0)) > 1e-12
    check(2, bad == 0, f"{count} random transitions, {bad} violations of "
                       "range, affine link, clamp, or degenerate rules")


# -- criterion 3: keep/remove optimizer vs brute force ------------------

def acceptance_instance(seed):
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
    return RefinementProblem(weights, pinned, feasible), free


def test_criterion_3_cmawm_vs_brute_force():
    t0 = time.perf_counter()
    optimum_hits = feasible_hits = feasible_total = 0
    for inst in range(50):
        prob, free = acceptance_instance(3000 + inst)
        # every free bit vector, judged as one stack
        oms = np.ones((2 ** len(free), len(prob.weights)), dtype=bool)
        oms[:, free] = np.arange(len(oms))[:, None] >> np.arange(len(free)) & 1
        best_val = max((float(prob.weights @ om)
                        for om in oms[prob.feasible(oms)]), default=-1.0)
        if best_val >= 0:
            feasible_total += 1
        omega, val, found = run_cmawm(prob, generations=25, popsize=20,
                                      seed=inst)
        if found:
            feasible_hits += 1
            if abs(val - best_val) < 1e-12:
                optimum_hits += 1
    elapsed = time.perf_counter() - t0
    ok = (optimum_hits >= 45 and feasible_hits == feasible_total
          and elapsed < 60.0)
    check(3, ok, f"optimum {optimum_hits}/50 (>=45), feasible "
                 f"{feasible_hits}/{feasible_total} (all), {elapsed:.1f}s (<60s)")


# -- criterion 4: constraint library ------------------------------------

def flood_fill(cells):
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
                        if (0 <= na < cells.shape[0]
                                and 0 <= nb < cells.shape[1]
                                and not cells[na, nb] and not labels[na, nb]):
                            labels[na, nb] = nxt
                            stack.append((na, nb))
    return labels


def test_criterion_4_constraint_library():
    rng = np.random.default_rng(40)
    cc_ok = True
    for _ in range(100):
        shape = (int(rng.integers(2, 65)), int(rng.integers(2, 65)))
        cells = rng.random(shape) < rng.uniform(0.2, 0.7)
        got = connected_components(OccupancyGrid((0, 0), 1.0, cells))
        want = flood_fill(cells)
        mapping = {}
        same = np.array_equal(got > 0, want > 0)
        if same:
            for a, b in zip(got[got > 0].ravel(), want[want > 0].ravel()):
                if mapping.setdefault(a, b) != b:
                    same = False
                    break
            same = same and len(set(mapping.values())) == len(mapping)
        cc_ok = cc_ok and same

    pts = rng.uniform(0, 0.4, (15, 2))
    labels = np.where(rng.random(15) < 0.4, -1.0, 1.0)
    g = Gpis(pts, labels, KernelParams(0.08, 1.0, 1e-4))
    pen_ok = True
    from obsurf.constraints import no_penetration
    for _ in range(1000):
        x = rng.uniform(0, 0.4, (1, 2))
        mu, _ = g.predict_many(x)
        pen_ok = pen_ok and (no_penetration(g, x, 0.5) == bool(mu[0] > 0))

    quant_ok = True
    for p in np.linspace(1e-4, 1 - 1e-4, 999):
        if abs(norm_cdf(inv_norm_cdf(float(p))) - p) >= 1e-8:
            quant_ok = False
            break
    ok = cc_ok and pen_ok and quant_ok
    check(4, ok, f"components-vs-floodfill {cc_ok}, penetration-vs-mean "
                 f"{pen_ok}, quantile round-trip {quant_ok}")


# -- criterion 5: refinement opens an enclosed goal ---------------------

def enclosure_pair(seed):
    rng = np.random.default_rng(seed)
    goal = np.array([0.2, 0.2])
    ang = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    ring = np.stack([goal[0] + 0.08 * np.cos(ang),
                     goal[1] + 0.08 * np.sin(ang)], axis=1)
    trail = np.stack([np.linspace(0.05, 0.13, 6)] * 2, axis=1)
    scatter = rng.uniform(0.0, 0.4, (25, 2))
    ext = np.vstack([trail, scatter])
    ext = ext[np.min(np.linalg.norm(ext[:, None, :] - ring[None], axis=2),
                     axis=1) > 0.03]
    ext = ext[np.linalg.norm(ext - goal[None], axis=1) > 0.10]
    pts = np.vstack([goal[None], ext, ring])
    labels = np.concatenate([[1.0], np.ones(len(ext)), -np.ones(len(ring))])
    tags = np.concatenate([[TAG_GOAL], np.full(len(ext), TAG_OBSERVED),
                           np.full(len(ring), TAG_PREDICTED)])
    mask = np.zeros(len(pts), dtype=bool)
    dp = DatasetPair(pts, labels, tags, mask,
                     pts.copy(), labels.copy(), tags.copy(), mask.copy())
    return dp, goal


def test_criterion_5_refinement_reopens_goal():
    params = KernelParams(0.07, 1.0, 1e-4)
    spec = GridSpec((0.0, 0.0), (0.4, 0.4), 0.01)
    state = np.array([[0.05, 0.05]])
    wins = 0
    for seed in range(10):
        dp, goal = enclosure_pair(seed)
        g = Gpis(dp.bar_points, dp.bar_labels, params)
        assert not path_exists(g, state[0], goal[None], spec)
        n_ext_before = int((dp.bar_labels > 0).sum())

        def factory(pts, labs):
            return SubsetEvaluator([PathExists(grid=spec)], pts, labs,
                                   params, None, state, goal[None])

        out, event = refine_contacts(dp, params, factory, generations=25,
                                     popsize=20, seed=seed)
        g2 = Gpis(out.bar_points, out.bar_labels, params)
        opened = path_exists(g2, state[0], goal[None], spec)
        kept_ext = int((out.bar_labels > 0).sum())
        seeds_kept = int((out.bar_tags == TAG_GOAL).sum())
        if (event.found_feasible and opened and kept_ext == n_ext_before
                and seeds_kept == 1 and event.generations <= 25):
            wins += 1
    check(5, wins == 10, f"goal reopened with exteriors intact in {wins}/10 "
                         "seeds (need 10/10, <=25 generations)")


# -- criteria 6 + 10: peg_u refinement contrast and memory property -----

@pytest.fixture(scope="module")
def peg_u_batches():
    t0 = time.perf_counter()
    cfg = harness.EpisodeConfig.for_scene("peg_u")
    with_ref = harness.run_batch(cfg, range(10), workers=2)
    cfg_off = harness.EpisodeConfig.for_scene("peg_u", refinement=False)
    without = harness.run_batch(cfg_off, range(10), workers=2)
    return with_ref, without, time.perf_counter() - t0


def test_criterion_6_peg_u_refinement_contrast(peg_u_batches):
    with_ref, without, elapsed = peg_u_batches
    ok = (with_ref.successes >= 7
          and with_ref.successes >= without.successes + 2
          and elapsed < 15 * 60)
    check(6, ok, f"refinement {with_ref.successes}/10 (>=7) vs ablation "
                 f"{without.successes}/10 (gap >=2), {elapsed / 60:.1f} min "
                 "(<15)")


def test_criterion_10_memory_property(peg_u_batches):
    with_ref, _, _ = peg_u_batches
    violations = 0
    seeds_removed = 0
    checked = 0
    for rep in with_ref.reports:
        dp = rep.final_datasets
        goal_seed = dp.bar_points[dp.bar_tags == TAG_GOAL]
        if goal_seed.shape[0] == 0:
            seeds_removed += 1
        for event in rep.events:
            for p in event.removed_points:
                checked += 1
                d = np.linalg.norm(dp.mem_points - p[None], axis=1)
                if d.min() > 1e-9:
                    violations += 1
    ok = violations == 0 and seeds_removed == 0
    check(10, ok, f"{checked} removed points all retained in memory "
                  f"({violations} lost), goal seeds removed in "
                  f"{seeds_removed} episodes")


# -- criterion 7: peg_i / peg_t sanity ----------------------------------

@pytest.fixture(scope="module")
def peg_it_batches():
    t0 = time.perf_counter()
    t_batch = harness.run_batch(harness.EpisodeConfig.for_scene("peg_t"),
                                range(10), workers=2)
    i_batch = harness.run_batch(harness.EpisodeConfig.for_scene("peg_i"),
                                range(10), workers=2)
    return t_batch, i_batch, time.perf_counter() - t0


def test_criterion_7_peg_it_sanity(peg_it_batches):
    t_batch, i_batch, elapsed = peg_it_batches
    ok = t_batch.successes >= 8 and i_batch.successes >= 7
    check(7, ok, f"peg_t {t_batch.successes}/10 (>=8), peg_i "
                 f"{i_batch.successes}/10 (>=7), {elapsed / 60:.1f} min")


# -- criterion 8: cable directional result ------------------------------

@pytest.fixture(scope="module")
def cable_batches():
    t0 = time.perf_counter()
    cogis = harness.run_batch(harness.EpisodeConfig.for_scene("cable_hook"),
                              range(10), workers=2)
    cfg_na = harness.EpisodeConfig.for_scene(
        "cable_hook", adaptive=False, refinement=False,
        local_min_detection=False, vision=False)
    nonadaptive = harness.run_batch(cfg_na, range(10), workers=2)
    return cogis, nonadaptive, time.perf_counter() - t0


def test_criterion_8_cable_directional(cable_batches):
    cogis, nonadaptive, elapsed = cable_batches
    ok = (cogis.successes >= 6 and nonadaptive.successes <= 2
          and elapsed < 30 * 60)
    check(8, ok, f"adaptive {cogis.successes}/10 (>=6) vs non-adaptive "
                 f"{nonadaptive.successes}/10 (<=2), {elapsed / 60:.1f} min "
                 "(<30)")


# -- criterion 9: determinism -------------------------------------------

def test_criterion_9_determinism():
    cfg = harness.EpisodeConfig.for_scene("peg_u", seed=3, max_steps=120)
    a = harness.run_episode(cfg)
    b = harness.run_episode(cfg)
    direct = a.log_text() == b.log_text()
    one = harness.run_batch(cfg, [3, 4], workers=1)
    two = harness.run_batch(cfg, [3, 4], workers=2)
    across = all(x.log_text() == y.log_text()
                 for x, y in zip(one.reports, two.reports))
    cable_cfg = harness.EpisodeConfig.for_scene("cable_hook", seed=1,
                                                max_steps=40)
    ca = harness.run_episode(cable_cfg)
    cb = harness.run_episode(cable_cfg)
    cable_same = ca.log_text() == cb.log_text()
    ok = direct and across and cable_same
    check(9, ok, f"re-run identical {direct}, worker-count invariant "
                 f"{across}, cable identical {cable_same}")
