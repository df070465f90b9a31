"""Layer spans recorded from outside the program.

While a Tracer is installed, the public functions of each obsurf layer
are replaced by wrappers that record one span per call: name, start,
end, the enclosing span, and an optional count taken from the call's
arguments and result. Spans stay in memory; the per-layer metrics and
the span dump are computed after the traced pass.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import time
from contextlib import contextmanager

from obsurf import constraints, contact, envs, gp, gpis, harness, mppi, \
    refine, sensor


def _rows(args, kwargs, out):
    return len(args[1])


def _kernel_entries(args, kwargs, out):
    solve, queries = args[0], args[1]
    return len(queries) * solve.points.shape[0]


def _active_size(args, kwargs, out):
    return out.bar_size


def _truthy(args, kwargs, out):
    return int(bool(out))


def _refine_found(args, kwargs, out):
    return int(out[1].found_feasible)


def _draws(args, kwargs, out):
    generations, popsize = args[1:3]
    return generations * popsize


def _at_bound(args, kwargs, out):
    """1 when the fitted lengthscale or outputscale sits on its bound."""
    pairs = ((kwargs.get("lengthscale_bounds"), out.lengthscale),
             (kwargs.get("outputscale_bounds"), out.outputscale))
    return int(any(math.isclose(value, edge, rel_tol=1e-9)
                   for bounds, value in pairs if bounds is not None
                   for edge in bounds))


# (owner, attribute, span name, count). A function imported by name
# into another module is patched there too.
TARGETS = (
    (gp.GpSolve, "__init__", "gp.solve", None),
    (gp.GpSolve, "predict", "gp.posterior", _kernel_entries),
    (gp.GpSolve, "predict_mean", "gp.posterior", _kernel_entries),
    (gp, "log_marginal_likelihood", "gp.lml", None),
    (harness, "fit_hyperparams", "gp.fit", _at_bound),
    (gpis.Gpis, "predict_many", "gpis.predict", _rows),
    (gpis.Gpis, "predict_mean", "gpis.predict", _rows),
    (sensor, "visible", "sensor.visible", lambda a, k, o: len(a[0])),
    (contact, "visible", "sensor.visible", lambda a, k, o: len(a[0])),
    (contact, "gen_labels", "contact", None),
    (contact, "pre_process", "contact", None),
    (contact, "local_minimum", "contact", None),
    (contact.DatasetPair, "update", "contact", _active_size),
    (contact.DatasetPair, "purge_masked", "contact", _active_size),
    (contact.DatasetPair, "keep_bar", "contact", _active_size),
    (constraints, "all_satisfied", "constraints.check", _truthy),
    (constraints, "connected_components", "constraints.components", None),
    (constraints.SubsetEvaluator, "__call__", "constraints.subset", _truthy),
    (refine, "refine_contacts", "refine", _refine_found),
    (refine, "run_cmawm", "refine.cmawm", _draws),
    (mppi, "mppi_step", "mppi.step", None),
    (envs.PegEnv, "nominal", "envs.nominal", _rows),
    (envs.CableEnv, "nominal", "envs.nominal", _rows),
    (envs.PegEnv, "step_truth", "envs.step_truth", None),
    (envs.CableEnv, "step_truth", "envs.step_truth", None),
    (harness, "run_episode", "harness", None),
)

# span record fields
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def _children(self):
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                kids[s[PARENT]].append(i)
        return kids

    def self_time_per_op(self, ops: list) -> list:
        """Sum of all spans' self time falling inside each op window."""
        spans = self.spans
        starts = [a for a, _ in ops]
        total = [0.0] * len(ops)
        for s, kids in zip(spans, self._children()):
            edges = [s[START]]
            for c in kids:
                edges += [spans[c][START], spans[c][END]]
            edges.append(s[END])
            for a, b in zip(edges[::2], edges[1::2]):
                k = max(bisect.bisect_right(starts, a) - 1, 0)
                while k < len(ops) and ops[k][0] < b:
                    overlap = min(b, ops[k][1]) - max(a, ops[k][0])
                    if overlap > 0.0:
                        total[k] += overlap
                    k += 1
        return total

    def self_time_table(self) -> dict:
        """Self time summed by span name, largest first."""
        spans = self.spans
        table = {}
        for s, kids in zip(spans, self._children()):
            own = s[END] - s[START] - sum(spans[c][END] - spans[c][START]
                                          for c in kids)
            table[s[NAME]] = table.get(s[NAME], 0.0) + own
        return dict(sorted(table.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy times (outermost span of a name only)
        and self times. A ratio whose base is 0 reads 0."""
        spans = self.spans
        calls, busy, counts, counted = {}, {}, {}, {}
        for s in spans:
            name = s[NAME]
            calls[name] = calls.get(name, 0) + 1
            if s[COUNT] is not None:
                counts[name] = counts.get(name, 0) + s[COUNT]
                counted[name] = counted.get(name, 0) + 1
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != name:
                p = spans[p][PARENT]
            if p < 0:
                busy[name] = busy.get(name, 0.0) + s[END] - s[START]
        own = self.self_time_table()

        def get(table, name):
            return table.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        searched = sum(1 for s in spans if s[NAME] == "constraints.subset"
                       and s[PARENT] >= 0
                       and spans[s[PARENT]][NAME] == "refine.cmawm")
        draws = get(counts, "refine.cmawm")
        return {
            "gp.posterior.kernel_entries": get(counts, "gp.posterior"),
            "gp.posterior.busy_s": get(busy, "gp.posterior"),
            "gp.solve.count": get(calls, "gp.solve"),
            "gp.solve.busy_s": get(busy, "gp.solve"),
            "gp.fit.calls": get(calls, "gp.fit"),
            "gp.fit.busy_s": get(busy, "gp.fit"),
            "gp.lml.calls": get(calls, "gp.lml"),
            "gp.fit.at_bound_ratio": ratio(get(counts, "gp.fit"),
                                           get(calls, "gp.fit")),
            "gpis.predict.rows": get(counts, "gpis.predict"),
            "gpis.predict.self_s": get(own, "gpis.predict"),
            "mppi.step.self_s": get(own, "mppi.step"),
            "envs.nominal.rows": get(counts, "envs.nominal"),
            "envs.nominal.busy_s": get(busy, "envs.nominal"),
            "envs.step_truth.busy_s": get(busy, "envs.step_truth"),
            "sensor.visible.points": get(counts, "sensor.visible"),
            "sensor.visible.busy_s": get(busy, "sensor.visible"),
            "constraints.check.busy_s": get(busy, "constraints.check"),
            "constraints.check.satisfied_ratio": ratio(
                get(counts, "constraints.check"), get(calls, "constraints.check")),
            "constraints.components.busy_s": get(busy, "constraints.components"),
            "constraints.subset.calls": get(calls, "constraints.subset"),
            "constraints.subset.busy_s": get(busy, "constraints.subset"),
            "constraints.subset.feasible_ratio": ratio(
                get(counts, "constraints.subset"), get(calls, "constraints.subset")),
            "refine.calls": get(calls, "refine"),
            "refine.search_ratio": ratio(get(calls, "refine.cmawm"),
                                         get(calls, "refine")),
            "refine.found_ratio": ratio(get(counts, "refine"), get(calls, "refine")),
            "refine.cmawm.self_s": get(own, "refine.cmawm"),
            "refine.cache_hit_ratio": ratio(draws - searched, draws),
            "contact.busy_s": get(busy, "contact"),
            "contact.active_size_mean": ratio(get(counts, "contact"),
                                              get(counted, "contact")),
            "harness.self_s": get(own, "harness"),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"name": s[NAME], "start": s[START] - t0,
                                    "end": s[END] - t0, "parent": s[PARENT],
                                    "count": s[COUNT]}) + "\n")
