"""Span tracing of volsample from outside the package.

``Tracer.installed()`` replaces each traced function with a wrapper at the
place its caller looks it up (``volsample.cli.parse_dataset``,
``volsample.linalg.gram``, ``volsample.sampling.remove_row``, ...), and puts
the originals back on exit.  Every call records a span -- name, start, end,
parent span, op id -- in flat in-memory arrays; ``save`` writes them out and
``layer_metrics`` derives per-layer self times and counts from them.

A span's self time is its duration minus the durations of its direct
children.  ``linalg.flops`` and ``linalg.bytes`` are computed from argument
shapes, not measured: flops count the arithmetic each call does itself
(children excluded), bytes count the float64 arguments and result of each
call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


def _linalg_cost(flops):
    """Hook adding computed flops and argument-plus-result bytes of one call."""
    def hook(tracer, args, kwargs, result):
        arrays = [a for a in (*args, *kwargs.values(), result) if isinstance(a, np.ndarray)]
        tracer.counters["linalg.flops"] += flops(*args, **kwargs)
        tracer.counters["linalg.bytes"] += 8 * sum(a.size for a in arrays)
    return hook


def _gram_flops(X, lam=0.0):
    m, d = np.shape(X)
    return 2 * m * d * d


def _solve_flops(A, B):
    d = np.shape(A)[0]
    k = 1 if np.ndim(B) == 1 else np.shape(B)[1]
    return d**3 / 3 + 2 * d * d * k


def _inv_flops(A):
    return 2 * np.shape(A)[0] ** 2  # identity right-hand side and symmetrization


def _quad_flops(X, Z):
    m, d = np.shape(X)
    return 2 * m * d * d + 2 * m * d


def _leverage_flops(X, lam=0.0):
    m, d = np.shape(X)
    return 2 * m * d  # the row-wise contraction; Gram and solve are child spans


def _count_rows(tracer, args, kwargs, result):
    tracer.counters["datasets.rows"] += result.row_count


def _count_rejection_removal(tracer, args, kwargs, result):
    # the rejection phase passes the accepted row's weight; the weighted loop
    # lets remove_row look it up
    if kwargs.get("h_i") is not None or len(args) > 2:
        tracer.counters["sampling.rejection_removals"] += 1


def _count_trials(tracer, args, kwargs, result):
    tracer.counters["sampling.rejection_trials"] += result.rejection_trials


# (module, attribute where callers look the function up, span name, hook)
TARGETS = (
    ("volsample.cli", "main", "cli.main", None),
    ("volsample.cli", "parse_dataset", "datasets.parse_dataset", _count_rows),
    ("volsample.linalg", "gram", "linalg.gram", _linalg_cost(_gram_flops)),
    ("volsample.linalg", "inv_spd", "linalg.inv_spd", _linalg_cost(_inv_flops)),
    ("volsample.linalg", "solve_spd", "linalg.solve_spd", _linalg_cost(_solve_flops)),
    ("volsample.linalg", "quad_forms", "linalg.quad_forms", _linalg_cost(_quad_flops)),
    ("volsample.linalg", "leverage_scores", "linalg.leverage_scores",
     _linalg_cost(_leverage_flops)),
    ("volsample.sampling", "init_downdate_state", "sampling.init_downdate_state", None),
    ("volsample.sampling", "DowndateState.copy", "sampling.DowndateState.copy", None),
    ("volsample.sampling", "remove_row", "sampling.remove_row", _count_rejection_removal),
    ("volsample.sampling", "reg_vol_sample", "sampling.reg_vol_sample", None),
    ("volsample.sampling", "fast_reg_vol_sample", "sampling.fast_reg_vol_sample",
     _count_trials),
    ("volsample.sampling", "leverage_iid_sample", "sampling.leverage_iid_sample", None),
    ("volsample.regression", "solve_subproblem", "regression.solve_subproblem", None),
    ("volsample.regression", "total_loss", "regression.total_loss", None),
    ("volsample.regression", "averaged_estimator", "regression.averaged_estimator", None),
    ("volsample.oracle", "exact_distribution", "oracle.exact_distribution", None),
    ("volsample.oracle", "empirical_distribution_test",
     "oracle.empirical_distribution_test", None),
)

LINALG = ("gram", "inv_spd", "solve_spd", "quad_forms", "leverage_scores")
DRAWS = {"regvol": "sampling.reg_vol_sample",
         "fastregvol": "sampling.fast_reg_vol_sample",
         "leverage": "sampling.leverage_iid_sample"}


def resolve(module: str, attr: str):
    """The object that holds the looked-up name, and the name within it."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans of the traced ops, kept in flat arrays until ``save``."""

    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Trace one op: patch every target, restore the originals on exit."""
        self.op_id = op_id
        saved = []
        try:
            for name_id, (module, attr, _, hook) in enumerate(TARGETS):
                owner, name = resolve(module, attr)
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(name_id, original, hook))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means of every per-layer metric over the traced ops.

        A layer that did not run in these ops reports 0.
        """
        sp = self.spans()
        name, parent = sp["name"], sp["parent"]
        dur = sp["end"] - sp["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(name))
        self_t = dur - child
        ids = {nm: i for i, nm in enumerate(self.names)}
        ops = max(len(np.unique(sp["op"])), 1)

        def mask(span):
            return name == ids[span]

        def self_s(span):
            return float(self_t[mask(span)].sum())

        def incl_s(span):
            return float(dur[mask(span)].sum())

        def calls(span):
            return int(mask(span).sum())

        under_removal = np.zeros(len(name), dtype=bool)
        under_removal[has_parent] = name[parent[has_parent]] == ids["sampling.remove_row"]

        m: dict[str, float] = {}
        parse_s = incl_s("datasets.parse_dataset")
        m["datasets.parse_s"] = parse_s / ops
        m["datasets.rows_per_s"] = self.counters["datasets.rows"] / parse_s if parse_s else 0.0
        linalg_s = 0.0
        for fn in LINALG:
            t = self_s(f"linalg.{fn}")
            linalg_s += t
            m[f"linalg.{fn}_s"] = t / ops
            m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}") / ops
        m["linalg.flops"] = self.counters["linalg.flops"] / ops
        m["linalg.bytes"] = self.counters["linalg.bytes"] / ops
        m["linalg.gflops"] = self.counters["linalg.flops"] / linalg_s / 1e9 if linalg_s else 0.0

        removals = calls("sampling.remove_row")
        remove_self = self_s("sampling.remove_row")
        trials = self.counters["sampling.rejection_trials"]
        m["sampling.refreshes"] = int((under_removal & mask("linalg.inv_spd")).sum()) / ops
        m["sampling.refresh_s"] = float(dur[under_removal].sum()) / ops
        m["sampling.removals"] = removals / ops
        m["sampling.remove_row_self_s"] = remove_self / ops
        m["sampling.us_per_removal"] = remove_self / removals * 1e6 if removals else 0.0
        m["sampling.fast_self_s"] = self_s("sampling.fast_reg_vol_sample") / ops
        m["sampling.rejection_trials"] = trials / ops
        m["sampling.accept_ratio"] = (self.counters["sampling.rejection_removals"] / trials
                                      if trials else 0.0)
        m["sampling.regvol_self_s"] = self_s("sampling.reg_vol_sample") / ops
        m["sampling.init_s"] = incl_s("sampling.init_downdate_state") / ops
        m["sampling.state_copy_s"] = incl_s("sampling.DowndateState.copy") / ops
        for alg, span in DRAWS.items():
            n = calls(span)
            m[f"sampling.draw_s.{alg}"] = incl_s(span) / n if n else 0.0

        m["regression.solve_s"] = self_s("regression.solve_subproblem") / ops
        m["regression.loss_s"] = self_s("regression.total_loss") / ops
        m["regression.average_s"] = self_s("regression.averaged_estimator") / ops
        m["regression.solve.calls"] = calls("regression.solve_subproblem") / ops

        m["oracle.exact_s"] = incl_s("oracle.exact_distribution") / ops
        m["oracle.test_self_s"] = self_s("oracle.empirical_distribution_test") / ops
        m["cli.self_s"] = self_s("cli.main") / ops
        m["trace.spans"] = len(name) / ops
        return m
