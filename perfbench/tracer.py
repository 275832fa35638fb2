"""Per-layer timing by wrapping, from outside the package, the names it
resolves at call time.

Each wrapper records a span: calls, inclusive time, and self time (inclusive
time minus the time of wrapped calls made inside it). Spans nest through a
stack, so a solve_lp call made inside tighten_lp is known to belong to bound
tightening. Nothing under src/ is changed; `Tracer.uninstall` puts every
original name back.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as highs_core

import reluopt.cli
import reluopt.lp
import reluopt.model
import reluopt.search
from reluopt.errors import NumericalFailure
from reluopt.lp import LPStatus

MAX_WIDTH_LAYERS = 4

# span name -> the (owner, attribute) pairs that resolve to it at call time
TARGETS = {
    "search.optimize": [(reluopt.cli, "optimize")],
    "search.split": [(reluopt.search, "split")],
    "lp.build": [(reluopt.search, "build_relaxed_lp"), (reluopt.lp, "build_relaxed_lp")],
    "lp.solve": [(reluopt.search, "solve_lp"), (reluopt.lp, "solve_lp")],
    "lp.linprog": [(reluopt.lp, "linprog")],
    "lp.highs_run": [(highs_core._Highs, "run")],
    "lp.consistency": [
        (reluopt.search, "check_relu_consistency"),
        (reluopt.search, "split_assignment"),
    ],
    "bounds.interval": [(reluopt.search, "propagate_interval")],
    "bounds.tighten": [(reluopt.search, "tighten_lp")],
    "bounds.fixed": [(reluopt.search, "fixed_by_bounds")],
    "model.evaluate": [(reluopt.model, "evaluate")],
}


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = {name: Span() for name in TARGETS}
        self.counts: Counter = Counter()
        self.node_lp_rows: list[int] = []
        self.node_lp_cols: list[int] = []
        self.peak_frontier = 0
        self.widths: list[list[float]] = []  # per problem, per ReLU layer
        self._stack: list[list] = []  # [span name, child seconds]
        self._saved: list[tuple] = []

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def install(self) -> None:
        for name, sites in TARGETS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        observe = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NumericalFailure:
                if name == "lp.solve":
                    self.counts["lp.numerical_failures"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                span = self.spans[name]
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # Observers: counts taken at the layer boundary where the work happens.

    def _after_lp_solve(self, args, result) -> None:
        if self.inside("bounds.tighten"):
            self.counts["bounds.tighten_lps"] += 1
            return
        lp = args[0]
        self.counts["lp.node_lps"] += 1
        self.node_lp_rows.append(len(lp.rows))
        self.node_lp_cols.append(lp.n_vars)
        if result.status == LPStatus.INFEASIBLE:
            self.counts["lp.node_infeasible"] += 1

    def _after_lp_linprog(self, args, result) -> None:
        self.counts["lp.simplex_iters"] += int(result.nit)
        if result.status == 1 and self.inside("bounds.tighten"):
            self.counts["bounds.tighten_limit_hits"] += 1

    def _after_bounds_tighten(self, args, result) -> None:
        seed = args[2]
        for before, after in (
            (seed.pre_lower, result.pre_lower),
            (seed.pre_upper, result.pre_upper),
            (seed.post_lower, result.post_lower),
            (seed.post_upper, result.post_upper),
        ):
            for k in result.relu_layers:
                self.counts["bounds.tighten_improved"] += int(
                    np.count_nonzero(before[k] != after[k])
                )

    def _after_bounds_fixed(self, args, result) -> None:
        bounds = args[0]
        total = sum(len(bounds.pre_lower[k]) for k in bounds.relu_layers)
        self.counts["bounds.undetermined"] += total - len(result.active) - len(result.inactive)
        self.widths.append(
            [float(np.mean(bounds.pre_upper[k] - bounds.pre_lower[k])) for k in bounds.relu_layers]
        )

    def _after_search_optimize(self, args, result) -> None:
        self.peak_frontier = max(self.peak_frontier, result.stats.peak_frontier)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics accumulated since construction, by name, with unit."""
        s, c = self.spans, self.counts
        node_lps = c["lp.node_lps"]
        tighten_lps = c["bounds.tighten_lps"]
        out = {
            "search.peak_frontier": (self.peak_frontier, "count"),
            "search.self_s": (s["search.optimize"].self_s + s["search.split"].total_s, "s"),
            "lp.build_calls": (s["lp.build"].calls, "count"),
            "lp.build_s": (s["lp.build"].total_s, "s"),
            "lp.solve_calls": (s["lp.solve"].calls, "count"),
            "lp.solve_s": (s["lp.solve"].total_s, "s"),
            "lp.encode_s": (s["lp.solve"].self_s, "s"),
            "lp.scipy_s": (s["lp.linprog"].self_s, "s"),
            "lp.highs_run_s": (s["lp.highs_run"].total_s, "s"),
            "lp.simplex_iters": (c["lp.simplex_iters"], "count"),
            "lp.rows_mean": (float(np.mean(self.node_lp_rows)) if node_lps else 0.0, "count"),
            "lp.cols_mean": (float(np.mean(self.node_lp_cols)) if node_lps else 0.0, "count"),
            "lp.infeasible_frac": (c["lp.node_infeasible"] / node_lps if node_lps else 0.0, "ratio"),
            "lp.numerical_failures": (c["lp.numerical_failures"], "count"),
            "lp.consistency_s": (s["lp.consistency"].total_s, "s"),
            "bounds.interval_s": (s["bounds.interval"].total_s, "s"),
            "bounds.tighten_s": (s["bounds.tighten"].total_s, "s"),
            "bounds.tighten_lps": (tighten_lps, "count"),
            "bounds.tighten_improved_frac": (
                c["bounds.tighten_improved"] / tighten_lps if tighten_lps else 0.0,
                "ratio",
            ),
            "bounds.tighten_limit_hits": (c["bounds.tighten_limit_hits"], "count"),
            "bounds.undetermined": (c["bounds.undetermined"], "count"),
            "model.evaluate_calls": (s["model.evaluate"].calls, "count"),
            "model.evaluate_s": (s["model.evaluate"].total_s, "s"),
        }
        for i in range(MAX_WIDTH_LAYERS):
            per_problem = [w[i] for w in self.widths if len(w) > i]
            out[f"bounds.width_L{i + 1}"] = (float(np.mean(per_problem)) if per_problem else 0.0, "1")
        return out
