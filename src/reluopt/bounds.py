"""Per-node activation bounds: interval propagation and LP-based
progressive tightening."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, Timeout
from .geometry import Hyperrectangle
from .model import Activation, Network, NodeId
from .problems import Objective, OptimizationProblem

log = logging.getLogger(__name__)

# Tightened bounds get inflated by this margin so LP feasibility noise can
# never make a sound bound unsound.
SAFETY_MARGIN = 1e-7
IMPROVEMENT_THRESHOLD = 1e-9
POST_CONSISTENCY_EPS = 1e-9


@dataclass(frozen=True)
class BoundsMap:
    """Pre/post activation intervals for every layer, plus the input box.
    ReLU-node accessors index through the network's ReLU layer list."""

    input_lower: np.ndarray
    input_upper: np.ndarray
    pre_lower: tuple[np.ndarray, ...]
    pre_upper: tuple[np.ndarray, ...]
    post_lower: tuple[np.ndarray, ...]
    post_upper: tuple[np.ndarray, ...]
    relu_layers: tuple[int, ...]

    def pre(self, node: NodeId) -> tuple[float, float]:
        k = self.relu_layers[node.layer]
        return float(self.pre_lower[k][node.node]), float(self.pre_upper[k][node.node])

    def post(self, node: NodeId) -> tuple[float, float]:
        k = self.relu_layers[node.layer]
        return float(self.post_lower[k][node.node]), float(self.post_upper[k][node.node])


@dataclass(frozen=True)
class FixedByBounds:
    active: frozenset[NodeId]
    inactive: frozenset[NodeId]


def propagate_interval(net: Network, input_box: Hyperrectangle) -> BoundsMap:
    """Sound interval bounds, splitting each weight row into its positive
    and negative parts against the incoming interval."""
    if input_box.dim != net.input_dim:
        raise DimensionMismatch(
            f"box dimension {input_box.dim} != network input {net.input_dim}"
        )
    lo, hi = input_box.lower, input_box.upper
    pre_lo, pre_hi, post_lo, post_hi = [], [], [], []
    for layer in net.layers:
        w_pos = np.maximum(layer.weights, 0.0)
        w_neg = np.minimum(layer.weights, 0.0)
        zl = w_pos @ lo + w_neg @ hi + layer.biases
        zu = w_pos @ hi + w_neg @ lo + layer.biases
        pre_lo.append(zl)
        pre_hi.append(zu)
        if layer.activation is Activation.RELU:
            lo, hi = np.maximum(0.0, zl), np.maximum(0.0, zu)
        else:
            lo, hi = zl, zu
        post_lo.append(lo)
        post_hi.append(hi)
    return BoundsMap(
        input_lower=input_box.lower.copy(),
        input_upper=input_box.upper.copy(),
        pre_lower=tuple(pre_lo),
        pre_upper=tuple(pre_hi),
        post_lower=tuple(post_lo),
        post_upper=tuple(post_hi),
        relu_layers=net.relu_layers,
    )


def fixed_by_bounds(b: BoundsMap) -> FixedByBounds:
    """Nodes whose phase is forced by their pre-activation interval.
    A node with pre bounds exactly [0, 0] counts as inactive (z = 0 either way)."""
    active, inactive = set(), set()
    for i, k in enumerate(b.relu_layers):
        zl, zu = b.pre_lower[k], b.pre_upper[k]
        for j in range(len(zl)):
            if zu[j] <= 0.0:
                inactive.add(NodeId(i, j))
            elif zl[j] >= 0.0:
                active.add(NodeId(i, j))
    return FixedByBounds(frozenset(active), frozenset(inactive))


def tighten_lp(
    net: Network,
    input_box: Hyperrectangle,
    seed: BoundsMap,
    per_query_timeout: float,
    deadline: Optional[float] = None,
    counters: Optional[dict] = None,
) -> BoundsMap:
    """Progressive LP tightening: visit ReLU nodes in topological order and
    solve up to two LPs per node (max and min of zhat) over the
    all-undetermined relaxation under the current bounds. A bound is replaced
    only when the LP finishes within its time limit and improves it by at
    least the improvement threshold. The post-activation bounds then follow
    as post = max(0, pre): with z >= 0 and z >= zhat as its only rows, an LP
    over z could not do better. Improved bounds are visible to later nodes
    immediately.

    The bounds live in the column vectors of one root LP, which every LP
    re-solves in one live HiGHS model; only bounds and the cost change
    between them. Each LP's time limit is `per_query_timeout`, cut to the
    time left before `deadline` (a `time.monotonic()` reading); once that is
    spent, tightening stops and keeps the bounds found so far. `counters`,
    when given, accumulates `simplex_iters` and `tighten_limit_hits` (LPs
    stopped by their time limit).
    """
    from .highs import new_model
    from .lp import LPStatus, encode_relaxation, solve_lp

    if per_query_timeout <= 0.0:
        return seed
    if counters is None:
        counters = {}
    for name in ("simplex_iters", "tighten_limit_hits"):
        counters.setdefault(name, 0)

    relaxation = encode_relaxation(net, OptimizationProblem(input_box, Objective()), seed)
    lp, imap = relaxation.lp, relaxation.imap
    lower, upper = lp.lower, lp.upper  # the bounds, tightened in place
    model = new_model()

    def current() -> BoundsMap:
        return BoundsMap(
            input_lower=seed.input_lower,
            input_upper=seed.input_upper,
            pre_lower=tuple(lower[columns] for columns in imap.pre),
            pre_upper=tuple(upper[columns] for columns in imap.pre),
            post_lower=tuple(lower[columns] for columns in imap.post),
            post_upper=tuple(upper[columns] for columns in imap.post),
            relu_layers=seed.relu_layers,
        )

    for node, zhat, z in zip(net.relu_node_ids(), relaxation.zhat, relaxation.z):
        obj = np.zeros(lp.n_vars)
        obj[zhat] = 1.0
        lo, hi = lower[zhat], upper[zhat]
        for maximize in (True, False):
            limit = per_query_timeout
            if deadline is not None:
                limit = min(limit, deadline - time.monotonic())
                if limit <= 0.0:
                    log.warning(
                        "bound tightening stopped at node %s: the search budget is spent",
                        tuple(node),
                    )
                    return current()
            try:
                res = solve_lp(
                    lp.with_objective(obj, maximize=maximize), time_limit=limit, model=model
                )
            except Timeout:
                counters["tighten_limit_hits"] += 1
                log.warning(
                    "bound kept at node %s: LP stopped at its %.3g s time limit", tuple(node), limit
                )
                continue
            except NumericalFailure as exc:
                log.debug("bound kept at node %s: %s", tuple(node), exc)
                continue
            counters["simplex_iters"] += res.iterations
            if res.status != LPStatus.OPTIMAL:
                continue
            if maximize:
                cand = res.value + SAFETY_MARGIN
                if hi - cand >= IMPROVEMENT_THRESHOLD:
                    hi = cand
            else:
                cand = res.value - SAFETY_MARGIN
                if cand - lo >= IMPROVEMENT_THRESHOLD:
                    lo = cand
        # Both LPs of a node see the same bounds; later nodes see the new ones,
        # with the post bounds kept consistent: post = max(0, pre).
        lower[zhat], upper[zhat] = lo, hi
        lower[z] = max(lower[z], max(0.0, lo) - POST_CONSISTENCY_EPS, 0.0)
        upper[z] = min(upper[z], max(0.0, hi) + POST_CONSISTENCY_EPS)
        if lower[z] > upper[z]:  # numerically crossed, keep sound order
            lower[z] = upper[z] = max(0.0, upper[z])

    return current()
