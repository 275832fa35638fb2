"""Per-node activation bounds: interval propagation, back-substitution
(symbolic) bounds, and LP-based progressive tightening."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, Timeout
from .geometry import Hyperrectangle
from .model import Activation, Layer, Network, NodeId
from .problems import Objective, OptimizationProblem
from .state import ACTIVE, INACTIVE, UNDETERMINED

log = logging.getLogger(__name__)

# Tightened bounds get inflated by this margin so LP feasibility noise can
# never make a sound bound unsound.
SAFETY_MARGIN = 1e-7
IMPROVEMENT_THRESHOLD = 1e-9
POST_CONSISTENCY_EPS = 1e-9
# The counts `tighten_lp` accumulates.
COUNTERS = ("simplex_iters", "tighten_lps", "tighten_skipped", "tighten_limit_hits")


@dataclass(frozen=True)
class BoundsMap:
    """Pre/post activation intervals for every layer, plus the input box.
    `relu_layers` lists the indices of the ReLU layers among all layers."""

    input_lower: np.ndarray
    input_upper: np.ndarray
    pre_lower: tuple[np.ndarray, ...]
    pre_upper: tuple[np.ndarray, ...]
    post_lower: tuple[np.ndarray, ...]
    post_upper: tuple[np.ndarray, ...]
    relu_layers: tuple[int, ...]


@dataclass(frozen=True)
class FixedByBounds:
    active: frozenset[NodeId]
    inactive: frozenset[NodeId]


def _check_box(net: Network, input_box: Hyperrectangle) -> None:
    if input_box.dim != net.input_dim:
        raise DimensionMismatch(
            f"box dimension {input_box.dim} != network input {net.input_dim}"
        )


def _interval_step(layer: Layer, lo: np.ndarray, hi: np.ndarray):
    """Interval bounds on `layer`'s pre-activation, splitting each weight
    row into its positive and negative parts against the incoming interval."""
    w_pos = np.maximum(layer.weights, 0.0)
    w_neg = np.minimum(layer.weights, 0.0)
    return w_pos @ lo + w_neg @ hi + layer.biases, w_pos @ hi + w_neg @ lo + layer.biases


def _post(layer: Layer, zl: np.ndarray, zu: np.ndarray):
    if layer.activation is Activation.RELU:
        return np.maximum(0.0, zl), np.maximum(0.0, zu)
    return zl, zu


def _bounds_map(net: Network, input_box: Hyperrectangle, pre_lo, pre_hi) -> BoundsMap:
    post = [_post(layer, zl, zu) for layer, zl, zu in zip(net.layers, pre_lo, pre_hi)]
    return BoundsMap(
        input_lower=input_box.lower.copy(),
        input_upper=input_box.upper.copy(),
        pre_lower=tuple(pre_lo),
        pre_upper=tuple(pre_hi),
        post_lower=tuple(lo for lo, _ in post),
        post_upper=tuple(hi for _, hi in post),
        relu_layers=net.relu_layers,
    )


def propagate_interval(net: Network, input_box: Hyperrectangle) -> BoundsMap:
    """Sound interval bounds, layer by layer from the input box."""
    _check_box(net, input_box)
    lo, hi = input_box.lower, input_box.upper
    pre_lo, pre_hi = [], []
    for layer in net.layers:
        zl, zu = _interval_step(layer, lo, hi)
        pre_lo.append(zl)
        pre_hi.append(zu)
        lo, hi = _post(layer, zl, zu)
    return _bounds_map(net, input_box, pre_lo, pre_hi)


def _phase(zl: np.ndarray, zu: np.ndarray) -> np.ndarray:
    """The phase each interval [zl, zu] fixes: INACTIVE when zu <= 0 (so
    [0, 0] counts as inactive: z = 0 either way), else ACTIVE when zl >= 0,
    else UNDETERMINED."""
    return np.where(zu <= 0.0, INACTIVE, np.where(zl >= 0.0, ACTIVE, UNDETERMINED)).astype(np.int8)


def _relaxation(layer: Layer, zl: np.ndarray, zu: np.ndarray):
    """Linear bounds on `layer`'s output in its pre-activation zhat within
    [zl, zu]: z >= lower_slope * zhat and z <= upper_slope * zhat +
    upper_intercept. A fixed ReLU is exact; an undetermined one gets the
    triangle face z <= s (zhat - zl), s = zu / (zu - zl), and z >= zhat when
    zu > -zl, else z >= 0."""
    ones = np.ones(layer.out_width)
    if layer.activation is Activation.IDENTITY:
        return ones, ones, np.zeros(layer.out_width)
    phase = _phase(zl, zu)
    active, free = phase == ACTIVE, phase == UNDETERMINED
    slope = active.astype(np.float64)
    slope[free] = zu[free] / (zu[free] - zl[free])
    intercept = np.where(free, -slope * zl, 0.0)
    lower_slope = (active | (free & (zu > -zl))).astype(np.float64)
    return lower_slope, slope, intercept


def _back_substitute(layers, relaxations, k: int, x_lo: np.ndarray, x_hi: np.ndarray):
    """Lower and upper bounds on layer k's pre-activation: substitute the
    relaxation of every earlier layer back to the input, then bound the
    resulting linear function of x over the box. To bound a side, a
    coefficient that pushes that way takes a layer's upper relaxation and one
    that pushes the other way its lower relaxation. Both sides take one
    pass: the rows are stacked under their negations, whose upper bounds are
    minus the lower bounds."""
    weights, biases = layers[k].weights, layers[k].biases
    a, c = np.concatenate((-weights, weights)), np.concatenate((-biases, biases))
    for j in range(k - 1, -1, -1):
        lower_slope, upper_slope, upper_intercept = relaxations[j]
        pos, neg = np.maximum(a, 0.0), np.minimum(a, 0.0)
        c += pos @ upper_intercept
        a = pos * upper_slope + neg * lower_slope
        c += a @ layers[j].biases
        a = a @ layers[j].weights
    upper = c + np.maximum(a, 0.0) @ x_hi + np.minimum(a, 0.0) @ x_lo
    return -upper[: len(biases)], upper[len(biases) :]


def propagate_symbolic(net: Network, input_box: Hyperrectangle) -> BoundsMap:
    """Back-substitution bounds: DeepPoly (Singh et al. 2019), or CROWN
    (Zhang et al. 2018) with a fixed lower slope.

    Layer by layer, each earlier layer's output is replaced by its linear
    relaxation (see `_relaxation`) under the bounds already found, down to
    the input box. The sides found this way are widened by SAFETY_MARGIN and
    intersected with the interval bounds computed from the previous layer's
    intersected bounds, so they never lie outside `propagate_interval`'s."""
    _check_box(net, input_box)
    x_lo, x_hi = input_box.lower, input_box.upper
    lo, hi = x_lo, x_hi
    pre_lo, pre_hi, relaxations = [], [], []
    for k, layer in enumerate(net.layers):
        zl, zu = _interval_step(layer, lo, hi)
        if k:
            sl, su = _back_substitute(net.layers, relaxations, k, x_lo, x_hi)
            zl = np.maximum(zl, sl - SAFETY_MARGIN)
            zu = np.minimum(zu, su + SAFETY_MARGIN)
        pre_lo.append(zl)
        pre_hi.append(zu)
        relaxations.append(_relaxation(layer, zl, zu))
        lo, hi = _post(layer, zl, zu)
    return _bounds_map(net, input_box, pre_lo, pre_hi)


def phases(b: BoundsMap) -> np.ndarray:
    """The phase each ReLU's pre-activation interval fixes, as an int8
    vector in `relu_node_ids()` order: ACTIVE, INACTIVE or UNDETERMINED. An
    interval of exactly [0, 0] counts as inactive (z = 0 either way)."""
    layers = [_phase(b.pre_lower[k], b.pre_upper[k]) for k in b.relu_layers]
    return np.concatenate([np.empty(0, np.int8), *layers])


def fixed_by_bounds(b: BoundsMap) -> FixedByBounds:
    """The nodes `phases` fixes, as NodeId sets. No caller in the package:
    it stays for perfbench's tracer, which wraps it by name in `search`."""
    phase = phases(b)
    nodes = [NodeId(i, j) for i, k in enumerate(b.relu_layers) for j in range(len(b.pre_lower[k]))]
    by_phase = lambda value: frozenset(nodes[i] for i in np.flatnonzero(phase == value))
    return FixedByBounds(by_phase(ACTIVE), by_phase(INACTIVE))


def tighten_lp(
    net: Network,
    input_box: Hyperrectangle,
    seed: BoundsMap,
    per_query_timeout: float,
    deadline: Optional[float] = None,
    counters: Optional[dict] = None,
) -> BoundsMap:
    """Progressive LP tightening: visit ReLU nodes in topological order and,
    for each node whose phase the seed leaves open, solve two LPs (max and
    min of zhat) over the relaxation under the current bounds. A bound is
    replaced only when the LP finishes within its time limit and improves it
    by at least the improvement threshold. The post-activation bounds then
    follow as post = max(0, pre): with z >= 0 and z >= zhat as an
    undetermined node's only rows below z, an LP over z could not do better.
    Improved bounds are visible to later nodes immediately.

    The LPs relax each ReLU as B&B's root node does: the phases the seed
    fixes (`phases`) are written into the LP by `build_relaxed_lp`, with a
    triangle row for each ReLU it leaves undetermined, and a node whose own
    LPs fix its phase gets that phase too, before later nodes are solved. A
    phase fixed in a later layer can cut an earlier node's LP as well,
    through the column bounds of the layers after it.

    A node whose phase the seed fixes is skipped and keeps the seed's
    bounds. Its phase is written into every LP (z = zhat or z = 0), so the
    node is linear there, and any bound its own LPs could return the LP
    already implies. Narrowing its interval would therefore cut no later
    tightening LP, each of which lies inside the one before, nor B&B's root
    LP, which lies inside the last. Only a node's own LPs change its bounds,
    so its phase when visited is the seed's.

    All LPs are re-solved in one live HiGHS model, released on return; only
    bounds and the cost change between them. Each LP's time limit is
    `per_query_timeout`, cut to the time left before `deadline` (a
    `time.monotonic()` reading); once that is spent, tightening stops and
    keeps the bounds found so far.
    `counters`, when given, accumulates `simplex_iters`, `tighten_lps` (LPs
    solved), `tighten_skipped` (the two LPs of each node the seed fixes) and
    `tighten_limit_hits` (LPs stopped by their time limit). Each node visited
    adds two to the last three, unless one of its LPs fails numerically.
    """
    from .highs import LiveModel
    from .lp import LPStatus, build_relaxed_lp, encode_relaxation, solve_lp

    if per_query_timeout <= 0.0:
        return seed
    if counters is None:
        counters = {}
    for name in COUNTERS:
        counters.setdefault(name, 0)

    relaxation = encode_relaxation(net, OptimizationProblem(input_box, Objective()), seed)
    lp = build_relaxed_lp(relaxation, relaxation.phase)
    imap = relaxation.imap
    # The bounds and phases, tightened in place: the build made these copies.
    row_upper, lower, upper = lp.row_upper, lp.lower, lp.upper

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

    with LiveModel() as model:
        columns = relaxation.zhat, relaxation.z, relaxation.link
        for node, phase, zhat, z, link in zip(net.relu_node_ids(), relaxation.phase, *columns):
            if phase != UNDETERMINED:
                counters["tighten_skipped"] += 2
                continue
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
                        "bound kept at node %s: LP stopped at its %.3g s time limit",
                        tuple(node),
                        limit,
                    )
                    continue
                except NumericalFailure as exc:
                    log.debug("bound kept at node %s: %s", tuple(node), exc)
                    continue
                counters["tighten_lps"] += 1
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
            # The phase the bounds fix, as build_relaxed_lp writes it.
            if hi <= 0.0:
                upper[z] = 0.0  # z = 0
            elif lo >= 0.0:
                row_upper[link] = 0.0  # z = zhat

    return current()
