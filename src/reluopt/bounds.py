"""Per-node activation bounds: interval propagation, back-substitution
(symbolic) bounds, and LP-based progressive tightening."""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, Timeout
from .geometry import Hyperrectangle
from .model import Activation, Layer, Network, NodeId
from .state import ACTIVE, INACTIVE, UNDETERMINED

if TYPE_CHECKING:
    from .highs import LiveModel
    from .lp import Relaxation

log = logging.getLogger(__name__)

# Tightened bounds get inflated by this margin so LP feasibility noise can
# never make a sound bound unsound.
SAFETY_MARGIN = 1e-7
IMPROVEMENT_THRESHOLD = 1e-9
POST_CONSISTENCY_EPS = 1e-9
# The counts `tighten_lp` accumulates.
COUNTERS = (
    "simplex_iters",
    "tighten_lps",
    "tighten_skipped",
    "tighten_limit_hits",
    "tighten_exact",
)


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


def _narrowed(lo, hi, post_lo, post_hi, top, bottom):
    """Tightening's one rule for ReLUs whose zhat, under bounds [lo, hi] and
    post bounds [post_lo, post_hi], ranges up to `top` and down to `bottom`
    (an LP optimum; hi or lo where no LP gave one). A side moves to that
    value widened by SAFETY_MARGIN when that improves it by at least
    IMPROVEMENT_THRESHOLD. The post bounds then follow as max(0, pre): with
    z >= 0 and z >= zhat as an undetermined ReLU's only rows below z, an LP
    over z could not do better; and hi <= 0 fixes z <= 0. Returns the new
    (lo, hi, post_lo, post_hi)."""
    top, bottom = top + SAFETY_MARGIN, bottom - SAFETY_MARGIN
    hi = top if hi - top >= IMPROVEMENT_THRESHOLD else hi
    lo = bottom if bottom - lo >= IMPROVEMENT_THRESHOLD else lo
    post_lo = max(post_lo, lo - POST_CONSISTENCY_EPS, 0.0)
    post_hi = min(post_hi, max(0.0, hi) + POST_CONSISTENCY_EPS)
    if post_lo > post_hi:  # numerically crossed: keep a sound order
        post_lo = post_hi = max(0.0, post_hi)
    return lo, hi, post_lo, 0.0 if hi <= 0.0 else post_hi


def tighten_lp(
    net: Network,
    relaxation: "Relaxation",
    seed: BoundsMap,
    per_query_timeout: float,
    deadline: Optional[float] = None,
    counters: Optional[dict] = None,
    model: Optional["LiveModel"] = None,
) -> BoundsMap:
    """Progressive LP tightening of `seed` over `relaxation`, the root LP
    that `encode_relaxation` encodes from `seed` for the problem searched:
    visit the ReLUs the seed leaves open in topological order and, for
    each, find the max and the min of its zhat over that LP, under the
    bounds found so far. A bound is replaced only when that value is known
    (an LP finished within its time limit) and improves it by at least the
    improvement threshold (`_narrowed`). A ReLU's new bounds, with the phase
    they fix, are written into the LP before the next ReLU's LPs, so a
    phase fixed in a later layer can cut an earlier ReLU's LP as well.

    The LP holds the problem's rows, so the bounds hold over its feasible
    set: the x of the box that meet the rows (the box, without rows). An
    infeasible LP ends tightening: no x meets the rows, and every later LP
    would be infeasible too. The ReLUs the seed leaves open in the first
    layer that has one keep the seed's bounds, with no LP: every ReLU before
    them is fixed, so their zhat is affine in x, and `propagate_symbolic`,
    which seeds tightening in the package, gives its exact range over the
    box, widened by SAFETY_MARGIN. So does a ReLU the seed fixes: it is
    substituted into every LP, so the LP already implies any bound its own
    LPs could return, and narrowing its interval would cut no later LP.

    The LPs are re-solved in the live `model`, or in one made here and
    released on return; when no ReLU needs an LP, no model is touched. Each
    LP's time limit is `per_query_timeout`, cut to the time left before
    `deadline` (a `time.monotonic()` reading); once that is spent,
    tightening stops before the next ReLU or LP and keeps the bounds found
    so far. `counters`, when given, accumulates `simplex_iters`,
    `tighten_lps` (LPs solved), `tighten_skipped` (two per ReLU the seed
    fixes), `tighten_limit_hits` (LPs stopped by their time limit) and
    `tighten_exact` (two per open ReLU of that first layer), each set when
    the call starts. Each ReLU visited adds two to the last four together,
    unless one of its LPs fails numerically or is infeasible.
    """
    from .highs import LiveModel
    from .lp import LPStatus, build_relaxed_lp, solve_lp

    counters = {} if counters is None else counters
    for name in COUNTERS:
        counters.setdefault(name, 0)
    if per_query_timeout <= 0.0:
        return seed

    # The bounds of every ReLU in `relu_node_ids()` order, tightened in place.
    relu_side = lambda side: np.concatenate([np.empty(0), *(side[k] for k in seed.relu_layers)])
    lo, hi, post_lo, post_hi = (
        relu_side(s) for s in (seed.pre_lower, seed.pre_upper, seed.post_lower, seed.post_upper)
    )
    fixed = relaxation.phase != UNDETERMINED
    node = lambda i: tuple(net.relu_node_ids()[i])  # for log lines only
    ends = np.cumsum([len(seed.pre_lower[k]) for k in seed.relu_layers], dtype=int)
    span = {k: slice(end - len(seed.pre_lower[k]), end) for k, end in zip(seed.relu_layers, ends)}

    def time_left() -> float:
        if deadline is None:
            return per_query_timeout
        return min(per_query_timeout, deadline - time.monotonic())

    def finish(i: int) -> BoundsMap:
        """The bounds tightened so far, with tightening ended before ReLU `i`."""
        counters["tighten_skipped"] += 2 * int(np.count_nonzero(fixed[:i]))
        sides = lambda values, seed_sides: tuple(
            values[span[k]] if k in span else side for k, side in enumerate(seed_sides)
        )
        return replace(
            seed,
            pre_lower=sides(lo, seed.pre_lower),
            pre_upper=sides(hi, seed.pre_upper),
            post_lower=sides(post_lo, seed.post_lower),
            post_upper=sides(post_hi, seed.post_upper),
        )

    def spent(i: int) -> BoundsMap:
        log.warning("bound tightening stopped at node %s: the search budget is spent", node(i))
        return finish(i)

    opened = np.flatnonzero(~fixed)
    if opened.size and time_left() <= 0.0:
        return spent(int(opened[0]))
    # LPs for the open ReLUs after the first layer that has one.
    first = ends[np.searchsorted(ends, opened[0], side="right")] if opened.size else 0
    visit = opened[opened >= first]
    counters["tighten_exact"] += 2 * (opened.size - visit.size)
    if not visit.size:
        return finish(len(fixed))

    lp = build_relaxed_lp(relaxation, relaxation.phase)
    row_upper, lower, upper = lp.row_upper, lp.lower, lp.upper  # copies the build made
    with LiveModel() if model is None else nullcontext(model) as model:
        for i in visit:
            zhat, z = relaxation.zhat[i], relaxation.z[i]
            obj = np.zeros(lp.n_vars)
            obj[zhat] = 1.0
            top, bottom = hi[i], lo[i]
            for maximize in (True, False):
                limit = time_left()
                if limit <= 0.0:
                    return spent(int(i))
                cost = lp.with_objective(obj, maximize=maximize)
                try:
                    res = solve_lp(cost, time_limit=limit, model=model)
                except Timeout:
                    counters["tighten_limit_hits"] += 1
                    message = "bound kept at node %s: LP stopped at its %.3g s time limit"
                    log.warning(message, node(i), limit)
                    continue
                except NumericalFailure as exc:
                    log.debug("bound kept at node %s: %s", node(i), exc)
                    continue
                counters["tighten_lps"] += 1
                counters["simplex_iters"] += res.iterations
                if res.status == LPStatus.INFEASIBLE:
                    log.info("bound tightening stopped at node %s: its LP is infeasible", node(i))
                    return finish(int(i))
                if res.status == LPStatus.OPTIMAL:
                    top, bottom = (res.value, bottom) if maximize else (top, res.value)
            # Both LPs of a ReLU see the same bounds; later ReLUs see the new
            # ones, with the phase they fix as `build_relaxed_lp` writes it:
            # z = 0 through the post bounds, z = zhat through the link row.
            lo[i], hi[i], post_lo[i], post_hi[i] = _narrowed(
                lo[i], hi[i], post_lo[i], post_hi[i], top, bottom
            )
            lower[zhat], upper[zhat], lower[z], upper[z] = lo[i], hi[i], post_lo[i], post_hi[i]
            if lo[i] >= 0.0 and hi[i] > 0.0:
                row_upper[relaxation.link[i]] = 0.0
    return finish(len(fixed))
