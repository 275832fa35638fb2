"""Reference solvers and exporters: bisection over a decision procedure,
the brute-force activation-enumeration oracle, and big-M MILP export.

Brute force (`_leaf_affine`) and the MILP export encode the network on
their own instead of through `reluopt.lp.encode_relaxation`: they are the
independent references that branch-and-bound is checked against. They read
the phases the bounds fix as `bounds.phases` gives them, one int8 per ReLU
in `net.relu_node_ids()` order, as the search does."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundsMap, phases, propagate_interval
from .errors import NumericalFailure, Timeout, TooLarge, UnboundedNode
from .geometry import Hyperrectangle
from .lp import CSCMatrix, LPStatus, LinearProgram, encode_relaxation, row_sides, solve_lp
from .lpformat import MilpModel, write_lp_text
from .model import Activation, Network
from .problems import Objective, OptimizationProblem, Relation, Row
from .search import (
    SearchConfig,
    SearchResult,
    SearchStats,
    Status,
    optimize,
    root_bounds,
)
from .state import ACTIVE, INACTIVE, UNDETERMINED

_MAX_BRUTE_FORCE_NODES = 20


# ---------------------------------------------------------------------------
# Decision procedure and bisection


@dataclass(frozen=True)
class Decision:
    holds: Optional[bool]  # None: the budget ended without deciding
    witness: Optional[np.ndarray] = None
    stats: SearchStats = field(default_factory=SearchStats)


def _decide(
    net: Network, problem: OptimizationProblem, timeout: float, bounds: Optional[BoundsMap]
) -> Decision:
    """Do `problem.rows` hold nowhere in the box? Decided by a feasibility
    search: `optimize` with a zero objective. Every feasible LP bound is
    then 0, so once a witness makes the incumbent 0 the search drops every
    open node unsolved. A witness found as the budget ends comes back with a
    Timeout status and still decides; when the budget ends without one,
    `holds` is None. The search's stats come with every outcome."""
    result = optimize(
        net, replace(problem, objective=Objective()), SearchConfig(timeout=timeout), bounds=bounds
    )
    if result.argopt is not None:
        return Decision(holds=False, witness=result.argopt, stats=result.stats)
    if result.status is Status.TIMEOUT:
        return Decision(holds=None, stats=result.stats)
    return Decision(holds=True, stats=result.stats)


def verify_decision(
    net: Network,
    input_box: Hyperrectangle,
    output_rows: Sequence[Row],
    threshold_row: Row,
    timeout: float = 120.0,
    bounds: Optional[BoundsMap] = None,
) -> Decision:
    """Does x in the box (with output_rows holding) imply the threshold row?
    Decided by a feasibility search over the closed complement of the row
    (`_decide`); raises Timeout when the search ends without deciding."""
    problem = OptimizationProblem(
        box=input_box,
        objective=Objective(),
        rows=tuple(output_rows) + (threshold_row.reversed(),),
    )
    decision = _decide(net, problem, timeout, bounds)
    if decision.holds is None:
        raise Timeout("decision procedure timed out")
    return decision


@dataclass(frozen=True)
class BisectionConfig:
    gap: float = 1e-4
    timeout: float = 60.0  # seconds for the whole run
    tighten_timeout: float = 0.0

    def __post_init__(self):
        if not self.gap > 0:
            raise ValueError("optimality gap must be positive")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if not self.tighten_timeout >= 0:
            raise ValueError("tighten_timeout must be nonnegative")


def bisection_optimize(
    net: Network,
    problem: OptimizationProblem,
    cfg: BisectionConfig = BisectionConfig(),
) -> SearchResult:
    """Maximize by bisection over yes/no feasibility queries 'is there a
    feasible point with objective >= d?'.

    The bracket [lo, hi] comes from one rule. A feasibility search over the
    problem's rows alone decides feasibility exactly: without a witness the
    problem is Infeasible, and a witness's true value is `lo`. The maximum
    of the root LP (`encode_relaxation`), which bounds every feasible value
    from above, is `hi`; an unbounded root LP raises ValueError. Each
    decision at the midpoint then halves the bracket, until it is within
    `cfg.gap`. A decision whose witness does not raise `lo` ends the run as
    Optimal: the bracket is then within the decision procedure's tolerance.

    Every decision searches from the bounds branch-and-bound starts from
    (`root_bounds`), computed once. `cfg.timeout` is a budget for the whole
    run: bound tightening, the root LP and each decision get the time left,
    and a run that spends it returns Timeout with its bracket and
    incumbent. `stats.extra` holds the `bracket`, its upper end as the
    `bound` (-inf when Infeasible) and the `gap` hi - lo (inf without an
    incumbent), and the stats sum the nodes and LPs of every decision,
    the one the budget stopped included.
    """
    start = time.monotonic()
    deadline = start + cfg.timeout
    stats = SearchStats()
    bounds = root_bounds(net, problem.box, cfg.tighten_timeout, deadline)
    lo, hi = -np.inf, np.inf
    best_x: Optional[np.ndarray] = None

    def decide(rows: tuple[Row, ...]) -> Decision:
        left = deadline - time.monotonic()
        if left <= 0.0:
            return Decision(holds=None)
        decision = _decide(net, replace(problem, rows=rows), left, bounds)
        stats.nodes_explored += decision.stats.nodes_explored
        stats.lps_solved += decision.stats.lps_solved
        return decision

    def finish(status: Status) -> SearchResult:
        stats.wall_seconds = time.monotonic() - start
        stats.extra["bracket"] = (lo, hi)
        stats.extra["bound"] = hi
        stats.extra["gap"] = hi - lo if best_x is not None else np.inf
        value = lo if best_x is not None else None
        return SearchResult(status, value=value, argopt=best_x, stats=stats)

    decision = decide(problem.rows)
    if decision.holds is None:
        return finish(Status.TIMEOUT)
    if decision.holds:
        hi = -np.inf
        return finish(Status.INFEASIBLE)
    best_x = decision.witness
    lo = problem.objective_at(net, best_x)

    try:
        root = solve_lp(
            encode_relaxation(net, problem, bounds).lp, time_limit=deadline - time.monotonic()
        )
    except Timeout:
        return finish(Status.TIMEOUT)
    if root.status != LPStatus.OPTIMAL:
        raise ValueError(f"bisection needs a root LP with a finite maximum, not {root.status}")
    hi = max(lo, root.value)

    obj = problem.objective
    while hi - lo > cfg.gap:
        mid = 0.5 * (lo + hi)
        decision = decide(problem.rows + (Row(obj.c_x, obj.c_y, obj.c_t, Relation.GE, mid),))
        if decision.holds is None:
            return finish(Status.TIMEOUT)
        if decision.holds:
            hi = mid
            continue
        value = problem.objective_at(net, decision.witness)
        if value <= lo:
            # The witness meets objective >= mid only within the decision
            # procedure's tolerance, so the bracket is as narrow as it can
            # resolve: the incumbent is optimal.
            break
        lo, best_x = value, decision.witness
    return finish(Status.OPTIMAL)


# ---------------------------------------------------------------------------
# Brute-force activation enumeration oracle


def _leaf_affine(net: Network, phase: np.ndarray):
    """Compose the network's affine pieces under a complete phase vector
    (ACTIVE or INACTIVE per ReLU, in `net.relu_node_ids()` order).

    Returns (M, q, region_rows) with y = Mx + q on the region, and
    region_rows a list of (coeffs, relation, rhs) over x enforcing the
    phase signs, one per ReLU.
    """
    n = net.input_dim
    A = np.eye(n)
    c = np.zeros(n)
    region = []
    layer_phases = iter(np.split(phase, np.cumsum(net.relu_layer_widths())[:-1]))
    for layer in net.layers:
        A = layer.weights @ A
        c = layer.weights @ c + layer.biases
        if layer.activation is Activation.RELU:
            for j, node_phase in enumerate(next(layer_phases)):
                if node_phase == ACTIVE:
                    # zhat_j(x) >= 0
                    region.append((-A[j].copy(), Relation.LE, float(c[j])))
                else:
                    region.append((A[j].copy(), Relation.LE, float(-c[j])))
                    A[j] = 0.0
                    c[j] = 0.0
    return A, c, region


def _leaf_lp(net: Network, problem: OptimizationProblem, phase) -> tuple[LinearProgram, float]:
    """Exact LP over x (and t) for one complete phase vector."""
    M, q, region = _leaf_affine(net, phase)
    n = net.input_dim
    use_t = problem.use_t
    n_vars = n + (1 if use_t else 0)

    lower = np.concatenate([problem.box.lower, [0.0]] if use_t else [problem.box.lower])
    upper = np.concatenate(
        [problem.box.upper, [problem.t_upper]] if use_t else [problem.box.upper]
    )

    rows = []
    for coeffs, rel, rhs in region:
        full = np.zeros(n_vars)
        full[:n] = coeffs
        rows.append((full, rel, rhs))
    constant = 0.0
    for row in problem.rows:
        full = np.zeros(n_vars)
        rhs = row.rhs
        if row.a_x is not None:
            full[:n] += row.a_x
        if row.a_y is not None:
            full[:n] += M.T @ row.a_y
            rhs -= float(row.a_y @ q)
        if row.a_t:
            full[n] = row.a_t
        rows.append((full, row.relation, float(rhs)))

    obj = np.zeros(n_vars)
    o = problem.objective
    if o.c_x is not None:
        obj[:n] += o.c_x
    if o.c_y is not None:
        obj[:n] += M.T @ o.c_y
        constant += float(o.c_y @ q)
    if o.c_t:
        obj[n] = o.c_t
    return LinearProgram.from_rows(rows, lower, upper, obj), constant


def brute_force_optimize(
    net: Network, problem: OptimizationProblem
) -> SearchResult:
    """Enumerate every complete activation state not ruled out by interval
    bounds, solve the exact per-region LP in input space, and return the
    best value. Independent of the branch-and-bound machinery. The free
    ReLUs are enumerated in node order, each active before inactive, and
    the first of equal values is kept."""
    start = time.monotonic()
    stats = SearchStats()
    phase = phases(propagate_interval(net, problem.box))
    free = np.flatnonzero(phase == UNDETERMINED)
    if len(free) > _MAX_BRUTE_FORCE_NODES:
        raise TooLarge(f"{len(free)} undetermined nodes exceeds the enumeration guard")

    best_value = -np.inf
    best_x: Optional[np.ndarray] = None
    for pattern in itertools.product((ACTIVE, INACTIVE), repeat=len(free)):
        phase[free] = pattern
        lp, constant = _leaf_lp(net, problem, phase)
        res = solve_lp(lp)
        stats.lps_solved += 1
        if res.status == LPStatus.UNBOUNDED:
            raise NumericalFailure("leaf LP unbounded; missing box bounds?")
        if res.status != LPStatus.OPTIMAL:
            continue
        value = res.value + constant
        if value > best_value:
            best_value = value
            best_x = res.assignment[: net.input_dim].copy()
    stats.nodes_explored = 2 ** len(free)
    stats.wall_seconds = time.monotonic() - start
    if best_x is None:
        return SearchResult(Status.INFEASIBLE, stats=stats)
    return SearchResult(Status.OPTIMAL, value=best_value, argopt=best_x, stats=stats)


# ---------------------------------------------------------------------------
# Big-M MILP export


def export_milp(
    net: Network,
    problem: OptimizationProblem,
    bounds: BoundsMap,
) -> tuple[MilpModel, str]:
    """Exact mixed-integer encoding: one binary per ReLU not fixed by its
    bounds, big-M constants taken from the pre-activation bounds. Returns
    the model and its LP-format text.

    Columns: x, then per layer and node its zhat and z, then t, then the
    binaries delta in node order. Rows: the affine rows of every layer,
    then per layer and node its activation rows, then the problem's rows."""
    phase = phases(bounds)
    n = net.input_dim
    names = [f"x{i}" for i in range(n)]
    lower, upper = [problem.box.lower], [problem.box.upper]
    pre = []  # per layer, the zhat columns; z is the column after each
    for k, layer in enumerate(net.layers):
        pre.append(len(names) + 2 * np.arange(layer.out_width))
        names += [name for j in range(layer.out_width) for name in (f"zhat_{k}_{j}", f"z_{k}_{j}")]
        lower.append(np.column_stack((bounds.pre_lower[k], bounds.post_lower[k])).ravel())
        upper.append(np.column_stack((bounds.pre_upper[k], bounds.post_upper[k])).ravel())
    post = [cols + 1 for cols in pre]
    t = len(names)
    if problem.use_t:
        names.append("t")
        lower.append([0.0])
        upper.append([problem.t_upper])
    n_continuous = len(names)

    entries: list[tuple[int, int, float]] = []  # (row, column, coefficient)
    sides: list[tuple[float, float]] = []  # (lower, upper) of each row

    def add(terms, relation: Relation, rhs: float):
        entries.extend((len(sides), col, c) for col, c in terms)
        sides.append(row_sides(relation, rhs))

    # Affine chaining, one block per layer: zhat_k - W_k z_{k-1} = b_k
    for k, layer in enumerate(net.layers):
        prev = np.arange(n) if k == 0 else post[k - 1]
        r, c = np.nonzero(layer.weights)
        rows = len(sides) + np.concatenate((np.arange(layer.out_width), r))
        cols = np.concatenate((pre[k], prev[c]))
        vals = np.concatenate((np.ones(layer.out_width), -layer.weights[r, c]))
        entries.extend(zip(rows.tolist(), cols.tolist(), vals.tolist()))
        sides.extend((b, b) for b in layer.biases.tolist())

    layer_phases = np.split(phase, np.cumsum(net.relu_layer_widths())[:-1])
    for k, layer in enumerate(net.layers):
        zhat, z = pre[k].tolist(), post[k].tolist()
        if layer.activation is Activation.IDENTITY:
            for j in range(layer.out_width):
                add(((z[j], 1.0), (zhat[j], -1.0)), Relation.EQ, 0.0)
            continue
        i = net.relu_layers.index(k)
        for j, node_phase in enumerate(layer_phases[i]):
            if node_phase == ACTIVE:
                add(((z[j], 1.0), (zhat[j], -1.0)), Relation.EQ, 0.0)
                add(((zhat[j], 1.0),), Relation.GE, 0.0)
            elif node_phase == INACTIVE:
                add(((z[j], 1.0),), Relation.EQ, 0.0)
                add(((zhat[j], 1.0),), Relation.LE, 0.0)
            else:
                lo = float(bounds.pre_lower[k][j])
                hi = float(bounds.pre_upper[k][j])
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    raise UnboundedNode(i, j)
                delta = len(names)
                names.append(f"delta_{k}_{j}")
                add(((z[j], 1.0),), Relation.GE, 0.0)
                add(((z[j], 1.0), (zhat[j], -1.0)), Relation.GE, 0.0)
                # z <= zhat - lo * (1 - delta)
                add(((z[j], 1.0), (zhat[j], -1.0), (delta, -lo)), Relation.LE, -lo)
                # z <= hi * delta
                add(((z[j], 1.0), (delta, -hi)), Relation.LE, 0.0)

    def terms(c_x, c_y, c_t) -> list[tuple[int, float]]:
        """The nonzero coefficients of x, y and t, by column."""
        out = []
        for cols, values in ((np.arange(n), c_x), (post[-1], c_y)):
            if values is not None:
                nz = np.flatnonzero(values)
                out += zip(cols[nz].tolist(), np.asarray(values, dtype=float)[nz].tolist())
        return out + [(t, float(c_t))] if c_t else out

    for row in problem.rows:
        add(terms(row.a_x, row.a_y, row.a_t), row.relation, float(row.rhs))
    o = problem.objective
    objective = np.zeros(len(names))
    for col, c in terms(o.c_x, o.c_y, o.c_t):
        objective[col] = c

    rows, cols, vals = (np.array(v) for v in zip(*entries))
    row_lower, row_upper = np.array(sides).T.copy()
    n_binary = len(names) - n_continuous
    lp = LinearProgram(
        CSCMatrix.from_triplets(rows, cols, vals, (len(sides), len(names))),
        row_lower,
        row_upper,
        np.concatenate(lower + [np.zeros(n_binary)], dtype=float),
        np.concatenate(upper + [np.ones(n_binary)], dtype=float),
        objective,
    )
    model = MilpModel(lp, tuple(names), np.arange(len(names)) >= n_continuous)
    return model, write_lp_text(model)


def milp_to_lp(
    model: MilpModel,
    binary_values: Optional[dict[str, float]] = None,
) -> tuple[LinearProgram, dict[str, int]]:
    """Continuous relaxation of a MILP (binaries relaxed to [0, 1]), with
    optional fixing of binaries to concrete values, and the column index of
    each name."""
    index = {name: i for i, name in enumerate(model.names)}
    lp = model.lp
    if binary_values:
        cols = [index[name] for name in binary_values]
        lower, upper = lp.lower.copy(), lp.upper.copy()
        lower[cols] = upper[cols] = np.array(list(binary_values.values()), dtype=float)
        lp = replace(lp, lower=lower, upper=upper)
    return lp, index
