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
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundsMap, phases, propagate_interval
from .errors import NumericalFailure, Timeout, TooLarge, UnboundedNode
from .geometry import Hyperrectangle
from .lp import LPStatus, LinearProgram, solve_lp
from .lpformat import MilpModel, MilpRow, MilpVar, write_lp_text
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
    holds: bool
    witness: Optional[np.ndarray] = None


def verify_decision(
    net: Network,
    input_box: Hyperrectangle,
    output_rows: Sequence[Row],
    threshold_row: Row,
    timeout: float = 120.0,
    bounds: Optional[BoundsMap] = None,
) -> Decision:
    """Does x in the box (with output_rows holding) imply the threshold row?
    Decided by a feasibility search over the closed complement of the row.

    The search has a zero objective, so every feasible LP bound is 0: once
    a witness makes the incumbent 0, the search drops every open node
    unsolved. A witness found as the budget ends comes back with a Timeout
    status and still decides."""
    problem = OptimizationProblem(
        box=input_box,
        objective=Objective(),
        rows=tuple(output_rows) + (threshold_row.reversed(),),
    )
    result = optimize(net, problem, SearchConfig(timeout=timeout), bounds=bounds)
    if result.argopt is not None:
        return Decision(holds=False, witness=result.argopt)
    if result.status is Status.TIMEOUT:
        raise Timeout("decision procedure timed out")
    return Decision(holds=True)


@dataclass(frozen=True)
class BisectionConfig:
    gap: float = 1e-4
    bracket: Optional[tuple[float, float]] = None  # None = doubling policy
    timeout: float = 60.0  # seconds for the whole run
    tighten_timeout: float = 0.0
    max_iterations: int = 200

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

    Output-optimization problems bracket by doubling an upper bound from the
    value at the box center. Epigraph (minimum-perturbation) problems start
    in the middle of [-t_upper, 0] and declare Infeasible if no witness is
    found before the bracket collapses to within the gap of the boundary.

    Every decision call searches from the bounds branch-and-bound starts
    from (`root_bounds`), computed once. `cfg.timeout` is a budget for the
    whole run: bound tightening and each decision call get the time left,
    and a run that spends it returns Timeout with its bracket and
    incumbent. A decision whose witness does not raise the lower end of the
    bracket ends the run as Optimal: the bracket is then within the
    decision procedure's tolerance.
    """
    start = time.monotonic()
    deadline = start + cfg.timeout
    stats = SearchStats()
    bounds = root_bounds(net, problem.box, cfg.tighten_timeout, deadline)

    best_value = -np.inf
    best_x: Optional[np.ndarray] = None

    def decide(d: float):
        """Feasibility of (rows of problem) and objective >= d, decided
        as `verify_decision` decides; None once the budget is spent."""
        nonlocal best_value, best_x
        left = deadline - time.monotonic()
        if left <= 0.0:
            return None
        obj = problem.objective
        feas = OptimizationProblem(
            box=problem.box,
            objective=Objective(),
            rows=problem.rows + (Row(obj.c_x, obj.c_y, obj.c_t, Relation.GE, d),),
            t_upper=problem.t_upper,
            x0=problem.x0,
        )
        result = optimize(net, feas, SearchConfig(timeout=left), bounds=bounds)
        stats.nodes_explored += result.stats.nodes_explored
        stats.lps_solved += result.stats.lps_solved
        x = result.argopt
        if x is None:
            return None if result.status is Status.TIMEOUT else False
        value = problem.objective_at(net, x)
        if value > best_value:
            best_value, best_x = value, x
        return True

    def finish(status: Status, lo: float, hi: float) -> SearchResult:
        stats.wall_seconds = time.monotonic() - start
        stats.extra["bracket"] = (lo, hi)
        value = best_value if best_x is not None else None
        if status is Status.INFEASIBLE:
            value = None
        return SearchResult(status, value=value, argopt=best_x, stats=stats)

    min_perturbation = problem.use_t and problem.objective.c_t != 0.0

    if cfg.bracket is not None:
        lo, hi = cfg.bracket
        if lo > hi:
            raise ValueError("bracket lower bound exceeds upper bound")
    elif min_perturbation:
        if not np.isfinite(problem.t_upper):
            raise ValueError("epigraph bisection needs a finite t_upper")
        lo, hi = -problem.t_upper, 0.0
    else:
        center = problem.box.center
        v0 = problem.objective_at(net, center)
        scale = max(1.0, 2.0 * abs(v0))
        if problem.rows_satisfied(net, center):
            best_value, best_x = v0, center
            lo = v0
        else:
            # Double downward until some feasible level is found.
            lo = None
            d = -scale
            for _ in range(cfg.max_iterations):
                answer = decide(d)
                if answer is None:
                    return finish(Status.TIMEOUT, d, scale)
                if answer:
                    lo = best_value
                    break
                d *= 2.0
            if lo is None:
                return finish(Status.INFEASIBLE, d, scale)
        hi = max(scale, lo + 1.0)
        # Double until the verifier certifies the upper bound.
        for _ in range(cfg.max_iterations):
            answer = decide(hi)
            if answer is None:
                return finish(Status.TIMEOUT, lo, hi)
            if not answer:
                break
            lo = max(lo, best_value)
            hi *= 2.0
        else:
            raise NumericalFailure("bracketing did not terminate")

    for _ in range(cfg.max_iterations):
        if hi - lo <= cfg.gap:
            break
        mid = 0.5 * (lo + hi)
        answer = decide(mid)
        if answer is None:
            return finish(Status.TIMEOUT, lo, hi)
        if not answer:
            hi = mid
        elif best_value > lo:
            lo = best_value
        else:
            # The witness meets objective >= mid only within the decision
            # procedure's tolerance, so the bracket is as narrow as it can
            # resolve: the incumbent is optimal.
            break
    else:
        raise NumericalFailure("bisection did not converge within iteration cap")

    if best_x is None:
        return finish(Status.INFEASIBLE, lo, hi)
    return finish(Status.OPTIMAL, lo, hi)


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
    the model and its LP-format text."""
    phase = phases(bounds)
    n = net.input_dim
    use_t = problem.use_t

    variables: list[MilpVar] = []
    rows: list[MilpRow] = []
    name_pre = lambda k, j: f"zhat_{k}_{j}"
    name_post = lambda k, j: f"z_{k}_{j}"
    x_names = [f"x{i}" for i in range(n)]

    for i, name in enumerate(x_names):
        variables.append(MilpVar(name, float(problem.box.lower[i]), float(problem.box.upper[i])))
    for k, layer in enumerate(net.layers):
        for j in range(layer.out_width):
            variables.append(
                MilpVar(
                    name_pre(k, j),
                    float(bounds.pre_lower[k][j]),
                    float(bounds.pre_upper[k][j]),
                )
            )
            variables.append(
                MilpVar(
                    name_post(k, j),
                    float(bounds.post_lower[k][j]),
                    float(bounds.post_upper[k][j]),
                )
            )
    if use_t:
        variables.append(MilpVar("t", 0.0, float(problem.t_upper)))

    row_counter = 0

    def add(coeffs: dict[str, float], relation: Relation, rhs: float):
        nonlocal row_counter
        rows.append(MilpRow(f"c{row_counter}", coeffs, relation, float(rhs)))
        row_counter += 1

    # Affine chaining
    for k, layer in enumerate(net.layers):
        prev = x_names if k == 0 else [
            name_post(k - 1, j) for j in range(net.layers[k - 1].out_width)
        ]
        for r in range(layer.out_width):
            coeffs = {name_pre(k, r): 1.0}
            for col, name in enumerate(prev):
                w = float(layer.weights[r, col])
                if w != 0.0:
                    coeffs[name] = coeffs.get(name, 0.0) - w
            add(coeffs, Relation.EQ, float(layer.biases[r]))

    relu_position = {k: i for i, k in enumerate(net.relu_layers)}
    layer_phases = np.split(phase, np.cumsum(net.relu_layer_widths())[:-1])
    binaries: list[MilpVar] = []
    for k, layer in enumerate(net.layers):
        if layer.activation is Activation.IDENTITY:
            for j in range(layer.out_width):
                add({name_post(k, j): 1.0, name_pre(k, j): -1.0}, Relation.EQ, 0.0)
            continue
        i = relu_position[k]
        for j, node_phase in enumerate(layer_phases[i]):
            pre, post = name_pre(k, j), name_post(k, j)
            if node_phase == ACTIVE:
                add({post: 1.0, pre: -1.0}, Relation.EQ, 0.0)
                add({pre: 1.0}, Relation.GE, 0.0)
            elif node_phase == INACTIVE:
                add({post: 1.0}, Relation.EQ, 0.0)
                add({pre: 1.0}, Relation.LE, 0.0)
            else:
                lo = float(bounds.pre_lower[k][j])
                hi = float(bounds.pre_upper[k][j])
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    raise UnboundedNode(i, j)
                delta = f"delta_{k}_{j}"
                binaries.append(MilpVar(delta, 0.0, 1.0, binary=True))
                add({post: 1.0}, Relation.GE, 0.0)
                add({post: 1.0, pre: -1.0}, Relation.GE, 0.0)
                # z <= zhat - lo * (1 - delta)
                add({post: 1.0, pre: -1.0, delta: -lo}, Relation.LE, -lo)
                # z <= hi * delta
                add({post: 1.0, delta: -hi}, Relation.LE, 0.0)

    K = len(net.layers) - 1
    y_names = [name_post(K, j) for j in range(net.output_dim)]

    def named(c_x, c_y, c_t) -> dict[str, float]:
        """The nonzero coefficients of x, y and t, by variable name."""
        coeffs: dict[str, float] = {}
        for names, values in ((x_names, c_x), (y_names, c_y)):
            if values is not None:
                coeffs.update((name, float(v)) for name, v in zip(names, values) if v != 0.0)
        if c_t:
            coeffs["t"] = float(c_t)
        return coeffs

    for row in problem.rows:
        add(named(row.a_x, row.a_y, row.a_t), row.relation, float(row.rhs))
    o = problem.objective
    objective = named(o.c_x, o.c_y, o.c_t) or {"x0": 0.0}

    model = MilpModel(
        variables=tuple(variables + binaries),
        rows=tuple(rows),
        objective=objective,
        maximize=True,
    )
    return model, write_lp_text(model)


def milp_to_lp(
    model: MilpModel,
    binary_values: Optional[dict[str, float]] = None,
) -> tuple[LinearProgram, dict[str, int]]:
    """Continuous relaxation of a MILP (binaries relaxed to [0, 1]), with
    optional fixing of binaries to concrete values."""
    index = {v.name: i for i, v in enumerate(model.variables)}
    n = len(model.variables)
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    if binary_values:
        for name, value in binary_values.items():
            lower[index[name]] = upper[index[name]] = float(value)
    rows = []
    for row in model.rows:
        coeffs = np.zeros(n)
        for name, c in row.coeffs.items():
            coeffs[index[name]] = c
        rows.append((coeffs, row.relation, row.rhs))
    obj = np.zeros(n)
    for name, c in model.objective.items():
        obj[index[name]] = c
    return LinearProgram.from_rows(rows, lower, upper, obj, model.maximize), index
