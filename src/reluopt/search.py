"""Branch-and-bound over partial activation states with LP-relaxation
bounding and incumbent pruning. A node is its state: one read-only int8
phase vector (`reluopt.state`)."""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, TextIO

import numpy as np

# fixed_by_bounds, propagate_interval, split_assignment, build_relaxed_lp and
# solve_lp have no caller in this module (node LPs go through
# `LiveModel.solve_phase`) but stay importable by its name: perfbench's tracer
# wraps them here, as it wraps tighten_lp. They go when the tracer stops
# looking them up.
from .attacks import ray_witness
from .bounds import (  # noqa: F401
    COUNTERS,
    BoundsMap,
    fixed_by_bounds,
    phases,
    propagate_interval,
    propagate_symbolic,
    tighten_lp,
)
from .errors import NoUndetermined, Timeout
from .highs import LiveModel
from .lp import (  # noqa: F401
    LPStatus,
    Relaxation,
    build_relaxed_lp,
    check_relu_consistency,
    encode_relaxation,
    solve_lp,
    split_assignment,
    with_bounds,
)
from .model import Network, evaluate
from .problems import OptimizationProblem
from .state import ACTIVE, INACTIVE, UNDETERMINED, fingerprint

CONSISTENCY_TOL = 1e-6


class RegionStatus(Enum):
    WORSE_THAN_OPT = "worse_than_opt"
    UNKNOWN = "unknown"
    OPTIMAL = "optimal"


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"


@dataclass(slots=True)
class RegionOutcome:
    status: RegionStatus
    lp_bound: float
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None  # input vector (Optimal only)
    output: Optional[np.ndarray] = None  # the network's output there (Optimal only)
    gaps: Optional[np.ndarray] = None  # |z - max(0, zhat)| per ReLU at the LP point (Unknown)
    scores: Optional[np.ndarray] = None  # split score per ReLU, `split_scores` (Unknown)
    iterations: int = 0  # simplex iterations of the region's LP


@dataclass
class SearchStats:
    nodes_explored: int = 0
    lps_solved: int = 0
    wall_seconds: float = 0.0
    peak_frontier: int = 0
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchResult:
    status: Status
    value: Optional[float] = None
    argopt: Optional[np.ndarray] = None
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass(frozen=True)
class SearchConfig:
    timeout: float = 120.0
    tighten_timeout: float = 0.0  # seconds per preprocessing LP; 0 disables

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if not self.tighten_timeout >= 0:
            raise ValueError("tighten_timeout must be nonnegative")


def root_relaxation(
    net: Network,
    problem: OptimizationProblem,
    tighten_timeout: float = 0.0,
    deadline: Optional[float] = None,
    counters: Optional[dict] = None,
    model: Optional[LiveModel] = None,
) -> tuple[BoundsMap, Relaxation]:
    """The bounds a search of `problem` starts from and its root LP: back-
    substitution bounds and one `encode_relaxation` under them, then, when
    `tighten_timeout` > 0, `tighten_lp` over that LP by `deadline` in the
    live `model` the search goes on in, and `with_bounds`, or a second
    encoding when tightening fixes a phase, so that ReLU gets no column or
    row in any node LP. `counters` gets `tighten_lp`'s counts and
    `encode_s`, the seconds spent encoding and writing bounds back."""
    counters = {} if counters is None else counters
    bounds = propagate_symbolic(net, problem.box)
    clock = time.perf_counter()
    relaxation = encode_relaxation(net, problem, bounds)
    counters["encode_s"] = time.perf_counter() - clock
    if tighten_timeout > 0.0:
        bounds = tighten_lp(net, relaxation, bounds, tighten_timeout, deadline, counters, model)
        clock = time.perf_counter()
        if (phases(bounds) == relaxation.phase).all():
            relaxation = with_bounds(relaxation, bounds)
        else:
            relaxation = encode_relaxation(net, problem, bounds)
        counters["encode_s"] += time.perf_counter() - clock
    return bounds, relaxation


def optimum_for_region(
    net: Network,
    problem: OptimizationProblem,
    phase: np.ndarray,
    bounds: BoundsMap,
    incumbent: float,
    relaxation: Optional[Relaxation] = None,
    model: Optional[LiveModel] = None,
    time_limit: Optional[float] = None,
) -> RegionOutcome:
    """Solve the relaxed LP for the region of the phase vector `phase`.
    Infeasible regions and regions whose LP bound cannot beat the incumbent
    report WorseThanOpt; a consistent LP optimum, its x clipped into the
    box, is the region optimum, valued at the output of one forward pass
    there (`output`); otherwise Unknown, with the `gaps` of the LP point and
    the `split_scores` read from the LP's row duals.

    `relaxation` is the problem's `encode_relaxation(net, problem, bounds)`,
    encoded here when not given, and `model` the live HiGHS model its LPs
    are re-solved in, a new one, released after, when not given. Raises
    Timeout when `time_limit` stops the LP."""
    if relaxation is None:
        relaxation = encode_relaxation(net, problem, bounds)
    if model is None:
        with LiveModel() as model:
            return optimum_for_region(
                net, problem, phase, bounds, incumbent, relaxation, model, time_limit
            )
    res = model.solve_phase(relaxation, phase, time_limit)
    its = res.iterations
    if res.status == LPStatus.INFEASIBLE:
        return RegionOutcome(RegionStatus.WORSE_THAN_OPT, lp_bound=-np.inf, iterations=its)
    bound = np.inf if res.status == LPStatus.UNBOUNDED else res.value
    if bound <= incumbent:
        return RegionOutcome(RegionStatus.WORSE_THAN_OPT, lp_bound=bound, iterations=its)
    if res.status == LPStatus.UNBOUNDED:
        # No assignment to check; force a split.
        return RegionOutcome(RegionStatus.UNKNOWN, lp_bound=bound, iterations=its)
    gaps = check_relu_consistency(relaxation, res.assignment)
    if (gaps <= CONSISTENCY_TOL).all():
        x = np.clip(res.assignment[relaxation.imap.x], problem.box.lower, problem.box.upper)
        y = evaluate(net, x)
        return RegionOutcome(
            RegionStatus.OPTIMAL,
            lp_bound=bound,
            value=problem.objective_at(net, x, y),
            assignment=x,
            output=y,
            iterations=its,
        )
    scores = split_scores(relaxation, gaps, model.row_duals())
    return RegionOutcome(RegionStatus.UNKNOWN, bound, gaps=gaps, scores=scores, iterations=its)


def split_scores(relaxation: Relaxation, gaps: np.ndarray, row_dual: np.ndarray) -> np.ndarray:
    """Per ReLU, |mu| (-s l) where the LP point violates it (`gaps` above
    CONSISTENCY_TOL), else 0. mu is the dual of its triangle row in
    `row_dual`, the LP's row duals, and -s l = u (-l) / (u - l) is that row's
    right-hand side. This is the exact-LP form of BaBSR's intercept score
    (Bunel et al., JMLR 2020). A ReLU the root fixes has a gap of 0."""
    violated = gaps > CONSISTENCY_TOL
    rows = relaxation.triangle[violated]
    scores = np.zeros(len(gaps))
    scores[violated] = np.abs(row_dual[rows]) * relaxation.lp.row_upper[rows]
    return scores


def split(
    phase: np.ndarray, gaps: Optional[np.ndarray] = None, scores: Optional[np.ndarray] = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Fix one undetermined node of the phase vector `phase`: its position
    `i`, then the read-only children with it active and with it inactive.

    With an Unknown outcome's `gaps` and `scores`, the node is the
    undetermined one with the highest score; ties go to the largest gap,
    then to the earliest position. A zero objective scores every node 0.
    Without them (a scripted outcome, or an unbounded LP), it is the
    earliest undetermined node. Raises NoUndetermined when no node is
    undetermined."""
    undetermined = np.flatnonzero(phase == UNDETERMINED)
    if not undetermined.size:
        raise NoUndetermined("state has no undetermined node to split")
    i = undetermined[0]
    if gaps is not None:
        top = scores[undetermined]
        undetermined = undetermined[top == top.max()]
        i = undetermined[np.argmax(gaps[undetermined])]  # the first of equal maxima
    active, inactive = phase.copy(), phase.copy()
    active[i], inactive[i] = ACTIVE, INACTIVE
    active.flags.writeable = inactive.flags.writeable = False
    return int(i), active, inactive


def optimize(
    net: Network,
    problem: OptimizationProblem,
    config: SearchConfig = SearchConfig(),
    bounds: Optional[BoundsMap] = None,
    trace: Optional[TextIO] = None,
    region_evaluator: Optional[Callable] = None,
) -> SearchResult:
    """Branch-and-bound global maximization over the canonical problem.

    A node is its read-only phase vector. `region_evaluator(phase,
    incumbent)` defaults to optimum_for_region and exists so search
    behavior (pruning, incumbents, ordering) can be exercised with scripted
    region outcomes. An Unknown node is split by `split`, which reads its
    outcome's `gaps` and `scores`.

    Every node solves its LP: the split ReLU is violated at its parent's LP
    point, so no child holds that point, and `stats.lps_solved` equals
    `stats.nodes_explored`. A popped node whose parent bound is at most the
    incumbent is dropped unsolved and uncounted.

    Every LP draws on `config.timeout`: tightening LPs and node LPs get at
    most the time left, and a node LP stopped by that limit ends the search
    as Timeout. `stats.extra` counts the simplex iterations of all LPs
    (`simplex_iters`) and the tightening LPs solved (`tighten_lps`), skipped
    because the back-substitution bounds already fix their ReLU's phase
    (`tighten_skipped`), not needed as the ReLU's range is exact already
    (`tighten_exact`) and stopped by their time limit (`tighten_limit_hits`),
    the seconds spent on the witness, bounds and tightening (`bounds_s`), on
    encoding the root LP and writing bounds into it (`encode_s`) and on node
    evaluation (`lp_s`), and the root LP's shape (`lp_rows` and `lp_cols`),
    which every node LP shares. It also holds the global upper `bound`, the
    largest of the incumbent and the parent bounds of the nodes still open,
    and the `gap` from the incumbent up to it (inf without an incumbent).
    A result with an argopt re-checks it by a forward pass: `max_violation`
    is the most it leaves the box or fails a row by (0 when it holds), read
    from the output its leaf was valued at (a forward pass here when the
    outcome carries none).

    `bounds` and the root LP default to `root_relaxation`'s under
    `config.tighten_timeout`; given `bounds`, the root LP is encoded from
    them. When `bounds` is not given, a feasible point on the gradient ray from x0
    (`ray_witness`) of a problem that `problem.ball` applies to is the
    first incumbent, its objective is `stats.extra['witness']` (else None),
    and the ball of that value is searched in place of the problem: bounds,
    LPs and leaves. Every point that beats the witness lies in the ball.
    """
    start = time.monotonic()
    deadline = start + config.timeout
    stats = SearchStats(extra={**dict.fromkeys(COUNTERS, 0), "lp_s": 0.0, "witness": None})

    incumbent = -np.inf
    argopt: Optional[np.ndarray] = None
    output: Optional[np.ndarray] = None  # the network's output at argopt, when known
    searched = problem  # the problem the bounds, LPs and leaves are of

    def evaluate_region(phase: np.ndarray, inc: float) -> RegionOutcome:
        limit = deadline - time.monotonic()
        return optimum_for_region(net, searched, phase, bounds, inc, relaxation, model, limit)

    evaluator = region_evaluator or evaluate_region

    # One encoding and one live model per call, tightening included, so a
    # problem's node sequence never depends on problems solved before it.
    with LiveModel() as model:
        clock = time.perf_counter()
        if bounds is None:
            found = ray_witness(net, problem)
            value = None if found is None else problem.objective_at(net, *found)
            ball = None if found is None else problem.ball(value)
            if ball is not None:
                incumbent, (argopt, output), searched = value, found, ball
                stats.extra["witness"] = value
            bounds, relaxation = root_relaxation(
                net, searched, config.tighten_timeout, deadline, stats.extra, model
            )
        else:
            relaxation = encode_relaxation(net, searched, bounds)
            stats.extra["encode_s"] = time.perf_counter() - clock
        stats.extra["bounds_s"] = time.perf_counter() - clock - stats.extra["encode_s"]
        stats.extra["lp_rows"], stats.extra["lp_cols"] = relaxation.lp.matrix.shape

        # The frontier is a heap of (-parent bound, tiebreak counter, phase
        # vector): the largest parent bound pops first (children can only be
        # worse), and of equal bounds the one pushed first. The root is the
        # relaxation's read-only phase vector: the phases the bounds fix.
        frontier = [(-np.inf, 0, relaxation.phase)]
        counter = 1
        timed_out = False
        while frontier:
            stats.peak_frontier = max(stats.peak_frontier, len(frontier))
            if -frontier[0][0] <= incumbent:
                break  # the top is beaten, and so is every node left: no LP, not a node
            if time.monotonic() - start > config.timeout:
                timed_out = True
                break
            entry = heapq.heappop(frontier)
            phase = entry[2]
            clock = time.perf_counter()
            try:
                outcome = evaluator(phase, incumbent)
            except Timeout:
                heapq.heappush(frontier, entry)  # still open: its bound counts
                timed_out = True
                break
            finally:
                stats.extra["lp_s"] += time.perf_counter() - clock
            stats.lps_solved += 1
            stats.extra["simplex_iters"] += outcome.iterations
            stats.nodes_explored += 1
            if trace is not None:
                bound = outcome.lp_bound if np.isfinite(outcome.lp_bound) else None
                record = {"state": fingerprint(net, phase), "lp_bound": bound}
                trace.write(json.dumps({**record, "status": outcome.status.value}) + "\n")
            if outcome.status is RegionStatus.WORSE_THAN_OPT:
                continue
            if outcome.status is RegionStatus.OPTIMAL:
                if outcome.value > incumbent:
                    incumbent = outcome.value
                    argopt, output = outcome.assignment, outcome.output
                continue
            _, active, inactive = split(phase, outcome.gaps, outcome.scores)
            heapq.heappush(frontier, (-outcome.lp_bound, counter, inactive))
            heapq.heappush(frontier, (-outcome.lp_bound, counter + 1, active))
            counter += 2

    stats.wall_seconds = time.monotonic() - start
    # The global bound: nothing open can beat the largest parent bound left.
    global_bound = max(incumbent, -frontier[0][0]) if frontier else incumbent
    stats.extra["bound"] = global_bound
    stats.extra["gap"] = global_bound - incumbent if argopt is not None else np.inf
    if argopt is not None:
        stats.extra["max_violation"] = problem.violation(net, argopt, output)
    if timed_out:
        value = None if argopt is None else incumbent
        return SearchResult(Status.TIMEOUT, value=value, argopt=argopt, stats=stats)
    if argopt is None and not np.isfinite(incumbent):
        return SearchResult(Status.INFEASIBLE, stats=stats)
    return SearchResult(Status.OPTIMAL, value=incumbent, argopt=argopt, stats=stats)
