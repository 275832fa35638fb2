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
from .bounds import (  # noqa: F401
    COUNTERS,
    BoundsMap,
    fixed_by_bounds,
    propagate_interval,
    propagate_symbolic,
    tighten_lp,
)
from .errors import NoUndetermined, Timeout
from .geometry import Hyperrectangle
from .highs import LiveModel
from .lp import (  # noqa: F401
    LPStatus,
    Relaxation,
    build_relaxed_lp,
    check_relu_consistency,
    encode_relaxation,
    solve_lp,
    split_assignment,
)
from .model import Network, evaluate
from .problems import OptimizationProblem
from .state import ACTIVE, INACTIVE, UNDETERMINED, fingerprint

CONSISTENCY_TOL = 1e-6


class RegionStatus(Enum):
    WORSE_THAN_OPT = "worse_than_opt"
    UNKNOWN = "unknown"
    OPTIMAL = "optimal"


class SplitStrategy(Enum):
    EARLIEST_UNFIXED = "earliest"
    LARGEST_VIOLATION = "largest_violation"


class NodeOrder(Enum):
    BEST_FIRST = "best_first"
    DEPTH_FIRST = "depth_first"


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class RegionOutcome:
    status: RegionStatus
    lp_bound: float
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None  # input vector (Optimal only)
    output: Optional[np.ndarray] = None  # the network's output there (Optimal only)
    lp_assignment: Optional[np.ndarray] = None  # full LP vector (Unknown only)
    gaps: Optional[np.ndarray] = None  # |z - max(0, zhat)| per ReLU there (Unknown only)
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
    split_strategy: SplitStrategy = SplitStrategy.EARLIEST_UNFIXED
    node_order: NodeOrder = NodeOrder.BEST_FIRST
    timeout: float = 120.0
    tighten_timeout: float = 0.0  # seconds per preprocessing LP; 0 disables

    def __post_init__(self):
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if not self.tighten_timeout >= 0:
            raise ValueError("tighten_timeout must be nonnegative")


def root_bounds(
    net: Network,
    box: Hyperrectangle,
    tighten_timeout: float = 0.0,
    deadline: Optional[float] = None,
    counters: Optional[dict] = None,
) -> BoundsMap:
    """The bounds a search starts from: back-substitution bounds, then, when
    `tighten_timeout` is positive, LP tightening (`tighten_lp`) seeded with
    them, under `deadline`."""
    bounds = propagate_symbolic(net, box)
    if tighten_timeout > 0.0:
        bounds = tighten_lp(net, box, bounds, tighten_timeout, deadline=deadline, counters=counters)
    return bounds


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
    there (`output`); otherwise Unknown, with the LP point and its `gaps`.

    `relaxation` is the problem's `encode_relaxation(net, problem, bounds)`,
    encoded here when not given, and `model` the live HiGHS model its LPs
    are re-solved in, a new one, released after, when not given. Raises
    Timeout when `time_limit` stops the LP."""
    if relaxation is None:
        relaxation = encode_relaxation(net, problem, bounds)
    if model is None:
        with LiveModel() as model:
            res = model.solve_phase(relaxation, phase, time_limit)
    else:
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
    return RegionOutcome(
        RegionStatus.UNKNOWN, bound, lp_assignment=res.assignment, gaps=gaps, iterations=its
    )


def split(
    phase: np.ndarray, strategy: SplitStrategy, gaps: Optional[np.ndarray] = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Fix one undetermined node of the phase vector `phase`: its position
    `i`, then the read-only children with it active and with it inactive.

    Largest violation reads `gaps`, an Unknown outcome's |z - max(0, zhat)|
    per ReLU, and picks the earliest undetermined node with the largest gap;
    the earliest undetermined node when none has a gap, or without `gaps`.
    Raises NoUndetermined when no node is undetermined."""
    undetermined = np.flatnonzero(phase == UNDETERMINED)
    if not undetermined.size:
        raise NoUndetermined("state has no undetermined node to split")
    i = undetermined[0]
    if strategy is SplitStrategy.LARGEST_VIOLATION and gaps is not None:
        i = undetermined[np.argmax(gaps[undetermined])]  # the first of equal maxima
    active, inactive = phase.copy(), phase.copy()
    active[i], inactive[i] = ACTIVE, INACTIVE
    active.flags.writeable = inactive.flags.writeable = False
    return int(i), active, inactive


def _parent_answers(
    phase: np.ndarray,
    parent: Optional[RegionOutcome],
    fixed: int,
    relaxation: Relaxation,
) -> bool:
    """Whether `parent`, the Unknown outcome of the state that the split of
    node `fixed` made `phase` from, answers for `phase`: its LP optimum
    satisfies the phase that `phase` gives that node (read from its `gaps`; an
    outcome without them answers for no child). The child's region is then a
    subset of the parent's that holds the parent's optimizer, so the parent's
    outcome is its own. A leaf is never answered this way."""
    if parent is None or parent.gaps is None:
        return False
    if parent.gaps[fixed] > CONSISTENCY_TOL:
        return False
    zhat = parent.lp_assignment[relaxation.zhat[fixed]]
    if not (zhat >= 0.0 if phase[fixed] == ACTIVE else zhat <= 0.0):
        return False
    return UNDETERMINED in phase


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
    outcome's `gaps` under largest violation.

    A node's LP is solved only when its parent's cannot answer for it. A
    popped node whose parent bound is at most the incumbent is dropped
    unsolved and uncounted. A child whose region holds its parent's LP
    optimum (the split node's new phase is already satisfied there) takes
    the parent's Unknown outcome as its own; it is counted and traced as a
    node but solves no LP, so `stats.lps_solved` can be below
    `stats.nodes_explored`.

    Every LP draws on `config.timeout`: tightening LPs and node LPs get at
    most the time left, and a node LP stopped by that limit ends the search
    as Timeout. `stats.extra` counts the simplex iterations of all LPs
    (`simplex_iters`) and the tightening LPs solved (`tighten_lps`), skipped
    because the back-substitution bounds already fix their ReLU's phase
    (`tighten_skipped`), not needed because the ReLU's range has a closed
    form (`tighten_exact`) and stopped by their time limit
    (`tighten_limit_hits`), and the seconds spent on the root bounds
    (`bounds_s`), the root LP (`encode_s`) and node evaluation (`lp_s`). It
    also holds the global upper `bound`, the largest of the incumbent and
    the parent bounds of the nodes still open, and the `gap` from the
    incumbent up to it (inf without an incumbent).
    A result with an argopt re-checks it by a forward pass: `max_violation`
    is the most it leaves the box or fails a row by (0 when it holds), read
    from the output its leaf was valued at (a forward pass here when the
    outcome carries none).

    `bounds` defaults to `root_bounds` under `config.tighten_timeout`.
    """
    start = time.monotonic()
    deadline = start + config.timeout
    stats = SearchStats(extra={**dict.fromkeys(COUNTERS, 0), "lp_s": 0.0})

    clock = time.perf_counter()
    if bounds is None:
        bounds = root_bounds(net, problem.box, config.tighten_timeout, deadline, stats.extra)
    stats.extra["bounds_s"] = time.perf_counter() - clock

    incumbent = -np.inf
    argopt: Optional[np.ndarray] = None
    output: Optional[np.ndarray] = None  # the network's output at argopt, when known

    # One encoding and one live model per call, so a problem's node
    # sequence never depends on problems solved before it. The root is the
    # relaxation's read-only phase vector: the phases the bounds fix.
    clock = time.perf_counter()
    relaxation = encode_relaxation(net, problem, bounds)
    stats.extra["encode_s"] = time.perf_counter() - clock

    def evaluate_region(phase: np.ndarray, inc: float) -> RegionOutcome:
        limit = deadline - time.monotonic()
        return optimum_for_region(net, problem, phase, bounds, inc, relaxation, model, limit)

    evaluator = region_evaluator or evaluate_region

    # Frontier entries: (-parent bound, tiebreak counter, phase vector,
    # parent's Unknown outcome or None at the root, index the split fixed).
    # Best-first pops the largest parent bound (children can only be worse);
    # depth-first is LIFO.
    best_first = config.node_order is NodeOrder.BEST_FIRST
    counter = 0
    frontier: list = []

    def push(phase: np.ndarray, parent: Optional[RegionOutcome], fixed: int):
        nonlocal counter
        bound = np.inf if parent is None else parent.lp_bound
        entry = (-bound, counter, phase, parent, fixed)
        if best_first:
            heapq.heappush(frontier, entry)
        else:
            frontier.append(entry)
        counter += 1

    push(relaxation.phase, None, -1)
    timed_out = False

    with LiveModel() as model:
        while frontier:
            if time.monotonic() - start > config.timeout:
                timed_out = True
                break
            stats.peak_frontier = max(stats.peak_frontier, len(frontier))
            entry = heapq.heappop(frontier) if best_first else frontier.pop()
            neg_bound, _, phase, parent, fixed = entry
            if -neg_bound <= incumbent:
                # Already beaten: no LP, not a node. Best-first pops the largest
                # parent bound, so every node left is beaten too.
                if best_first:
                    break
                continue
            if _parent_answers(phase, parent, fixed, relaxation):
                outcome = parent
            else:
                clock = time.perf_counter()
                try:
                    outcome = evaluator(phase, incumbent)
                except Timeout:
                    frontier.append(entry)  # still open: its bound counts
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
            i, active, inactive = split(phase, config.split_strategy, outcome.gaps)
            push(inactive, outcome, i)
            push(active, outcome, i)

    stats.wall_seconds = time.monotonic() - start
    # The global bound: nothing open can beat the largest parent bound left.
    global_bound = max([incumbent] + [-neg_bound for neg_bound, *_ in frontier])
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
