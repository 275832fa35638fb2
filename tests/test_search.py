import io
import json

import numpy as np
import pytest

from reluopt import (
    NodeOrder,
    NoUndetermined,
    Objective,
    OptimizationProblem,
    Relation,
    RegionOutcome,
    RegionStatus,
    Row,
    SearchConfig,
    SplitStrategy,
    Status,
    Timeout,
    optimize,
    optimum_for_region,
    propagate_interval,
    propagate_symbolic,
    root_bounds,
    split,
)
from reluopt.bounds import phases
from reluopt.geometry import linf_epigraph
from reluopt.model import NodeId, evaluate
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, phase_state

from conftest import box, output_max_problem, random_net, sample_max


# ---------------------------------------------------------------------------
# Scripted tree replay: the four-node tree with root bound 20, children 17
# and infeasible, grandchildren 9 (consistent) and 7 (prunable).


def scripted_evaluator(script):
    """Evaluator driven by a fingerprint -> outcome table, applying the same
    pruning rule as the real region evaluation: a region whose bound cannot
    beat the incumbent is WorseThanOpt."""
    visits = []

    def evaluate_region(state, incumbent):
        visits.append((state.fingerprint(), incumbent))
        entry = script[state.fingerprint()]
        if entry[0] == "infeasible":
            return RegionOutcome(RegionStatus.WORSE_THAN_OPT, lp_bound=-np.inf)
        bound = entry[1]
        if bound <= incumbent:
            return RegionOutcome(RegionStatus.WORSE_THAN_OPT, lp_bound=bound)
        if entry[0] == "optimal":
            return RegionOutcome(
                RegionStatus.OPTIMAL,
                lp_bound=bound,
                value=entry[2],
                assignment=np.array([0.0]),
            )
        return RegionOutcome(RegionStatus.UNKNOWN, lp_bound=bound)

    return evaluate_region, visits


def test_scripted_tree_prunes_seven_against_incumbent_nine(abs_net):
    # Node (0,0) splits first; the consistent optimum 9 sits on the branch
    # explored before its bound-7 sibling.
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 17.0),
        "A[0.0]N[0.1]": ("optimal", 9.0, 9.0),
        "A[0.0,0.1]N[]": ("unknown", 7.0),
    }
    evaluator, visits = scripted_evaluator(script)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    trace = io.StringIO()
    result = optimize(
        abs_net,
        problem,
        SearchConfig(timeout=10.0),
        region_evaluator=evaluator,
        trace=trace,
    )
    assert result.status is Status.OPTIMAL
    assert result.value == pytest.approx(9.0)
    assert result.stats.nodes_explored == 5

    records = [json.loads(line) for line in trace.getvalue().splitlines()]
    by_state = {r["state"]: r for r in records}
    # the bound-7 leaf was evaluated against incumbent 9 and pruned
    assert by_state["A[0.0,0.1]N[]"]["status"] == "worse_than_opt"
    seven_visit = next(v for v in visits if v[0] == "A[0.0,0.1]N[]")
    assert seven_visit[1] == pytest.approx(9.0)
    # the infeasible child reports no finite bound
    assert by_state["A[]N[0.0]"]["lp_bound"] is None
    assert by_state["A[]N[]"]["lp_bound"] == pytest.approx(20.0)
    assert by_state["A[0.0]N[]"]["lp_bound"] == pytest.approx(17.0)


def test_scripted_tree_tie_is_pruned(abs_net):
    # A bound exactly equal to the incumbent cannot contain anything better.
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 17.0),
        "A[0.0]N[0.1]": ("optimal", 9.0, 9.0),
        "A[0.0,0.1]N[]": ("unknown", 9.0),
    }
    evaluator, visits = scripted_evaluator(script)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    result = optimize(
        abs_net, problem, SearchConfig(timeout=10.0), region_evaluator=evaluator
    )
    assert result.status is Status.OPTIMAL
    assert result.value == pytest.approx(9.0)


# ---------------------------------------------------------------------------
# Region evaluation


def test_region_statuses(abs_net):
    b = box([-2.0], [3.0])
    bounds = propagate_interval(abs_net, b)
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    root = phase_state(abs_net, [UNDETERMINED, UNDETERMINED])
    # Unknown at the root of a genuinely two-phase problem
    out = optimum_for_region(abs_net, problem, root, bounds, -np.inf)
    assert out.lp_bound >= 3.0 - 1e-9
    # incumbent at least the bound -> WorseThanOpt
    out2 = optimum_for_region(abs_net, problem, root, bounds, out.lp_bound)
    assert out2.status is RegionStatus.WORSE_THAN_OPT
    # fully fixed consistent leaf -> Optimal with true value
    leaf = phase_state(abs_net, [ACTIVE, INACTIVE])
    out3 = optimum_for_region(abs_net, problem, leaf, bounds, -np.inf)
    assert out3.status is RegionStatus.OPTIMAL
    assert out3.value == pytest.approx(3.0, abs=1e-6)
    assert evaluate(abs_net, out3.assignment)[0] == pytest.approx(out3.value, abs=1e-6)
    # contradictory region -> WorseThanOpt via LP infeasibility
    problem_hi = OptimizationProblem(
        box=b,
        objective=Objective(c_y=np.array([1.0])),
        rows=(Row(None, np.array([1.0]), 0.0, Relation.GE, 100.0),),
    )
    out4 = optimum_for_region(abs_net, problem_hi, root, bounds, -np.inf)
    assert out4.status is RegionStatus.WORSE_THAN_OPT
    assert out4.lp_bound == -np.inf


def test_split_earliest(abs_net):
    state = phase_state(abs_net, [UNDETERMINED, UNDETERMINED])
    first, second = split(state, SplitStrategy.EARLIEST_UNFIXED)
    assert first.phase[0] == ACTIVE
    assert second.phase[0] == INACTIVE
    leaf = phase_state(abs_net, [ACTIVE, ACTIVE])
    with pytest.raises(NoUndetermined):
        split(leaf, SplitStrategy.EARLIEST_UNFIXED)


def test_split_largest_violation(abs_net):
    from reluopt.lp import encode_relaxation

    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    relaxation = encode_relaxation(abs_net, problem, propagate_interval(abs_net, problem.box))
    vec = np.zeros(relaxation.imap.n_vars)
    # node (0,1): zhat = -1 but z = 2 -> violation 2; node (0,0) consistent.
    vec[relaxation.zhat[1]] = -1.0
    vec[relaxation.z[1]] = 2.0
    state = phase_state(abs_net, [UNDETERMINED, UNDETERMINED])
    first, _ = split(
        state, SplitStrategy.LARGEST_VIOLATION, lp_assignment=vec, relaxation=relaxation
    )
    assert first.phase[1] == ACTIVE


# ---------------------------------------------------------------------------
# End-to-end optimization on analytically known problems


def test_abs_net_global_max(abs_net):
    result = optimize(abs_net, output_max_problem(abs_net, [1.0], [-2.0], [3.0]))
    assert result.status is Status.OPTIMAL
    assert result.value == pytest.approx(3.0, abs=1e-6)
    assert abs(result.argopt[0] - 3.0) < 1e-6 or abs(result.argopt[0] + 2.0) < 1e-6


def test_hat_net_global_max(hat_net):
    # Peak 1 at x = 1; a pure LP relaxation at the root cannot certify it.
    result = optimize(hat_net, output_max_problem(hat_net, [1.0], [-2.0], [4.0]))
    assert result.status is Status.OPTIMAL
    assert result.value == pytest.approx(1.0, abs=1e-6)
    assert result.argopt[0] == pytest.approx(1.0, abs=1e-6)


def test_min_adversarial_abs_net(abs_net):
    # minimize ||x - 0||_inf subject to |x| >= 2 within [-3, 3]: answer t = 2.
    rows = tuple(linf_epigraph(np.array([0.0]))) + (
        Row(None, np.array([1.0]), 0.0, Relation.GE, 2.0),
    )
    problem = OptimizationProblem(
        box=box([-3.0], [3.0]),
        objective=Objective(c_t=-1.0),
        rows=rows,
        t_upper=3.0,
        x0=np.array([0.0]),
    )
    result = optimize(abs_net, problem)
    assert result.status is Status.OPTIMAL
    assert result.value == pytest.approx(-2.0, abs=1e-6)
    assert abs(abs(result.argopt[0]) - 2.0) < 1e-6


def test_infeasible_problem(abs_net):
    problem = OptimizationProblem(
        box=box([-1.0], [1.0]),
        objective=Objective(c_y=np.array([1.0])),
        rows=(Row(None, np.array([1.0]), 0.0, Relation.GE, 10.0),),
    )
    result = optimize(abs_net, problem)
    assert result.status is Status.INFEASIBLE
    assert result.value is None


def test_timeout_status(abs_net):
    result = optimize(
        abs_net,
        output_max_problem(abs_net, [1.0], [-2.0], [3.0]),
        SearchConfig(timeout=1e-9),
    )
    assert result.status is Status.TIMEOUT


def test_strategies_and_orders_agree():
    rng = np.random.default_rng(51)
    for _ in range(5):
        net = random_net(rng, n_in=2, hidden=(5,), n_out=1)
        problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
        values = []
        for strat in SplitStrategy:
            for order in NodeOrder:
                result = optimize(
                    net, problem, SearchConfig(split_strategy=strat, node_order=order)
                )
                assert result.status is Status.OPTIMAL
                values.append(result.value)
        assert max(values) - min(values) < 1e-6


def test_optimum_beats_sampling_and_argopt_reevaluates():
    rng = np.random.default_rng(61)
    for _ in range(8):
        net = random_net(rng, n_in=2, hidden=(6,), n_out=2)
        c = rng.normal(size=2)
        problem = output_max_problem(net, c, [-1.0, -1.0], [1.0, 1.0])
        result = optimize(net, problem)
        assert result.status is Status.OPTIMAL
        assert result.value >= sample_max(net, problem, rng, 2000) - 1e-7
        assert float(c @ evaluate(net, result.argopt)) == pytest.approx(
            result.value, abs=1e-6
        )


def test_tightening_does_not_change_answer():
    rng = np.random.default_rng(71)
    net = random_net(rng, n_in=2, hidden=(6,), n_out=1)
    problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
    plain = optimize(net, problem)
    tight = optimize(net, problem, SearchConfig(tighten_timeout=1.0))
    assert plain.value == pytest.approx(tight.value, abs=1e-6)


def test_child_bound_never_exceeds_parent_bound():
    # Regions shrink when a node is fixed, so the relaxation bound is
    # monotone down the tree.
    rng = np.random.default_rng(81)
    pairs = 0
    while pairs < 100:
        net = random_net(rng, n_in=2, hidden=(5,), n_out=1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        bounds = propagate_interval(net, b)
        problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
        state = phase_state(net, np.zeros(net.num_relu_nodes))
        while UNDETERMINED in state.phase:
            parent = optimum_for_region(net, problem, state, bounds, -np.inf)
            if parent.status is not RegionStatus.UNKNOWN:
                break
            first, second = split(state, SplitStrategy.EARLIEST_UNFIXED)
            for child in (first, second):
                out = optimum_for_region(net, problem, child, bounds, -np.inf)
                if out.lp_bound != -np.inf:
                    assert out.lp_bound <= parent.lp_bound + 1e-6
                pairs += 1
            state = first
    assert pairs >= 100


@pytest.mark.parametrize(
    "setting",
    [
        {"timeout": -1.0},
        {"timeout": float("nan")},
        {"tighten_timeout": -1.0},
        {"tighten_timeout": float("nan")},
    ],
)
def test_config_rejects_a_nan_or_out_of_range_budget(setting):
    with pytest.raises(ValueError):
        SearchConfig(**setting)


def test_invalid_timeout_rejected():
    with pytest.raises(ValueError):
        SearchConfig(timeout=0.0)


# ---------------------------------------------------------------------------
# The search budget and the counters the search keeps


def test_node_lp_stopped_by_the_budget_ends_as_timeout_with_incumbent(abs_net):
    outcomes = [
        RegionOutcome(RegionStatus.UNKNOWN, lp_bound=10.0),
        RegionOutcome(RegionStatus.OPTIMAL, lp_bound=6.0, value=5.0, assignment=np.array([1.0])),
    ]

    def evaluator(state, incumbent):
        if not outcomes:
            raise Timeout("LP stopped at its time limit")
        return outcomes.pop(0)

    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    result = optimize(abs_net, problem, region_evaluator=evaluator)
    assert result.status is Status.TIMEOUT
    assert result.value == 5.0 and result.argopt.tolist() == [1.0]
    assert result.stats.nodes_explored == 2


def test_tiny_budget_cuts_tightening_and_node_lps(caplog):
    """Unbudgeted, tightening this net solves all 240 of its LPs (the seed
    leaves every ReLU open) in about 1.4 s on a 2-core x86 machine. Each LP
    gets only what is left of the search timeout, so the search returns on
    time, with most LPs unsolved."""
    rng = np.random.default_rng(101)
    net = random_net(rng, n_in=4, hidden=(40, 40, 40), n_out=1)
    problem = output_max_problem(net, [1.0], -np.ones(4), np.ones(4))
    for config in (
        SearchConfig(timeout=0.05, tighten_timeout=5.0),
        SearchConfig(timeout=0.002),
    ):
        with caplog.at_level("WARNING", logger="reluopt.bounds"):
            result = optimize(net, problem, config)
        assert result.status is Status.TIMEOUT
        assert result.stats.wall_seconds < config.timeout + 0.25
        if config.tighten_timeout:
            assert result.stats.extra["tighten_lps"] < net.num_relu_nodes
    assert "search budget is spent" in caplog.text


def test_search_counts_simplex_iterations():
    rng = np.random.default_rng(5)
    net = random_net(rng, n_in=2, hidden=(6, 4), n_out=1)
    problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
    plain = optimize(net, problem)
    tightened = optimize(net, problem, SearchConfig(tighten_timeout=5.0))
    assert plain.stats.extra["simplex_iters"] > 0
    assert tightened.stats.extra["simplex_iters"] > 0
    assert plain.stats.extra["tighten_limit_hits"] == tightened.stats.extra["tighten_limit_hits"] == 0
    assert tightened.value == pytest.approx(plain.value, abs=1e-6)


def test_search_counts_the_tightening_lps_solved_and_skipped():
    rng = np.random.default_rng(7)
    net = random_net(rng, n_in=2, hidden=(8, 8), n_out=1)
    problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
    plain = optimize(net, problem).stats.extra
    assert plain["tighten_lps"] == plain["tighten_skipped"] == plain["tighten_limit_hits"] == 0
    tightened = optimize(net, problem, SearchConfig(tighten_timeout=5.0)).stats.extra
    fixed = np.count_nonzero(phases(propagate_symbolic(net, problem.box)) != UNDETERMINED)
    assert tightened["tighten_lps"] > 0 and fixed > 0
    assert tightened["tighten_skipped"] == 2 * fixed
    assert tightened["tighten_lps"] + tightened["tighten_skipped"] == 2 * net.num_relu_nodes


# ---------------------------------------------------------------------------
# A node's LP is solved only when its parent's cannot answer for it


def _reuse_nets(seeds=range(5)):
    """Random nets small enough for brute force, each with its problem."""
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        net = random_net(rng, n_in=2, hidden=(6, 4), n_out=2)
        problem = output_max_problem(net, rng.normal(size=2), [-1.0, -1.0], [1.0, 1.0])
        yield net, problem


@pytest.mark.parametrize("order", list(NodeOrder))
def test_earliest_unfixed_with_reuse_finds_the_brute_force_optimum(order):
    from reluopt.baselines import brute_force_optimize

    config = SearchConfig(split_strategy=SplitStrategy.EARLIEST_UNFIXED, node_order=order)
    reused = 0
    for net, problem in _reuse_nets():
        result = optimize(net, problem, config)
        exact = brute_force_optimize(net, problem)
        assert result.status is exact.status is Status.OPTIMAL
        assert result.value == pytest.approx(exact.value, abs=1e-6)
        assert problem.objective_at(net, result.argopt) == pytest.approx(result.value, abs=1e-9)
        assert result.stats.lps_solved <= result.stats.nodes_explored
        reused += result.stats.lps_solved < result.stats.nodes_explored
    assert reused >= 1


@pytest.mark.parametrize("order", list(NodeOrder))
def test_largest_violation_solves_one_lp_per_node(order):
    config = SearchConfig(split_strategy=SplitStrategy.LARGEST_VIOLATION, node_order=order)
    for net, problem in _reuse_nets():
        result = optimize(net, problem, config)
        assert result.status is Status.OPTIMAL
        assert result.stats.lps_solved == result.stats.nodes_explored > 1


def _fixed_nodes(fingerprint):
    """The (phase letter, node) pairs a trace fingerprint names."""
    pairs = set()
    for part in fingerprint.rstrip("]").split("]"):
        letter, nodes = part.split("[")
        for node in filter(None, nodes.split(",")):
            pairs.add((letter, NodeId(*map(int, node.split(".")))))
    return frozenset(pairs)


@pytest.mark.parametrize("order", list(NodeOrder))
def test_reused_child_is_traced_with_its_parent_bound(order):
    """Every explored node is traced. A node that reached no LP is a child
    holding its parent's LP optimum: it reports Unknown at its parent's
    bound, which its own LP would also give."""
    config = SearchConfig(node_order=order)
    reused = 0
    for net, problem in _reuse_nets():
        bounds = propagate_interval(net, problem.box)
        solved = []

        def evaluator(state, incumbent):
            solved.append(state.fingerprint())
            return optimum_for_region(net, problem, state, bounds, incumbent)

        trace = io.StringIO()
        result = optimize(
            net, problem, config, bounds=bounds, trace=trace, region_evaluator=evaluator
        )
        records = [json.loads(line) for line in trace.getvalue().splitlines()]
        assert len(records) == result.stats.nodes_explored
        assert len(solved) == result.stats.lps_solved
        by_fixed = {_fixed_nodes(r["state"]): r for r in records}
        for record in records:
            if record["state"] in solved:
                continue
            fixed = _fixed_nodes(record["state"])
            parents = [by_fixed[fixed - {pair}] for pair in fixed if fixed - {pair} in by_fixed]
            assert len(parents) == 1
            assert record["status"] == parents[0]["status"] == "unknown"
            assert record["lp_bound"] == parents[0]["lp_bound"]
            nodes = net.relu_node_ids()
            phase = np.zeros(len(nodes))
            for letter, node in fixed:
                phase[nodes.index(node)] = ACTIVE if letter == "A" else INACTIVE
            state = phase_state(net, phase)
            own = optimum_for_region(net, problem, state, bounds, -np.inf)
            assert own.lp_bound == pytest.approx(record["lp_bound"], abs=1e-6)
            reused += 1
    assert reused >= 1


@pytest.mark.parametrize("order", list(NodeOrder))
def test_node_whose_parent_bound_is_beaten_reaches_no_evaluator(abs_net, order):
    # Both grandchildren under bound 19 are optimal at 19; whichever is
    # solved first makes 19 the incumbent, and its sibling is then dropped.
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 19.0),
        "A[0.0]N[0.1]": ("optimal", 19.0, 19.0),
        "A[0.0,0.1]N[]": ("optimal", 19.0, 19.0),
    }
    evaluator, visits = scripted_evaluator(script)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    trace = io.StringIO()
    result = optimize(
        abs_net,
        problem,
        SearchConfig(timeout=10.0, node_order=order),
        region_evaluator=evaluator,
        trace=trace,
    )
    assert result.status is Status.OPTIMAL and result.value == 19.0
    visited = [fingerprint for fingerprint, _ in visits]
    assert len(visited) == len(set(visited)) == 4
    assert len({"A[0.0]N[0.1]", "A[0.0,0.1]N[]"} & set(visited)) == 1
    assert result.stats.nodes_explored == result.stats.lps_solved == 4
    assert len(trace.getvalue().splitlines()) == 4


# ---------------------------------------------------------------------------
# The global bound and gap


def test_timeout_reports_bound_and_gap_counting_the_node_in_flight(abs_net):
    outcomes = [
        RegionOutcome(RegionStatus.UNKNOWN, lp_bound=10.0),
        RegionOutcome(RegionStatus.OPTIMAL, lp_bound=6.0, value=5.0, assignment=np.array([1.0])),
    ]

    def evaluator(state, incumbent):
        if not outcomes:
            raise Timeout("LP stopped at its time limit")
        return outcomes.pop(0)

    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    result = optimize(abs_net, problem, region_evaluator=evaluator)
    assert result.status is Status.TIMEOUT and result.value == 5.0
    # the second child was in flight, under its parent's bound 10
    assert result.stats.extra["bound"] == 10.0
    assert result.stats.extra["gap"] == 5.0


def test_timeout_before_any_node_has_infinite_bound_and_gap(abs_net):
    def evaluator(state, incumbent):
        raise Timeout("LP stopped at its time limit")

    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    result = optimize(abs_net, problem, region_evaluator=evaluator)
    assert result.status is Status.TIMEOUT and result.value is None
    assert result.stats.extra["bound"] == np.inf
    assert result.stats.extra["gap"] == np.inf


@pytest.mark.parametrize("order", list(NodeOrder))
def test_optimal_closes_the_gap_and_infeasible_has_no_bound(abs_net, order):
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 17.0),
        "A[0.0]N[0.1]": ("optimal", 9.0, 9.0),
        "A[0.0,0.1]N[]": ("optimal", 7.0, 7.0),
    }
    evaluator, _ = scripted_evaluator(script)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    config = SearchConfig(timeout=10.0, node_order=order)
    result = optimize(abs_net, problem, config, region_evaluator=evaluator)
    assert result.status is Status.OPTIMAL
    assert result.stats.extra["bound"] == 9.0
    assert result.stats.extra["gap"] == 0.0

    infeasible = OptimizationProblem(
        box=box([-1.0], [1.0]),
        objective=Objective(c_y=np.array([1.0])),
        rows=(Row(None, np.array([1.0]), 0.0, Relation.GE, 10.0),),
    )
    result = optimize(abs_net, infeasible, config)
    assert result.status is Status.INFEASIBLE
    assert result.stats.extra["bound"] == -np.inf
    assert result.stats.extra["gap"] == np.inf


# ---------------------------------------------------------------------------
# Root bounds and the argopt re-check


def _min_adv_problem(net, rng):
    """Smallest L-inf move from x0 that makes output 1 at least output 0."""
    x0 = rng.uniform(-0.5, 0.5, net.input_dim)
    rows = tuple(linf_epigraph(x0)) + (
        Row(None, np.array([-1.0, 1.0]), 0.0, Relation.GE, 0.0),
    )
    return OptimizationProblem(
        box=box(x0 - 1.0, x0 + 1.0),
        objective=Objective(c_t=-1.0),
        rows=rows,
        t_upper=1.0,
        x0=x0,
    )


def _root_bound_cases():
    """Output-maximization and min-adversarial problems on random nets that
    brute force can enumerate under interval bounds."""
    for seed in range(3):
        rng = np.random.default_rng(2000 + seed)
        net = random_net(rng, n_in=2, hidden=(5, 4), n_out=2)
        yield net, output_max_problem(net, rng.normal(size=2), [-1.0, -1.0], [1.0, 1.0])
        yield net, _min_adv_problem(net, rng)


def test_root_bounds_are_symbolic_bounds_then_tightening():
    rng = np.random.default_rng(2011)
    net = random_net(rng, n_in=3, hidden=(8, 6), n_out=1)
    b = box(-np.ones(3), np.ones(3))
    symbolic = root_bounds(net, b)
    expected = propagate_symbolic(net, b)
    for k in range(len(net.layers)):
        np.testing.assert_array_equal(symbolic.pre_lower[k], expected.pre_lower[k])
        np.testing.assert_array_equal(symbolic.pre_upper[k], expected.pre_upper[k])
    counters = {}
    tight = root_bounds(net, b, tighten_timeout=5.0, counters=counters)
    assert counters["simplex_iters"] > 0
    for k in range(len(net.layers)):
        assert np.all(tight.pre_lower[k] >= symbolic.pre_lower[k])
        assert np.all(tight.pre_upper[k] <= symbolic.pre_upper[k])


def test_search_from_root_bounds_finds_the_brute_force_optimum():
    from reluopt.baselines import brute_force_optimize

    kinds = set()
    for net, problem in _root_bound_cases():
        exact = brute_force_optimize(net, problem)
        kinds.add((problem.use_t, exact.status))
        for order in NodeOrder:
            for tighten_timeout in (0.0, 5.0):
                config = SearchConfig(node_order=order, tighten_timeout=tighten_timeout)
                result = optimize(net, problem, config)
                assert result.status is exact.status
                if exact.status is Status.OPTIMAL:
                    assert result.value == pytest.approx(exact.value, abs=1e-6)
                    x = result.argopt
                    assert problem.objective_at(net, x) == pytest.approx(result.value, abs=1e-9)
                    assert result.stats.extra["max_violation"] <= 1e-6
    assert {(False, Status.OPTIMAL), (True, Status.OPTIMAL)} <= kinds


def test_optimal_argopt_is_clipped_into_the_box(abs_net):
    # The LP optimum sits outside [-2, 3] by HiGHS's feasibility tolerance
    # (x = 3.0000001); the argopt is that point clipped into the box.
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    result = optimize(abs_net, problem)
    assert np.all((problem.box.lower <= result.argopt) & (result.argopt <= problem.box.upper))
    assert result.stats.extra["max_violation"] == 0.0
    assert result.value == problem.objective_at(abs_net, result.argopt)


def test_every_argopt_is_rechecked_by_a_forward_pass(abs_net):
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    assert 0.0 <= optimize(abs_net, problem).stats.extra["max_violation"] <= 1e-6

    # A scripted optimum outside the box, and one failing a row by 0.5.
    def outside(state, incumbent):
        x = np.array([4.0])
        return RegionOutcome(RegionStatus.OPTIMAL, lp_bound=4.0, value=4.0, assignment=x)

    result = optimize(abs_net, problem, region_evaluator=outside)
    assert result.stats.extra["max_violation"] == pytest.approx(1.0)

    rows = (Row(None, np.array([1.0]), 0.0, Relation.GE, 2.5),)
    constrained = OptimizationProblem(problem.box, problem.objective, rows)

    def short(state, incumbent):
        x = np.array([2.0])
        return RegionOutcome(RegionStatus.OPTIMAL, lp_bound=2.0, value=2.0, assignment=x)

    result = optimize(abs_net, constrained, region_evaluator=short)
    assert result.stats.extra["max_violation"] == pytest.approx(0.5)

    unreachable = (Row(None, np.array([1.0]), 0.0, Relation.GE, 10.0),)
    infeasible = OptimizationProblem(problem.box, problem.objective, unreachable)
    assert "max_violation" not in optimize(abs_net, infeasible).stats.extra


# ---------------------------------------------------------------------------
# Reused HiGHS instances, consistency gaps and stage times


def _order_cases():
    """Output-maximization and min-adversarial problems on 2x8 nets, big
    enough for searches of tens of nodes."""
    rng = np.random.default_rng(3100)
    for trial in range(8):
        net = random_net(rng, n_in=3, hidden=(8, 8), n_out=2)
        if trial % 2:
            yield net, _min_adv_problem(net, rng)
        else:
            yield net, output_max_problem(net, rng.normal(size=2), -np.ones(3), np.ones(3))


def _solve_all(cases):
    """(nodes, simplex iterations, value) per case, solved in the order given."""
    out = []
    for net, problem in cases:
        stats = (result := optimize(net, problem)).stats
        out.append((stats.nodes_explored, stats.extra["simplex_iters"], result.value))
    return out


def test_problems_solve_alike_in_any_order_and_on_reused_or_new_instances(monkeypatch):
    """A problem's search does not depend on the problems solved before it:
    forward, reversed, and with every HiGHS instance new, each problem gets
    the same nodes, simplex iterations and value."""
    from reluopt import highs

    cases = list(_order_cases())
    monkeypatch.setattr(highs, "_FREE", [])
    forward = _solve_all(cases)
    assert len(highs._FREE) >= 1  # the instances were reused
    assert _solve_all(cases[::-1])[::-1] == forward

    class Discard(list):
        def append(self, instance):
            pass

    monkeypatch.setattr(highs, "_FREE", Discard())
    assert _solve_all(cases) == forward
    assert sum(nodes for nodes, _, _ in forward) >= 100


def test_unknown_outcome_carries_its_consistency_gaps():
    from reluopt.lp import check_relu_consistency, encode_relaxation

    unknown = 0
    for net, problem in _order_cases():
        bounds = propagate_interval(net, problem.box)
        relaxation = encode_relaxation(net, problem, bounds)
        root = phase_state(net, relaxation.phase)
        out = optimum_for_region(net, problem, root, bounds, -np.inf, relaxation)
        if out.status is RegionStatus.UNKNOWN:
            gaps = check_relu_consistency(relaxation, out.lp_assignment)
            np.testing.assert_array_equal(out.gaps, gaps)
            unknown += 1
        else:
            assert out.gaps is None
    assert unknown >= 4


@pytest.mark.parametrize("order", list(NodeOrder))
def test_outcome_without_gaps_answers_for_no_child(order):
    """A parent's outcome answers for a child only through its gaps: an
    evaluator whose Unknown outcomes carry the LP point but no gaps gets
    every node, and the search finds the same optimum."""
    import dataclasses

    config = SearchConfig(node_order=order)
    for net, problem in _reuse_nets():
        bounds = propagate_interval(net, problem.box)

        def evaluator(state, incumbent):
            out = optimum_for_region(net, problem, state, bounds, incumbent)
            return dataclasses.replace(out, gaps=None)

        plain = optimize(net, problem, config, bounds=bounds)
        stripped = optimize(net, problem, config, bounds=bounds, region_evaluator=evaluator)
        assert stripped.stats.lps_solved == stripped.stats.nodes_explored
        assert stripped.value == pytest.approx(plain.value, abs=1e-9)


def test_root_state_fingerprint_is_that_of_its_phase_vector():
    """The root state is built from the relaxation's phases without
    `phase_state`; its trace fingerprint is the one `phase_state` gives."""
    for net, problem in _root_bound_cases():
        bounds = propagate_symbolic(net, problem.box)
        trace = io.StringIO()
        optimize(net, problem, bounds=bounds, trace=trace)
        first = json.loads(trace.getvalue().splitlines()[0])["state"]
        assert first == phase_state(net, phases(bounds)).fingerprint()


def test_stage_times_are_counted(abs_net):
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    for config in (SearchConfig(), SearchConfig(tighten_timeout=1.0)):
        result = optimize(abs_net, problem, config)
        extra = result.stats.extra
        stages = [extra["bounds_s"], extra["encode_s"], extra["lp_s"]]
        assert all(seconds > 0.0 for seconds in stages)
        assert sum(stages) <= result.stats.wall_seconds
    given = optimize(abs_net, problem, bounds=propagate_interval(abs_net, problem.box))
    assert given.stats.extra["bounds_s"] < given.stats.wall_seconds
