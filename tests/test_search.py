import dataclasses
import io
import json

import numpy as np
import pytest

from reluopt import (
    NoUndetermined,
    Objective,
    OptimizationProblem,
    Relation,
    RegionOutcome,
    RegionStatus,
    Row,
    SearchConfig,
    Status,
    Timeout,
    optimize,
    optimum_for_region,
    propagate_interval,
    propagate_symbolic,
    ray_witness,
    root_relaxation,
    split,
)
from reluopt.baselines import brute_force_optimize, export_milp
from reluopt.bounds import phases
from reluopt.geometry import linf_epigraph
from reluopt.highs import LiveModel
from reluopt.lp import check_relu_consistency, encode_relaxation
from reluopt.search import CONSISTENCY_TOL, split_scores
from reluopt.model import evaluate, gradient
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, fingerprint, phase_state

from conftest import (
    box,
    exact_range_relus,
    output_max_problem,
    random_net,
    read_lp_with_highs,
    sample_max,
    tighten_over_box,
)


# ---------------------------------------------------------------------------
# Scripted tree replay: the four-node tree with root bound 20, children 17
# and infeasible, grandchildren 9 (consistent) and 7 (prunable).


def scripted_evaluator(net, script):
    """Evaluator driven by a fingerprint -> outcome table over the nodes of
    `net`, applying the same pruning rule as the real region evaluation: a
    region whose bound cannot beat the incumbent is WorseThanOpt."""
    visits = []

    def evaluate_region(phase, incumbent):
        visits.append((fingerprint(net, phase), incumbent))
        entry = script[fingerprint(net, phase)]
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
    evaluator, visits = scripted_evaluator(abs_net, script)
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
    evaluator, visits = scripted_evaluator(abs_net, script)
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
    """Without gaps and scores `split` takes the earliest undetermined node."""
    state = phase_state(abs_net, [UNDETERMINED, UNDETERMINED])
    i, first, second = split(state)
    assert i == 0
    assert first[0] == ACTIVE
    assert second[0] == INACTIVE
    leaf = phase_state(abs_net, [ACTIVE, ACTIVE])
    with pytest.raises(NoUndetermined):
        split(leaf)


def test_split_largest_violation(abs_net):
    """With gaps and scores `split` takes the highest score, then the
    largest violation, then the earliest position."""
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    relaxation = encode_relaxation(abs_net, problem, propagate_interval(abs_net, problem.box))
    vec = np.zeros(relaxation.imap.n_vars)
    # node (0,1): zhat = -1 but z = 2 -> violation 2; node (0,0) consistent.
    vec[relaxation.zhat[1]] = -1.0
    vec[relaxation.z[1]] = 2.0
    state = phase_state(abs_net, [UNDETERMINED, UNDETERMINED])
    gaps = check_relu_consistency(relaxation, vec)
    i, first, _ = split(state, gaps, np.zeros(2))  # a zero objective's scores
    assert i == 1
    assert first[1] == ACTIVE
    assert split(state, gaps, np.array([3.0, 1.0]))[0] == 0  # the score comes first
    assert split(state, gaps, np.array([1.0, 1.0]))[0] == 1  # then the gap
    assert split(state, np.array([2.0, 2.0]), np.array([1.0, 1.0]))[0] == 0  # then the position


def test_split_takes_the_violated_relu_whose_triangle_row_the_duals_price_highest():
    """At LP optima of partial states of random nets, an Unknown outcome's
    score of ReLU i is |mu_i| u_i (-l_i) / (u_i - l_i) where the LP point
    violates it, mu_i being the dual of its triangle row, and 0 elsewhere.
    `split` fixes the undetermined ReLU with the highest score, a violated
    one; ties go to the largest gap, then to the earliest position, and a
    fixed ReLU is never split, whatever its score. Rounded and zero scores
    and gaps make the ties."""
    rng = np.random.default_rng(29)
    checked = score_ties = position_ties = 0
    for trial in range(30):
        net = random_net(rng, n_in=3, hidden=(6, 6), n_out=2)
        lo, hi = -np.ones(3), np.ones(3)
        problem = output_max_problem(net, rng.normal(size=2), lo, hi)
        if trial % 3 == 2:
            problem = _min_adv_problem(net, rng)
        bounds = propagate_interval(net, problem.box)
        l, u = (
            np.concatenate([side[k] for k in net.relu_layers])
            for side in (bounds.pre_lower, bounds.pre_upper)
        )
        relaxation = encode_relaxation(net, problem, bounds)
        with LiveModel() as model:
            for _ in range(5):
                phase = relaxation.phase.copy()
                pick = (phase == UNDETERMINED) & (rng.random(len(phase)) < 0.3)
                phase[pick] = rng.choice((ACTIVE, INACTIVE), size=int(pick.sum()))
                phase.flags.writeable = False
                out = optimum_for_region(net, problem, phase, bounds, -np.inf, relaxation, model)
                if out.status is not RegionStatus.UNKNOWN:
                    assert out.scores is None
                    continue
                violated = out.gaps > CONSISTENCY_TOL
                mu = model.row_duals()[relaxation.triangle]
                with np.errstate(divide="ignore", invalid="ignore"):
                    intercept = u * -l / (u - l)
                expected = np.where(violated, np.abs(mu) * intercept, 0.0)
                np.testing.assert_allclose(out.scores, expected, rtol=1e-12, atol=0.0)
                assert (relaxation.triangle[violated] >= 0).all()
                undetermined = np.flatnonzero(phase == UNDETERMINED).tolist()
                assert violated[undetermined].any()
                louder = np.where(phase == UNDETERMINED, out.scores, out.scores + 10.0)
                rounded = np.round(out.gaps, 1)
                for scores, gaps in (
                    (out.scores, out.gaps),
                    (np.round(out.scores, 1), out.gaps),
                    (louder, out.gaps),
                    (np.zeros_like(out.scores), out.gaps),
                    (np.zeros_like(out.scores), rounded),
                ):
                    key = lambda j: (-scores[j], -gaps[j], j)
                    best = min(undetermined, key=key)
                    tied = [j for j in undetermined if scores[j] == scores[best]]
                    score_ties += len(tied) > 1
                    position_ties += sum(gaps[j] == gaps[best] for j in tied) > 1
                    i, active, inactive = split(phase, gaps, scores)
                    assert i == best
                    if gaps is out.gaps:
                        assert violated[i]
                    for child, value in ((active, ACTIVE), (inactive, INACTIVE)):
                        assert np.flatnonzero(child != phase).tolist() == [i]
                        assert child[i] == value and not child.flags.writeable
                    checked += 1
    assert checked >= 400 and score_ties >= 200 and position_ties >= 10


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


def _without_gaps(net, problem, bounds, relaxation=None, model=None):
    """A region evaluator whose Unknown outcomes carry no gaps and no
    scores, so `split` takes the earliest undetermined ReLU."""

    def evaluator(phase, incumbent):
        out = optimum_for_region(net, problem, phase, bounds, incumbent, relaxation, model)
        return dataclasses.replace(out, gaps=None, scores=None)

    return evaluator


def test_score_and_earliest_undetermined_splits_find_the_same_optimum():
    """The score rule and the earliest-undetermined split of outcomes
    without gaps find the same optimum."""
    rng = np.random.default_rng(51)
    for _ in range(5):
        net = random_net(rng, n_in=2, hidden=(5,), n_out=1)
        problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
        bounds = propagate_interval(net, problem.box)
        values = []
        for evaluator in (None, _without_gaps(net, problem, bounds)):
            result = optimize(net, problem, bounds=bounds, region_evaluator=evaluator)
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
        while UNDETERMINED in state:
            parent = optimum_for_region(net, problem, state, bounds, -np.inf)
            if parent.status is not RegionStatus.UNKNOWN:
                break
            _, first, second = split(state)
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
    assert plain["tighten_exact"] == 0
    tightened = optimize(net, problem, SearchConfig(tighten_timeout=5.0)).stats.extra
    seed = propagate_symbolic(net, problem.box)
    fixed = np.count_nonzero(phases(seed) != UNDETERMINED)
    closed = exact_range_relus(net, seed)
    assert tightened["tighten_lps"] > 0 and fixed > 0
    assert tightened["tighten_skipped"] == 2 * fixed
    assert tightened["tighten_exact"] == 2 * np.count_nonzero(closed) > 0
    assert (
        tightened["tighten_lps"] + tightened["tighten_skipped"] + tightened["tighten_exact"]
        == 2 * net.num_relu_nodes
    )


# ---------------------------------------------------------------------------
# Every node solves its LP, and the search is exact


def _reuse_nets(seeds=range(5)):
    """Random nets small enough for brute force, each with its problem."""
    for seed in seeds:
        rng = np.random.default_rng(1000 + seed)
        net = random_net(rng, n_in=2, hidden=(6, 4), n_out=2)
        problem = output_max_problem(net, rng.normal(size=2), [-1.0, -1.0], [1.0, 1.0])
        yield net, problem


def test_earliest_undetermined_split_in_one_reused_model_finds_the_brute_force_optimum():
    """The earliest-undetermined split, which `split` makes of outcomes
    without gaps, finds brute force's optimum with one HiGHS instance reused
    for every node LP of a problem."""
    reused = 0
    for net, problem in _reuse_nets():
        bounds = propagate_interval(net, problem.box)
        relaxation = encode_relaxation(net, problem, bounds)
        with LiveModel() as model:
            evaluator = _without_gaps(net, problem, bounds, relaxation, model)
            result = optimize(net, problem, bounds=bounds, region_evaluator=evaluator)
        exact = brute_force_optimize(net, problem)
        assert result.status is exact.status is Status.OPTIMAL
        assert result.value == pytest.approx(exact.value, abs=1e-6)
        assert problem.objective_at(net, result.argopt) == pytest.approx(result.value, abs=1e-9)
        assert result.stats.lps_solved == result.stats.nodes_explored
        reused += result.stats.nodes_explored > 1
    assert reused >= 1


def test_every_node_solves_its_own_lp():
    """The split ReLU, the highest-scored and then the most violated, is
    violated at its node's LP point, so no child holds that point: every
    node solves its own LP."""
    for net, problem in _reuse_nets():
        result = optimize(net, problem)
        assert result.status is Status.OPTIMAL
        assert result.stats.lps_solved == result.stats.nodes_explored > 1


def _exact_cases(seed, hidden, open_range, count, propagate):
    """`count` output-maximization and `count` min-adversarial problems on
    random nets with `hidden` layers, drawn from `seed`, whose `propagate`
    bounds leave between `open_range` ReLUs open."""
    rng = np.random.default_rng(seed)
    found = {False: 0, True: 0}
    while min(found.values()) < count:
        net = random_net(rng, n_in=3, hidden=hidden, n_out=2)
        x0 = rng.uniform(-0.5, 0.5, 3)
        r = rng.uniform(0.2, 1.0)
        for problem in (
            output_max_problem(net, rng.normal(size=2), x0 - r, x0 + r),
            _min_adv_problem(net, rng),
        ):
            n_open = np.count_nonzero(phases(propagate(net, problem.box)) == UNDETERMINED)
            if found[problem.use_t] < count and open_range[0] <= n_open <= open_range[1]:
                found[problem.use_t] += 1
                yield net, problem


def test_every_node_is_traced_with_its_own_lp_bound():
    """Every explored node is traced once, with the status and LP bound of
    the outcome its own evaluation gave."""
    for net, problem in _reuse_nets():
        bounds = propagate_interval(net, problem.box)
        solved = {}

        def evaluator(phase, incumbent):
            out = optimum_for_region(net, problem, phase, bounds, incumbent)
            solved[fingerprint(net, phase)] = out
            return out

        trace = io.StringIO()
        result = optimize(net, problem, bounds=bounds, trace=trace, region_evaluator=evaluator)
        records = [json.loads(line) for line in trace.getvalue().splitlines()]
        assert len(records) == len(solved) == result.stats.nodes_explored > 1
        for record in records:
            out = solved[record["state"]]
            assert record["status"] == out.status.value
            bound = out.lp_bound if np.isfinite(out.lp_bound) else None
            assert record["lp_bound"] == bound


def test_search_finds_the_brute_force_optimum():
    """On seeded random nets with 4 to 11 open ReLUs, B&B under the score
    rule gives brute force's status and value, for both query kinds; at
    least one min-adversarial search starts from a witness."""
    kinds, witnessed = set(), 0
    for net, problem in _exact_cases(4100, (6, 6), (4, 11), 4, propagate_interval):
        exact = brute_force_optimize(net, problem)
        kinds.add((problem.use_t, exact.status))
        result = optimize(net, problem)
        assert result.status is exact.status
        if exact.status is Status.OPTIMAL:
            assert result.value == pytest.approx(exact.value, abs=1e-6)
            x = result.argopt
            assert problem.objective_at(net, x) == pytest.approx(result.value, abs=1e-9)
            assert result.stats.extra["max_violation"] <= 1e-6
        assert result.stats.lps_solved == result.stats.nodes_explored
        assert problem.use_t or result.stats.extra["witness"] is None
        witnessed += problem.use_t and result.stats.extra["witness"] is not None
    assert {(False, Status.OPTIMAL), (True, Status.OPTIMAL)} <= kinds
    assert witnessed >= 1


def test_stats_give_the_root_lp_shape():
    """`stats.extra` gives the root LP's rows and columns: for output
    maximization, an affine, a link and a triangle row per ReLU the root
    bounds leave open, and x, their zhat and z, and the two fixed columns."""
    for net, problem in _exact_cases(4300, (6, 6), (2, 9), 3, propagate_symbolic):
        if problem.use_t:
            continue
        n_open = np.count_nonzero(phases(propagate_symbolic(net, problem.box)) == UNDETERMINED)
        extra = optimize(net, problem).stats.extra
        assert (extra["lp_rows"], extra["lp_cols"]) == (3 * n_open, net.input_dim + 2 * n_open + 2)


def _highs_mip(text):
    """Status and optimum of a MILP in LP-file text, as HiGHS's reader makes
    it (`read_lp_with_highs`), solved by HiGHS MIP to a zero gap."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    read = read_lp_with_highs(text)
    sign = -1.0 if read.maximize else 1.0
    res = milp(
        sign * read.cost,
        integrality=read.integer.astype(float),
        bounds=Bounds(read.lower, read.upper),
        constraints=LinearConstraint(read.matrix, read.row_lower, read.row_upper),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return Status.INFEASIBLE, None
    return Status.OPTIMAL, float(read.cost @ res.x)


def test_search_finds_the_highs_mip_optimum():
    """Beyond brute force's reach, on seeded random nets whose
    back-substitution bounds leave 20 to 40 ReLUs open, B&B gives the status
    and value of HiGHS MIP on `export_milp`'s model, for both query kinds;
    at least one min-adversarial search starts from a witness."""
    kinds, witnessed = set(), 0
    for net, problem in _exact_cases(4200, (16, 16, 12), (20, 40), 2, propagate_symbolic):
        _, text = export_milp(net, problem, propagate_symbolic(net, problem.box))
        status, value = _highs_mip(text)
        kinds.add((problem.use_t, status))
        result = optimize(net, problem)
        assert result.status is status
        if status is Status.OPTIMAL:
            assert result.value == pytest.approx(value, abs=1e-6)
            assert result.stats.extra["max_violation"] <= 1e-6
        assert problem.use_t or result.stats.extra["witness"] is None
        witnessed += problem.use_t and result.stats.extra["witness"] is not None
    assert {(False, Status.OPTIMAL), (True, Status.OPTIMAL)} <= kinds
    assert witnessed >= 1


def test_node_whose_parent_bound_is_beaten_reaches_no_evaluator(abs_net):
    # Both grandchildren under bound 19 are optimal at 19; whichever is
    # solved first makes 19 the incumbent, and its sibling is then dropped.
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 19.0),
        "A[0.0]N[0.1]": ("optimal", 19.0, 19.0),
        "A[0.0,0.1]N[]": ("optimal", 19.0, 19.0),
    }
    evaluator, visits = scripted_evaluator(abs_net, script)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    trace = io.StringIO()
    result = optimize(
        abs_net,
        problem,
        SearchConfig(timeout=10.0),
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


def test_a_search_whose_nodes_are_all_beaten_as_the_budget_ends_is_optimal(abs_net):
    """The node in flight as the budget ends finds an incumbent that beats
    every node left: the search has finished, so it is Optimal with gap 0."""
    import time

    def evaluator(phase, incumbent):
        if not phase.any():  # the root: split it
            return RegionOutcome(RegionStatus.UNKNOWN, lp_bound=1.0)
        time.sleep(0.3)  # the budget ends as the incumbent is found
        return RegionOutcome(RegionStatus.OPTIMAL, lp_bound=1.0, value=1.0, assignment=np.ones(1))

    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    result = optimize(abs_net, problem, SearchConfig(timeout=0.2), region_evaluator=evaluator)
    assert result.status is Status.OPTIMAL and result.value == 1.0
    assert result.stats.nodes_explored == 2
    assert result.stats.extra["bound"] == 1.0
    assert result.stats.extra["gap"] == 0.0


def test_optimal_closes_the_gap_and_infeasible_has_no_bound(abs_net):
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 17.0),
        "A[0.0]N[0.1]": ("optimal", 9.0, 9.0),
        "A[0.0,0.1]N[]": ("optimal", 7.0, 7.0),
    }
    evaluator, _ = scripted_evaluator(abs_net, script)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    config = SearchConfig(timeout=10.0)
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


def _lp_vectors(lp):
    """An LP's dense matrix, then its bound and cost vectors."""
    return lp.matrix.toarray(), lp.row_lower, lp.row_upper, lp.lower, lp.upper, lp.objective


def test_root_bounds_are_symbolic_bounds_then_tightening():
    # The root LP that `root_relaxation` gives with its bounds, tightened or
    # not, is the one `encode_relaxation` encodes from those bounds.
    rng = np.random.default_rng(2011)
    net = random_net(rng, n_in=3, hidden=(8, 6), n_out=1)
    b = box(-np.ones(3), np.ones(3))
    problem = OptimizationProblem(b, Objective(c_y=np.ones(1)))
    symbolic, relaxation = root_relaxation(net, problem)
    expected = propagate_symbolic(net, b)
    for k in range(len(net.layers)):
        np.testing.assert_array_equal(symbolic.pre_lower[k], expected.pre_lower[k])
        np.testing.assert_array_equal(symbolic.pre_upper[k], expected.pre_upper[k])
    encoded = encode_relaxation(net, problem, expected).lp
    for got, want in zip(_lp_vectors(relaxation.lp), _lp_vectors(encoded)):
        np.testing.assert_array_equal(got, want)
    counters = {}
    tight, relaxation = root_relaxation(net, problem, tighten_timeout=5.0, counters=counters)
    assert counters["simplex_iters"] > 0
    for k in range(len(net.layers)):
        assert np.all(tight.pre_lower[k] >= symbolic.pre_lower[k])
        assert np.all(tight.pre_upper[k] <= symbolic.pre_upper[k])
    encoded = encode_relaxation(net, problem, tight).lp
    for got, want in zip(_lp_vectors(relaxation.lp), _lp_vectors(encoded)):
        np.testing.assert_array_equal(got, want)


def test_search_from_root_bounds_finds_the_brute_force_optimum():
    from reluopt.baselines import brute_force_optimize

    kinds = set()
    for net, problem in _root_bound_cases():
        exact = brute_force_optimize(net, problem)
        kinds.add((problem.use_t, exact.status))
        for tighten_timeout in (0.0, 5.0):
            result = optimize(net, problem, SearchConfig(tighten_timeout=tighten_timeout))
            assert result.status is exact.status
            if exact.status is Status.OPTIMAL:
                assert result.value == pytest.approx(exact.value, abs=1e-6)
                x = result.argopt
                assert problem.objective_at(net, x) == pytest.approx(result.value, abs=1e-9)
                assert result.stats.extra["max_violation"] <= 1e-6
    assert {(False, Status.OPTIMAL), (True, Status.OPTIMAL)} <= kinds


def _deep_tightening_case(seed, radius):
    """Maximize y1 - y0 on a seeded 5 -> 8x3 -> 5 net, drawn as perfbench's
    deep workload draws its nets, over the box of `radius` around a random
    center."""
    rng = np.random.default_rng(seed)
    net = random_net(rng, n_in=5, hidden=(8, 8, 8), n_out=5)
    center = rng.uniform(-1.0, 1.0, 5)
    objective = [-1.0, 1.0, 0.0, 0.0, 0.0]
    return net, output_max_problem(net, objective, center - radius, center + radius)


def test_a_tightened_search_encodes_once_in_one_live_model(monkeypatch):
    """A search that tightens its bounds encodes its root LP once and solves
    the tightening LPs and the node LPs in one live model: when tightening
    fixes no phase that back-substitution left open, its bounds are written
    into that LP. When it fixes one, the root LP is encoded again, with the
    shape `encode_relaxation` gives the tightened bounds. Both searches
    reach brute force's value."""
    import reluopt.highs
    import reluopt.lp
    import reluopt.search

    encodes, models = [], []
    for owner in (reluopt.lp, reluopt.search):
        encode = owner.encode_relaxation
        monkeypatch.setattr(
            owner, "encode_relaxation", lambda *a, f=encode: encodes.append(1) or f(*a)
        )
    init = reluopt.highs.LiveModel.__init__
    monkeypatch.setattr(
        reluopt.highs.LiveModel, "__init__", lambda self: models.append(1) or init(self)
    )
    for radius, fixes in ((0.1, False), (0.15, True)):
        net, problem = _deep_tightening_case(0, radius)
        encodes.clear()
        models.clear()
        result = optimize(net, problem, SearchConfig(tighten_timeout=5.0))
        assert result.stats.extra["tighten_lps"] > 0
        assert (len(encodes), len(models)) == (1 + fixes, 1)
        tight, _ = root_relaxation(net, problem, tighten_timeout=5.0)
        assert (phases(tight) != phases(propagate_symbolic(net, problem.box))).any() == fixes
        shape = encode_relaxation(net, problem, tight).lp.matrix.shape
        assert (result.stats.extra["lp_rows"], result.stats.extra["lp_cols"]) == shape
        exact = brute_force_optimize(net, problem)
        assert result.status is exact.status is Status.OPTIMAL
        assert result.value == pytest.approx(exact.value, abs=1e-6)


def _targeted_problem(net, rng, margin=0.0):
    """Smallest L-inf move from x0 within 1 that makes the output smallest
    at x0 exceed the largest by `margin`."""
    x0 = rng.uniform(-0.5, 0.5, net.input_dim)
    y0 = evaluate(net, x0)
    a = np.zeros(net.output_dim)
    a[int(np.argmin(y0))], a[int(np.argmax(y0))] = 1.0, -1.0
    rows = (*linf_epigraph(x0), Row(None, a, 0.0, Relation.GE, margin))
    return OptimizationProblem(box(x0 - 1.0, x0 + 1.0), Objective(c_t=-1.0), rows, 1.0, x0=x0)


def test_min_adversarial_tightening_reads_the_problem_rows():
    """Tightening over a min-adversarial problem's own root LP, rows
    included, gives bounds within those of tightening over its box alone
    (to round-off), and strictly inside somewhere. Searched from them, the
    problems reach brute force's answers in no more nodes in all (a search
    may split another ReLU first and take more). Where the target is out of
    reach, tightening may stop at an infeasible LP and keep wider bounds,
    and both searches end Infeasible."""
    rng = np.random.default_rng(2800)
    narrower = searched = 0
    nodes = np.zeros(2, int)
    for _ in range(16):
        net = random_net(rng, n_in=3, hidden=(5, 5), n_out=3)
        problem = _targeted_problem(net, rng)
        seed = propagate_symbolic(net, problem.box)
        box_only = tighten_over_box(net, problem.box, seed, 5.0)
        with_rows, _ = root_relaxation(net, problem, tighten_timeout=5.0)
        exact = brute_force_optimize(net, problem)
        ours = optimize(net, problem, bounds=with_rows)
        theirs = optimize(net, problem, bounds=box_only)
        assert ours.status is theirs.status is exact.status
        nodes += (ours.stats.nodes_explored, theirs.stats.nodes_explored)
        if exact.status is Status.INFEASIBLE:
            continue
        assert ours.value == pytest.approx(exact.value, abs=1e-6)
        searched += 1
        for k in net.relu_layers:
            for side, inward in (("pre_lower", 1.0), ("pre_upper", -1.0)):
                shift = inward * (getattr(with_rows, side)[k] - getattr(box_only, side)[k])
                assert (shift >= -1e-12).all()
                narrower += int(np.count_nonzero(shift > 1e-6))
    assert narrower > 0 and searched >= 4 and nodes[0] <= nodes[1]


def test_an_unreachable_target_ends_tightening_at_its_first_lp():
    # No point of the box makes the smallest output exceed the largest by
    # 100, and no point of the relaxation either: the first tightening LP is
    # infeasible, tightening stops there, and the search ends Infeasible.
    rng = np.random.default_rng(2900)
    net = random_net(rng, n_in=3, hidden=(5, 5), n_out=3)
    problem = _targeted_problem(net, rng, margin=100.0)
    counters = {}
    root_relaxation(net, problem, tighten_timeout=5.0, counters=counters)
    assert counters["tighten_lps"] == 1
    result = optimize(net, problem, SearchConfig(tighten_timeout=5.0))
    assert result.status is Status.INFEASIBLE
    assert result.stats.extra["tighten_lps"] == 1
    assert brute_force_optimize(net, problem).status is Status.INFEASIBLE


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
    """A min-adversarial root LP at t = 0 prices no triangle row: its scores
    are all 0, and the gaps decide its split."""
    unknown = priced = 0
    for net, problem in _order_cases():
        bounds = propagate_interval(net, problem.box)
        relaxation = encode_relaxation(net, problem, bounds)
        root = phase_state(net, relaxation.phase)
        with LiveModel() as model:
            out = optimum_for_region(net, problem, root, bounds, -np.inf, relaxation, model)
            row_dual = model.row_duals()
            again = model.solve_phase(relaxation, root)  # nothing changed: the same point
        if out.status is RegionStatus.UNKNOWN:
            gaps = check_relu_consistency(relaxation, again.assignment)
            np.testing.assert_array_equal(out.gaps, gaps)
            np.testing.assert_array_equal(out.scores, split_scores(relaxation, gaps, row_dual))
            if out.scores.max() == 0.0:
                assert problem.use_t and out.lp_bound == 0.0
            priced += out.scores.max() > 0.0
            unknown += 1
        else:
            assert out.gaps is None and out.scores is None
    assert unknown >= 8 and priced >= 4


def test_outcome_without_gaps_splits_at_the_earliest_undetermined_relu():
    """An evaluator whose Unknown outcomes carry no gaps and no scores gets
    every node, each split at its earliest undetermined ReLU, and the search
    finds the same optimum."""
    for net, problem in _reuse_nets():
        bounds = propagate_interval(net, problem.box)
        split_at = []

        def evaluator(state, incumbent):
            out = optimum_for_region(net, problem, state, bounds, incumbent)
            if out.status is RegionStatus.UNKNOWN:
                split_at.append(int(np.flatnonzero(state == UNDETERMINED)[0]))
            return dataclasses.replace(out, gaps=None, scores=None)

        traced = []
        original = split

        def recording_split(phase, gaps=None, scores=None):
            assert gaps is None and scores is None
            i, active, inactive = original(phase, gaps, scores)
            traced.append(i)
            return i, active, inactive

        plain = optimize(net, problem, bounds=bounds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("reluopt.search.split", recording_split)
            stripped = optimize(net, problem, bounds=bounds, region_evaluator=evaluator)
        assert traced == split_at and traced
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
        assert first == fingerprint(net, phase_state(net, phases(bounds)))


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


def test_a_leaf_is_valued_and_rechecked_by_one_forward_pass(monkeypatch):
    # The argopt's max_violation is read from the output its leaf was valued
    # at: a search runs one forward pass per Optimal leaf and no other.
    import reluopt.model
    import reluopt.problems
    import reluopt.search

    rng = np.random.default_rng(17)
    net = random_net(rng, n_in=2, hidden=(6, 6), n_out=1)
    rows = (Row(np.array([1.0, 1.0]), None, 0.0, Relation.LE, 0.5),)
    problem = OptimizationProblem(box([-1.0, -1.0], [1.0, 1.0]), Objective(c_y=[1.0]), rows)
    passes = []
    original = reluopt.model.evaluate
    counted = lambda *args, **kw: passes.append(1) or original(*args, **kw)
    for module in (reluopt.model, reluopt.problems, reluopt.search):
        monkeypatch.setattr(module, "evaluate", counted, raising=False)
    sink = io.StringIO()
    result = optimize(net, problem, trace=sink)
    leaves = [json.loads(line)["status"] for line in sink.getvalue().splitlines()].count("optimal")
    assert result.status is Status.OPTIMAL and leaves > 0
    assert len(passes) == leaves
    assert result.stats.extra["max_violation"] == problem.violation(net, result.argopt)
    assert result.value == problem.objective_at(net, result.argopt)


# ---------------------------------------------------------------------------
# Witnesses on the gradient ray


def test_ray_witness_meets_every_row_on_the_clipped_gradient_ray():
    """On seeded random nets, a witness and its output meet every row, lie
    in the box on clip(x0 + t d) for d the sign of the rows' gradient at x0,
    and have t <= t_upper. A target the ray never reaches, an equality row
    and a problem without x0 give None."""
    rng = np.random.default_rng(5100)
    found = 0
    for _ in range(40):
        net = random_net(rng, n_in=3, hidden=(8, 8), n_out=2)
        problem = _min_adv_problem(net, rng)
        witness = ray_witness(net, problem)
        if witness is None:
            continue
        found += 1
        x, y = witness
        np.testing.assert_array_equal(y, evaluate(net, x))
        assert problem.violation(net, x, y) == 0.0
        t = problem.t_of(x)
        assert t <= problem.t_upper
        d = np.sign(gradient(net, problem.x0, np.array([-1.0, 1.0])))
        ray = np.clip(problem.x0 + t * d, problem.box.lower, problem.box.upper)
        np.testing.assert_allclose(x, ray, rtol=0.0, atol=1e-12)

        far = Row(None, np.array([-1.0, 1.0]), 0.0, Relation.GE, 1e6)
        assert ray_witness(net, dataclasses.replace(problem, rows=problem.rows + (far,))) is None
        equal = Row(None, np.array([-1.0, 1.0]), 0.0, Relation.EQ, float(y[1] - y[0]))
        assert ray_witness(net, dataclasses.replace(problem, rows=(equal,))) is None
        assert ray_witness(net, dataclasses.replace(problem, x0=None)) is None
    assert found >= 10


def test_a_min_perturbation_timeout_before_the_first_node_carries_the_witness():
    """A min-perturbation search whose budget ends before its first node is
    a Timeout whose value and argopt are the witness's."""
    rng = np.random.default_rng(5200)
    while (witness := ray_witness(net := random_net(rng, 3, (8, 8), 2),
                                  problem := _min_adv_problem(net, rng))) is None:
        pass
    x, y = witness
    result = optimize(net, problem, SearchConfig(timeout=1e-9))
    assert result.status is Status.TIMEOUT and result.stats.nodes_explored == 0
    assert result.value == result.stats.extra["witness"] == problem.objective_at(net, x, y)
    np.testing.assert_array_equal(result.argopt, x)
    assert result.stats.extra["max_violation"] == 0.0


def test_a_witness_narrows_the_search_but_not_its_answer():
    """A min-adversarial search that computes its own bounds starts from the
    witness and searches the ball it leaves; given bounds it starts from no
    witness. Both reach the same status and optimum, no worse than the witness."""
    rng = np.random.default_rng(5300)
    used = 0
    for _ in range(12):
        net = random_net(rng, n_in=3, hidden=(8, 8), n_out=2)
        problem = _min_adv_problem(net, rng)
        narrowed = optimize(net, problem)
        whole = optimize(net, problem, bounds=root_relaxation(net, problem)[0])
        assert narrowed.status is whole.status
        if whole.status is Status.OPTIMAL:
            assert narrowed.value == pytest.approx(whole.value, abs=1e-9)
        assert whole.stats.extra["witness"] is None
        witness = narrowed.stats.extra["witness"]
        assert witness is None or narrowed.value >= witness
        used += witness is not None
    assert used >= 4
