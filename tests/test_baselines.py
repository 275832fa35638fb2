import numpy as np
import pytest

from reluopt import (
    BisectionConfig,
    Objective,
    OptimizationProblem,
    Relation,
    Row,
    Status,
    TooLarge,
    UnboundedNode,
    bisection_optimize,
    brute_force_optimize,
    export_milp,
    fgsm,
    milp_to_lp,
    optimize,
    pgd,
    propagate_interval,
    propagate_symbolic,
    solve_lp,
    verify_decision,
)
from reluopt.geometry import linf_epigraph
from reluopt.lp import LPStatus
from reluopt.model import evaluate

from conftest import (
    box,
    output_max_problem,
    random_net,
    random_suite_net,
    read_lp_with_highs,
    sample_max,
)


# ---------------------------------------------------------------------------
# Brute force


def test_brute_force_known_values(abs_net, hat_net):
    r = brute_force_optimize(abs_net, output_max_problem(abs_net, [1.0], [-2.0], [3.0]))
    assert r.status is Status.OPTIMAL
    assert r.value == pytest.approx(3.0, abs=1e-8)
    r = brute_force_optimize(hat_net, output_max_problem(hat_net, [1.0], [-2.0], [4.0]))
    assert r.value == pytest.approx(1.0, abs=1e-8)


def test_brute_force_size_guard():
    rng = np.random.default_rng(2)
    net = random_net(rng, n_in=2, hidden=(15, 15), n_out=1, weight_scale=3.0)
    with pytest.raises(TooLarge):
        brute_force_optimize(net, output_max_problem(net, [1.0], [-9.0, -9.0], [9.0, 9.0]))


def test_brute_force_matches_search():
    rng = np.random.default_rng(91)
    for _ in range(10):
        net = random_suite_net(rng)
        lo = -np.ones(net.input_dim)
        c = rng.normal(size=net.output_dim)
        problem = output_max_problem(net, c, lo, -lo)
        exact = optimize(net, problem)
        brute = brute_force_optimize(net, problem)
        assert exact.status is brute.status is Status.OPTIMAL
        assert exact.value == pytest.approx(brute.value, abs=1e-5)


# ---------------------------------------------------------------------------
# Bisection


def test_bisection_output_max(abs_net):
    r = bisection_optimize(abs_net, output_max_problem(abs_net, [1.0], [-2.0], [3.0]))
    assert r.status is Status.OPTIMAL
    assert r.value == pytest.approx(3.0, abs=2e-4)
    assert evaluate(abs_net, r.argopt)[0] == pytest.approx(r.value, abs=1e-6)


def test_bisection_min_adversarial(abs_net):
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
    r = bisection_optimize(abs_net, problem)
    assert r.status is Status.OPTIMAL
    assert r.value == pytest.approx(-2.0, abs=2e-4)


def test_bisection_infeasible(abs_net):
    rows = tuple(linf_epigraph(np.array([0.0]))) + (
        Row(None, np.array([1.0]), 0.0, Relation.GE, 10.0),  # |x| >= 10 unreachable
    )
    problem = OptimizationProblem(
        box=box([-3.0], [3.0]),
        objective=Objective(c_t=-1.0),
        rows=rows,
        t_upper=3.0,
        x0=np.array([0.0]),
    )
    r = bisection_optimize(abs_net, problem)
    assert r.status is Status.INFEASIBLE
    assert r.value is None


def test_bisection_agrees_with_search():
    rng = np.random.default_rng(101)
    for _ in range(6):
        net = random_suite_net(rng)
        lo = -np.ones(net.input_dim)
        c = rng.normal(size=net.output_dim)
        problem = output_max_problem(net, c, lo, -lo)
        exact = optimize(net, problem)
        approx = bisection_optimize(net, problem)
        assert approx.status is Status.OPTIMAL
        assert approx.value == pytest.approx(exact.value, abs=2e-4)


@pytest.mark.parametrize("tighten_timeout", [0.0, 5.0])
def test_bisection_equals_search_within_the_gap_on_equal_root_bounds(tighten_timeout):
    # Both search from root_bounds: symbolic bounds, then (with a tightening
    # timeout) phase-aware LP tightening.
    rng = np.random.default_rng(131)
    cfg = BisectionConfig(gap=1e-4, tighten_timeout=tighten_timeout)
    for _ in range(3):
        net = random_net(rng, n_in=3, hidden=(6, 5), n_out=2)
        lo = rng.uniform(-1.0, 0.5, 3)
        problem = output_max_problem(net, rng.normal(size=2), lo, lo + 0.5)
        exact = optimize(net, problem)
        approx = bisection_optimize(net, problem, cfg)
        assert approx.status is exact.status is Status.OPTIMAL
        assert exact.value - cfg.gap - 1e-6 <= approx.value <= exact.value + 1e-6
        assert approx.value == pytest.approx(problem.objective_at(net, approx.argopt))


@pytest.mark.parametrize(
    "hidden, tighten_timeout",
    [
        ((12, 12), 0.0),  # about 3 s of decision calls when run to the gap
        ((50, 50, 50, 50), 5.0),  # unbudgeted, tightening alone takes ~9 s
    ],
)
def test_bisection_timeout_is_a_budget_for_the_whole_run(hidden, tighten_timeout):
    import time

    rng = np.random.default_rng(3)
    net = random_net(rng, n_in=3, hidden=hidden, n_out=2)
    problem = output_max_problem(net, np.array([1.0, -1.0]), -np.ones(3), np.ones(3))
    cfg = BisectionConfig(gap=1e-6, timeout=0.3, tighten_timeout=tighten_timeout)
    start = time.monotonic()
    r = bisection_optimize(net, problem, cfg)
    assert time.monotonic() - start < cfg.timeout + 1.0
    assert r.status is Status.TIMEOUT
    lo, hi = r.stats.extra["bracket"]
    assert lo <= hi
    if r.argopt is not None:  # the incumbent is reported with its value
        assert r.value == pytest.approx(problem.objective_at(net, r.argopt))


def test_bisection_stops_when_a_witness_cannot_raise_the_bracket():
    # With a gap below the LP tolerances, a decision at mid succeeds with a
    # witness whose true value is below mid, so the bracket cannot move.
    rng = np.random.default_rng(3)
    net = random_net(rng, n_in=3, hidden=(8, 8), n_out=2)
    problem = output_max_problem(net, np.array([1.0, -1.0]), -np.ones(3), np.ones(3))
    exact = optimize(net, problem)
    cfg = BisectionConfig(gap=1e-9, timeout=30.0)
    r = bisection_optimize(net, problem, cfg)
    assert r.status is Status.OPTIMAL
    assert r.value == pytest.approx(exact.value, abs=1e-5)
    assert r.value == pytest.approx(problem.objective_at(net, r.argopt))
    lo, hi = r.stats.extra["bracket"]
    assert lo <= exact.value + 1e-5 and exact.value - 1e-5 <= hi


@pytest.mark.parametrize("threshold", [2.999975, 2.99995])
def test_bisection_finds_a_minimum_perturbation_within_the_gap_of_t_upper(abs_net, threshold):
    # The least |x| with |x| >= threshold lies within the gap of t_upper = 3.
    rows = tuple(linf_epigraph(np.array([0.0]))) + (
        Row(None, np.array([1.0]), 0.0, Relation.GE, threshold),
    )
    problem = OptimizationProblem(
        box=box([-3.0], [3.0]),
        objective=Objective(c_t=-1.0),
        rows=rows,
        t_upper=3.0,
        x0=np.array([0.0]),
    )
    cfg = BisectionConfig(gap=1e-4)
    exact = optimize(abs_net, problem)
    r = bisection_optimize(abs_net, problem, cfg)
    assert exact.status is r.status is Status.OPTIMAL
    assert exact.value - cfg.gap - 1e-6 <= r.value <= exact.value + 1e-6


def test_bisection_rejects_a_root_lp_without_a_finite_maximum(abs_net):
    # Maximizing t with no t_upper: every feasible value is unbounded above.
    problem = OptimizationProblem(
        box=box([-1.0], [1.0]),
        objective=Objective(c_t=1.0),
        rows=tuple(linf_epigraph(np.array([0.0]))),
        x0=np.array([0.0]),
    )
    with pytest.raises(ValueError, match="finite maximum"):
        bisection_optimize(abs_net, problem)


@pytest.mark.parametrize(
    "seed, radius, status",
    [
        (2, 0.4, Status.OPTIMAL),
        (3, 0.35, Status.OPTIMAL),
        (2, 0.3, Status.INFEASIBLE),  # 95 nodes decide it
        (3, 0.3, Status.INFEASIBLE),
    ],
)
def test_bisection_equals_search_on_min_adversarial_problems(monkeypatch, seed, radius, status):
    """Feasible: the same status and the value within the gap. Infeasible:
    decided by the one feasibility search over the rows."""
    import reluopt.baselines as baselines

    rng = np.random.default_rng(seed)
    net = random_net(rng, n_in=3, hidden=(6, 5), n_out=2)
    x0 = rng.uniform(-0.5, 0.5, 3)
    true = int(np.argmax(evaluate(net, x0)))
    target = np.zeros(2)
    target[1 - true], target[true] = 1.0, -1.0
    rows = tuple(linf_epigraph(x0)) + (Row(None, target, 0.0, Relation.GE, 0.0),)
    problem = OptimizationProblem(box(x0 - radius, x0 + radius), Objective(c_t=-1.0), rows, radius, x0)
    exact = optimize(net, problem)
    searches = []
    monkeypatch.setattr(
        baselines, "optimize", lambda *args, **kw: searches.append(1) or optimize(*args, **kw)
    )
    cfg = BisectionConfig(gap=1e-4)
    r = bisection_optimize(net, problem, cfg)
    assert exact.status is r.status is status
    if status is Status.OPTIMAL:
        assert exact.value - cfg.gap - 1e-6 <= r.value <= exact.value + 1e-6
        assert r.value == pytest.approx(problem.objective_at(net, r.argopt))
    else:
        assert len(searches) == 1 and r.value is None and r.argopt is None


@pytest.mark.parametrize(
    "setting",
    [
        {"gap": float("nan")},
        {"timeout": 0.0},
        {"timeout": float("nan")},
        {"tighten_timeout": -1.0},
        {"tighten_timeout": float("nan")},
    ],
)
def test_bisection_config_rejects_a_nan_or_out_of_range_setting(setting):
    with pytest.raises(ValueError):
        BisectionConfig(**setting)


def test_bisection_rejects_bad_gap():
    with pytest.raises(ValueError):
        BisectionConfig(gap=0.0)


# ---------------------------------------------------------------------------
# Decision procedure


def test_verify_decision(abs_net):
    b = box([-1.0], [1.0])
    # |x| <= 1.5 on the box: holds (strictly, so the closed complement of the
    # threshold row is unreachable)
    d = verify_decision(
        abs_net, b, (), Row(None, np.array([1.0]), 0.0, Relation.LE, 1.5)
    )
    assert d.holds and d.witness is None
    # |x| <= 0.5 on the box: fails with a witness
    d = verify_decision(
        abs_net, b, (), Row(None, np.array([1.0]), 0.0, Relation.LE, 0.5)
    )
    assert not d.holds
    assert abs(evaluate(abs_net, d.witness)[0]) >= 0.5 - 1e-6


def test_a_witness_found_as_the_budget_ends_still_decides(abs_net, monkeypatch):
    """A decision search whose budget runs out right after it finds its
    witness returns Timeout with that witness, and both callers take it as
    a witness."""
    import time
    from dataclasses import replace

    import reluopt.baselines as baselines
    from reluopt import RegionOutcome, RegionStatus, SearchConfig

    witness = np.array([0.75])

    def evaluator(phase, incumbent):
        if not phase.any():  # the root: split it
            # Its bound is above the witness's value 0, so the witness does
            # not beat the sibling: the budget, not the incumbent, ends the search.
            return RegionOutcome(RegionStatus.UNKNOWN, lp_bound=1.0)
        time.sleep(0.3)  # the budget ends as the witness is found
        return RegionOutcome(RegionStatus.OPTIMAL, lp_bound=0.0, value=0.0, assignment=witness)

    search = baselines.optimize

    def scripted(net, problem, config, bounds=None):
        config = replace(config, timeout=0.2)
        return search(net, problem, config, bounds=bounds, region_evaluator=evaluator)

    b = box([-1.0], [1.0])
    result = scripted(abs_net, OptimizationProblem(b, Objective()), SearchConfig())
    assert result.status is Status.TIMEOUT and result.argopt is witness

    monkeypatch.setattr(baselines, "optimize", scripted)
    d = verify_decision(abs_net, b, (), Row(None, np.array([1.0]), 0.0, Relation.LE, 0.5))
    assert not d.holds and d.witness is witness
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    r = bisection_optimize(abs_net, problem, BisectionConfig(gap=0.5))
    assert r.status is Status.OPTIMAL and r.argopt is witness and r.value == 0.75


def test_an_undecided_search_counts_in_the_bisection_stats(abs_net, monkeypatch):
    """A decision search that the budget stops without a witness leaves the
    bisection Timeout with its nodes and LPs summed in, and makes
    verify_decision raise Timeout."""
    import reluopt.baselines as baselines
    from reluopt import SearchResult, SearchStats, Timeout

    witness = np.array([0.0])
    calls = []

    def scripted(net, problem, config, bounds=None):
        calls.append(problem)
        if len(calls) == 1:  # the feasibility search finds a witness
            stats = SearchStats(nodes_explored=3, lps_solved=2)
            return SearchResult(Status.OPTIMAL, value=0.0, argopt=witness, stats=stats)
        stats = SearchStats(nodes_explored=7, lps_solved=5)  # then the budget ends
        return SearchResult(Status.TIMEOUT, stats=stats)

    monkeypatch.setattr(baselines, "optimize", scripted)
    problem = output_max_problem(abs_net, [1.0], [-1.0], [1.0])
    r = bisection_optimize(abs_net, problem)
    assert len(calls) == 2
    assert r.status is Status.TIMEOUT and r.argopt is witness and r.value == 0.0
    assert (r.stats.nodes_explored, r.stats.lps_solved) == (3 + 7, 2 + 5)
    assert r.stats.extra["bracket"] == (0.0, pytest.approx(1.0))
    with pytest.raises(Timeout):
        row = Row(None, np.array([1.0]), 0.0, Relation.LE, 0.5)
        verify_decision(abs_net, box([-1.0], [1.0]), (), row)


# ---------------------------------------------------------------------------
# Attacks


def test_attacks_are_feasible_lower_bounds():
    rng = np.random.default_rng(111)
    for _ in range(10):
        net = random_net(rng, n_in=2, hidden=(6,), n_out=1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        c = np.array([1.0])
        problem = output_max_problem(net, c, b.lower, b.upper)
        exact = optimize(net, problem)
        for attack in (fgsm, pgd):
            x, v = attack(net, b.center, c, b)
            assert np.all(x >= b.lower - 1e-12) and np.all(x <= b.upper + 1e-12)
            assert v == pytest.approx(float(c @ evaluate(net, x)), abs=1e-9)
            assert v <= exact.value + 1e-6


def test_pgd_never_worse_than_start(hat_net):
    b = box([-2.0], [4.0])
    c = np.array([1.0])
    for x0 in (-1.5, 0.3, 2.0):
        start = float(c @ evaluate(hat_net, [x0]))
        _, v = pgd(hat_net, [x0], c, b, steps=100)
        assert v >= start - 1e-12


def test_pgd_beats_fgsm_on_hat(hat_net):
    # From x0 = 3 one signed step of the full radius overshoots the peak
    # entirely (fgsm lands at 0), while the 1/10-radius pgd steps climb it.
    b = box([-2.0], [4.0])
    c = np.array([1.0])
    _, v_fgsm = fgsm(hat_net, [3.0], c, b)
    _, v_pgd = pgd(hat_net, [3.0], c, b)
    assert v_pgd > v_fgsm + 0.5
    assert v_pgd >= 0.85  # within one step size of the peak value 1


# ---------------------------------------------------------------------------
# MILP export


def _milp_setup(net, problem):
    bounds = propagate_interval(net, problem.box)
    model, text = export_milp(net, problem, bounds)
    return bounds, model, text


def test_milp_text_round_trips(abs_net):
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    _, model, text = _milp_setup(abs_net, problem)
    read = read_lp_with_highs(text, model.names)
    lp = model.lp
    assert read.maximize == lp.maximize
    assert read.cost == pytest.approx(lp.objective)
    assert read.row_names == [f"c{i}" for i in range(len(lp.rows))]
    assert read.row_lower == pytest.approx(lp.row_lower)
    assert read.row_upper == pytest.approx(lp.row_upper)
    assert read.matrix == pytest.approx(lp.matrix.toarray())
    assert set(np.array(read.names)[read.integer]) == set(model.binaries())
    continuous = ~model.binary
    assert read.lower[continuous] == pytest.approx(lp.lower[continuous])
    assert read.upper[continuous] == pytest.approx(lp.upper[continuous])


@pytest.mark.parametrize("family", ["acas_out", "acas_in", "taxi_out", "mnist_in"])
def test_highs_reads_the_exported_milp(family, tmp_path):
    """HiGHS's own LP-file reader loads the written text to exactly the
    arrays of `milp_to_lp(model)`, under interval and symbolic big-M
    constants, its columns matched by name."""
    from reluopt.cli import canonicalize, generate_queries, load_problem
    from reluopt.model import load_nnet

    (path,) = generate_queries(family, seed=2, count=1, scale=16, out_dir=str(tmp_path))
    spec = load_problem(path)
    net = load_nnet(spec.network_path())
    (problem,) = canonicalize(spec, net).subproblems
    for propagate in (propagate_interval, propagate_symbolic):
        model, text = export_milp(net, problem, propagate(net, problem.box))
        lp, index = milp_to_lp(model)
        assert list(index) == list(model.names)
        read = read_lp_with_highs(text, model.names)
        assert read.maximize == lp.maximize
        np.testing.assert_array_equal(read.matrix, lp.matrix.toarray())
        np.testing.assert_array_equal(read.row_lower, lp.row_lower)
        np.testing.assert_array_equal(read.row_upper, lp.row_upper)
        np.testing.assert_array_equal(read.lower, lp.lower)
        np.testing.assert_array_equal(read.upper, lp.upper)
        np.testing.assert_array_equal(read.cost, lp.objective)
        np.testing.assert_array_equal(read.integer, model.binary)
        assert model.binary.any()


def test_milp_binary_enumeration_matches_exact_optimum():
    rng = np.random.default_rng(121)
    for _ in range(5):
        net = random_net(rng, n_in=2, hidden=(4,), n_out=1)
        problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
        _, model, _ = _milp_setup(net, problem)
        binaries = model.binaries()
        assert len(binaries) <= 6
        best = -np.inf
        import itertools

        for assignment in itertools.product((0.0, 1.0), repeat=len(binaries)):
            lp, _ = milp_to_lp(model, dict(zip(binaries, assignment)))
            res = solve_lp(lp)
            if res.status == LPStatus.OPTIMAL:
                best = max(best, res.value)
        exact = optimize(net, problem)
        assert best == pytest.approx(exact.value, abs=1e-5)


def test_milp_relaxation_upper_bounds_exact():
    rng = np.random.default_rng(131)
    net = random_net(rng, n_in=2, hidden=(5,), n_out=1)
    problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
    _, model, _ = _milp_setup(net, problem)
    lp, _ = milp_to_lp(model)
    res = solve_lp(lp)
    exact = optimize(net, problem)
    assert res.status == LPStatus.OPTIMAL
    assert res.value >= exact.value - 1e-7


def test_milp_true_pattern_is_feasible(abs_net):
    # Embed the forward pass at a sample point and check model.feasible.
    problem = output_max_problem(abs_net, [1.0], [-2.0], [3.0])
    _, model, _ = _milp_setup(abs_net, problem)
    from reluopt.model import forward_trace

    x = 1.7
    trace = forward_trace(abs_net, [x])
    values = {"x0": x}
    for k in range(len(abs_net.layers)):
        for j in range(abs_net.layers[k].out_width):
            values[f"zhat_{k}_{j}"] = float(trace.pre[k][j])
            values[f"z_{k}_{j}"] = float(trace.post[k][j])
    for name in model.binaries():
        k, j = map(int, name.split("_")[1:])
        values[name] = 1.0 if trace.pre[k][j] >= 0 else 0.0
    assert model.feasible(np.array([values[name] for name in model.names]), tol=1e-9)


def test_milp_unbounded_node_raises():
    from reluopt import Activation, Layer, Network
    from reluopt.bounds import BoundsMap

    net = Network(
        (
            Layer(np.array([[1.0]]), np.zeros(1), Activation.RELU),
            Layer(np.array([[1.0]]), np.zeros(1), Activation.IDENTITY),
        )
    )
    problem = output_max_problem(net, [1.0], [-1.0], [1.0])
    bounds = propagate_interval(net, problem.box)
    loose = BoundsMap(
        input_lower=bounds.input_lower,
        input_upper=bounds.input_upper,
        pre_lower=(np.array([-np.inf]), bounds.pre_lower[1]),
        pre_upper=(np.array([np.inf]), bounds.pre_upper[1]),
        post_lower=bounds.post_lower,
        post_upper=bounds.post_upper,
        relu_layers=bounds.relu_layers,
    )
    with pytest.raises(UnboundedNode):
        export_milp(net, problem, loose)


def _milp_optimum(model):
    """Status and optimum of a MILP model by HiGHS MIP (scipy.optimize.milp)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    lp, index = milp_to_lp(model)
    integrality = np.zeros(lp.n_vars)
    integrality[[index[name] for name in model.binaries()]] = 1
    res = milp(
        -lp.objective,
        integrality=integrality,
        bounds=Bounds(lp.lower, lp.upper),
        constraints=LinearConstraint(lp.matrix, lp.row_lower, lp.row_upper),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status in (0, 2), res.message
    return ("optimal", float(lp.objective @ res.x)) if res.status == 0 else ("infeasible", None)


def test_milp_under_symbolic_bounds_has_the_interval_optimum():
    rng = np.random.default_rng(151)
    fewer = 0
    for _ in range(4):
        net = random_net(rng, n_in=3, hidden=(8, 6), n_out=2)
        x0 = rng.uniform(-0.5, 0.5, 3)
        rows = tuple(linf_epigraph(x0)) + (Row(None, np.array([-1.0, 1.0]), 0.0, Relation.GE, 0.0),)
        problems = (
            output_max_problem(net, rng.normal(size=2), x0 - 0.3, x0 + 0.3),
            OptimizationProblem(box(x0 - 0.5, x0 + 0.5), Objective(c_t=-1.0), rows, 0.5, x0),
        )
        for problem in problems:
            loose, _ = export_milp(net, problem, propagate_interval(net, problem.box))
            tight, _ = export_milp(net, problem, propagate_symbolic(net, problem.box))
            assert len(tight.binaries()) <= len(loose.binaries())
            fewer += len(tight.binaries()) < len(loose.binaries())
            status, value = _milp_optimum(tight)
            assert status == _milp_optimum(loose)[0]
            if status == "optimal":
                assert value == pytest.approx(_milp_optimum(loose)[1], abs=1e-6)
                assert value == pytest.approx(optimize(net, problem).value, abs=1e-5)
    assert fewer > 0
