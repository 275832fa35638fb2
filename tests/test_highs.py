"""The live HiGHS model against cold solves of the same LPs in fresh models."""

import numpy as np
import pytest

from reluopt import (
    LPStatus,
    NumericalFailure,
    Objective,
    OptimizationProblem,
    Relation,
    Row,
    build_relaxed_lp,
    propagate_interval,
    propagate_symbolic,
    solve_lp,
)
from reluopt import highs
from reluopt.geometry import linf_epigraph
from reluopt.lp import encode_relaxation
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, phase_state

from conftest import box, random_net


def _random_problem(rng, min_adv: bool):
    n_in = int(rng.integers(2, 4))
    hidden = (int(rng.integers(3, 6)), int(rng.integers(2, 5)))
    net = random_net(rng, n_in=n_in, hidden=hidden, n_out=2)
    center = rng.uniform(-1.0, 1.0, n_in)
    radius = rng.uniform(0.2, 1.5, n_in)
    b = box(center - radius, center + radius)
    if not min_adv:
        return net, OptimizationProblem(b, Objective(c_y=rng.normal(size=2)))
    # maximize -t with t >= |x - x0|_inf and a target row on the outputs
    target = Row(None, np.array([1.0, -1.0]), 0.0, Relation.GE, float(rng.normal(scale=0.5)))
    rows = tuple(linf_epigraph(center)) + (target,)
    return net, OptimizationProblem(b, Objective(c_t=-1.0), rows, float(radius.max()))


def _relaxation(net, problem):
    return encode_relaxation(net, problem, propagate_interval(net, problem.box))


def _random_state(rng, net):
    u = rng.random(net.num_relu_nodes)
    return phase_state(net, np.where(u < 0.3, ACTIVE, np.where(u < 0.6, INACTIVE, UNDETERMINED)))


def _root(net):
    return phase_state(net, np.zeros(net.num_relu_nodes))


def test_live_model_matches_cold_solves():
    """One live model re-solves a random sequence of partial states, with
    objective and sense changes mixed in, syncing only what differs; every
    answer matches a cold solve of the same LinearProgram in a fresh model."""
    rng = np.random.default_rng(20240)
    compared = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 0}
    for trial in range(16):
        net, problem = _random_problem(rng, min_adv=trial % 2 == 1)
        relaxation = _relaxation(net, problem)
        model = highs.LiveModel()
        for step in range(30):
            lp = build_relaxed_lp(relaxation, _random_state(rng, net))
            if step % 5 == 4:  # as bound tightening does: a new cost and sense
                lp = lp.with_objective(rng.normal(size=lp.n_vars), maximize=bool(rng.random() < 0.5))
            live = solve_lp(lp, model=model)
            cold = solve_lp(lp)
            assert live.status == cold.status
            if cold.status == LPStatus.OPTIMAL:
                assert live.value == pytest.approx(cold.value, abs=1e-7 * max(1.0, abs(cold.value)))
            compared[cold.status] = compared.get(cold.status, 0) + 1
    assert compared[LPStatus.OPTIMAL] >= 100 and compared[LPStatus.INFEASIBLE] >= 50


def test_node_lps_of_one_problem_load_the_model_once(monkeypatch):
    rng = np.random.default_rng(7)
    net, problem = _random_problem(rng, min_adv=True)
    relaxation = _relaxation(net, problem)
    loads = []
    load = highs.LiveModel._load
    monkeypatch.setattr(highs.LiveModel, "_load", lambda self, lp: (loads.append(lp), load(self, lp)))
    model = highs.LiveModel()
    for _ in range(10):
        lp = build_relaxed_lp(relaxation, _random_state(rng, net))
        solve_lp(lp, model=model)
    assert len(loads) == 1
    # an LP with other rows is loaded afresh
    other = build_relaxed_lp(_relaxation(net, problem), _root(net))
    solve_lp(other, model=model)
    assert len(loads) == 2


def test_undecided_status_gets_one_cold_resolve(monkeypatch):
    rng = np.random.default_rng(11)
    net, problem = _random_problem(rng, min_adv=False)
    lp = build_relaxed_lp(_relaxation(net, problem), _root(net))
    reference = solve_lp(lp).status
    undecided = highs._core.HighsModelStatus.kUnboundedOrInfeasible
    run = highs.LiveModel._run
    calls = []

    def flaky(self, stop_at, fail_times):
        calls.append(stop_at)
        if len(calls) <= fail_times:
            return undecided, 0
        return run(self, stop_at)

    monkeypatch.setattr(highs.LiveModel, "_run", lambda self, stop_at: flaky(self, stop_at, 1))
    assert solve_lp(lp, time_limit=30.0).status == reference
    assert len(calls) == 2
    assert calls[0] == calls[1]  # the cold re-solve shares the first solve's time limit

    calls.clear()
    monkeypatch.setattr(highs.LiveModel, "_run", lambda self, stop_at: flaky(self, stop_at, 2))
    with pytest.raises(NumericalFailure):
        solve_lp(lp)
    assert len(calls) == 2


def test_phase_sync_along_random_walks_matches_cold_solves():
    """One live model follows random walks of phase vectors: each step sets
    a few ReLUs to a random phase, undetermined included, so ReLUs return to
    undetermined, and now and then it also moves ReLUs the root bounds fix.
    Every `solve_phase` answer matches a cold solve of `build_relaxed_lp`'s
    LP for the same phases."""
    rng = np.random.default_rng(31337)
    compared = {LPStatus.OPTIMAL: 0, LPStatus.INFEASIBLE: 0}
    returned = 0
    for trial in range(16):
        net, problem = _random_problem(rng, min_adv=trial % 2 == 1)
        propagate = propagate_symbolic if trial % 4 < 2 else propagate_interval
        relaxation = encode_relaxation(net, problem, propagate(net, problem.box))
        open_ = np.flatnonzero(relaxation.phase == UNDETERMINED)
        model, phase = highs.LiveModel(), relaxation.phase.copy()
        for step in range(25):
            pool = np.arange(net.num_relu_nodes) if step % 6 == 5 or not open_.size else open_
            picked = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 4))), replace=False)
            before = phase[picked].copy()
            phase[picked] = rng.integers(-1, 2, size=len(picked))
            back = (before != UNDETERMINED) & (phase[picked] == UNDETERMINED)
            returned += int(np.count_nonzero(back))
            live = model.solve_phase(relaxation, phase)
            cold = solve_lp(build_relaxed_lp(relaxation, phase_state(net, phase)))
            assert live.status == cold.status
            if cold.status == LPStatus.OPTIMAL:
                assert live.value == pytest.approx(cold.value, abs=1e-7 * max(1.0, abs(cold.value)))
            compared[cold.status] = compared.get(cold.status, 0) + 1
    assert compared[LPStatus.OPTIMAL] >= 100 and compared[LPStatus.INFEASIBLE] >= 50
    assert returned >= 50


def test_phase_sync_changes_only_the_relus_whose_phase_changed(monkeypatch):
    """After its first solve, a live model changes the bounds of the ReLUs
    whose phase changed and nothing else, and reloads only for another
    relaxation."""
    rng = np.random.default_rng(5)
    net, problem = _random_problem(rng, min_adv=True)
    relaxation = _relaxation(net, problem)
    i = int(np.flatnonzero(relaxation.phase == UNDETERMINED)[0])
    model = highs.LiveModel()
    model.solve_phase(relaxation, relaxation.phase)
    calls = []

    def record(name):
        original = getattr(highs._core._Highs, name)
        return lambda instance, *args: (calls.append((name, args)), original(instance, *args))[1]

    for name in ("changeColsBounds", "changeRowBounds"):
        monkeypatch.setattr(highs._core._Highs, name, record(name))
    monkeypatch.setattr(highs.LiveModel, "_load", lambda self, lp: calls.append(("_load", lp)))

    phase = relaxation.phase.copy()
    phase[i] = INACTIVE  # zhat <= 0 and z <= 0: one call for both columns
    model.solve_phase(relaxation, phase)
    assert [name for name, _ in calls] == ["changeColsBounds"]
    _, columns, _, upper = calls[0][1]
    assert sorted(columns) == sorted([relaxation.zhat[i], relaxation.z[i]]) and upper == [0.0, 0.0]

    calls.clear()
    model.solve_phase(relaxation, phase)  # nothing changed
    assert calls == []

    phase[i] = ACTIVE  # the link row becomes z - zhat = 0, then both columns change
    model.solve_phase(relaxation, phase)
    assert [name for name, _ in calls] == ["changeRowBounds", "changeColsBounds"]
    assert calls[0][1][0] == relaxation.link[i] and calls[0][1][2] == 0.0

    calls.clear()
    model.solve_phase(_relaxation(net, problem), phase)
    assert calls[0][0] == "_load"


def test_released_instance_is_reused_with_its_options_reset():
    model = highs.LiveModel()
    instance = model._highs
    default = highs._core._Highs().getOptionValue("simplex_iteration_limit")
    instance.setOptionValue("simplex_iteration_limit", 0)
    model.release()
    model.release()  # a second release gives nothing back
    assert model._highs is None
    assert highs._FREE.count(instance) == 1
    again = highs.LiveModel()
    assert again._highs is instance
    assert instance.getOptionValue("simplex_iteration_limit") == default
    assert [instance.getOptionValue(name)[1] for name, _ in highs.OPTIONS] == [
        value for _, value in highs.OPTIONS
    ]


def test_solves_give_back_every_instance_they_take(monkeypatch):
    """Brute force (a cold `solve_lp` per leaf), bisection (a cold root LP
    between searches), a search that tightens its bounds first, and a search
    whose node LP raises each build at most one HiGHS instance and leave it
    on the free list. Tightening that needs no LP builds none."""
    from reluopt import (
        BisectionConfig,
        SearchConfig,
        bisection_optimize,
        brute_force_optimize,
        optimize,
        phases,
        root_bounds,
    )

    from conftest import output_max_problem

    net = random_net(np.random.default_rng(3), n_in=2, hidden=(8,), n_out=1)
    problem = output_max_problem(net, [1.0], [-1.0, -1.0], [1.0, 1.0])
    assert np.count_nonzero(phases(propagate_interval(net, problem.box)) == UNDETERMINED) >= 6
    # Tightening solves LPs only for an open ReLU behind an open ReLU.
    deep = random_net(np.random.default_rng(3), n_in=2, hidden=(6, 6), n_out=1)
    deep_problem = output_max_problem(deep, [1.0], [-1.0, -1.0], [1.0, 1.0])
    built = []
    make = highs._core._Highs
    monkeypatch.setattr(highs._core, "_Highs", lambda: built.append(1) or make())

    def failing(phase, incumbent):
        raise NumericalFailure("a node LP failed")

    def failed_search():
        with pytest.raises(NumericalFailure):
            optimize(net, problem, region_evaluator=failing)

    results = []
    for solve in (
        lambda: results.append(brute_force_optimize(net, problem)),
        lambda: results.append(bisection_optimize(net, problem, BisectionConfig(gap=1e-3))),
        lambda: results.append(optimize(net, problem, SearchConfig(tighten_timeout=1.0))),
        lambda: results.append(optimize(deep, deep_problem, SearchConfig(tighten_timeout=1.0))),
        failed_search,
    ):
        monkeypatch.setattr(highs, "_FREE", [])
        built.clear()
        solve()
        assert len(built) == len(highs._FREE) == 1
    brute, bisection, tightened, deep_tightened = results
    assert deep_tightened.stats.extra["tighten_lps"] > 0
    assert bisection.value == pytest.approx(brute.value, abs=1e-3)
    assert tightened.value == pytest.approx(brute.value, abs=1e-6)
    deep_brute = brute_force_optimize(deep, deep_problem)
    assert deep_tightened.value == pytest.approx(deep_brute.value, abs=1e-6)

    # One hidden layer: every open ReLU gets its range in closed form.
    monkeypatch.setattr(highs, "_FREE", [])
    built.clear()
    counters = {}
    root_bounds(net, problem.box, tighten_timeout=1.0, counters=counters)
    assert counters["tighten_lps"] == 0 and counters["tighten_exact"] > 0
    assert built == highs._FREE == []
