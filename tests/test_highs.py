"""The live HiGHS model against cold solves of the same LPs in fresh models."""

import dataclasses

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
from reluopt.model import forward_trace
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, phase_state

from conftest import box, fd_gradient, random_net


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


def _suite_problems():
    """16 problems on 2x16 nets with 5 inputs and outputs, half of each
    query kind, under back-substitution bounds."""
    rng = np.random.default_rng(216)
    problems = []
    for trial in range(16):
        net = random_net(rng, n_in=5, hidden=(16, 16), n_out=5)
        center = rng.uniform(-1.0, 1.0, 5)
        radius = 0.5
        b = box(center - radius, center + radius)
        if trial % 2:
            target = Row(None, np.eye(5)[0] - np.eye(5)[1], 0.0, Relation.GE, 0.0)
            rows = tuple(linf_epigraph(center)) + (target,)
            problem = OptimizationProblem(b, Objective(c_t=-1.0), rows, radius)
        else:
            problem = OptimizationProblem(b, Objective(c_y=rng.normal(size=5)))
        problems.append((net, problem, encode_relaxation(net, problem, propagate_symbolic(net, b))))
    return problems


def test_starting_basis_is_accepted_and_needs_few_iterations():
    """The root LP's starting basis has one basic variable per row, HiGHS
    takes it as given, and the first solve from it reaches the optimum of a
    cold solve from the slack basis in at most half the simplex iterations,
    summed over the problems."""
    warm_iterations = cold_iterations = 0
    for _, _, relaxation in _suite_problems():
        lp = relaxation.lp
        cols, rows = lp.basis
        assert np.count_nonzero(cols == highs.BASIC) + np.count_nonzero(rows == highs.BASIC) == len(rows)
        model = highs.LiveModel()
        model._load(lp)
        loaded = model._highs.getBasis()
        assert loaded.valid
        assert [int(s) for s in loaded.col_status] == cols.tolist()
        assert [int(s) for s in loaded.row_status] == rows.tolist()

        warm = solve_lp(lp, model=highs.LiveModel())
        cold = solve_lp(dataclasses.replace(lp, basis=None))
        assert warm.status == cold.status
        if cold.status == LPStatus.OPTIMAL:
            assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
        warm_iterations += warm.iterations
        cold_iterations += cold.iterations
    assert warm_iterations <= cold_iterations / 2


def test_starting_basis_point_is_the_forward_pass_at_the_gradient_vertex():
    """Stopped before its first simplex iteration, the solve from the
    starting basis sits at the forward pass of the box vertex that the sign
    of the objective's gradient at the box center picks (the lower corner
    when the objective does not depend on x), with t at 0."""
    for net, problem, relaxation in _suite_problems():
        imap, b = relaxation.imap, problem.box
        grad = np.zeros(net.input_dim)
        if problem.objective.c_y is not None:
            grad = fd_gradient(net, b.center, problem.objective.c_y)
        vertex = np.where(grad > 0.0, b.upper, b.lower)
        model = highs.LiveModel()
        model._load(relaxation.lp)
        model._highs.setOptionValue("simplex_iteration_limit", 0)
        model._highs.run()
        point = np.asarray(model._highs.getSolution().col_value)
        np.testing.assert_array_equal(point[imap.x], vertex)
        trace = forward_trace(net, vertex)
        for k in range(len(net.layers)):
            np.testing.assert_allclose(point[imap.pre[k]], trace.pre[k], atol=1e-12)
            np.testing.assert_allclose(point[imap.post[k]], trace.post[k], atol=1e-12)
        if imap.t is not None:
            assert point[imap.t] == 0.0


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
