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
