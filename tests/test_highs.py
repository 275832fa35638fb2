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
    solve_lp,
)
from reluopt import highs
from reluopt.geometry import linf_epigraph
from reluopt.lp import encode_relaxation
from reluopt.state import root_state

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
    active, inactive = set(), set()
    for node in net.relu_node_ids():
        u = rng.random()
        if u < 0.3:
            active.add(node)
        elif u < 0.6:
            inactive.add(node)
    return root_state(net, active=active, inactive=inactive)


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
    other = build_relaxed_lp(_relaxation(net, problem), root_state(net))
    solve_lp(other, model=model)
    assert len(loads) == 2


def test_undecided_status_gets_one_cold_resolve(monkeypatch):
    rng = np.random.default_rng(11)
    net, problem = _random_problem(rng, min_adv=False)
    lp = build_relaxed_lp(_relaxation(net, problem), root_state(net))
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
