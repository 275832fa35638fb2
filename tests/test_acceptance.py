"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS` (or FAIL) so the suite's
verdict can be read off the pytest -s output directly.
"""

import functools
import io
import itertools
import json
import os

import numpy as np
import pytest

from reluopt import (
    Objective,
    OptimizationProblem,
    Relation,
    RegionOutcome,
    RegionStatus,
    Row,
    SearchConfig,
    Status,
    bisection_optimize,
    brute_force_optimize,
    build_relaxed_lp,
    check_relu_consistency,
    evaluate,
    export_milp,
    fgsm,
    fingerprint,
    gradient,
    milp_to_lp,
    optimize,
    optimum_for_region,
    pgd,
    phase_state,
    phases,
    propagate_interval,
    solve_lp,
    split,
    tighten_lp,
)
from reluopt.geometry import Hyperrectangle, linf_epigraph
from reluopt.lp import LPStatus, encode_relaxation
from reluopt.model import Activation, NodeId, forward_trace
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED

from conftest import box, fd_gradient, kink_free, random_net, read_lp_with_highs


def acceptance(n, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {n} {name}: PASS")

        return run

    return wrap


def _suite_net(rng):
    """Oracle-suite network: 2-3 inputs, 4-12 ReLUs, 1-2 outputs, with the
    ReLU count skewed small to keep brute-force enumeration fast."""
    n_in = int(rng.integers(2, 4))
    n_out = int(rng.integers(1, 3))
    h = int(
        rng.choice(
            [4, 5, 6, 7, 8, 9, 10, 11, 12],
            p=[0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.05, 0.03, 0.02],
        )
    )
    return random_net(rng, n_in, (h,), n_out)


def _output_query(rng, net):
    c = rng.normal(size=net.output_dim)
    lo = -np.ones(net.input_dim)
    return OptimizationProblem(box=box(lo, -lo), objective=Objective(c_y=c))


def _minadv_query(rng, net, radius=1.0, margin=None):
    x0 = rng.uniform(-0.5, 0.5, net.input_dim)
    b = box(x0 - radius, x0 + radius)
    y0 = evaluate(net, x0)
    if net.output_dim == 1:
        a = np.array([1.0])
        rhs = float(y0[0]) + (margin if margin is not None else rng.uniform(0.1, 1.0))
    else:
        a = np.zeros(net.output_dim)
        hi, lo_label = int(np.argmax(y0)), int(np.argmin(y0))
        a[lo_label], a[hi] = 1.0, -1.0
        rhs = margin if margin is not None else 0.0
    rows = tuple(linf_epigraph(x0)) + (Row(None, a, 0.0, Relation.GE, rhs),)
    return OptimizationProblem(
        box=b,
        objective=Objective(c_t=-1.0),
        rows=rows,
        t_upper=radius,
        x0=x0,
    )


@acceptance(1, "oracle equivalence")
def test_oracle_equivalence():
    rng = np.random.default_rng(1001)
    checked = 0
    for i in range(100):
        net = _suite_net(rng)
        for problem in (_output_query(rng, net), _minadv_query(rng, net)):
            exact = optimize(net, problem)
            brute = brute_force_optimize(net, problem)
            assert exact.status is brute.status, f"net {i}: {exact.status} vs {brute.status}"
            if exact.status is Status.OPTIMAL:
                assert exact.value == pytest.approx(brute.value, abs=1e-5), f"net {i}"
            checked += 1
    assert checked >= 100


@acceptance(2, "pruning semantics on the reference tree")
def test_reference_tree_pruning(abs_net):
    script = {
        "A[]N[]": ("unknown", 20.0),
        "A[]N[0.0]": ("infeasible",),
        "A[0.0]N[]": ("unknown", 17.0),
        "A[0.0]N[0.1]": ("optimal", 9.0, 9.0),
        "A[0.0,0.1]N[]": ("unknown", 7.0),
    }
    visits = []

    def evaluator(phase, incumbent):
        visits.append((fingerprint(abs_net, phase), incumbent))
        entry = script[fingerprint(abs_net, phase)]
        if entry[0] == "infeasible":
            return RegionOutcome(RegionStatus.WORSE_THAN_OPT, lp_bound=-np.inf)
        bound = entry[1]
        if bound <= incumbent:
            return RegionOutcome(RegionStatus.WORSE_THAN_OPT, lp_bound=bound)
        if entry[0] == "optimal":
            return RegionOutcome(
                RegionStatus.OPTIMAL, lp_bound=bound, value=entry[2], assignment=np.zeros(1)
            )
        return RegionOutcome(RegionStatus.UNKNOWN, lp_bound=bound)

    problem = OptimizationProblem(
        box=box([-1.0], [1.0]), objective=Objective(c_y=np.array([1.0]))
    )
    trace = io.StringIO()
    result = optimize(
        abs_net, problem, SearchConfig(timeout=10.0), region_evaluator=evaluator, trace=trace
    )
    assert result.status is Status.OPTIMAL
    assert result.value == pytest.approx(9.0)
    # the bound-7 node was evaluated against incumbent 9 and pruned
    fp7 = "A[0.0,0.1]N[]"
    assert next(v[1] for v in visits if v[0] == fp7) == pytest.approx(9.0)
    records = {json.loads(l)["state"]: json.loads(l) for l in trace.getvalue().splitlines()}
    assert records[fp7]["status"] == "worse_than_opt"
    assert records["A[]N[]"]["lp_bound"] == pytest.approx(20.0)
    assert records["A[0.0]N[]"]["lp_bound"] == pytest.approx(17.0)
    assert records["A[]N[0.0]"]["lp_bound"] is None  # infeasible child
    assert result.stats.nodes_explored == 5


@acceptance(3, "bisection agreement")
def test_bisection_agreement():
    rng = np.random.default_rng(3001)
    solved = 0
    infeasible_checked = 0
    while solved < 50:
        net = random_net(rng, int(rng.integers(2, 4)), (int(rng.integers(4, 9)),), 1)
        if solved % 2 == 0:
            problem = _output_query(rng, net)
        else:
            problem = _minadv_query(rng, net)
        exact = optimize(net, problem)
        approx = bisection_optimize(net, problem)
        assert approx.status is exact.status
        if exact.status is Status.OPTIMAL:
            assert approx.value == pytest.approx(exact.value, abs=2e-4)
        elif exact.status is Status.INFEASIBLE:
            brute = brute_force_optimize(net, problem)
            assert brute.status is Status.INFEASIBLE
            infeasible_checked += 1
        solved += 1
    assert solved >= 50


@acceptance(4, "attacks lower-bound the exact optimum")
def test_attack_lower_bound_property(tmp_path):
    rng = np.random.default_rng(4001)
    for _ in range(100):
        net = random_net(rng, 2, (int(rng.integers(4, 8)),), 1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        c = np.array([rng.choice([-1.0, 1.0])])
        problem = OptimizationProblem(box=b, objective=Objective(c_y=c))
        exact = optimize(net, problem)
        for attack in (fgsm, pgd):
            kwargs = {"steps": 200} if attack is pgd else {}
            _, v = attack(net, b.center, c, b, **kwargs)
            assert v <= exact.value + 1e-6
    # and the emitted scatter CSV has the same geometry
    from reluopt.cli import generate_queries, run_benchmark

    qdir = tmp_path / "q"
    paths = generate_queries("acas_out", seed=42, count=4, scale=6, out_dir=str(qdir))
    out = tmp_path / "out"
    run_benchmark(paths, ["branch_bound", "fgsm", "pgd"], timeout=60.0, out_dir=str(out))
    import csv as _csv

    with open(out / "scatter.csv") as fh:
        rows = list(_csv.reader(fh))[1:]
    assert rows, "scatter CSV must not be empty"
    for row in rows:
        assert float(row[3]) <= float(row[2]) + 1e-6


@acceptance(5, "relaxation invariants")
def test_relaxation_invariants():
    rng = np.random.default_rng(5001)
    pairs = 0
    leaves_checked = 0
    while pairs < 1000:
        net = random_net(rng, 2, (int(rng.integers(4, 8)),), 1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        bounds = propagate_interval(net, b)
        problem = OptimizationProblem(box=b, objective=Objective(c_y=np.array([1.0])))
        # random partial state: fix a random prefix of nodes at random phases
        n_nodes = net.num_relu_nodes
        n_fix = int(rng.integers(0, n_nodes))
        phase = np.zeros(n_nodes)
        phase[:n_fix] = np.where(rng.random(n_fix) < 0.5, ACTIVE, INACTIVE)
        state = phase_state(net, phase)
        parent = optimum_for_region(net, problem, state, bounds, -np.inf)
        if parent.lp_bound == -np.inf or UNDETERMINED not in state:
            continue
        _, first, second = split(state)
        for child in (first, second):
            out = optimum_for_region(net, problem, child, bounds, -np.inf)
            if out.lp_bound != -np.inf:
                assert out.lp_bound <= parent.lp_bound + 1e-6
            pairs += 1
        # fully fixed feasible leaf: LP assignment must be ReLU-consistent
        leaf = phase_state(net, np.where(rng.random(n_nodes) < 0.5, ACTIVE, INACTIVE))
        relaxation = encode_relaxation(net, problem, bounds)
        res = solve_lp(build_relaxed_lp(relaxation, leaf))
        if res.status == LPStatus.OPTIMAL:
            assert (check_relu_consistency(relaxation, res.assignment) <= 1e-6).all()
            leaves_checked += 1
    assert pairs >= 1000 and leaves_checked > 50


def _batch_trace(net, xs):
    """Vectorized forward pass over rows of xs, returning per-layer pre/post."""
    a = xs
    pre, post = [], []
    for layer in net.layers:
        zhat = a @ layer.weights.T + layer.biases
        a = np.maximum(0.0, zhat) if layer.activation is Activation.RELU else zhat
        pre.append(zhat)
        post.append(a)
    return pre, post


@acceptance(6, "bound soundness")
def test_bound_soundness():
    rng = np.random.default_rng(6001)
    for _ in range(20):
        net = random_net(rng, int(rng.integers(2, 4)), (5, 4), 1)
        lo = -np.ones(net.input_dim)
        b = box(lo, -lo)
        interval = propagate_interval(net, b)
        assert tighten_lp(net, b, interval, 0.0) is interval  # timeout 0 no-op
        tight = tighten_lp(net, b, interval, per_query_timeout=1.0)
        for k in range(len(net.layers)):  # tightened within interval
            assert np.all(tight.pre_lower[k] >= interval.pre_lower[k] - 1e-12)
            assert np.all(tight.pre_upper[k] <= interval.pre_upper[k] + 1e-12)
        xs = b.sample(rng, 10_000)
        pre, post = _batch_trace(net, xs)
        for bounds in (interval, tight):
            for k in range(len(net.layers)):
                assert np.all(pre[k] >= bounds.pre_lower[k] - 1e-7)
                assert np.all(pre[k] <= bounds.pre_upper[k] + 1e-7)
                assert np.all(post[k] >= bounds.post_lower[k] - 1e-7)
                assert np.all(post[k] <= bounds.post_upper[k] + 1e-7)


@acceptance(7, "gradient vs finite differences")
def test_gradient_finite_differences():
    rng = np.random.default_rng(7001)
    nets = 0
    while nets < 20:
        net = random_net(rng, 3, (6, 5), 2)
        points = 0
        tries = 0
        while points < 20 and tries < 400:
            tries += 1
            x = rng.uniform(-2, 2, 3)
            if not kink_free(net, x):
                continue
            c = rng.normal(size=2)
            g = gradient(net, x, c)
            fd = fd_gradient(net, x, c, h=1e-6)
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.linalg.norm(g - fd) / denom <= 1e-4
            points += 1
        assert points == 20
        nets += 1


@acceptance(8, "MILP export fidelity")
def test_milp_export_fidelity():
    rng = np.random.default_rng(8001)
    for _ in range(5):
        net = random_net(rng, 2, (int(rng.integers(3, 6)),), 1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        problem = OptimizationProblem(box=b, objective=Objective(c_y=np.array([1.0])))
        bounds = propagate_interval(net, b)
        model, text = export_milp(net, problem, bounds)
        reread = read_lp_with_highs(text, model.names)  # HiGHS reads the file back
        assert len(reread.row_names) == len(model.lp.rows)
        binaries = model.binaries()
        if len(binaries) > 6:
            continue
        phase = phases(bounds)
        free = np.flatnonzero(phase == UNDETERMINED)
        relaxation = encode_relaxation(net, problem, bounds)
        imap = relaxation.imap
        nodes = net.relu_node_ids()
        # The MILP's ReLUs that have columns in the LP: the ones the bounds leave open.
        own = {(net.relu_layers[nodes[i].layer], nodes[i].node) for i in free}

        def var_vector(values):
            vec = np.zeros(imap.n_vars)
            vec[imap.x] = [values[f"x{i}"] for i in range(net.input_dim)]
            vec[imap.one] = 1.0
            for i, (layer, j) in enumerate(nodes):
                k = net.relu_layers[layer]
                if (k, j) in own:
                    vec[relaxation.zhat[i]] = values[f"zhat_{k}_{j}"]
                    vec[relaxation.z[i]] = values[f"z_{k}_{j}"]
            return vec

        def lp_feasible(lp, vec, tol=1e-7):
            if np.any(vec < lp.lower - tol) or np.any(vec > lp.upper + tol):
                return False
            for row in lp.rows:
                v = float(row.coeffs @ vec)
                if row.relation is Relation.LE and v > row.rhs + tol:
                    return False
                if row.relation is Relation.GE and v < row.rhs - tol:
                    return False
                if row.relation is Relation.EQ and abs(v - row.rhs) > tol:
                    return False
            return True

        for pattern in itertools.product((ACTIVE, INACTIVE), repeat=len(free)):
            phase[free] = pattern
            lp = build_relaxed_lp(relaxation, phase_state(net, phase))
            deltas = {}
            for name in binaries:
                k, j = map(int, name.split("_")[1:])
                i = nodes.index(NodeId(net.relu_layers.index(k), j))
                deltas[name] = 1.0 if phase[i] == ACTIVE else 0.0
            samples = []
            for _s in range(180):
                x = b.sample(rng, 1)[0]
                trace = forward_trace(net, x)
                values = {f"x{i}": float(x[i]) for i in range(net.input_dim)}
                exact = True  # no noise on a z that has no LP column
                for k in range(len(net.layers)):
                    for j in range(net.layers[k].out_width):
                        noise = rng.normal(scale=0.3) if rng.random() < 0.5 else 0.0
                        values[f"zhat_{k}_{j}"] = float(trace.pre[k][j])
                        values[f"z_{k}_{j}"] = float(trace.post[k][j]) + noise
                        exact &= (k, j) in own or noise == 0.0
                values.update(deltas)
                samples.append((values, exact))
            for values, exact in samples:
                in_milp = model.feasible(np.array([values[n] for n in model.names]), tol=1e-7)
                in_lp = lp_feasible(lp, var_vector(values))
                # The LP is the MILP with its fixed ReLUs and its outputs substituted out.
                assert in_milp == (in_lp and exact), (values, deltas)


@acceptance(9, "infeasible query handling")
def test_infeasible_queries():
    rng = np.random.default_rng(9001)
    found = 0
    attempts = 0
    while found < 5 and attempts < 60:
        attempts += 1
        net = random_net(rng, 2, (int(rng.integers(4, 8)),), 2)
        problem = _minadv_query(rng, net, radius=0.05, margin=None)
        brute = brute_force_optimize(net, problem)
        if brute.status is not Status.INFEASIBLE:
            continue
        assert optimize(net, problem).status is Status.INFEASIBLE
        assert bisection_optimize(net, problem).status is Status.INFEASIBLE
        found += 1
    assert found >= 5


@acceptance(10, "benchmark determinism")
def test_benchmark_determinism(tmp_path):
    import csv as _csv

    from reluopt.cli import generate_queries, run_benchmark

    def one_run(tag):
        qdir = tmp_path / f"q_{tag}"
        out = tmp_path / f"out_{tag}"
        paths = []
        for family, seed in (("acas_out", 21), ("mnist_in", 22), ("taxi_out", 23)):
            paths += generate_queries(family, seed=seed, count=2, scale=5, out_dir=str(qdir))
        run_benchmark(paths, ["branch_bound", "bisection", "pgd"], timeout=60.0, out_dir=str(out))
        with open(out / "results.csv") as fh:
            rows = list(_csv.reader(fh))
        wall_col = rows[0].index("wall_s")
        stripped = [
            [v for i, v in enumerate(row) if i != wall_col] for row in rows
        ]
        with open(out / "scatter.csv") as fh:
            scatter = fh.read()
        return stripped, scatter

    first = one_run("a")
    second = one_run("b")
    assert first == second
    # the generated inputs themselves are byte-identical across runs
    for name in sorted(os.listdir(tmp_path / "q_a")):
        assert (tmp_path / "q_a" / name).read_bytes() == (tmp_path / "q_b" / name).read_bytes()
