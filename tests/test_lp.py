import numpy as np
import pytest

from scipy.sparse import csc_matrix

from reluopt import (
    DimensionMismatch,
    Hyperrectangle,
    LinearProgram,
    LPStatus,
    Objective,
    OptimizationProblem,
    Relation,
    Row,
    Timeout,
    build_relaxed_lp,
    check_relu_consistency,
    propagate_interval,
    solve_lp,
    split_assignment,
)
from reluopt import highs
from reluopt.lp import encode_relaxation
from reluopt.model import NodeId, activation_pattern, evaluate, forward_trace
from reluopt.state import root_state

from conftest import box, lp_oracle, random_net


def _random_lp(rng, n, n_rows):
    lower = rng.uniform(-3, 0, n)
    upper = lower + rng.uniform(0.5, 3, n)
    rows = []
    for _ in range(n_rows):
        a = rng.normal(size=n)
        rel = rng.choice(["<=", ">="])
        # rhs near the value at the center keeps a mix of binding/slack rows
        center = 0.5 * (lower + upper)
        b = float(a @ center + rng.normal(scale=1.0))
        rows.append((a, rel, b))
    objective = rng.normal(size=n)
    return lower, upper, rows, objective


def _relaxed_lp(net, state, b, output_rows=(), objective=Objective(), t_upper=np.inf):
    """The relaxed LP of `state` on box `b` under interval bounds, and its
    index map."""
    problem = OptimizationProblem(b, objective, output_rows, t_upper)
    relaxation = encode_relaxation(net, problem, propagate_interval(net, b))
    return build_relaxed_lp(relaxation, state), relaxation.imap


@pytest.fixture
def backends(monkeypatch):
    """Each solve_lp backend in turn: the live HiGHS model, then the
    linprog fallback, forced by hiding scipy's HiGHS binding."""

    def each():
        assert highs.new_model() is not None
        yield "live"
        monkeypatch.setattr(highs, "_core", None)
        assert highs.new_model() is None
        yield "linprog"

    return each()


def test_solve_lp_matches_vertex_enumeration_oracle(backends):
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(60):
        n = int(rng.integers(2, 4))
        lower, upper, rows, objective = _random_lp(rng, n, int(rng.integers(1, 5)))
        lp = LinearProgram.from_rows(
            [(np.asarray(a), Relation(rel), b) for a, rel, b in rows], lower, upper, objective
        )
        cases.append((lp, *lp_oracle(lower, upper, rows, objective)))
    for _ in backends:
        solved = 0
        for lp, status, value in cases:
            res = solve_lp(lp)
            if status == "infeasible":
                assert res.status == LPStatus.INFEASIBLE
            else:
                assert res.status == LPStatus.OPTIMAL
                assert res.value == pytest.approx(value, abs=1e-6)
                # the reported assignment achieves the reported value
                assert float(lp.objective @ res.assignment) == pytest.approx(res.value, abs=1e-9)
                solved += 1
        assert solved >= 30


def test_solve_lp_detects_infeasible(backends):
    lp = LinearProgram.from_rows([(np.array([1.0]), Relation.GE, 2.0)], [0.0], [1.0], [1.0])
    crossed = LinearProgram.from_rows([], [1.0], [0.0], [1.0])
    for _ in backends:
        assert solve_lp(lp).status == LPStatus.INFEASIBLE
        assert solve_lp(crossed).status == LPStatus.INFEASIBLE


def test_solve_lp_detects_unbounded(backends):
    lp = LinearProgram.from_rows([], [-np.inf], [np.inf], [1.0])
    for _ in backends:
        assert solve_lp(lp).status == LPStatus.UNBOUNDED


def test_solve_lp_minimize(backends):
    lp = LinearProgram.from_rows([], [-1.0], [2.0], [1.0], maximize=False)
    for _ in backends:
        res = solve_lp(lp)
        assert res.value == pytest.approx(-1.0)


def test_solve_lp_time_limit_raises_timeout(backends):
    rng = np.random.default_rng(3)
    net = random_net(rng, n_in=4, hidden=(30, 30), n_out=1)
    b = box(-np.ones(4), np.ones(4))
    lp, _ = _relaxed_lp(net, root_state(net), b, objective=Objective(c_y=np.array([1.0])))
    for _ in backends:
        with pytest.raises(Timeout):
            solve_lp(lp, time_limit=1e-9)
        assert solve_lp(lp, time_limit=60.0).status == LPStatus.OPTIMAL


# ---------------------------------------------------------------------------
# Relaxed LP construction


def _true_assignment_feasible(net, lp, imap, x, tol=1e-6):
    """Embed the true forward trace into the LP variable vector and check
    every row and bound."""
    trace = forward_trace(net, x)
    vec = np.zeros(imap.n_vars)
    vec[imap.x] = x
    for k in range(len(net.layers)):
        vec[imap.pre[k]] = trace.pre[k]
        vec[imap.post[k]] = trace.post[k]
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


def test_root_relaxation_contains_all_true_points():
    rng = np.random.default_rng(9)
    for _ in range(10):
        net = random_net(rng, n_in=2, hidden=(4,), n_out=1)
        b = box([-1.5, -1.5], [1.5, 1.5])
        lp, imap = _relaxed_lp(net, root_state(net), b)
        for x in b.sample(rng, 50):
            assert _true_assignment_feasible(net, lp, imap, x)


def test_root_relaxation_upper_bounds_true_max():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_net(rng, n_in=2, hidden=(5,), n_out=1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        lp, _ = _relaxed_lp(net, root_state(net), b, objective=Objective(c_y=np.array([1.0])))
        res = solve_lp(lp)
        assert res.status == LPStatus.OPTIMAL
        sampled = max(float(evaluate(net, x)[0]) for x in b.sample(rng, 300))
        assert res.value >= sampled - 1e-7


def test_leaf_lp_is_exact_and_consistent():
    """A fully fixed state matching the pattern at a point admits that point,
    and its LP optimum passes the ReLU consistency check."""
    rng = np.random.default_rng(17)
    for _ in range(10):
        net = random_net(rng, n_in=2, hidden=(4,), n_out=1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        x = b.sample(rng, 1)[0]
        masks = activation_pattern(net, x)
        active, inactive = set(), set()
        for i, mask in enumerate(masks):
            for j, on in enumerate(mask):
                (active if on else inactive).add(NodeId(i, j))
        state = root_state(net, active=active, inactive=inactive)
        lp, imap = _relaxed_lp(net, state, b, objective=Objective(c_y=np.array([1.0])))
        assert _true_assignment_feasible(net, lp, imap, x)
        res = solve_lp(lp)
        assert res.status == LPStatus.OPTIMAL
        pre, post = split_assignment(net, imap, res.assignment)
        assert check_relu_consistency(net, pre, post, 1e-6) == []
        # exactness: the LP value is attained by the network itself
        x_opt = res.assignment[imap.x]
        assert float(evaluate(net, x_opt)[0]) == pytest.approx(res.value, abs=1e-6)


def test_output_rows_and_epigraph_variable(abs_net):
    # maximize -t s.t. y >= 1 within |x| <= 2 around x0 = 0: min |x| with |x| >= 1.
    from reluopt.geometry import linf_epigraph

    b = box([-2.0], [2.0])
    rows = tuple(linf_epigraph(np.array([0.0]))) + (
        Row(a_x=None, a_y=np.array([1.0]), a_t=0.0, relation=Relation.GE, rhs=1.0),
    )
    # fully fixed on the positive branch: x >= 0 region
    state = root_state(abs_net, active={NodeId(0, 0)}, inactive={NodeId(0, 1)})
    lp, imap = _relaxed_lp(
        abs_net, state, b, output_rows=rows, objective=Objective(c_t=-1.0), t_upper=2.0
    )
    res = solve_lp(lp)
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-6)
    assert res.assignment[imap.t] == pytest.approx(1.0, abs=1e-6)


def test_infeasible_state_gives_infeasible_lp(abs_net):
    # both nodes inactive forces x <= 0 and -x <= 0 and y = 0; ask y >= 1.
    b = box([-2.0], [2.0])
    state = root_state(abs_net, inactive={NodeId(0, 0), NodeId(0, 1)})
    lp, _ = _relaxed_lp(
        abs_net,
        state,
        b,
        output_rows=(Row(None, np.array([1.0]), 0.0, Relation.GE, 1.0),),
        objective=Objective(c_y=np.array([1.0])),
    )
    assert solve_lp(lp).status == LPStatus.INFEASIBLE


def test_check_relu_consistency_ordering(abs_net):
    pre = [np.array([2.0, -1.0])]
    post = [np.array([2.5, 1.0])]  # violations 0.5 and 1.0
    violations = check_relu_consistency(abs_net, pre, post, 1e-6)
    assert [v[0] for v in violations] == [NodeId(0, 1), NodeId(0, 0)]
    assert violations[0][1] == pytest.approx(1.0)


def test_row_using_t_without_t_variable_raises(abs_net):
    b = box([-1.0], [1.0])
    # a_t present forces the t variable to exist; this is the supported path
    lp, imap = _relaxed_lp(
        abs_net,
        root_state(abs_net),
        b,
        output_rows=(Row(np.array([1.0]), None, -1.0, Relation.LE, 0.0),),
    )
    assert imap.t is not None


@pytest.mark.parametrize(
    "field, value",
    [
        ("lower", np.array([np.nan, 0.0])),
        ("upper", np.array([1.0, np.nan])),
        ("objective", np.array([np.nan, 1.0])),
        ("row_lower", np.array([np.nan])),
        ("row_upper", np.array([np.nan])),
        ("row_lower", np.array([np.inf])),  # an infinite side must face away
        ("row_upper", np.array([-np.inf])),
        ("row_lower", np.array([-np.inf])),  # with row_upper +inf: no finite side
        ("row_lower", np.array([0.0, 0.0])),
        ("upper", np.array([1.0])),
        ("objective", np.array([1.0, 1.0, 1.0])),
    ],
)
def test_linear_program_rejects_nonfinite_rows_and_bad_lengths(field, value):
    good = dict(
        matrix=csc_matrix(np.array([[1.0, -1.0]])),
        row_lower=np.array([0.0]),
        row_upper=np.array([np.inf]),
        lower=np.zeros(2),
        upper=np.ones(2),
        objective=np.ones(2),
    )
    LinearProgram(**good)
    with pytest.raises(DimensionMismatch):
        LinearProgram(**{**good, field: value})


def test_node_lps_are_checked_once_per_problem(abs_net, monkeypatch):
    """The root LP is checked when encoded; node LPs and tightening costs
    derive from it without the whole check, and a new cost is still checked."""
    checks = []
    check = LinearProgram.__post_init__
    monkeypatch.setattr(LinearProgram, "__post_init__", lambda lp: checks.append(check(lp)))
    b = box([-2.0], [2.0])
    problem = OptimizationProblem(b, Objective())
    relaxation = encode_relaxation(abs_net, problem, propagate_interval(abs_net, b))
    assert len(checks) == 1
    lp = build_relaxed_lp(relaxation, root_state(abs_net, inactive={NodeId(0, 1)}))
    cost = lp.with_objective(np.ones(lp.n_vars), maximize=False)
    assert len(checks) == 1
    assert cost.matrix is lp.matrix and not cost.maximize and cost.upper is lp.upper
    for bad in (np.full(lp.n_vars, np.nan), np.ones(lp.n_vars + 1)):
        with pytest.raises(DimensionMismatch):
            lp.with_objective(bad, maximize=True)


@pytest.mark.parametrize("rhs", [np.nan, np.inf, -np.inf])
def test_rows_with_nonfinite_rhs_are_rejected(rhs):
    for relation in Relation:
        with pytest.raises(DimensionMismatch):
            LinearProgram.from_rows([(np.array([1.0]), relation, rhs)], [0.0], [1.0], [1.0])


def test_node_lp_shares_the_relaxation_matrix_and_reads_as_rows(abs_net):
    b = box([-2.0], [2.0])
    problem = OptimizationProblem(b, Objective())
    relaxation = encode_relaxation(abs_net, problem, propagate_interval(abs_net, b))
    state = root_state(abs_net, active={NodeId(0, 0)})
    lp = build_relaxed_lp(relaxation, state)
    assert lp.matrix is relaxation.lp.matrix
    rows = list(lp.rows)
    assert len(rows) == len(lp.rows) == lp.matrix.shape[0]
    np.testing.assert_array_equal([row.coeffs for row in rows], lp.matrix.toarray())
    # the active node's link row z - zhat is an equality, the other's an inequality
    links = {rows[row].relation for row in relaxation.link_row}
    assert links == {Relation.EQ, Relation.GE}
    assert rows[relaxation.link_row[0]].relation is Relation.EQ


def _reference_node_vectors(net, problem, bounds, state, relaxation):
    """The node LP's row upper bounds and column bounds, built node by node
    from the bounds map and the state's node sets: the reference that
    `build_relaxed_lp` must match bit for bit."""
    imap = relaxation.imap
    lower = np.full(imap.n_vars, -np.inf)
    upper = np.full(imap.n_vars, np.inf)
    lower[imap.x] = problem.box.lower
    upper[imap.x] = problem.box.upper
    for k, layer in enumerate(net.layers):
        lower[imap.pre[k]] = bounds.pre_lower[k]
        upper[imap.pre[k]] = bounds.pre_upper[k]
        post_lower = bounds.post_lower[k]
        if k in net.relu_layers:
            post_lower = np.maximum(post_lower, 0.0)
        lower[imap.post[k]] = post_lower
        upper[imap.post[k]] = bounds.post_upper[k]
    if imap.t is not None:
        lower[imap.t] = 0.0
        upper[imap.t] = problem.t_upper

    dense = relaxation.lp.matrix.toarray()
    row_upper = relaxation.lp.row_upper.copy()
    for node in state.active | state.inactive:
        pre = int(imap.pre[net.relu_layers[node.layer]][node.node])
        post = int(imap.post[net.relu_layers[node.layer]][node.node])
        if node in state.active:
            link = np.zeros(imap.n_vars)
            link[[post, pre]] = 1.0, -1.0
            (row,) = np.flatnonzero((dense == link).all(axis=1))  # z - zhat >= 0
            row_upper[row] = 0.0
            lower[pre] = max(lower[pre], 0.0)
        else:
            upper[pre] = min(upper[pre], 0.0)
            upper[post] = min(upper[post], 0.0)
    return row_upper, lower, upper


def test_node_lp_vectors_match_the_node_by_node_reference():
    from reluopt.geometry import linf_epigraph
    from reluopt.bounds import tighten_lp

    rng = np.random.default_rng(404)
    for trial in range(12):
        n_in = int(rng.integers(2, 4))
        hidden = (int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        net = random_net(rng, n_in=n_in, hidden=hidden, n_out=2)
        center = rng.uniform(-1.0, 1.0, n_in)
        b = box(center - 0.8, center + 0.8)
        if trial % 2:  # min-adversarial: maximize -t with epigraph and target rows
            target = Row(None, np.array([1.0, -1.0]), 0.0, Relation.GE, 0.0)
            rows = tuple(linf_epigraph(center)) + (target,)
            problem = OptimizationProblem(b, Objective(c_t=-1.0), rows, 0.8)
        else:
            problem = OptimizationProblem(b, Objective(c_y=rng.normal(size=2)))
        bounds = propagate_interval(net, b)
        if trial % 3 == 0:
            bounds = tighten_lp(net, b, bounds, 5.0)
        relaxation = encode_relaxation(net, problem, bounds)
        for _ in range(10):
            active, inactive = set(), set()
            for node in net.relu_node_ids():
                u = rng.random()
                (active if u < 0.3 else inactive if u < 0.6 else set()).add(node)
            state = root_state(net, active=active, inactive=inactive)
            lp = build_relaxed_lp(relaxation, state)
            assert lp.matrix is relaxation.lp.matrix
            assert lp.row_lower is relaxation.lp.row_lower
            assert lp.objective is relaxation.lp.objective
            expected = _reference_node_vectors(net, problem, bounds, state, relaxation)
            for got, want in zip((lp.row_upper, lp.lower, lp.upper), expected):
                assert got.tobytes() == want.tobytes()
