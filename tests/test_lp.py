import numpy as np
import pytest

from scipy.sparse import coo_matrix, csc_matrix

from reluopt import (
    DimensionMismatch,
    Hyperrectangle,
    Layer,
    LinearProgram,
    LPStatus,
    Network,
    Objective,
    OptimizationProblem,
    Relation,
    Row,
    Timeout,
    build_relaxed_lp,
    check_relu_consistency,
    propagate_interval,
    solve_lp,
)
from reluopt.lp import CSCMatrix, encode_relaxation
from reluopt.model import activation_pattern, evaluate, forward_trace
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, phase_state

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


def _root(net):
    """The state with every ReLU undetermined."""
    return phase_state(net, np.zeros(net.num_relu_nodes))


def _relaxed_lp(net, state, b, output_rows=(), objective=Objective(), t_upper=np.inf):
    """The relaxed LP of `state` on box `b` under interval bounds, and its
    index map."""
    problem = OptimizationProblem(b, objective, output_rows, t_upper)
    relaxation = encode_relaxation(net, problem, propagate_interval(net, b))
    return build_relaxed_lp(relaxation, state), relaxation.imap


def test_solve_lp_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(60):
        n = int(rng.integers(2, 4))
        lower, upper, rows, objective = _random_lp(rng, n, int(rng.integers(1, 5)))
        lp = LinearProgram.from_rows(
            [(np.asarray(a), Relation(rel), b) for a, rel, b in rows], lower, upper, objective
        )
        cases.append((lp, *lp_oracle(lower, upper, rows, objective)))
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


def test_solve_lp_detects_infeasible():
    lp = LinearProgram.from_rows([(np.array([1.0]), Relation.GE, 2.0)], [0.0], [1.0], [1.0])
    crossed = LinearProgram.from_rows([], [1.0], [0.0], [1.0])
    assert solve_lp(lp).status == LPStatus.INFEASIBLE
    assert solve_lp(crossed).status == LPStatus.INFEASIBLE


def test_solve_lp_detects_unbounded():
    lp = LinearProgram.from_rows([], [-np.inf], [np.inf], [1.0])
    assert solve_lp(lp).status == LPStatus.UNBOUNDED


def test_solve_lp_minimize():
    lp = LinearProgram.from_rows([], [-1.0], [2.0], [1.0], maximize=False)
    res = solve_lp(lp)
    assert res.value == pytest.approx(-1.0)


def test_solve_lp_time_limit_raises_timeout():
    rng = np.random.default_rng(3)
    net = random_net(rng, n_in=4, hidden=(30, 30), n_out=1)
    b = box(-np.ones(4), np.ones(4))
    lp, _ = _relaxed_lp(net, _root(net), b, objective=Objective(c_y=np.array([1.0])))
    with pytest.raises(Timeout):
        solve_lp(lp, time_limit=1e-9)
    assert solve_lp(lp, time_limit=60.0).status == LPStatus.OPTIMAL


# ---------------------------------------------------------------------------
# Relaxed LP construction


def _true_assignment_feasible(net, lp, imap, x, tol=1e-6, t=0.0):
    """Embed the true forward trace (and `t`) into the LP variable vector and
    check every row and bound."""
    trace = forward_trace(net, x)
    vec = np.zeros(imap.n_vars)
    vec[imap.x] = x
    if imap.t is not None:
        vec[imap.t] = t
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
        lp, imap = _relaxed_lp(net, _root(net), b)
        for x in b.sample(rng, 50):
            assert _true_assignment_feasible(net, lp, imap, x)


def test_root_relaxation_upper_bounds_true_max():
    rng = np.random.default_rng(13)
    for _ in range(10):
        net = random_net(rng, n_in=2, hidden=(5,), n_out=1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        lp, _ = _relaxed_lp(net, _root(net), b, objective=Objective(c_y=np.array([1.0])))
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
        state = phase_state(net, np.where(np.concatenate(masks), ACTIVE, INACTIVE))
        problem = OptimizationProblem(b, Objective(c_y=np.array([1.0])))
        relaxation = encode_relaxation(net, problem, propagate_interval(net, b))
        lp, imap = build_relaxed_lp(relaxation, state), relaxation.imap
        assert _true_assignment_feasible(net, lp, imap, x)
        res = solve_lp(lp)
        assert res.status == LPStatus.OPTIMAL
        assert (check_relu_consistency(relaxation, res.assignment) <= 1e-6).all()
        # exactness: the LP value is attained by the network itself
        x_opt = res.assignment[imap.x]
        assert float(evaluate(net, x_opt)[0]) == pytest.approx(res.value, abs=1e-6)


@pytest.mark.parametrize("min_adv", [False, True])
def test_triangle_rows_hold_in_every_phase(min_adv):
    """The triangle rows cut off no point the network reaches: each sampled
    feasible x's exact forward pass satisfies every row and bound of the
    node LP of a state that fixes ReLUs as x activates them, with the rest
    (and the ReLUs the bounds fix) as the root leaves them, so the rows are
    checked in the active, inactive and undetermined phase alike."""
    from reluopt.bounds import propagate_symbolic, tighten_lp
    from reluopt.geometry import linf_epigraph
    from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, phase_state

    rng = np.random.default_rng(808 + min_adv)
    checked, phases_seen = 0, set()
    for trial in range(12):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in=n_in, hidden=(int(rng.integers(3, 7)), 4), n_out=2)
        center = rng.uniform(-1.0, 1.0, n_in)
        b = box(center - 0.8, center + 0.8)
        if min_adv:  # maximize -t with epigraph and target rows
            target = Row(None, np.array([1.0, -1.0]), 0.0, Relation.GE, 0.0)
            rows = tuple(linf_epigraph(center)) + (target,)
            problem = OptimizationProblem(b, Objective(c_t=-1.0), rows, 0.8, x0=center)
        else:
            problem = OptimizationProblem(b, Objective(c_y=rng.normal(size=2)))
        bounds = propagate_symbolic(net, b)
        if trial % 3 == 0:
            bounds = tighten_lp(net, b, bounds, 5.0)
        relaxation = encode_relaxation(net, problem, bounds)
        undetermined = relaxation.phase == UNDETERMINED
        n_rows = sum(layer.out_width for layer in net.layers)
        n_rows += 2 * np.count_nonzero(undetermined) + len(problem.rows)
        assert relaxation.lp.matrix.shape[0] == n_rows  # a link and a triangle row per open ReLU
        for x in b.sample(rng, 40):
            if not problem.rows_satisfied(net, x, tol=0.0):
                continue
            at_x = np.where(np.concatenate(activation_pattern(net, x)), ACTIVE, INACTIVE)
            phase = np.where(undetermined & (rng.random(len(at_x)) < 0.7), at_x, relaxation.phase)
            lp = build_relaxed_lp(relaxation, phase_state(net, phase))
            assert _true_assignment_feasible(net, lp, relaxation.imap, x, t=problem.t_of(x))
            checked += 1
            phases_seen.update(phase[undetermined])
    assert checked >= 150 and phases_seen == {ACTIVE, INACTIVE, UNDETERMINED}


@pytest.mark.parametrize("min_adv", [False, True])
def test_relus_the_root_fixes_get_no_column_and_no_row(min_adv):
    """Only a ReLU the root bounds leave open has a z column, a link row and
    a triangle row of its own. An active ReLU's z and an identity layer's z
    is its zhat column; an inactive ReLU's z is the one column fixed at 0."""
    from reluopt.bounds import propagate_symbolic, tighten_lp
    from reluopt.geometry import linf_epigraph
    from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED

    rng = np.random.default_rng(909 + min_adv)
    seen = set()
    for trial in range(12):
        n_in = int(rng.integers(2, 4))
        net = random_net(rng, n_in=n_in, hidden=(int(rng.integers(3, 7)), 4), n_out=2)
        center = rng.uniform(-1.0, 1.0, n_in)
        b = box(center - 0.8, center + 0.8)
        if min_adv:  # maximize -t with epigraph and target rows
            target = Row(None, np.array([1.0, -1.0]), 0.0, Relation.GE, 0.0)
            rows = tuple(linf_epigraph(center)) + (target,)
            problem = OptimizationProblem(b, Objective(c_t=-1.0), rows, 0.8, x0=center)
        else:
            problem = OptimizationProblem(b, Objective(c_y=rng.normal(size=2)))
        bounds = propagate_symbolic(net, b)
        if trial % 2:
            bounds = tighten_lp(net, b, bounds, 5.0)
        relaxation = encode_relaxation(net, problem, bounds)
        imap, phase, lp = relaxation.imap, relaxation.phase, relaxation.lp
        n_open = np.count_nonzero(phase == UNDETERMINED)
        widths = sum(layer.out_width for layer in net.layers)
        n_cols = n_in + widths + n_open + problem.use_t + 1
        assert lp.matrix.shape == (widths + 2 * n_open + len(problem.rows), n_cols)

        pre = np.concatenate([imap.pre[k] for k in net.relu_layers])
        post = np.concatenate([imap.post[k] for k in net.relu_layers])
        np.testing.assert_array_equal(post[phase == ACTIVE], pre[phase == ACTIVE])
        np.testing.assert_array_equal(imap.y, imap.pre[-1])  # the identity output layer
        assert (post[phase == INACTIVE] == imap.zero).all()
        assert lp.lower[imap.zero] == lp.upper[imap.zero] == 0.0
        t = [] if imap.t is None else [imap.t]
        columns = np.concatenate([imap.x, *imap.pre, post[phase == UNDETERMINED], t, [imap.zero]])
        np.testing.assert_array_equal(np.sort(columns), np.arange(n_cols))  # each once
        seen.update(phase.tolist())
    assert seen == {ACTIVE, INACTIVE, UNDETERMINED}


def test_one_relu_root_bound_is_the_triangle_value():
    """Maximize z - c x over x in [l, u] with z = relu(x). The triangle row
    z <= u (x - l) / (u - l) makes the root LP the convex hull, whose best
    vertex gives max(-c l, (1 - c) u); without it, z >= 0, z >= x and
    z <= u allow z = u at x = l, the bound u - c l."""
    from reluopt import Activation, Layer, Network
    from reluopt.bounds import propagate_symbolic

    net = Network(
        (
            Layer(np.array([[1.0]]), np.zeros(1), Activation.RELU),
            Layer(np.array([[1.0]]), np.zeros(1), Activation.IDENTITY),
        )
    )
    l, u, c = -1.0, 2.0, 0.5
    problem = OptimizationProblem(box([l], [u]), Objective(c_x=np.array([-c]), c_y=np.array([1.0])))
    relaxation = encode_relaxation(net, problem, propagate_symbolic(net, problem.box))
    res = solve_lp(relaxation.lp)
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(max(-c * l, (1 - c) * u), abs=1e-9)
    assert res.value < u - c * l - 1.0


def test_output_rows_and_epigraph_variable(abs_net):
    # maximize -t s.t. y >= 1 within |x| <= 2 around x0 = 0: min |x| with |x| >= 1.
    from reluopt.geometry import linf_epigraph

    b = box([-2.0], [2.0])
    rows = tuple(linf_epigraph(np.array([0.0]))) + (
        Row(a_x=None, a_y=np.array([1.0]), a_t=0.0, relation=Relation.GE, rhs=1.0),
    )
    # fully fixed on the positive branch: x >= 0 region
    state = phase_state(abs_net, [ACTIVE, INACTIVE])
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
    state = phase_state(abs_net, [INACTIVE, INACTIVE])
    lp, _ = _relaxed_lp(
        abs_net,
        state,
        b,
        output_rows=(Row(None, np.array([1.0]), 0.0, Relation.GE, 1.0),),
        objective=Objective(c_y=np.array([1.0])),
    )
    assert solve_lp(lp).status == LPStatus.INFEASIBLE


def test_check_relu_consistency_gives_each_relus_gap_in_node_order(abs_net):
    b = box([-2.0], [2.0])  # both ReLUs open: each z has a column of its own
    problem = OptimizationProblem(b, Objective())
    relaxation = encode_relaxation(abs_net, problem, propagate_interval(abs_net, b))
    vec = np.zeros(relaxation.imap.n_vars)
    vec[relaxation.zhat] = [2.0, -1.0]
    vec[relaxation.z] = [2.5, 1.0]  # violations 0.5 and 1.0
    np.testing.assert_allclose(check_relu_consistency(relaxation, vec), [0.5, 1.0])
    assert check_relu_consistency(relaxation, vec, at=1) == pytest.approx(1.0)
    np.testing.assert_allclose(check_relu_consistency(relaxation, vec, at=[1, 0]), [1.0, 0.5])
    vec[relaxation.z] = [2.0, 0.0]  # z = max(0, zhat) at both
    assert check_relu_consistency(relaxation, vec).tolist() == [0.0, 0.0]


def test_row_using_t_without_t_variable_raises(abs_net):
    b = box([-1.0], [1.0])
    # a_t present forces the t variable to exist; this is the supported path
    lp, imap = _relaxed_lp(
        abs_net,
        _root(abs_net),
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
    lp = build_relaxed_lp(relaxation, phase_state(abs_net, [UNDETERMINED, INACTIVE]))
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


def _assert_canonical_csc(matrix):
    """HiGHS's column-wise form: int32 indices, a column pointer that ends at
    the entry count, rows in range and sorted within each column, no zeros."""
    assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
    assert matrix.indptr.shape == (matrix.shape[1] + 1,) and matrix.indptr[0] == 0
    assert matrix.indptr[-1] == len(matrix.data) == len(matrix.indices)
    assert (np.diff(matrix.indptr) >= 0).all()
    assert ((matrix.indices >= 0) & (matrix.indices < matrix.shape[0])).all()
    for j in range(matrix.shape[1]):
        assert (np.diff(matrix.indices[matrix.indptr[j] : matrix.indptr[j + 1]]) > 0).all()
    assert (matrix.data != 0.0).all()


@pytest.mark.parametrize("min_adv", [False, True])
def test_relaxation_matrix_is_the_scipy_assembly_of_its_triplets(min_adv, monkeypatch):
    from reluopt.geometry import linf_epigraph

    triplets = []
    build = CSCMatrix.from_triplets.__func__

    def recorded(cls, rows, cols, vals, shape):
        triplets.append((rows, cols, vals, shape))
        return build(cls, rows, cols, vals, shape)

    monkeypatch.setattr(CSCMatrix, "from_triplets", classmethod(recorded))
    rng = np.random.default_rng(77)
    for _ in range(6):
        net = random_net(rng, n_in=3, hidden=(5, 4), n_out=2)
        # zero weights put explicit zeros into the triplets
        layers = []
        for layer in net.layers:
            weights = np.where(rng.random(layer.weights.shape) < 0.3, 0.0, layer.weights)
            layers.append(Layer(weights, layer.biases, layer.activation))
        net = Network(tuple(layers))
        center = rng.uniform(-1.0, 1.0, 3)
        b = box(center - 0.8, center + 0.8)
        if min_adv:
            target = Row(None, np.array([1.0, -1.0]), 0.0, Relation.GE, 0.0)
            problem = OptimizationProblem(b, Objective(c_t=-1.0), (*linf_epigraph(center), target), 0.8)
        else:
            problem = OptimizationProblem(b, Objective(c_y=rng.normal(size=2)))
        triplets.clear()
        matrix = encode_relaxation(net, problem, propagate_interval(net, b)).lp.matrix
        ((rows, cols, vals, shape),) = triplets
        assert (vals == 0.0).any()
        reference = coo_matrix((vals, (rows, cols)), shape=shape)
        assert matrix.shape == shape
        np.testing.assert_array_equal(matrix.toarray(), reference.toarray())
        np.testing.assert_array_equal(np.asarray(matrix), reference.toarray())
        _assert_canonical_csc(matrix)
        # entry for entry the matrix scipy's CSC conversion gives
        reference = reference.tocsc()
        reference.eliminate_zeros()
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(matrix, field), getattr(reference, field))


def test_from_rows_builds_the_csc_of_its_dense_rows():
    rows = [
        (np.array([0.0, 2.0, 0.0]), Relation.LE, 1.0),
        (np.array([-1.0, 0.0, 0.0]), Relation.GE, -1.0),
        (np.array([0.0, 3.0, 0.0]), Relation.LE, 2.0),
    ]
    lp = LinearProgram.from_rows(rows, np.zeros(3), np.ones(3), np.ones(3))
    assert lp.matrix.shape == (3, 3)
    np.testing.assert_array_equal(lp.matrix.toarray(), [coeffs for coeffs, _, _ in rows])
    np.testing.assert_array_equal(lp.matrix.indptr, [0, 1, 3, 3])  # column 2 is all zero
    np.testing.assert_array_equal(lp.matrix.indices, [1, 0, 2])
    _assert_canonical_csc(lp.matrix)
    assert solve_lp(lp).value == pytest.approx(1.0 + 0.5 + 1.0)

    empty = LinearProgram.from_rows([], np.zeros(2), np.ones(2), np.array([1.0, -1.0]))
    assert empty.matrix.shape == (0, 2) and empty.row_lower.shape == (0,)
    np.testing.assert_array_equal(empty.matrix.indptr, [0, 0, 0])
    _assert_canonical_csc(empty.matrix)
    assert solve_lp(empty).value == pytest.approx(1.0)


def test_node_lp_shares_the_relaxation_matrix_and_reads_as_rows(abs_net):
    b = box([-2.0], [2.0])
    problem = OptimizationProblem(b, Objective())
    relaxation = encode_relaxation(abs_net, problem, propagate_interval(abs_net, b))
    state = phase_state(abs_net, [ACTIVE, UNDETERMINED])
    lp = build_relaxed_lp(relaxation, state)
    assert lp.matrix is relaxation.lp.matrix
    rows = list(lp.rows)
    assert len(rows) == len(lp.rows) == lp.matrix.shape[0]
    np.testing.assert_array_equal([row.coeffs for row in rows], lp.matrix.toarray())
    # the active node's link row z - zhat is an equality, the other's an inequality
    links = {rows[row].relation for row in relaxation.link}
    assert links == {Relation.EQ, Relation.GE}
    assert rows[relaxation.link[0]].relation is Relation.EQ


def _reference_node_vectors(net, problem, bounds, state, relaxation):
    """The node LP's row upper bounds and column bounds, built node by node
    from the bounds map and the state's phase vector: the reference that
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
        for j, post in enumerate(imap.post[k]):  # a z aliased to its zhat: both intervals
            lower[post] = max(lower[post], post_lower[j])
            upper[post] = min(upper[post], bounds.post_upper[k][j])
    if imap.t is not None:
        lower[imap.t] = 0.0
        upper[imap.t] = problem.t_upper
    lower[imap.zero] = upper[imap.zero] = 0.0

    dense = relaxation.lp.matrix.toarray()
    row_upper = relaxation.lp.row_upper.copy()
    for i, node in enumerate(net.relu_node_ids()):
        if state.phase[i] == UNDETERMINED:
            continue
        pre = int(imap.pre[net.relu_layers[node.layer]][node.node])
        post = int(imap.post[net.relu_layers[node.layer]][node.node])
        if state.phase[i] == ACTIVE:
            if relaxation.phase[i] == UNDETERMINED:  # a ReLU the root bounds fix has no link row
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
            u = rng.random(net.num_relu_nodes)
            state = phase_state(
                net, np.where(u < 0.3, ACTIVE, np.where(u < 0.6, INACTIVE, UNDETERMINED))
            )
            lp = build_relaxed_lp(relaxation, state)
            assert lp.matrix is relaxation.lp.matrix
            assert lp.row_lower is relaxation.lp.row_lower
            assert lp.objective is relaxation.lp.objective
            expected = _reference_node_vectors(net, problem, bounds, state, relaxation)
            for got, want in zip((lp.row_upper, lp.lower, lp.upper), expected):
                assert got.tobytes() == want.tobytes()
