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
    relaxation."""
    problem = OptimizationProblem(b, objective, output_rows, t_upper)
    relaxation = encode_relaxation(net, problem, propagate_interval(net, b))
    return build_relaxed_lp(relaxation, state), relaxation


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


def _embed(net, relaxation, x, t=0.0):
    """The LP variable vector of the true forward trace at x (and `t`): x,
    each open ReLU's zhat and z, t, and the fixed columns at 0 and 1."""
    trace = forward_trace(net, x)
    imap, free = relaxation.imap, relaxation.phase == UNDETERMINED
    vec = np.zeros(imap.n_vars)
    vec[imap.x] = x
    if imap.t is not None:
        vec[imap.t] = t
    vec[imap.one] = 1.0
    for cols, side in ((relaxation.zhat, trace.pre), (relaxation.z, trace.post)):
        vec[cols[free]] = np.concatenate([side[k] for k in net.relu_layers])[free]
    return vec


def _true_assignment_feasible(net, lp, relaxation, x, tol=1e-6, t=0.0):
    """Embed the true forward trace (and `t`) into the LP variable vector and
    check every row and bound."""
    vec = _embed(net, relaxation, x, t)
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
        lp, relaxation = _relaxed_lp(net, _root(net), b)
        for x in b.sample(rng, 50):
            assert _true_assignment_feasible(net, lp, relaxation, x)


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
        lp = build_relaxed_lp(relaxation, state)
        assert _true_assignment_feasible(net, lp, relaxation, x)
        res = solve_lp(lp)
        assert res.status == LPStatus.OPTIMAL
        assert (check_relu_consistency(relaxation, res.assignment) <= 1e-6).all()
        # exactness: the LP value is attained by the network itself
        x_opt = res.assignment[relaxation.imap.x]
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
        n_rows = 3 * np.count_nonzero(undetermined) + len(problem.rows)
        assert relaxation.lp.matrix.shape[0] == n_rows  # affine, link and triangle per open ReLU
        for x in b.sample(rng, 40):
            if not problem.rows_satisfied(net, x, tol=0.0):
                continue
            at_x = np.where(np.concatenate(activation_pattern(net, x)), ACTIVE, INACTIVE)
            phase = np.where(undetermined & (rng.random(len(at_x)) < 0.7), at_x, relaxation.phase)
            lp = build_relaxed_lp(relaxation, phase_state(net, phase))
            assert _true_assignment_feasible(net, lp, relaxation, x, t=problem.t_of(x))
            checked += 1
            phases_seen.update(phase[undetermined])
    assert checked >= 150 and phases_seen == {ACTIVE, INACTIVE, UNDETERMINED}


@pytest.mark.parametrize("min_adv", [False, True])
def test_relus_the_root_fixes_get_no_column_and_no_row(min_adv):
    """Only a ReLU the root bounds leave open has columns and rows: a zhat
    column in an affine row, a z column, a link row and a triangle row. The
    LP has n + 2 (open ReLUs) + t columns, plus one fixed at 0, which every
    fixed ReLU's zhat and z point at, and one fixed at 1. At the root LP's
    optimum a fixed ReLU's gap is 0."""
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
        free = phase == UNDETERMINED
        n_open = np.count_nonzero(free)
        n_cols = n_in + 2 * n_open + problem.use_t + 2
        assert lp.matrix.shape == (3 * n_open + len(problem.rows), n_cols)

        assert (relaxation.zhat[~free] == imap.zero).all() and (relaxation.z[~free] == imap.zero).all()
        assert (relaxation.link[~free] == -1).all() and (relaxation.triangle[~free] == -1).all()
        assert lp.lower[imap.zero] == lp.upper[imap.zero] == 0.0
        assert lp.lower[imap.one] == lp.upper[imap.one] == 1.0
        t = [] if imap.t is None else [imap.t]
        columns = np.concatenate(
            [imap.x, relaxation.zhat[free], relaxation.z[free], t, [imap.zero, imap.one]]
        )
        np.testing.assert_array_equal(np.sort(columns), np.arange(n_cols))  # each once
        own_rows = np.concatenate([relaxation.link[free], relaxation.triangle[free]])
        assert len(set(own_rows.tolist())) == 2 * n_open

        res = solve_lp(lp)
        if res.status == LPStatus.OPTIMAL:
            assert (check_relu_consistency(relaxation, res.assignment)[~free] == 0.0).all()
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
    lp, relaxation = _relaxed_lp(
        abs_net, state, b, output_rows=rows, objective=Objective(c_t=-1.0), t_upper=2.0
    )
    res = solve_lp(lp)
    assert res.status == LPStatus.OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-6)
    assert res.assignment[relaxation.imap.t] == pytest.approx(1.0, abs=1e-6)


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
    vec[relaxation.z] = [2.0, 0.0]  # z = max(0, zhat) at both
    assert check_relu_consistency(relaxation, vec).tolist() == [0.0, 0.0]


def test_row_using_t_without_t_variable_raises(abs_net):
    b = box([-1.0], [1.0])
    # a_t present forces the t variable to exist; this is the supported path
    _, relaxation = _relaxed_lp(
        abs_net,
        _root(abs_net),
        b,
        output_rows=(Row(np.array([1.0]), None, -1.0, Relation.LE, 0.0),),
    )
    assert relaxation.imap.t is not None


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
    `build_relaxed_lp` must match bit for bit. A ReLU the root bounds fix has
    no columns of its own, whatever the state gives it."""
    imap = relaxation.imap
    lower = np.full(imap.n_vars, -np.inf)
    upper = np.full(imap.n_vars, np.inf)
    lower[imap.x] = problem.box.lower
    upper[imap.x] = problem.box.upper
    if imap.t is not None:
        lower[imap.t] = 0.0
        upper[imap.t] = problem.t_upper
    lower[imap.zero] = upper[imap.zero] = 0.0
    lower[imap.one] = upper[imap.one] = 1.0

    dense = relaxation.lp.matrix.toarray()
    row_upper = relaxation.lp.row_upper.copy()
    for i, node in enumerate(net.relu_node_ids()):
        if relaxation.phase[i] != UNDETERMINED:
            continue
        k, j = net.relu_layers[node.layer], node.node
        pre, post = int(relaxation.zhat[i]), int(relaxation.z[i])
        lower[pre], upper[pre] = bounds.pre_lower[k][j], bounds.pre_upper[k][j]
        lower[post] = max(bounds.post_lower[k][j], 0.0)
        upper[post] = bounds.post_upper[k][j]
        if state[i] == ACTIVE:
            link = np.zeros(imap.n_vars)
            link[[post, pre]] = 1.0, -1.0
            (row,) = np.flatnonzero((dense == link).all(axis=1))  # z - zhat >= 0
            row_upper[row] = 0.0
            lower[pre] = max(lower[pre], 0.0)
        elif state[i] == INACTIVE:
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


@pytest.mark.parametrize("tighten", [False, True])
def test_root_lp_optimum_is_the_relaxed_milp_optimum(tighten):
    """The root LP substitutes out every ReLU its bounds fix, and yet its
    optimum is the optimum of the relaxation of `export_milp`'s model under
    the same bounds, which keeps a zhat and a z column for every ReLU and
    shares no code with `encode_relaxation`. Seeded random nets, with
    back-substitution bounds and with tightened bounds, for output
    maximization and min-adversarial problems."""
    from reluopt import export_milp, milp_to_lp
    from reluopt.bounds import phases, propagate_symbolic, tighten_lp
    from reluopt.geometry import linf_epigraph

    rng = np.random.default_rng(1212 + tighten)
    compared, fixed = {False: 0, True: 0}, 0
    for trial in range(30):
        n_in = int(rng.integers(2, 5))
        hidden = tuple(int(h) for h in rng.integers(3, 9, size=rng.integers(1, 4)))
        net = random_net(rng, n_in=n_in, hidden=hidden, n_out=3)
        center = rng.uniform(-1.0, 1.0, n_in)
        radius = rng.uniform(0.05, 1.0)
        b = box(center - radius, center + radius)
        if trial % 2:
            target = Row(None, np.array([1.0, -1.0, 0.0]), 0.0, Relation.GE, 0.0)
            rows = (*linf_epigraph(center), target)
            problem = OptimizationProblem(b, Objective(c_t=-1.0), rows, radius, x0=center)
        else:
            objective = Objective(c_x=rng.normal(size=n_in), c_y=rng.normal(size=3))
            problem = OptimizationProblem(b, objective)
        bounds = propagate_symbolic(net, b)
        if tighten:
            bounds = tighten_lp(net, b, bounds, 5.0)
        ours = solve_lp(encode_relaxation(net, problem, bounds).lp)
        theirs = solve_lp(milp_to_lp(export_milp(net, problem, bounds)[0])[0])
        assert ours.status == theirs.status
        if theirs.status == LPStatus.OPTIMAL:
            tol = 1e-6 * max(1.0, abs(theirs.value))
            assert ours.value == pytest.approx(theirs.value, rel=0.0, abs=tol)
            compared[problem.use_t] += 1
        fixed += int(np.count_nonzero(phases(bounds) != UNDETERMINED))
    assert min(compared.values()) >= 8 and fixed >= 100


def test_an_output_constant_reaches_the_lp_value_and_the_rows():
    """With output biases far from 0, the output map has a constant y0 that
    the objective and a row over y must read. At the fully fixed state of a
    sampled point, the leaf LP's optimum is the objective at the network's
    own output there, and the row holds there; a constant lost would prune
    wrongly, so the search also gives brute force's value."""
    from reluopt import brute_force_optimize, optimize
    from reluopt.bounds import propagate_symbolic

    rng = np.random.default_rng(321)
    for _ in range(12):
        net = random_net(rng, n_in=2, hidden=(5, 4), n_out=2)
        last = net.layers[-1]
        shifted = Layer(last.weights, last.biases + np.array([5.0, -4.0]), last.activation)
        net = Network((*net.layers[:-1], shifted))
        b = box(-np.ones(2), np.ones(2))
        x = b.sample(rng, 1)[0]
        y = evaluate(net, x)
        row = Row(None, np.array([1.0, -1.0]), 0.0, Relation.LE, float(y[0] - y[1]) + 0.1)
        problem = OptimizationProblem(b, Objective(c_y=rng.normal(size=2)), (row,))
        relaxation = encode_relaxation(net, problem, propagate_symbolic(net, b))
        assert relaxation.lp.objective[relaxation.imap.one] != 0.0

        leaf = np.where(np.concatenate(activation_pattern(net, x)), ACTIVE, INACTIVE)
        res = solve_lp(build_relaxed_lp(relaxation, leaf))
        assert res.status == LPStatus.OPTIMAL  # x is a point of the leaf LP
        x_opt = res.assignment[relaxation.imap.x]
        assert res.value == pytest.approx(problem.objective_at(net, x_opt), abs=1e-6)
        assert res.value >= problem.objective_at(net, x) - 1e-6
        assert problem.row_violation(net, x_opt) <= 1e-6

        result, exact = optimize(net, problem), brute_force_optimize(net, problem)
        assert result.status is exact.status
        assert result.value == pytest.approx(exact.value, abs=1e-6)
