"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the package's own linear algebra paths:
forward passes use plain Python loops, gradients use finite differences,
and LPs are checked by brute-force vertex enumeration.
"""

import itertools
import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from reluopt import Activation, Hyperrectangle, Layer, Network, Objective, OptimizationProblem


# ---------------------------------------------------------------------------
# Independent forward pass


def naive_forward(net, x):
    """Pure-Python forward pass used as an oracle for model.evaluate."""
    a = [float(v) for v in x]
    for layer in net.layers:
        out = []
        for r in range(layer.out_width):
            s = float(layer.biases[r])
            for c in range(layer.in_width):
                s += float(layer.weights[r, c]) * a[c]
            if layer.activation is Activation.RELU:
                s = max(0.0, s)
            out.append(s)
        a = out
    return np.array(a)


def fd_gradient(net, x, c, h=1e-6):
    """Central finite differences of c.f(x)."""
    from reluopt import evaluate

    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (c @ evaluate(net, x + e) - c @ evaluate(net, x - e)) / (2 * h)
    return g


def kink_free(net, x, margin=1e-3):
    """True when every ReLU pre-activation is at least `margin` from zero."""
    from reluopt import forward_trace

    trace = forward_trace(net, x)
    return all(
        np.min(np.abs(trace.pre[k])) >= margin for k in net.relu_layers
    )


# ---------------------------------------------------------------------------
# Vertex-enumeration LP oracle (small problems only)


def lp_oracle(lower, upper, rows, objective, maximize=True, tol=1e-8):
    """Maximum of objective.x over {lower <= x <= upper, rows} by enumerating
    basic points: every choice of n constraints from rows+bounds. Returns
    (status, value) with status in {'optimal', 'infeasible'}. Requires a
    bounded feasible set (finite box). Exponential: keep n <= 4, rows <= 8.
    """
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    objective = np.asarray(objective, float)
    n = lower.size
    assert n <= 4, "oracle restricted to tiny LPs"

    # All constraints as a.x <= b (equalities become two inequalities but are
    # also available as exact planes).
    planes = []  # (a, b) candidate active hyperplanes
    ineqs = []  # (a, b) with a.x <= b required
    for row in rows:
        a = np.asarray(row[0], float)
        rel, b = row[1], float(row[2])
        if rel == "<=":
            ineqs.append((a, b))
            planes.append((a, b))
        elif rel == ">=":
            ineqs.append((-a, -b))
            planes.append((a, b))
        else:  # equality
            ineqs.append((a, b))
            ineqs.append((-a, -b))
            planes.append((a, b))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        ineqs.append((e, float(upper[i])))
        ineqs.append((-e, float(-lower[i])))
        planes.append((e, float(upper[i])))
        planes.append((e, float(lower[i])))

    def feasible(x):
        return all(a @ x <= b + tol for a, b in ineqs)

    # Equality rows must always be active.
    eq_planes = [
        (np.asarray(r[0], float), float(r[2])) for r in rows if r[1] == "="
    ]
    best = None
    found_feasible = False
    for combo in itertools.combinations(range(len(planes)), n - len(eq_planes)):
        A = np.array([planes[i][0] for i in combo] + [p[0] for p in eq_planes])
        b = np.array([planes[i][1] for i in combo] + [p[1] for p in eq_planes])
        if A.shape[0] != n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if not feasible(x):
            continue
        found_feasible = True
        v = float(objective @ x)
        if best is None or (v > best if maximize else v < best):
            best = v
    if not found_feasible:
        # Feasibility might still hold in the interior; sample the box.
        rng = np.random.default_rng(0)
        for _ in range(20000):
            x = rng.uniform(lower, upper)
            if feasible(x):
                found_feasible = True
                break
    if not found_feasible:
        return "infeasible", None
    if best is None:
        # Feasible but no vertex found (degenerate); fall back to sampling.
        rng = np.random.default_rng(1)
        best = -math.inf if maximize else math.inf
        for _ in range(20000):
            x = rng.uniform(lower, upper)
            if feasible(x):
                v = float(objective @ x)
                best = max(best, v) if maximize else min(best, v)
    return "optimal", best


# ---------------------------------------------------------------------------
# LP files read by HiGHS's own reader


def read_lp_with_highs(text, names=None):
    """The LP that HiGHS's LP-file reader (`_Highs.readModel`) makes of
    `text`, as dense arrays: `matrix` (rows by columns), `row_names`,
    `row_lower`/`row_upper`, `lower`/`upper`, `cost`, `integer` (a bool
    mask) and `maximize`. Its columns come in `names` order when given
    (each name must be a column the reader made), else in the reader's."""
    from reluopt.highs import _core

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.lp")
        with open(path, "w") as fh:
            fh.write(text)
        h = _core._Highs()
        h.setOptionValue("output_flag", False)
        assert h.readModel(path) == _core.HighsStatus.kOk
    lp = h.getLp()
    a = lp.a_matrix_
    if a.format_ != _core.MatrixFormat.kColwise:
        raise AssertionError("HiGHS read the matrix row-wise")
    matrix = np.zeros((lp.num_row_, lp.num_col_))
    start = np.asarray(a.start_)
    cols = np.repeat(np.arange(lp.num_col_), np.diff(start))
    matrix[np.asarray(a.index_, dtype=int), cols] = a.value_
    integer = np.array([v == _core.HighsVarType.kInteger for v in lp.integrality_], dtype=bool)
    if integer.size == 0:
        integer = np.zeros(lp.num_col_, dtype=bool)
    read_names = list(lp.col_names_)
    order = [read_names.index(name) for name in names] if names is not None else slice(None)
    return SimpleNamespace(
        names=list(names) if names is not None else read_names,
        matrix=matrix[:, order],
        row_names=list(lp.row_names_),
        row_lower=np.asarray(lp.row_lower_),
        row_upper=np.asarray(lp.row_upper_),
        lower=np.asarray(lp.col_lower_)[order],
        upper=np.asarray(lp.col_upper_)[order],
        cost=np.asarray(lp.col_cost_)[order],
        integer=integer[order],
        maximize=lp.sense_ == _core.ObjSense.kMaximize,
    )


# ---------------------------------------------------------------------------
# Network factories


def exact_range_relus(net, seed):
    """The ReLUs that tightening from `seed` gives no LP, their range being
    exact over the box, as a mask in `relu_node_ids()` order: the ones the
    seed leaves open in the first layer in which it leaves one open. Every
    ReLU before them is fixed."""
    from reluopt.bounds import phases
    from reluopt.state import UNDETERMINED

    opened = phases(seed) == UNDETERMINED
    mask = np.zeros(len(opened), bool)
    first = 0
    for width in net.relu_layer_widths():
        layer = slice(first, first + width)
        if opened[layer].any():
            mask[layer] = opened[layer]
            break
        first += width
    return mask


def tighten_over_box(net, b, seed, *args, **kwargs):
    """`tighten_lp` of `seed` over the root LP of a problem on box `b` with
    no rows, encoded from `seed`: the LPs output maximization tightens over."""
    from reluopt import tighten_lp
    from reluopt.lp import encode_relaxation

    relaxation = encode_relaxation(net, OptimizationProblem(b, Objective()), seed)
    return tighten_lp(net, relaxation, seed, *args, **kwargs)


def random_net(rng, n_in=2, hidden=(4,), n_out=1, weight_scale=1.0):
    layers = []
    widths = [n_in, *hidden, n_out]
    for k in range(len(widths) - 1):
        w = rng.normal(0.0, weight_scale / np.sqrt(widths[k]), (widths[k + 1], widths[k]))
        b = rng.normal(0.0, 0.3, widths[k + 1])
        act = Activation.IDENTITY if k == len(widths) - 2 else Activation.RELU
        layers.append(Layer(w, b, act))
    return Network(tuple(layers))


def random_suite_net(rng):
    """Networks in the oracle-suite size band: 2-3 inputs, 4-12 ReLUs, 1-2 outputs."""
    n_in = int(rng.integers(2, 4))
    n_out = int(rng.integers(1, 3))
    if rng.random() < 0.5:
        hidden = (int(rng.integers(4, 13)),)
    else:
        a = int(rng.integers(2, 7))
        b = int(rng.integers(2, 7))
        hidden = (a, b)
    return random_net(rng, n_in, hidden, n_out)


@pytest.fixture
def abs_net():
    """f(x) = |x| = relu(x) + relu(-x), one input, one output."""
    return Network(
        (
            Layer(np.array([[1.0], [-1.0]]), np.zeros(2), Activation.RELU),
            Layer(np.array([[1.0, 1.0]]), np.zeros(1), Activation.IDENTITY),
        )
    )


@pytest.fixture
def hat_net():
    """f(x) = relu(x) - 2*relu(x - 1): a hat with peak 1 at x = 1."""
    return Network(
        (
            Layer(np.array([[1.0], [1.0]]), np.array([0.0, -1.0]), Activation.RELU),
            Layer(np.array([[1.0, -2.0]]), np.zeros(1), Activation.IDENTITY),
        )
    )


def box(lo, hi):
    return Hyperrectangle(np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float)))


def output_max_problem(net, c, lo, hi):
    return OptimizationProblem(box=box(lo, hi), objective=Objective(c_y=np.asarray(c, float)))


def sample_max(net, problem, rng, n=4000):
    """Sampling lower bound on the problem optimum over feasible points."""
    best = -np.inf
    for x in problem.box.sample(rng, n):
        if problem.rows and not problem.rows_satisfied(net, x):
            continue
        best = max(best, problem.objective_at(net, x))
    return best
