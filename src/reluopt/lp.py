"""Linear programs: representation, solving, and construction of the
relaxed LP for a partial activation state.

A `LinearProgram` is the form HiGHS takes: one sparse CSC matrix A and the
vectors of row_lower <= A v <= row_upper, lower <= v <= upper, and the
costs. The relaxed LP of a network has one matrix in every state: the affine
chaining rows, one link row z - zhat >= 0 per ReLU, and the output rows.
`encode_relaxation` builds it once per problem, column bounds included, as
the root LP, and a state changes only vectors. An active ReLU's link row gets
row upper bound 0 (z - zhat = 0) and its zhat lower bound 0; an inactive ReLU
gets zhat <= 0 and z in [0, 0]; every ReLU has z >= 0 as its lower bound.
Undetermined ReLUs are thus relaxed to z >= 0 and z >= zhat, and fully fixed
leaves are exact. LPs that share the matrix object are re-solved in one live
HiGHS model (reluopt.highs) by bound and cost changes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csc_matrix, vstack

from . import highs
from .errors import DimensionMismatch, NumericalFailure, Timeout
from .model import Activation, Network, NodeId
from .problems import Relation
from .state import ACTIVE, INACTIVE, PartialActivationState

if TYPE_CHECKING:
    from .bounds import BoundsMap
    from .problems import OptimizationProblem


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


def row_sides(relation: Relation, rhs: float) -> tuple[float, float]:
    """The row `a.v <relation> rhs` as `lower <= a.v <= upper`."""
    lower = -np.inf if relation is Relation.LE else rhs
    upper = np.inf if relation is Relation.GE else rhs
    return lower, upper


@dataclass(frozen=True)
class LPRow:
    """One row of `LinearProgram.rows`."""

    coeffs: np.ndarray  # dense, full variable length
    relation: Relation
    rhs: float


class RowView(Sequence):
    """The rows of an LP as dense `LPRow`s, built when read; `len` builds
    none. For readers outside the package: the package itself works on the
    matrix and the row bound vectors."""

    def __init__(self, lp: "LinearProgram"):
        self._lp = lp
        self._dense = None

    def __len__(self) -> int:
        return self._lp.matrix.shape[0]

    def __getitem__(self, i: int) -> LPRow:
        lower, upper = float(self._lp.row_lower[i]), float(self._lp.row_upper[i])
        if lower != upper and np.isfinite(lower) and np.isfinite(upper):
            raise ValueError(f"row {i} is bounded on both sides and has no single relation")
        if self._dense is None:
            self._dense = self._lp.matrix.toarray()
        if lower == upper:
            return LPRow(self._dense[i], Relation.EQ, lower)
        if upper == np.inf:
            return LPRow(self._dense[i], Relation.GE, lower)
        return LPRow(self._dense[i], Relation.LE, upper)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize (or minimize) objective.v subject to
    row_lower <= matrix @ v <= row_upper and lower <= v <= upper.

    `matrix` is a scipy.sparse CSC matrix. A row side may be infinite only
    away from its row (-inf below, +inf above), and every row has a finite
    side; no bound or cost is NaN."""

    matrix: csc_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        n_rows, n_vars = self.matrix.shape
        if not self.row_lower.shape == self.row_upper.shape == (n_rows,):
            raise DimensionMismatch("row bound lengths disagree with the row count")
        if not self.lower.shape == self.upper.shape == self.objective.shape == (n_vars,):
            raise DimensionMismatch("bound/objective lengths disagree with the variable count")
        if np.isnan(np.concatenate((self.lower, self.upper, self.objective))).any():
            raise DimensionMismatch("variable bounds and costs must not be NaN")
        # max(lower, -upper) is finite exactly when a row has a finite side,
        # no side is NaN, and no side is the infinity facing its row.
        if not np.isfinite(np.maximum(self.row_lower, -self.row_upper)).all():
            raise DimensionMismatch("every row needs a finite side and no NaN side")

    @classmethod
    def from_rows(cls, rows, lower, upper, objective, maximize: bool = True) -> "LinearProgram":
        """The LP with dense rows `(coeffs, relation, rhs)` over its variables."""
        lower, upper, objective = (np.asarray(v, dtype=float) for v in (lower, upper, objective))
        dense = np.array([coeffs for coeffs, _, _ in rows], dtype=np.float64)
        sides = np.array([row_sides(rel, float(rhs)) for _, rel, rhs in rows])
        row_lower, row_upper = sides.reshape(-1, 2).T.copy()
        matrix = csc_matrix(dense.reshape(len(rows), lower.shape[0]))
        return cls(matrix, row_lower, row_upper, lower, upper, objective, maximize)

    @property
    def n_vars(self) -> int:
        return self.lower.shape[0]

    @property
    def rows(self) -> RowView:
        return RowView(self)

    def with_objective(self, objective: np.ndarray, maximize: bool) -> "LinearProgram":
        """This LP with another cost vector; only that vector is checked."""
        objective = np.asarray(objective, dtype=np.float64)
        if objective.shape != self.objective.shape or np.isnan(objective).any():
            raise DimensionMismatch("the cost vector must match the variables and not be NaN")
        return self._derive(objective=objective, maximize=maximize)

    def _derive(self, **fields) -> "LinearProgram":
        """This LP with `fields` replaced, skipping the checks of
        `__post_init__`. Only for new vectors that keep those checks true,
        as writing 0 or a min/max with 0 into checked vectors does: the
        checks then run once per problem, not once per node LP."""
        lp = object.__new__(type(self))
        lp.__dict__.update(self.__dict__, **fields)
        return lp


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None
    iterations: int = 0  # simplex iterations the solve took


def solve_lp(
    lp: LinearProgram,
    time_limit: Optional[float] = None,
    model: Optional[highs.LiveModel] = None,
) -> LPResult:
    """Solve with the deterministic single-threaded HiGHS backend.

    With a live `model` (from `highs.new_model`) the model is synced to `lp`
    and re-solved warm from its last basis; without one, `lp` is solved
    cold, in a fresh HiGHS model or, when scipy has no HiGHS binding, by
    `linprog`. Raises Timeout when `time_limit` stops the solve and
    NumericalFailure when the backend gives up otherwise, rather than
    returning a possibly-wrong answer.
    """
    if model is None:
        model = highs.new_model()
        if model is None:
            return _solve_linprog(lp, time_limit)
    return model.solve(lp, time_limit)


def _solve_linprog(lp: LinearProgram, time_limit: Optional[float]) -> LPResult:
    a = lp.matrix.tocsr()
    eq = lp.row_lower == lp.row_upper
    le = ~eq & np.isfinite(lp.row_upper)
    ge = ~eq & np.isfinite(lp.row_lower)
    c = -lp.objective if lp.maximize else lp.objective
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit), 0.0)
    res = linprog(
        c,
        A_ub=vstack([a[le], -a[ge]]),
        b_ub=np.concatenate([lp.row_upper[le], -lp.row_lower[ge]]),
        A_eq=a[eq],
        b_eq=lp.row_lower[eq],
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs",
        options=options,
    )
    if res.status == 0:
        x = np.asarray(res.x, dtype=np.float64)
        return LPResult(LPStatus.OPTIMAL, float(lp.objective @ x), x, res.nit)
    if res.status == 2:
        return LPResult(LPStatus.INFEASIBLE, iterations=res.nit)
    if res.status == 3:
        return LPResult(LPStatus.UNBOUNDED, iterations=res.nit)
    if res.status == 1 and time_limit is not None:
        raise Timeout("LP stopped at its time limit")
    raise NumericalFailure(f"LP backend failed: {res.message}")


# ---------------------------------------------------------------------------
# Relaxed LP for a partial activation state


@dataclass(frozen=True)
class VariableIndexMap:
    """Column bookkeeping: x, then per network layer zhat and z, then t."""

    x: np.ndarray
    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]
    t: Optional[int]
    n_vars: int

    @property
    def y(self) -> np.ndarray:
        return self.post[-1]


def _index_map(net: Network, use_t: bool) -> VariableIndexMap:
    n = net.input_dim
    cursor = n
    pre, post = [], []
    for layer in net.layers:
        pre.append(np.arange(cursor, cursor + layer.out_width))
        cursor += layer.out_width
        post.append(np.arange(cursor, cursor + layer.out_width))
        cursor += layer.out_width
    t = cursor if use_t else None
    if use_t:
        cursor += 1
    return VariableIndexMap(
        x=np.arange(n),
        pre=tuple(pre),
        post=tuple(post),
        t=t,
        n_vars=cursor,
    )


@dataclass(frozen=True)
class Relaxation:
    """A problem's root LP: its relaxed LP with every ReLU undetermined,
    column bounds included. Encode once per problem; `build_relaxed_lp`
    derives every node LP from it, sharing its matrix. `link_row`, `zhat`
    and `z` give each ReLU's link row and columns, in `net.relu_node_ids()`
    order."""

    imap: VariableIndexMap
    lp: LinearProgram
    link_row: np.ndarray
    zhat: np.ndarray
    z: np.ndarray


def encode_relaxation(
    net: Network, problem: "OptimizationProblem", bounds: "BoundsMap"
) -> Relaxation:
    """The root LP of `problem` on `net`: x in the box, every zhat and z in
    its `bounds`, z >= 0 for ReLUs, and t in [0, t_upper]."""
    imap = _index_map(net, problem.use_t)
    entries, sides = [], []  # (rows, columns, coeffs) triplets; (lower, upper) per block

    def add(lower, upper, *pieces) -> np.ndarray:
        """Append a block of rows lower <= sum of coeffs * v[columns] <= upper,
        summed over the pieces (columns, coeffs); both broadcast against the
        block's row indices as a column. Returns those row indices."""
        start = sum(len(block_lower) for block_lower, _ in sides)
        rows = np.arange(start, start + len(lower))[:, None]
        for columns, coeffs in pieces:
            zero = 0 * (rows + columns)  # broadcasts as np.broadcast_arrays does, but cheaply
            entries.append((rows + zero, columns + zero, coeffs + zero))
        sides.append((lower, upper))
        return rows[:, 0]

    # Affine chaining: pre_k - W_k . prev = b_k
    for k, layer in enumerate(net.layers):
        prev = imap.x if k == 0 else imap.post[k - 1]
        add(layer.biases, layer.biases, (imap.pre[k][:, None], 1.0), (prev, -layer.weights))

    # Activation rows: a link row per ReLU, then post = pre for identity layers.
    links = []
    for k in net.relu_layers:
        zero = np.zeros(net.layers[k].out_width)
        pieces = (imap.post[k][:, None], 1.0), (imap.pre[k][:, None], -1.0)
        links.append(add(zero, zero + np.inf, *pieces))
    for k, layer in enumerate(net.layers):
        if layer.activation is Activation.IDENTITY:
            zero = np.zeros(layer.out_width)
            add(zero, zero, (imap.post[k][:, None], 1.0), (imap.pre[k][:, None], -1.0))

    for row in problem.rows:
        lower, upper = row_sides(row.relation, float(row.rhs))
        pieces = ((imap.x, row.a_x), (imap.y, row.a_y), (imap.t, row.a_t))
        add([lower], [upper], *((c, a) for c, a in pieces if c is not None and a is not None))

    row_lower, row_upper = (np.concatenate(side).astype(np.float64) for side in zip(*sides))
    rows, cols, vals = (np.concatenate([e[i].ravel() for e in entries]) for i in range(3))
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(row_lower), imap.n_vars)).tocsc()
    matrix.eliminate_zeros()

    objective = problem.objective
    obj = np.zeros(imap.n_vars)
    for index, c in ((imap.x, objective.c_x), (imap.y, objective.c_y), (imap.t, objective.c_t)):
        if index is not None and c is not None:
            obj[index] = c

    lower = np.empty(imap.n_vars)
    upper = np.empty(imap.n_vars)
    lower[imap.x] = problem.box.lower
    upper[imap.x] = problem.box.upper
    for k, layer in enumerate(net.layers):
        lower[imap.pre[k]] = bounds.pre_lower[k]
        upper[imap.pre[k]] = bounds.pre_upper[k]
        post_lower = bounds.post_lower[k]
        if layer.activation is Activation.RELU:
            post_lower = np.maximum(post_lower, 0.0)  # z >= 0
        lower[imap.post[k]] = post_lower
        upper[imap.post[k]] = bounds.post_upper[k]
    if imap.t is not None:
        lower[imap.t] = 0.0
        upper[imap.t] = problem.t_upper

    relu_columns = lambda arrays: np.concatenate([np.empty(0, np.intp), *arrays])
    return Relaxation(
        imap,
        LinearProgram(matrix, row_lower, row_upper, lower, upper, obj),
        link_row=relu_columns(links),
        zhat=relu_columns(imap.pre[k] for k in net.relu_layers),
        z=relu_columns(imap.post[k] for k in net.relu_layers),
    )


def build_relaxed_lp(relaxation: Relaxation, state: PartialActivationState) -> LinearProgram:
    """The relaxed LP of `state`: the root LP with each active ReLU's link
    row made an equality z - zhat = 0 and its zhat >= 0, and each inactive
    ReLU's zhat and z at most 0. It shares the root LP's matrix."""
    root = relaxation.lp
    row_upper, lower, upper = root.row_upper.copy(), root.lower.copy(), root.upper.copy()
    active = state.phase == ACTIVE
    row_upper[relaxation.link_row[active]] = 0.0
    zhat = relaxation.zhat[active]
    lower[zhat] = np.maximum(lower[zhat], 0.0)
    inactive = state.phase == INACTIVE
    for columns in (relaxation.zhat[inactive], relaxation.z[inactive]):
        upper[columns] = np.minimum(upper[columns], 0.0)
    return root._derive(row_upper=row_upper, lower=lower, upper=upper)


def split_assignment(net: Network, imap: VariableIndexMap, vec: np.ndarray):
    """Per-ReLU-layer (pre, post) views of a full LP assignment vector."""
    pre = [vec[imap.pre[k]] for k in net.relu_layers]
    post = [vec[imap.post[k]] for k in net.relu_layers]
    return pre, post


def check_relu_consistency(
    net: Network,
    pre: Sequence[np.ndarray],
    post: Sequence[np.ndarray],
    tol: float,
) -> list[tuple[NodeId, float]]:
    """Nodes where |z - max(0, zhat)| > tol, worst first."""
    violations = []
    for i, k in enumerate(net.relu_layers):
        width = net.layers[k].out_width
        if len(pre[i]) != width or len(post[i]) != width:
            raise DimensionMismatch(f"assignment does not cover ReLU layer {i}")
        gap = np.abs(post[i] - np.maximum(0.0, pre[i]))
        for j in np.nonzero(gap > tol)[0]:
            violations.append((NodeId(i, int(j)), float(gap[j])))
    violations.sort(key=lambda item: (-item[1], item[0]))
    return violations
