"""Linear programs: representation, solving, and construction of the
relaxed LP for a partial activation state.

A `LinearProgram` is the form HiGHS takes: one sparse CSC matrix A (a
`CSCMatrix`, three numpy arrays) and the vectors of row_lower <= A v <=
row_upper, lower <= v <= upper, and the costs. The relaxed LP of a network
has one matrix in every state. Only the ReLUs whose root bounds [l, u]
straddle zero (open ReLUs) get a z column of their own, with a link row
z - zhat >= 0 and a triangle row z - s zhat <= -s l, s = u / (u - l). A
ReLU the root bounds fix is linear, so its z is eliminated: an active
ReLU's z is its zhat column, an inactive ReLU's z is one shared column
fixed at 0, and an identity layer's z is its zhat column too. The other
rows are the affine chaining rows and the output rows. `encode_relaxation`
builds it once per problem, column bounds included, as the root LP, and a
state changes only bounds, each ReLU's by one rule (`_phase_bounds`). With
z in [0, u], open ReLUs are relaxed to their convex hull over [l, u]:
z >= 0, z >= zhat and the triangle face (Ehlers 2017). The triangle row
holds in every phase (z = zhat <= u, or z = 0 with zhat >= l), so it never
changes with the state, and fully fixed leaves are exact. LPs that
share the matrix object are re-solved in one live HiGHS model
(reluopt.highs) by bound and cost changes; the root LP carries a starting
basis for that model's first solve, whose primal point is the forward pass
at a box vertex.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import highs
from .errors import DimensionMismatch
from .bounds import phases
from .highs import LPResult, LPStatus  # noqa: F401  (re-exported)
from .model import Activation, Network, forward_trace, gradient
from .problems import Relation
from .state import ACTIVE, INACTIVE, UNDETERMINED, PartialActivationState

if TYPE_CHECKING:
    from .bounds import BoundsMap
    from .problems import OptimizationProblem


def __getattr__(name: str):
    # `linprog` is unused here but stays readable by this module's name,
    # because perfbench's tracer wraps it. It resolves only when read, so
    # importing this module does not import scipy.optimize.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


@dataclass(frozen=True, eq=False)
class CSCMatrix:
    """A sparse matrix in the compressed sparse column form HiGHS takes:
    column j holds `data[indptr[j]:indptr[j + 1]]` at rows
    `indices[indptr[j]:indptr[j + 1]]`, sorted, with no zero entry. Indices
    are int32. Compared by identity, as a live model compares matrices."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape: tuple[int, int]) -> "CSCMatrix":
        """The matrix with entry `vals[i]` at `(rows[i], cols[i])`; each
        position may appear once. Zero values are dropped."""
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.argsort(cols * shape[0] + rows)  # column-major; positions are unique
        indptr = np.zeros(shape[1] + 1, np.int32)
        np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
        return cls(
            (int(shape[0]), int(shape[1])),
            indptr,
            rows[order].astype(np.int32),
            vals[order].astype(np.float64),
        )

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        dense[self.indices, cols] = self.data
        return dense

    def __array__(self, dtype=None, copy=None):
        return self.toarray() if dtype is None else self.toarray().astype(dtype, copy=False)


@dataclass(frozen=True)
class LinearProgram:
    """Maximize (or minimize) objective.v subject to
    row_lower <= matrix @ v <= row_upper and lower <= v <= upper.

    `matrix` is a `CSCMatrix`, or any object with its `shape`, `indptr`,
    `indices` and `data` (a scipy.sparse CSC matrix, say). A row side may
    be infinite only away from its row (-inf below, +inf above), and every
    row has a finite side; no bound or cost is NaN. `basis`, when given, is a starting basis
    for a live model's first solve: the status of every column and of every
    row, as `reluopt.highs` codes (AT_LOWER, BASIC, AT_UPPER)."""

    matrix: CSCMatrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    maximize: bool = True
    basis: Optional[tuple[np.ndarray, np.ndarray]] = None

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
        if self.basis is not None and tuple(len(s) for s in self.basis) != (n_vars, n_rows):
            raise DimensionMismatch("the basis needs one status per column and per row")

    @classmethod
    def from_rows(cls, rows, lower, upper, objective, maximize: bool = True) -> "LinearProgram":
        """The LP with dense rows `(coeffs, relation, rhs)` over its variables."""
        lower, upper, objective = (np.asarray(v, dtype=float) for v in (lower, upper, objective))
        dense = np.array([coeffs for coeffs, _, _ in rows], dtype=np.float64)
        dense = dense.reshape(len(rows), lower.shape[0])
        sides = np.array([row_sides(rel, float(rhs)) for _, rel, rhs in rows])
        row_lower, row_upper = sides.reshape(-1, 2).T.copy()
        nonzero = np.nonzero(dense)
        matrix = CSCMatrix.from_triplets(*nonzero, dense[nonzero], dense.shape)
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


def solve_lp(
    lp: LinearProgram,
    time_limit: Optional[float] = None,
    model: Optional[highs.LiveModel] = None,
) -> LPResult:
    """Solve with the deterministic single-threaded HiGHS backend.

    A live `model` is synced to `lp` and re-solved warm from its last basis;
    without one, `lp` is solved cold in a fresh model. Raises Timeout when
    `time_limit` stops the solve and NumericalFailure when the backend gives
    up otherwise, rather than returning a possibly-wrong answer.
    """
    return (model or highs.LiveModel()).solve(lp, time_limit)


# ---------------------------------------------------------------------------
# Relaxed LP for a partial activation state


@dataclass(frozen=True)
class VariableIndexMap:
    """Column bookkeeping: x, then per network layer its zhat and the z of
    each of its ReLUs that the root phases leave open, then t, then `zero`,
    a column fixed at 0. `post` gives every layer's z: an open ReLU's own
    column, an active ReLU's or an identity layer's zhat column (z = zhat),
    and an inactive ReLU's `zero` (z = 0)."""

    x: np.ndarray
    pre: tuple[np.ndarray, ...]
    post: tuple[np.ndarray, ...]
    t: Optional[int]
    zero: int
    n_vars: int

    @property
    def y(self) -> np.ndarray:
        return self.post[-1]


def _index_map(net: Network, use_t: bool, phase: np.ndarray) -> VariableIndexMap:
    """The columns of the relaxed LP whose root phases are `phase`, in
    `net.relu_node_ids()` order."""
    n = net.input_dim
    widths = [layer.out_width for layer in net.layers]
    zero = n + sum(widths) + int(np.count_nonzero(phase == UNDETERMINED)) + int(use_t)
    cursor, first = n, 0  # the next column; the index in `phase` of the next ReLU
    pre, post = [], []
    for layer, width in zip(net.layers, widths):
        columns = np.arange(cursor, cursor + width)
        cursor += width
        pre.append(columns)
        if layer.activation is Activation.RELU:
            layer_phase = phase[first : first + width]
            first += width
            columns = np.where(layer_phase == INACTIVE, zero, columns)
            open_ = layer_phase == UNDETERMINED
            columns[open_] = np.arange(cursor, cursor + np.count_nonzero(open_))
            cursor += np.count_nonzero(open_)
        post.append(columns)
    return VariableIndexMap(
        x=np.arange(n),
        pre=tuple(pre),
        post=tuple(post),
        t=cursor if use_t else None,
        zero=zero,
        n_vars=zero + 1,
    )


@dataclass(frozen=True)
class Relaxation:
    """A problem's root LP: its relaxed LP with the phases its bounds fix
    built in and every other ReLU undetermined, column bounds included.
    Encode once per problem; every node LP shares its matrix. `zhat` and `z`
    give each ReLU's columns, `link` its link row (-1 where its bounds fix
    it), `phase` (read-only) the phase its bounds fix (`bounds.phases`) and
    `by_phase` its bounds in each phase (`_phase_bounds`), in
    `net.relu_node_ids()` order."""

    imap: VariableIndexMap
    lp: LinearProgram
    link: np.ndarray
    zhat: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    by_phase: np.ndarray


def encode_relaxation(
    net: Network, problem: "OptimizationProblem", bounds: "BoundsMap"
) -> Relaxation:
    """The root LP of `problem` on `net`: x in the box, every zhat and z in
    its `bounds` (a z that is its zhat's column in both intervals), z >= 0
    for ReLUs, a link row and a triangle row for each ReLU the bounds leave
    open, t in [0, t_upper], and a starting basis (`_starting_basis`)."""
    phase = phases(bounds)
    phase.flags.writeable = False
    imap = _index_map(net, problem.use_t, phase)
    relu_columns = lambda arrays: np.concatenate([np.empty(0, np.intp), *arrays])
    zhat = relu_columns(imap.pre[k] for k in net.relu_layers)
    z = relu_columns(imap.post[k] for k in net.relu_layers)
    entries, sides = [], []  # (rows, columns, coeffs) triplets; (lower, upper) per block

    def add(lower, upper, *pieces) -> np.ndarray:
        """Append a block of rows lower <= sum of coeffs * v[columns] <= upper,
        summed over the pieces (columns, coeffs); both broadcast against the
        block's row indices as a column. Returns those row indices."""
        start = sum(len(block_lower) for block_lower, _ in sides)
        rows = np.arange(start, start + len(lower))[:, None]
        for columns, coeffs in pieces:
            triplets = np.empty((3, *np.broadcast(rows, columns).shape))  # indices exact as floats
            triplets[0], triplets[1], triplets[2] = rows, columns, coeffs
            entries.append(triplets.reshape(3, -1))
        sides.append((lower, upper))
        return rows[:, 0]

    # Affine chaining: pre_k - W_k . prev = b_k
    affine = []
    for k, layer in enumerate(net.layers):
        prev = imap.x if k == 0 else imap.post[k - 1]
        pieces = (imap.pre[k][:, None], 1.0), (prev, -layer.weights)
        affine.append(add(layer.biases, layer.biases, *pieces))

    # A link row z - zhat >= 0 and a triangle row z - s zhat <= -s l per open ReLU.
    free = phase == UNDETERMINED
    z_free, zhat_free = z[free][:, None], zhat[free][:, None]
    zeros = np.zeros(len(z_free))
    link = np.full(len(phase), -1)
    link[free] = add(zeros, zeros + np.inf, (z_free, 1.0), (zhat_free, -1.0))
    l, u = (
        np.concatenate([np.empty(0), *(side[k] for k in net.relu_layers)])[free]
        for side in (bounds.pre_lower, bounds.pre_upper)
    )
    s = u / (u - l)
    add(np.full_like(s, -np.inf), -s * l, (z_free, 1.0), (zhat_free, -s[:, None]))

    # The problem rows, as one block of dense coefficients.
    if problem.rows:
        coeffs = np.zeros((len(problem.rows), imap.n_vars))
        for i, row in enumerate(problem.rows):
            for columns, a in ((imap.x, row.a_x), (imap.y, row.a_y), (imap.t, row.a_t)):
                if columns is not None and a is not None:
                    coeffs[i, columns] = a
        lower, upper = np.array([row_sides(r.relation, float(r.rhs)) for r in problem.rows]).T
        add(lower, upper, (np.arange(imap.n_vars), coeffs))

    row_lower, row_upper = (np.concatenate(side).astype(np.float64) for side in zip(*sides))
    rows, cols, vals = np.concatenate(entries, axis=1)
    keep = cols != imap.zero  # z = 0 adds nothing to a row
    shape = (len(row_lower), imap.n_vars)
    rows, cols = rows[keep].astype(np.intp), cols[keep].astype(np.intp)
    matrix = CSCMatrix.from_triplets(rows, cols, vals[keep], shape)

    objective = problem.objective
    obj = np.zeros(imap.n_vars)
    for index, c in ((imap.x, objective.c_x), (imap.y, objective.c_y), (imap.t, objective.c_t)):
        if index is not None and c is not None:
            obj[index] = c

    lower = np.full(imap.n_vars, -np.inf)
    upper = np.full(imap.n_vars, np.inf)
    lower[imap.x] = problem.box.lower
    upper[imap.x] = problem.box.upper
    for k, layer in enumerate(net.layers):
        lower[imap.pre[k]] = bounds.pre_lower[k]
        upper[imap.pre[k]] = bounds.pre_upper[k]
        post_lower = bounds.post_lower[k]
        if layer.activation is Activation.RELU:
            post_lower = np.maximum(post_lower, 0.0)  # z >= 0
        # A z that is its zhat's column takes the intersection of both intervals.
        post = imap.post[k]
        lower[post] = np.maximum(lower[post], post_lower)
        upper[post] = np.minimum(upper[post], bounds.post_upper[k])
    if imap.t is not None:
        lower[imap.t] = 0.0
        upper[imap.t] = problem.t_upper
    lower[imap.zero] = upper[imap.zero] = 0.0

    affine = np.concatenate(affine)
    basis = _starting_basis(net, problem, imap, phase, z, link[free], affine, len(row_lower))
    return Relaxation(
        imap,
        LinearProgram(matrix, row_lower, row_upper, lower, upper, obj, basis=basis),
        link=link,
        zhat=zhat,
        z=z,
        phase=phase,
        by_phase=_phase_bounds(lower, upper, zhat, z, free),
    )


def _phase_bounds(lower, upper, zhat, z, free) -> np.ndarray:
    """The one rule that makes a phase LP bounds: `[p, i]` is ReLU i's zhat
    lower, zhat upper, z lower, z upper and link-row upper bound in phase p
    (0, ACTIVE or INACTIVE as an index). Active adds zhat >= 0 and, when
    `free` (open at the root), z = zhat; inactive zhat <= 0 and, when free, z <= 0."""
    root = np.array((lower[zhat], upper[zhat], lower[z], upper[z], np.full(len(z), np.inf))).T
    table = np.array((root, root, root))
    table[ACTIVE, :, 0] = np.maximum(root[:, 0], 0.0)
    table[ACTIVE, free, 4] = 0.0
    table[INACTIVE, :, 1] = np.minimum(root[:, 1], 0.0)
    table[INACTIVE, free, 3] = np.minimum(root[free, 3], 0.0)
    return table


def _starting_basis(
    net: Network,
    problem: "OptimizationProblem",
    imap: VariableIndexMap,
    phase: np.ndarray,
    z: np.ndarray,
    link_row: np.ndarray,
    affine: np.ndarray,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The root LP's starting basis, whose primal point is the forward pass
    at a vertex of the box: the vertex the sign of the objective's gradient
    at the box center picks (the upper bound where it is positive).

    x is nonbasic at that vertex, t and the zero column at 0. Every zhat is
    basic in its affine row, so an active ReLU's or an identity layer's z,
    which is its zhat column, is too. An open ReLU's z is basic with its
    link row at its bound z - zhat = 0 when the ReLU is active at the
    vertex; otherwise z is nonbasic at 0 and its link row is basic. The
    slacks of the triangle and problem rows are basic. In layer order the
    basis matrix is lower triangular with a unit diagonal, so it is
    nonsingular."""
    box, objective = problem.box, problem.objective
    grad = np.zeros(net.input_dim)
    if objective.c_x is not None:
        grad += objective.c_x
    if objective.c_y is not None:
        grad += gradient(net, box.center, objective.c_y)
    pre = forward_trace(net, np.where(grad > 0.0, box.upper, box.lower)).pre
    zhat = np.concatenate([np.empty(0), *(pre[k] for k in net.relu_layers)])
    free = phase == UNDETERMINED
    z_basic = (zhat > 0.0)[free]  # per open ReLU

    cols = np.full(imap.n_vars, highs.BASIC, np.int8)
    cols[imap.x] = np.where(grad > 0.0, highs.AT_UPPER, highs.AT_LOWER)
    cols[z[free][~z_basic]] = highs.AT_LOWER
    cols[imap.zero] = highs.AT_LOWER
    if imap.t is not None:
        cols[imap.t] = highs.AT_LOWER
    rows = np.full(n_rows, highs.BASIC, np.int8)
    rows[affine] = highs.AT_LOWER
    rows[link_row[z_basic]] = highs.AT_LOWER
    return cols, rows


def build_relaxed_lp(relaxation: Relaxation, state: PartialActivationState) -> LinearProgram:
    """The relaxed LP of `state`: the root LP with each ReLU's bounds in its
    phase, as `Relaxation.by_phase` gives them. It shares the root LP's
    matrix."""
    root = relaxation.lp
    row_upper, lower, upper = root.row_upper.copy(), root.lower.copy(), root.upper.copy()
    b = relaxation.by_phase[state.phase, np.arange(len(state.phase))]
    # z first: a z that is its zhat's column takes the zhat entries.
    lower[relaxation.z], upper[relaxation.z] = b[:, 2], b[:, 3]
    lower[relaxation.zhat], upper[relaxation.zhat] = b[:, 0], b[:, 1]
    own = relaxation.link >= 0
    row_upper[relaxation.link[own]] = b[own, 4]
    return root._derive(row_upper=row_upper, lower=lower, upper=upper)


def split_assignment(net: Network, imap: VariableIndexMap, vec: np.ndarray):
    """Per-ReLU-layer (pre, post) views of a full LP assignment vector. No
    caller in the package: perfbench's tracer wraps it by name in `search`."""
    pre = [vec[imap.pre[k]] for k in net.relu_layers]
    post = [vec[imap.post[k]] for k in net.relu_layers]
    return pre, post


def check_relu_consistency(relaxation: Relaxation, vec: np.ndarray, at=slice(None)) -> np.ndarray:
    """|z - max(0, zhat)| at the LP point `vec` for each ReLU, in
    `net.relu_node_ids()` order: 0 where the point satisfies the ReLU
    exactly. `at` (a position, positions or a slice) selects the ReLUs."""
    zhat = vec[relaxation.zhat[at]]
    return np.abs(vec[relaxation.z[at]] - np.maximum(0.0, zhat))
