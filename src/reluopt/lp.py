"""Linear programs: representation, solving, and construction of the
relaxed LP for a partial activation state.

A `LinearProgram` is the form HiGHS takes: one sparse CSC matrix A (a
`CSCMatrix`, three numpy arrays) and the vectors of row_lower <= A v <=
row_upper, lower <= v <= upper, and the costs. The relaxed LP of a network
has one matrix in every state. Only the ReLUs whose root bounds [l, u]
straddle zero (open ReLUs) get columns: a zhat column in an affine row, a
z column, a link row z - zhat >= 0 and a triangle row z - s zhat <= -s l,
s = u / (u - l). A ReLU the root bounds fix is linear, and identity layers
are too, so they are substituted out: each affine row gives an open
ReLU's pre-activation over x and the z of the open ReLUs before it, and
the problem rows and the objective read the output the same way.
`encode_relaxation` builds it once per problem, column bounds included,
as the root LP, and a state changes only bounds, each ReLU's by one rule
(`_phase_bounds`). With z in [0, u], open ReLUs are relaxed to their
convex hull over [l, u]: z >= 0, z >= zhat and the triangle face (Ehlers
2017). The triangle row holds in every phase (z = zhat <= u, or z = 0
with zhat >= l), so it never changes with the state, and fully fixed
leaves are exact. LPs that share the matrix object are re-solved in one
live HiGHS model (reluopt.highs) by bound and cost changes, the first from
HiGHS's slack basis.
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
from .model import Activation, Network
from .problems import Relation
from .state import ACTIVE, INACTIVE, UNDETERMINED

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
    row has a finite side; no bound or cost is NaN."""

    matrix: CSCMatrix
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
    without one, `lp` is solved cold in a fresh model, released after. Raises
    Timeout when `time_limit` stops the solve and NumericalFailure when the
    backend gives up otherwise, rather than returning a possibly-wrong answer.
    """
    if model is not None:
        return model.solve(lp, time_limit)
    with highs.LiveModel() as model:
        return model.solve(lp, time_limit)


# ---------------------------------------------------------------------------
# Relaxed LP for a partial activation state


@dataclass(frozen=True)
class VariableIndexMap:
    """Column bookkeeping: x, then per ReLU layer the zhat and then the z of
    each of its ReLUs that the root phases leave open, then t, then `zero`,
    a column fixed at 0 that every fixed ReLU's zhat and z point at, and
    `one`, a column fixed at 1 whose cost is the objective's constant."""

    x: np.ndarray
    t: Optional[int]
    zero: int
    one: int
    n_vars: int


@dataclass(frozen=True)
class Relaxation:
    """A problem's root LP: its relaxed LP with the phases its bounds fix
    built in and every other ReLU undetermined, column bounds included.
    Encode once per problem; every node LP shares its matrix. `zhat` and `z`
    give each ReLU's columns (the `zero` column for a ReLU its bounds fix),
    `link` its link row and `triangle` its triangle row (-1 where its bounds
    fix it), `phase` (read-only) the phase its bounds fix (`bounds.phases`)
    and `by_phase` its bounds in each phase (`_phase_bounds`), in
    `net.relu_node_ids()` order."""

    imap: VariableIndexMap
    lp: LinearProgram
    link: np.ndarray
    triangle: np.ndarray
    zhat: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    by_phase: np.ndarray


def encode_relaxation(
    net: Network, problem: "OptimizationProblem", bounds: "BoundsMap"
) -> Relaxation:
    """The root LP of `problem` on `net`, over x, the zhat and z of each
    ReLU its `bounds` leave open, t and two fixed columns: x in the box,
    each open zhat in its pre bounds and z in its post bounds with z >= 0,
    and t in [0, t_upper].

    One forward pass keeps each layer's output as an affine map of the
    columns. A ReLU the bounds fix is substituted out: an active one passes
    its pre-activation on, an inactive one gives 0. An open ReLU gets an
    affine row zhat - (its pre-activation) = constant, a link row and a
    triangle row, and its z column carries it on. The output map y = Y v +
    y0 is substituted into the objective and the problem rows; the
    objective's constant c_y.y0 is the cost of the `one` column, so every
    LP value includes it.

    This is exact. The bounds are sound over the box, so every x in the box
    has each fixed ReLU in its root phase, and a leaf's LP is the network
    itself on its region. At an inner node, the zhat bounds dropped with the
    fixed ReLUs are implied or only loosen the LP: back-substitution bounds
    are nonnegative combinations of rows this LP keeps (the box, the exact
    fixed ReLUs, and z >= 0, z >= zhat and the triangle face)."""
    phase = phases(bounds)
    phase.flags.writeable = False
    free = phase == UNDETERMINED
    n, n_open, use_t = net.input_dim, int(np.count_nonzero(free)), problem.use_t
    zero = n + 2 * n_open + int(use_t)
    imap = VariableIndexMap(np.arange(n), zero - 1 if use_t else None, zero, zero + 1, zero + 2)
    zhat, z = np.full(len(phase), zero), np.full(len(phase), zero)
    everything = np.arange(imap.n_vars)
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

    # The forward pass: the layer output so far is `out @ v + out0`.
    out, out0 = np.eye(n, imap.n_vars), np.zeros(n)
    cursor, first = n, 0  # the next column; the index in `phase` of the next ReLU
    for layer in net.layers:
        out, out0 = layer.weights @ out, layer.weights @ out0 + layer.biases
        if layer.activation is not Activation.RELU:
            continue
        layer_phase = phase[first : first + layer.out_width]
        open_ = np.flatnonzero(layer_phase == UNDETERMINED)
        own = first + open_
        zhat[own] = cursor + np.arange(len(own))
        z[own] = zhat[own] + len(own)
        pieces = (zhat[own, None], 1.0), (everything, -out[open_])
        add(out0[open_], out0[open_], *pieces)
        gone = layer_phase != ACTIVE
        out[gone], out0[gone] = 0.0, 0.0
        out[open_, z[own]] = 1.0
        cursor, first = cursor + 2 * len(open_), first + layer.out_width

    # A link row z - zhat >= 0 and a triangle row z - s zhat <= -s l per open ReLU.
    z_free, zhat_free = z[free][:, None], zhat[free][:, None]
    zeros = np.zeros(n_open)
    link, triangle = np.full(len(phase), -1), np.full(len(phase), -1)
    link[free] = add(zeros, zeros + np.inf, (z_free, 1.0), (zhat_free, -1.0))
    relu = lambda side: np.concatenate([np.empty(0), *(side[k] for k in net.relu_layers)])[free]
    l, u = relu(bounds.pre_lower), relu(bounds.pre_upper)
    s = u / (u - l)
    triangle[free] = add(
        np.full_like(s, -np.inf), -s * l, (z_free, 1.0), (zhat_free, -s[:, None])
    )

    def linear(c_x, c_y, c_t) -> tuple[np.ndarray, float]:
        """c_x.x + c_y.y + c_t.t as coefficients over the columns and a constant."""
        coeffs, constant = np.zeros(imap.n_vars), 0.0
        if c_y is not None:
            coeffs, constant = c_y @ out, float(c_y @ out0)
        if c_x is not None:
            coeffs[imap.x] += c_x
        if c_t:
            coeffs[imap.t] = c_t
        return coeffs, constant

    # The problem rows, as one block of dense coefficients.
    if problem.rows:
        coeffs, constants = zip(*(linear(r.a_x, r.a_y, r.a_t) for r in problem.rows))
        lower, upper = np.array(
            [row_sides(r.relation, float(r.rhs) - c) for r, c in zip(problem.rows, constants)]
        ).T
        add(lower, upper, (everything, np.array(coeffs)))

    row_lower, row_upper = (np.concatenate(side).astype(np.float64) for side in zip(*sides))
    rows, cols, vals = np.concatenate(entries, axis=1)
    shape = (len(row_lower), imap.n_vars)
    matrix = CSCMatrix.from_triplets(rows.astype(np.intp), cols.astype(np.intp), vals, shape)

    objective = problem.objective
    obj, constant = linear(objective.c_x, objective.c_y, objective.c_t)
    obj[imap.one] = constant

    lower = np.full(imap.n_vars, -np.inf)
    upper = np.full(imap.n_vars, np.inf)
    lower[imap.x], upper[imap.x] = problem.box.lower, problem.box.upper
    lower[zhat[free]], upper[zhat[free]] = l, u
    lower[z[free]] = np.maximum(relu(bounds.post_lower), 0.0)  # z >= 0
    upper[z[free]] = relu(bounds.post_upper)
    if use_t:
        lower[imap.t], upper[imap.t] = 0.0, problem.t_upper
    lower[imap.zero] = upper[imap.zero] = 0.0
    lower[imap.one] = upper[imap.one] = 1.0

    return Relaxation(
        imap,
        LinearProgram(matrix, row_lower, row_upper, lower, upper, obj),
        link=link,
        triangle=triangle,
        zhat=zhat,
        z=z,
        phase=phase,
        by_phase=_phase_bounds(lower, upper, zhat, z, free),
    )


def _phase_bounds(lower, upper, zhat, z, free) -> np.ndarray:
    """The one rule that makes a phase LP bounds: `[p, i]` is ReLU i's zhat
    lower, zhat upper, z lower, z upper and link-row upper bound in phase p
    (0, ACTIVE or INACTIVE as an index). Active adds zhat >= 0 and, when
    `free` (open at the root), z = zhat; inactive zhat <= 0 and, when free,
    z <= 0. A fixed ReLU's columns are the zero column in every phase."""
    root = np.array((lower[zhat], upper[zhat], lower[z], upper[z], np.full(len(z), np.inf))).T
    table = np.array((root, root, root))
    table[ACTIVE, :, 0] = np.maximum(root[:, 0], 0.0)
    table[ACTIVE, free, 4] = 0.0
    table[INACTIVE, :, 1] = np.minimum(root[:, 1], 0.0)
    table[INACTIVE, free, 3] = np.minimum(root[free, 3], 0.0)
    return table


def build_relaxed_lp(relaxation: Relaxation, phase: np.ndarray) -> LinearProgram:
    """The relaxed LP of the phase vector `phase`: the root LP with each
    ReLU's bounds in its phase, as `Relaxation.by_phase` gives them. It
    shares the root LP's matrix."""
    root = relaxation.lp
    row_upper, lower, upper = root.row_upper.copy(), root.lower.copy(), root.upper.copy()
    b = relaxation.by_phase[phase, np.arange(len(phase))]
    lower[relaxation.z], upper[relaxation.z] = b[:, 2], b[:, 3]
    lower[relaxation.zhat], upper[relaxation.zhat] = b[:, 0], b[:, 1]
    own = relaxation.link >= 0
    row_upper[relaxation.link[own]] = b[own, 4]
    return root._derive(row_upper=row_upper, lower=lower, upper=upper)


def split_assignment(relaxation: Relaxation, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each ReLU's zhat and z at a full LP assignment vector, in
    `net.relu_node_ids()` order (0 for a ReLU the root fixes). No caller in
    the package: perfbench's tracer wraps it by name in `search`."""
    return vec[relaxation.zhat], vec[relaxation.z]


def check_relu_consistency(relaxation: Relaxation, vec: np.ndarray) -> np.ndarray:
    """|z - max(0, zhat)| at the LP point `vec` for each ReLU, in
    `net.relu_node_ids()` order: 0 where the point satisfies the ReLU
    exactly, and for every ReLU the root fixes."""
    return np.abs(vec[relaxation.z] - np.maximum(0.0, vec[relaxation.zhat]))
