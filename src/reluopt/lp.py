"""Linear programs: representation, solving, and construction of the
relaxed LP for a partial activation state.

The relaxed LP has the same rows in every state: the affine chaining rows,
one link row z - zhat >= 0 per ReLU, and the output rows. A state changes
only bounds. An active ReLU's link row becomes z - zhat = 0 and its zhat gets
lower bound 0; an inactive ReLU gets zhat <= 0 and z in [0, 0]; every ReLU
has z >= 0 as its lower bound. Undetermined ReLUs are thus relaxed to
z >= 0 and z >= zhat, and fully fixed leaves are exact. Because only bounds
differ, one live HiGHS model (reluopt.highs) serves every LP of a problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from . import highs
from .errors import DimensionMismatch, NumericalFailure, Timeout
from .model import Activation, Network, NodeId
from .problems import Objective, Relation, Row
from .state import PartialActivationState

if TYPE_CHECKING:
    from .bounds import BoundsMap
    from .geometry import Hyperrectangle

FEASIBILITY_TOL = 1e-6


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPRow:
    coeffs: np.ndarray  # dense, full variable length
    relation: Relation
    rhs: float

    def __post_init__(self):
        if not math.isfinite(self.rhs):
            raise DimensionMismatch("row rhs must be finite")


@dataclass(frozen=True)
class LinearProgram:
    lower: np.ndarray
    upper: np.ndarray
    rows: tuple[LPRow, ...]
    objective: np.ndarray
    maximize: bool = True

    def __post_init__(self):
        n = self.lower.shape[0]
        if self.upper.shape[0] != n or self.objective.shape[0] != n:
            raise DimensionMismatch("bound/objective lengths disagree")
        for row in self.rows:
            if row.coeffs.shape[0] != n:
                raise DimensionMismatch("row length disagrees with variable count")
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n_vars(self) -> int:
        return self.lower.shape[0]

    def with_objective(self, objective: np.ndarray, maximize: bool) -> "LinearProgram":
        return replace(
            self, objective=np.asarray(objective, dtype=np.float64), maximize=maximize
        )


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
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in lp.rows:
        if row.relation is Relation.LE:
            a_ub.append(row.coeffs)
            b_ub.append(row.rhs)
        elif row.relation is Relation.GE:
            a_ub.append(-row.coeffs)
            b_ub.append(-row.rhs)
        else:
            a_eq.append(row.coeffs)
            b_eq.append(row.rhs)
    c = -lp.objective if lp.maximize else lp.objective
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = max(float(time_limit), 0.0)
    res = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
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
    relu_layers: tuple[int, ...]
    n_vars: int

    def pre_index(self, node: NodeId) -> int:
        return int(self.pre[self.relu_layers[node.layer]][node.node])

    def post_index(self, node: NodeId) -> int:
        return int(self.post[self.relu_layers[node.layer]][node.node])

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
        relu_layers=net.relu_layers,
        n_vars=cursor,
    )


def _expand_row(row: Row, imap: VariableIndexMap) -> LPRow:
    coeffs = np.zeros(imap.n_vars)
    if row.a_x is not None:
        coeffs[imap.x] = row.a_x
    if row.a_y is not None:
        coeffs[imap.y] = row.a_y
    if row.a_t:
        if imap.t is None:
            raise DimensionMismatch("row uses t but the LP has no t variable")
        coeffs[imap.t] = row.a_t
    return LPRow(coeffs, row.relation, float(row.rhs))


@dataclass(frozen=True)
class LinkRow:
    """Where a ReLU node sits in the relaxed LP."""

    index: int  # position of its link row z - zhat >= 0
    eq: LPRow  # the same row as z - zhat = 0, used once the node is active
    pre: int  # column of zhat
    post: int  # column of z


@dataclass(frozen=True)
class Relaxation:
    """The rows and objective of a network's relaxed LP, which no activation
    state changes. Encode once per problem and pass to `build_relaxed_lp`,
    so that every LP of the problem shares these rows."""

    imap: VariableIndexMap
    rows: tuple[LPRow, ...]  # every link row as z - zhat >= 0
    links: dict[NodeId, LinkRow]
    objective: np.ndarray


def encode_relaxation(
    net: Network, output_rows: Sequence[Row] = (), objective: Objective = Objective()
) -> Relaxation:
    use_t = bool(objective.c_t != 0.0 or any(r.a_t for r in output_rows))
    imap = _index_map(net, use_t)
    n_vars = imap.n_vars
    rows: list[LPRow] = []

    # Affine chaining: pre_k - W_k . prev = b_k
    for k, layer in enumerate(net.layers):
        prev = imap.x if k == 0 else imap.post[k - 1]
        for r in range(layer.out_width):
            coeffs = np.zeros(n_vars)
            coeffs[imap.pre[k][r]] = 1.0
            coeffs[prev] = -layer.weights[r]
            rows.append(LPRow(coeffs, Relation.EQ, float(layer.biases[r])))

    def post_minus_pre(k: int, r: int, relation: Relation) -> LPRow:
        coeffs = np.zeros(n_vars)
        coeffs[imap.post[k][r]] = 1.0
        coeffs[imap.pre[k][r]] = -1.0
        return LPRow(coeffs, relation, 0.0)

    # Activation rows: post = pre for identity layers, a link row per ReLU.
    links = {}
    for i, k in enumerate(net.relu_layers):
        for j in range(net.layers[k].out_width):
            row = post_minus_pre(k, j, Relation.GE)
            links[NodeId(i, j)] = LinkRow(
                index=len(rows),
                eq=LPRow(row.coeffs, Relation.EQ, 0.0),
                pre=int(imap.pre[k][j]),
                post=int(imap.post[k][j]),
            )
            rows.append(row)
    for k, layer in enumerate(net.layers):
        if layer.activation is Activation.IDENTITY:
            for r in range(layer.out_width):
                rows.append(post_minus_pre(k, r, Relation.EQ))

    for row in output_rows:
        rows.append(_expand_row(row, imap))

    obj = np.zeros(n_vars)
    if objective.c_x is not None:
        obj[imap.x] = objective.c_x
    if objective.c_y is not None:
        obj[imap.y] = objective.c_y
    if objective.c_t:
        obj[imap.t] = objective.c_t
    return Relaxation(imap, tuple(rows), links, obj)


def build_relaxed_lp(
    net: Network,
    state: PartialActivationState,
    bounds: "BoundsMap",
    input_box: "Hyperrectangle",
    output_rows: Sequence[Row] = (),
    objective: Objective = Objective(),
    t_upper: float = np.inf,
    relaxation: Optional[Relaxation] = None,
) -> tuple[LinearProgram, VariableIndexMap]:
    """The relaxed LP of `state`. `relaxation`, when given, must be
    `encode_relaxation(net, output_rows, objective)`; it is then reused
    instead of encoded again."""
    state.validate(net)
    if relaxation is None:
        relaxation = encode_relaxation(net, output_rows, objective)
    imap = relaxation.imap

    lower = np.full(imap.n_vars, -np.inf)
    upper = np.full(imap.n_vars, np.inf)
    lower[imap.x] = input_box.lower
    upper[imap.x] = input_box.upper
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
        upper[imap.t] = t_upper

    rows = list(relaxation.rows)
    for node in state.active:
        link = relaxation.links[node]
        rows[link.index] = link.eq
        lower[link.pre] = max(lower[link.pre], 0.0)
    for node in state.inactive:
        link = relaxation.links[node]
        upper[link.pre] = min(upper[link.pre], 0.0)
        upper[link.post] = min(upper[link.post], 0.0)

    lp = LinearProgram(lower=lower, upper=upper, rows=tuple(rows), objective=relaxation.objective)
    return lp, imap


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
