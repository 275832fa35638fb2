"""Canonical optimization problems over a network: linear rows and
objectives in the joint (x, y, t) space.

Every solver in this package consumes the same canonical form: maximize
c_x.x + c_y.y + c_t.t over x in an input box, subject to linear rows over
(x, y, t), where y = f(x) and t (when enabled) is the L-infinity epigraph
variable with t >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .geometry import Hyperrectangle


class Relation(Enum):
    LE = "<="
    EQ = "="
    GE = ">="


class Direction(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class Row:
    """One linear constraint a_x.x + a_y.y + a_t.t <rel> rhs."""

    a_x: Optional[np.ndarray]
    a_y: Optional[np.ndarray]
    a_t: float
    relation: Relation
    rhs: float

    def __post_init__(self):
        for name in ("a_x", "a_y"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=np.float64))

    def value(self, x, y, t: float = 0.0) -> float:
        total = self.a_t * t
        if self.a_x is not None:
            total += float(self.a_x @ x)
        if self.a_y is not None:
            total += float(self.a_y @ y)
        return total

    def violation(self, x, y, t: float = 0.0) -> float:
        """How far the row is from holding at (x, y, t); 0 where it holds."""
        excess = self.value(x, y, t) - self.rhs
        if self.relation is Relation.LE:
            return max(excess, 0.0)
        if self.relation is Relation.GE:
            return max(-excess, 0.0)
        return abs(excess)

    def satisfied(self, x, y, t: float = 0.0, tol: float = 0.0) -> bool:
        return self.violation(x, y, t) <= tol

    def reversed(self) -> "Row":
        """The closed complement: a.v <= b becomes a.v >= b and vice versa."""
        if self.relation is Relation.EQ:
            raise ValueError("cannot reverse an equality row")
        flipped = Relation.GE if self.relation is Relation.LE else Relation.LE
        return Row(self.a_x, self.a_y, self.a_t, flipped, self.rhs)


@dataclass(frozen=True)
class Objective:
    """Linear objective over (x, y, t); the canonical direction is maximize."""

    c_x: Optional[np.ndarray] = None
    c_y: Optional[np.ndarray] = None
    c_t: float = 0.0

    def __post_init__(self):
        for name in ("c_x", "c_y"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=np.float64))

    def value(self, x, y, t: float = 0.0) -> float:
        total = self.c_t * t
        if self.c_x is not None:
            total += float(self.c_x @ x)
        if self.c_y is not None:
            total += float(self.c_y @ y)
        return total


@dataclass(frozen=True)
class OptimizationProblem:
    """Canonical maximization problem. The epigraph scalar t, with bounds
    [0, t_upper], is enabled when the objective or a row uses it (`use_t`).
    `x0` is carried for min-perturbation problems so solvers can recompute t
    exactly from an input point."""

    box: "Hyperrectangle"
    objective: Objective
    rows: tuple[Row, ...] = ()
    t_upper: float = np.inf
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=np.float64))

    @property
    def use_t(self) -> bool:
        """Whether the problem has the epigraph scalar t: its objective or
        one of its rows gives t a nonzero coefficient."""
        return self.objective.c_t != 0.0 or any(row.a_t for row in self.rows)

    def t_of(self, x) -> float:
        """The tightest feasible epigraph value at input x (0 when the
        problem carries no reference point)."""
        if not self.use_t or self.x0 is None:
            return 0.0
        return float(np.max(np.abs(np.asarray(x, dtype=np.float64) - self.x0)))

    def objective_at(self, net, x) -> float:
        """True objective value at input x (y recomputed by forward pass)."""
        from .model import evaluate

        return self.objective.value(x, evaluate(net, x), self.t_of(x))

    def row_violation(self, net, x) -> float:
        """The most that input x fails a row by, with y recomputed by forward
        pass; 0 when every row holds, NaN when a row evaluates to NaN."""
        from .model import evaluate

        x = np.asarray(x, dtype=np.float64)
        y = evaluate(net, x)
        t = self.t_of(x)
        return float(np.max([0.0, *(r.violation(x, y, t) for r in self.rows)]))

    def violation(self, net, x) -> float:
        """The most that input x leaves the box or fails a row by; 0 when x
        is feasible."""
        x = np.asarray(x, dtype=np.float64)
        outside = np.maximum(self.box.lower - x, x - self.box.upper)
        return float(np.max([self.row_violation(net, x), *outside]))

    def rows_satisfied(self, net, x, tol: float = 1e-6) -> bool:
        return self.row_violation(net, x) <= tol
