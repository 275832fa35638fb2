"""Input/output set representations and linear-constraint encodings:
hyperrectangles, polytopes, L-infinity epigraphs, and polytope complements."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .problems import Direction, Relation, Row


@dataclass(frozen=True)
class Hyperrectangle:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("lower/upper must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DimensionMismatch("box bounds must be finite")
        if np.any(lo > hi):
            raise DimensionMismatch("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    def intersect(self, other: "Hyperrectangle") -> "Hyperrectangle":
        return Hyperrectangle(
            np.maximum(self.lower, other.lower), np.minimum(self.upper, other.upper)
        )

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))


@dataclass(frozen=True)
class Polytope:
    """{x : Ax <= b}."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise DimensionMismatch("A row count must equal b length")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(np.all(self.A @ np.asarray(x, dtype=np.float64) <= self.b + tol))


@dataclass(frozen=True)
class LinearObjective:
    """Objective c.y with an explicit direction, as written in problem files."""

    coefficients: np.ndarray
    direction: Direction = Direction.MAXIMIZE

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.float64)
        if not np.all(np.isfinite(c)):
            raise DimensionMismatch("objective coefficients must be finite")
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class HalfspaceDisjunction:
    """Union of halfspaces a_i.x >= b_i (at least one must hold)."""

    halfspaces: tuple[tuple[np.ndarray, float], ...]

    def __post_init__(self):
        if not self.halfspaces:
            raise DimensionMismatch("disjunction must be nonempty")
        object.__setattr__(
            self,
            "halfspaces",
            tuple(
                (np.asarray(a, dtype=np.float64), float(b)) for a, b in self.halfspaces
            ),
        )

    def satisfied_by(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return any(a @ x >= b - tol for a, b in self.halfspaces)


def box_contains(h: Hyperrectangle, x, tol: float) -> bool:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != h.lower.shape:
        raise DimensionMismatch(
            f"point of shape {x.shape} vs box of dimension {h.dim}"
        )
    return bool(np.all(x >= h.lower - tol) and np.all(x <= h.upper + tol))


def complement(p: Polytope) -> HalfspaceDisjunction:
    """Closed relaxation of the complement: one reversed facet per row.
    Boundary points belong to both the polytope and its complement."""
    return HalfspaceDisjunction(
        tuple((p.A[i], float(p.b[i])) for i in range(p.A.shape[0]))
    )


def box_polytope(h: Hyperrectangle) -> Polytope:
    """The 2n-row polytope {x : x <= upper, -x <= -lower}."""
    eye = np.eye(h.dim)
    return Polytope(np.vstack([eye, -eye]), np.concatenate([h.upper, -h.lower]))


def linf_epigraph(x0) -> list[Row]:
    """Rows over (x, y, t) making t an upper bound on ||x - x0||_inf:
    x_i - t <= x0_i and -x_i - t <= -x0_i. Minimizing t (with t >= 0)
    then equals minimizing the L-infinity distance to x0."""
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.all(np.isfinite(x0)):
        raise DimensionMismatch("x0 must be finite")
    n = x0.shape[0]
    rows = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(Row(a_x=e, a_y=None, a_t=-1.0, relation=Relation.LE, rhs=float(x0[i])))
        rows.append(Row(a_x=-e, a_y=None, a_t=-1.0, relation=Relation.LE, rhs=float(-x0[i])))
    return rows
