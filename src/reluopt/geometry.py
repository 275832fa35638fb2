"""Input boxes and the L-infinity epigraph rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .problems import Relation, Row


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

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(count, self.dim))


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
