"""Gradient-based approximate solvers. The single-step sign method and
projected gradient ascent return box-feasible points, whose values
lower-bound the exact optimum of c.f(x) over the box; `ray_witness` returns
a feasible point on the gradient ray from a problem's reference point."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .geometry import Hyperrectangle
from .model import Activation, Network, evaluate, gradient
from .problems import OptimizationProblem, Relation

RAY_GRID = 32


def fgsm(net: Network, x0, c, box: Hyperrectangle) -> tuple[np.ndarray, float]:
    """One signed-gradient step of the per-dimension box radius, clipped."""
    x0 = np.asarray(x0, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    step = box.radius * np.sign(gradient(net, x0, c))
    x = np.clip(x0 + step, box.lower, box.upper)
    return x, float(c @ evaluate(net, x))


def pgd(
    net: Network,
    x0,
    c,
    box: Hyperrectangle,
    steps: int = 1000,
    step_size: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, float]:
    """Projected signed-gradient ascent; returns the best iterate seen
    (the start point included)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x0, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    step = box.radius / 10.0 if step_size is None else np.asarray(step_size, dtype=np.float64)
    best_x, best_v = x, float(c @ evaluate(net, x))
    for _ in range(steps):
        x = np.clip(x + step * np.sign(gradient(net, x, c)), box.lower, box.upper)
        v = float(c @ evaluate(net, x))
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def ray_witness(
    net: Network, problem: OptimizationProblem
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """A point of the box that meets every row, found with no LP, and its
    output. Of the points clip(x0 + t d), for RAY_GRID values of t in
    (0, t_max], it takes the first that meets every row, then the first of
    RAY_GRID between it and the grid point below. d is the sign of the
    gradient at x0 of the rows over outputs, each signed to gain slack, and
    t_max the smaller of `t_upper` and the box's farthest L-inf distance
    from x0. None when `x0` is not set, a row is an equality, or no grid
    point meets every row."""
    x0, box = problem.x0, problem.box
    if x0 is None or any(r.relation is Relation.EQ for r in problem.rows):
        return None
    c = np.zeros(net.output_dim)
    for r in problem.rows:
        if r.a_y is not None:
            c += r.a_y if r.relation is Relation.GE else -r.a_y
    d = np.sign(gradient(net, x0, c))

    def first(ts: np.ndarray) -> Optional[int]:
        """The index of the first t whose point meets every row, or None."""
        xs = np.clip(x0 + np.outer(ts, d), box.lower, box.upper)
        ys = xs
        for layer in net.layers:  # one forward pass for the whole grid
            ys = ys @ layer.weights.T + layer.biases
            if layer.activation is Activation.RELU:
                ys = np.maximum(ys, 0.0)
        t = np.max(np.abs(xs - x0), axis=1)
        meets = t <= problem.t_upper
        for r in problem.rows:
            v = r.value(xs.T, ys.T, t)
            meets &= v >= r.rhs if r.relation is Relation.GE else v <= r.rhs
        return int(np.argmax(meets)) if meets.any() else None

    t_max = min(problem.t_upper, float(np.max(np.maximum(x0 - box.lower, box.upper - x0))))
    grid = t_max * np.arange(1, RAY_GRID + 1) / RAY_GRID
    if (i := first(grid)) is None:
        return None
    fine = np.linspace(grid[i - 1] if i else 0.0, grid[i], RAY_GRID + 1)[1:]
    j = first(fine)
    x = np.clip(x0 + (grid[i] if j is None else fine[j]) * d, box.lower, box.upper)
    y = evaluate(net, x)
    return (x, y) if problem.row_violation(net, x, y) == 0.0 else None
