"""One live HiGHS model, re-solved in place.

A `LiveModel` loads a `LinearProgram` into a HiGHS instance once. Each later
solve of an LP with the same matrix object changes only the row bounds,
column bounds, costs and sense that differ from the LP it solved last, and
re-solves from the basis that solve left behind. After a phase split only
bounds change, so the dual simplex method restarts from a dual-feasible
basis (Huangfu & Hall 2018) instead of from scratch. An LP with another
matrix object is loaded afresh; LPs built from one `reluopt.lp.Relaxation`
share its matrix.

The binding is scipy's private `scipy.optimize._highspy._core`. Older scipy
has no such module; `new_model` then returns None and `reluopt.lp.solve_lp`
solves each LP cold with `scipy.optimize.linprog`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import NumericalFailure, Timeout

if TYPE_CHECKING:
    from .lp import LinearProgram, LPResult

try:
    from scipy.optimize._highspy import _core
except ImportError:  # scipy without the HiGHS binding
    _core = None

# Deterministic, silent, single-threaded; presolve off so that the basis
# left by one solve is the starting point of the next.
OPTIONS = (("output_flag", False), ("presolve", "off"), ("threads", 1))

# Statuses that decide the LP; any other gets one cold re-solve.
_DECIDED = (
    ()
    if _core is None
    else (
        _core.HighsModelStatus.kOptimal,
        _core.HighsModelStatus.kInfeasible,
        _core.HighsModelStatus.kModelError,
        _core.HighsModelStatus.kUnbounded,
        _core.HighsModelStatus.kTimeLimit,
    )
)


def new_model() -> Optional["LiveModel"]:
    """An empty live model, or None when scipy has no HiGHS binding."""
    return None if _core is None else LiveModel()


class LiveModel:
    """A HiGHS instance that follows the LPs given to `solve`."""

    def __init__(self):
        self._highs = _core._Highs()
        for name, value in OPTIONS:
            self._highs.setOptionValue(name, value)
        self._matrix = None

    def _load(self, lp: "LinearProgram") -> None:
        n_rows, n_cols = lp.matrix.shape
        model = _core.HighsLp()
        model.num_col_, model.num_row_ = n_cols, n_rows
        model.col_cost_ = lp.objective
        model.col_lower_ = lp.lower
        model.col_upper_ = lp.upper
        model.row_lower_ = lp.row_lower
        model.row_upper_ = lp.row_upper
        a = model.a_matrix_
        a.format_ = _core.MatrixFormat.kColwise
        a.num_col_, a.num_row_ = n_cols, n_rows
        a.start_ = lp.matrix.indptr
        a.index_ = lp.matrix.indices
        a.value_ = lp.matrix.data
        if self._highs.passModel(model) == _core.HighsStatus.kError:
            raise NumericalFailure("HiGHS rejected the LP")

    def _sync(self, lp: "LinearProgram") -> None:
        """Make the loaded model equal `lp`: load `lp` when its matrix is
        another object than the last LP's, and otherwise change what differs."""
        matrix, self._matrix = self._matrix, None  # None until the sync succeeds
        if lp.matrix is not matrix:
            self._load(lp)
            self._maximize = None
        else:
            rows = (lp.row_lower != self._row_lower) | (lp.row_upper != self._row_upper)
            for i in np.flatnonzero(rows):
                self._highs.changeRowBounds(int(i), lp.row_lower[i], lp.row_upper[i])
            cols = np.flatnonzero((lp.lower != self._lower) | (lp.upper != self._upper))
            if cols.size:
                self._highs.changeColsBounds(
                    cols.size, cols.astype(np.int32), lp.lower[cols], lp.upper[cols]
                )
            cols = np.flatnonzero(lp.objective != self._cost)
            if cols.size:
                self._highs.changeColsCost(cols.size, cols.astype(np.int32), lp.objective[cols])
        if lp.maximize != self._maximize:
            sense = _core.ObjSense.kMaximize if lp.maximize else _core.ObjSense.kMinimize
            self._highs.changeObjectiveSense(sense)
        # Copies: a vector changed in place after this solve still differs.
        self._row_lower, self._row_upper = lp.row_lower.copy(), lp.row_upper.copy()
        self._lower, self._upper, self._cost = lp.lower.copy(), lp.upper.copy(), lp.objective.copy()
        self._matrix, self._maximize = lp.matrix, lp.maximize

    def _run(self, stop_at: float):
        self._highs.setOptionValue("time_limit", stop_at)
        self._highs.run()
        _, iterations = self._highs.getInfoValue("simplex_iteration_count")
        return self._highs.getModelStatus(), iterations

    def solve(self, lp: "LinearProgram", time_limit: Optional[float] = None) -> "LPResult":
        """Solve `lp`, warm-started from the previous solve's basis.

        Statuses map as `linprog`'s do. A status that decides nothing (for
        example unbounded-or-infeasible) gets one cold re-solve; if that
        decides nothing either, NumericalFailure. Raises Timeout when the
        time limit stops the solve."""
        from .lp import LPResult, LPStatus

        self._sync(lp)
        # HiGHS measures its time limit on a clock that runs through every
        # solve of this instance, so the limit is set past its reading now.
        stop_at = math.inf
        if time_limit is not None:
            stop_at = self._highs.getRunTime() + max(time_limit, 0.0)
        status, iterations = self._run(stop_at)
        if status not in _DECIDED:
            self._highs.clearSolver()
            status, cold = self._run(stop_at)
            iterations += cold
        if status == _core.HighsModelStatus.kOptimal:
            x = np.asarray(self._highs.getSolution().col_value, dtype=np.float64)
            return LPResult(LPStatus.OPTIMAL, float(lp.objective @ x), x, iterations)
        if status in (_core.HighsModelStatus.kInfeasible, _core.HighsModelStatus.kModelError):
            return LPResult(LPStatus.INFEASIBLE, iterations=iterations)
        if status == _core.HighsModelStatus.kUnbounded:
            return LPResult(LPStatus.UNBOUNDED, iterations=iterations)
        if status == _core.HighsModelStatus.kTimeLimit:
            raise Timeout("LP stopped at its time limit")
        raise NumericalFailure(f"LP backend failed: {self._highs.modelStatusToString(status)}")

