"""One live HiGHS model, re-solved in place.

A `LiveModel` loads a `LinearProgram` into a HiGHS instance once. Each later
solve changes only what differs from the LP it solved last (column bounds,
row bounds, costs, sense) and re-solves from the basis that solve left
behind. After a phase split only bounds change, so the dual simplex method
restarts from a dual-feasible basis (Huangfu & Hall 2018) instead of from
scratch. Rows are matched by identity: a row object that is not the one at
its position last time only changes that row's bounds if it has the same
coefficient array, and otherwise the LP is loaded afresh. LPs built from one
`reluopt.lp.Relaxation` share their row objects.

The binding is scipy's private `scipy.optimize._highspy._core`. Older scipy
has no such module; `new_model` then returns None and `reluopt.lp.solve_lp`
solves each LP cold with `scipy.optimize.linprog`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.sparse import csc_matrix

from .errors import NumericalFailure, Timeout
from .problems import Relation

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


def _row_bounds(rows) -> tuple[np.ndarray, np.ndarray]:
    """Each row `a.v <rel> rhs` as `lower <= a.v <= upper`."""
    lower = np.empty(len(rows))
    upper = np.empty(len(rows))
    for i, row in enumerate(rows):
        lower[i] = -math.inf if row.relation is Relation.LE else row.rhs
        upper[i] = math.inf if row.relation is Relation.GE else row.rhs
    return lower, upper


class LiveModel:
    """A HiGHS instance that follows the LPs given to `solve`."""

    def __init__(self):
        self._highs = _core._Highs()
        for name, value in OPTIONS:
            self._highs.setOptionValue(name, value)
        self._rows: tuple = ()
        self._n_vars = -1

    def _load(self, lp: "LinearProgram") -> None:
        n_rows, n_cols = len(lp.rows), lp.n_vars
        dense = np.array([row.coeffs for row in lp.rows]).reshape(n_rows, n_cols)
        matrix = csc_matrix(dense)
        row_lower, row_upper = _row_bounds(lp.rows)
        model = _core.HighsLp()
        model.num_col_, model.num_row_ = n_cols, n_rows
        model.col_cost_ = lp.objective
        model.col_lower_ = lp.lower
        model.col_upper_ = lp.upper
        model.row_lower_ = row_lower
        model.row_upper_ = row_upper
        a = model.a_matrix_
        a.format_ = _core.MatrixFormat.kColwise
        a.num_col_, a.num_row_ = n_cols, n_rows
        a.start_ = matrix.indptr
        a.index_ = matrix.indices
        a.value_ = matrix.data
        if self._highs.passModel(model) == _core.HighsStatus.kError:
            raise NumericalFailure("HiGHS rejected the LP")
        self._rows = lp.rows
        self._n_vars = n_cols
        self._lower, self._upper = lp.lower.copy(), lp.upper.copy()
        self._cost = lp.objective.copy()
        self._maximize = None

    def _sync(self, lp: "LinearProgram") -> None:
        """Make the loaded model equal `lp`, by bound and cost changes when
        `lp` has the loaded rows."""
        changed = self._changed_rows(lp)
        if changed is None:
            self._load(lp)
        else:
            lower, upper = _row_bounds([lp.rows[i] for i in changed])
            for i, lo, hi in zip(changed, lower, upper):
                self._highs.changeRowBounds(i, lo, hi)
            self._rows = lp.rows
            cols = np.flatnonzero((lp.lower != self._lower) | (lp.upper != self._upper))
            if cols.size:
                self._highs.changeColsBounds(
                    cols.size, cols.astype(np.int32), lp.lower[cols], lp.upper[cols]
                )
                self._lower, self._upper = lp.lower.copy(), lp.upper.copy()
            cols = np.flatnonzero(lp.objective != self._cost)
            if cols.size:
                self._highs.changeColsCost(cols.size, cols.astype(np.int32), lp.objective[cols])
                self._cost = lp.objective.copy()
        if lp.maximize != self._maximize:
            sense = _core.ObjSense.kMaximize if lp.maximize else _core.ObjSense.kMinimize
            self._highs.changeObjectiveSense(sense)
            self._maximize = lp.maximize

    def _changed_rows(self, lp: "LinearProgram") -> Optional[list[int]]:
        """Positions of rows whose bounds differ from the loaded model's, or
        None when `lp` does not have the loaded matrix."""
        if lp.n_vars != self._n_vars or len(lp.rows) != len(self._rows):
            return None
        changed = []
        for i, (row, old) in enumerate(zip(lp.rows, self._rows)):
            if row is not old:
                if row.coeffs is not old.coeffs:
                    return None
                changed.append(i)
        return changed

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

