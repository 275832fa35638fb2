"""One live HiGHS model, re-solved in place.

A `LiveModel` loads a `LinearProgram` into a HiGHS instance once. Each later
solve of an LP with the same matrix object changes only the row bounds,
column bounds, costs and sense that differ from the LP it solved last, and
re-solves from the basis that solve left behind. After a phase split only
bounds change, so the dual simplex method restarts from a dual-feasible
basis (Huangfu & Hall 2018) instead of from scratch. An LP with another
matrix object is loaded afresh; LPs built from one `reluopt.lp.Relaxation`
share its matrix. The first solve of a loaded LP starts from HiGHS's slack
basis. `solve_phase` changes only the ReLUs whose phase differs from the
last phase solved. A solve answers with an `LPResult`; it and `LPStatus`
are defined here and re-exported by `reluopt.lp`. A released model's HiGHS
instance serves the next `LiveModel`; loading clears its solver state.

The binding is scipy's private extension module `scipy.optimize._highspy._core`,
shipped by the scipy releases `pyproject.toml` allows. It is loaded from its
file (`_load_core`) rather than imported, because importing it by name first
runs `scipy/optimize/__init__.py`, which loads most of scipy and takes longer
than many whole solves.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import NumericalFailure, Timeout

if TYPE_CHECKING:
    from .lp import LinearProgram, Relaxation

_CORE = "scipy.optimize._highspy._core"


def _load_core():
    """scipy's HiGHS extension module, loaded from its file under its real
    name without running any scipy package `__init__`.

    The module is registered in `sys.modules`, so a later `import
    scipy.optimize` gets this same module object; one already there (scipy
    imported first) is reused. pybind11 cannot register the binding's types
    twice, so the file is never loaded a second time."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    if scipy is None:
        raise ImportError("reluopt needs scipy, which is not installed", name="scipy")
    where = os.path.join(scipy.submodule_search_locations[0], "optimize", "_highspy")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(_CORE)
    if spec is None:
        raise ImportError(f"no HiGHS extension module _core in {where}", name=_CORE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return module


_core = _load_core()

# Deterministic, silent, single-threaded; presolve off so that the basis
# left by one solve is the starting point of the next. At HiGHS's default
# primal feasibility tolerance of 1e-7 the dual simplex method may stop at
# a point that breaks a row by that much, so that an optimum is off by as
# much as `bounds.SAFETY_MARGIN`; at 1e-9, optima are exact to 1e-9.
OPTIONS = (
    ("output_flag", False),
    ("presolve", "off"),
    ("threads", 1),
    ("primal_feasibility_tolerance", 1e-9),
)

# Statuses that decide the LP; any other gets one cold re-solve.
_DECIDED = (
    _core.HighsModelStatus.kOptimal,
    _core.HighsModelStatus.kInfeasible,
    _core.HighsModelStatus.kModelError,
    _core.HighsModelStatus.kUnbounded,
    _core.HighsModelStatus.kTimeLimit,
)


class LPStatus:
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(slots=True)
class LPResult:
    status: str
    value: Optional[float] = None
    assignment: Optional[np.ndarray] = None
    iterations: int = 0  # simplex iterations the solve took


def _sense(lp: "LinearProgram"):
    return _core.ObjSense.kMaximize if lp.maximize else _core.ObjSense.kMinimize


_FREE: list = []  # idle HiGHS instances, options reset


class LiveModel:
    """A HiGHS instance that follows the LPs given to `solve` or `solve_phase`."""

    def __init__(self):
        self._highs = _FREE.pop() if _FREE else _core._Highs()
        for name, value in OPTIONS:
            self._highs.setOptionValue(name, value)
        self._matrix = self._relaxation = self._phase = None

    def release(self) -> None:
        """Put the HiGHS instance, options reset, on the free list for the next
        `LiveModel`. This model cannot solve after; an unreleased one's
        instance goes with it. `with LiveModel() as model:` releases on exit."""
        if self._highs is not None:
            self._highs.resetOptions()
            _FREE.append(self._highs)
            self._highs = None

    def __enter__(self) -> "LiveModel":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def _load(self, lp: "LinearProgram") -> None:
        a = lp.matrix
        n_rows, n_cols = a.shape
        status = self._highs.passModel(
            n_cols, n_rows, len(a.data), _core.MatrixFormat.kColwise, _sense(lp), 0.0,
            lp.objective, lp.lower, lp.upper, lp.row_lower, lp.row_upper,
            a.indptr[:-1], a.indices, a.data,
            np.zeros(n_cols, np.int32),  # all continuous: HiGHS refuses an empty vector
        )
        if status == _core.HighsStatus.kError:
            raise NumericalFailure("HiGHS rejected the LP")

    def _sync(self, lp: "LinearProgram") -> None:
        """Make the loaded model equal `lp`: load `lp` when its matrix is
        another object than the last LP's, and otherwise change what differs."""
        matrix, self._matrix = self._matrix, None  # None until the sync succeeds
        self._relaxation = None  # `solve_phase` loads its relaxation afresh
        if lp.matrix is not matrix:
            self._load(lp)
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
                self._highs.changeObjectiveSense(_sense(lp))
        # Copies: a vector changed in place after this solve still differs.
        self._row_lower, self._row_upper = lp.row_lower.copy(), lp.row_upper.copy()
        self._lower, self._upper, self._cost = lp.lower.copy(), lp.upper.copy(), lp.objective.copy()
        self._matrix, self._maximize = lp.matrix, lp.maximize

    def _sync_phase(self, relaxation: "Relaxation", phase: np.ndarray) -> None:
        """Make the model the node LP of `phase`: load the root LP (of the root
        phases) unless loaded, then change each bound whose `by_phase` differs."""
        loaded, last = self._relaxation, self._phase
        self._relaxation = self._matrix = None  # None until the sync succeeds
        if relaxation is not loaded:
            self._load(relaxation.lp)
            last = relaxation.phase
            self._by_phase = relaxation.by_phase.tolist()
            self._columns = relaxation.zhat.tolist(), relaxation.z.tolist()
        table, (zhat, z), changes = self._by_phase, self._columns, []
        for i in (phase != last).nonzero()[0].tolist():
            new, old = table[phase[i]][i], table[last[i]][i]
            if new[4] != old[4]:
                row = int(relaxation.link[i])
                self._highs.changeRowBounds(row, relaxation.lp.row_lower[row], new[4])
            for column, at in ((zhat[i], 0), (z[i], 2)):
                if new[at : at + 2] != old[at : at + 2]:
                    changes.append((column, new[at], new[at + 1]))
        if changes:
            self._highs.changeColsBounds(len(changes), *map(list, zip(*changes)))
        self._relaxation, self._phase = relaxation, np.array(phase, np.int8)

    def _run(self, stop_at: float):
        self._highs.setOptionValue("time_limit", stop_at)
        self._highs.run()
        _, iterations = self._highs.getInfoValue("simplex_iteration_count")
        return self._highs.getModelStatus(), iterations

    def solve(self, lp: "LinearProgram", time_limit: Optional[float] = None) -> "LPResult":
        """Solve `lp`, warm-started from the previous solve's basis.

        Statuses map to `LPStatus`. A status that decides nothing (for
        example unbounded-or-infeasible) gets one cold re-solve; if that
        decides nothing either, NumericalFailure. Raises Timeout when the
        time limit stops the solve."""
        self._sync(lp)
        return self._solve(lp.objective, time_limit)

    def solve_phase(self, relaxation: "Relaxation", phase, time_limit=None) -> "LPResult":
        """Solve the LP `lp.build_relaxed_lp` would build for `phase`, as `solve`."""
        self._sync_phase(relaxation, phase)
        return self._solve(relaxation.lp.objective, time_limit)

    def row_duals(self) -> np.ndarray:
        """The row duals of the last solve, read from the solution HiGHS
        still holds: a solve itself reads none."""
        return np.asarray(self._highs.getSolution().row_dual)

    def _solve(self, objective: np.ndarray, time_limit: Optional[float]) -> "LPResult":
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
            return LPResult(LPStatus.OPTIMAL, float(objective @ x), x, iterations)
        if status in (_core.HighsModelStatus.kInfeasible, _core.HighsModelStatus.kModelError):
            return LPResult(LPStatus.INFEASIBLE, iterations=iterations)
        if status == _core.HighsModelStatus.kUnbounded:
            return LPResult(LPStatus.UNBOUNDED, iterations=iterations)
        if status == _core.HighsModelStatus.kTimeLimit:
            raise Timeout("LP stopped at its time limit")
        raise NumericalFailure(f"LP backend failed: {self._highs.modelStatusToString(status)}")
