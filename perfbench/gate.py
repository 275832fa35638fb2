"""Correctness gate: an exact MILP reference for every problem, and a
forward-pass re-check of every reported optimum.

The reference solves the big-M model from `export_milp` with HiGHS MIP
(`scipy.optimize.milp`), which shares no search code with branch-and-bound.
It runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from reluopt.baselines import export_milp, milp_to_lp
from reluopt.bounds import propagate_interval
from reluopt.cli import ResultRecord, canonicalize
from reluopt.model import load_nnet
from reluopt.problems import Relation

# HiGHS MIP accepts points within its feasibility tolerance (1e-6), so a
# min-adversarial optimum read off the MILP can differ from the exact one by
# about that much; 1e-5 leaves room without hiding a wrong optimum.
VALUE_TOL = 1e-5
BOX_TOL = 1e-7
ROW_TOL = 1e-6
# The reported value is the objective evaluated at the argopt, so the
# forward-pass recomputation must agree to round-off.
RECOMPUTE_TOL = 1e-9
# HiGHS MIP occasionally stops with "Solve error" while postsolving a new
# incumbent; the same model then solves without presolve.
MILP_OPTIONS = ({"mip_rel_gap": 0.0}, {"mip_rel_gap": 0.0, "presolve": False})


@dataclass(frozen=True)
class Reference:
    status: str  # "Optimal" or "Infeasible"
    value: Optional[float] = None


def milp_reference(spec) -> Reference:
    """Exact reported-sign optimum of one problem spec via HiGHS MIP."""
    net = load_nnet(spec.network_path())
    query = canonicalize(spec, net)
    problem = query.subproblems[0]
    model, _ = export_milp(net, problem, propagate_interval(net, problem.box))
    lp, index = milp_to_lp(model)
    integrality = np.zeros(lp.n_vars)
    for name in model.binaries():
        integrality[index[name]] = 1
    a = np.array([row.coeffs for row in lp.rows])
    rhs = np.array([row.rhs for row in lp.rows])
    rel = [row.relation for row in lp.rows]
    lower = np.where([r is Relation.LE for r in rel], -np.inf, rhs)
    upper = np.where([r is Relation.GE for r in rel], np.inf, rhs)
    for options in MILP_OPTIONS:
        res = milp(
            -lp.objective if lp.maximize else lp.objective,
            integrality=integrality,
            bounds=Bounds(lp.lower, lp.upper),
            constraints=LinearConstraint(a, lower, upper),
            options=options,
        )
        if res.status == 2:
            return Reference("Infeasible")
        if res.status == 0:
            return Reference("Optimal", query.report_sign * float(lp.objective @ res.x))
    raise RuntimeError(f"{spec.problem_id}: MILP reference failed: {res.message}")


def check(spec, record: ResultRecord, ref: Reference) -> list[str]:
    """Reasons the record disagrees with the reference or fails the
    forward-pass re-check; empty when it passes."""
    pid = spec.problem_id
    if record.status != ref.status:
        return [f"{pid}: status {record.status}, reference {ref.status}"]
    if ref.status == "Infeasible":
        return []
    errors = []
    if abs(record.value - ref.value) > VALUE_TOL * max(1.0, abs(ref.value)):
        errors.append(f"{pid}: value {record.value!r}, reference {ref.value!r}")
    net = load_nnet(spec.network_path())
    query = canonicalize(spec, net)
    problem = query.subproblems[0]
    x = np.asarray(record.argopt, dtype=np.float64)
    if np.any(x < problem.box.lower - BOX_TOL) or np.any(x > problem.box.upper + BOX_TOL):
        errors.append(f"{pid}: argopt outside the input box")
    if not problem.rows_satisfied(net, x, tol=ROW_TOL):
        errors.append(f"{pid}: argopt violates a constraint row")
    recomputed = query.report_sign * problem.objective_at(net, x)
    if abs(recomputed - record.value) > RECOMPUTE_TOL * max(1.0, abs(record.value)):
        errors.append(f"{pid}: objective at argopt {recomputed!r}, reported {record.value!r}")
    return errors
