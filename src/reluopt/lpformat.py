"""Mixed-integer model container and LP file format serialization.

A `MilpModel` is the form HiGHS takes: a `LinearProgram` with its binaries
relaxed to [0, 1], one name per column and a mask of the binary columns.
The written files follow the industry LP format subset documented in the
README: Maximize/Minimize, Subject To, Bounds, Binary, End. Rows are named
c0, c1, ... in row order and list their terms in column order. Infinite
bounds use the tokens -infinity / +infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram


@dataclass(frozen=True)
class MilpModel:
    lp: LinearProgram
    names: tuple[str, ...]  # one per column
    binary: np.ndarray  # bool, one per column

    def binaries(self) -> list[str]:
        return [self.names[i] for i in np.flatnonzero(self.binary)]

    def feasible(self, values: np.ndarray, tol: float = 1e-9) -> bool:
        """Do the column values meet every column bound and row within `tol`?
        Binaries are checked against [0, 1] only."""
        lp = self.lp
        if np.any(values < lp.lower - tol) or np.any(values > lp.upper + tol):
            return False
        lhs = lp.matrix.toarray() @ values
        return bool(np.all(lhs >= lp.row_lower - tol) and np.all(lhs <= lp.row_upper + tol))


def _terms(names, cols: list[int], coeffs: list[float]) -> list[str]:
    """`+ c name` or `- |c| name` for each column and its nonzero coefficient."""
    return [f"{'-' if c < 0 else '+'} {abs(c):.17g} {names[j]}" for j, c in zip(cols, coeffs)]


def _fmt_sum(terms: list[str], empty: str) -> str:
    """The terms as one sum; `0 <empty>` when there is none."""
    if not terms:
        return f"0 {empty}"
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else text


def _fmt_bound(v: float) -> str:
    return "+infinity" if v == np.inf else "-infinity" if v == -np.inf else f"{v:.17g}"


def _fmt_side(lower: float, upper: float) -> str:
    if lower == upper:
        return f"= {lower:.17g}"
    if upper == np.inf:
        return f">= {lower:.17g}"
    if lower == -np.inf:
        return f"<= {upper:.17g}"
    raise ValueError("a row bounded on both sides has no single relation")


def write_lp_text(model: MilpModel) -> str:
    lp, names = model.lp, model.names
    a = lp.matrix
    # The CSC entries go column by column, so a stable sort by row lists
    # each row's terms in column order.
    order = np.argsort(a.indices, kind="stable")
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))[order]
    terms = _terms(names, cols.tolist(), a.data[order].tolist())
    ends = np.cumsum(np.bincount(a.indices, minlength=a.shape[0])).tolist()
    obj = np.flatnonzero(lp.objective)

    lines = ["Maximize" if lp.maximize else "Minimize"]
    objective = _terms(names, obj.tolist(), lp.objective[obj].tolist())
    lines.append(f" obj: {_fmt_sum(objective, names[0])}")
    lines.append("Subject To")
    sides = zip([0] + ends, ends, lp.row_lower.tolist(), lp.row_upper.tolist())
    for i, (start, end, lower, upper) in enumerate(sides):
        lines.append(f" c{i}: {_fmt_sum(terms[start:end], names[0])} {_fmt_side(lower, upper)}")
    lines.append("Bounds")
    bounds = zip(names, model.binary.tolist(), lp.lower.tolist(), lp.upper.tolist())
    for name, binary, lower, upper in bounds:
        if not binary:
            lines.append(f" {_fmt_bound(lower)} <= {name} <= {_fmt_bound(upper)}")
    binaries = model.binaries()
    if binaries:
        lines.append("Binary")
        lines.extend(f" {name}" for name in binaries)
    lines.append("End")
    return "\n".join(lines) + "\n"
