"""Problem specification files, desk-scale query generators, the benchmark
harness, and the command-line interface.

Problem files are plain text, one `key: value` per line, '#' comments.
See README for the full grammar.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import baselines
from .attacks import fgsm, pgd
from .bounds import propagate_symbolic
from .errors import EmptyDomain, ReluOptError, SchemaError
from .geometry import Hyperrectangle, linf_epigraph
from .model import Activation, Layer, Network, evaluate, load_nnet, write_nnet
from .problems import Direction, Objective, OptimizationProblem, Relation, Row
from .search import NodeOrder, SearchConfig, SplitStrategy, Status, optimize

KINDS = ("output_optimization", "min_adversarial_linf")
SOLVERS = ("branch_bound", "bisection", "brute_force", "fgsm", "pgd")
EXACT_SOLVERS = ("branch_bound", "bisection", "brute_force")
APPROX_SOLVERS = ("fgsm", "pgd")

CSV_COLUMNS = [
    "problem_id", "solver", "status", "value", "wall_s", "nodes", "lps", "argopt_path", "error",
    "bound", "gap",
]


@dataclass
class ProblemSpec:
    kind: str
    network: str
    solver: str = "branch_bound"
    problem_id: str = ""
    # output optimization
    objective: Optional[np.ndarray] = None
    direction: Direction = Direction.MAXIMIZE
    input_lower: Optional[np.ndarray] = None
    input_upper: Optional[np.ndarray] = None
    # minimum adversarial perturbation
    x0: Optional[np.ndarray] = None
    radius: Optional[np.ndarray] = None
    domain_lower: Optional[np.ndarray] = None
    domain_upper: Optional[np.ndarray] = None
    target_rows: list[tuple[np.ndarray, Relation, float]] = field(default_factory=list)
    target_label: Optional[int] = None
    true_label: Optional[int] = None
    margin: float = 0.0
    # solver configuration
    timeout: float = 120.0
    gap: float = 1e-4
    split: SplitStrategy = SplitStrategy.EARLIEST_UNFIXED
    order: NodeOrder = NodeOrder.BEST_FIRST
    tighten_timeout: float = 0.0
    base_dir: str = "."

    def network_path(self) -> str:
        if os.path.isabs(self.network):
            return self.network
        return os.path.join(self.base_dir, self.network)


def _fmt_vec(v: np.ndarray) -> str:
    return ",".join(f"{x:.17g}" for x in np.atleast_1d(v))


def serialize_problem(spec: ProblemSpec) -> str:
    """Fixed key order so generate -> parse -> serialize round-trips bytewise."""
    lines = [f"kind: {spec.kind}"]
    lines.append(f"network: {spec.network}")
    if spec.problem_id:
        lines.append(f"problem_id: {spec.problem_id}")
    lines.append(f"solver: {spec.solver}")
    if spec.kind == "output_optimization":
        lines.append(f"objective: {_fmt_vec(spec.objective)}")
        lines.append(f"direction: {spec.direction.value}")
        lines.append(f"input_lower: {_fmt_vec(spec.input_lower)}")
        lines.append(f"input_upper: {_fmt_vec(spec.input_upper)}")
    else:
        lines.append(f"x0: {_fmt_vec(spec.x0)}")
        lines.append(f"radius: {_fmt_vec(spec.radius)}")
        if spec.domain_lower is not None:
            lines.append(f"domain_lower: {_fmt_vec(spec.domain_lower)}")
        if spec.domain_upper is not None:
            lines.append(f"domain_upper: {_fmt_vec(spec.domain_upper)}")
        for a, rel, b in spec.target_rows:
            lines.append(f"target_row: {_fmt_vec(a)} {rel.value} {b:.17g}")
        if spec.target_label is not None:
            lines.append(f"target_label: {spec.target_label}")
        if spec.true_label is not None:
            lines.append(f"true_label: {spec.true_label}")
        if spec.target_label is not None:
            lines.append(f"margin: {spec.margin:.17g}")
    lines.append(f"timeout: {spec.timeout:.17g}")
    lines.append(f"gap: {spec.gap:.17g}")
    lines.append(f"split: {spec.split.value}")
    lines.append(f"order: {spec.order.value}")
    lines.append(f"tighten_timeout: {spec.tighten_timeout:.17g}")
    return "\n".join(lines) + "\n"


def _parse_vec(field_name: str, text: str, allow_inf: bool = False) -> np.ndarray:
    """The comma-separated numbers of a field. NaN is refused always, and
    +-inf unless `allow_inf`."""
    try:
        values = np.array([float(p) for p in text.split(",") if p.strip() != ""])
    except ValueError as exc:
        raise SchemaError(field_name, f"bad numeric list: {exc}") from None
    if not np.isfinite(values).all():
        if np.isnan(values).any():
            raise SchemaError(field_name, "NaN value")
        if not allow_inf:
            raise SchemaError(field_name, "infinite value")
    return values


def _parse_as(name: str, parse, text: str):
    """`parse(text)`; a ValueError becomes a SchemaError naming the key."""
    try:
        return parse(text)
    except ValueError:
        raise SchemaError(name, f"bad value {text!r}") from None


def parse_problem(text: str, base_dir: str = ".") -> ProblemSpec:
    pairs: dict[str, str] = {}
    target_rows: list[tuple[np.ndarray, Relation, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise SchemaError("<line>", f"line {lineno} is not 'key: value'")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "target_row":
            for rel in (Relation.GE, Relation.LE):
                if rel.value in value:
                    lhs, _, rhs = value.partition(rel.value)
                    b = _parse_vec("target_row", rhs)
                    if b.size != 1:
                        raise SchemaError("target_row", "needs one number after the relation")
                    target_rows.append((_parse_vec("target_row", lhs), rel, float(b[0])))
                    break
            else:
                raise SchemaError("target_row", "needs a <= or >= relation")
        else:
            if key in pairs:
                raise SchemaError(key, "duplicate key")
            pairs[key] = value

    def take(name, default=None, required=False):
        if name not in pairs:
            if required:
                raise SchemaError(name, "missing required field")
            return default
        return pairs.pop(name)

    kind = take("kind", required=True)
    if kind not in KINDS:
        raise SchemaError("kind", f"must be one of {KINDS}")
    network = take("network", required=True)
    solver = take("solver", default="branch_bound")
    if solver not in SOLVERS:
        raise SchemaError("solver", f"must be one of {SOLVERS}")

    spec = ProblemSpec(kind=kind, network=network, solver=solver, base_dir=base_dir)
    spec.problem_id = take("problem_id", default="")
    spec.target_rows = target_rows

    if kind == "output_optimization":
        spec.objective = _parse_vec("objective", take("objective", required=True))
        spec.direction = _parse_as("direction", Direction, take("direction", default="maximize"))
        # An infinite box side parses; the solve reports it as an Error record.
        lower, upper = take("input_lower", required=True), take("input_upper", required=True)
        spec.input_lower = _parse_vec("input_lower", lower, allow_inf=True)
        spec.input_upper = _parse_vec("input_upper", upper, allow_inf=True)
        if spec.input_lower.shape != spec.input_upper.shape:
            raise SchemaError("input_upper", "length differs from input_lower")
    else:
        spec.x0 = _parse_vec("x0", take("x0", required=True))
        spec.radius = _parse_vec("radius", take("radius", required=True))
        if np.any(spec.radius < 0):
            raise SchemaError("radius", "must be nonnegative")
        # An infinite domain side is no limit.
        dl, du = take("domain_lower"), take("domain_upper")
        spec.domain_lower = _parse_vec("domain_lower", dl, allow_inf=True) if dl else None
        spec.domain_upper = _parse_vec("domain_upper", du, allow_inf=True) if du else None
        for name in ("target_label", "true_label"):
            label = take(name)
            setattr(spec, name, None if label is None else _parse_as(name, int, label))
        margin = _parse_vec("margin", take("margin", default="0"))
        if margin.size != 1:
            raise SchemaError("margin", "needs one number")
        spec.margin = float(margin[0])
        if not spec.target_rows and spec.target_label is None:
            raise SchemaError("target_row", "min-adv needs target rows or a target label")
        if spec.target_label is not None and spec.true_label is None:
            raise SchemaError("true_label", "required with target_label")

    # The solver settings, each parsed and then checked; NaN fails both checks.
    anything = lambda v: True
    for name, default, parse, holds, rule in (
        ("timeout", "120", float, lambda v: v > 0, "must be positive"),
        ("gap", "1e-4", float, lambda v: v > 0, "must be positive"),
        ("split", "earliest", SplitStrategy, anything, ""),
        ("order", "best_first", NodeOrder, anything, ""),
        ("tighten_timeout", "0", float, lambda v: v >= 0, "must be nonnegative"),
    ):
        value = _parse_as(name, parse, take(name, default=default))
        if not holds(value):
            raise SchemaError(name, rule)
        setattr(spec, name, value)
    if pairs:
        raise SchemaError(next(iter(pairs)), "unknown field")
    return spec


def load_problem(path: str) -> ProblemSpec:
    with open(path) as fh:
        text = fh.read()
    spec = parse_problem(text, base_dir=os.path.dirname(os.path.abspath(path)))
    if not spec.problem_id:
        spec.problem_id = os.path.splitext(os.path.basename(path))[0]
    return spec


# ---------------------------------------------------------------------------
# Canonicalization


@dataclass(frozen=True)
class CanonicalQuery:
    """The canonical maximization problem plus the reporting transform:
    reported value = report_sign * canonical value. `subproblems` holds
    exactly that one problem."""

    subproblems: tuple[OptimizationProblem, ...]
    report_sign: float


def canonicalize(spec: ProblemSpec, net: Network) -> CanonicalQuery:
    if spec.kind == "output_optimization":
        c = np.asarray(spec.objective, dtype=np.float64)
        if c.shape != (net.output_dim,):
            raise SchemaError("objective", f"length must equal output dim {net.output_dim}")
        if spec.input_lower.shape != (net.input_dim,):
            raise SchemaError("input_lower", f"length must equal input dim {net.input_dim}")
        sign = 1.0
        if spec.direction is Direction.MINIMIZE:
            c, sign = -c, -1.0
        problem = OptimizationProblem(
            box=Hyperrectangle(spec.input_lower, spec.input_upper),
            objective=Objective(c_y=c),
        )
        return CanonicalQuery((problem,), sign)

    x0 = np.asarray(spec.x0, dtype=np.float64)
    if x0.shape != (net.input_dim,):
        raise SchemaError("x0", f"length must equal input dim {net.input_dim}")
    radius = np.asarray(spec.radius, dtype=np.float64)
    if radius.shape not in ((), (1,), x0.shape):
        raise SchemaError("radius", f"needs one value or {net.input_dim}, one per input")
    lower, upper = x0 - radius, x0 + radius
    for name in ("domain_lower", "domain_upper"):
        side = getattr(spec, name)
        if side is not None and np.shape(side) != x0.shape:
            raise SchemaError(name, f"length must equal input dim {net.input_dim}")
    if spec.domain_lower is not None:
        lower = np.maximum(lower, spec.domain_lower)
    if spec.domain_upper is not None:
        upper = np.minimum(upper, spec.domain_upper)
    if np.any(lower > upper):
        raise EmptyDomain("perturbation ball does not intersect the domain")
    box = Hyperrectangle(lower, upper)

    rows = list(linf_epigraph(x0))
    for a, rel, b in spec.target_rows:
        if np.asarray(a).shape != (net.output_dim,):
            raise SchemaError("target_row", f"length must equal output dim {net.output_dim}")
        rows.append(Row(a_x=None, a_y=a, a_t=0.0, relation=rel, rhs=b))
    for name in ("target_label", "true_label"):
        label = getattr(spec, name)
        if label is not None and not 0 <= label < net.output_dim:
            raise SchemaError(name, f"must be an output index in [0, {net.output_dim})")
    if spec.target_label is not None:
        if spec.target_label == spec.true_label:
            raise SchemaError("target_label", "must differ from true_label")
        a = np.zeros(net.output_dim)
        a[spec.target_label] += 1.0
        a[spec.true_label] -= 1.0
        rows.append(Row(a_x=None, a_y=a, a_t=0.0, relation=Relation.GE, rhs=spec.margin))

    t_upper = float(np.max(np.maximum(np.abs(lower - x0), np.abs(upper - x0))))
    problem = OptimizationProblem(
        box=box,
        objective=Objective(c_t=-1.0),
        rows=tuple(rows),
        t_upper=t_upper,
        x0=x0,
    )
    return CanonicalQuery((problem,), -1.0)


# ---------------------------------------------------------------------------
# Query generators (desk-scale stand-ins for the benchmark families)

FAMILIES = ("acas_out", "acas_in", "taxi_out", "mnist_in")
TAXI_RADII = (0.04, 0.08, 0.016)
MNIST_RADIUS = 0.05
MAX_GENERATED_RELUS = 64


def _random_network(rng: np.random.Generator, n_in: int, hidden: Sequence[int], n_out: int) -> Network:
    layers = []
    widths = [n_in, *hidden, n_out]
    for k in range(len(widths) - 1):
        fan_in = widths[k]
        w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(widths[k + 1], fan_in))
        b = rng.normal(0.0, 0.3, size=widths[k + 1])
        act = Activation.IDENTITY if k == len(widths) - 2 else Activation.RELU
        layers.append(Layer(w, b, act))
    return Network(tuple(layers))


def _hidden_widths(scale: int) -> list[int]:
    if scale <= 8:
        return [scale]
    half = scale // 2
    return [half, scale - half]


def generate_queries(
    family: str,
    seed: int,
    count: int,
    scale: int = 8,
    out_dir: str = ".",
) -> list[str]:
    """Write `count` problem files (plus their networks) into out_dir and
    return the problem file paths. Deterministic in `seed`."""
    if family not in FAMILIES:
        raise SchemaError("family", f"must be one of {FAMILIES}")
    if scale < 1 or scale > MAX_GENERATED_RELUS:
        raise SchemaError("scale", f"must be in [1, {MAX_GENERATED_RELUS}]")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    hidden = _hidden_widths(scale)
    paths = []
    for idx in range(count):
        stem = f"{family}_s{seed}_{idx:03d}"
        net_name = f"{stem}.nnet"
        if family == "acas_out":
            n_in, n_out = 3, 5
            net = _random_network(rng, n_in, hidden, n_out)
            center = rng.uniform(-1.0, 1.0, n_in)
            r = 0.25
            real, adv = rng.choice(n_out, size=2, replace=False)
            c = np.zeros(n_out)
            c[real], c[adv] = 1.0, -1.0
            spec = ProblemSpec(
                kind="output_optimization",
                network=net_name,
                objective=c,
                direction=Direction.MAXIMIZE,
                input_lower=center - r,
                input_upper=center + r,
            )
        elif family == "acas_in":
            n_in, n_out = 3, 5
            net = _random_network(rng, n_in, hidden, n_out)
            x0 = rng.uniform(-1.0, 1.0, n_in)
            dim = idx % n_in  # one query per input dimension, cycling
            radius = np.zeros(n_in)
            radius[dim] = 2.0
            y0 = evaluate(net, x0)
            true = int(np.argmax(y0))
            target = int(rng.choice([j for j in range(n_out) if j != true]))
            spec = ProblemSpec(
                kind="min_adversarial_linf",
                network=net_name,
                x0=x0,
                radius=radius,
                target_label=target,
                true_label=true,
                margin=0.0,
            )
        elif family == "taxi_out":
            n_in, n_out = 4, 2
            net = _random_network(rng, n_in, hidden, n_out)
            center = rng.uniform(0.0, 1.0, n_in)
            r = TAXI_RADII[idx % len(TAXI_RADII)]
            c = np.array([1.0, 0.0])
            spec = ProblemSpec(
                kind="output_optimization",
                network=net_name,
                objective=c,
                direction=Direction.MAXIMIZE,
                input_lower=np.clip(center - r, 0.0, 1.0),
                input_upper=np.clip(center + r, 0.0, 1.0),
            )
        else:  # mnist_in
            n_in, n_out = 4, 4
            net = _random_network(rng, n_in, hidden, n_out)
            x0 = rng.uniform(0.2, 0.8, n_in)
            true = int(np.argmax(evaluate(net, x0)))
            target = int(rng.choice([j for j in range(n_out) if j != true]))
            spec = ProblemSpec(
                kind="min_adversarial_linf",
                network=net_name,
                x0=x0,
                radius=np.array([MNIST_RADIUS]),
                domain_lower=np.zeros(n_in),
                domain_upper=np.ones(n_in),
                target_label=target,
                true_label=true,
                margin=0.0,
            )
        spec.problem_id = stem
        write_nnet(net, os.path.join(out_dir, net_name))
        path = os.path.join(out_dir, f"{stem}.problem")
        with open(path, "w") as fh:
            fh.write(serialize_problem(spec))
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Solving and the benchmark harness


@dataclass(slots=True)  # a bench run holds thousands of records
class ResultRecord:
    problem_id: str
    solver: str
    status: str
    value: Optional[float]
    argopt: Optional[np.ndarray]
    wall_s: float
    nodes: int
    lps: int
    argopt_path: str = ""
    error: str = ""  # "<exception class>: <message>" of an Error record
    # branch_bound and bisection: the global bound on the optimum, under the
    # report sign, and the gap between it and the incumbent's value
    bound: Optional[float] = None
    gap: Optional[float] = None


def _error_record(problem_id: str, solver: str, exc: ReluOptError) -> ResultRecord:
    return ResultRecord(
        problem_id, solver, "Error", None, None, 0.0, 0, 0, error=f"{type(exc).__name__}: {exc}"
    )


_STATUS_NAMES = {
    Status.OPTIMAL: "Optimal",
    Status.INFEASIBLE: "Infeasible",
    Status.TIMEOUT: "Timeout",
}


def solve_spec(
    spec: ProblemSpec,
    solver: Optional[str] = None,
    timeout: Optional[float] = None,
    trace=None,
) -> ResultRecord:
    solver = solver or spec.solver
    timeout = timeout if timeout is not None else spec.timeout
    start = time.monotonic()
    try:
        net = _load_network(spec)
        query = canonicalize(spec, net)
        start = time.monotonic()  # wall time counts the solve alone
        record = _run_solver(spec, net, query, solver, timeout, trace)
    except ReluOptError as exc:
        record = _error_record(spec.problem_id, solver, exc)
    record.wall_s = time.monotonic() - start
    return record


def _load_network(spec: ProblemSpec) -> Network:
    """The spec's network; an unreadable file is a SchemaError on `network`."""
    path = spec.network_path()
    try:
        return load_nnet(path)
    except OSError as exc:
        raise SchemaError("network", f"cannot read {path}: {exc.strerror or exc}") from None


def _run_solver(spec, net, query, solver, timeout, trace) -> ResultRecord:
    (problem,) = query.subproblems

    if solver in APPROX_SOLVERS:
        if spec.kind != "output_optimization":
            raise SchemaError("solver", f"{solver} only applies to output optimization")
        c = problem.objective.c_y
        x0 = problem.box.center
        if solver == "fgsm":
            x, v = fgsm(net, x0, c, problem.box)
        else:
            x, v = pgd(net, x0, c, problem.box)
        return ResultRecord(
            spec.problem_id, solver, "Optimal", query.report_sign * v, x, 0.0, 0, 0
        )

    if solver == "branch_bound":
        config = SearchConfig(
            split_strategy=spec.split,
            node_order=spec.order,
            timeout=timeout,
            tighten_timeout=spec.tighten_timeout,
        )
        result = optimize(net, problem, config, trace=trace)
    elif solver == "bisection":
        cfg = baselines.BisectionConfig(
            gap=spec.gap,
            timeout=timeout,
            tighten_timeout=spec.tighten_timeout,
        )
        result = baselines.bisection_optimize(net, problem, cfg)
    elif solver == "brute_force":
        result = baselines.brute_force_optimize(net, problem)
    else:
        raise SchemaError("solver", f"unknown solver {solver}")

    # A timed-out run reports its incumbent, as an optimal one does.
    sign = query.report_sign
    value = None if result.value is None else sign * result.value
    bound = result.stats.extra.get("bound")
    return ResultRecord(
        spec.problem_id,
        solver,
        _STATUS_NAMES[result.status],
        value,
        result.argopt,
        0.0,
        result.stats.nodes_explored,
        result.stats.lps_solved,
        bound=None if bound is None else sign * bound,
        gap=result.stats.extra.get("gap"),
    )


def _csv_float(v: Optional[float]) -> str:
    """A float cell of results.csv: empty for None, inf and -inf as Python
    prints them."""
    return "" if v is None else f"{v:.12g}"


def run_benchmark(
    spec_paths: Sequence[str],
    solvers: Sequence[str],
    timeout: float,
    out_dir: str,
) -> list[ResultRecord]:
    """One record per (spec, solver); failures become Error records. Writes
    results.csv, summary.txt, and scatter.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    argopt_dir = os.path.join(out_dir, "argopt")
    records: list[ResultRecord] = []
    for path in sorted(spec_paths):
        try:
            spec = load_problem(path)
        except ReluOptError as exc:
            pid = os.path.splitext(os.path.basename(path))[0]
            records.extend(_error_record(pid, solver, exc) for solver in solvers)
            continue
        for solver in solvers:
            records.append(solve_spec(spec, solver=solver, timeout=timeout))
    records.sort(key=lambda r: (r.problem_id, r.solver))

    for rec in records:
        if rec.argopt is not None:
            os.makedirs(argopt_dir, exist_ok=True)
            rec.argopt_path = os.path.join("argopt", f"{rec.problem_id}__{rec.solver}.txt")
            with open(os.path.join(out_dir, rec.argopt_path), "w") as fh:
                fh.write(_fmt_vec(rec.argopt) + "\n")

    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.problem_id,
                    rec.solver,
                    rec.status,
                    _csv_float(rec.value),
                    f"{rec.wall_s:.3f}",
                    rec.nodes,
                    rec.lps,
                    rec.argopt_path,
                    rec.error,
                    _csv_float(rec.bound),
                    _csv_float(rec.gap),
                ]
            )

    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"{'solver':<14}{'#solved':>8}{'time_s':>12}\n")
        for solver in solvers:
            mine = [r for r in records if r.solver == solver]
            solved = [r for r in mine if r.status in ("Optimal", "Infeasible")]
            total = sum(r.wall_s for r in solved)
            fh.write(f"{solver:<14}{len(solved):>8}{total:>12.2f}\n")

    exact: dict[str, ResultRecord] = {}
    for solver in EXACT_SOLVERS:  # ordered by preference
        for r in records:
            if r.solver == solver and r.status == "Optimal":
                exact.setdefault(r.problem_id, r)
    scatter_rows = []
    for rec in records:
        if rec.solver in APPROX_SOLVERS and rec.status == "Optimal":
            ex = exact.get(rec.problem_id)
            if ex is not None and ex.value is not None:
                scatter_rows.append(
                    (rec.problem_id, rec.solver, f"{ex.value:.12g}", f"{rec.value:.12g}")
                )
    with open(os.path.join(out_dir, "scatter.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem_id", "method", "exact", "approximate"])
        writer.writerows(scatter_rows)

    return records


# ---------------------------------------------------------------------------
# Command-line interface


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reluopt",
        description="Global optimization of objectives represented by ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem file")
    p_solve.add_argument("spec")
    p_solve.add_argument("--solver", choices=SOLVERS)
    p_solve.add_argument("--timeout", type=float)
    p_solve.add_argument("--trace", help="write a line-delimited search trace here")

    p_gen = sub.add_parser("generate", help="generate a query family")
    p_gen.add_argument("family", choices=FAMILIES)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--scale", type=int, default=8)
    p_gen.add_argument("--out", default=".")

    p_bench = sub.add_parser("bench", help="run a directory of problem files")
    p_bench.add_argument("directory")
    p_bench.add_argument("--solvers", default="branch_bound")
    p_bench.add_argument("--timeout", type=float, default=120.0)
    p_bench.add_argument("--out", default="bench_out")

    p_milp = sub.add_parser("export-milp", help="export a problem as a big-M MILP")
    p_milp.add_argument("spec")
    p_milp.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    try:
        return _run_command(parser, args)
    except ReluOptError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run_command(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the parsed command; a ReluOptError it raises goes to `main`."""
    if args.command == "solve":
        spec = load_problem(args.spec)
        trace = open(args.trace, "w") if args.trace else None
        try:
            rec = solve_spec(spec, solver=args.solver, timeout=args.timeout, trace=trace)
        finally:
            if trace:
                trace.close()
        print(f"problem: {rec.problem_id}")
        print(f"solver:  {rec.solver}")
        print(f"status:  {rec.status}")
        if rec.error:
            print(f"error: {rec.error}")
        if rec.value is not None:
            print(f"value:   {rec.value:.12g}")
        if rec.argopt is not None:
            print(f"argopt:  {_fmt_vec(rec.argopt)}")
        print(f"wall_s:  {rec.wall_s:.3f}  nodes: {rec.nodes}  lps: {rec.lps}")
        return 0 if rec.status != "Error" else 1

    if args.command == "generate":
        paths = generate_queries(
            args.family, args.seed, args.count, scale=args.scale, out_dir=args.out
        )
        for path in paths:
            print(path)
        return 0

    if args.command == "bench":
        solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
        for s in solvers:
            if s not in SOLVERS:
                parser.error(f"unknown solver {s!r}")
        spec_paths = [
            os.path.join(args.directory, f)
            for f in sorted(os.listdir(args.directory))
            if f.endswith(".problem")
        ]
        records = run_benchmark(spec_paths, solvers, args.timeout, args.out)
        print(f"{len(records)} records -> {os.path.join(args.out, 'results.csv')}")
        return 0

    if args.command == "export-milp":
        spec = load_problem(args.spec)
        net = _load_network(spec)
        (problem,) = canonicalize(spec, net).subproblems
        _, text = baselines.export_milp(net, problem, propagate_symbolic(net, problem.box))
        with open(args.output, "w") as fh:
            fh.write(text)
        print(args.output)
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
