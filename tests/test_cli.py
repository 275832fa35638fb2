import csv
import os

import numpy as np
import pytest

from reluopt import EmptyDomain, SchemaError, evaluate, load_nnet, write_nnet
from reluopt.cli import (
    CSV_COLUMNS,
    ProblemSpec,
    canonicalize,
    generate_queries,
    load_problem,
    main,
    parse_problem,
    run_benchmark,
    serialize_problem,
    solve_spec,
)
from reluopt.problems import Direction

from conftest import random_net, read_lp_with_highs


def _write_net(tmp_path, rng=None, **kw):
    rng = rng or np.random.default_rng(0)
    net = random_net(rng, **kw)
    path = tmp_path / "net.nnet"
    write_nnet(net, str(path))
    return net, str(path)


def _out_spec(net_name, **overrides):
    spec = ProblemSpec(
        kind="output_optimization",
        network=net_name,
        objective=np.array([1.0]),
        direction=Direction.MAXIMIZE,
        input_lower=np.array([-1.0, -1.0]),
        input_upper=np.array([1.0, 1.0]),
    )
    for k, v in overrides.items():
        setattr(spec, k, v)
    return spec


def test_problem_round_trip_is_byte_identical(tmp_path):
    spec = ProblemSpec(
        kind="min_adversarial_linf",
        network="net.nnet",
        problem_id="q",
        x0=np.array([0.1, -0.2]),
        radius=np.array([0.5]),
        domain_lower=np.zeros(2) - 1,
        domain_upper=np.zeros(2) + 1,
        target_label=1,
        true_label=0,
        margin=0.25,
    )
    text = serialize_problem(spec)
    text2 = serialize_problem(parse_problem(text))
    assert text == text2
    # and again through a file
    p = tmp_path / "q.problem"
    p.write_text(text2)
    assert serialize_problem(load_problem(str(p))) == text2


def test_parse_rejects_bad_input():
    with pytest.raises(SchemaError):
        parse_problem("kind: nonsense\nnetwork: a.nnet\n")
    with pytest.raises(SchemaError):
        parse_problem("network: a.nnet\n")  # kind missing
    with pytest.raises(SchemaError):
        parse_problem(
            "kind: output_optimization\nnetwork: a.nnet\nobjective: 1\n"
            "direction: maximize\ninput_lower: 0\ninput_upper: 1\nbogus: 3\n"
        )
    with pytest.raises(SchemaError):
        parse_problem(
            "kind: min_adversarial_linf\nnetwork: a.nnet\nx0: 0\nradius: 0.5\n"
        )  # no target rows or labels
    with pytest.raises(SchemaError):
        parse_problem(
            "kind: output_optimization\nnetwork: a.nnet\nobjective: 1\n"
            "objective: 2\ndirection: maximize\ninput_lower: 0\ninput_upper: 1\n"
        )  # duplicate key
    for rhs in ("abc", "", "1,2"):
        with pytest.raises(SchemaError):
            parse_problem(
                "kind: min_adversarial_linf\nnetwork: a.nnet\nx0: 0\nradius: 0.5\n"
                f"target_row: 1,-1 >= {rhs}\n"
            )


_OUTPUT_PROBLEM = (
    "kind: output_optimization\nnetwork: a.nnet\nobjective: 1\n"
    "input_lower: 0\ninput_upper: 1\n"
)


@pytest.mark.parametrize(
    "line",
    [
        "timeout: abc",
        "gap: abc",
        "tighten_timeout: abc",
        "timeout: nan",
        "timeout: 0",
        "timeout: -1",
        "gap: nan",
        "gap: 0",
        "gap: -1e-4",
        "tighten_timeout: nan",
        "tighten_timeout: -5",
        "split: widest",
        "order: random",
        "direction: sideways",
    ],
)
def test_parse_rejects_bad_solver_settings(line):
    with pytest.raises(SchemaError) as info:
        parse_problem(_OUTPUT_PROBLEM + line + "\n")
    assert info.value.field == line.partition(":")[0]


_MINADV_PROBLEM = (
    "kind: min_adversarial_linf\nnetwork: a.nnet\nx0: 0,0\nradius: 0.5\n"
    "domain_lower: -1,-1\ndomain_upper: 1,1\ntarget_label: 1\ntrue_label: 0\nmargin: 0\n"
)


@pytest.mark.parametrize(
    "line",
    [
        "objective: nan",
        "objective: 1,inf",
        "input_lower: nan",
        "input_upper: 1,nan",
        "x0: 0,nan",
        "x0: -inf,0",
        "radius: nan",
        "radius: inf",
        "domain_lower: nan,-1",
        "domain_upper: 1,nan",
        "target_row: 1,nan >= 0",
        "target_row: 1,-1 >= inf",
        "margin: nan",
        "margin: inf",
        "target_label: 1.5",
        "target_label: nan",
        "true_label: x",
    ],
)
def test_parse_rejects_nan_and_infinite_numbers(line):
    """NaN in any numeric field, +-inf outside the domain and input bounds,
    and a label that is no integer fail with the field's name. An infinite
    input bound ends as an Error record
    (test_nonfinite_input_box_is_an_error_record)."""
    field = line.partition(":")[0]
    base = _OUTPUT_PROBLEM if field in ("objective", "input_lower", "input_upper") else _MINADV_PROBLEM
    kept = [kept for kept in base.splitlines() if kept.partition(":")[0] != field]
    with pytest.raises(SchemaError) as info:
        parse_problem("\n".join(kept + [line]) + "\n")
    assert info.value.field == field


def test_parse_accepts_infinite_domain_sides():
    text = _MINADV_PROBLEM.replace("domain_lower: -1,-1", "domain_lower: -inf,0")
    spec = parse_problem(text.replace("domain_upper: 1,1", "domain_upper: 1,inf"))
    np.testing.assert_array_equal(spec.domain_lower, [-np.inf, 0.0])
    np.testing.assert_array_equal(spec.domain_upper, [1.0, np.inf])


def test_parse_accepts_a_zero_tightening_timeout():
    assert parse_problem(_OUTPUT_PROBLEM + "tighten_timeout: 0\n").tighten_timeout == 0.0


def test_comments_and_blank_lines_ignored():
    spec = parse_problem(
        "# a comment\n\nkind: output_optimization\nnetwork: a.nnet\n"
        "objective: 1,-1\ndirection: minimize\ninput_lower: 0,0\ninput_upper: 1,1\n"
    )
    assert spec.direction is Direction.MINIMIZE
    np.testing.assert_allclose(spec.objective, [1.0, -1.0])


def test_canonicalize_minimize_negates(tmp_path):
    net, _ = _write_net(tmp_path, n_in=2, hidden=(4,), n_out=1)
    spec = _out_spec("net.nnet", direction=Direction.MINIMIZE)
    query = canonicalize(spec, net)
    assert query.report_sign == -1.0
    np.testing.assert_allclose(query.subproblems[0].objective.c_y, [-1.0])


def test_canonicalize_min_adv(tmp_path):
    net, _ = _write_net(tmp_path, n_in=2, hidden=(4,), n_out=2)
    spec = ProblemSpec(
        kind="min_adversarial_linf",
        network="net.nnet",
        x0=np.array([0.0, 0.0]),
        radius=np.array([0.5]),
        domain_lower=np.array([-0.2, -1.0]),
        domain_upper=np.array([1.0, 1.0]),
        target_label=1,
        true_label=0,
    )
    query = canonicalize(spec, net)
    p = query.subproblems[0]
    assert p.use_t and query.report_sign == -1.0
    np.testing.assert_allclose(p.box.lower, [-0.2, -0.5])
    np.testing.assert_allclose(p.box.upper, [0.5, 0.5])
    assert p.t_upper == pytest.approx(0.5)
    # epigraph rows (4) plus the label row
    assert len(p.rows) == 5


def test_canonicalize_empty_domain(tmp_path):
    net, _ = _write_net(tmp_path, n_in=1, hidden=(4,), n_out=2)
    spec = ProblemSpec(
        kind="min_adversarial_linf",
        network="net.nnet",
        x0=np.array([5.0]),
        radius=np.array([0.1]),
        domain_lower=np.array([0.0]),
        domain_upper=np.array([1.0]),
        target_label=1,
        true_label=0,
    )
    with pytest.raises(EmptyDomain):
        canonicalize(spec, net)


def test_canonicalize_checks_dimensions(tmp_path):
    net, _ = _write_net(tmp_path, n_in=2, hidden=(4,), n_out=1)
    spec = _out_spec("net.nnet", objective=np.array([1.0, 2.0]))
    with pytest.raises(SchemaError):
        canonicalize(spec, net)


# ---------------------------------------------------------------------------
# Generators


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for family in ("acas_out", "acas_in", "taxi_out", "mnist_in"):
        generate_queries(family, seed=5, count=3, scale=6, out_dir=str(a))
        generate_queries(family, seed=5, count=3, scale=6, out_dir=str(b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_generate_taxi_radii_cycle(tmp_path):
    paths = generate_queries("taxi_out", seed=1, count=6, scale=4, out_dir=str(tmp_path))
    widths = []
    for p in paths:
        spec = load_problem(p)
        widths.append(float(np.max(spec.input_upper - spec.input_lower)))
    # boxes are centers +- radius (clipped to [0,1]); the radius cycle is
    # {0.04, 0.08, 0.016} so full widths cycle {0.08, 0.16, 0.032} when unclipped
    for w, r in zip(widths, [0.04, 0.08, 0.016] * 2):
        assert w <= 2 * r + 1e-12


def test_generate_mnist_radius(tmp_path):
    paths = generate_queries("mnist_in", seed=1, count=2, scale=4, out_dir=str(tmp_path))
    for p in paths:
        spec = load_problem(p)
        assert spec.radius[0] == pytest.approx(0.05)
        assert spec.target_label != spec.true_label


def test_generate_acas_in_one_dim_per_query(tmp_path):
    paths = generate_queries("acas_in", seed=1, count=3, scale=4, out_dir=str(tmp_path))
    for i, p in enumerate(paths):
        spec = load_problem(p)
        nz = np.nonzero(spec.radius)[0]
        assert nz.tolist() == [i % 3]


def test_generate_acas_out_objective_is_label_difference(tmp_path):
    paths = generate_queries("acas_out", seed=2, count=2, scale=4, out_dir=str(tmp_path))
    for p in paths:
        spec = load_problem(p)
        c = spec.objective
        assert sorted(c.tolist()) == [-1.0, 0.0, 0.0, 0.0, 1.0]


def test_generated_queries_solvable_by_brute_force(tmp_path):
    paths = generate_queries("acas_out", seed=3, count=2, scale=6, out_dir=str(tmp_path))
    for p in paths:
        rec = solve_spec(load_problem(p), solver="brute_force")
        assert rec.status in ("Optimal", "Infeasible")


def test_scale_guard(tmp_path):
    with pytest.raises(SchemaError):
        generate_queries("acas_out", seed=0, count=1, scale=100, out_dir=str(tmp_path))
    with pytest.raises(SchemaError):
        generate_queries("unknown", seed=0, count=1, out_dir=str(tmp_path))


# ---------------------------------------------------------------------------
# Benchmark harness


def test_run_benchmark_csv_contract(tmp_path):
    qdir = tmp_path / "queries"
    paths = generate_queries("acas_out", seed=7, count=2, scale=4, out_dir=str(qdir))
    out = tmp_path / "out"
    records = run_benchmark(paths, ["branch_bound", "pgd"], timeout=30.0, out_dir=str(out))
    assert len(records) == 4
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 5
    # sorted by (problem_id, solver)
    keys = [(r[0], r[1]) for r in rows[1:]]
    assert keys == sorted(keys)
    # every Optimal record's argopt re-evaluates to its value
    for r in rows[1:]:
        if r[2] == "Optimal" and r[7]:
            spec = load_problem(paths[0] if r[0].endswith("000") else paths[1])
            net = load_nnet(spec.network_path())
            x = np.array([float(v) for v in (out / r[7]).read_text().split(",") if v.strip()])
            y = evaluate(net, x)
            assert float(spec.objective @ y) == pytest.approx(float(r[3]), abs=1e-6)
    # scatter property: approximate <= exact + 1e-6
    with open(out / "scatter.csv") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["problem_id", "method", "exact", "approximate"]
    for r in srows[1:]:
        assert float(r[3]) <= float(r[2]) + 1e-6
    assert (out / "summary.txt").exists()


def test_run_benchmark_empty_list(tmp_path):
    out = tmp_path / "out"
    records = run_benchmark([], ["branch_bound"], timeout=10.0, out_dir=str(out))
    assert records == []
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows == [CSV_COLUMNS]


def test_run_benchmark_two_solvers_agree(tmp_path):
    qdir = tmp_path / "queries"
    paths = generate_queries("taxi_out", seed=9, count=1, scale=4, out_dir=str(qdir))
    out = tmp_path / "out"
    records = run_benchmark(paths, ["branch_bound", "bisection"], timeout=30.0, out_dir=str(out))
    assert [r.status for r in records] == ["Optimal", "Optimal"]
    assert abs(records[0].value - records[1].value) < 1e-4


@pytest.mark.parametrize("family, sign", [("acas_out", 1.0), ("acas_in", -1.0)])
def test_bisection_records_report_a_bound_and_a_gap(tmp_path, family, sign):
    """The bound is on the optimum under the report sign: above a maximum
    (acas_out), below a minimum (acas_in). An Infeasible record has bound
    -inf before the sign and gap inf, as branch_bound's has."""
    statuses = set()
    for path in generate_queries(family, seed=3, count=4, scale=4, out_dir=str(tmp_path)):
        spec = load_problem(path)
        exact = solve_spec(spec, solver="branch_bound")
        rec = solve_spec(spec, solver="bisection")
        assert rec.status == exact.status
        statuses.add(rec.status)
        if rec.status == "Optimal":
            assert 0.0 <= rec.gap <= spec.gap
            assert sign * rec.bound >= sign * exact.value - 1e-6
        else:
            assert (rec.bound, rec.gap) == (exact.bound, exact.gap) == (-sign * np.inf, np.inf)
    assert "Optimal" in statuses and (family == "acas_out" or "Infeasible" in statuses)


def test_run_benchmark_error_record_does_not_abort(tmp_path):
    bad = tmp_path / "bad.problem"
    bad.write_text("kind: output_optimization\n")  # missing fields
    qdir = tmp_path / "queries"
    good = generate_queries("acas_out", seed=1, count=1, scale=4, out_dir=str(qdir))
    out = tmp_path / "out"
    records = run_benchmark([str(bad)] + good, ["branch_bound"], timeout=30.0, out_dir=str(out))
    statuses = {r.problem_id: r.status for r in records}
    assert statuses["bad"] == "Error"
    assert statuses[[r.problem_id for r in records if r.problem_id != "bad"][0]] == "Optimal"
    # The load failure's reason reaches the record and results.csv.
    reason = "SchemaError: network: missing required field"
    assert {r.problem_id: r.error for r in records}["bad"] == reason
    with open(out / "results.csv") as fh:
        errors = {row["problem_id"]: row["error"] for row in csv.DictReader(fh)}
    assert errors == {r.problem_id: "" if r.problem_id != "bad" else reason for r in records}


def test_run_benchmark_bad_setting_becomes_error_records(tmp_path):
    import re

    qdir = tmp_path / "queries"
    good = generate_queries("acas_out", seed=1, count=2, scale=4, out_dir=str(qdir))
    bad = qdir / "bad.problem"
    text = re.sub(r"^timeout: .*$", "timeout: abc", open(good[0]).read(), flags=re.M)
    assert "timeout: abc" in text
    bad.write_text(text)
    solvers = ["branch_bound", "bisection"]
    out = tmp_path / "out"
    records = run_benchmark([str(bad)] + good, solvers, timeout=30.0, out_dir=str(out))
    assert len(records) == 3 * len(solvers)
    for rec in records:
        if rec.problem_id == "bad":
            assert rec.status == "Error"
            assert rec.error == "SchemaError: timeout: bad value 'abc'"
        else:
            assert rec.status == "Optimal"


def test_solver_error_is_per_record(tmp_path):
    qdir = tmp_path / "queries"
    paths = generate_queries("acas_in", seed=1, count=1, scale=4, out_dir=str(qdir))
    # pgd does not apply to min-adv problems -> Error record, not an exception
    rec = solve_spec(load_problem(paths[0]), solver="pgd")
    assert rec.status == "Error"


def _edit(text, key, value):
    """`text` with the line of `key` set to `value`, or with that line added."""
    import re

    line = f"{key}: {value}"
    edited, found = re.subn(rf"^{key}: .*$", line, text, flags=re.M)
    return edited if found else text + line + "\n"


# Edits of a generated acas_in problem (3 inputs, 5 outputs, true label 2,
# target label 3), each with the field its Error record names.
MALFORMED_MIN_ADV = [
    ("radius", "0.5,0.5", "radius"),
    ("radius", "0.5,0.5,0.5,0.5", "radius"),
    ("domain_lower", "0,0", "domain_lower"),
    ("domain_upper", "1,1,1,1", "domain_upper"),
    ("target_label", "9", "target_label"),
    ("target_label", "5", "target_label"),
    ("target_label", "-1", "target_label"),
    ("true_label", "-2", "true_label"),
    ("target_label", "2", "target_label"),  # the true label
]


@pytest.mark.parametrize("key, value, field", MALFORMED_MIN_ADV)
def test_malformed_min_adv_problem_is_an_error_record(tmp_path, key, value, field):
    (path,) = generate_queries("acas_in", seed=1, count=1, scale=4, out_dir=str(tmp_path))
    text = open(path).read()
    assert "true_label: 2\n" in text and "target_label: 3\n" in text
    with open(path, "w") as fh:
        fh.write(_edit(text, key, value))
    rec = solve_spec(load_problem(path))
    assert rec.status == "Error"
    assert rec.error.startswith(f"SchemaError: {field}: ")


def test_run_benchmark_writes_a_record_for_a_malformed_min_adv_file(tmp_path):
    good, other = generate_queries("acas_in", seed=1, count=2, scale=4, out_dir=str(tmp_path))
    bad = tmp_path / "bad.problem"
    text = _edit(open(other).read(), "radius", "0.5,0.5")
    bad.write_text(_edit(text, "problem_id", "bad"))
    out = tmp_path / "out"
    records = run_benchmark([good, str(bad)], ["branch_bound"], timeout=30.0, out_dir=str(out))
    with open(out / "results.csv") as fh:
        rows = {row["problem_id"]: row for row in csv.DictReader(fh)}
    assert {r.problem_id: r.status for r in records} == {
        "acas_in_s1_000": "Optimal",
        "bad": "Error",
    }
    assert rows["acas_in_s1_000"]["status"] == "Optimal"
    assert rows["bad"]["status"] == "Error"
    assert rows["bad"]["error"].startswith("SchemaError: radius: ")


def test_milp_export_is_no_solver(tmp_path, capsys):
    (path,) = generate_queries("acas_out", seed=1, count=1, scale=4, out_dir=str(tmp_path))
    text = _edit(open(path).read(), "solver", "milp_export")
    with pytest.raises(SchemaError, match="solver"):
        parse_problem(text)
    with pytest.raises(SystemExit):
        main(["solve", path, "--solver", "milp_export"])
    with pytest.raises(SystemExit):
        main(["bench", str(tmp_path), "--solvers", "milp_export"])
    assert "milp_export" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Entry point


def test_main_solve_and_trace(tmp_path, capsys):
    qdir = tmp_path / "queries"
    paths = generate_queries("acas_out", seed=11, count=1, scale=4, out_dir=str(qdir))
    trace = tmp_path / "trace.jsonl"
    rc = main(["solve", paths[0], "--trace", str(trace)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status:  Optimal" in out
    assert trace.read_text().count("\n") >= 1


def test_main_generate_and_bench(tmp_path, capsys):
    qdir = tmp_path / "g"
    rc = main(["generate", "mnist_in", "--seed", "4", "--count", "2", "--out", str(qdir)])
    assert rc == 0
    outdir = tmp_path / "bench"
    rc = main(
        [
            "bench",
            str(qdir),
            "--solvers",
            "branch_bound",
            "--timeout",
            "30",
            "--out",
            str(outdir),
        ]
    )
    assert rc == 0
    assert (outdir / "results.csv").exists()


def test_main_export_milp(tmp_path, capsys):
    qdir = tmp_path / "g"
    paths = generate_queries("acas_out", seed=13, count=1, scale=4, out_dir=str(qdir))
    target = tmp_path / "model.lp"
    rc = main(["export-milp", paths[0], "-o", str(target)])
    assert rc == 0
    model = read_lp_with_highs(target.read_text())
    assert model.maximize
    assert len(model.row_names) > 0


def _acas_in_with(tmp_path, key, value):
    """A generated acas_in problem file with one key's value replaced."""
    (path,) = generate_queries("acas_in", seed=1, count=1, scale=4, out_dir=str(tmp_path / "g"))
    with open(path) as fh:
        lines = [f"{key}: {value}\n" if line.startswith(f"{key}:") else line for line in fh]
    bad = tmp_path / "g" / f"bad_{key}.problem"
    bad.write_text("".join(lines))
    return str(bad)


def test_main_reports_an_error_in_one_line(tmp_path, capsys):
    # A radius of the wrong length fails in canonicalize: solve prints the
    # Error record's reason, export-milp reports it on stderr.
    bad_radius = _acas_in_with(tmp_path, "radius", "0.5,0.5")
    reason = "SchemaError: radius: needs one value or 3, one per input"
    assert main(["solve", bad_radius]) == 1
    out, err = capsys.readouterr()
    assert "status:  Error\n" in out and f"\nerror: {reason}\n" in out and err == ""
    target = tmp_path / "model.lp"
    assert main(["export-milp", bad_radius, "-o", str(target)]) == 1
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert not target.exists()
    # A NaN in x0 fails in load_problem, under both commands.
    bad_x0 = _acas_in_with(tmp_path, "x0", "1,nan,2")
    for argv in (["solve", bad_x0], ["export-milp", bad_x0, "-o", str(target)]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: SchemaError: x0: NaN value\n")
    assert not target.exists()


def test_nonfinite_input_box_is_an_error_record(tmp_path):
    _write_net(tmp_path, n_in=2, hidden=(4,), n_out=1)
    p = tmp_path / "q.problem"
    p.write_text(
        "kind: output_optimization\nnetwork: net.nnet\nobjective: 1\n"
        "input_lower: -1,-inf\ninput_upper: 1,1\n"
    )
    rec = solve_spec(load_problem(str(p)))
    assert rec.status == "Error"
    assert rec.error == "DimensionMismatch: box bounds must be finite"


def test_timed_out_run_keeps_its_incumbent(tmp_path, monkeypatch):
    import reluopt.cli
    from reluopt.search import SearchResult, SearchStats, Status

    _, net_path = _write_net(tmp_path, n_in=2, hidden=(4,), n_out=1)
    x, y = np.array([0.25, -0.5]), np.array([-0.75, 0.5])
    stats = SearchStats(nodes_explored=7, lps_solved=5, extra={"bound": 3.0, "gap": 1.0})
    timed_out = SearchResult(Status.TIMEOUT, value=2.0, argopt=x, stats=stats)
    no_incumbent = SearchResult(Status.TIMEOUT, stats=stats)
    stats = SearchStats(nodes_explored=3, lps_solved=2)
    optimal = SearchResult(Status.OPTIMAL, value=1.0, argopt=y, stats=stats)
    infeasible = SearchResult(Status.INFEASIBLE, stats=stats)
    stats = SearchStats(nodes_explored=1, extra={"bound": np.inf, "gap": np.inf})
    unbounded = SearchResult(Status.TIMEOUT, stats=stats)

    # The one result of the query's one problem maps straight to the record,
    # its value and bound under the report sign of the direction. results.csv
    # ends in the bound and gap cells: (maximize, minimize) pairs below.
    empty, finite = (("", ""), ("", "")), (("3", "1"), ("-3", "1"))
    infinite = (("inf", "inf"), ("-inf", "inf"))
    for result, status, value, argopt, counts, bound, gap, cells in (
        (optimal, "Optimal", 1.0, y, (3, 2), None, None, empty),
        (infeasible, "Infeasible", None, None, (3, 2), None, None, empty),
        (timed_out, "Timeout", 2.0, x, (7, 5), 3.0, 1.0, finite),
        (no_incumbent, "Timeout", None, None, (7, 5), 3.0, 1.0, finite),
        (unbounded, "Timeout", None, None, (1, 0), np.inf, np.inf, infinite),
    ):
        monkeypatch.setattr(reluopt.cli, "optimize", lambda *args, result=result, **kw: result)
        directions = ((Direction.MAXIMIZE, 1.0), (Direction.MINIMIZE, -1.0))
        for (direction, sign), cell in zip(directions, cells):
            spec = _out_spec(net_path, direction=direction)
            rec = solve_spec(spec)
            assert rec.status == status
            assert rec.value == (None if value is None else sign * value)
            if argopt is None:
                assert rec.argopt is None
            else:
                np.testing.assert_array_equal(rec.argopt, argopt)
            assert (rec.nodes, rec.lps) == counts
            assert rec.bound == (None if bound is None else sign * bound)
            assert rec.gap == gap
            path = tmp_path / "query.problem"
            path.write_text(serialize_problem(spec))
            out = tmp_path / "out"
            run_benchmark([str(path)], ["branch_bound"], timeout=10.0, out_dir=str(out))
            with open(out / "results.csv") as fh:
                (row,) = csv.reader(fh.readlines()[1:])
            assert tuple(row[-2:]) == cell


def test_export_milp_takes_big_m_constants_from_symbolic_bounds(tmp_path):
    from reluopt import propagate_symbolic
    from reluopt.baselines import export_milp

    qdir = tmp_path / "g"
    (path,) = generate_queries("acas_out", seed=13, count=1, scale=16, out_dir=str(qdir))
    target = tmp_path / "model.lp"
    assert main(["export-milp", path, "-o", str(target)]) == 0
    spec = load_problem(path)
    net = load_nnet(spec.network_path())
    problem = canonicalize(spec, net).subproblems[0]
    _, expected = export_milp(net, problem, propagate_symbolic(net, problem.box))
    assert target.read_text() == expected
    written = read_lp_with_highs(expected)
    for name in np.array(written.names)[written.integer]:
        k, j = map(int, name.split("_")[1:])
        zhat = written.names.index(f"zhat_{k}_{j}")
        assert written.lower[zhat] < 0.0 < written.upper[zhat]


def test_unreadable_network_is_an_error_record_and_bench_goes_on(tmp_path, capsys):
    """A `.nnet` that does not parse is a ParseError record and a missing
    one a SchemaError record on `network`; bench writes both and solves the
    rest, and solve and export-milp report the reason."""
    qdir = tmp_path / "queries"
    paths = generate_queries("acas_out", seed=3, count=3, scale=4, out_dir=str(qdir))
    garbage, missing, good = paths
    with open(load_problem(garbage).network_path(), "w") as fh:
        fh.write("garbage\n")
    os.remove(load_problem(missing).network_path())

    rec = solve_spec(load_problem(garbage))
    assert (rec.status, rec.error) == ("Error", "ParseError: line 1: bad numeric literal: "
                                       "could not convert string to float: 'garbage'")
    rec = solve_spec(load_problem(missing))
    assert rec.status == "Error"
    assert rec.error.startswith("SchemaError: network: cannot read ")
    assert rec.error.endswith("No such file or directory")

    out = tmp_path / "out"
    records = run_benchmark([garbage, missing, good], ["branch_bound"], 30.0, str(out))
    with open(out / "results.csv") as fh:
        rows = {row["problem_id"]: row for row in csv.DictReader(fh)}
    assert [rows[r.problem_id]["status"] for r in records] == ["Error", "Error", "Optimal"]
    assert rows[records[0].problem_id]["error"].startswith("ParseError: line 1:")
    assert rows[records[1].problem_id]["error"].startswith("SchemaError: network: cannot read ")

    assert main(["solve", missing]) == 1
    assert "\nerror: SchemaError: network: cannot read " in capsys.readouterr().out
    assert main(["export-milp", missing, "-o", str(tmp_path / "model.lp")]) == 1
    assert capsys.readouterr().err.startswith("error: SchemaError: network: cannot read ")
