"""Smoke tests for the benchmark harness on tiny instances.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, run.SRC)

import gate  # noqa: E402
from workloads import WORKLOADS, suite, write  # noqa: E402

from reluopt.cli import load_problem, solve_spec  # noqa: E402
from reluopt.model import evaluate, load_nnet  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)

# Same families and code paths as the real workloads, shrunk to a few
# seconds: tiny nets, few problems.
TINY = {
    "bb_acas_out": dict(scale=8, target=3, count=2),
    "bb_acas_in_minadv": dict(scale=8, target=3, count=2),
    "bb_deep_tight": dict(scale=6, depth=2, target=3, count=1),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def generate(w, seed, out_dir):
    return write(suite(w, os.path.join(out_dir, "candidates")), seed, out_dir)


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    return tmp_path


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(work, name, trace):
    w = tiny(name)
    result = run.run_benchmark(w, 1, seconds=0.0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["bounds.tighten_limit_hits"]["value"] == 0
        tightened = result["metrics"]["bounds.tighten_lps"]["value"] > 0
        assert tightened == (w.tighten_timeout > 0)


def test_seed_permutes_the_network_not_the_function(tmp_path):
    w = tiny("bb_deep_tight")
    (a,) = generate(w, 1, str(tmp_path / "a"))
    (b,) = generate(w, 2, str(tmp_path / "b"))
    net_a = load_nnet(load_problem(a).network_path())
    net_b = load_nnet(load_problem(b).network_path())
    assert not np.array_equal(net_a.layers[0].weights, net_b.layers[0].weights)
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1.0, 1.0, size=(20, net_a.input_dim)):
        np.testing.assert_allclose(evaluate(net_a, x), evaluate(net_b, x), rtol=0, atol=1e-12)


def test_gate_rejects_a_perturbed_reference(tmp_path):
    for path in generate(tiny("bb_acas_out"), 1, str(tmp_path)):
        spec = load_problem(path)
        rec = solve_spec(spec)
        ref = gate.milp_reference(spec)
        assert gate.check(spec, rec, ref) == []
        assert gate.check(spec, rec, gate.Reference("Optimal", ref.value + 1e-3))
        assert gate.check(spec, rec, gate.Reference("Infeasible"))


def test_run_fails_when_the_reference_is_perturbed(work, monkeypatch):
    exact = gate.milp_reference

    def perturbed(spec):
        ref = exact(spec)
        return gate.Reference(ref.status, ref.value + 1e-3)

    monkeypatch.setattr(gate, "milp_reference", perturbed)
    w = tiny("bb_acas_out")
    result = run.run_benchmark(w, 1, seconds=0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["solved_frac"]["value"] == 0.0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bb_acas_out",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
