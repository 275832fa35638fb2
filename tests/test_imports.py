"""What importing and running reluopt loads: numpy and scipy's HiGHS
extension module, and nothing else of scipy. The checks of what a process
loads run in a fresh interpreter, because this test process has imported
scipy already."""

import os
import re
import subprocess
import sys
import textwrap

import pytest

import reluopt

SRC = os.path.dirname(os.path.dirname(os.path.abspath(reluopt.__file__)))
CORE = "scipy.optimize._highspy._core"


def _run(script: str, cwd) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_and_exact_solvers_load_only_the_highs_binding_from_scipy(tmp_path):
    _run(
        f"""
        import sys
        from reluopt.cli import generate_queries, load_problem, solve_spec

        (path,) = generate_queries("acas_out", seed=3, count=1, scale=6, out_dir="q")
        spec = load_problem(path)
        for solver in ("branch_bound", "bisection", "brute_force"):
            record = solve_spec(spec, solver=solver)
            assert record.status == "Optimal", (solver, record)
        scipy = sorted(m for m in sys.modules if m.startswith("scipy."))
        extra = [m for m in scipy if m.startswith(("scipy.sparse", "scipy.optimize"))
                 and not m.startswith("{CORE}")]
        assert not extra, extra
        assert "{CORE}" in scipy, scipy
        """,
        tmp_path,
    )


_LINPROG_CHECK = f"""
    import reluopt.highs
    from scipy.optimize._highspy import _core
    assert reluopt.highs._core is _core is sys.modules["{CORE}"]
    res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],
                                 bounds=[(0, None), (0, None)])
    assert res.status == 0 and abs(res.fun - 1.0) < 1e-9, res
    """


def test_binding_is_shared_when_reluopt_is_imported_first(tmp_path):
    _run("import sys\nimport reluopt.cli\nimport scipy.optimize\n" + textwrap.dedent(_LINPROG_CHECK), tmp_path)


def test_binding_is_shared_when_scipy_is_imported_first(tmp_path):
    _run("import sys\nimport scipy.optimize\nimport reluopt.cli\n" + textwrap.dedent(_LINPROG_CHECK), tmp_path)


def test_a_missing_binding_file_names_the_directory_searched(tmp_path, monkeypatch):
    import importlib.util
    import types

    from reluopt import highs

    monkeypatch.delitem(sys.modules, CORE)
    fake_scipy = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake_scipy)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "optimize" / "_highspy"))):
        highs._load_core()
    assert CORE not in sys.modules
