"""Benchmark for reluopt's branch-and-bound solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's problem files from the seed, solves them through
`reluopt.cli.solve_spec` (the path `reluopt solve` and `reluopt bench` take),
checks every answer against an exact MILP reference and a forward pass, and
prints the metrics as the last stdout line, one JSON object. With --trace 0
the metrics are the end-to-end ones, from untraced passes; with --trace 1 an
untraced pass is followed by a traced one, which gives the per-layer metrics.
Run from the repository root; it reads and writes only inside it.
"""

from __future__ import annotations

import os
import sys
import time

LOAD_BEFORE = os.getloadavg()
# One thread per BLAS/OpenMP pool, set before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
SOLVED = ("Optimal", "Infeasible")
TAIL_MIN = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "reluopt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the repository at ROOT, read from .git without running git;
    None in a checkout that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(LOAD_BEFORE),
        "loadavg_after": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import reluopt.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time to import reluopt.cli (numpy and scipy included) in a fresh
    interpreter, as `reluopt solve` pays it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return float(out.strip().splitlines()[-1])


def setup(w, seed: int):
    """Set up SETUP_REPEATS times: import the package in a fresh
    interpreter, then write and load the problems into a fresh directory.
    Return the specs of the last repetition, the digest of the files, and
    the median timings. Every repetition must write the same bytes.
    Choosing the suite is the benchmark's own work and is not timed."""
    from reluopt.cli import canonicalize, load_problem
    from reluopt.model import load_nnet
    from workloads import suite, write

    base = os.path.join(WORK, f"{w.name}_s{seed}")
    shutil.rmtree(base, ignore_errors=True)
    problems = suite(w, os.path.join(base, "candidates"))
    import_s, write_s, load_s, digests = [], [], [], set()
    for rep in range(SETUP_REPEATS):
        import_s.append(import_seconds())
        t0 = time.perf_counter()
        paths = write(problems, seed, os.path.join(base, f"rep{rep}"))
        t1 = time.perf_counter()
        specs = [load_problem(p) for p in paths]
        for spec in specs:
            canonicalize(spec, load_nnet(spec.network_path()))
        t2 = time.perf_counter()
        write_s.append(t1 - t0)
        load_s.append(t2 - t1)
        h = hashlib.sha256()
        for path, spec in zip(paths, specs):
            for name in (path, spec.network_path()):
                with open(name, "rb") as fh:
                    h.update(fh.read())
        digests.add(h.hexdigest())
    if len(digests) != 1:
        raise RuntimeError("the same seed produced different problem files")
    setup_s = [i + a + b for i, a, b in zip(import_s, write_s, load_s)]
    return specs, digests.pop(), {
        "setup_s": statistics.median(setup_s),
        "cli.generate_s": statistics.median(write_s),
        "cli.load_s": statistics.median(load_s),
    }


def solve_pass(specs, trace=None):
    from reluopt.cli import solve_spec

    return [solve_spec(spec, trace=trace) for spec in specs]


def slowest_tenth_s(records) -> float:
    """Mean wall time of the slowest tenth of the problems, and of at least
    TAIL_MIN of them. A mean over a tail is steadier across seeds than one
    order statistic: on a shared 2-vCPU VM, one 3-4 s problem's wall time
    moved by up to 15% between runs."""
    times = sorted((rec.wall_s for rec in records), reverse=True)
    tail = times[: max(TAIL_MIN, len(times) // 10)]
    return sum(tail) / len(tail)


def check_counts(key: str, observed: dict) -> list[str]:
    """Exact counts must repeat between runs of the same code and seed.
    Compares with, then merges into, the counts stored by earlier runs."""
    path = os.path.join(WORK, "counts.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    before = stored.setdefault(key, {})
    problems = [
        f"{name}: {observed[name]} here, {before[name]} in an earlier run"
        for name in observed
        if name in before and before[name] != observed[name]
    ]
    before.update(observed)
    with open(path, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
    return problems


def run_benchmark(w, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    from gate import check, milp_reference

    specs, inputs_sha256, setup_times = setup(w, seed)

    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(solve_pass(specs))
        took = time.perf_counter() - t0
        if trace or time.perf_counter() - start + took > seconds:
            break
    untraced = len(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        from tracer import Tracer

        tracer, sink = Tracer(), io.StringIO()
        tracer.install()
        try:
            passes.append(solve_pass(specs, trace=sink))
        finally:
            tracer.uninstall()

    # Correctness gate, outside the timed region.
    refs = [milp_reference(spec) for spec in specs]
    wrong, failed = [], 0
    for records in passes:
        for spec, rec, ref in zip(specs, records, refs):
            if rec.status not in SOLVED:
                failed += 1
                continue
            errors = check(spec, rec, ref)
            if errors:
                failed += 1
                wrong.extend(errors)
    attempted = sum(len(records) for records in passes)

    nodes = [[rec.nodes for rec in records] for records in passes]
    count_errors = []
    if any(n != nodes[0] for n in nodes):
        count_errors.append(f"node counts differ between passes: {[sum(n) for n in nodes]}")
    observed = {"nodes": nodes[0]}

    pass_s = [sum(rec.wall_s for rec in records) for records in passes[:untraced]]
    solve_s = statistics.median(pass_s)
    if trace:
        m = tracer.metrics()
        statuses = [json.loads(line)["status"] for line in sink.getvalue().splitlines()]
        traced_s = sum(rec.wall_s for rec in passes[-1])
        n_nodes = sum(nodes[-1])
        m["search.nodes"] = (n_nodes, "count")
        m["search.nodes_per_s"] = (n_nodes / solve_s, "1/s")
        m["search.pruned_frac"] = (statuses.count("worse_than_opt") / len(statuses), "ratio")
        m["search.leaf_frac"] = (statuses.count("optimal") / len(statuses), "ratio")
        m["cli.generate_s"] = (setup_times["cli.generate_s"], "s")
        m["cli.load_s"] = (setup_times["cli.load_s"], "s")
        m["trace.overhead_frac"] = (traced_s / solve_s - 1.0, "ratio")
        if len(statuses) != n_nodes:
            count_errors.append(f"{len(statuses)} trace records for {n_nodes} nodes")
        if m["bounds.tighten_limit_hits"][0]:
            count_errors.append("a tightening LP hit its time limit")
        for name in ("lp.simplex_iters", "bounds.tighten_lps", "bounds.undetermined"):
            observed[name] = m[name][0]
    else:
        m = {
            "solve_s": (solve_s, "s"),
            "problem_s_top10": (statistics.median(slowest_tenth_s(records) for records in passes), "s"),
            "solved_frac": ((attempted - failed) / attempted, "ratio"),
            "setup_s": (setup_times["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    count_errors += check_counts(f"{w.name}/{inputs_sha256}/{src_digest()}", observed)

    for msg in wrong + count_errors:
        print(f"perfbench: {msg}", file=sys.stderr)
    return {
        "correct": not wrong and not count_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(m.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reluopt", "__init__.py")):
        print(f"perfbench: no reluopt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reluopt.cli

    if not os.path.abspath(reluopt.cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported reluopt from outside {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    env = environment()
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(
        WORK, "results", f"{args.workload}_s{args.seed}_t{args.trace}.json"
    )
    with open(out, "w") as fh:
        json.dump({"env": env, **result}, fh, indent=1)
    # HiGHS can print from C; flush that first so the result stays last.
    sys.stdout.flush()
    ctypes.CDLL(None).fflush(None)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
