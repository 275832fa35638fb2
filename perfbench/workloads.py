"""Problem sets for the benchmark workloads.

Each workload is a fixed suite of problems drawn once from its
`suite_seed`; the run's `--seed` permutes the hidden units of every network
in the suite. A permuted network computes the same function, so every
answer stays the same, but branch-and-bound splits the earliest undetermined
ReLU and tightening visits ReLUs in index order, so each seed gives the
solver a different search. This is the performance-variability method of
MIP benchmarking (Lodi and Tramontani, 2013; Koch et al., MIPLIB 2010).

B&B cost grows roughly exponentially with the number of ReLUs whose phase
is undetermined at the root, so every problem has its box radius set so
that exactly `target` ReLUs are undetermined under interval bounds. Even
then one problem's cost varies with sd/mean about 0.6, so a suite holds
many small problems: a pass sums over 150-200 of them. The
count (and the forward pass that picks min-adv targets) is this module's
own arithmetic, not `reluopt.bounds` or `reluopt.model`, so a change to the
solver cannot change the suite.
"""

from __future__ import annotations

import itertools
import os
import shutil
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from reluopt.cli import ProblemSpec, generate_queries, load_problem, serialize_problem
from reluopt.model import Activation, Layer, Network, load_nnet, write_nnet
from reluopt.problems import Direction

BISECTION_STEPS = 20
WITNESS_SAMPLES = 256
MAX_CANDIDATES = 4096


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # generate_queries family, or "deep" for this module's nets
    scale: int  # generate_queries scale, or the hidden width of a deep net
    count: int  # problems per pass
    target: int  # ReLUs undetermined at the root under interval bounds
    r_max: float  # largest box radius tried
    suite_seed: int  # draws the suite; --seed only permutes it
    heldout_suite_seed: int  # a second suite, for checking a claim on new problems
    oversample: int = 1  # candidates generated per problem kept, at first
    depth: int = 0  # hidden layers of a deep net
    tighten_timeout: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bb_acas_out",
            why="200 output maximizations on 2x16 acas_out nets, no tightening: "
            "per-node LP build and solve do nearly all the work",
            family="acas_out",
            scale=32,
            count=200,
            target=6,
            r_max=2.0,
            suite_seed=1,
            heldout_suite_seed=2,
        ),
        Workload(
            name="bb_acas_in_minadv",
            why="150 minimum L-inf perturbations on 2x16 acas_in nets: node LPs "
            "carry the t epigraph and target rows, and many end infeasible",
            family="acas_in",
            scale=32,
            count=150,
            target=7,
            r_max=4.0,
            oversample=8,
            suite_seed=1,
            heldout_suite_seed=2,
        ),
        Workload(
            name="bb_deep_tight",
            why="5 output maximizations on 4x24 nets with LP bound tightening "
            "at the root: bound computation dominates, the search stays small",
            family="deep",
            scale=24,
            depth=4,
            count=5,
            target=16,
            r_max=1.0,
            suite_seed=2,
            heldout_suite_seed=3,
            tighten_timeout=1.0,
        ),
    )
}


def undetermined(net: Network, lower: np.ndarray, upper: np.ndarray) -> int:
    """ReLUs whose interval pre-activation range straddles zero."""
    count = 0
    for layer in net.layers:
        mid = 0.5 * (upper + lower)
        rad = 0.5 * (upper - lower)
        center = layer.weights @ mid + layer.biases
        spread = np.abs(layer.weights) @ rad
        zl, zu = center - spread, center + spread
        if layer.activation is Activation.RELU:
            count += int(np.count_nonzero((zl < 0.0) & (zu > 0.0)))
            lower, upper = np.maximum(zl, 0.0), np.maximum(zu, 0.0)
        else:
            lower, upper = zl, zu
    return count


def _first_radius(net, center, direction, at_least: int, lo: float, r_max: float) -> Optional[float]:
    """Smallest radius in (lo, r_max] (to bisection precision) at which at
    least `at_least` ReLUs are undetermined, or None if there is none."""
    if undetermined(net, center - r_max * direction, center + r_max * direction) < at_least:
        return None
    hi = r_max
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if undetermined(net, center - mid * direction, center + mid * direction) >= at_least:
            hi = mid
        else:
            lo = mid
    return hi


def radius_for(net, center, direction, target: int, r_max: float, accept=None) -> Optional[float]:
    """A radius in the middle of the range where exactly `target` ReLUs are
    undetermined, so no pre-activation bound sits at zero; None if no such
    range exists below r_max, or if `accept` rejects the range's lower end."""
    r_a = _first_radius(net, center, direction, target, 0.0, r_max)
    if r_a is None or (accept is not None and not accept(r_a)):
        return None
    r_b = _first_radius(net, center, direction, target + 1, r_a, r_max)
    if r_b is None:
        return None
    r = 0.5 * (r_a + r_b)
    if undetermined(net, center - r * direction, center + r * direction) != target:
        return None  # more than one ReLU crosses zero at r_a
    return r


def _deep_network(rng: np.random.Generator, depth: int, width: int) -> Network:
    widths = [5] + [width] * depth + [5]
    layers = []
    for k in range(len(widths) - 1):
        w = rng.normal(0.0, 1.0 / np.sqrt(widths[k]), size=(widths[k + 1], widths[k]))
        b = rng.normal(0.0, 0.3, size=widths[k + 1])
        act = Activation.IDENTITY if k == len(widths) - 2 else Activation.RELU
        layers.append(Layer(w, b, act))
    return Network(tuple(layers))


def _forward(net: Network, x: np.ndarray) -> np.ndarray:
    """Outputs for a batch of inputs (rows of x)."""
    for layer in net.layers:
        x = x @ layer.weights.T + layer.biases
        if layer.activation is Activation.RELU:
            x = np.maximum(x, 0.0)
    return x


def _has_witness(net: Network, spec: ProblemSpec, r: float, rng: np.random.Generator) -> bool:
    """Whether a random point of the perturbation box reaches the target
    label. Keeping only such problems makes every answer a searched
    minimum rather than an infeasibility settled by the root LP alone."""
    y = _forward(net, spec.x0 + rng.uniform(-r, r, size=(WITNESS_SAMPLES, net.input_dim)))
    return bool(np.any(y[:, spec.target_label] - y[:, spec.true_label] >= spec.margin))


def _retune(spec: ProblemSpec, net: Network, w: Workload, rng: np.random.Generator) -> bool:
    """Set a generated problem's radius for `w.target`; False to skip it."""
    if spec.kind == "output_optimization":
        center = 0.5 * (spec.input_lower + spec.input_upper)
        r = radius_for(net, center, np.ones_like(center), w.target, w.r_max)
        if r is None:
            return False
        spec.input_lower, spec.input_upper = center - r, center + r
        return True
    # Aim at the runner-up label at x0 with a perturbation of every input:
    # the nearest class is the one most often reachable.
    y0 = _forward(net, spec.x0[None, :])[0]
    spec.target_label = next(int(j) for j in np.argsort(-y0) if j != spec.true_label)
    direction = np.ones_like(spec.x0)
    # A witness at the range's lower end is one for the chosen radius too.
    r = radius_for(
        net, spec.x0, direction, w.target, w.r_max,
        accept=lambda r: _has_witness(net, spec, r, rng),
    )
    if r is None:
        return False
    spec.radius = r * direction
    return True


def _deep_problems(w: Workload):
    rng = np.random.default_rng(w.suite_seed)
    for idx in range(MAX_CANDIDATES):
        net = _deep_network(rng, w.depth, w.scale)
        center = rng.uniform(-1.0, 1.0, net.input_dim)
        real, adv = rng.choice(net.output_dim, size=2, replace=False)
        r = radius_for(net, center, np.ones_like(center), w.target, w.r_max)
        if r is None:
            continue
        c = np.zeros(net.output_dim)
        c[real], c[adv] = 1.0, -1.0
        spec = ProblemSpec(
            kind="output_optimization",
            network="",
            objective=c,
            direction=Direction.MAXIMIZE,
            input_lower=center - r,
            input_upper=center + r,
            tighten_timeout=w.tighten_timeout,
        )
        yield f"deep_s{w.suite_seed}_{idx:03d}", net, spec


def _family_problems(w: Workload, scratch_dir: str):
    """Problems of a generate_queries family, retuned, in generation order.
    Candidates are generated in growing batches into scratch_dir; the
    family generator is deterministic in its prefix, so a larger batch
    repeats the earlier candidates before adding new ones."""
    rng = np.random.default_rng(w.suite_seed)
    done, batch = 0, w.oversample * w.count + 8
    while done < MAX_CANDIDATES:
        paths = generate_queries(w.family, w.suite_seed, batch, scale=w.scale, out_dir=scratch_dir)
        for path in paths[done:]:
            spec = load_problem(path)
            net = load_nnet(spec.network_path())
            if _retune(spec, net, w, rng):
                yield spec.problem_id, net, spec
        done, batch = batch, 2 * batch


def suite(w: Workload, scratch_dir: str) -> list:
    """The workload's fixed problems as (stem, network, spec), in memory.
    Family candidates pass through scratch_dir, which is removed after."""
    try:
        problems = _deep_problems(w) if w.family == "deep" else _family_problems(w, scratch_dir)
        chosen = list(itertools.islice(problems, w.count))
    finally:
        shutil.rmtree(scratch_dir, ignore_errors=True)
    if len(chosen) < w.count:
        raise RuntimeError(f"{w.name}: only {len(chosen)} of {w.count} problems in suite {w.suite_seed}")
    return chosen


def permute_hidden(net: Network, rng: np.random.Generator) -> Network:
    """The same function with the units of every hidden layer reordered."""
    layers = list(net.layers)
    for k in range(len(layers) - 1):
        perm = rng.permutation(layers[k].out_width)
        this, nxt = layers[k], layers[k + 1]
        layers[k] = Layer(this.weights[perm], this.biases[perm], this.activation)
        layers[k + 1] = Layer(nxt.weights[:, perm], nxt.biases, nxt.activation)
    return replace(net, layers=tuple(layers))


def write(problems: list, seed: int, out_dir: str) -> list[str]:
    """Write the problems, each network's hidden units permuted by `seed`,
    into out_dir and return the problem paths. The same seed gives the same
    files."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for idx, (stem, net, spec) in enumerate(problems):
        net = permute_hidden(net, np.random.default_rng([seed, idx]))
        write_nnet(net, os.path.join(out_dir, f"{stem}.nnet"))
        spec = replace(spec, network=f"{stem}.nnet", problem_id=stem, base_dir=out_dir)
        path = os.path.join(out_dir, f"{stem}.problem")
        with open(path, "w") as fh:
            fh.write(serialize_problem(spec))
        paths.append(path)
    return paths
