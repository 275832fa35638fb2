import numpy as np
import pytest

from reluopt import (
    DimensionMismatch,
    Hyperrectangle,
    propagate_interval,
    propagate_symbolic,
    tighten_lp,
)
from reluopt.bounds import COUNTERS, BoundsMap, fixed_by_bounds, phases
from reluopt.model import forward_trace
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED

from conftest import box, closed_form_relus, random_net


def _assert_sound(net, bounds, b, rng, samples=500, tol=1e-9):
    for x in b.sample(rng, samples):
        trace = forward_trace(net, x)
        for k in range(len(net.layers)):
            assert np.all(trace.pre[k] >= bounds.pre_lower[k] - tol)
            assert np.all(trace.pre[k] <= bounds.pre_upper[k] + tol)
            assert np.all(trace.post[k] >= bounds.post_lower[k] - tol)
            assert np.all(trace.post[k] <= bounds.post_upper[k] + tol)


def _pre(bounds, i, j):
    """The pre-activation interval of ReLU node (i, j)."""
    k = bounds.relu_layers[i]
    return float(bounds.pre_lower[k][j]), float(bounds.pre_upper[k][j])


def _post(bounds, i, j):
    """The post-activation interval of ReLU node (i, j)."""
    k = bounds.relu_layers[i]
    return float(bounds.post_lower[k][j]), float(bounds.post_upper[k][j])


def test_interval_bounds_are_sound():
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_net(rng, n_in=3, hidden=(5, 4), n_out=2)
        b = box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
        _assert_sound(net, propagate_interval(net, b), b, rng)


def test_interval_bounds_exact_for_affine():
    # One identity layer: interval bounds equal the true range endpoints.
    from reluopt import Activation, Layer, Network

    net = Network((Layer(np.array([[2.0, -3.0]]), np.array([1.0]), Activation.IDENTITY),))
    b = box([0.0, 0.0], [1.0, 2.0])
    bounds = propagate_interval(net, b)
    assert bounds.pre_lower[0][0] == pytest.approx(2 * 0 - 3 * 2 + 1)
    assert bounds.pre_upper[0][0] == pytest.approx(2 * 1 - 3 * 0 + 1)


def test_dimension_mismatch():
    rng = np.random.default_rng(0)
    net = random_net(rng, n_in=2)
    with pytest.raises(DimensionMismatch):
        propagate_interval(net, box([0.0], [1.0]))


def test_fixed_by_bounds_agrees_with_samples(abs_net):
    b = box([0.5], [2.0])  # node 0 always active, node 1 always inactive
    assert phases(propagate_interval(abs_net, b)).tolist() == [ACTIVE, INACTIVE]


def test_fixed_by_bounds_zero_interval_is_inactive():
    from reluopt import Activation, Layer, Network

    # zhat == 0 identically: weights and bias zero.
    net = Network(
        (
            Layer(np.zeros((1, 1)), np.zeros(1), Activation.RELU),
            Layer(np.ones((1, 1)), np.zeros(1), Activation.IDENTITY),
        )
    )
    bounds = propagate_interval(net, box([-1.0], [1.0]))
    assert phases(bounds).tolist() == [INACTIVE]


def test_phases_follow_the_intervals_in_node_order():
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(10):
        net = random_net(rng, n_in=3, hidden=(6, 5), n_out=2)
        center = rng.uniform(-1.0, 1.0, 3)
        bounds = propagate_symbolic(net, box(center - 0.7, center + 0.7))
        phase = phases(bounds)
        assert phase.dtype == np.int8 and phase.shape == (net.num_relu_nodes,)
        for node, got in zip(net.relu_node_ids(), phase):
            lo, hi = _pre(bounds, *node)
            assert got == (INACTIVE if hi <= 0.0 else ACTIVE if lo >= 0.0 else UNDETERMINED)
        # fixed_by_bounds, kept for perfbench's tracer, gives the same phases.
        fixed = fixed_by_bounds(bounds)
        nodes = np.array(net.relu_node_ids())
        assert {tuple(n) for n in nodes[phase == ACTIVE]} == set(fixed.active)
        assert {tuple(n) for n in nodes[phase == INACTIVE]} == set(fixed.inactive)
        seen.update(phase.tolist())
    assert seen == {ACTIVE, INACTIVE, UNDETERMINED}


def test_tighten_zero_timeout_is_noop():
    rng = np.random.default_rng(31)
    net = random_net(rng, n_in=2, hidden=(4,), n_out=1)
    b = box([-1.0, -1.0], [1.0, 1.0])
    seed = propagate_interval(net, b)
    assert tighten_lp(net, b, seed, 0.0) is seed


def test_tighten_never_loosens_and_stays_sound():
    rng = np.random.default_rng(37)
    for _ in range(5):
        net = random_net(rng, n_in=2, hidden=(5, 4), n_out=1)
        b = box([-1.0, -1.0], [1.0, 1.0])
        seed = propagate_interval(net, b)
        tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
        for k in range(len(net.layers)):
            assert np.all(tight.pre_lower[k] >= seed.pre_lower[k] - 1e-12)
            assert np.all(tight.pre_upper[k] <= seed.pre_upper[k] + 1e-12)
            assert np.all(tight.post_lower[k] >= seed.post_lower[k] - 1e-12)
            assert np.all(tight.post_upper[k] <= seed.post_upper[k] + 1e-12)
        _assert_sound(net, tight, b, rng, samples=300, tol=1e-7)


def test_tighten_strictly_improves_correlated_net():
    # z1 = relu(x), z2 = relu(1 - x): their sum is >= 1 everywhere, but
    # interval propagation sees each minimum as 0 independently. The LP pass
    # couples them through the shared input and must recover the true lower
    # bound -0.5 of z1 + z2 - 1.5, a ReLU the interval seed leaves open
    # (exhaustive range check: min over x of max(0,x) + max(0,1-x) is 1,
    # attained on [0,1]). relu(z1 + z2) is fixed active by its seed interval
    # [0, 4]; its own min LP would find 1, but tightening skips it and it
    # keeps the seed's interval.
    from reluopt import Activation, Layer, Network

    net = Network(
        (
            Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), Activation.RELU),
            Layer(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([-1.5, 0.0]), Activation.RELU),
            Layer(np.array([[1.0, 0.0]]), np.array([0.0]), Activation.IDENTITY),
        )
    )
    b = box([-1.0], [2.0])
    # sanity: the interval seed cannot see the coupling
    seed = propagate_interval(net, b)
    assert seed.pre_lower[1][0] == pytest.approx(-1.5)
    assert phases(seed)[2:].tolist() == [UNDETERMINED, ACTIVE]
    # brute-force range oracle over a dense input grid
    true_min = min(
        float(forward_trace(net, [x]).pre[1][0]) for x in np.linspace(-1.0, 2.0, 3001)
    )
    assert true_min == pytest.approx(-0.5, abs=1e-3)
    counters = {}
    tight = tighten_lp(net, b, seed, per_query_timeout=5.0, counters=counters)
    assert tight.pre_lower[1][0] == pytest.approx(-0.5, abs=1e-6)
    assert _pre(tight, 1, 1) == _pre(seed, 1, 1) == (0.0, 4.0)
    assert _post(tight, 1, 1) == _post(seed, 1, 1)
    assert counters["tighten_skipped"] == 2
    # The first layer's two ReLUs get their range in closed form; the open
    # ReLU behind them needs its two LPs.
    assert counters["tighten_exact"] == 4
    assert counters["tighten_lps"] == 2


def test_bounds_map_node_accessors(abs_net):
    b = box([-2.0], [3.0])
    bounds = propagate_interval(abs_net, b)
    lo, hi = _pre(bounds, 0, 0)
    assert (lo, hi) == (-2.0, 3.0)
    lo, hi = _post(bounds, 0, 1)
    assert (lo, hi) == (0.0, 2.0)


def test_tightening_lp_stopped_by_its_time_limit_keeps_the_bound(caplog):
    rng = np.random.default_rng(41)
    net = random_net(rng, n_in=4, hidden=(30, 30), n_out=1)
    b = box(-np.ones(4), np.ones(4))
    seed = propagate_interval(net, b)
    counters = {}
    with caplog.at_level("WARNING", logger="reluopt.bounds"):
        kept = tighten_lp(net, b, seed, per_query_timeout=1e-9, counters=counters)
    assert counters["tighten_limit_hits"] > 0
    assert "time limit" in caplog.text
    for k in range(len(net.layers)):
        assert np.all(kept.pre_lower[k] >= seed.pre_lower[k])
        assert np.all(kept.pre_upper[k] <= seed.pre_upper[k])
    _assert_sound(net, kept, b, rng, samples=200, tol=1e-7)


def test_tightening_stops_at_the_deadline():
    import time

    rng = np.random.default_rng(43)
    net = random_net(rng, n_in=2, hidden=(5, 4), n_out=1)
    b = box([-1.0, -1.0], [1.0, 1.0])
    seed = propagate_interval(net, b)
    counters = {}
    kept = tighten_lp(net, b, seed, 5.0, deadline=time.monotonic() - 1.0, counters=counters)
    assert counters == dict.fromkeys(COUNTERS, 0)
    for k in range(len(net.layers)):
        np.testing.assert_array_equal(kept.pre_lower[k], seed.pre_lower[k])
        np.testing.assert_array_equal(kept.pre_upper[k], seed.pre_upper[k])


def test_tightened_post_bounds_are_max_of_zero_and_pre_bounds():
    from reluopt.bounds import POST_CONSISTENCY_EPS

    rng = np.random.default_rng(53)
    improved = 0
    for _ in range(5):
        net = random_net(rng, n_in=3, hidden=(6, 5, 4), n_out=1)
        b = box(-np.ones(3), np.ones(3))
        seed = propagate_interval(net, b)
        tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
        for k in net.relu_layers:
            improved += int(np.count_nonzero(tight.pre_upper[k] < seed.pre_upper[k]))
            for post, pre in (
                (tight.post_lower[k], tight.pre_lower[k]),
                (tight.post_upper[k], tight.pre_upper[k]),
            ):
                gap = np.abs(post - np.maximum(0.0, pre))
                assert np.all(gap <= POST_CONSISTENCY_EPS + 1e-12)  # + round-off
    assert improved > 0


# ---------------------------------------------------------------------------
# Back-substitution (symbolic) bounds and phase-aware tightening


def _identity_hidden_net(rng):
    """A random net with an identity layer between two ReLU layers."""
    from reluopt import Activation, Layer, Network

    widths = [3, 6, 5, 6, 2]
    acts = [Activation.RELU, Activation.IDENTITY, Activation.RELU, Activation.IDENTITY]
    layers = []
    for k, act in enumerate(acts):
        w = rng.normal(0.0, 1.0 / np.sqrt(widths[k]), (widths[k + 1], widths[k]))
        layers.append(Layer(w, rng.normal(0.0, 0.3, widths[k + 1]), act))
    return Network(tuple(layers))


def _symbolic_cases():
    """(net, box) pairs: random nets on unit boxes, nets with identity hidden
    layers, and the boxes of min-adversarial problems (a ball clipped to a
    domain around a point)."""
    from reluopt.cli import ProblemSpec, canonicalize

    rng = np.random.default_rng(211)
    for _ in range(4):
        net = random_net(rng, n_in=3, hidden=(8, 8, 6), n_out=2)
        yield net, box(-np.ones(3), np.ones(3))
    for _ in range(2):
        net = _identity_hidden_net(rng)
        yield net, box(-np.ones(3), 0.5 * np.ones(3))
    for _ in range(2):
        net = random_net(rng, n_in=3, hidden=(10, 6), n_out=3)
        spec = ProblemSpec(
            kind="min_adversarial_linf",
            network="",
            x0=rng.uniform(-0.5, 0.5, 3),
            radius=np.array([0.8]),
            domain_lower=-np.ones(3),
            domain_upper=np.ones(3),
            target_label=1,
            true_label=0,
        )
        yield net, canonicalize(spec, net).subproblems[0].box


def _undetermined(net, bounds):
    return int(np.count_nonzero(phases(bounds) == UNDETERMINED))


def test_symbolic_bounds_are_sound_on_ten_thousand_samples():
    rng = np.random.default_rng(223)
    for net, b in _symbolic_cases():
        bounds = propagate_symbolic(net, b)
        xs = b.sample(rng, 10_000)
        a = xs.T
        for k, layer in enumerate(net.layers):
            pre = layer.weights @ a + layer.biases[:, None]
            a = np.maximum(pre, 0.0) if k in net.relu_layers else pre
            assert np.all(pre >= bounds.pre_lower[k][:, None])
            assert np.all(pre <= bounds.pre_upper[k][:, None])
            assert np.all(a >= bounds.post_lower[k][:, None])
            assert np.all(a <= bounds.post_upper[k][:, None])


def test_symbolic_bounds_lie_within_interval_bounds_and_fix_more():
    tighter = 0
    for net, b in _symbolic_cases():
        interval = propagate_interval(net, b)
        symbolic = propagate_symbolic(net, b)
        for side in ("pre_lower", "post_lower"):
            for s, i in zip(getattr(symbolic, side), getattr(interval, side)):
                assert np.all(s >= i)
        for side in ("pre_upper", "post_upper"):
            for s, i in zip(getattr(symbolic, side), getattr(interval, side)):
                assert np.all(s <= i)
        # The first layer is affine in the box: interval bounds are exact there.
        np.testing.assert_array_equal(symbolic.pre_lower[0], interval.pre_lower[0])
        np.testing.assert_array_equal(symbolic.pre_upper[0], interval.pre_upper[0])
        assert _undetermined(net, symbolic) <= _undetermined(net, interval)
        tighter += sum(
            int(np.count_nonzero(s < i)) for s, i in zip(symbolic.pre_upper, interval.pre_upper)
        )
    assert tighter > 0


def _correlated_net():
    """z1 = relu(x), z2 = relu(1 - x), then relu(z1 + z2): the sum is >= 1."""
    from reluopt import Activation, Layer, Network

    return Network(
        (
            Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), Activation.RELU),
            Layer(np.array([[1.0, 1.0]]), np.array([0.0]), Activation.RELU),
            Layer(np.array([[1.0]]), np.array([0.0]), Activation.IDENTITY),
        )
    )


def test_symbolic_bounds_give_the_exact_lower_bound_on_the_correlated_net():
    # On [-1, 2] both first-layer ReLUs have u > -l, so their lower slope is 1 and
    # back-substitution sees z1 + z2 >= x + (1 - x) = 1.
    net = _correlated_net()
    bounds = propagate_symbolic(net, box([-1.0], [2.0]))
    assert bounds.pre_lower[1][0] == pytest.approx(1.0, abs=1e-6)
    assert bounds.pre_lower[1][0] <= 1.0
    assert phases(bounds)[2] == ACTIVE  # node (1, 0), after the two of layer 0


def test_symbolic_bounds_check_the_box_dimension():
    net = random_net(np.random.default_rng(0), n_in=2)
    with pytest.raises(DimensionMismatch):
        propagate_symbolic(net, box([0.0], [1.0]))


def test_phase_aware_tightening_is_sound_and_fixes_at_least_what_its_seed_does():
    rng = np.random.default_rng(227)
    for net, b in _symbolic_cases():
        interval = propagate_interval(net, b)
        seed = propagate_symbolic(net, b)
        tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
        _assert_sound(net, tight, b, rng, samples=300, tol=1e-7)
        assert _undetermined(net, tight) <= _undetermined(net, seed)
        assert _undetermined(net, tight) <= _undetermined(net, interval)
        for k in range(len(net.layers)):
            assert np.all(tight.pre_lower[k] >= seed.pre_lower[k])
            assert np.all(tight.pre_upper[k] <= seed.pre_upper[k])


def test_tightening_applies_the_phase_a_node_lp_fixes_before_later_nodes():
    # c = relu(z1 + z2 - 0.5) is active (z1 + z2 >= 1), which interval bounds
    # miss but its min LP finds. With c = z1 + z2 - 0.5 written into the LP,
    # the next node's pre-activation c - z1 - z2 + 0.4 is exactly -0.1;
    # relaxed as c <= its upper bound it could reach far above 0.
    from reluopt import Activation, Layer, Network

    # The second layer also passes z1 and z2 on (relu of a nonnegative input
    # is fixed active), so the third layer can read them.
    net = Network(
        (
            Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), Activation.RELU),
            Layer(
                np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([-0.5, 0.0, 0.0]),
                Activation.RELU,
            ),
            Layer(np.array([[1.0, -1.0, -1.0]]), np.array([0.4]), Activation.RELU),
            Layer(np.array([[1.0]]), np.array([0.0]), Activation.IDENTITY),
        )
    )
    b = box([-1.0], [2.0])
    seed = propagate_interval(net, b)
    assert seed.pre_lower[1][0] < 0.0 < seed.pre_upper[2][0]  # both undetermined
    tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
    assert tight.pre_lower[1][0] == pytest.approx(0.5, abs=1e-6)
    assert tight.pre_upper[2][0] == pytest.approx(-0.1, abs=1e-6)
    assert phases(tight)[-1] == INACTIVE  # node (2, 0)
    _assert_sound(net, tight, b, np.random.default_rng(229), samples=500, tol=1e-7)


def test_tightening_writes_the_seeds_fixed_phases_into_its_lps():
    # x in [0.5, 1] fixes z = relu(x) active, and z - x - 0.1 is -0.1 on the
    # whole box. An LP that relaxed the fixed ReLU as z >= x, z <= 1 would
    # find 0.4 as its maximum.
    from reluopt import Activation, Layer, Network

    net = Network(
        (
            Layer(np.array([[1.0], [1.0], [-1.0]]), np.array([0.0, 0.0, 0.0]), Activation.RELU),
            Layer(np.array([[1.0, -1.0, 1.0]]), np.array([-0.1]), Activation.RELU),
            Layer(np.array([[1.0]]), np.array([0.0]), Activation.IDENTITY),
        )
    )
    b = box([0.5], [1.0])
    seed = propagate_interval(net, b)
    assert seed.pre_upper[1][0] > 0.0
    tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
    assert tight.pre_upper[1][0] == pytest.approx(-0.1, abs=1e-6)


def test_tightening_lps_see_the_phases_the_seed_fixes_in_later_layers():
    # Each tightened bound of a ReLU the seed leaves open is at least as
    # tight as the LP over the seed's relaxation with the seed's fixed
    # phases written in. Those phases can cut the LP of an earlier node: a
    # later active ReLU's z = zhat, under the column bounds of the layers
    # after it, constrains the layers before. A ReLU the seed fixes keeps
    # the seed's bounds.
    from reluopt.bounds import IMPROVEMENT_THRESHOLD, SAFETY_MARGIN
    from reluopt.lp import build_relaxed_lp, encode_relaxation, solve_lp
    from reluopt.problems import Objective, OptimizationProblem
    from reluopt.state import phase_state

    rng = np.random.default_rng(233)
    slack = SAFETY_MARGIN + IMPROVEMENT_THRESHOLD + 1e-9
    fixed = opened = 0
    for _ in range(6):
        net = random_net(rng, n_in=3, hidden=(8, 8, 8), n_out=1)
        lo = rng.uniform(-1.0, 0.6, 3)
        b = box(lo, lo + 0.4)
        seed = propagate_symbolic(net, b)
        tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
        relaxation = encode_relaxation(net, OptimizationProblem(b, Objective()), seed)
        lp = build_relaxed_lp(relaxation, phase_state(net, relaxation.phase))
        for i, node in enumerate(net.relu_node_ids()):
            if relaxation.phase[i] != UNDETERMINED:
                assert _pre(tight, *node) == _pre(seed, *node)
                assert _post(tight, *node) == _post(seed, *node)
                fixed += 1
                continue
            obj = np.zeros(lp.n_vars)
            obj[relaxation.zhat[i]] = 1.0
            top = solve_lp(lp.with_objective(obj, maximize=True)).value
            bottom = solve_lp(lp.with_objective(obj, maximize=False)).value
            lower, upper = _pre(tight, *node)
            assert upper <= top + slack
            assert lower >= bottom - slack
            opened += 1
    assert fixed > 0 and opened > 0


# ---------------------------------------------------------------------------
# Tightening that skips fixed ReLUs against tightening every ReLU


def _tighten_every_lp(net, b, seed):
    """Progressive tightening that solves both LPs of every ReLU, fixed ones
    included, with no time limit. Its LPs are the relaxation of
    `export_milp`'s model, which has a zhat and a z column for every ReLU:
    the binaries in [0, 1] make each open ReLU's big-M rows its triangle."""
    from dataclasses import replace

    from reluopt.baselines import export_milp, milp_to_lp
    from reluopt.bounds import IMPROVEMENT_THRESHOLD, POST_CONSISTENCY_EPS, SAFETY_MARGIN
    from reluopt.highs import LiveModel
    from reluopt.lp import LPStatus, solve_lp
    from reluopt.problems import Objective, OptimizationProblem

    lp, index = milp_to_lp(export_milp(net, OptimizationProblem(b, Objective()), seed)[0])
    lower, upper = lp.lower.copy(), lp.upper.copy()
    lp = replace(lp, lower=lower, upper=upper)  # tightened in place
    model = LiveModel()
    for layer, j in net.relu_node_ids():
        k = net.relu_layers[layer]
        zhat, z = index[f"zhat_{k}_{j}"], index[f"z_{k}_{j}"]
        delta = index.get(f"delta_{k}_{j}")  # None for a ReLU the seed fixes
        obj = np.zeros(lp.n_vars)
        obj[zhat] = 1.0
        lo, hi = lower[zhat], upper[zhat]
        for maximize in (True, False):
            res = solve_lp(lp.with_objective(obj, maximize=maximize), model=model)
            if res.status != LPStatus.OPTIMAL:
                continue
            if maximize and hi - (res.value + SAFETY_MARGIN) >= IMPROVEMENT_THRESHOLD:
                hi = res.value + SAFETY_MARGIN
            if not maximize and res.value - SAFETY_MARGIN - lo >= IMPROVEMENT_THRESHOLD:
                lo = res.value - SAFETY_MARGIN
        lower[zhat], upper[zhat] = lo, hi
        lower[z] = max(lower[z], max(0.0, lo) - POST_CONSISTENCY_EPS, 0.0)
        upper[z] = min(upper[z], max(0.0, hi) + POST_CONSISTENCY_EPS)
        if lower[z] > upper[z]:
            lower[z] = upper[z] = max(0.0, upper[z])
        if hi <= 0.0:
            upper[z] = 0.0
        elif lo >= 0.0 and delta is not None:
            lower[delta] = 1.0  # z <= zhat, so z = zhat
    columns = lambda name: [
        [index[f"{name}_{k}_{j}"] for j in range(net.layers[k].out_width)]
        for k in range(len(net.layers))
    ]
    return BoundsMap(
        input_lower=seed.input_lower,
        input_upper=seed.input_upper,
        pre_lower=tuple(lower[c] for c in columns("zhat")),
        pre_upper=tuple(upper[c] for c in columns("zhat")),
        post_lower=tuple(lower[c] for c in columns("z")),
        post_upper=tuple(upper[c] for c in columns("z")),
        relu_layers=seed.relu_layers,
    )


def _root_lp_range(net, b, bounds):
    """The max and min over the root LP that B&B encodes from `bounds` of
    each open ReLU's zhat, then of each output, one row each."""
    from reluopt.highs import LiveModel
    from reluopt.lp import encode_relaxation, solve_lp
    from reluopt.problems import Objective, OptimizationProblem

    relaxation = encode_relaxation(net, OptimizationProblem(b, Objective()), bounds)
    lps = []
    for zhat in relaxation.zhat[relaxation.phase == UNDETERMINED]:
        obj = np.zeros(relaxation.lp.n_vars)
        obj[zhat] = 1.0
        lps.append(relaxation.lp.with_objective(obj, maximize=True))
    for c_y in np.eye(net.output_dim):
        lps.append(encode_relaxation(net, OptimizationProblem(b, Objective(c_y=c_y)), bounds).lp)
    model, rows = LiveModel(), []
    for lp in lps:
        rows.append(
            [solve_lp(lp.with_objective(lp.objective, m), model=model).value for m in (True, False)]
        )
    return np.array(rows)


def _relu_sides(net, bounds):
    """Pre and post bounds of every ReLU in `relu_node_ids()` order."""
    return {
        side: np.concatenate([getattr(bounds, side)[k] for k in net.relu_layers])
        for side in ("pre_lower", "pre_upper", "post_lower", "post_upper")
    }


def _tightening_cases():
    """_symbolic_cases; seeded (8, 8, 8) nets on unit boxes and on boxes of
    width 0.4, where tightening fixes more phases; and two nets of random
    shape on small boxes."""
    yield from _symbolic_cases()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        net = random_net(rng, n_in=3, hidden=(8, 8, 8), n_out=1)
        lo = rng.uniform(-1.0, 0.6, 3)
        yield net, box(-np.ones(3), np.ones(3))
        yield net, box(lo, lo + 0.4)
    for seed in (1041, 1181):
        rng = np.random.default_rng(seed)
        hidden = tuple(int(h) for h in rng.integers(3, 10, size=rng.integers(2, 5)))
        net = random_net(rng, n_in=2, hidden=hidden, n_out=1)
        lo = rng.uniform(-1.0, 0.6, 2)
        yield net, box(lo, lo + rng.uniform(0.1, 1.0))


def test_skipping_fixed_relus_gives_the_root_lp_of_tightening_every_relu():
    # Skipping the LPs of the ReLUs the seed fixes leaves their intervals
    # wider than tightening them would, but fixes the same phases, gives the
    # open ReLUs the same bounds, and gives B&B the same root LP.
    from reluopt.bounds import SAFETY_MARGIN

    skipped = 0
    for net, b in _tightening_cases():
        seed = propagate_symbolic(net, b)
        counters = {}
        tight = tighten_lp(net, b, seed, per_query_timeout=5.0, counters=counters)
        reference = _tighten_every_lp(net, b, seed)
        np.testing.assert_array_equal(phases(tight), phases(reference))
        opened = phases(seed) == UNDETERMINED
        ours, theirs = _relu_sides(net, tight), _relu_sides(net, reference)
        for side in ours:
            np.testing.assert_allclose(
                ours[side][opened], theirs[side][opened], rtol=0.0, atol=SAFETY_MARGIN
            )
        np.testing.assert_allclose(
            _root_lp_range(net, b, tight),
            _root_lp_range(net, b, reference),
            rtol=0.0,
            atol=SAFETY_MARGIN,
        )
        assert counters["tighten_skipped"] == 2 * np.count_nonzero(~opened)
        exact = 2 * np.count_nonzero(closed_form_relus(net, seed, tight))
        assert counters["tighten_exact"] == exact
        assert counters["tighten_limit_hits"] == 0
        assert (
            counters["tighten_lps"] + counters["tighten_skipped"] + exact
            == 2 * net.num_relu_nodes
        )
        skipped += counters["tighten_skipped"]
    assert skipped > 0


def test_tightening_counts_each_lp_as_solved_skipped_or_stopped(monkeypatch):
    # Every LP tightening solves goes through reluopt.lp.solve_lp, looked up
    # at call time, so a wrapper there sees the solves `tighten_lps` counts.
    import reluopt.lp

    calls = []
    original = reluopt.lp.solve_lp
    monkeypatch.setattr(
        reluopt.lp, "solve_lp", lambda *args, **kw: calls.append(1) or original(*args, **kw)
    )
    rng = np.random.default_rng(241)
    # The unit boxes leave every ReLU of their nets open; the last, smaller
    # box fixes some.
    fixed_total = 0
    for timeout, half_width in ((5.0, 1.0), (1e-9, 1.0), (5.0, 0.2)):
        net = random_net(rng, n_in=4, hidden=(12, 12), n_out=1)
        b = box(-half_width * np.ones(4), half_width * np.ones(4))
        seed = propagate_symbolic(net, b)
        counters, calls[:] = {}, []
        tight = tighten_lp(net, b, seed, timeout, counters=counters)
        exact = counters["tighten_exact"]
        assert exact == 2 * np.count_nonzero(closed_form_relus(net, seed, tight)) > 0
        visited = (
            counters["tighten_lps"]
            + counters["tighten_skipped"]
            + exact
            + counters["tighten_limit_hits"]
        )
        assert visited == 2 * net.num_relu_nodes
        assert counters["tighten_lps"] + counters["tighten_limit_hits"] == len(calls)
        fixed = int(np.count_nonzero(phases(seed) != UNDETERMINED))
        assert counters["tighten_skipped"] == 2 * fixed
        fixed_total += fixed
        if timeout == 5.0:
            assert counters["tighten_limit_hits"] == 0
        else:
            assert counters["tighten_limit_hits"] > 0
    assert fixed_total > 0


def test_warm_tightening_optima_equal_cold_solves(monkeypatch):
    # Every optimal LP tightening solves warm in its live model has the
    # optimum of a cold solve of the same LP to 1e-9, so the SAFETY_MARGIN
    # that widens each bound is not spent on the solver's own error.
    import reluopt.lp
    from reluopt.lp import LinearProgram, LPStatus

    solved = []
    original = reluopt.lp.solve_lp

    def record(lp, *args, **kw):
        res = original(lp, *args, **kw)
        if res.status == LPStatus.OPTIMAL:
            # Tightening writes new bounds into the same vectors after each ReLU.
            vectors = (lp.row_lower, lp.row_upper, lp.lower, lp.upper, lp.objective)
            copy = LinearProgram(lp.matrix, *(v.copy() for v in vectors), lp.maximize)
            solved.append((copy, res.value))
        return res

    monkeypatch.setattr(reluopt.lp, "solve_lp", record)
    rng = np.random.default_rng(1002)
    for _ in range(60):
        n_in, n_out = int(rng.integers(2, 7)), int(rng.integers(2, 8))
        hidden = tuple(int(h) for h in rng.integers(4, 12, size=2))
        center = rng.uniform(-1.0, 1.0, n_in)
        net = random_net(rng, n_in=n_in, hidden=hidden, n_out=n_out)
        b = box(center - 0.5, center + 0.5)
        for seed in (propagate_interval(net, b), propagate_symbolic(net, b)):
            tighten_lp(net, b, seed, per_query_timeout=5.0)
    assert len(solved) > 1000
    for lp, warm in solved:
        cold = original(lp)
        assert cold.status == LPStatus.OPTIMAL
        assert warm == pytest.approx(cold.value, rel=0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Closed-form ranges of ReLUs behind no open ReLU


def _affine_range(net, b, phase, k):
    """The range over box b of layer k's pre-activation, with every ReLU
    before layer k in its phase in `phase`: composed as one affine map of x
    and bounded at the box's corners."""
    a, c = np.eye(net.input_dim), np.zeros(net.input_dim)
    first = 0
    for j, layer in enumerate(net.layers[: k + 1]):
        a, c = layer.weights @ a, layer.weights @ c + layer.biases
        if j < k and j in net.relu_layers:
            on = (phase[first : first + layer.out_width] == ACTIVE).astype(float)
            first += layer.out_width
            a, c = on[:, None] * a, on * c
    pos, neg = np.maximum(a, 0.0), np.minimum(a, 0.0)
    return c + pos @ b.lower + neg @ b.upper, c + pos @ b.upper + neg @ b.lower


def _layer_closing_net():
    """x in [1, 2]. The first layer's two ReLUs, both x, are active on the
    box. The second layer's first ReLU has pre-activation z0 - z1 + 0.5 =
    0.5, which interval bounds see as [-0.5, 1.5], and its second ReLU is
    z0 = x again. The third layer's ReLU has pre-activation a - x + 1 =
    1.5 - x, in [-0.5, 0.5]."""
    from reluopt import Activation, Layer, Network

    return Network(
        (
            Layer(np.array([[1.0], [1.0]]), np.zeros(2), Activation.RELU),
            Layer(np.array([[1.0, -1.0], [1.0, 0.0]]), np.array([0.5, 0.0]), Activation.RELU),
            Layer(np.array([[1.0, -1.0]]), np.array([1.0]), Activation.RELU),
            Layer(np.array([[1.0]]), np.zeros(1), Activation.IDENTITY),
        )
    )


def test_closed_form_ranges_are_the_lp_optima():
    # Tightening gives a ReLU its range in closed form when every ReLU
    # before its layer is fixed. Here both LPs of each such ReLU are solved
    # over the bounds tightening had when it reached the layer (tightened
    # before it, the seed's from it on), and each optimum is the range of
    # the affine map the fixed layers make. Tightening applied that range
    # as it applies an LP optimum.
    from reluopt.bounds import IMPROVEMENT_THRESHOLD, SAFETY_MARGIN
    from reluopt.lp import build_relaxed_lp, encode_relaxation, solve_lp
    from reluopt.problems import Objective, OptimizationProblem

    nets = [(_layer_closing_net(), box([1.0], [2.0]))] + list(_tightening_cases())
    solved = closed_behind_closed = 0
    for net, b in nets:
        for seed in (propagate_interval(net, b), propagate_symbolic(net, b)):
            counters = {}
            tight = tighten_lp(net, b, seed, per_query_timeout=5.0, counters=counters)
            closed = closed_form_relus(net, seed, tight)
            assert counters["tighten_exact"] == 2 * np.count_nonzero(closed)
            phase = phases(tight)
            first = 0
            for k in net.relu_layers:
                layer = np.arange(first, first + net.layers[k].out_width)
                first += len(layer)
                if not closed[layer].any():
                    continue
                closed_behind_closed += bool(
                    (phases(seed)[: layer[0]] == UNDETERMINED).any()
                )
                sides = [
                    tuple(t[:k]) + tuple(s[k:])
                    for t, s in zip(
                        (tight.pre_lower, tight.pre_upper, tight.post_lower, tight.post_upper),
                        (seed.pre_lower, seed.pre_upper, seed.post_lower, seed.post_upper),
                    )
                ]
                current = BoundsMap(seed.input_lower, seed.input_upper, *sides, seed.relu_layers)
                relaxation = encode_relaxation(net, OptimizationProblem(b, Objective()), current)
                lp = build_relaxed_lp(relaxation, relaxation.phase)
                bottom, top = _affine_range(net, b, phase, k)
                for j in np.flatnonzero(closed[layer]):
                    obj = np.zeros(lp.n_vars)
                    obj[relaxation.zhat[layer[j]]] = 1.0
                    high = solve_lp(lp.with_objective(obj, maximize=True)).value
                    low = solve_lp(lp.with_objective(obj, maximize=False)).value
                    assert high == pytest.approx(top[j], rel=0.0, abs=1e-9)
                    assert low == pytest.approx(bottom[j], rel=0.0, abs=1e-9)
                    hi, lo = seed.pre_upper[k][j], seed.pre_lower[k][j]
                    if hi - (top[j] + SAFETY_MARGIN) >= IMPROVEMENT_THRESHOLD:
                        hi = top[j] + SAFETY_MARGIN
                    if bottom[j] - SAFETY_MARGIN - lo >= IMPROVEMENT_THRESHOLD:
                        lo = bottom[j] - SAFETY_MARGIN
                    assert tight.pre_upper[k][j] == pytest.approx(hi, rel=0.0, abs=1e-12)
                    assert tight.pre_lower[k][j] == pytest.approx(lo, rel=0.0, abs=1e-12)
                    solved += 1
    assert solved > 0 and closed_behind_closed > 0


def test_tightening_closes_a_layer_and_gives_the_next_its_range_without_an_lp(monkeypatch):
    import reluopt.lp

    monkeypatch.setattr(reluopt.lp, "encode_relaxation", None)  # no LP may be set up
    net, b = _layer_closing_net(), box([1.0], [2.0])
    seed = propagate_interval(net, b)
    assert phases(seed).tolist() == [ACTIVE, ACTIVE, UNDETERMINED, ACTIVE, UNDETERMINED]
    counters = {}
    tight = tighten_lp(net, b, seed, per_query_timeout=5.0, counters=counters)
    assert counters == {
        "simplex_iters": 0,
        "tighten_lps": 0,
        "tighten_skipped": 6,
        "tighten_exact": 4,
        "tighten_limit_hits": 0,
    }
    assert phases(tight).tolist() == [ACTIVE, ACTIVE, ACTIVE, ACTIVE, UNDETERMINED]
    assert _pre(tight, 1, 0) == pytest.approx((0.5, 0.5), abs=2e-7)
    assert _pre(tight, 2, 0) == pytest.approx((-0.5, 0.5), abs=2e-7)
    _assert_sound(net, tight, b, np.random.default_rng(5), samples=200, tol=0.0)
