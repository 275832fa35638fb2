import numpy as np
import pytest

from reluopt import (
    DimensionMismatch,
    Hyperrectangle,
    fixed_by_bounds,
    propagate_interval,
    tighten_lp,
)
from reluopt.model import NodeId, forward_trace

from conftest import box, random_net


def _assert_sound(net, bounds, b, rng, samples=500, tol=1e-9):
    for x in b.sample(rng, samples):
        trace = forward_trace(net, x)
        for k in range(len(net.layers)):
            assert np.all(trace.pre[k] >= bounds.pre_lower[k] - tol)
            assert np.all(trace.pre[k] <= bounds.pre_upper[k] + tol)
            assert np.all(trace.post[k] >= bounds.post_lower[k] - tol)
            assert np.all(trace.post[k] <= bounds.post_upper[k] + tol)


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
    fixed = fixed_by_bounds(propagate_interval(abs_net, b))
    assert NodeId(0, 0) in fixed.active
    assert NodeId(0, 1) in fixed.inactive


def test_fixed_by_bounds_zero_interval_is_inactive():
    from reluopt import Activation, Layer, Network

    # zhat == 0 identically: weights and bias zero.
    net = Network(
        (
            Layer(np.zeros((1, 1)), np.zeros(1), Activation.RELU),
            Layer(np.ones((1, 1)), np.zeros(1), Activation.IDENTITY),
        )
    )
    fixed = fixed_by_bounds(propagate_interval(net, box([-1.0], [1.0])))
    assert NodeId(0, 0) in fixed.inactive
    assert NodeId(0, 0) not in fixed.active


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
    # bound 1 on the second layer's pre-activation (exhaustive range check:
    # min over x of max(0,x) + max(0,1-x) is 1, attained on [0,1]).
    from reluopt import Activation, Layer, Network

    net = Network(
        (
            Layer(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]), Activation.RELU),
            Layer(np.array([[1.0, 1.0]]), np.array([0.0]), Activation.RELU),
            Layer(np.array([[1.0]]), np.array([0.0]), Activation.IDENTITY),
        )
    )
    b = box([-1.0], [2.0])
    # sanity: the interval seed cannot see the coupling
    seed = propagate_interval(net, b)
    assert seed.pre_lower[1][0] == pytest.approx(0.0)
    # brute-force range oracle over a dense input grid
    true_min = min(
        float(forward_trace(net, [x]).pre[1][0]) for x in np.linspace(-1.0, 2.0, 3001)
    )
    assert true_min == pytest.approx(1.0, abs=1e-3)
    tight = tighten_lp(net, b, seed, per_query_timeout=5.0)
    assert tight.pre_lower[1][0] == pytest.approx(1.0, abs=1e-6)


def test_bounds_map_node_accessors(abs_net):
    b = box([-2.0], [3.0])
    bounds = propagate_interval(abs_net, b)
    lo, hi = bounds.pre(NodeId(0, 0))
    assert (lo, hi) == (-2.0, 3.0)
    lo, hi = bounds.post(NodeId(0, 1))
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
    assert counters == {"simplex_iters": 0, "tighten_limit_hits": 0}
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
