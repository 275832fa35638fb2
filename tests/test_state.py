"""Partial activation states: one read-only phase per ReLU node."""

import numpy as np
import pytest

from reluopt import InconsistentState, NoUndetermined, split
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, fingerprint, phase_state

from conftest import random_net


@pytest.fixture
def net():
    """ReLU layers of widths 12 and 3, so node numbers reach two digits. The
    node (i, j) sits at position 12 i + j of a phase vector."""
    return random_net(np.random.default_rng(0), n_in=2, hidden=(12, 3), n_out=1)


def _state(net, active=(), inactive=()):
    """The state with the nodes at the given positions fixed."""
    phase = np.zeros(net.num_relu_nodes, np.int8)
    phase[list(active)] = ACTIVE
    phase[list(inactive)] = INACTIVE
    return phase_state(net, phase)


def _fix(phase, i, active):
    """The child of `phase` that `split` makes with node `i` active or
    inactive, picked by a gap and a score at `i` alone."""
    gaps = np.zeros(len(phase))
    gaps[i] = 1.0
    fixed, on, off = split(phase, gaps, gaps)
    assert fixed == i
    return on if active else off


@pytest.mark.parametrize(
    "phase",
    [
        [0] * 14,
        [0] * 16,
        [],
        [[0] * 15],
        0,
        [2] + [0] * 14,
        [0] * 14 + [-2],
        [0.5] + [0] * 14,
    ],
    ids=["short", "long", "empty", "nested", "scalar", "two", "minus_two", "half"],
)
def test_phase_state_rejects_a_wrong_length_or_value(net, phase):
    with pytest.raises(InconsistentState):
        phase_state(net, np.array(phase))


def test_split_fixes_only_undetermined_nodes(net):
    state = _state(net, active={3}, inactive={13})
    gaps = np.zeros(net.num_relu_nodes)
    gaps[[3, 13]] = 5.0  # the largest gaps sit at fixed nodes
    gaps[4] = 1.0
    scores = 2.0 * gaps  # and so do the largest scores
    i, on, off = split(state, gaps, scores)
    assert i == 4
    assert (on[4], off[4]) == (ACTIVE, INACTIVE)
    for child in (on, off):
        assert np.flatnonzero(child != state).tolist() == [4]
        assert not child.flags.writeable
    assert state[4] == UNDETERMINED  # the parent is unchanged
    leaf = _state(net, active=range(0, 15, 2), inactive=range(1, 15, 2))
    for args in ((), (gaps, scores)):
        with pytest.raises(NoUndetermined):
            split(leaf, *args)


def test_phases_partition_the_nodes(net):
    state = _fix(_state(net, active={2}, inactive={12}), 5, True)
    assert np.flatnonzero(state == ACTIVE).tolist() == [2, 5]
    assert np.flatnonzero(state == INACTIVE).tolist() == [12]
    undetermined = set(range(net.num_relu_nodes)) - {2, 5, 12}
    assert set(np.flatnonzero(state == UNDETERMINED).tolist()) == undetermined
    with pytest.raises(ValueError):
        state[0] = 1  # read-only


def test_fingerprint_text(net):
    # Trace records and the scripted search tests key on this exact text.
    assert fingerprint(net, _state(net)) == "A[]N[]"
    state = _state(net, active={10, 14, 2}, inactive={11, 0})
    assert fingerprint(net, state) == "A[0.2,0.10,1.2]N[0.0,0.11]"
    child = _fix(_fix(state, 12, False), 9, True)
    assert fingerprint(net, child) == "A[0.2,0.9,0.10,1.2]N[0.0,0.11,1.0]"


def test_phase_state_copies_a_phase_vector(net):
    phase = np.zeros(net.num_relu_nodes, np.int8)
    phase[[3, 13]] = ACTIVE, INACTIVE
    state = phase_state(net, phase)
    phase[0] = ACTIVE  # the state keeps its own copy
    assert state.tolist() == [0, 0, 0, 1] + [0] * 9 + [-1, 0]
    assert state.dtype == np.int8
    assert not state.flags.writeable
    with pytest.raises(InconsistentState):
        phase_state(net, phase[:-1])


def test_a_state_built_without_phase_state_fingerprints_alike(net):
    """Search takes its root state straight from a read-only phase vector;
    it names its nodes as a checked state does."""
    phase = np.zeros(net.num_relu_nodes, np.int8)
    phase[[2, 10, 14]], phase[[0, 11]] = ACTIVE, INACTIVE
    phase.flags.writeable = False
    expected = "A[0.2,0.10,1.2]N[0.0,0.11]"
    assert fingerprint(net, phase) == fingerprint(net, phase_state(net, phase)) == expected
    assert fingerprint(net, _fix(phase, 12, False)) == "A[0.2,0.10,1.2]N[0.0,0.11,1.0]"
