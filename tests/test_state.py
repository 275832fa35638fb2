"""Partial activation states: one phase per ReLU node."""

import numpy as np
import pytest

from reluopt import InconsistentState
from reluopt.state import ACTIVE, INACTIVE, UNDETERMINED, phase_state

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


def test_fix_rejects_a_fixed_node(net):
    state = _state(net, active={3}, inactive={13})
    for i in (3, 13):
        for active in (True, False):
            with pytest.raises(InconsistentState):
                state.fix_at(i, active)
    child = state.fix_at(4, active=False)
    with pytest.raises(InconsistentState):
        child.fix_at(4, active=True)
    assert state.phase[4] == UNDETERMINED  # the parent is unchanged


def test_phases_partition_the_nodes(net):
    state = _state(net, active={2}, inactive={12}).fix_at(5, True)
    assert np.flatnonzero(state.phase == ACTIVE).tolist() == [2, 5]
    assert np.flatnonzero(state.phase == INACTIVE).tolist() == [12]
    undetermined = set(range(net.num_relu_nodes)) - {2, 5, 12}
    assert set(np.flatnonzero(state.phase == UNDETERMINED).tolist()) == undetermined
    with pytest.raises(ValueError):
        state.phase[0] = 1  # read-only


def test_fingerprint_text(net):
    # Trace records and the scripted search tests key on this exact text.
    assert _state(net).fingerprint() == "A[]N[]"
    state = _state(net, active={10, 14, 2}, inactive={11, 0})
    assert state.fingerprint() == "A[0.2,0.10,1.2]N[0.0,0.11]"
    child = state.fix_at(12, active=False).fix_at(9, active=True)
    assert child.fingerprint() == "A[0.2,0.9,0.10,1.2]N[0.0,0.11,1.0]"


def test_phase_state_copies_a_phase_vector(net):
    phase = np.zeros(net.num_relu_nodes, np.int8)
    phase[[3, 13]] = ACTIVE, INACTIVE
    state = phase_state(net, phase)
    phase[0] = ACTIVE  # the state keeps its own copy
    assert state.phase.tolist() == [0, 0, 0, 1] + [0] * 9 + [-1, 0]
    assert not state.phase.flags.writeable
    with pytest.raises(InconsistentState):
        phase_state(net, phase[:-1])


def test_a_state_built_without_phase_state_fingerprints_alike(net):
    """Search builds its root state straight from a read-only phase vector;
    it names its nodes as a checked state does."""
    from reluopt.state import PartialActivationState

    phase = np.zeros(net.num_relu_nodes, np.int8)
    phase[[2, 10, 14]], phase[[0, 11]] = ACTIVE, INACTIVE
    phase.flags.writeable = False
    state = PartialActivationState(phase, net)
    expected = "A[0.2,0.10,1.2]N[0.0,0.11]"
    assert state.fingerprint() == phase_state(net, phase).fingerprint() == expected
    assert state.fix_at(12, active=False).fingerprint() == "A[0.2,0.10,1.2]N[0.0,0.11,1.0]"
    with pytest.raises(InconsistentState, match=r"NodeId\(layer=0, node=2\)"):
        state.fix_at(2, active=False)
