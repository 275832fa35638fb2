"""Partial activation states: one phase per ReLU node."""

import numpy as np
import pytest

from reluopt import InconsistentState
from reluopt.model import NodeId
from reluopt.state import root_state

from conftest import random_net


@pytest.fixture
def net():
    """ReLU layers of widths 12 and 3, so node numbers reach two digits."""
    return random_net(np.random.default_rng(0), n_in=2, hidden=(12, 3), n_out=1)


def test_root_state_rejects_overlapping_nodes(net):
    with pytest.raises(InconsistentState):
        root_state(net, active={NodeId(0, 1), NodeId(1, 0)}, inactive={NodeId(1, 0)})


@pytest.mark.parametrize("node", [NodeId(0, 12), NodeId(1, 3), NodeId(2, 0), NodeId(-1, 0), NodeId(0, -1)])
def test_root_state_rejects_nodes_outside_the_network(net, node):
    with pytest.raises(InconsistentState):
        root_state(net, active={node})
    with pytest.raises(InconsistentState):
        root_state(net, inactive={node})


def test_fix_rejects_a_fixed_node(net):
    state = root_state(net, active={NodeId(0, 3)}, inactive={NodeId(1, 1)})
    for node in (NodeId(0, 3), NodeId(1, 1)):
        for active in (True, False):
            with pytest.raises(InconsistentState):
                state.fix(node, active)
    child = state.fix(NodeId(0, 4), active=False)
    with pytest.raises(InconsistentState):
        child.fix(NodeId(0, 4), active=True)
    assert NodeId(0, 4) in state.undetermined  # the parent is unchanged


def test_phases_partition_the_nodes(net):
    state = root_state(net, active={NodeId(0, 2)}, inactive={NodeId(1, 0)}).fix(NodeId(0, 5), True)
    assert state.active == {NodeId(0, 2), NodeId(0, 5)}
    assert state.inactive == {NodeId(1, 0)}
    assert state.undetermined == set(net.relu_node_ids()) - {NodeId(0, 2), NodeId(0, 5), NodeId(1, 0)}
    with pytest.raises(ValueError):
        state.phase[0] = 1  # read-only


def test_fingerprint_text(net):
    # Trace records and the scripted search tests key on this exact text.
    assert root_state(net).fingerprint() == "A[]N[]"
    state = root_state(
        net,
        active={NodeId(0, 10), NodeId(1, 2), NodeId(0, 2)},
        inactive={NodeId(0, 11), NodeId(0, 0)},
    )
    assert state.fingerprint() == "A[0.2,0.10,1.2]N[0.0,0.11]"
    child = state.fix(NodeId(1, 0), active=False).fix(NodeId(0, 9), active=True)
    assert child.fingerprint() == "A[0.2,0.9,0.10,1.2]N[0.0,0.11,1.0]"
