"""Partial activation states over the ReLU nodes of a network.

A state is one read-only int8 phase vector in `net.relu_node_ids()` order:
ACTIVE (1), INACTIVE (-1) or UNDETERMINED (0) per ReLU. That vector is the
only form of a phase in the package; a ReLU is named by its position in it,
and `fingerprint` names the nodes only when a trace asks."""

from __future__ import annotations

import numpy as np

from .errors import InconsistentState
from .model import Network

ACTIVE, INACTIVE, UNDETERMINED = 1, -1, 0


def phase_state(net: Network, phase) -> np.ndarray:
    """A read-only int8 copy of `phase`, checked to hold one phase (1, -1
    or 0) per ReLU node of `net`."""
    values = np.asarray(phase)
    if values.shape != (net.num_relu_nodes,):
        raise InconsistentState(f"{values.size} phases for {net.num_relu_nodes} ReLU nodes")
    if not np.isin(values, (ACTIVE, INACTIVE, UNDETERMINED)).all():
        raise InconsistentState("a phase must be 1 (active), -1 (inactive) or 0 (undetermined)")
    phase = values.astype(np.int8)  # a copy
    phase.flags.writeable = False
    return phase


def fingerprint(net: Network, phase: np.ndarray) -> str:
    """Stable textual identity of a state, used for trace records: the
    active and the inactive nodes as `layer.node`, in order."""
    nodes = net.relu_node_ids()
    fmt = lambda value: ",".join("%d.%d" % nodes[i] for i in (phase == value).nonzero()[0])
    return f"A[{fmt(ACTIVE)}]N[{fmt(INACTIVE)}]"
