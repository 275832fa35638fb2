"""Partial activation states over the ReLU nodes of a network."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentState
from .model import Network, NodeId

ACTIVE, INACTIVE, UNDETERMINED = 1, -1, 0


@dataclass(frozen=True, eq=False)
class PartialActivationState:
    """The phase of every ReLU node, in `net.relu_node_ids()` order: 1
    active, -1 inactive, 0 undetermined. Every node has exactly one phase,
    so the three sets partition the nodes by construction. `phase` is
    read-only; `fix` returns a new state."""

    phase: np.ndarray  # int8
    nodes: tuple[NodeId, ...]  # the network's ReLU nodes, sorted

    def _nodes(self, phase: int) -> list[NodeId]:
        """The nodes in `phase`, in order."""
        return [self.nodes[i] for i in np.flatnonzero(self.phase == phase)]

    @property
    def active(self) -> frozenset[NodeId]:
        return frozenset(self._nodes(ACTIVE))

    @property
    def inactive(self) -> frozenset[NodeId]:
        return frozenset(self._nodes(INACTIVE))

    @property
    def undetermined(self) -> frozenset[NodeId]:
        return frozenset(self._nodes(UNDETERMINED))

    def _index(self, node: NodeId) -> int:
        """The position of `node` in `phase`."""
        i = bisect_left(self.nodes, node)
        if i == len(self.nodes) or self.nodes[i] != node:
            raise InconsistentState(f"node {node} is not a ReLU node of the network")
        return i

    def fix(self, node: NodeId, active: bool) -> "PartialActivationState":
        return self.fix_at(self._index(node), active)

    def fix_at(self, i: int, active: bool) -> "PartialActivationState":
        """`fix` of the node at position `i` of `phase`."""
        if self.phase[i] != UNDETERMINED:
            raise InconsistentState(f"node {self.nodes[i]} is not undetermined")
        phase = self.phase.copy()
        phase[i] = ACTIVE if active else INACTIVE
        phase.flags.writeable = False
        return PartialActivationState(phase, self.nodes)

    def fingerprint(self) -> str:
        """Stable textual identity, used for trace records."""
        fmt = lambda phase: ",".join(f"{i}.{j}" for i, j in self._nodes(phase))
        return f"A[{fmt(ACTIVE)}]N[{fmt(INACTIVE)}]"


def phase_state(net: Network, phase: np.ndarray) -> PartialActivationState:
    """The state with a copy of `phase`, one phase per ReLU node in
    `net.relu_node_ids()` order."""
    phase = np.array(phase, dtype=np.int8)
    if phase.shape != (net.num_relu_nodes,):
        raise InconsistentState(f"{phase.size} phases for {net.num_relu_nodes} ReLU nodes")
    phase.flags.writeable = False
    return PartialActivationState(phase, tuple(net.relu_node_ids()))


def root_state(net: Network, active=(), inactive=()) -> PartialActivationState:
    """State with the given nodes fixed and everything else undetermined."""
    phase = np.zeros(net.num_relu_nodes, np.int8)
    state = PartialActivationState(phase, tuple(net.relu_node_ids()))
    for value, nodes in ((ACTIVE, set(active)), (INACTIVE, set(inactive))):
        for node in nodes:
            i = state._index(node)
            if phase[i] != UNDETERMINED:
                raise InconsistentState(f"node {node} is both active and inactive")
            phase[i] = value
    phase.flags.writeable = False
    return state
