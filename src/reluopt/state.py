"""Partial activation states over the ReLU nodes of a network.

A state is one int8 phase vector in `net.relu_node_ids()` order: ACTIVE
(1), INACTIVE (-1) or UNDETERMINED (0) per ReLU. That vector is the only
form of a phase in the package; a ReLU is named by its position in it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentState
from .model import Network

ACTIVE, INACTIVE, UNDETERMINED = 1, -1, 0


@dataclass(frozen=True, eq=False)
class PartialActivationState:
    """The phase of every ReLU node of `net`, in `net.relu_node_ids()`
    order: 1 active, -1 inactive, 0 undetermined. `phase` is read-only;
    `fix_at` returns a new state; `phase_state` checks a new phase vector."""

    phase: np.ndarray  # int8, read-only
    net: Network

    def fix_at(self, i: int, active: bool) -> "PartialActivationState":
        """This state with the undetermined node at position `i` of `phase`
        made active or inactive."""
        if self.phase[i] != UNDETERMINED:
            raise InconsistentState(f"node {self.net.relu_node_ids()[i]} is not undetermined")
        phase = self.phase.copy()
        phase[i] = ACTIVE if active else INACTIVE
        phase.flags.writeable = False
        return PartialActivationState(phase, self.net)

    def fingerprint(self) -> str:
        """Stable textual identity, used for trace records: the active and
        the inactive nodes as `layer.node`, in order."""
        nodes = self.net.relu_node_ids()
        fmt = lambda value: ",".join("%d.%d" % nodes[i] for i in (self.phase == value).nonzero()[0])
        return f"A[{fmt(ACTIVE)}]N[{fmt(INACTIVE)}]"


def phase_state(net: Network, phase) -> PartialActivationState:
    """The state with a copy of `phase`, one phase (1, -1 or 0) per ReLU
    node in `net.relu_node_ids()` order."""
    values = np.asarray(phase)
    if values.shape != (net.num_relu_nodes,):
        raise InconsistentState(f"{values.size} phases for {net.num_relu_nodes} ReLU nodes")
    if not np.isin(values, (ACTIVE, INACTIVE, UNDETERMINED)).all():
        raise InconsistentState("a phase must be 1 (active), -1 (inactive) or 0 (undetermined)")
    phase = values.astype(np.int8)  # a copy
    phase.flags.writeable = False
    return PartialActivationState(phase, net)
