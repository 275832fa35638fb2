"""Partial activation states over the ReLU nodes of a network."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistentState
from .model import Network, NodeId


@dataclass(frozen=True)
class PartialActivationState:
    """Partition of all ReLU nodes into active / inactive / undetermined."""

    active: frozenset[NodeId]
    inactive: frozenset[NodeId]
    undetermined: frozenset[NodeId]

    def __post_init__(self):
        object.__setattr__(self, "active", frozenset(self.active))
        object.__setattr__(self, "inactive", frozenset(self.inactive))
        object.__setattr__(self, "undetermined", frozenset(self.undetermined))

    def validate(self, net: Network) -> None:
        widths = net.relu_layer_widths()
        union = self.active | self.inactive | self.undetermined
        # The sets are disjoint and hold as many distinct nodes as the
        # network has, each of them a node of the network.
        if (
            len(self.active) + len(self.inactive) + len(self.undetermined) != len(union)
            or len(union) != sum(widths)
            or not all(0 <= i < len(widths) and 0 <= j < widths[i] for i, j in union)
        ):
            raise InconsistentState(
                "active/inactive/undetermined must partition all ReLU nodes"
            )

    def fix(self, node: NodeId, active: bool) -> "PartialActivationState":
        if node not in self.undetermined:
            raise InconsistentState(f"node {node} is not undetermined")
        undet = self.undetermined - {node}
        if active:
            return PartialActivationState(self.active | {node}, self.inactive, undet)
        return PartialActivationState(self.active, self.inactive | {node}, undet)

    def fingerprint(self) -> str:
        """Stable textual identity, used for trace records."""
        fmt = lambda s: ",".join(f"{i}.{j}" for i, j in sorted(s))
        return f"A[{fmt(self.active)}]N[{fmt(self.inactive)}]"


def root_state(net: Network, active=(), inactive=()) -> PartialActivationState:
    """State with the given nodes fixed and everything else undetermined."""
    active = frozenset(active)
    inactive = frozenset(inactive)
    undet = frozenset(net.relu_node_ids()) - active - inactive
    state = PartialActivationState(active, inactive, undet)
    state.validate(net)
    return state
