"""Cost aggregation (Definition 3.5, Equation 4).

The cost of a k-cut is the weighted sum of normalised resource usages::

    CA(Φ) = Σ_j Σ_i w_i · r_i(j)/ra_i(j)  +  Σ_{i≠j} w_net · T(i,j)/b(i,j)

where ``r_i(j)`` is device j's summed requirement for resource i,
``ra_i(j)`` its availability, ``T(i,j)`` the summed throughput of cut edges
from device i to device j, and ``b(i,j)`` the end-to-end available
bandwidth. Weights are non-negative and sum to one; higher weights mark
more critical resources, so minimising CA "reduce[s] the contention on
critical resources".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Tuple

from repro.distribution.fit import DistributionEnvironment
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.resources.vectors import CPU, MEMORY


@dataclass(frozen=True)
class CostWeights:
    """The weights ``w_1..w_m`` (end-system resources) and ``w_{m+1}`` (network).

    ``resource_weights`` maps resource names to weights; ``network_weight``
    is the network term's weight. All weights are non-negative and must sum
    to 1 (the paper's constraint Σ w_i = 1).
    """

    resource_weights: Mapping[str, float] = field(
        default_factory=lambda: {MEMORY: 0.3, CPU: 0.4}
    )
    network_weight: float = 0.3

    def __post_init__(self) -> None:
        if self.network_weight < 0 or any(
            w < 0 for w in self.resource_weights.values()
        ):
            raise ValueError("weights must be non-negative")
        total = sum(self.resource_weights.values()) + self.network_weight
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def uniform(cls, resource_names: Iterable[str]) -> "CostWeights":
        """Equal weight for every resource type and the network."""
        names = list(resource_names)
        share = 1.0 / (len(names) + 1)
        return cls({name: share for name in names}, share)

    @classmethod
    def network_only(cls) -> "CostWeights":
        """Theorem 1's special case: w_i = 0 for end-system resources.

        With unit bandwidths this makes cost aggregation the directed
        multiway-cut objective, the reduction used in the NP-hardness proof.
        """
        return cls({}, 1.0)

    def weight_of(self, resource_name: str) -> float:
        """Weight of one end-system resource (0 when unnamed)."""
        return self.resource_weights.get(resource_name, 0.0)


def cost_aggregation(
    graph: ServiceGraph,
    assignment: Assignment,
    environment: DistributionEnvironment,
    weights: Optional[CostWeights] = None,
) -> float:
    """Evaluate Equation 4 for a complete assignment.

    A positive demand against zero availability (or zero bandwidth) yields
    ``inf`` — such cuts are unaffordable, consistent with the fit test
    rejecting them.
    """
    weights = weights or CostWeights()
    total = resource_cost(graph, assignment, environment, weights)
    return total + network_cost(graph, assignment, environment, weights)


def resource_cost(
    graph: ServiceGraph,
    assignment: Assignment,
    environment: DistributionEnvironment,
    weights: CostWeights,
) -> float:
    """The end-system term: Σ_j Σ_i w_i · r_i(j)/ra_i(j)."""
    total = 0.0
    for device_id, load in assignment.device_loads(graph).items():
        available = environment.device(device_id).available
        for name, demand in load.items():
            weight = weights.weight_of(name)
            if weight == 0.0 or demand == 0.0:
                continue
            supply = available.get(name, 0.0)
            if supply <= 0.0:
                return float("inf")
            total += weight * demand / supply
    return total


def network_cost(
    graph: ServiceGraph,
    assignment: Assignment,
    environment: DistributionEnvironment,
    weights: CostWeights,
) -> float:
    """The network term: Σ_{i≠j} w_net · T(i,j)/b(i,j)."""
    if weights.network_weight == 0.0:
        return 0.0
    total = 0.0
    for (src_dev, dst_dev), demand in assignment.pairwise_throughput(graph).items():
        if demand == 0.0:
            continue
        supply = environment.bandwidth(src_dev, dst_dev)
        if supply <= 0.0:
            return float("inf")
        if supply == float("inf"):
            continue
        total += weights.network_weight * demand / supply
    return total


def marginal_cost(
    graph: ServiceGraph,
    assignment: Assignment,
    environment: DistributionEnvironment,
    weights: CostWeights,
    component_id: str,
    device_id: str,
) -> float:
    """Cost increase from additionally placing one component on a device.

    Every term of Equation 4 is a non-negative sum over placed components
    and cut edges, so partial cost grows monotonically as placements are
    added — the property the branch-and-bound optimal search prunes with.
    This helper computes the increment without re-evaluating the whole sum.
    """
    component = graph.component(component_id)
    available = environment.device(device_id).available
    increment = 0.0
    for name, demand in component.resources.items():
        weight = weights.weight_of(name)
        if weight == 0.0 or demand == 0.0:
            continue
        supply = available.get(name, 0.0)
        if supply <= 0.0:
            return float("inf")
        increment += weight * demand / supply
    if weights.network_weight > 0.0:
        for neighbor_id, throughput, outgoing in incident_edges(graph, component_id):
            neighbor_device = assignment.get(neighbor_id)
            if neighbor_device is None or neighbor_device == device_id:
                continue
            if throughput == 0.0:
                continue
            pair = (
                (device_id, neighbor_device)
                if outgoing
                else (neighbor_device, device_id)
            )
            supply = environment.bandwidth(*pair)
            if supply <= 0.0:
                return float("inf")
            if supply != float("inf"):
                increment += weights.network_weight * throughput / supply
    return increment


def incident_edges(
    graph: ServiceGraph, component_id: str
) -> Iterator[Tuple[str, float, bool]]:
    """Yield ``(neighbor, throughput, outgoing)`` for every incident edge.

    Successors first, then predecessors, each in the graph's sorted order:
    the order every incremental evaluator sums network terms in.
    """
    for succ in graph.successors(component_id):
        yield succ, graph.edge(component_id, succ).throughput_mbps, True
    for pred in graph.predecessors(component_id):
        yield pred, graph.edge(pred, component_id).throughput_mbps, False
