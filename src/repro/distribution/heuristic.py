"""The paper's greedy polynomial heuristic (Section 3.3).

The algorithm, as described:

1. insert the service components that cannot be instantiated arbitrarily
   (pinned components) into their proper devices;
2. repeat: sort the k available devices in decreasing order of their
   (weighted) resource availabilities and insert the next chosen component
   into the current head of the sorted list. If the head device already
   contains a component A, the next chosen component is A's *neighbour*
   with the largest (weighted) resource requirement — merging neighbours
   onto one device removes their edge from the cut. If the head device is
   empty, the next chosen component is the unplaced component with the
   largest requirement overall;
3. repeat until every component is placed.

Both "resource availability" and "resource requirement" are measured by the
weighted sum of the different resources (footnote 3), using the same
criticality weights as the cost aggregation.

Robustness beyond the paper's sketch: when the chosen component does not
fit the head device, we fall through the sorted device list to the first
device that can hold it; if no device can, it is placed on the head anyway
and the final feasibility check reports the overflow (the request is then
counted as failed, which is exactly Figure 5's success-rate metric).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Set

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import DistributionResult, DistributionStrategy
from repro.distribution.fit import DistributionEnvironment
from repro.distribution.incremental import DeltaEvaluator
from repro.graph.service_graph import ServiceGraph
from repro.resources.vectors import ResourceVector, weighted_magnitude


class HeuristicDistributor(DistributionStrategy):
    """Greedy neighbour-merging placement (the paper's heuristic).

    ``prefer_neighbors`` exists for the ablation study: with ``False`` the
    head device always receives the globally largest unplaced component,
    degrading the heuristic into pure largest-first bin packing.
    """

    name = "heuristic"

    def __init__(self, prefer_neighbors: bool = True) -> None:
        self.prefer_neighbors = prefer_neighbors

    def distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: Optional[CostWeights] = None,
    ) -> DistributionResult:
        weights = weights or CostWeights()
        magnitude_weights = self._magnitude_weights(graph, weights, environment)
        remaining: Dict[str, ResourceVector] = {
            d.device_id: d.available for d in environment.devices
        }
        requirement = {
            c.component_id: weighted_magnitude(c.resources, magnitude_weights)
            for c in graph
        }
        placements: Dict[str, str] = {}

        # Step 1: pin the components that cannot be instantiated arbitrarily.
        pinned = [c for c in graph if c.pinned_to is not None]
        pinned.sort(key=lambda c: (-requirement[c.component_id], c.component_id))
        for component in pinned:
            placements[component.component_id] = component.pinned_to
            if component.pinned_to in remaining:
                remaining[component.pinned_to] = (
                    remaining[component.pinned_to] - component.resources
                )

        # Step 2: repeatedly place onto the device with the most headroom.
        unplaced = [c.component_id for c in graph if c.component_id not in placements]
        if unplaced:
            self._place_greedily(
                graph, unplaced, placements, remaining, requirement, magnitude_weights
            )

        # The greedy decisions above keep their own clamped `remaining`
        # bookkeeping (the paper's sketch); the evaluator only replaces the
        # final O(V+E) fit + cost double walk with one incremental pass.
        evaluator = DeltaEvaluator(graph, environment, weights, placements=placements)
        return self._finalize(
            graph, placements, environment, weights, len(unplaced), evaluator=evaluator
        )

    def _place_greedily(
        self,
        graph: ServiceGraph,
        unplaced: List[str],
        placements: Dict[str, str],
        remaining: Dict[str, ResourceVector],
        requirement: Dict[str, float],
        magnitude_weights: Dict[str, float],
    ) -> None:
        """Step 2: place every unplaced component, one per iteration.

        Per-call state replaces per-step rescans: each device's footnote-3
        headroom is recomputed only when it changes; ``frontier[d]`` holds
        the unplaced neighbours of d's residents, the candidates when d is
        head; and the globally largest unplaced component comes from one
        list sorted by (requirement, id). Those keys are unique, so the
        list follows the order max() over the unplaced set would.
        """
        headroom = {
            device_id: weighted_magnitude(available, magnitude_weights)
            for device_id, available in remaining.items()
        }
        frontier: Dict[str, Set[str]] = {}

        def add_resident(component_id: str, device_id: str) -> None:
            neighbours = frontier.setdefault(device_id, set())
            for neighbour in chain(
                graph.successors(component_id), graph.predecessors(component_id)
            ):
                if neighbour not in placements:
                    neighbours.add(neighbour)

        for component_id, device_id in placements.items():
            add_resident(component_id, device_id)
        by_size = sorted(
            unplaced, key=lambda cid: (requirement[cid], cid), reverse=True
        )
        largest = 0
        for _ in by_size:
            device_order = sorted(remaining, key=lambda did: (-headroom[did], did))
            head = device_order[0]
            candidates = frontier.get(head) if self.prefer_neighbors else None
            if candidates:
                chosen = max(candidates, key=lambda cid: (requirement[cid], cid))
            else:
                while by_size[largest] in placements:
                    largest += 1
                chosen = by_size[largest]
            target = self._first_fitting_device(
                graph, chosen, device_order, remaining
            )
            if target is None:
                target = head  # overflow; final check will flag it
            placements[chosen] = target
            for neighbours in frontier.values():
                neighbours.discard(chosen)
            add_resident(chosen, target)
            remaining[target] = remaining[target] - graph.component(chosen).resources
            headroom[target] = weighted_magnitude(remaining[target], magnitude_weights)

    # -- internals --------------------------------------------------------------

    @staticmethod
    def _magnitude_weights(
        graph: ServiceGraph,
        weights: CostWeights,
        environment: DistributionEnvironment,
    ) -> Dict[str, float]:
        """Weights for the footnote-3 scalar measure.

        Resource amounts live in incomparable units (MB of memory versus a
        CPU fraction), so the criticality weights are divided by the
        environment's total capacity per resource — the same
        availability-relative normalisation the cost aggregation applies —
        before forming the scalar. When the cost weights' resource part is
        all-zero (the network-only special case), uniform weights over the
        graph's resource names keep the greedy order meaningful.
        """
        magnitude = dict(weights.resource_weights)
        if not any(w > 0 for w in magnitude.values()):
            names: Set[str] = set()
            for component in graph:
                names.update(component.resources.names())
            magnitude = {name: 1.0 for name in names}
        capacity = environment.total_capacity()
        return {
            name: (value / capacity[name] if capacity.get(name, 0.0) > 0 else value)
            for name, value in magnitude.items()
        }

    @staticmethod
    def _first_fitting_device(
        graph: ServiceGraph,
        component_id: str,
        device_order: List[str],
        remaining: Dict[str, ResourceVector],
    ) -> Optional[str]:
        resources = graph.component(component_id).resources
        for device_id in device_order:
            if resources.fits_within(remaining[device_id]):
                return device_id
        return None

