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
from typing import Dict, List, Optional, Set, Tuple

from repro.distribution.cost import CostWeights, incident_edges
from repro.distribution.distributor import DistributionResult, DistributionStrategy
from repro.distribution.fit import DistributionEnvironment, FitViolation
from repro.distribution.incremental import FIT_TOLERANCE, _BandwidthMemo
from repro.distribution.pareto import load_objectives
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.resources.vectors import ResourceVector, weighted_magnitude

_INF = float("inf")


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
        requirement = {
            c.component_id: weighted_magnitude(c.resources, magnitude_weights)
            for c in graph
        }
        placements: Dict[str, str] = {}

        # Step 1: pin the components that cannot be instantiated arbitrarily.
        # Their order is the placements' insertion order, which fixes the
        # order the result's cost is summed in.
        pinned = [c for c in graph if c.pinned_to is not None]
        pinned.sort(key=lambda c: (-requirement[c.component_id], c.component_id))
        for component in pinned:
            placements[component.component_id] = component.pinned_to

        # Step 2: repeatedly place onto the device with the most headroom.
        unplaced = [c.component_id for c in graph if c.component_id not in placements]
        if unplaced:
            self._place_greedily(
                graph, environment, unplaced, placements, requirement, magnitude_weights
            )
        return self._score(graph, placements, environment, weights, len(unplaced))

    def _place_greedily(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        unplaced: List[str],
        placements: Dict[str, str],
        requirement: Dict[str, float],
        magnitude_weights: Dict[str, float],
    ) -> None:
        """Step 2: place every unplaced component, one per iteration.

        ``placements`` holds the pinned components. The footnote-3 state
        is built here, so a fully pinned graph never builds it: each
        device's ``remaining`` availability (clamped at zero, the paper's
        bookkeeping), its headroom, recomputed only when it changes, and
        ``frontier[d]``, the unplaced neighbours of d's residents — the
        candidates when d is head. The globally largest unplaced component
        comes from one list sorted by (requirement, id). Those keys are
        unique, so the list follows the order max() over the unplaced set
        would.
        """
        remaining: Dict[str, ResourceVector] = {
            d.device_id: d.available for d in environment.devices
        }
        for component_id, device_id in placements.items():
            if device_id in remaining:
                remaining[device_id] = (
                    remaining[device_id] - graph.component(component_id).resources
                )
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

    def _score(
        self,
        graph: ServiceGraph,
        placements: Dict[str, str],
        environment: DistributionEnvironment,
        weights: CostWeights,
        evaluations: int,
    ) -> DistributionResult:
        """Score the final placements: Equation 4 cost, Definition 3.4, objectives.

        One pass over the placements, in their insertion order, reads each
        used device's availability and each cut pair's bandwidth once. It
        sums the cost term by term (each component's end-system terms, then
        its cut edges to components placed before it), and the per-device
        loads and per-pair cut throughput. When every load and pair fits,
        that pass is the result. Otherwise the result's violations and cost
        come from :meth:`_diagnose`, which re-sums in graph order.
        """
        resource_weights = weights.resource_weights
        network_weight = weights.network_weight
        supplies: Dict[str, ResourceVector] = {}
        bandwidth = _BandwidthMemo(environment)
        loads: Dict[str, Dict[str, float]] = {}
        traffic: Dict[Tuple[str, str], float] = {}
        placed: Dict[str, str] = {}
        cost = 0.0
        finite = True
        known = True
        for component_id, device_id in placements.items():
            available = supplies.get(device_id)
            if available is None:
                available = _availability(environment, device_id)
                if available is None:
                    known = False  # pinned to a device outside the environment
                    break
                supplies[device_id] = available
            placed[component_id] = device_id
            load = loads.setdefault(device_id, {})
            for name, demand in graph.component(component_id).resources.items():
                if demand == 0.0:
                    continue
                load[name] = load.get(name, 0.0) + demand
                weight = resource_weights.get(name, 0.0)
                if weight == 0.0:
                    continue
                supply = available.get(name, 0.0)
                if supply <= 0.0:
                    finite = False
                else:
                    cost += weight * demand / supply
            for neighbour, throughput, outgoing in incident_edges(graph, component_id):
                neighbour_device = placed.get(neighbour)
                if (
                    neighbour_device is None
                    or neighbour_device == device_id
                    or throughput == 0.0
                ):
                    continue
                pair = (
                    (device_id, neighbour_device)
                    if outgoing
                    else (neighbour_device, device_id)
                )
                traffic[pair] = traffic.get(pair, 0.0) + throughput
                if network_weight == 0.0:
                    continue
                supply = bandwidth[pair]
                if supply <= 0.0:
                    finite = False
                elif supply != _INF:
                    cost += network_weight * throughput / supply
        if not known or not _fits(loads, supplies, traffic, bandwidth):
            return self._diagnose(
                graph, placements, environment, weights, evaluations, supplies, bandwidth
            )

        # The end-system objective sums each device's load, devices in
        # environment order (the order the local search's evaluator keeps).
        objectives = load_objectives(
            (
                (device.device_id, loads[device.device_id])
                for device in environment.devices
                if device.device_id in loads
            ),
            supplies,
            traffic,
            bandwidth,
            len(set(placements.values())),
            weights,
        )
        return DistributionResult(
            strategy=self.name,
            assignment=Assignment(placements),
            feasible=True,
            cost=cost if finite else _INF,
            evaluations=evaluations,
            violations=(),
            objectives=objectives,
            front=(objectives,),
        )

    def _diagnose(
        self,
        graph: ServiceGraph,
        placements: Dict[str, str],
        environment: DistributionEnvironment,
        weights: CostWeights,
        evaluations: int,
        supplies: Dict[str, ResourceVector],
        bandwidth: _BandwidthMemo,
    ) -> DistributionResult:
        """The result of placements whose scoring pass found an overflow.

        Loads are summed per device in graph order and cut throughput per
        pair in edge order, as ``fit_violations`` and ``cost_aggregation``
        sum them, so each violation's demand and the cost keep those
        functions' bits. A component on a device outside the environment
        (a pin to an unknown device) yields a ``placement`` violation and
        an infinite cost.
        """
        violations: List[FitViolation] = []
        loads: Dict[str, Dict[str, float]] = {}
        for component in graph:
            device_id = placements[component.component_id]
            if device_id not in supplies:
                available = _availability(environment, device_id)
                if available is None:
                    violations.append(
                        FitViolation(
                            "placement",
                            component.component_id,
                            f"unknown device {device_id}",
                        )
                    )
                    continue
                supplies[device_id] = available
            load = loads.setdefault(device_id, {})
            for name, amount in component.resources.items():
                load[name] = load.get(name, 0.0) + amount
        if violations:
            return DistributionResult(
                strategy=self.name,
                assignment=Assignment(placements),
                feasible=False,
                cost=_INF,
                evaluations=evaluations,
                violations=tuple(violations),
            )
        traffic: Dict[Tuple[str, str], float] = {}
        for edge in graph.edges():
            pair = (placements[edge.source], placements[edge.target])
            if pair[0] != pair[1]:
                traffic[pair] = traffic.get(pair, 0.0) + edge.throughput_mbps

        for device_id, load in loads.items():
            available = supplies[device_id]
            for name, demand in load.items():
                supply = available.get(name, 0.0)
                if demand > supply + FIT_TOLERANCE:
                    violations.append(
                        FitViolation("resource", device_id, name, demand, supply)
                    )
        for (source, target), demand in traffic.items():
            supply = bandwidth[(source, target)]
            if demand > supply + FIT_TOLERANCE:
                violations.append(
                    FitViolation(
                        "bandwidth", f"{source}->{target}", "throughput", demand, supply
                    )
                )

        # Equation 4 as cost_aggregation sums it: the end-system term per
        # device and resource, then the network term per pair, then both.
        resource = 0.0
        for device_id, load in loads.items():
            available = supplies[device_id]
            for name, demand in load.items():
                weight = weights.weight_of(name)
                if weight == 0.0 or demand == 0.0:
                    continue
                supply = available.get(name, 0.0)
                if supply <= 0.0:
                    resource = _INF
                    break
                resource += weight * demand / supply
            if resource == _INF:
                break
        network = 0.0
        network_weight = weights.network_weight
        if network_weight != 0.0:
            for pair, demand in traffic.items():
                if demand == 0.0:
                    continue
                supply = bandwidth[pair]
                if supply <= 0.0:
                    network = _INF
                    break
                if supply != _INF:
                    network += network_weight * demand / supply
        objectives = (
            None
            if violations
            else load_objectives(
                loads.items(),
                supplies,
                traffic,
                bandwidth,
                len(set(placements.values())),
                weights,
            )
        )
        return DistributionResult(
            strategy=self.name,
            assignment=Assignment(placements),
            feasible=not violations,
            cost=resource + network,
            evaluations=evaluations,
            violations=tuple(violations),
            objectives=objectives,
            front=(objectives,) if objectives is not None else (),
        )

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
        graph's resource names keep the greedy order meaningful. Only the
        weighted resources' capacities are summed, each over the devices
        in offer order.
        """
        magnitude = dict(weights.resource_weights)
        if not any(w > 0 for w in magnitude.values()):
            names: Set[str] = set()
            for component in graph:
                names.update(component.resources.names())
            magnitude = {name: 1.0 for name in names}
        for name, value in magnitude.items():
            capacity = 0.0
            for device in environment.devices:
                capacity += device.available.get(name, 0.0)
            if capacity > 0:
                magnitude[name] = value / capacity
        return magnitude

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



def _availability(
    environment: DistributionEnvironment, device_id: str
) -> Optional[ResourceVector]:
    """A device's availability, or None when it is not in the environment."""
    try:
        return environment.device(device_id).available
    except KeyError:
        return None


def _fits(
    loads: Dict[str, Dict[str, float]],
    supplies: Dict[str, ResourceVector],
    traffic: Dict[Tuple[str, str], float],
    bandwidth: Dict[Tuple[str, str], float],
) -> bool:
    """Definition 3.4 over summed loads and cut throughput, with its tolerance."""
    for device_id, load in loads.items():
        available = supplies[device_id]
        for name, demand in load.items():
            if demand > available.get(name, 0.0) + FIT_TOLERANCE:
                return False
    for pair, demand in traffic.items():
        if demand > bandwidth[pair] + FIT_TOLERANCE:
            return False
    return True

