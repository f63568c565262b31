"""Recursive composition for missing services (Section 3.2).

When a *mandatory* service cannot be discovered, "the service composer can
either recursively apply the service composition algorithms to the missing
service or send a notification to the user. In the former approach, the
service composer tries to find the service graph that can perform the same
task as the missing service does" — i.e. a known decomposition of the
abstract service into a small abstract sub-graph (e.g. an ``mpeg_player``
decomposes into ``mpeg_decoder`` → ``raw_player``).

"In order to avoid infinite recursive service compositions for the missing
service, we limit the depth of recursion to 2 in the practical
implementation" (footnote 1) — :data:`DEFAULT_RECURSION_LIMIT`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph.abstract import AbstractComponentSpec, AbstractServiceGraph
from repro.graph.service_graph import ServiceEdge

DecompositionRule = Callable[[AbstractComponentSpec], AbstractServiceGraph]

DEFAULT_RECURSION_LIMIT = 2


class DecompositionRegistry:
    """Known task-equivalent decompositions of abstract service types.

    A rule maps an undiscoverable spec to an abstract sub-graph performing
    the same task. The registry's :meth:`expand` splices that sub-graph
    into the application's abstract graph in place of the missing node:
    the node's predecessors connect to the sub-graph's sources and its
    sinks connect to the node's successors.
    """

    def __init__(self) -> None:
        self._rules: Dict[str, DecompositionRule] = {}
        self._expansion_ids = itertools.count(1)
        self._version = 0

    @property
    def version(self) -> int:
        """Change counter: increases on every :meth:`register`.

        Recursive composition reads the rules, so the composer's
        composition cache keys on this number: a rule added after a
        failed compose makes the same request compose afresh.
        """
        return self._version

    def register(self, service_type: str, rule: DecompositionRule) -> None:
        """Register (or replace) the decomposition rule for a service type."""
        self._rules[service_type] = rule
        self._version += 1

    def has_rule(self, service_type: str) -> bool:
        return service_type in self._rules

    def rule_count(self) -> int:
        return len(self._rules)

    def decompose(self, spec: AbstractComponentSpec) -> Optional[AbstractServiceGraph]:
        """Produce the substitute sub-graph for a spec, or None without a rule."""
        rule = self._rules.get(spec.service_type)
        if rule is None:
            return None
        subgraph = rule(spec)
        subgraph.validate()
        return subgraph

    def expand(
        self,
        graph: AbstractServiceGraph,
        spec_id: str,
    ) -> Optional[Tuple[AbstractServiceGraph, List[str]]]:
        """Replace one spec by its decomposition inside an abstract graph.

        Returns the new graph and the ids of the spliced-in specs (prefixed
        to stay unique), or None when no rule applies. The original graph
        is not mutated.
        """
        missing = graph.spec(spec_id)
        subgraph = self.decompose(missing)
        if subgraph is None:
            return None
        prefix = f"{spec_id}~{next(self._expansion_ids)}"
        renamed: Dict[str, str] = {
            sub.spec_id: f"{prefix}/{sub.spec_id}" for sub in subgraph.specs()
        }

        expanded = AbstractServiceGraph(name=graph.name)
        for spec in graph.specs():
            if spec.spec_id != spec_id:
                expanded.add_spec(spec)
        for sub in subgraph.specs():
            expanded.add_spec(
                AbstractComponentSpec(
                    spec_id=renamed[sub.spec_id],
                    service_type=sub.service_type,
                    attributes=sub.attributes,
                    required_output=sub.required_output,
                    optional=sub.optional,
                    pin=sub.pin if sub.pin is not None else missing.pin,
                )
            )
        for edge in subgraph.edges():
            expanded.add_edge(
                ServiceEdge(
                    renamed[edge.source], renamed[edge.target], edge.throughput_mbps
                )
            )

        sub_sources = [
            renamed[s.spec_id]
            for s in subgraph.specs()
            if not any(e.target == s.spec_id for e in subgraph.edges())
        ]
        sub_sinks = [
            renamed[s.spec_id]
            for s in subgraph.specs()
            if not any(e.source == s.spec_id for e in subgraph.edges())
        ]
        for edge in graph.edges():
            if edge.source == spec_id and edge.target == spec_id:
                continue
            if edge.target == spec_id:
                for entry in sub_sources:
                    expanded.add_edge(
                        ServiceEdge(edge.source, entry, edge.throughput_mbps)
                    )
            elif edge.source == spec_id:
                for exit_id in sub_sinks:
                    expanded.add_edge(
                        ServiceEdge(exit_id, edge.target, edge.throughput_mbps)
                    )
            else:
                expanded.add_edge(edge)
        return expanded, sorted(renamed.values())
