"""Whole-graph reference implementations of the clean-up strategies.

Algorithm 1 written the way the paper states it: after every single
removal, recompute the connected components of the *whole* graph and pick
the largest one.  Quadratic in the number of removals, so production cleans
component by component (:func:`repro.core.cleanup.clean_components`); these
oracles are what the property tests hold that driver against.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.cleanup import CleanupConfig, CleanupReport
from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.bridges import bridges
from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.graphs.mincut import minimum_edge_cut


def reference_gralmatch_cleanup(
    edges: Iterable[tuple], config: CleanupConfig | None = None
) -> tuple[list[set], CleanupReport]:
    """Algorithm 1 over the whole graph: two global ``while`` loops."""
    config = config or CleanupConfig()
    graph = Graph(edges)
    report = CleanupReport()

    components = connected_components(graph)
    report.initial_largest_component = len(components[0]) if components else 0

    # Phase 1: Minimum Edge Cut until every component is <= gamma.
    if config.gamma is not None:
        _split_with_minimum_cuts(graph, config.gamma, report)

    # Phase 2: Betweenness Centrality until every component is <= mu.
    _refine_with_betweenness(graph, config.mu, report)

    final_components = connected_components(graph)
    report.final_largest_component = (
        len(final_components[0]) if final_components else 0
    )
    return [set(component) for component in final_components], report


def reference_bridge_removal_cleanup(
    edges: Iterable[tuple], config: CleanupConfig | None = None
) -> tuple[list[set], CleanupReport]:
    """Bridges of every oversized component in one pass, then the whole-graph
    Algorithm 1 on the edges that remain."""
    config = config or CleanupConfig()
    graph = Graph(edges)
    report = CleanupReport()
    components = connected_components(graph)
    report.initial_largest_component = len(components[0]) if components else 0

    removed_bridges = set()
    for component in components:
        if len(component) <= config.mu:
            continue
        removed_bridges.update(bridges(graph.subgraph(component)))
    graph.remove_edges(removed_bridges)

    remaining_components, fallback_report = reference_gralmatch_cleanup(
        [tuple(edge) for edge in graph.edges()], config
    )
    report.removed_edges = removed_bridges | fallback_report.removed_edges
    report.mincut_removals = fallback_report.mincut_removals
    report.betweenness_removals = fallback_report.betweenness_removals
    report.final_largest_component = fallback_report.final_largest_component
    return remaining_components, report


def _split_with_minimum_cuts(graph: Graph, gamma: int, report: CleanupReport) -> None:
    while True:
        largest = _largest_component(graph)
        if largest is None or len(largest) <= gamma:
            return
        cut = minimum_edge_cut(graph.subgraph(largest))
        if not cut:
            return
        graph.remove_edges(cut)
        report.removed_edges.update(cut)
        report.mincut_removals += len(cut)


def _refine_with_betweenness(graph: Graph, mu: int, report: CleanupReport) -> None:
    while True:
        largest = _largest_component(graph)
        if largest is None or len(largest) <= mu:
            return
        edge, _ = max_betweenness_edge(graph.subgraph(largest))
        graph.remove_edge(*edge)
        report.removed_edges.add(edge)
        report.betweenness_removals += 1


def _largest_component(graph: Graph) -> set | None:
    components = connected_components(graph)
    return components[0] if components else None
