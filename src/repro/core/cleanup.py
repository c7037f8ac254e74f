"""GraLMatch Graph Cleanup (Algorithm 1).

The clean-up removes likely false-positive pairwise predictions using only
the structure of the match graph:

* **Phase 1 — Minimum Edge Cut**: while a connected component is bigger
  than the threshold ``gamma``, remove a minimum edge cut from it.
  Removing a minimum cut is guaranteed to split the component, so this phase
  quickly breaks up the huge components produced by a handful of false
  positives, at the cost of occasionally removing true edges.
* **Phase 2 — Edge Betweenness Centrality**: while a component is still
  bigger than ``mu`` (the expected maximum group size, normally the number
  of data sources), remove the single edge with the highest edge
  betweenness centrality.  This is slower but more surgical: bridges between
  densely connected sub-groups carry the most shortest paths.

Every removal is chosen from, and applied to, one connected component, and
both stopping conditions are per component.  So the graph is cleaned one
component at a time (:func:`clean_components`): the initial components are
computed once, components of at most ``mu`` nodes pass through untouched,
and each larger one is worked down as a list of pieces — after a removal
only the piece that was cut has its components recomputed.  The cleaned
pieces are spliced back into :func:`~repro.graphs.components.connected_components`'
order, so the result equals one whole-graph run.  The same driver serves
the batch pipeline (no memo) and incremental ingestion (a memo of the
components it cleaned before).

The sensitivity variants of Section 5.2.1 are expressed through
:class:`CleanupConfig`: ``gamma = mu`` gives the MEC-only variant,
``gamma = None`` (treated as infinity) gives the BC-only variant and halving
``gamma`` gives the ``½γ`` variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from functools import partial

from repro.graphs.betweenness import max_betweenness_edge
from repro.graphs.components import connected_components
from repro.graphs.graph import Edge, Graph, Node
from repro.graphs.mincut import minimum_edge_cut
from repro.graphs.union_find import union_find_components
from repro.registry import register_cleanup


@dataclass(frozen=True)
class CleanupConfig:
    """Thresholds of Algorithm 1.

    ``gamma`` — components larger than this are split with Minimum Edge Cuts
    (``None`` disables the phase, i.e. γ = ∞).
    ``mu`` — the maximum allowed group size; components larger than this are
    refined by removing maximum-betweenness edges.  The paper sets ``mu`` to
    the number of data sources.
    """

    gamma: int | None = 25
    mu: int = 5

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.gamma is not None and self.gamma < self.mu:
            raise ValueError("gamma must be >= mu (or None for infinity)")

    @classmethod
    def for_num_sources(cls, num_sources: int, gamma: int | None = None) -> "CleanupConfig":
        """The paper's default: mu = number of sources, gamma = 5 * mu."""
        if gamma is None:
            gamma = 5 * num_sources
        return cls(gamma=gamma, mu=num_sources)

    def mec_only(self) -> "CleanupConfig":
        """Sensitivity variant: gamma = mu (only Minimum Edge Cuts)."""
        return CleanupConfig(gamma=self.mu, mu=self.mu)

    def bc_only(self) -> "CleanupConfig":
        """Sensitivity variant: gamma = infinity (only Betweenness Centrality)."""
        return CleanupConfig(gamma=None, mu=self.mu)

    def half_gamma(self) -> "CleanupConfig":
        """Sensitivity variant: gamma halved (rounded down, floored at mu)."""
        if self.gamma is None:
            return self
        return CleanupConfig(gamma=max(self.mu, self.gamma // 2), mu=self.mu)


@dataclass
class CleanupReport:
    """What the clean-up did — used by the result tables and the figures."""

    removed_edges: set[Edge] = field(default_factory=set)
    mincut_removals: int = 0
    betweenness_removals: int = 0
    initial_largest_component: int = 0
    final_largest_component: int = 0

    @property
    def num_removed(self) -> int:
        return len(self.removed_edges)


@dataclass(frozen=True)
class ComponentCleanup:
    """The clean-up of one connected component.

    The unit :func:`clean_components` splices, and what the incremental memo
    stores under the component's exact (frozen) edge set: any change to the
    component — a new edge, a vanished candidate, a flipped pre-cleanup
    verdict — changes the key and forces a re-clean, which is what makes
    memo reuse provably equivalent to a full re-run.
    """

    subcomponents: tuple[frozenset[Node], ...]
    removed_edges: frozenset[Edge]
    mincut_removals: int
    betweenness_removals: int

    @classmethod
    def untouched(cls, nodes: Iterable[Node]) -> "ComponentCleanup":
        return cls((frozenset(nodes),), frozenset(), 0, 0)


#: Cleans one connected component, given its node set and its edges.
ComponentCleaner = Callable[[set[Node], list[Edge]], ComponentCleanup]


def clean_components(
    edges: Iterable[Edge],
    clean: ComponentCleaner,
    components: list[set[Node]] | None = None,
    memo: dict[frozenset, ComponentCleanup] | None = None,
) -> tuple[list[set[Node]], CleanupReport]:
    """Clean a graph one connected component at a time.

    ``components`` are the connected components of ``edges`` in
    :func:`connected_components`' order; they are computed here when not
    given.  Each component is cleaned by ``clean`` unless ``memo`` holds an
    entry for its exact edge set; on return ``memo`` holds exactly the
    entries of this graph's components.  The cleaned pieces are spliced
    into :func:`connected_components`' order (decreasing size, then smallest
    member repr) and one :class:`CleanupReport` aggregates the removals, so
    for a ``component_local`` strategy the result is indistinguishable from
    cleaning the whole graph at once.
    """
    edges = list(edges)
    if components is None:
        components = union_find_components(edges)
    owner: dict[Node, int] = {}
    for index, component in enumerate(components):
        owner.update(dict.fromkeys(component, index))
    grouped: list[list[Edge]] = [[] for _ in components]
    for edge in edges:
        u, v = edge
        if u == v:
            raise ValueError(f"self-loop on node {u!r} is not allowed")
        # The caller's edge objects go on as they are: the memo keys then
        # share them with the caller's own edge set (one copy when pickled).
        grouped[owner[u]].append(edge)

    report = CleanupReport(
        initial_largest_component=len(components[0]) if components else 0
    )
    next_memo: dict[frozenset, ComponentCleanup] = {}
    pieces: list[set[Node]] = []
    for component, component_edges in zip(components, grouped):
        if memo is None:
            result = clean(component, component_edges)
        else:
            key = frozenset(component_edges)
            result = memo.get(key)
            if result is None:
                result = clean(component, component_edges)
            next_memo[key] = result
        pieces.extend(set(piece) for piece in result.subcomponents)
        report.removed_edges.update(result.removed_edges)
        report.mincut_removals += result.mincut_removals
        report.betweenness_removals += result.betweenness_removals
    if memo is not None:
        memo.clear()
        memo.update(next_memo)

    pieces.sort(key=lambda piece: (-len(piece), min(repr(node) for node in piece)))
    report.final_largest_component = len(pieces[0]) if pieces else 0
    return pieces, report


def run_algorithm1(
    pieces: list[Graph],
    config: CleanupConfig,
    removed: Iterable[Edge] = (),
) -> ComponentCleanup:
    """Algorithm 1 on a worklist of connected pieces of one component.

    A piece over ``gamma`` loses a minimum edge cut and a piece over ``mu``
    its maximum-betweenness edge; then only that piece's components are
    recomputed and go back on the worklist.  Pieces within ``mu`` are done.
    The pieces are mutated.  ``removed`` seeds the removed-edge set without
    counting towards either phase (used by strategies that remove edges
    before handing over to Algorithm 1).
    """
    removed_edges = set(removed)
    done: list[frozenset[Node]] = []
    mincut_removals = betweenness_removals = 0
    while pieces:
        piece = pieces.pop()
        size = piece.num_nodes
        if size <= config.mu:
            done.append(frozenset(piece.nodes()))
            continue
        cut = (
            minimum_edge_cut(piece)
            if config.gamma is not None and size > config.gamma
            else None
        )
        if cut:
            piece.remove_edges(cut)
            removed_edges.update(cut)
            mincut_removals += len(cut)
        else:
            edge, _ = max_betweenness_edge(piece)
            piece.remove_edge(*edge)
            removed_edges.add(edge)
            betweenness_removals += 1
        split = connected_components(piece)
        if len(split) == 1:
            pieces.append(piece)
        else:
            pieces.extend(piece.subgraph(part) for part in split)
    return ComponentCleanup(
        tuple(done), frozenset(removed_edges), mincut_removals, betweenness_removals
    )


def _algorithm1_component(
    config: CleanupConfig, nodes: set[Node], edges: list[Edge]
) -> ComponentCleanup:
    if len(nodes) <= config.mu:
        return ComponentCleanup.untouched(nodes)
    # The induced subgraph inserts nodes in sorted order, so every traversal
    # (and tie-break) below is independent of the edge order given.
    return run_algorithm1([Graph(edges).subgraph(nodes)], config)


@register_cleanup("gralmatch")
def gralmatch_cleanup(
    edges: Iterable[tuple[str, str]],
    config: CleanupConfig | None = None,
) -> tuple[list[set[str]], CleanupReport]:
    """Run Algorithm 1 on a set of predicted match edges.

    Returns the connected components of the cleaned-up graph (the entity
    groups before transitive-closure expansion) and a :class:`CleanupReport`
    describing the removals.
    """
    config = config or CleanupConfig()
    return clean_components(edges, partial(_algorithm1_component, config))


# Every removal Algorithm 1 makes is chosen from (and applied to) a single
# connected component's subgraph, and the stopping conditions are per
# component — so cleaning each initial component in isolation yields exactly
# the same final components and removals as one global run.  The batch path
# relies on this (gralmatch_cleanup cleans component by component through
# clean_components), and so does the incremental subsystem, which re-cleans
# only *dirty* components through the same driver; strategies without the
# marker are re-run on the whole graph every ingest.
gralmatch_cleanup.component_local = True
