"""The per-component clean-up driver equals the whole-graph oracles.

``reference_cleanup`` keeps Algorithm 1 as two whole-graph ``while`` loops
(components recomputed over the entire graph after every removal).  The
production strategies clean one component at a time through
``clean_components``; on random graphs with several components — equal-size
components and mixed-type node labels included — both must return the same
components in the same order and an equal ``CleanupReport``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_cleanup import (
    reference_bridge_removal_cleanup,
    reference_gralmatch_cleanup,
)

from repro.core.cleanup import (
    CleanupConfig,
    ComponentCleanup,
    clean_components,
    gralmatch_cleanup,
)
from repro.core.cleanup_variants import bridge_removal_cleanup

DEFAULT = CleanupConfig()
CONFIGS = [
    pytest.param(DEFAULT, id="default"),
    pytest.param(DEFAULT.mec_only(), id="mec_only"),
    pytest.param(DEFAULT.bc_only(), id="bc_only"),
    pytest.param(DEFAULT.half_gamma(), id="half_gamma"),
]
STRATEGIES = [
    pytest.param(gralmatch_cleanup, reference_gralmatch_cleanup, id="gralmatch"),
    pytest.param(bridge_removal_cleanup, reference_bridge_removal_cleanup, id="bridge_removal"),
]


@st.composite
def multi_component_graphs(draw):
    """Clusters of random connected shapes, each repeated 1-3 times.

    Repeating a shape under fresh labels yields components of equal size
    (the ordering tie-break is then the smallest member repr); clusters up
    to 34 nodes exceed the default ``gamma`` so both phases run.  With
    ``mixed`` set, odd labels are ints and even labels strings, so node
    comparisons fall back to ``repr``.
    """
    mixed = draw(st.booleans())

    def label(index):
        return index if mixed and index % 2 else f"r{index:03d}"

    edges = []
    next_id = 0
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(2, 34))
        tree = [(draw(st.integers(0, child - 1)), child) for child in range(1, size)]
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * size, unique=True))
        shape = sorted(set(tree) | set(extra))
        for _ in range(draw(st.integers(1, 3))):
            edges.extend((label(next_id + u), label(next_id + v)) for u, v in shape)
            next_id += size
    return draw(st.permutations(edges))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize(("strategy", "reference"), STRATEGIES)
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edges=multi_component_graphs())
def test_driver_equals_whole_graph_oracle(strategy, reference, config, edges):
    components, report = strategy(edges, config)
    expected_components, expected_report = reference(edges, config)
    assert components == expected_components
    assert report == expected_report


@pytest.mark.parametrize(("strategy", "reference"), STRATEGIES)
def test_equal_size_components_keep_repr_order(strategy, reference):
    # Three identical 7-node shapes (a 4-clique bridged to a triangle), one
    # labelled with ints: every final piece ties on size with its twins.
    shape = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)]
    edges = []
    for offset, convert in ((0, str), (10, int), (20, lambda i: f"n{i}")):
        edges.extend((convert(offset + u), convert(offset + v)) for u, v in shape)
    config = CleanupConfig(gamma=6, mu=4)
    assert strategy(edges, config) == reference(edges, config)


class TestCleanComponents:
    @staticmethod
    def counting_cleaner(calls):
        def clean(nodes, edges):
            calls.append(sorted(edges))
            return ComponentCleanup.untouched(nodes)

        return clean

    def test_memo_serves_unchanged_components(self):
        edges = [("a", "b"), ("b", "c"), ("x", "y")]
        calls = []
        memo = {}
        first = clean_components(edges, self.counting_cleaner(calls), memo=memo)
        assert len(calls) == 2
        assert set(memo) == {
            frozenset([("a", "b"), ("b", "c")]),
            frozenset([("x", "y")]),
        }

        calls.clear()
        second = clean_components(edges, self.counting_cleaner(calls), memo=memo)
        assert calls == []
        assert second == first

    def test_memo_keeps_only_current_components(self):
        calls = []
        memo = {}
        clean_components([("a", "b"), ("x", "y")], self.counting_cleaner(calls), memo=memo)
        clean_components([("a", "b"), ("p", "q")], self.counting_cleaner(calls), memo=memo)
        assert calls == [[("a", "b")], [("x", "y")], [("p", "q")]]
        assert set(memo) == {frozenset([("a", "b")]), frozenset([("p", "q")])}

    def test_splice_order_and_aggregate(self):
        def split_everything(nodes, edges):
            return ComponentCleanup(
                tuple(frozenset([node]) for node in sorted(nodes)),
                frozenset(edges),
                mincut_removals=len(edges),
                betweenness_removals=1,
            )

        components, report = clean_components(
            [("c", "d"), ("a", "b"), ("b", "e")], split_everything
        )
        assert components == [{"a"}, {"b"}, {"c"}, {"d"}, {"e"}]
        assert report.initial_largest_component == 3
        assert report.final_largest_component == 1
        assert report.removed_edges == {("c", "d"), ("a", "b"), ("b", "e")}
        assert report.mincut_removals == 3
        assert report.betweenness_removals == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            gralmatch_cleanup([("a", "b"), ("c", "c")])

    def test_empty_graph(self):
        components, report = clean_components([], self.counting_cleaner([]))
        assert components == []
        assert report.initial_largest_component == report.final_largest_component == 0
