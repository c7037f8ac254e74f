"""Exact work pins for Algorithm 1 on the golden corpus.

Counts deterministic work, not time: the nodes handed to connected-component
passes and the Brandes single-source passes during ``gralmatch_cleanup``.
Cleaning the whole graph again after every removal costs about
removals × |V| component-pass nodes; cleaning per component touches only
the piece that was cut.  A quadratic regression therefore moves the first
pin on any hardware.  If an intentional algorithm change moves a pin,
re-derive it consciously (the assertion prints the observed counts).
"""

import itertools
import random

import pytest

import repro.core.cleanup as cleanup_module
import repro.graphs.betweenness as betweenness_module
import repro.graphs.mincut as mincut_module
from repro.blocking import CombinedBlocking, IdOverlapBlocking, TokenOverlapBlocking
from repro.core.cleanup import CleanupConfig, gralmatch_cleanup
from repro.core.pipeline import EntityGroupMatchingPipeline
from repro.core.precleanup import PreCleanupConfig
from repro.datagen import GenerationConfig, generate_benchmark
from repro.matching import LogisticRegressionMatcher
from repro.matching.pairs import as_record_pairs, build_labeled_pairs

#: Seed 42, 50 entities, 4 sources; the golden regression suite's corpus.
GOLDEN_WORK = {
    "component_pass_nodes": 225,
    "brandes_sources": 54,
    "mincut_removals": 0,
    "betweenness_removals": 9,
}
#: :func:`planted_groups_edges` — exercises both phases.
PLANTED_WORK = {
    "component_pass_nodes": 2836,
    "brandes_sources": 1068,
    "mincut_removals": 25,
    "betweenness_removals": 103,
}


@pytest.fixture(scope="module")
def golden_kept_edges():
    companies = generate_benchmark(
        GenerationConfig(num_entities=50, num_sources=4, seed=42,
                         acquisition_rate=0.05, merger_rate=0.05)
    ).companies
    record_pairs, labels = as_record_pairs(
        build_labeled_pairs(companies, negative_ratio=3, seed=0)
    )
    matcher = LogisticRegressionMatcher(num_iterations=120).fit(record_pairs, labels)
    result = EntityGroupMatchingPipeline(
        matcher=matcher,
        blocking=CombinedBlocking([IdOverlapBlocking(), TokenOverlapBlocking(top_n=3)]),
        cleanup_config=CleanupConfig.for_num_sources(4),
        pre_cleanup_config=PreCleanupConfig(max_component_size=30),
    ).run(companies)
    return [
        edge for edge in result.positive_edges if edge not in result.pre_cleanup_removed
    ]


@pytest.fixture
def work_counter(monkeypatch):
    """Count component-pass nodes and Brandes source passes."""
    counts = {"component_pass_nodes": 0, "brandes_sources": 0}

    def counted_components(original):
        def wrapper(*args, **kwargs):
            components = original(*args, **kwargs)
            counts["component_pass_nodes"] += sum(len(c) for c in components)
            return components

        return wrapper

    for module in (cleanup_module, mincut_module):
        for name in ("connected_components", "union_find_components"):
            original = getattr(module, name, None)
            if original is not None:
                monkeypatch.setattr(module, name, counted_components(original))

    original_source = betweenness_module._accumulate_single_source

    def source_pass(*args, **kwargs):
        counts["brandes_sources"] += 1
        return original_source(*args, **kwargs)

    monkeypatch.setattr(betweenness_module, "_accumulate_single_source", source_pass)
    return counts


def planted_groups_edges(seed=7, chains=12, groups_per_chain=8, group_size=4):
    """Chains of 4-cliques (true groups) joined by 1-2 false edges each.

    Every chain is one 32-node component, over the default ``gamma`` of 20
    for four sources, so minimum cuts split it before betweenness refines
    the pieces.
    """
    rng = random.Random(seed)
    edges = []
    for chain in range(chains):
        groups = [
            [f"c{chain:02d}g{group}r{member}" for member in range(group_size)]
            for group in range(groups_per_chain)
        ]
        for members in groups:
            edges.extend(itertools.combinations(members, 2))
        for left, right in itertools.pairwise(groups):
            for _ in range(rng.randint(1, 2)):
                edges.append((rng.choice(left), rng.choice(right)))
    return edges


def observed_work(edges, counter):
    _, report = gralmatch_cleanup(edges, CleanupConfig.for_num_sources(4))
    return dict(
        counter,
        mincut_removals=report.mincut_removals,
        betweenness_removals=report.betweenness_removals,
    )


def test_golden_corpus_work_is_pinned(golden_kept_edges, work_counter):
    assert observed_work(golden_kept_edges, work_counter) == GOLDEN_WORK


def test_planted_groups_work_is_pinned(work_counter):
    assert observed_work(planted_groups_edges(), work_counter) == PLANTED_WORK
