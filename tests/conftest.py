"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

import pytest

from diagkit.graph import DiagnosticGraph, Edge, Node, Syndrome
from diagkit.simulator import scenario

# Edge order of the five-processor cycle; the syndrome tuples used all over
# the suite follow this order.
CYCLE_PAIRS = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]


def cycle_syndrome(*values: int) -> Syndrome:
    assert len(values) == 5
    return Syndrome(dict(zip(CYCLE_PAIRS, values)))


def iter_subsets(ids: Sequence[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """All subsets of ``ids`` up to ``max_size``, by size then lexicographic."""
    ordered = sorted(ids)
    for size in range(min(max_size, len(ordered)) + 1):
        yield from itertools.combinations(ordered, size)


def random_digraph(rng: random.Random, n: int, p: float) -> DiagnosticGraph:
    """Loop-free digraph on ids 1..n with independent edge probability p."""
    nodes = tuple(Node(i) for i in range(1, n + 1))
    edges = tuple(
        Edge(i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < p
    )
    return DiagnosticGraph(nodes, edges)


@pytest.fixture
def five_cycle() -> DiagnosticGraph:
    return scenario("five_cycle").graph


@pytest.fixture
def localization() -> DiagnosticGraph:
    return scenario("localization").graph


@pytest.fixture
def pane_100hz() -> DiagnosticGraph:
    return scenario("pane_100hz").graph
