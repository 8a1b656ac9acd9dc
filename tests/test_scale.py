"""Checks too slow for the default run, each on inputs far past tier-1's.

Every test here carries the ``scale`` marker, which the default run
deselects (see ``[tool.pytest.ini_options]`` in pyproject.toml); run them
with ``python -m pytest -q -m scale``.  Together they take a few minutes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifactor import GenSpec, enumerate_bipartite_block, generate
from bifactor.generators import _BLOCK, SplitMix64, _draws_below, _permutation

from conftest import (
    assert_constructor_as_reference,
    assert_flow_and_oracle_labels_on_read,
    assert_minus_matching_as_constructed,
    assert_pipeline_as_rebuilt,
    assert_same_block,
    connected_bipartite_count,
    linked_quadrilateral_host,
)

pytestmark = pytest.mark.scale


def test_enumeration_against_cell_by_cell_reference():
    """4x5 and 5x4 small-host enumeration (2^20 masks each) against the
    cell-by-cell reference."""
    counts = [assert_same_block(a, b) for a, b in ((4, 5), (5, 4))]
    assert counts == [636331, 636331]


@pytest.mark.parametrize(
    "n_x, n_y, want", [(4, 5, 636331), (5, 4, 636331), (5, 5, 23679901)]
)
def test_enumeration_count_by_inclusion_exclusion(n_x, n_y, want):
    """The enumerator's host count at the largest class sizes it takes,
    against inclusion-exclusion over X0's component."""
    count = sum(1 for _ in enumerate_bipartite_block(n_x, n_y))
    assert count == connected_bipartite_count(n_x, n_y) == want


def test_constructor_against_first_written_reference():
    """The graph constructor on 20,000 seeded edge lists against the
    first-written reference."""
    counts = assert_constructor_as_reference(20000, 1)
    assert sorted(counts) == ["DuplicateEdgeError", "IndexOutOfRangeError", "graph"]
    assert sum(counts.values()) == 20000


@pytest.mark.parametrize("n", [400, 1000])
def test_minus_matching_against_constructor(n):
    """K(n,n) minus a seeded perfect matching against the graph constructor."""
    assert_minus_matching_as_constructed(n, 1)


def test_flow_and_loop_factors_against_rebuild():
    """Flow and loop factors at n=400 against the validating rebuild."""
    host = generate(GenSpec("k-minus-matching", 400, seed=1))
    cases = ((host, 2), (host, 3), (linked_quadrilateral_host(400), 2))
    got = [type(assert_pipeline_as_rebuilt(h, k)).__name__ for h, k in cases]
    assert got == ["Factor", "Factor", "StuckReport"]


def test_every_4x4_host_labelled_on_first_read():
    """Flow factors and oracle witnesses of every 4+4 host, at k = 1-3,
    labelled on first read."""
    got = [
        assert_flow_and_oracle_labels_on_read(h, k)
        for h in enumerate_bipartite_block(4, 4)
        for k in (1, 2, 3)
    ]
    assert (len(got), sum(got)) == (108951, 82390) and set(got) == {0, 2}


@settings(max_examples=2000, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(0, 3 * _BLOCK + 5),
    threshold=st.builds(
        lambda m, d: min(max(m * 2**56 + d, 0), 2**64), st.integers(0, 256), st.integers(-3, 3)
    ),
)
def test_block_draws_near_top_byte_cut_offs(seed, count, threshold):
    """Block draws against next_u64 one call at a time, thresholds within
    3 of a multiple of 2^56, where the top-byte filter cuts."""
    scalar = SplitMix64(seed)
    want = [j for j in range(count) if scalar.next_u64() < threshold]
    rng = SplitMix64(seed)
    assert _draws_below(rng, count, threshold) == want
    assert rng.state == scalar.state


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 5000))
def test_bulk_shuffles_against_scalar(seed, n):
    """Bulk shuffles of up to 5,000 against ``shuffle``, rng state too."""
    scalar = SplitMix64(seed)
    want = list(range(n))
    scalar.shuffle(want)
    rng = SplitMix64(seed)
    assert _permutation(rng, n) == want
    assert rng.state == scalar.state
