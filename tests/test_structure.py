"""Induced star-pair detection and the three-way classification."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifactor.structure
from bifactor import (
    BipartiteGraph,
    StructureClass,
    VertexRef,
    classify_s12_free,
    complete_bipartite,
    complete_bipartite_minus_matching,
    cycle_graph,
    find_induced_star,
    is_skl_free,
    path_graph,
    rebuild_classified,
    serialize_star_witness,
    star_pair_graph,
)
from bifactor.errors import (
    EmptyGraphError,
    IndexOutOfRangeError,
    MatchingNotDisjointError,
    NotBipartiteError,
    NotConnectedError,
)

from conftest import (
    assert_star_witness_valid,
    assert_stored_as_constructed,
    bipartite_graphs,
    chain_host,
    contains_star_pair,
    first_star_witness,
    reference_find_induced_star,
    reference_good_leaf_star,
)

# Arm pairs for the comparisons against the detector as first written.
PRUNING_ARMS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 2)]


def transpose(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph(g.n_y, g.n_x, [(y, x) for x, y in g.edge_list])


@st.composite
def dense_graphs(draw):
    """Up to 12+12 vertices, each edge present with probability 0.6-0.95."""
    n_x, n_y = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    density = draw(st.floats(0.6, 0.95))
    rng = draw(st.randoms(use_true_random=False))
    cells = [(x, y) for x in range(n_x) for y in range(n_y)]
    return BipartiteGraph(n_x, n_y, [c for c in cells if rng.random() < density])


def near_minus_matching(n: int, extra: int, at_y: bool, rng: random.Random) -> BipartiteGraph:
    """K(n,n) minus a random perfect matching and ``extra`` more edges, all
    at one random Y vertex (``at_y``) or one random X vertex."""
    perm = list(range(n))
    rng.shuffle(perm)
    cells = [(x, y) for x in range(n) for y in range(n) if y != perm[x]]
    v = rng.randrange(n)
    at_v = [c for c in cells if (c[1] if at_y else c[0]) == v]
    dropped = set(rng.sample(at_v, extra))
    return BipartiteGraph(n, n, [c for c in cells if c not in dropped])



def ragged_minus_matching(n: int, rng: random.Random) -> BipartiteGraph:
    """K(n,n) minus a random perfect matching and more non-edges at four
    random vertices a side, which then miss exactly 2, 3, 4 and 5
    vertices; no such non-edge joins two of them, and the other vertices
    miss 1 or more."""
    perm = list(range(n))
    rng.shuffle(perm)
    missing = {(x, perm[x]) for x in range(n)}
    xs, ys = rng.sample(range(n), 4), rng.sample(range(n), 4)
    for extra, x, y in zip(range(1, 5), xs, ys):
        spare_y = [b for b in range(n) if b not in ys and (x, b) not in missing]
        missing.update((x, b) for b in rng.sample(spare_y, extra))
        spare_x = [a for a in range(n) if a not in xs and (a, y) not in missing]
        missing.update((a, y) for a in rng.sample(spare_x, extra))
    cells = ((x, y) for x in range(n) for y in range(n))
    return BipartiteGraph(n, n, [c for c in cells if c not in missing])


def sparse_misses(n_x: int, n_y: int, p: float, rng: random.Random) -> BipartiteGraph:
    """K(n_x, n_y) with each edge dropped with probability p."""
    cells = ((x, y) for x in range(n_x) for y in range(n_y))
    return BipartiteGraph(n_x, n_y, [c for c in cells if rng.random() >= p])


def minus_circulant(n: int, d: int, rng: random.Random) -> BipartiteGraph:
    """K(n,n) minus the d-regular circulant of non-edges (x, x + j mod n),
    j < d, with each side relabelled by a random permutation: every
    vertex misses exactly d vertices."""
    px, py = rng.sample(range(n), n), rng.sample(range(n), n)
    missing = {(px[x], py[(x + j) % n]) for x in range(n) for j in range(d)}
    cells = ((x, y) for x in range(n) for y in range(n))
    return BipartiteGraph(n, n, [c for c in cells if c not in missing])


def non_neighbour_counts(g: BipartiteGraph) -> tuple[set[int], set[int]]:
    deg_x, deg_y = g.degrees()
    return {g.n_y - d for d in deg_x}, {g.n_x - d for d in deg_y}

class TestDetection:
    @pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_finds_itself(self, k, l):
        g = star_pair_graph(k, l)
        w = find_induced_star(g, k, l)
        assert w is not None
        assert_star_witness_valid(g, w)

    @pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (2, 3)])
    def test_finds_transposed_embedding(self, k, l):
        """The copy may sit with either class hosting the k-side center."""
        g = transpose(star_pair_graph(k, l))
        w = find_induced_star(g, k, l)
        assert w is not None
        assert_star_witness_valid(g, w)

    def test_deep_leaf_search(self):
        """1,100 k-leaves, past the recursion limit: the search backtracks
        over explicit stacks.  The reference detectors recurse too, so the
        witness is checked directly."""
        k = 1100
        w = find_induced_star(star_pair_graph(k, 1), k, 1)
        assert (w.center_u, w.center_v) == (VertexRef("X", 0), VertexRef("Y", 0))
        assert w.leaves_u == tuple(VertexRef("Y", j) for j in range(1, k + 1))
        assert w.leaves_v == (VertexRef("X", 1),)
        assert_star_witness_valid(star_pair_graph(k, 1), w)

    def test_complete_bipartite_has_no_induced_copy(self):
        assert find_induced_star(complete_bipartite(4, 4), 1, 2) is None
        assert is_skl_free(complete_bipartite(4, 4), 2, 3)

    def test_subdivided_copy_does_not_count(self):
        # a long path contains star pairs only as minors, never induced
        assert find_induced_star(path_graph(8), 1, 2) is None

    def test_cycle_is_fork_free(self):
        assert is_skl_free(cycle_graph(5), 1, 2)

    def test_rejects_nonpositive_arms(self):
        with pytest.raises(ValueError):
            find_induced_star(complete_bipartite(2, 2), 0, 1)

    def test_witness_serialization(self):
        g = star_pair_graph(1, 2)
        w = find_induced_star(g, 1, 2)
        text = serialize_star_witness(w)
        lines = text.splitlines()
        assert lines[0] == "star 1 2"
        assert lines[1].startswith("centerU ") and lines[2].startswith("centerV ")
        assert sum(1 for s in lines if s.startswith("leafU ")) == 1
        assert sum(1 for s in lines if s.startswith("leafV ")) == 2

    @given(bipartite_graphs(max_side=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_subset_profile_oracle_12(self, g):
        """Detector verdict equals the brute subset scan for (1, 2)."""
        w = find_induced_star(g, 1, 2)
        assert (w is not None) == contains_star_pair(g, 1, 2)
        if w is not None:
            assert_star_witness_valid(g, w)

    @given(bipartite_graphs(max_side=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_subset_profile_oracle_22(self, g):
        w = find_induced_star(g, 2, 2)
        assert (w is not None) == contains_star_pair(g, 2, 2)
        if w is not None:
            assert_star_witness_valid(g, w)

    @pytest.mark.parametrize("k, l", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
    @given(g=bipartite_graphs(max_side=5))
    @settings(max_examples=60, deadline=None)
    def test_returns_first_witness_in_order(self, k, l, g):
        """Edge order, X-center orientation first, first leaf sets."""
        assert find_induced_star(g, k, l) == first_star_witness(g, k, l)


class TestGoodLeafPruning:
    """Restricting k-leaves to good leaves of the l-center keeps every
    witness of the detector as first written, on hosts beyond the small
    random graphs above."""

    @pytest.mark.parametrize("k, l", PRUNING_ARMS)
    @given(g=dense_graphs())
    @settings(max_examples=40, deadline=None)
    def test_dense_hosts(self, k, l, g):
        assert find_induced_star(g, k, l) == reference_find_induced_star(g, k, l)

    def test_near_minus_matching_hosts(self):
        """Seeded corpus, n 16-60; it reaches witnesses of both
        orientations and witnesses that skip the k-center's first leaf."""
        rng = random.Random(20181)
        kinds = set()
        for i, n in enumerate((16, 18, 20, 22, 24, 28, 34, 42, 60)):
            g = near_minus_matching(n, 2 + i % 4, i % 2 == 1, rng)
            for k, l in PRUNING_ARMS:
                w = find_induced_star(g, k, l)
                assert w == reference_find_induced_star(g, k, l), (n, k, l)
                if w is not None:
                    assert_star_witness_valid(g, w)
                    nbrs = [v for v in g.neighbors(w.center_u) if v != w.center_v.index]
                    kinds.add((w.center_u.side, w.leaves_u[0].index == nbrs[0]))
        assert {("X", False), ("Y", False)} <= kinds

    @pytest.mark.parametrize("k, l", PRUNING_ARMS)
    def test_chain_host(self, k, l):
        g = chain_host(2000)
        assert find_induced_star(g, k, l) == reference_find_induced_star(g, k, l)


class TestThinPrune:
    """Counting only k-leaf candidates with at least l non-neighbours, and
    returning before any mask is built when no orientation has one, keeps
    every witness of the good-leaf detector as first written."""

    def test_ragged_minus_matching_hosts(self):
        """Seeded corpus, n 16-100: some vertices of each side miss l - 1,
        l and l + 1 vertices for every l of PRUNING_ARMS, so the thin
        masks are neither empty nor full."""
        rng = random.Random(20182)
        outcomes = set()
        for n in (16, 17, 20, 25, 31, 40, 100):
            g = ragged_minus_matching(n, rng)
            assert all({1, 2, 3, 4, 5} <= side for side in non_neighbour_counts(g))
            for k, l in PRUNING_ARMS:
                w = find_induced_star(g, k, l)
                assert w == reference_good_leaf_star(g, k, l), (n, k, l)
                if w is not None:
                    assert_star_witness_valid(g, w)
                    outcomes.add(w.center_u.side)
                else:
                    outcomes.add(None)
        assert outcomes == {"X", "Y", None}

    def test_unbalanced_hosts(self):
        """Seeded corpus of unequal sides on which a vertex's count of
        non-neighbours, n_other - deg, falls on both sides of each l."""
        rng = random.Random(20183)
        crossed = set()
        for n_x, n_y in ((20, 26), (31, 24), (40, 33), (24, 60), (60, 17)):
            g = sparse_misses(n_x, n_y, 0.08, rng)
            for side, counts in enumerate(non_neighbour_counts(g)):
                crossed |= {(side, l) for l in (2, 3, 4) if min(counts) < l <= max(counts)}
            for k, l in PRUNING_ARMS:
                w = find_induced_star(g, k, l)
                assert w == reference_good_leaf_star(g, k, l), (n_x, n_y, k, l)
        assert crossed == {(side, l) for side in (0, 1) for l in (2, 3, 4)}

    def test_minus_circulant_hosts(self):
        """Seeded corpus, n 12-24, d 2-5: the cliff hosts, on which every
        vertex is thin once d >= l.  Some hosts are free at d = l = 3 with
        k = 2 and at d = l = 4 with k = 3, so both orientations search
        every edge to exhaustion."""
        rng = random.Random(20184)
        free = set()
        for n in (12, 16, 20, 24):
            for d in range(2, 6):
                g = minus_circulant(n, d, rng)
                assert non_neighbour_counts(g) == ({d}, {d})
                for k, l in PRUNING_ARMS:
                    w = find_induced_star(g, k, l)
                    assert w == reference_good_leaf_star(g, k, l), (n, d, k, l)
                    if w is None:
                        free.add((d, k, l))
        assert {(3, 2, 3), (4, 3, 4)} <= free

    def test_k400_minus_matching(self):
        g = complete_bipartite_minus_matching(400, [(i, (i + 1) % 400) for i in range(400)])
        for k, l in PRUNING_ARMS:
            assert find_induced_star(g, k, l) is None
            assert reference_good_leaf_star(g, k, l) is None


class TestClassify:
    def test_path(self):
        cls = classify_s12_free(path_graph(5))
        assert cls.tag == "path"

    def test_even_cycle(self):
        cls = classify_s12_free(cycle_graph(4))
        assert cls.tag == "even-cycle"

    def test_complete_minus_matching(self):
        g = complete_bipartite_minus_matching(4, [(1, 1), (0, 0)])
        cls = classify_s12_free(g)
        assert cls.tag == "complete-minus-matching"
        assert cls.removed_matching == ((0, 0), (1, 1))

    def test_star_counts_as_complete_minus_empty_matching(self):
        cls = classify_s12_free(complete_bipartite(1, 3))
        assert cls.tag == "complete-minus-matching"
        assert cls.removed_matching == ()

    def test_unbalanced_near_complete(self):
        """Class sizes need not match; only the non-edges must be disjoint."""
        g = BipartiteGraph(
            2, 3, [(x, y) for x in range(2) for y in range(3) if (x, y) != (0, 0)]
        )
        cls = classify_s12_free(g)
        assert cls.tag == "complete-minus-matching"
        assert cls.removed_matching == ((0, 0),)

    def test_fork_host_gets_witness(self):
        g = star_pair_graph(1, 2)
        cls = classify_s12_free(g)
        assert cls.tag == "not-s12-free"
        assert_star_witness_valid(g, cls.witness)
        with pytest.raises(ValueError) as err:
            rebuild_classified(g, cls)
        assert type(err.value) is ValueError
        assert str(err.value) == "cannot rebuild class 'not-s12-free'"

    def test_requires_connected_input(self):
        with pytest.raises(NotConnectedError):
            classify_s12_free(BipartiteGraph(2, 2, [(0, 0), (1, 1)]))

    def test_empty_graph_fits_no_shape(self):
        """The vertexless graph is connected but is no path, cycle or
        complete-minus-matching host."""
        with pytest.raises(EmptyGraphError):
            classify_s12_free(BipartiteGraph(0, 0, []))

    def test_shapeless_host_without_witness_is_refused(self, monkeypatch):
        """A host that fits no free shape must hold an induced (1,2) star
        pair; a detector that finds none puts it outside the domain."""
        monkeypatch.setattr(bifactor.structure, "find_induced_star", lambda graph, k, l: None)
        with pytest.raises(NotBipartiteError) as err:
            classify_s12_free(star_pair_graph(1, 2))
        assert str(err.value) == (
            "graph fits no free shape yet no induced copy was found; "
            "input is outside the classifier's domain"
        )

    @pytest.mark.parametrize(
        "g",
        [
            path_graph(4),
            path_graph(7),
            cycle_graph(5),
            complete_bipartite_minus_matching(4, [(0, 0), (1, 1), (2, 2), (3, 3)]),
            complete_bipartite(3, 2),
        ],
    )
    def test_rebuild_preserves_shape(self, g):
        cls = classify_s12_free(g)
        rebuilt = rebuild_classified(g, cls)
        assert (rebuilt.n_x, rebuilt.n_y) == (g.n_x, g.n_y)
        assert sorted(
            [g.degree_x(x) for x in range(g.n_x)] + [g.degree_y(y) for y in range(g.n_y)]
        ) == sorted(
            [rebuilt.degree_x(x) for x in range(g.n_x)]
            + [rebuilt.degree_y(y) for y in range(g.n_y)]
        )

    @pytest.mark.parametrize("n", [1, 3, 5, 8, 9])
    def test_rebuild_path_starting_in_y(self, n):
        """A path with more vertices in Y is rebuilt as path_graph with its
        two sides' rows swapped: stored rows, m, == and hash equal those of
        the host built by the constructor from the swapped edges.  A path
        with as many vertices on each side starts in X and is not swapped."""
        path = path_graph(n)
        if path.n_x == path.n_y:
            host = path
        else:
            host = BipartiteGraph(path.n_y, path.n_x, [(y, x) for x, y in path.edge_list])
        rebuilt = rebuild_classified(host, classify_s12_free(host))
        assert_stored_as_constructed(rebuilt, host, f"n={n}")

    def test_rebuild_near_complete_is_exact(self):
        # the non-edge set pins the graph down completely
        g = complete_bipartite_minus_matching(5, [(0, 1), (1, 0), (3, 3)])
        assert rebuild_classified(g, classify_s12_free(g)) == g

    @pytest.mark.parametrize("n_x, n_y", [(3, 5), (5, 3)])
    def test_rebuild_unbalanced_near_complete_is_exact(self, n_x, n_y):
        """K(n_x, n_y) less every matching of 0 to 3 pairs is rebuilt as
        the host itself: its stored rows, m, == and hash are those of the
        host built by the constructor."""
        for size in range(4):
            for xs in itertools.combinations(range(n_x), size):
                for ys in itertools.permutations(range(n_y), size):
                    removed = set(zip(xs, ys))
                    host = BipartiteGraph(
                        n_x,
                        n_y,
                        [(x, y) for x in range(n_x) for y in range(n_y) if (x, y) not in removed],
                    )
                    cls = classify_s12_free(host)
                    assert cls.removed_matching == tuple(sorted(removed)), removed
                    rebuilt = rebuild_classified(host, cls)
                    assert_stored_as_constructed(rebuilt, host, f"{n_x}x{n_y} less {removed}")

    @pytest.mark.parametrize(
        "pairs, error, message",
        [
            (((0, 0), (0, 1)), MatchingNotDisjointError, "removed pairs share a vertex"),
            (((0, -1),), IndexOutOfRangeError, "matching pair (0, -1) outside 3x5"),
            (((3, 0),), IndexOutOfRangeError, "matching pair (3, 0) outside 3x5"),
        ],
    )
    def test_rebuild_refuses_a_claim_that_is_no_matching(self, pairs, error, message):
        """A hand-made record whose pairs share a vertex or leave the host's
        classes raises as complete_bipartite_minus_matching does."""
        cls = StructureClass("complete-minus-matching", removed_matching=pairs)
        with pytest.raises(error) as err:
            rebuild_classified(complete_bipartite(3, 5), cls)
        assert type(err.value) is error and str(err.value) == message

    @given(bipartite_graphs(max_side=4))
    @settings(max_examples=60, deadline=None)
    def test_classifier_agrees_with_detector(self, g):
        if not g.is_connected() or g.n_vertices == 0:
            return
        cls = classify_s12_free(g)
        if cls.tag == "not-s12-free":
            assert not is_skl_free(g, 1, 2)
            assert_star_witness_valid(g, cls.witness)
        else:
            assert is_skl_free(g, 1, 2)
