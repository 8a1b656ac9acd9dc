"""Seeded instance models, the search oracles, and small-graph enumeration."""

from __future__ import annotations

import gc

import pytest

from bifactor import (
    BipartiteGraph,
    GenSpec,
    MODELS,
    brute_force_connected_k_factor,
    brute_force_f_factor,
    complete_bipartite,
    enumerate_bipartite_block,
    generate,
    path_graph,
)
from bifactor.errors import (
    BudgetExceededError,
    ParamInvalidError,
    RetryExhaustedError,
)
from bifactor.generators import SplitMix64, _disjoint_permutations


def reference_mix(seed: int, count: int) -> list[int]:
    """The documented recurrence, restated here from its constants."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestSplitMix:
    def test_matches_documented_recurrence(self):
        for seed in (0, 1, 42, 2**63):
            rng = SplitMix64(seed)
            assert [rng.next_u64() for _ in range(5)] == reference_mix(seed, 5)

    def test_frozen_streams(self):
        # seed-0 head doubles as the published reference vector
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]
        rng = SplitMix64(42)
        assert rng.next_u64() == 0xBDD732262FEB6E95

    def test_below(self):
        rng = SplitMix64(7)
        draws = [rng.below(10) for _ in range(8)]
        assert draws == [7, 4, 6, 3, 4, 5, 8, 2]
        assert all(0 <= d < 10 for d in draws)

    def test_shuffle(self):
        rng = SplitMix64(7)
        xs = list(range(8))
        rng.shuffle(xs)
        assert xs == [1, 4, 5, 2, 6, 0, 3, 7]
        assert sorted(xs) == list(range(8))

    def test_chance_extremes(self):
        rng = SplitMix64(3)
        assert all(not rng.chance(0.0) for _ in range(20))
        assert all(rng.chance(1.0) for _ in range(20))


class TestGenerate:
    def test_model_names(self):
        assert MODELS == (
            "k-minus-matching",
            "double-cycle",
            "k-regular-union",
            "min-degree-random",
        )

    def test_deterministic(self):
        spec = GenSpec("min-degree-random", n=8, seed=5, k=2, p=0.3)
        assert generate(spec) == generate(spec)

    def test_distinct_seeds_differ(self):
        a = generate(GenSpec("min-degree-random", n=8, seed=1, k=2, p=0.3))
        b = generate(GenSpec("min-degree-random", n=8, seed=2, k=2, p=0.3))
        assert a != b

    def test_k_minus_matching_shape(self):
        g = generate(GenSpec("k-minus-matching", n=8, seed=3, k=3))
        assert (g.n_x, g.n_y, g.m) == (8, 8, 64 - 3)
        assert g.min_degree() == 7

    def test_double_cycle_shape(self):
        g = generate(GenSpec("double-cycle", n=4, seed=0))
        # base C_8 has 8 edges, each quadrupled by the doubling
        assert (g.n_x, g.n_y, g.m) == (8, 8, 32)
        assert g.min_degree() == 4
        assert all(g.degree_x(x) == 4 for x in range(8))

    def test_k_regular_union(self):
        g = generate(GenSpec("k-regular-union", n=7, seed=11, k=3))
        assert g.m == 21
        assert all(g.degree_x(x) == 3 for x in range(7))
        assert all(g.degree_y(y) == 3 for y in range(7))

    def test_min_degree_random_floor(self):
        g = generate(GenSpec("min-degree-random", n=9, seed=4, k=2, p=0.2))
        assert (g.n_x, g.n_y) == (9, 9)
        assert g.min_degree() >= 2

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("no-such-model", n=4),
            GenSpec("k-minus-matching", n=0, k=0),
            GenSpec("k-minus-matching", n=4, k=5),
            GenSpec("k-regular-union", n=4, k=0),
            GenSpec("min-degree-random", n=4, k=2, p=1.5),
            GenSpec("double-cycle", n=1),
        ],
    )
    def test_rejects_bad_parameters(self, spec):
        with pytest.raises(ParamInvalidError):
            generate(spec)

    def test_disjoint_permutations_retry_exhaustion(self):
        # two disjoint permutations of one element cannot exist
        with pytest.raises(RetryExhaustedError):
            _disjoint_permutations(0, 1, 2)


class TestSearchOracles:
    def test_perfect_matching_in_path(self, p4):
        verdict = brute_force_f_factor(p4, [1, 1], [1, 1])
        assert verdict.exists
        assert verdict.witness.edge_list == ((0, 0), (1, 1))
        assert verdict.examined > 0

    def test_no_two_factor_in_path(self, p4):
        verdict = brute_force_f_factor(p4, [2, 2], [2, 2])
        assert not verdict.exists
        assert verdict.witness is None

    def test_connected_variant_rejects_disconnected_union(self):
        g = BipartiteGraph(
            4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        )
        assert brute_force_f_factor(g, [2] * 4, [2] * 4).exists
        assert not brute_force_connected_k_factor(g, 2).exists

    def test_connected_variant_accepts_cycle(self, k33):
        verdict = brute_force_connected_k_factor(k33, 2)
        assert verdict.exists
        assert verdict.witness.regularity() == 2
        assert verdict.witness.is_connected()

    def test_edge_budget(self):
        with pytest.raises(BudgetExceededError):
            brute_force_f_factor(complete_bipartite(7, 7), [1] * 7, [1] * 7)

    def test_search_leaves_no_cycle_behind(self):
        """A call frees everything it made by reference counting, so the
        cyclic GC finds nothing afterwards."""
        graph = complete_bipartite(3, 3)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert brute_force_f_factor(graph, [2] * 3, [2] * 3).exists
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestEnumeration:
    def test_single_block(self):
        gs = list(enumerate_bipartite_block(1, 1))
        assert len(gs) == 1
        assert gs[0] == complete_bipartite(1, 1)

    def test_up_to_two(self):
        """All connected graphs with class sizes at most 2, counted by
        hand: one edge, the two 2-edge stars, four paths inside K_{2,2},
        and K_{2,2} itself."""
        gs = [g for n_x in (1, 2) for n_y in (1, 2) for g in enumerate_bipartite_block(n_x, n_y)]
        assert len(gs) == 8
        shapes = sorted((g.n_x, g.n_y, g.m) for g in gs)
        assert shapes == [
            (1, 1, 1),
            (1, 2, 2),
            (2, 1, 2),
            (2, 2, 3),
            (2, 2, 3),
            (2, 2, 3),
            (2, 2, 3),
            (2, 2, 4),
        ]
        assert complete_bipartite(2, 2) in gs
        assert path_graph(4) in gs

    def test_everything_connected_and_spanning(self):
        for n_x in (1, 2, 3):
            for n_y in (1, 2, 3):
                for g in enumerate_bipartite_block(n_x, n_y):
                    assert g.is_connected()
                    assert g.m >= g.n_vertices - 1

    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_size_gate(self, bad):
        """A class size outside [1, 5] on either side is refused."""
        for n_x, n_y in ((bad, 1), (1, bad), (bad, 5), (5, bad)):
            with pytest.raises(ParamInvalidError):
                list(enumerate_bipartite_block(n_x, n_y))
