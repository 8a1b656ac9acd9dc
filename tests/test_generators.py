"""Seeded instance models, the search oracles, and small-graph enumeration."""

from __future__ import annotations

import gc
import hashlib
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    serialize_graph,
)
from bifactor.errors import (
    BudgetExceededError,
    ParamInvalidError,
    RetryExhaustedError,
)
from bifactor.generators import (
    _BLOCK,
    RETRY_BUDGET,
    SplitMix64,
    _disjoint_permutations,
    _draws_below,
    _threshold,
)
from bifactor.graph import MAX_CLASS_SIZE

from conftest import assert_same_block, connected_bipartite_count


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


def reference_permutation_attempt(sub_seed: int, n: int, count: int) -> list[list[int]] | None:
    """One attempt of the disjoint-permutation draw, restated: draw all
    ``count`` permutations, then check them through a set of (x, y)
    pairs; None when two of them agree somewhere."""
    rng = SplitMix64(sub_seed)
    perms = []
    for _ in range(count):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    pairs = {(x, y) for perm in perms for x, y in enumerate(perm)}
    return perms if len(pairs) == n * count else None


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
        with pytest.raises(ValueError) as err:
            rng.below(0)
        assert type(err.value) is ValueError and str(err.value) == "bound must be positive"

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


class TestBlockDraws:
    """``_draws_below`` against the recurrence restated from its constants."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize(
        "count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
    )
    def test_matches_recurrence(self, seed, count):
        draws = reference_mix(seed, count)
        thresholds = [_threshold(p) for p in (0.0, 1e-6, 1 / 1000, 0.5, 1.0)]
        if draws:
            # a draw equal to the threshold is rejected, one below it accepted
            thresholds += [draws[-1], draws[-1] + 1, draws[count // 2]]
        stepped = SplitMix64(seed)
        for _ in range(count):
            stepped.next_u64()
        for threshold in thresholds:
            rng = SplitMix64(seed)
            hits = _draws_below(rng, count, threshold)
            assert hits == [j for j, z in enumerate(draws) if z < threshold]
            assert rng.state == stepped.state

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        count=st.integers(0, 3 * _BLOCK + 5),
        p=st.floats(0.0, 1.0),
    )
    def test_matches_scalar_chance(self, seed, count, p):
        scalar = SplitMix64(seed)
        expected = [j for j in range(count) if scalar.chance(p)]
        rng = SplitMix64(seed)
        assert _draws_below(rng, count, _threshold(p)) == expected
        assert rng.state == scalar.state

    def test_threshold_extremes(self):
        assert _threshold(0.0) == 0
        assert _threshold(1.0) == 2**64


BAD_SPECS = [
    (GenSpec("no-such-model", n=4), "unknown model 'no-such-model'"),
    (GenSpec("k-minus-matching", n=0, k=0), "n must be positive"),
    (GenSpec("k-minus-matching", n=4, k=5), "matching size cannot exceed n"),
    (GenSpec("k-regular-union", n=4, k=0), "k-regular-union needs 1 <= k <= n"),
    (GenSpec("min-degree-random", n=4, k=2, p=1.5), "p must lie in [0, 1]"),
    (GenSpec("double-cycle", n=1), "double-cycle needs n >= 2"),
    (GenSpec("min-degree-random", n=4, k=0), "min-degree-random needs 1 <= k <= n"),
    (GenSpec("min-degree-random", n=4, k=5), "min-degree-random needs 1 <= k <= n"),
    (GenSpec("k-regular-union", n=MAX_CLASS_SIZE + 1, k=2), f"n must not exceed {MAX_CLASS_SIZE}"),
    (GenSpec("double-cycle", n=MAX_CLASS_SIZE // 2 + 1),
     f"double-cycle needs n <= {MAX_CLASS_SIZE // 2}"),
]


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
        "spec, message",
        BAD_SPECS,
        ids=[f"spec{i}" for i in range(len(BAD_SPECS))],
    )
    def test_rejects_bad_parameters(self, spec, message):
        """Each bad spec raises ParamInvalidError naming what is wrong."""
        with pytest.raises(ParamInvalidError) as err:
            generate(spec)
        assert type(err.value) is ParamInvalidError and str(err.value) == message

    def test_disjoint_permutations_retry_exhaustion(self):
        # two disjoint permutations of one element cannot exist
        with pytest.raises(RetryExhaustedError):
            _disjoint_permutations(0, 1, 2)

    def test_disjoint_permutations_match_full_draws(self):
        """Stopping an attempt at its first collision picks the same
        permutations as drawing every one and then checking, or fails
        the same way."""
        for n in range(1, 13):
            for count in range(1, 5):
                # seed s tries sub-seeds s, s + 1, ..., so seeds share attempts
                attempt = cache(lambda t: reference_permutation_attempt(t, n, count))
                for seed in range(50):
                    tries = map(attempt, range(seed, seed + RETRY_BUDGET))
                    want = next(filter(None, tries), None)
                    if want is None:
                        with pytest.raises(RetryExhaustedError):
                            _disjoint_permutations(seed, n, count)
                    else:
                        assert _disjoint_permutations(seed, n, count) == want


# SHA-256 of serialize_graph(generate(spec)), recorded with a generator
# that called ``chance`` once per (x, y) pair, so the block draws must
# reproduce them.  The six n >= 300 rows are factor-large's host shapes.
GENERATED_DIGESTS = [
    (GenSpec("k-minus-matching", 13, seed=7), "ffeaafe93723f66b801a2faf62b11283f515c813959c8249501b0169ac61a734"),
    (GenSpec("k-minus-matching", 50, seed=3, k=10), "a16529b3bc9ccea2fa212bf43a40840bb23518999b0682a19f59cf381812cc3f"),
    (GenSpec("double-cycle", 5, seed=1), "79d4d6100541ea00d51d1397e24ea14282c56185a0911e9b72ea23034e213020"),
    (GenSpec("k-regular-union", 7, seed=11, k=3), "7aa2c44f8797a9b41fa6c34f5c7e9c9349b6e6e9d23950e465ffa4ffa4e2855b"),
    (GenSpec("k-regular-union", 60, seed=2, k=4), "2e6d838708e3696d58798b4a22d75389a9ba9045370fc0a8b27b5cd58922fa38"),
    (GenSpec("min-degree-random", 1, seed=0, k=1, p=0.5), "6cbac2a234c4aadc37f39cc996564099323504d768fd01a3e905b59e11b4124f"),
    (GenSpec("min-degree-random", 9, seed=4, k=2, p=0.2), "1d9da98fbaee93096b7297d877869805e8284d737c503a41f72779010cc2d6e6"),
    (GenSpec("min-degree-random", 40, seed=8, k=3, p=0.5), "67f440e55b20bd40b203284e838cce1872b161fac58843ff7fb73947e6b49429"),
    (GenSpec("min-degree-random", 50, seed=5, k=3, p=0.0), "cbff47375f0d4a0770fc5e2b33a27f167075db04d60dab120ea13be1bef692b7"),
    (GenSpec("min-degree-random", 30, seed=6, k=2, p=1.0), "b43e8bc650a1884c44dfa59a02644608f7962e1c683330f18824e96c3febdf1d"),
    (GenSpec("min-degree-random", 300, seed=1, k=3, p=1 / 300), "7558d31627dadf0d77136b1bbf975958e044348aad044b2c4dad9ea8bc401ce4"),
    (GenSpec("min-degree-random", 400, seed=2, k=3, p=1 / 400), "abfd080276ab2756bce3c9480df5128b649e8b9c3ce31e09b9af5c51b644e1f0"),
    (GenSpec("min-degree-random", 500, seed=3, k=2, p=1 / 500), "87d13522118d8cd4fc9a5b2163596f19a96b6de6a0cfc0945222963db4c1a133"),
    (GenSpec("min-degree-random", 600, seed=4, k=2, p=1 / 600), "b4225d0794183918fa42b00a30c57aac43428e36545efdd040e33c0c72b9a0fa"),
    (GenSpec("min-degree-random", 800, seed=5, k=2, p=1 / 800), "826ca69d0cef9cf3910281f28996538ccf7089097addf1b4c262f8178c8dc591"),
    (GenSpec("min-degree-random", 1000, seed=6, k=2, p=1 / 1000), "5041b981c0ae7e25d32639f5941c8aa136b74a33b6fe9964b4588311caa79a64"),
]


@pytest.mark.parametrize("spec, digest", GENERATED_DIGESTS)
def test_generated_bytes_pinned(spec, digest):
    text = serialize_graph(generate(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        with pytest.raises(ParamInvalidError) as err:
            brute_force_connected_k_factor(k33, 0)
        assert type(err.value) is ParamInvalidError
        assert str(err.value) == "connected search needs k >= 1"

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


# Every class-size pair the tier-1 enumeration checks cover.
_SIZES = (
    [(a, b) for a in range(1, 5) for b in range(1, 5)]
    + [(5, b) for b in (1, 2, 3)]
    + [(a, 5) for a in (1, 2, 3)]
)


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

    @pytest.mark.parametrize("n_x, n_y", _SIZES)
    def test_same_graphs_in_same_order_as_reference(self, n_x, n_y):
        """The nested walk, X0's row innermost, yields the cell-by-cell
        walk's graphs, in its ascending edge-mask order; 4x5 and 5x4 (2^20
        masks) run under the ``scale`` marker, in tests/test_scale.py."""
        count = assert_same_block(n_x, n_y)
        if (n_x, n_y) == (4, 4):
            assert count == 36317

    @pytest.mark.parametrize("n_x, n_y", _SIZES)
    def test_count_by_inclusion_exclusion(self, n_x, n_y):
        """The walk yields as many hosts as inclusion-exclusion over X0's
        component counts; 4x5, 5x4 and 5x5 run under the ``scale`` marker."""
        count = sum(1 for _ in enumerate_bipartite_block(n_x, n_y))
        assert count == connected_bipartite_count(n_x, n_y)
        if (n_x, n_y) == (4, 4):
            assert count == 36317
        if (n_x, n_y) == (3, 5):
            assert count == 14221

    def test_hosts_share_row_tuples(self):
        """All 36,317 4+4 hosts, held at once, share the 15 nonempty rows
        of each side: one tuple object per row mask, not one per host."""
        hosts = list(enumerate_bipartite_block(4, 4))
        assert len(hosts) == 36317
        assert len({id(row) for g in hosts for row in g._adj_x}) <= 15
        assert len({id(row) for g in hosts for row in g._adj_y}) <= 15

    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_size_gate(self, bad):
        """A class size outside [1, 5] on either side is refused."""
        for n_x, n_y in ((bad, 1), (1, bad), (bad, 5), (5, bad)):
            with pytest.raises(ParamInvalidError):
                list(enumerate_bipartite_block(n_x, n_y))
