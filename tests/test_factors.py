"""Demands, violator certificates and the flow solver."""

from __future__ import annotations

import random
import sys
from itertools import chain, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifactor import (
    BipartiteGraph,
    DegreeDemand,
    Factor,
    ViolatorCertificate,
    audit_certificate,
    brute_force_f_factor,
    check_demand_balance,
    complete_bipartite,
    complete_bipartite_minus_matching,
    enumerate_bipartite_block,
    find_f_factor,
    generate,
    make_certificate,
    parse_factor,
    path_graph,
    serialize_certificate,
    serialize_factor,
    serialize_graph,
    shrink_violator,
)
from bifactor import factors
from bifactor.cli import main
from bifactor.errors import (
    DemandImbalanceError,
    FakeCertificateError,
    NotRegularError,
    TheoremContradictionError,
)
from bifactor.factors import _max_flow, _shrink
from bifactor.generators import GenSpec, SplitMix64

from conftest import (
    assert_regular_spanning,
    assert_same_factor,
    balanced_demand,
    bipartite_graphs,
    chain_host,
    planted_hall_host,
    reference_f_factor,
    reference_shrink_violator,
    violation_sides,
)


class TestDemand:
    def test_uniform(self):
        d = DegreeDemand.uniform(complete_bipartite(2, 3), 2)
        assert d.f_x == (2, 2) and d.f_y == (2, 2, 2)

    def test_balance(self):
        assert check_demand_balance(DegreeDemand((1, 2), (3,)))
        assert not check_demand_balance(DegreeDemand((1, 2), (2,)))

    def test_validation(self):
        g = complete_bipartite(2, 2)
        with pytest.raises(ValueError):
            DegreeDemand((1,), (1, 1)).validate_for(g)
        with pytest.raises(ValueError):
            DegreeDemand((1, -1), (0, 0)).validate_for(g)

    @pytest.mark.parametrize(
        "f_x, f_y",
        [((-1, 2, 2), (2, 1)), ((2, 2, -1), (2, 1)), ((2, 2, 2), (-1, 2)), ((2, 2, 2), (2, -1))],
    )
    def test_negative_entry_at_either_end(self, f_x, f_y):
        """A negative demand first or last on either side is refused."""
        with pytest.raises(ValueError, match="demands must be non-negative"):
            DegreeDemand(f_x, f_y).validate_for(complete_bipartite(3, 2))

    def test_vertexless_host_passes(self):
        DegreeDemand((), ()).validate_for(BipartiteGraph(0, 0, []))


class TestCertificates:
    def test_path_singleton_violator(self, p4):
        """P_4 with demand 2 everywhere: the degree-1 endpoint already
        certifies non-existence.  Sides checked against the direct
        evaluation in conftest, then frozen."""
        demand = DegreeDemand.uniform(p4, 2)
        assert violation_sides(p4, [2, 2], [2, 2], (0,)) == (2, 1)
        cert = make_certificate(p4, demand, (0,))
        assert cert.lhs == 2 and cert.rhs == 1
        assert cert.per_vertex_rhs == ((0, 1),)
        assert audit_certificate(p4, demand, cert)

    def test_no_violation_on_feasible_graph(self):
        g = complete_bipartite(2, 2)
        demand = DegreeDemand.uniform(g, 2)
        for a in [(0,), (1,), (0, 1)]:
            cert = make_certificate(g, demand, a)
            assert cert.lhs <= cert.rhs
            assert not audit_certificate(g, demand, cert)

    def test_audit_rejects_tampering(self, p4):
        demand = DegreeDemand.uniform(p4, 2)
        good = make_certificate(p4, demand, (0,))
        bad = ViolatorCertificate(good.a, good.lhs + 5, good.rhs, good.per_vertex_rhs)
        report: list[str] = []
        assert not audit_certificate(p4, demand, bad, report)
        assert any("stored lhs" in line for line in report)

    @pytest.mark.parametrize(
        "a, complaint",
        [
            ((), "empty"),
            ((0, 0), "repeats"),
            ((7,), "out-of-range"),
        ],
    )
    def test_audit_rejects_malformed_sets(self, p4, a, complaint):
        demand = DegreeDemand.uniform(p4, 2)
        cert = ViolatorCertificate(a, 99, 0, ())
        report: list[str] = []
        assert not audit_certificate(p4, demand, cert, report)
        assert any(complaint in line for line in report)

    def test_shrink_drops_padding(self, p4):
        """A = {0, 1} violates (4 > 3) but only vertex 0 is needed."""
        demand = DegreeDemand.uniform(p4, 2)
        fat = make_certificate(p4, demand, (0, 1))
        assert (fat.lhs, fat.rhs) == (4, 3)
        lean = shrink_violator(p4, demand, fat)
        assert lean.a == (0,)
        assert (lean.lhs, lean.rhs) == (2, 1)

    def test_shrink_result_is_minimal(self, p4):
        demand = DegreeDemand.uniform(p4, 2)
        lean = shrink_violator(p4, demand, make_certificate(p4, demand, (0, 1)))
        for x in lean.a:
            rest = tuple(v for v in lean.a if v != x)
            if rest:
                lhs, rhs = violation_sides(p4, [2, 2], [2, 2], rest)
                assert lhs <= rhs

    def test_shrink_refuses_fake_input(self, p4):
        demand = DegreeDemand.uniform(p4, 2)
        fake = ViolatorCertificate((1,), 9, 0, ())
        with pytest.raises(FakeCertificateError):
            shrink_violator(p4, demand, fake)

    def test_internal_shrink_refuses_a_set_that_does_not_violate(self, p4):
        """find_f_factor's shrink skips the audit and checks the slack of
        the flow's set itself; A = {1} has lhs 2 <= rhs 2."""
        demand = DegreeDemand.uniform(p4, 2)
        with pytest.raises(FakeCertificateError, match="lhs 2 <= rhs 2"):
            _shrink(p4, demand, (1,))
        assert _shrink(p4, demand, (0, 1)) == shrink_violator(
            p4, demand, make_certificate(p4, demand, (0, 1))
        )

    def test_greedy_result_is_one_minimal_not_inclusion_minimal(self):
        """The flow's violator shrinks to A = {0, 1, 2, 4, 5}: no single
        vertex can be dropped, yet {2} alone violates (X2 has one
        neighbour, so 2 > 1).  Pinned, since the set is certificate
        bytes."""
        edges = [
            (0, 0), (0, 2), (0, 3), (0, 4), (1, 0), (1, 4), (2, 2), (3, 0), (3, 2),
            (3, 3), (3, 4), (3, 5), (4, 0), (4, 3), (4, 5), (5, 0), (5, 2), (5, 3),
        ]
        g = BipartiteGraph(6, 6, edges)
        cert = find_f_factor(g, DegreeDemand.uniform(g, 2))
        assert isinstance(cert, ViolatorCertificate)
        assert (cert.a, cert.lhs, cert.rhs) == ((0, 1, 2, 4, 5), 10, 9)
        for x in cert.a:
            lhs, rhs = violation_sides(g, [2] * 6, [2] * 6, tuple(v for v in cert.a if v != x))
            assert lhs <= rhs
        assert violation_sides(g, [2] * 6, [2] * 6, (2,)) == (2, 1)

    def test_serialize_certificate(self, p4):
        demand = DegreeDemand.uniform(p4, 2)
        cert = make_certificate(p4, demand, (0,))
        assert serialize_certificate(cert) == "violator 1\n0\nlhs 2\nrhs 1\n"


class TestFindFactor:
    def test_matching_in_k22_is_deterministic(self):
        g = complete_bipartite(2, 2)
        demand = DegreeDemand.uniform(g, 1)
        factor = find_f_factor(g, demand)
        assert isinstance(factor, Factor)
        assert factor.edge_list == ((0, 0), (1, 1))
        again = find_f_factor(g, demand)
        assert again.edge_list == factor.edge_list

    def test_two_factor_in_k33(self, k33):
        factor = find_f_factor(k33, DegreeDemand.uniform(k33, 2))
        assert_regular_spanning(k33, factor, 2)

    def test_infeasible_path_yields_minimal_certificate(self, p4):
        cert = find_f_factor(p4, DegreeDemand.uniform(p4, 2))
        assert isinstance(cert, ViolatorCertificate)
        assert audit_certificate(p4, DegreeDemand.uniform(p4, 2), cert)
        assert cert.a == (0,)

    def test_imbalanced_demand_rejected(self, k33):
        with pytest.raises(DemandImbalanceError):
            find_f_factor(k33, DegreeDemand((1, 1, 1), (1, 1, 2)))

    def test_nonuniform_demand(self):
        # X0 wants both Y vertices, X1 wants one; Y demands mirror that
        g = complete_bipartite(2, 2)
        factor = find_f_factor(g, DegreeDemand((2, 1), (2, 1)))
        assert isinstance(factor, Factor)
        assert factor.degrees() == ((2, 1), (2, 1))

    @given(bipartite_graphs(max_side=3), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_dichotomy(self, g, k):
        """Exactly one outcome, and whichever it is survives scrutiny."""
        demand = DegreeDemand.uniform(g, k)
        if sum(demand.f_x) != sum(demand.f_y):
            return
        out = find_f_factor(g, demand)
        if isinstance(out, Factor):
            assert out.degrees() == (demand.f_x, demand.f_y)
            assert set(out.edge_list) <= set(g.edge_list)
        else:
            assert audit_certificate(g, demand, out)

    def test_agrees_with_exhaustive_search_on_3x3(self):
        for g in enumerate_bipartite_block(3, 3):
            for k in (1, 2):
                demand = DegreeDemand.uniform(g, k)
                verdict = brute_force_f_factor(g, [k] * 3, [k] * 3)
                out = find_f_factor(g, demand)
                assert isinstance(out, Factor) == verdict.exists

    def test_agrees_with_exhaustive_search_on_sampled_5x5(self):
        """Spot check at the largest size the search oracle can still
        handle: 150 seeded connected hosts drawn from all 2^25 edge masks."""
        rng = SplitMix64(20260819)
        cells = [(x, y) for x in range(5) for y in range(5)]
        checked = 0
        while checked < 150:
            mask = rng.next_u64() & ((1 << 25) - 1)
            edges = [cells[i] for i in range(25) if mask >> i & 1]
            g = BipartiteGraph(5, 5, edges)
            if not g.is_connected():
                continue
            checked += 1
            verdict = brute_force_f_factor(g, [2] * 5, [2] * 5)
            out = find_f_factor(g, DegreeDemand.uniform(g, 2))
            assert isinstance(out, Factor) == verdict.exists
            if not verdict.exists:
                assert audit_certificate(g, DegreeDemand.uniform(g, 2), out)


def _outcome_bytes(out: Factor | ViolatorCertificate) -> str:
    """serialize_certificate or serialize_factor output; an irregular
    factor, which has no file format, as its edge lines."""
    if isinstance(out, ViolatorCertificate):
        return serialize_certificate(out) + repr(out.per_vertex_rhs)
    if out.regularity() is None:
        return "".join(f"{x} {y}\n" for x, y in out.edge_list)
    return serialize_factor(out)


def _same_as_reference(graph: BipartiteGraph, demand: DegreeDemand) -> str:
    """find_f_factor's outcome equals the reference's byte for byte, and a
    factor, which the flow hands over as adjacency, holds every field the
    reference's Factor(host, edges) holds."""
    got, want = find_f_factor(graph, demand), reference_f_factor(graph, demand)
    assert _outcome_bytes(got) == _outcome_bytes(want)
    if isinstance(got, Factor):
        assert_same_factor(got, want)
        return "factor"
    return "violator"


def _minus_shuffled_matching(n: int, seed: int) -> BipartiteGraph:
    rng = random.Random(seed)
    return complete_bipartite_minus_matching(n, list(enumerate(rng.sample(range(n), n))))


class _Counted(tuple):
    """A neighbour list that counts, in ``reads``, the entries read from
    it, by index, slice or iteration."""

    reads = [0]

    def __getitem__(self, i):
        got = tuple.__getitem__(self, i)
        _Counted.reads[0] += len(got) if isinstance(i, slice) else 1
        return got

    def __iter__(self):
        for y in tuple.__iter__(self):
            _Counted.reads[0] += 1
            yield y


class _CountingGraph(BipartiteGraph):
    """A host whose N(x) lists count the entries the flow reads."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        self._adj_x = tuple(map(_Counted, self._adj_x))


class _Logged(tuple):
    """N(x) for one x, which appends x to ``log`` when read by index (the
    first phase and the later phases' search) and None when iterated (the
    BFS)."""

    log: list[int | None] = []
    x = -1

    def __getitem__(self, i):
        _Logged.log.append(self.x)
        return tuple.__getitem__(self, i)

    def __iter__(self):
        _Logged.log.append(None)
        return tuple.__iter__(self)


class _LoggingGraph(BipartiteGraph):
    """A host whose N(x) lists log the reads of the flow."""

    __slots__ = ()

    def __init__(self, *args):
        super().__init__(*args)
        rows = tuple(map(_Logged, self._adj_x))
        for x, row in enumerate(rows):
            row.x = x
        self._adj_x = rows


def _searched_per_phase(log: list[int | None]) -> list[set[int]]:
    """The x's whose N(x) each later phase's search reads: the runs of
    reads between two BFS, after the first BFS."""
    tail = log[log.index(None) :]
    return [set(run) for walk, run in groupby(tail, lambda x: x is None) if not walk]


def _min_degree_random(n: int, seed: int) -> tuple[BipartiteGraph, int]:
    """factor-large's sparse host: delta disjoint perfect matchings, delta
    3 up to n=400 and 2 above, plus edges of probability 1/n."""
    delta = 3 if n <= 400 else 2
    return generate(GenSpec("min-degree-random", n, seed=seed, k=delta, p=1.0 / n)), delta


class TestFlowIdentity:
    """The iterative flow search returns the factor and the violator of
    the recursive search it replaced, byte for byte."""

    @given(bipartite_graphs(max_side=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_flow(self, graph, data):
        demand = balanced_demand(graph, lambda lo, hi: data.draw(st.integers(lo, hi)))
        _same_as_reference(graph, demand)

    def test_seeded_corpus_reaches_both_outcomes(self):
        """Random hosts up to 30+30 with non-uniform and uniform demands."""
        outcomes: dict[tuple[str, bool], int] = {}
        for seed in range(400):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(1, 30), rng.randint(1, 30)
            p = rng.random() * 6 / max(n_x, n_y)
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < p]
            )
            demands = [balanced_demand(graph, rng.randint)]
            if n_x == n_y:
                demands.append(DegreeDemand.uniform(graph, rng.randint(1, 3)))
            for demand in demands:
                uniform = len(set(demand.f_x + demand.f_y)) == 1
                key = (_same_as_reference(graph, demand), uniform)
                outcomes[key] = outcomes.get(key, 0) + 1
        assert set(outcomes) == {
            ("factor", False), ("factor", True), ("violator", False), ("violator", True)
        }

    def test_dense_minus_matching_hosts(self):
        """K(n,n) minus a random perfect matching at n 40-100, k = 2 and 3:
        many augmenting paths per phase share the current-arc pointers.  At
        n 150-400 too: the y's fill in index order, so the first phase's
        pointer moves up through all of Y, and every x but the first
        starts its walk past some filled y's."""
        for n in [*range(40, 101, 6), 150, 200, 300, 400]:
            graph = _minus_shuffled_matching(n, n)
            for k in (2, 3):
                assert _same_as_reference(graph, DegreeDemand.uniform(graph, k)) == "factor"

    def test_dense_unequal_sides_reach_both_outcomes(self):
        """Hosts of 20-60 vertices per side, mostly n_x != n_y, edge density
        0.3, X demands 0-8 spread at random over Y: several phases, each
        later BFS stopping at the sink's layer."""
        outcomes: dict[str, int] = {}
        for seed in range(40):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(20, 60), rng.randint(20, 60)
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < 0.3]
            )
            f_x = [rng.randint(0, 8) for _ in range(n_x)]
            f_y = [0] * n_y
            for _ in range(sum(f_x)):
                f_y[rng.randrange(n_y)] += 1
            got = _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    @pytest.mark.parametrize("n_x, n_y", [(0, 0), (0, 3), (4, 0), (1, 1), (3, 7), (12, 5), (30, 30)])
    def test_zero_demand(self, n_x, n_y):
        """No source arc has capacity: the first BFS ends the search with
        the empty factor."""
        graph = complete_bipartite(n_x, n_y)
        assert _same_as_reference(graph, DegreeDemand.uniform(graph, 0)) == "factor"

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_first_phase_skips_full_y_on_complete_hosts(self, k):
        """K(n,n) at uniform k: X0..X(k-1) fill Y0..Y(k-1), and every later
        x lists those full Y vertices first and must pass over them."""
        for n in range(k, 13):
            graph = complete_bipartite(n, n)
            assert _same_as_reference(graph, DegreeDemand.uniform(graph, k)) == "factor"

    def test_first_phase_skips_full_y(self):
        """Every x lists Y0 first, and Y0 (capacity 1 or 2) fills after
        the first X vertices; the other demands are spread at random."""
        outcomes: dict[str, int] = {}
        for seed in range(300):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(2, 12), rng.randint(2, 12)
            edges = {(x, 0) for x in range(n_x)}
            edges.update((x, y) for x in range(n_x) for y in range(1, n_y) if rng.random() < 0.5)
            graph = BipartiteGraph(n_x, n_y, edges)
            f_x = [rng.randint(1, 3) for _ in range(n_x)]
            f_y = [rng.randint(1, 2)] + [0] * (n_y - 1)
            for _ in range(sum(f_x) - f_y[0]):
                f_y[rng.randrange(1, n_y)] += 1
            got = _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    def test_first_phase_demand_without_edges(self):
        """Some X vertices have demand but no edge: the first phase takes
        nothing at them, and the outcome is always a violator."""
        for seed in range(200):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(2, 10), rng.randint(1, 10)
            bare = set(rng.sample(range(n_x), rng.randint(1, n_x - 1)))
            edges = [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < 0.6]
            graph = BipartiteGraph(n_x, n_y, [(x, y) for x, y in edges if x not in bare])
            demand = balanced_demand(graph, rng.randint)
            f_x, f_y = list(demand.f_x), list(demand.f_y)
            donor = max(range(n_x), key=f_x.__getitem__)
            if f_x[donor]:
                f_x[donor] -= 1
            else:
                f_y[rng.randrange(n_y)] += 1
            f_x[rng.choice(sorted(bare))] += 1
            assert _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y))) == "violator"

    def test_first_phase_zero_capacity_y(self):
        """Non-uniform demands with f(y) = 0 at some Y vertices, whose edges
        the first phase must never take; one unit moved between two X
        vertices makes some hosts infeasible."""
        outcomes: dict[str, int] = {}
        for seed in range(300):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(1, 12), rng.randint(2, 12)
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < 0.5]
            )
            zero = set(rng.sample(range(n_y), rng.randint(1, n_y - 1)))
            f_x, f_y = [0] * n_x, [0] * n_y
            for x, y in graph.edge_list:
                if y not in zero and rng.random() < 0.6:
                    f_x[x] += 1
                    f_y[y] += 1
            a, b = rng.randrange(n_x), rng.randrange(n_x)
            if f_x[a] and rng.random() < 0.5:
                f_x[a] -= 1
                f_x[b] += 1
            got = _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_first_phase_saturates_disjoint_blocks(self, k):
        """Disjoint K(k,k) blocks with shuffled labels at uniform k: the
        first phase alone meets every demand."""
        for seed in range(30):
            rng = random.Random(seed)
            n = k * rng.randint(1, 8)
            px, py = rng.sample(range(n), n), rng.sample(range(n), n)
            blocks = [(i + a, i + b) for i in range(0, n, k) for a in range(k) for b in range(k)]
            graph = BipartiteGraph(n, n, [(px[a], py[b]) for a, b in blocks])
            assert _same_as_reference(graph, DegreeDemand.uniform(graph, k)) == "factor"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 57, 200])
    def test_first_phase_leaves_chain_path(self, n):
        """chain_host at k=1: the first phase matches X_i-Y_i for i < n-1,
        which leaves X(n-1) the augmenting path through the whole chain."""
        graph = chain_host(n)
        assert _same_as_reference(graph, DegreeDemand.uniform(graph, 1)) == "factor"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_first_phase_skips_filled_ys_on_minus_matching_hosts(self, k):
        """K(n,n) minus a shuffled perfect matching at uniform k: the y's
        fill in index order, so from about the third x on most of N(x)
        has no capacity left.  Those x's walk past the filled y's and
        their missing partner, and must still take the lowest open y's."""
        for n in range(k + 1, 31):
            rng = random.Random(100 * k + n)
            graph = complete_bipartite_minus_matching(n, list(enumerate(rng.sample(range(n), n))))
            assert _same_as_reference(graph, DegreeDemand.uniform(graph, k)) == "factor"

    def test_first_phase_skips_ys_without_demand_on_unequal_sides(self):
        """Dense hosts of 8-30 X against 30-60 Y vertices where only 2-6
        y's have demand: each x walks past many y's without demand in
        N(x), and the few open y's fill as the pass goes on."""
        outcomes: dict[str, int] = {}
        for seed in range(120):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(8, 30), rng.randint(30, 60)
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < 0.7]
            )
            hot = rng.sample(range(n_y), rng.randint(2, 6))
            f_x, f_y = [rng.randint(0, 3) for _ in range(n_x)], [0] * n_y
            for _ in range(sum(f_x)):
                f_y[rng.choice(hot)] += 1
            got = _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    def test_sink_side_check_ends_the_bfs(self):
        """Hosts of edge density 0.3-0.9 where the first phase leaves a few
        x's short: a later BFS layer holds most x's, while the few y's with
        capacity have far smaller total degree, so they are tested from
        the sink side and, when reached, are the only y's of the last
        layer.  With
        non-uniform demands several of them are reached at once, and each
        must be labelled."""
        outcomes: dict[str, int] = {}
        for seed in range(150):
            rng = random.Random(seed)
            n, p = rng.randint(8, 24), rng.uniform(0.3, 0.9)
            graph = BipartiteGraph(
                n, n, [(x, y) for x in range(n) for y in range(n) if rng.random() < p]
            )
            f_x = [rng.randint(1, 4) for _ in range(n)]
            f_y = f_x[:]
            rng.shuffle(f_y)
            got = _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    def test_sink_side_check_misses_then_scans(self):
        """A random block with a perfect matching, plus X(n), whose one edge
        goes to a block y, and Y(n), whose one edge comes from a block x,
        at demand 1: the first phase mostly leaves X(n) short and Y(n)
        open.  Y(n) has degree 1, below any frontier's past X(n) alone, so
        each layer tests it from the sink side first and, until the
        frontier holds its neighbour, finds it unreached and scans the
        layer top-down."""
        outcomes: dict[str, int] = {}
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(3, 14)
            edges = {(x, y) for x in range(n) for y in range(n) if rng.random() < 0.3}
            edges.update((x, x) for x in range(n))
            edges.update({(n, rng.randrange(n)), (rng.randrange(n), n)})
            graph = BipartiteGraph(n + 1, n + 1, edges)
            got = _same_as_reference(graph, DegreeDemand.uniform(graph, 1))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    def test_zero_demands_on_both_sides(self):
        """Non-uniform demands with zeros among the X and the Y vertices:
        the first phase skips those x's, open_ys leaves out those y's, and
        neither ever holds an edge; one unit moved between two X vertices
        makes some hosts infeasible."""
        outcomes: dict[str, int] = {}
        for seed in range(300):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(2, 12), rng.randint(2, 12)
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < 0.6]
            )
            zero_x = set(rng.sample(range(n_x), rng.randint(1, n_x - 1)))
            zero_y = set(rng.sample(range(n_y), rng.randint(1, n_y - 1)))
            f_x, f_y = [0] * n_x, [0] * n_y
            for x, y in graph.edge_list:
                if x not in zero_x and y not in zero_y and rng.random() < 0.6:
                    f_x[x] += 1
                    f_y[y] += 1
            live = sorted(set(range(n_x)) - zero_x)
            a, b = rng.choice(live), rng.choice(live)
            if f_x[a] and rng.random() < 0.5:
                f_x[a] -= 1
                f_x[b] += 1
            assert not any(f_x[x] for x in zero_x) and not any(f_y[y] for y in zero_y)
            got = _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))
            outcomes[got] = outcomes.get(got, 0) + 1
        assert set(outcomes) == {"factor", "violator"}

    @pytest.mark.parametrize("n, k", [(100, 2), (160, 3), (250, 2)])
    def test_first_phase_pointer_passes_zero_demand_ys(self, n, k):
        """K(n,n) minus a shuffled perfect matching with f(y) = 0 at Y0, at
        the middle y and at the y after it, and the 3k units they free
        taken off random x's: the pointer starts past Y0 and must step over
        the middle pair, as the pass fills the y's below them."""
        for seed in range(4):
            rng = random.Random(seed)
            graph = _minus_shuffled_matching(n, rng.random())
            f_y = [k] * n
            f_y[0] = f_y[n // 2] = f_y[n // 2 + 1] = 0
            f_x = [k] * n
            for _ in range(3 * k):
                f_x[rng.choice([x for x in range(n) if f_x[x]])] -= 1
            _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y)))

    @pytest.mark.parametrize("n_x, n_y", [(150, 100), (100, 150), (240, 80)])
    def test_first_phase_pointer_on_unequal_sides(self, n_x, n_y):
        """Complete hosts minus a shuffled matching of the smaller side,
        with demands spread evenly over each side: the y's fill in index
        order at a rate set by f(y), not by f(x)."""
        total = n_x * n_y // 50
        for seed in range(3):
            rng = random.Random(seed)
            small = min(n_x, n_y)
            removed = set(zip(rng.sample(range(n_x), small), rng.sample(range(n_y), small)))
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if (x, y) not in removed]
            )
            f_x, f_y = [total // n_x] * n_x, [total // n_y] * n_y
            for i in range(total - sum(f_x)):
                f_x[i] += 1
            for j in range(total - sum(f_y)):
                f_y[j] += 1
            assert _same_as_reference(graph, DegreeDemand(tuple(f_x), tuple(f_y))) == "factor"

    @pytest.mark.parametrize("n, k", [(120, 1), (120, 2), (120, 3), (300, 2)])
    def test_first_phase_reads_little_of_each_neighbourhood(self, n, k):
        """K(n,n) at uniform k with k dividing n: the first phase alone
        meets every demand, X(ik)..X(ik+k-1) filling Y(ik)..Y(ik+k-1).  Each
        x starts at the lowest y with capacity left, so it reads about
        log2(n) entries of N(x) to find it and k to take its edges, not
        the ~n/2 filled y's before them."""
        graph = _CountingGraph(n, n, [(x, y) for x in range(n) for y in range(n)])
        _Counted.reads[0] = 0
        got = find_f_factor(graph, DegreeDemand.uniform(graph, k))
        assert got.edge_list == tuple(
            (x, y) for x in range(n) for y in range(x - x % k, x - x % k + k)
        )
        assert 0 < _Counted.reads[0] <= n * (k + n.bit_length() + 1)

    @given(st.integers(2, 9), st.integers(2, 9), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_dense_hosts(self, n_x, n_y, data):
        """Complete hosts with a few edges removed, and demands from a
        random edge subset with a few unit transfers: the first phase,
        multi-phase searches and the sink-side check."""
        cells = [(x, y) for x in range(n_x) for y in range(n_y)]
        missing = data.draw(st.sets(st.sampled_from(cells), max_size=max(n_x, n_y)))
        graph = BipartiteGraph(n_x, n_y, [e for e in cells if e not in missing])
        demand = balanced_demand(graph, lambda lo, hi: data.draw(st.integers(lo, hi)))
        _same_as_reference(graph, demand)

    @pytest.mark.parametrize("n", [300, 400, 500, 600, 800, 1000])
    def test_min_degree_random_hosts(self, n):
        """At k = delta a union of delta perfect matchings gives a factor; at
        k = delta + 1 a vertex of degree delta rules one out.  Later phases
        reach sink levels up to about 35 and label hundreds of x's, most of
        them dead ends, so the flow prunes most of their level graphs."""
        graph, delta = _min_degree_random(n, n + 1)
        assert graph.min_degree() == delta
        assert _same_as_reference(graph, DegreeDemand.uniform(graph, delta)) == "factor"
        assert _same_as_reference(graph, DegreeDemand.uniform(graph, delta + 1)) == "violator"

    @pytest.mark.parametrize("a", [100, 140, 180, 220, 260, 300])
    def test_planted_hall_hosts(self, a):
        """A planted violator on a path of 2a - 1 vertices, beside a block
        with a matching: the last phases' paths run along the planted path,
        with sink levels up to about a/2, and the certificate is the
        planted set."""
        graph, planted = planted_hall_host(a, 2 * a, random.Random(a))
        demand = DegreeDemand.uniform(graph, 1)
        assert _same_as_reference(graph, demand) == "violator"
        assert find_f_factor(graph, demand).a == planted

    @pytest.mark.parametrize("n", [350, 400, 450, 500, 550, 600])
    def test_chain_hosts(self, n):
        """One later phase with one vertex per layer and nothing to prune.
        The recursive reference needs a frame per path vertex, more than
        the default recursion limit allows from n=500."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 4 * n))
        try:
            graph = chain_host(n)
            assert _same_as_reference(graph, DegreeDemand.uniform(graph, 1)) == "factor"
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.parametrize("n, k", [(300, 3), (300, 4), (600, 2), (600, 3), (1000, 2), (1000, 3)])
    def test_later_phases_search_only_live_vertices(self, n, k):
        """On factor-large's sparse hosts a later phase whose sink is at
        level 7 or more, with more than two labelled x's per X layer on
        average, reads N(x) only for the x's on a shortest augmenting path
        when the phase begins, as the reference network's level graph finds
        them.  Its BFS labels several times as many x's, dead ends that an
        unpruned search enters and backs out of."""
        graph, _ = _min_degree_random(n, n)
        graph = _LoggingGraph(n, n, graph.edge_list)
        demand = DegreeDemand.uniform(graph, k)
        _Logged.log.clear()
        _max_flow(graph, demand)
        searched = _searched_per_phase(_Logged.log)
        phases: list[tuple[int, int, set[int]]] = []
        reference_f_factor(graph, demand, phases)
        assert len(searched) == len(phases) - 1  # the first phase is the greedy pass
        labelled = live = 0
        for got, (lt, below, want) in zip(searched, phases[1:]):
            if lt >= 7 and below > lt - 1:  # more than 2 per X layer
                assert got <= want
                labelled, live = labelled + below, live + len(want)
        assert labelled > 3 * live

    def test_chain_host_needs_no_recursion(self):
        """The one augmenting path of the last X vertex runs through all
        2n + 2 network nodes, deeper than the default recursion limit."""
        n = 2000
        assert sys.getrecursionlimit() < 2 * n
        graph = chain_host(n)
        got = find_f_factor(graph, DegreeDemand.uniform(graph, 1))
        assert isinstance(got, Factor)
        assert got.edge_list == tuple(sorted([(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]))


class TestFlowGuard:
    """A later phase that finds no augmenting path, which Dinic's argument
    rules out, raises instead of repeating its BFS and search forever."""

    @pytest.fixture
    def prune_keeps_nothing(self, monkeypatch):
        """Patch the pruning walk to keep no vertex, so no start; returns
        the sink level of each pruned phase.  A second pruned phase at the
        same level is the same phase repeated, so it fails the test rather
        than letting it run to the suite's time limit."""
        levels: list[int] = []

        def keep_nothing(graph, ux, lx, ly, lt, open_ys):
            assert lt not in levels, f"phase at sink level {lt} repeated"
            levels.append(lt)
            return [-1] * graph.n_x, [-1] * graph.n_y, []

        monkeypatch.setattr(factors, "_prune", keep_nothing)
        return levels

    def test_phase_without_a_path_raises(self, prune_keeps_nothing):
        graph, _ = _min_degree_random(300, 301)
        with pytest.raises(TheoremContradictionError, match="found no augmenting path"):
            _max_flow(graph, DegreeDemand.uniform(graph, 3))
        assert len(prune_keeps_nothing) == 1 and prune_keeps_nothing[0] >= 7

    def test_cli_factor_exits_64(self, prune_keeps_nothing, tmp_path, capsys):
        graph, _ = _min_degree_random(300, 301)
        path = tmp_path / "host.graph"
        path.write_text(serialize_graph(graph))
        assert main(["factor", str(path), "--k", "3"]) == 64
        assert "found no augmenting path" in capsys.readouterr().err
        assert not (tmp_path / "host.graph.factor").exists()


def _residual_reachable_x(graph: BipartiteGraph, demand: DegreeDemand, nx) -> tuple[int, set[int]]:
    """networkx's maximum flow value on the network source -> x -> y ->
    sink, and the X vertices its residual graph reaches from the source,
    found by a BFS here over the flow dict."""
    n_x, n_y = graph.n_x, graph.n_y
    source, sink = n_x + n_y, n_x + n_y + 1  # x is node x, y is node n_x + y
    net = nx.DiGraph()
    net.add_edges_from((source, x, {"capacity": f}) for x, f in enumerate(demand.f_x))
    net.add_edges_from((x, n_x + y, {"capacity": 1}) for x, y in graph.edge_list)
    net.add_edges_from((n_x + y, sink, {"capacity": f}) for y, f in enumerate(demand.f_y))
    value, flow = nx.maximum_flow(net, source, sink)
    seen, queue = {source}, [source]
    for u in queue:
        ahead = (v for v, arc in net.succ[u].items() if flow[u][v] < arc["capacity"])
        back = (v for v in net.pred[u] if flow[v][u] > 0)
        for v in chain(ahead, back):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return value, {x for x in seen if x < n_x}


class TestAgainstNetworkx:
    """find_f_factor against an independent maximum flow on factor-large's
    sparse hosts.  Every maximum flow leaves the same residual reachable
    set, so a certificate is the shrink of that set's X side whichever
    flow found it, and a factor exists exactly when the flow value is the
    total demand."""

    @pytest.mark.parametrize("n", [300, 400, 500, 600, 800, 1000])
    def test_min_degree_random_hosts(self, n):
        nx = pytest.importorskip("networkx")
        graph, delta = _min_degree_random(n, n)
        for k in (delta, delta + 1):
            demand = DegreeDemand.uniform(graph, k)
            value, reached = _residual_reachable_x(graph, demand, nx)
            got = find_f_factor(graph, demand)
            if k == delta:
                assert isinstance(got, Factor) and value == sum(demand.f_x)
            else:
                assert value < sum(demand.f_x) and audit_certificate(graph, demand, got)
                assert got == _shrink(graph, demand, tuple(sorted(reached)))

    @pytest.mark.parametrize("a", [100, 200, 300])
    def test_planted_hall_hosts(self, a):
        nx = pytest.importorskip("networkx")
        graph, planted = planted_hall_host(a, 2 * a, random.Random(a))
        demand = DegreeDemand.uniform(graph, 1)
        value, reached = _residual_reachable_x(graph, demand, nx)
        assert value < sum(demand.f_x) and set(planted) <= reached
        got = find_f_factor(graph, demand)
        assert audit_certificate(graph, demand, got)
        assert got == _shrink(graph, demand, tuple(sorted(reached)))


def _random_demand(n_x: int, n_y: int, choose) -> DegreeDemand:
    """Independent demands 0-3 per vertex: non-uniform, often zero, and
    not balanced, which shrink_violator does not need."""
    return DegreeDemand(
        tuple(choose(0, 3) for _ in range(n_x)), tuple(choose(0, 3) for _ in range(n_y))
    )


def _same_shrink(graph: BipartiteGraph, demand: DegreeDemand, a: tuple[int, ...]) -> int:
    """Shrink A both ways when it violates; the number of passes the
    reference made (0 when A does not violate or has one vertex)."""
    cert = make_certificate(graph, demand, a)
    if cert.lhs <= cert.rhs:
        return 0
    passes: list[int] = []
    want = reference_shrink_violator(graph, demand, cert, passes)
    got = shrink_violator(graph, demand, cert)
    assert (got.a, got.lhs, got.rhs, got.per_vertex_rhs) == (
        want.a, want.lhs, want.rhs, want.per_vertex_rhs
    )
    return len(passes)


class TestShrinkIdentity:
    """The incremental shrink returns the certificate of the shrink as
    first written, field for field."""

    @given(bipartite_graphs(max_side=6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_shrink(self, graph, data):
        demand = _random_demand(graph.n_x, graph.n_y, lambda lo, hi: data.draw(st.integers(lo, hi)))
        subset = data.draw(st.sets(st.integers(0, graph.n_x - 1), min_size=1))
        _same_shrink(graph, demand, tuple(range(graph.n_x)))
        _same_shrink(graph, demand, tuple(sorted(subset)))

    def test_seeded_corpus_reaches_a_third_pass(self):
        """Hosts up to 6+6 from A = all of X: about one violating case in
        two hundred needs a third pass, which only repeated passes get
        right."""
        passes: dict[int, int] = {}
        for seed in range(3000):
            rng = random.Random(seed)
            n_x, n_y = rng.randint(1, 6), rng.randint(1, 6)
            p = rng.random()
            graph = BipartiteGraph(
                n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y) if rng.random() < p]
            )
            demand = _random_demand(n_x, n_y, rng.randint)
            n = _same_shrink(graph, demand, tuple(range(n_x)))
            passes[n] = passes.get(n, 0) + 1
        assert passes.get(1, 0) > 0 and passes.get(2, 0) > 0 and passes.get(3, 0) > 0


class TestFactorText:
    def test_round_trip(self, k33):
        factor = find_f_factor(k33, DegreeDemand.uniform(k33, 2))
        text = serialize_factor(factor)
        assert text.startswith("factor 2 6\n")
        back = parse_factor(text, k33)
        assert back.edge_list == factor.edge_list

    def test_serialize_rejects_irregular(self, k33):
        with pytest.raises(NotRegularError):
            serialize_factor(Factor(k33, [(0, 0)]))

    def test_rotation_line_tolerated_on_input(self):
        from bifactor import complete_bipartite, cycle_order

        g = complete_bipartite(2, 2)
        factor = Factor(g, list(g.edge_list))
        text = serialize_factor(factor, cycle=cycle_order(factor))
        assert "cycle X0 Y0 X1 Y1" in text
        assert parse_factor(text, g).edge_list == factor.edge_list
