"""Thresholds, exchange moves, stuck reports, and the connecting pipelines."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bifactor.connect
from bifactor import (
    BipartiteGraph,
    DegreeDemand,
    Factor,
    GenSpec,
    StuckReport,
    SwapMove,
    check_factor,
    complete_bipartite,
    complete_bipartite_minus_matching,
    connect_factor,
    connected_k_factor,
    cycle_graph,
    cycle_order,
    double_graph,
    find_f_factor,
    find_links,
    generate,
    hamilton_s13,
    path_graph,
    serialize_stuck_report,
    threshold_c,
    threshold_c_prime,
    threshold_c_raw,
)
from bifactor.connect import (
    _build_stuck_report,
    _component_vertex_sets,
    _Exchanger,
    _weave_quotient_cycle,
)
from bifactor.errors import (
    HypothesisViolatedError,
    NotConnectedError,
    NotRegularError,
    ParamOrderError,
    StructureUnrecognizedError,
)

from conftest import (
    apply_swap,
    assert_regular_spanning,
    block_host,
    block_hosts,
    component_count,
    reference_connect,
    reference_secondary_moves,
    reference_stuck_report,
)

SQUARE_A = [(0, 0), (0, 1), (1, 0), (1, 1)]
SQUARE_B = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.fixture
def two_squares_linked():
    """Two 4-cycles joined by the single host edge X0-Y2: genuinely stuck."""
    g = BipartiteGraph(4, 4, SQUARE_A + SQUARE_B + [(0, 2)])
    return g, Factor(g, SQUARE_A + SQUARE_B)


@pytest.fixture
def two_squares_in_k44():
    g = complete_bipartite(4, 4)
    return g, Factor(g, SQUARE_A + SQUARE_B)


class TestThresholds:
    def test_low_parameter_values(self):
        assert threshold_c(2, 3) == 12
        assert threshold_c(3, 3) == 18
        assert threshold_c(2, 2) == 8

    def test_second_term_can_dominate(self):
        # at k = l the first term collapses and the quadratic one wins
        assert threshold_c_raw(3, 3) == max(-25 + 3, 18)

    def test_parameter_gate(self):
        with pytest.raises(ParamOrderError):
            threshold_c(1, 2)
        with pytest.raises(ParamOrderError):
            threshold_c(3, 2)

    def test_ungated_formula_still_computes(self):
        assert threshold_c_raw(3, 2) == 2 * (9 - 3 + 2)

    def test_regular_variant(self):
        assert threshold_c_prime(3, 3, 2) == 18
        assert threshold_c_prime(1, 3, 2) == 18
        assert threshold_c_prime(1, 1, 1) == 2

    def test_regular_variant_gate(self):
        with pytest.raises(ParamOrderError):
            threshold_c_prime(0, 1, 1)


class TestMoves:
    def test_find_links(self, two_squares_linked):
        g, f = two_squares_linked
        links = find_links(g, f)
        assert len(links) == 1
        link = links[0]
        assert (link.u.label, link.v.label) == ("X0", "Y2")
        assert link.component_u != link.component_v

    def test_no_links_inside_components(self, two_squares_in_k44):
        g, f = two_squares_in_k44
        links = find_links(g, f)
        assert all(f.comp_x[k.u.index] != f.comp_y[k.v.index] for k in links)
        assert len(links) == 8  # every cross edge of K_{4,4}

    def test_primary_swap_blocked_without_fresh_edge(self, two_squares_linked):
        g, f = two_squares_linked
        trace: list = []
        assert isinstance(connect_factor(g, f, l=3, trace=trace), StuckReport)
        assert trace == []

    def test_primary_swap_merges_components(self, two_squares_in_k44):
        g, f = two_squares_in_k44
        trace: list = []
        out = connect_factor(g, f, trace=trace)
        ((move, count),) = trace
        assert move.kind == "primary" and count == 1
        link = find_links(g, f)[0]
        assert move.added[0] == (link.u.index, link.v.index)
        assert set(move.removed) <= f.edge_set
        assert not set(move.added) & f.edge_set
        assert set(move.added) <= g.edge_set
        merged = apply_swap(f, move)
        assert merged.n_components == 1
        assert merged.regularity() == 2
        assert merged == out


class TestStuck:
    def test_audit_of_genuinely_stuck_state(self, two_squares_linked):
        g, f = two_squares_linked
        report = connect_factor(g, f, l=3)
        assert isinstance(report, StuckReport)
        assert report.factor == f
        assert len(report.links) == 1
        assert report.neighborhoods_isolated
        assert report.min_degree == 2
        assert not report.contradiction

    def test_audit_bounds(self, two_squares_linked):
        g, f = two_squares_linked
        report = connect_factor(g, f, l=3)
        outside = [r for r in report.degree_audits if r.name == "outside-own-component"]
        inside = [r for r in report.degree_audits if r.name == "inside-own-component"]
        assert len(outside) == 8  # one per vertex
        assert all(r.bound == 3 and r.ok for r in outside)
        # only the two link endpoints get the inside audit
        assert sorted(r.vertex.label for r in inside) == ["X0", "Y2"]
        assert all(r.bound == 8 and r.ok for r in inside)

    def test_not_stuck_when_connected(self):
        g = complete_bipartite(2, 2)
        f = Factor(g, list(g.edge_list))
        trace: list = []
        assert connect_factor(g, f, l=2, trace=trace) == f
        assert trace == []

    def test_not_stuck_when_move_exists(self, two_squares_in_k44):
        g, f = two_squares_in_k44
        out = connect_factor(g, f, l=3)
        assert isinstance(out, Factor) and out.n_components == 1

    def test_serialization(self, two_squares_linked):
        g, f = two_squares_linked
        text = serialize_stuck_report(connect_factor(g, f, l=3))
        assert text == serialize_stuck_report(_build_stuck_report(g, f, 2, 3))
        assert "LINK X0 Y2 " in text
        assert "EQ10 X0 Y2 HOLDS" in text
        assert "EQ10 ALL HOLDS" in text
        assert "DEG-AUDIT outside-own-component X0 1 3 OK" in text
        assert "CONTRADICTION CLEAR" in text

    def test_contradiction_flag_arithmetic(self):
        """The flag must fire exactly when the two bounds sum below the
        host's minimum degree while links exist.  No genuinely stuck state
        can reach that regime, so the report builder is driven directly
        with a non-stuck multi-component factor."""
        g = complete_bipartite(13, 13)
        cycle_rest = (
            [(x, x) for x in range(4, 13)]
            + [(x + 1, x) for x in range(4, 12)]
            + [(4, 12)]
        )
        f = Factor(g, SQUARE_A + SQUARE_B + cycle_rest)
        assert f.n_components == 3
        report = _build_stuck_report(g, f, 2, 3)
        assert report.min_degree == 13
        assert report.contradiction
        assert report.contradiction_vertices
        text = serialize_stuck_report(report)
        assert "CONTRADICTION RAISED" in text
        assert "CONTRADICTION-VERTEX" in text

    def test_no_bounds_without_l(self, two_squares_linked):
        g, f = two_squares_linked
        report = _build_stuck_report(g, f, 2, None)
        assert all(r.bound is None and r.ok is None for r in report.degree_audits)
        assert not report.contradiction


def random_factor_state(rng: random.Random) -> tuple[BipartiteGraph, Factor]:
    """A host on up to 9+9 vertices and a k-regular factor of it, k 1-3.

    The factor is blocks of k cyclic shifts of a matching, each block at
    least k a side, under a random relabelling; every other cell is a host
    edge with one probability drawn per state.
    """
    k = rng.randint(1, 3)
    n = left = rng.randint(k, 9)
    factor_edges, start = [], 0
    while left:
        size = rng.randint(k, left)
        if left - size < k:
            size = left
        factor_edges += [(start + i, start + (i + t) % size) for i in range(size) for t in range(k)]
        start, left = start + size, left - size
    px, py = rng.sample(range(n), n), rng.sample(range(n), n)
    factor_edges = [(px[x], py[y]) for x, y in factor_edges]
    p = rng.random()
    cells = [(x, y) for x in range(n) for y in range(n) if rng.random() < p]
    graph = BipartiteGraph(n, n, set(factor_edges) | set(cells))
    return graph, Factor(graph, factor_edges)


def _report_as_reference(graph: BipartiteGraph, factor: Factor, l: int | None) -> StuckReport:
    k = factor.regularity()
    report = _build_stuck_report(graph, factor, k, l)
    want = reference_stuck_report(graph, factor, k, l)
    assert serialize_stuck_report(report) == serialize_stuck_report(want)
    assert report == want
    return report


class TestStuckReportReference:
    """Stuck reports are byte-identical to the report as first written, on
    factors with and without links, and with and without a contradiction.
    On these hosts the two degree bounds sum below the minimum degree only
    for l <= 3."""

    @pytest.mark.parametrize("l", [None, 2, 3, 5])
    def test_seeded_regular_factors(self, l):
        reports = [
            _report_as_reference(*random_factor_state(random.Random(seed)), l)
            for seed in range(300)
        ]
        assert {r.factor.regularity() for r in reports} == {1, 2, 3}
        assert any(r.links for r in reports) and not all(r.links for r in reports)
        assert any(r.contradiction for r in reports) == (l in (2, 3))

    @pytest.mark.parametrize("l", [None, 2, 3, 5])
    def test_block_host_corpus(self, l):
        reports = [
            _report_as_reference(*block_host(random.Random(seed).randint), l)
            for seed in range(300)
        ]
        assert all(r.links for r in reports)
        assert any(r.contradiction for r in reports) == (l in (2, 3))


class TestConnectLoop:
    def test_merges_two_squares_in_k44(self, two_squares_in_k44):
        g, f = two_squares_in_k44
        out = connect_factor(g, f)
        assert isinstance(out, Factor)
        assert_regular_spanning(g, out, 2, connected=True)

    def test_returns_report_when_stuck(self, two_squares_linked):
        g, f = two_squares_linked
        out = connect_factor(g, f, l=3)
        assert isinstance(out, StuckReport)
        assert out.neighborhoods_isolated

    def test_trace_records_each_accepted_move(self, two_squares_in_k44):
        g, f = two_squares_in_k44
        trace: list = []
        connect_factor(g, f, trace=trace)
        assert len(trace) == 1  # one merge suffices for two components
        move, count = trace[0]
        assert move.kind == "primary"
        assert count == 1

    def test_rejects_disconnected_host(self):
        g = BipartiteGraph(4, 4, SQUARE_A + SQUARE_B)
        with pytest.raises(NotConnectedError):
            connect_factor(g, Factor(g, SQUARE_A + SQUARE_B))

    def test_disconnected_host_after_moves(self):
        """The loop first merges what it can inside one host component;
        the leftover components then show the host is disconnected, and
        the trace keeps the accepted move."""
        far = [(4, 4), (4, 5), (5, 4), (5, 5)]
        g = BipartiteGraph(6, 6, [(x, y) for x in range(4) for y in range(4)] + far)
        trace: list = []
        with pytest.raises(NotConnectedError):
            connect_factor(g, Factor(g, SQUARE_A + SQUARE_B + far), trace=trace)
        assert [count for _, count in trace] == [2]

    def test_disconnected_host_before_irregular_factor(self):
        g = BipartiteGraph(4, 4, SQUARE_A + SQUARE_B)
        with pytest.raises(NotConnectedError):
            connect_factor(g, Factor(g, [(0, 0)]))

    def test_rejects_irregular_factor(self, two_squares_in_k44):
        g, _ = two_squares_in_k44
        with pytest.raises(NotRegularError):
            connect_factor(g, Factor(g, [(0, 0)]))


def _same_as_reference(graph: BipartiteGraph, factor: Factor, l: int | None) -> str:
    trace: list = []
    got = connect_factor(graph, factor, l=l, trace=trace)
    want, want_trace = reference_connect(graph, factor, l=l)
    assert trace == want_trace
    if isinstance(want, StuckReport):
        assert isinstance(got, StuckReport)
        assert serialize_stuck_report(got) == serialize_stuck_report(want)
        return "stuck"
    assert got == want
    return "connected"


class TestMoveTrace:
    """The connecting loop makes exactly the moves of the loop as first
    written, which rebuilt the factor after every move and recounted every
    candidate from scratch."""

    @given(block_hosts(), st.sampled_from([None, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loop(self, host, l):
        _same_as_reference(*host, l=l)

    def test_seeded_corpus_reaches_both_outcomes(self):
        outcomes = Counter()
        for seed in range(300):
            graph, factor = block_host(random.Random(seed).randint)
            outcome = _same_as_reference(graph, factor, l=3)
            outcomes[outcome, factor.regularity()] += 1
        # a 1-factor never merges; every other (outcome, k) must occur
        assert set(outcomes) == {("stuck", 1), ("stuck", 2), ("stuck", 3), ("connected", 2), ("connected", 3)}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_suite_hosts(self, seed):
        """The cor4, cor5 and thm3 hosts of the verify suites, each started
        from the flow's k-factor as the pipelines do."""
        specs = [(GenSpec("k-minus-matching", n=13 + t % 8, seed=seed + t), 2) for t in range(25)]
        specs += [(GenSpec("k-minus-matching", n=19 + t % 6, seed=seed + t), 3) for t in range(10)]
        specs += [(GenSpec("k-minus-matching", n=5 + t % 8, seed=seed + t), 2) for t in range(10)]
        hosts = [(generate(spec), k) for spec, k in specs]
        hosts += [(double_graph(cycle_graph(m)), 2) for m in range(3, 11)]
        for graph, k in hosts:
            start = find_f_factor(graph, DegreeDemand.uniform(graph, k))
            _same_as_reference(graph, start, l=3)


def _secondary_moves_subsumed(graph: BipartiteGraph, factor: Factor) -> int:
    """Check that every improving secondary move of the reference scan is
    an improving primary candidate on the link it adds first; return how
    many were checked."""
    links = {(link.u.index, link.v.index) for link in find_links(graph, factor)}
    checked = 0
    for move in reference_secondary_moves(graph, factor):
        (x, y), (b, a) = move.added
        assert (x, y) in links
        assert a in factor.neighbors_x(x) and b in factor.neighbors_y(y)
        primary = SwapMove("primary", ((x, a), (b, y)), ((x, y), (b, a)))
        assert set(primary.removed) == set(move.removed)
        assert apply_swap(factor, primary).n_components < factor.n_components
        assert _Exchanger(graph, factor, factor.regularity()).first_exchange(x, y) is not None
        checked += 1
    return checked


class TestSecondarySubsumed:
    @given(block_hosts())
    @settings(max_examples=100, deadline=None)
    def test_secondary_move_is_a_primary_candidate(self, host):
        _secondary_moves_subsumed(*host)

    def test_seeded_corpus_has_secondary_moves(self):
        checked = sum(
            _secondary_moves_subsumed(*block_host(random.Random(seed).randint))
            for seed in range(100)
        )
        assert checked > 0


def random_regular_edges(rng: random.Random, k: int) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of a k-regular bipartite n+n graph: one or two blocks,
    each k cyclic shifts of a matching mixed by random degree-preserving
    switches, under a random relabelling of the union."""
    n, edges = 0, []
    for _ in range(rng.randint(1, 2)):
        size = rng.randint(k + 1, k + 3)
        block = {(i, (i + t) % size) for i in range(size) for t in range(k)}
        for _ in range(size * k):
            (a, b), (c, d) = rng.sample(sorted(block), 2)
            if (a, d) not in block and (c, b) not in block:
                block -= {(a, b), (c, d)}
                block |= {(a, d), (c, b)}
        edges += [(n + x, n + y) for x, y in block]
        n += size
    px, py = rng.sample(range(n), n), rng.sample(range(n), n)
    return n, sorted((px[x], py[y]) for x, y in edges)


def _assert_bridges_match_degree(n_x: int, n_y: int, edges, k: int) -> None:
    """Removing one edge of a k-regular graph splits its component exactly
    when k == 1; counted by union-find, not by the package."""
    base = component_count(n_x, n_y, edges)
    for e in edges:
        rest = [f for f in edges if f != e]
        assert component_count(n_x, n_y, rest) == base + (k == 1), (e, k)


class TestExchangeLemma:
    """The loop applies the first candidate without recounting, because a
    k-regular bipartite graph has no bridge when k >= 2."""

    @given(block_hosts())
    @settings(max_examples=100, deadline=None)
    def test_block_factors(self, host):
        _, factor = host
        _assert_bridges_match_degree(
            factor.n_x, factor.n_y, factor.edge_list, factor.regularity()
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_seeded_regular_graphs(self, k):
        counts = set()
        for seed in range(40):
            n, edges = random_regular_edges(random.Random(seed), k)
            counts.add(min(component_count(n, n, edges), 2))
            _assert_bridges_match_degree(n, n, edges, k)
        # a perfect matching on 2+ vertices a side is never connected
        assert counts == ({1, 2} if k > 1 else {2})

    @pytest.mark.parametrize("square_first", [False, True])
    def test_merge_relabels_the_smaller_component(self, square_first):
        """An 8-cycle and a square in K(6,6), the square holding either end
        of the first link: the square's labels change, the cycle's do not."""
        g = complete_bipartite(6, 6)
        c, q = (2, 0) if square_first else (0, 4)
        cycle = [(c + x, c + y) for x in range(4) for y in (x, (x + 1) % 4)]
        square = [(q + x, q + y) for x in (0, 1) for y in (0, 1)]
        f = Factor(g, cycle + square)
        big = f.comp_x[c]
        state = _Exchanger(g, f, 2)
        assert state.step() is not None
        assert state.comp_x[c : c + 4] == [big] * 4 and state.comp_y[c : c + 4] == [big] * 4
        assert set(state.comp_x) == set(state.comp_y) == {big}


class TestCycleOrder:
    def test_square(self):
        g = complete_bipartite(2, 2)
        f = Factor(g, list(g.edge_list))
        assert [v.label for v in cycle_order(f)] == ["X0", "Y0", "X1", "Y1"]

    def test_longer_cycle_visits_everything_once(self):
        g = cycle_graph(5)
        f = Factor(g, list(g.edge_list))
        order = cycle_order(f)
        assert len(order) == 10
        assert len(set(order)) == 10
        for a, b in zip(order, order[1:] + order[:1]):
            x, y = (a.index, b.index) if a.side == "X" else (b.index, a.index)
            assert f.host.has_edge(x, y)

    def test_rejects_disconnected_or_irregular(self, two_squares_in_k44):
        g, f = two_squares_in_k44
        with pytest.raises(NotRegularError):
            cycle_order(f)


class TestConnectedKFactor:
    def test_dense_host_end_to_end(self):
        matching = [(i, i) for i in range(13)]
        g = complete_bipartite_minus_matching(13, matching)
        factor = connected_k_factor(g, 2, 3)
        assert_regular_spanning(g, factor, 2, connected=True)
        assert len(cycle_order(factor)) == 26

    def test_check_factor_guards(self):
        g = complete_bipartite(2, 2)
        whole = Factor(g, list(g.edge_list))
        check_factor(g, whole, 2, connected=True)
        with pytest.raises(AssertionError):
            check_factor(g, Factor(g, [(0, 0), (1, 1)]), 1, connected=True)
        with pytest.raises(AssertionError):
            check_factor(g, whole, 1, connected=False)

    def test_hypothesis_connected(self):
        g = BipartiteGraph(4, 4, SQUARE_A + SQUARE_B)
        with pytest.raises(HypothesisViolatedError) as err:
            connected_k_factor(g, 2, 3)
        assert err.value.hypothesis == "connected"

    def test_hypothesis_balance(self):
        with pytest.raises(HypothesisViolatedError) as err:
            connected_k_factor(complete_bipartite(13, 12), 2, 3)
        assert err.value.hypothesis == "balance"

    def test_hypothesis_min_degree(self):
        with pytest.raises(HypothesisViolatedError) as err:
            connected_k_factor(complete_bipartite(5, 5), 2, 3)
        assert err.value.hypothesis == "min_degree"

    def test_hypothesis_pattern_free(self):
        """Dense host with one planted induced copy: X1..X3 and Y1..Y2 kept
        apart makes X0 a 2-center and Y0 a 3-center."""
        removed = {(x, y) for x in (1, 2, 3) for y in (1, 2)}
        g = BipartiteGraph(
            15, 15, [(x, y) for x in range(15) for y in range(15) if (x, y) not in removed]
        )
        assert g.min_degree() == 12
        with pytest.raises(HypothesisViolatedError) as err:
            connected_k_factor(g, 2, 3)
        assert err.value.hypothesis == "skl_free"


class TestHamilton:
    def test_doubled_cycles(self):
        for half in (3, 4, 5):
            g = double_graph(cycle_graph(half))
            factor = hamilton_s13(g)
            assert_regular_spanning(g, factor, 2, connected=True)
            assert len(cycle_order(factor)) == 4 * half

    def test_complete_host(self):
        g = complete_bipartite(5, 5)
        factor = hamilton_s13(g)
        assert_regular_spanning(g, factor, 2, connected=True)

    def test_weave_on_canonical_stuck_state(self):
        """Doubling a 6-cycle and taking the squares over a perfect
        matching leaves three 4-cycle components no swap can merge; the
        quotient weave must close them into one rotation."""
        base = cycle_graph(3)
        g = double_graph(base)
        squares = []
        for x in range(3):
            squares += [(x, x), (x + 3, x + 3), (x, x + 3), (x + 3, x)]
        f = Factor(g, squares)
        assert f.n_components == 3
        # sanity: the state really offers no move, so the loop reports it
        report = connect_factor(g, f, l=3)
        assert isinstance(report, StuckReport) and report.factor == f
        assert report.neighborhoods_isolated
        woven = _weave_quotient_cycle(g, _component_vertex_sets(f))
        assert woven is not None
        assert_regular_spanning(g, woven, 2, connected=True)

    def test_hypothesis_min_degree(self):
        with pytest.raises(HypothesisViolatedError) as err:
            hamilton_s13(complete_bipartite(3, 3))
        assert err.value.hypothesis == "min_degree"

    def test_hypothesis_pattern_free(self):
        removed = {(x, 1) for x in (1, 2, 3)}
        g = BipartiteGraph(
            7, 7, [(x, y) for x in range(7) for y in range(7) if (x, y) not in removed]
        )
        assert g.min_degree() == 4
        with pytest.raises(HypothesisViolatedError) as err:
            hamilton_s13(g)
        assert err.value.hypothesis == "skl_free"

    @staticmethod
    def _assert_unrecognized(monkeypatch, g, factor_edges, message):
        """hamilton_s13 on ``g`` when the connecting loop reports the factor
        of ``factor_edges`` as stuck, whatever factor the flow found."""
        f = Factor(g, factor_edges)

        def stuck(graph, factor, l=None):
            return _build_stuck_report(graph, f, 2, l)

        monkeypatch.setattr(bifactor.connect, "connect_factor", stuck)
        with pytest.raises(StructureUnrecognizedError, match=message) as err:
            hamilton_s13(g)
        assert isinstance(err.value.report, StuckReport) and err.value.report.factor == f

    def test_stuck_component_larger_than_quadrilateral(self, monkeypatch):
        g = complete_bipartite(6, 6)
        hexagons = [(c + x, c + y) for c in (0, 3) for x in range(3) for y in (x, (x + 1) % 3)]
        self._assert_unrecognized(
            monkeypatch, g, hexagons, "^stuck with a component larger than a quadrilateral$"
        )

    def test_stuck_vertex_sees_three_components(self, monkeypatch):
        g = complete_bipartite(6, 6)
        squares = [(c + x, c + y) for c in (0, 2, 4) for x in (0, 1) for y in (0, 1)]
        self._assert_unrecognized(monkeypatch, g, squares, "^vertex X0 sees 3 components$")

    def test_stuck_quadrilaterals_not_chained(self, monkeypatch):
        """Two quadrilaterals joined by one edge: each vertex sees at most
        one foreign component, but no full 2x2 pattern joins them.  The
        host's minimum degree is 2, so the hypotheses are stubbed out."""
        g = BipartiteGraph(4, 4, SQUARE_A + SQUARE_B + [(2, 0)])
        monkeypatch.setattr(bifactor.connect, "_hypotheses", lambda *args: None)
        self._assert_unrecognized(
            monkeypatch,
            g,
            SQUARE_A + SQUARE_B,
            "^quadrilateral components do not chain into a cycle$",
        )
