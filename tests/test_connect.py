"""Thresholds, exchange moves, stuck reports, and the connecting pipelines."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
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
    enumerate_bipartite_block,
    find_f_factor,
    find_links,
    generate,
    hamilton_s13,
    make_certificate,
    parse_factor,
    path_graph,
    serialize_factor,
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
    TheoremContradictionError,
)
from bifactor.graph import VertexRef
from bifactor.structure import find_induced_star

from conftest import (
    RescanExchanger,
    apply_swap,
    assert_flow_and_oracle_labels_on_read,
    assert_labels_on_read,
    assert_regular_spanning,
    assert_pipeline_as_rebuilt,
    assert_same_factor,
    assert_star_witness_valid,
    block_host,
    block_hosts,
    component_count,
    components,
    labelled,
    linked_quadrilateral_host,
    reference_connect,
    reference_cycle_order,
    reference_hamilton_after_stuck,
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

    @pytest.mark.parametrize("n", [40, 100, 250])
    def test_result_on_minus_matching_hosts(self, n):
        """K(n,n) minus a shuffled perfect matching at k = 2 and 3: the
        loop hands its working adjacency to the result, which holds every
        field Factor(host, edges) gives from its edges in reverse order."""
        rng = random.Random(n)
        g = complete_bipartite_minus_matching(n, list(enumerate(rng.sample(range(n), n))))
        for k in (2, 3):
            got = connect_factor(g, find_f_factor(g, DegreeDemand.uniform(g, k)))
            assert got.n_components == 1
            assert_same_factor(got, Factor(g, reversed(got.edge_list)))


def connect_loop_hosts(seed: int):
    """(host, k) for each host of the connect-loop workload at ``seed``,
    built as its set-up builds them: K(n, n) minus a perfect matching, n
    40 to 100 in steps of 4, k = 2, and k = 3 too up to n = 56."""
    rng = random.Random(seed)
    for n in range(40, 101, 4):
        for k in (2, 3) if n <= 56 else (2,):
            yield generate(GenSpec("k-minus-matching", n, seed=rng.getrandbits(32))), k


def cycle_union_host(choose) -> BipartiteGraph:
    """A connected host on 4+4 to 8+8 vertices with a 2-factor.

    Disjoint 2-regular blocks of 2 or more vertices a side (even cycles)
    under a random relabelling, up to n random extra cells, and one edge
    between consecutive components.  With few extra cells the connecting
    loop often merges some blocks and sticks with several components
    left.  ``choose(lo, hi)`` makes every random choice, bounds inclusive.
    """
    n = left = choose(4, 8)
    factor_edges, start = [], 0
    while left:
        size = choose(2, left)
        if left - size < 2:
            size = left
        factor_edges += [(start + i, start + (i + t) % size) for i in range(size) for t in (0, 1)]
        start, left = start + size, left - size
    perm_x, perm_y = list(range(n)), list(range(n))
    for perm in (perm_x, perm_y):
        for i in range(n - 1, 0, -1):
            j = choose(0, i)
            perm[i], perm[j] = perm[j], perm[i]
    edges = {(perm_x[x], perm_y[y]) for x, y in factor_edges}
    for _ in range(choose(0, n)):
        edges.add((choose(0, n - 1), choose(0, n - 1)))
    comps = components(n, n, edges)
    for (xs, _), (_, ys) in zip(comps, comps[1:]):
        edges.add((xs[choose(0, len(xs) - 1)], ys[choose(0, len(ys) - 1)]))
    return BipartiteGraph(n, n, edges)


@st.composite
def cycle_union_hosts(draw):
    return cycle_union_host(lambda lo, hi: draw(st.integers(lo, hi)))


def _renumbered_when_stuck(host: BipartiteGraph) -> bool:
    """Whether the connecting loop at k = 2 sticks with tracked ids that
    differ from the discovery-order labels its result reads."""
    state = _Exchanger(host, find_f_factor(host, DegreeDemand.uniform(host, 2)), 2)
    while state.count > 1 and state.step() is not None:
        pass
    got = state.factor()
    return got.n_components > 1 and (got.comp_x, got.comp_y) != (
        tuple(state.comp_x), tuple(state.comp_y)
    )


class TestFactorsBuiltOnce:
    """The flow's and the loop's factors skip the host walk, and the loop's
    tracked ids stay inside it; each must still equal the validating
    build Factor(host, edge_list), and stuck reports keep every byte."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_connect_loop_hosts(self, seed):
        outcomes = [assert_pipeline_as_rebuilt(host, k) for host, k in connect_loop_hosts(seed)]
        assert len(outcomes) == 21
        assert all(isinstance(got, Factor) for got in outcomes)

    @given(cycle_union_hosts())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_hosts(self, host):
        assert_pipeline_as_rebuilt(host, 2, l=3)

    def test_seeded_hosts_reach_renumbered_stuck_states(self):
        """The drawn family does reach stuck states whose tracked ids are
        not in discovery order, and the factor of each, labelled on read,
        with every other outcome, equals the validating rebuild."""
        outcomes = Counter()
        for seed in range(300):
            host = cycle_union_host(random.Random(seed).randint)
            got = assert_pipeline_as_rebuilt(host, 2, l=3)
            if isinstance(got, Factor):
                outcomes["connected"] += 1
            else:
                outcomes["renumbered" if _renumbered_when_stuck(host) else "stuck"] += 1
        assert set(outcomes) == {"connected", "stuck", "renumbered"}, outcomes

    def test_linked_quadrilateral_host(self):
        host = linked_quadrilateral_host(40)
        report = assert_pipeline_as_rebuilt(host, 2, l=3)
        assert isinstance(report, StuckReport) and report.factor.n_components == 2
        assert _renumbered_when_stuck(host)

    def test_pipelines_check_their_answer(self, monkeypatch):
        """connected_k_factor and hamilton_s13 run check_factor on what they
        return, on the loop's path and on the woven-cycle path: the check
        of every edge against the host rests on that call."""
        calls = []
        real = bifactor.connect.check_factor

        def recorder(graph, factor, k, connected):
            calls.append((graph, factor, k, connected))
            real(graph, factor, k, connected)

        monkeypatch.setattr(bifactor.connect, "check_factor", recorder)
        dense = {n: complete_bipartite_minus_matching(n, [(i, i) for i in range(n)]) for n in (13, 19)}
        quads = []
        for i in range(3):
            j = (i + 1) % 3
            quads += [(2 * i + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
            quads += [(2 * j + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
        woven = BipartiteGraph(6, 6, quads)
        start = find_f_factor(woven, DegreeDemand.uniform(woven, 2))
        assert isinstance(connect_factor(woven, start), StuckReport)  # so the answer is woven
        for graph, run, k in (
            (dense[13], lambda g: connected_k_factor(g, 2, 3), 2),
            (dense[19], lambda g: connected_k_factor(g, 3, 3), 3),
            (complete_bipartite(5, 5), hamilton_s13, 2),
            (woven, hamilton_s13, 2),
        ):
            got = run(graph)
            assert calls[-1] == (graph, got, k, True)
            assert calls[-1][1] is got
        assert len(calls) == 4


@pytest.fixture(scope="module")
def hosts_4x4() -> list[BipartiteGraph]:
    return list(enumerate_bipartite_block(4, 4))


class TestLabelsOnRead:
    """Every way of building a factor leaves its labels to its first read,
    which labels by _component_labels: the ids are union-find's in
    discovery order, and ==, hash and serialize_factor neither label a
    factor nor answer otherwise for one labelled first.  Only a stuck
    result is labelled when handed over: its report reads the labels."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sample_of_4x4_hosts(self, hosts_4x4, k):
        outcomes = Counter()
        with_room = [host for host in hosts_4x4 if host.m >= 4 * k]
        for host in random.Random(k).sample(with_room, 300):
            demand = DegreeDemand.uniform(host, k)
            checked = assert_flow_and_oracle_labels_on_read(host, k)
            assert checked in (0, 2)
            if not checked:
                continue
            flow = find_f_factor(host, demand)
            assert_labels_on_read(lambda: Factor(host, reversed(flow.edge_list)))
            assert_labels_on_read(lambda: parse_factor(serialize_factor(flow), host))
            stuck = isinstance(connect_factor(host, flow), StuckReport)
            assert_labels_on_read(lambda: _loop_factor(host, demand), read_by_build=stuck)
            outcomes["stuck" if stuck else "connected"] += 1
        assert outcomes["stuck"] + outcomes["connected"] > 20, outcomes
        assert outcomes["connected"] == 0 if k == 1 else outcomes["connected"] > 0

    def test_stuck_results_of_drawn_hosts(self):
        """Some cycle-union hosts stick, some with loop ids out of discovery
        order; the stuck factor's labels are still union-find's."""
        outcomes = Counter()
        for seed in range(200):
            host = cycle_union_host(random.Random(seed).randint)
            demand = DegreeDemand.uniform(host, 2)
            stuck = isinstance(connect_factor(host, find_f_factor(host, demand)), StuckReport)
            assert_labels_on_read(lambda: _loop_factor(host, demand), read_by_build=stuck)
            if stuck:
                outcomes["out of order" if _renumbered_when_stuck(host) else "stuck"] += 1
        assert set(outcomes) == {"stuck", "out of order"}, outcomes

    def test_unknown_attribute_is_still_missing(self):
        f = Factor(complete_bipartite(2, 2), [(0, 0), (1, 1)])
        assert not hasattr(f, "nope") and not hasattr(f, "__dict__")
        with pytest.raises(AttributeError, match="'nope'"):
            f.nope
        assert not labelled(f)
        assert f.n_components == 2 and labelled(f)
        assert (f.comp_x, f.comp_y) == ((0, 1), (0, 1))


def _loop_factor(host: BipartiteGraph, demand: DegreeDemand) -> Factor:
    """The factor connect_factor ends with, from the flow's factor."""
    result = connect_factor(host, find_f_factor(host, demand), l=3)
    return result.factor if isinstance(result, StuckReport) else result


def _same_as_reference(graph: BipartiteGraph, factor: Factor, l: int | None) -> str:
    trace: list = []
    got = connect_factor(graph, factor, l=l, trace=trace)
    want, want_trace = reference_connect(graph, factor, l=l)
    assert trace == want_trace
    if isinstance(want, StuckReport):
        assert isinstance(got, StuckReport)
        assert serialize_stuck_report(got) == serialize_stuck_report(want)
        assert_same_factor(got.factor, want.factor)
        return "stuck"
    assert_same_factor(got, want)
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


def _resumed_as_rescan(graph: BipartiteGraph, factor: Factor, l: int | None) -> int:
    """Check that the loop, which resumes each host row's scan, makes the
    moves of the scan as first written and ends in the same factor or
    stuck report; after every step, check that each y before x's resume
    index shares x's component.  Return the sum of the resume indices."""
    k = factor.regularity()
    trace: list = []
    got = connect_factor(graph, factor, l=l, trace=trace)
    state, ref = _Exchanger(graph, factor, k), RescanExchanger(graph, factor, k)
    want_trace = []
    while ref.count > 1:
        move = ref.step()
        assert state.step() == move
        for x, ys in enumerate(graph._adj_x):
            cx = state.comp_x[x]
            assert all(state.comp_y[y] == cx for y in ys[: state.resume[x]])
        if move is None:
            break
        want_trace.append((move, ref.count))
    assert trace == want_trace
    want = ref.factor()
    if want.n_components > 1:
        assert isinstance(got, StuckReport)
        report = _build_stuck_report(graph, want, k, l)
        assert serialize_stuck_report(got) == serialize_stuck_report(report)
        assert_same_factor(got.factor, want)
    else:
        assert_same_factor(got, want)
    return sum(state.resume)


class TestResumedScan:
    """Each step resumes every host row where the last one left it; the
    moves are those of a rescan from X0 after every move."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_minus_matching_hosts(self, k):
        for n in (40, 70, 100, 130, 160):
            graph = generate(GenSpec("k-minus-matching", n=n, seed=n + k))
            start = find_f_factor(graph, DegreeDemand.uniform(graph, k))
            assert start.n_components > 1
            assert _resumed_as_rescan(graph, start, l=3) > 0

    @given(block_hosts())
    @settings(max_examples=100, deadline=None)
    def test_block_hosts_whose_first_link_has_no_fresh_edge(self, host):
        graph, factor = host
        k = factor.regularity()
        links = find_links(graph, factor)
        assume(k >= 2 and links)
        first = links[0]
        assume(_Exchanger(graph, factor, k).first_exchange(first.u.index, first.v.index) is None)
        _resumed_as_rescan(graph, factor, l=3)


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

    def test_matches_first_written_walk(self):
        """The row walk gives the rotation of the walk as first written on
        the connected 2-factors of K(n,n) minus a perfect matching, n = 3
        to 40, and on the doubled cycles' Hamilton cycles."""
        factors = []
        for n in range(3, 41):
            g = complete_bipartite_minus_matching(n, [(i, i) for i in range(n)])
            f = connect_factor(g, find_f_factor(g, DegreeDemand.uniform(g, 2)))
            if isinstance(f, Factor) and f.is_connected():
                factors.append(f)
        assert len(factors) >= 30
        factors += [hamilton_s13(double_graph(cycle_graph(half))) for half in (3, 4, 5)]
        for f in factors:
            assert cycle_order(f) == reference_cycle_order(f)


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
        # a factor whose vertex counts are not the host's
        big = complete_bipartite(3, 3)
        with pytest.raises(AssertionError, match="3x3 vertices, host on 2x2"):
            check_factor(g, Factor(big, [(0, 0), (1, 1), (2, 2)]), 1, connected=False)
        with pytest.raises(AssertionError, match="2x2 vertices, host on 3x3"):
            check_factor(big, whole, 2, connected=True)
        # every X vertex has degree k, one Y vertex has not
        fork = BipartiteGraph(1, 2, [(0, 0), (0, 1)])
        with pytest.raises(AssertionError, match=r"^Y degrees \[1, 0\] != 1$"):
            check_factor(fork, Factor(fork, [(0, 0)]), 1, connected=False)

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

    def test_star_refusal_carries_its_witness(self):
        """The refusal keeps the star pair the check found: on this dense
        random host it is centred at X0 and Y0."""
        g = generate(GenSpec("min-degree-random", 24, seed=1, k=2, p=0.7))
        assert (g.m, g.min_degree()) == (412, 13) and g.is_connected()
        with pytest.raises(HypothesisViolatedError) as err:
            connected_k_factor(g, 2, 3)
        witness = err.value.report
        assert err.value.hypothesis == "skl_free"
        assert witness == find_induced_star(g, 2, 3)
        assert (witness.center_u, witness.center_v) == (VertexRef("X", 0), VertexRef("Y", 0))
        assert [v.label for v in witness.leaves_u] == ["Y1", "Y3"]
        assert [v.label for v in witness.leaves_v] == ["X2", "X17", "X21"]
        assert_star_witness_valid(g, witness)

    def test_stuck_loop_is_a_contradiction(self, monkeypatch):
        """A stuck state despite the hypotheses (a loop fault, so the loop
        is stubbed) raises with the stuck report attached."""
        g = complete_bipartite_minus_matching(13, [(i, i) for i in range(13)])
        reports = []

        def stuck(graph, factor, l=None):
            reports.append(_build_stuck_report(graph, factor, 2, l))
            return reports[-1]

        monkeypatch.setattr(bifactor.connect, "connect_factor", stuck)
        message = "^connectivity search stuck despite satisfied hypotheses$"
        with pytest.raises(TheoremContradictionError, match=message) as err:
            connected_k_factor(g, 2, 3)
        assert len(reports) == 1 and err.value.report is reports[0]

    @pytest.mark.parametrize("k", [2, 3])
    def test_certificate_names_the_degree(self, monkeypatch, k):
        """A flow certificate despite the hypotheses (a solver fault, so the
        flow is stubbed) states the degree it was asked for."""
        g = complete_bipartite_minus_matching(19, [(i, i) for i in range(19)])
        cert = make_certificate(path_graph(4), DegreeDemand((2, 2), (2, 2)), (0,))
        monkeypatch.setattr(bifactor.connect, "find_f_factor", lambda *args: cert)
        message = f"^no {k}-regular factor despite satisfied hypotheses$"
        with pytest.raises(TheoremContradictionError, match=message) as err:
            connected_k_factor(g, k, 3)
        assert err.value.report is cert


def quadrilateral_state(rng: random.Random) -> tuple[BipartiteGraph, Factor]:
    """1-6 quadrilaterals under a random relabelling, as the factor, plus
    cross edges: half the time the chained pattern (every Y-to-X edge from
    each quadrilateral to the next, in a random cyclic order) with 0-2
    cells outside the quadrilaterals flipped, otherwise random cells."""
    c = rng.randint(1, 6)
    n = 2 * c
    px, py = rng.sample(range(n), n), rng.sample(range(n), n)
    quads = [(px[2 * i : 2 * i + 2], py[2 * i : 2 * i + 2]) for i in range(c)]
    factor_edges = {(x, y) for xs, ys in quads for x in xs for y in ys}
    edges = set(factor_edges)
    if rng.random() < 0.5:
        order = rng.sample(range(c), c)
        for i, j in zip(order, order[1:] + order[:1]):
            if i != j:
                edges |= {(x, y) for y in quads[i][1] for x in quads[j][0]}
        for _ in range(rng.randint(0, 2)):
            cell = (rng.randrange(n), rng.randrange(n))
            if cell not in factor_edges:
                edges ^= {cell}
    else:
        edges |= {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * c))}
    graph = BipartiteGraph(n, n, edges)
    return graph, Factor(graph, factor_edges)


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
        woven = _weave_quotient_cycle(report, _component_vertex_sets(f))
        assert woven is not None
        assert_regular_spanning(g, woven, 2, connected=True)

    @pytest.mark.parametrize(
        "arcs", [[(0, 1), (1, 2), (2, 1)], [(0, 1), (1, 0), (2, 3), (3, 2)]]
    )
    def test_weave_rejects_a_quotient_that_is_not_one_cycle(self, arcs):
        """Quadrilaterals with full arcs, one out of each component: either
        the walk from component 0 enters the cycle 1 -> 2 -> 1 and never
        comes back to 0, or it comes back to 0 before it has seen every
        component."""
        c = 1 + max(j for _, j in arcs)
        quads = [([2 * i, 2 * i + 1], [2 * i, 2 * i + 1]) for i in range(c)]
        factor_edges = [(x, y) for xs, ys in quads for x in xs for y in ys]
        cross = [(x, y) for i, j in arcs for y in quads[i][1] for x in quads[j][0]]
        g = BipartiteGraph(2 * c, 2 * c, factor_edges + cross)
        f = Factor(g, factor_edges)
        assert _component_vertex_sets(f) == quads
        report = _build_stuck_report(g, f, 2, 3)
        assert Counter((link.component_v, link.component_u) for link in report.links) == {
            arc: 4 for arc in arcs
        }
        assert _weave_quotient_cycle(report, quads) is None

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

    def test_star_refusal_carries_its_witness(self):
        g = generate(GenSpec("min-degree-random", 20, seed=4, k=4, p=0.5))
        with pytest.raises(HypothesisViolatedError, match=r"induced \(1,3\) star pair") as err:
            hamilton_s13(g)
        witness = err.value.report
        assert witness == find_induced_star(g, 1, 3)
        assert [v.label for v in witness.vertices()] == ["X0", "Y1", "Y6", "X6", "X11", "X13"]
        assert_star_witness_valid(g, witness)

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

    def test_stuck_quadrilaterals_match_reference(self, monkeypatch):
        """On seeded all-quadrilateral stuck states, hamilton_s13 weaves the
        same cycle, or raises the same error, as its checks as first
        written, and the report it attaches is the stuck report as first
        written.  The hypotheses are stubbed out, and the connecting loop
        reports the quadrilaterals as stuck."""
        state = {}

        def stuck(graph, factor, l=None):
            return _build_stuck_report(graph, state["factor"], 2, l)

        monkeypatch.setattr(bifactor.connect, "_hypotheses", lambda *args: None)
        monkeypatch.setattr(bifactor.connect, "connect_factor", stuck)
        outcomes = Counter()
        for seed in range(3000):
            g, f = quadrilateral_state(random.Random(seed))
            state["factor"] = f
            want_report = reference_stuck_report(g, f, 2, 3)
            try:
                want = reference_hamilton_after_stuck(g, want_report).edge_list
            except StructureUnrecognizedError as exc:
                want = str(exc)
            try:
                got = hamilton_s13(g).edge_list
            except StructureUnrecognizedError as exc:
                assert serialize_stuck_report(exc.report) == serialize_stuck_report(want_report)
                got = str(exc)
            assert got == want, seed
            if isinstance(got, tuple):
                outcomes["woven"] += 1
            else:
                outcomes["chain" if "chain" in got else "sees"] += 1
        assert set(outcomes) == {"woven", "chain", "sees"}, outcomes
