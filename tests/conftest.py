"""Shared fixtures and independent reference checks.

Everything here recomputes from first principles and shares no code with
the implementations under test: witnesses are validated by counting
induced edges, the detector's choice of witness by enumerating leaf
subsets in order, by the bitset detector as first written, which tries
every neighbour of the k-center as a leaf, and by the good-leaf detector
as first written, which counts every vertex at distance 2 from the
l-center for its good mask, star-pair freeness by scanning vertex
subsets for the tree profile, violators by evaluating both sides of the
inequality directly, the connecting loop's moves by
the loop as first written, which rebuilds the factor after every move
and recounts every candidate from scratch with union-find, the loop's
scan as first written, which rescans every host row from X0 after every
move of the loop's own working copy, and the flow
solver's factor and violator by the flow network as first written, with
a recursive augmenting search whose phases can also report the vertices
on a shortest augmenting path, the violator shrink as first written,
which re-evaluates every trial set from scratch, the graph reader
and constructor as first written, which check every edge line by line,
the canonical edge-line layout as the pattern first written to check it,
the factor reader as first written, with its own header and edge-line
loop, the stuck report as first written, which looks up each vertex's
component through per-vertex accessors and scans its neighbourhood
again for the inside count, and the Hamilton pipeline's checks on a
stuck state as first written, which scan every neighbourhood for
foreign components and probe every pair of components for the weave,
the Hamilton cycle line as first written, which filters a list of
neighbours and builds a VertexRef at every step, and the small-host
enumerator as first written, which walks every edge mask cell by cell and
tests connectivity by union-find, and its host counts by inclusion-exclusion
over X0's component.  The flow's and the connecting loop's
factors, which skip the host walk, are compared with the validating build
Factor(host, edge_list), which walks the host, and the labels every
factor computes on first read with union-find's.

Every test runs under a time limit: a test that hangs ends the run with
a traceback of every thread and a nonzero exit instead of stalling it.
"""

from __future__ import annotations

import faulthandler
import os
import random
import re
import sys
from collections.abc import Iterator
from functools import cache
from itertools import combinations, zip_longest
from math import comb
from typing import TextIO

import pytest
from hypothesis import strategies as st

from bifactor import (
    BipartiteGraph,
    DegreeDemand,
    Factor,
    StarWitness,
    StuckReport,
    SwapMove,
    VertexRef,
    ViolatorCertificate,
    audit_certificate,
    brute_force_f_factor,
    check_factor,
    complete_bipartite_minus_matching,
    connect_factor,
    enumerate_bipartite_block,
    find_f_factor,
    find_links,
    make_certificate,
    serialize_factor,
    serialize_stuck_report,
)
from bifactor.connect import DegreeAuditRecord, LinkIsolation, _build_stuck_report, _Exchanger
from bifactor.errors import (
    DuplicateEdgeError,
    FakeCertificateError,
    GraphFormatError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    NotRegularError,
    StructureUnrecognizedError,
)
from bifactor.factors import _evaluate_violation
from bifactor.graph import MAX_CLASS_SIZE

# The edge lines of a canonical graph file, as serialize_graph writes them:
# the pattern the bulk reader matched each run of lines against when it
# was first written.
REFERENCE_EDGE_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")

# Seconds one test may run, from the setup of the fixtures it needs, of
# every scope, to its teardown; the slowest, test_criterion_5's module
# fixtures, take about 10 s.
TEST_TIME_LIMIT = 300
_STDERR = pytest.StashKey[TextIO]()


def pytest_configure(config):
    # While a test runs, output capture points fd 2 at a temporary file,
    # which the exit below would discard; keep a copy of the real stderr.
    config.stash[_STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """Dump every thread's traceback and exit the run when a test hangs
    (pytest-timeout is not a dependency).  A hook, not an autouse
    fixture, because module-scoped fixtures are set up before any
    function-scoped one."""
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT, exit=True, file=item.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


# -- graph strategies ----------------------------------------------------------


@st.composite
def bipartite_graphs(draw, max_side: int = 4, min_side: int = 1):
    n_x = draw(st.integers(min_side, max_side))
    n_y = draw(st.integers(min_side, max_side))
    cells = [(x, y) for x in range(n_x) for y in range(n_y)]
    edges = draw(st.sets(st.sampled_from(cells))) if cells else set()
    return BipartiteGraph(n_x, n_y, edges)


def block_host(choose) -> tuple[BipartiteGraph, Factor]:
    """A connected host and a k-factor of it made of small k-regular blocks.

    k is 1-3; each block has k to k+2 vertices a side, its edges the first
    k cyclic shifts of a matching, and block vertices are scattered over
    the index range.  The host adds one edge between consecutive
    components of the blocks and a few random extra edges.
    ``choose(lo, hi)`` makes every random choice (bounds inclusive), so
    hypothesis draws and seeded ``random.Random.randint`` sweeps share it.
    """
    k = choose(1, 3)
    sizes = [choose(k, k + 2) for _ in range(choose(2, 4))]
    n = sum(sizes)
    perm_x, perm_y = list(range(n)), list(range(n))
    for perm in (perm_x, perm_y):
        for i in range(n - 1, 0, -1):
            j = choose(0, i)
            perm[i], perm[j] = perm[j], perm[i]
    factor_edges = []
    start = 0
    for s in sizes:
        for t in range(k):
            factor_edges += [(perm_x[start + i], perm_y[start + (i + t) % s]) for i in range(s)]
        start += s
    edges = set(factor_edges)
    for _ in range(choose(0, 2 * n * k)):
        edges.add((choose(0, n - 1), choose(0, n - 1)))
    comps = components(n, n, edges)
    for (xs, _), (_, ys) in zip(comps, comps[1:]):
        edges.add((xs[choose(0, len(xs) - 1)], ys[choose(0, len(ys) - 1)]))
    graph = BipartiteGraph(n, n, edges)
    return graph, Factor(graph, factor_edges)


@st.composite
def block_hosts(draw):
    return block_host(lambda lo, hi: draw(st.integers(lo, hi)))


def balanced_demand(graph: BipartiteGraph, choose) -> DegreeDemand:
    """Degrees of a random edge subset, then up to three unit transfers
    between two vertices of one side: always balanced, rarely uniform,
    and infeasible about as often as not.  ``choose`` as in block_host.
    """
    f_x, f_y = [0] * graph.n_x, [0] * graph.n_y
    for x, y in graph.edge_list:
        if choose(0, 1):
            f_x[x] += 1
            f_y[y] += 1
    for _ in range(choose(0, 3)):
        f = f_x if choose(0, 1) else f_y
        a, b = choose(0, len(f) - 1), choose(0, len(f) - 1)
        if f[a] > 0:
            f[a] -= 1
            f[b] += 1
    return DegreeDemand(tuple(f_x), tuple(f_y))


def chain_host(n: int) -> BipartiteGraph:
    """Path host whose only perfect matching is X_i-Y_(i+1), X_(n-1)-Y_0.

    The lowest-index-first search matches X_i-Y_i first, so the last X
    vertex needs an augmenting path through the whole chain.
    """
    edges = [(i, i) for i in range(n - 1)] + [(i, i + 1) for i in range(n - 1)]
    return BipartiteGraph(n, n, edges + [(n - 1, 0)])


def planted_hall_host(a: int, n: int, rng: random.Random) -> tuple[BipartiteGraph, tuple[int, ...]]:
    """n + n vertices whose only minimal violator at k=1 is a planted set A
    of a X vertices, returned sorted.

    A and a - 1 Y vertices form a path, so A has a - 1 neighbours while
    every proper subset of A has enough.  Each other x is joined to two
    consecutive other y's and one at random.  Labels are shuffled.
    """
    xs, ys = rng.sample(range(n), n), rng.sample(range(n), n)
    a_set, b_set, rest_x, rest_y = xs[:a], ys[: a - 1], xs[a:], ys[a - 1 :]
    edges = {(a_set[i], b_set[i]) for i in range(a - 1)}
    edges.update((a_set[i + 1], b_set[i]) for i in range(a - 1))
    for i, x in enumerate(rest_x):
        edges.update({(x, rest_y[i]), (x, rest_y[i + 1]), (x, rng.choice(rest_y))})
    return BipartiteGraph(n, n, edges), tuple(sorted(a_set))


# -- independent checks --------------------------------------------------------


def _union_find(n_x: int, n_y: int, edges) -> list[int]:
    parent = list(range(n_x + n_y))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in edges:
        ra, rb = find(x), find(n_x + y)
        if ra != rb:
            parent[ra] = rb
    return [find(a) for a in range(n_x + n_y)]


def component_count(n_x: int, n_y: int, edges) -> int:
    """Components over all n_x + n_y vertices; isolated vertices count."""
    return len(set(_union_find(n_x, n_y, edges)))


def components(n_x: int, n_y: int, edges) -> list[tuple[list[int], list[int]]]:
    """(X indices, Y indices) of every component, in order of first vertex."""
    roots = _union_find(n_x, n_y, edges)
    out: dict[int, tuple[list[int], list[int]]] = {}
    for a, r in enumerate(roots):
        xs, ys = out.setdefault(r, ([], []))
        (xs if a < n_x else ys).append(a if a < n_x else a - n_x)
    return list(out.values())


def reference_labels(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Component ids in order of first vertex X0.., Y0.., from union-find."""
    comp_x, comp_y = [-1] * g.n_x, [-1] * g.n_y
    comps = components(g.n_x, g.n_y, g.edge_list)
    for c, (xs, ys) in enumerate(comps):
        for x in xs:
            comp_x[x] = c
        for y in ys:
            comp_y[y] = c
    return tuple(comp_x), tuple(comp_y), len(comps)


def reference_enumerate_bipartite_block(n_x: int, n_y: int) -> Iterator[BipartiteGraph]:
    """enumerate_bipartite_block as first written: every edge mask in
    ascending order, cell (x, y) at bit x * n_y + y, its edges picked cell
    by cell and kept when union-find finds them spanning and connected."""
    cells = [(x, y) for x in range(n_x) for y in range(n_y)]
    for mask in range(1 << len(cells)):
        edges = [cells[i] for i in range(len(cells)) if mask >> i & 1]
        if len(edges) < n_x + n_y - 1:
            continue
        if component_count(n_x, n_y, edges) == 1:
            yield BipartiteGraph(n_x, n_y, edges)


def assert_same_block(n_x: int, n_y: int) -> int:
    """Check that enumerate_bipartite_block yields the reference's graphs in
    the reference's order, both adjacency sides compared (graph equality
    reads only N(x)); returns how many there are."""
    count = 0
    for got, want in zip_longest(
        enumerate_bipartite_block(n_x, n_y), reference_enumerate_bipartite_block(n_x, n_y)
    ):
        assert got is not None and want is not None, f"{n_x}x{n_y}: lengths differ after {count}"
        assert (got.n_x, got.n_y, got.m, got._adj_x, got._adj_y) == (
            want.n_x,
            want.n_y,
            want.m,
            want._adj_x,
            want._adj_y,
        ), f"{n_x}x{n_y}: graph {count} differs"
        count += 1
    return count


@cache
def connected_bipartite_count(a: int, b: int) -> int:
    """How many connected labelled bipartite graphs have class sizes a >= 1
    and b, by inclusion-exclusion over X0's component: of the 2^(ab) graphs,
    those in which X0's component has i X's (X0 among them) and j Y's
    number C(a-1, i-1) C(b, j) c(i, j) 2^((a-i)(b-j)), and the connected
    ones are the rest once (i, j) = (a, b) is left out.  A lone X0 is
    connected; i >= 2 X's with no Y are not."""
    if b == 0:
        return int(a == 1)
    return 2 ** (a * b) - sum(
        comb(a - 1, i - 1) * comb(b, j) * connected_bipartite_count(i, j) * 2 ** ((a - i) * (b - j))
        for i in range(1, a + 1)
        for j in range(b + 1)
        if (i, j) != (a, b)
    )


def _count_after(graph: BipartiteGraph, factor: Factor, removed, added) -> int:
    edges = set(factor.edge_set)
    edges.difference_update(removed)
    edges.update(added)
    return component_count(graph.n_x, graph.n_y, edges)


def _reference_primary(graph: BipartiteGraph, factor: Factor) -> SwapMove | None:
    base = factor.n_components
    factor_edges = factor.edge_set
    for link in find_links(graph, factor):
        x, y = link.u.index, link.v.index
        for u2 in factor.neighbors_x(x):
            for v2 in factor.neighbors_y(y):
                if not graph.has_edge(v2, u2) or (v2, u2) in factor_edges:
                    continue
                removed = ((x, u2), (v2, y))
                added = ((x, y), (v2, u2))
                if _count_after(graph, factor, removed, added) < base:
                    return SwapMove("primary", removed, added)
    return None


def reference_secondary_moves(graph: BipartiteGraph, factor: Factor) -> Iterator[SwapMove]:
    """Every improving secondary move, in scan order, each recounted from
    scratch: the neighbor swap of two same-side vertices in distinct
    components."""
    base = factor.n_components
    factor_edges = factor.edge_set
    for on_x, size in ((True, graph.n_x), (False, graph.n_y)):
        comp = factor.comp_x if on_x else factor.comp_y
        nbrs = factor.neighbors_x if on_x else factor.neighbors_y
        for i1 in range(size):
            for i2 in range(i1 + 1, size):
                if comp[i1] == comp[i2]:
                    continue
                for w1 in nbrs(i1):
                    for w2 in nbrs(i2):
                        if on_x:
                            cross1, cross2 = (i1, w2), (i2, w1)
                            removed = ((i1, w1), (i2, w2))
                        else:
                            cross1, cross2 = (w2, i1), (w1, i2)
                            removed = ((w1, i1), (w2, i2))
                        if not (graph.has_edge(*cross1) and graph.has_edge(*cross2)):
                            continue
                        if cross1 in factor_edges or cross2 in factor_edges:
                            continue
                        added = (cross1, cross2)
                        if _count_after(graph, factor, removed, added) < base:
                            yield SwapMove("secondary", removed, added)


def apply_swap(factor: Factor, move: SwapMove) -> Factor:
    """The factor after ``move``, rebuilt from its edge set, as the
    package's own move helper was first written."""
    edges = set(factor.edge_set)
    for e in move.removed:
        edges.remove(e)
    for e in move.added:
        edges.add(e)
    return Factor(factor.host, edges)


def _reference_cycle_move(graph: BipartiteGraph, factor: Factor) -> SwapMove | None:
    """The first alternating-cycle exchange that lowers the component
    count, from edge sets alone, each candidate recounted from scratch.

    Links are the host edges x-y, in (x, y) order, whose ends lie in
    distinct union-find components of the factor.  A link's cycle is x-y
    and a shortest path from y back to x, found by a plain breadth-first
    search over (side, index) vertices, neighbours in index order, that
    steps from Y to X along factor edges and from X to Y along host edges
    outside the factor.
    """
    factor_edges = factor.edge_set
    host_edges = sorted(graph.edge_set)
    roots = _union_find(graph.n_x, graph.n_y, factor_edges)
    base = len(set(roots))

    def steps(side: str, v: int) -> list[tuple[str, int]]:
        if side == "Y":
            return [("X", a) for a, b in sorted(factor_edges) if b == v]
        return [("Y", b) for a, b in host_edges if a == v and (a, b) not in factor_edges]

    for x, y in host_edges:
        if roots[x] == roots[graph.n_x + y]:
            continue
        before = {("Y", y): None}
        queue, last = [("Y", y)], None
        for vertex in queue:  # grows as the search goes
            nxt = steps(*vertex)
            if ("X", x) in nxt:
                last = vertex
                break
            for w in nxt:
                if w not in before:
                    before[w] = vertex
                    queue.append(w)
        if last is None:
            continue
        path = [("X", x)]  # x, then back from the last Y to y, then x again
        while last is not None:
            path.append(last)
            last = before[last]
        path.append(("X", x))
        cycle = {(a, b) if sa == "X" else (b, a) for (sa, a), (_, b) in zip(path, path[1:])}
        move = SwapMove(
            "cycle", tuple(sorted(cycle & factor_edges)), tuple(sorted(cycle - factor_edges))
        )
        after = apply_swap(factor, move)
        if component_count(graph.n_x, graph.n_y, after.edge_list) < base:
            return move
    return None


def reference_connect(
    graph: BipartiteGraph, factor: Factor, l: int | None = None
) -> tuple[Factor | StuckReport, list]:
    """The connecting loop as first written, with its alternating-cycle
    exchanges on a connected host: (result, trace).

    After every move all links are re-created from a rebuilt factor;
    primary moves over all links come first, then secondary moves over all
    same-side pairs in distinct components, then alternating-cycle
    exchanges, each candidate recounted from scratch over a copy of the
    edge set.
    """
    k = factor.regularity()
    trace = []
    current = factor
    while current.n_components > 1:
        move = (
            _reference_primary(graph, current)
            or next(reference_secondary_moves(graph, current), None)
            or _reference_cycle_move(graph, current)
        )
        if move is None:
            return reference_stuck_report(graph, current, k, l), trace
        current = apply_swap(current, move)
        if component_count(graph.n_x, graph.n_y, current.edge_list) != current.n_components:
            raise AssertionError("factor labels disagree with the recount")
        trace.append((move, current.n_components))
    return current, trace


class RescanExchanger(_Exchanger):
    """The connecting loop's working copy with its scan as first written:
    every step rescans every host row from X0, skipping again the y's
    that share x's component, and tests each fresh edge with
    ``has_edge``.  Moves are applied by the working copy's own update."""

    def step(self) -> SwapMove | None:
        if self.k < 2:
            return None
        in_host = self.graph.has_edge
        for x, ys in enumerate(self.graph._adj_x):
            for y in ys:
                if self.comp_x[x] == self.comp_y[y]:
                    continue
                for u2 in self.adj_x[x]:
                    for v2 in self.adj_y[y]:
                        if in_host(v2, u2):
                            self._apply(x, u2, v2, y)
                            return SwapMove("primary", ((x, u2), (v2, y)), ((x, y), (v2, u2)))
        return None


def _component_of(factor: Factor, v: VertexRef) -> int:
    return factor.comp_x[v.index] if v.side == "X" else factor.comp_y[v.index]


def _other_side_components(factor: Factor, v: VertexRef) -> tuple[int, ...]:
    """Component ids of the side opposite v, indexed like neighbors(v)."""
    return factor.comp_y if v.side == "X" else factor.comp_x


def reference_stuck_report(
    graph: BipartiteGraph, factor: Factor, k: int, l: int | None
) -> StuckReport:
    """The stuck report as first written: each vertex's component and the
    other side's labels come from per-vertex accessors (here the
    Factor.component_of and Factor.other_side_components methods as first
    written, as functions), a link endpoint's inside count scans its
    neighbourhood a second time, and contradiction vertices sort by an
    explicit (side, index) key."""
    links = find_links(graph, factor)
    isolation = []
    for link in links:
        n_u = factor.neighbors_x(link.u.index)  # Y vertices
        n_v = factor.neighbors_y(link.v.index)  # X vertices
        joining = tuple(
            (a, b) for a in n_v for b in n_u if graph.has_edge(a, b)
        )
        isolation.append(LinkIsolation(link, joining))
    bound_out = None if l is None else (k * k - k + 1) * (2 * l - 2 * k - 1)
    bound_in = None if l is None else k * bound_out + l - 1

    audits: list[DegreeAuditRecord] = []
    for v in graph.vertices():
        own = _component_of(factor, v)
        other_comp = _other_side_components(factor, v)
        outside = sum(1 for w in graph.neighbors(v) if other_comp[w] != own)
        audits.append(
            DegreeAuditRecord(
                "outside-own-component",
                v,
                outside,
                bound_out,
                None if bound_out is None else outside <= bound_out,
            )
        )
    endpoint_seen = set()
    for link in links:
        for v in (link.u, link.v):
            if v in endpoint_seen:
                continue
            endpoint_seen.add(v)
            own = _component_of(factor, v)
            other_comp = _other_side_components(factor, v)
            inside = sum(1 for w in graph.neighbors(v) if other_comp[w] == own)
            audits.append(
                DegreeAuditRecord(
                    "inside-own-component",
                    v,
                    inside,
                    bound_in,
                    None if bound_in is None else inside <= bound_in,
                )
            )

    delta = graph.min_degree()
    contradiction_vertices: tuple[VertexRef, ...] = ()
    if l is not None and links:
        # In a genuinely stuck pattern-free state both bounds apply, so a
        # link endpoint's degree is capped by their sum; a cap under the
        # minimum degree is impossible.
        if bound_out + bound_in < delta:
            contradiction_vertices = tuple(
                sorted(endpoint_seen, key=lambda v: (0 if v.side == "X" else 1, v.index))
            )
    return StuckReport(
        factor=factor,
        links=links,
        isolation=tuple(isolation),
        neighborhoods_isolated=all(rec.isolated for rec in isolation),
        degree_audits=tuple(audits),
        k=k,
        l=l,
        min_degree=delta,
        contradiction=bool(contradiction_vertices),
        contradiction_vertices=contradiction_vertices,
    )


def _reference_foreign_labels(
    graph: BipartiteGraph, factor: Factor
) -> Iterator[tuple[VertexRef, list[int]]]:
    """Per vertex, X0.. then Y0..: the component labels of its host
    neighbours outside its own component, one per neighbour."""
    for side, own, other, nbrs in (
        ("X", factor.comp_x, factor.comp_y, graph.neighbors_x),
        ("Y", factor.comp_y, factor.comp_x, graph.neighbors_y),
    ):
        for i, c in enumerate(own):
            yield VertexRef(side, i), [other[w] for w in nbrs(i) if other[w] != c]


def _reference_weave_quotient_cycle(
    graph: BipartiteGraph, comps: list[tuple[list[int], list[int]]]
) -> Factor | None:
    """Hamilton cycle of a stuck all-quadrilateral state, if the shape fits.

    ``comps`` lists the components as ``_component_vertex_sets`` does, and
    each must have two vertices a side (the caller checks).  Requirements
    checked here: between two components all host edges run one way only
    (Y half of one to X half of the other) and, when present, form the
    full 2x2 pattern; the component quotient under these arcs is a single
    directed cycle.  Walking that cycle and traversing each quadrilateral
    in full yields the Hamilton cycle.
    """
    n = len(comps)
    succ = [-1] * n
    pred = [-1] * n
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cross = [
                (a, b) for b in comps[i][1] for a in comps[j][0] if graph.has_edge(a, b)
            ]
            if not cross:
                continue
            if len(cross) != 4:
                return None
            if succ[i] != -1 or pred[j] != -1:
                return None
            succ[i] = j
            pred[j] = i
    if any(s == -1 for s in succ) or any(p == -1 for p in pred):
        return None
    order = [0]
    while True:
        nxt = succ[order[-1]]
        if nxt == 0:
            break
        if nxt in order:
            return None
        order.append(nxt)
    if len(order) != n:
        return None
    edges: list[tuple[int, int]] = []
    for pos, ci in enumerate(order):
        xs, ys = comps[ci]
        edges.append((xs[0], ys[0]))
        edges.append((xs[1], ys[0]))
        edges.append((xs[1], ys[1]))
        nxt_xs, _ = comps[order[(pos + 1) % n]]
        edges.append((nxt_xs[0], ys[1]))
    return Factor(graph, edges)


def reference_hamilton_after_stuck(graph: BipartiteGraph, report: StuckReport) -> Factor:
    """hamilton_s13's checks after the connecting loop sticks, as first
    written: each vertex's foreign components from a second scan of its
    whole host neighbourhood, and the quotient arcs from a has_edge probe
    of every ordered pair of components.  Returns the woven cycle
    (unchecked) or raises StructureUnrecognizedError."""
    comps: list[tuple[list[int], list[int]]] = [
        ([], []) for _ in range(report.factor.n_components)
    ]
    for x, c in enumerate(report.factor.comp_x):
        comps[c][0].append(x)
    for y, c in enumerate(report.factor.comp_y):
        comps[c][1].append(y)
    if any(len(xs) != 2 or len(ys) != 2 for xs, ys in comps):
        raise StructureUnrecognizedError(
            "stuck with a component larger than a quadrilateral", report=report
        )
    # every vertex may see at most one foreign component
    for v, foreign in _reference_foreign_labels(graph, report.factor):
        seen = len(set(foreign)) + 1
        if seen > 2:
            raise StructureUnrecognizedError(
                f"vertex {v.label} sees {seen} components", report=report
            )
    woven = _reference_weave_quotient_cycle(graph, comps)
    if woven is None:
        raise StructureUnrecognizedError(
            "quadrilateral components do not chain into a cycle", report=report
        )
    return woven


def reference_cycle_order(factor: Factor) -> tuple[VertexRef, ...]:
    """cycle_order as first written: from X0 toward its lower-indexed
    factor neighbour, each step filtering the current vertex's neighbour
    list for the one it did not come from."""
    if factor.regularity() != 2 or not factor.is_connected():
        raise NotRegularError("cycle order needs a connected 2-regular factor")
    host = factor.host
    order: list[VertexRef] = [VertexRef("X", 0)]
    prev: VertexRef | None = None
    cur = order[0]
    for _ in range(host.n_x + host.n_y - 1):
        side = "Y" if cur.side == "X" else "X"
        # the previous vertex always sits on `side`; skip it to keep moving
        step = [w for w in factor.neighbors(cur) if prev is None or w != prev.index]
        prev, cur = cur, VertexRef(side, step[0])
        order.append(cur)
    return tuple(order)


class _RecursiveFlowNet:
    """Dinic max-flow with deterministic arc order."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]  # arc indices per node
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(idx + 1)
        return idx

    def max_flow(
        self, s: int, t: int, phases: list[tuple[list[int], set[int]]] | None = None
    ) -> int:
        """The flow value.  When ``phases`` is a list, each phase appends
        its BFS levels and the nodes of its level graph that reach t."""
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in self.head[u]:
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == -1:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] == -1:
                return flow
            if phases is not None:
                live = {t}
                for u in reversed(queue):
                    if any(
                        self.cap[idx] > 0 and level[self.to[idx]] == level[u] + 1
                        and self.to[idx] in live
                        for idx in self.head[u]
                    ):
                        live.add(u)
                phases.append((level, live))
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed

    def reachable(self, s: int) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        for u in queue:
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def reference_shrink_violator(
    graph: BipartiteGraph,
    demand: DegreeDemand,
    cert: ViolatorCertificate,
    passes: list[int] | None = None,
) -> ViolatorCertificate:
    """shrink_violator as first written: every trial removal re-evaluates
    both sides of the trial set from scratch.  When ``passes`` is a list,
    the size of the set after each pass is appended to it.
    """
    if not audit_certificate(graph, demand, cert):
        problems: list[str] = []
        audit_certificate(graph, demand, cert, problems)
        raise FakeCertificateError("; ".join(problems))
    current = list(cert.a)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for x in sorted(current):
            if len(current) == 1:
                break
            trial = tuple(v for v in current if v != x)
            lhs, rhs, _ = _evaluate_violation(graph, demand, trial)
            if lhs > rhs:
                current = list(trial)
                changed = True
        if passes is not None:
            passes.append(len(current))
    return make_certificate(graph, demand, tuple(current))


def reference_f_factor(
    graph: BipartiteGraph,
    demand: DegreeDemand,
    phases: list[tuple[int, int, set[int]]] | None = None,
) -> Factor | ViolatorCertificate:
    """find_f_factor over the flow network and the shrink as first written.

    The Dinic search recurses once per path vertex, so it needs a
    recursion limit above the longest augmenting path; the violator is the
    X side of a separate residual reachability pass, shrunk by
    reference_shrink_violator.  When ``phases`` is a list, each phase
    appends the sink's level (a free x is at level 1), the number of X
    vertices below it, and the X vertices on a shortest augmenting path
    when the phase begins.
    """
    n_x, n_y = graph.n_x, graph.n_y
    source, sink = 0, n_x + n_y + 1
    net = _RecursiveFlowNet(n_x + n_y + 2)
    for x in range(n_x):
        net.add(source, 1 + x, demand.f_x[x])
    edge_arcs = []
    for x in range(n_x):
        for y in graph.neighbors_x(x):
            edge_arcs.append(((x, y), net.add(1 + x, 1 + n_x + y, 1)))
    for y in range(n_y):
        net.add(1 + n_x + y, sink, demand.f_y[y])
    recorded: list[tuple[list[int], set[int]]] = []
    value = net.max_flow(source, sink, None if phases is None else recorded)
    if phases is not None:
        for level, live in recorded:
            lt, xs = level[sink], level[1 : 1 + n_x]
            phases.append((lt, sum(0 < d < lt for d in xs), {x for x in range(n_x) if 1 + x in live}))
    if value == sum(demand.f_x):
        return Factor(graph, [e for e, idx in edge_arcs if net.cap[idx] == 0])
    seen = net.reachable(source)
    a = tuple(x for x in range(n_x) if seen[1 + x])
    return reference_shrink_violator(graph, demand, make_certificate(graph, demand, a))


class _ReferenceGraph:
    """The fields BipartiteGraph.__init__ as first written stores."""

    __slots__ = ("n_x", "n_y", "edge_list", "edge_set", "_adj_x", "_adj_y")


def reference_graph_init(n_x: int, n_y: int, edges) -> _ReferenceGraph:
    """BipartiteGraph.__init__ as first written: each edge is range-checked
    and looked up in a set of the edges before it, in input order, and
    each adjacency list is sorted on its own."""
    self = _ReferenceGraph()
    if n_x < 0 or n_y < 0:
        raise ValueError("class sizes must be non-negative")
    self.n_x = n_x
    self.n_y = n_y
    seen: set[tuple[int, int]] = set()
    adj_x: list[list[int]] = [[] for _ in range(n_x)]
    adj_y: list[list[int]] = [[] for _ in range(n_y)]
    for e in edges:
        x, y = e
        if not (0 <= x < n_x and 0 <= y < n_y):
            raise IndexOutOfRangeError(f"edge ({x}, {y}) outside {n_x}x{n_y}")
        if (x, y) in seen:
            raise DuplicateEdgeError(f"edge ({x}, {y}) repeated")
        seen.add((x, y))
        adj_x[x].append(y)
        adj_y[y].append(x)
    self.edge_list = tuple(sorted(seen))
    self.edge_set = frozenset(seen)
    self._adj_x = tuple(tuple(sorted(a)) for a in adj_x)
    self._adj_y = tuple(tuple(sorted(a)) for a in adj_y)
    return self


def _graph_outcome(build, n_x: int, n_y: int, edges):
    """The adjacency ``build`` stores, or the class and text of what it raised."""
    try:
        g = build(n_x, n_y, edges)
    except Exception as exc:  # the reference's outcome may be any exception
        return type(exc).__name__, str(exc)
    return "graph", (g.n_x, g.n_y, g._adj_x, g._adj_y)


def assert_constructor_as_reference(cases: int, seed: int) -> dict[str, int]:
    """Check BipartiteGraph against reference_graph_init on ``cases`` seeded
    random edge lists: classes of 0-40 vertices, up to 200 edges, distinct
    and in range in about half the lists, each endpoint from -1 to its
    class size + 1 in the others, an extra copy of one edge in half of
    them, handed over as a list, a tuple or a generator.  Returns how many
    lists gave each outcome."""
    rng = random.Random(seed)
    counts: dict[str, int] = {}
    for case in range(cases):
        n_x, n_y = rng.randint(0, 40), rng.randint(0, 40)
        size = rng.randint(0, 200)
        if n_x and n_y and rng.random() < 0.5:
            cells = rng.sample(range(n_x * n_y), min(size, n_x * n_y))
            edges = [divmod(c, n_y) for c in cells]
        else:
            edges = [(rng.randint(-1, n_x + 1), rng.randint(-1, n_y + 1)) for _ in range(size)]
        if edges and rng.random() < 0.5:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        kind = rng.choice((list, tuple, iter))
        got = _graph_outcome(BipartiteGraph, n_x, n_y, kind(edges))
        want = _graph_outcome(reference_graph_init, n_x, n_y, kind(edges))
        assert got == want, f"case {case}: {n_x}x{n_y} {kind.__name__} {edges}"
        counts[got[0]] = counts.get(got[0], 0) + 1
    return counts


def assert_minus_matching_as_constructed(n: int, seed: int, size: int | None = None) -> None:
    """Check complete_bipartite_minus_matching(n, pairs) against
    BipartiteGraph(n, n, edges) on the edges of K(n,n) less the same
    pairs: ``size`` (n when None) seeded vertex-disjoint pairs, handed
    over in seeded order.  Both adjacency sides, m, == and hash agree."""
    rng = random.Random(seed)
    size = n if size is None else size
    ys = rng.sample(range(n), n)
    pairs = [(x, ys[x]) for x in rng.sample(range(n), size)]
    removed = set(pairs)
    got = complete_bipartite_minus_matching(n, pairs)
    want = BipartiteGraph(
        n, n, [(x, y) for x in range(n) for y in range(n) if (x, y) not in removed]
    )
    assert_stored_as_constructed(got, want, f"n={n} seed={seed} size={size}")


def assert_stored_as_constructed(got: BipartiteGraph, want: BipartiteGraph, label: str) -> None:
    """Check a graph whose rows were stored unchecked against ``want``, the
    same graph built by the validating constructor: class sizes, both
    adjacency sides (graph equality reads only N(x)), m, == and hash."""
    assert (got.n_x, got.n_y, got.m, got._adj_x, got._adj_y) == (
        want.n_x,
        want.n_y,
        want.m,
        want._adj_x,
        want._adj_y,
    ), label
    assert got == want and hash(got) == hash(want), label


def reference_parse_graph(text: str) -> _ReferenceGraph:
    """parse_graph as first written: one loop over the lines that checks
    each edge's range and repeats itself, then hands the edges to
    reference_graph_init, which checks them again."""
    header: tuple[int, int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "bipartite":
                raise MalformedHeaderError(
                    f"expected 'bipartite <nX> <nY> <m>', got {line!r}", line=lineno
                )
            try:
                n_x, n_y, m = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise MalformedHeaderError(
                    f"non-integer field in header {line!r}", line=lineno
                ) from None
            if n_x < 0 or n_y < 0 or m < 0:
                raise MalformedHeaderError(f"negative field in header {line!r}", line=lineno)
            if max(n_x, n_y) > MAX_CLASS_SIZE:
                raise MalformedHeaderError(
                    f"class size above {MAX_CLASS_SIZE} in header {line!r}", line=lineno
                )
            header = (n_x, n_y, m)
            header_line = lineno
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected '<x> <y>', got {line!r}", line=lineno)
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
        n_x, n_y, _ = header
        if not (0 <= x < n_x and 0 <= y < n_y):
            raise IndexOutOfRangeError(
                f"edge ({x}, {y}) outside {n_x}x{n_y}", line=lineno
            )
        if (x, y) in seen:
            raise DuplicateEdgeError(f"edge ({x}, {y}) repeated", line=lineno)
        seen.add((x, y))
        edges.append((x, y))
    if header is None:
        raise MalformedHeaderError("missing 'bipartite' header line")
    n_x, n_y, m = header
    if len(edges) != m:
        raise MalformedHeaderError(
            f"header promises {m} edges, file has {len(edges)}", line=header_line
        )
    return reference_graph_init(n_x, n_y, edges)


def reference_parse_factor(text: str, host: BipartiteGraph) -> Factor:
    """parse_factor as one loop that reads the header, then the edge lines,
    skipping ``cycle`` lines and checking each edge's range against the
    host's class sizes and its repeats on its line, as reference_parse_graph
    does; then the edge count, naming the header line, each edge's
    membership of the host's edge set in file order, naming its line, and
    the regularity are checked."""
    header: tuple[int, int] | None = None
    header_line = 0
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 3 or parts[0] != "factor":
                raise MalformedHeaderError(
                    f"expected 'factor <k> <m>', got {line!r}", line=lineno
                )
            try:
                header = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise MalformedHeaderError(
                    f"non-integer field in header {line!r}", line=lineno
                ) from None
            header_line = lineno
            continue
        if line.startswith("cycle "):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected '<x> <y>', got {line!r}", line=lineno)
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if not (0 <= x < host.n_x and 0 <= y < host.n_y):
            raise IndexOutOfRangeError(
                f"edge ({x}, {y}) outside {host.n_x}x{host.n_y}", line=lineno
            )
        if (x, y) in seen:
            raise DuplicateEdgeError(f"edge ({x}, {y}) repeated", line=lineno)
        seen.add((x, y))
        edges.append((x, y))
        edge_lines.append(lineno)
    if header is None:
        raise MalformedHeaderError("missing 'factor' header line")
    k, m = header
    if len(edges) != m:
        raise MalformedHeaderError(
            f"header promises {m} edges, file has {len(edges)}", line=header_line
        )
    host_edges = host.edge_set
    for lineno, edge in zip(edge_lines, edges):
        if edge not in host_edges:
            raise IndexOutOfRangeError(f"factor edge {edge} not in host graph", line=lineno)
    factor = Factor(host, edges)
    if factor.regularity() != k:
        raise NotRegularError(f"factor file claims {k}-regular but degrees differ")
    return factor


def induced_edges(graph: BipartiteGraph, verts: list[VertexRef]) -> list[tuple[int, int]]:
    xs = [v.index for v in verts if v.side == "X"]
    ys = [v.index for v in verts if v.side == "Y"]
    return [(x, y) for x in xs for y in ys if graph.has_edge(x, y)]


def assert_star_witness_valid(graph: BipartiteGraph, w: StarWitness) -> None:
    verts = list(w.vertices())
    assert len(set(verts)) == w.k + w.l + 2, "witness vertices not distinct"
    assert len(w.leaves_u) == w.k and len(w.leaves_v) == w.l
    pairs = {tuple(sorted([a.label, b.label])) for a, b in [(w.center_u, w.center_v)]}
    pairs |= {tuple(sorted([w.center_u.label, leaf.label])) for leaf in w.leaves_u}
    pairs |= {tuple(sorted([w.center_v.label, leaf.label])) for leaf in w.leaves_v}
    got = {
        tuple(sorted([f"X{x}", f"Y{y}"])) for x, y in induced_edges(graph, verts)
    }
    assert got == pairs, f"induced edges {got} differ from the star pair {pairs}"


def contains_star_pair(graph: BipartiteGraph, k: int, l: int) -> bool:
    """Subset-profile search: an induced star pair is the unique tree on
    k + l + 2 vertices with degree multiset {1^(k+l), k+1, l+1}."""
    size = k + l + 2
    verts = list(graph.vertices())
    if len(verts) < size:
        return False
    want = sorted([1] * (k + l) + [k + 1, l + 1])
    for subset in combinations(verts, size):
        edges = induced_edges(graph, list(subset))
        if len(edges) != size - 1:
            continue
        deg: dict[str, int] = {v.label: 0 for v in subset}
        for x, y in edges:
            deg[f"X{x}"] += 1
            deg[f"Y{y}"] += 1
        if sorted(deg.values()) != want:
            continue
        # tree check: edge count size-1 plus connectivity
        labels = {v.label: i for i, v in enumerate(subset)}
        parent = list(range(size))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        merged = 0
        for x, y in edges:
            ra, rb = find(labels[f"X{x}"]), find(labels[f"Y{y}"])
            if ra != rb:
                parent[ra] = rb
                merged += 1
        if merged == size - 1:
            return True
    return False


def first_star_witness(graph: BipartiteGraph, k: int, l: int) -> StarWitness | None:
    """The witness the detector promises, found by plain enumeration.

    Edges in (x, y) order, X endpoint as the k-center first; the k-leaf set
    is the first ``combinations`` subset of that center's other neighbours
    leaving at least l of the other center's other neighbours non-adjacent
    to all of it, and the l-leaf set is the l lowest of those.
    """
    for x, y in sorted(
        (x, y) for x in range(graph.n_x) for y in range(graph.n_y) if graph.has_edge(x, y)
    ):
        nbrs_of_x = [b for b in range(graph.n_y) if b != y and graph.has_edge(x, b)]
        nbrs_of_y = [a for a in range(graph.n_x) if a != x and graph.has_edge(a, y)]
        for u_side, u, v_side, v, leaves, cands, adjacent in (
            ("X", x, "Y", y, nbrs_of_x, nbrs_of_y, lambda c, b: graph.has_edge(c, b)),
            ("Y", y, "X", x, nbrs_of_y, nbrs_of_x, lambda c, a: graph.has_edge(a, c)),
        ):
            for subset in combinations(leaves, k):
                free = [c for c in cands if not any(adjacent(c, leaf) for leaf in subset)]
                if len(free) >= l:
                    return StarWitness(
                        k,
                        l,
                        VertexRef(u_side, u),
                        VertexRef(v_side, v),
                        tuple(VertexRef(v_side, b) for b in subset),
                        tuple(VertexRef(u_side, a) for a in free[:l]),
                    )
    return None


def _reference_neighbor_masks(graph: BipartiteGraph) -> tuple[list[int], list[int]]:
    """Per X vertex the bitmask of its Y neighbours, and vice versa."""
    mask_x = [0] * graph.n_x
    mask_y = [0] * graph.n_y
    for x, y in graph.edge_list:
        mask_x[x] |= 1 << y
        mask_y[y] |= 1 << x
    return mask_x, mask_y


def _reference_star_at_edge(
    graph: BipartiteGraph,
    masks: tuple[list[int], list[int]],
    x: int,
    y: int,
    k: int,
    l: int,
    u_on_x: bool,
) -> StarWitness | None:
    """Lexicographically first witness anchored at edge (x, y), if any.

    ``u_on_x`` chooses which endpoint carries the k leaves.  Leaf subsets
    for the k-center are enumerated in lexicographic order; a partial
    subset is abandoned as soon as fewer than l candidates for the other
    center remain non-adjacent to it.  Candidates are a bitmask over the
    other center's side, and the l picked leaves are its l lowest bits.
    """
    mask_x, mask_y = masks
    if u_on_x:
        leaves = graph.neighbors_x(x)
        leaf_mask = mask_y
        cand = mask_y[y] & ~(1 << x)
    else:
        leaves = graph.neighbors_y(y)
        leaf_mask = mask_x
        cand = mask_x[x] & ~(1 << y)
    # The other center is among ``leaves`` but is never chosen: every
    # candidate is its neighbour, so choosing it leaves none.
    if len(leaves) <= k or cand.bit_count() < l:
        return None

    chosen: list[int] = []

    def extend(start: int, cand: int) -> int | None:
        if len(chosen) == k:
            return cand
        for pos in range(start, len(leaves)):
            leaf = leaves[pos]
            remaining = cand & ~leaf_mask[leaf]
            if remaining.bit_count() < l:
                continue
            chosen.append(leaf)
            got = extend(pos + 1, remaining)
            if got is not None:
                return got
            chosen.pop()
        return None

    rest = extend(0, cand)
    if rest is None:
        return None
    picked = []
    for _ in range(l):
        low = rest & -rest
        picked.append(low.bit_length() - 1)
        rest ^= low
    if u_on_x:
        return StarWitness(
            k,
            l,
            VertexRef("X", x),
            VertexRef("Y", y),
            tuple(VertexRef("Y", b) for b in chosen),
            tuple(VertexRef("X", a) for a in picked),
        )
    return StarWitness(
        k,
        l,
        VertexRef("Y", y),
        VertexRef("X", x),
        tuple(VertexRef("X", a) for a in chosen),
        tuple(VertexRef("Y", b) for b in picked),
    )


def reference_find_induced_star(graph: BipartiteGraph, k: int, l: int) -> StarWitness | None:
    """The bitset detector as first written, trying every neighbour of the
    k-center as a leaf at every edge (O(n^3) mask operations on dense
    hosts).

    First induced copy in edge order, or None when the graph is free.
    Edges are scanned sorted by (x, y); for each edge the X endpoint is
    tried as the k-leaf center before the Y endpoint (the second
    orientation only matters when k != l).
    """
    if k < 1 or l < 1:
        raise ValueError("both leaf counts must be at least 1")
    masks = _reference_neighbor_masks(graph)
    for x, y in graph.edge_list:
        w = _reference_star_at_edge(graph, masks, x, y, k, l, u_on_x=True)
        if w is not None:
            return w
        if k != l:
            w = _reference_star_at_edge(graph, masks, x, y, k, l, u_on_x=False)
            if w is not None:
                return w
    return None


def _reference_good_leaves(
    own: list[int], far: list[int], nbrs: tuple[int, ...], v: int, l: int
) -> int:
    """Mask of the vertices b at distance 2 from v with |N(v) \\ N(b)| >= l.

    ``own`` holds the neighbour masks of v's side, ``far`` those of the
    other side, and ``nbrs`` lists v's neighbours.  Only such a b can be a
    k-leaf when v is the l-center: every k-leaf is adjacent to the
    k-center, so the l-side candidates it leaves are exactly N(v) \\ N(b).
    """
    reach = 0
    for a in nbrs:
        reach |= far[a]
    reach &= ~(1 << v)
    nv = own[v]
    shared = len(nbrs) - l  # b is good when |N(v) & N(b)| <= shared
    good = 0
    while reach:
        low = reach & -reach
        if (nv & own[low.bit_length() - 1]).bit_count() <= shared:
            good |= low
        reach ^= low
    return good


def _reference_good_leaf_star_at_edge(
    masks: tuple[list[int], list[int]],
    x: int,
    y: int,
    k: int,
    l: int,
    avail: int,
    u_on_x: bool,
) -> StarWitness | None:
    """Lexicographically first witness anchored at edge (x, y), if any.

    ``u_on_x`` chooses which endpoint carries the k leaves, and ``avail``
    masks the k-center's neighbours that are good leaves for the other
    center.  Leaf subsets of ``avail`` are enumerated in lexicographic
    order; a partial subset is abandoned as soon as fewer than l
    candidates for the other center remain non-adjacent to it.
    Candidates are a bitmask over the other center's side, and the l
    picked leaves are its l lowest bits.
    """
    mask_x, mask_y = masks
    if u_on_x:
        u_side, u, v_side, v, leaf_mask = "X", x, "Y", y, mask_y
    else:
        u_side, u, v_side, v, leaf_mask = "Y", y, "X", x, mask_x
    cand = leaf_mask[v] & ~(1 << u)
    leaves = []
    while avail:
        low = avail & -avail
        leaves.append(low.bit_length() - 1)
        avail ^= low

    chosen: list[int] = []

    def extend(start: int, cand: int) -> int | None:
        if len(chosen) == k:
            return cand
        for pos in range(start, len(leaves)):
            leaf = leaves[pos]
            remaining = cand & ~leaf_mask[leaf]
            if remaining.bit_count() < l:
                continue
            chosen.append(leaf)
            got = extend(pos + 1, remaining)
            if got is not None:
                return got
            chosen.pop()
        return None

    rest = extend(0, cand)
    if rest is None:
        return None
    picked = []
    for _ in range(l):
        low = rest & -rest
        picked.append(low.bit_length() - 1)
        rest ^= low
    return StarWitness(
        k,
        l,
        VertexRef(u_side, u),
        VertexRef(v_side, v),
        tuple(VertexRef(v_side, b) for b in chosen),
        tuple(VertexRef(u_side, a) for a in picked),
    )


def reference_good_leaf_star(graph: BipartiteGraph, k: int, l: int) -> StarWitness | None:
    """The good-leaf detector as first written, which counts every vertex
    at distance 2 from the l-center for its good mask (O(n^2) mask
    operations on K(n,n) minus a perfect matching, where every good mask
    is empty).

    First induced copy in edge order, or None when the graph is free.

    Edges are scanned sorted by (x, y); for each edge the X endpoint is
    tried as the k-leaf center before the Y endpoint (the second
    orientation only matters when k != l).  An orientation is skipped
    when the k-center has at most k neighbours or the l-center at most l
    (the other center is a neighbour of each and never a leaf), and
    before any leaf search when fewer than k of the k-center's
    neighbours are good leaves for the l-center.
    """
    if k < 1 or l < 1:
        raise ValueError("both leaf counts must be at least 1")
    masks = _reference_neighbor_masks(graph)
    mask_x, mask_y = masks
    deg_x, deg_y = graph.degrees()
    good_x: list[int | None] = [None] * graph.n_x
    good_y: list[int | None] = [None] * graph.n_y
    for x, y in graph.edge_list:
        if deg_x[x] > k and deg_y[y] > l:
            good = good_y[y]
            if good is None:
                good = good_y[y] = _reference_good_leaves(
                    mask_y, mask_x, graph.neighbors_y(y), y, l
                )
            avail = mask_x[x] & good
            if avail.bit_count() >= k:
                w = _reference_good_leaf_star_at_edge(masks, x, y, k, l, avail, u_on_x=True)
                if w is not None:
                    return w
        if k != l and deg_y[y] > k and deg_x[x] > l:
            good = good_x[x]
            if good is None:
                good = good_x[x] = _reference_good_leaves(
                    mask_x, mask_y, graph.neighbors_x(x), x, l
                )
            avail = mask_y[y] & good
            if avail.bit_count() >= k:
                w = _reference_good_leaf_star_at_edge(masks, x, y, k, l, avail, u_on_x=False)
                if w is not None:
                    return w
    return None


def violation_sides(
    graph: BipartiteGraph, f_x: list[int], f_y: list[int], a: tuple[int, ...]
) -> tuple[int, int]:
    lhs = sum(f_x[x] for x in a)
    rhs = 0
    for y in range(graph.n_y):
        d_a = sum(1 for x in graph.neighbors_y(y) if x in set(a))
        if d_a > 0:
            rhs += min(f_y[y], d_a)
    return lhs, rhs


def assert_regular_spanning(
    graph: BipartiteGraph, factor: Factor, k: int, connected: bool = False
) -> None:
    assert set(factor.edge_list) <= set(graph.edge_list)
    deg_x = [0] * graph.n_x
    deg_y = [0] * graph.n_y
    for x, y in factor.edge_list:
        deg_x[x] += 1
        deg_y[y] += 1
    assert all(d == k for d in deg_x), f"X degrees {deg_x}"
    assert all(d == k for d in deg_y), f"Y degrees {deg_y}"
    if connected:
        seen = {("X", 0)}
        stack = [("X", 0)]
        adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
        for x, y in factor.edge_list:
            adj.setdefault(("X", x), []).append(("Y", y))
            adj.setdefault(("Y", y), []).append(("X", x))
        while stack:
            v = stack.pop()
            for w in adj.get(v, []):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == graph.n_x + graph.n_y, "factor not connected"


def assert_same_factor(got: Factor, want: Factor) -> None:
    """Every field the two factors hold agrees, and so do == and hash."""
    assert (got.n_x, got.n_y, got.host) == (want.n_x, want.n_y, want.host)
    assert got.edge_list == want.edge_list and got.edge_set == want.edge_set
    assert (got._adj_x, got._adj_y) == (want._adj_x, want._adj_y)
    assert (got.comp_x, got.comp_y, got.n_components) == (
        want.comp_x, want.comp_y, want.n_components
    )
    assert got == want and hash(got) == hash(want)


def labelled(factor: Factor) -> bool:
    """Whether ``factor`` holds any of its component labels (comp_x, comp_y,
    n_components) yet; reads none, so labels nothing."""
    for slot in (Factor.comp_x, Factor.comp_y, Factor.n_components):
        try:
            slot.__get__(factor, Factor)
        except AttributeError:
            continue
        return True
    return False


def assert_labels_on_read(build, read_by_build: bool = False) -> None:
    """``build()`` twice: one factor has its labels read at once, the
    other only after ==, hash and serialize_factor, which must not label
    it.  Both give the same answers, and both read the labels of
    reference_labels.  ``read_by_build`` is whether ``build`` itself reads
    them, as a stuck report does.
    """
    first = build()
    labels = (first.comp_x, first.comp_y, first.n_components)
    late = build()
    assert labelled(late) == read_by_build
    assert late == first and first == late and hash(late) == hash(first)
    if late.regularity() is not None:
        assert serialize_factor(late) == serialize_factor(first)
    assert labelled(late) == read_by_build
    assert labels == (late.comp_x, late.comp_y, late.n_components) == reference_labels(late)


def assert_flow_and_oracle_labels_on_read(host: BipartiteGraph, k: int) -> int:
    """assert_labels_on_read on the flow's k-factor of ``host`` and on the
    oracle's k-factor witness, where they exist; how many were checked."""
    demand = DegreeDemand.uniform(host, k)
    checked = 0
    if isinstance(find_f_factor(host, demand), Factor):
        assert_labels_on_read(lambda: find_f_factor(host, demand))
        checked += 1
    if brute_force_f_factor(host, demand.f_x, demand.f_y).exists:
        assert_labels_on_read(lambda: brute_force_f_factor(host, demand.f_x, demand.f_y).witness)
        checked += 1
    return checked


def assert_pipeline_as_rebuilt(
    host: BipartiteGraph, k: int, l: int | None = None
) -> Factor | StuckReport:
    """The flow's k-factor of ``host`` and connect_factor's result on it
    each equal the validating build Factor(host, edge_list), which walks
    the host, and pass check_factor.  A stuck
    result's factor is compared too, and its report's bytes must equal
    those of the report on the rebuilt factor.  Returns
    connect_factor's result.
    """
    start = find_f_factor(host, DegreeDemand.uniform(host, k))
    assert isinstance(start, Factor), start
    assert_same_factor(start, Factor(host, start.edge_list))
    check_factor(host, start, k, connected=False)
    result = connect_factor(host, start, l=l)
    stuck = isinstance(result, StuckReport)
    end = result.factor if stuck else result
    rebuilt = Factor(host, end.edge_list)
    assert_same_factor(end, rebuilt)
    check_factor(host, end, k, connected=not stuck)
    if stuck:
        want = _build_stuck_report(host, rebuilt, k, l)
        assert serialize_stuck_report(result) == serialize_stuck_report(want)
    return result


def linked_quadrilateral_host(n: int) -> BipartiteGraph:
    """K(n, n) minus the perfect matching x = y on X0.. and Y0.., and the
    quadrilateral Xn, X(n+1), Yn, Y(n+1) joined to it by the one edge
    Xn-Y(n-1).

    That edge is a bridge, so every 2-factor holds the quadrilateral and
    no exchange merges it: at k = 2 the connecting loop merges the rest
    and sticks with two components.  When the flow's 2-factor of the rest
    has several components, the quadrilateral's id in the loop's tracking
    is not 1, its id in discovery order.
    """
    dense = [(x, y) for x in range(n) for y in range(n) if x != y]
    square = [(x, y) for x in (n, n + 1) for y in (n, n + 1)]
    return BipartiteGraph(n + 2, n + 2, dense + square + [(n, n - 1)])


def quadrilateral_chain_host(m: int) -> BipartiteGraph:
    """A doubled 2m-cycle labelled quadrilateral by quadrilateral: the
    Y half of each block X(2i), X(2i+1), Y(2i), Y(2i+1) is joined
    completely to its own X half and to the X half of block i + 1, mod m.
    The flow's 2-factor is the m quadrilaterals, and no primary exchange
    merges them."""
    edges = []
    for i in range(m):
        j = (i + 1) % m
        edges += [(2 * i + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
        edges += [(2 * j + a, 2 * i + b) for a in (0, 1) for b in (0, 1)]
    return BipartiteGraph(2 * m, 2 * m, edges)


@pytest.fixture
def p4() -> BipartiteGraph:
    from bifactor import path_graph

    return path_graph(4)


@pytest.fixture
def k33() -> BipartiteGraph:
    from bifactor import complete_bipartite

    return complete_bipartite(3, 3)
