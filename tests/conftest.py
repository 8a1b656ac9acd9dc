"""Shared fixtures and independent reference checks.

Everything here recomputes from first principles and shares no code with
the implementations under test: witnesses are validated by counting
induced edges, the detector's choice of witness by enumerating leaf
subsets in order and by the bitset detector as first written, which
tries every neighbour of the k-center as a leaf, star-pair freeness by
scanning vertex subsets for the tree profile, violators by evaluating
both sides of the inequality directly, the connecting loop's moves by
the loop as first written, which rebuilds the factor after every move
and recounts every candidate from scratch with union-find, and the flow
solver's factor and violator by the flow network as first written, with
a recursive augmenting search, the violator shrink as first written,
which re-evaluates every trial set from scratch, the graph reader
and constructor as first written, which check every edge line by line,
and the stuck report as first written, which looks up each vertex's
component through per-vertex accessors and scans its neighbourhood
again for the inside count.

Every test runs under a time limit: a test that hangs ends the run with
a traceback of every thread and a nonzero exit instead of stalling it.
"""

from __future__ import annotations

import faulthandler
import os
import sys
from collections.abc import Iterator
from itertools import combinations
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
    find_links,
    make_certificate,
)
from bifactor.connect import DegreeAuditRecord, LinkIsolation
from bifactor.errors import (
    DuplicateEdgeError,
    FakeCertificateError,
    GraphFormatError,
    IndexOutOfRangeError,
    MalformedHeaderError,
)
from bifactor.factors import _evaluate_violation
from bifactor.graph import MAX_CLASS_SIZE

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


@st.composite
def connected_bipartite_graphs(draw, max_side: int = 4):
    from hypothesis import assume

    graph = draw(bipartite_graphs(max_side=max_side))
    assume(graph.is_connected() and graph.m > 0)
    return graph


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


def _count_after(graph: BipartiteGraph, factor: Factor, removed, added) -> int:
    edges = set(factor.edge_set)
    edges.difference_update(removed)
    edges.update(added)
    return component_count(graph.n_x, graph.n_y, edges)


def _reference_primary(graph: BipartiteGraph, factor: Factor) -> SwapMove | None:
    base = factor.n_components
    for link in find_links(graph, factor):
        x, y = link.u.index, link.v.index
        for u2 in factor.neighbors_x(x):
            for v2 in factor.neighbors_y(y):
                if not graph.has_edge(v2, u2) or (v2, u2) in factor.edge_set:
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
                        if cross1 in factor.edge_set or cross2 in factor.edge_set:
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


def reference_connect(
    graph: BipartiteGraph, factor: Factor, l: int | None = None
) -> tuple[Factor | StuckReport, list]:
    """The connecting loop as first written: (result, trace).

    After every move all links are re-created from a rebuilt factor;
    primary moves over all links come first, then secondary moves over all
    same-side pairs in distinct components, each candidate recounted from
    scratch over a copy of the edge set.
    """
    k = factor.regularity()
    trace = []
    current = factor
    while current.n_components > 1:
        move = _reference_primary(graph, current) or next(
            reference_secondary_moves(graph, current), None
        )
        if move is None:
            return reference_stuck_report(graph, current, k, l), trace
        current = apply_swap(current, move)
        if component_count(graph.n_x, graph.n_y, current.edge_list) != current.n_components:
            raise AssertionError("factor labels disagree with the recount")
        trace.append((move, current.n_components))
    return current, trace


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

    def max_flow(self, s: int, t: int) -> int:
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
    graph: BipartiteGraph, demand: DegreeDemand
) -> Factor | ViolatorCertificate:
    """find_f_factor over the flow network and the shrink as first written.

    The Dinic search recurses once per path vertex, so it needs a
    recursion limit above the longest augmenting path; the violator is the
    X side of a separate residual reachability pass, shrunk by
    reference_shrink_violator.
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
    if net.max_flow(source, sink) == sum(demand.f_x):
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


@pytest.fixture
def p4() -> BipartiteGraph:
    from bifactor import path_graph

    return path_graph(4)


@pytest.fixture
def k33() -> BipartiteGraph:
    from bifactor import complete_bipartite

    return complete_bipartite(3, 3)
