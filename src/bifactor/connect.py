"""Turning regular factors into connected ones by edge exchanges.

A *link* is a host-graph edge joining two components of a factor.  The
primary move removes one factor edge at each end of a link and re-adds the
link plus one fresh cross edge, so it preserves every degree.

For a k-regular factor with k >= 2 every such move merges the two
components, so the loop proves progress instead of recounting.  Suppose
x-u were a bridge of a k-regular bipartite component, and let C be x's
side once it is removed, with parts P (holding x) and Q.  Counting C's
edges from each part gives k|P| - 1 = k|Q|, impossible for k >= 2.  So
dropping x-u2 and v2-y leaves the components A of x and B of y each
connected, and adding x-y and v2-u2 joins them.  The fresh edge v2-u2
runs between A and B, so it is never a factor edge.  For k <= 1 no
exchange merges anything: a 1-factor's edges are all bridges.

The connecting loop tries primary moves only.  The other natural
exchange, swapping the factor neighbors of two same-side vertices in
different components, is always a primary candidate.  Swapping X
vertices i1 and i2 (factor neighbors w1 and w2) drops i1-w1 and i2-w2
and adds i1-w2 and i2-w1.  The added edge i1-w2 joins two components, so
it is a link; w1 is a factor neighbor of i1 and i2 one of w2; so the
primary candidate on link i1-w2 with fresh edge i2-w1 removes and adds
the same four edges.  The Y side is symmetric.  So the primary scan
finds a move whenever such a swap would help.

The loop keeps one working copy of the factor (sorted adjacency,
component labels, and the members of each label as listed by
``_component_vertex_sets``) and
updates it in place after each move.  It also keeps, per x, a resume
index: the length of the prefix of N_G(x) whose y's share x's component.
Each scan first moves that index past the y's that have joined x's
component since, then reads the row from there, so host edges inside a
component are skipped once, not once per move.  This is exact because
components only merge: a y that shares x's component goes on sharing it,
so the prefix never holds a link, and the first exchangeable link, hence
every move, is the one a scan from X0 over whole rows would find.  The
loop builds a ``Factor`` once, at the end, from that adjacency as it
stands, still sorted, so nothing is sorted or indexed again.  The
loop's ids stay internal: it tells a connected result by its component
count, and the result labels itself on first read, as a stuck report
reads it.  It does not walk the host: every edge the loop adds was found
by bisecting a host row.  ``check_factor``, which both pipelines run on
their answer, is the independent check of its edges and components.

A factor on which no exchange merges two components is *stuck*.  Stuck
states are audited, not asserted away: the report carries every link,
whether the factor neighborhoods of each link are fully non-adjacent, and
per-vertex degree tallies against the bounds that hold in a genuinely
stuck state of a pattern-free graph.  When those bounds together cap a vertex's degree
below the host's minimum degree, the stuck state is impossible under the
stated hypotheses and the report flags the contradiction.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import NamedTuple

from .errors import (
    HypothesisViolatedError,
    NotConnectedError,
    NotRegularError,
    ParamOrderError,
    StructureUnrecognizedError,
    TheoremContradictionError,
)
from .factors import DegreeDemand, ViolatorCertificate, find_f_factor
from .graph import (
    BipartiteGraph,
    Edge,
    Factor,
    VertexRef,
    _component_labels,
    _stray_edge,
    _transpose,
)
from .structure import find_induced_star


# -- minimum-degree thresholds -------------------------------------------------


def threshold_c_raw(k: int, l: int) -> int:
    """The connectivity threshold formula with no parameter gate."""
    return max((k**3 + 1) * (2 * l - 2 * k - 1) + l, 2 * (k * k - k + l))


def threshold_c(k: int, l: int) -> int:
    """Minimum degree above which a connected k-regular factor is promised.

    Defined for 2 <= k <= l only; exact integer arithmetic throughout.
    """
    if k < 2 or k > l:
        raise ParamOrderError(f"need 2 <= k <= l, got k={k}, l={l}")
    return threshold_c_raw(k, l)


def threshold_c_prime(k: int, l: int, m: int) -> int:
    """Minimum degree above which an m-regular factor is promised."""
    if k < 1 or l < 1 or m < 1:
        raise ParamOrderError(f"need k, l, m >= 1, got k={k}, l={l}, m={m}")
    return 2 * max(k, l, m) ** 2


# -- links and swaps -----------------------------------------------------------


class Link(NamedTuple):
    """A host edge joining two distinct factor components."""

    u: VertexRef  # X endpoint
    v: VertexRef  # Y endpoint
    component_u: int
    component_v: int


class SwapMove(NamedTuple):
    """A degree-preserving exchange: drop ``removed``, add ``added``."""

    kind: str  # always 'primary'
    removed: tuple[Edge, Edge]
    added: tuple[Edge, Edge]


def find_links(graph: BipartiteGraph, factor: Factor) -> tuple[Link, ...]:
    """All links, sorted by (x, y)."""
    links = []
    comp_y = factor.comp_y
    for x, (cu, ys) in enumerate(zip(factor.comp_x, graph._adj_x)):
        for y in ys:
            cv = comp_y[y]
            if cu != cv:
                links.append(Link(VertexRef("X", x), VertexRef("Y", y), cu, cv))
    return tuple(links)


def _component_vertex_sets(factor: Factor) -> list[tuple[list[int], list[int]]]:
    """Per component: (sorted X indices, sorted Y indices)."""
    out: list[tuple[list[int], list[int]]] = [([], []) for _ in range(factor.n_components)]
    for x, c in enumerate(factor.comp_x):
        out[c][0].append(x)
    for y, c in enumerate(factor.comp_y):
        out[c][1].append(y)
    return out


class _Exchanger:
    """Mutable working copy of a k-regular factor for the connecting loop.

    Holds sorted factor adjacency lists, component labels, the member
    lists of each label and, per x, the resume index of its host row (see
    the module docstring); accepted exchanges update them in place, and
    the indices only grow.  Label ids are internal: a merge relabels the
    smaller component with the larger one's id.
    """

    def __init__(self, graph: BipartiteGraph, factor: Factor, k: int):
        self.graph = graph
        self.k = k
        self.adj_x = list(map(list, factor._adj_x))
        self.adj_y = list(map(list, factor._adj_y))
        self.comp_x = list(factor.comp_x)
        self.comp_y = list(factor.comp_y)
        self.members = _component_vertex_sets(factor)
        self.count = factor.n_components
        self.resume = [0] * graph.n_x

    def first_exchange(self, x: int, y: int) -> tuple[int, int] | None:
        """First primary exchange on link (x, y): (u2, v2), or None.

        Candidates scan N_F(x) and N_F(y) in index order; the fresh edge
        v2-u2 must exist in the host, which a bisection of N_G(v2) tells.
        It runs between the two components, so it is never a factor edge,
        and for k >= 2 the exchange merges them (see the module docstring).
        """
        host = self.graph._adj_x
        nbrs_y = self.adj_y[y]
        for u2 in self.adj_x[x]:
            for v2 in nbrs_y:
                row = host[v2]
                i = bisect_left(row, u2)
                if i < len(row) and row[i] == u2:
                    return u2, v2
        return None

    def step(self) -> SwapMove | None:
        """Apply the first exchange over all links, in (x, y) order; None
        when there is none or k < 2, where no exchange merges anything.

        Each row N_G(x) is read from its resume index on, after first
        moving that index past the y's that now share x's component.
        """
        if self.k < 2:
            return None
        comp_x, comp_y, resume = self.comp_x, self.comp_y, self.resume
        for x, ys in enumerate(self.graph._adj_x):
            cx = comp_x[x]
            start, end = resume[x], len(ys)
            while start < end and comp_y[ys[start]] == cx:
                start += 1
            resume[x] = start
            for y in ys[start:]:
                if cx == comp_y[y]:
                    continue
                found = self.first_exchange(x, y)
                if found is not None:
                    u2, v2 = found
                    self._apply(x, u2, v2, y)
                    return SwapMove("primary", ((x, u2), (v2, y)), ((x, y), (v2, u2)))
        return None

    def _apply(self, x: int, u2: int, v2: int, y: int) -> None:
        adj_x, adj_y = self.adj_x, self.adj_y
        adj_x[x].remove(u2)
        insort(adj_x[x], y)
        adj_x[v2].remove(y)
        insort(adj_x[v2], u2)
        adj_y[y].remove(v2)
        insort(adj_y[y], x)
        adj_y[u2].remove(x)
        insort(adj_y[u2], v2)
        keep, gone = self.comp_x[x], self.comp_y[y]
        kept, moved = self.members[keep], self.members[gone]
        if len(kept[0]) + len(kept[1]) < len(moved[0]) + len(moved[1]):
            keep, gone, kept, moved = gone, keep, moved, kept
        for i in moved[0]:
            self.comp_x[i] = keep
        for j in moved[1]:
            self.comp_y[j] = keep
        kept[0].extend(moved[0])
        kept[1].extend(moved[1])
        self.members[gone] = ([], [])
        self.count -= 1

    def factor(self) -> Factor:
        """The factor as it stands, labelled afresh on its first read."""
        return Factor._from_adjacency(self.graph, self.adj_x, self.adj_y)


# -- stuck-state reporting -----------------------------------------------------


class LinkIsolation(NamedTuple):
    """Whether the factor neighborhoods at a link are mutually non-adjacent."""

    link: Link
    joining_edges: tuple[Edge, ...]  # host edges between N_F(u) and N_F(v)

    @property
    def isolated(self) -> bool:
        return not self.joining_edges


class DegreeAuditRecord(NamedTuple):
    """One measured degree against one bound; ok is None when no bound applies."""

    name: str  # 'outside-own-component' | 'inside-own-component'
    vertex: VertexRef
    value: int
    bound: int | None
    ok: bool | None


class StuckReport(NamedTuple):
    factor: Factor
    links: tuple[Link, ...]
    isolation: tuple[LinkIsolation, ...]
    neighborhoods_isolated: bool
    degree_audits: tuple[DegreeAuditRecord, ...]
    k: int
    l: int | None
    min_degree: int
    contradiction: bool
    contradiction_vertices: tuple[VertexRef, ...]


def _build_stuck_report(
    graph: BipartiteGraph, factor: Factor, k: int, l: int | None
) -> StuckReport:
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

    def audit(name: str, v: VertexRef, value: int, bound: int | None) -> DegreeAuditRecord:
        return DegreeAuditRecord(name, v, value, bound, None if bound is None else value <= bound)

    outside = dict.fromkeys(graph.vertices(), 0)  # X0.. then Y0..
    for link in links:  # the host edges that leave a vertex's component
        outside[link.u] += 1
        outside[link.v] += 1
    endpoints = dict.fromkeys(v for link in links for v in (link.u, link.v))
    audits = [audit("outside-own-component", v, n, bound_out) for v, n in outside.items()]
    audits += [
        audit("inside-own-component", v, len(graph.neighbors(v)) - outside[v], bound_in)
        for v in endpoints
    ]

    delta = graph.min_degree()
    contradiction_vertices: tuple[VertexRef, ...] = ()
    if l is not None and links:
        # In a genuinely stuck pattern-free state both bounds apply, so a
        # link endpoint's degree is capped by their sum; a cap under the
        # minimum degree is impossible.
        if bound_out + bound_in < delta:
            contradiction_vertices = tuple(sorted(endpoints))
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


def serialize_stuck_report(report: StuckReport) -> str:
    lines = []
    for link in report.links:
        lines.append(
            f"LINK {link.u.label} {link.v.label} {link.component_u} {link.component_v}"
        )
    for rec in report.isolation:
        if rec.isolated:
            lines.append(f"EQ10 {rec.link.u.label} {rec.link.v.label} HOLDS")
        else:
            a, b = rec.joining_edges[0]
            lines.append(
                f"EQ10 {rec.link.u.label} {rec.link.v.label} FAILS X{a} Y{b}"
            )
    lines.append(f"EQ10 ALL {'HOLDS' if report.neighborhoods_isolated else 'FAILS'}")
    for rec in report.degree_audits:
        verdict = "NA" if rec.ok is None else ("OK" if rec.ok else "EXCEEDS")
        bound = "-" if rec.bound is None else str(rec.bound)
        lines.append(
            f"DEG-AUDIT {rec.name} {rec.vertex.label} {rec.value} {bound} {verdict}"
        )
    lines.append(f"CONTRADICTION {'RAISED' if report.contradiction else 'CLEAR'}")
    for v in report.contradiction_vertices:
        lines.append(f"CONTRADICTION-VERTEX {v.label}")
    return "\n".join(lines) + "\n"


# -- the connecting loop -------------------------------------------------------


def connect_factor(
    graph: BipartiteGraph,
    factor: Factor,
    l: int | None = None,
    trace: list | None = None,
) -> Factor | StuckReport:
    """Drive a regular factor to one component, or report the stuck state.

    Links are scanned in (x, y) order; the first primary move with a fresh
    host edge is applied and the scan restarts.  ``l`` only feeds the stuck
    report's degree bounds.  ``trace`` (when a list) collects (move, count)
    pairs as moves are accepted.

    The host's connectivity is checked only when the factor is not regular
    or the loop ends with more than one component, so NotConnectedError
    still comes before NotRegularError.  A spanning factor of a
    disconnected host can never reach one component, so such a host always
    raises NotConnectedError, but ``trace`` may by then hold the moves the
    loop made inside the host's components.
    """
    k = factor.regularity()
    if k is not None:
        state = _Exchanger(graph, factor, k)
        while state.count > 1:
            move = state.step()
            if move is None:
                break
            if trace is not None:
                trace.append((move, state.count))
        current = state.factor()
        if state.count <= 1:
            return current
    if not graph.is_connected():
        raise NotConnectedError("host graph is disconnected; no factor can connect it")
    if k is None:
        raise NotRegularError("connectivity search expects a regular factor")
    return _build_stuck_report(graph, current, k, l)


# -- pipelines -----------------------------------------------------------------


def check_factor(
    graph: BipartiteGraph, factor: Factor, k: int, connected: bool
) -> None:
    """Independent validity check: edges, regularity, spanning, connectivity.

    Recomputes everything from the factor's rows N(x) alone, not from its
    Y rows or its component labels; raises AssertionError on any breach.
    Pipelines run this before returning a factor.
    """
    if (factor.n_x, factor.n_y) != (graph.n_x, graph.n_y):
        raise AssertionError(
            f"factor on {factor.n_x}x{factor.n_y} vertices, host on {graph.n_x}x{graph.n_y}"
        )
    rows = factor._adj_x
    stray = _stray_edge(rows, graph._adj_x)
    if stray is not None:
        raise AssertionError(f"edge {stray} not in host")
    dx = list(map(len, rows))
    adj_y = _transpose(rows, graph.n_y)
    dy = list(map(len, adj_y))
    if not all(d == k for d in dx):
        raise AssertionError(f"X degrees {dx} != {k}")
    if not all(d == k for d in dy):
        raise AssertionError(f"Y degrees {dy} != {k}")
    if connected and _component_labels(rows, adj_y)[2] > 1:
        raise AssertionError("factor is not connected")


def cycle_order(factor: Factor) -> tuple[VertexRef, ...]:
    """Vertex rotation of a connected 2-regular factor.

    Starts at X0 and moves toward its lower-indexed factor neighbor.  The
    factor is connected exactly when that walk does not come back to X0
    before it has taken n_x + n_y steps, so no component labels are read.
    """
    if factor.regularity() == 2:
        rows = (factor._adj_x, factor._adj_y)
        prev, cur = rows[0][0][1], 0  # as if X0 were entered from its higher neighbour
        order = [0]
        for step in range(factor.n_x + factor.n_y - 1):
            a, b = rows[step & 1][cur]  # each row is the two factor neighbours
            prev, cur = cur, b if a == prev else a
            order.append(cur)
        if 0 not in order[2::2]:  # the X positions after the start
            return tuple(VertexRef("XY"[i & 1], v) for i, v in enumerate(order))
    raise NotRegularError("cycle order needs a connected 2-regular factor")


def _hypotheses(
    graph: BipartiteGraph, k: int, l: int, min_degree: int
) -> None:
    if not graph.is_connected():
        raise HypothesisViolatedError("connected", "host graph is disconnected")
    if not graph.is_balanced():
        raise HypothesisViolatedError(
            "balance", f"classes have sizes {graph.n_x} and {graph.n_y}"
        )
    delta = graph.min_degree()
    if delta < min_degree:
        raise HypothesisViolatedError("min_degree", f"minimum degree {delta} < {min_degree}")
    witness = find_induced_star(graph, k, l)
    if witness is not None:
        raise HypothesisViolatedError(
            "skl_free", f"graph contains an induced ({k},{l}) star pair", report=witness
        )


def _regular_factor_connected(
    graph: BipartiteGraph, k: int, l: int, min_degree: int, degree: int
) -> Factor | StuckReport:
    """The head both pipelines share: check the hypotheses (connected,
    balanced, minimum degree at least ``min_degree``, no induced (k, l)
    star pair), find a ``degree``-regular factor by flow and run the
    connecting loop on it."""
    _hypotheses(graph, k, l, min_degree)
    got = find_f_factor(graph, DegreeDemand.uniform(graph, degree))
    if isinstance(got, ViolatorCertificate):
        raise TheoremContradictionError(
            f"no {degree}-regular factor despite satisfied hypotheses", report=got
        )
    return connect_factor(graph, got, l=l)


def connected_k_factor(graph: BipartiteGraph, k: int, l: int) -> Factor:
    """Connected k-regular spanning subgraph under the degree threshold.

    Hypotheses (checked, in order): connected, balanced, minimum degree at
    least threshold_c(k, l), no induced (k, l) star pair.  A certificate or
    a stuck state under these hypotheses is impossible, so either raises
    TheoremContradictionError and the caller should treat it as a bug.
    """
    result = _regular_factor_connected(graph, k, l, threshold_c(k, l), k)
    if isinstance(result, StuckReport):
        raise TheoremContradictionError(
            "connectivity search stuck despite satisfied hypotheses", report=result
        )
    check_factor(graph, result, k, connected=True)
    return result


def _swap_alternating_cycle(
    graph: BipartiteGraph, factor: Factor, x: int, y: int
) -> Factor | None:
    """``factor`` with a shortest alternating cycle through the host edge
    x-y outside it swapped, or None when there is none.

    The cycle is x-y and a path from y back to x, found by breadth-first
    search in index order, that leaves each Y vertex by a factor edge and
    each X vertex by a host edge outside the factor: swapping its edges in
    and out keeps every degree.
    """
    via_x: dict[int, int] = {}  # X vertex -> the Y vertex before it
    via_y = {y: x}  # Y vertex -> the X vertex before it
    queue = [y]
    for b in queue:  # grows as the search goes
        for a in factor._adj_y[b]:
            if a == x:
                cycle = {(x, y), (x, b)}
                while b != y:
                    a = via_y[b]
                    cycle |= {(a, b), (a, via_x[a])}
                    b = via_x[a]
                return Factor(graph, factor.edge_set ^ cycle)
            if a not in via_x:
                via_x[a] = b
                for b2 in graph._adj_x[a]:
                    if b2 not in via_y and b2 not in factor._adj_x[a]:
                        via_y[b2] = a
                        queue.append(b2)
    return None


def _exchange_stage(graph: BipartiteGraph, result: Factor | StuckReport) -> Factor:
    """The factor of ``result`` connected by alternating-cycle exchanges.

    Two k-factors differ by alternating cycles, so a stuck factor may
    still connect by a longer exchange than the loop's.  Each link of a
    stuck state, in (x, y) order, is tried once: the first exchange of its
    shortest alternating cycle that lowers the component count is kept,
    and the connecting loop resumes from it.  StructureUnrecognizedError,
    carrying the stuck report, when no link's cycle merges two components.
    """
    while isinstance(result, StuckReport):
        stuck = result.factor
        for link in result.links:
            swapped = _swap_alternating_cycle(graph, stuck, link.u.index, link.v.index)
            if swapped is not None and swapped.n_components < stuck.n_components:
                break
        else:
            raise StructureUnrecognizedError(
                "no alternating cycle through a link merges two components", report=result
            )
        result = connect_factor(graph, swapped, l=result.l)
    return result


def hamilton_s13(graph: BipartiteGraph) -> Factor:
    """Hamilton cycle of a connected balanced (1,3)-star-pair-free graph
    with minimum degree at least 4.

    Pipeline: 2-regular factor by flow, then the connecting loop and, if
    that sticks, the exchange stage; StructureUnrecognizedError (carrying
    the stuck report) when the stage cannot merge two components either.
    """
    result = _exchange_stage(graph, _regular_factor_connected(graph, 1, 3, 4, 2))
    check_factor(graph, result, 2, connected=True)
    return result
