"""Degree-constrained spanning subgraphs of bipartite graphs.

Existence is decided by a unit-capacity flow run on the graph's own
adjacency: source -> x with capacity f(x), x -> y per edge, y -> sink with
capacity f(y).  A saturating flow yields the factor; a shortfall yields a
set A of X-vertices whose demand exceeds what its neighborhood can absorb:

    sum_{x in A} f(x)  >  sum_{y in N(A)} min(f(y), deg_A(y))

That inequality is the violator certificate.  Certificates are always
re-derivable from the graph alone, and audit_certificate recomputes both
sides from scratch.

The flow keeps its residual state per vertex: the y's of each x's used
edges, the x's holding an edge at each y, and the demand left at each
vertex.  The x's with demand left and the y's with capacity left are
carried from phase to phase as lists, each phase's head filtering the
last phase's, so past the first phase a head costs the free vertices and
no longer scans X.  Everything here is deterministic: augmentation scans
every arc list lowest index first, so the same input always yields the
same factor or the same certificate.  The flow's first phase is one
greedy pass in that same order: each x by index takes its edges to the
lowest-indexed y's with capacity left, starting its walk at the lowest y
that still has any.  A later phase searches only the part of its level
graph that can still reach the sink, found by a walk back from the
sink's layer.  A saturating flow hands its per-vertex edge lists to the
Factor, each x's sorted and each y's already ascending, so the factor
stores them as its adjacency, not sorted and indexed again.  The flow
only moves along host arcs, so the factor does not walk the host to
check its edges; it labels its components on first read, as the
connecting loop and ``bifactor factor`` do.  ``connect.check_factor``
is the independent check of a pipeline's answer.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import compress
from operator import le
from typing import NamedTuple

from .errors import DemandImbalanceError, FakeCertificateError, TheoremContradictionError
from .graph import BipartiteGraph, Factor


class DegreeDemand(NamedTuple):
    """Required degree for every vertex, one entry per X and Y index."""

    f_x: tuple[int, ...]
    f_y: tuple[int, ...]

    @classmethod
    def uniform(cls, graph: BipartiteGraph, k: int) -> "DegreeDemand":
        if k < 0:
            raise ValueError("demands must be non-negative")
        return cls((k,) * graph.n_x, (k,) * graph.n_y)

    def validate_for(self, graph: BipartiteGraph) -> None:
        if len(self.f_x) != graph.n_x or len(self.f_y) != graph.n_y:
            raise ValueError("demand vectors do not match graph class sizes")
        if min(self.f_x, default=0) < 0 or min(self.f_y, default=0) < 0:
            raise ValueError("demands must be non-negative")


class ViolatorCertificate(NamedTuple):
    """A set A of X-indices whose demand outstrips its neighborhood.

    ``per_vertex_rhs`` lists (y, min(f(y), deg_A(y))) for exactly the
    vertices of N(A), sorted by y; ``rhs`` is their sum and ``lhs`` the
    total demand of A.  A valid certificate has lhs > rhs strictly.  The
    certificates find_f_factor returns are 1-minimal (no single vertex of
    A can be dropped), not necessarily inclusion-minimal.
    """

    a: tuple[int, ...]
    lhs: int
    rhs: int
    per_vertex_rhs: tuple[tuple[int, int], ...]


def check_demand_balance(demand: DegreeDemand) -> bool:
    return sum(demand.f_x) == sum(demand.f_y)


def _evaluate_violation(
    graph: BipartiteGraph, demand: DegreeDemand, a: tuple[int, ...]
) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """lhs, rhs and the per-vertex rhs terms for a candidate set A."""
    deg_a: dict[int, int] = {}
    for x in a:
        for y in graph.neighbors_x(x):
            deg_a[y] = deg_a.get(y, 0) + 1
    ys = sorted(deg_a)
    terms = list(map(min, map(demand.f_y.__getitem__, ys), map(deg_a.__getitem__, ys)))
    return sum(map(demand.f_x.__getitem__, a)), sum(terms), tuple(zip(ys, terms))


def make_certificate(
    graph: BipartiteGraph, demand: DegreeDemand, a: tuple[int, ...]
) -> ViolatorCertificate:
    lhs, rhs, per_vertex = _evaluate_violation(graph, demand, a)
    return ViolatorCertificate(tuple(sorted(a)), lhs, rhs, per_vertex)


def audit_certificate(
    graph: BipartiteGraph,
    demand: DegreeDemand,
    cert: ViolatorCertificate,
    report: list[str] | None = None,
) -> bool:
    """Recompute the certificate from scratch; True iff it stands.

    Mismatching stored fields are described in ``report`` when a list is
    passed.  Equality of the two sides is not a violation.
    """
    problems: list[str] = []
    if not cert.a:
        problems.append("set A is empty")
    elif any(not (0 <= x < graph.n_x) for x in cert.a):
        problems.append("set A contains out-of-range indices")
    elif len(set(cert.a)) != len(cert.a):
        problems.append("set A repeats an index")
    else:
        lhs, rhs, per_vertex = _evaluate_violation(graph, demand, cert.a)
        if cert.lhs != lhs:
            problems.append(f"stored lhs {cert.lhs} != recomputed {lhs}")
        if cert.rhs != rhs:
            problems.append(f"stored rhs {cert.rhs} != recomputed {rhs}")
        if tuple(cert.per_vertex_rhs) != per_vertex:
            problems.append("stored per-vertex terms differ from recomputation")
        if not lhs > rhs:
            problems.append(f"no strict violation: lhs {lhs} <= rhs {rhs}")
    if report is not None:
        report.extend(problems)
    return not problems


def shrink_violator(
    graph: BipartiteGraph, demand: DegreeDemand, cert: ViolatorCertificate
) -> ViolatorCertificate:
    """A 1-minimal violator contained in cert.a: dropping any single vertex
    of the result leaves no violation.  It need not be inclusion-minimal;
    a smaller subset that is not reachable by single removals may still
    violate.  The input must itself audit; FakeCertificateError
    otherwise.
    """
    problems: list[str] = []
    if not audit_certificate(graph, demand, cert, problems):
        raise FakeCertificateError("; ".join(problems))
    return _shrink(graph, demand, cert.a)


def _shrink(
    graph: BipartiteGraph, demand: DegreeDemand, a: tuple[int, ...]
) -> ViolatorCertificate:
    """shrink_violator on a set A of distinct, in-range X-indices.

    Greedy single-removal passes in index order, repeated until a pass
    drops nothing.  The slack lhs - rhs and deg_A(y) are kept across
    trials, so trying to drop x costs O(deg x): lhs falls by f(x), and rhs
    by one for each neighbour y whose term min(f(y), deg_A(y)) is still
    deg_A(y).  FakeCertificateError when A does not violate.
    """
    f_x, f_y = demand.f_x, demand.f_y
    deg_a = [0] * graph.n_y
    deg_at, f_at = deg_a.__getitem__, f_y.__getitem__
    for x in a:
        for y in graph.neighbors_x(x):
            deg_a[y] += 1
    lhs, rhs = sum(map(f_x.__getitem__, a)), sum(map(min, f_y, deg_a))
    if not lhs > rhs:
        raise FakeCertificateError(f"no strict violation: lhs {lhs} <= rhs {rhs}")
    slack = lhs - rhs
    current = set(a)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for x in sorted(current):
            if len(current) == 1:
                break
            nbrs = graph.neighbors_x(x)
            trial = slack - f_x[x] + sum(map(le, map(deg_at, nbrs), map(f_at, nbrs)))
            if trial > 0:
                slack = trial
                for y in nbrs:
                    deg_a[y] -= 1
                current.remove(x)
                changed = True
    return make_certificate(graph, demand, tuple(current))


# -- flow -------------------------------------------------------------------


def _max_flow(
    graph: BipartiteGraph, demand: DegreeDemand
) -> tuple[list[set[int]], list[list[int]], list[int]]:
    """Unit-capacity Dinic (Even and Tarjan, 1975) on the graph's own
    adjacency: the y's of each x's used edges, the x's of each y's used
    edges in ascending order, and the X levels of the last BFS (-1 exactly
    when the source cannot reach x; all -1 exactly when the flow
    saturates).

    Residual state is kept per vertex, with no per-edge array: ux[x] holds
    the y's of x's used edges, held[y] the x's holding an edge at y in
    ascending order, rx[x] and ry[y] the demand left, and free_xs and
    open_ys the x's with rx[x] > 0 and the y's with ry[y] > 0 in ascending
    order.  The two lists are carried from phase to phase: since demand
    only falls, each phase's head filters the last phase's lists and
    builds the X levels as all -1 with the free x's set to 1.  Past the
    first phase the head so costs the free vertices and no longer scans X.
    A phase walks paths source, x, y, x, ..., sink with current-arc
    pointers, taking arcs in a fixed order: at the source x by index; at x
    its unused edges by y; at y its used edges by x, then the sink arc.
    The pointer at x is an index into graph.neighbors_x(x); the one at y
    is the least x still to try, n_x standing for the sink arc.  An
    inadmissible arc, or one ending in a dead end, advances its pointer; a
    path that reaches the sink keeps its pointers and carries 1, as it
    alternates unit edge arcs.  A BFS that reaches the sink stops at the
    sink's layer, since nothing beyond it can.

    The first phase runs as one greedy pass: each x by index walks N(x)
    and takes its edges to the first rx[x] y's with ry[y] > 0.  That is
    the phase itself.  With no edge used, every x with demand is at level
    1 and every y it reaches at level 2, so the BFS either stops at the
    sink's layer 3 or reaches no y with capacity.  No x gets level 3, so
    y's held edges never give an admissible arc, and every path the
    search finds is source, x, y, sink, taken in the order above.  A y
    with no capacity left is a dead end for good.  When no y with
    capacity is reachable the pass takes nothing, and the next BFS finds
    the levels the first one would have.

    The pass keeps a pointer lo: every y below it has ry[y] = 0.  Each x
    starts its walk at bisect_left(N(x), lo), and after each walk lo moves
    up past the y's at lo with no capacity left, so only when the y at lo
    fills (or had no demand to begin with).  Capacity only falls during
    the pass, so the y's of N(x) an x skips are ones its walk would have
    passed over, and it takes the same edges.  Where the y's fill in
    index order, as on K(n,n) minus a perfect matching, an x no longer
    walks past the filled part of N(x), half of it on average.

    Before it scans Y layer d from the X frontier, the BFS tests the y's
    of open_ys for an unused edge to the frontier when their total degree
    is below the frontier's.  If some are reached, only they get level d
    and the BFS ends.  The layer's other y's have no capacity, and no x
    has level d + 1, so they are dead ends: each time the search entered
    one it would find no admissible arc and advance the pointer of the x
    it came from, just as skipping it does.  So each phase augments along
    the same paths as with the full layer.

    Before a later phase's search, the level graph is pruned to the
    vertices that can still reach the sink, walking back from the y's
    with capacity at level lt - 1: a kept y at level d keeps each x of
    N(y) at level d - 1 whose edge to it is unused, and a kept x at level
    c keeps each y of ux[x] at level c - 1.  The search then runs on
    fresh level arrays that hold only the kept vertices, starting from the
    kept x's at level 1 in index order.  A phase only removes
    admissible arcs, since the reverse of an arc it augments runs down a
    level, and only lowers capacities.  So a vertex that cannot reach the
    sink when the phase begins never can during it: each time the search
    entered one it would find nothing and advance the pointer of the
    vertex it came from, just as skipping it does, and the phase augments
    along the same paths.  The walk only runs where it can pay: with the
    sink at level 7 or more, and more than two labelled x's per X layer on
    average.  At level 5 almost every labelled vertex of a dense host lies
    on a path, and a level graph of one x per layer, as on a chain, has
    nothing to prune.  The last BFS, which reaches no y with capacity, is
    never pruned, so the levels returned mark every x the source reaches.

    A phase whose BFS reaches the sink finds at least one augmenting path.
    One that finds none would repeat its BFS and search forever, so it
    raises TheoremContradictionError instead.
    """
    n_x, n_y = graph.n_x, graph.n_y
    adj, adj_y = graph._adj_x, graph._adj_y
    rx, ry = list(demand.f_x), [*demand.f_y, 1]  # ry[n_y] stops the first phase's lo
    ux: list = [frozenset()] * n_x  # an x without demand never holds an edge
    held: list[list[int]] = [[] for _ in range(n_y)]
    lo = 0  # every y below lo has no capacity left
    for x in range(n_x):  # the first phase
        need = rx[x]
        if not need:
            continue
        used = ux[x] = set()
        nbrs = adj[x]
        i, end = bisect_left(nbrs, lo) if lo else 0, len(nbrs)
        while i < end:
            y = nbrs[i]
            i += 1
            if ry[y]:
                ry[y] -= 1
                used.add(y)
                held[y].append(x)
                need -= 1
                if not need:
                    break
        rx[x] = need
        while not ry[lo]:
            lo += 1
    free_xs, open_ys = range(n_x), range(n_y)
    while True:
        free_xs = xs = [x for x in free_xs if rx[x]]
        open_ys = [y for y in open_ys if ry[y]]
        open_deg = sum(map(len, map(adj_y.__getitem__, open_ys)))
        lx, ly, lt = [-1] * n_x, [-1] * n_y, -1
        for x in xs:
            lx[x] = 1
        reach = sum(map(len, map(adj.__getitem__, xs)))  # the frontier's total degree
        while xs:
            d = lx[xs[0]] + 1
            if open_deg < reach:  # the layer's y's with capacity, from the sink side
                for y in open_ys:
                    for x in adj_y[y]:
                        if lx[x] == d - 1 and x not in held[y]:
                            ly[y], lt = d, d + 1
                            break
                if lt != -1:
                    break
            ys = []
            for x in xs:
                used = ux[x]
                for y in adj[x]:
                    if ly[y] == -1 and y not in used:
                        ly[y] = d
                        ys.append(y)
                        if ry[y]:
                            lt = d + 1
            if lt != -1:
                break
            xs, reach = [], 0
            for y in ys:
                for x in held[y]:
                    if lx[x] == -1:
                        lx[x] = d + 1
                        xs.append(x)
                        reach += len(adj[x])
        if lt == -1:
            return ux, held, lx
        starts = free_xs
        if lt >= 7 and n_x - lx.count(-1) > lt - 1:  # over 2 x's per X layer
            lx, ly, starts = _prune(graph, ux, lx, ly, lt, open_ys)
        itx, ity, paths = [0] * n_x, [0] * n_y, 0
        for x0 in starts:
            path = [x0]  # the path's X vertices; y = adj[x][itx[x]]
            while path:
                x = path[-1]
                nbrs, used, i, want = adj[x], ux[x], itx[x], lx[x] + 1
                end = len(nbrs)
                while i < end and (ly[y := nbrs[i]] != want or y in used):
                    i += 1
                itx[x] = i
                if i == end:
                    path.pop()
                    if path:
                        ity[adj[path[-1]][itx[path[-1]]]] += 1
                    continue
                j, want = ity[y], want + 1
                for w in held[y]:  # y's unused edges have no residual arc from y
                    if w >= j and lx[w] == want:
                        ity[y] = w
                        path.append(w)
                        break
                else:
                    if j <= n_x and ry[y] and lt == want:
                        ity[y] = n_x
                        for v in path:
                            z = adj[v][itx[v]]
                            w = ity[z]
                            if w < n_x:
                                ux[w].remove(z)
                                held[z].remove(w)
                            ux[v].add(z)
                            insort(held[z], v)
                        rx[x0] -= 1
                        ry[y] -= 1
                        paths += 1
                        path = [x0] if rx[x0] else []
                    else:
                        ity[y] = n_x + 1  # past the sink arc
                        itx[x] += 1
        if not paths:
            raise TheoremContradictionError(
                f"flow phase with the sink at level {lt} found no augmenting path"
            )


def _prune(
    graph: BipartiteGraph, ux: list, lx: list[int], ly: list[int], lt: int, open_ys: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The X and Y levels of the vertices of a later phase's level graph
    that can still reach the sink (-1 for the others), and the kept x's at
    level 1 in index order, walking back from the y's with capacity at
    level lt - 1 (see _max_flow)."""
    kx, ky, adj_y = [-1] * graph.n_x, [-1] * graph.n_y, graph._adj_y
    ys = [y for y in open_ys if ly[y] == lt - 1]
    for y in ys:
        ky[y] = lt - 1
    for d in range(lt - 1, 1, -2):  # keep the X layer d - 1, then the Y layer d - 2
        kept = []
        for y in ys:
            for x in adj_y[y]:
                if lx[x] == d - 1 and kx[x] == -1 and y not in ux[x]:
                    kx[x] = d - 1
                    kept.append(x)
        ys = []
        for x in kept:
            for y in ux[x]:
                if ly[y] == d - 2 and ky[y] == -1:
                    ky[y] = d - 2
                    ys.append(y)
    return kx, ky, sorted(kept)


def find_f_factor(
    graph: BipartiteGraph, demand: DegreeDemand
) -> Factor | ViolatorCertificate:
    """The spanning subgraph meeting ``demand`` exactly, or a violator.

    Exactly one of the two outcomes is returned.  The certificate is the
    set of X-vertices the flow's source still reaches, shrunk as by
    shrink_violator: no single vertex can be dropped from it, though a
    smaller subset may still violate.  It always passes audit_certificate.
    It does not depend on the order in which the flow augments: every
    maximum flow leaves the same vertices reachable from the source in its
    residual graph.
    """
    demand.validate_for(graph)
    if not check_demand_balance(demand):
        raise DemandImbalanceError(
            f"total X demand {sum(demand.f_x)} != total Y demand {sum(demand.f_y)}"
        )
    ux, held, level_x = _max_flow(graph, demand)
    a = tuple(compress(range(graph.n_x), map((-1).__ne__, level_x)))
    if not a:
        return Factor._from_adjacency(graph, map(sorted, ux), held)
    return _shrink(graph, demand, a)


# -- certificate text format ---------------------------------------------------


def serialize_certificate(cert: ViolatorCertificate) -> str:
    lines = [f"violator {len(cert.a)}"]
    lines.extend(str(x) for x in cert.a)
    lines.append(f"lhs {cert.lhs}")
    lines.append(f"rhs {cert.rhs}")
    return "\n".join(lines) + "\n"
