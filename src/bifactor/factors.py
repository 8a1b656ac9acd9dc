"""Degree-constrained spanning subgraphs of bipartite graphs.

Existence is decided by a unit-capacity flow network: source -> x with
capacity f(x), one arc per graph edge, y -> sink with capacity f(y).  A
saturating flow yields the factor; a shortfall yields a set A of X-vertices
whose demand exceeds what its neighborhood can absorb:

    sum_{x in A} f(x)  >  sum_{y in N(A)} min(f(y), deg_A(y))

That inequality is the violator certificate.  Certificates are always
re-derivable from the graph alone, and audit_certificate recomputes both
sides from scratch.

Everything here is deterministic: arcs are built in vertex-index order and
augmentation scans adjacency lowest index first, so the same input always
yields the same factor or the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DemandImbalanceError,
    FakeCertificateError,
    NotRegularError,
    SOutOfRangeError,
)
from .graph import BipartiteGraph, Edge, Factor


@dataclass(frozen=True)
class DegreeDemand:
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
        if any(v < 0 for v in self.f_x) or any(v < 0 for v in self.f_y):
            raise ValueError("demands must be non-negative")


@dataclass(frozen=True)
class ViolatorCertificate:
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
    lhs = sum(demand.f_x[x] for x in a)
    deg_a: dict[int, int] = {}
    for x in a:
        for y in graph.neighbors_x(x):
            deg_a[y] = deg_a.get(y, 0) + 1
    per_vertex = tuple((y, min(demand.f_y[y], d)) for y, d in sorted(deg_a.items()))
    rhs = sum(v for _, v in per_vertex)
    return lhs, rhs, per_vertex


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
    violate.

    Greedy single-removal passes in index order, repeated until a pass
    drops nothing.  The slack lhs - rhs and deg_A(y) are kept across
    trials, so trying to drop x costs O(deg x): lhs falls by f(x), and rhs
    by one for each neighbour y whose term min(f(y), deg_A(y)) is still
    deg_A(y).  The input must itself audit; FakeCertificateError
    otherwise.
    """
    if not audit_certificate(graph, demand, cert):
        problems: list[str] = []
        audit_certificate(graph, demand, cert, problems)
        raise FakeCertificateError("; ".join(problems))
    f_x, f_y = demand.f_x, demand.f_y
    deg_a = [0] * graph.n_y
    for x in cert.a:
        for y in graph.neighbors_x(x):
            deg_a[y] += 1
    slack = cert.lhs - cert.rhs  # the audit recomputed both sides
    current = set(cert.a)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for x in sorted(current):
            if len(current) == 1:
                break
            nbrs = graph.neighbors_x(x)
            trial = slack - f_x[x] + sum(1 for y in nbrs if deg_a[y] <= f_y[y])
            if trial > 0:
                slack = trial
                for y in nbrs:
                    deg_a[y] -= 1
                current.remove(x)
                changed = True
    return make_certificate(graph, demand, tuple(current))


# -- flow network -------------------------------------------------------------


class _FlowNet:
    """Dinic max-flow with deterministic arc order and no recursion."""

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

    def max_flow(self, s: int, t: int) -> tuple[int, list[int]]:
        """The maximum flow value and the BFS levels of the final residual
        network; a node has level -1 exactly when s cannot reach it.

        Each phase walks one arc path from s with current-arc pointers
        ``it``: an inadmissible arc, or one ending in a dead end, advances
        its pointer; a path that reaches t keeps its pointers and carries
        its bottleneck capacity.
        """
        head, to, cap = self.head, self.to, self.cap
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for idx in head[u]:
                    v = to[idx]
                    if cap[idx] > 0 and level[v] == -1:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] == -1:
                return flow, level
            it = [0] * self.n
            nodes = [s]  # the path's nodes; path[i] is the arc out of nodes[i]
            path: list[int] = []
            while nodes:
                u = nodes[-1]
                if u == t:
                    pushed = min(cap[idx] for idx in path)
                    for idx in path:
                        cap[idx] -= pushed
                        cap[idx ^ 1] += pushed
                    flow += pushed
                    del nodes[1:], path[:]
                    continue
                arcs, i, want = head[u], it[u], level[u] + 1
                while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == want):
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    nodes.append(to[arcs[i]])
                else:
                    nodes.pop()
                    if path:
                        path.pop()
                        it[nodes[-1]] += 1


def find_f_factor(
    graph: BipartiteGraph, demand: DegreeDemand
) -> Factor | ViolatorCertificate:
    """The spanning subgraph meeting ``demand`` exactly, or a violator.

    Exactly one of the two outcomes is returned.  The certificate is the
    flow's violator shrunk by shrink_violator: no single vertex can be
    dropped from it, though a smaller subset may still violate.  It always
    passes audit_certificate.
    """
    demand.validate_for(graph)
    if not check_demand_balance(demand):
        raise DemandImbalanceError(
            f"total X demand {sum(demand.f_x)} != total Y demand {sum(demand.f_y)}"
        )
    total = sum(demand.f_x)
    n_x, n_y = graph.n_x, graph.n_y
    source = 0
    sink = n_x + n_y + 1
    net = _FlowNet(n_x + n_y + 2)
    for x in range(n_x):
        net.add(source, 1 + x, demand.f_x[x])
    edge_arcs: list[tuple[Edge, int]] = []
    for x in range(n_x):
        for y in graph.neighbors_x(x):
            edge_arcs.append(((x, y), net.add(1 + x, 1 + n_x + y, 1)))
    for y in range(n_y):
        net.add(1 + n_x + y, sink, demand.f_y[y])
    flow, level = net.max_flow(source, sink)
    if flow == total:
        chosen = [e for e, idx in edge_arcs if net.cap[idx] == 0]
        return Factor(graph, chosen)
    # Shortfall: X-vertices still reachable from the source form a violator.
    a = tuple(x for x in range(n_x) if level[1 + x] != -1)
    cert = make_certificate(graph, demand, a)
    return shrink_violator(graph, demand, cert)


# -- regular decomposition -----------------------------------------------------


def regular_decompose(factor: Factor, s: int) -> Factor:
    """An s-regular spanning subgraph of a t-regular factor, 0 <= s <= t.

    The factor splits into t edge-disjoint perfect matchings; the union of
    the first s of them is returned, each the flow's 1-factor of the edges
    the earlier ones left.
    """
    t = factor.regularity()
    if t is None:
        raise NotRegularError("factor is not regular")
    if not (0 <= s <= t):
        raise SOutOfRangeError(f"s={s} outside [0, {t}]")
    host = factor.host
    if t > 0 and host.n_x != host.n_y:
        raise NotRegularError("a positive-degree regular factor needs balanced classes")
    rest = set(factor.edge_list)
    chosen: list[Edge] = []
    for _ in range(s):
        sub = BipartiteGraph(host.n_x, host.n_y, rest)
        matching = find_f_factor(sub, DegreeDemand.uniform(sub, 1))
        if isinstance(matching, ViolatorCertificate):
            raise NotRegularError("matching extraction failed; factor degrees inconsistent")
        chosen.extend(matching.edge_list)
        rest.difference_update(matching.edge_list)
    return Factor(host, chosen)


# -- certificate text format ---------------------------------------------------


def serialize_certificate(cert: ViolatorCertificate) -> str:
    lines = [f"violator {len(cert.a)}"]
    lines.extend(str(x) for x in cert.a)
    lines.append(f"lhs {cert.lhs}")
    lines.append(f"rhs {cert.rhs}")
    return "\n".join(lines) + "\n"
