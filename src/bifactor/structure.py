"""Induced two-star detection and sparse-structure classification.

The pattern searched for is the graph of two stars, one with k leaves and
one with l leaves, whose centers are joined by an edge.  In a bipartite
host the centers sit on opposite sides, all leaves of a center sit on its
center's opposite side, and the only adjacency that can spoil inducedness
runs between the two leaf sets.  A detected copy therefore consists of an
edge (u, v), k neighbors of u avoiding v, and l neighbors of v avoiding u,
with no edges between the leaf sets: k + l + 2 vertices carrying exactly
k + l + 1 edges.

The detector builds one neighbour bitmask per vertex (a Python int, one
pass over the edges) and keeps the l-side candidates of each edge as a
bitmask.  Adding a k-side leaf is one ``cand & ~mask[leaf]`` and a
popcount, so a search step costs O(n / 64) word operations.

A k-side leaf b can serve at the edge (u, v) only when
|N(v) \\ N(b)| >= l, and that test does not involve u: b is adjacent to
u, so the candidates it leaves are exactly N(v) \\ N(b).  So the first
time v is the l-center, one "good leaf" mask is built for it over the
vertices at distance 2 from v, and at every edge the k-leaves are the
set bits of ``N(u) & good[v]``.  A leaf subset holding a non-good leaf
would have been abandoned at that leaf, so the first witness is the
same.  The leaf search needs only v and those bits: its candidates start
as N(v), and the first k-leaf drops u from them.  So one loop body, over
per-side tables held as pairs indexed by side, serves both orientations.

Since |N(v) \\ N(b)| is at most the number of b's non-neighbours, only a
"thin" b, one with at least l non-neighbours, can be good.  One pass over
the degrees gives a thin mask per side; good masks are built over thin
candidates only, and when no orientation that runs has a thin k-leaf
side the host is free before any neighbour mask is built.  So on
K(n,n) minus a perfect matching, whose vertices have one non-neighbour
each, a scan with l >= 2 costs O(n) for the degrees alone.

The checks run cheapest first: an orientation is dropped when the
k-center has at most k neighbours or the l-center at most l, before any
good mask is built; then when fewer than k good leaves remain, before
any leaf search.  Otherwise a dense host costs O(n^2) mask operations:
O(n) per good mask and one AND per edge.  With g good leaves at an edge
the search, which backtracks over explicit stacks and so runs for any k,
makes at most C(g, 1) + ... + C(g, k) steps.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EmptyGraphError, NotBipartiteError, NotConnectedError
from .graph import BipartiteGraph, VertexRef, cycle_graph, path_graph


class StarWitness(NamedTuple):
    """An induced copy of the joined pair of stars.

    center_u carries leaves_u (k of them), center_v carries leaves_v
    (l of them), and the edge center_u--center_v is present.
    """

    k: int
    l: int
    center_u: VertexRef
    center_v: VertexRef
    leaves_u: tuple[VertexRef, ...]
    leaves_v: tuple[VertexRef, ...]

    def vertices(self) -> tuple[VertexRef, ...]:
        return (self.center_u, self.center_v) + self.leaves_u + self.leaves_v


def serialize_star_witness(w: StarWitness) -> str:
    lines = [f"star {w.k} {w.l}"]
    lines.append(f"centerU {w.center_u.side} {w.center_u.index}")
    lines.append(f"centerV {w.center_v.side} {w.center_v.index}")
    lines.extend(f"leafU {v.side} {v.index}" for v in w.leaves_u)
    lines.extend(f"leafV {v.side} {v.index}" for v in w.leaves_v)
    return "\n".join(lines) + "\n"


def _neighbor_masks(graph: BipartiteGraph) -> tuple[list[int], list[int]]:
    """Per X vertex the bitmask of its Y neighbours, and vice versa."""
    bit = [1 << i for i in range(max(graph.n_x, graph.n_y))]
    return (
        [sum(map(bit.__getitem__, ys)) for ys in map(graph.neighbors_x, range(graph.n_x))],
        [sum(map(bit.__getitem__, xs)) for xs in map(graph.neighbors_y, range(graph.n_y))],
    )


def _thin_mask(degrees: tuple[int, ...], n_other: int, l: int) -> int:
    """Mask of the vertices with at least l non-neighbours on the other
    side of ``n_other`` vertices."""
    thin = 0
    for b, d in enumerate(degrees):
        if n_other - d >= l:
            thin |= 1 << b
    return thin


def _good_leaves(
    own: list[int], far: list[int], nbrs: tuple[int, ...], v: int, l: int, thin: int
) -> int:
    """Mask of the vertices b at distance 2 from v with |N(v) \\ N(b)| >= l.

    ``own`` holds the neighbour masks of v's side, ``far`` those of the
    other side, ``nbrs`` lists v's neighbours and ``thin`` masks the
    vertices of v's side with at least l non-neighbours.  Only such a b
    can be a k-leaf when v is the l-center: every k-leaf is adjacent to
    the k-center, so the l-side candidates it leaves are exactly
    N(v) \\ N(b).  A b outside ``thin`` misses fewer than l vertices at
    all, so only thin candidates are counted.
    """
    reach = 0
    for a in nbrs:
        reach |= far[a]
    reach &= thin & ~(1 << v)
    nv = own[v]
    shared = len(nbrs) - l  # b is good when |N(v) & N(b)| <= shared
    good = 0
    while reach:
        low = reach & -reach
        if (nv & own[low.bit_length() - 1]).bit_count() <= shared:
            good |= low
        reach ^= low
    return good


def _star_at_edge(
    leaf_mask: list[int], v: int, avail: int, k: int, l: int
) -> tuple[list[int], list[int]] | None:
    """The k-leaves and the l picked leaves of the lexicographically first
    witness with l-center v whose k-leaves come from ``avail``, if any.

    ``leaf_mask`` holds the neighbour masks of v's side, and ``avail``
    masks the k-center's neighbours that are good leaves for v.  Leaf
    subsets of ``avail`` are enumerated in lexicographic order, for any k,
    by backtracking over explicit stacks; a partial subset is abandoned as
    soon as fewer than l candidates for v remain non-adjacent to it.
    Candidates are a bitmask over the k-center's side, and the l picked
    leaves are its l lowest bits.  They start as N(v), which holds the
    k-center u; every k-leaf is adjacent to u, so the first leaf already
    drops it, and the search never needs u.
    """
    leaves, keep = [], []  # keep[pos]: the candidates leaves[pos] spares
    while avail:
        low = avail & -avail
        leaf = low.bit_length() - 1
        leaves.append(leaf)
        keep.append(~leaf_mask[leaf])
        avail ^= low
    chosen: list[int] = []  # positions in leaves
    cands = [leaf_mask[v]]  # cands[i] is what chosen[:i] leaves
    start = 0
    while len(chosen) < k:
        cand = cands[-1]
        for pos in range(start, len(leaves)):
            remaining = cand & keep[pos]
            if remaining.bit_count() >= l:
                chosen.append(pos)
                cands.append(remaining)
                start = pos + 1
                break
        else:
            if not chosen:
                return None
            start = chosen.pop() + 1
            cands.pop()
    rest = cands[-1]
    picked = []
    for _ in range(l):
        low = rest & -rest
        picked.append(low.bit_length() - 1)
        rest ^= low
    return [leaves[pos] for pos in chosen], picked


def find_induced_star(graph: BipartiteGraph, k: int, l: int) -> StarWitness | None:
    """First induced copy in edge order, or None when the graph is free.

    Edges are scanned sorted by (x, y); for each edge the X endpoint is
    tried as the k-leaf center before the Y endpoint (the second
    orientation only matters when k != l).  An orientation is skipped
    when the k-center has at most k neighbours or the l-center at most l
    (the other center is a neighbour of each and never a leaf), and
    before any leaf search when fewer than k of the k-center's
    neighbours are good leaves for the l-center.  When no vertex on the
    k-leaf side of an orientation that runs has l non-neighbours, the
    host is free, and the scan returns None before it builds any
    neighbour mask.
    """
    if k < 1 or l < 1:
        raise ValueError("both leaf counts must be at least 1")
    # Per-side tables, indexed 0 for X and 1 for Y.
    deg = graph.degrees()
    thin = (_thin_mask(deg[0], graph.n_y, l), _thin_mask(deg[1], graph.n_x, l))
    centers = (0, 1) if k != l else (0,)  # the k-center's side, X first
    if not any(thin[1 - s] for s in centers):
        return None
    mask = _neighbor_masks(graph)
    adj = (graph._adj_x, graph._adj_y)
    good: tuple[list[int | None], ...] = ([None] * graph.n_x, [None] * graph.n_y)
    for x, ys in enumerate(adj[0]):
        for y in ys:
            for s in centers:
                t = 1 - s  # the l-center's side
                u, v = (y, x) if s else (x, y)
                if deg[s][u] <= k or deg[t][v] <= l:
                    continue
                g = good[t][v]
                if g is None:
                    g = good[t][v] = _good_leaves(mask[t], mask[s], adj[t][v], v, l, thin[t])
                avail = mask[s][u] & g
                found = _star_at_edge(mask[t], v, avail, k, l) if avail.bit_count() >= k else None
                if found is not None:
                    su, sv = "XY"[s], "XY"[t]
                    return StarWitness(
                        k, l, VertexRef(su, u), VertexRef(sv, v),
                        tuple(VertexRef(sv, b) for b in found[0]),
                        tuple(VertexRef(su, a) for a in found[1]),
                    )
    return None


def is_skl_free(graph: BipartiteGraph, k: int, l: int) -> bool:
    return find_induced_star(graph, k, l) is None


# -- classification of graphs free of the (1,2)-pattern ------------------------


class StructureClass(NamedTuple):
    """Classification outcome; exactly one payload matches the tag.

    tag is one of 'path', 'even-cycle', 'complete-minus-matching',
    'not-s12-free'.  For the third class ``removed_matching`` lists the
    non-edges; for the last, ``witness`` holds the induced copy.
    """

    tag: str
    removed_matching: tuple[tuple[int, int], ...] | None = None
    witness: StarWitness | None = None


def _removed_matching(graph: BipartiteGraph) -> tuple[tuple[int, int], ...] | None:
    """The non-edges in (x, y) order when they form a matching, else None.

    Each X vertex's non-neighbours are the complement of its neighbour
    mask; the scan stops at the first vertex with a second non-edge.
    """
    full = (1 << graph.n_y) - 1
    hit_y = 0
    pairs = []
    for x, mask in enumerate(_neighbor_masks(graph)[0]):
        missing = full ^ mask
        if not missing:
            continue
        if missing & (missing - 1) or missing & hit_y:
            return None
        hit_y |= missing
        pairs.append((x, missing.bit_length() - 1))
    return tuple(pairs)


def classify_s12_free(graph: BipartiteGraph) -> StructureClass:
    """Sort a connected bipartite graph into the three free shapes.

    Order of checks: path, even cycle, complete-minus-matching; graphs in
    none of them contain an induced (1,2)-pattern and the witness from the
    detector is attached.  Shape membership is decided directly from
    degrees and non-edges, never via the detector.  The vertexless graph
    fits no shape and raises EmptyGraphError.
    """
    if not graph.is_connected():
        raise NotConnectedError("classification needs a connected graph")
    n = graph.n_vertices
    if n == 0:
        raise EmptyGraphError("classification needs at least one vertex")
    deg_x, deg_y = graph.degrees()
    degrees = deg_x + deg_y
    max_deg = max(degrees, default=0)
    if graph.m == n - 1 and max_deg <= 2:
        return StructureClass("path")
    if n >= 4 and all(d == 2 for d in degrees):
        return StructureClass("even-cycle")
    removed = _removed_matching(graph)
    if removed is not None:
        return StructureClass("complete-minus-matching", removed_matching=removed)
    witness = find_induced_star(graph, 1, 2)
    if witness is None:
        raise NotBipartiteError(
            "graph fits no free shape yet no induced copy was found; "
            "input is outside the classifier's domain"
        )
    return StructureClass("not-s12-free", witness=witness)


def rebuild_classified(graph: BipartiteGraph, cls: StructureClass) -> BipartiteGraph:
    """Re-instantiate the classified shape at the same class sizes.

    Used to confirm a classification: the rebuilt graph must match the
    original in degree multiset (and in non-edge matching for the third
    class).
    """
    if cls.tag == "path":
        rebuilt = path_graph(graph.n_vertices)
        if (rebuilt.n_x, rebuilt.n_y) != (graph.n_x, graph.n_y):
            # path starting on the Y side: swap roles, then swap back
            rebuilt = BipartiteGraph(
                rebuilt.n_y, rebuilt.n_x, [(y, x) for x, y in rebuilt.edge_list]
            )
        return rebuilt
    if cls.tag == "even-cycle":
        return cycle_graph(graph.n_x)
    if cls.tag == "complete-minus-matching":
        removed = set(cls.removed_matching or ())
        edges = [
            (x, y)
            for x in range(graph.n_x)
            for y in range(graph.n_y)
            if (x, y) not in removed
        ]
        return BipartiteGraph(graph.n_x, graph.n_y, edges)
    raise ValueError(f"cannot rebuild class {cls.tag!r}")
