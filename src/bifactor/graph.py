"""Bipartite graph core: types, text format, and basic constructions.

Graphs are simple, undirected, bipartite, with the two classes indexed
independently from 0.  A vertex is identified by (side, index) only; there
are no labels.  Instances are immutable once built.

Text format (newline-terminated, single spaces)::

    # optional comment lines
    bipartite <nX> <nY> <m>
    <x> <y>          (m lines, 0-based endpoints)

Canonical serialization sorts edges by (x, y); parse/serialize round-trips
are exact on canonical files.  Files may declare at most MAX_CLASS_SIZE
(10,000) vertices per class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import (
    DuplicateEdgeError,
    EmptyGraphError,
    GraphFormatError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    MatchingNotDisjointError,
    NotRegularError,
)

Edge = tuple[int, int]


@dataclass(frozen=True, order=True)
class VertexRef:
    """A vertex named by its side ('X' or 'Y') and 0-based index.

    Vertices order X before Y, then by index.
    """

    side: str
    index: int

    def __post_init__(self):
        if self.side not in ("X", "Y"):
            raise ValueError(f"side must be 'X' or 'Y', got {self.side!r}")

    @property
    def label(self) -> str:
        return f"{self.side}{self.index}"

    def __str__(self) -> str:
        return self.label


class BipartiteGraph:
    """Immutable simple bipartite graph on X = [0, n_x) and Y = [0, n_y)."""

    __slots__ = ("n_x", "n_y", "edge_list", "edge_set", "_adj_x", "_adj_y")

    def __init__(self, n_x: int, n_y: int, edges: Iterable[Edge]):
        if n_x < 0 or n_y < 0:
            raise ValueError("class sizes must be non-negative")
        self.n_x = n_x
        self.n_y = n_y
        if iter(edges) is edges:
            edges = list(edges)  # one pass only: keep the input order for _checked_edges
        try:
            if self._index(edges):
                return
        except (TypeError, ValueError, IndexError):
            pass
        self._index(_checked_edges(n_x, n_y, edges))

    def _index(self, edges: Iterable[Edge]) -> bool:
        """Store the sorted edges, their set and the sorted adjacency lists.

        Returns False, storing nothing, when an edge repeats or its x is out
        of range, or when some y is negative; a y of n_y or more raises
        IndexError.  Sorting is linear on the presorted input that
        canonical files, edge_list slices and flow results give.
        """
        ordered = sorted(edges)
        edge_set = frozenset(ordered)
        if len(edge_set) != len(ordered) or (
            ordered and not (0 <= ordered[0][0] and ordered[-1][0] < self.n_x)
        ):
            return False
        adj_x: list[list[int]] = [[] for _ in range(self.n_x)]
        adj_y: list[list[int]] = [[] for _ in range(self.n_y)]
        for x, y in ordered:
            adj_x[x].append(y)
            adj_y[y].append(x)
        # Each adj_x list is ascending, so a negative y heads its list.
        if any(a[0] < 0 for a in adj_x if a):
            return False
        self.edge_list: tuple[Edge, ...] = tuple(ordered)
        self.edge_set: frozenset[Edge] = edge_set
        self._adj_x = tuple(map(tuple, adj_x))
        self._adj_y = tuple(map(tuple, adj_y))
        return True

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edge_list)

    @property
    def n_vertices(self) -> int:
        return self.n_x + self.n_y

    def neighbors_x(self, x: int) -> tuple[int, ...]:
        """Sorted Y-neighbors of X-vertex x."""
        return self._adj_x[x]

    def neighbors_y(self, y: int) -> tuple[int, ...]:
        """Sorted X-neighbors of Y-vertex y."""
        return self._adj_y[y]

    def neighbors(self, v: VertexRef) -> tuple[int, ...]:
        """Sorted neighbor indices of v, all on the other side."""
        return self._adj_x[v.index] if v.side == "X" else self._adj_y[v.index]

    def degree_x(self, x: int) -> int:
        return len(self._adj_x[x])

    def degree_y(self, y: int) -> int:
        return len(self._adj_y[y])

    def degrees(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Degrees of X0..X(n_x-1), and of Y0..Y(n_y-1)."""
        return tuple(map(len, self._adj_x)), tuple(map(len, self._adj_y))

    def has_edge(self, x: int, y: int) -> bool:
        return (x, y) in self.edge_set

    def vertices(self) -> Iterator[VertexRef]:
        for x in range(self.n_x):
            yield VertexRef("X", x)
        for y in range(self.n_y):
            yield VertexRef("Y", y)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.n_x == other.n_x
            and self.n_y == other.n_y
            and self.edge_set == other.edge_set
        )

    def __hash__(self) -> int:
        return hash((self.n_x, self.n_y, self.edge_set))

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.n_x}, {self.n_y}, m={self.m})"

    # -- global predicates -------------------------------------------------

    def is_balanced(self) -> bool:
        return self.n_x == self.n_y

    def min_degree(self) -> int:
        if self.n_vertices == 0:
            raise EmptyGraphError("graph has no vertices")
        deg_x, deg_y = self.degrees()
        return min(deg_x + deg_y)

    def is_connected(self) -> bool:
        """True when every vertex is reachable from every other.

        The vertexless graph counts as connected.
        """
        if self.n_vertices == 0:
            return True
        return _component_labels(self._adj_x, self._adj_y)[2] == 1


def _checked_edges(n_x: int, n_y: int, edges: Iterable[Edge]) -> list[Edge]:
    """The edges as tuples, in input order; raises for the first edge out of
    range or repeated."""
    seen: set[Edge] = set()
    checked: list[Edge] = []
    for e in edges:
        x, y = e
        if not (0 <= x < n_x and 0 <= y < n_y):
            raise IndexOutOfRangeError(f"edge ({x}, {y}) outside {n_x}x{n_y}")
        if (x, y) in seen:
            raise DuplicateEdgeError(f"edge ({x}, {y}) repeated")
        seen.add((x, y))
        checked.append((x, y))
    return checked


def _component_labels(
    adj_x: Sequence[Sequence[int]], adj_y: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Component ids by traversal over an adjacency, and their count.

    Ids are 0, 1, ... in order of first vertex X0..X(n-1), Y0..Y(n-1);
    isolated vertices are components of their own.
    """
    comp_x = [-1] * len(adj_x)
    comp_y = [-1] * len(adj_y)
    next_id = 0
    for roots, own in ((range(len(adj_x)), comp_x), (range(len(adj_y)), comp_y)):
        for r in roots:
            if own[r] != -1:
                continue
            own[r] = next_id
            xs, ys = ([r], []) if own is comp_x else ([], [r])
            while xs or ys:
                for i in xs:
                    for j in adj_x[i]:
                        if comp_y[j] == -1:
                            comp_y[j] = next_id
                            ys.append(j)
                xs = []
                for j in ys:
                    for i in adj_y[j]:
                        if comp_x[i] == -1:
                            comp_x[i] = next_id
                            xs.append(i)
                ys = []
            next_id += 1
    return tuple(comp_x), tuple(comp_y), next_id


class Factor(BipartiteGraph):
    """A spanning subgraph of a host graph, with component labels.

    A factor is a bipartite graph on the host's vertices whose edges are
    host edges; vertices without factor edges sit in singleton components.
    Component ids are assigned in discovery order scanning X0..X(n-1),
    Y0..Y(n-1), so they are stable across runs.
    """

    __slots__ = ("host", "comp_x", "comp_y", "n_components")

    def __init__(self, host: BipartiteGraph, edges: Iterable[Edge]):
        super().__init__(host.n_x, host.n_y, edges)
        stray = self.edge_set - host.edge_set
        if stray:
            raise IndexOutOfRangeError(f"factor edge {min(stray)} not in host graph")
        self.host = host
        self.comp_x, self.comp_y, self.n_components = _component_labels(
            self._adj_x, self._adj_y
        )

    def regularity(self) -> int | None:
        """Common degree when the factor is regular, else None."""
        dx, dy = self.degrees()
        degs = set(dx) | set(dy)
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_connected(self) -> bool:
        return self.n_components == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Factor)
            and self.host == other.host
            and self.edge_set == other.edge_set
        )

    def __hash__(self) -> int:
        return hash((self.host, self.edge_set))

    def __repr__(self) -> str:
        return f"Factor(m={len(self.edge_list)}, components={self.n_components})"


# -- text format ------------------------------------------------------------


# Largest class size a graph file may declare.  Every vertex gets an
# adjacency list when the graph is built, and the star-pair detector one
# neighbour bitmask of up to MAX_CLASS_SIZE bits, so a one-line header
# could otherwise ask for gigabytes.
MAX_CLASS_SIZE = 10_000


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph text format; errors name the offending line.

    A header declaring a class larger than MAX_CLASS_SIZE is rejected
    before anything is allocated for it.  The edge lines are read in one
    pass and validated once, by the BipartiteGraph constructor.
    """
    lines = text.splitlines()
    for header_line, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise MalformedHeaderError("missing 'bipartite' header line")
    parts = line.split()
    if len(parts) != 4 or parts[0] != "bipartite":
        raise MalformedHeaderError(
            f"expected 'bipartite <nX> <nY> <m>', got {line!r}", line=header_line
        )
    try:
        n_x, n_y, m = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise MalformedHeaderError(
            f"non-integer field in header {line!r}", line=header_line
        ) from None
    if n_x < 0 or n_y < 0 or m < 0:
        raise MalformedHeaderError(f"negative field in header {line!r}", line=header_line)
    if max(n_x, n_y) > MAX_CLASS_SIZE:
        raise MalformedHeaderError(
            f"class size above {MAX_CLASS_SIZE} in header {line!r}", line=header_line
        )
    rows = (
        p for p in map(str.split, islice(lines, header_line, None)) if p and p[0][0] != "#"
    )
    try:
        edges = [(int(a), int(b)) for a, b in rows]
        if len(edges) == m:
            return BipartiteGraph(n_x, n_y, edges)
    except (ValueError, GraphFormatError):
        pass
    _raise_first_bad_line(lines, header_line, n_x, n_y, m)


def _raise_first_bad_line(
    lines: list[str], header_line: int, n_x: int, n_y: int, m: int
) -> NoReturn:
    """Re-read the edge lines one at a time and raise the error of the first
    bad one, or the header's edge-count mismatch when no line is bad."""
    seen: set[Edge] = set()
    for lineno, raw in enumerate(islice(lines, header_line, None), start=header_line + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected '<x> <y>', got {line!r}", line=lineno)
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if not (0 <= x < n_x and 0 <= y < n_y):
            raise IndexOutOfRangeError(
                f"edge ({x}, {y}) outside {n_x}x{n_y}", line=lineno
            )
        if (x, y) in seen:
            raise DuplicateEdgeError(f"edge ({x}, {y}) repeated", line=lineno)
        seen.add((x, y))
    raise MalformedHeaderError(
        f"header promises {m} edges, file has {len(seen)}", line=header_line
    )


def serialize_graph(graph: BipartiteGraph) -> str:
    lines = [f"bipartite {graph.n_x} {graph.n_y} {graph.m}"]
    lines.extend(f"{x} {y}" for x, y in graph.edge_list)
    return "\n".join(lines) + "\n"


def parse_factor(text: str, host: BipartiteGraph) -> Factor:
    """Parse a factor file against its host graph.

    Header is ``factor <k> <m>``.  A trailing ``cycle ...`` line, as written
    for Hamilton cycles, is accepted and ignored.
    """
    header: tuple[int, int] | None = None
    edges: list[Edge] = []
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
            continue
        if line.startswith("cycle "):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected '<x> <y>', got {line!r}", line=lineno)
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
    if header is None:
        raise MalformedHeaderError("missing 'factor' header line")
    k, m = header
    if len(edges) != m:
        raise MalformedHeaderError(f"header promises {m} edges, file has {len(edges)}")
    factor = Factor(host, edges)
    if factor.regularity() != k:
        raise NotRegularError(f"factor file claims {k}-regular but degrees differ")
    return factor


def serialize_factor(factor: Factor, cycle: tuple[VertexRef, ...] | None = None) -> str:
    """Canonical factor file; regular factors only.

    When ``cycle`` is given (a vertex rotation of a connected 2-regular
    factor) an extra ``cycle v0 v1 ...`` line is appended.
    """
    k = factor.regularity()
    if k is None:
        raise NotRegularError("only regular factors serialize")
    lines = [f"factor {k} {len(factor.edge_list)}"]
    lines.extend(f"{x} {y}" for x, y in factor.edge_list)
    if cycle is not None:
        lines.append("cycle " + " ".join(v.label for v in cycle))
    return "\n".join(lines) + "\n"


# -- constructions -----------------------------------------------------------


def complete_bipartite(n_x: int, n_y: int) -> BipartiteGraph:
    return BipartiteGraph(n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y)])


def complete_bipartite_minus_matching(n: int, matching: Iterable[Edge]) -> BipartiteGraph:
    """K_{n,n} minus a (not necessarily perfect) matching.

    The removed pairs must be vertex-disjoint; MatchingNotDisjointError
    otherwise.
    """
    pairs = list(matching)
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise MatchingNotDisjointError("removed pairs share a vertex")
    removed = set()
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise IndexOutOfRangeError(f"matching pair ({x}, {y}) outside {n}x{n}")
        removed.add((x, y))
    edges = [(x, y) for x in range(n) for y in range(n) if (x, y) not in removed]
    return BipartiteGraph(n, n, edges)


def double_graph(base: BipartiteGraph) -> BipartiteGraph:
    """Two copies of ``base``; every edge uv contributes uv, u'v', uv', u'v.

    Degrees double, balance and connectivity are preserved.
    """
    edges: list[Edge] = []
    for x, y in base.edge_list:
        edges.extend(
            [
                (x, y),
                (x + base.n_x, y + base.n_y),
                (x, y + base.n_y),
                (x + base.n_x, y),
            ]
        )
    return BipartiteGraph(2 * base.n_x, 2 * base.n_y, edges)


def cycle_graph(half: int) -> BipartiteGraph:
    """The cycle on 2*half vertices, x_i - y_i - x_{i+1} - ...; needs half >= 2."""
    if half < 2:
        raise ValueError("a bipartite cycle needs at least 2 vertices per side")
    edges = []
    for i in range(half):
        edges.append((i, i))
        edges.append(((i + 1) % half, i))
    return BipartiteGraph(half, half, edges)


def path_graph(n_vertices: int) -> BipartiteGraph:
    """The path on n_vertices vertices, alternating sides starting in X."""
    if n_vertices < 1:
        raise ValueError("a path needs at least one vertex")
    n_x = (n_vertices + 1) // 2
    n_y = n_vertices // 2
    edges = []
    for t in range(n_vertices - 1):
        i = t // 2
        edges.append((i, i) if t % 2 == 0 else ((i + 1), i))
    return BipartiteGraph(n_x, n_y, edges)


def star_pair_graph(k: int, l: int) -> BipartiteGraph:
    """Two stars with adjacent centers: one with k leaves, one with l leaves.

    Center u = X0 carries k leaves Y1..Yk; center v = Y0 carries l leaves
    X1..Xl.  The result has k + l + 2 vertices and k + l + 1 edges.
    """
    if k < 1 or l < 1:
        raise ValueError("both stars need at least one leaf")
    edges = [(0, 0)]
    edges.extend((0, j) for j in range(1, k + 1))
    edges.extend((i, 0) for i in range(1, l + 1))
    return BipartiteGraph(l + 1, k + 1, edges)
