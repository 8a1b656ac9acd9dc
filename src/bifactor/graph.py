"""Bipartite graph core: types, text format, and basic constructions.

Graphs are simple, undirected, bipartite, with the two classes indexed
independently from 0.  A vertex is identified by (side, index) only; there
are no labels.  Instances are immutable once built.

A graph stores its class sizes, its edge count and its two sorted
adjacency tuples, nothing more: there is no per-edge object.  The
``edge_list`` and ``edge_set`` properties build a fresh value on each
access, so a caller that reads them in a loop should bind them once;
``has_edge`` bisects N(x).

Graph text format (newline-terminated, single spaces)::

    # optional comment lines
    bipartite <nX> <nY> <m>
    <x> <y>          (m lines, 0-based endpoints)

Factor text format, read against its host graph::

    # optional comment lines
    factor <k> <m>
    <x> <y>          (m lines, host edges; every vertex has degree k)
    cycle X0 Y1 ...  (optional, a Hamilton cycle's vertex order; checked)

In both, blank lines and lines starting with '#' may appear anywhere,
and the first bad edge line, edge out of range or repeated edge raises,
naming its line.  Canonical serialization sorts edges by (x, y);
parse/serialize round-trips are exact on canonical files.  Graph files
may declare at most MAX_CLASS_SIZE (10,000) vertices per class.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice, repeat
from operator import add, eq, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class _VertexFields(NamedTuple):
    side: str
    index: int


class VertexRef(_VertexFields):
    """A vertex named by its side ('X' or 'Y') and 0-based index.

    Vertices order X before Y, then by index.
    """

    __slots__ = ()

    def __new__(cls, side: str, index: int):
        if side not in ("X", "Y"):
            raise ValueError(f"side must be 'X' or 'Y', got {side!r}")
        return tuple.__new__(cls, (side, index))

    @classmethod
    def _make(cls, iterable: Iterable) -> VertexRef:
        """Build through ``__new__``, so ``_replace`` checks the side too."""
        return cls(*iterable)

    @property
    def label(self) -> str:
        return f"{self.side}{self.index}"

    def __str__(self) -> str:
        return self.label


class BipartiteGraph:
    """Immutable simple bipartite graph on X = [0, n_x) and Y = [0, n_y).

    Only the edge count ``m`` and the sorted adjacency tuples are stored;
    ``edge_list`` and ``edge_set`` are built from N(x) on each access.
    """

    __slots__ = ("n_x", "n_y", "m", "_adj_x", "_adj_y")

    def __init__(self, n_x: int, n_y: int, edges: Iterable[Edge]):
        if n_x < 0 or n_y < 0:
            raise ValueError("class sizes must be non-negative")
        self.n_x = n_x
        self.n_y = n_y
        if iter(edges) is edges:
            edges = list(edges)  # one pass only: keep the input order for _checked_rows
        # One sort, linear on presorted input, puts a repeat next to its twin;
        # a fault raises, and only then is the input walked to name it.
        try:
            ordered = sorted(edges)
            if any(map(eq, ordered, islice(ordered, 1, None))) or (
                ordered and not (0 <= ordered[0][0] and ordered[-1][0] < n_x)
            ):
                raise IndexError
            adj_x: list[list[int]] = [[] for _ in range(n_x)]
            adj_y: list[list[int]] = [[] for _ in range(n_y)]
            for x, y in ordered:
                adj_x[x].append(y)
                adj_y[y].append(x)  # IndexError for a y of n_y or more
            if any(a[0] < 0 for a in adj_x if a):  # a negative y heads its row
                raise IndexError
            self.m = len(ordered)
            self._adj_x = tuple(map(tuple, adj_x))
            self._adj_y = tuple(map(tuple, adj_y))
            return
        except (TypeError, ValueError, IndexError) as exc:
            fault = exc
        checked = [edge for _, edge in _checked_rows(n_x, n_y, zip(repeat(None), edges))]
        if all(type(e) is tuple for e in edges):  # no fault to name: an endpoint is no int
            raise fault
        BipartiteGraph.__init__(self, n_x, n_y, checked)  # pairs that sort only as tuples

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_list(self) -> tuple[Edge, ...]:
        """The edges sorted by (x, y), built afresh on each access."""
        return tuple([(x, y) for x, ys in enumerate(self._adj_x) for y in ys])

    @property
    def edge_set(self) -> frozenset[Edge]:
        """The edges as a set, built afresh on each access."""
        return frozenset(self.edge_list)

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
        if not 0 <= x < self.n_x:
            return False
        ys = self._adj_x[x]
        i = bisect_left(ys, y)
        return i < len(ys) and ys[i] == y

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
            and self._adj_x == other._adj_x
        )

    def __hash__(self) -> int:
        return hash((self.n_x, self.n_y, self._adj_x))

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


def _stored(
    cls: type, n_x: int, n_y: int, adj_x: Iterable[Sequence[int]], adj_y: Iterable[Sequence[int]]
):
    """A ``cls`` holding the given sorted adjacency as tuples, unchecked.

    Rows that are already tuples are kept as the same objects, so hosts
    built from shared rows share them.  Its callers hold rows already
    known sorted, repeat-free and in range: the canonical graph reader,
    ``Factor._from_adjacency``, ``_complete_minus``, ``double_graph``,
    ``structure.rebuild_classified`` (for its path swap) and
    ``generators.enumerate_bipartite_block``.
    """
    self = cls.__new__(cls)
    self.n_x, self.n_y = n_x, n_y
    self._adj_x = tuple(map(tuple, adj_x))
    self._adj_y = tuple(map(tuple, adj_y))
    self.m = sum(map(len, self._adj_x))
    return self


def _checked_rows(
    n_x: int, n_y: int, rows: Iterable[tuple[int | None, Edge]]
) -> Iterator[tuple[int | None, Edge]]:
    """The (line number, edge) rows, each edge as a tuple, lazily and in
    input order; raises for the first edge out of range or repeated,
    naming its line when it has one."""
    seen: set[Edge] = set()
    for line, (x, y) in rows:
        if not (0 <= x < n_x and 0 <= y < n_y):
            raise IndexOutOfRangeError(f"edge ({x}, {y}) outside {n_x}x{n_y}", line=line)
        if (x, y) in seen:
            raise DuplicateEdgeError(f"edge ({x}, {y}) repeated", line=line)
        seen.add((x, y))
        yield line, (x, y)


def _stray_edge(
    rows: Sequence[Sequence[int]], host_rows: Sequence[Sequence[int]]
) -> Edge | None:
    """The first edge in (x, y) order of the ascending ``rows`` that the
    ascending ``host_rows`` lack, or None.

    A merge walk per x: each y is sought by bisection in the host's row
    from just past the y before it.
    """
    for x, ys in enumerate(rows):
        if ys:
            host_ys = host_rows[x]
            end, i = len(host_ys), 0
            for y in ys:
                i = bisect_left(host_ys, y, i)
                if i == end or host_ys[i] != y:
                    return x, y
                i += 1
    return None


def _transpose(rows: Sequence[Sequence[int]], n_other: int) -> list[list[int]]:
    """The ascending rows of the other side's ``n_other`` vertices, for
    the edges that ``rows`` lists per vertex of this side."""
    out: list[list[int]] = [[] for _ in range(n_other)]
    for x, ys in enumerate(rows):
        for y in ys:
            out[y].append(x)
    return out


def _component_labels(
    adj_x: Sequence[Sequence[int]], adj_y: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Component ids by traversal over an adjacency, and their count.

    Ids are 0, 1, ... in order of first vertex X0..X(n-1), Y0..Y(n-1);
    isolated vertices are components of their own.  Each component with
    an x is walked depth first from its lowest x over one stack of x's:
    a popped x's row labels its unlabelled y's, and each such y's row
    labels and pushes its unlabelled x's.  A y's row is read only while
    some x is unlabelled, and a component's walk stops once every y is
    labelled; the roots stop once every x is, and the y's left unlabelled
    have no edge and take the next ids in Y order.  So on a dense
    connected host a few rows label every vertex.
    """
    comp_x = [-1] * len(adj_x)
    comp_y = [-1] * len(adj_y)
    left_x, left_y = len(adj_x), len(adj_y)
    next_id = 0
    for r in range(len(adj_x)):
        if not left_x:
            break
        if comp_x[r] != -1:
            continue
        comp_x[r] = next_id
        left_x -= 1
        stack = [r]
        while stack and left_y:
            for y in adj_x[stack.pop()]:
                if comp_y[y] == -1:
                    comp_y[y] = next_id
                    left_y -= 1
                    if left_x:
                        for x in adj_y[y]:
                            if comp_x[x] == -1:
                                comp_x[x] = next_id
                                left_x -= 1
                                stack.append(x)
        next_id += 1
    if left_y:
        for y, c in enumerate(comp_y):
            if c == -1:
                comp_y[y] = next_id
                next_id += 1
    return tuple(comp_x), tuple(comp_y), next_id


class Factor(BipartiteGraph):
    """A spanning subgraph of a host graph, with component labels.

    A factor is a bipartite graph on the host's vertices whose edges are
    host edges; vertices without factor edges sit in singleton components.
    Component ids are assigned in discovery order scanning X0..X(n-1),
    Y0..Y(n-1), so they are stable across runs, by _component_labels on
    the first read of ``comp_x``, ``comp_y`` or ``n_components``.

    ``Factor(host, edges)`` takes edges in any order, validates them as
    the BipartiteGraph constructor does, and checks each factor row
    against its host row by a merge walk.  The flow and the connecting
    loop, which already hold the factor's sorted adjacency and take their
    edges from host rows, build their results with ``_from_adjacency``
    instead, with no host walk.  ``connect.check_factor`` is the
    independent check of a pipeline's answer.  Like the graph, a factor
    stores its adjacency, and its labels once read.
    """

    __slots__ = ("host", "comp_x", "comp_y", "n_components")

    def __init__(self, host: BipartiteGraph, edges: Iterable[Edge]):
        super().__init__(host.n_x, host.n_y, edges)
        stray = _stray_edge(self._adj_x, host._adj_x)
        if stray is not None:
            raise IndexOutOfRangeError(f"factor edge {stray} not in host graph")
        self.host = host

    @classmethod
    def _from_adjacency(
        cls,
        host: BipartiteGraph,
        adj_x: Iterable[Sequence[int]],
        adj_y: Iterable[Sequence[int]],
    ) -> "Factor":
        """The factor with the given adjacency on the host's vertices, from
        a producer whose edges are host edges.

        One list per X and per Y vertex, each ascending, the two sides
        listing the same edges: they are stored as they are, with no sort,
        no duplicate or range pass and no walk of the host.
        """
        self = _stored(cls, host.n_x, host.n_y, adj_x, adj_y)
        self.host = host
        return self

    def __getattr__(self, name: str):
        # Reached only for an unset slot or a missing name: label on first read.
        if name not in ("comp_x", "comp_y", "n_components"):
            raise AttributeError(f"'Factor' object has no attribute {name!r}")
        self.comp_x, self.comp_y, self.n_components = _component_labels(self._adj_x, self._adj_y)
        return getattr(self, name)

    def regularity(self) -> int | None:
        """Common degree when the factor is regular, else None."""
        dx, dy = self.degrees()
        degs = set(dx) | set(dy)
        if len(degs) == 1:
            return degs.pop()
        return None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Factor)
            and self.host == other.host
            and self._adj_x == other._adj_x
        )

    def __hash__(self) -> int:
        return hash((self.host, self._adj_x))

    def __repr__(self) -> str:
        return f"Factor(m={self.m}, components={self.n_components})"


# -- text format ------------------------------------------------------------


# Largest class size a graph file may declare.  Every vertex gets an
# adjacency list when the graph is built, and the star-pair detector one
# neighbour bitmask of up to MAX_CLASS_SIZE bits, so a one-line header
# could otherwise ask for gigabytes.
MAX_CLASS_SIZE = 10_000

_DIGITS = str.maketrans("", "", "0123456789")

# Every index spelled as str() writes it, mapped to the index and to the
# index times MAX_CLASS_SIZE, shared by every direct read of a canonical
# file.  Grown on demand to the largest class read so far, never past
# MAX_CLASS_SIZE: about 1.5 MB when full.
_INDEX: dict[str, int] = {}
_ROW_KEY: dict[str, int] = {}


def _spell(n: int) -> None:
    """Grow the spelling table to hold every index below ``n``, at most
    MAX_CLASS_SIZE of them."""
    have, n = len(_INDEX), min(n, MAX_CLASS_SIZE)
    if have < n:
        names = list(map(str, range(have, n)))
        keys = range(have * MAX_CLASS_SIZE, n * MAX_CLASS_SIZE, MAX_CLASS_SIZE)
        _ROW_KEY.update(zip(names, keys))
        _INDEX.update(zip(names, range(have, n)))


def _line_runs(body: str, chunk: int = 1 << 16) -> Iterator[tuple[int, int]]:
    """The (start, stop) of consecutive runs of whole lines of ``body``,
    each cut after the last newline within ``chunk`` characters of its
    start (after the first newline past them when there is none).  A tail
    with no newline is the last run."""
    pos, end = 0, len(body)
    while pos < end:
        stop = body.rfind("\n", pos, pos + chunk) + 1 or body.find("\n", pos + chunk) + 1 or end
        yield pos, stop
        pos = stop


def _edge_tokens(run: str) -> list[str] | None:
    """The numerals of ``run`` if it is whole "<x> <y>\\n" lines of ASCII
    digits, else None: only such a run ends in "\\n" and, its digits
    deleted, leaves " \\n" once per two numerals."""
    tokens = run.split()
    if run[-1:] == "\n" and run.translate(_DIGITS) == " \n" * (len(tokens) >> 1):
        return tokens
    return None


def _header(lines: list[str], usage: str) -> tuple[int, str, tuple[int, ...]]:
    """The header: the first line that is neither blank nor a comment, as
    its line number, its text and its integer fields.

    ``usage`` spells the header out, keyword first, as
    ``"bipartite <nX> <nY> <m>"``; it fixes the keyword, the field count
    and the error messages.
    """
    keyword, *fields = usage.split()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise MalformedHeaderError(f"missing '{keyword}' header line")
    parts = line.split()
    if len(parts) != 1 + len(fields) or parts[0] != keyword:
        raise MalformedHeaderError(f"expected '{usage}', got {line!r}", line=lineno)
    try:
        return lineno, line, tuple(map(int, parts[1:]))
    except ValueError:
        raise MalformedHeaderError(f"non-integer field in header {line!r}", line=lineno) from None


def _edge_rows(
    lines: list[str], header_line: int, skip: str | tuple[str, ...]
) -> Iterator[tuple[int, Edge]]:
    """(line number, (x, y)) for each edge line after the header, lazily.

    Blank lines and lines starting with ``skip`` are passed over; the
    first line that is not two integers raises GraphFormatError.
    """
    for lineno, raw in enumerate(islice(lines, header_line, None), start=header_line + 1):
        line = raw.strip()
        if not line or line.startswith(skip):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected '<x> <y>', got {line!r}", line=lineno)
        try:
            edge = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer endpoint in {line!r}", line=lineno) from None
        yield lineno, edge


def parse_graph(text: str) -> BipartiteGraph:
    """Parse the graph text format; errors name the offending line.

    A header declaring a class larger than MAX_CLASS_SIZE is rejected
    before anything is allocated for it.  A file whose first line is the
    header is offered to _read_canonical, which reads it in bulk, straight
    into the adjacency, when it is as serialize_graph writes it.  Every
    other file is read line by line, in one pass that raises for its first
    bad line: a malformed edge line, or an edge out of range or repeated.
    """
    head, _, body = text.partition("\n")
    # str.splitlines also breaks lines at "\r", "\x0c", "\x85" and the like.
    # Inside the first line such a break moves the header; at its end it
    # adds at most a blank line, which changes no edge, and line numbers
    # come from the line-by-line read alone.
    bulk = head.startswith("bipartite") and len(head.splitlines()) == 1
    lines = [head] if bulk else text.splitlines()
    header_line, line, (n_x, n_y, m) = _header(lines, "bipartite <nX> <nY> <m>")
    if n_x < 0 or n_y < 0 or m < 0:
        raise MalformedHeaderError(f"negative field in header {line!r}", line=header_line)
    if max(n_x, n_y) > MAX_CLASS_SIZE:
        raise MalformedHeaderError(
            f"class size above {MAX_CLASS_SIZE} in header {line!r}", line=header_line
        )
    if bulk:
        graph = _read_canonical(n_x, n_y, m, body)
        if graph is not None:
            return graph
        lines = text.splitlines()
    edges = [edge for _, edge in _checked_rows(n_x, n_y, _edge_rows(lines, header_line, "#"))]
    if len(edges) != m:
        raise MalformedHeaderError(
            f"header promises {m} edges, file has {len(edges)}", line=header_line
        )
    return BipartiteGraph(n_x, n_y, edges)


def _read_canonical(n_x: int, n_y: int, m: int, body: str) -> BipartiteGraph | None:
    """The graph whose edge lines are ``body``, read straight into its
    adjacency, or None unless each run of lines from _line_runs passes
    _edge_tokens and the m edges are canonical: each endpoint spelled as
    str() writes an index in range, and the keys x * MAX_CLASS_SIZE + y
    strictly ascending, so sorted by (x, y) with no repeat.

    One run's numerals at a time are converted by lookup in the shared
    spelling table, which may spell indices past this graph's classes:
    x < n_x is checked on the last key, y < n_y by the transpose's indexing.
    The X rows are slices of one tuple of all y's, which _stored keeps.
    """
    _spell(max(n_x, n_y))
    index, row_key = _INDEX, _ROW_KEY
    ys: list[int] = []
    starts = [0]  # where the row of each x up to the last seen begins in ys
    last, x_end = -1, n_x * MAX_CLASS_SIZE
    for pos, stop in _line_runs(body):
        if (tokens := _edge_tokens(body[pos:stop])) is None:
            return None
        try:
            run_ys = list(map(index.__getitem__, tokens[1::2]))
            keys = list(map(add, map(row_key.__getitem__, tokens[0::2]), run_ys))
        except KeyError:  # a leading zero, or no index of any class
            return None
        if keys[0] <= last or not all(map(lt, keys, islice(keys, 1, None))):
            return None
        last = keys[-1]
        row_keys = range(len(starts) * MAX_CLASS_SIZE, last + 1, MAX_CLASS_SIZE)
        starts += map(len(ys).__add__, map(bisect_left, repeat(keys), row_keys))
        ys += run_ys
    if len(ys) != m or last >= x_end:
        return None
    starts += repeat(m, n_x + 1 - len(starts))
    adj_x = list(map(tuple(ys).__getitem__, map(slice, starts, islice(starts, 1, None))))
    try:
        adj_y = _transpose(adj_x, n_y)
    except IndexError:  # a y of n_y or more
        return None
    return _stored(BipartiteGraph, n_x, n_y, adj_x, adj_y)


def _edge_text(graph: BipartiteGraph) -> list[str]:
    """The line "x y" of each edge, in (x, y) order.  The index names come
    from the shared spelling table, which a write grows as a read does;
    indices past MAX_CLASS_SIZE, which it never holds, are spelled by
    str() on each call."""
    n = max(graph.n_x, graph.n_y)
    _spell(n)
    names = list(islice(_INDEX, n))
    names += map(str, range(len(names), n))
    return [f"{x} {names[y]}" for x, ys in zip(names, graph._adj_x) for y in ys]


def serialize_graph(graph: BipartiteGraph) -> str:
    lines = [f"bipartite {graph.n_x} {graph.n_y} {graph.m}"]
    lines.extend(_edge_text(graph))
    return "\n".join(lines) + "\n"


def parse_factor(text: str, host: BipartiteGraph) -> Factor:
    """Parse a factor file against its host graph.

    Header is ``factor <k> <m>``.  The edge lines are read as parse_graph
    reads a file line by line, against the host's class sizes; then come
    the edge count, host membership, naming the line of the first edge the
    host lacks, and regularity.  A ``cycle ...`` line, as written for
    Hamilton cycles, is checked last: it must list every vertex once,
    sides alternating, and each step, the one from the last vertex back to
    the first included, must be a factor edge.
    """
    lines = text.splitlines()
    header_line, _, (k, m) = _header(lines, "factor <k> <m>")
    rows = list(_checked_rows(host.n_x, host.n_y, _edge_rows(lines, header_line, ("#", "cycle "))))
    if len(rows) != m:
        raise MalformedHeaderError(
            f"header promises {m} edges, file has {len(rows)}", line=header_line
        )
    for lineno, edge in rows:  # in file order
        if not host.has_edge(*edge):
            raise IndexOutOfRangeError(f"factor edge {edge} not in host graph", line=lineno)
    factor = Factor(host, [edge for _, edge in rows])
    if factor.regularity() != k:
        raise NotRegularError(f"factor file claims {k}-regular but degrees differ")
    for lineno, raw in enumerate(islice(lines, header_line, None), start=header_line + 1):
        line = raw.strip()
        if line.startswith("cycle "):
            _check_cycle(factor, line.split()[1:], lineno)
    return factor


# A vertex label as VertexRef.label writes it.
_LABEL = re.compile(r"([XY])(0|[1-9][0-9]*)")


def _check_cycle(factor: Factor, labels: list[str], lineno: int) -> None:
    """Raise GraphFormatError, naming line ``lineno``, unless ``labels`` is
    a Hamilton cycle of ``factor``."""
    size = {"X": factor.n_x, "Y": factor.n_y}
    order: list[tuple[str, int]] = []
    seen: set[str] = set()
    for label in labels:
        found = _LABEL.fullmatch(label)
        if found is None or int(found[2]) >= size[found[1]]:
            raise GraphFormatError(f"cycle names no vertex of the host: {label!r}", line=lineno)
        if label in seen:
            raise GraphFormatError(f"cycle lists {label} twice", line=lineno)
        seen.add(label)
        order.append((found[1], int(found[2])))
    n = factor.n_x + factor.n_y
    if len(order) != n:
        raise GraphFormatError(f"cycle lists {len(order)} of {n} vertices", line=lineno)
    if n < 4:
        raise GraphFormatError(f"no cycle runs through {n} vertices", line=lineno)
    for (side, i), (next_side, j) in zip(order, order[1:] + order[:1]):
        if side == next_side or not factor.has_edge(*((i, j) if side == "X" else (j, i))):
            problem = "stays on one side" if side == next_side else "is not a factor edge"
            raise GraphFormatError(f"cycle step {side}{i}-{next_side}{j} {problem}", line=lineno)


def serialize_factor(factor: Factor, cycle: tuple[VertexRef, ...] | None = None) -> str:
    """Canonical factor file; regular factors only.

    When ``cycle`` is given (a vertex rotation of a connected 2-regular
    factor) an extra ``cycle v0 v1 ...`` line is appended.
    """
    k = factor.regularity()
    if k is None:
        raise NotRegularError("only regular factors serialize")
    lines = [f"factor {k} {factor.m}"]
    lines.extend(_edge_text(factor))
    if cycle is not None:
        lines.append("cycle " + " ".join(v.label for v in cycle))
    return "\n".join(lines) + "\n"


# -- constructions -----------------------------------------------------------


def _complete_minus(n_x: int, n_y: int, pairs: Iterable[Edge]) -> BipartiteGraph:
    """K(n_x, n_y) less ``pairs``, which must be vertex-disjoint
    (MatchingNotDisjointError) and ints in range (IndexOutOfRangeError).
    Each row is the other class less the one vertex its pair removes, if
    any; the unmatched rows of a side share one tuple."""
    pairs = list(pairs)
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise MatchingNotDisjointError("removed pairs share a vertex")
    for x, y in pairs:
        if not (isinstance(x, int) and isinstance(y, int) and 0 <= x < n_x and 0 <= y < n_y):
            raise IndexOutOfRangeError(f"matching pair ({x}, {y}) outside {n_x}x{n_y}")
    if n_x < 0 or n_y < 0:
        raise ValueError("class sizes must be non-negative")
    row_x, row_y = tuple(range(n_y)), tuple(range(n_x))
    adj_x, adj_y = [row_x] * n_x, [row_y] * n_y
    for x, y in pairs:
        adj_x[x] = row_x[:y] + row_x[y + 1 :]
        adj_y[y] = row_y[:x] + row_y[x + 1 :]
    return _stored(BipartiteGraph, n_x, n_y, adj_x, adj_y)


def complete_bipartite(n_x: int, n_y: int) -> BipartiteGraph:
    return _complete_minus(n_x, n_y, ())


def complete_bipartite_minus_matching(n: int, matching: Iterable[Edge]) -> BipartiteGraph:
    """K_{n,n} minus a (not necessarily perfect) matching: its pairs must be
    vertex-disjoint (MatchingNotDisjointError) and ints in [0, n)
    (IndexOutOfRangeError)."""
    return _complete_minus(n, n, matching)


def double_graph(base: BipartiteGraph) -> BipartiteGraph:
    """Two copies of ``base``; every edge uv contributes uv, u'v', uv', u'v.

    Degrees double, balance and connectivity are preserved.  Vertex i and
    its copy i' share one stored row: N(i), then N(i) shifted by the other
    class size, so it is ascending with no edge list to sort or check.
    """
    adj_x = [ys + tuple([y + base.n_y for y in ys]) for ys in base._adj_x]
    adj_y = [xs + tuple([x + base.n_x for x in xs]) for xs in base._adj_y]
    return _stored(BipartiteGraph, 2 * base.n_x, 2 * base.n_y, adj_x * 2, adj_y * 2)


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
