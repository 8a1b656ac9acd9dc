"""Graph model, text format, and stock constructions."""

from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bifactor import (
    BipartiteGraph,
    DegreeDemand,
    Factor,
    GenSpec,
    VertexRef,
    check_factor,
    complete_bipartite,
    complete_bipartite_minus_matching,
    cycle_graph,
    cycle_order,
    double_graph,
    find_f_factor,
    generate,
    parse_factor,
    parse_graph,
    path_graph,
    serialize_factor,
    serialize_graph,
    star_pair_graph,
)
from bifactor.errors import (
    DuplicateEdgeError,
    EmptyGraphError,
    GraphFormatError,
    IndexOutOfRangeError,
    MalformedHeaderError,
    MatchingNotDisjointError,
    NotRegularError,
)
import bifactor.graph as graph_module
from bifactor.graph import (
    _INDEX,
    MAX_CLASS_SIZE,
    _component_labels,
    _edge_tokens,
    _line_runs,
    _read_canonical,
    _spell,
)

from conftest import (
    REFERENCE_EDGE_LINES,
    assert_constructor_as_reference,
    assert_minus_matching_as_constructed,
    assert_same_factor,
    assert_stored_as_constructed,
    bipartite_graphs,
    chain_host,
    reference_graph_init,
    reference_labels,
    reference_parse_factor,
    reference_parse_graph,
)

K22_TEXT = "bipartite 2 2 4\n0 0\n0 1\n1 0\n1 1\n"


class TestVertexRef:
    def test_label_and_ordering(self):
        assert VertexRef("X", 3).label == "X3"
        assert VertexRef("Y", 0).label == "Y0"
        assert VertexRef("X", 9) < VertexRef("Y", 0)

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            VertexRef("Z", 0)


class TestBipartiteGraph:
    def test_adjacency_is_sorted_and_deduplicated_input_rejected(self):
        g = BipartiteGraph(2, 3, [(1, 2), (1, 0), (0, 1)])
        assert g.neighbors_x(1) == (0, 2)
        assert g.neighbors_y(1) == (0,)
        assert g.degree_x(0) == 1 and g.degree_y(2) == 1
        assert g.neighbors(VertexRef("X", 1)) == (0, 2)
        assert g.neighbors(VertexRef("Y", 1)) == (0,)
        f = Factor(g, [(1, 2)])
        assert f.neighbors(VertexRef("X", 1)) == (2,) and f.neighbors(VertexRef("Y", 2)) == (1,)
        assert f.neighbors(VertexRef("X", 0)) == ()
        with pytest.raises(DuplicateEdgeError):
            BipartiteGraph(2, 2, [(0, 0), (0, 0)])

    def test_edge_outside_shape(self):
        with pytest.raises(IndexOutOfRangeError):
            BipartiteGraph(2, 2, [(2, 0)])
        with pytest.raises(IndexOutOfRangeError):
            BipartiteGraph(2, 2, [(0, -1)])
        # an x outside X has no row: has_edge answers False, not IndexError
        g = complete_bipartite(2, 2)
        assert not g.has_edge(-1, 0) and not g.has_edge(2, 0) and g.has_edge(1, 0)

    def test_vertices_enumerates_x_side_first(self):
        g = BipartiteGraph(2, 1, [])
        assert [v.label for v in g.vertices()] == ["X0", "X1", "Y0"]

    def test_degrees_in_index_order(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 1)])
        assert g.degrees() == ((2, 0, 1), (1, 2))
        assert g.min_degree() == 0

    def test_min_degree_requires_vertices(self):
        with pytest.raises(EmptyGraphError):
            BipartiteGraph(0, 0, []).min_degree()

    def test_connectivity(self):
        assert complete_bipartite(2, 2).is_connected()
        assert not BipartiteGraph(2, 2, [(0, 0), (1, 1)]).is_connected()
        # isolated vertex disconnects
        assert not BipartiteGraph(2, 1, [(0, 0)]).is_connected()

    def test_equality_ignores_edge_order(self):
        a = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        b = BipartiteGraph(2, 2, [(1, 1), (0, 0)])
        assert a == b
        assert hash(a) == hash(b)


class _Rows(tuple):
    """An adjacency that counts, in ``reads``, the rows read from it."""

    reads = [0]

    def __getitem__(self, i):
        _Rows.reads[0] += 1
        return tuple.__getitem__(self, i)


def _interleaved_host(n: int) -> BipartiteGraph:
    """Blocks of 3 + 3 vertices, each X(3b)..X(3b+1) and Y(3b+1)..Y(3b+2)
    joined completely, so X(3b+2) and Y(3b) are isolated between them."""
    edges = [(x, y) for x in range(n) for y in range(n) if x % 3 < 2 and y % 3]
    return BipartiteGraph(n, n, [(x, y) for x, y in edges if x // 3 == y // 3])


class TestComponentLabels:
    """Labelling stops once both sides are labelled; ids, labels and the
    count are those of union-find."""

    @pytest.mark.parametrize("n", [3, 40, 200, 800])
    def test_dense_host_reads_four_rows(self, n):
        """On K(n,n) minus a perfect matching the walk reads N(X0), two
        N(y)'s, which label every x, and one N(x) for the last y."""
        for seed in range(3):
            g = generate(GenSpec("k-minus-matching", n=n, seed=seed))
            _Rows.reads[0] = 0
            got = _component_labels(_Rows(g._adj_x), _Rows(g._adj_y))
            assert got == ((0,) * n, (0,) * n, 1)
            assert _Rows.reads[0] <= 4

    def test_deep_and_degenerate_shapes(self):
        """A 4,000-vertex path, far deeper than the recursion limit, and its
        perfect matching; graphs with no edge or no vertex on one side; a
        star pair; isolated vertices between components on both sides."""
        chain = chain_host(2000)
        graphs = [
            chain,
            find_f_factor(chain, DegreeDemand.uniform(chain, 1)),
            BipartiteGraph(1000, 1000, []),
            BipartiteGraph(0, 5, []),
            BipartiteGraph(5, 0, []),
            star_pair_graph(1200, 1),
            _interleaved_host(30),
            BipartiteGraph(9, 9, [(x, y) for x in range(1, 9, 2) for y in range(0, 9, 3)]),
        ]
        got = [_component_labels(g._adj_x, g._adj_y) for g in graphs]
        assert got == list(map(reference_labels, graphs))
        assert (got[0][2], got[1][2]) == (1, 2000)

    @given(bipartite_graphs(max_side=8, min_side=0))
    @settings(max_examples=300, deadline=None)
    def test_matches_union_find(self, g):
        assert _component_labels(g._adj_x, g._adj_y) == reference_labels(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 200])
    def test_minus_matching_hosts_and_their_factors(self, n):
        for seed in range(3):
            g = generate(GenSpec("k-minus-matching", n=n, seed=seed))
            assert _component_labels(g._adj_x, g._adj_y) == reference_labels(g)
            assert g.is_connected() == (n >= 3)
            if n >= 3:
                f = find_f_factor(g, DegreeDemand.uniform(g, 2))
                assert (f.comp_x, f.comp_y, f.n_components) == reference_labels(f)


class TestFactor:
    def test_is_a_graph_on_the_host_vertices(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 1)])
        f = Factor(g, [(2, 1), (0, 0)])
        assert isinstance(f, BipartiteGraph)
        assert (f.n_x, f.n_y, f.m) == (3, 2, 2)
        assert f.edge_list == ((0, 0), (2, 1))
        assert f.neighbors_x(0) == (0,) and f.neighbors_y(1) == (2,)
        assert f.degrees() == ((1, 0, 1), (1, 1))
        assert f.n_components == 3

    def test_rejects_edge_missing_from_host(self):
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(IndexOutOfRangeError, match=r"factor edge \(0, 1\) not in host"):
            Factor(g, [(0, 0), (0, 1)])
        with pytest.raises(IndexOutOfRangeError):
            Factor(g, [(2, 0)])

    def test_rejects_repeated_edge(self):
        g = complete_bipartite(2, 2)
        with pytest.raises(DuplicateEdgeError):
            Factor(g, [(0, 1), (1, 0), (0, 1)])

    def test_factor_with_every_host_edge_is_not_its_host(self):
        g = complete_bipartite(2, 2)
        f = Factor(g, g.edge_list)
        assert f.edge_set == g.edge_set
        assert g != f and f != g
        assert f == Factor(g, reversed(g.edge_list))
        assert hash(f) == hash(Factor(g, g.edge_list))

    @given(bipartite_graphs(max_side=6, min_side=0), st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_adjacency_matches_the_constructor(self, host, data):
        """Any subset of the host's edges, handed over as ascending
        adjacency, gives the factor Factor(host, edges) gives."""
        edges = data.draw(st.lists(st.sampled_from(host.edge_list), unique=True)) if host.m else []
        assert_same_factor(_via_adjacency(host, edges), Factor(host, edges))

    def test_check_factor_catches_a_stray_edge_handed_over(self):
        """_from_adjacency trusts its producer and does not walk the host;
        check_factor, which every pipeline runs on its answer, names the
        first edge the host lacks, as the constructor does."""
        g = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        for edges, stray in (
            ([(0, 0), (0, 1)], (0, 1)),
            ([(1, 0)], (1, 0)),
            ([(0, 1), (1, 0)], (0, 1)),
        ):
            f = _via_adjacency(g, edges)
            with pytest.raises(AssertionError) as err:
                check_factor(g, f, 1, connected=False)
            assert str(err.value) == f"edge {stray} not in host"
            with pytest.raises(IndexOutOfRangeError, match=re.escape(f"factor edge {stray} not")):
                Factor(g, edges)


def _via_adjacency(host: BipartiteGraph, edges) -> Factor:
    """Factor._from_adjacency on the ascending adjacency of ``edges``."""
    adj_x = [sorted(y for x, y in edges if x == i) for i in range(host.n_x)]
    adj_y = [sorted(x for x, y in edges if y == j) for j in range(host.n_y)]
    return Factor._from_adjacency(host, adj_x, adj_y)


class TestParse:
    def test_round_trip_k22(self):
        g = parse_graph(K22_TEXT)
        assert (g.n_x, g.n_y, g.m) == (2, 2, 4)
        assert serialize_graph(g) == K22_TEXT

    def test_comments_and_blank_lines_skipped(self):
        text = "# host\n\nbipartite 1 1 1\n# inner\n0 0\n"
        assert parse_graph(text).m == 1

    def test_missing_header(self):
        with pytest.raises(MalformedHeaderError):
            parse_graph("0 0\n")

    def test_bad_header_names_its_line(self):
        with pytest.raises(MalformedHeaderError) as err:
            parse_graph("# c\nbipartite 2 2\n")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2:")

    def test_edge_count_mismatch_points_at_header(self):
        with pytest.raises(MalformedHeaderError) as err:
            parse_graph("bipartite 2 2 3\n0 0\n")
        assert err.value.line == 1

    def test_duplicate_edge_names_its_line(self):
        with pytest.raises(DuplicateEdgeError) as err:
            parse_graph("bipartite 2 2 2\n0 0\n0 0\n")
        assert err.value.line == 3

    def test_out_of_range_edge_names_its_line(self):
        with pytest.raises(IndexOutOfRangeError) as err:
            parse_graph("bipartite 2 2 1\n0 5\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("bad", ["bipartite a 2 1\n0 0\n", "bipartite 2 -1 0\n"])
    def test_header_field_validation(self, bad):
        with pytest.raises(MalformedHeaderError):
            parse_graph(bad)

    def test_class_size_cap(self):
        """Headers above the cap are refused before anything is allocated."""
        assert parse_graph(f"bipartite {MAX_CLASS_SIZE} 1 0\n").n_x == MAX_CLASS_SIZE
        for header in (
            f"bipartite {MAX_CLASS_SIZE + 1} 1 0\n",
            f"# c\nbipartite 1 {MAX_CLASS_SIZE + 1} 0\n",
        ):
            with pytest.raises(MalformedHeaderError, match="class size above"):
                parse_graph(header)

    def test_non_integer_endpoint(self):
        with pytest.raises(GraphFormatError):
            parse_graph("bipartite 2 2 1\n0 q\n")

    @given(bipartite_graphs())
    @settings(max_examples=60)
    def test_serialize_parse_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g


def _outcome(build, *args):
    """The graph's fields, or the class, text and line of what it raised."""
    try:
        g = build(*args)
    except Exception as exc:  # the reference's outcome may be any exception
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n_x, g.n_y, g.edge_list, g.edge_set, g._adj_x, g._adj_y


# Graph texts for the reader to mutate: canonical, unsorted, commented and
# indented files, and one with a repeated edge.
PARSE_SEEDS = [
    serialize_graph(g)
    for g in (
        BipartiteGraph(0, 0, []),
        complete_bipartite(2, 2),
        path_graph(5),
        double_graph(cycle_graph(3)),
        complete_bipartite_minus_matching(5, [(i, i) for i in range(5)]),
    )
] + [
    "# host\n\nbipartite 3 2 3\n# inner\n2 1\n  0 0\t\n\n1 1\n",
    "bipartite 2 3 3\n1 2\n0 1\n1 2\n",
]
PARSE_CHARS = st.one_of(st.sampled_from("0123456789 -+#_\n\tbx"), st.characters())


@st.composite
def mutated_texts(draw, seeds=PARSE_SEEDS) -> str:
    """A seed text with lines after the first swapped or repeated, then
    characters replaced, inserted or deleted."""
    lines = draw(st.sampled_from(seeds)).splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 2)) if len(lines) > 1 else 0):
        i, j = draw(st.integers(1, len(lines) - 1)), draw(st.integers(1, len(lines) - 1))
        if draw(st.booleans()):
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines.insert(j, lines[i])
    text = list("".join(lines))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        body = min(len(lines[0]), len(text))
        i = draw(st.integers(draw(st.sampled_from((0, body))), len(text)))
        if op == "insert":
            text.insert(i, draw(PARSE_CHARS))
        elif i < len(text):
            if op == "delete":
                del text[i]
            else:
                text[i] = draw(PARSE_CHARS)
    return "".join(text)


@st.composite
def edge_inputs(draw):
    """Class sizes and a maker of fresh edge iterables of one of four
    kinds: unsorted, often repeated, and in half the cases with endpoints
    from -1 to 5, so out of range."""
    n_x, n_y = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if n_x and n_y and draw(st.booleans()):
        pairs = st.tuples(st.integers(0, n_x - 1), st.integers(0, n_y - 1))
    else:
        pairs = st.tuples(st.integers(-1, 5), st.integers(-1, 5))
    edges = draw(st.lists(pairs, max_size=12))
    kind = draw(st.sampled_from(("list", "tuple", "generator", "set")))
    if kind == "set":
        edges = set(edges)
        return n_x, n_y, lambda: edges
    if kind == "generator":
        return n_x, n_y, lambda: (e for e in edges)
    return n_x, n_y, lambda: (tuple if kind == "tuple" else list)(edges)


# Files in the shape of a canonical file whose edges are not canonical.
NOT_CANONICAL_EDGES = [
    "bipartite 1 2 1\n0 01\n",  # a leading zero
    "bipartite 2 2 2\n0 0\n1 01\n",
    "bipartite 3 2 1\n0 2\n",  # y >= n_y, below n_x
    "bipartite 3 2 2\n0 1\n2 2\n",
    "bipartite 2 3 1\n2 0\n",  # x >= n_x, below n_y
    "bipartite 2 3 2\n1 2\n2 2\n",
    "bipartite 2 2 2\n1 1\n0 0\n",  # unsorted
    "bipartite 2 3 3\n0 2\n0 1\n1 0\n",
    "bipartite 2 3 3\n0 1\n0 1\n1 2\n",  # a repeated edge
    "bipartite 2 2 3\n0 0\n1 1\n1 1\n",
    "bipartite 2 2 1\n0 10\n",  # a numeral longer than any index
    "bipartite 2 2 2\n0 0\n123456789012345678901234567890 1\n",
]

# Files whose edge lines the bulk read must refuse although str.split()
# finds two numerals on each: another separator, a CRLF body, and a digit
# that int() reads but the ASCII-only layout refuses.
NOT_CANONICAL_LAYOUT = [
    "bipartite 2 2 2\n0\x0b0\n1 1\n",
    "bipartite 2 2 2\n0\x1c0\n1 1\n",
    "bipartite 2 2 2\n0 0\r\n1 1\r\n",
    "bipartite 2 2 2\n0 0\n\u0661 1\n",
]

# Canonical files at the edges of what the bulk read must take: empty X
# rows at the start, in the middle and at the end, no edges in nonempty
# classes, and a y of n_y - 1.
CANONICAL_EDGE_CASES = [
    "bipartite 3 2 2\n1 0\n2 1\n",
    "bipartite 3 2 2\n0 0\n2 1\n",
    "bipartite 3 2 2\n0 0\n1 1\n",
    "bipartite 4 2 2\n1 1\n2 0\n",
    "bipartite 3 2 0\n",
    "bipartite 3 2 0",
    "bipartite 2 3 1\n1 2\n",
    "bipartite 2 3 2\n0 2\n1 2\n",
]


def _assert_refused_directly(text: str) -> None:
    """The direct read refuses ``text``'s body, and parse_graph gives the
    first-written reader's outcome."""
    head, _, body = text.partition("\n")
    n_x, n_y, m = map(int, head.split()[1:])
    assert _read_canonical(n_x, n_y, m, body) is None
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)


class TestAgainstFirstWritten:
    """The one-pass reader and the bulk-validating constructor give the
    outcome of the versions first written, kept in conftest.py: the same
    graph fields, or the same exception class, text and line."""

    @given(mutated_texts())
    @settings(max_examples=600, deadline=None)
    def test_parse_matches_reference(self, text):
        assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)

    @given(edge_inputs())
    @settings(max_examples=600, deadline=None)
    def test_constructor_matches_reference(self, case):
        n_x, n_y, make = case
        assert _outcome(BipartiteGraph, n_x, n_y, make()) == _outcome(
            reference_graph_init, n_x, n_y, make()
        )

    def test_constructor_matches_reference_on_seeded_lists(self):
        """The CI sweep's check, on fewer lists."""
        counts = assert_constructor_as_reference(500, 2)
        assert sorted(counts) == ["DuplicateEdgeError", "IndexOutOfRangeError", "graph"]

    @pytest.mark.parametrize(
        "n_x, n_y, make, error, message",
        [
            (-1, 0, list, ValueError, "class sizes must be non-negative"),
            (0, -1, list, ValueError, "class sizes must be non-negative"),
            (2, 2, lambda: [(5, 0), ("a", 0)], IndexOutOfRangeError, "edge (5, 0) outside 2x2"),
            (1, 1, lambda: [(0.5, 0)], TypeError,
             "list indices must be integers or slices, not float"),
            (2, 2, lambda: [(1,)], ValueError, "not enough values to unpack (expected 2, got 1)"),
            (2, 2, lambda: iter([(1, 1), (1, 1)]), DuplicateEdgeError, "edge (1, 1) repeated"),
            (2, 2, lambda: ((0, 1), [0, 1]), DuplicateEdgeError, "edge (0, 1) repeated"),
        ],
    )
    def test_fault_outcomes(self, n_x, n_y, make, error, message):
        """Each fault raises as the reference does, with no exception of
        the sorted pass chained onto it."""
        with pytest.raises(error) as err:
            BipartiteGraph(n_x, n_y, make())
        assert type(err.value) is error and str(err.value) == message
        assert err.value.__context__ is None
        assert _outcome(BipartiteGraph, n_x, n_y, make()) == _outcome(
            reference_graph_init, n_x, n_y, make()
        )

    def test_pairs_that_sort_only_as_tuples(self):
        """Lists mixed with tuples do not sort, but name no fault: the
        edges are indexed as tuples."""
        g = BipartiteGraph(2, 2, [[1, 1], (0, 0)])
        assert g._adj_x == ((0,), (1,)) and g._adj_y == ((0,), (1,))
        assert _outcome(BipartiteGraph, 2, 2, [[1, 1], (0, 0)]) == _outcome(
            reference_graph_init, 2, 2, [[1, 1], (0, 0)]
        )

    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("bipartite 2 2 2\n0 5\nq q\n", IndexOutOfRangeError, 2),
            ("bipartite 2 2 3\n0 0\n0 0\n1\n", DuplicateEdgeError, 3),
            ("bipartite 2 2 9\n-1 0\n", IndexOutOfRangeError, 2),
            ("bipartite 2 2 3\n1 1\n0 0\n0 0\n", DuplicateEdgeError, 4),
            ("# c\nbipartite 2 2 3\n1 1\n0 0\n", MalformedHeaderError, 2),
        ],
    )
    def test_first_bad_line_is_named(self, text, error, line):
        """An early bad edge is named before a later syntax error or the
        header's edge count, as when every line was checked in turn."""
        with pytest.raises(error) as err:
            parse_graph(text)
        assert err.value.line == line
        assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)

    @pytest.mark.parametrize(
        "text",
        # Headers holding another line break of str.splitlines: one that
        # parts the header from an edge, and one that ends the header
        # before good or repeated edges.
        [f"bipartite 2 2 1{c}0 0\n1 1\n" for c in "\x0c\x0b\x1c\x85\u2028\r"]
        + [f"bipartite 2 2 2{c}\n0 0\n1 1\n" for c in "\x0c\x0b\x1c\x85\u2028\r"]
        + [f"bipartite 2 2 2{c}\n0 0\n0 0\n" for c in "\x0c\x0b\x1c\x85\u2028\r"]
        + [
            "bipartite 2 2 1\x0c\x0c\n0 0\n",
            "bipartite 2 2 2\r\n0 0\n1 1\n",
            "# bipartite 2 2 1\n0 0\n",
            "#\n0 0\n",
            " bipartite 2 2 1\n0 0\n",
            "bipartite 2 2 2\r\n0 0\r\n1 1\r\n",
            "# c\nbipartite 2 2 2\n0 0\n1 1\n",
            "\nbipartite 2 2 2\n0 0\n1 1\n",
            " bipartite 2 2 2 \n0 0\n1 1\n",
            "bipartite 2 2 2\n0 0\n1 1",
            "bipartite 0 0 0",
            "bipartite 0 0 0\n",
            "bipartite 2 2 2\n00 0\n1 01\n",
            "bipartite 2 2 2\n0 0\n+1 1\n",
            "bipartite 2 2 2\n0\t0\n1 1\n",
            "bipartite 2 2 2\n0 0\n# x\n1 1\n",
            "bipartite 2 2 2\n0 0\n0 0\n",
            "bipartite 2 2 2\n0 0\n2 1\n",
            "bipartite 2 2 3\n0 0\n1 1\n",
            "bipartite 2 2 1\n0 0\n1 1\n",
            "bipartite 2 2 1\n" + "1" * 5000 + " 0\n",
        ],
    )
    def test_canonical_shape_edge_cases(self, text):
        """Files at the edge of the canonical shape the bulk read takes."""
        assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)

    @given(
        st.lists(
            st.sampled_from(
                ["0 0\n", "12 345\n", "7 7\n", "1  2\n", "1 2", "\n", " 1 2\n", "1 x\n", "7", " 1\n"]
                + [f"1{c}2\n" for c in "\t\x0b\x0c\x1c\x85\xa0\u3000"]
                + ["1 2\r\n", "\u0663 1\n", "1 \uff10\n", "+1 2\n", "1 -1\n"]
            )
        ),
        st.integers(1, 12),
    )
    @example([" 1\n", "7"], 12)  # two numerals and " \n" once, but one numeral is the tail
    @settings(max_examples=400, deadline=None)
    def test_canonical_check_in_runs_of_lines(self, parts, chunk):
        """Checked run by run, as _read_canonical checks it, in runs of
        whole lines, some of them shorter than a line, a body is canonical
        exactly when the reference pattern matches all of it; a body
        checked as one run, whatever its last line, is too, and its
        numerals are those str.split() finds."""
        body = "".join(parts)
        canonical = REFERENCE_EDGE_LINES.fullmatch(body) is not None
        runs = [body[start:stop] for start, stop in _line_runs(body, chunk)]
        assert all(_edge_tokens(run) is not None for run in runs) == canonical
        if body:
            assert _edge_tokens(body) == (body.split() if canonical else None)

    @pytest.mark.parametrize("tail", ["", "1 x\n"])
    def test_canonical_check_memory_is_bounded(self, tail):
        """The run-by-run check _read_canonical makes, on a 200,000-line
        body, canonical or bad in its last line, peaks at well under the
        ~20 MB that one match of the whole body by the reference pattern
        holds."""
        body = "".join(f"{i % 1000} {i % 997}\n" for i in range(200_000)) + tail
        tracemalloc.start()
        try:
            checked = (_edge_tokens(body[start:stop]) for start, stop in _line_runs(body))
            assert all(tokens is not None for tokens in checked) == (not tail)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("text", NOT_CANONICAL_EDGES + NOT_CANONICAL_LAYOUT)
    def test_canonical_shape_not_canonical_edges(self, text):
        """Files in the shape of a canonical file whose edges are not
        canonical, and files whose edge lines split into two numerals each
        but are not laid out as serialize_graph writes them: the direct
        read refuses them, and the general reader gives the first-written
        reader's graph or error."""
        _assert_refused_directly(text)

    @pytest.mark.parametrize("text", CANONICAL_EDGE_CASES)
    def test_canonical_edge_cases_read_directly(self, text):
        """Canonical files with empty rows, no edges or a last y of
        n_y - 1 are read directly, into the first-written reader's graph."""
        head, _, body = text.partition("\n")
        n_x, n_y, m = map(int, head.split()[1:])
        assert _read_canonical(n_x, n_y, m, body) is not None
        assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)

    def test_shared_spelling_table_widens_nothing(self):
        """Once a 1,200 + 1,200 graph is read, the shared spelling table
        spells every index of the small files above, in range or not: the
        direct read still refuses each of them, and the general reader
        gives the first-written reader's outcome."""
        n = 1200
        big = BipartiteGraph(n, n, [(i, j) for i in range(n) for j in {i, n - 1 - i}])
        assert parse_graph(serialize_graph(big)) == big
        assert n <= len(_INDEX) <= MAX_CLASS_SIZE
        for text in NOT_CANONICAL_EDGES:
            _assert_refused_directly(text)

    def test_oversized_header_fails_before_the_table_grows(self, monkeypatch):
        """A class above MAX_CLASS_SIZE is refused from the header, before
        the spelling table is asked to grow; asked directly, the table
        stops at MAX_CLASS_SIZE."""

        def no_growth(n):
            raise AssertionError(f"spelling table grown to {n}")

        monkeypatch.setattr(graph_module, "_spell", no_growth)
        for n_x, n_y in [(MAX_CLASS_SIZE + 1, 1), (1, MAX_CLASS_SIZE + 1)]:
            with pytest.raises(MalformedHeaderError, match="class size above"):
                parse_graph(f"bipartite {n_x} {n_y} 1\n0 0\n")
        monkeypatch.undo()
        _spell(MAX_CLASS_SIZE + 5)
        assert len(_INDEX) == MAX_CLASS_SIZE and str(MAX_CLASS_SIZE) not in _INDEX

    @pytest.mark.parametrize("change", ["none", "swap-at-cut", "repeat-at-cut", "last-x", "last-y", "swap-last"])
    def test_direct_read_across_runs(self, change):
        """A 125 KB canonical file is read in two runs of whole lines, with
        rows that are empty or cross the cut.  It gives the constructor's
        adjacency, and an edge unsorted or repeated across the cut, or out
        of range in the last run, is refused."""
        n = 3000
        _spell(n + 1)  # n is spelled, so only the range checks can refuse it
        edges = [(x, (x * 7 + 11 * j) % n) for x in range(n) if x % 5 for j in range(5)]
        graph = BipartiteGraph(n, n, edges)
        body = serialize_graph(graph).partition("\n")[2]
        cut = next(_line_runs(body))[1]
        assert 0 < cut < len(body) and len(list(_line_runs(body))) == 2
        lines = body.splitlines(keepends=True)
        at = body.count("\n", 0, cut)  # the first line of the second run
        if change == "swap-at-cut":
            lines[at - 1], lines[at] = lines[at], lines[at - 1]
        elif change == "repeat-at-cut":
            lines[at] = lines[at - 1]
        elif change == "last-x":
            lines[-1] = f"{n} 0\n"
        elif change == "last-y":
            lines[-1] = f"{n - 1} {n}\n"
        elif change == "swap-last":
            lines[-2], lines[-1] = lines[-1], lines[-2]
        got = _read_canonical(n, n, graph.m, "".join(lines))
        if change == "none":
            assert (got.m, got._adj_x, got._adj_y) == (graph.m, graph._adj_x, graph._adj_y)
        else:
            assert got is None

    @given(bipartite_graphs(max_side=6, min_side=0))
    @settings(max_examples=200, deadline=None)
    def test_canonical_read_matches_the_constructor(self, graph):
        """A canonical file is read straight into the constructor's
        adjacency."""
        body = serialize_graph(graph).partition("\n")[2]
        got = _read_canonical(graph.n_x, graph.n_y, graph.m, body)
        assert got is not None
        assert (got.n_x, got.n_y, got.m, got._adj_x, got._adj_y) == (
            graph.n_x, graph.n_y, graph.m, graph._adj_x, graph._adj_y
        )

    def test_parsed_dense_graph_holds_its_adjacency_only(self):
        """A canonical K(400,400) minus a perfect matching, 159,600 edges,
        holds its two adjacency tuples and no per-edge object: at most
        4 MB, where a tuple and a set entry per edge took about 23 MB."""
        n = 400
        graph = complete_bipartite_minus_matching(n, [(i, i) for i in range(n)])
        text = serialize_graph(graph)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parsed = parse_graph(text)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert parsed == graph
        assert held <= 4 << 20

    def test_dense_parse_peaks_low(self):
        """The same file is split and converted one run of lines at a
        time: the parse peaks under 12 MB, where splitting the whole body
        first held 319,200 token strings and peaked at about 31 MB."""
        n = 400
        graph = complete_bipartite_minus_matching(n, [(i, i) for i in range(n)])
        text = serialize_graph(graph)
        tracemalloc.start()
        try:
            parsed = parse_graph(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == graph
        assert peak < 12 << 20

    def test_list_edges_are_stored_as_tuples(self):
        g = BipartiteGraph(2, 2, [[1, 0], [0, 1]])
        assert g.edge_list == ((0, 1), (1, 0)) and g.has_edge(1, 0)


def _regular_factor_text(host: BipartiteGraph, edges, cycle: bool = False) -> str:
    factor = Factor(host, edges)
    return serialize_factor(factor, cycle=cycle_order(factor) if cycle else None)


K22 = complete_bipartite(2, 2)
K22_LESS_01 = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
DOUBLED_C3 = double_graph(cycle_graph(3))
K55_LESS_MATCHING = complete_bipartite_minus_matching(5, [(i, i) for i in range(5)])
K22_CYCLE_HEAD = "factor 2 4\n0 0\n0 1\n1 0\n1 1\n"
K33 = complete_bipartite(3, 3)
K33_HEXAGON = "factor 2 6\n0 0\n0 2\n1 0\n1 1\n2 1\n2 2\n"
K44_LESS_MATCHING = complete_bipartite_minus_matching(4, [(i, i) for i in range(4)])
K44_LESS_MATCHING_TEXT = serialize_factor(Factor(K44_LESS_MATCHING, K44_LESS_MATCHING.edge_list))

# Factor files for the reader to mutate, each with its host: canonical
# files with and without a cycle line, commented and indented files with
# the cycle line first (one of them a 1-factor, which has no Hamilton
# cycle), an irregular file and one with an edge the host lacks.
FACTOR_SEEDS = [
    (K22, _regular_factor_text(K22, K22.edge_list, cycle=True)),
    (
        DOUBLED_C3,
        _regular_factor_text(
            DOUBLED_C3, [(x + h, y + h) for x, y in cycle_graph(3).edge_list for h in (0, 3)]
        ),
    ),
    (
        K55_LESS_MATCHING,
        _regular_factor_text(K55_LESS_MATCHING, [(i, (i + 1) % 5) for i in range(5)]),
    ),
    (K22, "# f\n\nfactor 1 2\ncycle X0 Y0\n  0 0\t\n# c\n1 1\n"),
    (K22, "# f\n\nfactor 2 4\n  cycle X0 Y1 X1 Y0\t\n0 0\n# c\n0 1\n1 0\n1 1\n"),
    (
        K55_LESS_MATCHING,
        _regular_factor_text(
            K55_LESS_MATCHING, [(i, (i + d) % 5) for i in range(5) for d in (1, 2)], cycle=True
        ),
    ),
    (K22, "factor 1 2\n0 0\n0 1\n"),
    (K22_LESS_01, "factor 1 2\n0 1\n1 0\n"),
]


@st.composite
def mutated_factor_files(draw) -> tuple[BipartiteGraph, str]:
    host, text = draw(st.sampled_from(FACTOR_SEEDS))
    return host, draw(mutated_texts([text]))


def _is_hamilton_cycle(labels: list[str], factor: Factor) -> bool:
    """Whether the labels of a cycle line name every vertex of the factor
    once, sides alternating, each step around the closed walk a factor
    edge."""
    names = [f"X{i}" for i in range(factor.n_x)] + [f"Y{j}" for j in range(factor.n_y)]
    if len(labels) < 4 or sorted(labels) != sorted(names):
        return False
    edges = factor.edge_set
    for a, b in zip(labels, labels[1:] + labels[:1]):
        x, y = (a, b) if a[0] == "X" else (b, a)
        if x[0] != "X" or y[0] != "Y" or (int(x[1:]), int(y[1:])) not in edges:
            return False
    return True


def _first_bad_cycle_line(text: str, factor: Factor) -> int | None:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("cycle ") and not _is_hamilton_cycle(line.split()[1:], factor):
            return lineno
    return None


class TestFactorReader:
    """parse_factor gives the outcome of the reference reader kept in
    conftest.py, which faults edge lines as the graph reader does, and each
    of its errors has that reader's text and line.  The one exception is a
    cycle line, which that reader ignores: on a file it accepts, a cycle
    line that is not a Hamilton cycle of the factor is a GraphFormatError
    naming that line."""

    @given(mutated_factor_files())
    @settings(max_examples=600, deadline=None)
    def test_parse_matches_reference(self, case):
        host, text = case
        got, want = _outcome(parse_factor, text, host), _outcome(reference_parse_factor, text, host)
        bad = None if isinstance(want[0], type) else _first_bad_cycle_line(
            text, reference_parse_factor(text, host)
        )
        if bad is None:
            assert got == want
        else:
            assert (got[0], got[2]) == (GraphFormatError, bad)

    @pytest.mark.parametrize(
        "host, text, error, message",
        [
            (K22, "", MalformedHeaderError, "missing 'factor' header line"),
            (K22, "# comment\n\n", MalformedHeaderError, "missing 'factor' header line"),
            (
                K22,
                "bipartite 2 2 4\n0 0\n",
                MalformedHeaderError,
                "line 1: expected 'factor <k> <m>', got 'bipartite 2 2 4'",
            ),
            (
                K22,
                "\nfactor 1\n",
                MalformedHeaderError,
                "line 2: expected 'factor <k> <m>', got 'factor 1'",
            ),
            (
                K22,
                "factor one 2\n0 0\n1 1\n",
                MalformedHeaderError,
                "line 1: non-integer field in header 'factor one 2'",
            ),
            (
                K22,
                "factor 1 2\n0 0 1\n1 1\n",
                GraphFormatError,
                "line 2: expected '<x> <y>', got '0 0 1'",
            ),
            (
                K22,
                "factor 1 2\n0 0\n# c\n1 y\n",
                GraphFormatError,
                "line 4: non-integer endpoint in '1 y'",
            ),
            (
                K22,
                "factor 1 3\n0 0\n1 1\n",
                MalformedHeaderError,
                "line 1: header promises 3 edges, file has 2",
            ),
            (
                K22,
                "factor 1 2\n0 0\n2 1\n",
                IndexOutOfRangeError,
                "line 3: edge (2, 1) outside 2x2",
            ),
            (K22, "factor 1 2\n1 1\n1 1\n", DuplicateEdgeError, "line 3: edge (1, 1) repeated"),
            (
                K22_LESS_01,
                "factor 1 2\n0 1\n1 0\n",
                IndexOutOfRangeError,
                "line 2: factor edge (0, 1) not in host graph",
            ),
            (
                K22,
                "factor 2 2\n0 0\n1 1\n",
                NotRegularError,
                "factor file claims 2-regular but degrees differ",
            ),
            # The first fault in file order is named, as in a graph file:
            # an out-of-range edge before a bad line below it and before
            # the edge count.
            (
                K22,
                "factor 1 9\n5 5\nq\n",
                IndexOutOfRangeError,
                "line 2: edge (5, 5) outside 2x2",
            ),
            (
                K22,
                "factor 1 1\n5 5\n0 0\n",
                IndexOutOfRangeError,
                "line 2: edge (5, 5) outside 2x2",
            ),
            # Blank and comment lines count toward the line named.
            (
                K33,
                "factor 2 6\n0 0\n0 1\n\n1 3\n1 1\n",
                IndexOutOfRangeError,
                "line 5: edge (1, 3) outside 3x3",
            ),
            (
                K33,
                "factor 2 6\n0 0\n# c\n1 1\n0 0\n",
                DuplicateEdgeError,
                "line 5: edge (0, 0) repeated",
            ),
            (
                K33,
                "factor 2 6\n0 0\n3 0\n1 1\nq 1\n",
                IndexOutOfRangeError,
                "line 3: edge (3, 0) outside 3x3",
            ),
            (
                K33,
                "\nfactor 2 6\n0 0\n1 1\ncycle X0\n",
                MalformedHeaderError,
                "line 2: header promises 6 edges, file has 2",
            ),
            # The first edge the host lacks in file order is named, after
            # every fault the graph reader would raise.
            (
                K55_LESS_MATCHING,
                "factor 1 2\n3 3\n0 0\n",
                IndexOutOfRangeError,
                "line 2: factor edge (3, 3) not in host graph",
            ),
            (
                K55_LESS_MATCHING,
                "factor 1 2\n3 3\n0 5\n",
                IndexOutOfRangeError,
                "line 3: edge (0, 5) outside 5x5",
            ),
            (
                K55_LESS_MATCHING,
                "factor 1 3\n3 3\n0 1\n",
                MalformedHeaderError,
                "line 1: header promises 3 edges, file has 2",
            ),
        ],
    )
    def test_each_error(self, host, text, error, message):
        with pytest.raises(error) as err:
            parse_factor(text, host)
        assert type(err.value) is error and str(err.value) == message
        assert _outcome(parse_factor, text, host) == _outcome(reference_parse_factor, text, host)

    @given(mutated_factor_files())
    @settings(max_examples=300, deadline=None)
    def test_edge_faults_match_the_graph_reader(self, case):
        """A factor file's edge lines fault as a graph file's do: under a
        ``bipartite <nX> <nY> <m>`` header with the host's class sizes and
        the factor header's m, its cycle lines blanked so that every line
        keeps its number, the graph reader raises the class, text and line
        that parse_factor raises.  Where the graph reader accepts the
        lines, parse_factor fails, if at all, on the host, naming the line
        of an edge it lacks, on the degrees, or on a cycle line."""
        host, text = case
        lines = text.splitlines()
        heads = [i for i, raw in enumerate(lines) if raw.strip() and raw.strip()[0] != "#"]
        try:
            keyword, k, m = lines[heads[0]].split()
            k, m = int(k), int(m)
        except (IndexError, ValueError):  # the factor header itself is at fault
            return
        if keyword != "factor" or m < 0:
            return
        lines[heads[0]] = f"bipartite {host.n_x} {host.n_y} {m}"
        blanked = ["" if raw.strip().startswith("cycle ") else raw for raw in lines]
        want = _outcome(parse_graph, "\n".join(blanked))
        got = _outcome(parse_factor, text, host)
        if isinstance(want[0], type):
            assert got == want
        elif isinstance(got[0], type) and got[1].endswith("not in host graph"):
            assert not host.has_edge(*map(int, blanked[got[2] - 1].split())), got
        elif isinstance(got[0], type):
            assert got[2] is None or blanked[got[2] - 1] == "", got

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_cycle_line_before_or_after_the_edges(self, where):
        cycle = "cycle X0 Y0 X1 Y1\n"
        body = "0 0\n0 1\n1 0\n1 1\n"
        text = "factor 2 4\n" + (cycle + body if where == "before" else body + cycle)
        factor = parse_factor(text, K22)
        assert factor.edge_list == K22.edge_list and factor.regularity() == 2

    @pytest.mark.parametrize(
        "host, text, message",
        [
            (K22, "factor 1 2\n0 0\n1 1\ncycle X0 Y0\n", "line 4: cycle lists 2 of 4 vertices"),
            (K22, K22_CYCLE_HEAD + "cycle X0 Y0 X1 Y0\n", "line 6: cycle lists Y0 twice"),
            (K22, K22_CYCLE_HEAD + "cycle X0 Y0 X1 Y1 X0\n", "line 6: cycle lists X0 twice"),
            (K22, K22_CYCLE_HEAD + "cycle X0 Y0 X1\n", "line 6: cycle lists 3 of 4 vertices"),
            (
                K22,
                K22_CYCLE_HEAD + "cycle X0 X1 Y0 Y1\n",
                "line 6: cycle step X0-X1 stays on one side",
            ),
            (
                K22,
                K22_CYCLE_HEAD + "cycle X0 Y0 X1 Y2\n",
                "line 6: cycle names no vertex of the host: 'Y2'",
            ),
            (
                K22,
                K22_CYCLE_HEAD + "cycle X0 Y0 X1 y1\n",
                "line 6: cycle names no vertex of the host: 'y1'",
            ),
            (
                K22,
                K22_CYCLE_HEAD + "cycle X0 Y0 X1 Y01\n",
                "line 6: cycle names no vertex of the host: 'Y01'",
            ),
            # every cycle line is checked, wherever it stands
            (
                K22,
                "# c\nfactor 2 4\ncycle X0 Y0 X1 Y1\n0 0\n\n0 1\n1 0\n1 1\ncycle X1 Y1\n",
                "line 9: cycle lists 2 of 4 vertices",
            ),
            (
                complete_bipartite(1, 1),
                "factor 1 1\n0 0\ncycle X0 Y0\n",
                "line 3: no cycle runs through 2 vertices",
            ),
            (
                K33,
                K33_HEXAGON + "cycle X0 Y0 X2 Y1 X1 Y2\n",
                "line 8: cycle step Y0-X2 is not a factor edge",
            ),
            # the closing step, back to the first vertex, is a step too
            (
                K44_LESS_MATCHING,
                K44_LESS_MATCHING_TEXT + "cycle X0 Y1 X2 Y3 X1 Y2 X3 Y0\n",
                "line 14: cycle step Y0-X0 is not a factor edge",
            ),
        ],
    )
    def test_each_cycle_error(self, host, text, message):
        with pytest.raises(GraphFormatError) as err:
            parse_factor(text, host)
        assert type(err.value) is GraphFormatError and str(err.value) == message

    @pytest.mark.parametrize(
        "host, text, error",
        [
            (K22, "factor 1 3\ncycle X0\n0 0\n1 1\n", MalformedHeaderError),
            (K22, "factor 1 2\n0 0\n9 9\ncycle X0\n", IndexOutOfRangeError),
            (K22, "factor 2 2\n0 0\n1 1\ncycle X0\n", NotRegularError),
        ],
    )
    def test_cycle_checked_after_the_factor(self, host, text, error):
        with pytest.raises(error):
            parse_factor(text, host)

    def test_hamilton_cycle_of_a_cube(self):
        """K(4,4) minus a perfect matching is the 3-cube: a 3-factor of
        itself, with the Hamilton cycle below."""
        text = K44_LESS_MATCHING_TEXT + "cycle X0 Y1 X2 Y3 X1 Y0 X3 Y2\n"
        assert parse_factor(text, K44_LESS_MATCHING).edge_list == K44_LESS_MATCHING.edge_list


def _four_copies(base: BipartiteGraph) -> list[tuple[int, int]]:
    """The edges of base's double by the rule: uv, u'v', uv', u'v per edge uv."""
    return [
        edge
        for x, y in base.edge_list
        for edge in [(x, y), (x + base.n_x, y + base.n_y), (x, y + base.n_y), (x + base.n_x, y)]
    ]


class TestConstructions:
    def test_complete_bipartite(self):
        g = complete_bipartite(3, 2)
        assert g.m == 6
        assert g.min_degree() == 2

    @pytest.mark.parametrize("n_x", range(7))
    def test_complete_bipartite_as_constructed(self, n_x):
        """Rows built straight from the class sizes equal the validated
        constructor's, each side's rows one shared tuple, and a negative
        size is refused as the constructor refuses it."""
        for n_y in range(7):
            g = complete_bipartite(n_x, n_y)
            want = BipartiteGraph(n_x, n_y, [(x, y) for x in range(n_x) for y in range(n_y)])
            assert_stored_as_constructed(g, want, f"{n_x}x{n_y}")
            assert len(set(map(id, g._adj_x))) <= 1 and len(set(map(id, g._adj_y))) <= 1
        for sizes in [(-1, n_x), (n_x, -1)]:
            with pytest.raises(ValueError) as err:
                complete_bipartite(*sizes)
            assert type(err.value) is ValueError
            assert str(err.value) == "class sizes must be non-negative"

    def test_minus_matching(self):
        g = complete_bipartite_minus_matching(4, [(0, 0), (1, 1)])
        assert g.m == 14
        assert not g.has_edge(0, 0) and not g.has_edge(1, 1)
        assert g.has_edge(2, 2)

    def test_minus_matching_rejects_shared_vertex(self):
        with pytest.raises(MatchingNotDisjointError):
            complete_bipartite_minus_matching(3, [(0, 0), (0, 1)])

    @pytest.mark.parametrize(
        "n, pairs, error, message",
        [
            (3, [(1.5, 2)], IndexOutOfRangeError, "matching pair (1.5, 2) outside 3x3"),
            (3, [(0, "1")], IndexOutOfRangeError, "matching pair (0, 1) outside 3x3"),
            (3, [(0, 3)], IndexOutOfRangeError, "matching pair (0, 3) outside 3x3"),
            # a shared vertex is named before a pair out of range ...
            (3, [(0, 5), (0, 6)], MatchingNotDisjointError, "removed pairs share a vertex"),
            # ... and a pair out of range before a negative n
            (-1, [(0, 0)], IndexOutOfRangeError, "matching pair (0, 0) outside -1x-1"),
            (-1, [], ValueError, "class sizes must be non-negative"),
        ],
    )
    def test_minus_matching_faults_in_order(self, n, pairs, error, message):
        """A pair that names no vertex, a float among them, is refused as
        out of range rather than matching no edge."""
        with pytest.raises(error) as err:
            complete_bipartite_minus_matching(n, pairs)
        assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("n", range(41))
    def test_minus_matching_as_constructed(self, n):
        """Rows built straight from the pairs equal the validated
        constructor's, for perfect and partial seeded matchings."""
        for seed in range(3):
            assert_minus_matching_as_constructed(n, seed)
            assert_minus_matching_as_constructed(n, seed, random.Random(seed).randint(0, n))

    def test_cycle(self):
        g = cycle_graph(3)
        assert (g.n_x, g.n_y, g.m) == (3, 3, 6)
        assert all(g.degree_x(x) == 2 for x in range(3))
        assert g.is_connected()
        with pytest.raises(ValueError):
            cycle_graph(1)

    def test_path(self):
        g = path_graph(5)
        assert (g.n_x, g.n_y, g.m) == (3, 2, 4)
        assert g.is_connected()
        degs = sorted([g.degree_x(x) for x in range(3)] + [g.degree_y(y) for y in range(2)])
        assert degs == [1, 1, 2, 2, 2]
        with pytest.raises(ValueError) as err:
            path_graph(0)
        assert type(err.value) is ValueError
        assert str(err.value) == "a path needs at least one vertex"

    def test_star_pair_shape(self):
        g = star_pair_graph(2, 3)
        assert (g.n_x, g.n_y, g.m) == (4, 3, 6)
        degs = sorted([g.degree_x(x) for x in range(4)] + [g.degree_y(y) for y in range(3)])
        assert degs == [1, 1, 1, 1, 1, 3, 4]
        for k, l in [(0, 1), (1, 0)]:
            with pytest.raises(ValueError) as err:
                star_pair_graph(k, l)
            assert type(err.value) is ValueError
            assert str(err.value) == "both stars need at least one leaf"

    def test_double_of_path_matches_rule(self):
        """Doubling replaces each edge by the four copies across both halves.

        Expected edge set built here from that rule, independent of the
        implementation.  The stored rows of the double of a path, and of
        cycles, K(n,n) minus matchings, unbalanced and seeded bases, equal
        those the validating constructor builds from the same rule.
        """
        base = path_graph(4)
        g = double_graph(base)
        assert (g.n_x, g.n_y) == (4, 4)
        assert set(g.edge_list) == set(_four_copies(base))
        assert g.m == 12
        degs = sorted([g.degree_x(x) for x in range(4)] + [g.degree_y(y) for y in range(4)])
        assert degs == [2, 2, 2, 2, 4, 4, 4, 4]
        bases = [BipartiteGraph(0, 0, []), BipartiteGraph(2, 1, []), star_pair_graph(2, 3)]
        bases += [path_graph(n) for n in range(1, 8)] + [cycle_graph(n) for n in range(2, 8)]
        bases += [
            complete_bipartite_minus_matching(n, [(i, n - 1 - i) for i in range(m)])
            for n in range(1, 7)
            for m in (0, n // 2, n)
        ]
        bases += [generate(GenSpec("min-degree-random", n, n, 2, 0.3)) for n in range(2, 9)]
        bases += [generate(GenSpec("k-regular-union", n, n, 3)) for n in range(3, 9)]
        for base in bases:
            want = BipartiteGraph(2 * base.n_x, 2 * base.n_y, _four_copies(base))
            assert_stored_as_constructed(double_graph(base), want, repr(base))

    def test_double_doubles_every_degree(self):
        base = complete_bipartite_minus_matching(3, [(0, 0)])
        g = double_graph(base)
        for x in range(base.n_x):
            assert g.degree_x(x) == 2 * base.degree_x(x)
            assert g.degree_x(x + base.n_x) == 2 * base.degree_x(x)
