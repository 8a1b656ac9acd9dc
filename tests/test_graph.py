"""Graph model, text format, and stock constructions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifactor import (
    BipartiteGraph,
    Factor,
    VertexRef,
    complete_bipartite,
    complete_bipartite_minus_matching,
    cycle_graph,
    double_graph,
    parse_graph,
    path_graph,
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
)
from bifactor.graph import MAX_CLASS_SIZE

from conftest import bipartite_graphs, reference_graph_init, reference_parse_graph

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
def mutated_texts(draw) -> str:
    """A seed text with lines after the first swapped or repeated, then
    characters replaced, inserted or deleted."""
    lines = draw(st.sampled_from(PARSE_SEEDS)).splitlines(keepends=True)
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

    def test_list_edges_are_stored_as_tuples(self):
        g = BipartiteGraph(2, 2, [[1, 0], [0, 1]])
        assert g.edge_list == ((0, 1), (1, 0)) and g.has_edge(1, 0)


class TestConstructions:
    def test_complete_bipartite(self):
        g = complete_bipartite(3, 2)
        assert g.m == 6
        assert g.min_degree() == 2

    def test_minus_matching(self):
        g = complete_bipartite_minus_matching(4, [(0, 0), (1, 1)])
        assert g.m == 14
        assert not g.has_edge(0, 0) and not g.has_edge(1, 1)
        assert g.has_edge(2, 2)

    def test_minus_matching_rejects_shared_vertex(self):
        with pytest.raises(MatchingNotDisjointError):
            complete_bipartite_minus_matching(3, [(0, 0), (0, 1)])

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

    def test_star_pair_shape(self):
        g = star_pair_graph(2, 3)
        assert (g.n_x, g.n_y, g.m) == (4, 3, 6)
        degs = sorted([g.degree_x(x) for x in range(4)] + [g.degree_y(y) for y in range(3)])
        assert degs == [1, 1, 1, 1, 1, 3, 4]

    def test_double_of_path_matches_rule(self):
        """Doubling replaces each edge by the four copies across both halves.

        Expected edge set built here from that rule, independent of the
        implementation.
        """
        base = path_graph(4)
        expected = set()
        for x, y in base.edge_list:
            expected |= {
                (x, y),
                (x + base.n_x, y + base.n_y),
                (x, y + base.n_y),
                (x + base.n_x, y),
            }
        g = double_graph(base)
        assert (g.n_x, g.n_y) == (4, 4)
        assert set(g.edge_list) == expected
        assert g.m == 12
        degs = sorted([g.degree_x(x) for x in range(4)] + [g.degree_y(y) for y in range(4)])
        assert degs == [2, 2, 2, 2, 4, 4, 4, 4]

    def test_double_doubles_every_degree(self):
        base = complete_bipartite_minus_matching(3, [(0, 0)])
        g = double_graph(base)
        for x in range(base.n_x):
            assert g.degree_x(x) == 2 * base.degree_x(x)
            assert g.degree_x(x + base.n_x) == 2 * base.degree_x(x)
