"""Graph model, text format, and stock constructions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

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

from conftest import bipartite_graphs

K22_TEXT = "bipartite 2 2 4\n0 0\n0 1\n1 0\n1 1\n"


class TestVertexRef:
    def test_label_and_ordering(self):
        assert VertexRef("X", 3).label == "X3"
        assert VertexRef("Y", 0).label == "Y0"
        assert VertexRef("X", 9).sort_key < VertexRef("Y", 0).sort_key

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
        assert f.other_side_components(VertexRef("X", 1)) == f.comp_y
        assert f.other_side_components(VertexRef("Y", 2)) == f.comp_x
        assert f.other_side_components(VertexRef("X", 1))[2] == f.component_of(VertexRef("X", 1))
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
