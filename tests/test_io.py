import pytest

from conftest import bs, f3, f4_map
from gbs import (ParseError, emit_automorphism, emit_graph, emit_map,
                 load_automorphism, load_graph, load_map, parse_automorphism,
                 parse_graph, parse_map, verify_admissible,
                 verify_automorphism)


class TestGraphFormat:
    def test_parse_single_loop(self):
        g = parse_graph("vertex v\nedge e v v 2 3\n")
        assert g == bs(2, 3)

    def test_comments_and_blanks(self):
        text = "# a comment\n\nvertex v\n  # indented comment\nedge e v v 2 3\n"
        assert parse_graph(text) == bs(2, 3)

    def test_round_trip(self):
        g = f3()
        assert parse_graph(emit_graph(g)) == g

    def test_zero_label_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertex v\nvertex w\nedge e v w 0 3\n")
        assert err.value.line_number == 3
        assert "zero label" in str(err.value)

    def test_unknown_vertex(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertex v\nedge e v w 2 3\n")
        assert "unknown vertex" in str(err.value)

    def test_duplicates(self):
        with pytest.raises(ParseError):
            parse_graph("vertex v\nvertex v\n")
        with pytest.raises(ParseError):
            parse_graph("vertex v\nedge e v v 2 3\nedge e v v 2 3\n")

    def test_foreign_declaration(self):
        with pytest.raises(ParseError) as err:
            parse_graph("vertex v\nfrobnicate v\n")
        assert err.value.line_number == 2


class TestMapFormat:
    def test_round_trip_through_files(self, tmp_path):
        m = f4_map()
        (tmp_path / "src.gbs").write_text(emit_graph(m.source))
        (tmp_path / "tgt.gbs").write_text(emit_graph(m.target))
        map_path = tmp_path / "f4.map"
        map_path.write_text(emit_map(m, "src.gbs", "tgt.gbs"))
        loaded = load_map(str(map_path))
        assert verify_admissible(loaded)
        assert loaded.vertex_map == m.vertex_map
        assert dict(loaded.edge_map) == dict(m.edge_map)
        assert loaded.vertex_multiplicity == m.vertex_multiplicity
        assert loaded.edge_multiplicity == m.edge_multiplicity

    def test_reversed_edge_token(self):
        graphs = {"g.gbs": emit_graph(bs(2, 3))}
        text = ("map from g.gbs to g.gbs\n"
                "vmap v v 1\n"
                "emap e ~e 1\n")
        m = parse_map(text, graphs.__getitem__)
        assert m.edge_map["e"] == ("e", False)

    def test_missing_assignment(self):
        graphs = {"g.gbs": emit_graph(bs(2, 3))}
        with pytest.raises(ParseError) as err:
            parse_map("map from g.gbs to g.gbs\nvmap v v 1\n",
                      graphs.__getitem__)
        assert "no emap" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_map("vmap v v 1\n", lambda ref: "")

    def test_nonpositive_multiplicity(self):
        graphs = {"g.gbs": emit_graph(bs(2, 3))}
        with pytest.raises(ParseError):
            parse_map("map from g.gbs to g.gbs\nvmap v v 0\nemap e e 1\n",
                      graphs.__getitem__)


class TestAutomorphismFormat:
    THETA = ("vertex P\nvertex Q\n"
             "edge a P Q\nedge b P Q\nedge c P Q\n"
             "fv P Q\nfv Q P\n"
             "fe a ~b\nfe b ~c\nfe c ~a\n")

    def test_parse_theta(self):
        aut = parse_automorphism(self.THETA)
        assert verify_automorphism(aut) == 6

    def test_labels_allowed_but_ignored(self):
        text = ("vertex v\nedge e v v 2 3\nfv v v\nfe e e\n")
        aut = parse_automorphism(text)
        assert verify_automorphism(aut) == 1

    def test_round_trip(self):
        aut = parse_automorphism(self.THETA)
        again = parse_automorphism(emit_automorphism(aut))
        assert again.vertex_map == aut.vertex_map
        assert dict(again.edge_map) == dict(aut.edge_map)

    def test_missing_image(self):
        with pytest.raises(ParseError) as err:
            parse_automorphism("vertex v\nedge e v v\nfv v v\n")
        assert "no fe" in str(err.value)

    def test_files(self, tmp_path):
        path = tmp_path / "theta.aut"
        path.write_text(self.THETA)
        assert verify_automorphism(load_automorphism(str(path))) == 6

    def test_load_graph(self, tmp_path):
        path = tmp_path / "g.gbs"
        path.write_text(emit_graph(f3()))
        assert load_graph(str(path)) == f3()


# (text, line number, message) for every rejection a parser raises
GRAPH_REJECTIONS = [
    ("vertex v\nedge e v v x 3\n", 2, "label 'x' is not an integer"),
    ("vertex v\nedge e v v 2 0\n", 2, "zero label"),
    ("vertex v w\n", 1, "vertex lines take exactly one identifier"),
    ("vertex v\n# twice\nvertex v\n", 3, "duplicate vertex 'v'"),
    ("vertex v\nedge e v v 2\n", 2, "edge lines take id, endpoints and two labels"),
    ("vertex v\nedge e v v 2 3\nedge e v v 5 7\n", 3, "duplicate edge 'e'"),
    ("vertex v\nedge e w v 2 3\n", 2, "unknown vertex 'w'"),
    ("vertex v\nloop e v 2 3\n", 2, "unrecognized declaration 'loop'"),
    ("# nothing\n\n", None, "graph file declares no vertices"),
]


@pytest.mark.parametrize("text, line, message", GRAPH_REJECTIONS,
                         ids=[m for _, _, m in GRAPH_REJECTIONS])
def test_graph_rejections(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.line_number, err.value.reason) == (line, message)


MAP_GRAPHS = {"g.gbs": "vertex v\nedge e v v 2 3\n"}
MAP_HEAD = "map from g.gbs to g.gbs\n"
MAP_REJECTIONS = [
    ("# empty\n", None, "empty map file"),
    ("map g.gbs g.gbs\n", 1, "map files start with `map from <file> to <file>`"),
    ("map from g.gbs to gone.gbs\n", 1, "cannot read referenced graph: gone.gbs"),
    (MAP_HEAD + "vmap v v\n", 2, "vmap lines take vertex, image, multiplicity"),
    (MAP_HEAD + "vmap x v 1\n", 2, "unknown source vertex 'x'"),
    (MAP_HEAD + "vmap v x 1\n", 2, "unknown target vertex 'x'"),
    (MAP_HEAD + "vmap v v 1\nvmap v v 1\n", 3, "repeated vmap for 'v'"),
    (MAP_HEAD + "vmap v v two\n", 2, "multiplicity 'two' is not an integer"),
    (MAP_HEAD + "vmap v v -1\n", 2, "multiplicities must be positive"),
    (MAP_HEAD + "emap e e\n", 2, "emap lines take edge, image, multiplicity"),
    (MAP_HEAD + "emap x e 1\n", 2, "unknown source edge 'x'"),
    (MAP_HEAD + "emap e ~x 1\n", 2, "unknown target edge 'x'"),
    (MAP_HEAD + "emap e e 1\nemap e ~e 1\n", 3, "repeated emap for 'e'"),
    (MAP_HEAD + "emap e e 0\n", 2, "multiplicities must be positive"),
    (MAP_HEAD + "vmap v v 1\nfv v v\n", 3, "unrecognized declaration 'fv'"),
    (MAP_HEAD + "emap e e 1\n", None, "no vmap line for source vertex 'v'"),
    (MAP_HEAD + "vmap v v 1\n", None, "no emap line for source edge 'e'"),
]


@pytest.mark.parametrize("text, line, message", MAP_REJECTIONS,
                         ids=[f"{i}-{m}" for i, (_, _, m) in enumerate(MAP_REJECTIONS)])
def test_map_rejections(text, line, message):
    def resolve(ref):
        if ref not in MAP_GRAPHS:
            raise FileNotFoundError(ref)
        return MAP_GRAPHS[ref]

    with pytest.raises(ParseError) as err:
        parse_map(text, resolve)
    assert (err.value.line_number, err.value.reason) == (line, message)


AUT_GRAPH = "vertex v\nvertex w\nedge e v w\n"
AUTOMORPHISM_REJECTIONS = [
    ("vertex v\nedge e v v 2\n", 2, "edge lines take id, endpoints and two labels"),
    (AUT_GRAPH + "fv v\n", 4, "fv lines take a vertex and its image"),
    (AUT_GRAPH + "fv v x\n", 4, "unknown vertex 'x'"),
    (AUT_GRAPH + "fv v w\nfv v v\n", 5, "repeated fv for 'v'"),
    (AUT_GRAPH + "fe e\n", 4, "fe lines take an edge and its image"),
    (AUT_GRAPH + "fe e ~x\n", 4, "unknown edge 'x'"),
    (AUT_GRAPH + "fe e e\nfe e ~e\n", 5, "repeated fe for 'e'"),
    (AUT_GRAPH + "vmap v w 1\n", 4, "unrecognized declaration 'vmap'"),
    ("fv v v\n", 1, "unknown vertex 'v'"),
    ("# nothing\n", None, "automorphism file declares no vertices"),
    (AUT_GRAPH + "fv v w\nfe e ~e\n", None, "no fv line for vertex 'w'"),
    (AUT_GRAPH + "fv v w\nfv w v\n", None, "no fe line for edge 'e'"),
]


@pytest.mark.parametrize("text, line, message", AUTOMORPHISM_REJECTIONS,
                         ids=[m for _, _, m in AUTOMORPHISM_REJECTIONS])
def test_automorphism_rejections(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_automorphism(text)
    assert (err.value.line_number, err.value.reason) == (line, message)
