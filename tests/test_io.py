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
