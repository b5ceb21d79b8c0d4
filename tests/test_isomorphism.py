import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, circle_graph, f3
from gbs import InputError, LabelledGraph, are_isomorphic, find_isomorphism
from gbs.isomorphism import edge_correspondence
from strategies import connected_graphs


class TestIsomorphism:
    def test_loop_orientation_flip(self):
        assert are_isomorphic(bs(2, 3), bs(3, 2))
        assert not are_isomorphic(bs(2, 3), bs(2, 5))

    def test_sign_matters(self):
        assert not are_isomorphic(bs(2, 3), bs(2, -3))

    def test_parallel_edges(self):
        a = LabelledGraph.build(["u", "w"], [("e1", "u", "w", 2, 3),
                                             ("e2", "u", "w", 5, 7)])
        b = LabelledGraph.build(["x", "y"], [("f1", "y", "x", 7, 5),
                                             ("f2", "x", "y", 2, 3)])
        assert are_isomorphic(a, b)

    def test_circle_rotation(self):
        a = circle_graph([(2, 3), (2, 3), (2, 3)])
        b = circle_graph([(3, 2), (3, 2), (3, 2)])
        assert are_isomorphic(a, b)

    def test_label_multiset_mismatch(self):
        a = circle_graph([(2, 3), (5, 7)])
        b = circle_graph([(2, 5), (3, 7)])
        assert not are_isomorphic(a, b)

    @given(connected_graphs(), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=50)
    def test_relabelled_graphs_are_isomorphic(self, g, rng):
        vertices = list(g.vertices)
        rng.shuffle(vertices)
        renaming = {v: f"w{i}" for i, v in enumerate(g.vertices)}
        shuffled_edges = list(g.edges)
        rng.shuffle(shuffled_edges)
        relabelled = LabelledGraph.build(
            [renaming[v] for v in vertices],
            [(f"f{i}", renaming[r.origin], renaming[r.terminus],
              r.label_origin, r.label_terminus)
             for i, r in enumerate(shuffled_edges)])
        assert are_isomorphic(g, relabelled)

    def test_edge_correspondence_quality(self):
        g = f3()
        vmap = find_isomorphism(g, g)
        correspondence = edge_correspondence(g, g, vmap)
        assert sorted(correspondence) == sorted(correspondence.values())

    def test_edge_correspondence_rejects_non_isomorphism(self):
        g = f3()
        swapped = {"v_a": "v_b", "v_b": "v_a", "v_c": "v_c"}
        with pytest.raises(InputError, match="not an isomorphism"):
            edge_correspondence(g, g, swapped)
