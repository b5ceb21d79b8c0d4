import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, circle_graph, distinct_labels, f3, nx_isomorphic, walk_isomorphism
from gbs import InternalError, LabelledGraph
from gbs.decide import _smallest_common_cover
from strategies import connected_graphs


def isomorphic(g: LabelledGraph, h: LabelledGraph) -> bool:
    """Does the fibre-product walk find an isomorphism?"""
    return walk_isomorphism(g, h) is not None


class TestIsomorphism:
    def test_loop_orientation_flip(self):
        assert isomorphic(bs(2, 3), bs(3, 2))
        assert not isomorphic(bs(2, 3), bs(2, 5))

    def test_sign_matters(self):
        assert not isomorphic(bs(2, 3), bs(2, -3))

    def test_parallel_edges(self):
        a = LabelledGraph.build(["u", "w"], [("e1", "u", "w", 2, 3),
                                             ("e2", "u", "w", 5, 7)])
        b = LabelledGraph.build(["x", "y"], [("f1", "y", "x", 7, 5),
                                             ("f2", "x", "y", 2, 3)])
        assert isomorphic(a, b)

    def test_circle_rotation(self):
        a = circle_graph([(2, 3), (2, 3), (2, 3)])
        b = circle_graph([(3, 2), (3, 2), (3, 2)])
        assert isomorphic(a, b)

    def test_label_multiset_mismatch(self):
        a = circle_graph([(2, 3), (5, 7)])
        b = circle_graph([(2, 5), (3, 7)])
        assert not isomorphic(a, b)

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
        assert nx_isomorphic(g, relabelled)
        if distinct_labels(g):
            assert isomorphic(g, relabelled)

    def test_edge_correspondence_quality(self):
        g = f3()
        vertex_map, edge_map = walk_isomorphism(g, g)
        assert vertex_map == {v: v for v in g.vertices}
        assert edge_map == {r.name: r.name for r in g.edges}

    def test_edge_correspondence_rejects_non_isomorphism(self):
        # colors that call the two vertices alike, though their stars differ
        g, h = bs(2, 3), bs(2, 5)
        with pytest.raises(InternalError, match="no dart at 'v' matches '~e'"):
            _smallest_common_cover(g, h, {"v": "c0"}, {"v": "c0"}, 1)
