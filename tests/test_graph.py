import contextlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, circle_graph, f1, f2, f3, f4_source, nx_isomorphic
import dart_views as views
from gbs import (InputError, LabelledGraph, all_plateaux, commensurable,
                 generates, has_proper_plateau, is_large, mu, orientation_double_cover,
                 plateau_free_cover, plateaux_for_prime, rank)
from strategies import connected_graphs


class TestBetti:
    def test_triangle(self):
        assert f3().betti() == 1

    def test_two_vertices_three_edges(self):
        assert f4_source().betti() == 2

    def test_bare_vertex(self):
        assert LabelledGraph.build(["v"], []).betti() == 0

    @given(connected_graphs())
    def test_valence_identities(self, g):
        if not g.edges:
            return  # the one-point graph sits outside these formulas
        # doubled to stay in integers
        d = [g.valence(v) for v in g.vertices]
        t = len(g.terminal_vertices())
        assert 2 * g.betti() == 2 + sum(x - 2 for x in d)
        assert 2 * (g.betti() + t) == 2 + sum(abs(x - 2) for x in d)
        assert 2 * g.betti() + t == 2 + sum(max(x - 2, 0) for x in d)


class TestReduce:
    def test_collapse_transfers_labels(self):
        g = LabelledGraph.build(
            ["u", "w"],
            [("s", "u", "w", 1, 3), ("l", "u", "u", 5, 7)])
        r = g.reduce()
        assert r.vertices == ("w",)
        assert [(e.name, e.label_origin, e.label_terminus) for e in r.edges] == \
            [("l", 15, 21)]

    def test_reduced_input_unchanged(self):
        assert bs(2, 3).reduce() == bs(2, 3)

    def test_unit_segment_collapses_to_vertex(self):
        g = LabelledGraph.build(["u", "w"], [("s", "u", "w", 1, 1)])
        r = g.reduce()
        assert len(r.vertices) == 1 and not r.edges

    def test_disconnected_rejected(self):
        g = LabelledGraph.build(["u", "w"], [])
        with pytest.raises(InputError):
            g.reduce()

    @given(connected_graphs())
    def test_idempotent_and_betti_preserving(self, g):
        r = g.reduce()
        assert r.is_reduced()
        assert r.reduce() == r
        assert r.betti() == g.betti()

    def test_collapse_order_irrelevant_up_to_isomorphism(self):
        g = LabelledGraph.build(
            ["a", "b", "c"],
            [("e1", "a", "b", 1, 2), ("e2", "b", "c", 1, 3),
             ("e3", "a", "c", 5, 1)])
        base = g.reduce()
        # collapses follow declaration order, so permuting the edges permutes them
        for records in itertools.permutations(g.edges):
            assert nx_isomorphic(LabelledGraph(g.vertices, records).reduce(), base)


class TestSignChanges:
    def test_edge_sign_change(self):
        assert bs(2, -3).sign_change_edge("e") == bs(-2, 3)

    def test_vertex_sign_change(self):
        g = f1(7).sign_change_vertex("v_b")
        labels = [(r.label_origin, r.label_terminus) for r in g.edges]
        assert labels == [(3, -2), (-7, 5)]

    def test_unknown_identifiers(self):
        with pytest.raises(InputError):
            bs(2, 3).sign_change_vertex("zz")
        with pytest.raises(InputError):
            bs(2, 3).sign_change_edge("zz")

    @given(connected_graphs())
    def test_involutions(self, g):
        v = g.vertices[0]
        assert g.sign_change_vertex(v).sign_change_vertex(v) == g
        if g.edges:
            name = g.edges[0].name
            assert g.sign_change_edge(name).sign_change_edge(name) == g


class TestNormalizeSigns:
    def test_negative_loop(self):
        assert bs(-2, -3).normalize_signs() == bs(2, 3)

    def test_klein_keeps_one_negative(self):
        klein = bs(1, -1)
        normalized = klein.normalize_signs()
        negatives = sum(1 for d in views.darts(normalized) if views.label(normalized, d) < 0)
        assert negatives == 1

    def test_tree_becomes_positive(self):
        g = LabelledGraph.build(
            ["a", "b", "c"],
            [("e1", "a", "b", -3, 2), ("e2", "b", "c", 3, -5)])
        normalized = g.normalize_signs()
        assert all(views.label(normalized, d) > 0 for d in views.darts(normalized))

    @given(connected_graphs())
    @settings(deadline=None)
    def test_normal_form_properties(self, g):
        normalized = g.normalize_signs()
        # magnitudes survive unchanged at every edge end
        assert [(abs(r.label_origin), abs(r.label_terminus)) for r in g.edges] == \
            [(abs(r.label_origin), abs(r.label_terminus)) for r in normalized.edges]
        tree = normalized.maximal_subtree()
        for rec in normalized.edges:
            if rec.name in tree:
                assert rec.label_origin > 0 and rec.label_terminus > 0
            else:
                assert rec.label_origin > 0 or rec.label_terminus > 0
        if not g.modulus().takes_negative_value():
            assert all(views.label(normalized, d) > 0 for d in views.darts(normalized))


class TestModulus:
    def test_single_loop(self):
        modulus = bs(2, 3).modulus()
        assert modulus.values() == [Fraction(2, 3)]
        assert not modulus.is_unimodular()
        assert not modulus.is_trivial()

    def test_klein(self):
        modulus = bs(1, -1).modulus()
        assert modulus.values() == [Fraction(-1)]
        assert modulus.is_unimodular()
        assert not modulus.is_trivial()

    def test_tree(self):
        modulus = f2().modulus()
        assert modulus.values() == []
        assert modulus.is_unimodular()
        assert modulus.is_trivial()
        assert f2().has_nontrivial_center()

    @given(connected_graphs())
    @settings(deadline=None)
    def test_flags_are_tree_independent(self, g):
        # triviality, unimodularity and the sign pattern do not depend on
        # the cycle basis, so they survive reversing the edge scan order
        reversed_edges = LabelledGraph(g.vertices, tuple(reversed(g.edges)))
        a, b = g.modulus(), reversed_edges.modulus()
        assert a.is_trivial() == b.is_trivial()
        assert a.is_unimodular() == b.is_unimodular()
        assert a.takes_negative_value() == b.takes_negative_value()


class TestPredicates:
    def test_strongly_slide_free(self):
        assert bs(2, 3).is_strongly_slide_free()
        assert not bs(2, 4).is_strongly_slide_free()
        assert f3().is_strongly_slide_free()

    def test_circle_detection(self):
        assert bs(2, 3).is_circle()
        assert bs(2, 3).circle_products() == (2, 3)
        assert f3().is_circle()
        assert sorted(f3().circle_products()) == [30, 30]
        assert not f1(5).is_circle()
        with pytest.raises(InputError):
            f1(5).circle_products()

    def test_circle_products_four_cycle(self):
        g = circle_graph([(2, 3), (2, 3)])
        forward, backward = g.circle_products()
        assert sorted((forward, backward)) == [4, 9]


class TestMaximalSubtree:
    def test_tree_input(self):
        assert f1(5).maximal_subtree() == frozenset({"e_1", "e_2"})

    def test_single_vertex(self):
        assert bs(2, 3).maximal_subtree() == frozenset()

    def test_triangle_prefers_first_edges(self):
        assert f3().maximal_subtree() == frozenset({"e_1", "e_2"})


BAD_IDENTIFIER = "identifier {!r}: must be a nonempty string without whitespace"


class TestConstruction:
    @pytest.mark.parametrize("label", [True, 2.0])
    def test_non_integer_or_zero_label_rejected(self, label):
        with pytest.raises(InputError):
            LabelledGraph.build(["u", "w"], [("s", "u", "w", label, 3)])

    @pytest.mark.parametrize("vertices, edges, message", [
        ([], [], "a labelled graph needs at least one vertex"),
        (["u", "w", "u"], [], "duplicate vertex 'u'"),
        (["u", "w"], [("s", "u", "w", 2, 3), ("s", "w", "u", 2, 3)],
         "duplicate edge 's'"),
        (["u", "w"], [("s", "u", "x", 2, 3)], "edge 's' uses unknown vertex 'x'"),
        (["u", ""], [], "bad vertex " + BAD_IDENTIFIER.format("")),
        (["u", "w"], [("a b", "u", "w", 2, 3)], "bad edge " + BAD_IDENTIFIER.format("a b")),
        (["u", 3], [], "bad vertex " + BAD_IDENTIFIER.format(3)),
        (["u", "w"], [("s", "u", "w", 2, 0)],
         "edge 's' carries a zero or non-integer label 0"),
    ], ids=["no-vertices", "duplicate-vertex", "duplicate-edge", "unknown-endpoint",
            "empty-identifier", "whitespace-identifier", "non-string-identifier",
            "zero-label"])
    def test_rejection_messages(self, vertices, edges, message):
        with pytest.raises(InputError) as caught:
            LabelledGraph.build(vertices, edges)
        assert str(caught.value) == message


def _union_find_components(g, keep, starts):
    """(vertex set, edge set) of each kept-edge component meeting starts, in order."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    kept = [rec for rec in g.edges if rec.name in keep]
    for rec in kept:
        parent[find(rec.origin)] = find(rec.terminus)
    out, emitted = [], set()
    for start in starts:
        root = find(start)
        if root in emitted:
            continue
        emitted.add(root)
        out.append((frozenset(v for v in g.vertices if find(v) == root),
                    frozenset(rec.name for rec in kept if find(rec.origin) == root)))
    return out


def _dfs_orders(g, keep, starts):
    """Stack-based depth-first discovery order, darts taken in `darts_at` order."""
    seen, out = set(), []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        order, stack = [start], [start]
        while stack:
            for dart in views.darts_at(g, stack.pop()):
                w = views.terminus(g, dart)
                if dart.edge in keep and w not in seen:
                    seen.add(w)
                    order.append(w)
                    stack.append(w)
        out.append(tuple(order))
    return out


class TestSubgraphComponents:
    @given(connected_graphs(max_vertices=7, max_extra_edges=5), st.data())
    @settings(max_examples=150)
    def test_matches_union_find_and_dfs(self, g, data):
        names = [rec.name for rec in g.edges]
        keep = data.draw(st.sets(st.sampled_from(names))) if names else set()
        starts = data.draw(st.lists(st.sampled_from(g.vertices), max_size=8))
        walked = list(g.subgraph_components(keep, starts))
        assert [(frozenset(vs), es) for vs, es in walked] == \
            _union_find_components(g, keep, starts)
        assert [vs for vs, _ in walked] == _dfs_orders(g, keep, starts)

    @given(connected_graphs(max_vertices=7, max_extra_edges=5))
    def test_defaults_keep_every_edge_and_start_everywhere(self, g):
        every = {rec.name for rec in g.edges}
        walked = list(g.subgraph_components())
        assert walked == list(g.subgraph_components(every, g.vertices))
        assert g.components() == tuple(_dfs_orders(g, every, g.vertices))
        assert [(frozenset(vs), es) for vs, es in walked] == \
            _union_find_components(g, every, g.vertices)

    def test_disconnected_graph(self):
        g = LabelledGraph.build(["a", "b", "c", "d"],
                                [("x", "a", "c", 2, 3), ("y", "d", "d", 5, 7)])
        assert list(g.subgraph_components()) == [
            (("a", "c"), frozenset({"x"})), (("b",), frozenset()),
            (("d",), frozenset({"y"}))]
        assert list(g.subgraph_components({"y"}, ["d", "a", "d"])) == [
            (("d",), frozenset({"y"})), (("a",), frozenset())]

    def test_unknown_start_rejected(self):
        with pytest.raises(InputError):
            list(f3().subgraph_components(starts=["nowhere"]))


# operations on connected graphs only; each walks its graph's components once,
# however many of its callees ask whether the graph is connected
CONNECTED_ONLY = {
    "reduce": LabelledGraph.reduce,
    "modulus": LabelledGraph.modulus,
    "normalize_signs": LabelledGraph.normalize_signs,
    "rank": rank,
    "mu": mu,
    "generates-before-keep": lambda g: generates(g, {"zz"}),
    "is_large": is_large,
    "commensurable-first": lambda g: commensurable(g, bs(2, 3)),
    "commensurable-second": lambda g: commensurable(bs(2, 3), g),
    "orientation_double_cover": orientation_double_cover,
    "all_plateaux": all_plateaux,
    "plateaux_for_prime": lambda g: plateaux_for_prime(g, 2),
    "has_proper_plateau": has_proper_plateau,
    "plateau_free_cover": plateau_free_cover,
}


@pytest.mark.parametrize("operation", CONNECTED_ONLY.values(), ids=CONNECTED_ONLY)
def test_disconnected_graphs_are_rejected(operation):
    g = LabelledGraph.build(["a", "b"], [("e", "a", "a", 2, -3)])
    with pytest.raises(InputError, match="^operation requires a connected graph$"):
        operation(g)


@pytest.mark.parametrize("operation", CONNECTED_ONLY.values(), ids=CONNECTED_ONLY)
def test_connectivity_is_checked_once(operation, monkeypatch):
    g = bs(2, -3)
    walks = []
    real = LabelledGraph._component_walk

    def counting(self, mask, roots, stops=None):  # a walk of every dart from every vertex
        walks.append(self is g and all(mask) and roots == range(len(g.vertices)))
        return real(self, mask, roots, stops)

    monkeypatch.setattr(LabelledGraph, "_component_walk", counting)
    with contextlib.suppress(InputError):  # generates then rejects the vertex zz
        operation(g)
    assert walks.count(True) == 1
