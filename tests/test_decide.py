import math

import pytest

from conftest import (R3, bs, circle_graph, f1, f2, f3, is_label_preserving_isomorphism,
                      nx_isomorphic, witness_cases)
from gbs import (InputError, InternalError, LabelledGraph, commensurable, emit_graph,
                 emit_map, is_large, is_topological_covering, stable_colorings,
                 verify_admissible, voltage_cover)
from gbs.decide import _canonical_key, _connected_covers, _prepared, _witness_search


class TestIsLarge:
    def test_one_loop_groups(self):
        assert not is_large(bs(2, 3))
        assert is_large(bs(2, 4))
        assert not is_large(bs(1, 5))  # solvable

    def test_circle_with_common_factor(self):
        assert is_large(f3())

    def test_trees(self):
        assert is_large(f1(5))
        assert is_large(f2())
        trefoil = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 3)])
        assert is_large(trefoil)

    def test_flat_groups_are_not_large(self):
        assert not is_large(bs(1, 1))      # free abelian of rank 2
        assert not is_large(bs(1, -1))     # flat Klein group, loop form
        klein_tree = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 2)])
        assert not is_large(klein_tree)
        assert not is_large(LabelledGraph.build(
            ["a", "b"], [("e", "a", "b", -2, 2)]))

    def test_reduced_cycle_rank_two_or_non_circle(self):
        assert is_large(R3)
        lollipop = LabelledGraph.build(["u", "w"], [("s", "u", "w", 2, 4),
                                                    ("l", "u", "u", 5, 7)])
        assert lollipop.reduce() == lollipop and lollipop.betti() == 1
        assert not lollipop.is_circle()
        assert is_large(lollipop)

    def test_cyclic_rejected(self):
        with pytest.raises(InputError):
            is_large(LabelledGraph.build(["v"], []))
        with pytest.raises(InputError):
            is_large(LabelledGraph.build(["a", "b"], [("e", "a", "b", 1, 1)]))

    def test_invariant_under_reduce_and_signs(self):
        for g in (bs(2, 3), bs(2, 4), bs(6, 10), f3()):
            expected = is_large(g)
            assert is_large(g.reduce()) == expected
            assert is_large(g.sign_change_vertex(g.vertices[0])) == expected
            assert is_large(g.sign_change_edge(g.edges[0].name)) == expected

    def test_one_loop_table(self):
        for m in range(2, 13):
            for n in range(2, 13):
                assert is_large(bs(m, n)) == (math.gcd(m, n) != 1)


class TestColoring:
    def test_single_vertex(self):
        assert len(set(stable_colorings([bs(2, 3)])[0].values())) == 1

    def test_homogeneous_circle(self):
        colors = stable_colorings([circle_graph([(2, 3), (2, 3)])])[0]
        assert len(set(colors.values())) == 1

    def test_path_separates_ends(self):
        colors = stable_colorings([f1(7)])[0]
        assert colors["v_a"] != colors["v_c"]


class TestCommensurable:
    def test_cover_pair(self):
        verdict = commensurable(bs(2, 3), circle_graph([(2, 3), (2, 3)]),
                                witness_max_degree=2)
        assert verdict.answer == "commensurable"
        first, second = verdict.witness
        assert verify_admissible(first) and verify_admissible(second)
        assert is_topological_covering(first)
        assert is_topological_covering(second)
        assert nx_isomorphic(first.source, second.source)
        assert {first.total_multiplicity(),
                second.total_multiplicity()} == {1, 2}

    def test_witness_carries_the_isomorphism_of_its_sources(self):
        verdict = commensurable(bs(2, 3), circle_graph([(2, 3), (2, 3)]),
                                witness_max_degree=2)
        first, second = verdict.witness
        assert is_label_preserving_isomorphism(first.source, second.source,
                                               verdict.isomorphism, verdict.edge_isomorphism)
        unasked = commensurable(bs(2, 3), circle_graph([(2, 3), (2, 3)]))
        assert unasked.isomorphism is None and unasked.edge_isomorphism is None

    def test_distinct_moduli(self):
        verdict = commensurable(bs(2, 3), bs(4, 9))
        assert verdict.answer == "not-commensurable"
        assert verdict.witness is None

    def test_out_of_scope(self):
        verdict = commensurable(bs(2, 4), bs(2, 3))
        assert verdict.answer == "out-of-scope"
        assert "plateau" in verdict.certificate or "slide-free" in verdict.certificate

    def test_symmetry(self):
        pairs = [(bs(2, 3), bs(4, 9)),
                 (bs(2, 3), circle_graph([(2, 3), (2, 3)])),
                 (bs(2, 5), bs(5, 2))]
        for g1, g2 in pairs:
            assert commensurable(g1, g2).answer == commensurable(g2, g1).answer

    def test_self_commensurable_with_own_cover(self):
        g = bs(3, 5)
        cover = voltage_cover(g, 2, {"e": (1, 0)})
        verdict = commensurable(g, cover.source)
        assert verdict.answer == "commensurable"

    def test_witness_search_can_come_up_empty(self):
        verdict = commensurable(bs(2, 3), circle_graph([(2, 3), (2, 3)]),
                                witness_max_degree=1)
        assert verdict.answer == "commensurable"
        assert verdict.witness is None
        assert "no witness" in verdict.certificate

    def test_witness_search_needs_equal_edge_vertex_ratios(self):
        # a common cover has |E|/|V| of both graphs; `commensurable` never
        # gets here, as graphs sharing a stable color have equal ratios
        assert _witness_search(bs(2, 3), R3, 4) is None

    def test_negative_modulus_goes_through_double_cover(self):
        verdict = commensurable(bs(2, -3), bs(2, 3))
        assert verdict.answer in ("commensurable", "not-commensurable")
        # BS(2,-3) and BS(2,3) share the index-2 subgroup presented by the
        # circle with labels 2,3,2,3
        assert verdict.answer == "commensurable"


def pairwise_witness(h1, h2, max_degree):
    """The search by pairwise isomorphism tests that canonical keys replace."""
    for total in range(2, 2 * max_degree + 1):
        for d1 in range(1, max_degree + 1):
            d2 = total - d1
            if (not 1 <= d2 <= max_degree or d1 * len(h1.edges) != d2 * len(h2.edges)
                    or d1 * len(h1.vertices) != d2 * len(h2.vertices)):
                continue
            covers2 = list(_connected_covers(h2, d2))
            for c1 in _connected_covers(h1, d1):
                for c2 in covers2:
                    if nx_isomorphic(c1.source, c2.source):
                        return c1, c2
    return None


def emitted(witness) -> str:
    return "".join(emit_graph(m.source) + emit_map(m, "src.gbs", "tgt.gbs")
                   for m in witness)


class TestWitnessSearch:
    # the degree-3 case takes seconds pairwise; its witness is pinned in test_golden
    @pytest.mark.parametrize("name", [name for name in witness_cases()
                                      if name != "r2-deg2-deg3"])
    def test_same_witness_as_pairwise_search(self, name):
        g1, g2, degree = witness_cases()[name]
        found = commensurable(g1, g2, witness_max_degree=degree).witness
        expected = pairwise_witness(_prepared(g1.reduce()), _prepared(g2.reduce()), degree)
        assert emitted(found) == emitted(expected)

    def test_key_rejects_equal_labels_at_a_vertex(self):
        g = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 2, 5)])
        with pytest.raises(InternalError, match="share a label"):
            _canonical_key(g)

    def test_key_rejects_disconnected_graph(self):
        g = voltage_cover(bs(2, 3), 2, {"e": (0, 1)}).source
        with pytest.raises(InternalError, match="connected"):
            _canonical_key(g)

    def test_key_ignores_names_order_and_orientation(self):
        g = circle_graph([(2, 3), (5, 7), (2, 3)])
        h = LabelledGraph.build(["x", "y", "z"], [("p", "y", "x", 3, 2),
                                                  ("q", "z", "y", 7, 5),
                                                  ("r", "z", "x", 2, 3)])
        assert _canonical_key(g)[0] == _canonical_key(h)[0]
        assert _canonical_key(g)[0] == _canonical_key(circle_graph([(5, 7), (2, 3), (2, 3)]))[0]
        assert _canonical_key(g)[0] != _canonical_key(circle_graph([(2, 3), (7, 5), (2, 3)]))[0]

    def test_key_tells_reverse_labels_apart(self):
        # same labels and termini at both ends, paired differently
        a = LabelledGraph.build(["x", "y"], [("e", "x", "y", 2, 3), ("f", "x", "y", 5, 7)])
        b = LabelledGraph.build(["x", "y"], [("e", "x", "y", 2, 7), ("f", "x", "y", 5, 3)])
        assert not nx_isomorphic(a, b)
        assert _canonical_key(a)[0] != _canonical_key(b)[0]

    def test_over_the_limit_is_refused(self):
        cover = voltage_cover(R3, 5, {e: (1, 2, 3, 4, 0) for e in "abc"}).source
        with pytest.raises(InputError, match="1728001 covers"):
            commensurable(cover, R3, witness_max_degree=5)

    def test_earlier_degree_pairs_answer_below_the_limit(self):
        verdict = commensurable(R3, R3, witness_max_degree=5)
        assert verdict.certificate.endswith("witness degrees 1 and 1")
