import math
import random
import time
from itertools import permutations, product

import pytest

from conftest import (R2, R3, bs, circle_graph, cyclic_cover, f1, f2, f3, nx_isomorphic,
                      walk_isomorphism, witness_cases)
from gbs import (InputError, InternalError, LabelledGraph, commensurable,
                 is_large, is_topological_covering, stable_colorings, verify_admissible,
                 voltage_cover)
from gbs.decide import _prepared, _smallest_common_cover


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
        # both parts share one source, so the identity is the isomorphism
        verdict = commensurable(bs(2, 3), circle_graph([(2, 3), (2, 3)]),
                                witness_max_degree=2)
        first, second = verdict.witness
        assert first.source is second.source
        assert commensurable(bs(2, 3), circle_graph([(2, 3), (2, 3)])).witness is None

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
        assert _smallest_common_cover(bs(2, 3), R3, *stable_colorings([bs(2, 3), R3]), 4) is None

    def test_zero_max_degree_is_refused_on_every_pair(self):
        for g1, g2 in ((bs(2, 3), circle_graph([(2, 3), (2, 3)])), (bs(2, 3), bs(4, 9)),
                       (bs(2, 4), bs(2, 3))):
            with pytest.raises(InputError, match="witness_max_degree must be positive"):
                commensurable(g1, g2, witness_max_degree=0)

    def test_negative_modulus_goes_through_double_cover(self):
        verdict = commensurable(bs(2, -3), bs(2, 3))
        assert verdict.answer in ("commensurable", "not-commensurable")
        # BS(2,-3) and BS(2,3) share the index-2 subgroup presented by the
        # circle with labels 2,3,2,3
        assert verdict.answer == "commensurable"


def connected_covers(g, degree):
    """Every connected voltage cover of the given degree, built, in assignment order."""
    names = [rec.name for rec in g.edges]
    for choice in product(permutations(range(degree)), repeat=len(names)):
        cover = voltage_cover(g, degree, dict(zip(names, choice)))
        if cover.source.is_connected():
            yield cover


def pairwise_witness(h1, h2, max_degree):
    """The reference search: connected covers of both graphs by increasing
    degrees, compared pairwise by networkx isomorphism."""
    for total in range(2, 2 * max_degree + 1):
        for d1 in range(1, max_degree + 1):
            d2 = total - d1
            if (not 1 <= d2 <= max_degree or d1 * len(h1.edges) != d2 * len(h2.edges)
                    or d1 * len(h1.vertices) != d2 * len(h2.vertices)):
                continue
            covers2 = list(connected_covers(h2, d2))
            for c1 in connected_covers(h1, d1):
                for c2 in covers2:
                    if nx_isomorphic(c1.source, c2.source):
                        return c1, c2
    return None


def degrees(witness):
    return None if witness is None else tuple(m.total_multiplicity() for m in witness)


def random_cover(rng, base, degree):
    """A random connected voltage cover of the given degree."""
    while True:
        cover = voltage_cover(base, degree, {r.name: rng.sample(range(degree), degree)
                                             for r in base.edges}).source
        if cover.is_connected():
            return cover


# the labels of R2 at its vertex, paired differently along the loops
R2_TWISTED = LabelledGraph.build(["v"], [("a", "v", "v", 2, 7), ("b", "v", "v", 5, 3)])


class TestWitnessSearch:
    # these two take seconds pairwise; their witnesses are pinned in test_golden
    @pytest.mark.parametrize("name", [name for name in witness_cases() if name not in
                                      ("r2-deg2-deg3", "r2-tied-components")])
    def test_same_witness_as_pairwise_search(self, name):
        g1, g2, degree = witness_cases()[name]
        first, second = commensurable(g1, g2, witness_max_degree=degree).witness
        expected = pairwise_witness(_prepared(g1.reduce()), _prepared(g2.reduce()), degree)
        assert degrees((first, second)) == degrees(expected)
        assert nx_isomorphic(first.source, expected[0].source)

    def test_same_degrees_as_pairwise_search_on_random_pairs(self):
        rng = random.Random(16)
        for _ in range(30):
            g1, g2 = (random_cover(rng, R2, rng.choice((1, 2))) for _ in range(2))
            verdict = commensurable(g1, g2, witness_max_degree=2)
            assert verdict.answer == "commensurable"
            assert degrees(verdict.witness) == degrees(pairwise_witness(g1, g2, 2))

    def test_disjoint_colorings_have_no_common_cover(self):
        rng = random.Random(17)
        for _ in range(8):
            g1, g2 = random_cover(rng, R2, rng.choice((1, 2))), \
                random_cover(rng, R2_TWISTED, rng.choice((1, 2)))
            if rng.random() < 0.5:
                g1, g2 = g2, g1
            colors1, colors2 = stable_colorings([g1, g2])
            assert not set(colors1.values()) & set(colors2.values())
            assert commensurable(g1, g2, witness_max_degree=2).answer == "not-commensurable"
            assert pairwise_witness(g1, g2, 2) is None

    def test_key_rejects_equal_labels_at_a_vertex(self):
        # the walk finds a dart by its label, the key of the dart table
        g = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 2, 5)])
        with pytest.raises(InternalError, match="share a label"):
            walk_isomorphism(g, g)

    def test_key_ignores_names_order_and_orientation(self):
        g = circle_graph([(2, 3), (5, 7), (2, 3)])
        h = LabelledGraph.build(["x", "y", "z"], [("p", "y", "x", 3, 2),
                                                  ("q", "z", "y", 7, 5),
                                                  ("r", "z", "x", 2, 3)])
        assert walk_isomorphism(g, h) is not None
        assert walk_isomorphism(g, circle_graph([(5, 7), (2, 3), (2, 3)])) is not None
        assert walk_isomorphism(g, circle_graph([(2, 3), (7, 5), (2, 3)])) is None

    def test_only_the_witness_pair_is_built(self, graph_builds):
        # the two witness maps share the one graph the search builds
        built = graph_builds
        for name, (g1, g2, degree) in witness_cases().items():
            h1, h2 = _prepared(g1.reduce()), _prepared(g2.reduce())
            colors = stable_colorings([h1, h2])
            for max_degree in range(1, degree + 1):
                built.clear()
                found = _smallest_common_cover(h1, h2, *colors, max_degree)
                assert len(built) == (found is not None), (name, max_degree)
            assert found[0].source is found[1].source is built[0], name

    def test_walk_tells_reverse_labels_apart(self):
        # same labels and termini at both ends, paired differently
        a = LabelledGraph.build(["x", "y"], [("e", "x", "y", 2, 3), ("f", "x", "y", 5, 7)])
        b = LabelledGraph.build(["x", "y"], [("e", "x", "y", 2, 7), ("f", "x", "y", 5, 3)])
        assert not nx_isomorphic(a, b)
        assert walk_isomorphism(a, b) is None

    def test_over_the_limit_is_refused(self):
        # cyclic covers of R2 with 101 and 103 sheets: every common cover
        # has a multiple of 10,403 vertices, so nothing is walked
        first, second = cyclic_cover(101), cyclic_cover(103)
        with pytest.raises(InputError, match="over 10000 vertices"):
            commensurable(first, second, witness_max_degree=103)
        assert commensurable(first, second, witness_max_degree=99).certificate.endswith(
            "no witness within total multiplicity 99")

    def test_walk_cut_at_the_limit_is_refused(self):
        # 101-sheeted cyclic covers of R2 turning different loops: their one
        # common cover has 101^2 = 10,201 vertices, and the walk stops after
        # 10,000; at degree 99 it stops at 9,999 instead, below the limit
        first, second = cyclic_cover(101), cyclic_cover(101, "b")
        with pytest.raises(InputError, match="over 10000 vertices"):
            commensurable(first, second, witness_max_degree=100)
        assert commensurable(first, second, witness_max_degree=99).certificate.endswith(
            "no witness within total multiplicity 99")

    def test_nothing_is_walked_past_the_smallest_size(self):
        # every common cover of the cyclic covers of R2 with 1000 and 999
        # sheets has a multiple of 999,000 vertices
        first, second = cyclic_cover(1000), cyclic_cover(999)
        start = time.perf_counter()
        verdict = commensurable(first, second, witness_max_degree=4)
        with pytest.raises(InputError, match="over 10000 vertices"):
            commensurable(first, second, witness_max_degree=1000)
        assert time.perf_counter() - start < 1.0
        assert verdict.certificate.endswith("no witness within total multiplicity 4")

    def test_earlier_degree_pairs_answer_below_the_limit(self):
        verdict = commensurable(R3, R3, witness_max_degree=5)
        assert verdict.certificate.endswith("witness degrees 1 and 1")

    def test_r3_degree_five_pair_is_answered(self):
        cover = voltage_cover(R3, 5, {e: (1, 2, 3, 4, 0) for e in "abc"}).source
        start = time.perf_counter()
        verdict = commensurable(cover, R3, witness_max_degree=5)
        assert time.perf_counter() - start < 1.0
        assert verdict.certificate.endswith("witness degrees 1 and 5")
        assert all(is_topological_covering(m) for m in verdict.witness)
