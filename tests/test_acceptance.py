"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import hashlib
import math
import time

from conftest import bs, circle_graph, f1, f2, f3, f4_map, nx_isomorphic
from gbs import (all_plateaux, commensurable, emit_graph,
                 emit_map, generates, has_proper_plateau,
                 is_topological_covering, is_large, mu, parse_map,
                 plateau_free_cover, rank, verify_admissible)
from gbs import GraphAutomorphism, LabelledGraph
from gbs.torus import (mapping_torus_graph, mapping_torus_rank,
                       subdivide_inverted_edges)
from gbs.suites import run_suite


# sha256 of each suite report at the count and seed its criterion runs, recorded
# at 7547f96: the reports are deterministic, so any change in one is a regression
SUITE_REPORT_SHA256 = {
    "rank-monotonicity": "9771111b458f44af37b5231dfbc45eabb494bc6d72e7c083a961a67f7a7fb313",
    "covering-equivalence": "d14f7ddaedaf71d9ca2862e9926013011c656645c627dac3c7c7d54cf6b667fc",
    "audit": "f63b000740f5075eb1c8df5935e91d5770d70a115883ea279ab6980728a3cc7a",
    "plateau-free-cover": "86f9826677549edf3a567f0a4f589ab4391c62d91b9e14be57ffae0dcbd4e461",
}


def assert_report_unchanged(result) -> None:
    digest = hashlib.sha256(result.render().encode()).hexdigest()
    assert digest == SUITE_REPORT_SHA256[result.name]


def report(number: int, message: str) -> None:
    print(f"criterion {number}: PASS - {message}")


def inventory(g):
    return {(P.prime, P.vertices, P.edges)
            for P in all_plateaux(g).proper_plateaux}


def test_criterion_01_figure_exact_ranks():
    start = time.perf_counter()
    assert rank(f1(7)) == 2
    assert rank(f1(6)) == 3
    assert rank(f2()) == 3
    g3 = f3()
    assert g3.betti() == 1 and mu(g3) == 2 and rank(g3) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"figure ranks 2/3/3/3 exact in {elapsed:.3f}s")


def test_criterion_02_plateau_inventories():
    assert inventory(f1(7)) == {
        (3, frozenset({"v_a"}), frozenset()),
        (5, frozenset({"v_c"}), frozenset()),
        (2, frozenset({"v_b", "v_c"}), frozenset({"e_2"})),
        (7, frozenset({"v_a", "v_b"}), frozenset({"e_1"})),
    }
    assert inventory(f1(6)) == {
        (3, frozenset({"v_a"}), frozenset()),
        (5, frozenset({"v_c"}), frozenset()),
        (2, frozenset({"v_b"}), frozenset()),
    }
    assert inventory(f2()) == {
        (3, frozenset({"v_a"}), frozenset()),
        (5, frozenset({"v_d"}), frozenset()),
        (2, frozenset({"v_b", "v_c"}), frozenset({"e_2"})),
        (5, frozenset({"v_a", "v_b", "v_c"}), frozenset({"e_1", "e_2"})),
        (7, frozenset({"v_c", "v_d"}), frozenset({"e_3"})),
    }
    assert inventory(f3()) == {
        (2, frozenset({"v_a", "v_b"}), frozenset({"e_1"})),
        (5, frozenset({"v_b", "v_c"}), frozenset({"e_2"})),
        (3, frozenset({"v_a", "v_c"}), frozenset({"e_3"})),
    }
    report(2, "plateau inventories match all four figures exactly")


def test_criterion_03_generating_subsets():
    assert generates(f1(7), {"v_a", "v_c"})
    assert generates(f2(), {"v_a", "v_b", "v_d"})
    assert generates(f2(), {"v_a", "v_c", "v_d"})
    for pair in ({"v_a", "v_b"}, {"v_a", "v_c"}, {"v_b", "v_c"}):
        assert generates(f3(), pair)
    report(3, "generating-subset criterion reproduces the captions")


def test_criterion_04_index_two_round_trip(tmp_path):
    m = f4_map()
    (tmp_path / "src.gbs").write_text(emit_graph(m.source))
    (tmp_path / "tgt.gbs").write_text(emit_graph(m.target))
    printed = emit_map(m, "src.gbs", "tgt.gbs")
    resolver = {
        "src.gbs": (tmp_path / "src.gbs").read_text(),
        "tgt.gbs": (tmp_path / "tgt.gbs").read_text(),
    }
    loaded = parse_map(printed, resolver.__getitem__)
    assert verify_admissible(loaded)
    assert not has_proper_plateau(loaded.source)
    source_rank, target_rank = rank(loaded.source), rank(loaded.target)
    assert source_rank == 3 and target_rank == 3
    assert source_rank >= target_rank
    report(4, "printed index-2 map verifies; plateau-free source; ranks 3 >= 3")


def test_criterion_05_largeness():
    start = time.perf_counter()
    for m in range(2, 13):
        for n in range(2, 13):
            assert is_large(bs(m, n)) == (math.gcd(m, n) != 1), (m, n)
    assert is_large(f3())
    for tree in (f1(5), f1(7), f2()):
        assert is_large(tree)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"one-loop table (121 cases), circle and trees in {elapsed:.3f}s")


def test_criterion_06_mapping_torus():
    theta = LabelledGraph.build(
        ["P", "Q"],
        [("a", "P", "Q", 1, 1), ("b", "P", "Q", 1, 1), ("c", "P", "Q", 1, 1)])
    symmetry = GraphAutomorphism(theta, {"P": "Q", "Q": "P"},
                                 {"a": ("b", False), "b": ("c", False),
                                  "c": ("a", False)})
    quotient = mapping_torus_graph(subdivide_inverted_edges(symmetry))
    assert len(quotient.edges) == 1
    rec = quotient.edges[0]
    assert sorted((rec.label_origin, rec.label_terminus)) == [2, 3]
    assert mapping_torus_rank(symmetry) == 2
    report(6, "order-6 theta symmetry gives the (3,2)-labelled edge, rank 2")


def test_criterion_07_rank_monotonicity_suite():
    start = time.perf_counter()
    result = run_suite("rank-monotonicity", count=1000, base_seed=1)
    elapsed = time.perf_counter() - start
    assert result.instances == 1000
    assert result.failures == 0
    assert_report_unchanged(result)
    assert elapsed < 60.0
    report(7, f"1000 generated maps, zero violations, {elapsed:.1f}s")


def test_criterion_08_covering_equivalence_suite():
    result = run_suite("covering-equivalence", count=1000, base_seed=1)
    assert result.instances == 1000
    assert result.failures == 0
    assert_report_unchanged(result)
    report(8, "four covering characterizations agree on 1000 maps")


def test_criterion_09_inequality_audit_suite():
    result = run_suite("audit", count=1000, base_seed=1)
    assert result.failures == 0
    assert_report_unchanged(result)
    # equality in the terminal/Betti count is exact on the exceptional fixtures
    from gbs.analysis import check_inequalities
    from gbs.suites import exceptional_fixture_maps
    exact = 0
    for tag, m in exceptional_fixture_maps():
        rep = check_inequalities(m)
        if rep.classification.kind in ("accordion", "branched-2-cover-of-tree"):
            q = rep.quantities
            assert q["beta"] + q["t"] == q["beta-source"] + q["t-source"] + 1, tag
            exact += 1
    assert exact >= 2
    report(9, f"audit clean on {result.instances} maps; "
              f"{exact} exceptional fixtures hit the equality exactly")


def test_criterion_10_plateau_free_covers():
    result = run_suite("plateau-free-cover", count=100, base_seed=1)
    assert result.instances == 100
    assert result.failures == 0
    assert_report_unchanged(result)
    cover = plateau_free_cover(bs(2, 4))
    expected = LabelledGraph.build(
        ["z"], [("l1", "z", "z", 1, 2), ("l2", "z", "z", 1, 2)])
    assert nx_isomorphic(cover.source, expected)
    report(10, "100 plateau-free covers verified; one-loop example exact")


def test_criterion_11_commensurability_triad():
    start = time.perf_counter()
    circle = circle_graph([(2, 3), (2, 3)])
    positive = commensurable(bs(2, 3), circle, witness_max_degree=2)
    assert positive.answer == "commensurable"
    first, second = positive.witness
    assert is_topological_covering(first) and is_topological_covering(second)
    assert nx_isomorphic(first.source, second.source)
    assert {first.total_multiplicity(), second.total_multiplicity()} == {1, 2}
    assert commensurable(bs(2, 3), bs(4, 9)).answer == "not-commensurable"
    assert commensurable(bs(2, 4), bs(2, 3)).answer == "out-of-scope"
    assert commensurable(bs(2, 4), circle).answer == "out-of-scope"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(11, f"triad verdicts with verified degree-2 witness in {elapsed:.2f}s")
