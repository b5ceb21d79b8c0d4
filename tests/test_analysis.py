import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import bs, f1, f4_map
import dart_views as views
from gbs import (InputError, LabelledGraph, Plateau, all_plateaux, check_inequalities,
                 classify, identity_map, minimal_plateaux, plateaux_for_prime,
                 totally_unfolded, voltage_cover)
from gbs.analysis import (_bad_plateaux, _bad_vertices, _doubled_deltas,
                          _has_plateau_preimage_component, _hitting_number,
                          _totally_unfolded)
from gbs.generate import generate_admissible_map
from gbs.suites import (_map_config, accordion_fixture,
                        exceptional_fixture_maps, star_branched_fixture,
                        two_plateau_branched_fixture)


def loop_plateau(m):
    for plateau in plateaux_for_prime(m.target, 2):
        if "w" in plateau.vertices:
            return plateau
    raise AssertionError


class TestDeltas:
    def test_sum_identity_on_fixture(self):
        m = f4_map()
        total = sum(_doubled_deltas(m).values())
        src, tgt = m.source, m.target
        expected = 2 * ((src.betti() + len(src.terminal_vertices()))
                        - (tgt.betti() + len(tgt.terminal_vertices())))
        assert total == expected

    def test_bad_vertex_value(self):
        deltas = _doubled_deltas(f4_map())
        assert deltas["u"] == -1  # 2*delta = -1 at a bad vertex


class TestBadVertices:
    def test_fixture(self):
        assert _bad_vertices(f4_map()) == frozenset({"u"})

    def test_identity_has_none(self):
        assert _bad_vertices(identity_map(f1(5))) == frozenset()

    def test_voltage_covers_have_none(self):
        g = f1(6)
        cover = voltage_cover(g, 2, {r.name: (1, 0) for r in g.edges})
        assert _bad_vertices(cover) == frozenset()


class TestTotallyUnfolded:
    def test_fixture_loop_plateau(self):
        m = f4_map()
        assert totally_unfolded(m, loop_plateau(m))

    def test_identity_never_unfolds(self):
        g = f1(6)
        for plateau in plateaux_for_prime(g, 2):
            assert not totally_unfolded(identity_map(g), plateau)

    def test_whole_graph_has_no_edge_to_unfold(self):
        # 2 divides no label of bs(3, 5), so the whole graph is a 2-plateau.  Only
        # here does the leaving-dart filter matter: over a proper plateau p | m_x
        # at one point means p | m_x at every point
        g = bs(3, 5)
        whole = Plateau(2, frozenset(g.vertices), frozenset({"e"}))
        assert totally_unfolded(identity_map(g), whole)

    def test_foreign_plateau_rejected(self):
        m = f4_map()
        [plateau] = plateaux_for_prime(bs(2, 4), 2)
        with pytest.raises(InputError):
            totally_unfolded(m, plateau)


class TestMinimalPlateaux:
    def test_fixture(self):
        m = f4_map()
        plats = minimal_plateaux(m)
        assert [(P.prime, P.vertices) for P in plats] == [(2, frozenset({"w"}))]
        assert _hitting_number(m.target, plats) == 1
        assert [(P.prime, P.vertices) for P in _bad_plateaux(m, plats)] == \
            [(2, frozenset({"w"}))]

    def test_identity_and_voltage_have_none(self):
        g = f1(6)
        assert minimal_plateaux(identity_map(g)) == []
        assert _hitting_number(g, minimal_plateaux(identity_map(g))) == 0
        cover = voltage_cover(g, 2, {r.name: (1, 0) for r in g.edges})
        assert minimal_plateaux(cover) == []


class TestClassify:
    def test_fixture_is_generalized_branched(self):
        result = classify(f4_map())
        assert result.kind == "generalized-branched"
        assert result.exceptional
        assert [P.vertices for P in result.branching_plateaux] == \
            [frozenset({"w"})]

    def test_accordions(self):
        assert classify(accordion_fixture(1)).kind == "branched-2-cover-of-tree"
        two = classify(accordion_fixture(2))
        assert two.kind == "accordion" and two.size == 2
        three = classify(accordion_fixture(3))
        assert three.kind == "accordion" and three.size == 3

    def test_star_cover(self):
        assert classify(star_branched_fixture()).kind == "branched-2-cover-of-tree"

    def test_voltage_cover_is_ordinary(self):
        cover = voltage_cover(bs(2, 3), 2, {"e": (1, 0)})
        assert classify(cover).kind == "ordinary"

    def test_identity_on_segment_is_ordinary(self):
        g = f1(5)
        assert classify(identity_map(g)).kind == "ordinary"


class TestAudit:
    def test_fixture_quantities(self):
        report = check_inequalities(f4_map())
        assert report.ok
        q = report.quantities
        assert (q["beta"], q["t"], q["c"]) == (1, 1, 1)
        assert (q["beta-source"], q["t-source"]) == (2, 0)
        assert q["t-good"] == 0 and q["c-good"] == 0

    def test_identity_audit(self):
        report = check_inequalities(identity_map(f1(6)))
        assert report.ok
        assert report.classification.kind == "ordinary"

    def test_all_exceptional_fixtures_pass(self):
        for tag, m in exceptional_fixture_maps():
            report = check_inequalities(m)
            assert report.ok, (tag, report.render())

    def test_equality_for_exceptional_kinds(self):
        for tag, m in exceptional_fixture_maps():
            report = check_inequalities(m)
            if report.classification.kind in ("accordion",
                                              "branched-2-cover-of-tree"):
                q = report.quantities
                assert q["beta"] + q["t"] == q["beta-source"] + q["t-source"] + 1, tag

    def test_generated_corpus_smoke(self):
        for seed in range(1, 60):
            m = generate_admissible_map(_map_config(seed))
            report = check_inequalities(m)
            assert report.ok, (seed, report.render())

    def test_render_is_line_oriented(self):
        text = check_inequalities(f4_map()).render()
        assert "check=terminal-betti pass=true" in text
        assert text.strip().endswith("audit=pass")

    def test_two_plateau_fixture_matches_f4(self):
        report = check_inequalities(two_plateau_branched_fixture())
        assert report.ok and report.classification.kind == "generalized-branched"

    @pytest.mark.parametrize("check, message", [
        (check_inequalities, "audit"), (classify, "classify"),
        (minimal_plateaux, "minimal_plateaux"),
        (lambda m: totally_unfolded(m, loop_plateau(f4_map())), "totally_unfolded")],
        ids=["audit", "classify", "minimal_plateaux", "totally_unfolded"])
    def test_input_rejections(self, check, message):
        with pytest.raises(InputError, match=f"^{message} requires an admissible map$"):
            check(replace(f4_map(), edge_multiplicity={"a": 2, "b": 1, "m": 2}))
        if check in (check_inequalities, classify):
            with pytest.raises(InputError, match=f"^{message} requires a connected source$"):
                check(voltage_cover(bs(2, 3), 2, {"e": (0, 1)}))
        if check is check_inequalities:
            unreduced = LabelledGraph.build(["a", "b"], [("e", "a", "b", 1, 2)])
            with pytest.raises(InputError, match="^audit requires a reduced target$"):
                check(identity_map(unreduced))


def _lifts(m, x, target_dart):
    return [d for d in views.darts_at(m.source, x) if views.map_dart(m, d) == target_dart]


def test_plateau_facts_match_their_definitions():
    """The audit reads three plateau facts off the gcd condition; here each is
    taken from its definition instead, by counting lifts dart by dart and by
    testing preimage components against the divisibility dichotomy."""
    outcomes = Counter()
    for seed in range(1, 301):
        m = generate_admissible_map(_map_config(seed))
        src, tgt = m.source, m.target
        inventory = all_plateaux(tgt).proper_plateaux
        bad = []
        for P in inventory:
            p = P.prime
            leaving = [(v, d) for v in P.vertices for d in views.darts_at(tgt, v)
                       if d.edge not in P.edges]
            unfolded = all(len(_lifts(m, x, d)) % p == 0
                           for v, d in leaving for x in m.vertex_preimages[v])
            pre_vertices = [x for v in P.vertices for x in m.vertex_preimages[v]]
            pre_edges = {e for name in P.edges for e in m.edge_preimages[name]}
            preimage_plateau = any(
                all((views.label(src, d) % p == 0) == (d.edge not in edges)
                    for x in vertices for d in views.darts_at(src, x))
                for vertices, edges in src.subgraph_components(pre_edges, pre_vertices))
            boundary = [(v, d) for v, d in leaving if views.terminus(tgt, d) not in P.vertices]
            if p == 2 and len(boundary) == 1:
                v, d = boundary[0]
                if sum(len(_lifts(m, x, d)) for x in m.vertex_preimages[v]) == 2:
                    bad.append(P)
            assert _totally_unfolded(m, P) == unfolded, (seed, P)
            assert _has_plateau_preimage_component(m, P) == preimage_plateau, (seed, P)
            outcomes["plateaux"] += 1
            outcomes["unfolded"] += unfolded
            outcomes["preimage-plateau"] += preimage_plateau
        assert _bad_plateaux(m, list(inventory)) == bad, seed
        outcomes["bad"] += len(bad)
    assert outcomes == {"plateaux": 662, "unfolded": 128, "preimage-plateau": 546, "bad": 28}


# Counts calls of `is_prime` and `_plateaux` wherever a gbs module holds them,
# over the audits of map seeds 1-40, and prints them as JSON.
_COUNTING_AUDIT = """
import json, sys
from collections import Counter
from gbs import generate, plateau, primes, suites
from gbs.analysis import check_inequalities
counts = Counter()
def counting(name, real):
    def spy(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    return spy
for name, real in (("is_prime", primes.is_prime), ("_plateaux", plateau._plateaux)):
    spy = counting(name, real)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("gbs") and getattr(module, name, None) is real:
            setattr(module, name, spy)
for seed in range(1, 41):
    check_inequalities(generate.generate_admissible_map(suites._map_config(seed)))
print(json.dumps(counts, sort_keys=True))
"""


def test_audit_work_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [subprocess.Popen([sys.executable, "-c", _COUNTING_AUDIT], stdout=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONPATH": src,
                                             "PYTHONHASHSEED": seed})
            for seed in ("0", "1")]
    counts = [json.loads(run.communicate()[0]) for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert counts[0] == counts[1]
