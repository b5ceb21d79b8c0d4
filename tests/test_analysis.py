import pytest

from conftest import bs, f1, f4_map
from gbs import (InputError, bad_vertices, check_inequalities, classify,
                 doubled_deltas, identity_map, minimal_plateaux,
                 plateaux_for_prime, totally_unfolded, voltage_cover)
from gbs.analysis import _bad_plateaux, _hitting_number
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
        total = sum(doubled_deltas(m).values())
        src, tgt = m.source, m.target
        expected = 2 * ((src.betti() + len(src.terminal_vertices()))
                        - (tgt.betti() + len(tgt.terminal_vertices())))
        assert total == expected

    def test_bad_vertex_value(self):
        deltas = doubled_deltas(f4_map())
        assert deltas["u"] == -1  # 2*delta = -1 at a bad vertex


class TestBadVertices:
    def test_fixture(self):
        assert bad_vertices(f4_map()) == frozenset({"u"})

    def test_identity_has_none(self):
        assert bad_vertices(identity_map(f1(5))) == frozenset()

    def test_voltage_covers_have_none(self):
        g = f1(6)
        cover = voltage_cover(g, 2, {r.name: (1, 0) for r in g.edges})
        assert bad_vertices(cover) == frozenset()


class TestTotallyUnfolded:
    def test_fixture_loop_plateau(self):
        m = f4_map()
        assert totally_unfolded(m, loop_plateau(m))

    def test_identity_never_unfolds(self):
        g = f1(6)
        for plateau in plateaux_for_prime(g, 2):
            assert not totally_unfolded(identity_map(g), plateau)

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
