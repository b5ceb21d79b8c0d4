from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, circle_graph, f1, f3, f4_map, f4_target
from gbs import (GeneratorConfig, InputError, LabelledGraph, Plateau,
                 all_plateaux, are_isomorphic, branched_cover, compose,
                 covering_characterizations, extract_proper_plateau,
                 generate_admissible_map, generate_graph, has_proper_plateau,
                 identity_map, is_topological_covering, label_primes,
                 orientation_double_cover, plateau_free_cover,
                 plateaux_for_prime, rank, restrict_to_component,
                 split_components, verify_admissible, voltage_cover)
from gbs import covering, generate, suites
from gbs.covering import _compose, _single_prime_cover
from strategies import connected_graphs


def plateau_of(g, p, vertex):
    for plateau in plateaux_for_prime(g, p):
        if vertex in plateau.vertices:
            return plateau
    raise AssertionError("no such plateau")


class TestVerify:
    def test_index_two_fixture(self):
        assert verify_admissible(f4_map())

    def test_identity(self):
        assert verify_admissible(identity_map(bs(2, 3)))

    def test_broken_multiplicity_is_localized(self):
        m = f4_map()
        broken = replace(m, edge_multiplicity={"a": 2, "b": 1, "m": 2})
        result = verify_admissible(broken)
        assert not result
        assert result.kind == "condition-star"
        assert "a" in result.site

    def test_total_multiplicity_check(self):
        g = LabelledGraph.build(["u", "w"], [("s", "u", "w", 2, 2)])
        cover = voltage_cover(g, 2, {"s": (0, 1)})
        bad = replace(cover, vertex_multiplicity={**cover.vertex_multiplicity, "u.1": 3})
        result = verify_admissible(bad)
        assert not result

    def test_incidence_violation_reported_distinctly(self):
        g = f1(5)
        bad = replace(identity_map(g),
                      vertex_map={"v_a": "v_a", "v_b": "v_b", "v_c": "v_a"})
        result = verify_admissible(bad)
        assert not result and result.kind == "incidence"


class TestCompose:
    def test_identity_neutral(self):
        m = f4_map()
        left = compose(m, identity_map(m.source))
        right = compose(identity_map(m.target), m)
        for composite in (left, right):
            assert composite.total_multiplicity() == m.total_multiplicity()
            assert composite.vertex_map == m.vertex_map

    def test_two_branched_covers_multiply(self):
        g = bs(4, 8)
        first = branched_cover(g, plateau_of(g, 2, "v"))
        plats = all_plateaux(first.source).proper_plateaux
        second = branched_cover(first.source, plats[0])
        composite = compose(first, second)
        assert composite.total_multiplicity() == 4
        assert verify_admissible(composite)

    def test_mismatched_graphs_rejected(self):
        with pytest.raises(InputError):
            compose(f4_map(), identity_map(bs(2, 3)))

    def test_non_admissible_input_rejected_by_role(self):
        m = f4_map()
        broken = replace(m, edge_multiplicity={"a": 2, "b": 1, "m": 2})
        with pytest.raises(InputError, match="outer map is not admissible"):
            compose(broken, identity_map(m.source))
        with pytest.raises(InputError, match="inner map is not admissible"):
            compose(identity_map(m.target), broken)


class TestBranchedCover:
    def test_single_vertex_plateau(self):
        g = bs(2, 4)
        cover = branched_cover(g, plateau_of(g, 2, "v"))
        src = cover.source
        assert len(src.vertices) == 1
        assert sorted((r.label_origin, r.label_terminus) for r in src.edges) == \
            [(1, 2), (1, 2)]
        assert src.betti() == 2
        assert cover.vertex_multiplicity[src.vertices[0]] == 2
        assert not is_topological_covering(cover)

    def test_loop_plateau_of_two_vertex_target(self):
        g = f4_target()
        cover = branched_cover(g, plateau_of(g, 2, "w"))
        src = cover.source
        assert len(src.vertices) == 3 and len(src.edges) == 3
        loops = [r for r in src.edges if r.origin == r.terminus]
        assert len(loops) == 1 and sorted((loops[0].label_origin,
                                           loops[0].label_terminus)) == [3, 5]
        pendants = [r for r in src.edges if r.origin != r.terminus]
        assert sorted((min(abs(r.label_origin), abs(r.label_terminus)),
                       max(abs(r.label_origin), abs(r.label_terminus)))
                      for r in pendants) == [(1, 2), (1, 2)]
        assert rank(src) == 3

    def test_terminal_side_doubling(self):
        g = f1(6)
        cover = branched_cover(g, plateau_of(g, 2, "v_b"))
        src = cover.source
        assert len(src.vertices) == 5 and len(src.edges) == 4
        assert src.betti() == 0
        assert rank(src) == 4 >= rank(g)

    def test_rejects_whole_graph_and_foreign_plateaux(self):
        g = bs(2, 4)
        plateau = plateau_of(g, 2, "v")
        with pytest.raises(InputError):
            branched_cover(bs(2, 3), plateau)
        with pytest.raises(InputError, match="branched covers require a proper plateau"):
            branched_cover(bs(2, 3), Plateau(5, frozenset({"v"}), frozenset({"e"})))


class TestVoltageCover:
    def test_swap_builds_circle(self):
        cover = voltage_cover(bs(2, 3), 2, {"e": (1, 0)})
        assert are_isomorphic(cover.source, circle_graph([(2, 3), (2, 3)]))
        assert is_topological_covering(cover)

    def test_degree_one_is_identity_like(self):
        cover = voltage_cover(bs(2, 3), 1, {"e": (0,)})
        assert are_isomorphic(cover.source, bs(2, 3))

    def test_identity_assignment_splits(self):
        g = f1(7)
        cover = voltage_cover(g, 2, {r.name: (0, 1) for r in g.edges})
        parts = split_components(cover)
        assert len(parts) == 2
        for part in parts:
            assert are_isomorphic(part.source, g)

    def test_non_permutation_rejected(self):
        with pytest.raises(InputError):
            voltage_cover(bs(2, 3), 2, {"e": (0, 0)})

    def test_restrict_to_component_cuts_only_when_disconnected(self):
        connected = voltage_cover(bs(2, 3), 2, {"e": (1, 0)})
        assert restrict_to_component(connected) is connected
        split = voltage_cover(bs(2, 3), 2, {"e": (0, 1)})
        part = restrict_to_component(split, "v.2")
        assert part.source == LabelledGraph.build(["v.2"], [("e.2", "v.2", "v.2", 2, 3)])
        assert (part.target, part.vertex_map, part.edge_map) == \
            (split.target, {"v.2": "v"}, {"e.2": ("e", True)})
        assert (part.vertex_multiplicity, part.edge_multiplicity) == ({"v.2": 1}, {"e.2": 1})

    @given(connected_graphs(), st.integers(1, 3), st.randoms(use_true_random=False))
    @settings(deadline=None, max_examples=40)
    def test_always_topological(self, g, degree, rng):
        assignment = {}
        for rec in g.edges:
            perm = list(range(degree))
            rng.shuffle(perm)
            assignment[rec.name] = tuple(perm)
        cover = voltage_cover(g, degree, assignment)
        assert is_topological_covering(cover)
        # preimage components of plateaux are plateaux for the same prime
        restricted = restrict_to_component(cover)
        for plateau in all_plateaux(g).proper_plateaux:
            pre_vertices = {x for x in restricted.source.vertices
                            if restricted.vertex_map[x] in plateau.vertices}
            dest = {(q.prime, frozenset(q.vertices)) for q
                    in plateaux_for_prime(restricted.source, plateau.prime)}
            hit = {v for p, vs in dest for v in vs if p == plateau.prime}
            assert pre_vertices <= hit or not pre_vertices


class TestOrientationDoubleCover:
    def test_negative_loop(self):
        cover = orientation_double_cover(bs(2, -3))
        assert cover is not None
        assert cover.source.is_connected()
        assert not cover.source.modulus().takes_negative_value()
        assert are_isomorphic(cover.source.normalize_signs(),
                              circle_graph([(2, 3), (2, 3)]))

    def test_klein_becomes_flat_torus_presentation(self):
        cover = orientation_double_cover(bs(1, -1))
        normalized = cover.source.normalize_signs()
        assert all(normalized.label(d) > 0 for d in normalized.darts())
        assert normalized.modulus().is_trivial()

    def test_positive_modulus_is_a_no_op(self):
        assert orientation_double_cover(bs(2, 3)) is None


class TestExtract:
    def test_index_two_fixture_yields_terminal_vertex(self):
        plateau = extract_proper_plateau(f4_map())
        assert plateau.prime == 2
        assert plateau.vertices == frozenset({"u"})

    def test_round_trip_single_plateau(self):
        g = bs(2, 4)
        plateau = plateau_of(g, 2, "v")
        assert extract_proper_plateau(branched_cover(g, plateau)) == plateau

    def test_round_trip_triangle(self):
        g = f3()
        plateau = plateau_of(g, 2, "v_a")
        extracted = extract_proper_plateau(branched_cover(g, plateau))
        assert extracted.prime == 2 and extracted.vertices & plateau.vertices

    def test_topological_covering_rejected(self):
        with pytest.raises(InputError):
            extract_proper_plateau(identity_map(bs(2, 3)))


class TestPlateauFreeCover:
    def test_double_loop(self):
        cover = plateau_free_cover(bs(2, 4))
        expected = LabelledGraph.build(
            ["z"], [("l1", "z", "z", 1, 2), ("l2", "z", "z", 1, 2)])
        assert are_isomorphic(cover.source, expected)
        assert cover.total_multiplicity() == 2
        assert not has_proper_plateau(cover.source)

    def test_plateau_free_input_is_identity(self):
        cover = plateau_free_cover(bs(2, 3))
        assert cover.source == bs(2, 3)
        assert cover.total_multiplicity() == 1

    def test_two_plateau_target(self):
        cover = plateau_free_cover(f4_target())
        assert verify_admissible(cover)
        assert cover.source.is_connected()
        assert not has_proper_plateau(cover.source)
        total = cover.total_multiplicity()
        assert total & (total - 1) == 0  # the only plateau primes are 2

    def test_size_limit(self):
        g = LabelledGraph.build(
            ["a", "b"], [("e1", "a", "b", 29, 2), ("e2", "a", "b", 29, 53)])
        with pytest.raises(InputError):
            plateau_free_cover(g, size_limit=3)


class TestCharacterizations:
    def test_agreement_on_fixture(self):
        chars = covering_characterizations(f4_map())
        assert set(chars.values()) == {False}

    def test_agreement_on_identity(self):
        chars = covering_characterizations(identity_map(f3()))
        assert set(chars.values()) == {True}


# -- the checks the constructions trust ----------------------------------------

PATH_2_3 = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 3)])


def _checked(fn, seen: Counter, connected: bool = False):
    """Wrap a private step so that every map it returns is verified."""
    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is not None:
            outcome = verify_admissible(result)
            assert outcome, f"{fn.__name__}: {outcome.render()}"
            assert not connected or result.source.is_connected(), fn.__name__
            seen[fn.__name__] += 1
        return result
    return spy


class TestTrustedSteps:
    """The private steps run unchecked; here every one of them is verified."""

    def test_plateau_free_steps_are_admissible(self, monkeypatch):
        seen = Counter()
        monkeypatch.setattr(covering, "_single_prime_cover",
                            _checked(covering._single_prime_cover, seen, connected=True))
        monkeypatch.setattr(covering, "_compose", _checked(covering._compose, seen))
        built = 0
        for seed in range(1, 125):  # the candidates of the plateau-free-cover suite
            g = generate_graph(GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                                               max_label_magnitude=60))
            try:
                plateau_free_cover(g, size_limit=1500)
            except InputError:
                continue
            built += 1
        assert built == 100
        assert seen["_single_prime_cover"] == seen["_compose"] > built

    @pytest.mark.parametrize(("bound", "covers"), [(12, 464), (60, 708)])
    def test_single_prime_covers_of_connected_graphs_are_connected(self, bound, covers):
        """The steps are composed as built, with no restriction to a component."""
        built = 0
        for seed in range(1, 301):
            g = generate_graph(GeneratorConfig(seed=seed, max_vertices=6, max_edges=8,
                                               max_label_magnitude=bound))
            for p in label_primes(g):
                try:
                    step = _single_prime_cover(g, p, 500)
                except InputError:
                    continue
                if step is not None:
                    assert step.source.is_connected(), (seed, p)
                    built += 1
        assert built == covers

    def test_generated_composites_are_admissible(self, monkeypatch):
        seen = Counter()
        for name in ("restrict_to_component", "_compose"):
            monkeypatch.setattr(generate, name, _checked(getattr(generate, name), seen))
        for recipe in suites.RECIPES:
            for seed in range(1, 201):
                generate_admissible_map(GeneratorConfig(seed=seed, map_recipe=recipe))
        assert seen["_compose"] == 200 * sum(len(recipe) for recipe in suites.RECIPES)


@pytest.fixture
def verify_calls(monkeypatch):
    """Maps passed to `covering.verify_admissible`, in call order."""
    calls = []
    real = covering.verify_admissible

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(covering, "verify_admissible", counting)
    return calls


class TestCheckCount:
    """Public constructions check their output once; private steps never do."""

    @pytest.mark.parametrize("g", [PATH_2_3, bs(2, 4), bs(2, 3), f4_target()],
                             ids=["two-primes", "one-prime", "plateau-free", "two-vertex"])
    def test_plateau_free_cover(self, verify_calls, g):
        m = plateau_free_cover(g)
        assert verify_calls == [m]

    def test_branched_and_voltage_cover(self, verify_calls):
        g = bs(2, 4)
        branched = branched_cover(g, plateau_of(g, 2, "v"))
        voltage = voltage_cover(g, 2, {"e": (1, 0)})
        assert verify_calls == [branched, voltage]

    def test_compose_checks_inputs_then_composite(self, verify_calls):
        outer = f4_map()
        inner = identity_map(outer.source)
        composite = compose(outer, inner)
        assert verify_calls == [outer, inner, composite]

    def test_private_steps(self, verify_calls):
        step = _single_prime_cover(PATH_2_3, 2)
        _compose(identity_map(PATH_2_3), restrict_to_component(step))
        assert verify_calls == []
