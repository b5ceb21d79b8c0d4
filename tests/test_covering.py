import time
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (THREE_PRIMES, bs, checked, circle_graph, f1, f2, f3, f4_map, f4_source,
                      f4_target, nx_isomorphic)
import dart_views as views
from gbs import (AdmissibleMap, GeneratorConfig, InputError, InternalError, LabelledGraph,
                 Plateau, all_plateaux, branched_cover, check_inequalities, classify, compose,
                 covering_characterizations, emit_graph, emit_map, extract_proper_plateau,
                 generate_admissible_map, generate_graph, has_proper_plateau,
                 identity_map, is_topological_covering, label_primes, minimal_plateaux,
                 orientation_double_cover, plateau_free_cover,
                 plateaux_for_prime, rank, restrict_to_component, run_suite,
                 totally_unfolded, verify_admissible, voltage_cover)
from gbs import covering, generate, graph, suites
from gbs.covering import COVER_VERTEX_LIMIT, _prime_power_cover
from gbs.graph import EdgeRecord
from strategies import connected_graphs
from test_benchmark_api import perfbench_workloads


PATH_2_3 = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 3)])


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

    F4_LIFT_LABEL = LabelledGraph.build(  # f4's source with lift a labelled 2
        ["x", "y"], [("a", "x", "y", 2, 1), ("b", "x", "y", 1, 1), ("m", "y", "y", 3, 5)])

    @pytest.mark.parametrize("changes, kind, site", [
        ({"vertex_map": {"x": "u"}}, "structure", "vertex-map"),
        ({"edge_map": {"a": ("s", True), "b": ("s", True)}}, "structure", "edge-map"),
        ({"vertex_map": {"x": "u", "y": "z"}}, "structure", "y"),
        ({"vertex_multiplicity": {"x": 2, "y": 0}}, "structure", "y"),
        ({"edge_map": {"a": ("s", True), "b": ("s", True), "m": ("z", True)}},
         "structure", "m"),
        ({"edge_multiplicity": {"a": 1, "b": 1, "m": 0}}, "structure", "m"),
        ({"vertex_multiplicity": {"x": 1, "y": 2}}, "condition-star", "x/s"),
        ({"source": F4_LIFT_LABEL}, "condition-star", "x/a"),
    ], ids=["vertex-map", "edge-map", "image-vertex", "vertex-multiplicity", "image-edge",
            "edge-multiplicity", "lift-count", "lift-label"])
    def test_first_violation_is_reported(self, changes, kind, site):
        result = verify_admissible(replace(f4_map(), **changes))
        assert (result.ok, result.kind, result.site) == (False, kind, site)

    def test_non_constant_total_multiplicity(self):
        two_points = LabelledGraph.build(["u", "w"], [])
        result = verify_admissible(replace(identity_map(two_points),
                                           vertex_multiplicity={"u": 1, "w": 2}))
        assert (result.ok, result.kind, result.site) == (False, "total-multiplicity", "u")
        assert result.message == "preimage multiplicities sum to [1, 2]"

    LOOP_2_3 = LabelledGraph.build(["a"], [("e", "a", "a", 2, 3)])

    @pytest.mark.parametrize("vertex_mult, image, edge_mult, site, message", [
        (True, ("e", True), True, "a", "vertex multiplicity True must be a positive integer"),
        (1, ("e", True), True, "e", "edge multiplicity True must be a positive integer"),
        (1, ("e", 1), 1, "e", "orientation flag 1 must be a bool"),
        (1, ("e", 2), 1, "e", "orientation flag 2 must be a bool"),
    ], ids=["bool-vertex-multiplicity", "bool-edge-multiplicity", "flag-1", "flag-2"])
    def test_bool_multiplicity_and_non_bool_flag_are_structure_faults(
            self, vertex_mult, image, edge_mult, site, message):
        """A multiplicity is an int and not a bool, as a label is; a flag
        is a bool, so that `forward == same` is its only reading."""
        g = self.LOOP_2_3
        m = AdmissibleMap(g, g, {"a": "a"}, {"e": image}, {"a": vertex_mult}, {"e": edge_mult})
        result = verify_admissible(m)
        assert (result.ok, result.kind, result.site, result.message) == (
            False, "structure", site, message)
        assert result.render() == f"admissible=false kind=structure site={site} detail={message}"

    @pytest.mark.parametrize("image_vertex, image, site, message", [
        ("a", ("e",), "e",
         "edge map value ('e',) must be an (image edge, orientation flag) pair"),
        ("a", ("e", True, 1), "e",
         "edge map value ('e', True, 1) must be an (image edge, orientation flag) pair"),
        ("a", 7, "e", "edge map value 7 must be an (image edge, orientation flag) pair"),
        (["a"], ("e", True), "a", "image vertex ['a'] is not in the target"),
        ("a", (["e"], True), "e", "image edge ['e'] is not in the target"),
    ], ids=["short-pair", "long-pair", "not-a-pair", "unhashable-vertex", "unhashable-edge"])
    def test_malformed_images_are_structure_faults(self, image_vertex, image, site, message):
        """A map value of the wrong shape or type is a verdict, not a traceback."""
        g = self.LOOP_2_3
        m = AdmissibleMap(g, g, {"a": image_vertex}, {"e": image}, {"a": 1}, {"e": 1})
        result = verify_admissible(m)
        assert (result.ok, result.kind, result.site, result.message) == (
            False, "structure", site, message)

    F4_TABLES = ((0, 1), (0, 1, 0, 1, 2, 3), (2, 2), (1, 1, 2))  # f4_map's tables

    @pytest.mark.parametrize("table, value", [
        (0, (0,)), (1, (0, 1, 0, 1)), (2, (2, 2, 2)), (3, (1, 1)),
        (0, (0, 2)), (0, (-1, 1)), (1, (0, 1, 0, 1, 4, 5)), (1, (0, 1, 0, 1, -2, -1)),
        (1, (0, 1, 0, 1, 2, 2)), (1, (0, 3, 0, 1, 2, 1)), (2, (2, 0)), (3, (1, -1, 2)),
    ], ids=["short-vertex-image", "short-dart-image", "long-vertex-mult", "short-edge-mult",
            "vertex-past-target", "negative-vertex", "dart-past-target", "negative-dart",
            "unpaired-reverse", "reverse-on-another-edge", "zero-vertex-mult",
            "negative-edge-mult"])
    def test_ill_fitting_tables_are_structure_faults(self, table, value):
        """A map built from tables has no names to check: its tables must fit
        its graphs, the reverse of each dart's image must be the image of its
        reverse, and every multiplicity must be positive."""
        assert verify_admissible(AdmissibleMap._from_tables(
            f4_source(), f4_target(), *self.F4_TABLES))
        tables = list(self.F4_TABLES)
        tables[table] = value
        result = verify_admissible(AdmissibleMap._from_tables(f4_source(), f4_target(), *tables))
        assert (result.ok, result.kind, result.site, result.message) == (
            False, "structure", "tables", "the map's tables do not fit its source and target")

    def test_a_name_given_map_keeps_the_tables_its_check_built(self):
        m = f4_map()
        assert "_tables" not in m.__dict__
        assert verify_admissible(m)
        assert m._tables == self.F4_TABLES
        built = AdmissibleMap._from_tables(m.source, m.target, *m._tables)
        assert verify_admissible(built)
        assert [dict(getattr(built, name)) for name in ("vertex_map", "edge_map",
                "vertex_multiplicity", "edge_multiplicity")] == [
            dict(getattr(m, name)) for name in ("vertex_map", "edge_map",
                                                "vertex_multiplicity", "edge_multiplicity")]
        with pytest.raises(TypeError):
            built.edge_map["a"] = ("s", False)
        with pytest.raises(AttributeError):
            built.no_such_attribute

    @pytest.mark.parametrize("read", [
        lambda m: m.vertex_preimages, lambda m: m.edge_preimages,
        lambda m: m.total_multiplicity(), restrict_to_component,
        lambda m: compose(identity_map(m.target), m)],
        ids=["vertex-preimages", "edge-preimages", "total-multiplicity", "restrict", "compose"])
    def test_a_malformed_name_map_is_refused_by_every_reader(self, read):
        """A map given by names that fails the structural pass has no tables:
        a reader refuses it with InputError, as the check gives its verdict."""
        two_points = LabelledGraph.build(["u", "w"], [])
        m = replace(identity_map(two_points), vertex_map={"u": "u", "w": "z"})
        assert verify_admissible(m).render() == (
            "admissible=false kind=structure site=w detail=image vertex 'z' is not in the target")
        with pytest.raises(InputError, match="site=w"):
            read(m)


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

    def test_bounded_before_building(self):
        # 2**61 - 1 is prime: the cover would copy vertex b 2**61 - 1 times
        g = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2 ** 61 - 1, 2)])
        start = time.perf_counter()
        plateau = plateaux_for_prime(g, 2 ** 61 - 1)[0]
        with pytest.raises(InputError, match=f"^cover would have {2 ** 61} vertices, "
                                             f"above the limit {COVER_VERTEX_LIMIT}$"):
            branched_cover(g, plateau)
        assert time.perf_counter() - start < 1.0

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
        assert nx_isomorphic(cover.source, circle_graph([(2, 3), (2, 3)]))
        assert is_topological_covering(cover)

    def test_degree_one_is_identity_like(self):
        cover = voltage_cover(bs(2, 3), 1, {"e": (0,)})
        assert nx_isomorphic(cover.source, bs(2, 3))

    def test_identity_assignment_splits(self):
        g = f1(7)
        cover = voltage_cover(g, 2, {r.name: (0, 1) for r in g.edges})
        parts = [restrict_to_component(cover, vertices[0])
                 for vertices in cover.source.components()]
        assert len(parts) == 2
        for part in parts:
            assert nx_isomorphic(part.source, g)

    def test_non_permutation_rejected(self):
        with pytest.raises(InputError):
            voltage_cover(bs(2, 3), 2, {"e": (0, 0)})
        with pytest.raises(InputError, match="^degree must be positive$"):
            voltage_cover(bs(2, 3), 0, {"e": ()})
        with pytest.raises(InputError, match="^no permutation assigned to edge 'e'$"):
            voltage_cover(bs(2, 3), 2, {})

    def test_oversized_cover_is_refused_before_it_is_built(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(covering, "_sheeted_cover", unreachable)
        with pytest.raises(InputError, match="cover would have 20000 vertices, above the "
                                             "limit 10000"):
            voltage_cover(bs(2, 3), 20_000, {"e": range(20_000)})
        with pytest.raises(InputError, match="20002 vertices"):
            voltage_cover(circle_graph([(2, 3), (2, 3)]), 10_001, {})

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
        assert nx_isomorphic(cover.source.normalize_signs(),
                              circle_graph([(2, 3), (2, 3)]))

    def test_klein_becomes_flat_torus_presentation(self):
        cover = orientation_double_cover(bs(1, -1))
        normalized = cover.source.normalize_signs()
        assert all(views.label(normalized, d) > 0 for d in views.darts(normalized))
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
        assert nx_isomorphic(cover.source, expected)
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

    def test_bounded_by_default(self):
        # 2**61 - 1 is prime: its one step would have 2**61 + 1 vertices
        g = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2 ** 61 - 1, 2)])
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"need {2 ** 61 + 1} vertices .* "
                                             f"the limit {COVER_VERTEX_LIMIT}$"):
            plateau_free_cover(g)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("g", [THREE_PRIMES, f3(), bs(2, 3)],
                             ids=["three-primes", "f3", "plateau-free"])
    def test_one_graph_per_cover(self, graph_builds, g):
        """Every prime's rounds run on g; a non-identity cover builds only its source."""
        cover = plateau_free_cover(g)
        assert [id(graph) for graph in graph_builds] == \
            ([] if cover.source is g else [id(cover.source)])

    def test_refused_before_anything_is_built(self, graph_builds):
        # the 2-sheets alone give 3 vertices, the 3-sheets on top of them 5
        with pytest.raises(InputError) as refusal:
            plateau_free_cover(PATH_2_3, size_limit=4)
        assert str(refusal.value) == \
            "plateau-free cover would need 5 vertices for prime 3, above the limit 4"
        assert graph_builds == []


def emitted(m: AdmissibleMap) -> str:
    return emit_graph(m.source) + emit_map(m, "s", "t")


def chained_plateau_free_cover(g: LabelledGraph, size_limit: int) -> AdmissibleMap | None:
    """One single-prime cover per label prime, each with its rounds run on the
    previous source, composed and checked as built; None if no prime has a
    proper plateau."""
    current = None
    for p in label_primes(g):
        step = _prime_power_cover(g if current is None else current.source, [p], size_limit)
        if step is not None:
            current = step if current is None else compose(current, step)
    return current


def built_or_refused(build, *args):
    """What `emit_graph` and `emit_map` print of the map `build(*args)`, in
    their order; None for no map, the message for a refusal."""
    try:
        m = build(*args)
    except InputError as exc:
        return str(exc)
    if m is None:
        return None
    return m.source, m.vertex_map, m.edge_map, m.vertex_multiplicity, m.edge_multiplicity


class TestPullback:
    """Every prime's rounds run on g give the cover of the single-prime chain,
    sheet names and order included: the q-plateaux of a cover with p-power
    multiplicities are the components of the preimages of g's."""

    @pytest.mark.parametrize(("bound", "covers", "refusals"), [(12, 171, 22), (60, 126, 88)])
    def test_generated_graphs(self, bound, covers, refusals):
        # `compose` checks every step and composite of the chain, so the
        # builder's map, equal to the last composite, is admissible too
        outcomes = Counter()
        for seed in range(1, 301):
            g = generate_graph(GeneratorConfig(seed=seed, max_vertices=6, max_edges=8,
                                               max_label_magnitude=bound))
            chained = built_or_refused(chained_plateau_free_cover, g, 500)
            assert built_or_refused(_prime_power_cover, g, label_primes(g), 500) == chained, seed
            outcomes["identity" if chained is None
                     else "refused" if isinstance(chained, str) else "cover"] += 1
        assert outcomes == {"cover": covers, "refused": refusals,
                            "identity": 300 - covers - refusals}

    @pytest.mark.parametrize("g", [THREE_PRIMES, f3(), PATH_2_3, bs(2, 4), f1(7), f2(),
                                   f4_target()],
                             ids=["three-primes", "f3", "path-2-3", "bs24", "f1-7", "f2",
                                  "f4-target"])
    def test_fixtures(self, g):
        chained = chained_plateau_free_cover(g, COVER_VERTEX_LIMIT)
        assert chained is not None
        assert emitted(plateau_free_cover(g)) == emitted(chained)


class TestCharacterizations:
    def test_agreement_on_fixture(self):
        chars = covering_characterizations(f4_map())
        assert set(chars.values()) == {False}

    def test_agreement_on_identity(self):
        chars = covering_characterizations(identity_map(f3()))
        assert set(chars.values()) == {True}


# -- the checks the constructions trust ----------------------------------------


class TestTrustedSteps:
    """The private steps run unchecked; here every one of them is verified."""

    def test_plateau_free_steps_are_admissible(self, plateau_free_suite):
        """Every step of the criterion-10 suite run, verified as it was built."""
        report, seen, _ = plateau_free_suite
        assert report.instances == 100
        assert seen["_prime_power_cover"] == 71  # instances with a proper plateau

    @pytest.mark.parametrize(("bound", "covers"), [(12, 464), (60, 708)])
    def test_single_prime_covers_of_connected_graphs_are_connected(self, bound, covers):
        """A single-prime cover is connected as built, with no restriction to a component."""
        built = 0
        for seed in range(1, 301):
            g = generate_graph(GeneratorConfig(seed=seed, max_vertices=6, max_edges=8,
                                               max_label_magnitude=bound))
            for p in label_primes(g):
                try:
                    step = _prime_power_cover(g, [p], 500)
                except InputError:
                    continue
                if step is not None:
                    assert step.source.is_connected(), (seed, p)
                    built += 1
        assert built == covers

    def test_generated_composites_are_admissible(self, monkeypatch):
        seen = Counter()
        for name in ("restrict_to_component", "compose"):
            monkeypatch.setattr(generate, name, checked(getattr(generate, name), seen))
        for recipe in suites.RECIPES:
            for seed in range(1, 201):
                generate_admissible_map(GeneratorConfig(seed=seed, map_recipe=recipe))
        # the first step of a recipe is composed with nothing
        assert seen["compose"] == 200 * sum(len(recipe) - 1 for recipe in suites.RECIPES)

    def test_undivisible_leaving_label_is_internal_error(self, monkeypatch):
        # {v_a} is no 2-plateau of f1(7): e_1 leaves it with the odd label 3; the
        # rounds ask `_plateaux` with their label per dart, in index order
        def asked(g, p, dart_labels):
            assert list(dart_labels) == [3, 2, 7, 5]
            return [Plateau(p, frozenset({"v_a"}), frozenset())]
        monkeypatch.setattr(covering, "_plateaux", asked)
        with pytest.raises(InternalError, match="must be divisible"):
            _prime_power_cover(f1(7), [2], COVER_VERTEX_LIMIT)


@pytest.fixture
def verify_calls(monkeypatch):
    """Maps really checked, in check order: a verdict kept on a map is not counted."""
    calls = []
    real = covering._check_admissible

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(covering, "_check_admissible", counting)
    return calls


@pytest.fixture
def suite_covers(monkeypatch):
    """Runs `run_suite("plateau-free-cover", 20, 1)` and returns (its covers,
    the graphs built by the trusted constructor, the generated graphs, the
    (kind, name) of every `_check_identifier` call), each in order."""
    covers, trusted, generated, identifiers = [], [], [], []

    def spy(log, real):
        def logging(*args, **kwargs):
            log.append(real(*args, **kwargs))
            return log[-1]
        return logging

    def checking(kind, name):
        identifiers.append((kind, name))
        real_check(kind, name)

    real_check = graph._check_identifier
    monkeypatch.setattr(suites, "plateau_free_cover", spy(covers, suites.plateau_free_cover))
    monkeypatch.setattr(suites, "generate_graph", spy(generated, suites.generate_graph))
    monkeypatch.setattr(LabelledGraph, "_trusted",
                        classmethod(spy(trusted, LabelledGraph._trusted.__func__)))
    monkeypatch.setattr(graph, "_check_identifier", checking)
    assert run_suite("plateau-free-cover", 20, 1).ok
    return covers, trusted, generated, identifiers


class TestTrustedBuilds:
    """The constructions build their graphs with the unchecked constructor, which
    gives the graph the checked one would; only generated inputs are checked."""

    def test_trusted_sources_equal_checked_builds(self, suite_covers):
        covers, trusted, _, _ = suite_covers
        built = [m.source for m in covers if m.source is not m.target]
        assert len(covers) == 20 and len(built) > 10
        assert [id(g) for g in trusted] == [id(g) for g in built]
        for g in built:
            checked = LabelledGraph(g.vertices, g.edges)
            assert g == checked and hash(g) == hash(checked)
            assert list(g.vertex_position.items()) == list(checked.vertex_position.items())
            assert list(g._edge_by_name.items()) == list(checked._edge_by_name.items())

    def test_no_cover_source_builds_the_dart_view(self, dart_constructions, suite_covers):
        covers, _, _, _ = suite_covers
        assert dart_constructions == []
        assert all("_index" in m.source.__dict__ for m in covers)

    def test_only_generated_inputs_are_checked(self, suite_covers):
        _, _, generated, identifiers = suite_covers
        assert len(generated) > 20
        assert identifiers == [(kind, name) for g in generated for kind, names in (
            ("vertex", g.vertices), ("edge", [rec.name for rec in g.edges])) for name in names]


class TestNoDartViews:
    """The package reads darts as integers of the dart index and builds a `Dart`
    only to name one in output, so no suite and no benchmark corpus constructs
    one: not the map readers (the check, `compose`, the characterizations and
    the audit), not the plateau-free rounds and not the witness search."""

    @pytest.mark.parametrize("name", ["covering-equivalence", "audit", "rank-monotonicity"])
    def test_map_suites_build_no_dart_view(self, dart_constructions, name):
        assert run_suite(name, 20, 1).ok
        assert dart_constructions == []

    def test_plateau_free_suite_constructs_no_dart(self, dart_constructions):
        assert run_suite("plateau-free-cover", 20, 1).ok
        assert dart_constructions == []

    @pytest.mark.parametrize("name", ["plateau-free-cover", "map-suites", "rank-query", "witness"])
    def test_benchmark_corpus_constructs_no_dart(self, dart_constructions, name):
        workload = perfbench_workloads().WORKLOADS[name]
        assert all(workload.op(item.payload).ok for item in workload.build())
        assert dart_constructions == []

    def test_the_spy_sees_a_build(self, dart_constructions):
        (entry,) = f3().modulus().entries  # the triangle's one loop names its darts
        assert dart_constructions == [tuple(dart) for dart in entry.loop]
        assert [dart.render() for dart in entry.loop] == ["e_3", "~e_2", "~e_1"]


class TestCoversBornAsTheirIndex:
    """A cover is born as its dart index and builds its edge records only when they
    are first read, so the plateau-free paths build no `EdgeRecord` for a cover:
    before covers were born so, `run_suite("plateau-free-cover", 20, 1)` built
    7,582 and one pass of the benchmark's corpus 39,366."""

    @pytest.fixture
    def records(self, monkeypatch):
        made, real = [], EdgeRecord.__new__

        def constructing(cls, *args, **kwargs):
            made.append(real(cls, *args, **kwargs))
            return made[-1]
        monkeypatch.setattr(EdgeRecord, "__new__", staticmethod(constructing))
        return made

    def test_plateau_free_suite_builds_records_for_its_inputs_only(self, records, monkeypatch):
        inputs, real = [], suites.generate_graph

        def generating(cfg):
            g = real(cfg)
            inputs.extend(g.edges)
            return g
        monkeypatch.setattr(suites, "generate_graph", generating)
        assert run_suite("plateau-free-cover", 20, 1).ok
        assert len(inputs) > 20 and list(map(id, records)) == list(map(id, inputs))

    def test_one_pass_of_the_benchmark_corpus_builds_none(self, records):
        from test_benchmark_api import perfbench_workloads
        workload = perfbench_workloads().WORKLOADS["plateau-free-cover"]
        items = workload.build()
        records.clear()
        sizes = [workload.op(item.payload).counts.get("cover_source_vertices")
                 for item in items]
        assert len(items) == 124 and sum(map(bool, sizes)) == 100
        assert records == []

    def test_the_spy_sees_the_records_read(self, records):
        cover = plateau_free_cover(THREE_PRIMES)
        assert records == []
        assert list(cover.source.edges) == records and len(records) > 10


class TestCheckCount:
    """Public constructions check their output and public analyses their
    input, and a map is checked at most once however often it is asked;
    private steps never check."""

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

    @pytest.mark.parametrize("check", [
        check_inequalities, classify, minimal_plateaux,
        lambda m: totally_unfolded(m, plateau_of(m.target, 2, "w"))],
        ids=["audit", "classify", "minimal_plateaux", "totally_unfolded"])
    def test_analysis_checks_its_map_once(self, verify_calls, check):
        m = f4_map()
        check(m)
        assert verify_calls == [m]

    def test_private_steps(self, verify_calls):
        step = _prime_power_cover(PATH_2_3, label_primes(PATH_2_3), COVER_VERTEX_LIMIT)
        restrict_to_component(step)
        assert verify_calls == []


class TestVerdict:
    """A map owns its tables, so its verdict is a fact of the map, kept on it."""

    def test_caller_dicts_do_not_leak_into_the_map(self, verify_calls):
        f4 = f4_map()
        tables = f4.vertex_map, f4.edge_map, f4.vertex_multiplicity, f4.edge_multiplicity
        vertex_map, edge_map, vertex_mult, edge_mult = (dict(table) for table in tables)
        m = AdmissibleMap(f4.source, f4.target, vertex_map, edge_map, vertex_mult, edge_mult)
        edge_mult["a"] = 2  # before the first check
        assert verify_admissible(m)
        vertex_map["x"], edge_map["a"], vertex_mult["y"] = "w", ("l", True), 3
        assert verify_admissible(m)
        assert (m.vertex_map, m.edge_map, m.vertex_multiplicity, m.edge_multiplicity) == tables
        with pytest.raises(TypeError):
            m.edge_multiplicity["a"] = 2
        assert verify_calls == [m]

    def test_a_map_is_checked_once(self, verify_calls):
        good = f4_map()
        bad = replace(good, edge_multiplicity={"a": 2, "b": 1, "m": 2})
        verdicts = [verify_admissible(m) for m in (good, bad, good, bad)]
        assert [bool(v) for v in verdicts] == [True, False, True, False]
        assert verdicts[1] is verdicts[3]
        assert verify_calls == [good, bad]

    def test_replace_and_equal_rebuilds_start_cold(self, verify_calls):
        m = f4_map()
        verify_admissible(m)
        copy = replace(m)
        rebuilt = f4_map()
        assert verify_admissible(copy) and verify_admissible(rebuilt)
        assert verify_calls == [m, copy, rebuilt]

    @pytest.mark.parametrize(("name", "count", "checks"),
                             [("plateau-free-cover", 20, 20), ("rank-monotonicity", 60, 131)])
    def test_suite_checks_each_map_once(self, verify_calls, name, count, checks):
        assert run_suite(name, count, 1).ok
        assert len(verify_calls) == len(set(map(id, verify_calls))) == checks


@pytest.fixture
def accessor_calls_in_check(monkeypatch):
    """Calls of the per-dart accessors made from inside `_check_admissible`,
    by name, and the number of real checks; calls from elsewhere are not counted."""
    inside = [False]
    calls = dict.fromkeys(["checks", "edge", "vertex_preimages"], 0)
    real_check = covering._check_admissible

    def flagged(m):
        calls["checks"] += 1
        inside[0] = True
        try:
            return real_check(m)
        finally:
            inside[0] = False

    def spy(name, real):
        def counting(*args):
            calls[name] += inside[0]
            return real(*args)
        return counting

    monkeypatch.setattr(covering, "_check_admissible", flagged)
    monkeypatch.setattr(LabelledGraph, "edge", spy("edge", LabelledGraph.edge))
    preimages = AdmissibleMap.vertex_preimages.func  # a cached_property
    monkeypatch.setattr(AdmissibleMap, "vertex_preimages",
                        property(spy("vertex_preimages", preimages)))
    return calls


class TestCheckReadsTables:
    """The check reads each fact from the edge records and the dart tables:
    it asks no accessor per dart and builds no preimage table."""

    @pytest.mark.parametrize(("name", "count", "checks"),
                             [("plateau-free-cover", 20, 20), ("rank-monotonicity", 60, 131)])
    def test_no_accessor_calls_inside_the_check(self, accessor_calls_in_check,
                                                name, count, checks):
        assert run_suite(name, count, 1).ok
        assert accessor_calls_in_check == {"checks": checks, "edge": 0, "vertex_preimages": 0}
