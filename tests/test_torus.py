import inspect
import math
import random

import pytest

import dart_views as views
from gbs import (AdmissibleMap, Dart, GeneratorConfig, GraphAutomorphism, InputError,
                 LabelledGraph, generate_graph, mapping_torus_graph, mapping_torus_rank,
                 parse_automorphism, subdivide_inverted_edges, verify_admissible,
                 verify_automorphism, voltage_cover)
from gbs import torus
from gbs.cli import main
from gbs.torus import _inverted_edges


def theta_symmetry():
    """Order-6 symmetry of the theta graph (2 vertices, 3 parallel edges)."""
    theta = LabelledGraph.build(
        ["P", "Q"],
        [("a", "P", "Q", 1, 1), ("b", "P", "Q", 1, 1), ("c", "P", "Q", 1, 1)])
    return GraphAutomorphism(theta, {"P": "Q", "Q": "P"},
                             {"a": ("b", False), "b": ("c", False),
                              "c": ("a", False)})


def rose(r):
    return LabelledGraph.build(
        ["v"], [(f"l{i}", "v", "v", 1, 1) for i in range(1, r + 1)])


def identity_automorphism(g):
    return GraphAutomorphism(g, {v: v for v in g.vertices},
                             {rec.name: (rec.name, True) for rec in g.edges})


def two_cycle_rotation():
    g = LabelledGraph.build(["u", "w"],
                            [("e1", "u", "w", 1, 1), ("e2", "w", "u", 1, 1)])
    return GraphAutomorphism(g, {"u": "w", "w": "u"},
                             {"e1": ("e2", True), "e2": ("e1", True)})


def edge_flip():
    g = LabelledGraph.build(["u", "w"], [("e", "u", "w", 1, 1)])
    return GraphAutomorphism(g, {"u": "w", "w": "u"}, {"e": ("e", False)})


def deck_transformations(count: int) -> list[tuple[LabelledGraph, int, GraphAutomorphism]]:
    """(base, n, sheet shift) for connected cyclic voltage covers of generated graphs.

    Edge e carries the voltage sigma_e(i) = i + c_e mod n, so the shift of
    every sheet by one commutes with the covering: an automorphism of order
    n that acts freely and inverts no edge.
    """
    rng = random.Random(3)
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        base = generate_graph(GeneratorConfig(seed, max_vertices=4, max_edges=6))
        if base.betti() == 0:  # every cyclic cover of a tree is disconnected
            continue
        n = rng.randrange(2, 5)
        cover = None
        while cover is None or not cover.is_connected():
            shifts = {rec.name: rng.randrange(n) for rec in base.edges}
            cover = voltage_cover(base, n, {e: [(i + c) % n for i in range(n)]
                                            for e, c in shifts.items()}).source
        sheets = range(1, n + 1)
        shift = GraphAutomorphism(
            cover, {f"{v}.{i}": f"{v}.{i % n + 1}" for v in base.vertices for i in sheets},
            {f"{rec.name}.{i}": (f"{rec.name}.{i % n + 1}", True)
             for rec in base.edges for i in sheets})
        out.append((base, n, shift))
    return out


def flip_with_loops():
    """The edge flip with a loop at each end: one inverted edge, two swapped loops."""
    g = LabelledGraph.build(["u", "w"], [("lu", "u", "u", 1, 1), ("e", "u", "w", 1, 1),
                                         ("lw", "w", "w", 1, 1)])
    return GraphAutomorphism(g, {"u": "w", "w": "u"},
                             {"lu": ("lw", True), "e": ("e", False), "lw": ("lu", True)})


FIXTURES = {"theta": theta_symmetry, "two-cycle": two_cycle_rotation, "edge-flip": edge_flip,
            "identity-rose": lambda: identity_automorphism(rose(2)),
            "flip-with-loops": flip_with_loops}
DECKS = deck_transformations(30)


SWAP = {"e1": ("e2", True), "e2": ("e1", True)}
# (vertex map, edge map, message) refused on the graph of `two_cycle_rotation`
COVERAGE_CASES = [
    ({"u": "w"}, SWAP, "vertex map must cover exactly the vertices"),
    ({"u": "w", "w": "w"}, SWAP, "vertex map must be a bijection"),
    ({"u": "w", "w": "u"}, {"e1": ("e2", True)}, "edge map must cover exactly the edges"),
]


class TestVerifyAutomorphism:
    def test_orders(self):
        assert verify_automorphism(theta_symmetry()) == 6
        assert verify_automorphism(identity_automorphism(rose(3))) == 1
        assert verify_automorphism(two_cycle_rotation()) == 2

    def test_incidence_violation(self):
        g = LabelledGraph.build(["u", "w"],
                                [("e1", "u", "w", 1, 1), ("e2", "u", "w", 1, 1)])
        bad = GraphAutomorphism(g, {"u": "w", "w": "u"},
                                {"e1": ("e2", True), "e2": ("e1", True)})
        with pytest.raises(InputError):
            verify_automorphism(bad)

    def test_non_bijection(self):
        g = rose(2)
        bad = GraphAutomorphism(g, {"v": "v"},
                                {"l1": ("l1", True), "l2": ("l1", True)})
        with pytest.raises(InputError):
            verify_automorphism(bad)

    @pytest.mark.parametrize("vertex_map, edge_map, message", COVERAGE_CASES)
    def test_coverage_and_bijection_rejections(self, vertex_map, edge_map, message):
        bad = GraphAutomorphism(two_cycle_rotation().graph, vertex_map, edge_map)
        with pytest.raises(InputError, match=f"^{message}$"):
            verify_automorphism(bad)

    @pytest.mark.parametrize("value, message", [
        (("e", "no"), "orientation flag 'no' must be a bool"),
        (("e", 1), "orientation flag 1 must be a bool"),
        (("e", None), "orientation flag None must be a bool"),
        ("e", "edge map value 'e' must be an (image edge, orientation flag) pair"),
        (("e",), "edge map value ('e',) must be an (image edge, orientation flag) pair"),
        (("e", True, True),
         "edge map value ('e', True, True) must be an (image edge, orientation flag) pair"),
        (None, "edge map value None must be an (image edge, orientation flag) pair")],
        ids=["string-flag", "int-flag", "none-flag", "bare-name", "one", "three", "none"])
    def test_edge_map_values_are_name_and_bool_pairs(self, value, message):
        """Refused in the words of an admissible map's structural pass: a truthy flag
        that is not a bool once verified as order 1, and a value that is not a pair
        escaped as a ValueError or TypeError."""
        g = LabelledGraph.build(["u", "w"], [("e", "u", "w", 1, 1)])
        bad = GraphAutomorphism(g, {"u": "u", "w": "w"}, {"e": value})
        with pytest.raises(InputError) as refused:
            verify_automorphism(bad)
        assert str(refused.value) == message

    @pytest.mark.parametrize("public", [
        f for name, f in vars(torus).items()
        if inspect.isfunction(f) and f.__module__ == torus.__name__ and name[0] != "_"],
        ids=lambda f: f.__name__)
    def test_every_public_function_refuses_a_non_bijection(self, public):
        # the orbit of e never comes back to e, so an unverified orbit walk never ends
        g = LabelledGraph.build(["u", "v"], [("e", "u", "v", 1, 1), ("f", "u", "v", 1, 1)])
        bad = GraphAutomorphism(g, {"u": "u", "v": "v"}, {"e": ("f", True), "f": ("f", True)})
        with pytest.raises(InputError, match="^edge map must be a bijection$"):
            public(bad)


def reverses_some_dart(a) -> bool:
    """Reference predicate: some power of `a` maps some dart to its reverse."""
    order = verify_automorphism(a)
    for dart in views.darts(a.graph):
        image = dart
        for _ in range(order):
            image = views.dart_image(a, image)
            if image == dart.reverse():
                return True
    return False


class TestSubdivision:
    @pytest.mark.parametrize(("make", "inverted"), [
        (theta_symmetry, True), (two_cycle_rotation, False), (edge_flip, True),
        (lambda: identity_automorphism(rose(2)), False), (flip_with_loops, True)],
        ids=["theta", "two-cycle", "edge-flip", "identity-rose", "flip-with-loops"])
    def test_inverted_edges_matches_reference(self, make, inverted):
        aut = make()
        assert reverses_some_dart(aut) == inverted
        for a in (aut, subdivide_inverted_edges(aut)):
            assert bool(_inverted_edges(a)) == reverses_some_dart(a)

    def test_theta_orbit_structure(self):
        subdivided = subdivide_inverted_edges(theta_symmetry())
        g = subdivided.graph
        assert len(g.vertices) == 5 and len(g.edges) == 6
        assert not _inverted_edges(subdivided)
        assert verify_automorphism(subdivided) == 6
        # one edge orbit of size 6, vertex orbits of sizes 2 and 3
        dart = views.darts(g)[0]
        orbit = {dart.edge}
        image = views.dart_image(subdivided, dart)
        while image != dart:
            orbit.add(image.edge)
            image = views.dart_image(subdivided, image)
        assert len(orbit) == 6
        vertex_orbits = {}
        for v in g.vertices:
            rep = v
            image = subdivided.vertex_map[v]
            while image != v:
                rep = min(rep, image)
                image = subdivided.vertex_map[image]
            vertex_orbits.setdefault(rep, set()).add(v)
        assert sorted(len(orbit) for orbit in vertex_orbits.values()) == [2, 3]

    def test_identity_untouched(self):
        aut = identity_automorphism(rose(2))
        assert subdivide_inverted_edges(aut) is aut

    def test_single_flipped_edge(self):
        subdivided = subdivide_inverted_edges(edge_flip())
        g = subdivided.graph
        assert len(g.vertices) == 3 and len(g.edges) == 2
        names = {rec.name for rec in g.edges}
        assert {subdivided.edge_map[name][0] for name in names} == names
        assert not _inverted_edges(subdivided)

    # the loop e is inverted, and a vertex or an edge already bears the name
    # that its midpoint or its half at the origin would take by default
    TAKEN = {
        "vertex": ("vertex a\nvertex e__mid\nedge e a a\nedge f a e__mid\n"
                   "fv a a\nfv e__mid e__mid\nfe e ~e\nfe f f\n"),
        "edge": ("vertex a\nvertex w\nedge e a a\nedge e__a a w\n"
                 "fv a a\nfv w w\nfe e ~e\nfe e__a e__a\n"),
    }

    @pytest.mark.parametrize("taken", TAKEN)
    def test_new_names_are_fresh(self, taken, tmp_path, capsys):
        subdivided = subdivide_inverted_edges(parse_automorphism(self.TAKEN[taken]))
        assert "e___mid" in subdivided.graph.vertices
        assert [rec.name for rec in subdivided.graph.edges][:2] == ["e___a", "e___b"]
        assert verify_automorphism(unseeded(subdivided)) == 2
        path = tmp_path / "taken.aut"
        path.write_text(self.TAKEN[taken])
        assert main(["mapping-torus", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("order=2\n") and out.endswith("\nrank=2\n")
        # the input with the taken name renamed answers the same
        path.write_text(self.TAKEN[taken].replace("e__mid", "w").replace("e__a", "f"))
        assert main(["mapping-torus", str(path)]) == 0
        renamed = capsys.readouterr().out
        assert renamed.startswith("order=2\n") and renamed.endswith("\nrank=2\n")


class TestMappingTorus:
    def test_theta_presentation(self):
        quotient = mapping_torus_graph(subdivide_inverted_edges(theta_symmetry()))
        assert len(quotient.vertices) == 2 and len(quotient.edges) == 1
        rec = quotient.edges[0]
        assert sorted((rec.label_origin, rec.label_terminus)) == [2, 3]
        # the label 2 sits at the midpoint-orbit vertex (period 3)
        mid_side = rec.origin if "_" in rec.origin else rec.terminus
        label_at_mid = rec.label_origin if rec.origin == mid_side else rec.label_terminus
        assert label_at_mid == 2
        assert quotient.has_nontrivial_center()
        assert mapping_torus_rank(theta_symmetry()) == 2

    def test_identity_on_rose(self):
        for r in (1, 2, 3):
            quotient = mapping_torus_graph(identity_automorphism(rose(r)))
            assert quotient.betti() == r
            assert all(rec.label_origin == rec.label_terminus == 1
                       for rec in quotient.edges)
            assert mapping_torus_rank(identity_automorphism(rose(r))) == r + 1

    def test_rotation_of_two_cycle(self):
        quotient = mapping_torus_graph(two_cycle_rotation())
        assert len(quotient.vertices) == 1 and len(quotient.edges) == 1
        rec = quotient.edges[0]
        assert (rec.label_origin, rec.label_terminus) == (1, 1)
        assert mapping_torus_rank(two_cycle_rotation()) == 2

    def test_edge_flip_gives_cyclic_torus(self):
        assert mapping_torus_rank(edge_flip()) == 1

    def test_inversion_must_be_subdivided_first(self):
        with pytest.raises(InputError):
            mapping_torus_graph(edge_flip())

    def test_inverse_automorphism_same_quotient(self):
        aut = subdivide_inverted_edges(theta_symmetry())
        inverse_vertices = {image: v for v, image in aut.vertex_map.items()}
        inverse_edges = {}
        for name, (image, same) in aut.edge_map.items():
            inverse_edges[image] = (name, same)
        inverse = GraphAutomorphism(aut.graph, inverse_vertices, inverse_edges)
        assert mapping_torus_graph(aut) == mapping_torus_graph(inverse)

    def test_quotients_always_centered(self):
        for aut in (identity_automorphism(rose(2)), two_cycle_rotation(),
                    subdivide_inverted_edges(theta_symmetry())):
            quotient = mapping_torus_graph(aut)
            assert quotient.has_nontrivial_center()
            assert all(rec.label_origin > 0 and rec.label_terminus > 0
                       for rec in quotient.edges)


def unseeded(a: GraphAutomorphism) -> GraphAutomorphism:
    """A copy of a that keeps no verified order."""
    return GraphAutomorphism(a.graph, a.vertex_map, a.edge_map)


class TestTrustedSteps:
    """A subdivision is born with its parent's verified order, so the public
    torus steps do not check it again; each one is checked here instead, on a
    copy that keeps no order."""

    @pytest.mark.parametrize("aut", [make() for make in FIXTURES.values()]
                             + [shift for _, _, shift in DECKS],
                             ids=[*FIXTURES, *(f"deck-{i}" for i in range(len(DECKS)))])
    def test_subdivision_is_an_automorphism_inverting_no_edge(self, aut):
        order = verify_automorphism(aut)
        subdivided = unseeded(subdivide_inverted_edges(aut))
        assert verify_automorphism(subdivided) == order
        assert not _inverted_edges(subdivided)
        assert not reverses_some_dart(subdivided)


class TestDeckTransformations:
    """Mapping tori of deck transformations: an independent oracle.

    The shift acts freely, so its orbit quotient is the base graph with
    every label 1, and the mapping torus has rank beta(base) + 1.
    """

    @pytest.mark.parametrize("base, n, shift", DECKS, ids=[f"deck-{i}" for i in range(len(DECKS))])
    def test_rank_is_base_betti_plus_one(self, base, n, shift):
        assert verify_automorphism(shift) == n
        assert not _inverted_edges(shift)
        quotient = mapping_torus_graph(shift)
        assert (len(quotient.vertices), len(quotient.edges)) == (len(base.vertices), len(base.edges))
        assert all(rec.label_origin == rec.label_terminus == 1 for rec in quotient.edges)
        assert mapping_torus_rank(shift) == base.betti() + 1


def power(a: GraphAutomorphism, k: int) -> GraphAutomorphism:
    """a applied k times."""
    vertex_map, edge_map = {}, {}
    for v in a.graph.vertices:
        w = v
        for _ in range(k):
            w = a.vertex_map[w]
        vertex_map[v] = w
    for rec in a.graph.edges:
        dart = Dart(rec.name, True)
        for _ in range(k):
            dart = views.dart_image(a, dart)
        edge_map[rec.name] = (dart.edge, dart.forward)
    return GraphAutomorphism(a.graph, vertex_map, edge_map)


def orbit_of(start, step) -> list:
    orbit = [start]
    while (item := step(orbit[-1])) != start:
        orbit.append(item)
    return orbit


def quotient_darts(a: GraphAutomorphism) -> dict[Dart, tuple[str, bool]]:
    """Each dart of a.graph -> (its edge in the orbit quotient, same orientation).

    As `mapping_torus_graph` documents, the quotient edge of an orbit is named
    by its smallest member and oriented along the orbit of the first declared
    member's forward dart.
    """
    out: dict[Dart, tuple[str, bool]] = {}
    for rec in a.graph.edges:
        if Dart(rec.name, True) not in out:
            orbit = orbit_of(Dart(rec.name, True), lambda d: views.dart_image(a, d))
            name = min(dart.edge for dart in orbit)
            for dart in orbit:
                out[dart], out[dart.reverse()] = (name, True), (name, False)
    return out


class TestPowers:
    """M(a^k) is the index-k subgroup <F_n, t^k> of M(a): an independent oracle.

    Its rank is at least that of M(a), by the finite-index theorem, and
    quotient(a^k) -> quotient(a), sending each a^k-orbit to its a-orbit, is
    admissible: a vertex of a-period q has multiplicity k / gcd(q, k), an edge
    of a-period r has k / gcd(r, k), and the total multiplicity is k.
    """

    @pytest.mark.parametrize("make", [theta_symmetry, two_cycle_rotation, edge_flip,
                                      lambda: identity_automorphism(rose(3))],
                             ids=["theta", "two-cycle", "edge-flip", "identity-rose3"])
    def test_power_maps_are_admissible(self, make):
        a = subdivide_inverted_edges(make())
        order = verify_automorphism(a)
        g = a.graph
        quotient, darts = mapping_torus_graph(a), quotient_darts(a)
        vertex_orbit = {v: orbit_of(v, a.vertex_map.__getitem__) for v in g.vertices}
        base_rank = mapping_torus_rank(a)
        for k in range(1, 2 * order + 2):
            a_k = power(a, k)
            assert mapping_torus_rank(a_k) >= base_rank
            source, source_darts = mapping_torus_graph(a_k), quotient_darts(a_k)
            edge_map, edge_multiplicity = {}, {}
            for rec in source.edges:
                forward = Dart(rec.name, True)
                image, same = darts[forward]
                edge_map[rec.name] = (image, same == source_darts[forward][1])
                period = len(orbit_of(forward, lambda d: views.dart_image(a, d)))
                edge_multiplicity[rec.name] = k // math.gcd(period, k)
            m = AdmissibleMap(source, quotient, {v: min(vertex_orbit[v]) for v in source.vertices},
                              edge_map,
                              {v: k // math.gcd(len(vertex_orbit[v]), k) for v in source.vertices},
                              edge_multiplicity)
            outcome = verify_admissible(m)
            assert outcome, (k, outcome.render())
            assert m.total_multiplicity() == k
