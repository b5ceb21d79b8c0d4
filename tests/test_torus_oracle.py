"""The torus steps against the name-level bodies they had before an automorphism
was read as a permutation of the dart index.

The references below walk `Dart` handles through the name maps
(`dart_views.dart_image`, `origin` and `darts`); the package walks the integer
orbits of the automorphism's tables.  The two must agree on the order, the
inverted edges, the text of the subdivision, the text of the orbit quotient,
the rank and every error message: on the torus fixtures, on the bad
automorphisms of `TestVerifyAutomorphism`, on the rotations and reflections of
small cycles, and on 200 deck transformations of generated covers, with their
powers, their edge-flipped variants, variants declared in reverse order and
variants with two vertex images swapped.
A subdivision is born with its parent's order, so it is checked again on a
copy that keeps none.
"""

import math
import random

import pytest

import dart_views as views
from gbs import (Dart, EdgeRecord, GraphAutomorphism, InputError, InternalError, LabelledGraph,
                 emit_automorphism, emit_graph, mapping_torus_graph, mapping_torus_rank, rank,
                 subdivide_inverted_edges, verify_automorphism)
from gbs.torus import _inverted_edges
from test_torus import (COVERAGE_CASES, FIXTURES, deck_transformations, power,
                        two_cycle_rotation, unseeded)


def reference_verify(a: GraphAutomorphism) -> int:
    g = a.graph
    if set(a.vertex_map) != set(g.vertices):
        raise InputError("vertex map must cover exactly the vertices")
    if set(a.vertex_map.values()) != set(g.vertices):
        raise InputError("vertex map must be a bijection")
    names = {rec.name for rec in g.edges}
    if set(a.edge_map) != names:
        raise InputError("edge map must cover exactly the edges")
    if {image for image, _ in a.edge_map.values()} != names:
        raise InputError("edge map must be a bijection")
    problems = []
    for rec in g.edges:
        for dart in (Dart(rec.name, True), Dart(rec.name, False)):
            expected = a.vertex_map[views.origin(g, dart)]
            actual = views.origin(g, views.dart_image(a, dart))
            if expected != actual:
                problems.append(f"edge {rec.name!r}: image origin {actual!r} "
                                f"differs from mapped origin {expected!r}")
    if problems:
        raise InputError("; ".join(problems))

    return math.lcm(*map(len, reference_orbits(g.vertices, a.vertex_map.__getitem__)),
                    *map(len, reference_orbits(views.darts(g),
                                               lambda d: views.dart_image(a, d))))


def reference_orbit(start, step) -> list:
    orbit = [start]
    item = step(start)
    while item != start:
        orbit.append(item)
        item = step(item)
    return orbit


def reference_orbits(items, step):
    seen = set()
    for start in items:
        if start not in seen:
            orbit = reference_orbit(start, step)
            seen.update(orbit)
            yield orbit


def reference_inverted_edges(a: GraphAutomorphism) -> frozenset[str]:
    out = set()
    for orbit in reference_orbits((Dart(rec.name, True) for rec in a.graph.edges),
                                  lambda d: views.dart_image(a, d)):
        if not set(orbit).isdisjoint(d.reverse() for d in orbit):
            out.update(d.edge for d in orbit)
    return frozenset(out)


def reference_subdivide(a: GraphAutomorphism) -> GraphAutomorphism:
    g = a.graph
    split = reference_inverted_edges(a)
    if not split:
        return a

    vertices = list(g.vertices)
    records: list[EdgeRecord] = []
    for rec in g.edges:
        if rec.name in split:
            mid = f"{rec.name}__mid"
            vertices.append(mid)
            records.append(EdgeRecord(f"{rec.name}__a", rec.origin, mid,
                                      rec.label_origin, 1))
            records.append(EdgeRecord(f"{rec.name}__b", mid, rec.terminus,
                                      1, rec.label_terminus))
        else:
            records.append(rec)

    vmap = dict(a.vertex_map)
    emap: dict[str, tuple[str, bool]] = {}
    for rec in g.edges:
        if rec.name in split:
            image, same = a.edge_map[rec.name]
            vmap[f"{rec.name}__mid"] = f"{image}__mid"
            first, second = ("__a", "__b") if same else ("__b", "__a")
            emap[f"{rec.name}__a"] = (image + first, same)
            emap[f"{rec.name}__b"] = (image + second, same)
        else:
            emap[rec.name] = a.edge_map[rec.name]

    return GraphAutomorphism(LabelledGraph(tuple(vertices), tuple(records)), vmap, emap)


def reference_quotient(a: GraphAutomorphism) -> LabelledGraph:
    g = a.graph

    vertex_orbit: dict[str, str] = {}
    vertex_period: dict[str, int] = {}
    for orbit in reference_orbits(g.vertices, a.vertex_map.__getitem__):
        rep = min(orbit)
        for v in orbit:
            vertex_orbit[v] = rep
            vertex_period[v] = len(orbit)

    records: list[EdgeRecord] = []
    seen_edges: set[str] = set()
    for rec in g.edges:
        if rec.name in seen_edges:
            continue
        orbit = reference_orbit(Dart(rec.name, True), lambda d: views.dart_image(a, d))
        member_edges = {d.edge for d in orbit}
        if len(member_edges) != len(orbit):
            raise InternalError("an edge repeats inside its own dart orbit")
        seen_edges |= member_edges
        rep_dart = min(orbit, key=lambda d: (d.edge, not d.forward))
        period = len(orbit)
        origin = views.origin(g, rep_dart)
        terminus = views.terminus(g, rep_dart)
        for end in (origin, terminus):
            if period % vertex_period[end] != 0:
                raise InternalError("vertex orbit period must divide the edge period")
        records.append(EdgeRecord(rep_dart.edge,
                                  vertex_orbit[origin], vertex_orbit[terminus],
                                  period // vertex_period[origin],
                                  period // vertex_period[terminus]))

    reps = tuple(v for v in g.vertices if vertex_orbit[v] == v)
    quotient = LabelledGraph(reps, tuple(records))
    if not quotient.has_nontrivial_center():
        raise InternalError("mapping torus quotient must have trivial modulus")
    return quotient


def reference_mapping_torus_graph(a: GraphAutomorphism) -> LabelledGraph:
    reference_verify(a)
    if reference_inverted_edges(a):
        raise InputError("some power reverses an edge; apply "
                         "subdivide_inverted_edges first")
    return reference_quotient(a)


def outcome(f, *args):
    """f(*args), or the type and message of the `InputError` it raises."""
    try:
        return f(*args)
    except InputError as error:
        return "InputError", str(error)


# -- inputs ------------------------------------------------------------------


def cycle(n: int, step: int, reflect: bool) -> GraphAutomorphism:
    """v_i -> v_(step + i), or v_(step - i) when `reflect`, on the n-cycle
    whose edge e_i runs from v_i to v_(i + 1)."""
    g = LabelledGraph.build([f"v{i}" for i in range(n)],
                            [(f"e{i}", f"v{i}", f"v{(i + 1) % n}", 1, 1) for i in range(n)])
    if reflect:  # e_i runs backwards along e_(step - i - 1)
        return GraphAutomorphism(g, {f"v{i}": f"v{(step - i) % n}" for i in range(n)},
                                 {f"e{i}": (f"e{(step - i - 1) % n}", False) for i in range(n)})
    return GraphAutomorphism(g, {f"v{i}": f"v{(step + i) % n}" for i in range(n)},
                             {f"e{i}": (f"e{(step + i) % n}", True) for i in range(n)})


def edge_flipped(a: GraphAutomorphism, flipped: set[str]) -> GraphAutomorphism:
    """a on its graph with the edges in `flipped` reversed: the same automorphism."""
    g = a.graph
    records = tuple(EdgeRecord(rec.name, rec.terminus, rec.origin, rec.label_terminus,
                               rec.label_origin) if rec.name in flipped else rec
                    for rec in g.edges)
    return GraphAutomorphism(LabelledGraph(g.vertices, records), a.vertex_map, {
        e: (image, same ^ (e in flipped) ^ (image in flipped))
        for e, (image, same) in a.edge_map.items()})


def reversed_declarations(a: GraphAutomorphism) -> GraphAutomorphism:
    """a on its graph with the vertices and the edges declared in reverse order."""
    g = a.graph
    return GraphAutomorphism(LabelledGraph(g.vertices[::-1], g.edges[::-1]),
                             a.vertex_map, a.edge_map)


def vertices_swapped(a: GraphAutomorphism, u: str, w: str) -> GraphAutomorphism:
    """a with the images of u and w exchanged: a bijection that may break incidence."""
    vertex_map = dict(a.vertex_map)
    vertex_map[u], vertex_map[w] = vertex_map[w], vertex_map[u]
    return GraphAutomorphism(a.graph, vertex_map, a.edge_map)


def bad_automorphisms() -> dict[str, GraphAutomorphism]:
    """The refusals of `TestVerifyAutomorphism`: incidence, non-bijections and coverage."""
    parallel = LabelledGraph.build(["u", "w"], [("e1", "u", "w", 1, 1), ("e2", "u", "w", 1, 1)])
    rose = LabelledGraph.build(["v"], [("l1", "v", "v", 1, 1), ("l2", "v", "v", 1, 1)])
    forked = LabelledGraph.build(["u", "v"], [("e", "u", "v", 1, 1), ("f", "u", "v", 1, 1)])
    bad = {
        "incidence": GraphAutomorphism(parallel, {"u": "w", "w": "u"},
                                       {"e1": ("e2", True), "e2": ("e1", True)}),
        "non-bijection": GraphAutomorphism(rose, {"v": "v"},
                                           {"l1": ("l1", True), "l2": ("l1", True)}),
        "edge-non-bijection": GraphAutomorphism(forked, {"u": "u", "v": "v"},
                                                {"e": ("f", True), "f": ("f", True)}),
    }
    for i, (vertex_map, edge_map, _) in enumerate(COVERAGE_CASES):
        bad[f"coverage-{i}"] = GraphAutomorphism(two_cycle_rotation().graph, vertex_map, edge_map)
    return bad


def generated() -> dict[str, GraphAutomorphism]:
    rng = random.Random(5)
    out = {name: make() for name, make in FIXTURES.items()}
    out.update(bad_automorphisms())
    for n in range(1, 7):
        for step in range(n):
            out[f"rotation-{n}-{step}"] = cycle(n, step, reflect=False)
            out[f"reflection-{n}-{step}"] = cycle(n, step, reflect=True)
    for i, (_, n, shift) in enumerate(deck_transformations(200)):
        out[f"deck-{i}"] = shift
        for k in range(2, n + 1):
            out[f"deck-{i}^{k}"] = power(shift, k)
        names = [rec.name for rec in shift.graph.edges]
        out[f"deck-{i}-flipped"] = edge_flipped(shift, set(rng.sample(names, len(names) // 2)))
        out[f"deck-{i}-reversed"] = reversed_declarations(shift)
        u, w = rng.sample(shift.graph.vertices, 2)
        out[f"deck-{i}-swapped"] = vertices_swapped(shift, u, w)
    for name in list(out):
        if name.startswith("reflection"):
            a = out[name]
            names = [rec.name for rec in a.graph.edges]
            out[f"{name}-flipped"] = edge_flipped(a, set(rng.sample(names, (len(names) + 1) // 2)))
            out[f"{name}-reversed"] = reversed_declarations(a)
    return out


CASES = generated()


def test_the_inputs_reach_every_branch():
    orders = {name: outcome(reference_verify, a) for name, a in CASES.items()}
    refused = [name for name, order in orders.items() if isinstance(order, tuple)]
    inverted = [name for name, a in CASES.items()
                if name not in refused and reference_inverted_edges(a)]
    assert len(CASES) - len(refused) > 600 and len(inverted) > 20
    assert sum(name.endswith("-swapped") for name in refused) > 100
    assert {order[1] for order in orders.values() if isinstance(order, tuple)} >= {
        "vertex map must cover exactly the vertices", "vertex map must be a bijection",
        "edge map must cover exactly the edges", "edge map must be a bijection"}


@pytest.mark.parametrize("name", CASES)
def test_agrees_with_the_name_level_steps(name):
    a = CASES[name]
    fresh = unseeded(a)
    order = outcome(verify_automorphism, fresh)
    assert order == outcome(reference_verify, a)
    if not isinstance(order, int):  # refused: every public step refuses with the message
        for public in (subdivide_inverted_edges, mapping_torus_graph, mapping_torus_rank):
            assert outcome(public, unseeded(a)) == order
        return
    inverted = reference_inverted_edges(a)
    assert {fresh.graph.edges[i].name for i in _inverted_edges(fresh)} == inverted
    subdivided, reference = subdivide_inverted_edges(fresh), reference_subdivide(a)
    assert emit_automorphism(subdivided) == emit_automorphism(reference)
    assert verify_automorphism(subdivided) == order
    checked = unseeded(subdivided)
    assert verify_automorphism(checked) == reference_verify(reference) == order
    assert not _inverted_edges(checked) and not reference_inverted_edges(reference)
    quotient = reference_quotient(reference)
    assert emit_graph(mapping_torus_graph(subdivided)) == emit_graph(quotient)
    assert emit_graph(mapping_torus_graph(checked)) == emit_graph(quotient)
    assert mapping_torus_rank(unseeded(a)) == rank(quotient)
    if inverted:
        assert outcome(mapping_torus_graph, unseeded(a)) == outcome(
            reference_mapping_torus_graph, a)
    else:
        assert emit_graph(mapping_torus_graph(unseeded(a))) == emit_graph(quotient)
