"""Mapping tori of finite-order graph automorphisms.

A finite-order automorphism of a finite connected graph determines a
semidirect product of the graph's free fundamental group with the
integers.  That group is presented by the orbit quotient: one vertex per
vertex orbit, one edge per edge orbit, labelled by the ratios of orbit
periods.  Edges whose orbit meets its own reversal are first subdivided at
midpoints so the quotient is a genuine graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import InputError, InternalError
from .graph import Dart, EdgeRecord, LabelledGraph
from .plateau import rank


@dataclass(frozen=True, eq=False)
class GraphAutomorphism:
    """A graph with compatible vertex and (oriented) edge permutations."""

    graph: LabelledGraph  # labels are ignored by the torus construction
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]  # edge -> (image, same orientation)

    def dart_image(self, dart: Dart) -> Dart:
        image, same = self.edge_map[dart.edge]
        return Dart(image, dart.forward == same)


def verify_automorphism(a: GraphAutomorphism) -> int:
    """Check bijectivity and incidence; returns the exact order."""
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
            expected = a.vertex_map[g.origin(dart)]
            actual = g.origin(a.dart_image(dart))
            if expected != actual:
                problems.append(f"edge {rec.name!r}: image origin {actual!r} "
                                f"differs from mapped origin {expected!r}")
    if problems:
        raise InputError("; ".join(problems))

    order = 1
    for v in g.vertices:
        order = math.lcm(order, len(_orbit(v, a.vertex_map.__getitem__)))
    for dart in g.darts():
        order = math.lcm(order, len(_orbit(dart, a.dart_image)))
    return order


def _orbit(start, step) -> list:
    """start, step(start), step(step(start)), ... up to the return to start."""
    orbit = [start]
    item = step(start)
    while item != start:
        orbit.append(item)
        item = step(item)
    return orbit


def inverted_edges(a: GraphAutomorphism) -> frozenset[str]:
    """Edges whose dart orbit contains the reversed dart of some member."""
    out = set()
    for rec in a.graph.edges:
        orbit = _orbit(Dart(rec.name, True), a.dart_image)
        if any(d.reverse() in orbit for d in orbit):
            out.update(d.edge for d in orbit)
    return frozenset(out)


def subdivide_inverted_edges(a: GraphAutomorphism) -> GraphAutomorphism:
    """Add a midpoint to every edge of an orientation-reversing orbit.

    Afterwards no power of the automorphism maps an oriented edge to its
    own reverse, which the orbit quotient requires.
    """
    verify_automorphism(a)
    g = a.graph
    split = inverted_edges(a)
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

    def first_half(dart: Dart) -> Dart:
        # first new dart crossed when traversing `dart` from its origin
        return Dart(f"{dart.edge}__a", True) if dart.forward \
            else Dart(f"{dart.edge}__b", False)

    def second_half(dart: Dart) -> Dart:
        return Dart(f"{dart.edge}__b", True) if dart.forward \
            else Dart(f"{dart.edge}__a", False)

    vmap = dict(a.vertex_map)
    emap: dict[str, tuple[str, bool]] = {}
    for rec in g.edges:
        image_dart = a.dart_image(Dart(rec.name, True))
        if rec.name in split:
            vmap[f"{rec.name}__mid"] = f"{image_dart.edge}__mid"
            a_image = first_half(image_dart)
            b_image = second_half(image_dart)
            emap[f"{rec.name}__a"] = (a_image.edge, a_image.forward)
            emap[f"{rec.name}__b"] = (b_image.edge, b_image.forward)
        else:
            emap[rec.name] = a.edge_map[rec.name]

    result = GraphAutomorphism(LabelledGraph(tuple(vertices), tuple(records)),
                               vmap, emap)
    order = verify_automorphism(result)
    for dart in result.graph.darts():
        image = dart
        for _ in range(order):
            image = result.dart_image(image)
            if image == dart.reverse():
                raise InternalError("subdivision left an orientation-reversing power")
    return result


def _orbits(items, step):
    seen = set()
    for start in items:
        if start not in seen:
            orbit = _orbit(start, step)
            seen.update(orbit)
            yield orbit


def mapping_torus_graph(a: GraphAutomorphism) -> LabelledGraph:
    """Labelled orbit quotient presenting the mapping torus.

    Each vertex orbit of period q and incident edge orbit of period r
    contribute the label r/q at that end; q always divides r.  Orbit
    representatives are the smallest member identifiers, and all emitted
    labels are positive.
    """
    verify_automorphism(a)
    if inverted_edges(a):
        raise InputError("some power reverses an edge; apply "
                         "subdivide_inverted_edges first")
    g = a.graph

    vertex_orbit: dict[str, str] = {}
    vertex_period: dict[str, int] = {}
    for orbit in _orbits(g.vertices, a.vertex_map.__getitem__):
        rep = min(orbit)
        for v in orbit:
            vertex_orbit[v] = rep
            vertex_period[v] = len(orbit)

    records: list[EdgeRecord] = []
    seen_edges: set[str] = set()
    for rec in g.edges:
        if rec.name in seen_edges:
            continue
        orbit = _orbit(Dart(rec.name, True), a.dart_image)
        member_edges = {d.edge for d in orbit}
        if len(member_edges) != len(orbit):
            raise InternalError("an edge repeats inside its own dart orbit")
        seen_edges |= member_edges
        rep_dart = min(orbit, key=lambda d: (d.edge, not d.forward))
        rep_edge = g.edge(rep_dart.edge)
        period = len(orbit)
        origin = g.origin(rep_dart)
        terminus = g.terminus(rep_dart)
        for end in (origin, terminus):
            if period % vertex_period[end] != 0:
                raise InternalError("vertex orbit period must divide the edge period")
        records.append(EdgeRecord(rep_edge.name,
                                  vertex_orbit[origin], vertex_orbit[terminus],
                                  period // vertex_period[origin],
                                  period // vertex_period[terminus]))

    reps: list[str] = []
    for v in g.vertices:
        if vertex_orbit[v] == v:
            reps.append(v)
    quotient = LabelledGraph(tuple(reps), tuple(records))
    if not quotient.has_nontrivial_center():
        raise InternalError("mapping torus quotient must have trivial modulus")
    return quotient


def mapping_torus_rank(a: GraphAutomorphism) -> int:
    """Rank of the mapping torus of the automorphism."""
    return rank(mapping_torus_graph(subdivide_inverted_edges(a)))
