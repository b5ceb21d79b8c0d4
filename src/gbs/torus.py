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

    return math.lcm(*map(len, _orbits(g.vertices, a.vertex_map.__getitem__)),
                    *map(len, _orbits(g.darts(), a.dart_image)))


def _orbit(start, step) -> list:
    """start, step(start), step(step(start)), ... up to the return to start."""
    orbit = [start]
    item = step(start)
    while item != start:
        orbit.append(item)
        item = step(item)
    return orbit


def _inverted_edges(a: GraphAutomorphism) -> frozenset[str]:
    """Edges whose dart orbit contains the reversed dart of some member; `a` is verified."""
    out = set()
    for orbit in _orbits((Dart(rec.name, True) for rec in a.graph.edges), a.dart_image):
        if not set(orbit).isdisjoint(d.reverse() for d in orbit):
            out.update(d.edge for d in orbit)
    return frozenset(out)


def subdivide_inverted_edges(a: GraphAutomorphism) -> GraphAutomorphism:
    """Add a midpoint to every edge of an orientation-reversing orbit.

    Afterwards no power of the automorphism maps an oriented edge to its
    own reverse, which the orbit quotient requires.
    """
    verify_automorphism(a)
    return _subdivide_inverted_edges(a)


def _subdivide_inverted_edges(a: GraphAutomorphism) -> GraphAutomorphism:
    """:func:`subdivide_inverted_edges` for a verified automorphism; the
    result is trusted to be an automorphism without inverted edges."""
    g = a.graph
    split = _inverted_edges(a)
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
            # the half at the origin goes to the half at the image's origin
            first, second = ("__a", "__b") if same else ("__b", "__a")
            emap[f"{rec.name}__a"] = (image + first, same)
            emap[f"{rec.name}__b"] = (image + second, same)
        else:
            emap[rec.name] = a.edge_map[rec.name]

    return GraphAutomorphism(LabelledGraph(tuple(vertices), tuple(records)), vmap, emap)


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
    if _inverted_edges(a):
        raise InputError("some power reverses an edge; apply "
                         "subdivide_inverted_edges first")
    return _mapping_torus_graph(a)


def _mapping_torus_graph(a: GraphAutomorphism) -> LabelledGraph:
    """:func:`mapping_torus_graph` for a verified automorphism inverting no edge."""
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
        period = len(orbit)
        origin = g.origin(rep_dart)
        terminus = g.terminus(rep_dart)
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


def mapping_torus_rank(a: GraphAutomorphism) -> int:
    """Rank of the mapping torus of the automorphism."""
    verify_automorphism(a)
    return rank(_mapping_torus_graph(_subdivide_inverted_edges(a)))
