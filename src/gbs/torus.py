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
import types
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError, InternalError
from .graph import EdgeRecord, LabelledGraph
from .plateau import rank


@dataclass(frozen=True, eq=False)
class GraphAutomorphism:
    """A graph with compatible vertex and (oriented) edge permutations.

    The two name maps are read-only copies, so the order that
    `verify_automorphism` keeps on the automorphism cannot go stale.  Once
    verified, it is read as (vertex image, dart image) tables over the graph's
    dart index: dart d goes to dart_image[d], and d ^ 1 to dart_image[d] ^ 1.
    """

    graph: LabelledGraph  # labels are ignored by the torus construction
    vertex_map: Mapping[str, str]
    edge_map: Mapping[str, tuple[str, bool]]  # edge -> (image, same orientation)

    def __post_init__(self):
        for name in ("vertex_map", "edge_map"):
            object.__setattr__(self, name, types.MappingProxyType(dict(getattr(self, name))))

    @cached_property
    def _tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The images by index; read only once the maps are known to be bijections."""
        g = self.graph
        forward = {rec.name: 2 * i for i, rec in enumerate(g.edges)}  # dart 2i of edge i
        images = (self.edge_map[rec.name] for rec in g.edges)
        return (tuple(g.vertex_position[self.vertex_map[v]] for v in g.vertices),
                tuple((forward[e] + (not same)) ^ flip for e, same in images for flip in (0, 1)))


def verify_automorphism(a: GraphAutomorphism) -> int:
    """Check bijectivity and incidence; returns the exact order.  The order is
    kept on a, so each automorphism is checked once."""
    if "_order" not in a.__dict__:
        a.__dict__["_order"] = _check_automorphism(a)
    return a.__dict__["_order"]


def _check_automorphism(a: GraphAutomorphism) -> int:
    g = a.graph
    if set(a.vertex_map) != set(g.vertices):
        raise InputError("vertex map must cover exactly the vertices")
    if set(a.vertex_map.values()) != set(g.vertices):
        raise InputError("vertex map must be a bijection")
    names = {rec.name for rec in g.edges}
    if set(a.edge_map) != names:
        raise InputError("edge map must cover exactly the edges")
    for value in a.edge_map.values():  # worded as an admissible map's structural pass
        if not isinstance(value, tuple) or len(value) != 2:
            raise InputError(f"edge map value {value!r} must be an (image edge, orientation "
                             "flag) pair")
        if not isinstance(value[1], bool):
            raise InputError(f"orientation flag {value[1]!r} must be a bool")
    if {image for image, _ in a.edge_map.values()} != names:
        raise InputError("edge map must be a bijection")
    vertex_image, dart_image = a._tables
    heads = g._index[1]
    problems = [f"edge {g.edges[d >> 1].name!r}: image origin "
                f"{g.vertices[heads[dart_image[d]]]!r} differs from mapped origin "
                f"{g.vertices[vertex_image[heads[d]]]!r}"
                for d in range(len(heads)) if heads[dart_image[d]] != vertex_image[heads[d]]]
    if problems:
        raise InputError("; ".join(problems))
    return math.lcm(*map(len, _orbits(vertex_image, range(len(vertex_image)))),
                    *map(len, _orbits(dart_image, range(len(dart_image)))))


def _orbit(start: int, image: Sequence[int]) -> list[int]:
    """start, image[start], image[image[start]], ... up to the return to start."""
    orbit = [start]
    while (item := image[orbit[-1]]) != start:
        orbit.append(item)
    return orbit


def _orbits(image: Sequence[int], starts: Iterable[int]) -> Iterator[list[int]]:
    """The orbit of each start that no earlier orbit met."""
    seen = bytearray(len(image))
    for start in starts:
        if not seen[start]:
            orbit = _orbit(start, image)
            for item in orbit:
                seen[item] = 1
            yield orbit


def _inverted_edges(a: GraphAutomorphism) -> frozenset[int]:
    """Indices of the edges whose dart orbit holds the reverse of a member, kept on `a`."""
    if "_inverted" not in a.__dict__:  # `a` is verified
        dart_image, out = a._tables[1], set()
        for orbit in _orbits(dart_image, range(0, len(dart_image), 2)):
            if orbit[0] ^ 1 in orbit:  # closed under reversal, which commutes with the image
                out.update(d >> 1 for d in orbit)
        a.__dict__["_inverted"] = frozenset(out)
    return a.__dict__["_inverted"]


def subdivide_inverted_edges(a: GraphAutomorphism) -> GraphAutomorphism:
    """Add a midpoint to every edge of an orientation-reversing orbit.

    Afterwards no power of the automorphism maps an oriented edge to its
    own reverse, which the orbit quotient requires.  Edge e becomes the
    vertex e__mid and the edges e__a and e__b, with as many more underscores
    as make every new name fresh; the result keeps the order of `a`.
    """
    order = verify_automorphism(a)
    g = a.graph
    split = {g.edges[i].name for i in _inverted_edges(a)}
    if not split:
        return a
    taken, sep = {*g.vertices, *(rec.name for rec in g.edges)}, "__"
    while any(e + sep + tail in taken for e in split for tail in ("mid", "a", "b")):
        sep += "_"

    vertices, records, vmap, emap = list(g.vertices), [], dict(a.vertex_map), {}
    for rec in g.edges:
        image, same = a.edge_map[rec.name]
        if rec.name not in split:
            records.append(rec)
            emap[rec.name] = (image, same)
            continue
        mid = rec.name + sep + "mid"
        vertices.append(mid)
        vmap[mid] = image + sep + "mid"
        records += (EdgeRecord(rec.name + sep + "a", rec.origin, mid, rec.label_origin, 1),
                    EdgeRecord(rec.name + sep + "b", mid, rec.terminus, 1, rec.label_terminus))
        # the half at the origin goes to the half at the image's origin
        first, second = ("a", "b") if same else ("b", "a")
        emap[rec.name + sep + "a"] = (image + sep + first, same)
        emap[rec.name + sep + "b"] = (image + sep + second, same)
    subdivided = GraphAutomorphism(LabelledGraph(tuple(vertices), tuple(records)), vmap, emap)
    subdivided.__dict__.update(_order=order, _inverted=frozenset())  # the docstring's two facts
    return subdivided


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
    g = a.graph
    vertex_image, dart_image = a._tables
    heads = g._index[1]

    vertex_orbit, vertex_period = [0] * len(g.vertices), [0] * len(g.vertices)
    for orbit in _orbits(vertex_image, range(len(vertex_image))):
        rep = min(orbit, key=g.vertices.__getitem__)
        for v in orbit:
            vertex_orbit[v], vertex_period[v] = rep, len(orbit)

    records: list[EdgeRecord] = []
    seen_edges = bytearray(len(g.edges))
    for i in range(len(g.edges)):
        if seen_edges[i]:
            continue
        orbit = _orbit(2 * i, dart_image)
        if len({d >> 1 for d in orbit}) != len(orbit):
            raise InternalError("an edge repeats inside its own dart orbit")
        for d in orbit:
            seen_edges[d >> 1] = 1
        rep = min(orbit, key=lambda d: (g.edges[d >> 1].name, d & 1))
        period, origin, terminus = len(orbit), heads[rep], heads[rep ^ 1]
        for end in (origin, terminus):
            if period % vertex_period[end] != 0:
                raise InternalError("vertex orbit period must divide the edge period")
        records.append(EdgeRecord(g.edges[rep >> 1].name,
                                  g.vertices[vertex_orbit[origin]],
                                  g.vertices[vertex_orbit[terminus]],
                                  period // vertex_period[origin],
                                  period // vertex_period[terminus]))

    reps = tuple(v for i, v in enumerate(g.vertices) if vertex_orbit[i] == i)
    quotient = LabelledGraph(reps, tuple(records))
    if not quotient.has_nontrivial_center():
        raise InternalError("mapping torus quotient must have trivial modulus")
    return quotient


def mapping_torus_rank(a: GraphAutomorphism) -> int:
    """Rank of the mapping torus of the automorphism."""
    return rank(mapping_torus_graph(subdivide_inverted_edges(a)))
