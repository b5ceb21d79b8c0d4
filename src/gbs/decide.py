"""Largeness and commensurability decisions.

A non-cyclic group presented by a labelled graph is large (some finite
index subgroup maps onto a rank-2 free group) unless the graph can be
brought to a circle with coprime label products.  Commensurability is
decided, for strongly slide-free graphs without proper plateaux, by
comparing stable colorings: sharing a color is equivalent to admitting a
common finite label-preserving cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator

from .coloring import stable_colorings
from .covering import AdmissibleMap, orientation_double_cover, voltage_cover
from .errors import InputError, InternalError
from .graph import LabelledGraph
from .plateau import has_proper_plateau

# (d1!)^|E1| + (d2!)^|E2| voltage assignments at one degree pair, the most
# a witness search may enumerate before it is refused with exit 2
WITNESS_SEARCH_LIMIT = 100_000


def is_large(g: LabelledGraph) -> bool:
    """Does some finite-index subgroup of the presented group map onto F2?

    Cyclic presentations (reduced to a bare vertex) are rejected.  The one
    elementary subtlety is the two-ended amalgam over index-2 subgroups,
    i.e. a single edge labelled (+-2, +-2): it presents the Klein bottle
    group, which is virtually abelian, hence not large, even though its
    graph is a tree.
    """
    r = g.reduce()
    if len(r.vertices) == 1 and not r.edges:
        raise InputError("the graph presents a cyclic group; largeness is "
                         "decided for non-cyclic groups only")
    beta = r.betti()
    if beta >= 2:
        return True
    if beta == 0:
        if len(r.edges) == 1:
            rec = r.edges[0]
            if abs(rec.label_origin) == 2 and abs(rec.label_terminus) == 2:
                return False
        return True
    if r.is_circle():
        forward, backward = r.circle_products()
        return math.gcd(forward, backward) != 1
    # a reduced cycle-rank-1 non-circle has a terminal vertex whose label
    # exceeds 1 in magnitude, i.e. a proper plateau; branching over it
    # raises the Betti number past 1
    return True


@dataclass(frozen=True)
class CommensurabilityVerdict:
    answer: str  # commensurable | not-commensurable | out-of-scope
    witness: tuple[AdmissibleMap, AdmissibleMap] | None
    certificate: str
    isomorphism: dict[str, str] | None = None  # witness sources, vertex to vertex
    edge_isomorphism: dict[str, str] | None = None  # witness sources, edge to edge

    def render(self) -> str:
        return f"answer={self.answer}\ncertificate={self.certificate}"


def _prepared(g: LabelledGraph) -> LabelledGraph:
    """Index-2 cover if the modulus takes a negative value, then positive labels."""
    cover = orientation_double_cover(g)
    graph = cover.source if cover is not None else g
    return graph.normalize_signs()


def _canonical_key(stars: list[list[tuple[int, int, int]]]) -> tuple[tuple, list[int]] | None:
    """Least breadth-first encoding of a graph over all roots, and the
    breadth-first vertex order from the first root that attains it; None if
    the graph is disconnected.  Row k of the star table lists the darts at
    vertex k as (label, reverse label, far vertex).

    Needs pairwise distinct labels at every vertex, so that a label names its
    dart and a root fixes the numbering: two such graphs then have equal keys
    exactly when they are isomorphic, and zipping their orders gives one.
    """
    stars = [sorted(star) for star in stars]
    for k, star in enumerate(stars):
        if len({row[0] for row in star}) < len(star):
            raise InternalError(f"two darts at vertex {k} share a label; no canonical key")

    def encoding(root: int) -> tuple[tuple, list[int]]:
        number, order = {root: 0}, [root]
        for v in order:  # `order` grows in breadth-first order
            for _, _, w in stars[v]:
                if w not in number:
                    number[w] = len(order)
                    order.append(w)
        return tuple(tuple((label, reverse, number[w]) for label, reverse, w in stars[v])
                     for v in order), order

    first = encoding(0)
    if len(first[1]) < len(stars):
        return None
    return min((first, *map(encoding, range(1, len(stars)))), key=lambda pair: pair[0])


def _connected_keys(g: LabelledGraph, degree: int
                    ) -> Iterator[tuple[dict[str, tuple[int, ...]], tuple, list[int]]]:
    """Assignment, key and order of each connected voltage cover of g of the
    given degree, in assignment order, built as star tables only: sheet i of
    the k-th vertex is row k*degree + i, its position in `voltage_cover`.
    """
    for choice in product(permutations(range(degree)), repeat=len(g.edges)):
        stars: list[list[tuple[int, int, int]]] = [[] for _ in range(len(g.vertices) * degree)]
        for rec, sigma in zip(g.edges, choice):
            o, t = g.vertex_position[rec.origin] * degree, g.vertex_position[rec.terminus] * degree
            for i, j in enumerate(sigma):
                stars[o + i].append((rec.label_origin, rec.label_terminus, t + j))
                stars[t + j].append((rec.label_terminus, rec.label_origin, o + i))
        found = _canonical_key(stars)
        if found is not None:
            yield dict(zip((rec.name for rec in g.edges), choice)), *found


def _key_bijection(g1: LabelledGraph, order1: list[int], g2: LabelledGraph,
                   order2: list[int]) -> tuple[dict[str, str], dict[str, str]]:
    """Vertex and edge maps that zip the orders of two equal canonical keys.

    Labels at a vertex are distinct, so the dart at v labelled l goes to
    the dart at the image of v labelled l; an image edge whose far end or
    labels disagree means the keys were not equal.
    """
    vertex_map = {g1.vertices[k]: g2.vertices[m] for k, m in zip(order1, order2)}
    dart_at = {(g2.origin(d), g2.label(d)): d for d in g2.darts()}
    edge_map: dict[str, str] = {}
    for rec in g1.edges:
        dart = dart_at.get((vertex_map[rec.origin], rec.label_origin))
        if dart is None or (g2.terminus(dart), g2.label(dart.reverse())) != \
                (vertex_map[rec.terminus], rec.label_terminus):
            raise InternalError(f"edge {rec.name!r} has no image under the key bijection")
        edge_map[rec.name] = dart.edge
    return {v: vertex_map[v] for v in g1.vertices}, edge_map


def _witness_search(h1: LabelledGraph, h2: LabelledGraph, max_degree: int
                    ) -> tuple[AdmissibleMap, AdmissibleMap,
                               dict[str, str], dict[str, str]] | None:
    """The first connected pair (c1, c2) in cover order with isomorphic sources,
    and the vertex and edge bijections between those sources.

    Degree pairs satisfy d1*|V1| = d2*|V2| and d1*|E1| = d2*|E2|, by
    increasing total; the covers of h2 are keyed once, those of h1 are keyed
    only until one matches, and only the matching pair is built.
    """
    n1, n2 = len(h1.vertices), len(h2.vertices)
    a, b = n2 // math.gcd(n1, n2), n1 // math.gcd(n1, n2)
    if a * len(h1.edges) != b * len(h2.edges):
        return None
    for k in range(1, max_degree // max(a, b) + 1):
        d1, d2 = k * a, k * b
        size = math.factorial(d1) ** len(h1.edges) + math.factorial(d2) ** len(h2.edges)
        if size > WITNESS_SEARCH_LIMIT:
            raise InputError(f"witness search at degrees {d1} and {d2} would enumerate "
                             f"{size} covers, over the limit {WITNESS_SEARCH_LIMIT}")
        keyed: dict[tuple, tuple[dict[str, tuple[int, ...]], list[int]]] = {}
        for assignment2, key, order2 in _connected_keys(h2, d2):
            keyed.setdefault(key, (assignment2, order2))
        for assignment1, key, order1 in _connected_keys(h1, d1):
            if key in keyed:
                assignment2, order2 = keyed[key]
                c1, c2 = voltage_cover(h1, d1, assignment1), voltage_cover(h2, d2, assignment2)
                return c1, c2, *_key_bijection(c1.source, order1, c2.source, order2)
    return None


def commensurable(g1: LabelledGraph, g2: LabelledGraph,
                  witness_max_degree: int | None = None) -> CommensurabilityVerdict:
    """Do the two presented groups share a finite-index subgroup?

    In scope only for graphs that reduce to strongly slide-free graphs
    without proper plateaux.  When asked for a witness, topological covers
    of each graph are enumerated up to the given total multiplicity; a
    verified isomorphic pair may exist only at higher degree, in which case
    the answer stands but no witness is attached.  A degree pair needing
    over WITNESS_SEARCH_LIMIT voltage assignments raises InputError.
    """
    r1, r2 = g1.reduce(), g2.reduce()
    violations = []
    for tag, r in (("first", r1), ("second", r2)):
        if not r.is_strongly_slide_free():
            violations.append(f"{tag} graph is not strongly slide-free")
        if has_proper_plateau(r):
            violations.append(f"{tag} graph has a proper plateau")
    if violations:
        return CommensurabilityVerdict("out-of-scope", None, "; ".join(violations))

    h1, h2 = _prepared(r1), _prepared(r2)
    colors1, colors2 = stable_colorings([h1, h2])
    shared = sorted(set(colors1.values()) & set(colors2.values()))
    if not shared:
        return CommensurabilityVerdict(
            "not-commensurable", None,
            f"stable colorings are disjoint: {sorted(set(colors1.values()))} "
            f"vs {sorted(set(colors2.values()))}")

    certificate = f"shared stable colors: {shared}"
    witness = isomorphism = edge_isomorphism = None
    if witness_max_degree is not None:
        if witness_max_degree < 1:
            raise InputError("witness_max_degree must be positive")
        found = _witness_search(h1, h2, witness_max_degree)
        if found is None:
            certificate += f"; no witness within total multiplicity {witness_max_degree}"
        else:
            first, second, isomorphism, edge_isomorphism = found
            witness = (first, second)
            certificate += (f"; witness degrees {first.total_multiplicity()} "
                            f"and {second.total_multiplicity()}")
    return CommensurabilityVerdict("commensurable", witness, certificate, isomorphism,
                                   edge_isomorphism)
