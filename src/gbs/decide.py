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
from .isomorphism import find_isomorphism
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
    g._require_connected()
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


def universal_cover_coloring(g: LabelledGraph) -> dict[str, str]:
    """Coarsest stable coloring of a positively labelled graph.

    Two vertices share a color exactly when the universal covers rooted
    there are isomorphic as labelled trees.  Color names are canonical for
    a single call; to compare two graphs, color them jointly (as
    :func:`commensurable` does).
    """
    if any(g.label(d) < 0 for d in g.darts()):
        raise InputError("coloring requires positive labels; normalize signs first")
    return stable_colorings([g])[0]


@dataclass(frozen=True)
class CommensurabilityVerdict:
    answer: str  # commensurable | not-commensurable | out-of-scope
    witness: tuple[AdmissibleMap, AdmissibleMap] | None
    certificate: str
    isomorphism: dict[str, str] | None = None  # witness sources, vertex to vertex

    def render(self) -> str:
        return f"answer={self.answer}\ncertificate={self.certificate}"


def _prepared(g: LabelledGraph) -> LabelledGraph:
    """Index-2 cover if the modulus takes a negative value, then positive labels."""
    cover = orientation_double_cover(g)
    graph = cover.source if cover is not None else g
    return graph.normalize_signs()


def _connected_covers(g: LabelledGraph, degree: int) -> Iterator[AdmissibleMap]:
    """Every connected voltage cover of the given degree, in a fixed order."""
    perms = list(permutations(range(degree)))
    names = [rec.name for rec in g.edges]
    for choice in product(perms, repeat=len(names)):
        cover = voltage_cover(g, degree, dict(zip(names, choice)))
        if cover.source.is_connected():
            yield cover


def _canonical_key(g: LabelledGraph) -> tuple:
    """Least breadth-first encoding of a connected graph over all roots.

    Needs pairwise distinct labels at every vertex, so that a label names
    its dart and a root fixes the numbering: two such graphs then have
    equal keys exactly when they are isomorphic.
    """
    stars: dict[str, list[tuple[int, int, str]]] = {v: [] for v in g.vertices}
    for rec in g.edges:
        stars[rec.origin].append((rec.label_origin, rec.label_terminus, rec.terminus))
        stars[rec.terminus].append((rec.label_terminus, rec.label_origin, rec.origin))
    for v, star in stars.items():
        star.sort()
        if len({row[0] for row in star}) < len(star):
            raise InternalError(f"two darts at {v!r} share a label; no canonical key")

    def encoding(root: str) -> tuple:
        number, order = {root: 0}, [root]
        for v in order:  # `order` grows in breadth-first order
            for _, _, w in stars[v]:
                if w not in number:
                    number[w] = len(order)
                    order.append(w)
        if len(order) < len(stars):
            raise InternalError("canonical keys are defined for connected graphs only")
        return tuple(tuple((label, reverse, number[w]) for label, reverse, w in stars[v])
                     for v in order)

    return min(encoding(root) for root in g.vertices)


def _witness_search(h1: LabelledGraph, h2: LabelledGraph, max_degree: int
                    ) -> tuple[AdmissibleMap, AdmissibleMap, dict[str, str]] | None:
    """The first connected pair (c1, c2) in cover order with isomorphic sources,
    and a vertex bijection between those sources.

    Degree pairs satisfy d1*|V1| = d2*|V2| and d1*|E1| = d2*|E2|, by
    increasing total; the covers of h2 are keyed once, and those of h1 are
    built only until one matches a key.
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
        keyed: dict[tuple, AdmissibleMap] = {}
        for c2 in _connected_covers(h2, d2):
            keyed.setdefault(_canonical_key(c2.source), c2)
        for c1 in _connected_covers(h1, d1):
            c2 = keyed.get(_canonical_key(c1.source))
            if c2 is not None:
                isomorphism = find_isomorphism(c1.source, c2.source)
                if isomorphism is None:
                    raise InternalError("covers with equal canonical keys are not isomorphic")
                return c1, c2, isomorphism
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
    for g in (g1, g2):
        g._require_connected()
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
    witness = isomorphism = None
    if witness_max_degree is not None:
        if witness_max_degree < 1:
            raise InputError("witness_max_degree must be positive")
        found = _witness_search(h1, h2, witness_max_degree)
        if found is None:
            certificate += f"; no witness within total multiplicity {witness_max_degree}"
        else:
            first, second, isomorphism = found
            witness = (first, second)
            certificate += (f"; witness degrees {first.total_multiplicity()} "
                            f"and {second.total_multiplicity()}")
    return CommensurabilityVerdict("commensurable", witness, certificate, isomorphism)
