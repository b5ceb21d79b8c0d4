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

from .coloring import stable_colorings
from .covering import (COVER_VERTEX_LIMIT, AdmissibleMap, assert_admissible,
                       orientation_double_cover)
from .errors import InputError, InternalError
from .graph import EdgeRecord, LabelledGraph
from .plateau import has_proper_plateau


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
    witness: tuple[AdmissibleMap, AdmissibleMap] | None  # two covers with one source
    certificate: str

    def render(self) -> str:
        return f"answer={self.answer}\ncertificate={self.certificate}"


def _prepared(g: LabelledGraph) -> LabelledGraph:
    """Index-2 cover if the modulus takes a negative value, then positive labels."""
    cover = orientation_double_cover(g)
    graph = cover.source if cover is not None else g
    return graph.normalize_signs()


def _smallest_common_cover(h1: LabelledGraph, h2: LabelledGraph, colors1: dict[str, str],
                           colors2: dict[str, str], max_degree: int
                           ) -> tuple[AdmissibleMap, AdmissibleMap] | None:
    """The smallest component of the fibre product of h1 and h2 as two
    covers with one source, or None past max_degree over either graph.

    Every component has a multiple of lcm(|V1|, |V2|) vertices, so nothing
    is walked when that is past either bound.  Labels at a vertex are
    distinct, so a walk steps along each dart d1 of h1 with the dart of h2
    carrying d1's label.  One walk per same-colored pair over h1's first
    vertex v0 meets every component, onto which any common cover maps.  A
    walk stops past the best size, max_degree times the smaller vertex
    count, COVER_VERTEX_LIMIT (InputError if nothing is left) or on meeting
    a stopped walk; lcm(|V1|, |V2|) vertices is final.
    """
    n1, n2 = len(h1.vertices), len(h2.vertices)
    smallest = math.lcm(n1, n2)  # every component covers both graphs
    if smallest > max_degree * min(n1, n2):
        return None
    if smallest > COVER_VERTEX_LIMIT:
        raise InputError(f"the smallest common cover has over {COVER_VERTEX_LIMIT} vertices")
    cap = min(max_degree * min(n1, n2), COVER_VERTEX_LIMIT)
    # the walk runs on the dart indices: (label, far vertex, dart) of each dart at v
    labels1, heads1, order1, start1 = h1._index
    labels2, heads2, order2, start2 = h2._index
    steps1 = [[(labels1[d], heads1[d ^ 1], d) for d in order1[start1[v]:start1[v + 1]]]
              for v in range(n1)]
    steps2 = [{labels2[d]: (heads2[d ^ 1], d) for d in order2[start2[v]:start2[v + 1]]}
              for v in range(n2)]
    if any(len(table) < start2[v + 1] - start2[v] for v, table in enumerate(steps2)):
        raise InternalError("two darts at one vertex share a label")
    v0, seen, best = 0, set(), None
    for v2 in range(n2):
        if colors2[h2.vertices[v2]] != colors1[h1.vertices[v0]] or (v0, v2) in seen:
            continue
        bound = cap if best is None else min(cap, len(best[0]) - 1)
        index, pairs, edges = {(v0, v2): 0}, [(v0, v2)], []
        for i, (x1, x2) in enumerate(pairs):  # `pairs` grows in breadth-first order
            if len(pairs) > bound or (x1, x2) in seen:  # `seen` holds only stopped walks here
                break
            table = steps2[x2]
            for label, t1, d1 in steps1[x1]:
                if label not in table:
                    raise InternalError(f"no dart at {h2.vertices[x2]!r} matches "
                                        f"{h1._dart(d1).render()!r}")
                t2, d2 = table[label]
                j = index.setdefault((t1, t2), len(pairs))
                if j == len(pairs):
                    pairs.append((t1, t2))
                if not d1 & 1:  # (dart of h1 at its origin, dart of h2, origin, terminus)
                    edges.append((d1, d2, i, j))
        else:  # the component closed within `bound`
            best = pairs, edges
            if len(pairs) == smallest:
                break
        seen.update(pairs)
    if best is None:  # every walk, if any, was stopped at `cap`
        if seen and COVER_VERTEX_LIMIT < max_degree * min(n1, n2):
            raise InputError(f"the smallest common cover has over {COVER_VERTEX_LIMIT} vertices")
        return None

    pairs, edges = best
    names = [f"v{i}" for i in range(len(pairs))]
    source = LabelledGraph._trusted(tuple(names), tuple(
        EdgeRecord(f"e{j}", names[o], names[t], labels1[d1], labels1[d1 ^ 1])
        for j, (d1, _, o, t) in enumerate(edges)))
    return tuple(assert_admissible(AdmissibleMap._from_tables(
        source, h, (pair[side] for pair in pairs),
        (edge[side] ^ end for edge in edges for end in (0, 1)),
        (1,) * len(pairs), (1,) * len(edges)), "the fibre-product walk")
        for side, h in ((0, h1), (1, h2)))


def commensurable(g1: LabelledGraph, g2: LabelledGraph,
                  witness_max_degree: int | None = None) -> CommensurabilityVerdict:
    """Do the two presented groups share a finite-index subgroup?

    In scope only for graphs that reduce to strongly slide-free graphs
    without proper plateaux.  The witness, if asked for, is the smallest
    common topological cover, two maps with one source; past the given
    total multiplicity the answer stands without it.  A witness_max_degree
    below 1, or a smallest cover past COVER_VERTEX_LIMIT, raises InputError.
    """
    if witness_max_degree is not None and witness_max_degree < 1:
        raise InputError("witness_max_degree must be positive")
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
    witness = None
    if witness_max_degree is not None:
        witness = _smallest_common_cover(h1, h2, colors1, colors2, witness_max_degree)
        if witness is None:
            certificate += f"; no witness within total multiplicity {witness_max_degree}"
        else:
            certificate += (f"; witness degrees {witness[0].total_multiplicity()} "
                            f"and {witness[1].total_multiplicity()}")
    return CommensurabilityVerdict("commensurable", witness, certificate)
