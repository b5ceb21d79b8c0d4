"""Label-preserving isomorphism of labelled graphs.

Backtracking over vertex assignments, pruned by the joint stable coloring;
an isomorphism may reverse edge orientations, so a loop labelled (a, b) is
the same as one labelled (b, a).  Small-graph workloads only.
"""

from __future__ import annotations

from .coloring import stable_colorings
from .errors import InputError
from .graph import LabelledGraph


def _pair_signature(g: LabelledGraph, a: str, b: str) -> tuple:
    """Sorted label pairs of the edges joining a and b (orientation-free)."""
    pairs = []
    for rec in g.edges:
        if {rec.origin, rec.terminus} != ({a, b} if a != b else {a}):
            continue
        if a == b:
            pairs.append(tuple(sorted((rec.label_origin, rec.label_terminus))))
        elif rec.origin == a:
            pairs.append((rec.label_origin, rec.label_terminus))
        else:
            pairs.append((rec.label_terminus, rec.label_origin))
    return tuple(sorted(pairs))


def find_isomorphism(g1: LabelledGraph, g2: LabelledGraph) -> dict[str, str] | None:
    """A label-preserving vertex bijection, or None."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    colors1, colors2 = stable_colorings([g1, g2])
    census1: dict[str, int] = {}
    census2: dict[str, int] = {}
    for c in colors1.values():
        census1[c] = census1.get(c, 0) + 1
    for c in colors2.values():
        census2[c] = census2.get(c, 0) + 1
    if census1 != census2:
        return None

    order = list(g1.vertices)
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def compatible(v: str, w: str) -> bool:
        if colors1[v] != colors2[w]:
            return False
        if _pair_signature(g1, v, v) != _pair_signature(g2, w, w):
            return False
        for u, image in assignment.items():
            if _pair_signature(g1, v, u) != _pair_signature(g2, w, image):
                return False
        return True

    def extend(index: int) -> bool:
        if index == len(order):
            return True
        v = order[index]
        for w in g2.vertices:
            if w in used or not compatible(v, w):
                continue
            assignment[v] = w
            used.add(w)
            if extend(index + 1):
                return True
            del assignment[v]
            used.remove(w)
        return False

    return dict(assignment) if extend(0) else None


def are_isomorphic(g1: LabelledGraph, g2: LabelledGraph) -> bool:
    return find_isomorphism(g1, g2) is not None


def edge_correspondence(g1: LabelledGraph, g2: LabelledGraph,
                        vertex_map: dict[str, str]) -> dict[str, str]:
    """Pair off edges deterministically under a verified vertex bijection."""
    matched: dict[str, str] = {}
    taken: set[str] = set()
    for rec in g1.edges:
        a, b = vertex_map[rec.origin], vertex_map[rec.terminus]
        for cand in g2.edges:
            if cand.name in taken or {cand.origin, cand.terminus} != {a, b}:
                continue
            same = (cand.origin, cand.label_origin, cand.label_terminus) == \
                (a, rec.label_origin, rec.label_terminus)
            flipped = (cand.origin, cand.label_origin, cand.label_terminus) == \
                (b, rec.label_terminus, rec.label_origin)
            if same or flipped:
                matched[rec.name] = cand.name
                taken.add(cand.name)
                break
        else:
            raise InputError("vertex map is not an isomorphism")
    return matched
