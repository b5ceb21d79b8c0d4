"""Coarsest stable vertex colorings of labelled graphs.

Vertices are split by the multiset of (label, reverse label, terminus
color) triples over their outgoing darts until the partition stabilizes.
Refining several graphs jointly gives comparable color names: two
vertices end up with the same color exactly when their label-preserving
universal covers are isomorphic as rooted trees.  The refinement runs on
the dart indices with a worklist, after Paige and Tarjan (SIAM J. Comput.
16, 1987): a round splits only the classes of vertices with a neighbour
recolored in the round before.
"""

from __future__ import annotations

from .graph import LabelledGraph


def stable_colorings(graphs: list[LabelledGraph]) -> list[dict[str, str]]:
    """Jointly refine all graphs; returns one vertex->color dict per graph, the
    colors named c0, c1, ... in order of first appearance over the graphs in turn."""
    stars = []  # per vertex of the graphs in turn: (label, reverse label, far vertex) per dart
    for g in graphs:
        labels, heads, order, start = g._index
        base = len(stars)
        stars += [[(labels[d], labels[d ^ 1], base + heads[d ^ 1])
                   for d in order[start[v]:start[v + 1]]] for v in range(len(g.vertices))]
    # every member of class c outside `dirty` has the descriptor shared[c]
    color, size, shared, dirty = [0] * len(stars), [len(stars)], [None], set(range(len(stars)))
    while dirty:
        parts: dict[int, dict[tuple, list[int]]] = {}
        for v in dirty:
            star = tuple(sorted((a, b, color[w]) for a, b, w in stars[v]))
            parts.setdefault(color[v], {}).setdefault(star, []).append(v)
        recolored = []
        for c, groups in parts.items():
            if size[c] == sum(map(len, groups.values())):  # all dirty: the largest part keeps c
                shared[c] = max(groups, key=lambda star: len(groups[star]))
            for star, part in groups.items():
                if star != shared[c]:
                    size[c] -= len(part)
                    recolored += ((v, len(size)) for v in part)
                    size.append(len(part))
                    shared.append(star)
        for v, c in recolored:  # every descriptor above read the colors before these
            color[v] = c
        dirty = {w for v, _ in recolored for _, _, w in stars[v]}
    names: dict[int, str] = {}
    ids = iter(color)
    return [{v: names.setdefault(next(ids), f"c{len(names)}") for v in g.vertices} for g in graphs]
