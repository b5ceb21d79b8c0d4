"""Coarsest stable vertex colorings of labelled graphs.

Vertices are repeatedly split by the multiset of (label, reverse label,
terminus color) triples over their outgoing darts until the partition
stabilizes.  Refining several graphs jointly gives comparable color names:
two vertices end up with the same color exactly when their label-preserving
universal covers are isomorphic as rooted trees.
"""

from __future__ import annotations

from .graph import LabelledGraph


def stable_colorings(graphs: list[LabelledGraph]) -> list[dict[str, str]]:
    """Jointly refine all graphs; returns one vertex->color dict per graph."""
    keys = [(i, v) for i, g in enumerate(graphs) for v in g.vertices]
    color: dict[tuple[int, str], str] = {key: "" for key in keys}
    classes = len(set(color.values()))
    while True:
        descriptors = {}
        for i, v in keys:
            g = graphs[i]
            star = tuple(sorted((g.label(d), g.label(d.reverse()),
                                 color[(i, g.terminus(d))])
                                for d in g.darts_at(v)))
            descriptors[(i, v)] = (color[(i, v)], star)
        names = {desc: f"c{j}" for j, desc in
                 enumerate(sorted(set(descriptors.values())))}
        refined = {key: names[descriptors[key]] for key in keys}
        # each descriptor starts with the old color, so refinement only
        # splits classes and is stable once their number stops growing
        if len(names) == classes:
            return [{v: refined[(i, v)] for v in g.vertices}
                    for i, g in enumerate(graphs)]
        color, classes = refined, len(names)
