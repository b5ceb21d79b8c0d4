"""The fibre-product walk and its bijections against networkx, an independent oracle.

`nx_isomorphic` subdivides each edge by a node joined to its two ends by
the labels at those ends, so label-preserving, orientation-free isomorphism
of labelled graphs becomes node- and edge-attributed isomorphism of
multigraphs.  networkx is used by the tests only, never by the package.
"""

import random

from hypothesis import assume, given, settings

from conftest import (R2, R3, distinct_labels, is_label_preserving_isomorphism,
                      nx_isomorphic, walk_isomorphism)
from gbs import LabelledGraph, voltage_cover
from strategies import connected_graphs


def relabelled(rng: random.Random, g: LabelledGraph) -> LabelledGraph:
    """Renamed vertices and edges, shuffled declaration order, some edges reversed."""
    rename = {v: f"w{i}" for i, v in enumerate(g.vertices)}
    vertices = [rename[v] for v in g.vertices]
    rng.shuffle(vertices)
    edges = []
    for i, r in enumerate(g.edges):
        ends = (rename[r.origin], rename[r.terminus], r.label_origin, r.label_terminus)
        if rng.random() < 0.5:
            ends = (ends[1], ends[0], ends[3], ends[2])
        edges.append((f"f{i}", *ends))
    rng.shuffle(edges)
    return LabelledGraph.build(vertices, edges)


def connected_assignment(rng: random.Random, g: LabelledGraph, degree: int) -> dict:
    """Random permutations whose voltage cover is connected."""
    while True:
        assignment = {r.name: rng.sample(range(degree), degree) for r in g.edges}
        if voltage_cover(g, degree, assignment).source.is_connected():
            return assignment


def conjugated(rng: random.Random, degree: int, assignment: dict) -> dict:
    """The assignment conjugated by a random sheet permutation: an isomorphic cover."""
    tau = rng.sample(range(degree), degree)
    inverse = [tau.index(i) for i in range(degree)]
    return {e: [tau[sigma[inverse[i]]] for i in range(degree)]
            for e, sigma in assignment.items()}


def test_fibre_walk_agrees_with_networkx():
    rng = random.Random(6)
    outcomes = {True: 0, False: 0}
    for _ in range(120):
        base, degree = rng.choice((R2, R3)), rng.choice((2, 3))
        assignment = connected_assignment(rng, base, degree)
        a = voltage_cover(base, degree, assignment).source
        kind = rng.randrange(3)
        if kind == 0:
            b = relabelled(rng, a)
        else:
            other = (conjugated(rng, degree, assignment) if kind == 1
                     else connected_assignment(rng, base, degree))
            b = voltage_cover(base, degree, other).source
        same = nx_isomorphic(a, b)
        assert (walk_isomorphism(a, b) is not None) == same
        outcomes[same] += 1
    assert min(outcomes.values()) >= 20


def test_walk_bijection_is_a_label_preserving_isomorphism():
    # every isomorphic pair of connected covers of R2 and R3, with names, order
    # and orientations shuffled on one side, and the networkx verdict on it
    rng = random.Random(7)
    pairs = 0
    for base, degree in ((R2, 2), (R2, 3), (R3, 2)):
        covers = [voltage_cover(base, degree, connected_assignment(rng, base, degree)).source
                  for _ in range(12)]
        for a in covers:
            for b in (relabelled(rng, cover) for cover in covers):
                found = walk_isomorphism(a, b)
                if found is None:
                    continue
                assert nx_isomorphic(a, b)
                assert is_label_preserving_isomorphism(a, b, *found)
                pairs += 1
    assert pairs >= 60


@given(connected_graphs(max_vertices=3), connected_graphs(max_vertices=3))
@settings(deadline=None, max_examples=60)
def test_fibre_walk_agrees_on_unrelated_graphs(g, h):
    assume(distinct_labels(g) and distinct_labels(h))
    assert (walk_isomorphism(g, h) is not None) == nx_isomorphic(g, h)
