"""Isomorphism and canonical keys against networkx, an independent oracle.

Each edge is subdivided by a node joined to its two ends by the labels at
those ends, so label-preserving, orientation-free isomorphism of labelled
graphs becomes node- and edge-attributed isomorphism of multigraphs.
networkx is used here only, never by the package.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import R2, R3
from gbs import LabelledGraph, find_isomorphism, voltage_cover
from gbs.decide import _canonical_key
from gbs.isomorphism import edge_correspondence
from strategies import connected_graphs

nx = pytest.importorskip("networkx")


def subdivided(g: LabelledGraph):
    s = nx.MultiGraph()
    s.add_nodes_from(g.vertices, kind="vertex")
    for rec in g.edges:
        middle = ("edge", rec.name)
        s.add_node(middle, kind="edge")
        s.add_edge(rec.origin, middle, label=rec.label_origin)
        s.add_edge(rec.terminus, middle, label=rec.label_terminus)
    return s


def nx_isomorphic(g1: LabelledGraph, g2: LabelledGraph) -> bool:
    return nx.is_isomorphic(subdivided(g1), subdivided(g2),
                            node_match=nx.isomorphism.categorical_node_match("kind", None),
                            edge_match=nx.isomorphism.categorical_multiedge_match("label", None))


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


def test_canonical_key_agrees_with_networkx():
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
        assert (_canonical_key(a) == _canonical_key(b)) == same
        outcomes[same] += 1
    assert min(outcomes.values()) >= 20


@given(connected_graphs(), st.randoms(use_true_random=False), st.booleans())
@settings(deadline=None, max_examples=60)
def test_find_isomorphism_agrees_with_networkx(g, rng, perturb):
    h = relabelled(rng, g)
    if perturb and h.edges:  # change one label: usually, not always, breaks the isomorphism
        r = rng.choice(h.edges)
        changed = r._replace(label_origin=r.label_origin + rng.choice((-1, 1, 2)) or 5)
        h = LabelledGraph(h.vertices, tuple(changed if e is r else e for e in h.edges))
    vmap = find_isomorphism(g, h)
    assert (vmap is not None) == nx_isomorphic(g, h)
    if vmap is not None:
        edge_correspondence(g, h, vmap)  # raises unless vmap is an isomorphism


@given(connected_graphs(max_vertices=3), connected_graphs(max_vertices=3))
@settings(deadline=None, max_examples=60)
def test_find_isomorphism_agrees_on_unrelated_graphs(g, h):
    assert (find_isomorphism(g, h) is not None) == nx_isomorphic(g, h)
