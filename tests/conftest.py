import pytest

from gbs import AdmissibleMap, LabelledGraph, voltage_cover
from gbs.decide import _canonical_key


def bs(m: int, n: int) -> LabelledGraph:
    """One vertex with one loop labelled (m, n)."""
    return LabelledGraph.build(["v"], [("e", "v", "v", m, n)])


def circle_graph(pairs) -> LabelledGraph:
    """Circle through u1..uk; edge ci runs ui -> u(i+1) with labels pairs[i]."""
    k = len(pairs)
    vertices = [f"u{i + 1}" for i in range(k)]
    edges = [(f"c{i + 1}", vertices[i], vertices[(i + 1) % k], x, y)
             for i, (x, y) in enumerate(pairs)]
    return LabelledGraph.build(vertices, edges)


def f1(n: int) -> LabelledGraph:
    """Path v_a - v_b - v_c with labels 3,2 then n,5."""
    return LabelledGraph.build(
        ["v_a", "v_b", "v_c"],
        [("e_1", "v_a", "v_b", 3, 2), ("e_2", "v_b", "v_c", n, 5)])


def f2() -> LabelledGraph:
    return LabelledGraph.build(
        ["v_a", "v_b", "v_c", "v_d"],
        [("e_1", "v_a", "v_b", 3, 2), ("e_2", "v_b", "v_c", 3, 7),
         ("e_3", "v_c", "v_d", 10, 5)])


def f3() -> LabelledGraph:
    """Triangle with labels 3,5 / 2,3 / 2,5."""
    return LabelledGraph.build(
        ["v_a", "v_b", "v_c"],
        [("e_1", "v_a", "v_b", 3, 5), ("e_2", "v_b", "v_c", 2, 3),
         ("e_3", "v_a", "v_c", 2, 5)])


def f4_target() -> LabelledGraph:
    return LabelledGraph.build(
        ["u", "w"], [("s", "u", "w", 2, 2), ("l", "w", "w", 3, 5)])


def f4_source() -> LabelledGraph:
    return LabelledGraph.build(
        ["x", "y"],
        [("a", "x", "y", 1, 1), ("b", "x", "y", 1, 1), ("m", "y", "y", 3, 5)])


def f4_map() -> AdmissibleMap:
    return AdmissibleMap(
        f4_source(), f4_target(), {"x": "u", "y": "w"},
        {"a": ("s", True), "b": ("s", True), "m": ("l", True)},
        {"x": 2, "y": 2}, {"a": 1, "b": 1, "m": 2})


@pytest.fixture
def figures():
    return {"f1_7": f1(7), "f1_6": f1(6), "f2": f2(), "f3": f3(),
            "f4_target": f4_target(), "f4_source": f4_source()}


R2 = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7)])
R3 = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7),
                                 ("c", "v", "v", 11, 13)])


def distinct_labels(g: LabelledGraph) -> bool:
    """Are the labels at every vertex pairwise distinct, as canonical keys need?"""
    return all(len({g.label(d) for d in g.darts_at(v)}) == g.valence(v) for v in g.vertices)


def star_table(g: LabelledGraph) -> list[list[tuple[int, int, int]]]:
    """Row k lists the darts at the k-th vertex of g as (label, reverse label,
    position of the far vertex): the input of `decide._canonical_key`."""
    stars: list[list[tuple[int, int, int]]] = [[] for _ in g.vertices]
    for rec in g.edges:
        o, t = g.vertex_position[rec.origin], g.vertex_position[rec.terminus]
        stars[o].append((rec.label_origin, rec.label_terminus, t))
        stars[t].append((rec.label_terminus, rec.label_origin, o))
    return stars


def graph_key(g: LabelledGraph):
    """`_canonical_key` of the star table of g: (key, order) or None."""
    return _canonical_key(star_table(g))


def subdivided(g: LabelledGraph):
    """Each edge becomes a node joined to its two ends by the labels at those ends."""
    nx = pytest.importorskip("networkx")
    s = nx.MultiGraph()
    s.add_nodes_from(g.vertices, kind="vertex")
    for rec in g.edges:
        middle = ("edge", rec.name)
        s.add_node(middle, kind="edge")
        s.add_edge(rec.origin, middle, label=rec.label_origin)
        s.add_edge(rec.terminus, middle, label=rec.label_terminus)
    return s


def nx_isomorphic(g1: LabelledGraph, g2: LabelledGraph) -> bool:
    """Label-preserving, orientation-free isomorphism, decided by networkx.

    The independent oracle for every isomorphism in the tests; labels at a
    vertex may repeat.  networkx is used by the tests only, never by the
    package.
    """
    nx = pytest.importorskip("networkx")
    return nx.is_isomorphic(subdivided(g1), subdivided(g2),
                            node_match=nx.isomorphism.categorical_node_match("kind", None),
                            edge_match=nx.isomorphism.categorical_multiedge_match("label", None))


def is_label_preserving_isomorphism(g: LabelledGraph, h: LabelledGraph,
                                    vertex_map: dict, edge_map: dict) -> bool:
    """Bijective maps under which every edge of g lands on an edge of h with
    the same labels at the images of its ends, in either orientation."""
    if sorted(vertex_map) != sorted(g.vertices) or \
            sorted(vertex_map.values()) != sorted(h.vertices):
        return False
    if sorted(edge_map) != sorted(r.name for r in g.edges) or \
            sorted(edge_map.values()) != sorted(r.name for r in h.edges):
        return False
    for rec in g.edges:
        image = h.edge(edge_map[rec.name])
        ends = (vertex_map[rec.origin], vertex_map[rec.terminus],
                rec.label_origin, rec.label_terminus)
        if ends not in ((image.origin, image.terminus, image.label_origin, image.label_terminus),
                        (image.terminus, image.origin, image.label_terminus, image.label_origin)):
            return False
    return True


def witness_cases() -> dict[str, tuple[LabelledGraph, LabelledGraph, int]]:
    """Commensurable pairs with the witness degree bound each is searched to."""
    return {
        "bs23-circle": (bs(2, 3), circle_graph([(2, 3), (2, 3)]), 2),
        "bs35-cover": (bs(3, 5), voltage_cover(bs(3, 5), 3, {"e": (1, 2, 0)}).source, 3),
        "bs2m3-bs23": (bs(2, -3), bs(2, 3), 2),
        "r2-loops-swap": (voltage_cover(R2, 2, {"a": (1, 0), "b": (0, 1)}).source,
                          voltage_cover(R2, 2, {"a": (1, 0), "b": (1, 0)}).source, 2),
        "r2-swap-loops": (voltage_cover(R2, 2, {"a": (0, 1), "b": (1, 0)}).source,
                          voltage_cover(R2, 2, {"a": (1, 0), "b": (1, 0)}).source, 2),
        "r2-deg2-deg3": (voltage_cover(R2, 2, {"a": (1, 0), "b": (0, 1)}).source,
                         voltage_cover(R2, 3, {"a": (1, 2, 0), "b": (0, 2, 1)}).source, 3),
    }
