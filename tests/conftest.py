from collections import Counter

import pytest

import dart_views as views
from gbs import (AdmissibleMap, Dart, LabelledGraph, covering, generate_admissible_map,
                 plateau_free_cover, run_suite, stable_colorings, suites, verify_admissible,
                 voltage_cover)
from gbs.decide import _smallest_common_cover


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
def graph_builds(monkeypatch):
    """Every `LabelledGraph` built from here on, checked or trusted, in build order."""
    built = []
    real_check, real_trusted = LabelledGraph.__post_init__, LabelledGraph._trusted.__func__

    def checked(graph):
        built.append(graph)
        real_check(graph)

    def trusted(cls, *args):
        built.append(real_trusted(cls, *args))
        return built[-1]

    monkeypatch.setattr(LabelledGraph, "__post_init__", checked)
    monkeypatch.setattr(LabelledGraph, "_trusted", classmethod(trusted))
    return built


@pytest.fixture
def dart_constructions(monkeypatch):
    """The arguments of every `Dart` constructed from here on, in order."""
    made, real = [], Dart.__new__

    def constructing(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Dart, "__new__", staticmethod(constructing))
    return made


@pytest.fixture
def figures():
    return {"f1_7": f1(7), "f1_6": f1(6), "f2": f2(), "f3": f3(),
            "f4_target": f4_target(), "f4_source": f4_source()}


R2 = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7)])
R3 = LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7),
                                 ("c", "v", "v", 11, 13)])


def cyclic_cover(n: int, turned: str = "a") -> LabelledGraph:
    """The n-sheeted cyclic cover of R2 whose loop `turned` moves sheet i to i + 1."""
    turn = [(i + 1) % n for i in range(n)]
    return voltage_cover(R2, n, {e: turn if e == turned else range(n) for e in ("a", "b")}).source


# the golden plateau-free cover target: labels over the primes 2, 3, 5 and 7
THREE_PRIMES = LabelledGraph.build(
    ["a", "b", "c"],
    [("e", "a", "b", 4, 3), ("f", "b", "c", 2, 9), ("l", "a", "a", 5, 7)])


def distinct_labels(g: LabelledGraph) -> bool:
    """Are the labels at every vertex pairwise distinct, as the fibre-product walk needs?"""
    return all(len({views.label(g, d) for d in views.darts_at(g, v)}) == g.valence(v) for v in g.vertices)


def walk_isomorphism(g: LabelledGraph, h: LabelledGraph):
    """Vertex and edge bijections from g onto h, read off a common cover of
    degrees 1 and 1 from the fibre-product walk; None if g and h are not
    isomorphic.  Both graphs must be connected, with distinct labels at
    every vertex."""
    found = _smallest_common_cover(g, h, *stable_colorings([g, h]), 1)
    if found is None:
        return None
    first, second = found
    return ({first.vertex_map[x]: second.vertex_map[x] for x in first.source.vertices},
            {first.edge_map[r.name][0]: second.edge_map[r.name][0] for r in first.source.edges})


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
    asymmetric = voltage_cover(R2, 3, {"a": (1, 0, 2), "b": (0, 2, 1)}).source
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
        # a cover without automorphisms against itself, its vertex order rotated:
        # the first walk finds the 6 off-diagonal pairs, the smallest is the diagonal
        "r2-asymmetric-rotated": (asymmetric, LabelledGraph(
            asymmetric.vertices[1:] + asymmetric.vertices[:1], asymmetric.edges), 2),
        # two components of the least size, 8, pass lcm(4, 4): the first one is kept
        "r2-tied-components": (
            voltage_cover(R2, 4, {"a": (2, 3, 0, 1), "b": (0, 1, 3, 2)}).source,
            voltage_cover(R2, 4, {"a": (1, 2, 3, 0), "b": (0, 3, 2, 1)}).source, 2),
    }


def checked(fn, seen: Counter, connected: bool = False):
    """Wrap a private step so that every map it returns is verified."""
    def spy(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is not None:
            outcome = verify_admissible(result)
            assert outcome, f"{fn.__name__}: {outcome.render()}"
            assert not connected or result.source.is_connected(), fn.__name__
            seen[fn.__name__] += 1
        return result
    return spy


@pytest.fixture(scope="session")
def plateau_free_suite():
    """The `plateau-free-cover` suite at count 100 and seed 1, run once with
    every cover of the private builder verified and checked connected:
    (report, verified covers by function name, the suite's plateau-free covers)."""
    seen, covers = Counter(), []

    def recording(g, **kwargs):
        covers.append(plateau_free_cover(g, **kwargs))
        return covers[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(covering, "_prime_power_cover",
                      checked(covering._prime_power_cover, seen, connected=True))
        patch.setattr(suites, "plateau_free_cover", recording)
        report = run_suite("plateau-free-cover", count=100, base_seed=1)
    return report, seen, covers


@pytest.fixture(scope="session")
def generated_maps():
    """The maps of the three map suites at seeds 1-600."""
    return [generate_admissible_map(suites._map_config(seed)) for seed in range(1, 601)]
