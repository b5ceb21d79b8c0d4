"""Oracles for the tree pass, the one-scan `reduce`, the worklist refinement
and the slide-free test.

The references are the name-level routines these replaced, kept here: the
union-find and breadth-first tree on `Dart` views, the tree-path `Fraction`
product of `modulus`, the sign-change loop of `normalize_signs`, the collapse
loop of `reduce`, the round-based `stable_colorings` and the pairwise
`is_strongly_slide_free`.  networkx's Weisfeiler-Lehman hashes of the dart
subdivision are a second, independent partition oracle.  The slow inputs
that the old routines took seconds on are pinned with CPU-time gates.
"""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest

from conftest import bs, circle_graph, witness_cases
import dart_views as views
from gbs import (Dart, GeneratorConfig, LabelledGraph, commensurable, emit_graph,
                 generate_graph, stable_colorings, voltage_cover)
from gbs.cli import main
from gbs.decide import _prepared
from gbs.graph import MODULUS_LOOP_LIMIT

# -- the references -----------------------------------------------------------


def reference_tree(g: LabelledGraph):
    """The declaration-order union-find tree and its breadth-first walk from the
    first vertex: (tree edge names, walk order, parent dart of each vertex)."""
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = set()
    for rec in g.edges:
        a, b = find(rec.origin), find(rec.terminus)
        if a != b:
            parent[a] = b
            tree.add(rec.name)
    root = g.vertices[0]
    parent_dart, order = {}, [root]
    for v in order:
        for dart in views.darts_at(g, v):
            w = views.terminus(g, dart)
            if dart.edge in tree and w != root and w not in parent_dart:
                parent_dart[w] = dart  # runs parent -> child
                order.append(w)
    return frozenset(tree), order, parent_dart


def reference_modulus(g: LabelledGraph) -> list[tuple[tuple[Dart, ...], Fraction]]:
    """Each non-tree edge's loop through the tree and the product of its label ratios."""
    tree, order, parent_dart = reference_tree(g)
    depth = {order[0]: 0}
    for v in order[1:]:
        depth[v] = depth[views.origin(g, parent_dart[v])] + 1
    entries = []
    for rec in g.edges:
        if rec.name in tree:
            continue
        a, b, up_a, up_b = rec.terminus, rec.origin, [], []
        while a != b:
            if depth[a] >= depth[b]:
                up_a.append(parent_dart[a].reverse())
                a = views.origin(g, parent_dart[a])
            else:
                up_b.append(parent_dart[b].reverse())
                b = views.origin(g, parent_dart[b])
        loop = [Dart(rec.name, True)] + up_a + [d.reverse() for d in reversed(up_b)]
        value = Fraction(1)
        for dart in loop:
            value *= Fraction(views.label(g, dart), views.label(g, dart.reverse()))
        entries.append((tuple(loop), value))
    return entries


def reference_normalize(g: LabelledGraph) -> LabelledGraph:
    """One sign change at a time down the tree, then on the other edges."""
    tree, order, parent_dart = reference_tree(g)
    h = g
    for v in order[1:]:
        dart = parent_dart[v]
        if views.label(h, dart) < 0:
            h = h.sign_change_edge(dart.edge)
        if views.label(h, dart.reverse()) < 0:
            h = h.sign_change_vertex(v)
    for name in [r.name for r in g.edges if r.name not in tree]:
        if h.edge(name).label_origin < 0 and h.edge(name).label_terminus < 0:
            h = h.sign_change_edge(name)
    return h


def reference_reduce(g: LabelledGraph) -> LabelledGraph:
    """Collapse the first collapsible edge and rewrite every other record, until none is left."""
    verts = list(g.vertices)
    recs = {r.name: [r.origin, r.terminus, r.label_origin, r.label_terminus] for r in g.edges}
    while True:
        target = next((name for name, (o, t, lo, lt) in recs.items()
                       if o != t and (abs(lo) == 1 or abs(lt) == 1)), None)
        if target is None:
            return LabelledGraph.build(verts, [(name, *fields) for name, fields in recs.items()])
        o, t, lo, lt = recs.pop(target)
        dying, surviving = (o, t) if abs(lo) == 1 else (t, o)
        for fields in recs.values():
            for end in (0, 1):
                if fields[end] == dying:
                    fields[end] = surviving
                    fields[2 + end] *= lo * lt
        verts.remove(dying)


def reference_colorings(graphs: list[LabelledGraph]) -> list[dict[str, str]]:
    """Global rounds of descriptor sorting, every class renamed in each round."""
    keys = [(i, v) for i, g in enumerate(graphs) for v in g.vertices]
    color = {key: "" for key in keys}
    classes = 1
    while True:
        descriptors = {}
        for i, v in keys:
            g = graphs[i]
            star = tuple(sorted((views.label(g, d), views.label(g, d.reverse()),
                                 color[(i, views.terminus(g, d))]) for d in views.darts_at(g, v)))
            descriptors[(i, v)] = (color[(i, v)], star)
        names = {desc: f"c{j}" for j, desc in enumerate(sorted(set(descriptors.values())))}
        refined = {key: names[descriptors[key]] for key in keys}
        if len(names) == classes:
            return [{v: refined[(i, v)] for v in g.vertices} for i, g in enumerate(graphs)]
        color, classes = refined, len(names)


def wl_colorings(graphs: list[LabelledGraph]) -> list[dict[str, str]]:
    """networkx Weisfeiler-Lehman hashes of the graphs' joint dart subdivision:
    a node per vertex, a node per dart carrying its label, joined to its origin
    and to its reverse dart.  Hashes only refine, so enough rounds give the
    coarsest stable partition, restricted to the vertices."""
    nx = pytest.importorskip("networkx")
    s = nx.Graph()
    for i, g in enumerate(graphs):
        s.add_nodes_from(((i, "v", v) for v in g.vertices), kind="vertex")
        for rec in g.edges:
            ends = (i, "d", rec.name, 0), (i, "d", rec.name, 1)
            s.add_node(ends[0], kind=str(rec.label_origin))
            s.add_node(ends[1], kind=str(rec.label_terminus))
            s.add_edges_from([((i, "v", rec.origin), ends[0]), ((i, "v", rec.terminus), ends[1]),
                              ends])
    rounds = 3 * sum(len(g.vertices) for g in graphs) + 3
    hashes = nx.weisfeiler_lehman_subgraph_hashes(s, node_attr="kind", iterations=rounds)
    return [{v: hashes[(i, "v", v)][-1] for v in g.vertices} for i, g in enumerate(graphs)]


def by_first_appearance(colorings: list[dict[str, str]]) -> list[dict[str, str]]:
    """The same partition, its colors renamed c0, c1, ... in order of first appearance."""
    names: dict[str, str] = {}
    return [{v: names.setdefault(c, f"c{len(names)}") for v, c in coloring.items()}
            for coloring in colorings]


def reference_slide_free(g: LabelledGraph) -> bool:
    """Every ordered pair of darts at each vertex: no label divides the other."""
    return not any(views.label(g, e) % views.label(g, d) == 0 for v in g.vertices
                   for d, e in permutations(views.darts_at(g, v), 2))


# -- the corpus ---------------------------------------------------------------

SIGNED = (1, -1, 2, -2, 3, -3, 4, 5, -6, 7)


def random_graph(rng: random.Random, labels=SIGNED, max_vertices=7, max_extra=6):
    """A connected graph: a random tree plus loops and parallel or other extra
    edges, each randomly oriented, vertices and edges in a shuffled order."""
    n = rng.randint(1, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    ends = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    ends += [(rng.choice(vertices), rng.choice(vertices))
             for _ in range(rng.randint(0, max_extra))]
    ends = [pair[::-1] if rng.random() < 0.5 else pair for pair in ends]
    rng.shuffle(ends)
    rng.shuffle(vertices)
    return LabelledGraph.build(vertices, [(f"e{j}", o, t, rng.choice(labels), rng.choice(labels))
                                          for j, (o, t) in enumerate(ends)])


# unreduced graphs with labels +-1, and the package's own reduced ones
GRAPHS = [random_graph(random.Random(seed)) for seed in range(500)] + [
    generate_graph(GeneratorConfig(seed, max_vertices=7, max_edges=11, max_label_magnitude=12))
    for seed in range(1, 201)]


def random_pair(seed: int) -> list[LabelledGraph]:
    """Two graphs to refine jointly: one over few labels, so that classes repeat,
    with a cover of it (possibly disconnected), another such graph or a cycle."""
    rng = random.Random(f"pair-{seed}")
    few = (2, 3, -2, 5)
    g = random_graph(rng, few, max_vertices=5, max_extra=4)
    kind = seed % 3
    if kind == 0:
        degree = rng.randint(2, 3)
        h = voltage_cover(g, degree, {rec.name: rng.sample(range(degree), degree)
                                      for rec in g.edges}).source
    elif kind == 1:
        h = random_graph(rng, few, max_vertices=5, max_extra=4)
    else:
        h = circle_graph([rng.choice([(3, 2), (3, 2), (5, 7), (2, -3)])
                          for _ in range(rng.randint(1, 9))])
    return [g, h]


PAIRS = [random_pair(seed) for seed in range(400)]


def mismatches() -> dict[str, list[int]]:
    """The corpus graphs, by position, on which each move disagrees with its reference."""
    found = {"entries": [], "values": [], "signs": [], "normalize": [], "subtree": []}
    for k, g in enumerate(GRAPHS):
        expected, modulus = reference_modulus(g), g.modulus()
        if [(e.loop, e.value) for e in modulus.entries] != expected:
            found["entries"].append(k)
        values = [value for _, value in expected]
        if (modulus.values(), modulus.is_trivial(), modulus.is_unimodular()) != (
                values, all(x == 1 for x in values), all(abs(x) == 1 for x in values)):
            found["values"].append(k)
        if modulus.takes_negative_value() != any(x < 0 for x in values):
            found["signs"].append(k)
        if g.normalize_signs() != reference_normalize(g):
            found["normalize"].append(k)
        if g.maximal_subtree() != reference_tree(g)[0]:
            found["subtree"].append(k)
    return found


# -- the oracles ----------------------------------------------------------------


def test_the_corpus_has_negative_labels_loops_cycles_and_unreduced_graphs():
    assert sum(any(x < 0 for r in g.edges for x in r[3:]) for g in GRAPHS) > 400
    assert sum(any(r.is_loop for r in g.edges) for g in GRAPHS) > 200
    assert sum(g.modulus().takes_negative_value() for g in GRAPHS) > 100
    assert sum(len(g.modulus().values()) >= 3 for g in GRAPHS) > 100
    assert sum(not g.is_reduced() for g in GRAPHS) > 300


def test_the_tree_pass_agrees_with_the_references():
    assert mismatches() == {"entries": [], "values": [], "signs": [], "normalize": [],
                            "subtree": []}


def test_normalize_returns_the_graph_itself_when_no_sign_changes():
    for g in GRAPHS:
        normalized = g.normalize_signs()
        assert (normalized is g) == (normalized == g)


@pytest.mark.parametrize("potential", ["_negative", "_potentials"])
def test_a_planted_sign_flip_fails_the_oracles(monkeypatch, potential):
    # the walk's last vertex gets the wrong sign: in its parity potential, which
    # the signs and `normalize_signs` read, or in its `Fraction` potential
    real = getattr(LabelledGraph, potential)

    def planted(g, *args):
        values = real(g, *args)
        last = g._tree[1][-1]
        if potential == "_negative":
            values[last] ^= 1
        elif isinstance(args[0], Fraction):
            values[last] = -values[last]
        return values

    monkeypatch.setattr(LabelledGraph, potential, planted)
    found = mismatches()
    failing = ["signs", "normalize"] if potential == "_negative" else ["entries", "values"]
    assert all(found[name] for name in failing), found


def test_reduce_agrees_with_the_collapse_loop():
    for g in GRAPHS:
        expected = reference_reduce(g)
        reduced = g.reduce()
        assert reduced == expected
        assert (reduced is g) == (expected == g)


def test_the_pairs_have_loops_covers_and_disconnected_color_classes():
    def disconnected_classes(g: LabelledGraph, coloring: dict[str, str]) -> int:
        count = 0
        for color in set(coloring.values()):
            inside = {v for v in g.vertices if coloring[v] == color}
            kept = {r.name for r in g.edges if r.origin in inside and r.terminus in inside}
            count += len(list(g.subgraph_components(kept, sorted(inside)))) > 1
        return count

    colorings = [stable_colorings(pair) for pair in PAIRS]
    assert sum(any(r.is_loop for g in pair for r in g.edges) for pair in PAIRS) > 150
    assert sum(len(set(c[0].values()) | set(c[1].values())) >= 3 for c in colorings) > 100
    assert sum(bool(set(c[0].values()) & set(c[1].values())) for c in colorings) > 100
    assert sum(disconnected_classes(g, c) for pair, cs in zip(PAIRS, colorings)
               for g, c in zip(pair, cs)) > 100


def test_the_worklist_partition_is_the_round_based_one_named_by_first_appearance():
    for pair in PAIRS:
        assert stable_colorings(pair) == by_first_appearance(reference_colorings(pair))
    # and on the cycle family of the slow-input gate, at small sizes
    for n in range(1, 40):
        pair = [cycle(n), cycle(n + 1)]
        assert stable_colorings(pair) == by_first_appearance(reference_colorings(pair))


def test_the_worklist_partition_is_the_weisfeiler_lehman_one():
    for pair in PAIRS:
        assert stable_colorings(pair) == by_first_appearance(wl_colorings(pair))


# -- commensurable on the index ---------------------------------------------------


def test_commensurable_builds_no_dart_view(dart_constructions):
    for g1, g2, degree in witness_cases().values():
        assert commensurable(g1, g2, witness_max_degree=degree).witness is not None
    assert dart_constructions == []


def test_commensurable_checks_no_graph(monkeypatch):
    # the reduced, covered and normalized graphs are built trusted or not at all
    checked, real, cases = [], LabelledGraph.__post_init__, witness_cases()

    def checking(g):
        checked.append(g)
        real(g)

    monkeypatch.setattr(LabelledGraph, "__post_init__", checking)
    for g1, g2, degree in cases.values():
        commensurable(g1, g2, witness_max_degree=degree)
    assert checked == []


def test_an_unchanged_graph_keeps_its_memos():
    g = circle_graph([(2, 3), (3, 5)])
    assert g.reduce() is g and _prepared(g) is g
    assert _prepared(bs(-2, -3)) == bs(2, 3)
    doubled = _prepared(bs(2, -3))
    assert [(r.label_origin, r.label_terminus) for r in doubled.edges] == [(2, 3), (2, 3)]


def bouquet(labels: list[int]) -> LabelledGraph:
    """One vertex with a loop per pair of consecutive labels."""
    return LabelledGraph.build(["v"], [(f"l{i}", "v", "v", labels[2 * i], labels[2 * i + 1])
                                       for i in range(len(labels) // 2)])


def test_slide_free_agrees_with_the_pairwise_test():
    """The corpus, and bouquets whose labels share primes without dividing each
    other (6, 10, 15, ...), so that the gcd screen passes labels that divide none."""
    rng = random.Random(37)
    shared = [a * b for a, b in permutations((2, 3, 5, 7, 11), 2)] + [1, -1, 4, 9, 13]
    bouquets = [bouquet([rng.choice(shared) for _ in range(2 * rng.randint(1, 5))])
                for _ in range(300)]
    seen = Counter()
    for g in GRAPHS + bouquets:
        expected = reference_slide_free(g)
        assert g.is_strongly_slide_free() == expected, g
        seen[expected, len(g.vertices) == 1] += 1
    assert min(seen.values()) >= 30 and len(seen) == 4, seen


# -- the slow inputs ------------------------------------------------------------------


def cpu_seconds(fn, *args):
    start = time.process_time()
    result = fn(*args)
    return result, time.process_time() - start


def cycle(n: int) -> LabelledGraph:
    """An n-cycle of (3, 2) edges closed by one (5, 7) edge."""
    return circle_graph([(3, 2)] * (n - 1) + [(5, 7)])


def parallel_ends(n: int) -> LabelledGraph:
    """A path of n vertices with (1, 1) edges and n parallel (2, 3) edges joining its ends."""
    vertices = [f"v{i}" for i in range(n)]
    return LabelledGraph.build(vertices, [(f"p{i}", vertices[i], vertices[i + 1], 1, 1)
                                          for i in range(n - 1)]
                               + [(f"x{j}", vertices[0], vertices[-1], 2, 3) for j in range(n)])


def test_modulus_values_of_the_long_loops_are_quick():
    g = parallel_ends(1500)  # about 90 KB as text
    values, seconds = cpu_seconds(lambda: g.modulus().values())
    assert values == [Fraction(2, 3)] * 1500
    assert seconds < 0.5


def test_gbs_modulus_refuses_loops_past_the_limit_before_building_them(tmp_path, capsys):
    path = tmp_path / "long.gbs"
    path.write_text(emit_graph(parallel_ends(1500)))
    code, seconds = cpu_seconds(main, ["modulus", str(path)])
    assert code == 2 and seconds < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the modulus loops could hold 2250000 darts, above the limit "
                   f"{MODULUS_LOOP_LIMIT}\n")
    # 66 vertices give 66 loops of at most 66 darts: 4356, under the limit
    path.write_text(emit_graph(parallel_ends(66)))
    assert main(["modulus", str(path)]) == 0
    assert capsys.readouterr().out.count("loop=") == 66


def test_gbs_normalize_on_a_long_negative_cycle_is_quick_and_unchanged(tmp_path, capsys):
    path = tmp_path / "cycle.gbs"
    path.write_text(emit_graph(circle_graph([(-2, 3)] * 2000)))
    code, seconds = cpu_seconds(main, ["normalize", str(path)])
    assert code == 0 and seconds < 0.5
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "257085a7e25a6f07df8b6ee51c917ddacd670473dec7359e423837cba88b2e40"


def test_reduce_on_a_long_path_is_quick():
    n = 32_000
    vertices = [f"v{i}" for i in range(n)]
    g = LabelledGraph.build(vertices, [("l", "v0", "v0", 3, 5)] + [
        (f"p{i}", vertices[i], vertices[i + 1], 2, 1) for i in range(n - 1)])
    reduced, seconds = cpu_seconds(g.reduce)
    assert reduced == LabelledGraph.build(["v0"], [("l", "v0", "v0", 3, 5)])
    assert seconds < 1


def test_commensurable_on_long_cycles_is_quick():
    # periodic label sequences of periods 2000 and 2001 share no vertex color
    verdict, seconds = cpu_seconds(commensurable, cycle(2000), cycle(2001))
    assert verdict.answer == "not-commensurable"
    assert seconds < 1
    assert commensurable(cycle(2000), cycle(2000)).answer == "commensurable"


def test_a_long_cycle_pair_is_refined_quickly():
    pair = [cycle(32_000), cycle(32_001)]
    colorings, seconds = cpu_seconds(stable_colorings, pair)
    # each cycle's vertices are told apart by their distances to the (5, 7) edge
    assert [len(set(c.values())) for c in colorings] == [32_000, 32_001]
    assert seconds < 5


def test_slide_free_on_a_wide_bouquet_is_quick():
    primes = [p for p in range(2, 40_000) if all(p % q for q in range(2, isqrt(p) + 1))]
    wide = bouquet(primes[:4000])  # 2,000 loops, every label a distinct prime
    verdict, seconds = cpu_seconds(wide.is_strongly_slide_free)
    assert verdict and seconds < 0.5
    assert not bouquet(primes[:3998] + [2, 3 * primes[3000]]).is_strongly_slide_free()
