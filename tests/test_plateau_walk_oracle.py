"""`plateau._walk` against the walk it replaced.

The reference below is the body `_walk` had before its walk stopped at the
frontier: it starts from every vertex that is not a frontier vertex, walks
each candidate to the end, and only then drops the ones that hold a frontier
vertex.  The walk now starts only from the vertices that carry a divisible
dart and from the first vertex of each component of g, drops a candidate at
the first frontier vertex it reaches, and sorts what is left by least vertex
index.  The two must give the same plateaux in the same order for every
prime's mask: on generated graphs, on disconnected unions of two of them, on
graphs where a plateau's least vertex carries no divisible dart, and on the
graphs and covers of the `plateau-free-cover` benchmark corpus.  Over the
covers of a suite run, the new walk must reach at most half the vertices.
The reference reads a prime's mask; `_walk` is handed the darts it marks.
"""

import random
from itertools import compress

import pytest

from gbs import (GeneratorConfig, InputError, LabelledGraph, generate_graph, label_primes,
                 plateau_free_cover, run_suite, suites)
from gbs.plateau import _walk


def rooted_walk(g: LabelledGraph, divisible: bytes):
    """`_walk` with a root at every non-frontier vertex and no stops."""
    heads = g._index[1]
    kept, frontier = bytearray(b"\1" * len(divisible)), set()
    for d in compress(range(len(divisible)), divisible):
        kept[d] = kept[d ^ 1] = 0
        if not divisible[d ^ 1]:
            frontier.add(heads[d ^ 1])
    out = []
    for comp in g._component_walk(kept, (v for v in range(len(g.vertices))
                                         if v not in frontier)):
        if not frontier.isdisjoint(comp):
            continue
        edges = g._kept_edges(comp, kept)
        if len(comp) < len(g.vertices) or len(edges) < len(g.edges):
            out.append((frozenset(g.vertices[v] for v in comp),
                        frozenset(g.edges[i].name for i in edges)))
    return out


def prime_masks(g: LabelledGraph):
    """The divisible darts of each label prime of g, one mask per prime."""
    return [bytes(label % p == 0 for label in g._index[0]) for p in label_primes(g)]


def divisible_darts(mask: bytes) -> tuple[int, ...]:
    """The darts marked in `mask`, ascending: what `_walk` is handed."""
    return tuple(compress(range(len(mask)), mask))


def agree(g: LabelledGraph) -> int:
    """Asserts that the walks agree on every prime mask of g; the plateaux found."""
    found = 0
    for mask in prime_masks(g):
        plateaux = _walk(g, divisible_darts(mask))
        assert plateaux == rooted_walk(g, mask), (g, mask)
        found += len(plateaux)
    return found


def generated(count: int, seed: int = 0):
    for s in range(seed, seed + count):
        yield generate_graph(GeneratorConfig(seed=s, max_vertices=2 + s % 7,
                                             max_edges=1 + s % 10,
                                             max_label_magnitude=(12, 30, 60)[s % 3]))


def union(a: LabelledGraph, b: LabelledGraph) -> LabelledGraph:
    """a beside a copy of b with its names primed: a disconnected graph."""
    return LabelledGraph.build(
        a.vertices + tuple(v + "'" for v in b.vertices),
        [tuple(rec) for rec in a.edges]
        + [(rec.name + "'", rec.origin + "'", rec.terminus + "'", rec.label_origin,
            rec.label_terminus) for rec in b.edges])


def shuffled(g: LabelledGraph, seed: int) -> LabelledGraph:
    """g with its vertices declared in a seeded order: a generated graph declares
    each vertex after a neighbour, so there a plateau's least vertex carries a
    divisible dart or is the first vertex."""
    vertices = list(g.vertices)
    random.Random(seed).shuffle(vertices)
    return LabelledGraph(tuple(vertices), g.edges)


def benchmark_corpus():
    """The graphs of the `plateau-free-cover` benchmark corpus and their covers."""
    for seed in range(1, 125):
        g = generate_graph(GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                                           max_label_magnitude=60))
        yield g
        try:
            yield plateau_free_cover(g, size_limit=1500).source
        except InputError:
            continue


def least_vertex_without_divisible_dart(g: LabelledGraph) -> bool:
    """Does some plateau of a prime mask of g have a least vertex carrying no
    divisible dart, and a root other than the first vertex of g?"""
    heads = g._index[1]
    for mask in prime_masks(g):
        carrying = {heads[d] for d in compress(range(len(mask)), mask)}
        for vertices, _ in rooted_walk(g, mask):
            least = min(map(g.vertex_position.get, vertices))
            if least and least not in carrying:
                return True
    return False


class TestAgainstTheRootedWalk:
    def test_generated_graphs(self):
        graphs = list(generated(600))
        assert sum(map(agree, graphs)) > 500

    def test_disconnected_unions(self):
        graphs = list(generated(200, seed=1000))
        found = 0
        for a, b in zip(graphs, graphs[1:]):
            g = union(a, b)
            assert not g.is_connected()
            found += agree(g)
        assert found > 200

    def test_plateaux_whose_least_vertex_carries_no_divisible_dart(self):
        # the 2-plateau v1 - v4 is reached from v4, after v2 - v3 is reached from v2;
        # v1 carries the odd label 3 only, and v0 every dart of the even edges
        g = LabelledGraph.build(["v0", "v1", "v2", "v3", "v4"], [
            ("a", "v1", "v4", 3, 5), ("b", "v4", "v0", 2, 2), ("c", "v2", "v3", 3, 5),
            ("d", "v2", "v0", 4, 2)])
        assert [sorted(vertices) for vertices, _ in _walk(
            g, divisible_darts(prime_masks(g)[0]))] == [
            ["v0"], ["v1", "v4"], ["v2", "v3"]]
        assert least_vertex_without_divisible_dart(g)
        chosen = [h for seed, g in enumerate(generated(1000, seed=5000))
                  if least_vertex_without_divisible_dart(h := shuffled(g, seed))]
        assert len(chosen) > 100
        for g in [g, *chosen]:
            agree(g)

    def test_benchmark_corpus_graphs_and_covers(self):
        graphs = list(benchmark_corpus())
        assert len(graphs) > 200
        for g in graphs:
            agree(g)


@pytest.fixture
def suite_cover_sources(monkeypatch):
    covers = []

    def recording(g, **kwargs):
        covers.append(plateau_free_cover(g, **kwargs))
        return covers[-1]

    monkeypatch.setattr(suites, "plateau_free_cover", recording)
    assert run_suite("plateau-free-cover", 20, 1).ok
    return [m.source for m in covers if m.source is not m.target]


def test_the_stopping_walk_reaches_at_most_half(monkeypatch, suite_cover_sources):
    """Vertices reached: those of the components yielded, and those a dropped one
    reached, which the walk flags in `stops`; the rooted walk reaches every vertex
    of each component it walks."""
    reached = {"stopping": 0, "rooted": 0}
    real = LabelledGraph._component_walk

    def counting(self, mask, roots, stops=None):
        before = stops.count(1) if stops is not None else 0
        comps = list(real(self, mask, roots, stops))
        after = stops.count(1) if stops is not None else 0
        reached["stopping" if stops is not None else "rooted"] += (
            sum(map(len, comps)) + after - before)
        return iter(comps)

    monkeypatch.setattr(LabelledGraph, "_component_walk", counting)
    for g in suite_cover_sources:
        for mask in set(prime_masks(g)):
            assert _walk(g, divisible_darts(mask)) == rooted_walk(g, mask)
    assert reached["rooted"] > 1000
    assert 2 * reached["stopping"] <= reached["rooted"], reached
