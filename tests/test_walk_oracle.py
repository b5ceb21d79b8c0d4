"""`subgraph_components` against a plain name-level walk.

The reference below is the body `LabelledGraph.subgraph_components` had
before it read the integer dart index: it walks vertex names with a stack
and a set of seen names, reading the darts at each vertex from the edge
records in declaration order.  It keeps that stack discipline (a queue would
visit the vertices of a component in another order), so the two must yield
the same components in the same order, each with its vertices in the same
order and the same edges, on seeded graphs with loops, parallel edges and
several components, for `keep` subsets and `starts` lists with repeated and
unknown vertices.  An unknown start raises the same `InputError` after the
same components.
"""

import random
from collections import Counter

from gbs import InputError, LabelledGraph


def name_walk(g, keep=None, starts=None):
    darts_at = {v: [] for v in g.vertices}
    for rec in g.edges:
        darts_at[rec.origin].append((rec.name, True))
        darts_at[rec.terminus].append((rec.name, False))
    records = {rec.name: rec for rec in g.edges}
    seen = set()
    for start in g.vertices if starts is None else starts:
        if start in seen:
            continue
        if start not in darts_at:
            raise InputError(f"unknown vertex {start!r}")
        comp, walked, frontier = [start], set(), [start]
        seen.add(start)
        while frontier:
            for name, forward in darts_at[frontier.pop()]:
                if keep is not None and name not in keep:
                    continue
                walked.add(name)
                rec = records[name]
                w = rec.terminus if forward else rec.origin
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    frontier.append(w)
        yield tuple(comp), frozenset(walked)


def random_graph(rng: random.Random) -> LabelledGraph:
    """Up to 7 vertices and 10 edges between random ends: loops, parallel
    edges and several components all occur."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    edges = [(f"e{j}", rng.choice(vertices), rng.choice(vertices),
              rng.choice([-3, 2, 5, 6]), rng.choice([-2, 3, 4, 7]))
             for j in range(rng.randint(0, 10))]
    return LabelledGraph.build(vertices, edges)


def random_keep(rng: random.Random, g: LabelledGraph):
    if rng.random() < 0.2:
        return None
    names = [rec.name for rec in g.edges if rng.random() < 0.6]
    return rng.choice([set(names), frozenset(names), tuple(names)])


def random_starts(rng: random.Random, g: LabelledGraph):
    if rng.random() < 0.2:
        return None
    starts = [rng.choice(g.vertices) for _ in range(rng.randint(0, 9))]  # repeats
    if rng.random() < 0.25:
        starts.insert(rng.randint(0, len(starts)), "ghost")
    return starts


def yields(walk):
    """What a walk yields, and the message of the InputError that ends it, if any."""
    out = []
    try:
        out.extend(walk)
    except InputError as refusal:
        out.append(str(refusal))
    return out


def test_index_walk_matches_the_name_walk():
    rng = random.Random(5)
    seen = Counter()
    for _ in range(600):
        g = random_graph(rng)
        keep, starts = random_keep(rng, g), random_starts(rng, g)
        expected = yields(name_walk(g, keep, starts))
        assert yields(g.subgraph_components(keep, starts)) == expected, (g, keep, starts)
        seen["loop"] += any(rec.is_loop for rec in g.edges)
        seen["parallel"] += len({frozenset((r.origin, r.terminus)) for r in g.edges
                                 if not r.is_loop}) < sum(not r.is_loop for r in g.edges)
        seen["several components"] += sum(isinstance(y, tuple) for y in expected) > 1
        seen["repeated start"] += starts is not None and len(set(starts)) < len(starts)
        seen["unknown start"] += expected[-1:] == ["unknown vertex 'ghost'"]
        seen["components before the refusal"] += expected[-1:] == [
            "unknown vertex 'ghost'"] and len(expected) > 1
    assert min(seen.values()) >= 20, seen


def test_unknown_start_message_is_unchanged():
    g = LabelledGraph.build(["a", "b", "c"], [("x", "a", "b", 2, 3)])
    walk = g.subgraph_components(starts=["a", "a", "nowhere", "c"])
    assert next(walk) == (("a", "b"), frozenset({"x"}))
    try:
        next(walk)
    except InputError as refusal:
        assert str(refusal) == "unknown vertex 'nowhere'"
    else:
        raise AssertionError("an unknown start was not refused")
