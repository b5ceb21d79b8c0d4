"""`classify` against the search it replaced: every subset of the candidate
2-plateaux tried as the branching locus, smallest subsets first.

The generated maps branch over many 2-plateaux at once.  A hub vertex c is
joined to blobs by edges labelled (2a, 2b); each blob is one vertex with an
odd loop, or two joined by an odd edge, each with an odd loop, so each blob
is an interior 2-plateau.  Terminal vertices may hang off c too.  The map
is the double cover branched over a chosen set of these plateaux, perturbed
by a voltage double cover or an odd-prime branched cover on top.
"""

import random
from collections import Counter
from itertools import combinations

import pytest

from gbs import (LabelledGraph, all_plateaux, analysis, branched_cover, check_inequalities,
                 classify, compose, minimal_plateaux, voltage_cover)
from gbs.analysis import MapClassification, _is_generalized_branched
from gbs.cli import main
from gbs.covering import _sheeted_cover, assert_admissible
from gbs.generate import generate_admissible_map
from gbs.suites import _map_config, exceptional_fixture_maps


def subset_search(m) -> MapClassification:
    """The classification of a map that is not an accordion, by trying every
    subset of the candidates."""
    candidates = [P for P in minimal_plateaux(m) if P.prime == 2]
    for r in range(len(candidates) + 1):
        for chosen in combinations(candidates, r):
            if _is_generalized_branched(m, chosen):
                if chosen:
                    return MapClassification("generalized-branched", branching_plateaux=chosen)
                return MapClassification("branched-2-cover-of-tree")
    return MapClassification("ordinary")


def is_accordion_shape(m) -> bool:
    return m.source.is_circle() and analysis._is_interval(m.target)


def double_cover_branched_over(g: LabelledGraph, plateaux):
    """`branched_cover` with p = 2 over several disjoint, pairwise non-adjacent
    2-plateaux at once."""
    inside = {v for P in plateaux for v in P.vertices}
    inside_edges = {name for P in plateaux for name in P.edges}

    def vertex_sheets(v):
        return (2, (0,)) if v in inside else (1, (1, 2))

    def edge_sheets(rec):
        if rec.name in inside_edges:
            return rec.label_origin, rec.label_terminus, 2, ((0, 0, 0),)
        o_in, t_in = rec.origin in inside, rec.terminus in inside
        return (rec.label_origin // 2 if o_in else rec.label_origin,
                rec.label_terminus // 2 if t_in else rec.label_terminus,
                1, ((i, 0 if o_in else i - 1, 0 if t_in else i - 1) for i in (1, 2)))

    return assert_admissible(_sheeted_cover(g, map(vertex_sheets, g.vertices),
                                            map(edge_sheets, g.edges)), "test cover")


def hub_map(seed: int):
    rng = random.Random(seed)

    def odd():
        return rng.choice((3, 5, 7, 9, 15)) * rng.choice((1, -1))

    def even():
        return 2 * rng.randint(1, 3) * rng.choice((1, -1))

    vertices, edges = ["c"], []
    for i in range(1, rng.randint(2, 7) + 1):
        vertices.append(f"b{i}")
        edges += [(f"h{i}", "c", f"b{i}", even(), even()),
                  (f"l{i}", f"b{i}", f"b{i}", rng.choice((1, -1, 3, 5, 9)), odd())]
        if rng.random() < 0.3:
            vertices.append(f"d{i}")
            edges += [(f"g{i}", f"b{i}", f"d{i}", odd(), odd()),
                      (f"m{i}", f"d{i}", f"d{i}", odd(), odd())]
    for j in range(1, rng.choice((0, 0, 1, 2)) + 1):
        vertices.append(f"t{j}")
        edges.append((f"s{j}", "c", f"t{j}", even(), rng.choice((2, 4, 2, 3))))
    target = LabelledGraph.build(vertices, edges)
    # a 2-plateau inside one blob or at a terminal vertex; never {c}
    plateaux = [P for P in all_plateaux(target).proper_plateaux
                if P.prime == 2 and "c" not in P.vertices]
    if rng.random() < 0.5:
        chosen = plateaux
    else:
        chosen = [P for P in plateaux if rng.random() < 0.7] or plateaux[:1]
    m = double_cover_branched_over(target, chosen)
    perturbation = rng.random()
    if perturbation < 0.2:
        loops = [r.name for r in m.source.edges if r.origin == r.terminus]
        m = compose(m, voltage_cover(m.source, 2, {
            r.name: (1, 0) if r.name == loops[0] else rng.choice(((0, 1), (1, 0)))
            for r in m.source.edges}))
    elif perturbation < 0.35:
        odd_plateaux = [P for P in all_plateaux(m.source).proper_plateaux if P.prime != 2]
        if odd_plateaux:
            m = compose(m, branched_cover(m.source, rng.choice(odd_plateaux)))
    return assert_admissible(m, "test map")


@pytest.fixture(scope="module")
def corpus():
    maps = [m for _, m in exceptional_fixture_maps()]
    maps += [generate_admissible_map(_map_config(seed)) for seed in range(1, 101)]
    maps += [hub_map(seed) for seed in range(1, 201)]
    return [m for m in maps if not is_accordion_shape(m)]


def test_classify_matches_the_subset_search(corpus):
    outcomes = Counter()
    for i, m in enumerate(corpus):
        expected = subset_search(m)
        assert classify(m) == expected, i
        if sum(P.prime == 2 for P in minimal_plateaux(m)) >= 4:
            outcomes["many"] += 1
            outcomes["many", expected.kind] += 1
    assert outcomes["many"] >= 50
    assert outcomes["many", "generalized-branched"] >= 20


@pytest.fixture
def branching_checks(monkeypatch):
    calls = []

    def spy(m, chosen):
        calls.append(chosen)
        return _is_generalized_branched(m, chosen)

    monkeypatch.setattr(analysis, "_is_generalized_branched", spy)
    return calls


def test_one_branching_check_per_map(corpus, branching_checks):
    for i, m in enumerate(corpus):
        classify(m)
        assert len(branching_checks) == 1, i
        if m.target.is_reduced():
            check_inequalities(m)
            assert len(branching_checks) == 2, i
        branching_checks.clear()


STAR_BLOBS = 22


def write_star(tmp_path) -> str:
    """A hub with 22 blobs, each a vertex with a (3, 5) loop, joined by (2, 2)
    edges; the double cover branched over every blob."""
    blobs = range(1, STAR_BLOBS + 1)
    target = ["vertex c", *(f"vertex b{i}" for i in blobs),
              *(f"edge h{i} c b{i} 2 2" for i in blobs),
              *(f"edge l{i} b{i} b{i} 3 5" for i in blobs)]
    source = ["vertex c1", "vertex c2", *(f"vertex b{i}" for i in blobs),
              *(f"edge h{i}_{j} c{j} b{i} 2 1" for i in blobs for j in (1, 2)),
              *(f"edge l{i} b{i} b{i} 3 5" for i in blobs)]
    star = ["map from source.gbs to target.gbs", "vmap c1 c 1", "vmap c2 c 1",
            *(f"vmap b{i} b{i} 2" for i in blobs),
            *(f"emap h{i}_{j} h{i} 1" for i in blobs for j in (1, 2)),
            *(f"emap l{i} l{i} 2" for i in blobs)]
    for name, lines in (("target.gbs", target), ("source.gbs", source), ("star.map", star)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    return str(tmp_path / "star.map")


def test_star_of_many_blobs_is_one_check(tmp_path, capsys, branching_checks):
    path = write_star(tmp_path)
    assert main(["cover", "classify", path]) == 0
    assert len(branching_checks) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"kind=generalized-branched exceptional=true size=- branching-plateaux={STAR_BLOBS}",
        *(f"p=2 vertices=b{i} edges=l{i}" for i in range(1, STAR_BLOBS + 1))]
    assert main(["cover", "audit", path]) == 0
    assert len(branching_checks) == 2
    assert capsys.readouterr().out.splitlines()[-1] == "audit=pass"
