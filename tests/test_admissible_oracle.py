"""`verify_admissible` against the per-dart check it replaced.

The reference below is the body `covering._check_admissible` had before it
read its facts from the edge records: it builds a `Dart` for every source
dart and asks the map and the graphs for its image, origin and label.  The
two must give the same verdict, field for field, on the suite maps, on the
covers of the `plateau-free-cover` suite, and on seeded single-field
mutations of them, which reach every kind of failure.
"""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

import dart_views as views
from gbs import AdmissibleMap, LabelledGraph, identity_map, suites
from gbs.covering import Verification, _check_admissible, _fail
from gbs.graph import Dart


def per_dart_check(m: AdmissibleMap) -> Verification:
    src, tgt = m.source, m.target
    vm, em = m.vertex_map, m.edge_map

    if set(vm) != set(src.vertices):
        return _fail("structure", "vertex-map", "vertex map must cover exactly the source vertices")
    if set(em) != {r.name for r in src.edges}:
        return _fail("structure", "edge-map", "edge map must cover exactly the source edges")
    for x in src.vertices:
        if not tgt.has_vertex(vm[x]):
            return _fail("structure", x, f"image vertex {vm[x]!r} is not in the target")
        mult = m.vertex_multiplicity.get(x)
        if not isinstance(mult, int) or mult <= 0:
            return _fail("structure", x, f"vertex multiplicity {mult!r} must be a positive integer")
    for rec in src.edges:
        image, _ = em[rec.name]
        if not tgt.has_edge(image):
            return _fail("structure", rec.name, f"image edge {image!r} is not in the target")
        mult = m.edge_multiplicity.get(rec.name)
        if not isinstance(mult, int) or mult <= 0:
            return _fail("structure", rec.name, f"edge multiplicity {mult!r} must be a positive integer")

    for rec in src.edges:
        for dart in (Dart(rec.name, True), Dart(rec.name, False)):
            if views.origin(tgt, views.map_dart(m, dart)) != vm[views.origin(src, dart)]:
                return _fail("incidence", rec.name,
                             "edge image is not incident to the images of its endpoints")

    for x in src.vertices:
        v = vm[x]
        mult_x = m.vertex_multiplicity[x]
        grouped: dict[Dart, list[Dart]] = {}
        for dart in views.darts_at(src, x):
            grouped.setdefault(views.map_dart(m, dart), []).append(dart)
        for target_dart in views.darts_at(tgt, v):
            label = views.label(tgt, target_dart)
            k = math.gcd(mult_x, abs(label))
            lifts = grouped.get(target_dart, [])
            if len(lifts) != k:
                return _fail("condition-star", f"{x}/{target_dart.render()}",
                             f"expected {k} lifts, found {len(lifts)}")
            want_label = label // k
            want_mult = mult_x // k
            for lift in lifts:
                if views.label(src, lift) != want_label:
                    return _fail("condition-star", f"{x}/{lift.render()}",
                                 f"lift label {views.label(src, lift)} differs from {want_label}")
                if m.edge_multiplicity[lift.edge] != want_mult:
                    return _fail("condition-star", f"{x}/{lift.edge}",
                                 f"lift multiplicity {m.edge_multiplicity[lift.edge]} "
                                 f"differs from {want_mult}")

    totals = {}
    for v in tgt.vertices:
        totals[v] = sum(m.vertex_multiplicity[x] for x in m.vertex_preimages[v])
    if len(set(totals.values())) > 1:
        low = min(totals, key=lambda v: (totals[v], tgt.vertex_position[v]))
        return _fail("total-multiplicity", low,
                     f"preimage multiplicities sum to {sorted(set(totals.values()))}")
    return Verification(True)


def with_isolated_point(m: AdmissibleMap) -> AdmissibleMap:
    """m with an isolated point added to the target and one over it, so that
    a multiplicity there can break the constant total and nothing else."""
    source = LabelledGraph(m.source.vertices + ("pt",), m.source.edges)
    target = LabelledGraph(m.target.vertices + ("pt",), m.target.edges)
    return AdmissibleMap(source, target, {**m.vertex_map, "pt": "pt"}, m.edge_map,
                         {**m.vertex_multiplicity, "pt": m.total_multiplicity()},
                         m.edge_multiplicity)


def relabelled(g: LabelledGraph, rng: random.Random) -> LabelledGraph:
    """g with one edge end carrying another nonzero label."""
    i = rng.randrange(len(g.edges))
    rec = g.edges[i]
    forward = rng.random() < 0.5
    old = rec.label_origin if forward else rec.label_terminus
    new = rng.choice([-old, 2 * old, old + 1 or 2, old - 1 or -2, 3 * old])
    rec = rec._replace(**{"label_origin" if forward else "label_terminus": new})
    return LabelledGraph(g.vertices, g.edges[:i] + (rec,) + g.edges[i + 1:])


def changed(table, key, value):
    out = dict(table)
    if value is None:
        del out[key]
    else:
        out[key] = value
    return out


def mutated(m: AdmissibleMap, rng: random.Random) -> AdmissibleMap:
    """m with one field changed."""
    fields = ["vertex_map", "vertex_multiplicity"]
    if m.source.edges:
        fields += ["edge_map", "edge_multiplicity", "source"]
    if m.target.edges:
        fields.append("target")
    field = rng.choice(fields)
    if field == "source":
        return replace(m, source=relabelled(m.source, rng))
    if field == "target":
        return replace(m, target=relabelled(m.target, rng))
    table = getattr(m, field)
    key = rng.choice(sorted(table))
    old = table[key]
    roll = rng.random()
    if field == "vertex_map":
        value = (None if roll < 0.1 else "ghost" if roll < 0.2
                 else rng.choice(m.target.vertices))
    elif field == "edge_map":
        image, same = old
        value = (None if roll < 0.1 else ("ghost", same) if roll < 0.2
                 else (image, not same) if roll < 0.6
                 else (rng.choice(m.target.edges).name, rng.random() < 0.5))
    else:
        value = (None if roll < 0.05 else rng.choice([0, -1]) if roll < 0.1
                 else rng.choice([1, 2, 3, 4, 6, old + 1, 2 * old, old // 2 or 3]))
    return replace(m, **{field: changed(table, key, value)})


def verdict(result: Verification) -> tuple:
    return result.ok, result.kind, result.site, result.message


STAR_CHECKS = {"expected": "lift-count", "lift label": "lift-label",
               "lift multiplicity": "lift-multiplicity"}


def outcome(result: Verification) -> str:
    """The kind of a verdict, and for the star condition which of its checks failed."""
    if result.ok:
        return "admissible"
    if result.kind == "condition-star":
        return next(name for prefix, name in STAR_CHECKS.items()
                    if result.message.startswith(prefix))
    return result.kind


@pytest.fixture(scope="module")
def corpus(generated_maps, plateau_free_suite):
    """(fixtures and generated maps, with an isolated point on every tenth
    of them; the plateau-free covers)."""
    _, _, covers = plateau_free_suite
    small = [m for _, m in suites.exceptional_fixture_maps()] + list(generated_maps)
    small += [with_isolated_point(m) for m in small[::10]]
    return small, covers


def test_unmutated_maps_agree_and_are_admissible(corpus):
    small, covers = corpus
    assert (len(small), len(covers)) == (666, 100)
    for m in small + covers:
        assert verdict(_check_admissible(m)) == verdict(per_dart_check(m)) == (
            True, None, None, None)


def test_mutated_maps_agree(corpus):
    small, covers = corpus
    rng = random.Random(23)
    outcomes = Counter()
    for maps, rounds in ((small, 6), (covers, 2)):
        for m in maps:
            for _ in range(rounds):
                bad = mutated(m, rng)
                expected = per_dart_check(bad)
                assert verdict(_check_admissible(bad)) == verdict(expected)
                outcomes[outcome(expected)] += 1
    assert outcomes == {"admissible": 487, "structure": 450, "incidence": 677,
                        "lift-count": 397, "lift-label": 1441, "lift-multiplicity": 731,
                        "total-multiplicity": 13}


def test_non_constant_total_multiplicity_agrees():
    two_points = LabelledGraph.build(["u", "w"], [])
    m = replace(identity_map(two_points), vertex_multiplicity={"u": 1, "w": 2})
    assert verdict(_check_admissible(m)) == verdict(per_dart_check(m)) == (
        False, "total-multiplicity", "u", "preimage multiplicities sum to [1, 2]")
