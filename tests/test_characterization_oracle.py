"""`covering_characterizations` and `compose` against the name-level bodies
they had before a map kept integer tables.

The references below read every dart through `Dart` handles, `map_dart` and
the four name mappings; the package reads the map's tables and the dart
indices of its graphs.  The two must agree field for field on seeded maps of
every `suites.RECIPES` entry, coverings and non-coverings alike, on the `f4`
fixture and on identity maps, and on the composites of generated chains.  An
orientation bit flipped in the tables alone must make each pair disagree.
"""

import math
from collections import Counter

import pytest

from conftest import f3, f4_map, f4_source, f4_target
import dart_views as views
from gbs import (AdmissibleMap, EdgeRecord, GeneratorConfig, LabelledGraph, compose,
                 covering_characterizations, generate, generate_admissible_map, identity_map,
                 suites, verify_admissible)


def name_level_characterizations(m: AdmissibleMap) -> dict[str, bool]:
    src, tgt = m.source, m.target

    def local_gcd(x, target_dart):
        return math.gcd(m.vertex_multiplicity[x], abs(views.label(tgt, target_dart)))

    local_bijection = all(sorted(views.map_dart(m, d) for d in views.darts_at(src, x))
                          == sorted(views.darts_at(tgt, m.vertex_map[x])) for x in src.vertices)
    unit_gcds = all(local_gcd(x, td) == 1
                    for x in src.vertices
                    for td in views.darts_at(tgt, m.vertex_map[x]))
    label_preserving = all(views.label(src, d) == views.label(tgt, views.map_dart(m, d))
                           for d in views.darts(src))
    constant_multiplicity = all(
        len({m.vertex_multiplicity[x] for x in vertices}
            | {m.edge_multiplicity[name] for name in edges}) == 1
        for vertices, edges in src.subgraph_components())
    return {
        "local-bijection": local_bijection,
        "unit-gcds": unit_gcds,
        "label-preserving": label_preserving,
        "constant-multiplicity": constant_multiplicity,
    }


def name_level_composite(outer: AdmissibleMap, inner: AdmissibleMap) -> tuple[dict, ...]:
    """The four name mappings of the composite of inner: K -> H with outer: H -> G."""
    vm = {x: outer.vertex_map[inner.vertex_map[x]] for x in inner.source.vertices}
    em = {}
    for rec in inner.source.edges:
        mid, same1 = inner.edge_map[rec.name]
        out, same2 = outer.edge_map[mid]
        em[rec.name] = (out, same1 == same2)
    vmult = {x: inner.vertex_multiplicity[x]
             * outer.vertex_multiplicity[inner.vertex_map[x]]
             for x in inner.source.vertices}
    emult = {rec.name: inner.edge_multiplicity[rec.name]
             * outer.edge_multiplicity[inner.edge_map[rec.name][0]]
             for rec in inner.source.edges}
    return vm, em, vmult, emult


def names(m: AdmissibleMap) -> tuple[dict, ...]:
    return (dict(m.vertex_map), dict(m.edge_map), dict(m.vertex_multiplicity),
            dict(m.edge_multiplicity))


def plant_flip(m: AdmissibleMap) -> None:
    """Flip, in m's tables only, the orientation of its first edge whose image is
    no loop with equal labels, so that the flip changes what the map is."""
    names(m)  # the name views are made from the true tables first
    vertex_image, dart_image, vertex_mult, edge_mult = m._tables
    i = next(i for i in range(len(edge_mult))
             if not (rec := m.target.edges[dart_image[2 * i] >> 1]).is_loop
             or rec.label_origin != rec.label_terminus)
    flipped = list(dart_image)
    flipped[2 * i] ^= 1
    flipped[2 * i + 1] ^= 1
    m.__dict__["_tables"] = (vertex_image, tuple(flipped), vertex_mult, edge_mult)


def every_other_reversed(g: LabelledGraph) -> LabelledGraph:
    """g with its first, third, ... edge turned around, labels and all."""
    return LabelledGraph(g.vertices, tuple(
        rec if i % 2 else EdgeRecord(rec.name, rec.terminus, rec.origin,
                                     rec.label_terminus, rec.label_origin)
        for i, rec in enumerate(g.edges)))


def reversal(g: LabelledGraph) -> AdmissibleMap:
    """The isomorphism of g onto `every_other_reversed(g)`, given by names: it
    reverses the orientation of every other edge."""
    return AdmissibleMap(g, every_other_reversed(g), {v: v for v in g.vertices},
                         {rec.name: (rec.name, i % 2 == 1) for i, rec in enumerate(g.edges)},
                         dict.fromkeys(g.vertices, 1), {rec.name: 1 for rec in g.edges})


SEEDS = range(1, 41)


@pytest.fixture(scope="module")
def recipe_maps():
    """Seeded maps of every recipe, with the fixtures, f4 and identity maps."""
    maps = [generate_admissible_map(GeneratorConfig(seed=seed, map_recipe=recipe))
            for recipe in suites.RECIPES for seed in SEEDS]
    maps += [m for _, m in suites.exceptional_fixture_maps()]
    maps += [f4_map(), identity_map(f4_target()), identity_map(f4_source()), identity_map(f3())]
    return maps


def test_characterizations_agree_field_for_field(recipe_maps):
    kinds = Counter()
    for m in recipe_maps:
        chars = covering_characterizations(m)
        assert chars == name_level_characterizations(m)
        kinds[chars["unit-gcds"]] += 1
    assert kinds == {True: 119, False: 130}  # coverings and non-coverings


def test_a_planted_flip_fails_the_characterization_oracle(recipe_maps):
    coverings = [m for m in recipe_maps if covering_characterizations(m)["unit-gcds"]
                 and m.source.edges]
    assert len(coverings) == 119
    for m in coverings:
        replica = AdmissibleMap._from_tables(m.source, m.target, *m._tables)
        assert verify_admissible(replica)
        plant_flip(replica)
        assert covering_characterizations(replica) != name_level_characterizations(replica)


@pytest.fixture(scope="module")
def chains():
    """(outer, inner, composite) of every `compose` the multi-step recipes make,
    of f4 with identity maps on either side, and of the fixtures and some
    recipe maps with a reversal on either side, so that orientation flips
    come from the outer map, the inner map or both."""
    found = []

    def recording(outer, inner):
        found.append((outer, inner, real(outer, inner)))
        return found[-1][2]

    real = generate.compose
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "compose", recording)
        for recipe in suites.RECIPES:
            if len(recipe) > 1:
                for seed in SEEDS:
                    generate_admissible_map(GeneratorConfig(seed=seed, map_recipe=recipe))
    f4 = f4_map()
    pairs = [(f4, identity_map(f4.source)), (identity_map(f4.target), f4)]
    flipped = [m for _, m in suites.exceptional_fixture_maps()] + [
        generate_admissible_map(GeneratorConfig(seed=seed, map_recipe=recipe))
        for recipe in suites.RECIPES for seed in SEEDS[:5]]
    for m in flipped:
        pairs += [(reversal(m.target), m), (m, reversal(every_other_reversed(m.source)))]
    found += [(outer, inner, compose(outer, inner)) for outer, inner in pairs]
    return found


def test_compose_agrees_with_the_name_level_composite(chains):
    assert len(chains) == 3 * len(SEEDS) + 2 + 2 * (5 + 5 * len(suites.RECIPES))
    for outer, inner, composite in chains:
        assert (composite.source, composite.target) == (inner.source, outer.target)
        assert names(composite) == name_level_composite(outer, inner)


def test_a_planted_flip_fails_the_compose_oracle(chains):
    for outer, inner, composite in chains:
        replica = AdmissibleMap._from_tables(composite.source, composite.target,
                                             *composite._tables)
        plant_flip(replica)
        planted = AdmissibleMap._from_tables(replica.source, replica.target, *replica._tables)
        assert names(planted) != name_level_composite(outer, inner)
