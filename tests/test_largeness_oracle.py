"""Largeness and commensurability against facts that their deciders do not use.

A group is large exactly when a finite-index subgroup is, so both ends of
an admissible map are large or neither is, unless one of them presents a
cyclic group; and the two ends are always commensurable.  And a graph whose fundamental group surjects onto F2, that
is one with Betti number at least 2, presents a large group; a branched
cover over a proper plateau is such a finite-index certificate.
"""

import math
import random
from collections import Counter

from conftest import circle_graph
import dart_views as views
from gbs import (GeneratorConfig, InputError, LabelledGraph, Plateau, all_plateaux,
                 branched_cover, commensurable, generate_graph, is_large, voltage_cover)
from gbs.primes import smallest_prime_factor


def largeness(g) -> bool | None:
    """`is_large(g)`, or None when g presents a cyclic group."""
    try:
        return is_large(g)
    except InputError:
        return None


def test_admissible_maps_keep_largeness(generated_maps):
    outcomes = Counter()
    for seed, m in enumerate(generated_maps, start=1):
        source, target = largeness(m.source), largeness(m.target)
        if source is None or target is None:
            outcomes["cyclic"] += 1
            continue
        assert source == target, seed
        outcomes[target] += 1
    assert outcomes == {True: 576, False: 10, "cyclic": 14}


def test_admissible_maps_are_never_not_commensurable(generated_maps):
    answers = Counter(commensurable(m.source, m.target).answer for m in generated_maps)
    assert answers == {"commensurable": 26, "out-of-scope": 574}


def test_betti_number_one_with_a_proper_plateau_is_large():
    """Reduced graphs with Betti number 1: branching raises it past 1.

    A non-circle has a terminal vertex v whose label exceeds 1 in magnitude,
    and {v} is a p-plateau for each prime p dividing that label; a proper
    plateau other than a terminal one need not do.  On a circle, the copies
    of the arc outside any proper plateau close p loops through it.
    """
    outcomes = Counter()
    for seed in range(1, 3001):
        r = generate_graph(GeneratorConfig(seed=seed, max_vertices=5, max_edges=5)).reduce()
        if r.betti() != 1:
            continue
        if r.is_circle():
            kind, plateaux = "circle", all_plateaux(r).proper_plateaux[:1]
        else:
            v = r.terminal_vertices()[0]
            (dart,) = views.darts_at(r, v)
            kind, plateaux = "non-circle", [Plateau(smallest_prime_factor(abs(views.label(r, dart))),
                                                    frozenset({v}), frozenset())]
        for plateau in plateaux:
            assert branched_cover(r, plateau).source.betti() >= 2, seed
            assert is_large(r), seed
        outcomes[kind, len(plateaux)] += 1
    assert outcomes == {("non-circle", 1): 654, ("circle", 1): 120, ("circle", 0): 68}


def turned_cover(circle, degree):
    """The connected voltage cover of a circle of this degree: its first edge
    turns the sheets once round, and the other edges keep them."""
    first = circle.edges[0].name
    return voltage_cover(circle, degree, {r.name: [(i + (r.name == first)) % degree
                                                   for i in range(degree)]
                                          for r in circle.edges})


def test_betti_number_at_most_one_keeps_largeness():
    """Circles and the Klein segment, most of them not large.

    Each circle is compared with its connected voltage covers of degree 2
    and 3, and each target with a branched cover over a proper plateau
    when it has one.  Half the circles
    draw their second labels prime to the product of their first ones, which
    makes them not large.
    """
    rng = random.Random(1)
    magnitudes = (1, 2, 3, 4, 5, 6, 9)

    def circle(coprime: bool) -> LabelledGraph:
        k = rng.randint(1, 4)
        first = [rng.choice(magnitudes) * rng.choice((1, -1)) for _ in range(k)]
        pool = [x for x in magnitudes if not coprime or math.gcd(x, math.prod(first)) == 1]
        return circle_graph([(x, rng.choice(pool) * rng.choice((1, -1))) for x in first])

    targets = [LabelledGraph.build(["u", "w"], [("s", "u", "w", 2, 2)])]
    targets += [circle(draw % 2 == 0) for draw in range(360)]
    outcomes = Counter()
    for g in targets:
        expected = largeness(g)
        covers = [turned_cover(g, degree) for degree in (2, 3) if g.is_circle()]
        plateaux = all_plateaux(g).proper_plateaux
        if plateaux:
            covers.append(branched_cover(g, rng.choice(plateaux)))
        for cover in covers:
            assert cover.source.is_connected()
            assert largeness(cover.source) == expected, g
        outcomes[expected, len(covers)] += 1
    # 216 targets are not large, and none of them has a proper plateau
    assert outcomes == {(False, 1): 1, (False, 2): 215, (True, 3): 145}
