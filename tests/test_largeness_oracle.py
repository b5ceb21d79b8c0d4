"""Largeness and commensurability against facts that their deciders do not use.

A group is large exactly when a finite-index subgroup is, so both ends of
an admissible map are large or neither is, unless one of them presents a
cyclic group; and the two ends are always commensurable.  And a graph whose fundamental group surjects onto F2, that
is one with Betti number at least 2, presents a large group; a branched
cover over a proper plateau is such a finite-index certificate.
"""

from collections import Counter

import pytest

from gbs import (GeneratorConfig, InputError, Plateau, all_plateaux, branched_cover,
                 commensurable, generate_admissible_map, generate_graph, is_large, suites)
from gbs.primes import smallest_prime_factor


def largeness(g) -> bool | None:
    """`is_large(g)`, or None when g presents a cyclic group."""
    try:
        return is_large(g)
    except InputError:
        return None


@pytest.fixture(scope="module")
def generated_maps():
    return [generate_admissible_map(suites._map_config(seed)) for seed in range(1, 601)]


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
            (dart,) = r.darts_at(v)
            kind, plateaux = "non-circle", [Plateau(smallest_prime_factor(abs(r.label(dart))),
                                                    frozenset({v}), frozenset())]
        for plateau in plateaux:
            assert branched_cover(r, plateau).source.betti() >= 2, seed
            assert is_large(r), seed
        outcomes[kind, len(plateaux)] += 1
    assert outcomes == {("non-circle", 1): 654, ("circle", 1): 120, ("circle", 0): 68}
