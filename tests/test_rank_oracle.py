"""The rank formula against the abelianisation, an independent lower bound.

Abelianising the presentation of a labelled graph, the stable letters
give Z^beta and edge e gives the relation l_o * a_origin = l_t * a_terminus
among the vertex generators.  So H1 is Z^beta plus the cokernel of the
|E| x |V| relation matrix, and if r and d_1 | d_2 | ... | d_r are its rank
and invariant factors, H1 needs d(H1) = beta + (|V| - r) + #{d_i > 1}
generators.  Every generating set of the group maps onto one of H1, so
rank >= d(H1).  Nothing here uses plateaux or primes.
"""

import pytest

from conftest import bs, circle_graph, f1, f2, f3
from gbs import GeneratorConfig, LabelledGraph, generate_graph, rank


def relation_matrix(g: LabelledGraph) -> list[list[int]]:
    """Row e: +l_o at its origin and -l_t at its terminus, summed on a loop."""
    rows = []
    for rec in g.edges:
        row = [0] * len(g.vertices)
        row[g.vertex_position[rec.origin]] += rec.label_origin
        row[g.vertex_position[rec.terminus]] -= rec.label_terminus
        rows.append(row)
    return rows


def invariant_factors(matrix: list[list[int]]) -> list[int]:
    """The nonzero diagonal of the Smith normal form, by exact elimination."""
    a = [row[:] for row in matrix]
    factors = []
    while a and a[0]:
        entries = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not entries:
            break
        _, i, j = min(entries)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        pivot = a[0][0]
        for row in a[1:]:  # leave remainders below the pivot
            q = row[0] // pivot
            row[:] = [x - q * y for x, y in zip(row, a[0])]
        for j in range(1, len(a[0])):  # and to its right
            q = a[0][j] // pivot
            for row in a:
                row[j] -= q * row[0]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue  # a smaller remainder becomes the next pivot
        rest = [row[1:] for row in a[1:]]
        offender = next((row for row in rest if any(x % pivot for x in row)), None)
        if offender is not None:  # the pivot must divide every entry left
            a[0] = [pivot] + [x + y for x, y in zip(a[0][1:], offender)]
            continue
        factors.append(abs(pivot))
        a = rest
    return factors


def abelianisation_rank(g: LabelledGraph) -> int:
    factors = invariant_factors(relation_matrix(g))
    return g.betti() + len(g.vertices) - len(factors) + sum(d > 1 for d in factors)


class TestSmithNormalForm:
    @pytest.mark.parametrize("matrix, expected", [
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
        ([[2, 0], [0, 3]], [1, 6]),
        ([[4, 6]], [2]),
        ([[0, 0], [0, 0]], []),
        ([[6], [10], [15]], [1]),
        ([[1, -1], [2, -2]], [1]),
    ])
    def test_known_forms(self, matrix, expected):
        assert invariant_factors(matrix) == expected


class TestAbelianisationBound:
    @pytest.mark.parametrize("g, bound", [
        (bs(2, 3), 1),  # H1 = Z
        (bs(2, 4), 2),  # Z + Z/2
        (bs(6, 10), 2),  # Z + Z/4
        (f1(7), 1), (f1(6), 1), (f3(), 2),
        (f2(), 2),  # Z + Z/5: the 3 x 3 minors are 90, -70, 105 and -45
        (circle_graph([(2, 3), (2, 3)]), 2),  # Z + Z/5, from the determinant 4 - 9
    ])
    def test_examples(self, g, bound):
        assert abelianisation_rank(g) == bound
        assert rank(g) >= bound

    def test_rank_is_at_least_the_bound_on_generated_graphs(self):
        equal = 0
        for max_label in (6, 30):
            for seed in range(1, 3001):
                g = generate_graph(GeneratorConfig(seed=seed, max_label_magnitude=max_label))
                bound, exact = abelianisation_rank(g), rank(g)
                assert exact >= bound, (max_label, seed)
                equal += exact == bound
        assert equal == 2471
