from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, f1, f2, f3, f4_source
from gbs import (InputError, all_plateaux, generates, has_proper_plateau,
                 minimum_generating_vertices, minimum_hitting_set, mu,
                 plateaux_for_prime, rank)
from gbs.primes import smallest_prime_factor
from strategies import connected_graphs


def plateau_oracle(g, p):
    """Enumerate plateaux straight from the divisibility dichotomy."""
    verts = list(g.vertices)
    found = set()
    for bits in range(1, 2 ** len(verts)):
        inside = frozenset(v for i, v in enumerate(verts) if bits >> i & 1)
        edges = set()
        ok = True
        for v in inside:
            for dart in g.darts_at(v):
                if g.label(dart) % p != 0:
                    # must be contained: other endpoint inside, other label coprime
                    if g.terminus(dart) not in inside or \
                            g.label(dart.reverse()) % p == 0:
                        ok = False
                        break
                    edges.add(dart.edge)
            if not ok:
                break
        if not ok:
            continue
        # connectivity of (inside, edges)
        start = next(iter(inside))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for dart in g.darts_at(v):
                if dart.edge in edges and g.terminus(dart) not in seen:
                    seen.add(g.terminus(dart))
                    frontier.append(g.terminus(dart))
        if seen != inside:
            continue
        if len(inside) == len(verts) and len(edges) == len(g.edges):
            continue  # whole graph
        found.add((inside, frozenset(edges)))
    return found


def hitting_oracle(order, constraints):
    for size in range(len(order) + 1):
        for combo in combinations(order, size):
            if all(set(combo) & c for c in constraints):
                return size
    raise AssertionError("unsatisfiable")


def inventory(g):
    return {(P.prime, P.vertices, P.edges)
            for P in all_plateaux(g).proper_plateaux}


class TestPlateauxForPrime:
    def test_odd_middle_edge(self):
        plateaux = plateaux_for_prime(f1(7), 2)
        assert [(P.vertices, P.edges) for P in plateaux] == \
            [(frozenset({"v_b", "v_c"}), frozenset({"e_2"}))]

    def test_even_middle_vertex(self):
        plateaux = plateaux_for_prime(f1(6), 2)
        assert [(P.vertices, P.edges) for P in plateaux] == \
            [(frozenset({"v_b"}), frozenset())]

    def test_prime_dividing_nothing(self):
        assert plateaux_for_prime(bs(2, 3), 5) == []

    def test_composite_rejected(self):
        with pytest.raises(InputError):
            plateaux_for_prime(bs(2, 3), 6)

    @given(connected_graphs(), st.sampled_from([2, 3, 5, 7, 11]))
    @settings(deadline=None)
    def test_matches_oracle(self, g, p):
        computed = {(P.vertices, P.edges) for P in plateaux_for_prime(g, p)}
        assert computed == plateau_oracle(g, p)

    @given(connected_graphs(), st.sampled_from([2, 3, 5, 7]))
    def test_disjointness_and_dichotomy(self, g, p):
        plateaux = plateaux_for_prime(g, p)
        for i, P in enumerate(plateaux):
            for Q in plateaux[i + 1:]:
                assert not P.vertices & Q.vertices
            for v in P.vertices:
                for dart in g.darts_at(v):
                    assert (g.label(dart) % p == 0) == (dart.edge not in P.edges)


class TestPrimes:
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_no_prime_factor_is_input_error(self, n):
        with pytest.raises(InputError, match="no prime factor"):
            smallest_prime_factor(n)

    def test_smallest_prime_factor(self):
        assert [smallest_prime_factor(n) for n in (2, -9, 35, 97)] == [2, 3, 5, 97]


class TestInventories:
    def test_path_odd(self):
        assert inventory(f1(7)) == {
            (3, frozenset({"v_a"}), frozenset()),
            (5, frozenset({"v_c"}), frozenset()),
            (2, frozenset({"v_b", "v_c"}), frozenset({"e_2"})),
            (7, frozenset({"v_a", "v_b"}), frozenset({"e_1"})),
        }

    def test_path_even(self):
        assert inventory(f1(6)) == {
            (3, frozenset({"v_a"}), frozenset()),
            (5, frozenset({"v_c"}), frozenset()),
            (2, frozenset({"v_b"}), frozenset()),
        }

    def test_long_path(self):
        assert inventory(f2()) == {
            (3, frozenset({"v_a"}), frozenset()),
            (5, frozenset({"v_d"}), frozenset()),
            (2, frozenset({"v_b", "v_c"}), frozenset({"e_2"})),
            (5, frozenset({"v_a", "v_b", "v_c"}), frozenset({"e_1", "e_2"})),
            (7, frozenset({"v_c", "v_d"}), frozenset({"e_3"})),
        }

    def test_triangle(self):
        assert inventory(f3()) == {
            (2, frozenset({"v_a", "v_b"}), frozenset({"e_1"})),
            (5, frozenset({"v_b", "v_c"}), frozenset({"e_2"})),
            (3, frozenset({"v_a", "v_c"}), frozenset({"e_3"})),
        }

    def test_has_proper_plateau(self):
        assert has_proper_plateau(bs(2, 4))
        assert not has_proper_plateau(bs(2, 3))
        assert not has_proper_plateau(f4_source())


class TestHittingSet:
    def test_examples(self):
        order = ("a", "b", "c", "d")
        constraints = [frozenset("ab"), frozenset("bc"), frozenset("cd")]
        assert minimum_hitting_set(order, constraints) == frozenset("bc")

    def test_empty_constraint_rejected(self):
        with pytest.raises(InputError):
            minimum_hitting_set(("a",), [frozenset()])

    @given(st.data())
    @settings(deadline=None)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 7))
        order = tuple(f"x{i}" for i in range(n))
        constraints = data.draw(st.lists(
            st.frozensets(st.sampled_from(order), min_size=1, max_size=n),
            min_size=0, max_size=6))
        witness = minimum_hitting_set(order, constraints)
        assert all(witness & c for c in constraints)
        assert len(witness) == hitting_oracle(order, constraints)


class TestMuRank:
    def test_mu_examples(self):
        assert mu(f3()) == 2
        assert mu(f1(6)) == 3
        for m, n in [(2, 3), (2, 4), (6, 10), (1, 1)]:
            assert mu(bs(m, n)) == 1

    def test_rank_examples(self):
        assert rank(f1(7)) == 2
        assert rank(f1(6)) == 3
        assert rank(f2()) == 3
        assert rank(f3()) == 3

    @given(connected_graphs())
    @settings(deadline=None, max_examples=60)
    def test_mu_matches_brute_force(self, g):
        constraints = [P.vertices for P in all_plateaux(g).proper_plateaux]
        constraints.append(frozenset(g.vertices))
        assert mu(g) == hitting_oracle(g.vertices, constraints)

    @given(connected_graphs())
    @settings(deadline=None, max_examples=60)
    def test_rank_invariant_under_reduce_and_signs(self, g):
        expected = rank(g)
        assert rank(g.reduce()) == expected
        assert rank(g.sign_change_vertex(g.vertices[0])) == expected
        if g.edges:
            assert rank(g.sign_change_edge(g.edges[0].name)) == expected
        assert rank(g.normalize_signs()) == expected


class TestGenerates:
    def test_examples(self):
        assert generates(f1(7), {"v_a", "v_c"})
        assert generates(f2(), {"v_a", "v_b", "v_d"})
        assert generates(f2(), {"v_a", "v_c", "v_d"})
        assert not generates(f2(), {"v_a", "v_d"})

    def test_boundary_cases(self):
        g = f2()
        assert generates(g, set(g.vertices))
        assert not generates(g, set())
        with pytest.raises(InputError):
            generates(g, {"zz"})

    @given(connected_graphs(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_monotone_and_witnessed(self, g, data):
        witness = minimum_generating_vertices(g)
        assert generates(g, witness)
        assert len(witness) == mu(g)
        extra = data.draw(st.frozensets(st.sampled_from(g.vertices)))
        assert generates(g, witness | extra)

    def test_deterministic_witnesses(self):
        assert minimum_generating_vertices(f1(7)) == frozenset({"v_a", "v_c"})
        assert minimum_generating_vertices(f3()) == frozenset({"v_a", "v_b"})
        assert minimum_generating_vertices(bs(2, 3)) == frozenset({"v"})
