from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, f1, f2, f3, f4_source
from gbs import (GeneratorConfig, InputError, LabelledGraph, Plateau, all_plateaux,
                 branched_cover, check_plateau, generate_graph, generates, has_proper_plateau,
                 label_primes, minimum_generating_vertices, minimum_hitting_set,
                 mu, plateau_free_cover, plateaux_for_prime, rank, voltage_cover)
from gbs.primes import (MILLER_RABIN_LIMIT, TRIAL_DIVISION_BOUND, _is_strong_probable_prime,
                        is_prime, prime_factors, smallest_prime_factor)
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

    def test_disconnected_rejected_after_primality(self):
        # the isolated vertex b would be a p-plateau for every prime p
        g = LabelledGraph.build(["a", "b"], [("e", "a", "a", 2, 3)])
        with pytest.raises(InputError, match="^4 is not prime$"):
            plateaux_for_prime(g, 4)
        with pytest.raises(InputError, match="^operation requires a connected graph$"):
            plateaux_for_prime(g, 2)

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


class TestCheckPlateau:
    @pytest.mark.parametrize("vertices, edges, expected", [
        ({"v_b", "v_c"}, {"e_2"}, True),
        (set(), set(), False),                  # empty
        ({"v_b", "zz"}, set(), False),          # vertex outside the graph
        ({"v_b", "v_c"}, {"e_2", "zz"}, False),  # edge outside the graph
        ({"v_b"}, {"e_2"}, False),              # edge leaving the vertex set
        ({"v_a", "v_c"}, set(), False),         # disconnected
        ({"v_b"}, set(), False),                # e_2 leaves v_b with the odd label 7
    ])
    def test_conditions(self, vertices, edges, expected):
        plateau = Plateau(2, frozenset(vertices), frozenset(edges))
        assert check_plateau(f1(7), plateau) is expected


class TestPrimes:
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_no_prime_factor_is_input_error(self, n):
        with pytest.raises(InputError, match="no prime factor"):
            smallest_prime_factor(n)

    def test_smallest_prime_factor(self):
        assert [smallest_prime_factor(n) for n in (2, -9, 35, 97)] == [2, 3, 5, 97]

    def test_factors_agree_with_naive_division(self):
        def naive(n):
            return [p for p in range(2, n + 1) if n % p == 0
                    and all(p % q for q in range(2, p))]
        for n in range(1, 400):
            assert prime_factors(n) == naive(n)
            assert prime_factors(-n) == naive(n)
        bound = TRIAL_DIVISION_BOUND
        # 999983 is the largest prime below the bound, 1000003 the least above
        assert prime_factors(999983 ** 2) == [999983]
        assert prime_factors(2 * 999983 * 1000003) == [2, 999983, 1000003]
        assert is_prime(999999000001) and bound ** 2 > 999999000001

    def test_prime_cofactor_past_the_bound_is_proved(self):
        p = 2 ** 61 - 1
        assert prime_factors(-6 * p) == [2, 3, p]
        assert is_prime(p) and smallest_prime_factor(p) == p
        assert not is_prime(p * 3)

    @pytest.mark.parametrize("n", [1000003 ** 2, (2 ** 61 - 1) ** 2,
                                   399165290221 * 798330580441, MILLER_RABIN_LIMIT,
                                   2 ** 89 - 1])
    def test_unprovable_cofactor_is_input_error(self, n):
        # psi_12 = 399165290221 * 798330580441 fools the bases 2..37 and
        # psi_13 = MILLER_RABIN_LIMIT all of 2..41; 2**89 - 1 is prime but
        # beyond the limit, where Miller-Rabin proves nothing
        with pytest.raises(InputError, match=f"cannot factor {2 * n}: .* up to 1000000"):
            prime_factors(2 * n)
        with pytest.raises(InputError, match="cannot factor"):
            is_prime(n)

    def test_miller_rabin_bases(self):
        assert not _is_strong_probable_prime(399165290221 * 798330580441)
        assert _is_strong_probable_prime(MILLER_RABIN_LIMIT)  # hence the limit
        assert all(_is_strong_probable_prime(p) for p in (1000003, 2 ** 61 - 1, 2 ** 31 - 1))


class TestLabelPrimes:
    @staticmethod
    def per_dart(g):
        return sorted({p for d in g.darts() for p in prime_factors(g.label(d))})

    def test_generated_graphs(self):
        for seed in range(1, 301):
            g = generate_graph(GeneratorConfig(seed=seed, max_label_magnitude=1000))
            assert label_primes(g) == self.per_dart(g)

    def test_golden_covers(self):
        path = LabelledGraph.build(["a", "b"], [("e", "a", "b", 2, 3)])
        three = LabelledGraph.build(["a", "b", "c"], [
            ("e", "a", "b", 4, 3), ("f", "b", "c", 2, 9), ("l", "a", "a", 5, 7)])
        covers = [branched_cover(bs(2, 4), plateaux_for_prime(bs(2, 4), 2)[0]),
                  branched_cover(path, plateaux_for_prime(path, 3)[0]),
                  branched_cover(f2(), plateaux_for_prime(f2(), 3)[0]),
                  voltage_cover(f3(), 3, {"e_1": (1, 2, 0), "e_2": (0, 2, 1),
                                          "e_3": (2, 1, 0)})]
        covers += [plateau_free_cover(g) for g in (path, bs(2, 4), three)]
        for m in covers:
            for g in (m.source, m.target):
                assert label_primes(g) == self.per_dart(g)


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

    def test_has_proper_plateau_rejects_disconnected_graph(self):
        # the isolated vertex b would count as a plateau for every prime
        g = LabelledGraph.build(["a", "b"], [("e", "a", "a", 2, 3)])
        for check in (has_proper_plateau, all_plateaux):
            with pytest.raises(InputError, match="^operation requires a connected graph$"):
                check(g)


class TestHittingSet:
    def test_examples(self):
        order = ("a", "b", "c", "d")
        constraints = [frozenset("ab"), frozenset("bc"), frozenset("cd")]
        assert minimum_hitting_set(order, constraints) == frozenset("bc")

    def test_empty_constraint_rejected(self):
        with pytest.raises(InputError):
            minimum_hitting_set(("a",), [frozenset()])

    def test_element_outside_order_rejected(self):
        with pytest.raises(InputError,
                           match=r"^constraint elements outside the order: \['z'\]$"):
            minimum_hitting_set(("a", "b"), [frozenset({"z"})])

    def test_search_improves_on_greedy(self):
        # greedy takes b (it meets two constraints, as do c and d, and comes
        # first), then a and d; only the branch and bound finds {c, d}
        order = tuple("abcde")
        constraints = [frozenset("bc"), frozenset("ac"), frozenset("bd"), frozenset("de")]
        assert minimum_hitting_set(order, constraints) == frozenset("cd")
        assert hitting_oracle(order, constraints) == 2

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
