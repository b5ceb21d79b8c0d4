import gc
import json
import os
import random
import subprocess
import sys
import time
from array import array
from collections import Counter
from functools import cached_property
from itertools import combinations
from math import isqrt, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bs, f1, f2, f3, f4_source
import dart_views as views
import gbs
from gbs import (GeneratorConfig, InputError, LabelledGraph, Plateau, all_plateaux,
                 branched_cover, check_plateau, covering, emit_graph, generate_graph, generates,
                 has_proper_plateau, identity_map, label_primes, minimum_generating_vertices,
                 minimum_hitting_set, mu, parse_graph, plateau, plateau_free_cover,
                 plateaux_for_prime, rank, run_suite, totally_unfolded, voltage_cover)
from gbs.plateau import _factors, _plateaux
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
            for dart in views.darts_at(g, v):
                if views.label(g, dart) % p != 0:
                    # must be contained: other endpoint inside, other label coprime
                    if views.terminus(g, dart) not in inside or \
                            views.label(g, dart.reverse()) % p == 0:
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
            for dart in views.darts_at(g, v):
                if dart.edge in edges and views.terminus(g, dart) not in seen:
                    seen.add(views.terminus(g, dart))
                    frontier.append(views.terminus(g, dart))
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


def check_round_table(g, p, inside, kept):
    """`_plateaux` read with a label table, against g rebuilt with the table's
    labels: the table divides by p, where p divides them, the labels leaving
    the vertices `inside` by edges outside `kept`, as a plateau-free round does.
    Returns the plateaux found."""
    labels = {rec.name: [rec.label_origin, rec.label_terminus] for rec in g.edges}
    for v in inside:
        for name, forward in views.darts_at(g, v):
            end = 0 if forward else 1
            if name not in kept and labels[name][end] % p == 0:
                labels[name][end] //= p
    rebuilt = LabelledGraph(g.vertices, tuple(
        rec._replace(label_origin=labels[rec.name][0], label_terminus=labels[rec.name][1])
        for rec in g.edges))
    found = _plateaux(g, p, [label for rec in g.edges for label in labels[rec.name]])
    assert found == _plateaux(rebuilt, p)
    assert {(P.vertices, P.edges) for P in found} == plateau_oracle(rebuilt, p)
    return found


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

    @given(connected_graphs(), st.sampled_from([2, 3, 5, 7, 11]), st.data())
    @settings(deadline=None)
    def test_matches_oracle(self, g, p, data):
        """On g, and on a cover round's label table (see check_round_table)."""
        computed = {(P.vertices, P.edges) for P in plateaux_for_prime(g, p)}
        assert computed == plateau_oracle(g, p)
        names = [rec.name for rec in g.edges]
        inside = data.draw(st.sets(st.sampled_from(g.vertices)))
        kept = data.draw(st.sets(st.sampled_from(names))) if names else set()
        check_round_table(g, p, inside, kept)

    @given(connected_graphs(), st.sampled_from([2, 3, 5, 7]))
    def test_disjointness_and_dichotomy(self, g, p):
        plateaux = plateaux_for_prime(g, p)
        for i, P in enumerate(plateaux):
            for Q in plateaux[i + 1:]:
                assert not P.vertices & Q.vertices
            for v in P.vertices:
                for dart in views.darts_at(g, v):
                    assert (views.label(g, dart) % p == 0) == (dart.edge not in P.edges)


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

    @pytest.mark.parametrize("prime", [0, 1, 6])
    def test_prime_is_required(self, prime):
        # ({u}, {l}) passes every other condition for 6: e leaves u with the label 6
        g = LabelledGraph.build(["u", "w"], [("e", "u", "w", 6, 5), ("l", "u", "u", 2, 5)])
        plateau = Plateau(prime, frozenset({"u"}), frozenset({"l"} if prime else ()))
        assert not check_plateau(g, plateau)
        with pytest.raises(InputError, match="^not a plateau of this graph$"):
            branched_cover(g, plateau)
        with pytest.raises(InputError, match="^not a plateau of the target graph$"):
            totally_unfolded(identity_map(g), plateau)


    def test_matches_the_dichotomy_oracle(self):
        """Generated graphs, two thirds made disconnected, for three primes and
        one composite: every oracle plateau, the whole graph, and random vertex
        sets with their coprime edges or with random edges."""
        rng = random.Random(5)
        outcomes = Counter()
        for seed in range(1, 151):
            g = generate_graph(GeneratorConfig(seed, max_vertices=4, max_edges=5,
                                               max_label_magnitude=12))
            if seed % 3:  # an isolated vertex, or one carrying a loop
                loops = [("lz", "z", "z", 2, 9)] if seed % 3 == 2 else []
                g = LabelledGraph.build([*g.vertices, "z"],
                                        [tuple(rec) for rec in g.edges] + loops)
            names = [rec.name for rec in g.edges]
            whole = (frozenset(g.vertices), frozenset(names))
            for p in (2, 3, 5, 4):
                coprime = [rec for rec in g.edges
                           if rec.label_origin % p and rec.label_terminus % p]
                oracle = plateau_oracle(g, p)
                candidates = [*oracle, whole]
                pool = [*g.vertices, "zz"]  # zz is no vertex of g
                for _ in range(8):
                    vertices = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
                    if rng.random() < 0.5:  # the coprime edges meeting the vertices
                        edges = {rec.name for rec in coprime
                                 if {rec.origin, rec.terminus} & vertices}
                    else:
                        edges = set(rng.sample(names, rng.randint(0, len(names))))
                    candidates.append((vertices, frozenset(edges)))
                for vertices, edges in candidates:
                    expected = p != 4 and ((vertices, edges) in oracle or (
                        (vertices, edges) == whole and g.is_connected()
                        and len(coprime) == len(names)))
                    got = check_plateau(g, Plateau(p, vertices, edges))
                    assert got == expected, (seed, p, vertices, edges)
                    outcomes[got] += 1
        assert outcomes == {True: 738, False: 5341}


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

    def test_factors_agree_with_a_sieve_across_the_proof_step(self):
        # trial division stops at 1000 for a cofactor that Miller-Rabin proves
        # prime, from 1001**2 on; a smallest-prime-factor sieve checks every n
        # from just below 1000**2 to just above 1001**2, and at the sieve's top
        limit = 2 * 10 ** 6
        spf = array("I", range(limit + 1))
        for d in range(isqrt(limit), 1, -1):  # the least divisor writes last
            spf[d * d::d] = array("I", [d]) * len(range(d * d, limit + 1, d))

        def sieved(n):
            out = []
            while n > 1:
                out.append(spf[n])
                while n % out[-1] == 0:
                    n //= out[-1]
            return out

        windows = (range(1000 ** 2 - 1500, 1001 ** 2 + 1500), range(limit - 1000, limit + 1))
        for n in (n for window in windows for n in window):
            assert prime_factors(n) == sieved(n), n
            assert is_prime(n) == (spf[n] == n), n
        for n in (997 * 1009, 1009 ** 2, 1009 * 1013):  # primes either side of 1000
            assert prime_factors(n) == sieved(n), n
        for factors in ([1009, 1013, 1019], [999983, 1000003]):
            assert prime_factors(prod(factors)) == factors
            assert all(spf[p] == p for p in factors)
        # psi_9 is a strong pseudoprime to the bases 2..23; a later base catches it
        psi_9 = 3825123056546413051
        assert prime_factors(psi_9) == [149491, 747451, 34233211] and not is_prime(psi_9)
        assert spf[149491] == 149491 and spf[747451] == 747451 and is_prime(34233211)

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
        if n in (MILLER_RABIN_LIMIT, 2 ** 89 - 1):
            with pytest.raises(InputError, match="cannot factor"):
                is_prime(n)
        else:  # some base witnesses n composite, which is a proof
            assert is_prime(n) is False

    def test_is_prime_agrees_with_factoring_past_trial_division_squared(self):
        # three primes lie in this range, and 999983 * 1000039 has its least
        # factor just below the trial division bound
        for n in (*range(10 ** 12 + 1, 10 ** 12 + 64), 999983 * 1000039):
            assert is_prime(n) == (smallest_prime_factor(n) == n), n

    def test_is_prime_needs_no_trial_division_below_the_limit(self):
        # trial division up to 10**6 alone would take tens of milliseconds
        start = time.perf_counter()
        assert is_prime(2 ** 61 - 1)
        assert time.perf_counter() - start < 0.01

    def test_miller_rabin_bases(self):
        assert not _is_strong_probable_prime(399165290221 * 798330580441)
        assert _is_strong_probable_prime(MILLER_RABIN_LIMIT)  # hence the limit
        assert all(_is_strong_probable_prime(p) for p in (1000003, 2 ** 61 - 1, 2 ** 31 - 1))


class TestLabelPrimes:
    @staticmethod
    def per_dart(g):
        return sorted({p for d in views.darts(g) for p in prime_factors(views.label(g, d))})

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


def spy(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that logs the arguments of each call."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


class TestPlateauFactsOncePerGraph:
    def test_rank_query_factors_each_magnitude_once(self, monkeypatch):
        """Each magnitude is factored once, and g is walked at most once per
        divisibility class of its label primes, which is fewer walks than primes
        on some seed.  A class of one divisible dart is walked only when its edge
        is a bridge: a loop or an edge whose removal leaves g connected has no
        plateau for it."""
        factored = spy(monkeypatch, plateau, "prime_factors")
        walked = spy(monkeypatch, plateau, "_walk")
        shared = skipped = 0
        for seed in range(1, 11):
            cfg = GeneratorConfig(seed=seed, max_vertices=12, max_edges=20,
                                  max_label_magnitude=10 ** 9)
            g = parse_graph(emit_graph(generate_graph(cfg)))
            rank(g)
            all_plateaux(g)
            generates(g, g.vertices[:1])
            magnitudes = {abs(views.label(g, d)) for d in views.darts(g)}
            assert sorted(n for n, in factored) == sorted(magnitudes), seed
            classes = {tuple(i for i, d in enumerate(views.darts(g))
                             if views.label(g, d) % p == 0) for p in label_primes(g)}
            names = {rec.name for rec in g.edges}

            def splits(edge):  # g less the edge is disconnected
                return len(list(g.subgraph_components(keep=names - {edge}))) > 1
            settled = {darts for darts in classes if len(darts) == 1
                       and not splits(g.edges[darts[0] >> 1].name)}
            assert [h for h, _ in walked] == [g] * len(classes - settled), seed
            assert {darts for _, darts in walked} == classes - settled, seed
            shared += len(classes) < len(label_primes(g))
            skipped += len(settled)
            factored.clear()
            walked.clear()
        assert shared and skipped

    def test_plateau_free_suite_builds_each_label_table_once(self, monkeypatch):
        """Every memo and the graph's dart index are built at most once per graph,
        however often the graph is walked, and the index for every walked graph."""
        built, real = [], plateau._memo

        def counting(g, key, compute):
            def build(g):
                built.append((key, g))
                return compute(g)
            return real(g, key, build)
        monkeypatch.setattr(plateau, "_memo", counting)
        real_index = LabelledGraph._index.func

        def indexing(g):
            built.append(("_index", g))
            return real_index(g)
        index = cached_property(indexing)
        index.__set_name__(LabelledGraph, "_index")
        monkeypatch.setattr(LabelledGraph, "_index", index)
        walked, real_walk = [], LabelledGraph._component_walk

        def walking(g, mask, roots, stops=None):
            walked.append(g)
            return real_walk(g, mask, roots, stops)
        monkeypatch.setattr(LabelledGraph, "_component_walk", walking)
        assert run_suite("plateau-free-cover", count=15, base_seed=1).ok
        indexed = Counter(id(g) for key, g in built if key == "_index")
        # the graphs stay referenced in `built` and `walked`, so ids are not reused
        assert len(walked) > len(indexed) > 15 and set(indexed) >= set(map(id, walked))
        assert max(Counter((key, id(g)) for key, g in built).values()) == 1

    def test_tables_leave_the_cyclic_collector(self):
        """The dart index and the factor table hold only tuples of ints, so the
        collector stops tracking them and does not scan them while the graph lives."""
        g = f3()
        all_plateaux(g)
        tables = [g._index, *g._index, _factors(g), *_factors(g).values()]
        gc.collect()
        gc.collect()  # the outer tuple is untracked once its members are
        assert not any(map(gc.is_tracked, tables))

    def test_memo_does_not_leak(self, monkeypatch):
        g, twin = f3(), f3()
        primes = label_primes(g)
        primes.append(7)
        assert label_primes(g) == [2, 3, 5]
        inventory = all_plateaux(g)
        assert all_plateaux(g) is inventory
        factored = spy(monkeypatch, plateau, "prime_factors")
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
        assert all_plateaux(twin) == inventory and all_plateaux(twin) is not inventory
        assert sorted(n for n, in factored) == [2, 3, 5]  # the twin factors its own labels


def shared_class_graphs(count=60):
    """Connected graphs on up to 6 vertices, loops and parallel edges included,
    whose labels multiply small primes with the large pairs P = 10007 * 10009
    and Q = 999979 * 999983: the two primes of a pair divide the same darts
    unless a lone factor of the pair shows up, and an edge may carry labels
    divisible by one prime at both ends."""
    rng = random.Random(29)
    for i in range(count):
        n = rng.randint(1, 6)
        pool = [1, 2, 3, 4, 6, 9, 10007 * 10009, 2 * 10007 * 10009,
                3 * 999979 * 999983, 999979 * 999983]
        if i % 3 == 0:
            pool += [10007, 2 * 999983]
        edges = []
        for j in range(1, n):  # a tree first, then extra edges
            edges.append((f"t{j}", f"v{rng.randrange(j)}", f"v{j}",
                          rng.choice(pool[1:]), rng.choice(pool[1:])))
        for j in range(rng.randint(0, 4)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.append((f"x{j}", f"v{a}", f"v{b}", rng.choice(pool), rng.choice(pool)))
        yield LabelledGraph.build([f"v{j}" for j in range(n)], edges)


def rank_query_graphs():
    for seed in range(1, 11):
        yield generate_graph(GeneratorConfig(seed=seed, max_vertices=12, max_edges=20,
                                             max_label_magnitude=10 ** 9))


class TestInventoryOracle:
    """The inventory, walked once per divisibility class, is the union over the
    label primes of the dichotomy oracle, in prime order and then by least vertex."""

    @staticmethod
    def assert_inventory_matches(g):
        position = g.vertex_position
        got = [(P.prime, P.vertices, P.edges) for P in all_plateaux(g).proper_plateaux]
        expected = sorted(((p, vertices, edges) for p in label_primes(g)
                           for vertices, edges in plateau_oracle(g, p)),
                          key=lambda t: (t[0], min(position[v] for v in t[1])))
        assert got == expected

    def test_rank_query_graphs(self):
        sizes = Counter()
        for g in rank_query_graphs():
            self.assert_inventory_matches(g)
            sizes[len(g.vertices)] += 1
        assert max(sizes) >= 10

    def test_shared_classes_loops_and_parallel_edges(self):
        seen = Counter()
        for g in shared_class_graphs():
            self.assert_inventory_matches(g)
            primes = label_primes(g)
            classes = {bytes(views.label(g, d) % p == 0 for d in views.darts(g)) for p in primes}
            seen["shared"] += len(classes) < len(primes)
            seen["loop"] += any(rec.is_loop for rec in g.edges)
            seen["parallel"] += len({frozenset((r.origin, r.terminus)) for r in g.edges
                                     if not r.is_loop}) < sum(not r.is_loop for r in g.edges)
            seen["both ends"] += any(r.label_origin % p == 0 and r.label_terminus % p == 0
                                     for r in g.edges for p in primes)
            seen["plateaux"] += len(all_plateaux(g).proper_plateaux)
        assert min(seen.values()) >= 5, seen

    def test_label_table_other_than_the_graphs(self):
        """A cover round's table (see check_round_table), with a random vertex
        set and random kept edges, for every label prime."""
        rng = random.Random(31)
        found = 0
        for g in [*rank_query_graphs(), *shared_class_graphs(30)]:
            if len(g.vertices) > 10:
                continue  # the oracle walks every vertex subset, once per prime
            names = [rec.name for rec in g.edges]
            for p in label_primes(g):
                inside = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
                kept = rng.sample(names, rng.randint(0, len(names)))
                found += bool(check_round_table(g, p, set(inside), set(kept)))
        assert found >= 20


class TestPrimeTable:
    """Trial division walks a table of primes grown on demand, never at import
    and never past TRIAL_DIVISION_BOUND, the gcd step's product of the primes up
    to 1000 is built on its first use, and the product of a block of primes only
    once the table holds the whole block; a fresh interpreter sees all three from
    the start."""

    SCRIPT = """
import json
from math import isqrt, prod
import gbs
from gbs import primes
out = {"fresh": [list(primes._primes), primes._sieved, primes._small_product,
                 list(primes._block_products)]}
primes.prime_factors(10 ** 6)  # at the bound: no gcd step
out["bound"] = primes._small_product
for seed in range(1, 11):
    gbs.rank(gbs.generate_graph(gbs.GeneratorConfig(
        seed=seed, max_vertices=12, max_edges=20, max_label_magnitude=10 ** 9)))
out["rank"] = [primes._primes[-1], primes._sieved, 2 * isqrt(10 ** 9)]
out["product"] = primes._small_product == prod(p for p in primes._primes if p <= 1000)
try:
    primes.prime_factors(2 * 1000003 ** 2)
except gbs.InputError:
    out["refused"] = [primes._primes[-1], primes._sieved, len(primes._primes)]
    out["blocks"] = [len(primes._block_products), all(
        product == prod(primes._primes[k * primes._BLOCK:(k + 1) * primes._BLOCK])
        for k, product in enumerate(primes._block_products))]
print(json.dumps(out))
"""

    def test_lazy_and_bounded(self):
        env = {**os.environ, "PYTHONPATH": str(Path(gbs.__file__).parent.parent)}
        run = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        out = json.loads(run.stdout)
        assert out["fresh"] == [[2, 3, 5, 7], 10, 0, []]
        assert out["bound"] == 0
        assert out["product"] is True
        top, sieved, bound = out["rank"]
        assert 1000 < top <= sieved <= bound
        top, sieved, count = out["refused"]
        assert (top, sieved, count) == (999983, TRIAL_DIVISION_BOUND, 78498)
        assert out["blocks"] == [613, True]  # 78,498 primes: 613 full blocks of 128


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


class TestMuWithoutPlateaux:
    """With no proper plateau the whole graph is the only plateau, and the witness is
    read off without a search: the first vertex, which the search itself returns
    (every count is 1, the greedy picks position 0, and the lower bound 1 is met)."""

    @staticmethod
    def searched(g):
        return minimum_hitting_set(g.vertices, [frozenset(g.vertices)])

    def assert_shortcut(self, g, monkeypatch):
        assert not has_proper_plateau(g)
        witness = self.searched(g)
        monkeypatch.setattr(plateau, "minimum_hitting_set", None)  # not called
        assert minimum_generating_vertices(g) == witness == frozenset(g.vertices[:1])
        assert mu(g) == 1
        monkeypatch.undo()

    def test_corpus_covers(self, monkeypatch):
        from test_benchmark_api import perfbench_workloads
        covers = 0
        for item in perfbench_workloads().WORKLOADS["plateau-free-cover"].build():
            try:
                m = plateau_free_cover(item.payload[1], size_limit=1500)
            except InputError:
                continue
            self.assert_shortcut(m.source, monkeypatch)
            covers += m.source is not m.target
        assert covers == 71

    def test_one_vertex_graphs(self, monkeypatch):
        for g in [LabelledGraph.build(["v"], []), bs(2, 3), bs(1, 1), bs(-5, 7),
                  LabelledGraph.build(["v"], [("a", "v", "v", 2, 3), ("b", "v", "v", 5, 7)])]:
            self.assert_shortcut(g, monkeypatch)

    def test_generated_plateau_free_graphs(self, monkeypatch):
        found = 0
        for seed in range(1, 1200):
            g = generate_graph(GeneratorConfig(seed=seed, max_vertices=5, max_edges=7,
                                               max_label_magnitude=60))
            if not has_proper_plateau(g):
                self.assert_shortcut(g, monkeypatch)
                found += 1
        assert found >= 300

    def test_a_graph_with_a_plateau_still_searches(self):
        assert not has_proper_plateau(bs(2, 3)) and has_proper_plateau(f3())
        assert minimum_generating_vertices(f3()) == frozenset({"v_a", "v_b"})
