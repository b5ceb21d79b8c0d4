"""Oracles for the rank path: the gcd step and the base prefix of factoring,
and the bridge table that settles single-dart divisibility classes.

The factoring references, kept here, are the trial-division loop that the gcd
step replaced on large labels, with Miller-Rabin on all 13 bases, and the gcd
step as it was before the primes of the gcd were found in one walk, with one
`_least_divisor` call for each.  The bridge flags are checked against networkx,
and the single-dart shortcut against the walk it skips, on every single-dart
mask of the `rank-query` corpus.
"""

import random
import time
from functools import cache
from math import gcd, isqrt, prod

import pytest

from gbs import GeneratorConfig, InputError, LabelledGraph, generate_graph
from gbs.plateau import _walk
from gbs.primes import (_MILLER_RABIN_BASES, _PSI, MILLER_RABIN_LIMIT, TRIAL_DIVISION_BOUND,
                        _is_strong_probable_prime, _least_divisor, _trial_divide,
                        prime_factors)

# -- the references -----------------------------------------------------------


def strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin on each of `bases`, for odd n > 41."""
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in bases:
        x = pow(a, t, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_least_divisor(n: int, d: int, label: int) -> int:
    """Trial division to 1000, the 13-base proof, then trial division to the bound."""
    root = isqrt(n)
    if q := _trial_divide(n, d, min(root, 1000)):
        return q
    if root <= 1000 or (n < MILLER_RABIN_LIMIT
                        and strong_probable_prime(n, _MILLER_RABIN_BASES)):
        return n
    if q := _trial_divide(n, max(d, 1001), min(root, TRIAL_DIVISION_BOUND)):
        return q
    if root > TRIAL_DIVISION_BOUND:
        raise InputError(f"cannot factor {label}: a factor has no divisor up to "
                         f"{TRIAL_DIVISION_BOUND} and is not a prime below {MILLER_RABIN_LIMIT}")
    return n


def reference_prime_factors(n: int) -> list[int]:
    """The factoring loop before the gcd step: every label trial-divided from 2."""
    label = n = abs(n)
    out, d = [], 2
    while n > 1:
        d = reference_least_divisor(n, d, label)
        out.append(d)
        while n % d == 0:
            n //= d
    return out


@cache
def small_prime_product() -> int:
    return prod(q for q in range(2, 1001) if all(q % r for r in range(2, isqrt(q) + 1)))


def gcd_step_prime_factors(n: int) -> list[int]:
    """The gcd step with a `_least_divisor` call for each prime of the gcd."""
    label = n = abs(n)
    out, d = [], 2
    if n > TRIAL_DIVISION_BOUND:
        small = gcd(n, small_prime_product())
        while small > 1:
            d = _least_divisor(small, d)
            out.append(d)
            small //= d
            while n % d == 0:
                n //= d
        d = 1001
    while n > 1:
        d = _least_divisor(n, d, label)
        out.append(d)
        while n % d == 0:
            n //= d
    return out


def outcome(factor, n):
    try:
        return factor(n)
    except InputError as error:
        return str(error)


def rank_query_corpus():
    """The graphs of the `rank-query` benchmark corpus: generator seeds 1-120."""
    for seed in range(1, 121):
        yield generate_graph(GeneratorConfig(seed=seed, max_vertices=12, max_edges=20,
                                             max_label_magnitude=10 ** 9))


# -- factoring ----------------------------------------------------------------

# OEIS A014233: the least odd number that Miller-Rabin on the first k prime bases
# does not prove composite, k = 1..13
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981)


class TestFactoringOracle:
    def test_rank_query_corpus_labels(self):
        magnitudes = {abs(label) for g in rank_query_corpus() for label in g._index[0]}
        assert len(magnitudes) > 3000
        for n in sorted(magnitudes):
            assert prime_factors(n) == gcd_step_prime_factors(n) == reference_prime_factors(n), n

    def test_seeded_labels_up_to_ten_to_the_twelve(self):
        rng = random.Random(34)
        for _ in range(20000):
            n = rng.randint(1, 10 ** 12)
            assert prime_factors(n) == gcd_step_prime_factors(n) == reference_prime_factors(n), n

    @pytest.mark.parametrize("n", [
        10 ** 6, 10 ** 6 + 1, 999983 ** 2, 2 * 999983 * 1000003, 997 * 1009 * 10 ** 6,
        1009 * 1013 * 1019, 2 ** 61 - 1, -6 * (2 ** 61 - 1), 3 * (2 ** 61 - 1) ** 2,
        3825123056546413051, 2 * 3 * 5 * 7 * 11 * 13 * 997 * 991 * 3825123056546413051,
        2 ** 40, 3 ** 30 * 1000003, 999999000001, 1000003 ** 2, 2 * 1000003 ** 2,
        2 * (2 ** 61 - 1) ** 2, 2 * 399165290221 * 798330580441, 2 * MILLER_RABIN_LIMIT,
        2 * (2 ** 89 - 1), 341550071728321, 25326001 * 7])
    def test_edge_cases(self, n):
        """Labels about the bound and the proof step, pseudoprimes, and refusals,
        which name the same label and bound."""
        assert outcome(prime_factors, n) == outcome(gcd_step_prime_factors, n) \
            == outcome(reference_prime_factors, n)

    def test_psi_table_is_a014233(self):
        assert _PSI == A014233 and MILLER_RABIN_LIMIT == A014233[-1]
        assert len(_MILLER_RABIN_BASES) == len(A014233)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_psi_k_fools_the_first_k_bases_only(self, k):
        """psi_k passes the first k bases, and the bases used on it, the first k' with
        psi_k < psi_k', prove it composite."""
        psi = _PSI[k - 1]
        assert psi % 2 and strong_probable_prime(psi, _MILLER_RABIN_BASES[:k])
        assert not _is_strong_probable_prime(psi)

    def test_base_prefix_agrees_with_all_bases(self):
        """Below psi_k the first k bases decide as all 13 do: odd n about each psi_k
        and seeded odd n of every size up to MILLER_RABIN_LIMIT."""
        rng = random.Random(35)
        numbers = [psi + step for psi in _PSI for step in range(-40, 41, 2)]
        numbers += [rng.randrange(43, 10 ** rng.randint(2, 24), 2) | 1 for _ in range(5000)]
        for n in (n for n in numbers if 41 < n < MILLER_RABIN_LIMIT):
            assert _is_strong_probable_prime(n) == strong_probable_prime(
                n, _MILLER_RABIN_BASES), n


# -- the bridge table ---------------------------------------------------------


def multigraphs(count: int, seed: int):
    """Random multigraphs on up to 9 vertices, some disconnected, with loops and
    parallel edges among up to 14 edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        edges = []
        for i in range(rng.randint(0, 14)):
            if edges and rng.random() < 0.15:  # a parallel twin of an earlier edge
                _, a, b, _, _ = rng.choice(edges)
            else:
                a = b = rng.randrange(n)
                if rng.random() < 0.8:
                    b = rng.randrange(n)
                a, b = f"v{a}", f"v{b}"
            edges.append((f"e{i}", a, b, rng.choice([2, -3, 5]), rng.choice([2, 7])))
        yield LabelledGraph.build([f"v{j}" for j in range(n)], edges)


def nx_bridges(g: LabelledGraph) -> set[frozenset[str]]:
    nx = pytest.importorskip("networkx")
    m = nx.MultiGraph()
    m.add_nodes_from(g.vertices)
    m.add_edges_from((rec.origin, rec.terminus) for rec in g.edges)
    return set(map(frozenset, nx.bridges(m)))


def flagged(g: LabelledGraph) -> list[frozenset[str]]:
    return [frozenset((rec.origin, rec.terminus))
            for rec, bridge in zip(g.edges, g._bridges) if bridge]


class TestBridges:
    def test_agree_with_networkx(self):
        seen = {"loop": 0, "parallel": 0, "disconnected": 0, "bridge": 0}
        for g in multigraphs(600, 36):
            found = flagged(g)
            # a bridge has no parallel twin, so its ends name it
            assert len(set(found)) == len(found) and set(found) == nx_bridges(g), g
            assert len(g._bridges) == len(g.edges)
            ends = [frozenset((rec.origin, rec.terminus)) for rec in g.edges if not rec.is_loop]
            seen["loop"] += any(rec.is_loop for rec in g.edges)
            seen["parallel"] += len(set(ends)) < len(ends)
            seen["disconnected"] += not g.is_connected()
            seen["bridge"] += bool(found)
        assert min(seen.values()) >= 100, seen

    def test_long_path_without_recursion(self):
        n = 32000
        path = LabelledGraph.build([f"v{i}" for i in range(n)],
                                   [(f"e{i}", f"v{i}", f"v{i + 1}", 2, 3) for i in range(n - 1)])
        start = time.process_time()
        assert path._bridges == b"\1" * (n - 1)
        assert time.process_time() - start < 1.0
        assert set(flagged(path)) == nx_bridges(path)
        closed = LabelledGraph.build(path.vertices, [(r.name, r.origin, r.terminus, 2, 3)
                                                     for r in path.edges]
                                     + [("back", f"v{n - 1}", "v0", 5, 7)])
        assert closed._bridges == bytes(n)  # a cycle has no bridge


class TestSingleDartShortcut:
    def test_agrees_with_the_walk_on_the_rank_query_corpus(self):
        """Every one-dart mask of every corpus graph: where `all_plateaux` answers
        a class of that mask with no walk, on a loop or a non-bridge, so does the walk."""
        settled = walked = 0
        for g in rank_query_corpus():
            for d in range(2 * len(g.edges)):
                mask = bytearray(2 * len(g.edges))
                mask[d] = 1
                plateaux = _walk(g, bytes(mask))
                if not g._bridges[d >> 1]:
                    assert plateaux == [], (g, d)
                    settled += 1
                else:
                    walked += 1
                    assert len(plateaux) == 1  # the side of d's origin
        assert settled > 1000 and walked > 100, (settled, walked)
