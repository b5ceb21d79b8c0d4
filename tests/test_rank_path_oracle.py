"""Oracles for the rank path: the gcd step, the block scan and the base prefix
of factoring, and the bridge table that settles single-dart divisibility classes.

The factoring references, kept here, are the trial-division loop that the gcd
step replaced on large labels, with Miller-Rabin on all 13 bases, the gcd
step as it was before the primes of the gcd were found in one walk, with one
`_least_divisor` call for each, and the per-prime loop that the block scan of
`_trial_divide` replaced, over a prime table of its own.  The bridge flags are
checked against networkx, and the single-dart shortcut against the walk it
skips, on every single-dart class of the `rank-query` corpus.
"""

import random
import time
from array import array
from bisect import bisect_left, bisect_right
from functools import cache
from math import gcd, isqrt, prod

import pytest

from gbs import GeneratorConfig, InputError, LabelledGraph, generate_graph
from gbs import primes
from gbs.plateau import _walk
from gbs.primes import (_BLOCK, _MILLER_RABIN_BASES, _PSI, MILLER_RABIN_LIMIT,
                        TRIAL_DIVISION_BOUND, _is_strong_probable_prime, _least_divisor,
                        _trial_divide, prime_factors)

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


@cache
def prime_table() -> tuple[int, ...]:
    """Every prime up to TRIAL_DIVISION_BOUND, by a sieve of its own."""
    sieve = bytearray([1]) * (TRIAL_DIVISION_BOUND + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, isqrt(TRIAL_DIVISION_BOUND) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(sieve[q * q::q]))
    return tuple(q for q, flag in enumerate(sieve) if flag)


def reference_trial_divide(n: int, lo: int, hi: int) -> int:
    """The per-prime loop: the least prime in [lo, hi] dividing n, or 0."""
    table = prime_table()
    for q in table[bisect_left(table, lo):bisect_right(table, hi)]:
        if n % q == 0:
            return q
    return 0


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


class TestBlockScan:
    """`_trial_divide` passes a block of primes whose product is coprime to n by one
    gcd, which is exact for an n with no prime divisor below lo: every n here is 1,
    a prime above the bound, or a product of primes from lo on."""

    @staticmethod
    def cases(rng: random.Random):
        table = prime_table()
        edges = [k * _BLOCK + step for k in (1, 2, 7, 8, 100, 612, 613) for step in (-1, 0, 1)]
        ends = [2, 3] + [q + shift for i in edges if i < len(table) for q in [table[i]]
                         for shift in (-1, 0, 1)] + [TRIAL_DIVISION_BOUND]
        for lo in ends:
            at = table[bisect_left(table, lo):][:400]
            for hi in rng.sample(ends, 3) + [lo - 1, lo, lo + 1, *at[127:130], *at[-2:]]:
                yield 1, lo, hi
                yield 1000003, lo, hi  # a prime above the bound
                for _ in range(4 * bool(at)):
                    n = prod(rng.sample(at, rng.randint(1, 3)))
                    yield n, lo, hi
                    yield n * rng.choice(at[:5]), lo, hi

    def check(self, rng: random.Random) -> tuple[int, int]:
        """Asserts agreement on every case: (divisors found, those past lo's block)."""
        found = passed = 0
        table = prime_table()
        for n, lo, hi in self.cases(rng):
            q = _trial_divide(n, lo, hi)
            assert q == reference_trial_divide(n, lo, hi), (n, lo, hi)
            found += q > 0
            passed += q > 0 and bisect_left(table, q) // _BLOCK > bisect_left(table, lo) // _BLOCK
        products = primes._block_products
        assert len(products) <= len(primes._primes) // _BLOCK  # full blocks only
        assert products == [prod(table[k * _BLOCK:(k + 1) * _BLOCK])
                            for k in range(len(products))]
        return found, passed

    def test_block_boundaries(self):
        found, passed = self.check(random.Random(38))
        assert found > 2000 and passed > 500, (found, passed)

    def test_from_a_fresh_table(self, monkeypatch):
        """Each range with hi past `_sieved` grows the table and, with it, the block
        products: a table restarted at 10 meets the boundaries as they are sieved."""
        monkeypatch.setattr(primes, "_primes", array("I", (2, 3, 5, 7)))
        monkeypatch.setattr(primes, "_sieved", 10)
        monkeypatch.setattr(primes, "_block_products", [])
        assert _trial_divide(1, 2, 5000) == 0 and primes._sieved == 5000
        assert len(primes._block_products) == 669 // _BLOCK  # 669 primes up to 5000
        found, passed = self.check(random.Random(39))
        assert found > 2000 and passed > 500, (found, passed)
        assert primes._sieved == TRIAL_DIVISION_BOUND

    def test_ends_of_the_table(self):
        table = prime_table()
        for n in (1, table[-1], table[-1] * table[-2], 1000003, 1000003 * 1000033):
            for lo, hi in ((table[-1], TRIAL_DIVISION_BOUND), (1001, TRIAL_DIVISION_BOUND),
                           (2, table[-1] - 1), (table[-2] + 1, table[-1])):
                if n == 1 or all(n % q for q in table if q < lo):
                    assert _trial_divide(n, lo, hi) == reference_trial_divide(n, lo, hi)


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
        """Every one-dart class of every corpus graph: where `all_plateaux` answers
        that class with no walk, on a loop or a non-bridge, so does the walk."""
        settled = walked = 0
        for g in rank_query_corpus():
            for d in range(2 * len(g.edges)):
                plateaux = _walk(g, (d,))
                if not g._bridges[d >> 1]:
                    assert plateaux == [], (g, d)
                    settled += 1
                else:
                    walked += 1
                    assert len(plateaux) == 1  # the side of d's origin
        assert settled > 1000 and walked > 100, (settled, walked)
