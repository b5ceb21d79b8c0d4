"""Small exact-arithmetic helpers.

Factoring trial-divides by primes: up to 1000, then, unless the Miller-Rabin
test below proves the cofactor prime, on up to TRIAL_DIVISION_BOUND, so every
number up to its square (10**12) factors and a cofactor with no divisor up to
the bound is refused with InputError.  A block of 128 primes sharing no factor
with the number is passed by one gcd with their product, and a number past the
bound finds its primes up to 1000 by one gcd.  The primes and products grow on
demand, only as far as the square roots divided need, never past the bound.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from math import gcd, isqrt, prod

from .errors import InputError

TRIAL_DIVISION_BOUND = 10**6
_PROOF_START = 1000  # trial division up to here first, then the Miller-Rabin proof
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k bases, below which they are exact (OEIS
# A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson and Webster, Math. Comp. 86, 2017)
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
        3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
MILLER_RABIN_LIMIT = _PSI[-1]


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin for n > 41 on the first k bases, k least with n < psi_k (all 13 at
    or past MILLER_RABIN_LIMIT); False proves n composite."""
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MILLER_RABIN_BASES[:bisect_right(_PSI, n) + 1]:
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


# every prime up to _sieved, ascending; a cache, so how far it has grown changes no answer
_primes, _sieved = array("I", (2, 3, 5, 7)), 10
_small_product = 0  # the product of the primes up to _PROOF_START once built, else 0
_BLOCK, _block_products = 128, []  # the product of each full block of _BLOCK primes, in order


def _trial_divide(n: int, lo: int, hi: int) -> int:
    """Least prime in [lo, hi] dividing n, or 0; hi is at most TRIAL_DIVISION_BOUND.  n has
    no prime divisor below lo, so a full block of primes coprime to n is passed by one gcd."""
    global _primes, _sieved
    if hi < lo:  # as for the last, prime cofactor of most numbers: nothing to divide by
        return 0
    if hi > _sieved:  # at least double, so a run of growing needs sieves few times
        _sieved = min(max(hi, 2 * _sieved), TRIAL_DIVISION_BOUND)
        sieve = bytearray([1]) * (_sieved + 1)
        for q in range(2, isqrt(_sieved) + 1):  # a composite q crosses out nothing new
            sieve[q * q::q] = bytes(len(sieve[q * q::q]))
        _primes = array("I", compress(range(2, _sieved + 1), sieve[2:]))
        _block_products.extend(prod(_primes[k:k + _BLOCK]) for k in range(
            len(_block_products) * _BLOCK, len(_primes) - _BLOCK + 1, _BLOCK))
    i, end = bisect_left(_primes, lo), bisect_right(_primes, hi)
    while (i + _BLOCK // 2 <= end and (k := i // _BLOCK) < len(_block_products)
           and gcd(n, _block_products[k]) == 1):  # not for a stretch shorter than half a block
        i = k * _BLOCK + _BLOCK
    for q in memoryview(_primes)[i:end]:  # from a block sharing a prime with n, if any
        if n % q == 0:
            return q
    return 0


def _least_divisor(n: int, d: int = 2, label: int | None = None) -> int:
    """Smallest divisor of n in [d, sqrt(n)], or n itself when there is none.

    Callers pass n with no divisor in [2, d), so only primes are tried.  Once
    trial division passes _PROOF_START, an n that Miller-Rabin proves prime
    is returned; one with no divisor up to TRIAL_DIVISION_BOUND raises
    InputError naming `label` (the number being factored, n by default).
    """
    root = isqrt(n)
    if q := _trial_divide(n, d, min(root, _PROOF_START)):
        return q
    if root <= _PROOF_START or (n < MILLER_RABIN_LIMIT and _is_strong_probable_prime(n)):
        return n
    if q := _trial_divide(n, max(d, _PROOF_START + 1), min(root, TRIAL_DIVISION_BOUND)):
        return q
    if root > TRIAL_DIVISION_BOUND:  # Miller-Rabin has not proved n prime
        raise InputError(f"cannot factor {n if label is None else label}: a factor has no "
                         f"divisor up to {TRIAL_DIVISION_BOUND} and is not a prime below "
                         f"{MILLER_RABIN_LIMIT}")
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in ascending order."""
    global _small_product
    label = n = abs(n)
    out: list[int] = []
    d = 2
    if n > TRIAL_DIVISION_BOUND:  # the primes up to _PROOF_START that divide n, by one gcd
        if not _small_product:  # 1 has no prime divisor: this only grows the table
            _trial_divide(1, 2, _PROOF_START)
            _small_product = prod(_primes[:bisect_right(_primes, _PROOF_START)])
        small = rest = gcd(n, _small_product)  # distinct primes up to _PROOF_START
        for q in _primes:  # one walk: past the square root of what is left, it is 1 or prime
            if q * q > rest:
                break
            if rest % q == 0:
                out.append(q)
                rest //= q
        out += [rest] * (rest > 1)
        while (common := gcd(n, small)) > 1:  # strip their powers from n
            n //= common
        d = _PROOF_START + 1
    while n > 1:
        d = _least_divisor(n, d, label)  # resumes where the last factor was found
        out.append(d)
        while n % d == 0:
            n //= d
    return out


def smallest_prime_factor(n: int) -> int:
    n = abs(n)
    if n < 2:
        raise InputError(f"{n} has no prime factor")
    return _least_divisor(n)


def is_prime(n: int) -> bool:
    """Is n prime?  Only a probable prime at or past MILLER_RABIN_LIMIT is refused."""
    if n > TRIAL_DIVISION_BOUND ** 2 and not _is_strong_probable_prime(n):
        return False  # a base witnesses n composite: no factor needed
    return n >= 2 and smallest_prime_factor(n) == n


def valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n (n nonzero)."""
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k
