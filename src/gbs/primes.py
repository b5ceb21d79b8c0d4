"""Small exact-arithmetic helpers.

Factoring trial-divides up to 1000, keeps a cofactor that the Miller-Rabin
test below proves prime, and trial-divides any other on up to
TRIAL_DIVISION_BOUND, so every number up to its square (10**12) factors.
A cofactor with no divisor up to that bound is refused with InputError.
"""

from __future__ import annotations

from math import isqrt

from .errors import InputError

TRIAL_DIVISION_BOUND = 10**6
_PROOF_START = 1000  # trial division up to here first, then the Miller-Rabin proof
# bases 2..41, the first 13 primes, make Miller-Rabin exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on every base in _MILLER_RABIN_BASES, for n > 41; False proves n composite."""
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in _MILLER_RABIN_BASES:
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


def _least_divisor(n: int, d: int = 2, label: int | None = None) -> int:
    """Smallest divisor of n in [d, sqrt(n)], or n itself when there is none.

    Callers pass n with no divisor in [2, d), so the result is prime.  Once
    trial division passes _PROOF_START, an n that Miller-Rabin proves prime
    is returned; one with no divisor up to TRIAL_DIVISION_BOUND raises
    InputError naming `label` (the number being factored, n by default).
    """
    root = isqrt(n)
    for q in range(d, min(root, _PROOF_START) + 1):
        if n % q == 0:
            return q
    if root > _PROOF_START and n < MILLER_RABIN_LIMIT and _is_strong_probable_prime(n):
        return n
    for q in range(max(d, _PROOF_START + 1), min(root, TRIAL_DIVISION_BOUND) + 1):
        if n % q == 0:
            return q
    if root > TRIAL_DIVISION_BOUND:  # Miller-Rabin has not proved n prime
        raise InputError(f"cannot factor {n if label is None else label}: a factor has no "
                         f"divisor up to {TRIAL_DIVISION_BOUND} and is not a prime below "
                         f"{MILLER_RABIN_LIMIT}")
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in ascending order."""
    label = n = abs(n)
    out: list[int] = []
    d = 2
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
