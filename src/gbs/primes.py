"""Small exact-arithmetic helpers.

Factoring is trial division up to TRIAL_DIVISION_BOUND, so every number up
to its square (10**12) factors by division alone.  A cofactor with no
divisor up to that bound must be a prime that the Miller-Rabin test below
proves; anything else is refused with InputError.
"""

from __future__ import annotations

from math import isqrt

from .errors import InputError

TRIAL_DIVISION_BOUND = 10**6
# bases 2..41, the first 13 primes, make Miller-Rabin exact below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_strong_probable_prime(n: int) -> bool:
    """Miller-Rabin on every base in _MILLER_RABIN_BASES, for odd n > 41."""
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

    Callers pass n with no divisor in [2, d), so the result is prime.  An n
    with no divisor up to TRIAL_DIVISION_BOUND is returned only if
    Miller-Rabin proves it prime; otherwise InputError names `label` (the
    number being factored, n by default).
    """
    root = isqrt(n)
    for q in range(d, min(root, TRIAL_DIVISION_BOUND) + 1):
        if n % q == 0:
            return q
    if root > TRIAL_DIVISION_BOUND and not (n < MILLER_RABIN_LIMIT
                                            and _is_strong_probable_prime(n)):
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
    return n >= 2 and smallest_prime_factor(n) == n


def valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n (n nonzero)."""
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k
