"""Small exact-arithmetic helpers (trial division is plenty at this scale)."""

from __future__ import annotations

from .errors import InputError


def _least_divisor(n: int, d: int = 2) -> int:
    """Smallest divisor of n in [d, sqrt(n)], or n itself when there is none.

    Callers pass n with no divisor in [2, d), so the result is prime.
    """
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| in ascending order."""
    n = abs(n)
    out: list[int] = []
    d = 2
    while n > 1:
        d = _least_divisor(n, d)  # resumes where the last factor was found
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
