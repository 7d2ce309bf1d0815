"""Exact integer and rational arithmetic helpers.

Everything in this package is computed over arbitrary-precision integers and
exact rationals.  No floats are used anywhere: quantities that are naturally
logarithmic (field degrees, factorial growth) are restated as integer power
comparisons by the callers.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm, prod

from .errors import NotAPrimePower

__all__ = [
    "ExactRatio",
    "PrimePower",
    "parse_prime_power",
    "is_prime",
    "prime_powers",
    "factorial",
    "gcd",
    "lcm",
    "prod",
]

# Exact rational numbers.  fractions.Fraction already guarantees the contract
# we need: lowest terms, positive denominator, exact comparison and hashing.
ExactRatio = Fraction


def is_prime(n):
    """Deterministic primality by trial division (fine for the sizes here)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f <= isqrt(n):
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, order=True, slots=True)
class PrimePower:
    """A prime power q = p^e, kept normalized.  Slotted, as the factor
    cache behind parse_prime_power keeps up to 1024 of them.  q is built
    once, at construction; repr, equality, ordering and hash read (p, e)
    alone."""

    p: int
    e: int
    q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", self.p ** self.e)

    def __int__(self):
        return self.q

    def __str__(self):
        return str(self.q)


def parse_prime_power(q):
    """Factor q as p^e or raise NotAPrimePower.

    >>> parse_prime_power(25)
    PrimePower(p=5, e=2)
    """
    if isinstance(q, PrimePower):
        return q
    return _factor_prime_power(int(q))


@lru_cache(maxsize=1024)
def _factor_prime_power(q):
    """PrimePower of the int q, factored once per q while it stays in the
    cache.  A q that is not a prime power raises, and is not cached."""
    if q < 2:
        raise NotAPrimePower(f"{q} is not a prime power")
    # Smallest prime factor by trial division; q = p^e must then hold.
    p = None
    if q % 2 == 0:
        p = 2
    else:
        f = 3
        while f <= isqrt(q):
            if q % f == 0:
                p = f
                break
            f += 2
        if p is None:
            return PrimePower(q, 1)  # q itself is prime
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise NotAPrimePower(f"{q} is not a prime power")
    return PrimePower(p, e)


def prime_powers(lo, hi):
    """All prime powers q with lo <= q <= hi, ascending, as PrimePower.
    One sieve of least prime factors up to hi: q > 1 is p^e, p its least
    prime factor, when q = p or q / p is p^(e-1)."""
    if hi < 2:
        return []
    least = list(range(hi + 1))
    for p in range(2, isqrt(hi) + 1):
        if least[p] == p:
            for m in range(p * p, hi + 1, p):
                if least[m] == m:
                    least[m] = p
    # exponent[q] = e where q = p^e, else 0
    exponent = [0] * (hi + 1)
    out = []
    for q in range(2, hi + 1):
        p = least[q]
        r = q // p
        e = 1 if r == 1 else exponent[r] + 1 if least[r] == p and exponent[r] else 0
        exponent[q] = e
        if e and q >= lo:
            out.append(PrimePower(p, e))
    return out
