"""Exact integer helpers: prime powers and primality.

Everything in this package is computed over arbitrary-precision integers and
exact rationals (fractions.Fraction).  No floats are used anywhere:
quantities that are naturally logarithmic (field degrees, factorial growth)
are restated as integer power comparisons by the callers.
"""

from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .errors import NotAPrimePower, UnsupportedGroup

__all__ = ["PrimePower", "parse_prime_power", "is_prime", "prime_powers"]


class PrimePower(namedtuple("PrimePower", "p e q")):
    """A prime power q = p^e, kept normalized.  An immutable named tuple
    (p, e, q), q built once at construction, so that its hash, equality
    and ordering run in C; ordering by (p, e, q) is ordering by (p, e).
    Built from p and e alone."""

    __slots__ = ()

    def __new__(cls, p, e):
        return tuple.__new__(cls, (p, e, p ** e))

    def __repr__(self):
        return f"PrimePower(p={self.p}, e={self.e})"

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


# the first thirteen primes: the trial divisors of is_prime and
# _factor_prime_power, and the Miller-Rabin bases of is_prime
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the bases _SMALL_PRIMES is proven correct for every n below
# this bound (Sorenson and Webster 2017, psi_13 = 3317044064679887385961981)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether the int n is prime.  Trial division by _SMALL_PRIMES settles
    every n < 43^2, since a composite below that has a prime factor up to
    41.  Above it, Miller-Rabin on the same bases decides: a failed round
    proves n composite, and passing every round proves it prime below
    _MILLER_RABIN_BOUND.  An n at or above the bound that passes every
    round is refused with UnsupportedGroup, as unproven."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MILLER_RABIN_BOUND:
        raise UnsupportedGroup(
            f"{n} passes the Miller-Rabin test on the bases up to 41, which proves"
            f" primality only below {_MILLER_RABIN_BOUND}")
    return True


def _iroot(n, k):
    """The integer part of the k-th root of n >= 1, by Newton's method from
    above in integers."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=1024)
def _factor_prime_power(q):
    """PrimePower of the int q, factored once per q while it stays in the
    cache.  A q that is not a prime power raises NotAPrimePower, and is not
    cached.

    A prime factor up to 41 fixes p.  Otherwise every prime factor exceeds
    41 > 2^5, so q = p^e has e < bitlen(q) / 5.  Every exact root of q is
    p^(e/k) for some k dividing e, so counting down from there, the first e
    with an exact e-th root p of q is the exponent, and p must be prime, as
    is_prime decides; a p it refuses as unproven refuses q.
    """
    if q < 2:
        raise NotAPrimePower(f"{q} is not a prime power")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            e, rest = 0, q
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1:
                raise NotAPrimePower(f"{q} is not a prime power")
            return PrimePower(p, e)
    for e in range(q.bit_length() // 5, 0, -1):  # e = 1 always matches
        p = _iroot(q, e)
        if p ** e == q:
            break
    try:
        if is_prime(p):
            return PrimePower(p, e)
    except UnsupportedGroup:
        raise UnsupportedGroup(
            f"{q} is a prime power only if {p} is prime, and the Miller-Rabin test"
            f" on the bases up to 41 proves that only below {_MILLER_RABIN_BOUND}") from None
    raise NotAPrimePower(f"{q} is not a prime power")


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
