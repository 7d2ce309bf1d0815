"""Integer and prime-power arithmetic."""

import time
from math import isqrt

import pytest

from large_atlas import arith
from large_atlas.arith import (
    PrimePower,
    is_prime,
    parse_prime_power,
    prime_powers,
)
from large_atlas.errors import NotAPrimePower, UnsupportedGroup


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_larger():
    assert is_prime(7919)
    assert not is_prime(7917)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


@pytest.mark.parametrize("q,p,e", [
    (2, 2, 1), (8, 2, 3), (9, 3, 2), (125, 5, 3), (1024, 2, 10), (169, 13, 2),
])
def test_parse_prime_power(q, p, e):
    pp = parse_prime_power(q)
    assert (pp.p, pp.e) == (p, e)
    assert int(pp) == q
    assert pp.q == q


def test_parse_prime_power_idempotent():
    pp = parse_prime_power(49)
    assert parse_prime_power(pp) == pp


@pytest.mark.parametrize("bad", [0, 1, 6, 12, 100, -8])
def test_parse_prime_power_rejects(bad):
    with pytest.raises(NotAPrimePower):
        parse_prime_power(bad)


@pytest.mark.parametrize("bad", [12, 1])
def test_parse_prime_power_rejects_on_every_call(bad):
    # a failed factorization is never cached as an answer
    for _ in range(3):
        with pytest.raises(NotAPrimePower):
            parse_prime_power(bad)


def test_parse_prime_power_cache_is_bounded():
    assert parse_prime_power(1021) == PrimePower(1021, 1)
    assert arith._factor_prime_power.cache_info().maxsize is not None


def _factor_by_trial_division(q):
    """(p, e) with q = p^e, p found by trial division up to the square root
    of q, or None: the factorization parse_prime_power made before it
    tested primality by Miller-Rabin."""
    if q < 2:
        return None
    p = 2 if q % 2 == 0 else next((f for f in range(3, isqrt(q) + 1, 2) if q % f == 0), q)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    return (p, e) if rest == 1 else None


def test_parse_prime_power_factors_every_small_q_as_trial_division_does():
    for q in range(-2, 10 ** 5 + 1):
        try:
            got = parse_prime_power(q)
        except NotAPrimePower:
            got = None
        assert (got and (got.p, got.e)) == _factor_by_trial_division(q), q


def test_is_prime_and_parse_prime_power_agree_with_a_sieve():
    # trial division by the primes up to 41 settles every n < 43^2 and
    # Miller-Rabin every n above, so the range holds both routes
    hi = 1 << 16
    least = list(range(hi))
    for p in range(2, isqrt(hi - 1) + 1):
        if least[p] == p:
            for m in range(p * p, hi, p):
                if least[m] == m:
                    least[m] = p
    for n in range(-2, hi):
        want = None
        if n >= 2:
            p, e, rest = least[n], 0, n
            while rest % p == 0:
                rest //= p
                e += 1
            want = (p, e) if rest == 1 else None
        assert is_prime(n) is (want == (n, 1)), n
        try:
            got = parse_prime_power(n)
        except NotAPrimePower:
            got = None
        assert (got and (got.p, got.e)) == want, n
    # 41 * 43, the largest prime below 43^2, 43^2 and 43 * 47
    assert [is_prime(n) for n in (1763, 1847, 1849, 2021)] == [False, True, False, False]
    assert [parse_prime_power(n) for n in (1847, 1849)] == [PrimePower(1847, 1), PrimePower(43, 2)]


@pytest.mark.parametrize("q, p, e", [
    (10 ** 18 + 3, 10 ** 18 + 3, 1),
    ((10 ** 9 + 7) ** 2, 10 ** 9 + 7, 2),
    (2 ** 100, 2, 100),
    (43 ** 14, 43, 14),
    # the largest prime below the bound of the Miller-Rabin test
    (3317044064679887385961813, 3317044064679887385961813, 1),
])
def test_parse_prime_power_of_a_large_q_is_fast(q, p, e):
    # trial division up to the square root of 10^18 + 3 ran for more than 30 s
    t0 = time.perf_counter()
    got = parse_prime_power(q)
    assert (got.p, got.e, got.q) == (p, e, q)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("q", [
    (10 ** 9 + 7) * (10 ** 9 + 9), (10 ** 9 + 7) ** 2 * (10 ** 9 + 9), 47 ** 3 * 53,
    2 ** 100 * 3, 3317044064679887385961813 * 3, (2 ** 89 - 1) * (2 ** 61 - 1),
])
def test_parse_prime_power_refuses_a_large_composite(q):
    # above the bound too, a failed Miller-Rabin round proves q composite
    with pytest.raises(NotAPrimePower):
        parse_prime_power(q)


@pytest.mark.parametrize("q", [
    2 ** 89 - 1, (2 ** 89 - 1) ** 3, 2 ** 127 - 1,
    # the least composite that passes every round: the bound itself
    3317044064679887385961981,
])
def test_a_prime_above_the_miller_rabin_bound_is_refused_as_unproven(q):
    bound = "only below 3317044064679887385961981"
    with pytest.raises(UnsupportedGroup, match="Miller-Rabin.*" + bound):
        parse_prime_power(q)


def test_prime_power_stores_q_and_compares_on_p_and_e():
    q = PrimePower(5, 2)
    assert q.q == 25 and int(q) == 25 and str(q) == "25"
    assert repr(q) == "PrimePower(p=5, e=2)"
    assert q == PrimePower(5, 2) and hash(q) == hash(PrimePower(5, 2))
    assert sorted([PrimePower(3, 1), PrimePower(2, 3)]) == [PrimePower(2, 3), PrimePower(3, 1)]
    with pytest.raises(TypeError):
        PrimePower(5, 2, 25)
    # a named tuple (p, e, q): hashed and compared in C
    assert isinstance(q, tuple) and tuple(q) == (5, 2, 25)
    with pytest.raises(AttributeError):
        q.p = 7


def test_prime_powers_range():
    got = [int(q) for q in prime_powers(2, 32)]
    assert got == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_prime_powers_yields_normalized_objects():
    for q in prime_powers(2, 100):
        assert isinstance(q, PrimePower)
        assert is_prime(q.p)
        assert q.p ** q.e == int(q)


def test_prime_powers_sieve_matches_trial_division():
    # the list q by q through parse_prime_power, which factors by small
    # divisors, integer roots and Miller-Rabin, for every range up to 1024
    by_trial = []
    for q in range(2, 1025):
        try:
            by_trial.append(parse_prime_power(q))
        except NotAPrimePower:
            pass
    for hi in range(-2, 1025):
        for lo in (-1, 2, hi // 2, hi):
            want = [q for q in by_trial if lo <= q.q <= hi]
            assert prime_powers(lo, hi) == want, (lo, hi)
    assert [(q.p, q.e) for q in prime_powers(1000, 1024)] == [
        (1009, 1), (1013, 1), (1019, 1), (1021, 1), (2, 10)]
