"""The paper's ratio sandwiches.

A sandwich handles the recurring pattern where a ratio of group orders R
is pinned between two rational functions f(q) < R < g(q) and compared
against a rational threshold h(q): if h < f the underlying subgroup is
certainly large, if h > g it certainly is not, and otherwise the sandwich
is inconclusive and exact arithmetic must decide.  sandwich_verdict and
sandwich decide the verdict by one cross-multiplication rule on integers.
The sweeps read only sandwich_verdict, as an alarm check on the exact cube
test; only sandwich builds the three reduced Fractions of a BoundTriple.
The bounds on a group order itself live in orders: order_bits brackets the
bit length of a classical order, and order_bits_floor gives a floor for
every family.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .arith import parse_prime_power
from .errors import ConstraintViolation, UnknownCase

CERTAINLY_LARGE = "certainly_large"
CERTAINLY_NOT_LARGE = "certainly_not_large"
UNDETERMINED = "undetermined"


class BoundTriple(NamedTuple):
    """A sandwich f < R < g together with the threshold h it is tested
    against and the resulting verdict.  An immutable named tuple."""

    case: str
    lower: Fraction
    upper: Fraction
    threshold: Fraction
    verdict: str


SANDWICH_CASES = (
    "psl-c2-t3", "psl-c3-r3", "psl-c5-r3",
    "psu-c2-t3", "psu-c3-r3",
    "po-c5-r3", "o8-triality-3d4",
)


def _sandwich_bounds(case, q, e, n):
    """(lower num, lower den, upper num, upper den, threshold num, threshold
    den) of the named sandwich at q = p^e, as plain integers, unreduced.

    The paper states each bound as a rational function of x = 1/q (the
    comments); here it is multiplied out over a power of q into integer
    polynomials in q.  Every denominator is positive for q >= 2.
    """
    if case == "psl-c2-t3":
        # (1 - x - x^2)^9 / ((1 - x)(1 - x^2)) < R < ((1 - x)(1 - x^2))^9 / (1 - x - x^2)
        a, b = q * q - q - 1, (q - 1) * (q * q - 1)
        return a ** 9, q ** 15 * b, b ** 9, q ** 25 * a, (q - 1) ** 2, 864 * e * e
    if case == "psl-c3-r3":
        # (1 - x^3 - x^6)^3 / (1 - x - x^2) < R < (1 - x^3)^3 (1 - x^6)^3 / (1 - x - x^2)
        q3 = q ** 3
        a = q * q - q - 1
        return ((q3 * q3 - q3 - 1) ** 3, q ** 16 * a,
                ((q3 - 1) * (q3 * q3 - 1)) ** 3, q ** 25 * a,
                (q - 1) ** 2, 108 * e * e)
    if case == "psl-c5-r3":
        # (1 - x - x^2)^3 / ((1 - x^3)(1 - x^6)) < R < ((1 - x)(1 - x^2))^3 / (1 - x^3 - x^6)
        if n is None:
            raise ConstraintViolation("psl-c5-r3 needs the dimension n")
        big = q ** 3
        d = gcd(n, big - 1)
        s = gcd(q - 1, (big - 1) // d)
        c = (big - 1) // lcm(q - 1, (big - 1) // d)
        # threshold derived from |H0| = s/(q-1) * |PGL_n(q)| on the small
        # field and the outer contribution 2*log_p(q^3)*d/c of the host
        return ((q * q - q - 1) ** 3 * big, (big - 1) * (big * big - 1),
                ((q - 1) * (q * q - 1)) ** 3, big * (big * big - big - 1),
                (q - 1) ** 6 * c * c, 36 * e * e * d ** 3 * s ** 3 * (big - 1))
    if case == "psu-c2-t3":
        # (1 + x)^8 (1 - x^2)^9 < R < (1 + x)^8 / (1 - x^2)
        u = (q + 1) ** 8
        return (u * (q * q - 1) ** 9, q ** 26, u, q ** 6 * (q * q - 1),
                (q + 1) ** 2, 864 * e * e)
    if case == "psu-c3-r3":
        # (1 + x^3)^3 (1 - x^6)^3 / (1 + x) < R < (1 + x^3)^3 / ((1 + x)(1 - x^2))
        q3 = q ** 3
        u = (q3 + 1) ** 3
        return (u * (q3 * q3 - 1) ** 3, q ** 26 * (q + 1),
                u, q ** 6 * (q + 1) * (q * q - 1),
                (q + 1) ** 2, 108 * e * e)
    if case == "po-c5-r3":
        # (1 - x^2 - x^4)^3 / (1 - x^6) < R < (1 - x^2)^3 / (1 - x^6 - x^12)
        q2, q6 = q * q, q ** 6
        # the 1/16 odd-characteristic ratio factor and the minimum possible
        # outer contribution are folded into the threshold
        return ((q2 * q2 - q2 - 1) ** 3, q6 * (q6 - 1),
                (q2 - 1) ** 3 * q6, q6 * q6 - q6 - 1,
                1, (36 if q % 2 == 0 else 9) * e * e)
    if case == "o8-triality-3d4":
        # (1 - x^12)^2 (1 - x^6)^2 / (1 + x^2)^3 < R
        #   < (1 - x^12)^2 (1 - x^6)^3 / ((1 + x^2)^3 (1 - x^6 - x^12))
        q6 = q ** 6
        u = (q6 * q6 - 1) ** 2 * (q6 - 1) ** 2
        v = (q * q + 1) ** 3
        return (u, q ** 30 * v, u * (q6 - 1), q ** 24 * v * (q6 * q6 - q6 - 1), 1, 1)
    raise UnknownCase(f"unknown sandwich case {case!r}")


def _verdict(ln, ld, un, ud, hn, hd):
    """The verdict of a sandwich from the six integers of _sandwich_bounds,
    by cross multiplication: every denominator is positive."""
    if hn * ld < ln * hd:
        return CERTAINLY_LARGE
    if hn * ud > un * hd:
        return CERTAINLY_NOT_LARGE
    return UNDETERMINED


def sandwich_verdict(case, q, n=None):
    """The verdict of sandwich(case, q, n) alone, decided on integers
    without building a Fraction.  The sweeps' alarm check reads only this."""
    qq = parse_prime_power(q)
    return _verdict(*_sandwich_bounds(case, qq.q, qq.e, n))


def sandwich(case, q, n=None):
    """Evaluate the named ratio sandwich at field size q.

    q is the smaller field parameter (q0) in the field-extension and
    subfield cases.  The psl-c5-r3 case also needs the dimension n to form
    its exact threshold.  The verdict is sandwich_verdict's; the three
    bounds are reduced to fractions only for the BoundTriple.
    """
    qq = parse_prime_power(q)
    parts = _sandwich_bounds(case, qq.q, qq.e, n)
    ln, ld, un, ud, hn, hd = parts
    return BoundTriple(case, Fraction(ln, ld), Fraction(un, ud), Fraction(hn, hd), _verdict(*parts))
