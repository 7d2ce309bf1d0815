"""Exact rational bounds on classical group orders and ratio sandwiches.

Three parts live here.  order_bounds and omega_upper are the paper's
quoted rational lower/upper envelopes on the classical orders (the integer
bit-length bracket of an order is orders.order_bits).  order_bits_floor
gives a bit-length floor for the other groups.  sandwich handles
the recurring pattern where a ratio of group orders R is pinned between two
rational functions f(q) < R < g(q) and compared against a rational threshold
h(q): if h < f the underlying subgroup is certainly large, if h > g it
certainly is not, and otherwise the sandwich is inconclusive and exact
arithmetic must decide.
"""

from math import gcd, lcm
from typing import NamedTuple

from .arith import ExactRatio, parse_prime_power
from .errors import ConstraintViolation, UnknownCase
from .orders import sylow_exponent

CERTAINLY_LARGE = "certainly_large"
CERTAINLY_NOT_LARGE = "certainly_not_large"
UNDETERMINED = "undetermined"


def order_bounds(family, n, q):
    """Rational (lower, upper) bounds on |family_n(q)|.

    Families: GL, GU (n >= 2), Sp (n >= 4), SOcirc, SOplus, SOminus
    (n >= 5).  Bounds are strict below; uppers are attained only in the GL
    and GU lines.
    """
    qq = parse_prime_power(q)
    q = qq.q
    x = ExactRatio(1, q)
    if family in ("GL", "GU"):
        if n < 2 or q < 2:
            raise ConstraintViolation(f"{family} bounds need n, q >= 2")
        lead = ExactRatio(q) ** (n * n)
        if family == "GL":
            return ((1 - x - x ** 2) * lead, (1 - x) * (1 - x ** 2) * lead)
        return ((1 + x) * (1 - x ** 2) * lead,
                (1 + x) * (1 - x ** 2) * (1 + x ** 3) * lead)
    if family == "Sp":
        if n < 4:
            raise ConstraintViolation("Sp bounds need n >= 4")
        lead = ExactRatio(q) ** (n * (n + 1) // 2)
        return ((1 - x ** 2 - x ** 4) * lead, (1 - x ** 2) * (1 - x ** 4) * lead)
    if family in ("SOcirc", "SOplus", "SOminus"):
        if n < 5:
            raise ConstraintViolation("SO bounds need n >= 5")
        lead = ExactRatio(q) ** (n * (n - 1) // 2)
        if family == "SOcirc":
            return ((1 - x ** 2 - x ** 4) * lead, (1 - x ** 2) * (1 - x ** 4) * lead)
        c = gcd(2, q)
        if family == "SOplus":
            return (c * (1 - x ** 2 - x ** 4) * (1 - x ** (n // 2)) * lead,
                    c * (1 - x ** 2) * (1 - x ** 4) * lead)
        return (c * (1 - x ** 2 - x ** 4) * lead,
                c * (1 - x ** 2) * (1 - x ** 4) * (1 + x ** (n // 2)) * lead)
    raise UnknownCase(f"no order bounds for family {family!r}")


def order_bits_floor(g):
    """An integer b with 2^b <= |g|, for the groups that orders.order_bits
    does not bracket: Alt(d) and Sym(d) have order at least floor(d/3)^d,
    a group of Lie type holds a Sylow p-subgroup of order q^N, with
    q >= 2^(a-1) for a the bit length of q, and a sporadic group has
    order at least 2^0.  No order is built.
    """
    fam, n = g.family, g.n
    if fam == "Sporadic":
        return 0
    if fam in ("Alt", "Sym"):
        return n * max((n // 3).bit_length() - 1, 0)
    return sylow_exponent(g) * (g.q.q.bit_length() - 1)


def omega_upper(n, eps, q):
    """Upper bound q^(n(n-1)/2)/(2,q-1) on |Omega_n^eps(q)|, n >= 2.

    Not valid for (n, eps) = (2, -), where the group is cyclic of order
    (q+1)/(2,q-1) and exceeds the would-be bound.
    """
    q = int(parse_prime_power(q))
    if n == 2 and eps == "-":
        raise ConstraintViolation("the bound fails for Omega_2^-")
    return ExactRatio(q) ** (n * (n - 1) // 2) / gcd(2, q - 1)


class BoundTriple(NamedTuple):
    """A sandwich f < R < g together with the threshold h it is tested
    against and the resulting verdict.  An immutable named tuple."""

    case: str
    lower: ExactRatio
    upper: ExactRatio
    threshold: ExactRatio
    verdict: str


def _verdict(lower, upper, threshold):
    if threshold < lower:
        return CERTAINLY_LARGE
    if threshold > upper:
        return CERTAINLY_NOT_LARGE
    return UNDETERMINED


def _gl_power_sandwich(x, k):
    """Bounds on |GL_m(q)|^k / |GL_km(q)| with x = 1/q."""
    return ((1 - x - x ** 2) ** k / ((1 - x) * (1 - x ** 2)),
            ((1 - x) * (1 - x ** 2)) ** k / (1 - x - x ** 2))


class _Ratio:
    """num/den over plain integers, left unreduced.

    The sandwich formulas are short polynomials and quotients in x = 1/q,
    and a Fraction would take a gcd after every step; sandwich reduces
    each bound once, at the end.  Both operands are _Ratio, except that an
    int may stand left of + and - (as in 1 - x); powers take k >= 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num, self.den = num, den

    def __add__(self, y):
        return _Ratio(self.num * y.den + y.num * self.den, self.den * y.den)

    def __radd__(self, k):
        return _Ratio(k * self.den + self.num, self.den)

    def __sub__(self, y):
        return _Ratio(self.num * y.den - y.num * self.den, self.den * y.den)

    def __rsub__(self, k):
        return _Ratio(k * self.den - self.num, self.den)

    def __mul__(self, y):
        return _Ratio(self.num * y.num, self.den * y.den)

    def __truediv__(self, y):
        return _Ratio(self.num * y.den, self.den * y.num)

    def __pow__(self, k):
        return _Ratio(self.num ** k, self.den ** k)


SANDWICH_CASES = (
    "psl-c2-t3", "psl-c3-r3", "psl-c5-r3",
    "psu-c2-t3", "psu-c3-r3",
    "po-c5-r3", "o8-triality-3d4",
)


def _sandwich_bounds(case, x, q, e, n):
    """(lower, upper, threshold) of the named sandwich at x = 1/q, q = p^e.

    lower and upper are built from x by + - * / and powers alone, so they
    come out as a Fraction for a Fraction x and as a _Ratio for a _Ratio x.
    The threshold is a Fraction.
    """
    if case == "psl-c2-t3":
        lower, upper = _gl_power_sandwich(x, 9)
        h = ExactRatio((q - 1) ** 2, 864 * e * e)
    elif case == "psl-c3-r3":
        lower = (1 - x ** 3 - x ** 6) ** 3 / (1 - x - x ** 2)
        upper = (1 - x ** 3) ** 3 * (1 - x ** 6) ** 3 / (1 - x - x ** 2)
        h = ExactRatio((q - 1) ** 2, 108 * e * e)
    elif case == "psl-c5-r3":
        if n is None:
            raise ConstraintViolation("psl-c5-r3 needs the dimension n")
        lower = (1 - x - x ** 2) ** 3 / ((1 - x ** 3) * (1 - x ** 6))
        upper = (1 - x) ** 3 * (1 - x ** 2) ** 3 / (1 - x ** 3 - x ** 6)
        big = q ** 3
        d = gcd(n, big - 1)
        s = gcd(q - 1, (big - 1) // d)
        c = (big - 1) // lcm(q - 1, (big - 1) // d)
        # threshold derived from |H0| = s/(q-1) * |PGL_n(q)| on the small
        # field and the outer contribution 2*log_p(q^3)*d/c of the host
        h = ExactRatio((q - 1) ** 6 * c * c,
                       36 * e * e * d ** 3 * s ** 3 * (big - 1))
    elif case == "psu-c2-t3":
        lower = (1 + x) ** 8 * (1 - x ** 2) ** 9
        upper = (1 + x) ** 8 / (1 - x ** 2)
        h = ExactRatio((q + 1) ** 2, 864 * e * e)
    elif case == "psu-c3-r3":
        lower = (1 + x ** 3) ** 3 * (1 - x ** 6) ** 3 / (1 + x)
        upper = (1 + x ** 3) ** 3 / ((1 + x) * (1 - x ** 2))
        h = ExactRatio((q + 1) ** 2, 108 * e * e)
    elif case == "po-c5-r3":
        lower = (1 - x ** 2 - x ** 4) ** 3 / (1 - x ** 6)
        upper = (1 - x ** 2) ** 3 / (1 - x ** 6 - x ** 12)
        # the 1/16 odd-characteristic ratio factor and the minimum possible
        # outer contribution are folded into the threshold
        h = ExactRatio(1, 36 * e * e) if q % 2 == 0 else ExactRatio(1, 9 * e * e)
    elif case == "o8-triality-3d4":
        lower = (1 - x ** 12) ** 2 * (1 - x ** 6) ** 2 / (1 + x ** 2) ** 3
        upper = ((1 - x ** 12) ** 2 * (1 - x ** 6) ** 3
                 / ((1 + x ** 2) ** 3 * (1 - x ** 6 - x ** 12)))
        h = ExactRatio(1)
    else:
        raise UnknownCase(f"unknown sandwich case {case!r}")
    return lower, upper, h


def sandwich(case, q, n=None):
    """Evaluate the named ratio sandwich at field size q.

    q is the smaller field parameter (q0) in the field-extension and
    subfield cases.  The psl-c5-r3 case also needs the dimension n to form
    its exact threshold.
    """
    qq = parse_prime_power(q)
    lower, upper, h = _sandwich_bounds(case, _Ratio(1, qq.q), qq.q, qq.e, n)
    lower, upper = ExactRatio(lower.num, lower.den), ExactRatio(upper.num, upper.den)
    return BoundTriple(case, lower, upper, h, _verdict(lower, upper, h))
