"""The largeness predicate: |G0| <= |H0|^3 |O|^2, decided exactly.

A subgroup H of an almost simple group G with socle G0 is large when
|H|^3 >= |G|.  Writing H0 = H intersect G0 and O for the outer part of G
realized by H, that inequality follows from |G0| <= |H0|^3 |O|^2, and the
variant used throughout the tables replaces O by the outer classes O1 that
stabilize the G0-class of H0.  Everything here is integer arithmetic; no
verdict ever depends on floating point.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import ConstraintViolation

EXACT = "exact"
BOUND_ONLY = "bound_only"
FORCED_LARGE = "forced_large"
EXCLUDED_BY_BOUND = "excluded_by_bound"

# the bound kinds of a catalog row's |H0|, besides EXACT
UPPER = "upper"
LOWER = "lower"

# verdict mode by (the row's bound kind, cube test result); see is_large_h1
_MODES = {
    (EXACT, True): EXACT,
    (EXACT, False): EXACT,
    (UPPER, True): BOUND_ONLY,
    (UPPER, False): EXCLUDED_BY_BOUND,
    (LOWER, True): FORCED_LARGE,
    (LOWER, False): BOUND_ONLY,
}


class LargenessVerdict(NamedTuple):
    """Outcome of one largeness test, with both sides of the inequality.
    An immutable named tuple."""

    h0_order: int
    o_order: int
    lhs: int
    rhs: int
    is_large: bool
    mode: str = EXACT

    @property
    def margin(self):
        """rhs / lhs in lowest terms; built on demand, since the gcd of two
        huge orders costs more than the test itself.  Each read builds it
        again, so a caller that needs it twice should read it once."""
        return Fraction(self.rhs, self.lhs)

    def __str__(self):
        rel = "<=" if self.is_large else ">"
        return (f"|G0| = {self.lhs} {rel} {self.rhs} = |H0|^3 |O|^2"
                f" ({'large' if self.is_large else 'not large'}, {self.mode})")


def is_large(g0_order, h0_order, o_order=1, bound=EXACT):
    """Exact test of |G0| <= |H0|^3 |O|^2 from integer orders.  `bound`
    says what |H0| is: EXACT, or the UPPER or LOWER bound a catalog row
    stores, which sets the verdict's mode (see is_large_h1)."""
    g0_order, h0_order, o_order = int(g0_order), int(h0_order), int(o_order)
    if g0_order <= 0 or h0_order <= 0 or o_order <= 0:
        raise ConstraintViolation("orders must be positive")
    rhs = h0_order ** 3 * o_order ** 2
    large = g0_order <= rhs
    mode = _MODES.get((bound, large))
    if mode is None:
        raise ConstraintViolation(f"unknown bound kind {bound!r}")
    return LargenessVerdict(h0_order, o_order, g0_order, rhs, large, mode)


def is_large_h1(g0_order, entry):
    """Largeness test for a catalog entry, honoring bound-only rows.

    Entries that store only an upper bound on |H0| can certify a negative
    answer (mode excluded_by_bound: the overestimate already fails, so the
    true order fails too) and entries storing a lower bound can certify a
    positive one (mode forced_large); in the remaining situations the
    verdict keeps its literal truth value but is flagged bound_only so
    callers know it settles nothing.
    """
    return is_large(g0_order, entry.h0_order, entry.o1_order, entry.bound)
