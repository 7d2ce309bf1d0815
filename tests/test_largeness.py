"""The cube inequality |G0| <= |H0|^3 |O|^2 and its verdict modes."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from large_atlas.errors import ConstraintViolation
from large_atlas.largeness import (
    BOUND_ONLY,
    EXACT,
    EXCLUDED_BY_BOUND,
    FORCED_LARGE,
    is_large,
    is_large_h1,
)


@dataclass
class FakeEntry:
    h0_order: int
    o1_order: int = 1
    bound: str = EXACT


def test_is_large_basic():
    # |A5| = 60 and a subgroup of order 4 with trivial outer part: 64 >= 60
    v = is_large(60, 4)
    assert v.is_large and v.rhs == 64 and v.lhs == 60
    assert v.margin == Fraction(64, 60)
    assert v.mode == EXACT


def test_is_large_boundary_is_inclusive():
    assert is_large(8, 2).is_large          # 8 <= 8
    assert not is_large(9, 2).is_large      # 9 > 8


def test_outer_factor_enters_squared():
    assert not is_large(100, 4).is_large    # 64 < 100
    assert is_large(100, 4, 2).is_large     # 64 * 4 = 256 >= 100


def test_rejects_nonpositive_orders():
    with pytest.raises(ConstraintViolation):
        is_large(0, 5)
    with pytest.raises(ConstraintViolation):
        is_large(10, -1)


def test_upper_bound_entries():
    # an overestimate that still fails proves the genuine order fails
    v = is_large_h1(1000, FakeEntry(4, bound="upper"))
    assert not v.is_large and v.mode == EXCLUDED_BY_BOUND
    # an overestimate that passes proves nothing
    v = is_large_h1(60, FakeEntry(4, bound="upper"))
    assert v.is_large and v.mode == BOUND_ONLY


def test_lower_bound_entries():
    # an underestimate that passes proves the genuine order passes
    v = is_large_h1(60, FakeEntry(4, bound="lower"))
    assert v.is_large and v.mode == FORCED_LARGE
    # an underestimate that fails proves nothing
    v = is_large_h1(1000, FakeEntry(4, bound="lower"))
    assert not v.is_large and v.mode == BOUND_ONLY


def test_unknown_bound_kind_rejected():
    with pytest.raises(ConstraintViolation):
        is_large_h1(60, FakeEntry(4, bound="sideways"))


def test_verdict_str_mentions_both_sides():
    s = str(is_large(60, 4))
    assert "60" in s and "64" in s and "large" in s
