"""Exact-arithmetic atlas of large maximal subgroups of finite classical groups.

Everything here is integer arithmetic: group orders, the cube
inequality test, interval bounds, subgroup catalogs, and the parameter
sweeps that regression-check the whole thing against golden lists.
"""

from .arith import parse_prime_power
from .errors import (
    AmbiguousSelector,
    ConstraintViolation,
    GroupParseError,
    LargeAtlasError,
    MissingGolden,
    UnsupportedGroup,
)
from .largeness import LargenessVerdict, is_large, is_large_h1
from .orders import order, out_order, parse_group, subgroup_name_order

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSelector",
    "ConstraintViolation",
    "GroupParseError",
    "LargeAtlasError",
    "LargenessVerdict",
    "MissingGolden",
    "UnsupportedGroup",
    "is_large",
    "is_large_h1",
    "order",
    "out_order",
    "parse_group",
    "parse_prime_power",
    "subgroup_name_order",
    "__version__",
]
