"""Brute-force matrix counts against the closed-form orders.

These enumerations are tiny but completely independent of the formulas:
they build the actual finite fields and count invertible matrices.
"""

import ast
import pathlib
import sys
from itertools import product

import pytest

from large_atlas import oracle
from large_atlas.orders import gl_order, gu_order, sl_order, sp_order

SMALL_Q = (2, 3, 4, 5)
# GF(7) takes about 0.1 s per n = 3 count; visiting all 7^9 matrices would take 16 s
GL_Q = SMALL_Q + (7,)


@pytest.mark.parametrize("q", GL_Q)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_gl_count_matches_formula(n, q):
    assert oracle.count_gl(n, q) == gl_order(n, q)


@pytest.mark.parametrize("q", GL_Q)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_sl_count_matches_formula(n, q):
    assert oracle.count_gl(n, q, det_one=True) == sl_order(n, q)


# row by row, an n = 2 count takes about 3 ms over GF(25) and 9 ms over
# GF(49); visiting all q^4 matrices of GF(49) took about 27 s
GU_Q0 = (2, 3, 5, 7)


@pytest.mark.parametrize("q0", GU_Q0)
@pytest.mark.parametrize("n", (1, 2))
def test_gu_count_matches_formula(n, q0):
    assert oracle.count_gu(n, q0) == gu_order(n, q0)
    assert oracle.count_gu(n, q0, det_one=True) == gu_order(n, q0) // (q0 + 1)


@pytest.mark.parametrize("q", SMALL_Q)
def test_sp2_count_is_sl2(q):
    assert oracle.count_sp2(q) == sp_order(2, q) == sl_order(2, q)


def test_field_arithmetic_is_a_field():
    f4 = oracle.SmallField(4)
    nonzero = [a for a in f4.elements if a != 0]
    assert len(nonzero) == 3
    for a in nonzero:
        # every nonzero element has an inverse
        assert any(f4.mul(a, b) == 1 for b in nonzero)


def _count_gl3_literally(q, det_one=False):
    """Every one of the q^9 matrices, with the six-term determinant."""
    F = oracle.SmallField(q)
    add, mul = F.add, F.mul
    count = 0
    for a, b, c, d, e, f, g, h, i in product(F.elements, repeat=9):
        det = F.sub(add(add(mul(a, mul(e, i)), mul(b, mul(f, g))), mul(c, mul(d, h))),
                    add(add(mul(c, mul(e, g)), mul(b, mul(d, i))), mul(a, mul(f, h))))
        count += det != 0 and (not det_one or det == 1)
    return count


@pytest.mark.parametrize("q", (2, 3))
def test_grouped_count_equals_literal_enumeration(q):
    # the grouping by cofactor vector is checked against no formula at all
    assert oracle.count_gl(3, q) == _count_gl3_literally(q)
    assert oracle.count_gl(3, q, det_one=True) == _count_gl3_literally(q, det_one=True)


def _count_gu2_literally(q0, det_one=False):
    """Every one of the q^4 matrices over GF(q0^2), tested for M conj(M)^T = I."""
    F = oracle.SmallField(q0 * q0)
    add, mul = F.add, F.mul
    count = 0
    for m in product(F.elements, repeat=4):
        a, b, c, d = m
        fa, fb, fc, fd = (F.frob(x) for x in m)
        if add(mul(a, fa), mul(b, fb)) != 1:
            continue
        if add(mul(c, fa), mul(d, fb)) != 0:
            continue
        if add(mul(c, fc), mul(d, fd)) != 1:
            continue
        det = F.sub(mul(a, d), mul(b, c))
        count += det != 0 and (not det_one or det == 1)
    return count


@pytest.mark.parametrize("q0", (2, 3))
def test_row_by_row_unitary_count_equals_literal_enumeration(q0):
    # the row-by-row count is checked against no formula at all
    assert oracle.count_gu(2, q0) == _count_gu2_literally(q0)
    assert oracle.count_gu(2, q0, det_one=True) == _count_gu2_literally(q0, det_one=True)


def test_oracle_imports_no_formula():
    # the counts stay independent only while oracle.py imports nothing that
    # knows an order: its own package's arith and errors, and the stdlib
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module in ("arith", "errors"), ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
