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
from large_atlas.arith import parse_prime_power
from large_atlas.errors import UnsupportedGroup
from large_atlas.orders import gl_order, gu_order, sl_order, sp_order

SMALL_Q = (2, 3, 4, 5)
# an n = 3 count takes about 13 ms over GF(7) and 70 ms over GF(9), the first
# p^2 field above GF(4) (Python 3.11, 2 vCPU); visiting all 7^9 matrices
# would take 16 s
GL_Q = SMALL_Q + (7, 9)


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


@pytest.mark.parametrize("q", (16, 17, 25, 49))
def test_gl3_refuses_a_field_whose_minor_tables_would_not_fit(q):
    # 3 q^5 table entries: 7 GB at GF(49); refused before any is built
    with pytest.raises(UnsupportedGroup, match=r"up to GF\(13\)"):
        oracle.count_gl(3, q)


@pytest.mark.parametrize("make, args", [
    (oracle.count_gl, (4, 2)), (oracle.count_gl, (0, 2)),
    (oracle.count_gu, (3, 2)), (oracle.count_gu, (0, 2)),
    (oracle._field, (8,)), (oracle._field, (121,)),
], ids=["gl-n4", "gl-n0", "gu-n3", "gu-n0", "field-8", "field-121"])
def test_oracle_refuses_what_it_cannot_count(make, args):
    with pytest.raises(UnsupportedGroup):
        make(*args)


def test_count_refusals_state_the_range_of_n():
    with pytest.raises(UnsupportedGroup, match="1 <= n <= 3, not n = 0"):
        oracle.count_gl(0, 2)
    with pytest.raises(UnsupportedGroup, match="1 <= n <= 2, not n = 0"):
        oracle.count_gu(0, 2)


def test_q0_power_table_is_an_involution_fixing_the_subfield():
    # x -> x^q0 on GF(q0^2) is the field's nontrivial automorphism: applied
    # twice it is the identity, and it fixes exactly the q0 elements of GF(q0)
    for q0 in GU_Q0:
        F = oracle._field(q0 * q0)
        frob = oracle._powers(F, q0)
        assert [frob[x] for x in frob] == F.elements, q0
        assert sum(frob[x] == x for x in F.elements) == q0, q0


def test_field_arithmetic_is_a_field():
    f4 = oracle._field(4)
    nonzero = [a for a in f4.elements if a != 0]
    assert len(nonzero) == 3
    for a in nonzero:
        # every nonzero element has an inverse
        assert any(f4.mul[a][b] == 1 for b in nonzero)


def _count_gl3_literally(q, det_one=False):
    """Every one of the q^9 matrices, with the six-term determinant."""
    F = oracle._field(q)
    add, sub, mul = F.add, F.sub, F.mul
    count = 0
    for a, b, c, d, e, f, g, h, i in product(F.elements, repeat=9):
        plus = add[add[mul[a][mul[e][i]]][mul[b][mul[f][g]]]][mul[c][mul[d][h]]]
        minus = add[add[mul[c][mul[e][g]]][mul[b][mul[d][i]]]][mul[a][mul[f][h]]]
        det = sub[plus][minus]
        count += det != 0 and (not det_one or det == 1)
    return count


@pytest.mark.parametrize("q", (2, 3))
def test_grouped_count_equals_literal_enumeration(q):
    # the grouping by cofactor vector is checked against no formula at all
    assert oracle.count_gl(3, q) == _count_gl3_literally(q)
    assert oracle.count_gl(3, q, det_one=True) == _count_gl3_literally(q, det_one=True)


def _count_gu2_literally(q0, det_one=False):
    """Every one of the q^4 matrices over GF(q0^2), tested for M conj(M)^T = I."""
    F = oracle._field(q0 * q0)
    add, mul = F.add, F.mul

    def frob(x):
        r = 1
        for _ in range(q0):
            r = mul[r][x]
        return r

    count = 0
    for m in product(F.elements, repeat=4):
        a, b, c, d = m
        fa, fb, fc, fd = map(frob, m)
        if add[mul[a][fa]][mul[b][fb]] != 1:
            continue
        if add[mul[c][fa]][mul[d][fb]] != 0:
            continue
        if add[mul[c][fc]][mul[d][fd]] != 1:
            continue
        det = F.sub[mul[a][d]][mul[b][c]]
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


def _count_gl2_literally(q, det_one=False):
    """Every one of the q^4 matrices, with the two-term determinant."""
    F = oracle._field(q)
    count = 0
    for a, b, c, d in product(F.elements, repeat=4):
        det = F.sub[F.mul[a][d]][F.mul[b][c]]
        count += det != 0 and (not det_one or det == 1)
    return count


@pytest.mark.parametrize("q", (2, 3, 4))
@pytest.mark.parametrize("det_one_first", (False, True))
def test_gl_sl_and_sp2_share_one_enumeration(q, det_one_first):
    # whichever count comes first enumerates; the others read its memo, and
    # every count is checked against no formula at all
    oracle._gl_tally.cache_clear()
    gl, sl = _count_gl2_literally(q), _count_gl2_literally(q, det_one=True)
    calls = [(lambda: oracle.count_gl(2, q), gl),
             (lambda: oracle.count_gl(2, q, det_one=True), sl),
             (lambda: oracle.count_sp2(q), sl)]
    for count, want in calls[::-1] if det_one_first else calls:
        assert count() == want
    info = oracle._gl_tally.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    if q < 4:
        oracle._gl_tally.cache_clear()
        gl3, sl3 = _count_gl3_literally(q), _count_gl3_literally(q, det_one=True)
        if det_one_first:
            assert oracle.count_gl(3, q, det_one=True) == sl3
            assert oracle.count_gl(3, q) == gl3
        else:
            assert oracle.count_gl(3, q) == gl3
            assert oracle.count_gl(3, q, det_one=True) == sl3
        assert oracle._gl_tally.cache_info().misses == 1


@pytest.mark.parametrize("q0", (2, 3))
@pytest.mark.parametrize("det_one_first", (False, True))
def test_gu_and_su_share_one_enumeration(q0, det_one_first):
    oracle._gu_tally.cache_clear()
    gu, su = _count_gu2_literally(q0), _count_gu2_literally(q0, det_one=True)
    if det_one_first:
        assert oracle.count_gu(2, q0, det_one=True) == su
        assert oracle.count_gu(2, q0) == gu
    else:
        assert oracle.count_gu(2, q0) == gu
        assert oracle.count_gu(2, q0, det_one=True) == su
    assert oracle._gu_tally.cache_info().misses == 1


def _field_op_literally(F, op, a, b):
    """a op b in GF(p) or GF(p^2), element by element: the pairs (a0, a1)
    of a = a0 + p a1 stand for a0 + a1 x, with x^2 = -b x - c for the
    quadratic (b, c) of the field's prime."""
    p, e = parse_prime_power(F.q)[:2]
    a0, a1, b0, b1 = a % p, a // p, b % p, b // p
    if op == "add":
        r0, r1 = a0 + b0, a1 + b1
    elif op == "sub":
        r0, r1 = a0 - b0, a1 - b1
    else:
        bb, cc = oracle._QUADRATICS[p] if e == 2 else (0, 0)
        r0, r1 = a0 * b0 - a1 * b1 * cc, a0 * b1 + a1 * b0 - a1 * b1 * bb
    return r0 % p + p * (r1 % p)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9, 25, 49))
def test_field_tables_equal_the_element_wise_definitions(q):
    F = oracle._field(q)
    for op, table in (("add", F.add), ("sub", F.sub), ("mul", F.mul)):
        assert table == [[_field_op_literally(F, op, a, b) for b in F.elements]
                         for a in F.elements], op


def test_each_field_is_built_once_and_shared_by_its_counts():
    oracle._field.cache_clear()
    oracle._gl_tally.cache_clear()
    oracle._gu_tally.cache_clear()
    for n in (1, 2, 3):
        oracle.count_gl(n, 3)
    oracle.count_gu(1, 2)
    oracle.count_gu(2, 2)
    oracle.count_gl(2, 4)
    info = oracle._field.cache_info()
    # GF(3) for the three GL counts, GF(4) for both GU counts and GL(2, 4)
    assert (info.misses, info.hits) == (2, 4)
