"""Rational order bounds and the ratio sandwich evaluations."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from large_atlas import catalog
from large_atlas.arith import parse_prime_power, prime_powers
from large_atlas.bounds import (
    CERTAINLY_LARGE,
    CERTAINLY_NOT_LARGE,
    SANDWICH_CASES,
    UNDETERMINED,
    BoundTriple,
    order_bounds,
    omega_upper,
    order_bits_floor,
    sandwich,
)
from large_atlas.errors import ConstraintViolation, UnknownCase, UnsupportedGroup
from large_atlas.largeness import is_large_h1
from large_atlas.orders import (
    CIRC,
    MINUS,
    PLUS,
    gl_order,
    gu_order,
    omega_order,
    order,
    parse_group,
    psl,
    so_order,
    sp_order,
)

QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


def _so_actual(n, eps, q):
    """|SO| where it is defined, |Omega| in even characteristic."""
    if q % 2 == 0 and n % 2 == 1:
        return omega_order(n, eps, q)
    return so_order(n, eps, q)


@pytest.mark.parametrize("q", QS)
def test_gl_bounds_bracket(q):
    for n in range(2, 21):
        lo, up = order_bounds("GL", n, q)
        assert lo < gl_order(n, q) <= up


@pytest.mark.parametrize("q", QS)
def test_gu_bounds_bracket(q):
    # at n = 2 the lower expression is attained exactly, so only the weak
    # inequality can hold there
    lo, up = order_bounds("GU", 2, q)
    assert lo == gu_order(2, q) <= up
    for n in range(3, 21):
        lo, up = order_bounds("GU", n, q)
        assert lo < gu_order(n, q) <= up


@pytest.mark.parametrize("q", QS)
def test_sp_bounds_bracket(q):
    for n in range(4, 21, 2):
        lo, up = order_bounds("Sp", n, q)
        assert lo < sp_order(n, q) <= up


@pytest.mark.parametrize("q", QS)
def test_so_bounds_bracket(q):
    for n in range(5, 21):
        if n % 2 == 1:
            lo, up = order_bounds("SOcirc", n, q)
            assert lo < _so_actual(n, CIRC, q) <= up
        else:
            for fam, eps in (("SOplus", PLUS), ("SOminus", MINUS)):
                lo, up = order_bounds(fam, n, q)
                assert lo < _so_actual(n, eps, q) <= up


def test_order_bounds_rejects_bad_input():
    with pytest.raises(ConstraintViolation):
        order_bounds("GL", 1, 5)
    with pytest.raises(ConstraintViolation):
        order_bounds("Sp", 3, 5)
    with pytest.raises(UnknownCase):
        order_bounds("XYZ", 6, 5)


def test_order_bits_floor_never_exceeds_the_order():
    hosts = [parse_group(f"{fam}({d})") for fam in ("Alt", "Sym") for d in range(1, 201)]
    hosts += [parse_group(f"{fam}({q})") for fam in ("G2", "3D4") for q in (2, 3, 4, 5)]
    hosts += [parse_group(f"Sz({q})") for q in (8, 32, 128)]
    for q in [int(q) for q in prime_powers(2, 16)]:
        for n in range(1, 13):
            for fam in ("PSL", "PSU", "PSp", "GL", "SL", "PGL", "GU", "SU", "PGU", "Sp"):
                hosts.append(parse_group(f"{fam}({n},{q})"))
            for fam in ("POmega", "SO", "GO", "Omega"):
                for sign in (("",) if n % 2 else ("+", "-")):
                    hosts.append(parse_group(f"{fam}{sign}({n},{q})"))
    checked = 0
    for g in hosts:
        try:
            g_order = order(g)
        except UnsupportedGroup:
            continue  # Sp in odd dimension, SO(odd, even q), dimension too small
        assert 2 ** order_bits_floor(g) <= g_order, str(g)
        checked += 1
    assert checked > 2000


def test_omega_upper():
    for q in (2, 3, 4, 5):
        for n in range(3, 13):
            for eps in (PLUS, MINUS, CIRC):
                if (eps == CIRC) != (n % 2 == 1):
                    continue
                assert omega_order(n, eps, q) <= omega_upper(n, eps, q)
    with pytest.raises(ConstraintViolation):
        omega_upper(2, MINUS, 3)


def test_sandwich_brackets_the_exact_gl_power_ratio():
    # the wreath case bounds |GL_1(q)|^9 over |GL_3(q)|^3 style quotients;
    # spot check the subfield case, whose exact ratio is easy to form
    for q0 in (2, 3, 4, 5, 8, 9):
        for n in (2, 3, 4, 6):
            tri = sandwich("psl-c5-r3", q0, n=n)
            exact = Fraction(gl_order(n, q0) ** 3, gl_order(n, q0 ** 3))
            assert tri.lower < exact < tri.upper


def test_sandwich_subfield_threshold_matches_catalog():
    # a decisive subfield verdict must agree with the exact cube test
    for q0 in [int(q) for q in prime_powers(2, 64)]:
        for n in (2, 3, 4, 5):
            entry = catalog.psl_c5(psl(n, q0 ** 3), 3)
            v = is_large_h1(order(psl(n, q0 ** 3)), entry)
            tri = sandwich("psl-c5-r3", q0, n=n)
            if tri.verdict == CERTAINLY_LARGE:
                assert v.is_large, (q0, n)
            elif tri.verdict == CERTAINLY_NOT_LARGE:
                assert not v.is_large, (q0, n)


def test_sandwich_known_verdicts():
    assert sandwich("psl-c2-t3", 3).verdict == CERTAINLY_LARGE
    assert sandwich("psl-c2-t3", 29).verdict == CERTAINLY_NOT_LARGE
    assert sandwich("psl-c2-t3", 1024).verdict == CERTAINLY_NOT_LARGE


def test_sandwich_cases_all_evaluate():
    for case in SANDWICH_CASES:
        tri = sandwich(case, 4, n=3)
        assert tri.lower < tri.upper


def _paper_sandwich(case, q, e, n):
    """The paper's (lower, upper, threshold) of a sandwich, written in
    x = 1/q and evaluated over Fraction: the independent route that the
    integer polynomials of bounds.sandwich must agree with."""
    x = Fraction(1, q)
    gl1 = 1 - x - x ** 2
    gl2 = (1 - x) * (1 - x ** 2)
    if case == "psl-c2-t3":
        return gl1 ** 9 / gl2, gl2 ** 9 / gl1, Fraction((q - 1) ** 2, 864 * e * e)
    if case == "psl-c3-r3":
        return ((1 - x ** 3 - x ** 6) ** 3 / gl1,
                (1 - x ** 3) ** 3 * (1 - x ** 6) ** 3 / gl1,
                Fraction((q - 1) ** 2, 108 * e * e))
    if case == "psl-c5-r3":
        big = q ** 3
        d = gcd(n, big - 1)
        s = gcd(q - 1, (big - 1) // d)
        c = (big - 1) // lcm(q - 1, (big - 1) // d)
        return (gl1 ** 3 / ((1 - x ** 3) * (1 - x ** 6)),
                gl2 ** 3 / (1 - x ** 3 - x ** 6),
                Fraction((q - 1) ** 6 * c * c, 36 * e * e * d ** 3 * s ** 3 * (big - 1)))
    if case == "psu-c2-t3":
        return ((1 + x) ** 8 * (1 - x ** 2) ** 9, (1 + x) ** 8 / (1 - x ** 2),
                Fraction((q + 1) ** 2, 864 * e * e))
    if case == "psu-c3-r3":
        return ((1 + x ** 3) ** 3 * (1 - x ** 6) ** 3 / (1 + x),
                (1 + x ** 3) ** 3 / ((1 + x) * (1 - x ** 2)),
                Fraction((q + 1) ** 2, 108 * e * e))
    if case == "po-c5-r3":
        return ((1 - x ** 2 - x ** 4) ** 3 / (1 - x ** 6),
                (1 - x ** 2) ** 3 / (1 - x ** 6 - x ** 12),
                Fraction(1, (36 if q % 2 == 0 else 9) * e * e))
    assert case == "o8-triality-3d4"
    return ((1 - x ** 12) ** 2 * (1 - x ** 6) ** 2 / (1 + x ** 2) ** 3,
            (1 - x ** 12) ** 2 * (1 - x ** 6) ** 3 / ((1 + x ** 2) ** 3 * (1 - x ** 6 - x ** 12)),
            Fraction(1))


def test_sandwich_triples_equal_the_paper_forms_in_x():
    # sandwich multiplies each x = 1/q form out into integer polynomials in
    # q and decides the verdict by cross multiplication; every field of the
    # triple must equal the forms over Fraction, at every q up to 4096 (no
    # case is undetermined there, but both decisive verdicts occur)
    verdicts = set()
    for qq in prime_powers(2, 4096):
        q, e = qq.q, qq.e
        for case in SANDWICH_CASES:
            for n in ((2, 3, 4, 6, 9) if case == "psl-c5-r3" else (None,)):
                lower, upper, h = _paper_sandwich(case, q, e, n)
                want = (CERTAINLY_LARGE if h < lower
                        else CERTAINLY_NOT_LARGE if h > upper else UNDETERMINED)
                tri = sandwich(case, q, n=n)
                assert type(tri) is BoundTriple, (case, q, n)
                assert tri == (case, lower, upper, h, want), (case, q, n)
                assert all(type(f) is Fraction for f in tri[1:4]), (case, q, n)
                verdicts.add(want)
    assert verdicts == {CERTAINLY_LARGE, CERTAINLY_NOT_LARGE}


def test_sandwich_rejects_unknown_case():
    with pytest.raises(UnknownCase):
        sandwich("no-such-case", 5)
    with pytest.raises(ConstraintViolation):
        sandwich("psl-c5-r3", 5)  # needs the dimension


def test_factorial_versus_power_inequality():
    from math import factorial
    for t in range(2, 65):
        assert factorial(t) * 2 ** t < (t + 1) ** t


def test_field_degree_squared_at_most_q():
    exceptions = [int(q) for q in prime_powers(2, 1024)
                  if parse_prime_power(q).e ** 2 > int(q)]
    assert exceptions == [8]
