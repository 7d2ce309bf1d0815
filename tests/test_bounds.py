"""The ratio sandwich evaluations, and the paper's order envelopes by
family."""

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
    sandwich,
)
from large_atlas.errors import ConstraintViolation, UnknownCase
from large_atlas.largeness import is_large_h1
from large_atlas.orders import gl_order, order, psl
from test_acceptance import BOUND_QS, check_envelope


# the paper's order envelopes are data in test_acceptance, which checks
# them all at each q of BOUND_QS; these run one family's check per q
@pytest.mark.parametrize("q", BOUND_QS)
def test_gl_bounds_bracket(q):
    check_envelope("GL", q)


@pytest.mark.parametrize("q", BOUND_QS)
def test_gu_bounds_bracket(q):
    check_envelope("GU", q)


@pytest.mark.parametrize("q", BOUND_QS)
def test_sp_bounds_bracket(q):
    check_envelope("Sp", q)


@pytest.mark.parametrize("q", BOUND_QS)
def test_so_bounds_bracket(q):
    for name in ("SOcirc", "SOplus", "SOminus"):
        check_envelope(name, q)


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
