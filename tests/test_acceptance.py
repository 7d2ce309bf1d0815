"""End-to-end acceptance checks, one block per numbered criterion.

Five checks are deliberately left red (strict xfail) rather than patched
over: the generators disagree with the checked-in reference lists in two
sweeps, one published cutoff claim fails exact arithmetic at a single
point, the strict unitary lower bound is attained at n = 2, and one table B
remark contradicts the exact cube test.  The golden files and the table
data record the reference values verbatim.
"""

import importlib.util
import pathlib
import time
from fractions import Fraction
from math import gcd

import pytest

from large_atlas import arith, bounds, catalog, cli, oracle, orders, sweep
from large_atlas.arith import parse_prime_power, prime_powers
from large_atlas.bounds import CERTAINLY_LARGE, CERTAINLY_NOT_LARGE, sandwich
from large_atlas.largeness import is_large, is_large_h1
from large_atlas.orders import (
    CIRC,
    MINUS,
    PLUS,
    gl_order,
    gu_order,
    omega_order,
    order,
    parse_group,
    pomega,
    pomega_order,
    psl,
    psu,
    sl_order,
    so_order,
    sp_order,
    subgroup_name_order,
    tri_d4_order,
)

# ---------------------------------------------------------------------------
# 1. order fidelity
# ---------------------------------------------------------------------------

FIDELITY = (
    ("PSU(5,2)", 13685760),
    ("PSL(4,5)", 7254000000),
    ("POmega+(8,2)", 174182400),
)


@pytest.mark.parametrize("name,expected", FIDELITY)
def test_criterion_1_order_fidelity(name, expected):
    g = parse_group(name)
    assert order(g) == expected
    best = min(_timed(lambda: order(g)) for _ in range(5))
    assert best < 0.001  # well under a millisecond


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 2. brute-force oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            assert oracle.count_gl(n, q) == gl_order(n, q)
            assert oracle.count_gl(n, q, det_one=True) == sl_order(n, q)
        assert oracle.count_sp2(q) == sp_order(2, q)
    assert time.perf_counter() - t0 < 30


# ---------------------------------------------------------------------------
# 3. bound sandwich suite
# ---------------------------------------------------------------------------

BOUND_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)


def _so_actual(n, eps, q):
    if q % 2 == 0 and n % 2 == 1:
        return omega_order(n, eps, q)
    return so_order(n, eps, q)


# The paper's quoted envelopes on the classical orders, kept as data:
# name -> (the dimensions n <= 20 it is checked at, the exact order
# exact(n, q) it brackets, its leading term lead(n, q), and its lower and
# upper factors in x = 1/q).  The bound is lead times the factor; a lower
# factor of None means the paper quotes only the upper bound.  The Omega
# bound q^(n(n-1)/2) / (2, q - 1) fails for Omega_2^-, cyclic of order
# (q + 1) / (2, q - 1), so its minus type starts at n = 4.
ENVELOPES = {
    "GL": (range(2, 21), gl_order, lambda n, q: q ** (n * n),
           lambda x, n: 1 - x - x ** 2, lambda x, n: (1 - x) * (1 - x ** 2)),
    "GU": (range(2, 21), gu_order, lambda n, q: q ** (n * n),
           lambda x, n: (1 + x) * (1 - x ** 2),
           lambda x, n: (1 + x) * (1 - x ** 2) * (1 + x ** 3)),
    "Sp": (range(4, 21, 2), sp_order, lambda n, q: q ** (n * (n + 1) // 2),
           lambda x, n: 1 - x ** 2 - x ** 4, lambda x, n: (1 - x ** 2) * (1 - x ** 4)),
    "SOcirc": (range(5, 21, 2), lambda n, q: _so_actual(n, CIRC, q),
               lambda n, q: q ** (n * (n - 1) // 2),
               lambda x, n: 1 - x ** 2 - x ** 4, lambda x, n: (1 - x ** 2) * (1 - x ** 4)),
    "SOplus": (range(6, 21, 2), lambda n, q: _so_actual(n, PLUS, q),
               lambda n, q: gcd(2, q) * q ** (n * (n - 1) // 2),
               lambda x, n: (1 - x ** 2 - x ** 4) * (1 - x ** (n // 2)),
               lambda x, n: (1 - x ** 2) * (1 - x ** 4)),
    "SOminus": (range(6, 21, 2), lambda n, q: _so_actual(n, MINUS, q),
                lambda n, q: gcd(2, q) * q ** (n * (n - 1) // 2),
                lambda x, n: 1 - x ** 2 - x ** 4,
                lambda x, n: (1 - x ** 2) * (1 - x ** 4) * (1 + x ** (n // 2))),
    "Omega": (range(3, 21, 2), lambda n, q: omega_order(n, CIRC, q),
              lambda n, q: Fraction(q ** (n * (n - 1) // 2), gcd(2, q - 1)),
              None, lambda x, n: 1),
    "Omega+": (range(2, 21, 2), lambda n, q: omega_order(n, PLUS, q),
               lambda n, q: Fraction(q ** (n * (n - 1) // 2), gcd(2, q - 1)),
               None, lambda x, n: 1),
    "Omega-": (range(4, 21, 2), lambda n, q: omega_order(n, MINUS, q),
               lambda n, q: Fraction(q ** (n * (n - 1) // 2), gcd(2, q - 1)),
               None, lambda x, n: 1),
}


def _envelope(name, n, q):
    """(lower, exact, upper) of ENVELOPES[name] at n and q; lower is None
    where the paper quotes no lower bound."""
    _, exact, lead, lower, upper = ENVELOPES[name]
    x, top = Fraction(1, q), lead(n, q)
    return (None if lower is None else lower(x, n) * top, exact(n, q), upper(x, n) * top)


def check_envelope(name, q):
    """Assert lower < exact <= upper for ENVELOPES[name] at every n it is
    checked at, over GF(q).  The GU lower bound is attained at n = 2: there
    it asserts lower == exact (the strict form is the xfail below)."""
    for n in ENVELOPES[name][0]:
        lo, exact, up = _envelope(name, n, q)
        assert exact <= up, (name, n, q)
        if (name, n) == ("GU", 2):
            assert lo == exact, q
        elif lo is not None:
            assert lo < exact, (name, n, q)


def test_criterion_3_bound_suite():
    for q in BOUND_QS:
        for name in ENVELOPES:
            check_envelope(name, q)
    from math import factorial
    for t in range(2, 65):
        assert factorial(t) * 2 ** t < (t + 1) ** t
    bad = [int(q) for q in prime_powers(2, 1024)
           if parse_prime_power(q).e ** 2 > int(q)]
    assert bad == [8]


@pytest.mark.xfail(strict=True,
                   reason="the quoted strict lower bound for the unitary "
                          "family is attained with equality at n = 2, so "
                          "'lower < actual' fails there; every other point "
                          "of the grid is strict")
def test_criterion_3_gu_lower_bound_strict_at_n2():
    for q in BOUND_QS:
        lo, exact, _ = _envelope("GU", 2, q)
        assert lo < exact


# ---------------------------------------------------------------------------
# 4. reference-list reproduction against goldens
# ---------------------------------------------------------------------------

LIST_CASES = (
    "psl-c2-t3", "psl-c3-r3", "psl-c3-r5", "psl-c6",
    "psu-c2-t4plus", "psu-c3-r3", "psu-c6",
    "psp-c2-t5", "psp-c6",
    "pso-c2-o1p", "pso-c6",
)


@pytest.mark.parametrize("cid", LIST_CASES)
def test_criterion_4_lists_match_goldens(cid, sweep_reports):
    report = sweep_reports[cid]
    assert report.ok, (report.missing, report.extra, report.alarms)


@pytest.mark.xfail(strict=True,
                   reason="the exact cube test also admits q = 31 (margin "
                          "9.28e11 vs 8.52e11), which the reference list "
                          "omits; the golden keeps the published 21 values")
def test_criterion_4_psu_c2_t3_matches_golden(sweep_reports):
    assert sweep_reports["psu-c2-t3"].ok


@pytest.mark.xfail(strict=True,
                   reason="the exact cube test also admits the orthogonal "
                          "wreath point (q,m,t,eps1,eps) = (2,2,6,-,+), "
                          "absent from the reference list; the golden keeps "
                          "the published 4 members")
def test_criterion_4_pso_c2_go_wr_matches_golden(sweep_reports):
    assert sweep_reports["pso-c2-go-wr"].ok


def test_criterion_4_known_diffs_are_only_additions(sweep_reports, known_diffs):
    # the two red cases above gain members but never lose any
    assert set(known_diffs) == {"psu-c2-t3", "pso-c2-go-wr"}
    for cid, extras in known_diffs.items():
        assert sweep_reports[cid].missing == [], cid
        assert sweep_reports[cid].extra == extras, cid


# ---------------------------------------------------------------------------
# 5. empty-case soundness
# ---------------------------------------------------------------------------


def test_criterion_5_empty_cases(sweep_reports):
    for cid in ("psl-c4", "psl-c7", "psu-c4", "psu-c7", "psp-c4", "psp-c7",
                "psp-c3-r5", "pso-c7", "pso-c3-extra", "pso-c4-large-n"):
        report = sweep_reports[cid]
        assert report.members == [], cid
        assert report.ok, cid


# ---------------------------------------------------------------------------
# 6. factorial cutoff for the permutation-module hosts
# ---------------------------------------------------------------------------


def _cutoff_holds(d, p):
    from math import factorial
    return factorial(d) ** 3 >= order(catalog.collection_a_host(d, p))


def test_criterion_6_cutoff_exact_shape():
    held_2 = {d for d in range(5, 29) if _cutoff_holds(d, 2)}
    assert held_2 == set(range(5, 25)) - {23}
    held_3 = {d for d in range(5, 29) if _cutoff_holds(d, 3)}
    assert held_3 == set(range(5, 13))
    # the advertised failure witnesses
    assert not _cutoff_holds(25, 2)
    assert not _cutoff_holds(13, 3)


@pytest.mark.xfail(strict=True,
                   reason="(23!)^3 falls short of the even-characteristic "
                          "host order at d = 23 by a factor of about 137, "
                          "so the claimed clean cutoff at d <= 24 has one "
                          "internal exception")
def test_criterion_6_cutoff_holds_through_24_even():
    assert all(_cutoff_holds(d, 2) for d in range(5, 25))


def test_criterion_6_a_priori_frontier(sweep_reports):
    report = sweep_reports["s-collection-n-bound"]
    assert report.ok
    assert [m[0] for m in report.members] == list(range(5, 29))


# ---------------------------------------------------------------------------
# 7. remark checks on the fixed sporadic and exceptional rows
# ---------------------------------------------------------------------------


def test_criterion_7_j3_row():
    g0 = order(psu(9, 2))
    j3 = subgroup_name_order("J3")
    assert j3 ** 3 < g0  # not large on its own
    rows = [e for e in catalog.table_entries(psu(9, 2)) if e.name == "J3"]
    assert len(rows) == 1
    assert is_large_h1(g0, rows[0]).is_large  # the outer square saves it


@pytest.mark.xfail(strict=True,
                   reason="table B says PSL2(7) in PSU(3,5) fails the cube "
                          "inequality, but 168^3 = 4741632 >= |PSU(3,5)| = "
                          "126000, so `tables B` flags the row")
def test_criterion_7_table_b_remarks_hold(capsys):
    assert cli.main(["tables", "B"]) == 0


def test_criterion_7_triality_fixed_subgroup_ratio():
    for q0 in (2, 4):
        g0 = pomega_order(8, PLUS, q0 ** 3)
        h0 = tri_d4_order(q0)
        ratio = Fraction(h0 ** 3, g0)
        assert Fraction(49, 100) < ratio < 1
        assert not is_large(g0, h0, 1).is_large
        assert is_large(g0, h0, 2).is_large


# ---------------------------------------------------------------------------
# 8. decisive sandwich verdicts never contradict the exact test
# ---------------------------------------------------------------------------


def _assert_no_contradiction(tri, exact_is_large, ctx):
    if tri.verdict == CERTAINLY_LARGE:
        assert exact_is_large, ctx
    elif tri.verdict == CERTAINLY_NOT_LARGE:
        assert not exact_is_large, ctx


def test_criterion_8_sandwich_agreement():
    qs = [int(q) for q in prime_powers(2, 256)]
    for q in qs:
        m = 1 if q >= 5 else (2 if q >= 3 else 3)
        v = is_large_h1(order(psl(3 * m, q)), catalog.psl_c2(psl(3 * m, q), m, 3))
        _assert_no_contradiction(sandwich("psl-c2-t3", q), v.is_large, q)

        v = is_large_h1(order(psl(3, q)), catalog.psl_c3(psl(3, q), 1, 3))
        _assert_no_contradiction(sandwich("psl-c3-r3", q), v.is_large, q)

        m = 1 if q >= 3 else 2
        v = is_large_h1(order(psu(3 * m, q)), catalog.psu_c2_wr(psu(3 * m, q), m, 3))
        _assert_no_contradiction(sandwich("psu-c2-t3", q), v.is_large, q)
        v = is_large_h1(order(psu(3 * m, q)), catalog.psu_c3(psu(3 * m, q), m, 3))
        _assert_no_contradiction(sandwich("psu-c3-r3", q), v.is_large, q)

        for n in (2, 3, 4, 5):
            v = is_large_h1(order(psl(n, q ** 3)), catalog.psl_c5(psl(n, q ** 3), 3))
            _assert_no_contradiction(sandwich("psl-c5-r3", q, n=n),
                                     v.is_large, (q, n))

        if q % 2 == 0:
            # the triality-fixed case models trivial centers, hence even q
            got = is_large(pomega_order(8, PLUS, q ** 3), tri_d4_order(q), 1)
            _assert_no_contradiction(sandwich("o8-triality-3d4", q),
                                     got.is_large, q)

    for q in [int(x) for x in prime_powers(2, 32)]:
        # the orthogonal subfield threshold folds in an even-dimension
        # center count, so pair it with even-dimensional hosts
        for n, eps in ((8, PLUS), (8, MINUS), (10, PLUS), (10, MINUS)):
            v = is_large_h1(order(pomega(n, q ** 3, eps)),
                            catalog.pso_c5(pomega(n, q ** 3, eps), 3, eps))
            _assert_no_contradiction(sandwich("po-c5-r3", q),
                                     v.is_large, (q, n, eps))


def test_criterion_8_named_witnesses():
    assert sandwich("psl-c2-t3", 29).verdict == CERTAINLY_NOT_LARGE
    assert sandwich("psl-c2-t3", 3).verdict == CERTAINLY_LARGE


# ---------------------------------------------------------------------------
# the library names the perfbench workloads call
# ---------------------------------------------------------------------------


def _perfbench_spans():
    """perfbench/spans.py, loaded from its file (perfbench is no package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_calls_stay_callable():
    # perfbench/workloads.py calls these by name; without one, every
    # operation of its workload fails and no other test notices
    spans = _perfbench_spans()
    names = [
        (oracle, ("count_sp2", "count_gl", "count_gu")),
        (orders, ("gl_order", "sl_order", "gu_order", "su_order", "sp_order")),
        (sweep, ("order", "run_case")),
        (cli, ("main",)),
    ]
    # perfbench/spans.py wraps these where their callers look them up;
    # without one, its layer reads 0 and nothing fails
    names.append((sweep, ("sandwich",)))
    names += [(mod, ("parse_prime_power",))
              for mod in (arith, orders, catalog, bounds, oracle)]
    names.append((catalog, ("candidates", "table_entries") + spans.CTOR_POOLS))
    missing = [f"{mod.__name__}.{attr}" for mod, attrs in names
               for attr in attrs if not callable(getattr(mod, attr, None))]
    assert missing == []
    # every catalog constructor prefix it traces still names a constructor
    for prefix in spans.CTOR_PREFIXES:
        assert any(attr.startswith(prefix) and callable(getattr(catalog, attr))
                   for attr in vars(catalog)), prefix
