"""Sweep machinery and golden-file regression state."""

import json
import os
from collections import Counter
from fractions import Fraction

import pytest

from large_atlas import arith, bounds, catalog, cli, largeness, orders, sweep
from large_atlas.errors import ConstraintViolation, MissingGolden, UnknownCase
from large_atlas.largeness import is_large_h1


def test_case_registry_is_complete():
    assert len(sweep.case_ids()) == 25


def test_member_formatting_round_trip():
    for m in [(3,), (2, 2, 6, "-", "+"), (5, 16)]:
        assert sweep._parse_member(sweep._fmt(m)) == m


def test_sort_key_orders_ints_before_strings():
    members = [("+",), (10,), (2,)]
    assert sorted(members, key=sweep._sort_key) == [(2,), (10,), ("+",)]


def test_goldens_exist_for_every_case():
    for cid, case in sweep.CASES.items():
        members = sweep.load_golden(case.golden)
        assert isinstance(members, list), cid


def test_every_golden_belongs_to_a_case():
    goldens = {f for f in os.listdir(sweep.golden_dir()) if f.endswith(".golden")}
    assert goldens == {case.golden for case in sweep.CASES.values()}


def test_missing_golden_raises(tmp_path, monkeypatch):
    monkeypatch.setenv("LARGE_ATLAS_GOLDEN_DIR", str(tmp_path))
    with pytest.raises(MissingGolden):
        sweep.load_golden("nope.golden")


def test_golden_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("LARGE_ATLAS_GOLDEN_DIR", str(tmp_path))
    assert sweep.golden_dir() == str(tmp_path)
    with pytest.raises(MissingGolden):
        sweep.run_case("psl-c3-r5")


def test_unknown_case_rejected():
    with pytest.raises(UnknownCase):
        sweep.run_case("psl-c99")


def test_all_cases_free_of_sandwich_alarms(sweep_reports):
    for cid, report in sweep_reports.items():
        assert report.alarms == [], cid


def test_clean_cases_match_goldens_exactly(sweep_reports, known_diffs):
    for cid, report in sweep_reports.items():
        if cid in known_diffs:
            continue
        assert report.ok, (cid, report.missing, report.extra)


def test_report_json_shape(sweep_reports):
    d = json.loads(sweep_reports["psl-c3-r5"].to_json())
    assert d["members"] == ["5,2"]
    assert d["missing"] == [] and d["extra"] == [] and d["alarms"] == []


def test_run_all_twice_gives_equal_reports(sweep_reports):
    # what a pass leaves cached (arith's factored field sizes) must not
    # change the next pass's reports
    def strip(report):
        d = json.loads(report.to_json())
        del d["elapsed_ms"]
        return d

    again = sweep.run_all()
    assert [r.case_id for r in again] == list(sweep_reports)
    assert [strip(r) for r in again] == [strip(r) for r in sweep_reports.values()]


def test_bracket_agrees_with_exact_membership(monkeypatch):
    """At every accepted grid point, the upper-bound rows included, the
    bit-length bracket gives, where it decides, the same cube test as the
    exact |G0|.  The points are those _member is asked about; the bracket
    is called here, since _member gives an upper row no cube test.  The
    goldens alone cannot show this: pso-c2-o1p and pso-c7 drop eps from
    their member tuples."""
    member = sweep._member
    decided = []

    def checked(g0, entry):
        got = sweep._bracket_large(g0, entry)
        if got is not None:
            exact = is_large_h1(orders.order(g0), entry).is_large
            assert got == exact, (str(g0), entry.type_descriptor)
            decided.append(g0)
        return member(g0, entry)

    monkeypatch.setattr(sweep, "_member", checked)
    for cid in sweep.case_ids():
        sweep.run_case(cid)
    assert len(decided) >= 4347


def test_psp_c7_never_builds_the_dimension_1024_order(monkeypatch):
    exact = sweep.order
    built = []

    def spy(g):
        built.append(g.n)
        return exact(g)

    monkeypatch.setattr(sweep, "order", spy)
    report = sweep.run_case("psp-c7")
    assert report.ok and report.members == []
    assert 1024 not in built


@pytest.mark.parametrize("bound, small, big", [
    (catalog.EXACT, False, True),
    (catalog.LOWER, False, True),
    (catalog.UPPER, False, False),
])
def test_bracket_follows_the_one_sided_row_rule(bound, small, big, monkeypatch):
    # the bracket gives the cube test alone; _member reads the bound kind
    # on both routes, the bracket's and the exact order's
    g0 = orders.psl(4, 5)
    g0_order = orders.order(g0)
    rows = [(catalog.SubgroupEntry(g0, "C1", "test row", (), h0, 1, bound), want)
            for h0, want in ((2, small), (g0_order, big))]
    for entry, want in rows:
        assert sweep._bracket_large(g0, entry) is (entry.h0_order == g0_order)
        assert sweep._member(g0, entry) is want
    monkeypatch.setattr(sweep, "_bracket_large", lambda g0, entry: None)
    for entry, want in rows:
        assert sweep._member(g0, entry) is want


def test_an_upper_row_is_no_member_and_takes_no_cube_test(monkeypatch):
    g0 = orders.psl(4, 5)
    entry = catalog.SubgroupEntry(g0, "C1", "test row", (), orders.order(g0), 1, catalog.UPPER)

    def cube_test(*args):
        raise AssertionError("an upper row took the cube test")

    monkeypatch.setattr(sweep, "_bracket_large", cube_test)
    monkeypatch.setattr(sweep, "order", cube_test)
    assert sweep._member(g0, entry) is False


def _calls_by_case(monkeypatch, attr):
    """Run every case with sweep.<attr> spied on; returns (case id, args)
    for each call."""
    inner = getattr(sweep, attr)
    calls = []
    current = [None]

    def spy(*args, **kwargs):
        calls.append((current[0], args))
        return inner(*args, **kwargs)

    monkeypatch.setattr(sweep, attr, spy)
    for cid in sweep.case_ids():
        current[0] = cid
        sweep.run_case(cid)
    return calls


def test_a_sandwich_that_contradicts_the_exact_verdict_is_an_alarm(monkeypatch, capsys):
    # psl-c3-r3 has the member q = 2 and not q = 13: a sandwich that calls
    # the one not large and the other large contradicts the exact cube test
    inner = sweep.sandwich_verdict
    flipped = {2: bounds.CERTAINLY_NOT_LARGE, 13: bounds.CERTAINLY_LARGE}

    def contradicting(case, q, n=None):
        return flipped[q] if q in flipped else inner(case, q, n)

    monkeypatch.setattr(sweep, "sandwich_verdict", contradicting)
    alarms = ["psl-c3-r3: sandwich says not large at q=2, exact says yes",
              "psl-c3-r3: sandwich says large at q=13, exact says no"]
    report = sweep.run_case("psl-c3-r3")
    assert report.alarms == alarms and not report.ok
    assert not report.missing and not report.extra
    assert cli.main(["sweep", "psl-c3-r3"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("  alarm:")] == [
        f"  alarm:   {a}" for a in alarms]


def test_sandwich_runs_on_exactly_the_sandwich_cases(monkeypatch):
    want = {"psl-c2-t3", "psl-c3-r3", "psu-c2-t3", "psu-c3-r3"}
    calls = _calls_by_case(monkeypatch, "sandwich_verdict")
    assert {(cid, args[0]) for cid, args in calls} == {(c, c) for c in want}
    assert want == set(bounds.SANDWICH_CASES) & set(sweep.CASES)


def test_the_sweeps_build_no_fraction(monkeypatch):
    # the alarm check reads only the integer verdict, and no sweep point
    # reads a margin: one run of every case builds no Fraction at all
    built = []
    for module in (bounds, largeness):
        inner = module.Fraction
        monkeypatch.setattr(module, "Fraction",
                            lambda *args, inner=inner: built.append(args) or inner(*args))
    reports = sweep.run_all()
    assert len(reports) == 25 and not any(r.alarms for r in reports)
    assert built == []
    assert type(bounds.sandwich("psl-c3-r3", 5).lower) is Fraction
    assert len(built) == 3  # the spies are live: sandwich() builds three


# grid points whose membership _member decides, per case, 4387 in all
MEMBER_POINTS = {
    "psl-c2-t3": 117, "psl-c3-r3": 117, "psl-c3-r5": 243, "psl-c4": 270,
    "psl-c6": 56, "psl-c7": 108,
    "psu-c2-t3": 97, "psu-c2-t4plus": 1482, "psu-c3-r3": 117, "psu-c4": 270,
    "psu-c6": 38, "psu-c7": 106,
    "psp-c2-t5": 194, "psp-c3-r5": 162, "psp-c4": 162, "psp-c6": 32, "psp-c7": 22,
    "pso-c2-o1p": 120, "pso-c2-go-wr": 391, "pso-c3-extra": 180,
    "pso-c4-large-n": 28, "pso-c6": 24, "pso-c7": 51,
}


def test_member_decides_every_catalog_grid_point(monkeypatch):
    calls = _calls_by_case(monkeypatch, "_member")
    assert Counter(cid for cid, _ in calls) == MEMBER_POINTS


def test_every_accepted_grid_point_is_a_row_the_catalog_offers():
    # a catalog case names its constructor and builds its arguments by
    # hand; every point the constructor accepts must be an argument tuple
    # that catalog.CONSTRUCTORS offers for that host, so that the grid
    # checks only rows that candidates lists
    offered = {}
    accepted = 0
    for case in sweep.CASES.values():
        if case.plain:
            continue
        for _, ctor, (host, *args) in case.grid():
            try:
                ctor(host, *args)
            except ConstraintViolation:
                continue
            if host not in offered:
                offered[host] = {(fn, tuple(a)) for _, fn, arguments
                                 in catalog.CONSTRUCTORS[host.family] for a in arguments(host)}
            assert (ctor, tuple(args)) in offered[host], (case.case_id, str(host), args)
            accepted += 1
    assert accepted == 4388


def test_every_grid_reads_one_sieve():
    sweep._sieved.cache_clear()
    for case in sweep.CASES.values():
        for _ in case.grid():
            pass
    assert sweep._sieved.cache_info().misses == 1
    for lo in (-1, 2, 3, 100):
        for hi in (-1, 1, 2, 8, 9, 13, 16, 97, 400, 510, 511, 512):
            assert sweep.prime_powers(lo, hi) == [q.q for q in arith.prime_powers(lo, hi)]
    with pytest.raises(ValueError, match="up to 512"):
        sweep.prime_powers(2, sweep._Q_MAX + 1)
