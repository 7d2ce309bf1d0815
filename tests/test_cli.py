"""Command line interface: output, selectors, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

import large_atlas
from large_atlas import catalog, cli, orders, sweep
from large_atlas.orders import parse_group


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_order_verb(capsys):
    code, out, _ = run(capsys, "order", "PSU(5,2)")
    assert code == 0 and out.strip() == "13685760"


def test_order_huge_value_prints_in_full(capsys):
    for name, least in (("PSL(99,5)", 3000), ("GL(40,3)", 750), ("Sym(1000)", 2500)):
        code, out, _ = run(capsys, "order", name)
        assert code == 0, name
        digits = out.strip()
        # plain decimal, never 1e+...
        assert digits.isdigit() and len(digits) > least, name


@pytest.mark.parametrize("argv", [
    ("order", "PSL(2600,2)"), ("order", "PSL(100000,2)"), ("subgroups", "PSU(3000,2)"),
    ("order", "GL(6000,2)"), ("order", "Omega+(8000,2)"), ("order", "Sym(1000000)"),
    ("check", "Alt(1000000)", "--h0-order", "2"),
])
def test_orders_beyond_the_digit_cap_exit_unsupported_at_once(capsys, argv):
    # refused from the bit-length floor, before |G0| is built
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "decimal digits" in err
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("host", ["PSL(2400,3)", "POmega+(100000000,3)", "GL(3000,2)"])
@pytest.mark.parametrize("verb", [["order"], ["subgroups"], ["check", "--class", "C1"]])
def test_hosts_beyond_the_digit_cap_exit_unsupported_before_any_order(capsys, host, verb):
    # |PSL(2400,3)| has about 2.7 million digits: the bracket of its
    # factored order refuses it, where a floor read off q^(n^2 - 2) alone
    # could not
    t0 = time.perf_counter()
    code, out, err = run(capsys, verb[0], host, *verb[1:])
    assert code == 3 and out == "" and "decimal digits" in err
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("host", ["GL(3000,2)", "SL(3000,2)", "GU(3000,2)", "PGU(3000,2)"])
def test_linear_and_unitary_orders_beyond_the_digit_cap_are_never_built(capsys, monkeypatch, host):
    exact = cli.order
    built = []

    def spy(g):
        built.append(str(g))
        return exact(g)

    monkeypatch.setattr(cli, "order", spy)
    code, out, err = run(capsys, "order", host)
    assert code == 3 and out == "" and "decimal digits" in err
    assert built == []


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no digit cap")
def test_digit_cap_hit_while_printing_exits_unsupported(capsys, monkeypatch):
    # with a 1000-digit cap the bracket of PSL(46,3) cannot refuse it
    # (lo = 3303 bits, below 3322), but its 1009-digit order fails to print
    old = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "MAX_DIGITS", 1000)
    try:
        for argv in (("order",), ("subgroups", "--json"), ("check", "--class", "C1"),
                     ("explain", "--class", "C1")):
            code, out, err = run(capsys, argv[0], "PSL(46,3)", *argv[1:])
            assert code == 3 and out == "" and "decimal digits" in err, argv
        assert run(capsys, "order", "PSL(45,3)")[0] == 0  # 966 digits
    finally:
        sys.set_int_max_str_digits(old)


@pytest.fixture
def no_digit_cap():
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("bits", [1, 64, 129, 19_999, 20_000, 20_001, 20_002, 40_001, 99_999])
def test_decimal_writes_what_str_writes_across_the_split(bits, no_digit_cap):
    for n in (1 << (bits - 1), (1 << bits) - 1, 3 ** (bits * 100 // 159) + 10 ** (bits // 5)):
        assert cli._decimal(n) == str(n), (bits, n.bit_length())
    assert cli._decimal(0) == "0"


def test_decimal_writes_a_million_digits(no_digit_cap):
    # the digit patterns are known, so str() need not build them
    assert cli._decimal((10 ** 999_996 - 1) // 7) == "142857" * 166_666
    n = 4 * 10 ** 299_999 + 10 ** 150_000 + 1
    assert cli._decimal(n) == "4" + "0" * 149_998 + "1" + "0" * 149_999 + "1"


def test_decimal_refuses_more_than_max_digits(monkeypatch):
    monkeypatch.setattr(cli, "MAX_DIGITS", 10_000)
    assert cli._decimal(10 ** 10_000 - 1) == "9" * 10_000
    # 10^10000 is past the cap by its digits, 2^40000 already by its bits
    for n in (10 ** 10_000, 1 << 40_000):
        with pytest.raises(ValueError):
            cli._decimal(n)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no digit cap")
def test_digit_cap_hit_while_writing_by_halves_exits_unsupported(capsys, monkeypatch):
    # with a 10000-digit cap the bracket of PSL(145,3) cannot refuse it
    # (lo = 32850 bits, below 33220), but its 10031-digit order, past
    # _STR_BITS, fails to print, and so does the margin's numerator;
    # PSL(144,3) has 9893 digits and prints
    old = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "MAX_DIGITS", 10_000)
    try:
        for argv in (("order",), ("explain", "--class", "C1"), ("check", "--class", "C1")):
            code, out, err = run(capsys, argv[0], "PSL(145,3)", *argv[1:])
            assert code == 3 and out == "", argv
            assert err == "error: output holds an integer of more than 10000 decimal digits\n"
        code, out, _ = run(capsys, "order", "PSL(144,3)")
        sys.set_int_max_str_digits(0)
        assert code == 0 and out == str(orders.order(parse_group("PSL(144,3)"))) + "\n"
    finally:
        sys.set_int_max_str_digits(old)


def test_out_verb(capsys):
    code, out, _ = run(capsys, "out", "POmega+(8,2)")
    assert code == 0 and out.strip() == "6"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "order", "PSL(2,6)")
    assert code == 2 and "error" in err


def test_unsupported_exit_code(capsys):
    code, _, err = run(capsys, "order", "PSp(3,3)")
    assert code == 3


@pytest.mark.parametrize("name, exit_code", [
    # refused by the order of the family: exit 3
    ("Sz(4)", 3), ("Alt(0)", 3), ("Sym(0)", 3), ("Sporadic(Foo)", 3),
    # refused by the name grammar: exit 2
    ("Sporadic+(J3)", 2), ("Sporadic(J3,J4)", 2), ("PSL+(3,5)", 2),
])
def test_order_refusals_print_one_error_line(capsys, name, exit_code):
    code, out, err = run(capsys, "order", name)
    assert code == exit_code and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_any_other_package_error_exits_1_with_one_error_line(capsys, monkeypatch):
    # a data file that fails its checksum is neither a parse error nor an
    # unsupported group: the generic exit 1
    monkeypatch.setattr(orders, "_SPORADIC_SHA256", "0" * 64)
    orders._sporadic_orders.cache_clear()
    try:
        code, out, err = run(capsys, "order", "Sporadic(J3)")
    finally:
        orders._sporadic_orders.cache_clear()
    assert code == 1 and out == ""
    assert err == "error: sporadic_orders.txt failed its checksum\n"


@pytest.mark.parametrize("verb", ["order", "out", "subgroups"])
def test_odd_dimensional_symplectic_host_exits_unsupported(capsys, verb):
    code, out, err = run(capsys, verb, "PSp(5,3)")
    assert code == 3 and out == "" and "even dimension" in err


# PSL, PSU and PSp below dimension 2 have no order; POmega below dimension
# 3 is trivial or cyclic
DEGENERATE_HOSTS = ["PSL(1,4)", "PSU(1,4)", "PSp(0,3)", "POmega(1,9)",
                    "POmega+(2,7)", "POmega-(2,7)"]


@pytest.mark.parametrize("host", DEGENERATE_HOSTS)
def test_out_refuses_a_degenerate_host(capsys, host):
    code, out, err = run(capsys, "out", host)
    assert code == 3 and out == "" and "needs dimension" in err


@pytest.mark.parametrize("verb", [["order"], ["check", "--class", "C1"],
                                  ["explain", "--class", "C1"]])
@pytest.mark.parametrize("host", DEGENERATE_HOSTS)
def test_order_check_and_explain_refuse_a_degenerate_host(capsys, verb, host):
    code, out, err = run(capsys, verb[0], host, *verb[1:])
    assert code == 3 and out == "" and "needs dimension" in err


# str.isdigit accepts a superscript digit, which int() then refuses
@pytest.mark.parametrize("group", ["PSL(\u00b2,7)", "PSL(2,\u00b2)", "Alt(\u00b2)",
                                   "Sz(\u00b2)"])
def test_a_superscript_digit_is_a_parse_error(capsys, group):
    code, out, err = run(capsys, "order", group)
    assert code == 2 and out == "" and "error" in err


def test_a_decimal_digit_of_another_script_still_parses(capsys):
    assert run(capsys, "order", "PSL(2,\u0663)") == (0, "12\n", "")


def test_check_with_selector(capsys):
    code, out, _ = run(capsys, "check", "PSL(4,5)",
                       "--class", "C2", "--type", "GL(1,5) wr S4")
    assert code == 0
    d = json.loads(out)
    assert d["is_large"] is False
    assert d["rhs"] == 3623878656


def test_check_with_explicit_orders(capsys):
    code, out, _ = run(capsys, "check", "PSL(2,5)", "--h0-order", "60", "--o", "1")
    assert code == 0 and json.loads(out)["is_large"] is True


@pytest.mark.parametrize("selector", [["--h0-order", "21"], ["--class", "C1"]])
def test_check_refuses_a_zero_outer_order(capsys, selector):
    code, out, err = run(capsys, "check", "PSL(2,7)", *selector, "--o", "0")
    assert code == 3 and out == "" and "orders must be positive" in err


@pytest.mark.parametrize("selector", [
    ["--class", "C9"], ["--type", "nonsense"], ["--item", "3"], ["--exceptional", "sp4"],
    ["--item", "3", "--class", "C9", "--type", "nonsense"],
])
def test_check_refuses_a_selector_beside_an_explicit_h0_order(capsys, selector):
    # --h0-order reads no selector, so one given beside it is an error,
    # as --item without --exceptional is
    code, out, err = run(capsys, "check", "PSL(2,7)", "--h0-order", "24", *selector)
    assert code == 2 and out == "" and "is not read with --h0-order" in err


def test_check_outer_order_keeps_the_rows_bound_kind(capsys):
    # the C1 row stores a Sylow lower bound on |H0|: with or without --o,
    # a verdict that passes is forced_large, not exact
    for o in ([], ["--o", "1"], ["--o", "2"]):
        code, out, _ = run(capsys, "check", "PSL(4,5)", "--class", "C1", *o)
        assert code == 0 and json.loads(out)["mode"] == "forced_large"


@pytest.mark.parametrize("host, selector", [
    ("PSL(4,5)", []),
    ("POmega+(8,3)", ["--exceptional", "o8"]),
])
def test_class_selector_ignores_surrounding_spaces(capsys, host, selector):
    code, out, err = run(capsys, "subgroups", host, "--class", "C2", *selector)
    assert code == 0 and "C2  " in out
    assert run(capsys, "subgroups", host, "--class", " C2 ", *selector) == (code, out, err)
    typed = ("check", host, "--type", "GO+(4,3) wr S2" if selector else "GL(1,5) wr S4")
    expected = run(capsys, *typed, "--class", "C2", *selector)
    assert expected[0] == 0
    assert run(capsys, *typed, "--class", " C2", *selector) == expected


@pytest.mark.parametrize("verb", ["subgroups", "check", "explain"])
def test_a_class_no_row_carries_is_refused(capsys, verb):
    # subgroups printed nothing and exited 0 here, check and explain exit 3
    for klass in ("C9", " c9 ", "Z"):
        code, out, err = run(capsys, verb, "PSL(20,2)", "--class", klass)
        assert (code, out) == (2, "") and "Traceback" not in err
        assert err == f"error: unknown class {klass.strip()!r}\n"
    # every class a row can carry is still read, in either case; X only
    # beside --exceptional, as only the exceptional pools carry it
    for klass in sorted(catalog.CLASSES):
        for spelled in (klass, klass.upper()):
            code, _, err = run(capsys, verb, "PSL(5,3)", "--class", spelled)
            assert "unknown class" not in err, spelled
            if klass == "x":
                assert (code, err) == (2, "error: --class X needs --exceptional\n")
            else:
                assert code in (0, 3, 4), (spelled, code)


# below the least dimension of their family (orders.FAMILIES): each of
# these printed 0, a wrong order or the order 1 of a zero-dimensional group
BELOW_LEAST_DIMENSION = ["SL(0,5)", "SU(0,5)", "PGL(0,5)", "PGU(0,5)", "SO+(0,3)",
                         "GO+(0,3)", "Omega+(0,3)", "SO(1,3)", "GO(1,3)", "Sp(0,3)",
                         "GL(0,2)", "Omega(1,3)", "GU(0,4)"]


@pytest.mark.parametrize("group", BELOW_LEAST_DIMENSION)
def test_order_refuses_a_group_below_its_least_dimension(capsys, group):
    code, out, err = run(capsys, "order", group)
    family = parse_group(group).family
    assert code == 3 and out == "" and f"{family} needs dimension >= " in err


def test_every_family_with_a_least_dimension_has_a_refused_group():
    named = {parse_group(g).family for g in BELOW_LEAST_DIMENSION + DEGENERATE_HOSTS}
    assert named == {fam for fam, (_, least, _) in orders.FAMILIES.items() if least}


def test_a_reader_that_closes_early_gets_exit_1_and_no_traceback():
    # about 135000 digits: more than the pipe holds, so the write fails
    proc = subprocess.Popen([sys.executable, "-m", "large_atlas.cli", "order", "PSL(400,7)"],
                            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(1).isdigit()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and err == b""


def test_check_exceptional_item(capsys):
    code, out, _ = run(capsys, "check", "POmega+(8,2)",
                       "--exceptional", "o8", "--item", "viii", "--o", "3")
    assert code == 0
    d = json.loads(out)
    assert d["is_large"] is True and d["rhs"] == 576000000


@pytest.mark.parametrize("argv", [
    ("explain", "PSL(3,4)", "--exceptional", "sp4", "--item", "1"),
    ("check", "PSp(4,3)", "--exceptional", "sp4"),
    ("check", "POmega-(8,2)", "--exceptional", "o8"),
])
def test_exceptional_pool_needs_its_host(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and "error" in err


def test_ambiguous_selector_exit_code(capsys):
    code, _, err = run(capsys, "check", "PSL(4,5)", "--class", "C2")
    assert code == 4
    assert "candidate" in err


def test_missing_golden_exit_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("LARGE_ATLAS_GOLDEN_DIR", str(tmp_path))
    code, _, err = run(capsys, "sweep", "psl-c3-r5")
    assert code == 5


def test_sweep_verb_clean_case(capsys):
    code, out, _ = run(capsys, "sweep", "psl-c3-r5", "--json")
    assert code == 0
    assert json.loads(out)["members"] == ["5,2"]


def test_sweep_verb_flags_diffs(capsys):
    code, out, _ = run(capsys, "sweep", "psu-c2-t3")
    assert code == 1
    assert "extra:   31" in out


def test_sweep_reports_a_superscript_golden_token_as_missing(capsys, monkeypatch, tmp_path):
    # "²" is a digit (str.isdigit) but not a decimal one: the token stays a
    # string, so the golden member is missing, not a ValueError traceback
    (tmp_path / "psl-c6.golden").write_text("2,\u00b2\n", encoding="utf-8")
    monkeypatch.setenv("LARGE_ATLAS_GOLDEN_DIR", str(tmp_path))
    code, out, err = run(capsys, "sweep", "psl-c6")
    assert code == 1 and err == ""
    assert "  missing: 2,\u00b2" in out.splitlines()


def test_sweep_list(capsys):
    code, out, _ = run(capsys, "sweep", "--list")
    assert code == 0
    assert "psl-c2-t3" in out.split()


def test_sweep_list_json_prints_the_case_ids_as_a_json_list(capsys):
    code, out, _ = run(capsys, "sweep", "--list", "--json")
    assert code == 0
    assert out == json.dumps(sweep.case_ids(), indent=2) + "\n"
    assert out.startswith('[\n  "psl-c2-t3",\n  "psl-c3-r3",\n')


def test_subgroups_json(capsys):
    code, out, _ = run(capsys, "subgroups", "PSL(2,7)", "--json")
    assert code == 0
    rows = json.loads(out)
    assert {r["class"] for r in rows} == {"C1", "C2", "C3", "C6"}


def test_explain_prints_cube_test(capsys):
    code, out, _ = run(capsys, "explain", "PSL(4,5)",
                       "--class", "C2", "--type", "GL(1,5) wr S4")
    assert code == 0
    assert "|H0|^3 |O1|^2 = 3623878656" in out
    assert "not large" in out


def test_tables_exit_codes_and_flagged_rows(capsys):
    code, out, _ = run(capsys, "tables", "A", "--json")
    assert code == 0 and not any(r["flag"] for r in json.loads(out))
    code, out, _ = run(capsys, "tables", "B", "--json")
    assert code == 1
    flagged = [(r["host"], r["subgroup"]) for r in json.loads(out) if r["flag"]]
    assert flagged == [("PSU(3,5)", "PSL2(7)")]


def test_tables_a0(capsys):
    code, out, _ = run(capsys, "tables", "A0")
    assert code == 0
    assert "Sp(d-2, 2)" in out


def test_reproduce_family(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "--family", "psl",
                       "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "psl-c3-r5.json").read_text())
    assert report["members"] == ["5,2"]


def test_tables_a0_json_prints_the_seven_host_rules(capsys):
    code, out, _ = run(capsys, "tables", "A0", "--json")
    assert code == 0
    rules = json.loads(out)
    assert len(rules) == 7 and all(set(r) == {"d", "p", "host"} for r in rules)
    assert rules[0] == {"d": "d = 2 mod 4", "p": "2", "host": "Sp(d-2, 2)"}
    assert [r["p"] for r in rules] == ["2"] * 5 + ["odd"] * 2


def test_reproduce_one_case_writes_one_report(capsys, tmp_path):
    code, out, _ = run(capsys, "reproduce", "psl-c3-r5", "--out-dir", str(tmp_path))
    assert code == 0
    assert [f.name for f in tmp_path.iterdir()] == ["psl-c3-r5.json"]
    assert json.loads((tmp_path / "psl-c3-r5.json").read_text())["members"] == ["5,2"]
    assert out.startswith("ok    psl-c3-r5 (") and len(out.splitlines()) == 1


def test_reproduce_without_a_selector_exits_parse_error(capsys, tmp_path):
    code, out, err = run(capsys, "reproduce", "--out-dir", str(tmp_path / "reports"))
    assert code == 2 and out == ""
    assert err == "reproduce: give a case id, --family PREFIX, or --all\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("argv", [["sweep", "nope"], ["reproduce", "nope"]])
def test_unknown_case_message_has_no_stray_quotes(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", "error: unknown sweep case 'nope'\n")
    assert not (tmp_path / "reports").exists()


ONLY_ONE = "give only one of a case id, --family PREFIX and --all"


@pytest.mark.parametrize("argv, err", [
    (["reproduce", "--all", "psl-c6"], ONLY_ONE),
    (["reproduce", "--all", "--family", "psu"], ONLY_ONE),
    (["reproduce", "--family", "psu", "psl-c6"], ONLY_ONE),
    (["reproduce", "--family", "zzz"], "no case id starts with 'zzz'"),
])
def test_reproduce_refuses_a_selector_it_would_not_read(capsys, tmp_path, argv, err):
    out_dir = tmp_path / "reports"
    assert run(capsys, *argv, "--out-dir", str(out_dir)) == (2, "", f"reproduce: {err}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("where", ["a file", "empty", "a report path that is a directory"])
def test_reproduce_refuses_an_out_dir_it_cannot_write(capsys, monkeypatch, tmp_path, where):
    (tmp_path / "afile").write_text("")
    out_dir = {"a file": str(tmp_path / "afile"), "empty": ""}.get(where, str(tmp_path))
    (tmp_path / "psl-c3-r5.json").mkdir()
    ran = []
    run_case = sweep.run_case
    monkeypatch.setattr(sweep, "run_case", lambda cid: ran.append(cid) or run_case(cid))
    code, out, err = run(capsys, "reproduce", "psl-c3-r5", "--out-dir", out_dir)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith(f"reproduce: cannot write reports under {out_dir!r}: ")
    # the directory is made before any sweep runs
    assert ran == ([] if out_dir != str(tmp_path) else ["psl-c3-r5"])


def test_sweep_refuses_a_case_beside_list(capsys):
    assert run(capsys, "sweep", "psl-c6", "--list") == (2, "", "sweep: --list takes no case id\n")


def test_sweep_without_a_case_exits_parse_error(capsys):
    code, out, err = run(capsys, "sweep")
    assert code == 2 and out == ""
    assert err == "sweep: a case id is required (or --list)\n"


@pytest.mark.parametrize("host, selector", [
    ("PSL(4,2)", "A7"), ("PSp(4,2)", "A5"),
])
def test_table_rows_are_not_listed_twice(capsys, host, selector):
    code, out, _ = run(capsys, "check", host, "--type", selector)
    assert code == 0
    # the rows `subgroups` lists, taken from its resolver: subgroups itself
    # refuses PSp(4,2) = S6, which is not simple
    args = cli._parse_plain("subgroups", [host])
    pool = cli._resolve_entries(parse_group(host), args)
    rows = [json.dumps(cli._entry_dict(e), sort_keys=True) for e in pool]
    assert any(selector in r for r in rows)
    assert len(rows) == len(set(rows))


@pytest.mark.xfail(strict=True, reason=(
    "A6 = PSL(2,9) has two classes of maximal A5 (ATLAS), but Table A states "
    "the row under the non-canonical host POmega-(4,3) only"))
def test_psl_2_9_lists_a5(capsys):
    code, out, _ = run(capsys, "subgroups", "PSL(2,9)", "--json")
    assert code == 0
    assert "A5" in {r["name"] for r in json.loads(out)}


@pytest.mark.parametrize("host, canon", [
    ("PSp(2,7)", "PSL(2,7)"), ("PSU(2,5)", "PSL(2,5)"),
    ("POmega+(4,5)", None), ("PSp(4,2)", None),
])
def test_subgroups_refuses_a_host_not_simple_or_not_canonical(capsys, host, canon):
    code, out, err = run(capsys, "subgroups", host, "--json")
    assert code == 3 and out == ""
    assert f"use {canon}" in err if canon else "not simple" in err
    # the group itself is still a group: its order prints
    code, out, _ = run(capsys, "order", host)
    assert code == 0 and out.strip().isdigit()


@pytest.mark.parametrize("host", ["PSp(4,8)", "PSp(4,32)"])
def test_sp4_item_number_and_label_select_the_same_row(capsys, host):
    argv = ("explain", host, "--exceptional", "sp4", "--json", "--item")
    by_number, by_label = run(capsys, *argv, "5"), run(capsys, *argv, "v")
    assert by_number == by_label and by_number[0] == 0
    assert json.loads(by_number[1])["params"]["item"] == "v"
    code, out, err = run(capsys, "explain", host, "--exceptional", "sp4", "--item", "16")
    assert code == 3 and out == "" and "item 16" in err


@pytest.mark.parametrize("host, pool", [("PSp(4,4)", "sp4"), ("POmega+(8,5)", "o8")])
def test_item_selector_exit_codes(capsys, host, pool):
    argv = ("subgroups", host, "--exceptional", pool, "--item")
    labels = {dict(e.params)["item"]
              for e in catalog.EXCEPTIONAL[pool](parse_group(host))}
    for k, label in enumerate(catalog.ROMAN, 1):
        want = 0 if label in labels else 3
        assert run(capsys, *argv, str(k))[0] == want, k
        assert run(capsys, *argv, label.upper())[0] == want, label
    for item in ("0", "16", "99"):
        assert run(capsys, *argv, item)[0] == 3, item
    # not a position and not a label; a superscript digit is no number
    for item in ("xvi", "abc", "-1", "\u00b2"):
        assert run(capsys, *argv, item)[0] == 2, item


@pytest.mark.parametrize("argv", [
    ("subgroups", "PSL(2,8)", "--item", "3"),
    ("explain", "PSL(2,7)", "--class", "C1", "--item", "1"),
    ("check", "PSL(2,7)", "--class", "C1", "--item", "1"),
])
def test_item_without_an_exceptional_pool_exits_parse_error(capsys, argv):
    # the item labels index only the two pools; the catalog has none
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "--item needs --exceptional" in err


@pytest.mark.parametrize("klass", ["X", " x "])
@pytest.mark.parametrize("verb", ["subgroups", "check", "explain"])
def test_class_x_without_an_exceptional_pool_exits_parse_error(capsys, verb, klass):
    # only the two exceptional pools carry class X; the catalog has none
    code, out, err = run(capsys, verb, "PSL(20,2)", "--class", klass)
    assert code == 2 and out == "" and "--class X needs --exceptional" in err


@pytest.mark.parametrize("argv", [
    ("subgroups", "POmega+(8,3)", "--exceptional", "o8"),
    ("check", "POmega+(8,2)", "--exceptional", "o8", "--item", "viii"),
    ("explain", "PSp(4,4)", "--exceptional", "sp4", "--item", "i"),
])
def test_class_x_filters_an_exceptional_pool(capsys, argv):
    code, out, err = run(capsys, *argv, "--class", "X")
    assert code == 0 and err == "" and out
    assert run(capsys, *argv, "--class", " x ") == (code, out, err)
    if argv[0] == "subgroups":
        rows = out.splitlines()
        assert all(row.startswith(" X  ") for row in rows)
        assert len(rows) < len(run(capsys, *argv)[1].splitlines())


@pytest.mark.parametrize("argv", [
    ("subgroups", "PSL(2,7)"),
    ("check", "PSL(2,7)"),
    ("explain", "PSL(2,7)"),
    ("check", "PSL(2,7)", "--class", "C6"),
    ("explain", "PSL(2,7)", "--class", "C6"),
])
@pytest.mark.parametrize("blank", [" ", "  \t"])
def test_a_blank_type_is_not_read(capsys, argv, blank):
    # a whitespace-only --type filters nothing, as --type "" does
    assert run(capsys, *argv, "--type", blank) == run(capsys, *argv)


def test_subgroups_text_output(capsys):
    code, out, err = run(capsys, "subgroups", "PSL(5,3)")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "C1  parabolic P1                       |H0|=59049 o1=1 [lower] -> large (forced_large)",
        "C3  GL(1,3^5)                          |H0|=605 o1=2 [exact] -> not large (exact)",
        "C8  GO(5,3)                            |H0|=51840 o1=1 [lower] -> large (forced_large)",
        " S  M11                                |H0|=7920 o1=2 [exact] -> large (exact)",
    ]


def test_explain_json_output(capsys):
    code, out, _ = run(capsys, "explain", "PSL(5,3)", "--type", "M11", "--json")
    assert code == 0
    assert json.loads(out) == {
        "host": "PSL(5,3)", "class": "S", "type": "M11", "name": "M11",
        "h0_order": 7920, "o1_order": 2, "bound": "exact", "formula": "table-b-row",
        "verdict": {"is_large": True, "lhs": 237783237120, "rhs": 1987172352000,
                    "margin": "8800/1053", "mode": "exact"},
        "params": {}, "g0_order": 237783237120,
    }


@pytest.mark.parametrize("host", ["Alt(7)", "Sym(6)", "Sporadic(J3)"])
@pytest.mark.parametrize("argv", [
    ("out",), ("subgroups",), ("check", "--class", "C1"),
    ("check", "--exceptional", "sp4", "--item", "1"),
])
def test_hosts_without_a_field_exit_unsupported(capsys, host, argv):
    code, _, err = run(capsys, argv[0], host, *argv[1:])
    assert code == 3 and "error" in err


# one plain command line per verb, parsed directly and by the full parser
SAMPLE_ARGV = {
    "order": ["order", "PSL(4,5)"],
    "out": ["out", "PSL(2,7)"],
    "subgroups": ["subgroups", "PSL(2,7)", "--class", "C2", "--json"],
    "check": ["check", "PSL(4,5)", "--type", "x", "--exceptional", "sp4",
              "--item", "iv", "--h0-order", "60", "--o", "2"],
    "explain": ["explain", "PSL(4,5)", "--class", "C2", "--type", "x", "--json"],
    "sweep": ["sweep", "psl-c3-r5", "--json"],
    "reproduce": ["reproduce", "--family", "psu", "--out-dir", "x", "--all"],
    "tables": ["tables", "a0", "--json"],
}


def _subparsers(parser):
    """{verb: subparser} of the parser _build_parser made."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _parse(capsys, parser, argv):
    """(vars of the namespace or the exit code, stdout, stderr)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


# the first word after each verb that its handler reads
FIRST_WORD = {"sweep": "psl-c3-r5", "reproduce": "psl-c3-r5", "tables": "A0"}


def _edge_argv(verb):
    """Command lines where argparse's routes could part: "--" before and
    after the first word, a first word that looks like a negative number or
    a flag, abbreviated flags, --flag=value, a repeated flag, a flag before
    the first word, -h after it, and extra words."""
    w = FIRST_WORD.get(verb, "PSL(2,7)")
    return [[verb, *tail] for tail in (
        ["--", w], [w, "--"], ["-5"], ["--", "-5"], ["--", "--json"], [w, "--", "-5"],
        [w, "--cl", "C2"], [w, "--js"], [w, "--li"], [w, "--fam", "psu"],
        [w, "--json=1"], [w, "--class=C2"], [w, "--class", "C1", "--class", "C2"],
        ["--json", w, "--json"], ["--class", "C2", w], [w, "-h"], [w, "extra", "words"],
    )]


def _main(capsys, argv):
    """(exit code, stdout with its timings blanked, stderr) of main(argv)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, re.sub(r'\d+ ms|"elapsed_ms": \d+', "#", out.out), out.err


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_one_verb_parser_parses_as_the_full_parser(capsys, monkeypatch, tmp_path, verb):
    full = cli._build_parser()
    lines = [SAMPLE_ARGV[verb], [verb, "--help"], [verb], [verb, "--no-such-flag"],
             SAMPLE_ARGV[verb] + ["extra", "args"], *_edge_argv(verb)]
    for argv in lines:
        # the direct parse takes a command line only where argparse makes
        # the same namespace
        plain = cli._parse_plain(verb, argv[1:])
        assert plain is None or (vars(plain), "", "") == _parse(capsys, full, argv), argv
    # the sample line is plain
    assert cli._parse_plain(verb, SAMPLE_ARGV[verb][1:]) is not None
    code, _, err = _parse(capsys, full, [verb])
    if verb not in ("sweep", "reproduce"):  # their case id is optional
        assert code == 2 and "the following arguments are required" in err
    # and main answers alike through its own routes as through the full
    # parser alone; reproduce writes its reports under the working directory
    monkeypatch.chdir(tmp_path)
    direct = [_main(capsys, argv) for argv in lines]
    monkeypatch.setattr(cli, "_parse_plain", lambda verb, words: None)
    assert [_main(capsys, argv) for argv in lines] == direct
    assert {code for code, _, _ in direct} >= {0, 2}


def test_every_verb_has_a_grammar_the_direct_parse_reads():
    # _plain_grammar raises on a shape it cannot read, so a mistake in
    # _VERBS shows here and not on the first command line of that verb
    verbs = _subparsers(cli._build_parser())
    for verb in cli._VERBS:
        positionals, options, start = cli._plain_grammar(verb)
        dests = {a.dest for a in verbs[verb]._actions if a.dest != "help"}
        assert {p[0] for p in positionals} | {o[0] for o in options.values()} == dests
        assert start.keys() == dests | {"verb", "fn"}, verb


@pytest.mark.parametrize("arguments", [
    ((("case",), {"nargs": "+"}),),
    ((("--tag",), {"action": "append"}),),
    ((("--n",), {"type": float}),),
    ((("--n",), {"type": int, "default": "5"}),),
    ((("--n",), {"nargs": "?"}),),
    ((("case",), {"nargs": "?", "choices": ("a", "b")}),),
    ((("case",), {"nargs": "?"}), (("which",), {})),
    ((("case",), {"metavar": "CASE"}),),
])
def test_a_shape_the_direct_parse_cannot_read_is_refused_at_once(monkeypatch, arguments):
    monkeypatch.setitem(cli._VERBS, "bogus", ("", cli.cmd_out, arguments))
    with pytest.raises(ValueError, match="^bogus"):
        cli._plain_grammar("bogus")


@pytest.mark.parametrize("argv", [[], ["bogus", "PSL(2,7)"], ["--help"], ["-h", "order"]])
def test_main_falls_back_to_the_full_parser(capsys, monkeypatch, argv):
    want = _parse(capsys, cli._build_parser(), argv)
    built = []
    build = cli._build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", spy)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == want
    assert len(built) == 1
    # a plain command line calls no parser, sweep's too; any other calls
    # the full one
    for line, calls in ((["out", "PSL(2,7)"], 1), (["sweep", "--list"], 1),
                        (["out", "--", "PSL(2,7)"], 2)):
        assert cli.main(line) == 0 and len(built) == calls, line
    lines = capsys.readouterr().out.splitlines()
    assert (lines[0], lines[1], lines[-1]) == ("2", "psl-c2-t3", "2")


def test_a_reused_parser_carries_no_state_between_calls(capsys, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    for argv, want in ((["subgroups", "PSL(2,7)", "--no-such-flag"], 2),
                       (["check", "PSL(2,7)"], 4)):  # no selector: ambiguous
        seen = []
        for _ in range(2):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            seen.append((code, capsys.readouterr().err))
        assert seen[0] == seen[1] and seen[0][0] == want and seen[0][1], argv
    parsed = []

    def spy(parse):
        def recorded(*args, **kwargs):
            parsed.append((parse.__name__, parse(*args, **kwargs)))
            return parsed[-1][1]
        return recorded

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        spy(argparse.ArgumentParser.parse_args))
    monkeypatch.setattr(cli, "_parse_plain", spy(cli._parse_plain))
    # plain lines are parsed directly, and make no argparse parse; the
    # others fall back to the reused full parser
    for argv in (["check", "PSL(2,7)", "--h0-order", "21"],
                 ["check", "PSL(2,7)", "--class", "C1"],
                 ["check", "PSL(2,7)", "--h0-order=21"],
                 ["check", "PSL(2,7)", "--cl", "C1"]):
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    routes = [name for name, _ in parsed]
    assert routes == ["_parse_plain"] * 3 + ["parse_args", "_parse_plain", "parse_args"]
    got = [(ns.h0_order, ns.klass) for _, ns in parsed if ns is not None]
    assert got == [(21, None), (None, "C1")] * 2


def _env():
    """The environment of a fresh interpreter that imports this large_atlas."""
    src = os.path.dirname(os.path.dirname(large_atlas.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _fresh_interpreter(code):
    """stdout lines of `code` run in a fresh interpreter, as every
    command-line call is."""
    done = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_small_verbs_import_neither_catalog_nor_sweep():
    code = ("import sys\n"
            "from large_atlas.cli import main\n"
            "codes = [main(['out', 'PSL(2,7)']), main(['order', 'PSL(4,5)'])]\n"
            "print(codes, sorted(m for m in ('large_atlas.catalog', 'large_atlas.sweep')\n"
            "                    if m in sys.modules))\n")
    assert _fresh_interpreter(code) == ["2", "7254000000", "[0, 0] []"]


def test_no_verb_loads_openssl():
    # sporadic_orders.txt is checked with the built-in SHA-256, not hashlib;
    # PSL(5,3) has the Table A row M11, so subgroups reads the sporadic table
    code = ("import sys\n"
            "from large_atlas.cli import main\n"
            "for argv in (['out', 'PSL(2,7)'], ['order', 'PSL(4,5)'],\n"
            "             ['order', 'Sporadic(J3)'], ['subgroups', 'PSL(5,3)']):\n"
            "    code = main(argv)\n"
            "    print('#', argv[0], code, '_hashlib' in sys.modules, flush=True)\n")
    lines = _fresh_interpreter(code)
    assert [line for line in lines if line.startswith("# ")] == [
        "# out 0 False", "# order 0 False", "# order 0 False", "# subgroups 0 False"]
    assert any(" M11 " in line for line in lines)


def test_out_loads_no_dataclasses(tmp_path):
    # one plain command line of each verb: none loads dataclasses, and none
    # calls the argparse parser.  Only the sweeps read the sandwiches: the
    # other six verbs, run first, leave large_atlas.bounds unloaded
    lines = [["order", "PSL(4,5)"], ["out", "PSL(2,7)"], ["subgroups", "PSL(5,3)", "--json"],
             ["check", "PSL(2,7)", "--h0-order", "21"],
             ["explain", "PSL(5,3)", "--type", "M11"], ["tables", "A"], ["sweep", "psl-c3-r5"],
             ["reproduce", "psl-c3-r5", "--out-dir", str(tmp_path)]]
    assert sorted(argv[0] for argv in lines) == sorted(cli._VERBS)
    code = ("import sys\n"
            "at_startup = 'dataclasses' in sys.modules\n"
            "from large_atlas import cli\n"
            "built, build = [], cli._build_parser\n"
            "cli._build_parser = lambda: built.append(1) or build()\n"
            f"for argv in {lines!r}:\n"
            "    code = cli.main(argv)\n"
            "    print('#', argv[0], code, 'dataclasses' in sys.modules, len(built),\n"
            "          'large_atlas.bounds' in sys.modules, flush=True)\n"
            "print('#', at_startup)\n")
    got = [line for line in _fresh_interpreter(code) if line.startswith("# ")]
    if got[-1] == "# True":
        pytest.skip("this interpreter loads dataclasses at startup")
    assert got == [f"# {argv[0]} 0 False 0 {argv[0] in ('sweep', 'reproduce')}"
                   for argv in lines] + ["# False"]
    assert [f.name for f in tmp_path.iterdir()] == ["psl-c3-r5.json"]


def test_a_host_over_a_large_prime_field_is_answered_at_once(capsys):
    # 10^18 + 3 is prime: trial division up to its square root ran for more than 30 s
    t0 = time.perf_counter()
    assert run(capsys, "out", "PSL(2,1000000000000000003)") == (0, "2\n", "")
    assert time.perf_counter() - t0 < 1
    # 2^89 - 1 is prime, beyond the bound below which Miller-Rabin proves it
    code, out, err = run(capsys, "out", "PSL(2,618970019642690137449562111)")
    assert code == 3 and out == "" and "Miller-Rabin" in err


class _ClosedPipe:
    """A stdout whose reader has gone: flush raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


def test_no_command_leaves_an_order_memo_behind(capsys, monkeypatch, tmp_path):
    # the memos fill during each command and are empty after it, whatever
    # its exit: a failed check, success, an unsupported host, a closed pipe
    filled = []

    def clear_memos():
        filled.append(sum(fn.cache_info().currsize for fn in orders.MEMOIZED))
        orders.clear_memos()

    monkeypatch.setattr(cli, "clear_memos", clear_memos)
    orders.clear_memos()
    calls = [(["reproduce", "--all", "--out-dir", str(tmp_path / "r")], 1),
             (["subgroups", "PSL(8,5)"], 0),
             (["subgroups", "POmega+(6,3)"], 3),
             (["order", "PSL(400,7)"], 1)]
    with open(tmp_path / "stdout", "w") as sink:
        for argv, want in calls:
            if argv[0] == "order":
                monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
            assert cli.main(argv) == want, argv
            assert filled[-1] > 0, argv
            assert [fn.cache_info().currsize for fn in orders.MEMOIZED] == [0] * 7, argv
    assert len(filled) == len(calls)
