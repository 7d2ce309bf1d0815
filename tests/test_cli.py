"""Command line interface: output, selectors, exit codes."""

import json
import sys
import time

import pytest

from large_atlas import cli


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no digit cap")
def test_digit_cap_hit_while_printing_exits_unsupported(capsys, monkeypatch):
    # with a 1000-digit cap the bracket of PSL(50,3) cannot refuse it
    # (lo = 2497 bits), but its 1192-digit order fails to print
    old = sys.get_int_max_str_digits()
    monkeypatch.setattr(cli, "MAX_DIGITS", 1000)
    try:
        for argv in (("order",), ("subgroups", "--json"), ("check", "--class", "C1"),
                     ("explain", "--class", "C1")):
            code, out, err = run(capsys, argv[0], "PSL(50,3)", *argv[1:])
            assert code == 3 and out == "" and "decimal digits" in err, argv
        assert run(capsys, "order", "PSL(45,3)")[0] == 0  # 966 digits
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


def test_sweep_list(capsys):
    code, out, _ = run(capsys, "sweep", "--list")
    assert code == 0
    assert "psl-c2-t3" in out.split()


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


@pytest.mark.parametrize("host, selector", [
    ("PSL(4,2)", "A7"), ("PSp(4,2)", "A5"),
])
def test_table_rows_are_not_listed_twice(capsys, host, selector):
    code, out, _ = run(capsys, "check", host, "--type", selector)
    assert code == 0
    code, out, _ = run(capsys, "subgroups", host, "--json")
    assert code == 0
    rows = [json.dumps(r, sort_keys=True) for r in json.loads(out)]
    assert any(selector in r for r in rows)
    assert len(rows) == len(set(rows))


@pytest.mark.parametrize("host", ["Alt(7)", "Sym(6)", "Sporadic(J3)"])
@pytest.mark.parametrize("argv", [
    ("out",), ("subgroups",), ("check", "--class", "C1"),
    ("check", "--exceptional", "sp4", "--item", "1"),
])
def test_hosts_without_a_field_exit_unsupported(capsys, host, argv):
    code, _, err = run(capsys, argv[0], host, *argv[1:])
    assert code == 3 and "error" in err
