"""Command line interface: output, selectors, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time

import pytest

import large_atlas
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


@pytest.mark.parametrize("verb", ["order", "out", "subgroups"])
def test_odd_dimensional_symplectic_host_exits_unsupported(capsys, verb):
    code, out, err = run(capsys, verb, "PSp(5,3)")
    assert code == 3 and out == "" and "even dimension" in err


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


# one command line per verb, parsed by the one-verb and the full parser
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
    """{verb: subparser} of a parser _build_parser made."""
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


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_one_verb_parser_parses_as_the_full_parser(capsys, verb):
    full, one = cli._build_parser(), cli._build_parser(verb)
    assert list(_subparsers(one)) == [verb]
    assert _subparsers(one)[verb].format_help() == _subparsers(full)[verb].format_help()
    for argv in (SAMPLE_ARGV[verb], [verb, "--help"], [verb], [verb, "--no-such-flag"],
                 SAMPLE_ARGV[verb] + ["extra", "args"]):
        assert _parse(capsys, one, argv) == _parse(capsys, full, argv), argv
    code, _, err = _parse(capsys, one, [verb])
    if verb not in ("sweep", "reproduce"):  # their case id is optional
        assert code == 2 and "the following arguments are required" in err


@pytest.mark.parametrize("argv", [[], ["bogus", "PSL(2,7)"], ["--help"], ["-h", "order"]])
def test_main_falls_back_to_the_full_parser(capsys, monkeypatch, argv):
    want = _parse(capsys, cli._build_parser(), argv)
    built = []
    build = cli._build_parser

    def spy(verb=None):
        built.append(verb)
        return build(verb)

    monkeypatch.setattr(cli, "_build_parser", spy)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == want
    assert built == [None]
    assert cli.main(["out", "PSL(2,7)"]) == 0 and built == [None, "out"]


def _fresh_interpreter(code):
    """stdout lines of `code` run in a fresh interpreter, as every
    command-line call is."""
    src = os.path.dirname(os.path.dirname(large_atlas.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
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


def test_only_a_sporadic_lookup_loads_hashlib():
    # hashlib (OpenSSL) checks sporadic_orders.txt on the first lookup only
    code = ("import sys\n"
            "from large_atlas.cli import main\n"
            "codes = [main(['out', 'PSL(2,7)']), main(['order', 'PSL(4,5)'])]\n"
            "print(codes, 'hashlib' in sys.modules)\n"
            "print(main(['order', 'Sporadic(J3)']), 'hashlib' in sys.modules)\n")
    assert _fresh_interpreter(code) == ["2", "7254000000", "[0, 0] False",
                                        "50232960", "0 True"]
