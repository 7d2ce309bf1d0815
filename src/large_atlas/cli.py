"""Command-line surface for the atlas.

Verbs: order, out, subgroups, check, sweep, reproduce, tables, explain.
All numeric output is exact decimal.  Exit codes: 0 success, 1 a
failed check or a reader that closed the output early, 2 parse error,
3 unsupported group, 4 ambiguous selector, 5 missing golden files.  The
selector's --class and --type ignore surrounding spaces.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache

from .bounds import order_bits_floor
from .errors import (AmbiguousSelector, ConstraintViolation, GroupParseError,
                     LargeAtlasError, MissingGolden, NotAPrimePower,
                     UnknownCase, UnsupportedGroup)
from .largeness import EXACT, is_large, is_large_h1
from .orders import canonicalize, is_simple, order, out_order, parse_group

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_AMBIGUOUS = 4
EXIT_MISSING_GOLDEN = 5

# the most decimal digits an integer in the output may have
MAX_DIGITS = 2_000_000


def _verdict_dict(v):
    margin = v.margin
    return {
        "is_large": v.is_large,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "margin": f"{margin.numerator}/{margin.denominator}",
        "mode": v.mode,
    }


def _entry_dict(entry, verdict=None):
    d = {
        "host": str(entry.host),
        "class": entry.aschbacher_class,
        "type": entry.type_descriptor,
        "name": entry.name,
        "h0_order": entry.h0_order,
        "o1_order": entry.o1_order,
        "bound": entry.bound,
        "formula": entry.formula,
    }
    if verdict is not None:
        d["verdict"] = _verdict_dict(verdict)
    return d


def _parse_item(text, labels):
    """The item label an --item value names: the label itself, or the label
    at a 1-based position; a position outside the labels names none."""
    text = text.strip().lower()
    if text.isdecimal():
        k = int(text)
        return labels[k - 1] if 1 <= k <= len(labels) else text
    if text in labels:
        return text
    raise GroupParseError(f"cannot parse item selector {text!r}")


def _resolve_entries(g0, args):
    """All catalog entries matched by the selector flags."""
    from . import catalog

    klass = (args.klass or "").strip() or None
    if args.item and not args.exceptional:
        raise GroupParseError("--item needs --exceptional")
    if args.exceptional:
        pool = catalog.EXCEPTIONAL[args.exceptional](g0)
        if args.item:
            label = _parse_item(args.item, catalog.ROMAN)
            pool = [e for e in pool if dict(e.params)["item"] == label]
            if not pool:
                raise UnsupportedGroup(
                    f"item {args.item} has no candidate at this field size")
        if klass:
            pool = [e for e in pool if e.aschbacher_class.lower() == klass.lower()]
    else:
        pool = catalog.candidates(g0, klass)
    if args.type:
        want = args.type.strip().lower()
        exact = [e for e in pool
                 if want in (e.type_descriptor.lower(), e.name.lower())]
        pool = exact or [e for e in pool
                         if want in e.type_descriptor.lower()
                         or want in e.name.lower()]
    return pool


def _resolve_entry(g0, args):
    pool = _resolve_entries(g0, args)
    if not pool:
        raise UnsupportedGroup("no catalog entry matches the selector")
    if len(pool) > 1:
        raise AmbiguousSelector(
            "selector matches more than one catalog entry",
            [f"{e.aschbacher_class}: {e.type_descriptor}" for e in pool])
    return pool[0]


def _host(args):
    """The named host G0 and |G0|.  A host is refused before its order is
    built when the floor 2^b <= |G0| of order_bits_floor puts |G0| >=
    10^MAX_DIGITS: 2^b >= 10^D once 1000 b >= 3322 D, as log2(10) < 3.322."""
    g0 = parse_group(args.group)
    if 1000 * order_bits_floor(g0) >= 3322 * MAX_DIGITS:
        raise UnsupportedGroup(f"|{g0}| has more than {MAX_DIGITS} decimal digits")
    return g0, order(g0)


def _require_simple_canonical(g0):
    """Raise UnsupportedGroup unless g0 is simple and written in its
    canonical form (orders.canonicalize).  The message names the canonical
    host where that one is simple."""
    canon = canonicalize(g0)
    if not is_simple(canon):
        raise UnsupportedGroup(f"{g0} is not simple")
    if canon != g0:
        raise UnsupportedGroup(f"{g0} is not in canonical form; use {canon}")


@contextmanager
def _digit_cap():
    """Exit 3 where printing meets an integer beyond MAX_DIGITS, the cases
    the precheck in _host cannot decide.  Wrap only code that formats
    output: any ValueError inside is taken for the interpreter's digit cap."""
    try:
        yield
    except ValueError:
        raise UnsupportedGroup(
            f"output holds an integer of more than {MAX_DIGITS} decimal digits") from None


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def cmd_order(args):
    _, g0_order = _host(args)
    with _digit_cap():
        print(g0_order)
    return EXIT_OK


def cmd_out(args):
    print(out_order(parse_group(args.group)))
    return EXIT_OK


def cmd_subgroups(args):
    # the catalog lists the subgroups of a simple host under its canonical
    # name; any other name is refused, not rewritten
    g0, g0_order = _host(args)
    _require_simple_canonical(g0)
    verdicts = [(e, is_large_h1(g0_order, e)) for e in _resolve_entries(g0, args)]
    with _digit_cap():
        if args.json:
            print(json.dumps([_entry_dict(e, v) for e, v in verdicts], indent=2))
        else:
            for e, v in verdicts:
                star = "large" if v.is_large else "not large"
                print(f"{e.aschbacher_class:>2}  {e.type_descriptor:<34} |H0|={e.h0_order} "
                      f"o1={e.o1_order} [{e.bound}] -> {star} ({v.mode})")
    return EXIT_OK


def cmd_check(args):
    g0, g0_order = _host(args)
    if args.h0_order is not None:
        h0, o, bound = args.h0_order, 1, EXACT
    else:
        entry = _resolve_entry(g0, args)
        h0, o, bound = entry.h0_order, entry.o1_order, entry.bound
    v = is_large(g0_order, h0, o if args.o is None else args.o, bound)
    with _digit_cap():
        print(json.dumps(_verdict_dict(v), indent=2))
    return EXIT_OK


def cmd_explain(args):
    g0, g0_order = _host(args)
    entry = _resolve_entry(g0, args)
    v = is_large_h1(g0_order, entry)
    with _digit_cap():
        if args.json:
            d = _entry_dict(entry, v)
            d["params"] = dict(entry.params)
            d["g0_order"] = g0_order
            print(json.dumps(d, indent=2))
            return EXIT_OK
        print(f"host           {entry.host}  (order {g0_order})")
        print(f"class          {entry.aschbacher_class}")
        print(f"type           {entry.type_descriptor}")
        if entry.name:
            print(f"structure      {entry.name}")
        print(f"formula        {entry.formula}")
        if entry.params:
            print("parameters     " + ", ".join(f"{k}={val}" for k, val in entry.params))
        print(f"|H0|           {entry.h0_order}  ({entry.bound})")
        print(f"|O1|           {entry.o1_order}")
        print(f"cube test      |H0|^3 |O1|^2 = {v.rhs} vs |G0| = {v.lhs}")
        print(f"verdict        {'large' if v.is_large else 'not large'} ({v.mode})")
    return EXIT_OK


def cmd_sweep(args):
    from . import sweep as sweep_mod

    if args.list:
        for cid in sweep_mod.case_ids():
            print(cid)
        return EXIT_OK
    if not args.case:
        print("sweep: a case id is required (or --list)", file=sys.stderr)
        return EXIT_PARSE
    report = sweep_mod.run_case(args.case)
    if args.json:
        print(report.to_json())
    else:
        print(f"{report.case_id}: {len(report.members)} members, "
              f"{len(report.missing)} missing, {len(report.extra)} extra, "
              f"{report.elapsed_ms} ms")
        for m in report.missing:
            print(f"  missing: {sweep_mod._fmt(m)}")
        for m in report.extra:
            print(f"  extra:   {sweep_mod._fmt(m)}")
        for a in report.alarms:
            print(f"  alarm:   {a}")
    return EXIT_OK if report.ok else 1


def cmd_reproduce(args):
    from . import sweep as sweep_mod

    if args.all:
        reports = sweep_mod.run_all()
    elif args.family:
        reports = sweep_mod.run_all(prefix=args.family)
    elif args.case:
        reports = [sweep_mod.run_case(args.case)]
    else:
        print("reproduce: give a case id, --family PREFIX, or --all", file=sys.stderr)
        return EXIT_PARSE
    os.makedirs(args.out_dir, exist_ok=True)
    ok = True
    for report in reports:
        path = os.path.join(args.out_dir, report.case_id + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        status = "ok" if report.ok else "DIFF"
        print(f"{status:<5} {report.case_id} ({report.elapsed_ms} ms) -> {path}")
        ok = ok and report.ok
    return EXIT_OK if ok else 1


_A0_RULES = (
    ("d = 2 mod 4", "2", "Sp(d-2, 2)"),
    ("d = 0 mod 8", "2", "POmega+(d-2, 2)"),
    ("d = 4 mod 8", "2", "POmega-(d-2, 2)"),
    ("d = 1 or 7 mod 8", "2", "POmega+(d-1, 2)"),
    ("d = 3 or 5 mod 8", "2", "POmega-(d-1, 2)"),
    ("p does not divide d", "odd", "POmega(d-1, p), sign by discriminant"),
    ("p divides d", "odd", "POmega(d-2, p), sign by discriminant"),
)


def _not_large_expected(remark, q):
    if "fails the cube inequality" not in remark:
        return False
    if "when q is even" in remark:
        return q % 2 == 0
    return True


def cmd_tables(args):
    from . import catalog

    which = args.which.upper()
    if which == "A0":
        if args.json:
            print(json.dumps([{"d": r[0], "p": r[1], "host": r[2]}
                              for r in _A0_RULES], indent=2))
        else:
            for cond, p, host in _A0_RULES:
                print(f"{cond:<22} p {p:<4} {host}")
        return EXIT_OK
    rows = []
    flagged = False
    for row in catalog.table_rows(which):
        g0, h0_name, h0_order = row.sample
        g0_order = order(g0)
        in_g0 = is_large(g0_order, h0_order).is_large
        with_o1 = is_large(g0_order, h0_order, out_order(g0)).is_large
        contradiction = in_g0 == _not_large_expected(row.remark, int(g0.q))
        flagged = flagged or contradiction
        rows.append({
            "host": str(g0),
            "subgroup": h0_name,
            "h0_order": h0_order,
            "large_in_g0": in_g0,
            "large_with_o1": with_o1,
            "condition": row.condition,
            "remark": row.remark,
            "flag": "remark-contradiction" if contradiction else "",
        })
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for r in rows:
            mark = " !!" if r["flag"] else ""
            note = "" if r["remark"] == "-" else f"  ({r['remark']})"
            print(f"{r['host']:<18} {r['subgroup']:<14} |H0|={r['h0_order']:<12} "
                  f"G0:{'large' if r['large_in_g0'] else 'not large'} "
                  f"O1:{'large' if r['large_with_o1'] else 'not large'}{note}{mark}")
    return EXIT_OK if not flagged else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_group(p):
    p.add_argument("group")


def _add_selector(p):
    p.add_argument("group")
    p.add_argument("--class", dest="klass", help="Aschbacher class, e.g. C2")
    p.add_argument("--type", help="type descriptor or structure name")
    p.add_argument("--exceptional", choices=("sp4", "o8"),
                   help="graph-automorphism candidate list")
    p.add_argument("--item", help="1-based or roman index into the list")


def _add_selector_json(p):
    _add_selector(p)
    p.add_argument("--json", action="store_true")


def _add_check(p):
    _add_selector(p)
    p.add_argument("--h0-order", type=int, help="explicit |H0| instead of a selector")
    p.add_argument("--o", type=int, help="override the outer part order")


def _add_sweep(p):
    p.add_argument("case", nargs="?")
    p.add_argument("--list", action="store_true", help="list case ids")
    p.add_argument("--json", action="store_true")


def _add_reproduce(p):
    p.add_argument("case", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--family", help="case id prefix, e.g. psu")
    p.add_argument("--out-dir", default="reports")


def _add_tables(p):
    p.add_argument("which", choices=("A", "B", "A0", "a", "b", "a0"))
    p.add_argument("--json", action="store_true")


# verb -> (help line, handler, adds the verb's arguments to its subparser),
# in the order the top-level help lists them
_VERBS = {
    "order": ("print the exact order of a group", cmd_order, _add_group),
    "out": ("print |Out(G0)|", cmd_out, _add_group),
    "subgroups": ("list catalog entries for a host", cmd_subgroups, _add_selector_json),
    "check": ("largeness verdict for one subgroup", cmd_check, _add_check),
    "explain": ("show the formula behind one entry", cmd_explain, _add_selector_json),
    "sweep": ("run one sweep case against its golden", cmd_sweep, _add_sweep),
    "reproduce": ("run sweeps and write JSON reports", cmd_reproduce, _add_reproduce),
    "tables": ("re-emit a data table with verdicts", cmd_tables, _add_tables),
}


@cache
def _build_parser(verb=None):
    """The command-line parser: with every verb's subparser, or with only
    the subparser of `verb`.  A one-verb parser parses that verb's command
    lines as the full one does; its usage line still names every verb
    (through the metavar), so the top-level errors it can still raise,
    such as unrecognized arguments, print the same text.  Each parser is
    built once per process: parse_args keeps no state in the parser, and
    every call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="large-atlas",
        description="Exact arithmetic for large maximal subgroups of "
                    "finite classical groups.")
    metavar = None if verb is None else "{" + ",".join(_VERBS) + "}"
    sub = top.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name in _VERBS if verb is None else (verb,):
        help_, fn, add_arguments = _VERBS[name]
        p = sub.add_parser(name, help=help_)
        add_arguments(p)
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    # group orders easily exceed the default digit cap for int printing,
    # and the contract is exact decimal output
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_DIGITS)
    if argv is None:
        argv = sys.argv[1:]
    # the parser holds only the subparser of the verb named; any other
    # first word (none, --help, a typo) gets the full parser and its errors
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = _build_parser(verb).parse_args(argv)
    try:
        code = args.fn(args)
        # a reader that closed the output early shows here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: write that to
        # devnull, so that it cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except AmbiguousSelector as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cand in exc.candidates:
            print(f"  candidate: {cand}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (GroupParseError, NotAPrimePower, UnknownCase) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MissingGolden as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_GOLDEN
    except (UnsupportedGroup, ConstraintViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except LargeAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
