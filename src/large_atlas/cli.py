"""Command-line surface for the atlas.

Verbs: order, out, subgroups, check, sweep, reproduce, tables, explain.
All numeric output is exact decimal.  Exit codes: 0 success, 1 a
failed check or a reader that closed the output early, 2 parse error,
3 unsupported group, 4 ambiguous selector, 5 missing golden files.  The
three selector verbs, subgroups, check and explain, refuse a host that is
not simple or not in its canonical form (exit 3, the canonical name on
stderr) before they read the selector.  The selector's --class and --type
ignore surrounding spaces (a blank one is not read), a --class that no
catalog row carries (catalog.CLASSES) exits 2, and so does --class X
without --exceptional, as --item does: only the two exceptional pools
carry class X.  check --h0-order reads no selector and no catalog row, so
it takes any host, and refuses a selector as a parse error; reproduce
reads exactly one of a case id, --family and --all, and sweep --list no
case id.  reproduce refuses an --out-dir it cannot write (exit 2).

A plain command line (the verb, its positionals, and each option spelled
in full, at most once, with a value not starting with "-") is parsed
straight from the verb's table of arguments in _VERBS, by _parse_plain.
Every other command line goes to the full argparse parser (_build_parser,
built once per process), which prints help and usage errors; both routes
give the same namespace.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, localcontext
from functools import cache

from .errors import (AmbiguousSelector, ConstraintViolation, GroupParseError,
                     LargeAtlasError, MissingGolden, NotAPrimePower,
                     UnknownCase, UnsupportedGroup)
from .largeness import EXACT, is_large, is_large_h1
from .orders import (canonicalize, clear_memos, is_simple, order, order_bits_floor, out_order,
                     parse_group)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_AMBIGUOUS = 4
EXIT_MISSING_GOLDEN = 5

# the most decimal digits an integer in the output may have
MAX_DIGITS = 2_000_000
# _decimal prints an int of up to this many bits with str(), a longer one
# by halves, since str() of an int takes quadratic time before Python 3.12
_STR_BITS = 20_000


def _verdict_dict(v):
    num, den = v.margin.as_integer_ratio()
    return {
        "is_large": v.is_large,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "margin": f"{_decimal(num)}/{_decimal(den)}",
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
    """All catalog entries matched by the selector flags.  The catalog lists
    the subgroups of a simple host under its canonical name; any other host
    is refused, not rewritten (_require_simple_canonical)."""
    from . import catalog

    _require_simple_canonical(g0)
    klass = (args.klass or "").strip() or None
    if klass and klass.lower() not in catalog.CLASSES:
        raise GroupParseError(f"unknown class {klass!r}")
    if args.item and not args.exceptional:
        raise GroupParseError("--item needs --exceptional")
    # only the two exceptional pools carry class X
    if klass and klass.lower() == "x" and not args.exceptional:
        raise GroupParseError("--class X needs --exceptional")
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
    want = (args.type or "").strip().lower()
    if want:
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
    built when a floor 2^b <= |G0| puts |G0| >= 10^MAX_DIGITS: 2^b >= 10^D
    once 1000 b >= 3322 D, as log2(10) < 3.322; b is order_bits_floor(g0)."""
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


def _decimal(n):
    """str(n) for an int n >= 0: the one route by which the CLI writes an
    integer itself.  Above _STR_BITS bits, n = hi * 2^k + lo with k half
    its bit length, each half written the same way down to 128 bits, and
    the halves joined in decimal arithmetic on integer operands, exact in
    a MAX_PREC context (the method of CPython 3.12's _pylong).  More than
    MAX_DIGITS digits raise ValueError, as str does under main's digit cap;
    where the bit length shows it, before any digit is built."""
    bits = n.bit_length()
    if bits <= _STR_BITS:
        return str(n)
    powers = {}

    def join(m, width):
        if width <= 128:
            return Decimal(m)
        k = width >> 1
        if k not in powers:
            powers[k] = Decimal(2) ** k
        hi = m >> k
        return join(hi, width - k) * powers[k] + join(m - (hi << k), k)

    if 1000 * (bits - 1) < 3322 * MAX_DIGITS:  # else n >= 2^(bits-1) >= 10^MAX_DIGITS
        with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact])):
            d = join(n, bits)
        if d.adjusted() < MAX_DIGITS:
            return str(d)
    raise ValueError(f"an integer of more than {MAX_DIGITS} decimal digits")


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def cmd_order(args):
    _, g0_order = _host(args)
    with _digit_cap():
        print(_decimal(g0_order))
    return EXIT_OK


def cmd_out(args):
    print(out_order(parse_group(args.group)))
    return EXIT_OK


def cmd_subgroups(args):
    g0, g0_order = _host(args)
    verdicts = [(e, is_large_h1(g0_order, e)) for e in _resolve_entries(g0, args)]
    with _digit_cap():
        if args.json:
            print(json.dumps([_entry_dict(e, v) for e, v in verdicts], indent=2))
        else:
            for e, v in verdicts:
                star = "large" if v.is_large else "not large"
                print(f"{e.aschbacher_class:>2}  {e.type_descriptor:<34} "
                      f"|H0|={_decimal(e.h0_order)} o1={_decimal(e.o1_order)} "
                      f"[{e.bound}] -> {star} ({v.mode})")
    return EXIT_OK


def cmd_check(args):
    g0, g0_order = _host(args)
    if args.h0_order is not None:
        # an explicit |H0| reads no selector: refuse one rather than drop it
        for flag, value in (("--class", args.klass), ("--type", args.type),
                            ("--exceptional", args.exceptional), ("--item", args.item)):
            if value is not None:
                raise GroupParseError(f"{flag} is not read with --h0-order")
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
        g0_text = _decimal(g0_order)  # |G0| appears twice; convert it once
        lines = [f"host           {entry.host}  (order {g0_text})",
                 f"class          {entry.aschbacher_class}",
                 f"type           {entry.type_descriptor}"]
        if entry.name:
            lines.append(f"structure      {entry.name}")
        lines.append(f"formula        {entry.formula}")
        if entry.params:
            lines.append("parameters     " + ", ".join(f"{k}={val}" for k, val in entry.params))
        lines += [f"|H0|           {_decimal(entry.h0_order)}  ({entry.bound})",
                  f"|O1|           {_decimal(entry.o1_order)}",
                  f"cube test      |H0|^3 |O1|^2 = {_decimal(v.rhs)} vs |G0| = {g0_text}",
                  f"verdict        {'large' if v.is_large else 'not large'} ({v.mode})"]
        print("\n".join(lines))
    return EXIT_OK


def cmd_sweep(args):
    from . import sweep as sweep_mod

    if args.list:
        if args.case:
            print("sweep: --list takes no case id", file=sys.stderr)
            return EXIT_PARSE
        if args.json:
            print(json.dumps(sweep_mod.case_ids(), indent=2))
        else:
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


def _cannot_write(out_dir, exc):
    print(f"reproduce: cannot write reports under {out_dir!r}: {exc.strerror}",
          file=sys.stderr)
    return EXIT_PARSE


def cmd_reproduce(args):
    from . import sweep as sweep_mod

    # one selector, so that none given is left unread; an empty case id or
    # prefix counts as not given
    given = bool(args.case) + bool(args.family) + args.all
    if not given:
        print("reproduce: give a case id, --family PREFIX, or --all", file=sys.stderr)
        return EXIT_PARSE
    if given > 1:
        print("reproduce: give only one of a case id, --family PREFIX and --all",
              file=sys.stderr)
        return EXIT_PARSE
    # every refusal comes before the directory is made, and the directory
    # before any sweep runs
    if args.case:
        ids = [sweep_mod.get_case(args.case).case_id]
    else:
        ids = sweep_mod.case_ids(args.family)
    if not ids:
        print(f"reproduce: no case id starts with {args.family!r}", file=sys.stderr)
        return EXIT_PARSE
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        return _cannot_write(args.out_dir, exc)
    reports = [sweep_mod.run_case(cid) for cid in ids]
    ok = True
    for report in reports:
        path = os.path.join(args.out_dir, report.case_id + ".json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            return _cannot_write(args.out_dir, exc)
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
        contradiction = in_g0 == _not_large_expected(row.remark, g0.q.q)
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


# each verb's arguments, as (flags, add_argument keyword arguments): the one
# home of the command-line grammar.  _build_parser adds them to the verb's
# subparser and _parse_plain reads them.
_GROUP = ((("group",), {}),)
_SELECTOR = _GROUP + (
    (("--class",), {"dest": "klass", "help": "Aschbacher class, e.g. C2"}),
    (("--type",), {"help": "type descriptor or structure name"}),
    (("--exceptional",), {"choices": ("sp4", "o8"),
                          "help": "graph-automorphism candidate list"}),
    (("--item",), {"help": "1-based or roman index into the list"}),
)
_JSON = ((("--json",), {"action": "store_true"}),)

# verb -> (help line, handler, arguments), in the order the top-level help
# lists them
_VERBS = {
    "order": ("print the exact order of a group", cmd_order, _GROUP),
    "out": ("print |Out(G0)|", cmd_out, _GROUP),
    "subgroups": ("list catalog entries for a host", cmd_subgroups, _SELECTOR + _JSON),
    "check": ("largeness verdict for one subgroup", cmd_check, _SELECTOR + (
        (("--h0-order",), {"type": int, "help": "explicit |H0| instead of a selector"}),
        (("--o",), {"type": int, "help": "override the outer part order"}),
    )),
    "explain": ("show the formula behind one entry", cmd_explain, _SELECTOR + _JSON),
    "sweep": ("run one sweep case against its golden", cmd_sweep, (
        (("case",), {"nargs": "?"}),
        (("--list",), {"action": "store_true", "help": "list case ids"}),
    ) + _JSON),
    "reproduce": ("run sweeps and write JSON reports", cmd_reproduce, (
        (("case",), {"nargs": "?"}),
        (("--all",), {"action": "store_true"}),
        (("--family",), {"help": "case id prefix, e.g. psu"}),
        (("--out-dir",), {"default": "reports"}),
    )),
    "tables": ("re-emit a data table with verdicts", cmd_tables, (
        (("which",), {"choices": ("A", "B", "A0", "a", "b", "a0")}),
    ) + _JSON),
}


@cache
def _plain_grammar(verb):
    """The verb's arguments as _parse_plain reads them: (the positionals in
    order, {flag: option}, the namespace argparse starts from), where a
    positional is (dest, required, int-typed, choices) and an option (dest,
    takes a value, int-typed, choices).  An argument the direct parse cannot
    read as argparse does is a mistake in _VERBS and raises ValueError: an
    action other than store and store_true, a type other than int, a string
    default of an int, nargs other than "?" on a lone positional without
    choices (argparse hands an optional positional beside another one the
    words in another order), or any other keyword."""
    _, fn, arguments = _VERBS[verb]
    lone = sum(not flags[0].startswith("-") for flags, _ in arguments) == 1
    positionals, options, start = [], {}, {"verb": verb}
    for flags, kw in arguments:
        action, type_ = kw.get("action", "store"), kw.get("type")
        is_option = flags[0].startswith("-")
        if (not kw.keys() <= {"action", "choices", "default", "dest", "help", "nargs", "type"}
                or action not in ("store", "store_true") or type_ not in (None, int)
                or (type_ is int and isinstance(kw.get("default"), str))
                or kw.get("nargs") not in (None, "?")
                or ("nargs" in kw and (is_option or "choices" in kw or not lone))):
            raise ValueError(f"{verb} {flags[0]}: the direct parse cannot read {kw}")
        if not is_option:
            positionals.append((flags[0], "nargs" not in kw, type_ is int, kw.get("choices")))
            start[flags[0]] = kw.get("default")
            continue
        # argparse's dest: the first long flag, without its dashes
        long = next((f for f in flags if f.startswith("--")), flags[0])
        dest = kw.get("dest") or long.lstrip("-").replace("-", "_")
        spec = (dest, action == "store", type_ is int, kw.get("choices"))
        options.update(dict.fromkeys(flags, spec))
        start[dest] = kw.get("default", False if action == "store_true" else None)
    start["fn"] = fn
    return tuple(positionals), options, start


def _parse_plain(verb, words):
    """The namespace of `verb` followed by `words`, parsed straight from the
    verb's arguments, or None where argparse is needed.  The direct parse
    takes only the plain shape: the verb's positionals (an optional one may
    be left out), each option spelled in full and given at most once, each
    value not starting with "-", each int value in ASCII decimal digits and
    each value with choices among them.  On such a command line argparse
    makes the same namespace; any other (help, errors, abbreviations,
    --flag=value, "--", a repeated flag) returns None."""
    positionals, options, start = _plain_grammar(verb)
    values = dict(start)
    given = set()
    n = len(positionals)
    k = i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if word.startswith("-"):
            if word not in options or options[word][0] in given:
                return None
            dest, takes_value, is_int, choices = options[word]
            given.add(dest)
            if not takes_value:
                values[dest] = True
                continue
            if i == len(words) or words[i].startswith("-"):
                return None
            word = words[i]
            i += 1
        elif k < n:
            dest, _, is_int, choices = positionals[k]
            k += 1
        else:
            return None
        if is_int:
            if not (word.isascii() and word.isdigit()):
                return None
            try:
                word = int(word)
            except ValueError:  # beyond the interpreter's digit cap
                return None
        if choices is not None and word not in choices:
            return None
        values[dest] = word
    if any(required for _, required, _, _ in positionals[k:]):
        return None
    return argparse.Namespace(**values)


@cache
def _build_parser():
    """The full command-line parser, with every verb's subparser.  main
    calls it only for a command line that _parse_plain does not take: help,
    a usage error, a first word that names no verb, or argparse's other
    shapes (abbreviated flags, --flag=value, "--", a repeated flag, a value
    starting with "-").  It is built once per process: parse_args keeps no
    state in the parser, and every call gets a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="large-atlas",
        description="Exact arithmetic for large maximal subgroups of "
                    "finite classical groups.")
    sub = top.add_subparsers(dest="verb", required=True)
    for name, (help_, fn, arguments) in _VERBS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(fn=fn)
    return top


def main(argv=None):
    # group orders easily exceed the default digit cap for int printing,
    # and the contract is exact decimal output
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_DIGITS)
    if argv is None:
        argv = sys.argv[1:]
    # a plain command line of a verb is parsed straight from its arguments;
    # any other, and any other first word (none, --help, a typo), goes to
    # the full parser
    args = _parse_plain(argv[0], argv[1:]) if argv and argv[0] in _VERBS else None
    if args is None:
        args = _build_parser().parse_args(argv)
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
    finally:
        # the order memos live for one command, however it ends
        clear_memos()


if __name__ == "__main__":
    sys.exit(main())
