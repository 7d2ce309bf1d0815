"""The workloads: seeded inputs, one timed pass, and output checks.

Inputs come only from the seed and this file, never from the program, so
the parent and the child of a change run exactly the same operations.  Each
workload runs in passes; a pass is the workload's fixed unit of work, cut
into pieces by a Timeline, and `wall_s` is the sum of each piece's best
time over the passes.  Every output is checked against reference.py after
the pass, outside the timed region.

A check returns None for a correct output, ("known", defect) for a failure
that matches one of the documented defects in KNOWN_DEFECTS, or
("fail", reason) for anything else.
"""

import io
import json
import os
import random
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import reference as ref

# ROADMAP open item 4 ("Harden the boundary"): the bullets whose failures
# the host-queries draw keeps on purpose so each one counts at baseline.
KNOWN_DEFECTS = {
    "item4.duplicate-table-rows":
        "every Table A/B row is listed twice (cli._resolve_entries)",
    "item4.q-none-traceback":
        "out/subgroups/check on Alt, Sym and Sporadic hosts crash on q = None",
    "item4.non-simple-accepted":
        "hosts that are not simple or not canonical are accepted silently",
}

SIMPLE_FAMILIES = ("PSL", "PSU", "PSp", "POmega+", "POmega-", "POmega")
HOST_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
          37, 41, 43, 47, 49, 53, 59, 61, 64)
NOT_PRIME_POWERS = (0, 1, 6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 26, 28, 30,
                    33, 34, 35, 36, 38, 39, 40, 42, 44, 45, 46, 48, 50)
MALFORMED = ("PSL(3,5", "PXL(3,5)", "PSL(3)", "PSL(a,5)", "POmega(8,3)",
             "PSL+(3,5)", "POmega+(7,3)", "psl(3,5)", "PSL(3,5,7)",
             "Sporadic()", "PSU(4,3))", "Alt(x)")
# Hosts with a row in Table A or B, the subgroup to select, and whether
# the host itself is simple.
TABLE_SELECTORS = (
    ("PSL(4,2)", "A7", True), ("PSp(4,2)", "A5", False),
    ("PSL(3,4)", "A6", True), ("PSU(4,3)", "A7", True),
    ("PSL(2,11)", "A5", True), ("PSL(2,19)", "A5", True),
    ("PSU(3,5)", "M10", True), ("PSU(6,2)", "M22", True),
    ("PSp(6,4)", "J2", True), ("PSU(9,2)", "J3", True),
    ("PSL(5,3)", "M11", True), ("POmega+(8,3)", "POmega7(3)", True),
    ("PSU(3,3)", "PSL2(7)", True), ("POmega+(8,2)", "A9", True),
    ("PSp(8,2)", "S10", True), ("POmega-(10,2)", "A12", True),
)
NONCLASSICAL = (tuple((fam, d) for fam in ("Alt", "Sym") for d in range(5, 13))
                 + tuple(("Sporadic", name) for name in ref.SPORADIC))

# Shape of the host-queries stream: 960 well-formed queries, an equal share
# for each verb and, within a verb, for each of the six simple families,
# plus forty boundary probes (4%).  Nothing records how the CLI is used, so
# the equal shares are an assumption (perfbench/RATIONALE.md).  A tenth of
# each verb and family's queries take a moderate dimension (17..64), the
# rest a small one (up to 16).
HOST_VERBS = tuple((verb, 192) for verb in ("subgroups", "check", "explain", "order", "out"))
HOST_PROBES = (("malformed", 8), ("not-prime-power", 8), ("non-simple", 8),
               ("non-classical", 8), ("table", 8))

VALID_EXITS = (0, 1, 2, 3, 4, 5)


def call_cli(main, argv):
    """Run the CLI in-process with its output captured.

    Returns (exit code, stdout, stderr, traceback text); the exit code is
    None when the call raised."""
    out, err = io.StringIO(), io.StringIO()
    tb = ""
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a command line
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            tb = traceback.format_exc()
    return rc, out.getvalue(), err.getvalue(), tb


class _Digits:
    """Lifts the interpreter's int/str digit cap for the benchmark's own
    parsing only, so a program that forgot to lift it still fails."""

    def __enter__(self):
        self.old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.old)


# ---------------------------------------------------------------------------
# host-queries
# ---------------------------------------------------------------------------


def _split(name):
    """('PSL', '') ... ('POmega', '+') from a family label."""
    if name.startswith("POmega") and name[6:] in ("+", "-"):
        return "POmega", name[6:]
    return name, ""


def _host_name(label, n, q):
    fam, eps = _split(label)
    return f"{fam}{eps}({n},{q})"


def _simple(label, n, q):
    """Whether label(n, q) names a simple group in canonical form."""
    if label == "PSL":
        return n >= 2 and (n, q) not in ((2, 2), (2, 3))
    if label == "PSU":
        return n >= 3 and (n, q) != (3, 2)
    if label == "PSp":
        return n >= 4 and n % 2 == 0 and (n, q) != (4, 2)
    if label == "POmega":
        return n >= 7 and n % 2 == 1 and q % 2 == 1
    return n >= 8 and n % 2 == 0


def _draw_host(rng, label):
    """A simple classical host in canonical form with n up to 16."""
    while True:
        n, q = rng.randint(2, 16), rng.choice(HOST_Q)
        if _simple(label, n, q):
            return n, q


def _moderate_hosts(label, count):
    """`count` simple hosts with n from 17 to 64, on a grid that is the same
    for every seed: point i takes the i-th of `count` equal slices of the
    dimension range and a scattered slice of the field sizes, moved to the
    nearest simple host.  These make the slowest operations, and a seeded
    draw of so few of them moved the tail percentile by a third from seed
    to seed."""
    out = []
    for i in range(count):
        n = 17 + int(48 * (i + 0.5) / count)
        k = int(len(HOST_Q) * ((i * 7) % count + 0.5) / count)
        out.append(next((n + dn, q) for q in HOST_Q[k:] + HOST_Q[:k] for dn in (0, 1)
                        if _simple(label, n + dn, q)))
    return out


def _query(verb, label, n, q, rng):
    """One well-formed query.  check and explain select either the C1 row or
    a row that reference.required_types says the catalog must list, so
    each of them must resolve to exactly one row."""
    host = _host_name(label, n, q)
    fam, eps = _split(label)
    info = {"kind": "normal", "verb": verb, "fam": fam, "eps": eps, "n": n, "q": q}
    if verb == "subgroups":
        argv = ["subgroups", host, "--json"]
    elif verb in ("check", "explain"):
        klass, type_ = rng.choice([("C1", None)] + ref.required_types(fam, n, q, eps))
        argv = [verb, host, "--class", klass] + (["--type", type_] if type_ else [])
        info["type"] = type_
    else:
        argv = [verb, host]
    return argv, info


def _probe(kind, rng):
    if kind == "malformed":
        verb = rng.choice(("order", "out", "subgroups"))
        return [verb, rng.choice(MALFORMED)], {"kind": kind}
    if kind == "not-prime-power":
        label = rng.choice(SIMPLE_FAMILIES)
        n = {"PSL": 3, "PSU": 4, "PSp": 6, "POmega": 7}.get(label, 8)
        verb = rng.choice(("order", "out", "subgroups", "check"))
        argv = [verb, _host_name(label, n, rng.choice(NOT_PRIME_POWERS))]
        return argv + (["--class", "C1"] if verb == "check" else []), {"kind": kind}
    if kind == "non-simple":
        q = rng.choice((2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27))
        odd = rng.choice((3, 5, 7, 9, 11, 13, 25, 27))
        even = rng.choice((2, 4, 8, 16))
        host, canon = rng.choice((
            ("PSL(2,2)", None), ("PSL(2,3)", None), ("PSU(3,2)", None),
            ("PSp(4,2)", None), (f"POmega+(4,{q})", None),
            (f"PSU(2,{q})", f"PSL(2,{q})" if q >= 4 else None),
            (f"PSp(2,{q})", f"PSL(2,{q})" if q >= 4 else None),
            (f"POmega(3,{odd})", f"PSL(2,{odd})" if odd >= 5 else None),
            (f"POmega(5,{odd})", f"PSp(4,{odd})"),
            (f"POmega(7,{even})", f"PSp(6,{even})"),
            (f"POmega+(6,{q})", f"PSL(4,{q})"),
            (f"POmega-(6,{q})", f"PSU(4,{q})"),
            (f"POmega-(4,{q})", f"PSL(2,{q * q})"),
        ))
        return ["subgroups", host, "--json"], {"kind": kind, "canon": canon}
    if kind == "non-classical":
        fam, arg = rng.choice(NONCLASSICAL)
        verb = rng.choice(("order", "out", "subgroups", "check"))
        argv = [verb, f"{fam}({arg})"] + (["--class", "C1"] if verb == "check" else [])
        return argv, {"kind": kind, "fam": fam, "arg": arg, "verb": verb}
    host, sub, simple = rng.choice(TABLE_SELECTORS)
    verb = rng.choice(("check", "explain"))
    return [verb, host, "--type", sub], {"kind": kind, "simple": simple, "verb": verb}


def host_batch(seed):
    """The host-queries stream for this seed."""
    rng = random.Random(seed)
    ops = []
    verbs = len(HOST_VERBS)
    for v, (verb, count) in enumerate(HOST_VERBS):
        per_family = count // len(SIMPLE_FAMILIES)
        moderate = round(per_family / 10)
        for f, label in enumerate(SIMPLE_FAMILIES):
            # each verb takes every verbs-th point of the family's grid,
            # from an offset that turns with the family, so it sees the
            # whole range of dimensions
            grid = _moderate_hosts(label, moderate * verbs)[(v + f) % verbs::verbs]
            for j in range(per_family):
                n, q = grid[j] if j < moderate else _draw_host(rng, label)
                ops.append(_query(verb, label, n, q, rng))
    for kind, count in HOST_PROBES:
        ops += [_probe(kind, rng) for _ in range(count)]
    rng.shuffle(ops)
    return ops


def _margin(rhs, lhs):
    f = Fraction(rhs, lhs)
    return f"{f.numerator}/{f.denominator}"


_MODE_RULES = {
    "exact": lambda large: "exact",
    "upper": lambda large: "bound_only" if large else "excluded_by_bound",
    "lower": lambda large: "forced_large" if large else "bound_only",
}


def _check_verdict(v, g0_res):
    lhs, rhs = v["lhs"], v["rhs"]
    if ref.int_residues(lhs) != g0_res:
        return "lhs is not |G0|"
    if v["is_large"] != (rhs >= lhs):
        return "is_large disagrees with rhs >= lhs"
    if v["margin"] != _margin(rhs, lhs):
        return "margin is not rhs/lhs in lowest terms"
    return None


def _check_rows(rows, g0_res):
    """The first wrong verdict among the rows of `subgroups --json`."""
    for r in rows:
        v = r["verdict"]
        bad = _check_verdict(v, g0_res)
        if bad:
            return bad
        if v["rhs"] != r["h0_order"] ** 3 * r["o1_order"] ** 2:
            return "rhs is not |H0|^3 |O1|^2"
        if v["mode"] != _MODE_RULES[r["bound"]](v["is_large"]):
            return "verdict mode does not follow the row's bound"
    return None


def _check_required(rows, fam, n, q, eps):
    """The rows reference.py says the host must have: a C1 row whose |H0|
    holds a Sylow p-subgroup, and every type of ref.required_types."""
    sylow = q ** ref.sylow_exponent(fam, n)
    if not any(r["class"] == "C1" and r["h0_order"] % sylow == 0 for r in rows):
        return "no C1 row with |H0| divisible by q^N"
    have = {(r["class"], r["type"]) for r in rows}
    missing = [t for t in ref.required_types(fam, n, q, eps) if t not in have]
    return f"required rows missing: {missing}" if missing else None


def _repeats(lines):
    return len(set(lines)) < len(lines)


def _check_explain(text, g0_res, info):
    f = {}
    for line in text.splitlines():
        key, _, val = line.partition("  ")
        f[key.strip()] = val.strip()
    try:
        h0 = int(f["|H0|"].split()[0])
        o1 = int(f["|O1|"])
        cube = f["cube test"]
        rhs = int(cube.split("= ")[1].split(" vs")[0])
        lhs = int(cube.rsplit("= ", 1)[1])
        large = f["verdict"].startswith("large")
        klass, type_ = f["class"], f["type"]
    except (KeyError, IndexError, ValueError):
        return "explain output does not parse"
    if ref.int_residues(lhs) != g0_res:
        return "|G0| is wrong"
    if rhs != h0 ** 3 * o1 ** 2:
        return "rhs is not |H0|^3 |O1|^2"
    if large != (rhs >= lhs):
        return "verdict disagrees with rhs >= lhs"
    if info.get("type") and type_ != info["type"]:
        return "explained a row of another type"
    if info.get("sylow") and klass != "C1":
        return "explained a row of another class"
    if info.get("sylow") and h0 % info["sylow"]:
        return "C1 row's |H0| is not divisible by q^N"
    return None


def _candidates_repeat(err):
    return _repeats([l for l in err.splitlines() if l.strip().startswith("candidate:")])


def _check_selected(info, out, g0_res):
    """Output of check or explain that exited 0."""
    if info["verb"] == "explain":
        return _check_explain(out, g0_res, info)
    v = json.loads(out)
    bad = _check_verdict(v, g0_res)
    if not bad and info.get("sylow") and v["rhs"] % info["sylow"] ** 3:
        bad = "C1 row's |H0|^3 is not divisible by q^3N"
    return bad


def _q_none(info, tb):
    """A traceback of the ROADMAP item 4 bullet: a verb that reads the
    field of a host that has none.  order does not read it."""
    last = tb.strip().splitlines()[-1] if tb.strip() else ""
    return info["verb"] in ("out", "subgroups", "check") and "'NoneType'" in last


def check_host(info, rc, out, err, tb):
    kind = info["kind"]
    if rc is not None and rc not in VALID_EXITS:
        return ("fail", f"undocumented exit {rc}")
    if kind == "non-classical":
        if rc is None:
            if _q_none(info, tb):
                return ("known", "item4.q-none-traceback")
            return ("fail", "traceback: " + tb.strip().splitlines()[-1])
        fam, arg, verb = info["fam"], info["arg"], info["verb"]
        if verb == "order" and rc == 0:
            ok = out.strip() == str(ref.nonclassical_order(fam, arg))
            return None if ok else ("fail", "wrong order")
        if verb == "out" and rc == 0:
            ok = out.strip() == str(ref.nonclassical_out(fam, arg))
            return None if ok else ("fail", "wrong |Out|")
        return None if rc in (2, 3) else ("fail", f"exit {rc} on a non-classical host")
    if rc is None:
        return ("fail", "traceback: " + tb.strip().splitlines()[-1])
    if kind in ("malformed", "not-prime-power"):
        return None if rc in (2, 3) else ("fail", f"exit {rc} on a rejected name")
    if kind == "non-simple":
        return _check_non_simple(info, rc, out)
    if kind == "table":
        if rc == 4:
            if _candidates_repeat(err):
                return ("known", "item4.duplicate-table-rows")
            return ("fail", "ambiguous Table A/B selector")
        if rc == 3 and not info["simple"]:
            return None
        if rc != 0:
            return ("fail", f"exit {rc} on a Table A/B selector")
        fam, eps, n, q = _parse_host(info["argv"][1])
        bad = _check_selected(info, out, ref.order_residues(fam, n, q, eps))
        return ("fail", bad) if bad else None
    verb = info["verb"]
    fam, eps, n, q = info["fam"], info["eps"], info["n"], info["q"]
    if rc != 0:
        # every drawn selector names a row the reference requires, once
        return ("fail", f"exit {rc}")
    if verb == "order":
        text = out.strip()
        ok = text.isdigit() and ref.decimal_residues(text) == ref.order_residues(fam, n, q, eps)
        return None if ok else ("fail", "wrong order")
    if verb == "out":
        ok = out.strip() == str(ref.out_order(fam, n, q, eps))
        return None if ok else ("fail", "wrong |Out|")
    g0_res = ref.order_residues(fam, n, q, eps)
    if verb == "subgroups":
        rows = json.loads(out)
        bad = _check_rows(rows, g0_res) or _check_required(rows, fam, n, q, eps)
        if bad:
            return ("fail", bad)
        if _repeats([json.dumps(r, sort_keys=True) for r in rows]):
            return ("known", "item4.duplicate-table-rows")
        return None
    if info.get("type") is None:
        info = dict(info, sylow=q ** ref.sylow_exponent(fam, n))
    bad = _check_selected(info, out, g0_res)
    return ("fail", bad) if bad else None


def _check_non_simple(info, rc, out):
    """`subgroups --json` on a host that is not simple or not canonical.
    Rejecting it is right.  Accepting it is the ROADMAP item 4 defect only
    when the rows are right for the group as named and are listed under a
    name other than the canonical one (or the group is not simple at all)."""
    if rc in (2, 3):
        return None
    if rc != 0:
        return ("fail", f"exit {rc}")
    rows = json.loads(out)
    fam, eps, n, q = _parse_host(info["argv"][1])
    bad = _check_rows(rows, ref.order_residues(fam, n, q, eps))
    if bad:
        return ("fail", bad)
    canon = info["canon"]
    if canon is None or any(r["host"] != canon for r in rows):
        return ("known", "item4.non-simple-accepted")
    fam, eps, n, q = _parse_host(canon)
    bad = _check_required(rows, fam, n, q, eps)
    return ("fail", bad) if bad else None


def _parse_host(name):
    """('PSL', '', 4, 5) from 'PSL(4,5)'."""
    head, _, args = name.partition("(")
    n, q = (int(x) for x in args.rstrip(")").split(","))
    fam, eps = _split(head)
    return fam, eps, n, q


# ---------------------------------------------------------------------------
# workload runners
# ---------------------------------------------------------------------------
#
# Every pass runs the same operations in the same order against `la`, a
# freshly imported large_atlas, and returns (wall time of the pass,
# latency of each operation, one check record per operation, durations of
# the pieces of its Timeline).  A check record is (argv, CLI exit code or
# "traceback" or None when the operation made no CLI call, bytes printed,
# verdict).


class Timeline:
    """Timestamps at fixed points of a pass: its start, the start and end
    of every operation and of every call to a wrapped function, and its
    end.  The same operations in the same order give the same points, so
    piece j of one pass is the same work as piece j of another, and
    wall_s is the sum of each piece's best over the passes
    (measure.fold_best)."""

    def __init__(self):
        self.marks = [time.perf_counter()]

    def mark(self):
        t = time.perf_counter()
        self.marks.append(t)
        return t

    def wrap(self, fn):
        def timed(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()
        return timed

    def wall(self):
        return self.marks[-1] - self.marks[0]

    def pieces(self):
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


class CliWorkload:
    """One in-process CLI call per op."""

    def __init__(self, ops, check):
        self.ops, self.check = ops, check

    def run_pass(self, la, tracer):
        results, lat = [], []
        tl = Timeline()
        for argv, info in self.ops:
            if tracer is not None:
                tracer.op += 1
            t0 = tl.mark()
            res = call_cli(la.cli.main, argv)
            lat.append(tl.mark() - t0)
            results.append(res)
        tl.mark()
        checked = []
        with _Digits():
            for (argv, info), (rc, out, err, tb) in zip(self.ops, results):
                info = dict(info, argv=argv)
                try:
                    verdict = self.check(info, rc, out, err, tb)
                except (ValueError, KeyError, TypeError) as exc:
                    verdict = ("fail", f"output does not parse: {exc!r}")
                exit_ = "traceback" if rc is None else rc
                checked.append((argv, exit_, len(out.encode()), verdict))
        return tl.wall(), lat, checked, tl.pieces()


class ReproduceWorkload:
    """`large-atlas reproduce --all --out-dir <dir>` once per pass; each of
    the 25 sweep cases is one operation.  The pass is also cut at every
    call of `large_atlas.sweep.order`, so that psp-c7, which spends seconds
    in a few such calls, is not one piece of the timeline."""

    def __init__(self, outdir):
        self.dir = os.path.join(outdir, "reports")
        os.makedirs(self.dir, exist_ok=True)

    def run_pass(self, la, tracer):
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        inner, order = la.sweep.run_case, la.sweep.order
        lat = []
        tl = Timeline()

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.op += 1
            t0 = tl.mark()
            try:
                return inner(*args, **kwargs)
            finally:
                lat.append(tl.mark() - t0)

        la.sweep.run_case, la.sweep.order = timed, tl.wrap(order)
        try:
            rc, out, err, tb = call_cli(la.cli.main,
                                        ["reproduce", "--all", "--out-dir", self.dir])
            tl.mark()
        finally:
            la.sweep.run_case, la.sweep.order = inner, order
        # one CLI call per pass: its exit and output go with the first case
        checked = [(["reproduce", "--all", cid], None, 0, self._check_case(cid, rc, tb))
                   for cid in sorted(ref.GOLDEN_MEMBERS)]
        exit_ = "traceback" if rc is None else rc
        checked[0] = (checked[0][0], exit_, len(out.encode()), checked[0][3])
        return tl.wall(), lat, checked, tl.pieces()

    def _check_case(self, cid, rc, tb):
        if rc is None:
            return ("fail", "traceback: " + tb.strip().splitlines()[-1])
        # exit 1 is the documented "sweep diff" code, due to the two
        # documented extras
        if rc != 1:
            return ("fail", f"exit {rc}, expected 1")
        try:
            with open(os.path.join(self.dir, cid + ".json"), encoding="utf-8") as fh:
                rep = json.load(fh)
        except (OSError, ValueError) as exc:
            return ("fail", f"report unreadable: {exc!r}")
        extras = ref.DOCUMENTED_EXTRAS.get(cid, ())
        want = set(ref.GOLDEN_MEMBERS[cid]) | set(extras)
        if rep.get("case_id") != cid or set(rep.get("members", ())) != want:
            return ("fail", "members differ from golden plus documented extras")
        if rep.get("missing") or list(rep.get("extra", ())) != list(extras):
            return ("fail", "missing/extra differ from the documented extras")
        if rep.get("alarms"):
            return ("fail", "sandwich alarms")
        return None


ORACLE_GRID = (
    tuple(("GL", n, q) for n in (1, 2, 3) for q in (2, 3, 4, 5))
    + tuple(("SL", n, q) for n in (1, 2, 3) for q in (2, 3, 4, 5))
    + tuple((kind, n, q0) for kind in ("GU", "SU") for n in (1, 2) for q0 in (2, 3))
    + tuple(("Sp", 2, q) for q in (2, 3, 4, 5)))


class OracleWorkload:
    """The brute-force grid the tests use, in a seeded order; each op counts
    one group by enumeration and evaluates its closed form."""

    def __init__(self, seed):
        self.grid = list(ORACLE_GRID)
        random.Random(seed).shuffle(self.grid)

    @staticmethod
    def _op(la, kind, n, q):
        oracle, orders = la.oracle, la.orders
        if kind in ("GL", "SL"):
            count = oracle.count_gl(n, q, det_one=(kind == "SL"))
            closed = (orders.gl_order if kind == "GL" else orders.sl_order)(n, q)
        elif kind in ("GU", "SU"):
            count = oracle.count_gu(n, q, det_one=(kind == "SU"))
            closed = (orders.gu_order if kind == "GU" else orders.su_order)(n, q)
        else:
            count, closed = oracle.count_sp2(q), orders.sp_order(2, q)
        return count, closed

    def run_pass(self, la, tracer):
        lat, got = [], []
        tl = Timeline()
        for kind, n, q in self.grid:
            if tracer is not None:
                tracer.op += 1
            t0 = tl.mark()
            got.append(self._op(la, kind, n, q))
            lat.append(tl.mark() - t0)
        tl.mark()
        checked = []
        for key, (count, closed) in zip(self.grid, got):
            want = ref.ORACLE_COUNTS[key]
            bad = None if count == want == closed else (
                "fail", f"{key}: count {count}, closed form {closed}, table {want}")
            checked.append((list(map(str, key)), None, 0, bad))
        return tl.wall(), lat, checked, tl.pieces()


class Sequence:
    """Workloads run one after the other as one pass."""

    def __init__(self, *parts):
        self.parts = parts

    def run_pass(self, la, tracer):
        wall, lat, checked, pieces = 0.0, [], [], []
        for part in self.parts:
            w, l, c, p = part.run_pass(la, tracer)
            wall += w
            lat += l
            checked += c
            pieces += p
        return wall, lat, checked, pieces


def make(name, seed, outdir):
    if name == "host-queries":
        return CliWorkload(host_batch(seed), check_host)
    return Sequence(ReproduceWorkload(outdir), OracleWorkload(seed))


WORKLOADS = ("reproduce-oracle", "host-queries")
