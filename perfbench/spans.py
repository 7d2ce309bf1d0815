"""Span tracing of large_atlas from outside the package.

`install` replaces each public function of a large_atlas module at the name
its callers look it up by (a module attribute such as
`large_atlas.sweep.order`) with a wrapper that records a span.  Nothing
under src/ is edited; the wrapping exists only inside the worker process
and only for the traced passes.

A span is (id, parent id, operation id, name, start, end, returned).  Spans
of one benchmark operation share the operation id.  They stay in memory
until the run ends.
"""

import json
import time
from collections import Counter, defaultdict

CTOR_PREFIXES = ("psl_c", "psu_c", "psp_c", "pso_c")
CTOR_POOLS = ("sp4_graph_candidates", "o8_triality_candidates")
VERDICT_MODES = ("exact", "forced_large", "excluded_by_bound", "bound_only")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.counts = Counter()

    def wrap(self, fn, name, after=None, detail=None):
        """fn wrapped so that every call records a span named `name` (plus
        ':' and detail(args) when detail is given) and then, if it returned,
        runs after(self, args, result)."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            label = name if detail is None else f"{name}:{detail(args)}"
            stack.append(sid)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.op, label, t0, t1, returned)
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# counters recorded at the span boundaries
# ---------------------------------------------------------------------------


def _count_bits(tracer, args, result):
    tracer.counts["orders.order.out_bits"] += result.bit_length()


def _count_rows(tracer, args, result):
    tracer.counts["catalog.candidates.rows"] += len(result)


def _count_verdict(tracer, args, result):
    tracer.counts["largeness.rhs_bits"] += result.rhs.bit_length()
    tracer.counts["largeness.mode." + result.mode] += 1


def _count_sandwich(tracer, args, result):
    tracer.counts["bounds.sandwich.decisive"] += result.verdict != "undetermined"


def _count_report(tracer, args, result):
    tracer.counts["sweep.members"] += len(result.members)
    tracer.counts["sweep.alarms"] += len(result.alarms)


def _count_gl(tracer, args, result):
    n, q = args[0], args[1]
    tracer.counts["oracle.grid_matrices"] += q ** (n * n)


def _count_gu(tracer, args, result):
    n, q0 = args[0], args[1]
    tracer.counts["oracle.grid_matrices"] += (q0 * q0) ** (n * n)


def _trace_parse_args(tracer, args, parser):
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.argparse")


class _JsonProxy:
    """Stands in for the json module inside large_atlas.cli so that dumps
    is traced while every other attribute passes through."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------


def _orders_names(mod, orders):
    """(attribute, span name, counter hook) for each orders function mod
    imported."""
    out = []
    for attr, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != orders.__name__ or not callable(obj):
            continue
        if attr == "order":
            out.append((attr, "orders.order", _count_bits))
        elif attr.endswith("_order"):
            out.append((attr, "orders.formula", None))
    return out


def targets(la):
    """Every (module, attribute, span name, counter hook, detail) to wrap."""
    t = []
    for mod in (la.cli, la.sweep, la.catalog):
        for attr, name, hook in _orders_names(mod, la.orders):
            t.append((mod, attr, name, hook, None))
        for attr in ("is_large", "is_large_h1"):
            t.append((mod, attr, "largeness.verdict", _count_verdict, None))
    for mod in (la.arith, la.orders, la.catalog, la.sweep, la.bounds, la.oracle):
        t.append((mod, "parse_prime_power", "arith.parse_prime_power", None, None))
    t.append((la.cli, "main", "cli.main", None, None))
    t.append((la.cli, "_build_parser", "cli.argparse", _trace_parse_args, None))
    t.append((la.catalog, "candidates", "catalog.candidates", _count_rows, None))
    t.append((la.catalog, "table_entries", "catalog.table_entries", None, None))
    for attr in sorted(vars(la.catalog)):
        if attr.startswith(CTOR_PREFIXES) or attr in CTOR_POOLS:
            t.append((la.catalog, attr, "catalog.ctor", None, None))
    t.append((la.sweep, "sandwich", "bounds.sandwich", _count_sandwich, None))
    t.append((la.bounds, "simple_order_bounds", "bounds.simple_order_bounds", None, None))
    t.append((la.sweep, "run_case", "sweep.run_case", _count_report, lambda a: a[0]))
    t.append((la.sweep, "load_golden", "sweep.load_golden", None, None))
    t.append((la.oracle, "count_gl", "oracle.count_gl", _count_gl, None))
    t.append((la.oracle, "count_gu", "oracle.count_gu", _count_gu, None))
    t.append((la.oracle, "count_sp2", "oracle.count_sp2", None, None))
    return t


def install(tracer, la):
    """Wrap every target the modules still have; a layer whose function was
    renamed away reads 0.  The worker imports large_atlas afresh for every
    pass, so the wrappers end with the traced pass."""
    for mod, attr, name, hook, detail in targets(la):
        fn = getattr(mod, attr, None)
        if fn is not None:
            setattr(mod, attr, tracer.wrap(fn, name, hook, detail))
    # cli prints and formats JSON through names it looks up at call time:
    # print falls through the module globals to builtins, json is the
    # module object bound at import.
    la.cli.print = tracer.wrap(print, "cli.print")
    if hasattr(la.cli, "json"):
        la.cli.json = _JsonProxy(la.cli.json, tracer.wrap(la.cli.json.dumps, "cli.json"))


# ---------------------------------------------------------------------------
# from spans to per-layer numbers
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.  Returns {span id: seconds}."""
    children = defaultdict(list)
    for sid, parent, _op, _name, t0, t1, _ok in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _op, _name, t0, t1, _ok in spans:
        covered = 0.0
        edge = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        out[sid] = (t1 - t0) - covered
    return out


def _under(spans, sid, prefix):
    """Whether span sid has an ancestor whose name starts with prefix."""
    parent = spans[sid][1]
    while parent >= 0:
        if spans[parent][3].startswith(prefix):
            return True
        parent = spans[parent][1]
    return False


def layer_metrics(tracer, case_ids):
    """Per-layer totals over everything the tracer recorded."""
    spans = tracer.spans
    own = self_times(spans)
    calls = Counter()
    self_s = Counter()
    failed = Counter()
    case_s = Counter()
    grid_points = 0
    for sid, _parent, _op, label, t0, t1, returned in spans:
        name, _, detail = label.partition(":")
        calls[name] += 1
        self_s[name] += own[sid]
        failed[name] += not returned
        if name == "sweep.run_case":
            case_s[detail] += t1 - t0
        elif name == "largeness.verdict" and _under(spans, sid, "sweep.run_case"):
            grid_points += 1
    c = tracer.counts
    ctor_calls = calls["catalog.ctor"]
    sandwiches = calls["bounds.sandwich"]
    m = {
        "orders.order.calls": calls["orders.order"],
        "orders.order.self_s": self_s["orders.order"],
        "orders.order.out_bits": c["orders.order.out_bits"],
        "orders.formula.self_s": self_s["orders.formula"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.argparse.self_s": self_s["cli.argparse"],
        "cli.json.self_s": self_s["cli.json"],
        "cli.print.self_s": self_s["cli.print"],
        "catalog.candidates.calls": calls["catalog.candidates"],
        "catalog.candidates.self_s": self_s["catalog.candidates"],
        "catalog.candidates.rows": c["catalog.candidates.rows"],
        "catalog.table_entries.self_s": self_s["catalog.table_entries"],
        "catalog.ctor.calls": ctor_calls,
        "catalog.ctor.rejected": failed["catalog.ctor"],
        "catalog.ctor.accept_ratio":
            (ctor_calls - failed["catalog.ctor"]) / ctor_calls if ctor_calls else 0.0,
        "catalog.ctor.self_s": self_s["catalog.ctor"],
        "largeness.verdict.calls": calls["largeness.verdict"],
        "largeness.verdict.self_s": self_s["largeness.verdict"],
        "largeness.rhs_bits": c["largeness.rhs_bits"],
        "bounds.sandwich.calls": sandwiches,
        "bounds.sandwich.self_s": self_s["bounds.sandwich"],
        "bounds.sandwich.decisive_ratio":
            c["bounds.sandwich.decisive"] / sandwiches if sandwiches else 0.0,
        "bounds.simple_order_bounds.calls": calls["bounds.simple_order_bounds"],
        "sweep.grid_points": grid_points,
        "sweep.members": c["sweep.members"],
        "sweep.alarms": c["sweep.alarms"],
        "sweep.load_golden.self_s": self_s["sweep.load_golden"],
        "sweep.self_s": self_s["sweep.run_case"],
        "oracle.calls": (calls["oracle.count_gl"] + calls["oracle.count_gu"]
                         + calls["oracle.count_sp2"]),
        "oracle.count_gl.self_s": self_s["oracle.count_gl"],
        "oracle.count_gu.self_s": self_s["oracle.count_gu"],
        "oracle.grid_matrices": c["oracle.grid_matrices"],
        "arith.parse_prime_power.calls": calls["arith.parse_prime_power"],
        "arith.parse_prime_power.self_s": self_s["arith.parse_prime_power"],
        "trace.spans": len(spans),
    }
    for mode in VERDICT_MODES:
        m["largeness.mode." + mode] = c["largeness.mode." + mode]
    for cid in case_ids:
        m[f"sweep.case.{cid}.s"] = case_s[cid]
    return m
