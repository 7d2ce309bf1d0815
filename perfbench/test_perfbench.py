"""Tests of the benchmark's own code: python3 -m pytest perfbench

They need neither large_atlas nor a timing run."""

import json
import math
import os

import measure
import reference as ref
import run
import spans
import workloads
from worker import Tally, per_layer

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


def test_tail_leaves_ten_samples_above():
    value, pct, n = measure.tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)


def test_tail_ignores_input_order_and_ties():
    samples = [5.0] * 20 + [1.0] * 30 + [9.0] * 10
    value, pct, n = measure.tail(samples[::-1])
    assert value == 5.0 and n == 60 and pct == 100.0 * 50 / 60


def test_tail_needs_more_than_ten_samples():
    assert measure.tail(list(range(10))) is None
    value, pct, n = measure.tail(list(range(11)))
    assert (value, n) == (0, 11) and pct == 100.0 / 11


def test_spread_is_quartile_distance_over_median():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert abs(measure.spread(values) - (17.25 - 11.75) / 14.5) < 1e-12


# ---------------------------------------------------------------------------
# wall_s: best of each timeline piece
# ---------------------------------------------------------------------------


def test_fold_best_takes_each_piece_at_its_best():
    best = []
    for pieces in ([1, 5, 2], [4, 1, 3], [2, 2, 2]):
        best = measure.fold_best(best, pieces)
    # no single pass is as fast as 1 + 1 + 2
    assert best == [1, 1, 2]


def test_fold_best_gives_up_on_passes_cut_differently():
    assert measure.fold_best(measure.fold_best([], [1, 2]), [1, 2, 3]) is None
    assert measure.fold_best(None, [1, 2]) is None


def test_timeline_pieces_cover_the_pass_and_nested_calls():
    tl = workloads.Timeline()
    inner = tl.wrap(lambda x: x + 1)
    outer = tl.wrap(lambda x: inner(x) * 2)
    assert outer(1) == 4
    tl.mark()
    # start, outer in, inner in, inner out, outer out, end
    assert len(tl.marks) == 6 and len(tl.pieces()) == 5
    assert abs(sum(tl.pieces()) - tl.wall()) < 1e-12
    assert all(p >= 0 for p in tl.pieces())


# ---------------------------------------------------------------------------
# self time of nested spans
# ---------------------------------------------------------------------------


def _span(sid, parent, t0, t1, name="x"):
    return (sid, parent, 0, name, t0, t1, True)


def test_self_time_subtracts_children_once():
    got = spans.self_times([
        _span(0, -1, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),   # grandchild: only its parent loses it
        _span(3, 0, 3.0, 6.0),   # overlaps span 1: the overlap counts once
        _span(4, 0, 9.0, 12.0),  # runs past its parent: clipped at 10
    ])
    assert got == {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0}


def test_tracer_records_parents_and_operation():
    tracer = spans.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap(leaf, "leaf")
    outer = tracer.wrap(lambda x: traced_leaf(x) * 2, "outer")
    tracer.op = 7
    assert outer(1) == 4
    by_name = {s[3]: s for s in tracer.spans}
    assert by_name["leaf"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == -1
    assert {s[2] for s in tracer.spans} == {7}
    own = spans.self_times(tracer.spans)
    outer_span = by_name["outer"]
    assert own[outer_span[0]] <= outer_span[5] - outer_span[4]


def test_tracer_marks_raised_calls():
    tracer = spans.Tracer()

    def reject():
        raise ValueError("outside the validity domain")

    try:
        tracer.wrap(reject, "catalog.ctor")()
    except ValueError:
        pass
    assert tracer.spans[0][6] is False
    assert spans.layer_metrics(tracer, [])["catalog.ctor.rejected"] == 1


# ---------------------------------------------------------------------------
# residue scan
# ---------------------------------------------------------------------------


def test_residue_scan_matches_the_integer():
    x = 3 ** 40000 * 7 + 12345
    with workloads._Digits():
        text = str(x)
    assert ref.decimal_residues(text) == ref.int_residues(x)


def test_residue_scan_catches_a_planted_wrong_digit():
    with workloads._Digits():
        text = str(5 ** 30000)
    mid = len(text) // 2
    wrong = text[:mid] + str((int(text[mid]) + 1) % 10) + text[mid + 1:]
    assert ref.decimal_residues(wrong) != ref.decimal_residues(text)
    info = {"kind": "normal", "verb": "order", "fam": "PSL", "eps": "", "n": 2, "q": 7}
    assert workloads.check_host(info, 0, "168\n", "", "") is None
    assert workloads.check_host(info, 0, "178\n", "", "") == ("fail", "wrong order")


def test_order_residues_of_known_orders():
    known = {("PSL", 2, 7, ""): 168, ("PSU", 3, 3, ""): 6048,
             ("PSp", 4, 3, ""): 25920, ("POmega", 8, 2, "+"): 174182400,
             ("POmega", 8, 2, "-"): 197406720, ("POmega", 7, 3, ""): 4585351680,
             ("PSU", 4, 2, ""): 25920, ("PSL", 3, 4, ""): 20160}
    for (fam, n, q, eps), order in known.items():
        assert ref.order_residues(fam, n, q, eps) == ref.int_residues(order)


# ---------------------------------------------------------------------------
# failure accounting
# ---------------------------------------------------------------------------

PSL27 = {"kind": "normal", "verb": "subgroups", "fam": "PSL", "eps": "", "n": 2,
         "q": 7, "argv": ["subgroups", "PSL(2,7)", "--json"]}
NONE_TB = ("Traceback (most recent call last):\n"
           "AttributeError: 'NoneType' object has no attribute 'e'\n")
BOOM_TB = "Traceback (most recent call last):\nTypeError: boom\n"


def _row(h0, klass="S", type_="PSL2(7)", o1=1, bound="exact", lhs=168, host="PSL(2,7)"):
    rhs = h0 ** 3 * o1 ** 2
    g = math.gcd(rhs, lhs)
    large = rhs >= lhs
    mode = {"exact": "exact", "lower": "forced_large" if large else "bound_only"}[bound]
    return {"host": host, "class": klass, "type": type_, "name": "", "h0_order": h0,
            "o1_order": o1, "bound": bound, "formula": "f",
            "verdict": {"is_large": large, "lhs": lhs, "rhs": rhs,
                        "margin": f"{rhs // g}/{lhs // g}", "mode": mode}}


# the rows reference.required_types asks of PSL(2,7), and the C1 row
PSL27_ROWS = [_row(7, "C1", "parabolic P1", bound="lower"),
              _row(8, "C2", "GL(1,7) wr S2"), _row(6, "C3", "GL(1,7^2)")]


def test_required_rows_of_a_small_host():
    assert ref.required_types("PSL", 2, 7) == [("C2", "GL(1,7) wr S2"), ("C3", "GL(1,7^2)")]
    assert ref.sylow_exponent("PSL", 2) == 1


def test_duplicate_row_is_attributed():
    rows = PSL27_ROWS + [_row(21), _row(24)]
    assert workloads.check_host(PSL27, 0, json.dumps(rows), "", "") is None
    planted = json.dumps(rows + [rows[-1]])
    assert workloads.check_host(PSL27, 0, planted, "", "") == (
        "known", "item4.duplicate-table-rows")


def test_wrong_value_is_not_attributed_even_with_duplicates():
    bad = _row(24, lhs=169)
    verdict = workloads.check_host(PSL27, 0, json.dumps(PSL27_ROWS + [bad, bad]), "", "")
    assert verdict == ("fail", "lhs is not |G0|")


def test_dropped_rows_fail():
    empty = workloads.check_host(PSL27, 0, "[]", "", "")
    assert empty == ("fail", "no C1 row with |H0| divisible by q^N")
    no_c3 = workloads.check_host(PSL27, 0, json.dumps(PSL27_ROWS[:2]), "", "")
    assert no_c3 == ("fail", "required rows missing: [('C3', 'GL(1,7^2)')]")


def test_unresolved_or_ambiguous_selector_fails():
    info = dict(PSL27, verb="check", type="GL(1,7^2)",
                argv=["check", "PSL(2,7)", "--class", "C3", "--type", "GL(1,7^2)"])
    err = "error: no catalog entry matches the selector\n"
    assert workloads.check_host(info, 3, "", err, "") == ("fail", "exit 3")
    repeated = "error: ambiguous\n  candidate: C3: x\n  candidate: C3: x\n"
    assert workloads.check_host(info, 4, "", repeated, "") == ("fail", "exit 4")


def test_c1_check_needs_a_sylow_subgroup():
    info = dict(PSL27, verb="check", type=None,
                argv=["check", "PSL(2,7)", "--class", "C1"])
    good = json.dumps(PSL27_ROWS[0]["verdict"])
    assert workloads.check_host(info, 0, good, "", "") is None
    wrong = json.dumps(_row(6, "C1", bound="lower")["verdict"])
    assert workloads.check_host(info, 0, wrong, "", "") == (
        "fail", "C1 row's |H0|^3 is not divisible by q^3N")


def _explain(klass, type_, h0):
    rhs = h0 ** 3
    return (f"host           PSL(2,7)  (order 168)\nclass          {klass}\n"
            f"type           {type_}\nformula        f\n|H0|           {h0}  (exact)\n"
            f"|O1|           1\ncube test      |H0|^3 |O1|^2 = {rhs} vs |G0| = 168\n"
            f"verdict        {'large' if rhs >= 168 else 'not large'} (exact)\n")


def test_explain_must_show_the_selected_row():
    info = dict(PSL27, verb="explain", type="GL(1,7^2)",
                argv=["explain", "PSL(2,7)", "--class", "C3", "--type", "GL(1,7^2)"])
    assert workloads.check_host(info, 0, _explain("C3", "GL(1,7^2)", 6), "", "") is None
    assert workloads.check_host(info, 0, _explain("C2", "GL(1,7) wr S2", 8), "", "") == (
        "fail", "explained a row of another type")
    c1 = dict(info, type=None, argv=["explain", "PSL(2,7)", "--class", "C1"])
    assert workloads.check_host(c1, 0, _explain("C1", "parabolic P1", 7), "", "") is None
    assert workloads.check_host(c1, 0, _explain("C1", "parabolic P1", 6), "", "") == (
        "fail", "C1 row's |H0| is not divisible by q^N")


def test_table_selector_attribution():
    info = {"kind": "table", "simple": True, "verb": "check",
            "argv": ["check", "PSL(4,2)", "--type", "A7"]}
    err = "error: ambiguous\n  candidate: S: A7\n  candidate: S: A7\n"
    assert workloads.check_host(info, 4, "", err, "") == (
        "known", "item4.duplicate-table-rows")
    distinct = "error: ambiguous\n  candidate: S: A7\n  candidate: S: A8\n"
    assert workloads.check_host(info, 4, "", distinct, "") == (
        "fail", "ambiguous Table A/B selector")
    assert workloads.check_host(info, 3, "", "", "") == (
        "fail", "exit 3 on a Table A/B selector")


def test_planted_traceback():
    assert workloads.check_host(PSL27, None, "", "", BOOM_TB) == (
        "fail", "traceback: TypeError: boom")
    alt = {"kind": "non-classical", "fam": "Alt", "arg": 7, "verb": "out",
           "argv": ["out", "Alt(7)"]}
    assert workloads.check_host(alt, None, "", "", NONE_TB) == (
        "known", "item4.q-none-traceback")
    assert workloads.check_host(alt, None, "", "", BOOM_TB)[0] == "fail"
    order = dict(alt, verb="order", argv=["order", "Alt(7)"])
    assert workloads.check_host(order, None, "", "", NONE_TB)[0] == "fail"
    assert workloads.check_host(alt, 3, "", "error: unsupported\n", "") is None


def test_non_simple_attribution():
    # POmega(5,7) is PSp(4,7), of order 138297600
    info = {"kind": "non-simple", "canon": "PSp(4,7)",
            "argv": ["subgroups", "POmega(5,7)", "--json"]}
    lhs = 138297600
    as_named = [_row(7 ** 4, "C1", "subspace stabilizer", bound="lower", lhs=lhs,
                     host="POmega(5,7)")]
    assert workloads.check_host(info, 0, json.dumps(as_named), "", "") == (
        "known", "item4.non-simple-accepted")
    wrong = [_row(7 ** 4, "C1", bound="lower", lhs=lhs + 1, host="POmega(5,7)")]
    assert workloads.check_host(info, 0, json.dumps(wrong), "", "") == (
        "fail", "lhs is not |G0|")
    canonical = [dict(r, host="PSp(4,7)") for r in as_named]
    assert workloads.check_host(info, 0, json.dumps(canonical), "", "")[0] == "fail"
    assert workloads.check_host(info, 3, "", "", "") is None


def test_tally_counts_known_defects_apart_from_failures():
    t = Tally()
    t.add(["a"], 0, 10, None, True)
    t.add(["b"], 4, 0, ("known", "item4.duplicate-table-rows"), True)
    t.add(["c"], "traceback", 0, ("fail", "traceback: TypeError: boom"), True)
    t.add(["d"], "traceback", 0, ("known", "item4.q-none-traceback"), False)
    t.add(["e"], None, 0, None, True)  # no CLI call: no exit code counted
    assert (t.attempted, t.failed) == (5, 1)
    assert t.known == {"item4.duplicate-table-rows": 1, "item4.q-none-traceback": 1}
    assert t.examples == [[["c"], "traceback: TypeError: boom"]]
    assert t.exits == {"0": 1, "4": 1, "traceback": 1}
    assert t.output_bytes == 10 and t.traced_known == 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    assert workloads.host_batch(3) == workloads.host_batch(3)
    assert workloads.host_batch(3) != workloads.host_batch(4)


def test_moderate_hosts_are_simple_and_spread_over_the_range():
    for label in workloads.SIMPLE_FAMILIES:
        grid = workloads._moderate_hosts(label, 15)
        assert all(17 <= n <= 64 and workloads._simple(label, n, q) for n, q in grid)
        assert min(n for n, _ in grid) < 20 and max(n for n, _ in grid) > 60


def test_host_batch_keeps_every_boundary_probe():
    kinds = [info["kind"] for _, info in workloads.host_batch(1)]
    for kind, count in workloads.HOST_PROBES:
        assert kinds.count(kind) == count


# ---------------------------------------------------------------------------
# the metrics promised in BENCHMARK.json
# ---------------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    w = {"walls": [1.0, 1.2], "wall_best": 0.9, "lat": [[0.001] * 20, [0.002] * 20],
         "peak_rss_kb": 2048}
    e2e, _ = run.end_to_end(w, [0.1, 0.2, 0.3])
    assert e2e["wall_s"]["value"] == 0.9
    assert run.end_to_end(dict(w, wall_best=None), [0.1])[0]["wall_s"]["value"] == 1.0
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = per_layer(spans.Tracer(), Tally(), {False: [1.0], True: [1.5]})
    assert {k: run.unit_of(k) for k in layers} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
