"""Subgroup catalog entries: orders, outer contributions, constraints."""

import argparse
import re
from collections import Counter
from math import gcd

import pytest

from large_atlas import catalog, cli
from large_atlas.arith import prime_powers
from large_atlas.errors import (ConstraintViolation, DataIntegrityError, UnknownCase,
                                UnsupportedGroup)
from large_atlas.largeness import is_large_h1
from large_atlas.orders import (CIRC, FAMILIES, MINUS, PLUS, GroupId, canonicalize, is_simple,
                                order, out_order, parse_group, pomega, psl, psp,
                                psp_order, psu)


def test_psl_c2_wreath_entry():
    # GL(1,5) wr S4 inside PSL(4,5): (q-1)^3 t! / d = 64 * 24 / 4
    e = catalog.psl_c2(psl(4, 5), 1, 4)
    assert e.type_descriptor == "GL(1,5) wr S4"
    assert e.h0_order == 384
    assert e.o1_order == 8
    assert e.aschbacher_class == "C2"
    v = is_large_h1(order(psl(4, 5)), e)
    assert v.rhs == 3623878656
    assert not v.is_large


def test_psl_c2_rejects_bad_split():
    with pytest.raises(ConstraintViolation):
        catalog.psl_c2(psl(4, 5), 1, 3)  # 4 != 1 * 3


def test_psl_c3_field_extension_entry():
    # GL(1,q^3).3 inside PSL(3,q)
    e = catalog.psl_c3(psl(3, 4), 1, 3)
    d = gcd(3, 4 - 1)
    assert e.h0_order == (4 ** 3 - 1) * 3 // (d * (4 - 1))
    assert e.aschbacher_class == "C3"


def test_psl_c5_subfield_entry():
    # PSL(2,2) inside PSL(2,8) has order 6
    e = catalog.psl_c5(psl(2, 8), 3)
    assert e.h0_order == 6
    with pytest.raises(ConstraintViolation):
        catalog.psl_c5(psl(2, 8), 2)  # 2 does not divide the field degree 3


def test_psl_c6_rows():
    row = catalog.psl_c6(psl(2, 5))
    assert (row.name, row.h0_order) == ("A4", 12)
    row = catalog.psl_c6(psl(2, 7))
    assert (row.name, row.h0_order) == ("S4", 24)


def test_psl_c6_needs_prime_field():
    with pytest.raises(ConstraintViolation):
        catalog.psl_c6(psl(2, 25))


def test_orthogonal_outer_contribution_never_counts_triality():
    # the eight-dimensional plus-type host has |Out| = 6 (or 24 for square q)
    # but the geometric families only ever see the degree-two part
    e = catalog.pso_c5(pomega(8, 27, PLUS), 3, PLUS)
    assert e.o1_order == 2 * gcd(4, 27 ** 4 - 1) * 3  # 2 d e with e = 3
    e = catalog.pso_c2_go_wr(pomega(8, 5, PLUS), 2, MINUS, 4)
    assert e.o1_order == 2 * gcd(4, 5 ** 4 - 1)


def test_go_wreath_constraints():
    with pytest.raises((ConstraintViolation, UnsupportedGroup)):
        catalog.pso_c2_go_wr(pomega(8, 5, PLUS), 3, MINUS, 4)  # 3 * 4 != 8


@pytest.mark.parametrize("make, args, why", [
    (catalog.psp_c3, (psp(6, 3), 3, 2), "needs even m"),
    (catalog.pso_c2_go_wr, (pomega(7, 3), 1, CIRC, 7), "blocks of dimension 1"),
])
def test_refusal_names_the_condition_that_failed(make, args, why):
    # an odd m over a prime degree, blocks of dimension 1 on an exact split
    with pytest.raises(ConstraintViolation, match=why):
        make(*args)


def test_o8_triality_candidates_are_labeled():
    items = catalog.o8_triality_candidates(pomega(8, 5, PLUS))
    labels = [dict(e.params)["item"] for e in items]
    assert labels == sorted(labels, key="i ii iii iv v vi vii viii ix x xi xii xiii".split().index)
    assert "ii" in labels and "viii" in labels and "xiii" in labels
    byl = {dict(e.params)["item"]: e for e in items}
    assert byl["ii"].type_descriptor == "G2(5)"
    assert byl["viii"].h0_order == 5408  # (2(q^2+1)/d)^2 * 2d * 2 at q = 5
    assert byl["xiii"].h0_order == 29120  # Sz(8), only at q = 5


def test_o8_triality_q2_has_no_odd_characteristic_rows():
    items = catalog.o8_triality_candidates(pomega(8, 2, PLUS))
    labels = {dict(e.params)["item"] for e in items}
    assert "iv" not in labels   # needs odd prime q
    assert "xii" not in labels  # needs odd q


@pytest.mark.parametrize("q, want", [
    (4, {"ix": ["GO+(8,2)", "GO-(8,2)"], "x": ["PSL3(4).3"], "xi": []}),
    (7, {"ix": [], "x": ["PSL3(7).3"], "xi": []}),
    (8, {"ix": ["GO+(8,2)"], "x": ["PSU3(8).3"], "xi": ["3D4(2)"]}),
    (9, {"ix": ["GO+(8,3)", "GO-(8,3)"], "x": [], "xi": []}),
    (27, {"ix": ["GO+(8,3)"], "x": [], "xi": ["3D4(3)"]}),
])
def test_o8_triality_subfield_and_twisted_items(q, want):
    rows = catalog.o8_triality_candidates(pomega(8, q, PLUS))
    got = {label: [e.type_descriptor for e in rows if dict(e.params)["item"] == label]
           for label in want}
    assert got == want
    g_order = order(pomega(8, q, PLUS))
    assert all(g_order % e.h0_order == 0 for e in rows if dict(e.params)["item"] in want)


@pytest.mark.parametrize("q, sz", [(4, False), (8, True), (16, False), (32, True)])
def test_sp4_graph_rows_are_labeled_in_list_order(q, sz):
    rows = catalog.sp4_graph_candidates(psp(4, q))
    assert [dict(e.params)["item"] for e in rows] == list(catalog.ROMAN[:len(rows)])
    assert (f"Sz({q})" in [e.name for e in rows]) == sz


def test_sp4_graph_candidates_need_even_q_at_least_4():
    with pytest.raises(UnsupportedGroup):
        catalog.sp4_graph_candidates(psp(4, 3))
    with pytest.raises(UnsupportedGroup):
        catalog.sp4_graph_candidates(psp(4, 2))
    assert catalog.sp4_graph_candidates(psp(4, 4))


def test_table_entries_match_host():
    rows = catalog.table_entries(parse_group("PSL(5,3)"))
    assert [(r.name, r.h0_order) for r in rows] == [("M11", 7920)]


def _every_row_built_at(q):
    """Every table row built at field size q: (table, (host, name, |H0|))."""
    built = []
    for which in ("A", "B"):
        for row in catalog.table_rows(which):
            try:
                got = row.instantiate(q)
            except (UnsupportedGroup, ConstraintViolation):
                continue
            if got is not None:
                built.append((which, got))
    return built


def test_table_entries_equal_building_every_row():
    # the plain route: build every row at the host's field size, then keep
    # the rows whose host is g0; over every shape a table row names and
    # every classical shape with n <= 12, non-canonical names included
    shapes = {(r.sample[0].family, r.sample[0].n, r.sample[0].eps)
              for which in ("A", "B") for r in catalog.table_rows(which)}
    for n in range(2, 13):
        shapes |= {("PSL", n, ""), ("PSU", n, "")}
        shapes |= {("PSp", n, "")} if n % 2 == 0 else set()
        shapes |= {("POmega", n, eps) for eps in ((CIRC,) if n % 2 else (PLUS, MINUS))}
    listed = 0
    for q in prime_powers(2, 64):
        built = _every_row_built_at(q)
        for fam, n, eps in sorted(shapes):
            g0 = GroupId(fam, n, q, eps)
            want = [(str(g0), "A" if which == "A" else "S", name, name, h0_order,
                     out_order(g0), f"table-{which.lower()}-row")
                    for which, (host, name, h0_order) in built if host == g0]
            got = [(str(e.host), e.aschbacher_class, e.type_descriptor, e.name,
                    e.h0_order, e.o1_order, e.formula) for e in catalog.table_entries(g0)]
            assert got == want, str(g0)
            listed += len(got)
    assert listed > 50
    for name, sub in (("POmega(9,2)", "A10"), ("POmega-(4,3)", "A5"), ("PSp(4,2)", "A5")):
        assert [e.name for e in catalog.table_entries(parse_group(name))] == [sub]


def test_table_rows_load_once():
    assert catalog.table_rows("A") is catalog.table_rows("A")
    with pytest.raises(UnknownCase):
        catalog.table_rows("C")


def test_every_table_row_divides_its_host_at_every_q_it_admits():
    # _load_table checks |H0| | |G0| at the sample only; a row is a family in
    # q, so check each member up to 64 (none fails up to 1024 either)
    built = [got for q in prime_powers(2, 64) for _, got in _every_row_built_at(q)]
    for g0, h0_name, h0_order in built:
        assert order(g0) % h0_order == 0, (str(g0), h0_name)
    assert len(built) > 1000


def _sample_q(row):
    """The field size a row's sample is pinned to, by the kind of the row."""
    if row.condition == "-":
        return parse_group(row.g0_pattern).q.q
    kinds = {"q:in:3,5,7": 3, "q:even": 4, "q:sz": 8}
    if row.condition in kinds:
        return kinds[row.condition]
    assert row.condition in ("q:any", "q:odd")
    return 9 if "q0^2" in row.g0_pattern else 27 if "q0^3" in row.g0_pattern else 3


def test_each_row_kind_takes_its_sample_at_a_fixed_field_size():
    seen = set()
    for which in ("A", "B"):
        for row in catalog.table_rows(which):
            want = _sample_q(row)
            assert row.sample[0].q.q == want, (row.g0_pattern, row.h0_pattern)
            assert row.sample == row.instantiate(want)
            seen.add(want)
    assert {3, 4, 8, 9, 27} <= seen


def _load(monkeypatch, tmp_path, text):
    """_load_table on a table file that holds text."""
    (tmp_path / "table_x.txt").write_text(text)
    monkeypatch.setattr(catalog, "resources", argparse.Namespace(files=lambda pkg: tmp_path))
    return catalog._load_table("table_x.txt", "X")


def test_a_row_no_probe_field_size_admits_is_refused(monkeypatch, tmp_path):
    # the probe passes over 3 to the first field size the row admits
    (row,) = _load(monkeypatch, tmp_path, "PSL(2,q) | A5 | q:in:9,11 | -\n")
    assert row.sample == (parse_group("PSL(2,9)"), "A5", 60)
    with pytest.raises(DataIntegrityError, match="sample field size rejected"):
        _load(monkeypatch, tmp_path, "PSL(2,q) | A5 | q:in:11,19 | -\n")


@pytest.mark.parametrize("line, why", [
    ("PSL(2,q) | A5 | q:any", "expected 4 fields"),
    ("PXL(2,q) | A5 | q:any | -", "PXL"),
    ("PSL(2,q) | Foo7 | q:any | -", "Foo7"),
    ("PSL(2,q) | A7 | q:any | -", r"\|A7\| does not divide \|PSL\(2,3\)\|"),
    ("PSL(2,q) | A5 | q:prime | -", "bad condition 'q:prime'"),
    ("PSL(2,q) | A5 | q:in:x | -", "bad condition 'q:in:x'"),
])
def test_every_refused_row_names_its_file_and_line(monkeypatch, tmp_path, line, why):
    with pytest.raises(DataIntegrityError, match=rf"^table_x\.txt:1: .*{why}"):
        _load(monkeypatch, tmp_path, line + "\n")


def test_candidates_cover_expected_classes():
    got = {e.aschbacher_class for e in catalog.candidates(parse_group("PSL(2,7)"))}
    assert got == {"C1", "C2", "C3", "C6"}


def test_constructors_row_the_host_they_are_given():
    # candidates passes g0 as it is, and no constructor builds its own host
    for name in ("PSL(6,4)", "PSU(6,5)", "PSp(8,9)", "POmega+(8,3)", "POmega-(10,4)",
                 "POmega(9,3)"):
        g = parse_group(name)
        rows = catalog.candidates(g)
        assert rows and all(e.host is g for e in rows), name
    for g, pool in ((pomega(8, 9, PLUS), "o8"), (psp(4, 8), "sp4")):
        assert all(e.host is g for e in catalog.EXCEPTIONAL[pool](g))


def test_plus_type_constructors_reject_other_hosts():
    for g in (pomega(8, 3, MINUS), pomega(16, 3, MINUS), pomega(9, 3)):
        with pytest.raises(ConstraintViolation):
            catalog.pso_c6(g)
        with pytest.raises(ConstraintViolation):
            catalog.pso_c4(g)
    assert catalog.pso_c6(pomega(8, 3, PLUS)).host == pomega(8, 3, PLUS)


def test_exceptional_pools_by_name():
    assert catalog.EXCEPTIONAL["o8"](parse_group("POmega+(8,3)"))
    with pytest.raises(UnsupportedGroup):
        catalog.EXCEPTIONAL["o8"](parse_group("PSL(3,3)"))


def test_the_constructor_table_is_the_whole_catalog():
    # a constructor that no host tries would never reach candidates
    defined = {attr for attr, fn in vars(catalog).items()
               if attr.startswith(("psl_", "psu_", "psp_", "pso_"))
               and getattr(fn, "__module__", None) == catalog.__name__}
    listed = {fn.__name__ for rows in catalog.CONSTRUCTORS.values() for _, fn, _ in rows}
    assert listed == defined | {"c1_stabilizer"}
    assert set(catalog.CONSTRUCTORS) == {"PSL", "PSU", "PSp", "POmega"}
    assert all(rows[0][:2] == ("C1", catalog.c1_stabilizer)
               for rows in catalog.CONSTRUCTORS.values())
    # one pool per choice of the --exceptional flag
    verbs = next(a.choices for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    flag, = (a for a in verbs["subgroups"]._actions if a.dest == "exceptional")
    assert set(catalog.EXCEPTIONAL) == set(flag.choices)
    with pytest.raises(UnsupportedGroup, match="no catalog for family Alt"):
        catalog.candidates(parse_group("Alt(7)"))


def _hosts_from_least_dimension(nmax=24, qmax=32):
    """Every host of the four families with least dimension <= n <= nmax
    and q <= qmax, simple or not, canonical or not; PSp in even n only."""
    for q in prime_powers(2, qmax):
        for fam in catalog.CONSTRUCTORS:
            for n in range(FAMILIES[fam][1], nmax + 1):
                if fam == "PSp" and n % 2:
                    continue
                for eps in catalog.signs(n) if fam == "POmega" else ("",):
                    yield GroupId(fam, n, q, eps)


def test_every_constructor_call_returns_one_row_or_raises_constraint_violation():
    # any other exception propagates and fails the test
    bad = set()
    calls = 0
    for g in _hosts_from_least_dimension():
        for klass, fn, arguments in catalog.CONSTRUCTORS[g.family]:
            for args in arguments(g):
                calls += 1
                try:
                    e = fn(g, *args)
                except ConstraintViolation:
                    continue
                if type(e) is not catalog.SubgroupEntry or e.aschbacher_class != klass:
                    bad.add((fn.__name__, str(g), args))
    assert bad == set()
    assert calls > 20000


def test_c4_generators_offer_only_shapes_their_constructors_accept():
    # psl_c4 and psu_c4 take n1 < n2 with n1 >= 2, psp_c4 n1 even with
    # n2 >= 3; psp_c4 also refuses even q, a field condition, so PSp is
    # checked at odd q only
    offered = Counter()
    for fam, make, step in (("PSL", psl, 1), ("PSU", psu, 1), ("PSp", psp, 2)):
        (fn, arguments), = [(fn, a) for klass, fn, a in catalog.CONSTRUCTORS[fam] if klass == "C4"]
        for q in prime_powers(2, 64):
            if fam == "PSp" and q.p == 2:
                continue
            for n in range(2, 41, step):
                g = make(n, q.q)
                if not is_simple(g) or canonicalize(g) != g:
                    continue
                for args in arguments(g):
                    fn(g, *args)  # a refusal raises ConstraintViolation
                    offered[fam] += 1
    assert offered == {"PSL": 999, "PSU": 999, "PSp": 1113}


@pytest.mark.parametrize("name", ["PSL(1,4)", "PSU(1,4)", "PSp(5,3)", "POmega(1,9)",
                                  "POmega+(2,7)", "POmega-(2,7)"])
@pytest.mark.parametrize("klass", [None, "C1", "A"])
def test_candidates_refuse_a_host_that_out_order_refuses(name, klass):
    g = parse_group(name)
    with pytest.raises(UnsupportedGroup):
        out_order(g)
    with pytest.raises(UnsupportedGroup):
        catalog.candidates(g, klass)


def test_collection_a_host_map():
    assert str(catalog.collection_a_host(10, 2)) == "PSp(8,2)"
    assert str(catalog.collection_a_host(16, 2)) == "POmega+(14,2)"
    assert str(catalog.collection_a_host(12, 2)) == "POmega-(10,2)"
    with pytest.raises(ConstraintViolation):
        catalog.collection_a_host(4, 2)


def _a0_rule_holds(cond, d, p):
    """Whether the condition a tables A0 rule states holds at (d, p)."""
    if cond == "p divides d":
        return d % p == 0
    if cond == "p does not divide d":
        return d % p != 0
    residues, modulus = re.fullmatch(r"d = (.+) mod (\d+)", cond).groups()
    return d % int(modulus) in {int(r) for r in residues.split(" or ")}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tables_a0_rules_state_the_permutation_module_host_map(p):
    # tables A0 prints the host map as text (cli._A0_RULES), and
    # collection_a_host states it as code: at every (d, p), the one rule
    # whose condition holds names the host's family, its dimension and,
    # for p = 2, its sign
    family = {"Sp": "PSp", "POmega": "POmega"}
    for d in range(5, 41):
        hosts = [host for cond, rule_p, host in cli._A0_RULES
                 if rule_p == ("2" if p == 2 else "odd") and _a0_rule_holds(cond, d, p)]
        assert len(hosts) == 1, (d, p, hosts)
        name, sign, k = re.match(r"(Sp|POmega)([+-]?)\(d-([12]), ", hosts[0]).groups()
        g = catalog.collection_a_host(d, p)
        assert (family[name], d - int(k)) == (g.family, g.n), (d, p, hosts[0])
        if p == 2:
            assert sign == g.eps, (d, hosts[0])


@pytest.mark.parametrize("row", catalog.table_rows("A"),
                         ids=lambda r: f"{r.g0_pattern} {r.h0_pattern}")
def test_table_a_hosts_are_the_permutation_module_hosts(row):
    # the typed-in host of each Table A row against the host map of A_d on
    # its fully deleted permutation module; both sides canonicalized, since
    # the map gives POmega-(4,3) where PSL(2,9) is meant, and the table
    # writes POmega(9,2) for PSp(8,2)
    host, name, _ = row.sample
    d, p = int(name[1:]), host.q.p
    assert canonicalize(host) == canonicalize(catalog.collection_a_host(d, p))


def _simple_hosts(qs, nmax):
    for q in [int(q) for q in qs]:
        for n in range(2, nmax + 1):
            hosts = [psl(n, q), psu(n, q)]
            if n % 2 == 0:
                hosts.append(psp(n, q))
            hosts += [pomega(n, q, eps) for eps in ((CIRC,) if n % 2 else (PLUS, MINUS))]
            yield from (g for g in hosts if is_simple(g))


def test_every_row_names_its_host_and_exact_rows_divide():
    # every row is built once, and only an upper bound may fail to divide;
    # the orthogonal hosts over GF(32) add C5 rows of subfield index 5
    hosts = list(_simple_hosts(prime_powers(2, 16), 10))
    hosts += [g for g in _simple_hosts([32], 10) if g.family == "POmega"]
    bad = []
    for g in hosts:
        g_order, g_out = order(g), out_order(g)
        rows = catalog.candidates(g)
        keys = [(e.aschbacher_class, e.type_descriptor, e.params) for e in rows]
        if len(set(keys)) < len(keys):
            bad.append((str(g), "repeats a row"))
        for e in rows:
            if e.host != g:
                bad.append((str(g), "names host", str(e.host), e.type_descriptor))
            elif e.bound != catalog.UPPER and g_order % e.h0_order:
                bad.append((str(g), "does not divide", e.type_descriptor))
            elif g_out % e.o1_order:
                bad.append((str(g), "o1 does not divide |Out|", e.type_descriptor))
    assert bad == []


def test_every_row_lists_its_params_in_key_order_and_plain_int_orders():
    # constructors build their SubgroupEntry directly, so each must write its
    # params in key order and hand over |H0| and |O1| as ints; a pool row
    # appends its item label after them
    rows = [e for g in _simple_hosts(prime_powers(2, 32), 12) for e in catalog.candidates(g)]
    pooled = [e for q in (4, 8, 16, 32, 64) for e in catalog.sp4_graph_candidates(psp(4, q))]
    pooled += [e for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 64)
               for e in catalog.o8_triality_candidates(pomega(8, q, PLUS))]
    bad = []
    for e, pool_row in [(e, False) for e in rows] + [(e, True) for e in pooled]:
        params = e.params
        if pool_row:
            if params[-1][0] != "item":
                bad.append((str(e.host), e.type_descriptor, "no item label"))
            params = params[:-1]
        keys = [k for k, _ in params]
        if type(params) is not tuple or keys != sorted(set(keys)):
            bad.append((str(e.host), e.type_descriptor, keys))
        if type(e.h0_order) is not int or type(e.o1_order) is not int:
            bad.append((str(e.host), e.type_descriptor, "orders not int"))
    assert bad == []
    assert sum(bool(e.params) for e in rows) > 1000


@pytest.mark.parametrize("name, degrees", [
    ("PSL(3,2048)", {11}), ("PSU(3,2048)", {11}), ("PSp(4,2048)", {11}),
    ("POmega+(8,32)", {5}), ("POmega(9,243)", {5}),
    ("PSL(3,64)", {2, 3}), ("PSU(3,1024)", {5}),  # unitary C5 needs odd r
])
def test_c5_rows_take_every_prime_degree_of_the_field(name, degrees):
    rows = [e for e in catalog.candidates(parse_group(name)) if e.aschbacher_class == "C5"]
    assert {dict(e.params)["r"] for e in rows if "r" in dict(e.params)} == degrees


def test_pso_c6_only_on_plus_type_hosts():
    minus = [e for e in catalog.candidates(pomega(8, 3, MINUS))
             if e.aschbacher_class == "C6"]
    plus = [e for e in catalog.candidates(pomega(8, 3, PLUS))
            if e.aschbacher_class == "C6"]
    assert minus == [] and len(plus) == 1


def test_pso_c4_odd_rows_divide_and_need_odd_q():
    for q in (3, 5, 7, 9):
        for n in range(8, 41, 4):
            e = catalog.pso_c4(pomega(n, q, PLUS))
            assert (e.formula, e.bound) == ("pso-c4-odd", catalog.EXACT), (q, n)
            assert order(e.host) % e.h0_order == 0, (q, n)
            # the lower bound |PSp_2(q) x PSp_{n/2}(q)| divides the exact order
            assert e.h0_order % (psp_order(2, q) * psp_order(n // 2, q)) == 0, (q, n)
    # at even q the row is only the lower bound
    e = catalog.pso_c4(pomega(16, 4, PLUS))
    assert (e.formula, e.bound) == ("pso-c4-lower", catalog.LOWER)
