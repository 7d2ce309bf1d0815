"""Census golden: every `subgroups --json` row of the small simple hosts.

tests/census.golden holds one line per row that `subgroups HOST --json`
prints, for every simple host in canonical form with n <= 12 and q <= 16.
Each line also carries the row's formula id and its sorted parameters, read
from the catalog entry the JSON row was printed from, as `explain --json`
prints them.  A change to the catalog, the order formulas or the cube test
that moves a row shows up here as a line diff.  Over the same hosts, two
more tests check the class column of catalog.CONSTRUCTORS and that a class
selector gives exactly the filtered rows.  To rewrite the file after a deliberate
change:

    PYTHONPATH=src python tests/test_census.py
"""

import hashlib
import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from large_atlas import catalog, cli
from large_atlas.arith import prime_powers
from large_atlas.errors import ConstraintViolation
from large_atlas.orders import (CIRC, MINUS, PLUS, canonicalize, is_simple,
                                pomega, psl, psp, psu)

GOLDEN = pathlib.Path(__file__).with_name("census.golden")


def census_hosts(nmax=12, qmax=16):
    """The simple canonical hosts with n <= nmax and q <= qmax: the hosts
    `subgroups` accepts."""
    out = []
    for q in prime_powers(2, qmax):
        for n in range(2, nmax + 1):
            hosts = [psl(n, q), psu(n, q)]
            if n % 2 == 0:
                hosts.append(psp(n, q))
            hosts += [pomega(n, q, eps) for eps in ((CIRC,) if n % 2 else (PLUS, MINUS))]
            out += [g for g in hosts if canonicalize(g) == g and is_simple(g)]
    return out


def render_census():
    """One tab-separated line per row: host, class, type, name, formula,
    params (k=v, sorted, comma-separated; "-" for none), bound, o1, mode,
    is_large, and the first 12 hex digits of sha256 of |H0|."""
    lines = []
    for g in census_hosts():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["subgroups", str(g), "--json"])
        assert code == 0, str(g)
        rows = json.loads(buf.getvalue())
        entries = catalog.candidates(g)
        assert len(rows) == len(entries), str(g)
        for row, entry in zip(rows, entries):
            assert (row["type"], row["h0_order"]) == (entry.type_descriptor, entry.h0_order)
            params = ",".join(f"{k}={val}" for k, val in sorted(entry.params)) or "-"
            digest = hashlib.sha256(str(row["h0_order"]).encode()).hexdigest()[:12]
            v = row["verdict"]
            lines.append("\t".join([row["host"], row["class"], row["type"], row["name"],
                                    row["formula"], params, row["bound"],
                                    str(row["o1_order"]), v["mode"], str(v["is_large"]),
                                    digest]))
    return "".join(line + "\n" for line in lines)


def test_census_matches_golden():
    assert render_census() == GOLDEN.read_text(encoding="utf-8")


# every class a row can carry, a lowercase spelling, and a class no row has
CLASSES = [f"C{i}" for i in range(1, 9)] + ["A", "S", "c2", "C9"]


@pytest.fixture(scope="module")
def hosts():
    return census_hosts()


def test_a_class_selects_the_rows_of_that_class_in_order(hosts):
    # candidates(g, k) builds only class k's rows; the list must be the
    # one a filter of the whole catalog gives
    bad = []
    for g in hosts:
        rows = catalog.candidates(g)
        for k in CLASSES:
            want = [e for e in rows if e.aschbacher_class.lower() == k.lower()]
            if catalog.candidates(g, k) != want:
                bad.append((str(g), k))
    assert bad == []


def test_every_constructor_rows_its_listed_class(hosts):
    bad = set()
    for g in hosts:
        for klass, fn, arguments in catalog.CONSTRUCTORS[g.family]:
            for args in arguments(g):
                try:
                    e = fn(g, *args)
                except ConstraintViolation:
                    continue
                if type(e) is not catalog.SubgroupEntry or e.aschbacher_class != klass:
                    bad.add((fn.__name__, klass, repr(e)))
    assert bad == set()


def _equal_order_rows(g):
    """The rows of host g that share their class (A and S counted as one)
    and |H0| with another row, as (class, name) pairs, grouped."""
    groups = {}
    for e in catalog.candidates(g):
        klass = "A/S" if e.aschbacher_class in ("A", "S") else e.aschbacher_class
        groups.setdefault((klass, e.h0_order), []).append((klass, e.name or e.type_descriptor))
    return [rows for rows in groups.values() if len(rows) > 1]


# hosts on which two rows of one class have equal |H0| though the ATLAS
# counts one class of subgroups: each is a catalog defect, kept as a strict
# xfail below rather than edited out of the data
EQUAL_ORDER_DEFECTS = {"PSp(6,2)": [[("A/S", "PSU3(3).2"), ("A/S", "G2(2)")]]}


def test_no_host_lists_two_rows_of_one_class_with_equal_order():
    # two maximal subgroups of one class with equal order are rare (the two
    # A5 classes of A6 are one example); over the simple hosts with n <= 12
    # and q <= 32, every such pair must be a recorded defect
    found = {str(g): rows for g in census_hosts(12, 32) if (rows := _equal_order_rows(g))}
    assert found == EQUAL_ORDER_DEFECTS


@pytest.mark.xfail(strict=True, reason=(
    "table_b.txt lists both PSp(6,2) | PSU3(3).2 and PSp(6,q) | G2(q) at q even; "
    "G2(2) is isomorphic to U3(3):2 and the ATLAS has one class, so subgroups "
    "\"PSp(6,2)\" lists one subgroup twice (ROADMAP item 12)"))
def test_psp_6_2_lists_g2_2_once():
    assert _equal_order_rows(psp(6, 2)) == []


if __name__ == "__main__":
    GOLDEN.write_text(render_census(), encoding="utf-8")
