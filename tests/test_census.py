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


if __name__ == "__main__":
    GOLDEN.write_text(render_census(), encoding="utf-8")
