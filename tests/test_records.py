"""The four immutable records: orders.GroupId, catalog.SubgroupEntry,
largeness.LargenessVerdict and bounds.BoundTriple.

Their refusals, their frozen fields and their repr are pinned here, so
that the records can change how they are built but not what they hold.
"""

import pytest

from large_atlas import catalog, orders
from large_atlas.arith import parse_prime_power
from large_atlas.bounds import sandwich
from large_atlas.catalog import SubgroupEntry
from large_atlas.errors import ConstraintViolation, UnsupportedGroup
from large_atlas.largeness import LOWER, is_large

PSL35 = "GroupId(family='PSL', n=3, q=PrimePower(p=5, e=1), eps='', name='')"

# each record with its field names, in order
RECORDS = {
    # orders.psl keeps a memo and would return one shared object
    "GroupId": (lambda: orders.GroupId("PSL", 3, parse_prime_power(5)),
                ("family", "n", "q", "eps", "name")),
    "SubgroupEntry": (lambda: catalog.c1_stabilizer(orders.psl(3, 5)),
                      ("host", "aschbacher_class", "type_descriptor", "params",
                       "h0_order", "o1_order", "bound", "name", "formula")),
    "LargenessVerdict": (lambda: is_large(60, 4),
                         ("h0_order", "o_order", "lhs", "rhs", "is_large", "mode")),
    "BoundTriple": (lambda: sandwich("psl-c3-r3", 5),
                    ("case", "lower", "upper", "threshold", "verdict")),
}


def test_group_id_refuses_an_unknown_family():
    with pytest.raises(UnsupportedGroup, match="unknown family 'Bogus'"):
        orders.GroupId("Bogus", 3, parse_prime_power(5))


@pytest.mark.parametrize("h0, o1", [(0, 1), (-6, 1), (6, 0), (6, -2)])
def test_a_row_below_one_is_refused(h0, o1):
    with pytest.raises(ConstraintViolation, match="bad entry numbers for T"):
        SubgroupEntry(orders.psl(3, 5), "C1", "T", (), h0, o1)


def test_a_row_of_one_is_kept():
    row = SubgroupEntry(orders.psl(3, 5), "C1", "T", (), 1, 1)
    assert (row.h0_order, row.o1_order, row.bound, row.name, row.formula) == (1, 1, "exact", "", "")


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_no_field_of_a_record_can_be_assigned(kind):
    build, fields = RECORDS[kind]
    record = build()
    assert type(record).__name__ == kind
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_a_record_hashes_and_compares_by_its_fields(kind):
    build, fields = RECORDS[kind]
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a).startswith(kind + "(" + fields[0] + "=")


def test_the_reprs_are_pinned():
    g = orders.psl(3, 5)
    assert repr(g) == PSL35
    assert str(g) == "PSL(3,5)"
    assert repr(catalog.c1_stabilizer(g)) == (
        f"SubgroupEntry(host={PSL35}, aschbacher_class='C1',"
        " type_descriptor='parabolic P1', params=(), h0_order=125, o1_order=1,"
        " bound='lower', name='', formula='sylow-p-lower')")
    assert repr(is_large(60, 4)) == (
        "LargenessVerdict(h0_order=4, o_order=1, lhs=60, rhs=64, is_large=True,"
        " mode='exact')")
    assert str(is_large(60, 4)) == "|G0| = 60 <= 64 = |H0|^3 |O|^2 (large, exact)"


def test_a_record_unpacks_and_equals_the_tuple_of_its_fields():
    g = orders.psl(3, 5)
    family, n, q, eps, name = g
    assert g == ("PSL", 3, parse_prime_power(5), "", "") and q.q == 5
    entry = catalog.c1_stabilizer(g)
    assert entry == (g, "C1", "parabolic P1", (), 125, 1, LOWER, "", "sylow-p-lower")
    assert is_large(60, 4) == (4, 1, 60, 64, True, "exact")
    case, lower, upper, threshold, verdict = sandwich("psl-c3-r3", 5)
    assert (case, verdict) == ("psl-c3-r3", "certainly_large") and lower < upper


def test_an_item_label_leaves_the_row_a_subgroup_entry():
    rows = catalog.sp4_graph_candidates(orders.psp(4, 4))
    assert all(type(r) is SubgroupEntry for r in rows)
    assert [dict(r.params)["item"] for r in rows] == ["i", "ii", "iii", "iv", "v"]
    # the label is added to the row's own parameters, not put in their place
    assert rows[4].params == (("q0", 2), ("r", 2), ("item", "v"))
    assert (rows[4].name, rows[4].h0_order) == ("Sp4(2)", 720)
