"""Order formulas and group name handling."""

import pytest

from large_atlas import orders
from large_atlas.errors import DataIntegrityError, GroupParseError, UnsupportedGroup
from large_atlas.orders import (
    CIRC,
    MINUS,
    PLUS,
    alt_order,
    canonicalize,
    gl_order,
    gu_order,
    is_simple,
    omega_order,
    order,
    out_order,
    parse_group,
    pomega_order,
    psl_order,
    psp_order,
    psu_order,
    sl_order,
    sp_order,
    subgroup_name_order,
    sym_order,
    sz_order,
    tri_d4_order,
)

# classic hand-checkable orders
KNOWN = {
    "PSL(2,5)": 60,
    "PSL(2,7)": 168,
    "PSL(3,2)": 168,
    "PSL(2,9)": 360,
    "PSL(4,2)": 20160,
    "PSU(3,3)": 6048,
    "PSU(4,2)": 25920,
    "PSp(4,3)": 25920,
    "PSp(6,2)": 1451520,
    "POmega(7,3)": 4585351680,
    "POmega+(8,2)": 174182400,
    "POmega-(8,2)": 197406720,
    "Sz(8)": 29120,
    "G2(3)": 4245696,
    "3D4(2)": 211341312,
    "Alt(5)": 60,
    "Alt(8)": 20160,
    "Sym(6)": 720,
    "Sporadic(M11)": 7920,
    "Sporadic(J3)": 50232960,
}


@pytest.mark.parametrize("name,expected", sorted(KNOWN.items()))
def test_known_orders(name, expected):
    assert order(parse_group(name)) == expected


def test_gl_and_sl():
    assert gl_order(2, 3) == 48
    assert sl_order(2, 3) == 24
    assert gl_order(3, 2) == 168
    # |GL_n(q)| = |SL_n(q)| * (q - 1)
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5, 9):
            assert gl_order(n, q) == sl_order(n, q) * (q - 1)


def test_gu_and_sp():
    assert gu_order(2, 2) == 18
    assert gu_order(3, 2) == 648
    assert sp_order(2, 7) == sl_order(2, 7)
    assert sp_order(4, 2) == 720  # q^4 (q^2-1)(q^4-1) at q = 2


def test_omega_plus_minus():
    # |Omega_4^+(q)| = |SL_2(q)|^2 for odd q, times the center identification
    assert omega_order(4, PLUS, 3) == sl_order(2, 3) ** 2 // 2
    assert omega_order(6, MINUS, 2) == psu_order(4, 2)  # SU4(2) ~ Omega6-(2)
    assert omega_order(5, CIRC, 3) == sp_order(4, 3) // 2


def test_exceptional_coincidences():
    # the classical isomorphisms all line up as order identities
    assert psl_order(2, 4) == psl_order(2, 5) == alt_order(5)
    assert psl_order(2, 9) == alt_order(6)
    assert psl_order(4, 2) == alt_order(8)
    assert psu_order(4, 2) == psp_order(4, 3)
    assert pomega_order(6, PLUS, 3) == psl_order(4, 3)
    assert pomega_order(6, MINUS, 3) == psu_order(4, 3)
    assert sym_order(6) == 720


def test_suzuki_and_triality_formulas():
    assert sz_order(8) == 8 ** 2 * (8 ** 2 + 1) * (8 - 1)
    q = 3
    assert tri_d4_order(q) == q ** 12 * (q ** 8 + q ** 4 + 1) * (q ** 6 - 1) * (q ** 2 - 1)


def test_sporadic_orders():
    assert subgroup_name_order("M11") == 7920
    assert subgroup_name_order("J3") == 50232960


def test_sporadic_table_fails_its_checksum_on_first_use(monkeypatch):
    monkeypatch.setattr(orders, "_SPORADIC_SHA256", "0" * 64)
    orders._sporadic_orders.cache_clear()
    with pytest.raises(DataIntegrityError, match="checksum"):
        order(parse_group("Sporadic(J3)"))
    with pytest.raises(DataIntegrityError, match="checksum"):
        subgroup_name_order("J3")


def test_out_orders():
    assert out_order(parse_group("PSL(2,7)")) == 2
    assert out_order(parse_group("PSL(3,4)")) == 12  # d=3, graph 2, field 2
    assert out_order(parse_group("PSU(3,3)")) == 2
    assert out_order(parse_group("POmega+(8,2)")) == 6  # S3 on the three end nodes
    assert out_order(parse_group("PSp(4,3)")) == 2


def test_parse_group_round_trip():
    for name in KNOWN:
        g = parse_group(name)
        assert parse_group(str(g)) == g


@pytest.mark.parametrize("bad", ["PSL(2)", "Foo(3,4)", "", "PSL2,7",
                                 "POmega(6,3)", "POmega+(7,3)"])
def test_parse_group_rejects(bad):
    with pytest.raises(GroupParseError):
        parse_group(bad)


def test_bad_dimensions_rejected():
    with pytest.raises(UnsupportedGroup):
        order(parse_group("PSL(1,5)"))
    with pytest.raises(UnsupportedGroup):
        order(parse_group("PSp(3,3)"))


def test_is_simple():
    assert is_simple(parse_group("PSL(2,5)"))
    assert not is_simple(parse_group("PSL(2,2)"))
    assert not is_simple(parse_group("PSL(2,3)"))
    assert not is_simple(parse_group("PSU(3,2)"))


@pytest.mark.parametrize("name", ["PSp(5,3)", "PSp(3,4)", "PSp(7,2)", "PSp(9,5)"])
def test_odd_dimensional_symplectic_hosts_are_rejected(name):
    g = parse_group(name)
    assert not is_simple(g)
    with pytest.raises(UnsupportedGroup, match="even dimension"):
        out_order(g)
    with pytest.raises(UnsupportedGroup, match="even dimension"):
        order(g)


def test_canonicalize():
    assert str(canonicalize(parse_group("POmega+(6,3)"))) == "PSL(4,3)"
    assert str(canonicalize(parse_group("POmega-(6,3)"))) == "PSU(4,3)"


def test_subgroup_name_order():
    assert subgroup_name_order("A5") == 60
    assert subgroup_name_order("S4") == 24
    assert subgroup_name_order("PSL2(7)") == 168
    assert subgroup_name_order("Sp4(3)") == sp_order(4, 3)
