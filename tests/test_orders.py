"""Order formulas and group name handling."""

import hashlib
import time
from importlib import resources
from math import gcd
from types import SimpleNamespace

import pytest

from large_atlas import orders
from large_atlas.arith import parse_prime_power, prime_powers
from large_atlas.errors import DataIntegrityError, GroupParseError, UnsupportedGroup
from large_atlas.orders import (
    CIRC,
    FORM_FAMILIES,
    MINUS,
    PLUS,
    alt_order,
    canonicalize,
    gl_order,
    go_order,
    gu_order,
    is_simple,
    omega_order,
    order,
    order_bits,
    order_bits_floor,
    out_order,
    parse_group,
    pomega,
    pomega_center,
    pomega_order,
    psl_order,
    psp_order,
    psu_order,
    sl_order,
    so_order,
    sp_order,
    su_order,
    subgroup_name_order,
    sylow_exponent,
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


@pytest.mark.parametrize("n, eps, q, z", [
    (8, PLUS, 3, 2), (8, PLUS, 2, 1), (8, MINUS, 3, 1), (8, MINUS, 5, 1),
    (6, PLUS, 3, 1), (6, MINUS, 3, 2), (6, PLUS, 5, 2), (10, MINUS, 3, 2),
    (7, CIRC, 3, 1), (7, CIRC, 4, 1),
])
def test_pomega_center(n, eps, q, z):
    # |Z(Omega_2m^eps(q))| = gcd(4, q^m - eps) / gcd(2, q - 1); 1 for odd n
    assert pomega_center(n, eps, q) == z
    assert pomega_order(n, eps, q) * z == omega_order(n, eps, q)


def test_pomega_center_and_out_order_match_their_closed_forms():
    # both read gcd(4, q^m - s) from classical_form's d; here it is written
    # out, for every POmega host with n <= 24 and q <= 32
    checked = 0
    for n in range(3, 25):
        m = n // 2
        for q in prime_powers(2, 32):
            qi, e = int(q), q.e
            for eps in (PLUS, MINUS) if n % 2 == 0 else (CIRC,):
                if n % 2:
                    # over even q, |Out(PSp(n - 1, q))|
                    z, out = 1, 2 * e if q.p != 2 or n == 5 else e
                else:
                    d = gcd(4, qi ** m - (1 if eps == PLUS else -1))
                    z, out = d // gcd(2, qi - 1), (6 if (eps, m) == (PLUS, 4) else 2) * d * e
                assert pomega_center(n, eps, qi) == z, (n, eps, qi)
                assert out_order(pomega(n, q, eps)) == out, (n, eps, qi)
                checked += 1
    assert checked == 18 * (11 * 2 + 11)


def test_pomega_order_agrees_with_each_exceptional_isomorphism():
    # POmega(3), POmega-(4), POmega(5), POmega+-(6) and POmega(odd, even q)
    # against the linear, unitary and symplectic order formulas
    checked = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for n, eps in ((3, CIRC), (4, MINUS), (5, CIRC), (6, PLUS), (6, MINUS), (7, CIRC)):
            g = pomega(n, q, eps)
            canon = canonicalize(g)
            if canon != g:
                assert order(g) == order(canon), str(g)
                checked += 1
    assert checked >= 50


def _p_adic(x, p):
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def test_sylow_exponent_is_the_p_part_of_the_order():
    hosts = [parse_group(f"{fam}({q})") for fam in ("G2", "3D4") for q in (2, 3, 4, 5)]
    hosts += [parse_group(f"Sz({q})") for q in (8, 32)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 11):
            for fam in ("PSL", "SL", "GL", "PGL", "PSU", "SU", "GU", "PGU", "PSp", "Sp"):
                hosts.append(parse_group(f"{fam}({n},{q})"))
            for fam in ("POmega", "Omega", "SO", "GO"):
                for sign in (("",) if n % 2 else ("+", "-")):
                    hosts.append(parse_group(f"{fam}{sign}({n},{q})"))
    checked = 0
    for g in hosts:
        try:
            g_order = order(g)
        except UnsupportedGroup:
            continue  # Sp in odd dimension, SO(odd, even q), dimension too small
        want = g.q.e * sylow_exponent(g)
        got = _p_adic(g_order, g.q.p)
        if g.family in ("SO", "GO") and g.q.p == 2:
            assert got >= want, str(g)  # SO = 2 Omega adds a factor 2 here
        else:
            assert got == want, str(g)
        checked += 1
    assert checked > 800
    for name in ("Alt(7)", "Sym(5)", "Sporadic(M11)"):
        with pytest.raises(UnsupportedGroup):
            sylow_exponent(parse_group(name))


def test_order_bits_brackets_every_classical_order():
    # every family of classical_form at every dimension n <= 24 it admits,
    # over every prime power q <= 32, and two hosts of large dimension
    assert len(FORM_FAMILIES) == 14
    hosts = [parse_group("PSp(1024,3)"), parse_group("GL(200,2)")]
    for q in prime_powers(2, 32):
        for fam in FORM_FAMILIES:
            signs = ("", PLUS, MINUS) if orders.FAMILIES[fam][0] == "signed" else ("",)
            for n in range(25):
                for eps in signs:
                    hosts.append(orders.GroupId(fam, n, q, eps))
    checked = set()
    for g in hosts:
        try:
            g_order = order(g)
        except UnsupportedGroup:
            continue  # below the least dimension, odd Sp, SO(odd, even q), a wrong sign
        lo, hi = order_bits(g)
        assert 2 ** lo <= g_order < 2 ** hi, str(g)
        # the bracket's tail bound allows at most two runs
        assert len(orders.classical_form(g.family, g.n, int(g.q), g.eps)[1]) <= 2
        checked.add(g.family)
    assert checked == set(FORM_FAMILIES)


def test_order_bits_floor_never_exceeds_the_order():
    # on the families of classical_form the floor is the lower end of
    # order_bits; the others have a floor of their own
    hosts = [parse_group(f"{fam}({d})") for fam in ("Alt", "Sym") for d in range(1, 201)]
    hosts += [parse_group(f"{fam}({q})") for fam in ("G2", "3D4") for q in (2, 3, 4, 5)]
    hosts += [parse_group(f"Sz({q})") for q in (8, 32, 128)]
    hosts += [parse_group(f"Sporadic({name})") for name in ("M11", "J3")]
    for q in [int(q) for q in prime_powers(2, 16)]:
        for n in range(1, 13):
            for fam in ("PSL", "PSU", "PSp", "GL", "SL", "PGL", "GU", "SU", "PGU", "Sp"):
                hosts.append(parse_group(f"{fam}({n},{q})"))
            for fam in ("POmega", "SO", "GO", "Omega"):
                for sign in (("",) if n % 2 else ("+", "-")):
                    hosts.append(parse_group(f"{fam}{sign}({n},{q})"))
    checked = []
    for g in hosts:
        try:
            g_order = order(g)
        except UnsupportedGroup:
            continue  # Sp in odd dimension, SO(odd, even q), dimension too small
        b = order_bits_floor(g)
        assert 2 ** b <= g_order, str(g)
        if g.family in FORM_FAMILIES:
            assert b == order_bits(g)[0], str(g)
        checked.append(g.family)
    assert len(checked) > 2000
    assert set(checked) == set(orders.FAMILIES)


def test_out_order_of_a_large_orthogonal_host_reads_q_to_the_m_mod_4():
    t0 = time.perf_counter()
    assert out_order(pomega(2 * 10 ** 7, 3, PLUS)) == 8
    assert time.perf_counter() - t0 < 0.5


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


def _shipped_sporadic_table():
    return resources.files("large_atlas.data").joinpath("sporadic_orders.txt").read_bytes()


def test_sporadic_table_fails_its_checksum_on_changed_bytes(monkeypatch):
    # one order changed by one digit: the file parses, only its digest differs
    changed = _shipped_sporadic_table().replace(b"50232960", b"50232961")
    assert changed != _shipped_sporadic_table()

    class Data:
        def joinpath(self, name):
            assert name == "sporadic_orders.txt"
            return self

        def read_bytes(self):
            return changed

    monkeypatch.setattr(orders, "resources", SimpleNamespace(files=lambda package: Data()))
    orders._sporadic_orders.cache_clear()
    try:
        with pytest.raises(DataIntegrityError, match="checksum"):
            order(parse_group("Sporadic(J3)"))
    finally:
        orders._sporadic_orders.cache_clear()


def test_builtin_sha256_of_the_shipped_table_equals_hashlib():
    raw = _shipped_sporadic_table()
    assert orders._sha256_hex(raw) == hashlib.sha256(raw).hexdigest() == orders._SPORADIC_SHA256


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


def _group_in_dimension(family, n):
    """A group of `family` in dimension or degree n, over GF(8) where it has
    a field: the one odd power of 2 that Sz takes."""
    shape = orders.FAMILIES[family][0]
    if shape == "name":
        return orders.sporadic("J3")
    if shape == "degree":
        return orders.GroupId(family, n)
    q = orders.parse_prime_power(8)
    eps = (PLUS if n % 2 == 0 else CIRC) if shape == "signed" else ""
    return orders.GroupId(family, n if shape != "field" else 0, q, eps)


@pytest.mark.parametrize("family", sorted(orders.FAMILIES))
def test_every_family_has_a_least_dimension(family):
    least = orders.FAMILIES[family][1]
    if least:
        below = _group_in_dimension(family, least - 1)
        with pytest.raises(UnsupportedGroup, match=f"{family} needs dimension >= {least}"):
            order(below)
    # a degree of 0 is refused by Alt's and Sym's own check, d >= 1
    g = _group_in_dimension(family, max(least, 1))
    assert order(g) > 0


@pytest.mark.parametrize("formula, family, below, at", [
    (gl_order, "GL", (0, 2), (1, 2)),
    (sl_order, "SL", (0, 5), (1, 5)),
    (gu_order, "GU", (0, 5), (1, 5)),
    (su_order, "SU", (0, 5), (1, 5)),
    (sp_order, "Sp", (0, 3), (2, 3)),
    (so_order, "SO", (1, CIRC, 3), (2, PLUS, 3)),
    (go_order, "GO", (1, CIRC, 3), (2, PLUS, 3)),
    (omega_order, "Omega", (0, PLUS, 3), (2, PLUS, 3)),
])
def test_exported_formulas_refuse_n_below_their_least_dimension(formula, family, below, at):
    # called directly, each formula refuses what order refuses, with
    # order's message and the least dimension of FAMILIES
    least = orders.FAMILIES[family][1]
    assert below[0] < least == at[0]
    with pytest.raises(UnsupportedGroup) as exc:
        formula(*below)
    assert str(exc.value) == f"{family} needs dimension >= {least}, got {below[0]}"
    assert formula(*at) > 0


# one name of each shape, the signed one with and without its sign
SHAPE_NAMES = ["PSL(4,5)", "POmega+(8,3)", "SO(5,3)", "Alt(7)", "Sz(8)", "Sporadic(J3)"]


@pytest.mark.parametrize("name", SHAPE_NAMES)
def test_every_name_shape_round_trips(name):
    g = parse_group(name)
    assert str(g) == name and parse_group(str(g)) == g


def test_the_round_trips_cover_every_name_shape():
    shapes = {orders.FAMILIES[parse_group(name).family][0] for name in SHAPE_NAMES}
    assert shapes == {shape for shape, _, _ in orders.FAMILIES.values()}


def test_is_simple():
    assert is_simple(parse_group("PSL(2,5)"))
    assert not is_simple(parse_group("PSL(2,2)"))
    assert not is_simple(parse_group("PSL(2,3)"))
    assert not is_simple(parse_group("PSU(3,2)"))
    assert not is_simple(orders.psl(0, 5)) and not is_simple(orders.psl(1, 5))
    # both are PSL(2,5)
    assert is_simple(parse_group("PSU(2,5)")) and is_simple(parse_group("POmega(3,5)"))


def test_a_name_and_its_canonical_form_are_simple_together():
    bad = []
    for q in prime_powers(2, 64):
        for n in range(14):
            hosts = [orders.psl(n, q.q), orders.psu(n, q.q), orders.psp(n, q.q)]
            hosts += [pomega(n, q.q, eps) for eps in ((CIRC,) if n % 2 else (PLUS, MINUS))]
            bad += [str(g) for g in hosts if is_simple(g) != is_simple(canonicalize(g))]
    assert bad == []


def test_is_simple_decides_alternating_and_sporadic_groups():
    assert is_simple(parse_group("Alt(5)"))
    assert not is_simple(parse_group("Alt(4)"))
    assert is_simple(parse_group("Sporadic(J3)"))


@pytest.mark.parametrize("name", ["Sym(6)", "SL(2,5)", "GL(3,2)"])
def test_is_simple_refuses_a_family_it_does_not_decide(name):
    # neither answer is safe for these: GL(3,2) is simple, SL(2,5) is not
    with pytest.raises(UnsupportedGroup):
        is_simple(parse_group(name))


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


def _outcome(fn, args):
    try:
        return fn(*args)
    except UnsupportedGroup as exc:
        return type(exc)


def test_each_memoized_function_answers_as_its_body():
    memoized = (orders.psl, orders.psu, orders.psp, orders.pomega, orders._order_of,
                order_bits, out_order)
    assert orders.MEMOIZED == memoized
    orders.clear_memos()
    calls = []
    for q in (2, 3, 4, 5, 8, 9, 25, 27, 64, 1024):
        for n in range(1, 14):
            calls += [(orders.psl, (n, q)), (orders.psu, (n, q)), (orders.psp, (n, q)),
                      (orders.pomega, (n, q))]
            calls += [(orders.pomega, (n, q, eps)) for eps in (PLUS, MINUS, CIRC)]
            calls += [(orders._order_of, (fam, n, q, eps))
                      for fam in FORM_FAMILIES for eps in ("", PLUS, MINUS, CIRC)]
            hosts = [orders.GroupId(fam, n, parse_prime_power(q), eps)
                     for fam in FORM_FAMILIES for eps in ("", PLUS, MINUS)]
            calls += [(order_bits, (g,)) for g in hosts
                      if _outcome(order, (g,)) is not UnsupportedGroup]
            calls += [(out_order, (g,)) for g in hosts if g.family in orders.CLASSICAL]
    # the first round fills the memos, the second reads them
    for _ in range(2):
        for fn, args in calls:
            assert _outcome(fn, args) == _outcome(fn.__wrapped__, args), (fn.__name__, args)
    assert all(fn.cache_info().currsize > 0 for fn in memoized)
    orders.clear_memos()
    assert [fn.cache_info().currsize for fn in memoized] == [0] * len(memoized)
