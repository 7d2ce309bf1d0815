"""Exact orders of finite classical groups and their relatives.

The module knows the classical families (linear, unitary, symplectic,
orthogonal) in their quasisimple, adjoint and projective variants, the
alternating/symmetric groups, the handful of exceptional families needed by
the tables (Sz, G2, triality D4), and a small checked-in list of fixed group
orders.  Everything is exact integer arithmetic.

The table FAMILIES holds each family's name shape, least dimension and
order formula: `order` looks a group up there, `GroupId.__str__` and
`parse_group` read the shape, and `out_order` the least dimension.  The
orders of the fourteen classical families have one factored form,
`classical_form`: the exported formulas evaluate it, `sylow_exponent`
reads its exponent N, and `order_bits` brackets the bit length of the
order from it without building the order.  `order_bits_floor` is the one
floor on the bit length of an order, for every family.

Seven pure functions, listed in MEMOIZED, keep a memo of their results
(functools.cache); clear_memos empties them all, and the command line
does so at the end of every command.
"""

import re
from collections import namedtuple
from functools import cache
from importlib import resources
from math import factorial, gcd

from .arith import PrimePower, parse_prime_power
from .errors import DataIntegrityError, GroupParseError, UnsupportedGroup

# epsilon markers for orthogonal groups
PLUS = "+"
MINUS = "-"
CIRC = "o"

# the simple classical families: the hosts with an |Out| formula and a catalog
CLASSICAL = ("PSL", "PSU", "PSp", "POmega")

_SPORADIC_SHA256 = "3c8d1b241ad9e43ca67360240bbb6deb9c8971ad56c1c54610217f33e55b7b39"


def _sha256_hex(data):
    """The SHA-256 hex digest of `data`, from CPython's built-in hash
    module (`_sha2` from 3.12, `_sha256` before) where it exists: the
    digest is the same, and unlike hashlib it does not load OpenSSL."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


@cache
def _sporadic_orders():
    """The fixed group orders of data/sporadic_orders.txt, by name.

    Read and checked against _SPORADIC_SHA256 on first use, not at import,
    since most calls never look up a fixed order.  The digest comes from
    the built-in SHA-256 (`_sha256_hex`), not hashlib, so that no verb loads
    OpenSSL.
    """
    raw = resources.files("large_atlas.data").joinpath("sporadic_orders.txt").read_bytes()
    if _sha256_hex(raw) != _SPORADIC_SHA256:
        raise DataIntegrityError("sporadic_orders.txt failed its checksum")
    table = {}
    for line in raw.decode().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, value = line.split()
        table[name] = int(value)
    return table


class GroupId(namedtuple("GroupId", "family n q eps name")):
    """Identifier of a group in one of the supported families: its family
    (str), n (int), q (PrimePower), eps (str) and name (str).  An immutable
    named tuple; it refuses a family that FAMILIES does not know."""

    __slots__ = ()

    def __new__(cls, family, n=0, q=None, eps="", name=""):
        if family not in FAMILIES:
            raise UnsupportedGroup(f"unknown family {family!r}")
        return tuple.__new__(cls, (family, n, q, eps, name))

    def __str__(self):
        shape = FAMILIES[self.family][0]
        if shape == "name":
            return f"{self.family}({self.name})"
        if shape == "degree":
            return f"{self.family}({self.n})"
        if shape == "field":
            return f"{self.family}({self.q})"
        if shape == "signed" and self.eps in (PLUS, MINUS):
            return f"{self.family}{self.eps}({self.n},{self.q})"
        return f"{self.family}({self.n},{self.q})"


@cache
def psl(n, q):
    return GroupId("PSL", n, parse_prime_power(q))


@cache
def psu(n, q):
    return GroupId("PSU", n, parse_prime_power(q))


@cache
def psp(n, q):
    return GroupId("PSp", n, parse_prime_power(q))


@cache
def pomega(n, q, eps=None):
    q = parse_prime_power(q)
    if eps is None:
        eps = CIRC if n % 2 else PLUS
    if n % 2 and eps != CIRC:
        raise UnsupportedGroup(f"POmega({n},{q}): odd dimension takes no sign")
    if n % 2 == 0 and eps not in (PLUS, MINUS):
        raise UnsupportedGroup(f"POmega({n},{q}): even dimension needs a sign")
    return GroupId("POmega", n, q, eps)


def sporadic(name):
    return GroupId("Sporadic", name=name)


# ---------------------------------------------------------------------------
# the classical orders as one factored form
# ---------------------------------------------------------------------------


def classical_form(fam, n, q, eps=""):
    """The order of the classical group fam_n(q) as (N, runs, c, d), with

        |G| = c * q^N * prod over the runs (start, stop, step, s) of
              prod_{i in range(start, stop, step)} (q^i - s)  /  d

    (Kleidman-Liebeck, section 2.1).  s is 1 or -1, q^N is the order of a
    Sylow p-subgroup, and there are at most two runs, so the form's size
    does not grow with n.  q is an int: a power of p is even exactly when
    p = 2.  Refuses n below the family's least dimension in FAMILIES,
    odd-dimensional Sp, SO and GO in odd dimension over even q, and an eps
    that does not fit the dimension (the orthogonal families).
    """
    _check_dim(fam, n)
    m = n // 2
    g2 = 1 + q % 2  # gcd(2, q - 1)
    if fam in ("GL", "SL", "PGL", "PSL"):
        # SL and PGL drop the factor q - 1 of GL
        d = gcd(n, q - 1) if fam == "PSL" else 1
        return n * (n - 1) // 2, ((1 if fam == "GL" else 2, n + 1, 1, 1),), 1, d
    if fam in ("GU", "SU", "PGU", "PSU"):
        # the factors q^i - (-1)^i, odd i apart from even i; SU and PGU
        # drop the factor q + 1 of GU
        d = gcd(n, q + 1) if fam == "PSU" else 1
        return (n * (n - 1) // 2,
                ((1 if fam == "GU" else 3, n + 1, 2, -1), (2, n + 1, 2, 1)), 1, d)
    if fam in ("Sp", "PSp"):
        if n % 2:
            raise UnsupportedGroup(f"Sp_{n} needs even dimension")
        return m * m, ((2, n + 1, 2, 1),), 1, g2 if fam == "PSp" else 1
    if fam not in ("Omega", "SO", "GO", "POmega"):
        raise UnsupportedGroup(f"{fam} has no classical order form")
    if n % 2:
        # Omega_{2m+1}(q) = Sp_2m(q) / (2, q - 1), SO = 2 Omega (odd q), GO = 2 SO
        if q % 2 == 0 and fam in ("SO", "GO"):
            raise UnsupportedGroup("SO in odd dimension needs odd q")
        if eps not in ("", CIRC):
            raise UnsupportedGroup("odd-dimensional orthogonal group takes no sign")
        if fam in ("Omega", "POmega"):
            return m * m, ((2, n, 2, 1),), 1, g2
        return m * m, ((2, n, 2, 1),), 2 if fam == "GO" else 1, 1
    if eps not in (PLUS, MINUS):
        raise UnsupportedGroup("even-dimensional orthogonal group needs a sign")
    # |Omega_2m^eps(q)| = q^(m(m-1)) (q^m - s) prod_{i<m} (q^2i - 1) / (2, q - 1),
    # SO = 2 Omega, GO = (2, q - 1) SO, POmega = Omega / pomega_center
    s = 1 if eps == PLUS else -1
    runs = ((2, n - 1, 2, 1), (m, m + 1, 1, s))
    if fam == "POmega":
        return m * (m - 1), runs, 1, gcd(4, pow(q, m, 4) - s)
    if fam == "Omega":
        return m * (m - 1), runs, 1, g2
    return m * (m - 1), runs, 2 // g2 if fam == "SO" else 2, 1


@cache
def _order_of(fam, n, q, eps=""):
    """|fam_n(q)| from classical_form: the one place that multiplies the
    factors of a classical order.  Each run's q^i is a running power, one
    multiplication by q^step per factor."""
    q = int(q)
    N, runs, c, d = classical_form(fam, n, q, eps)
    total = c * q ** N
    for start, stop, step, s in runs:
        qi, qstep = q ** start, q ** step
        for _ in range(start, stop, step):
            total *= qi - s
            qi *= qstep
    return total // d


def _form_order(g):
    return _order_of(g.family, g.n, g.q.q, g.eps)


@cache
def order_bits(g):
    """(lo, hi) with 2^lo <= |g| < 2^hi for a group g of a family of
    FORM_FAMILIES, in integers alone and without building |g|.

    Write |g| = (c/d) q^D prod (1 - s q^-i) over the factors q^i - s of
    classical_form, D = N + the sum of their i, and bracket sixteen times
    the base-2 logarithm of each part:
    - q^D: a/16 <= log2 q < (a+1)/16 with a = bitlen(q^16) - 1, and
      log2 q = a/16 when q is a power of 2;
    - the factors with i <= k are multiplied into c exactly, k the least
      with (bitlen(q) - 1)(k + 1) >= 8, so that q^(k+1) >= 2^8; an integer
      x has h - 1 <= 16 log2 x < h with h = bitlen(x^16), and so has d;
    - the other factors of a run have q^i >= 2^8, so their sum of q^-i is
      at most 2^-7, and over at most two runs their product lies strictly
      within a factor 2^(1/16) of 1.
    The sum of the i of a run is read off its ends, so the cost does not
    grow with n.
    """
    q = g.q.q
    N, runs, c, d = classical_form(g.family, g.n, q, g.eps)
    k = 7 // (q.bit_length() - 1)
    e, head = N, c
    for i, stop, step, s in runs:
        count = (stop - i + step - 1) // step
        e += count * (2 * i + (count - 1) * step) // 2
        while i <= k and i < stop:
            head *= q ** i - s
            e -= i
            i += step
    a = (q ** 16).bit_length() - 1
    h = (head ** 16).bit_length() - (d ** 16).bit_length()
    lo = (e * a + h - 2) // 16
    return lo if lo > 0 else 0, -((e * (a + (q & (q - 1) != 0)) + h + 2) // -16)


def order_bits_floor(g):
    """An integer b with 2^b <= |g|, for a group g of any family, without
    building |g|: the lower end of order_bits for the families of
    FORM_FAMILIES.  Alt(d) and Sym(d) have order at least floor(d/3)^d, a
    group of Sz, G2 or 3D4 holds a Sylow p-subgroup of order q^N, with
    q >= 2^(a-1) for a the bit length of q, and a sporadic group has order
    at least 2^0."""
    fam = g.family
    if fam in FORM_FAMILIES:
        return order_bits(g)[0]
    if fam in ("Alt", "Sym"):
        return g.n * max((g.n // 3).bit_length() - 1, 0)
    if fam == "Sporadic":
        return 0
    return sylow_exponent(g) * (g.q.q.bit_length() - 1)


def gl_order(n, q):
    return _order_of("GL", n, q)


def sl_order(n, q):
    return _order_of("SL", n, q)


def gu_order(n, q):
    return _order_of("GU", n, q)


def su_order(n, q):
    return _order_of("SU", n, q)


def sp_order(n, q):
    return _order_of("Sp", n, q)


def omega_order(n, eps, q):
    return _order_of("Omega", n, q, eps)


def so_order(n, eps, q):
    return _order_of("SO", n, q, eps)


def go_order(n, eps, q):
    return _order_of("GO", n, q, eps)


def psl_order(n, q):
    return _order_of("PSL", n, q)


def psu_order(n, q):
    return _order_of("PSU", n, q)


def psp_order(n, q):
    return _order_of("PSp", n, q)


def pomega_order(n, eps, q):
    return _order_of("POmega", n, q, eps)


def pomega_center(n, eps, q):
    """|Omega_n^eps(q) : POmega_n^eps(q)|, the order of the center of Omega:
    the two orders share classical_form's N, runs and c, so it is the
    quotient of their d, gcd(4, q^m - s) / gcd(2, q - 1) for n = 2m, where
    s = 1 for eps = + and -1 for eps = -, and 1 for odd n."""
    q = int(q)
    return classical_form("POmega", n, q, eps)[3] // classical_form("Omega", n, q, eps)[3]


def sylow_exponent(g):
    """The number N of positive roots of the group of Lie type g over GF(q):
    q^N is the order of a Sylow p-subgroup of g, p the characteristic, and
    the same for every isogeny type of one family.  For the classical
    families it is the N of classical_form.  (SO and GO in characteristic
    2 are the exception: their index-2 part over Omega adds a factor 2, so
    there q^N only divides the order.)"""
    fam = g.family
    if fam in ("Sz", "G2", "3D4"):
        return {"Sz": 2, "G2": 6, "3D4": 12}[fam]
    if fam not in FORM_FAMILIES:
        raise UnsupportedGroup(f"{g} is not a group of Lie type")
    return classical_form(fam, g.n, g.q.q, g.eps)[0]


def sz_order(q):
    """|Sz(q)| = q^2 (q^2 + 1)(q - 1), q = 2^(2k+1) >= 8."""
    qq = parse_prime_power(q)
    if qq.p != 2 or qq.e % 2 == 0 or qq.e < 3:
        raise UnsupportedGroup(f"Sz({qq}) is only defined for q = 2^(2k+1) >= 8")
    q = qq.q
    return q * q * (q * q + 1) * (q - 1)


def g2_order(q):
    """|G2(q)| = q^6 (q^6 - 1)(q^2 - 1)."""
    q = parse_prime_power(q).q
    return q ** 6 * (q ** 6 - 1) * (q ** 2 - 1)


def tri_d4_order(q):
    """|3D4(q)| = q^12 (q^8 + q^4 + 1)(q^6 - 1)(q^2 - 1)."""
    q = parse_prime_power(q).q
    return q ** 12 * (q ** 8 + q ** 4 + 1) * (q ** 6 - 1) * (q ** 2 - 1)


def alt_order(d):
    if d < 1:
        raise UnsupportedGroup("Alt(d) needs d >= 1")
    return max(factorial(d) // 2, 1)


def sym_order(d):
    if d < 1:
        raise UnsupportedGroup("Sym(d) needs d >= 1")
    return factorial(d)


def _sporadic_order(name):
    table = _sporadic_orders()
    if name not in table:
        raise UnsupportedGroup(f"unknown sporadic name {name!r}")
    return table[name]


# family -> (name shape, least dimension, order of a GroupId of the family).
# Shapes: "nq" F(n,q), "signed" F(n,q) or F+(n,q) / F-(n,q) in even
# dimension, "degree" F(d), "field" F(q), "name" F(X).  A least dimension
# of 0 leaves the check to the formula (Alt and Sym need degree >= 1, Sz an
# odd power of 2, a sporadic group a known name).  The fourteen classical
# families take their order from classical_form, which checks the least
# dimension, as do the exported formulas gl_order ... pomega_order.
FAMILIES = {
    "PSL": ("nq", 2, _form_order),
    "PSU": ("nq", 2, _form_order),
    "PSp": ("nq", 2, _form_order),
    "POmega": ("signed", 3, _form_order),
    "GL": ("nq", 1, _form_order),
    "SL": ("nq", 1, _form_order),
    "PGL": ("nq", 1, _form_order),
    "GU": ("nq", 1, _form_order),
    "SU": ("nq", 1, _form_order),
    "PGU": ("nq", 1, _form_order),
    "Sp": ("nq", 2, _form_order),
    "SO": ("signed", 2, _form_order),
    "GO": ("signed", 2, _form_order),
    "Omega": ("signed", 2, _form_order),
    "Alt": ("degree", 0, lambda g: alt_order(g.n)),
    "Sym": ("degree", 0, lambda g: sym_order(g.n)),
    "Sz": ("field", 0, lambda g: sz_order(g.q)),
    "G2": ("field", 0, lambda g: g2_order(g.q)),
    "3D4": ("field", 0, lambda g: tri_d4_order(g.q)),
    "Sporadic": ("name", 0, lambda g: _sporadic_order(g.name)),
}

# the families that classical_form knows
FORM_FAMILIES = tuple(fam for fam, row in FAMILIES.items() if row[2] is _form_order)


def order(g):
    """Exact order of the group identified by the GroupId g: its family's
    formula in FAMILIES.  A classical family's formula refuses n below the
    family's least dimension; the others have least dimension 0."""
    return FAMILIES[g.family][2](g)


def _check_dim(fam, n):
    """Refuse n below the least dimension of fam in FAMILIES."""
    lo = FAMILIES[fam][1]
    if n < lo:
        raise UnsupportedGroup(f"{fam} needs dimension >= {lo}, got {n}")


# ---------------------------------------------------------------------------
# canonical forms and outer automorphism orders
# ---------------------------------------------------------------------------


def is_simple(g):
    """Whether the group is simple: decided for PSL, PSU, PSp, POmega and
    Alt with the usual small exceptions, True for the sporadic groups.  Any
    other family raises UnsupportedGroup (GL(3,2) is simple, GL(3,3) not)."""
    fam, n, q = g.family, g.n, g.q.q if g.q else 0
    if fam == "PSL":
        return not (n == 2 and q in (2, 3))
    if fam == "PSU":
        return n >= 3 and (n, q) != (3, 2)
    if fam == "PSp":
        return n % 2 == 0 and (n >= 4 and (n, q) != (4, 2) or (n == 2 and q >= 4))
    if fam == "POmega":
        if n % 2:
            return n >= 5 and q >= 3 or n >= 7
        if n == 4 and g.eps == PLUS:
            return False  # PSL_2(q) x PSL_2(q)
        return n >= 4
    if fam == "Alt":
        return n >= 5
    if fam == "Sporadic":
        return True
    raise UnsupportedGroup(f"simplicity of {g} is not decided")


def canonicalize(g):
    """Rewrite a group id through the standard exceptional isomorphisms.

    POmega(3) -> PSL(2), POmega(5) -> PSp(4), POmega6^+/- -> PSL4 / PSU4,
    POmega4^- -> PSL2(q^2), odd-dimensional orthogonal in characteristic 2
    -> PSp(n-1), PSU(2) and PSp(2) -> PSL(2).  POmega4^+ is left alone (it is
    not simple; see is_simple).
    """
    fam, n, q, eps = g.family, g.n, g.q, g.eps
    if fam == "PSU" and n == 2:
        return psl(2, q)
    if fam == "PSp" and n == 2:
        return psl(2, q)
    if fam != "POmega":
        return g
    if n % 2 == 1 and q.p == 2:
        return canonicalize(psp(n - 1, q))
    if n == 3:
        return psl(2, q)
    if n == 4 and eps == MINUS:
        return psl(2, PrimePower(q.p, 2 * q.e))
    if n == 5:
        return psp(4, q)
    if n == 6 and eps == PLUS:
        return psl(4, q)
    if n == 6 and eps == MINUS:
        return psu(4, q)
    return g


@cache
def out_order(g):
    """|Out(G0)| for the four simple classical families.  Like order, it
    refuses n below the family's least dimension in FAMILIES."""
    fam, n, q, eps = g.family, g.n, g.q, g.eps
    if fam not in CLASSICAL:
        raise UnsupportedGroup(f"out_order not defined for {g}")
    _check_dim(fam, n)
    e = q.e
    qi = q.q
    if fam == "PSL":
        d = gcd(n, qi - 1)
        return 2 * d * e if n >= 3 else d * e
    if fam == "PSU":
        d = gcd(n, qi + 1)
        return 2 * d * e if n >= 3 else d * e
    if fam == "PSp":
        if n % 2:
            raise UnsupportedGroup(f"Sp_{n} needs even dimension")
        if n == 4:
            return 2 * e
        return gcd(2, qi - 1) * e
    if fam == "POmega":
        if n % 2:
            if q.p == 2:
                return out_order(psp(n - 1, q))
            return 2 * e
        # gcd(4, q^m - s), s = 1 for eps = + and -1 for eps = -
        d = classical_form("POmega", n, qi, eps)[3]
        if eps == PLUS and n == 8:
            return 6 * d * e
        return 2 * d * e


# the pure order functions that keep a memo (functools.cache), in their one
# list.  A memo lives until clear_memos empties it: cli.main does so when
# each command ends, and a library caller keeps it until it calls that.
MEMOIZED = (psl, psu, psp, pomega, _order_of, order_bits, out_order)


def clear_memos():
    """Empty the memo of every function in MEMOIZED."""
    for fn in MEMOIZED:
        fn.cache_clear()


# ---------------------------------------------------------------------------
# name grammar
# ---------------------------------------------------------------------------

_GROUP_RE = re.compile(
    rf"^(?P<fam>{'|'.join(sorted(FAMILIES))})"
    r"(?P<sign>[+-]?)\((?P<args>[^)]*)\)$"
)


def parse_group(text):
    """Parse a group name like PSL(4,5), POmega+(8,2), Sz(8), Sporadic(J3)."""
    m = _GROUP_RE.match(text.strip())
    if not m:
        raise GroupParseError(f"cannot parse group name {text!r}")
    fam = m.group("fam")
    sign = m.group("sign")
    args = [a.strip() for a in m.group("args").split(",") if a.strip()]
    shape = FAMILIES[fam][0]
    if shape == "name":
        if len(args) != 1 or sign:
            raise GroupParseError(f"bad sporadic selector {text!r}")
        return sporadic(args[0])
    if shape == "degree":
        if len(args) != 1 or sign or not args[0].isdecimal():
            raise GroupParseError(f"bad degree in {text!r}")
        return GroupId(fam, int(args[0]))
    if shape == "field":
        if len(args) != 1 or sign or not args[0].isdecimal():
            raise GroupParseError(f"bad field size in {text!r}")
        g = GroupId(fam, 0, parse_prime_power(int(args[0])))
        order(g)  # validate the field constraint eagerly for Sz
        return g
    if len(args) != 2 or not all(a.isdecimal() for a in args):
        raise GroupParseError(f"expected two integer arguments in {text!r}")
    n, q = int(args[0]), int(args[1])
    if shape == "signed":
        if sign:
            eps = sign
            if n % 2:
                raise GroupParseError(f"signed orthogonal group needs even dimension: {text!r}")
        else:
            if n % 2 == 0:
                raise GroupParseError(f"even-dimensional orthogonal group needs a sign: {text!r}")
            eps = CIRC
        return GroupId(fam, n, parse_prime_power(q), eps)
    if sign:
        raise GroupParseError(f"family {fam} takes no sign: {text!r}")
    return GroupId(fam, n, parse_prime_power(q))


# ---------------------------------------------------------------------------
# resolver for subgroup names appearing in the data tables
# ---------------------------------------------------------------------------

# table shorthand and the parse_group name it stands for: A7 = Alt(7),
# S9 = Sym(9), 2B2(8) = Sz(8), and a classical family with its dimension
# and sign before the field, PSU4(3) = PSU(4,3), POmega8+(2) = POmega+(8,2)
_SHORT_FAMILIES = {"A": "Alt", "S": "Sym", "2B2": "Sz"}
_SHORTHAND_RE = re.compile(rf"(?P<fam>A|S|2B2|{'|'.join(FORM_FAMILIES)})"
                           r"(?P<n>\d*)(?P<sign>[+-]?)(?:\((?P<q>\d+)\))?")


def subgroup_name_order(name):
    """Order of a subgroup written in table shorthand: a fixed group of
    data/sporadic_orders.txt by its name, or a name of parse_group or its
    shorthand in _SHORTHAND_RE, with an optional ".k" extension suffix."""
    name = name.strip()
    mult = 1
    if "." in name:
        base, _, tail = name.rpartition(".")
        if tail.isdigit() and base:
            name, mult = base, int(tail)
    if name in _sporadic_orders():
        return mult * _sporadic_orders()[name]
    full = name
    m = _SHORTHAND_RE.fullmatch(name)
    if m:  # its arguments: the dimension or degree, then the field size
        fam, n, sign, q = m.groups()
        full = f"{_SHORT_FAMILIES.get(fam, fam)}{sign}({','.join(filter(None, (n, q)))})"
    try:
        return mult * order(parse_group(full))
    except GroupParseError:
        raise UnsupportedGroup(f"cannot resolve subgroup name {name!r}") from None
