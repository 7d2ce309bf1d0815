"""Exact orders of finite classical groups and their relatives.

The module knows the classical families (linear, unitary, symplectic,
orthogonal) in their quasisimple, adjoint and projective variants, the
alternating/symmetric groups, the handful of exceptional families needed by
the tables (Sz, G2, triality D4), and a small checked-in list of fixed group
orders.  Everything is exact integer arithmetic.

The table FAMILIES holds each family's name shape, least dimension and
order formula: `order` looks a group up there, `GroupId.__str__` and
`parse_group` read the shape, and `out_order` the least dimension.
"""

import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from math import gcd, prod

from .arith import PrimePower, factorial, parse_prime_power
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


@dataclass(frozen=True)
class GroupId:
    """Identifier of a group in one of the supported families."""

    family: str
    n: int = 0
    q: PrimePower = None
    eps: str = ""
    name: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedGroup(f"unknown family {self.family!r}")

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


def psl(n, q):
    return GroupId("PSL", n, parse_prime_power(q))


def psu(n, q):
    return GroupId("PSU", n, parse_prime_power(q))


def psp(n, q):
    return GroupId("PSp", n, parse_prime_power(q))


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
# order formulas
# ---------------------------------------------------------------------------


def gl_order(n, q):
    """|GL_n(q)| = q^(n(n-1)/2) * prod_{i=1..n} (q^i - 1)."""
    q = int(q)
    return q ** (n * (n - 1) // 2) * prod(q ** i - 1 for i in range(1, n + 1))


def sl_order(n, q):
    q = int(q)
    return gl_order(n, q) // (q - 1)


def gu_order(n, q):
    """|GU_n(q)| = q^(n(n-1)/2) * prod_{i=1..n} (q^i - (-1)^i)."""
    q = int(q)
    return q ** (n * (n - 1) // 2) * prod(q ** i - (-1) ** i for i in range(1, n + 1))


def su_order(n, q):
    q = int(q)
    return gu_order(n, q) // (q + 1)


def sp_order(n, q):
    """|Sp_n(q)| for even n = 2m: q^(m^2) * prod_{i=1..m} (q^2i - 1)."""
    if n % 2:
        raise UnsupportedGroup(f"Sp_{n} needs even dimension")
    q = int(q)
    m = n // 2
    return q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))


def omega_order(n, eps, q):
    """|Omega_n^eps(q)| for n >= 2.

    Odd n over odd q uses the kernel-of-spinor-norm order; odd n over even q
    is the symplectic group of rank (n-1)/2.  n = 2 gives the cyclic torus.
    """
    qq = parse_prime_power(q)
    q = qq.q
    if n % 2:
        if eps not in ("", CIRC):
            raise UnsupportedGroup("odd-dimensional orthogonal group takes no sign")
        if n == 1:
            return 1
        full = sp_order(n - 1, q)
        if qq.p == 2:
            return full  # Omega_{2m+1}(q) = Sp_{2m}(q) in characteristic 2
        return full // 2
    if eps not in (PLUS, MINUS):
        raise UnsupportedGroup("even-dimensional orthogonal group needs a sign")
    m = n // 2
    s = 1 if eps == PLUS else -1
    top = q ** (m * (m - 1)) * (q ** m - s) * prod(q ** (2 * i) - 1 for i in range(1, m))
    return top // gcd(2, q - 1)


def so_order(n, eps, q):
    qq = parse_prime_power(q)
    if n % 2 and qq.p == 2:
        raise UnsupportedGroup("SO in odd dimension needs odd q")
    return 2 * omega_order(n, eps, q)


def go_order(n, eps, q):
    qq = parse_prime_power(q)
    if n % 2:
        return 2 * so_order(n, eps, q)
    return gcd(2, qq.q - 1) * so_order(n, eps, q)


def psl_order(n, q):
    q = int(q)
    return sl_order(n, q) // gcd(n, q - 1)


def psu_order(n, q):
    q = int(q)
    return su_order(n, q) // gcd(n, q + 1)


def psp_order(n, q):
    q = int(q)
    return sp_order(n, q) // gcd(2, q - 1)


def pomega_center(n, eps, q):
    """|Omega_n^eps(q) : POmega_n^eps(q)|, the order of the center of Omega:
    gcd(4, q^m - s) / gcd(2, q - 1) for n = 2m, where s = 1 for eps = +
    and -1 for eps = -; 1 for odd n."""
    if n % 2:
        return 1
    q = int(q)
    s = 1 if eps == PLUS else -1
    return gcd(4, q ** (n // 2) - s) // gcd(2, q - 1)


def pomega_order(n, eps, q):
    return omega_order(n, eps, q) // pomega_center(n, eps, q)


def sylow_exponent(g):
    """The number N of positive roots of the group of Lie type g over GF(q):
    q^N is the order of a Sylow p-subgroup of g, p the characteristic, and
    the same for every isogeny type of one family.  (SO and GO in
    characteristic 2 are the exception: their index-2 part over Omega adds
    a factor 2, so there q^N only divides the order.)"""
    fam, n = g.family, g.n
    if fam in ("PSL", "SL", "GL", "PGL", "PSU", "SU", "GU", "PGU"):
        return n * (n - 1) // 2
    if fam in ("PSp", "Sp"):
        return (n // 2) ** 2
    if fam in ("POmega", "SO", "GO", "Omega"):
        m = n // 2
        return m * m if n % 2 else m * (m - 1)
    if fam in ("Sz", "G2", "3D4"):
        return {"Sz": 2, "G2": 6, "3D4": 12}[fam]
    raise UnsupportedGroup(f"{g} is not a group of Lie type")


def sz_order(q):
    """|Sz(q)| = q^2 (q^2 + 1)(q - 1), q = 2^(2k+1) >= 8."""
    qq = parse_prime_power(q)
    if qq.p != 2 or qq.e % 2 == 0 or qq.e < 3:
        raise UnsupportedGroup(f"Sz({qq}) is only defined for q = 2^(2k+1) >= 8")
    q = qq.q
    return q * q * (q * q + 1) * (q - 1)


def g2_order(q):
    """|G2(q)| = q^6 (q^6 - 1)(q^2 - 1)."""
    q = int(parse_prime_power(q))
    return q ** 6 * (q ** 6 - 1) * (q ** 2 - 1)


def tri_d4_order(q):
    """|3D4(q)| = q^12 (q^8 + q^4 + 1)(q^6 - 1)(q^2 - 1)."""
    q = int(parse_prime_power(q))
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
# odd power of 2, a sporadic group a known name).
FAMILIES = {
    "PSL": ("nq", 2, lambda g: psl_order(g.n, g.q)),
    "PSU": ("nq", 2, lambda g: psu_order(g.n, g.q)),
    "PSp": ("nq", 2, lambda g: psp_order(g.n, g.q)),
    "POmega": ("signed", 3, lambda g: pomega_order(g.n, g.eps, g.q)),
    "GL": ("nq", 1, lambda g: gl_order(g.n, g.q)),
    "SL": ("nq", 1, lambda g: sl_order(g.n, g.q)),
    "PGL": ("nq", 1, lambda g: sl_order(g.n, g.q)),
    "GU": ("nq", 1, lambda g: gu_order(g.n, g.q)),
    "SU": ("nq", 1, lambda g: su_order(g.n, g.q)),
    "PGU": ("nq", 1, lambda g: su_order(g.n, g.q)),
    "Sp": ("nq", 2, lambda g: sp_order(g.n, g.q)),
    "SO": ("signed", 2, lambda g: so_order(g.n, g.eps, g.q)),
    "GO": ("signed", 2, lambda g: go_order(g.n, g.eps, g.q)),
    "Omega": ("signed", 2, lambda g: omega_order(g.n, g.eps, g.q)),
    "Alt": ("degree", 0, lambda g: alt_order(g.n)),
    "Sym": ("degree", 0, lambda g: sym_order(g.n)),
    "Sz": ("field", 0, lambda g: sz_order(g.q)),
    "G2": ("field", 0, lambda g: g2_order(g.q)),
    "3D4": ("field", 0, lambda g: tri_d4_order(g.q)),
    "Sporadic": ("name", 0, lambda g: _sporadic_order(g.name)),
}


def order(g):
    """Exact order of the group identified by the GroupId g: its family's
    formula in FAMILIES, after refusing n below the family's least
    dimension."""
    _shape, least, formula = FAMILIES[g.family]
    _check_dim(g.family, g.n, least)
    return formula(g)


def _check_dim(fam, n, lo):
    if n < lo:
        raise UnsupportedGroup(f"{fam} needs dimension >= {lo}, got {n}")


# ---------------------------------------------------------------------------
# canonical forms and outer automorphism orders
# ---------------------------------------------------------------------------


def is_simple(g):
    """Whether the group is simple: decided for PSL, PSU, PSp, POmega and
    Alt with the usual small exceptions, True for the sporadic groups.  Any
    other family raises UnsupportedGroup (GL(3,2) is simple, GL(3,3) not)."""
    fam, n, q = g.family, g.n, int(g.q) if g.q else 0
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


def out_order(g):
    """|Out(G0)| for the four simple classical families.  Like order, it
    refuses n below the family's least dimension in FAMILIES."""
    fam, n, q, eps = g.family, g.n, g.q, g.eps
    if fam not in CLASSICAL:
        raise UnsupportedGroup(f"out_order not defined for {g}")
    _check_dim(fam, n, FAMILIES[fam][1])
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
        m = n // 2
        s = 1 if eps == PLUS else -1
        d = gcd(4, qi ** m - s)
        if eps == PLUS and m == 4:
            return 6 * d * e
        return 2 * d * e


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
        if len(args) != 1 or sign or not args[0].isdigit():
            raise GroupParseError(f"bad degree in {text!r}")
        return GroupId(fam, int(args[0]))
    if shape == "field":
        if len(args) != 1 or sign or not args[0].isdigit():
            raise GroupParseError(f"bad field size in {text!r}")
        g = GroupId(fam, 0, parse_prime_power(int(args[0])))
        order(g)  # validate the field constraint eagerly for Sz
        return g
    if len(args) != 2 or not all(a.isdigit() for a in args):
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

_SHORT_RE = re.compile(r"^(?P<fam>A|S)(?P<d>\d+)$")
_CLASSICAL_RE = re.compile(r"^(?P<fam>PSL|PSU|PSp|PGL|PGU|SL|SU|Sp)(?P<n>\d+)\((?P<q>\d+)\)$")
_POMEGA_RE = re.compile(r"^POmega(?P<n>\d+)(?P<sign>[+-]?)\((?P<q>\d+)\)$")


def subgroup_name_order(name):
    """Order of a subgroup written in table shorthand.

    Handles A7 / S9, classical shorthands like PSU4(3), an optional ".k"
    extension suffix, 2B2(q) = Sz(q), and the grammar of parse_group.
    """
    name = name.strip()
    mult = 1
    if "." in name:
        base, _, tail = name.rpartition(".")
        if tail.isdigit() and base:
            name, mult = base, int(tail)
    if name in _sporadic_orders():
        return mult * _sporadic_orders()[name]
    m = _SHORT_RE.match(name)
    if m:
        d = int(m.group("d"))
        return mult * (alt_order(d) if m.group("fam") == "A" else sym_order(d))
    m = _CLASSICAL_RE.match(name)
    if m:
        g = GroupId(m.group("fam"), int(m.group("n")), parse_prime_power(int(m.group("q"))))
        return mult * order(g)
    m = _POMEGA_RE.match(name)
    if m:
        n = int(m.group("n"))
        eps = m.group("sign") or CIRC
        return mult * pomega_order(n, eps, int(m.group("q")))
    if name.startswith("2B2(") and name.endswith(")"):
        return mult * sz_order(int(name[4:-1]))
    try:
        return mult * order(parse_group(name))
    except GroupParseError:
        raise UnsupportedGroup(f"cannot resolve subgroup name {name!r}") from None
