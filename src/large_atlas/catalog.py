"""Candidate maximal-subgroup catalog for the simple classical groups.

For each host family (linear, unitary, symplectic, orthogonal) and each
geometric class C1..C8 the catalog can instantiate the candidate subgroups
with their exact orders |H0| and the order |O1| of the outer classes that
stabilize the H0-class.  Rows where only a one-sided bound on |H0| is
available carry bound="upper" or bound="lower" so the largeness engine can
tell decisive verdicts from inconclusive ones.

Every constructor takes the host GroupId it builds rows for as its first
argument: the family constructors psl_*, psu_*, psp_* and pso_*, the one C1
constructor c1_stabilizer, and the candidate lists of the two graph-
automorphism hosts.  A family constructor returns one row, or raises
ConstraintViolation where its type does not occur in the host.
candidates is one loop over CONSTRUCTORS, which lists per family the
constructors it tries, C1 first, each with the Aschbacher class of its
rows and the arguments that follow the host; it offers only arguments the
host admits (signs gives the orthogonal signs of a dimension).  Given a
class, candidates calls only the constructors of that class, and builds
the Table A/B rows only for class A or S.  EXCEPTIONAL holds the two
pools by --exceptional name.  pso_c4 (type Sp2 (x) Sp_{n/2}) is exact at
odd q, a lower bound at even q.  The module also provides the
permutation-module host map and the two literal tables of almost simple
irreducible candidates.
"""

import re
from dataclasses import dataclass, replace
from functools import cache
from importlib import resources
from math import factorial, gcd, isqrt, lcm

from .arith import is_prime, parse_prime_power
from .errors import (ConstraintViolation, DataIntegrityError, GroupParseError,
                     UnknownCase, UnsupportedGroup)
from .largeness import EXACT, LOWER, UPPER
from .orders import (CIRC, MINUS, PLUS, GroupId, alt_order, g2_order,
                     gl_order, go_order, gu_order, omega_order, order,
                     out_order, parse_group, pomega, pomega_center, psl_order,
                     psp, psp_order, psu_order, sl_order, so_order, sp_order,
                     su_order, subgroup_name_order, sylow_exponent, sym_order,
                     sz_order, tri_d4_order)


@dataclass(frozen=True)
class SubgroupEntry:
    """One instantiated candidate subgroup of a given host group."""

    host: GroupId
    aschbacher_class: str
    type_descriptor: str
    params: tuple
    h0_order: int
    o1_order: int
    bound: str = EXACT
    name: str = ""
    formula: str = ""

    def __post_init__(self):
        if self.h0_order < 1 or self.o1_order < 1:
            raise ConstraintViolation(f"bad entry numbers for {self.type_descriptor}")


def _require(cond, msg):
    if not cond:
        raise ConstraintViolation(msg)


def _entry(host, klass, desc, params, h0, o1, bound=EXACT, name="", formula=""):
    return SubgroupEntry(host, klass, desc, tuple(sorted(params.items())),
                         int(h0), int(o1), bound, name, formula)


def signs(n):
    """The orthogonal signs a form of dimension n can carry."""
    return (CIRC,) if n % 2 else (PLUS, MINUS)


def c1_stabilizer(g):
    """The C1 row of a host of any classical family: the parabolic P1 of a
    linear host, a subspace stabilizer otherwise.  It contains a full Sylow
    p-subgroup, so the stored lower bound already certifies largeness."""
    desc = "parabolic P1" if g.family == "PSL" else "subspace stabilizer"
    return _entry(g, "C1", desc, {}, int(g.q) ** sylow_exponent(g), 1,
                  bound=LOWER, formula="sylow-p-lower")


# ---------------------------------------------------------------------------
# linear hosts
# ---------------------------------------------------------------------------


def psl_c2(g, m, t):
    n, q = g.n, int(g.q)
    _require(n == m * t and t >= 2 and m >= 1, "imprimitive type needs n = m*t")
    _require(q >= 5 or m >= 2, "blocks of size 1 need q >= 5")
    _require(q >= 3 or m >= 3, "blocks of size 2 need q >= 3")
    d = gcd(n, q - 1)
    h0 = sl_order(m, q) ** t * (q - 1) ** (t - 1) * factorial(t) // d
    return _entry(g, "C2", f"GL({m},{q}) wr S{t}", {"m": m, "t": t},
                  h0, out_order(g), formula="psl-c2")


def psl_c3(g, m, r):
    n, q = g.n, int(g.q)
    _require(n == m * r and r >= 2 and is_prime(r), "field-extension degree must be prime")
    d = gcd(n, q - 1)
    h0 = gl_order(m, q ** r) * r // (d * (q - 1))
    return _entry(g, "C3", f"GL({m},{q}^{r})", {"m": m, "r": r},
                  h0, out_order(g), formula="psl-c3")


def psl_c4(g, n1, n2):
    n, q = g.n, int(g.q)
    _require(n == n1 * n2 and 2 <= n1 < n2, "tensor type needs n = n1*n2, n1 < n2")
    d = gcd(n, q - 1)
    cc = gcd(gcd(q - 1, n1), n2)
    h0 = sl_order(n1, q) * sl_order(n2, q) * cc // d
    return _entry(g, "C4", f"GL({n1},{q}) (x) GL({n2},{q})", {"n1": n1, "n2": n2},
                  h0, out_order(g) // cc, formula="psl-c4")


def psl_c5(g, r):
    n, qq = g.n, g.q
    _require(qq.e % r == 0 and is_prime(r), "subfield index must be a prime dividing e")
    q = qq.q
    q0 = qq.p ** (qq.e // r)
    d = gcd(n, q - 1)
    s = gcd(q0 - 1, (q - 1) // d)
    h0 = sl_order(n, q0) * s // (q0 - 1)
    c = (q - 1) // lcm(q0 - 1, (q - 1) // d)
    return _entry(g, "C5", f"GL({n},{q0})", {"q0": q0, "r": r},
                  h0, out_order(g) // c, formula="psl-c5")


def psl_c6(g):
    """The extraspecial normalizer row of a host over a prime field, where
    its dimension and q admit one (there is never more than one)."""
    n, qq = g.n, g.q
    q = qq.q
    _require(qq.e == 1, "extraspecial normalizers need prime fields")
    if n == 2 and q % 8 in (1, 7):
        return _entry(g, "C6", "2^(1+2).O2-(2)", {}, 24, 1, name="S4", formula="psl-c6-n2")
    if n == 2 and q % 8 in (3, 5) and q > 3:
        return _entry(g, "C6", "2^(1+2).O2-(2)", {}, 12, 2, name="A4", formula="psl-c6-n2")
    if n == 3 and q % 3 == 1:
        h0 = 216 if q % 9 == 1 else 72
        name = "3^2:SL2(3)" if h0 == 216 else "3^2:Q8"
        return _entry(g, "C6", "3^(1+2):Sp2(3)", {}, h0, 2, name=name, formula="psl-c6-n3")
    if n == 4 and q % 8 == 5:
        return _entry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", {}, 16 * alt_order(6), 4,
                      name="2^4.A6", formula="psl-c6-n4")
    if n == 4 and q % 8 == 1:
        return _entry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", {}, 16 * sym_order(6), 2,
                      name="2^4.S6", formula="psl-c6-n4")
    _require(n == 8 and q % 4 == 1, "no extraspecial normalizer for this n and q")
    return _entry(g, "C6", "(4 o 2^(1+6)).Sp6(2)", {}, 64 * sp_order(6, 2), 2,
                  name="2^6.Sp6(2)", formula="psl-c6-n8")


def psl_c7(g, m, t):
    n, q = g.n, int(g.q)
    _require(n == m ** t and m >= 3 and t >= 2, "tensor-power type needs n = m^t, m >= 3")
    h0 = sl_order(m, q) ** t * factorial(t)
    return _entry(g, "C7", f"GL({m},{q}) wr S{t} (tensor)", {"m": m, "t": t},
                  h0, out_order(g), bound=UPPER, formula="psl-c7")


def psl_c8(g, kind):
    """The form stabilizer of the given kind: "Sp", "GO" or "GU"."""
    n, qq = g.n, g.q
    q = qq.q
    if kind == "Sp":
        _require(n % 2 == 0 and n >= 4, "the symplectic form subgroup needs even n >= 4")
        h0 = psp_order(n, q)
    elif kind == "GO":
        _require(q % 2 == 1 and n >= 3, "the orthogonal form subgroup needs odd q, n >= 3")
        h0 = so_order(n, CIRC if n % 2 else PLUS, q)
    else:
        _require(qq.e % 2 == 0 and n >= 3, "the unitary form subgroup needs square q, n >= 3")
        q = qq.p ** (qq.e // 2)  # GU(n, q0) with q0^2 = q
        h0 = psu_order(n, q)
    return _entry(g, "C8", f"{kind}({n},{q})", {}, h0, 1, bound=LOWER,
                  formula="c8-classical-lower")


# ---------------------------------------------------------------------------
# unitary hosts
# ---------------------------------------------------------------------------


def psu_c2_wr(g, m, t):
    n, q = g.n, int(g.q)
    _require(n == m * t and t >= 2 and m >= 1, "imprimitive type needs n = m*t")
    d = gcd(n, q + 1)
    h0 = gu_order(m, q) ** t * factorial(t) // (d * (q + 1))
    return _entry(g, "C2", f"GU({m},{q}) wr S{t}", {"m": m, "t": t},
                  h0, out_order(g), formula="psu-c2")


def psu_c2_gl(g):
    n, q = g.n, int(g.q)
    _require(n % 2 == 0, "the GL-type imprimitive subgroup needs even n")
    d = gcd(n, q + 1)
    h0 = gl_order(n // 2, q * q) * 2 // (d * (q + 1))
    return _entry(g, "C2", f"GL({n // 2},{q}^2).2", {}, h0, out_order(g),
                  formula="psu-c2-gl")


def psu_c3(g, m, r):
    n, q = g.n, int(g.q)
    _require(n == m * r and r >= 3 and r % 2 == 1 and is_prime(r),
             "unitary field extension needs an odd prime degree")
    d = gcd(n, q + 1)
    h0 = gu_order(m, q ** r) * r // (d * (q + 1))
    return _entry(g, "C3", f"GU({m},{q}^{r})", {"m": m, "r": r},
                  h0, out_order(g), formula="psu-c3")


def psu_c4(g, n1, n2):
    n, q = g.n, int(g.q)
    _require(n == n1 * n2 and 2 <= n1 < n2, "tensor type needs n = n1*n2, n1 < n2")
    d = gcd(n, q + 1)
    cc = gcd(gcd(q + 1, n1), n2)
    h0 = su_order(n1, q) * su_order(n2, q) * cc * cc // d
    return _entry(g, "C4", f"GU({n1},{q}) (x) GU({n2},{q})", {"n1": n1, "n2": n2},
                  h0, out_order(g) // max(cc, 1),
                  bound=UPPER, formula="psu-c4")


def psu_c5_subfield(g, r):
    n, qq = g.n, g.q
    _require(qq.e % r == 0 and r % 2 == 1 and is_prime(r),
             "unitary subfield index must be an odd prime dividing e")
    q = qq.q
    q0 = qq.p ** (qq.e // r)
    d = gcd(n, q + 1)
    s = gcd(q0 + 1, (q + 1) // d)
    h0 = su_order(n, q0) * s // (q0 + 1)
    c = (q + 1) // lcm(q0 + 1, (q + 1) // d)
    return _entry(g, "C5", f"GU({n},{q0})", {"q0": q0, "r": r},
                  h0, out_order(g) // c, formula="psu-c5")


def psu_c5_form(g, kind):
    n, q = g.n, int(g.q)
    if kind == "Sp":
        _require(n % 2 == 0, "symplectic form subgroup needs even n")
        return _entry(g, "C5", f"Sp({n},{q})", {}, psp_order(n, q), 1,
                      bound=LOWER, formula="c8-classical-lower")
    _require(q % 2 == 1, "orthogonal form subgroup needs odd q")
    _require((kind == CIRC) == (n % 2 == 1), "odd n takes no sign, even n needs one")
    return _entry(g, "C5", f"GO{eps_tag(kind)}({n},{q})", {},
                  so_order(n, kind, q), 1, bound=LOWER, formula="c8-classical-lower")


def psu_c6(g):
    """The extraspecial normalizer row of a host over a prime field, where
    its dimension and q admit one (there is never more than one)."""
    n, qq = g.n, g.q
    q = qq.q
    _require(qq.e == 1, "extraspecial normalizers need prime fields")
    if n == 3 and q % 3 == 2:
        cc = gcd(9, q + 1) // 3
        return _entry(g, "C6", "3^(1+2):Sp2(3)", {}, 72 * cc, 2 * gcd(3, q + 1) // cc,
                      name="3^2:Q8" if cc == 1 else "3^2:Q8.3", formula="psu-c6-n3")
    if n == 4 and q % 8 == 3:
        return _entry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", {}, 16 * alt_order(6), 4,
                      name="2^4.A6", formula="psu-c6-n4")
    if n == 4 and q % 8 == 7:
        return _entry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", {}, 16 * sym_order(6), 2,
                      name="2^4.S6", formula="psu-c6-n4")
    _require(n >= 8 and n & (n - 1) == 0 and q % 4 == 3,
             "no extraspecial normalizer for this n and q")
    m = n.bit_length() - 1
    return _entry(g, "C6", f"(4 o 2^(1+{2 * m})).Sp{2 * m}(2)", {},
                  2 ** (2 * m) * sp_order(2 * m, 2), 2,
                  name=f"2^{2 * m}.Sp{2 * m}(2)", formula="psu-c6-n8")


def psu_c7(g, m, t):
    n, q = g.n, int(g.q)
    _require(n == m ** t and m >= 3 and t >= 2, "tensor-power type needs n = m^t, m >= 3")
    _require((m, q) != (3, 2), "the (3,2) tensor-power case does not occur")
    h0 = su_order(m, q) ** t * factorial(t)
    return _entry(g, "C7", f"GU({m},{q}) wr S{t} (tensor)", {"m": m, "t": t},
                  h0, out_order(g), bound=UPPER, formula="psu-c7")


# ---------------------------------------------------------------------------
# symplectic hosts
# ---------------------------------------------------------------------------


def psp_c2_gl(g):
    n, q = g.n, int(g.q)
    d = gcd(2, q - 1)
    return _entry(g, "C2", f"GL({n // 2},{q}).2", {},
                  2 * gl_order(n // 2, q) // d, 1, bound=LOWER,
                  formula="psp-c2-gl-lower")


def psp_c2_wr(g, m, t):
    n, qq = g.n, g.q
    q = qq.q
    _require(n == m * t and t >= 2 and m >= 2 and m % 2 == 0,
             "imprimitive type needs n = m*t with even m")
    _require((m, q) != (2, 2), "blocks Sp2(2) do not occur")
    d = gcd(2, q - 1)
    h0 = sp_order(m, q) ** t * factorial(t) // d
    return _entry(g, "C2", f"Sp({m},{q}) wr S{t}", {"m": m, "t": t},
                  h0, d * qq.e, formula="psp-c2")


def psp_c3(g, m, r):
    n, qq = g.n, g.q
    q = qq.q
    _require(n == m * r and m % 2 == 0 and is_prime(r), "extension degree must be prime")
    d = gcd(2, q - 1)
    h0 = r * sp_order(m, q ** r) // d
    return _entry(g, "C3", f"Sp({m},{q}^{r})", {"m": m, "r": r},
                  h0, d * qq.e, formula="psp-c3")


def psp_c3_gu(g):
    n, q = g.n, int(g.q)
    d = gcd(2, q - 1)
    return _entry(g, "C3", f"GU({n // 2},{q})", {}, gu_order(n // 2, q) // d,
                  1, bound=LOWER, formula="psp-c3-gu-lower")


def psp_c4(g, n1, n2, eps):
    n, qq = g.n, g.q
    q = qq.q
    _require(q % 2 == 1, "symplectic-orthogonal tensor needs odd q")
    _require(n == n1 * n2 and n1 % 2 == 0 and n1 >= 2 and n2 >= 3 and eps in signs(n2),
             "tensor type needs n = n1*n2 with n1 even, n2 >= 3, a sign for n2")
    # |PGO_n2^eps(q)|: GO modulo its center of order 2, q being odd
    h0 = psp_order(n1, q) * (go_order(n2, eps, q) // 2) * gcd(2, n2)
    return _entry(g, "C4", f"Sp({n1},{q}) (x) GO{eps_tag(eps)}({n2},{q})",
                  {"n1": n1, "n2": n2, "eps": eps}, h0,
                  gcd(2, q - 1) * qq.e, formula="psp-c4")


def psp_c5(g, r):
    n, qq = g.n, g.q
    _require(qq.e % r == 0 and is_prime(r), "subfield index must be a prime dividing e")
    q0 = qq.p ** (qq.e // r)
    cc = gcd(gcd(2, qq.q - 1), r)
    h0 = psp_order(n, q0) * cc
    return _entry(g, "C5", f"Sp({n},{q0})", {"q0": q0, "r": r},
                  h0, out_order(g), formula="psp-c5")


def psp_c6(g):
    n, qq = g.n, g.q
    q = qq.q
    _require(qq.e == 1 and q % 2 == 1, "extraspecial normalizer needs odd prime q")
    _require(n >= 4 and n & (n - 1) == 0, "extraspecial normalizer needs n = 2^m")
    m = n.bit_length() - 1
    if q % 8 in (1, 7):
        h0 = 2 ** (2 * m) * so_order(2 * m, MINUS, 2)
        o1 = 1
        name = f"2^{2 * m}.SO{2 * m}-(2)"
    else:
        h0 = 2 ** (2 * m) * omega_order(2 * m, MINUS, 2)
        o1 = 2
        name = f"2^{2 * m}.O{2 * m}-(2)"
    return _entry(g, "C6", f"2^(1+{2 * m}).O{2 * m}-(2)", {}, h0, o1,
                  name=name, formula="psp-c6")


def psp_c7(g, m, t):
    n, qq = g.n, g.q
    q = qq.q
    _require(n == m ** t and m >= 2 and m % 2 == 0 and t >= 2,
             "tensor-power type needs n = m^t with even m")
    _require(q % 2 == 1 and t % 2 == 1, "this type needs q and t odd")
    _require((m, q) != (2, 3), "the (2,3) tensor-power case does not occur")
    d = gcd(2, q - 1)
    h0 = sp_order(m, q) ** t * factorial(t) // d
    return _entry(g, "C7", f"Sp({m},{q}) wr S{t} (tensor)", {"m": m, "t": t},
                  h0, d * qq.e, formula="psp-c7")


# ---------------------------------------------------------------------------
# orthogonal hosts
# ---------------------------------------------------------------------------


def eps_tag(eps):
    return "" if eps == CIRC else eps


def _framed_sign(n, q):
    """The sign of the n-dimensional form with an orthonormal basis over
    GF(q), n even and q odd: the square class of its discriminant."""
    return PLUS if ((q - 1) * n // 4) % 2 == 0 else MINUS


def _pso_o1(g):
    """Outer part available to the normalizer of a geometric subgroup of an
    orthogonal group: |Out| without the order-3 graph automorphism of the
    8-dimensional plus type, which never normalizes these subgroups."""
    return out_order(g) // (3 if (g.n, g.eps) == (8, PLUS) else 1)


def pso_c2_gl(g):
    n, eps, q = g.n, g.eps, int(g.q)
    _require(n % 2 == 0 and eps == PLUS, "the GL-type stabilizer needs plus type")
    return _entry(g, "C2", f"GL({n // 2},{q}).2", {},
                  gl_order(n // 2, q) // ((q - 1) * 4), 1, bound=LOWER,
                  formula="pso-c2-gl-lower")


def pso_c2_o1p(g):
    """Type GO1(p) wr Sn: the framed-basis stabilizer over a prime field."""
    n, eps, qq = g.n, g.eps, g.q
    q = qq.q
    _require(qq.e == 1 and q % 2 == 1, "framed-basis stabilizer needs odd prime q")
    if n % 2:
        _require(eps == CIRC, "odd dimension takes no sign")
    else:
        _require(eps == _framed_sign(n, q), "sign forced by the discriminant of the framed form")
    bound = EXACT
    if q == 3 and 7 <= n <= 13:
        h0 = 2 ** (n - gcd(2, n) - 1) * factorial(n) // 2
        name = f"2^{n - gcd(2, n) - 1}.A{n}"
    elif q == 3 and n == 14:
        h0 = 2 ** 12 * factorial(14) // 2
        name = "2^12.A14"
    elif q == 3 and n == 15:
        h0 = 2 ** 14 * factorial(15) // 2
        name = "2^14.A15"
    elif q == 5 and n == 7:
        h0 = 2 ** 5 * factorial(7)
        name = "2^5.S7"
    elif q == 5 and n == 8:
        h0 = 2 ** 6 * factorial(8) // 2
        name = "2^6.A8"
    elif q == 5 and n == 9:
        h0 = 2 ** 8 * factorial(9) // 2
        name = "2^8.A9"
    else:
        h0 = 2 ** (n - 1) * factorial(n)
        name = f"<= 2^{n - 1}.S{n}"
        bound = UPPER
    if n % 2:
        o1 = 2 if q % 8 in (3, 5) else 1
    else:
        o1 = 4 if q % 8 in (3, 5) else 2
    return _entry(g, "C2", f"GO1({q}) wr S{n}", {}, h0, o1, bound=bound,
                  name=name, formula="pso-c2-o1p")


def pso_c2_go_wr(g, m, eps1, t):
    n, eps, q = g.n, g.eps, int(g.q)
    _require(n == m * t and t >= 2 and m >= 2, "imprimitive type needs n = m*t")
    if m % 2 == 0:
        want = PLUS if (eps1 == PLUS or t % 2 == 0) else MINUS
        _require(eps == want, "sign must be the t-th power of the block sign")
        _require(eps1 in (PLUS, MINUS), "even blocks carry a sign")
    else:
        _require(eps1 == CIRC and q % 2 == 1, "odd blocks need odd q and no sign")
        if t % 2 == 0:
            _require(eps == _framed_sign(n, q), "sign forced by the discriminant")
        else:
            _require(eps == CIRC, "odd n has no sign")
    _require(not (m == 2 and t == 4 and eps1 == PLUS) or q >= 5,
             "plus-type blocks of dimension 2 with t = 4 need q >= 5")
    z = pomega_center(n, eps, q)
    h0 = (omega_order(m, eps1, q) ** t
          * 2 ** (gcd(2, q - 1) * (t - 1)) * factorial(t))
    _require(h0 % z == 0, "central quotient must divide the stabilizer order")
    return _entry(g, "C2", f"GO{eps_tag(eps1)}({m},{q}) wr S{t}",
                  {"m": m, "t": t, "eps1": eps1}, h0 // z, _pso_o1(g),
                  formula="pso-c2-go-wr")


def pso_c3(g, kind):
    n, eps, q = g.n, g.eps, int(g.q)
    m = n // 2
    if kind == "GU":
        _require(eps == (PLUS if m % 2 == 0 else MINUS),
                 "the unitary field-change type needs n = 2m and sign (-1)^m")
        return _entry(g, "C3", f"GU({m},{q})", {},
                      gu_order(m, q) // (gcd(2, q - 1) * (q + 1)), 1,
                      bound=LOWER, formula="pso-c3-lower")
    if kind == "GOo":
        _require(n % 4 == 2 and q % 2 == 1, "the odd-block field change needs n = 2 mod 4, q odd")
        ksign = CIRC
    else:
        _require(n % 4 == 0 and eps != CIRC, "the signed field change needs 4 | n")
        ksign = eps
    return _entry(g, "C3", f"GO{eps_tag(ksign)}({m},{q}^2)", {},
                  omega_order(m, ksign, q * q) // 2, 1,
                  bound=LOWER, formula="pso-c3-lower")


def pso_c3_extra(g, m, s):
    n, eps, q = g.n, g.eps, int(g.q)
    _require(n == m * s and m >= 3 and s % 2 == 1 and is_prime(s),
             "degree must be an odd prime with n = m*s")
    _require(eps != CIRC or m % 2 == 1, "sign must match the block dimension")
    z = pomega_center(n, eps, q)
    h0 = omega_order(m, eps if m % 2 == 0 else CIRC, q ** s) * s
    _require(h0 % z == 0, "central quotient must divide the stabilizer order")
    return _entry(g, "C3", f"GO{eps_tag(eps)}({m},{q}^{s})", {"m": m, "s": s},
                  h0 // z, _pso_o1(g), formula="pso-c3-extra")


def pso_c4(g):
    """Type Sp_2(q) (x) Sp_{n/2}(q) in a plus-type host, 4 | n.  Exact for q
    odd: |Sp_2 x Sp_{n/2}| / 2 times the diagonal part gcd(2, n/4), over the
    center of order 2; for q even the lower bound |PSp_2(q) x PSp_{n/2}(q)|."""
    n, q = g.n, int(g.q)
    _require(g.eps == PLUS and n % 4 == 0, "the symplectic tensor type needs plus type")
    desc = f"Sp(2,{q}) (x) Sp({n // 2},{q})"
    if q % 2:
        h0 = sp_order(2, q) * sp_order(n // 2, q) // 2 * gcd(2, n // 4) // 2
        return _entry(g, "C4", desc, {}, h0, _pso_o1(g), formula="pso-c4-odd")
    return _entry(g, "C4", desc, {}, sp_order(2, q) * sp_order(n // 2, q), 1,
                  bound=LOWER, formula="pso-c4-lower")


def pso_c5(g, r, eps_sub):
    n, eps, qq = g.n, g.eps, g.q
    _require(qq.e % r == 0 and is_prime(r), "subfield index must be a prime dividing e")
    q0 = qq.p ** (qq.e // r)
    if r % 2:
        _require(eps_sub == eps, "odd subfield index keeps the sign")
    else:
        _require(n % 2 == 1 or eps == PLUS, "even subfield index forces plus type")
        _require(eps_sub in signs(n), "the subfield form's sign must suit the dimension")
    h0 = omega_order(n, eps_sub, q0) // gcd(2, q0 - 1)
    return _entry(g, "C5", f"GO{eps_tag(eps_sub)}({n},{q0})",
                  {"q0": q0, "r": r}, h0, _pso_o1(g), formula="pso-c5")


def pso_c6(g):
    n, qq = g.n, g.q
    q = qq.q
    _require(g.eps == PLUS, "extraspecial normalizer needs plus type")
    _require(qq.e == 1 and q % 2 == 1, "extraspecial normalizer needs odd prime q")
    _require(n >= 8 and n & (n - 1) == 0, "extraspecial normalizer needs n = 2^m >= 8")
    m = n.bit_length() - 1
    cc = 4 if q % 8 in (3, 5) else 8
    h0 = 2 ** (2 * m + 2) * omega_order(2 * m, PLUS, 2) // cc
    return _entry(g, "C6", f"2^(2+{2 * m}).O{2 * m}+(2)", {}, h0, 8 // cc,
                  name=f"2^{2 * m}.O{2 * m}+(2)", formula="pso-c6")


# the kinds of pso_c7, each with the block sign it takes
PSO_C7_KINDS = (("sp", None), ("circ", None), ("signed", PLUS), ("signed", MINUS))


def pso_c7(g, m, t, kind, eps1):
    n, eps, q = g.n, g.eps, int(g.q)
    _require(n == m ** t and t >= 2, "tensor-power type needs n = m^t")
    d = gcd(2, q - 1)
    if kind == "sp":
        _require(eps == PLUS and m % 2 == 0 and (q * t) % 2 == 0,
                 "symplectic tensor power needs plus type and qt even")
        _require((m, q) not in ((2, 2), (2, 3)), "tiny symplectic blocks do not occur")
        _require((m, t) != (2, 3), "the (2,3) symplectic tensor power does not occur")
        h0 = psp_order(m, q) ** t * 2 ** (t - 1) * factorial(t)
        desc = f"Sp({m},{q}) wr S{t} (tensor)"
        bound = UPPER
    elif kind == "circ":
        _require(eps == CIRC and m >= 3 and m % 2 == 1 and q % 2 == 1,
                 "odd tensor power needs odd blocks and odd q")
        _require((m, q) != (3, 3), "the (3,3) tensor power does not occur")
        h0 = omega_order(m, CIRC, q) ** t * 2 ** (t - 1) * factorial(t)
        desc = f"GO({m},{q}) wr S{t} (tensor)"
        bound = EXACT
    else:
        _require(eps == PLUS and q % 2 == 1 and eps1 in (PLUS, MINUS),
                 "signed tensor power needs plus host and odd q")
        _require(m >= (4 if eps1 == PLUS else 6), "block dimension too small")
        h0 = so_order(m, eps1, q) ** t * 2 ** (t - 1) * factorial(t)
        desc = f"GO{eps1}({m},{q}) wr S{t} (tensor)"
        bound = UPPER
    return _entry(g, "C7", desc, {"m": m, "t": t}, h0, _pso_o1(g),
                  bound=bound, formula="pso-c7")


# ---------------------------------------------------------------------------
# the two graph-automorphism hosts
# ---------------------------------------------------------------------------


# the item labels of the two pools: sp4 rows take them in list order,
# o8 rows by their fixed place in the triality list
ROMAN = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
         "xi", "xii", "xiii", "xiv", "xv")


def _with_item(entry, label):
    """Attach the stable list position label to a candidate entry."""
    return replace(entry, params=entry.params + (("item", label),))


def sp4_graph_candidates(g):
    """Candidates in the host g = PSp(4,q), q even >= 4, when the overgroup
    realizes the graph automorphism.  Every row carries an "item"
    parameter, its label in list order (roman i, ii, ...)."""
    if g.family != "PSp" or g.n != 4:
        raise UnsupportedGroup(f"{g} is not a graph-automorphism symplectic host")
    qq = g.q
    q = qq.q
    if qq.p != 2 or q < 4:
        raise UnsupportedGroup("the graph automorphism case needs Sp4(2^e), q >= 4")
    o1 = out_order(g)
    rows = [
        _entry(g, "X", "[q^4]:(q-1)^2", {}, q ** 4 * (q - 1) ** 2, o1,
               name="[q^4]:(q-1)^2", formula="sp4-graph"),
        _entry(g, "X", "(q-1)^2:D8", {}, (q - 1) ** 2 * 8, o1,
               name="(q-1)^2:D8", formula="sp4-graph"),
        _entry(g, "X", "(q+1)^2:D8", {}, (q + 1) ** 2 * 8, o1,
               name="(q+1)^2:D8", formula="sp4-graph"),
        _entry(g, "X", "(q^2+1):4", {}, (q * q + 1) * 4, o1,
               name="(q^2+1):4", formula="sp4-graph"),
    ]
    for r in _prime_divisors(qq.e):
        q0 = qq.p ** (qq.e // r)
        rows.append(_entry(g, "X", f"Sp(4,{q0})", {"q0": q0, "r": r},
                           sp_order(4, q0), o1, name=f"Sp4({q0})",
                           formula="sp4-graph"))
    if qq.e % 2 == 1 and qq.e >= 3:
        rows.append(_entry(g, "X", f"Sz({q})", {}, sz_order(q), o1,
                           name=f"Sz({q})", formula="sp4-graph"))
    return [_with_item(e, label) for label, e in zip(ROMAN, rows)]


def o8_triality_candidates(g):
    """Candidates in the host g = POmega8+(q) when the overgroup realizes a
    triality.

    Every row carries an "item" parameter giving its stable position label
    (roman i..xiii); rows whose side conditions reject the given q are
    simply absent, but the surviving labels never shift.
    """
    if g.family != "POmega" or (g.n, g.eps) != (8, PLUS):
        raise UnsupportedGroup(f"{g} is not a triality host")
    qq = g.q
    q = qq.q
    d = gcd(2, q - 1)
    o1 = out_order(g)
    rows = [
        ("i", _entry(g, "X", "parabolic", {}, q ** 12, o1, bound=LOWER,
                     name="parabolic", formula="o8-tri")),
        ("ii", _entry(g, "X", f"G2({q})", {}, g2_order(q), o1,
                      name=f"G2({q})", formula="o8-tri")),
    ]
    for e2 in (PLUS, MINUS):
        rows.append(("iii", _entry(g, "X", f"GO{e2}(2,{q}) perp GO{e2}(6,{q})",
                                   {}, omega_order(6, e2, q) // d, o1,
                                   bound=LOWER, name=f"O{e2}6 point",
                                   formula="o8-tri")))
    if qq.e == 1 and q % 2 == 1:
        rows.append(("iv", _entry(g, "X", "2^3.2^6.PSL3(2)", {}, 2 ** 9 * 168,
                                  o1, name="2^3.2^6.PSL3(2)", formula="o8-tri")))
    rows.append(("v", pso_c2_go_wr(g, 2, MINUS, 4)))
    if q >= 5:
        rows.append(("vi", pso_c2_go_wr(g, 2, PLUS, 4)))
    if q >= 3:
        rows.append(("vii", pso_c2_go_wr(g, 4, PLUS, 2)))
    rows.append(("viii", _entry(g, "X", "(D_{2(q^2+1)/d})^2.[2d].S2", {},
                                (2 * (q * q + 1) // d) ** 2 * 2 * d * 2, o1,
                                name="torus normalizer", formula="o8-tri")))
    if qq.e % 2 == 0:
        for e2 in (PLUS, MINUS):
            rows.append(("ix", pso_c5(g, 2, e2)))
    if qq.e % 3 == 0:
        rows.append(("ix", pso_c5(g, 3, PLUS)))
    if q % 3 == 1:
        rows.append(("x", _entry(g, "X", f"PSL3({q}).3", {},
                                 3 * psl_order(3, q), 6 * qq.e,
                                 name=f"PSL3({q}).3", formula="o8-tri")))
    if q % 3 == 2 and q != 2:
        rows.append(("x", _entry(g, "X", f"PSU3({q}).3", {}, su_order(3, q),
                                 6 * qq.e, name=f"PSU3({q}).3",
                                 formula="o8-tri")))
    if qq.e % 3 == 0:
        q0 = qq.p ** (qq.e // 3)
        rows.append(("xi", _entry(g, "X", f"3D4({q0})", {"q0": q0},
                                  tri_d4_order(q0), o1, name=f"3D4({q0})",
                                  formula="o8-tri")))
    if qq.e == 1 and q % 2 == 1:
        rows.append(("xii", _entry(g, "X", "POmega8+(2)", {}, 174182400, o1,
                                   name="POmega8+(2)", formula="o8-tri")))
    if q == 5:
        rows.append(("xiii", _entry(g, "X", "Sz(8)", {}, sz_order(8), o1,
                                    name="Sz(8)", formula="o8-tri")))
    return [_with_item(e, label) for label, e in rows]


# the two pools by the name the --exceptional flag gives them
EXCEPTIONAL = {"sp4": sp4_graph_candidates, "o8": o8_triality_candidates}


# ---------------------------------------------------------------------------
# permutation-module hosts and the literal tables
# ---------------------------------------------------------------------------


def _is_square_mod(a, p):
    a %= p
    return any((x * x) % p == a for x in range(p))


def collection_a_host(d, p):
    """Host classical group for Alt(d) acting on its fully deleted
    permutation module over GF(p)."""
    if d < 5:
        raise ConstraintViolation("the permutation module hosts need d >= 5")
    if p == 2:
        r8 = d % 8
        if d % 4 == 2:
            return psp(d - 2, 2)
        if r8 == 0:
            return pomega(d - 2, 2, PLUS)
        if r8 == 4:
            return pomega(d - 2, 2, MINUS)
        if r8 in (1, 7):
            return pomega(d - 1, 2, PLUS)
        return pomega(d - 1, 2, MINUS)
    n = d - 1 if d % p else d - 2
    if n % 2:
        return pomega(n, p, CIRC)
    disc = d % p if d % p else p - 1
    sq = _is_square_mod(((-1) ** (n // 2) * disc) % p, p)
    return pomega(n, p, PLUS if sq else MINUS)


@dataclass(frozen=True)
class TableRow:
    """One row of the irreducible almost simple candidate tables.

    Patterns may mention q (the host field size) or q0 (its square or cube
    root); the condition field restricts q.  Concrete rows use condition "-".
    sample is (host, subgroup name, |H0|) at sample_q(), set by _load_table.
    """

    g0_pattern: str
    h0_pattern: str
    condition: str
    remark: str
    table: str
    sample: tuple = None

    def matches_q(self, q):
        cond = self.condition
        if cond == "-" or cond == "q:any":
            return True
        if cond == "q:odd":
            return q % 2 == 1
        if cond == "q:even":
            return q % 2 == 0
        if cond == "q:sz":
            qq = parse_prime_power(q)
            return qq.p == 2 and qq.e % 2 == 1 and qq.e >= 3
        if cond.startswith("q:in:"):
            return q in {int(v) for v in cond[5:].split(",")}
        raise DataIntegrityError(f"bad condition {cond!r}")

    def _q0(self, qq):
        if "q0^2" in self.g0_pattern:
            return qq.p ** (qq.e // 2) if qq.e % 2 == 0 else None
        if "q0^3" in self.g0_pattern:
            return qq.p ** (qq.e // 3) if qq.e % 3 == 0 else None
        return 0

    def instantiate(self, q):
        """Concrete (host, subgroup name, |H0|) at field size q, or None if
        the row does not apply there."""
        qq = parse_prime_power(q)
        q = qq.q
        if not self.matches_q(q):
            return None
        q0 = self._q0(qq)
        if q0 is None:
            return None
        g0_name = self.g0_pattern.replace("q0^2", str(q)).replace("q0^3", str(q))
        g0_name = _subst_q(g0_name, q)
        h0_name = _subst_q(_subst_q0(self.h0_pattern, q0), q)
        g0 = parse_group(g0_name)
        h0_order = subgroup_name_order(h0_name)
        return g0, h0_name, h0_order

    def sample_q(self):
        cond = self.condition
        if cond == "-":
            return int(parse_group(self.g0_pattern).q)
        if cond.startswith("q:in:"):
            return int(cond[5:].split(",")[0])
        if cond == "q:even":
            return 4
        if cond == "q:sz":
            return 8
        if "q0^2" in self.g0_pattern:
            return 9
        if "q0^3" in self.g0_pattern:
            return 27
        if cond in ("q:any", "q:odd"):
            return 3
        raise DataIntegrityError(f"bad condition {cond!r}")


def _subst_q(text, q):
    return re.sub(r"\bq\b", str(q), text)


def _subst_q0(text, q0):
    return re.sub(r"\bq0\b", str(q0), text)


def _load_table(fname, table):
    raw = resources.files("large_atlas.data").joinpath(fname).read_text()
    rows = []
    for lineno, line in enumerate(raw.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            raise DataIntegrityError(f"{fname}:{lineno}: expected 4 fields")
        row = TableRow(parts[0], parts[1], parts[2], parts[3], table)
        try:
            got = row.instantiate(row.sample_q())
        except (GroupParseError, UnsupportedGroup, ConstraintViolation) as exc:
            raise DataIntegrityError(f"{fname}:{lineno}: {exc}") from None
        if got is None:
            raise DataIntegrityError(f"{fname}:{lineno}: sample field size rejected")
        g0, h0_name, h0_order = got
        if order(g0) % h0_order:
            raise DataIntegrityError(
                f"{fname}:{lineno}: |{h0_name}| does not divide |{g0}|")
        rows.append(replace(row, sample=got))
    return tuple(rows)


@cache
def table_rows(which):
    """Rows of table 'A' (alternating socle on the deleted permutation
    module) or 'B' (the other irreducible almost simple candidates)."""
    if which not in ("A", "B"):
        raise UnknownCase(f"no table {which!r}")
    return _load_table(f"table_{which.lower()}.txt", which)


def table_entries(g0):
    """The table A and B rows stated for the host g0.  A row is built at
    g0's field size only when its host has g0's family, n and sign."""
    shape = (g0.family, g0.n, g0.eps)
    out = []
    for which in ("A", "B"):
        for row in table_rows(which):
            host = row.sample[0]
            if (host.family, host.n, host.eps) != shape:
                continue
            got = row.instantiate(g0.q)
            if got is None or got[0] != g0:
                continue
            _, h0_name, h0_order = got
            out.append(_entry(g0, "A" if which == "A" else "S",
                              h0_name, {}, h0_order, out_order(g0), name=h0_name,
                              formula=f"table-{which.lower()}-row"))
    return out


# ---------------------------------------------------------------------------
# full candidate enumeration for one host
# ---------------------------------------------------------------------------


def _prime_divisors(k):
    """The primes dividing k, ascending."""
    return [r for r in range(2, k + 1) if k % r == 0 and is_prime(r)]


def _host_only(g):
    return ((),)


def _splits(g):
    """(m, t) with n = m*t and t >= 2: the block splits of C2."""
    return [(g.n // t, t) for t in range(2, g.n + 1) if g.n % t == 0]


def _swapped_splits(g):
    """(t, m) for each block split (m, t): the tensor factors of C4."""
    return [(t, m) for m, t in _splits(g)]


def _extension_degrees(g):
    """(n/r, r) for each prime r dividing n: the field extensions of C3."""
    return [(g.n // r, r) for r in _prime_divisors(g.n)]


def _subfield_indices(g):
    """(r,) for each prime r dividing e, q = p^e: the subfields of C5."""
    return [(r,) for r in _prime_divisors(g.q.e)]


def _power_splits(g):
    """(m, t) with n = m^t and t >= 2: the tensor powers of C7."""
    out = []
    for m in range(2, isqrt(g.n) + 1):
        k, t = m * m, 2
        while k < g.n:
            k, t = k * m, t + 1
        if k == g.n:
            out.append((m, t))
    return out


# family -> the constructors candidates tries on a host of that family, in
# row order, each as (class, constructor, arguments): arguments(g) gives the
# argument tuples that follow the host, and each call returns one row of
# that Aschbacher class or raises ConstraintViolation
CONSTRUCTORS = {
    "PSL": (
        ("C1", c1_stabilizer, _host_only),
        ("C2", psl_c2, _splits),
        ("C3", psl_c3, _extension_degrees),
        ("C4", psl_c4, _swapped_splits),
        ("C5", psl_c5, _subfield_indices),
        ("C6", psl_c6, _host_only),
        ("C7", psl_c7, _power_splits),
        ("C8", psl_c8, lambda g: [("Sp",), ("GO",), ("GU",)]),
    ),
    "PSU": (
        ("C1", c1_stabilizer, _host_only),
        ("C2", psu_c2_gl, _host_only),
        ("C2", psu_c2_wr, _splits),
        ("C3", psu_c3, _extension_degrees),
        ("C4", psu_c4, _swapped_splits),
        ("C5", psu_c5_subfield, _subfield_indices),
        ("C5", psu_c5_form, lambda g: [("Sp",)] + [(e,) for e in signs(g.n)]),
        ("C6", psu_c6, _host_only),
        ("C7", psu_c7, _power_splits),
    ),
    "PSp": (
        ("C1", c1_stabilizer, _host_only),
        ("C2", psp_c2_gl, _host_only),
        ("C2", psp_c2_wr, _splits),
        ("C3", psp_c3, _extension_degrees),
        ("C3", psp_c3_gu, _host_only),
        ("C4", psp_c4, lambda g: [(n1, n2, e) for n1, n2 in _splits(g) for e in signs(n2)]),
        ("C5", psp_c5, _subfield_indices),
        ("C6", psp_c6, _host_only),
        ("C7", psp_c7, _power_splits),
    ),
    "POmega": (
        ("C1", c1_stabilizer, _host_only),
        ("C2", pso_c2_gl, _host_only),
        ("C2", pso_c2_o1p, _host_only),
        ("C2", pso_c2_go_wr, lambda g: [(m, e, t) for m, t in _splits(g) for e in signs(m)]),
        ("C3", pso_c3, lambda g: [("GU",), ("GO",), ("GOo",)]),
        ("C3", pso_c3_extra, _extension_degrees),
        ("C4", pso_c4, _host_only),
        ("C5", pso_c5, lambda g: [(r, e) for (r,) in _subfield_indices(g) for e in signs(g.n)]),
        ("C6", pso_c6, _host_only),
        ("C7", pso_c7, lambda g: [(m, t) + kind for m, t in _power_splits(g)
                                  for kind in PSO_C7_KINDS]),
    ),
}


def candidates(g0, klass=None):
    """All catalog entries whose constraints accept the given host: every
    row of CONSTRUCTORS[g0.family] that no constraint rejects, then the
    Table A/B rows of g0.  Given an Aschbacher class `klass` (compared
    case-insensitively), only the rows of that class, in the same order:
    the constructors of other classes are not called, and the Table A/B
    rows are built only for klass A or S.  A host that out_order refuses
    (below its family's least dimension, or PSp of odd dimension) raises
    UnsupportedGroup."""
    if g0.family not in CONSTRUCTORS:
        raise UnsupportedGroup(f"no catalog for family {g0.family}")
    out_order(g0)  # refuses a degenerate host
    want = None if klass is None else klass.lower()

    def keep(c):
        return want is None or c.lower() == want

    out = []
    for c, fn, arguments in CONSTRUCTORS[g0.family]:
        if not keep(c):
            continue
        for args in arguments(g0):
            try:
                out.append(fn(g0, *args))
            except ConstraintViolation:
                continue
    if keep("A") or keep("S"):
        out.extend(e for e in table_entries(g0) if keep(e.aschbacher_class))
    return out
