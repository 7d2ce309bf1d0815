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
rows and the arguments that follow the host.  The argument generators
offer every divisor split and prime degree of n and of e (signs gives the
orthogonal signs of a dimension), and the constructor refuses the shapes
its type cannot take.  Given a class, candidates calls only the
constructors of that class, and builds the Table A/B rows only for class
A or S.  EXCEPTIONAL holds the two pools by --exceptional name; each
states a row through _pool_row, which fixes class X, |O1| = |Out(G0)| and
the pool's formula id.  pso_c4 (type Sp2 (x) Sp_{n/2}) is exact at odd q,
a lower bound at even q.  The module also provides the permutation-module
host map and the two literal tables of almost simple irreducible
candidates.
"""

import re
from collections import namedtuple
from functools import cache, partial
from importlib import resources
from math import factorial, gcd, isqrt, lcm
from typing import NamedTuple

from .arith import is_prime, parse_prime_power
from .errors import (ConstraintViolation, DataIntegrityError, LargeAtlasError, UnknownCase,
                     UnsupportedGroup)
from .largeness import EXACT, LOWER, UPPER
from .orders import (CIRC, MINUS, PLUS, alt_order, g2_order, gl_order, go_order,
                     gu_order, omega_order, order, out_order, parse_group, pomega,
                     pomega_center, pomega_order, psl_order, psp, psp_order, psu_order,
                     sl_order, so_order, sp_order, su_order, subgroup_name_order,
                     sylow_exponent, sym_order, sz_order, tri_d4_order)


class SubgroupEntry(namedtuple("SubgroupEntry", "host aschbacher_class type_descriptor "
                                "params h0_order o1_order bound name formula")):
    """One instantiated candidate subgroup of a given host group: its host
    (GroupId), Aschbacher class, type descriptor, params ((key, value)
    pairs in key order, then the "item" label of a pool row), |H0| and |O1|
    (ints >= 1), the bound kind of |H0|, the structure name and the formula
    id.  An immutable named tuple, and the one check on every catalog row:
    a row with |H0| or |O1| below 1 raises ConstraintViolation."""

    __slots__ = ()

    def __new__(cls, host, aschbacher_class, type_descriptor, params, h0_order,
                o1_order, bound=EXACT, name="", formula=""):
        if h0_order < 1 or o1_order < 1:
            raise ConstraintViolation(f"bad entry numbers for {type_descriptor}")
        return tuple.__new__(cls, (host, aschbacher_class, type_descriptor, params,
                                   h0_order, o1_order, bound, name, formula))


def _require(cond, msg):
    if not cond:
        raise ConstraintViolation(msg)


def signs(n):
    """The orthogonal signs a form of dimension n can carry."""
    return (CIRC,) if n % 2 else (PLUS, MINUS)


def c1_stabilizer(g):
    """The C1 row of a host of any classical family: the parabolic P1 of a
    linear host, a subspace stabilizer otherwise.  It contains a full Sylow
    p-subgroup, so the stored lower bound already certifies largeness."""
    desc = "parabolic P1" if g.family == "PSL" else "subspace stabilizer"
    return SubgroupEntry(g, "C1", desc, (), g.q.q ** sylow_exponent(g), 1,
                         bound=LOWER, formula="sylow-p-lower")


def _out_without_graph(g):
    """|Out(G0)| without the graph automorphism that never normalizes a
    geometric row: the one of order 2 of PSp(4, 2^e) and the triality of
    order 3 of POmega+(8, q)."""
    if g.family == "PSp" and g.n == 4 and g.q.p == 2:
        return out_order(g) // 2
    if g.family == "POmega" and (g.n, g.eps) == (8, PLUS):
        return out_order(g) // 3
    return out_order(g)


# ---------------------------------------------------------------------------
# linear hosts
# ---------------------------------------------------------------------------


def psl_c2(g, m, t):
    n, q = g.n, g.q.q
    _require(n == m * t and t >= 2 and m >= 1, "imprimitive type needs n = m*t")
    _require(q >= 5 or m >= 2, "blocks of size 1 need q >= 5")
    _require(q >= 3 or m >= 3, "blocks of size 2 need q >= 3")
    d = gcd(n, q - 1)
    h0 = sl_order(m, q) ** t * (q - 1) ** (t - 1) * factorial(t) // d
    return SubgroupEntry(g, "C2", f"GL({m},{q}) wr S{t}", (("m", m), ("t", t)),
                         h0, out_order(g), formula="psl-c2")


def psl_c3(g, m, r):
    n, q = g.n, g.q.q
    _require(n == m * r and r >= 2 and is_prime(r), "field-extension degree must be prime")
    d = gcd(n, q - 1)
    h0 = gl_order(m, q ** r) * r // (d * (q - 1))
    return SubgroupEntry(g, "C3", f"GL({m},{q}^{r})", (("m", m), ("r", r)),
                         h0, out_order(g), formula="psl-c3")


def psl_c4(g, n1, n2):
    n, q = g.n, g.q.q
    _require(n == n1 * n2 and 2 <= n1 < n2, "tensor type needs n = n1*n2, n1 < n2")
    d = gcd(n, q - 1)
    cc = gcd(gcd(q - 1, n1), n2)
    h0 = sl_order(n1, q) * sl_order(n2, q) * cc // d
    return SubgroupEntry(g, "C4", f"GL({n1},{q}) (x) GL({n2},{q})", (("n1", n1), ("n2", n2)),
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
    return SubgroupEntry(g, "C5", f"GL({n},{q0})", (("q0", q0), ("r", r)),
                         h0, out_order(g) // c, formula="psl-c5")


def psl_c6(g):
    """The extraspecial normalizer row of a host over a prime field, where
    its dimension and q admit one (there is never more than one)."""
    n, qq = g.n, g.q
    q = qq.q
    _require(qq.e == 1, "extraspecial normalizers need prime fields")
    if n == 2 and q % 8 in (1, 7):
        return SubgroupEntry(g, "C6", "2^(1+2).O2-(2)", (), 24, 1, name="S4", formula="psl-c6-n2")
    if n == 2 and q % 8 in (3, 5) and q > 3:
        return SubgroupEntry(g, "C6", "2^(1+2).O2-(2)", (), 12, 2, name="A4", formula="psl-c6-n2")
    if n == 3 and q % 3 == 1:
        h0 = 216 if q % 9 == 1 else 72
        name = "3^2:SL2(3)" if h0 == 216 else "3^2:Q8"
        return SubgroupEntry(g, "C6", "3^(1+2):Sp2(3)", (), h0, 2, name=name, formula="psl-c6-n3")
    if n == 4 and q % 8 == 5:
        return SubgroupEntry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", (), 16 * alt_order(6), 4,
                             name="2^4.A6", formula="psl-c6-n4")
    if n == 4 and q % 8 == 1:
        return SubgroupEntry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", (), 16 * sym_order(6), 2,
                             name="2^4.S6", formula="psl-c6-n4")
    _require(n == 8 and q % 4 == 1, "no extraspecial normalizer for this n and q")
    return SubgroupEntry(g, "C6", "(4 o 2^(1+6)).Sp6(2)", (), 64 * sp_order(6, 2), 2,
                         name="2^6.Sp6(2)", formula="psl-c6-n8")


def psl_c7(g, m, t):
    n, q = g.n, g.q.q
    _require(n == m ** t and m >= 3 and t >= 2, "tensor-power type needs n = m^t, m >= 3")
    h0 = sl_order(m, q) ** t * factorial(t)
    return SubgroupEntry(g, "C7", f"GL({m},{q}) wr S{t} (tensor)", (("m", m), ("t", t)),
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
    return SubgroupEntry(g, "C8", f"{kind}({n},{q})", (), h0, 1, bound=LOWER,
                         formula="c8-classical-lower")


# ---------------------------------------------------------------------------
# unitary hosts
# ---------------------------------------------------------------------------


def psu_c2_wr(g, m, t):
    n, q = g.n, g.q.q
    _require(n == m * t and t >= 2 and m >= 1, "imprimitive type needs n = m*t")
    d = gcd(n, q + 1)
    h0 = gu_order(m, q) ** t * factorial(t) // (d * (q + 1))
    return SubgroupEntry(g, "C2", f"GU({m},{q}) wr S{t}", (("m", m), ("t", t)),
                         h0, out_order(g), formula="psu-c2")


def psu_c2_gl(g):
    n, q = g.n, g.q.q
    _require(n % 2 == 0, "the GL-type imprimitive subgroup needs even n")
    d = gcd(n, q + 1)
    h0 = gl_order(n // 2, q * q) * 2 // (d * (q + 1))
    return SubgroupEntry(g, "C2", f"GL({n // 2},{q}^2).2", (), h0, out_order(g),
                         formula="psu-c2-gl")


def psu_c3(g, m, r):
    n, q = g.n, g.q.q
    _require(n == m * r and r >= 3 and r % 2 == 1 and is_prime(r),
             "unitary field extension needs an odd prime degree")
    d = gcd(n, q + 1)
    h0 = gu_order(m, q ** r) * r // (d * (q + 1))
    return SubgroupEntry(g, "C3", f"GU({m},{q}^{r})", (("m", m), ("r", r)),
                         h0, out_order(g), formula="psu-c3")


def psu_c4(g, n1, n2):
    n, q = g.n, g.q.q
    _require(n == n1 * n2 and 2 <= n1 < n2, "tensor type needs n = n1*n2, n1 < n2")
    d = gcd(n, q + 1)
    cc = gcd(gcd(q + 1, n1), n2)
    h0 = su_order(n1, q) * su_order(n2, q) * cc * cc // d
    return SubgroupEntry(g, "C4", f"GU({n1},{q}) (x) GU({n2},{q})", (("n1", n1), ("n2", n2)),
                         h0, out_order(g) // cc,
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
    return SubgroupEntry(g, "C5", f"GU({n},{q0})", (("q0", q0), ("r", r)),
                         h0, out_order(g) // c, formula="psu-c5")


def psu_c5_form(g, kind):
    n, q = g.n, g.q.q
    if kind == "Sp":
        _require(n % 2 == 0, "symplectic form subgroup needs even n")
        return SubgroupEntry(g, "C5", f"Sp({n},{q})", (), psp_order(n, q), 1,
                             bound=LOWER, formula="c8-classical-lower")
    _require(q % 2 == 1, "orthogonal form subgroup needs odd q")
    _require((kind == CIRC) == (n % 2 == 1), "odd n takes no sign, even n needs one")
    return SubgroupEntry(g, "C5", f"GO{eps_tag(kind)}({n},{q})", (),
                         so_order(n, kind, q), 1, bound=LOWER, formula="c8-classical-lower")


def psu_c6(g):
    """The extraspecial normalizer row of a host over a prime field, where
    its dimension and q admit one (there is never more than one)."""
    n, qq = g.n, g.q
    q = qq.q
    _require(qq.e == 1, "extraspecial normalizers need prime fields")
    if n == 3 and q % 3 == 2:
        cc = gcd(9, q + 1) // 3
        return SubgroupEntry(g, "C6", "3^(1+2):Sp2(3)", (), 72 * cc, 2 * gcd(3, q + 1) // cc,
                             name="3^2:Q8" if cc == 1 else "3^2:Q8.3", formula="psu-c6-n3")
    if n == 4 and q % 8 == 3:
        return SubgroupEntry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", (), 16 * alt_order(6), 4,
                             name="2^4.A6", formula="psu-c6-n4")
    if n == 4 and q % 8 == 7:
        return SubgroupEntry(g, "C6", "(4 o 2^(1+4)).Sp4(2)", (), 16 * sym_order(6), 2,
                             name="2^4.S6", formula="psu-c6-n4")
    _require(n >= 8 and n & (n - 1) == 0 and q % 4 == 3,
             "no extraspecial normalizer for this n and q")
    m = n.bit_length() - 1
    return SubgroupEntry(g, "C6", f"(4 o 2^(1+{2 * m})).Sp{2 * m}(2)", (),
                         2 ** (2 * m) * sp_order(2 * m, 2), 2,
                         name=f"2^{2 * m}.Sp{2 * m}(2)", formula="psu-c6-n8")


def psu_c7(g, m, t):
    n, q = g.n, g.q.q
    _require(n == m ** t and m >= 3 and t >= 2, "tensor-power type needs n = m^t, m >= 3")
    _require((m, q) != (3, 2), "the (3,2) tensor-power case does not occur")
    h0 = su_order(m, q) ** t * factorial(t)
    return SubgroupEntry(g, "C7", f"GU({m},{q}) wr S{t} (tensor)", (("m", m), ("t", t)),
                         h0, out_order(g), bound=UPPER, formula="psu-c7")


# ---------------------------------------------------------------------------
# symplectic hosts
# ---------------------------------------------------------------------------


def psp_c2_gl(g):
    n, q = g.n, g.q.q
    d = gcd(2, q - 1)
    return SubgroupEntry(g, "C2", f"GL({n // 2},{q}).2", (),
                         2 * gl_order(n // 2, q) // d, 1, bound=LOWER,
                         formula="psp-c2-gl-lower")


def psp_c2_wr(g, m, t):
    n, q = g.n, g.q.q
    _require(n == m * t and t >= 2 and m >= 2 and m % 2 == 0,
             "imprimitive type needs n = m*t with even m")
    _require((m, q) != (2, 2), "blocks Sp2(2) do not occur")
    h0 = sp_order(m, q) ** t * factorial(t) // gcd(2, q - 1)
    return SubgroupEntry(g, "C2", f"Sp({m},{q}) wr S{t}", (("m", m), ("t", t)),
                         h0, _out_without_graph(g), formula="psp-c2")


def psp_c3(g, m, r):
    n, q = g.n, g.q.q
    _require(n == m * r and is_prime(r), "extension degree must be prime")
    _require(m % 2 == 0, "the symplectic space over GF(q^r) needs even m")
    h0 = r * sp_order(m, q ** r) // gcd(2, q - 1)
    return SubgroupEntry(g, "C3", f"Sp({m},{q}^{r})", (("m", m), ("r", r)),
                         h0, _out_without_graph(g), formula="psp-c3")


def psp_c3_gu(g):
    n, q = g.n, g.q.q
    d = gcd(2, q - 1)
    return SubgroupEntry(g, "C3", f"GU({n // 2},{q})", (), gu_order(n // 2, q) // d,
                         1, bound=LOWER, formula="psp-c3-gu-lower")


def psp_c4(g, n1, n2, eps):
    n, q = g.n, g.q.q
    _require(q % 2 == 1, "symplectic-orthogonal tensor needs odd q")
    _require(n == n1 * n2 and n1 % 2 == 0 and n1 >= 2 and n2 >= 3 and eps in signs(n2),
             "tensor type needs n = n1*n2 with n1 even, n2 >= 3, a sign for n2")
    # |PGO_n2^eps(q)|: GO modulo its center of order 2, q being odd
    h0 = psp_order(n1, q) * (go_order(n2, eps, q) // 2) * gcd(2, n2)
    return SubgroupEntry(g, "C4", f"Sp({n1},{q}) (x) GO{eps_tag(eps)}({n2},{q})",
                         (("eps", eps), ("n1", n1), ("n2", n2)), h0,
                         _out_without_graph(g), formula="psp-c4")


def psp_c5(g, r):
    n, qq = g.n, g.q
    _require(qq.e % r == 0 and is_prime(r), "subfield index must be a prime dividing e")
    q0 = qq.p ** (qq.e // r)
    cc = gcd(gcd(2, qq.q - 1), r)
    h0 = psp_order(n, q0) * cc
    return SubgroupEntry(g, "C5", f"Sp({n},{q0})", (("q0", q0), ("r", r)),
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
    return SubgroupEntry(g, "C6", f"2^(1+{2 * m}).O{2 * m}-(2)", (), h0, o1,
                         name=name, formula="psp-c6")


def psp_c7(g, m, t):
    n, q = g.n, g.q.q
    _require(n == m ** t and m >= 2 and m % 2 == 0 and t >= 2,
             "tensor-power type needs n = m^t with even m")
    _require(q % 2 == 1 and t % 2 == 1, "this type needs q and t odd")
    _require((m, q) != (2, 3), "the (2,3) tensor-power case does not occur")
    h0 = sp_order(m, q) ** t * factorial(t) // gcd(2, q - 1)
    return SubgroupEntry(g, "C7", f"Sp({m},{q}) wr S{t} (tensor)", (("m", m), ("t", t)),
                         h0, _out_without_graph(g), formula="psp-c7")


# ---------------------------------------------------------------------------
# orthogonal hosts
# ---------------------------------------------------------------------------


def eps_tag(eps):
    return "" if eps == CIRC else eps


def _framed_sign(n, q):
    """The sign of the n-dimensional form with an orthonormal basis over
    GF(q), n even and q odd: the square class of its discriminant."""
    return PLUS if ((q - 1) * n // 4) % 2 == 0 else MINUS


def pso_c2_gl(g):
    n, eps, q = g.n, g.eps, g.q.q
    _require(n % 2 == 0 and eps == PLUS, "the GL-type stabilizer needs plus type")
    return SubgroupEntry(g, "C2", f"GL({n // 2},{q}).2", (),
                         gl_order(n // 2, q) // ((q - 1) * 4), 1, bound=LOWER,
                         formula="pso-c2-gl-lower")


# the framed-basis rows whose |H0| is known exactly, by (q, n): (k, "A")
# for |H0| = 2^k |A_n|, (k, "S") for 2^k |S_n|.  Every other (q, n) keeps
# the upper bound 2^(n-1) n!.
_FRAMED = {(3, n): (n - gcd(2, n) - 1, "A") for n in range(7, 14)} | {
    (3, 14): (12, "A"), (3, 15): (14, "A"),
    (5, 7): (5, "S"), (5, 8): (6, "A"), (5, 9): (8, "A")}


def pso_c2_o1p(g):
    """Type GO1(p) wr Sn: the framed-basis stabilizer over a prime field."""
    n, eps, qq = g.n, g.eps, g.q
    q = qq.q
    _require(qq.e == 1 and q % 2 == 1, "framed-basis stabilizer needs odd prime q")
    if n % 2:
        _require(eps == CIRC, "odd dimension takes no sign")
    else:
        _require(eps == _framed_sign(n, q), "sign forced by the discriminant of the framed form")
    if (q, n) in _FRAMED:
        k, top = _FRAMED[q, n]
        h0 = 2 ** k * (alt_order(n) if top == "A" else sym_order(n))
        name, bound = f"2^{k}.{top}{n}", EXACT
    else:
        h0, name, bound = 2 ** (n - 1) * factorial(n), f"<= 2^{n - 1}.S{n}", UPPER
    if n % 2:
        o1 = 2 if q % 8 in (3, 5) else 1
    else:
        o1 = 4 if q % 8 in (3, 5) else 2
    return SubgroupEntry(g, "C2", f"GO1({q}) wr S{n}", (), h0, o1, bound=bound,
                         name=name, formula="pso-c2-o1p")


def pso_c2_go_wr(g, m, eps1, t):
    n, eps, q = g.n, g.eps, g.q.q
    _require(n == m * t and t >= 2, "imprimitive type needs n = m*t")
    _require(m >= 2, "blocks of dimension 1 are the framed-basis type")
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
    return SubgroupEntry(g, "C2", f"GO{eps_tag(eps1)}({m},{q}) wr S{t}",
                         (("eps1", eps1), ("m", m), ("t", t)), h0 // z, _out_without_graph(g),
                         formula="pso-c2-go-wr")


def pso_c3(g, kind):
    n, eps, q = g.n, g.eps, g.q.q
    m = n // 2
    if kind == "GU":
        _require(eps == (PLUS if m % 2 == 0 else MINUS),
                 "the unitary field-change type needs n = 2m and sign (-1)^m")
        return SubgroupEntry(g, "C3", f"GU({m},{q})", (),
                             gu_order(m, q) // (gcd(2, q - 1) * (q + 1)), 1,
                             bound=LOWER, formula="pso-c3-lower")
    if kind == "GOo":
        _require(n % 4 == 2 and q % 2 == 1, "the odd-block field change needs n = 2 mod 4, q odd")
        ksign = CIRC
    else:
        _require(n % 4 == 0 and eps != CIRC, "the signed field change needs 4 | n")
        ksign = eps
    return SubgroupEntry(g, "C3", f"GO{eps_tag(ksign)}({m},{q}^2)", (),
                         omega_order(m, ksign, q * q) // 2, 1,
                         bound=LOWER, formula="pso-c3-lower")


def pso_c3_extra(g, m, s):
    n, eps, q = g.n, g.eps, g.q.q
    _require(n == m * s and m >= 3 and s % 2 == 1 and is_prime(s),
             "degree must be an odd prime with n = m*s")
    _require(eps != CIRC or m % 2 == 1, "sign must match the block dimension")
    z = pomega_center(n, eps, q)
    h0 = omega_order(m, eps if m % 2 == 0 else CIRC, q ** s) * s
    _require(h0 % z == 0, "central quotient must divide the stabilizer order")
    return SubgroupEntry(g, "C3", f"GO{eps_tag(eps)}({m},{q}^{s})", (("m", m), ("s", s)),
                         h0 // z, _out_without_graph(g), formula="pso-c3-extra")


def pso_c4(g):
    """Type Sp_2(q) (x) Sp_{n/2}(q) in a plus-type host, 4 | n.  Exact for q
    odd: |Sp_2 x Sp_{n/2}| / 2 times the diagonal part gcd(2, n/4), over the
    center of order 2; for q even the lower bound |PSp_2(q) x PSp_{n/2}(q)|."""
    n, q = g.n, g.q.q
    _require(g.eps == PLUS and n % 4 == 0, "the symplectic tensor type needs plus type")
    desc = f"Sp(2,{q}) (x) Sp({n // 2},{q})"
    if q % 2:
        h0 = sp_order(2, q) * sp_order(n // 2, q) // 2 * gcd(2, n // 4) // 2
        return SubgroupEntry(g, "C4", desc, (), h0, _out_without_graph(g), formula="pso-c4-odd")
    return SubgroupEntry(g, "C4", desc, (), sp_order(2, q) * sp_order(n // 2, q), 1,
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
    return SubgroupEntry(g, "C5", f"GO{eps_tag(eps_sub)}({n},{q0})",
                         (("q0", q0), ("r", r)), h0, _out_without_graph(g), formula="pso-c5")


def pso_c6(g):
    n, qq = g.n, g.q
    q = qq.q
    _require(g.eps == PLUS, "extraspecial normalizer needs plus type")
    _require(qq.e == 1 and q % 2 == 1, "extraspecial normalizer needs odd prime q")
    _require(n >= 8 and n & (n - 1) == 0, "extraspecial normalizer needs n = 2^m >= 8")
    m = n.bit_length() - 1
    cc = 4 if q % 8 in (3, 5) else 8
    h0 = 2 ** (2 * m + 2) * omega_order(2 * m, PLUS, 2) // cc
    return SubgroupEntry(g, "C6", f"2^(2+{2 * m}).O{2 * m}+(2)", (), h0, 8 // cc,
                         name=f"2^{2 * m}.O{2 * m}+(2)", formula="pso-c6")


# the kinds of pso_c7, each with the block sign it takes
PSO_C7_KINDS = (("sp", None), ("circ", None), ("signed", PLUS), ("signed", MINUS))


def pso_c7(g, m, t, kind, eps1):
    n, eps, q = g.n, g.eps, g.q.q
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
    return SubgroupEntry(g, "C7", desc, (("m", m), ("t", t)), h0, _out_without_graph(g),
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
    return entry._replace(params=entry.params + (("item", label),))


def _pool_row(g, formula, desc, h0, name=None, params=(), o1=None, bound=EXACT):
    """A row of an exceptional pool of the host g: class X, |O1| = |Out(g)|
    and the name desc unless the row gives its own."""
    return SubgroupEntry(g, "X", desc, params, h0, out_order(g) if o1 is None else o1,
                         bound=bound, name=desc if name is None else name, formula=formula)


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
    row = partial(_pool_row, g, "sp4-graph")
    rows = [row("[q^4]:(q-1)^2", q ** 4 * (q - 1) ** 2), row("(q-1)^2:D8", (q - 1) ** 2 * 8),
            row("(q+1)^2:D8", (q + 1) ** 2 * 8), row("(q^2+1):4", (q * q + 1) * 4)]
    for r in _prime_divisors(qq.e):
        q0 = qq.p ** (qq.e // r)
        rows.append(row(f"Sp(4,{q0})", sp_order(4, q0), f"Sp4({q0})", (("q0", q0), ("r", r))))
    if qq.e % 2 == 1 and qq.e >= 3:
        rows.append(row(f"Sz({q})", sz_order(q)))
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
    row = partial(_pool_row, g, "o8-tri")
    rows = [("i", row("parabolic", q ** 12, bound=LOWER)), ("ii", row(f"G2({q})", g2_order(q)))]
    rows += [("iii", row(f"GO{e2}(2,{q}) perp GO{e2}(6,{q})", omega_order(6, e2, q) // d,
                         f"O{e2}6 point", bound=LOWER)) for e2 in (PLUS, MINUS)]
    if qq.e == 1 and q % 2 == 1:
        rows.append(("iv", row("2^3.2^6.PSL3(2)", 2 ** 9 * 168)))
    rows.append(("v", pso_c2_go_wr(g, 2, MINUS, 4)))
    if q >= 5:
        rows.append(("vi", pso_c2_go_wr(g, 2, PLUS, 4)))
    if q >= 3:
        rows.append(("vii", pso_c2_go_wr(g, 4, PLUS, 2)))
    rows.append(("viii", row("(D_{2(q^2+1)/d})^2.[2d].S2", (2 * (q * q + 1) // d) ** 2 * 2 * d * 2,
                             "torus normalizer")))
    if qq.e % 2 == 0:
        rows += [("ix", pso_c5(g, 2, e2)) for e2 in (PLUS, MINUS)]
    if qq.e % 3 == 0:
        rows.append(("ix", pso_c5(g, 3, PLUS)))
    if q % 3 == 1:
        rows.append(("x", row(f"PSL3({q}).3", 3 * psl_order(3, q), o1=6 * qq.e)))
    if q % 3 == 2 and q != 2:
        rows.append(("x", row(f"PSU3({q}).3", su_order(3, q), o1=6 * qq.e)))
    if qq.e % 3 == 0:
        q0 = qq.p ** (qq.e // 3)
        rows.append(("xi", row(f"3D4({q0})", tri_d4_order(q0), params=(("q0", q0),))))
    if qq.e == 1 and q % 2 == 1:
        rows.append(("xii", row("POmega8+(2)", pomega_order(8, PLUS, 2))))
    if q == 5:
        rows.append(("xiii", row("Sz(8)", sz_order(8))))
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


class TableRow(NamedTuple):
    """One row of the irreducible almost simple candidate tables.

    Its host and subgroup patterns name the field size q, and its condition
    restricts q; a fixed row names no q and has condition "-".  instantiate
    is the one reader: a host written in q0^2 or q0^3 takes only a square
    or a cube q, whose root is the subgroup's q0.  sample is the row built
    at the first field size of _SAMPLE_QS it admits, set by _load_table.
    """

    g0_pattern: str
    h0_pattern: str
    condition: str
    remark: str
    table: str
    sample: tuple = None

    def matches_q(self, qq):
        """Whether the condition admits the prime power qq."""
        cond = self.condition
        if cond == "-" or cond == "q:any":
            return True
        if cond == "q:odd":
            return qq.p != 2
        if cond == "q:even":
            return qq.p == 2
        if cond == "q:sz":
            return qq.p == 2 and qq.e % 2 == 1 and qq.e >= 3
        values = cond[5:].split(",")
        if cond.startswith("q:in:") and all(v.isdecimal() for v in values):
            return qq.q in set(map(int, values))
        raise DataIntegrityError(f"bad condition {cond!r}")

    def instantiate(self, q):
        """Concrete (host, subgroup name, |H0|) at field size q, or None if
        the row does not apply there."""
        qq = parse_prime_power(q)
        k = 2 if "q0^2" in self.g0_pattern else 3 if "q0^3" in self.g0_pattern else 1
        if qq.e % k or not self.matches_q(qq):
            return None
        value = {"q": str(qq.q), "q0": str(qq.p ** (qq.e // k))}
        h0_name = _FIELD.sub(lambda m: value.get(m[0], m[0]), self.h0_pattern)
        return (parse_group(_FIELD.sub(value["q"], self.g0_pattern)), h0_name,
                subgroup_name_order(h0_name))


# a field size in a pattern: q, its root q0, or a host's q0^2 or q0^3 (q
# itself); a host names only q, so every one in it is q
_FIELD = re.compile(r"\bq0\^[23]|\bq0?\b")
# the probe for a row's sample: an odd q first, then a square and a cube for
# a q0^2 or q0^3 host, 4 for q:even and 8 for q:sz; a fixed host ignores q
_SAMPLE_QS = (3, 9, 27, 4, 8)


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
            got = next(filter(None, map(row.instantiate, _SAMPLE_QS)), None)
        except LargeAtlasError as exc:
            raise DataIntegrityError(f"{fname}:{lineno}: {exc}") from None
        if got is None:
            raise DataIntegrityError(f"{fname}:{lineno}: sample field size rejected")
        g0, h0_name, h0_order = got
        if order(g0) % h0_order:
            raise DataIntegrityError(
                f"{fname}:{lineno}: |{h0_name}| does not divide |{g0}|")
        rows.append(row._replace(sample=got))
    return tuple(rows)


@cache
def table_rows(which):
    """Rows of table 'A' (alternating socle on the deleted permutation
    module) or 'B' (the other irreducible almost simple candidates)."""
    if which not in ("A", "B"):
        raise UnknownCase(f"no table {which!r}")
    return _load_table(f"table_{which.lower()}.txt", which)


@cache
def _rows_by_shape():
    """The rows of tables A and B, in table order, keyed by the (family, n,
    sign) of their sample host; loading the tables checks every row."""
    index = {}
    for which in ("A", "B"):
        for row in table_rows(which):
            host = row.sample[0]
            index.setdefault((host.family, host.n, host.eps), []).append(row)
    return index


def table_entries(g0):
    """The table A and B rows stated for the host g0.  A row is built at
    g0's field size only when its host has g0's family, n and sign."""
    out = []
    for row in _rows_by_shape().get((g0.family, g0.n, g0.eps), ()):
        got = row.instantiate(g0.q)
        if got is None or got[0] != g0:
            continue
        _, h0_name, h0_order = got
        out.append(SubgroupEntry(g0, "A" if row.table == "A" else "S",
                                 h0_name, (), h0_order, out_order(g0), name=h0_name,
                                 formula=f"table-{row.table.lower()}-row"))
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
    """(m, t) with n = m*t and t >= 2, t ascending: C2's block splits; reversed, C4's factors."""
    return [(g.n // t, t) for t in range(2, g.n + 1) if g.n % t == 0]


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
        ("C4", psl_c4, lambda g: _splits(g)[::-1]),
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
        ("C4", psu_c4, lambda g: _splits(g)[::-1]),
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


# every class a row can carry, in lower case: those of CONSTRUCTORS, A and S
# of the Table A/B rows, and X of the exceptional pools
CLASSES = (frozenset(c.lower() for rows in CONSTRUCTORS.values() for c, _, _ in rows)
           | {"a", "s", "x"})


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
    if klass is not None:
        klass = klass.lower()
    out = []
    for c, fn, arguments in CONSTRUCTORS[g0.family]:
        if klass is not None and c.lower() != klass:
            continue
        for args in arguments(g0):
            try:
                out.append(fn(g0, *args))
            except ConstraintViolation:
                continue
    if klass is None:
        out.extend(table_entries(g0))
    elif klass in ("a", "s"):
        out.extend(e for e in table_entries(g0) if e.aschbacher_class.lower() == klass)
    return out
