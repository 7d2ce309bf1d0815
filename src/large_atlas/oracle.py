"""Independent brute-force checks for small matrix group orders.

This module counts invertible matrices over tiny finite fields by
enumeration, without using any of the closed-form order formulas.  It exists
so the formula module can be validated against an implementation that shares
nothing with it: it imports only `arith` (to parse q), `errors` and the
standard library.  The fields are GF(p) for any prime p and GF(p^2) for the
primes in _QUADRATICS (so up to GF(49)); GL/SL counts take n <= 3 and GU/SU
counts n <= 2.  That is enough to pin down every formula family.  The tests
count GL/SL up to GF(7) and GU/SU up to GF(49), the unitary groups row by
row: first rows of norm 1, then the second rows orthogonal to each.

One enumeration per (n, q) serves GL, SL and Sp2: it counts the nonzero
and the unit determinants together, and the result is kept in a private
memo (_gl_tally), so count_gl(n, q), count_gl(n, q, det_one=True) and
count_sp2(q) share one brute-force count.  GU and SU share one count per
(n, q0) the same way (_gu_tally).  Each field's tables are built once
and shared by its counts (_field).  The memos hold counts and fields only;
no count reads an order formula.
"""

from collections import Counter
from functools import cache
from itertools import product

from .arith import parse_prime_power
from .errors import UnsupportedGroup

# irreducible quadratics x^2 + bx + c over GF(p), one per small prime
_QUADRATICS = {2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}


class SmallField:
    """GF(p) or GF(p^2) with elements encoded as integers 0..q-1.

    Degree-two elements are pairs (a0, a1) packed as a0 + p*a1, representing
    a0 + a1*x modulo an irreducible quadratic x^2 + bx + c of _QUADRATICS.
    The addition, subtraction and multiplication tables are built once, at
    construction; an element of GF(p) is the pair (a, 0).
    """

    def __init__(self, q):
        pp = parse_prime_power(q)
        if pp.e > 2 or (pp.e == 2 and pp.p not in _QUADRATICS):
            raise UnsupportedGroup(f"SmallField supports GF(p) and GF(p^2) for small p, not {q}")
        self.p = p = pp.p
        self.e = pp.e
        self.q = pp.q
        self.elements = list(range(self.q))
        pairs = [(a % p, a // p) for a in self.elements]
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -b x - c; over GF(p) a1 = b1 = 0
        b, c = _QUADRATICS.get(p, (0, 0))
        self._add = [[(a0 + b0) % p + p * ((a1 + b1) % p) for b0, b1 in pairs]
                     for a0, a1 in pairs]
        self._sub = [[(a0 - b0) % p + p * ((a1 - b1) % p) for b0, b1 in pairs]
                     for a0, a1 in pairs]
        self._mul = [[(a0 * b0 - a1 * b1 * c) % p
                      + p * ((a0 * b1 + a1 * b0 - a1 * b1 * b) % p) for b0, b1 in pairs]
                     for a0, a1 in pairs]

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._sub[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def frob(self, a):
        """The q0-power map on GF(q0^2), identity on a prime field."""
        if self.e == 1:
            return a
        r = a
        for _ in range(self.p - 1):
            r = self.mul(r, a)
        return r


@cache
def _field(q):
    """The SmallField of order q, built once per field size."""
    return SmallField(q)


def count_gl(n, q, det_one=False):
    """Count invertible n x n matrices over GF(q), optionally with det 1,
    read from the one enumeration of (n, q) in _gl_tally."""
    if not 1 <= n <= 3:
        raise UnsupportedGroup(f"count_gl supports n <= 3, not n = {n}")
    return _gl_tally(n, q)[1 if det_one else 0]


@cache
def _gl_tally(n, q):
    """(invertible, det 1) counts of n x n matrices over GF(q), from one
    enumeration.

    The determinant is expanded along the last row.  The first n - 1 rows
    are enumerated once and tallied by their cofactor vector c: (1) for
    n = 1, (-b, a) for a first row (a, b), and for n = 3 the three 2 x 2
    minors of the top two rows, written out over rows of the multiplication
    table.  For each distinct c, every last row x is enumerated once and its
    determinant x_1 c_1 + ... + x_n c_n evaluated; each nonzero and each
    unit determinant counts as many matrices as c's multiplicity.  For
    n = 3 that is at most q^6 + q^3 (q + q^2 + q^3) field steps in place of
    the q^9 matrices.
    """
    F = _field(q)
    els, add, sub, mul = F.elements, F._add, F._sub, F._mul
    if n == 1:
        tally = {(1,): 1}
    elif n == 2:
        tally = Counter((sub[0][b], a) for a, b in product(els, repeat=2))
    else:
        tally = Counter()
        rows = list(product(els, repeat=3))
        for a, b, c in rows:
            ma, mb, mc = mul[a], mul[b], mul[c]
            tally.update((sub[mb[f]][mc[e]], sub[mc[d]][ma[f]], sub[ma[e]][mb[d]])
                         for d, e, f in rows)
    invertible = unit = 0
    for cof, mult in tally.items():
        # the determinants of all q^n last rows, built column by column from
        # the partial sums x_1 c_1 + ... + x_j c_j, in product(els, repeat=n) order
        dets = [0]
        for c in cof:
            dets = [add[d][mul[x][c]] for d in dets for x in els]
        invertible += mult * (len(dets) - dets.count(0))
        unit += mult * dets.count(1)
    return invertible, unit


def count_gu(n, q0, det_one=False):
    """Count n x n unitary matrices over GF(q0^2), optionally with det 1,
    read from the one enumeration of (n, q0) in _gu_tally (n <= 2)."""
    if not 1 <= n <= 2:
        raise UnsupportedGroup(f"count_gu supports n <= 2, not n = {n}")
    return _gu_tally(n, q0)[1 if det_one else 0]


@cache
def _gu_tally(n, q0):
    """(all, det 1) counts of n x n unitary matrices over GF(q0^2), from one
    enumeration.

    A matrix is unitary when its rows have norm x x^q0 summed to 1 and are
    orthogonal under the hermitian form.  The q0-power and norm tables are
    built once per field.  For n = 1 the count reads the norm table.  For
    n = 2 the rows of norm 1 are listed once; for each first row, every
    second row is tested for orthogonality, and the determinant is checked
    last.  Every matrix with two rows of norm 1 is visited; the ones left
    out have a row of another norm, and no unitary matrix has one.
    """
    F = _field(q0 * q0)
    els, add, sub, mul = F.elements, F._add, F._sub, F._mul
    frob = [F.frob(a) for a in els]
    norm = [mul[a][frob[a]] for a in els]
    if n == 1:
        return sum(1 for a in els if norm[a] == 1), int(norm[1] == 1)
    unit = [(a, b) for a, b in product(els, repeat=2) if add[norm[a]][norm[b]] == 1]
    count = special = 0
    for a, b in unit:
        # (c, d) is orthogonal to (a, b) when c a^q0 + d b^q0 = 0
        fa, fb = mul[frob[a]], mul[frob[b]]
        ma, mb = mul[a], mul[b]
        for c, d in unit:
            if add[fa[c]][fb[d]] == 0:
                det = sub[ma[d]][mb[c]]
                count += det != 0
                special += det == 1
    return count, special


def count_sp2(q):
    """|Sp_2(q)| counted directly: 2 x 2 matrices of determinant 1, the
    det-1 count of the one enumeration that count_gl(2, q) reads."""
    return count_gl(2, q, det_one=True)
