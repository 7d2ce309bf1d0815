"""Independent brute-force checks for small matrix group orders.

This module counts invertible matrices over tiny finite fields by
enumeration, without using any of the closed-form order formulas.  It exists
so the formula module can be validated against an implementation that shares
nothing with it: it imports only `arith` (to parse q), `errors` and the
standard library.  The fields are GF(p) for any prime p and GF(p^2) for the
primes in _QUADRATICS (so up to GF(49)); GL/SL counts take n <= 3 and GU/SU
counts n <= 2.  That is enough to pin down every formula family.
"""

from collections import Counter
from itertools import product

from .arith import parse_prime_power
from .errors import UnsupportedGroup

# irreducible quadratics x^2 + bx + c over GF(p), one per small prime
_QUADRATICS = {2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}


class SmallField:
    """GF(p) or GF(p^2) with elements encoded as integers 0..q-1.

    Degree-two elements are pairs (a0, a1) packed as a0 + p*a1, representing
    a0 + a1*x modulo an irreducible quadratic.
    """

    def __init__(self, q):
        pp = parse_prime_power(q)
        if pp.e > 2 or (pp.e == 2 and pp.p not in _QUADRATICS):
            raise UnsupportedGroup(f"SmallField supports GF(p) and GF(p^2) for small p, not {q}")
        self.p = pp.p
        self.e = pp.e
        self.q = pp.q
        self.elements = list(range(self.q))
        self._add = [[self._add_raw(a, b) for b in self.elements] for a in self.elements]
        self._sub = [[self._sub_raw(a, b) for b in self.elements] for a in self.elements]
        self._mul = [[self._mul_raw(a, b) for b in self.elements] for a in self.elements]

    def _split(self, a):
        return (a % self.p, a // self.p)

    def _join(self, a0, a1):
        return a0 + self.p * a1

    def _add_raw(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return self._join((a0 + b0) % self.p, (a1 + b1) % self.p)

    def _mul_raw(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        bb, cc = _QUADRATICS[self.p]
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -bb*x - cc
        lo = a0 * b0
        mid = a0 * b1 + a1 * b0
        hi = a1 * b1
        return self._join((lo - hi * cc) % self.p, (mid - hi * bb) % self.p)

    def add(self, a, b):
        return self._add[a][b]

    def _sub_raw(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        a0, a1 = self._split(a)
        b0, b1 = self._split(b)
        return self._join((a0 - b0) % self.p, (a1 - b1) % self.p)

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


def _det2(F, m):
    a, b, c, d = m
    return F.sub(F.mul(a, d), F.mul(b, c))


def _cofactors(F, top):
    """Cofactors along the last row of an n x n matrix whose first n - 1 rows
    are `top` (n <= 3), so that det = sum over j of x_j * c_j for a last row x."""
    m, s = F._mul, F._sub
    if not top:
        return (1,)
    if len(top) == 1:
        (a, b), = top
        return (s[0][b], a)
    (a, b, c), (d, e, f) = top
    return (s[m[b][f]][m[c][e]], s[m[c][d]][m[a][f]], s[m[a][e]][m[b][d]])


def count_gl(n, q, det_one=False):
    """Count invertible n x n matrices over GF(q), optionally with det 1.

    The determinant is expanded along the last row.  The first n - 1 rows
    are enumerated once and tallied by their cofactor vector c.  For each
    distinct c, every last row x is enumerated once and its determinant
    x_1 c_1 + ... + x_n c_n evaluated; each hit counts as many matrices as
    c's multiplicity.  For n = 3 that is at most q^6 + q^3 (q + q^2 + q^3)
    field steps in place of the q^9 matrices.
    """
    if not 1 <= n <= 3:
        raise UnsupportedGroup(f"count_gl supports n <= 3, not n = {n}")
    F = SmallField(q)
    els, add, mul = F.elements, F._add, F._mul
    tally = Counter(_cofactors(F, top) for top in product(product(els, repeat=n), repeat=n - 1))
    count = 0
    for cof, mult in tally.items():
        # the determinants of all q^n last rows, built column by column from
        # the partial sums x_1 c_1 + ... + x_j c_j, in product(els, repeat=n) order
        dets = [0]
        for c in cof:
            dets = [add[d][mul[x][c]] for d in dets for x in els]
        count += mult * (dets.count(1) if det_one else len(dets) - dets.count(0))
    return count


def count_gu(n, q0, det_one=False):
    """Count n x n unitary matrices over GF(q0^2) by enumeration (n <= 2)."""
    F = SmallField(q0 * q0)
    els = F.elements
    count = 0
    if n == 1:
        for a in els:
            if a and F.mul(a, F.frob(a)) == 1:
                if not det_one or a == 1:
                    count += 1
        return count
    if n == 2:
        for m in product(els, repeat=4):
            a, b, c, d = m
            fa, fb, fc, fd = (F.frob(x) for x in m)
            # M * conj(M)^T = I
            if F.add(F.mul(a, fa), F.mul(b, fb)) != 1:
                continue
            if F.add(F.mul(c, fa), F.mul(d, fb)) != 0:
                continue
            if F.add(F.mul(c, fc), F.mul(d, fd)) != 1:
                continue
            det = _det2(F, m)
            if det != 0 and (not det_one or det == 1):
                count += 1
        return count
    raise UnsupportedGroup(f"count_gu supports n <= 2, not n = {n}")


def count_sp2(q):
    """|Sp_2(q)| counted directly: 2 x 2 matrices of determinant 1."""
    return count_gl(2, q, det_one=True)
