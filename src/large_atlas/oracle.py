"""Independent brute-force checks for small matrix group orders.

This module counts invertible matrices over tiny finite fields by
enumeration, without using any of the closed-form order formulas.  It exists
so the formula module can be validated against an implementation that shares
nothing with it: it imports only `arith` (to parse q), `errors` and the
standard library.  The fields are GF(p) for any prime p and GF(p^2) for the
primes in _QUADRATICS (so up to GF(49)); GL/SL counts take n <= 3 (n = 3 up
to GF(13)) and GU/SU counts n <= 2.  That is enough to pin down every
formula family.  The tests count GL/SL up to GF(9) and GU/SU up to GF(49),
the unitary groups row by row: first rows of norm 1, then the second rows
orthogonal to each.

A GL/SL count expands the determinant along the last row.  The top rows
are tallied by their cofactor vector; for n = 3 that tally is read from
three tables of 2 x 2 minors, summed and counted in C loops (_gl_tally).
The last rows of each cofactor vector are then matched through hit tables
that count, per value of the last term, the partial sums that give a
determinant zero or one (_last_rows).  Every pair of top rows and every
last row is visited; no counting lemma is used.

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
from operator import add as plus

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
    read from the one enumeration of (n, q) in _gl_tally.  An n = 3 count
    takes q <= 13: its minor tables hold 3 q^5 integers, about 10 MB at
    GF(13) but 7 GB at GF(49)."""
    if not 1 <= n <= 3:
        raise UnsupportedGroup(f"count_gl supports 1 <= n <= 3, not n = {n}")
    if n == 3 and q > 13:
        raise UnsupportedGroup(f"count_gl supports n = 3 up to GF(13), not GF({q})")
    return _gl_tally(n, q)[1 if det_one else 0]


@cache
def _gl_tally(n, q):
    """(invertible, det 1) counts of n x n matrices over GF(q), from one
    enumeration.

    The determinant is expanded along the last row.  The first n - 1 rows
    are enumerated once and tallied by their cofactor vector: (1) for
    n = 1, (-b, a) for a first row (a, b), and for n = 3 the three 2 x 2
    minors (bf - ce, cd - af, ae - bd) of a top row (a, b, c) over a second
    row (d, e, f).  _last_rows then counts the last rows of each distinct
    cofactor vector.

    For n = 3 each minor reads only two entries of the top row, so three
    minor tables list it once per such pair over all q^3 second rows,
    scaled so that k1 q^2 + k2 q + k3 packs the vector into one integer
    key.  They are laid out from one table of 2 x 2 determinants: q^4 field
    steps, then at most 3 q^5 list steps.  Each of the q^3 top rows adds
    its three lists and counts the q^3 keys in C loops, so the q^6 pairs of
    top rows take no step of Python code.
    """
    F = _field(q)
    els, sub, mul = F.elements, F._sub, F._mul
    if n == 1:
        tally = {(1,): 1}
    elif n == 2:
        tally = Counter((sub[0][b], a) for a, b in product(els, repeat=2))
    else:
        qq = q * q
        # minor[x q + y][u q + v] = x v - y u
        minor = [[sub[mx[v]][my[u]] for u, v in product(els, repeat=2)]
                 for mx, my in product(mul, repeat=2)]
        # each top pair's minor over the second rows (d, e, f), in product order:
        # bf - ce = minor[b q + c][e q + f], the same for every d;
        # cd - af = minor[c q + a][f q + d], the same for every e;
        # ae - bd = minor[a q + b][d q + e], the same for every f
        k1 = [[k * qq for k in m] * q for m in minor]
        k2 = [[k * q for d in els for k in m[d::q] * q] for m in minor]
        k3 = [[k for k in m for _ in els] for m in minor]
        keys = Counter()
        for a, b, c in product(els, repeat=3):
            keys.update(map(plus, map(plus, k1[b * q + c], k2[c * q + a]), k3[a * q + b]))
        tally = {(k // qq, k // q % q, k % q): mult for k, mult in keys.items()}
    return _last_rows(F, n, tally)


def _last_rows(F, n, tally):
    """(nonzero, unit) determinant counts of the n x n matrices whose first
    n - 1 rows have the cofactor vectors in tally, each counted as many
    times as its multiplicity: a last row x gives x_1 c_1 + ... + x_n c_n.

    The partial sums s = x_1 c_1 + ... + x_(n-1) c_(n-1) of each head
    (c_1, ..., c_(n-1)) are listed once, q^(n-1) field steps, and tallied
    in C into two hit tables: for each value v of the last term x_n c_n,
    how many sums make the determinant zero (s = -v) and how many make it
    one (s = 1 - v).  Each cofactor vector then reads its q last terms
    through them in C loops.  For n = 3 that is at most q^2 heads, so q^4
    field steps.
    """
    add, mul = F._add, F._mul
    neg, one_minus = F._sub[0], F._sub[1]
    hit_tables = {}
    zero = unit = 0
    for cof, mult in tally.items():
        head = cof[:-1]
        hits = hit_tables.get(head)
        if hits is None:
            # x c = c x, so the row mul[c] lists x c for every x
            sums = [0]
            for c in head:
                sums = [add[s][t] for s in sums for t in mul[c]]
            hits = hit_tables[head] = (list(map(sums.count, neg)).__getitem__,
                                       list(map(sums.count, one_minus)).__getitem__)
        last_terms = mul[cof[-1]]
        zero += mult * sum(map(hits[0], last_terms))
        unit += mult * sum(map(hits[1], last_terms))
    return F.q ** (n * n) - zero, unit


def count_gu(n, q0, det_one=False):
    """Count n x n unitary matrices over GF(q0^2), optionally with det 1,
    read from the one enumeration of (n, q0) in _gu_tally (n <= 2)."""
    if not 1 <= n <= 2:
        raise UnsupportedGroup(f"count_gu supports 1 <= n <= 2, not n = {n}")
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
