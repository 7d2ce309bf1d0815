"""Reference answers the benchmark checks the program's outputs against.

Nothing here imports large_atlas: every value is either a literal written
into the benchmark or a closed form evaluated by this file's own code, so a
wrong answer from the program cannot also change the reference.
"""

from math import factorial, gcd

# Three fixed 61-bit primes.  Orders are compared by their residues modulo
# these, so a printed decimal of any length is checked without building it
# back into an integer.
PRIMES = (2305843009213693951, 2305843009213693921, 2305843009213693907)

# Sweep member lists as published (the golden files at the seed commit),
# one string per member in the program's "a,b,c" report format.
GOLDEN_MEMBERS = {
    'psl-c2-t3': (
        '3', '4', '5', '7', '8', '9', '11', '13', '16', '17', '19', '23', '25', '27',
        '32', '49', '64', '81', '128'),
    'psl-c3-r3': ('2', '3', '4', '5', '7', '8', '9', '11', '16', '27', '32'),
    'psl-c3-r5': ('5,2',),
    'psl-c4': (),
    'psl-c6': (
        '5,2,A4', '5,4,2^4.A6', '7,2,S4', '11,2,A4', '13,2,A4', '17,2,S4', '19,2,A4',
        '23,2,S4'),
    'psl-c7': (),
    'pso-c2-go-wr': ('2,2,4,-,+', '2,2,5,-,-', '2,4,3,-,-', '3,2,4,-,+'),
    'pso-c2-o1p': (
        '3,7', '3,8', '3,9', '3,10', '3,11', '3,12', '3,13', '3,14', '5,7', '5,8'),
    'pso-c3-extra': (),
    'pso-c4-large-n': (),
    'pso-c6': ('3,8',),
    'pso-c7': (),
    'psp-c2-t5': ('3,2,5', '4,2,5'),
    'psp-c3-r5': (),
    'psp-c4': (),
    'psp-c6': ('3,4', '3,8', '5,4', '7,4'),
    'psp-c7': (),
    'psu-c2-t3': (
        '2', '3', '4', '5', '7', '8', '9', '11', '13', '16', '17', '19', '23', '25',
        '27', '29', '32', '49', '64', '81', '128'),
    'psu-c2-t4plus': (
        '2,1,4', '2,1,5', '2,1,6', '2,1,7', '2,1,8', '2,1,9', '2,1,10', '2,1,11',
        '3,1,4', '3,1,5', '3,1,6', '4,1,4', '4,1,5', '5,1,4', '7,1,4', '8,1,4', '9,1,4'),
    'psu-c3-r3': ('2', '3', '4', '5', '7', '8', '9', '16', '27', '32'),
    'psu-c4': (),
    'psu-c6': ('3,4,2^4.A6', '5,3,3^2:Q8', '7,4,2^4.S6'),
    'psu-c7': (),
    's-collection-n-bound': (
        '5', '6', '7', '8', '9', '10', '11', '12', '13', '14', '15', '16', '17', '18',
        '19', '20', '21', '22', '23', '24', '25', '26', '27', '28'),
    'tableA-cutoff': (
        '2,5', '2,6', '2,7', '2,8', '2,9', '2,10', '2,11', '2,12', '2,13', '2,14',
        '2,15', '2,16', '2,17', '2,18', '2,19', '2,20', '2,21', '2,22', '2,24', '3,5',
        '3,6', '3,7', '3,8', '3,9', '3,10', '3,11', '3,12'),
}

# The two points where exact arithmetic disagrees with the published lists
# (README, "Tests and known discrepancies"): each sweep must report exactly
# these as extra members and nothing as missing.
DOCUMENTED_EXTRAS = {"psu-c2-t3": ("31",), "pso-c2-go-wr": ("2,2,6,-,+",)}

# |GL_n(q)|, |SL_n(q)|, |GU_n(q0)|, |SU_n(q0)| for the brute-force grid,
# keyed by (kind, n, q).  Sp_2(q) = SL_2(q).
ORACLE_COUNTS = {
    ("GL", 1, 2): 1, ("GL", 1, 3): 2, ("GL", 1, 4): 3, ("GL", 1, 5): 4,
    ("SL", 1, 2): 1, ("SL", 1, 3): 1, ("SL", 1, 4): 1, ("SL", 1, 5): 1,
    ("GL", 2, 2): 6, ("GL", 2, 3): 48, ("GL", 2, 4): 180, ("GL", 2, 5): 480,
    ("SL", 2, 2): 6, ("SL", 2, 3): 24, ("SL", 2, 4): 60, ("SL", 2, 5): 120,
    ("GL", 3, 2): 168, ("GL", 3, 3): 11232, ("GL", 3, 4): 181440,
    ("GL", 3, 5): 1488000,
    ("SL", 3, 2): 168, ("SL", 3, 3): 5616, ("SL", 3, 4): 60480,
    ("SL", 3, 5): 372000,
    ("GU", 1, 2): 3, ("GU", 1, 3): 4, ("SU", 1, 2): 1, ("SU", 1, 3): 1,
    ("GU", 2, 2): 18, ("GU", 2, 3): 96, ("SU", 2, 2): 6, ("SU", 2, 3): 24,
    ("Sp", 2, 2): 6, ("Sp", 2, 3): 24, ("Sp", 2, 4): 60, ("Sp", 2, 5): 120,
}

# Orders and |Out| of the fixed groups the host-queries draw names.
SPORADIC = {"J2": (604800, 2), "J3": (50232960, 2), "M22": (443520, 2),
            "M24": (244823040, 1)}


def prime_power(q):
    """(p, f) with q = p^f, or None."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    return (p, f) if q == 1 else None


def _order_terms(fam, n, q, eps):
    """|G| of a simple classical group as (factors, divisor): the order is
    the product of the factors (each a pair (base, exponent) standing for
    base^exponent - sign, or a plain power when sign is 0) over divisor."""
    if fam in ("PSL", "PSU"):
        s = 1 if fam == "PSL" else -1
        terms = [(q, n * (n - 1) // 2, 0)]
        terms += [(q, i, s ** i) for i in range(1, n + 1)]
        return terms, (q - s) * gcd(n, q - s)
    if fam == "PSp" or (fam == "POmega" and n % 2):
        m = n // 2
        terms = [(q, m * m, 0)] + [(q, 2 * i, 1) for i in range(1, m + 1)]
        return terms, gcd(2, q - 1)
    m = n // 2
    s = 1 if eps == "+" else -1
    terms = [(q, m * (m - 1), 0), (q, m, s)]
    terms += [(q, 2 * i, 1) for i in range(1, m)]
    return terms, gcd(4, q ** m - s)


def order_residues(fam, n, q, eps=""):
    """|G| modulo each of PRIMES for PSL, PSU, PSp or POmega (eps '+', '-'
    or '' for odd n), from the closed forms of Kleidman-Liebeck Table 2.1.C
    divided by the centre."""
    terms, div = _order_terms(fam, n, q, eps)
    out = []
    for p in PRIMES:
        r = 1
        for base, e, sign in terms:
            r = r * (pow(base, e, p) - sign) % p
        out.append(r * pow(div, -1, p) % p)
    return tuple(out)


def int_residues(x):
    return tuple(x % p for p in PRIMES)


def decimal_residues(text, chunk=18):
    """Residues of a decimal string modulo PRIMES by one left-to-right scan
    over fixed-width chunks; linear in the length of the string."""
    out = [0] * len(PRIMES)
    head = len(text) % chunk or chunk
    pos = 0
    width = head
    while pos < len(text):
        piece = text[pos:pos + width]
        v = int(piece)
        scale = 10 ** len(piece)
        for i, p in enumerate(PRIMES):
            out[i] = (out[i] * scale + v) % p
        pos += width
        width = chunk
    return tuple(out)


def out_order(fam, n, q, eps=""):
    """|Out(G)| for the simple classical groups (Kleidman-Liebeck Table
    5.1.A): diagonal times field times graph automorphisms."""
    p, f = prime_power(q)
    if fam == "PSL":
        return gcd(n, q - 1) * f * (2 if n >= 3 else 1)
    if fam == "PSU":
        return gcd(n, q + 1) * f * 2
    if fam == "PSp":
        return 2 * f if (n == 4 and p == 2) else gcd(2, q - 1) * f
    if n % 2:
        return 2 * f
    m = n // 2
    d = gcd(4, q ** m - (1 if eps == "+" else -1))
    return d * f * (6 if (eps == "+" and m == 4) else 2)


def sylow_exponent(fam, n):
    """N such that q^N is the p-part of |G|, the number of positive roots
    (Kleidman-Liebeck Table 2.1.C).  A parabolic subgroup contains a Sylow
    p-subgroup, so the catalog's C1 row has |H0| at least q^N."""
    if fam in ("PSL", "PSU"):
        return n * (n - 1) // 2
    m = n // 2
    return m * m if fam == "PSp" or n % 2 else m * (m - 1)


def _prime(r):
    return r > 1 and all(r % d for d in range(2, int(r ** 0.5) + 1))


def required_types(fam, n, q, eps=""):
    """(class, type) of the geometric rows every catalog must list for the
    simple host fam(n, q), spelled the way the CLI's --type selector names
    them.  Each is a subgroup type of Kleidman-Liebeck Tables 3.5.A-F whose
    existence conditions hold for this host; rows with further or unclear
    conditions are left out, so the list is a floor, not the whole catalog."""
    pf = prime_power(q)
    splits = [(n // t, t) for t in range(2, n + 1) if n % t == 0]
    out = []
    if fam == "PSL":
        out += [("C2", f"GL({m},{q}) wr S{t}") for m, t in splits
                if m >= 3 or (m == 2 and q >= 3) or q >= 5]
        out += [("C3", f"GL({m},{q}^{r})") for m, r in splits if _prime(r)]
        out += [("C4", f"GL({b},{q}) (x) GL({a},{q})") for a, b in splits if 2 <= b < a]
    elif fam == "PSU":
        out += [("C2", f"GU({m},{q}) wr S{t}") for m, t in splits if m >= 2 or q >= 3]
        if n % 2 == 0:
            out.append(("C2", f"GL({n // 2},{q}^2).2"))
        out += [("C3", f"GU({m},{q}^{r})") for m, r in splits if r % 2 and _prime(r)]
        out += [("C4", f"GU({b},{q}) (x) GU({a},{q})") for a, b in splits if 2 <= b < a]
    elif fam == "PSp":
        out += [("C2", f"Sp({m},{q}) wr S{t}") for m, t in splits
                if m % 2 == 0 and (m, q) != (2, 2)]
        out += [("C3", f"Sp({m},{q}^{r})") for m, r in splits if m % 2 == 0 and _prime(r)]
        if q % 2:
            out += [("C2", f"GL({n // 2},{q}).2"), ("C3", f"GU({n // 2},{q})")]
    else:
        if n % 2 == 0 and eps == "+":
            out.append(("C2", f"GL({n // 2},{q}).2"))
        if n % 2 == 0 and eps == ("+" if n % 4 == 0 else "-"):
            out.append(("C3", f"GU({n // 2},{q})"))
        # the framed basis: type + exactly when the discriminant (-1)^(n/2)
        # is a square mod p
        if pf[1] == 1 and q % 2 and (n % 2 or eps == ("+" if (q - 1) * n % 8 == 0 else "-")):
            out.append(("C2", f"GO1({q}) wr S{n}"))
    return out


def nonclassical_order(fam, arg):
    if fam == "Alt":
        return factorial(arg) // 2
    if fam == "Sym":
        return factorial(arg)
    return SPORADIC[arg][0]


def nonclassical_out(fam, arg):
    if fam == "Sporadic":
        return SPORADIC[arg][1]
    if arg == 6:
        return 4 if fam == "Alt" else 2
    return 2 if fam == "Alt" else 1
