"""Exhaustive parameter sweeps with golden-list regression.

Every finite member list produced by the classification is recomputed here
by exact enumeration over a fixed parameter grid, then diffed against a
committed golden file.  No code derives the cutoff beyond which a family
has no members, so nothing shows that a grid covers its whole family: the
tail certificates of ROADMAP item 6 are still open.

A registered case is only its grid.  The grid of a catalog case yields
(member key, catalog constructor, args), where args start with the host
GroupId the constructor builds its row for, as in
`catalog.psl_c2, (psl(3 * m, q), m, 3)`.  One driver, `_catalog_members`,
does the rest for every case: it builds the row, skips points the
constructor rejects and rows whose host is not simple, and decides
membership by the cube inequality.  A case registered with named=True adds
the row's name to the member key.  The cube test is decided first from an
integer bit-length bracket on |G0| (orders.order_bits, read off the
factored order without building it) and from the exact |G0| only where
the bracket cannot decide; both routes are exact, and no point's
membership depends on which one settled it.  One rule, in _member, reads
the row's bound kind before either route: a row that stores only an upper
bound on |H0| is no member, and takes no cube test.  For a case with a
ratio sandwich of the same name in bounds.SANDWICH_CASES, a decisive
sandwich verdict that contradicts the membership is reported as an alarm;
the verdict comes from bounds.sandwich_verdict, decided on integers alone.
The two cases without a catalog row, tableA-cutoff and s-collection-n-bound,
are plain predicates whose grids yield member keys.
"""

import json
import os
import time
from functools import cache
from importlib import resources
from math import factorial
from typing import Callable, NamedTuple

from . import catalog
from .arith import prime_powers as _prime_power_objects
from .bounds import CERTAINLY_LARGE, CERTAINLY_NOT_LARGE, SANDWICH_CASES, sandwich_verdict
# the benchmark's tracer (perfbench/spans.py) still looks the sandwich layer
# up here; the sweeps call only sandwich_verdict, so that layer reads 0
from .bounds import sandwich  # noqa: F401
from .errors import ConstraintViolation, MissingGolden, UnknownCase
from .largeness import UPPER, is_large_h1
from .orders import PLUS, is_simple, order, order_bits, pomega, psl, psp, psu


class SweepCase(NamedTuple):
    """One registered sweep: its grid and the golden it is diffed against.

    A catalog case's grid yields (member key, constructor, args); a plain
    case's grid yields the member keys themselves.  A named case adds each
    member row's name to its key.
    """

    case_id: str
    grid: Callable
    plain: bool = False
    named: bool = False

    @property
    def golden(self):
        """File name under the golden directory."""
        return self.case_id + ".golden"


class SweepReport(NamedTuple):
    case_id: str
    members: list
    missing: list
    extra: list
    elapsed_ms: int
    alarms: list

    @property
    def ok(self):
        return not self.missing and not self.extra and not self.alarms

    def to_json(self):
        return json.dumps({
            "case_id": self.case_id,
            "members": [_fmt(m) for m in self.members],
            "missing": [_fmt(m) for m in self.missing],
            "extra": [_fmt(m) for m in self.extra],
            "elapsed_ms": self.elapsed_ms,
            "alarms": self.alarms,
        }, indent=2, sort_keys=True)


def _fmt(member):
    return ",".join(str(x) for x in member)


def _parse_member(line):
    out = []
    for tok in line.split(","):
        tok = tok.strip()
        out.append(int(tok) if tok.removeprefix("-").isdecimal() else tok)
    return tuple(out)


def _sort_key(member):
    return tuple((0, x) if isinstance(x, int) else (1, x) for x in member)


# the goldens shipped in the package, resolved once, at import
_PACKAGE_GOLDENS = str(resources.files("large_atlas.data").joinpath("goldens"))


def golden_dir():
    """$LARGE_ATLAS_GOLDEN_DIR, read on every call, or else the package's
    data/goldens."""
    return os.environ.get("LARGE_ATLAS_GOLDEN_DIR") or _PACKAGE_GOLDENS


def load_golden(fname):
    path = os.path.join(golden_dir(), fname)
    if not os.path.exists(path):
        raise MissingGolden(f"golden file not found: {path}")
    members = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            members.append(_parse_member(line))
    return sorted(members, key=_sort_key)


# the widest grid's largest field size: every grid reads one sieve to here
_Q_MAX = 512


@cache
def _sieved():
    return [q.q for q in _prime_power_objects(2, _Q_MAX)]


def prime_powers(lo, hi):
    """Prime powers in [lo, hi] as plain ints, so member tuples stay plain,
    read from one sieve to _Q_MAX that every grid shares."""
    if hi > _Q_MAX:
        raise ValueError(f"grid field sizes go up to {_Q_MAX}, not {hi}")
    return [q for q in _sieved() if lo <= q <= hi]


# ---------------------------------------------------------------------------
# membership and the driver
# ---------------------------------------------------------------------------


def _member(g0, entry):
    """Cube-inequality membership for one catalog entry, the cube test
    taken from the bit-length bracket on |G0| when it decides, else from
    the exact order.  A row that stores only an upper bound on |H0| settles
    nothing, so it is no member and takes no cube test."""
    if entry.bound == UPPER:
        return False
    large = _bracket_large(g0, entry)
    if large is None:
        large = is_large_h1(order(g0), entry).is_large
    return large


def _bracket_large(g0, entry):
    """The cube test's truth when 2^lo <= |G0| < 2^hi settles it, else None.

    With 2^(b_lo - 1) <= rhs = |H0|^3 |O1|^2 < 2^b_hi, b_hi <= lo means
    rhs < |G0| (not large) and b_lo - 1 >= hi means rhs > |G0| (large).
    The bit lengths of |H0| and |O1| give b_lo and b_hi four apart; rhs is
    built, and b_lo = b_hi its bit length, only where they do not decide.
    """
    lo, hi = order_bits(g0)
    h0, o1 = entry.h0_order, entry.o1_order
    b_hi = 3 * h0.bit_length() + 2 * o1.bit_length()
    b_lo = b_hi - 4
    if lo < b_hi and b_lo - 1 < hi:
        b_lo = b_hi = (h0 ** 3 * o1 ** 2).bit_length()
    if b_hi <= lo:
        return False
    if b_lo - 1 >= hi:
        return True
    return None


def _alarm_check(alarms, scase, q, got):
    """Record a disagreement between a decisive sandwich and the exact
    verdict at field size q."""
    verdict = sandwich_verdict(scase, q)
    if verdict == CERTAINLY_LARGE and not got:
        alarms.append(f"{scase}: sandwich says large at q={q}, exact says no")
    elif verdict == CERTAINLY_NOT_LARGE and got:
        alarms.append(f"{scase}: sandwich says not large at q={q}, exact says yes")


def _catalog_members(case, alarms):
    """Member keys of a catalog case, from the rows its grid names."""
    sandwiched = case.case_id in SANDWICH_CASES
    for key, ctor, args in case.grid():
        try:
            entry = ctor(*args)
        except ConstraintViolation:
            continue
        if not is_simple(entry.host):
            continue
        got = _member(entry.host, entry)
        if sandwiched:
            _alarm_check(alarms, case.case_id, entry.host.q.q, got)
        if got:
            yield key + (entry.name,) if case.named else key


# ---------------------------------------------------------------------------
# the registered cases: one grid each
# ---------------------------------------------------------------------------

CASES = {}


def _case(case_id, plain=False, named=False):
    """Register the decorated grid as the sweep case_id."""
    def register(grid):
        CASES[case_id] = SweepCase(case_id, grid, plain, named)
        return grid
    return register


@_case("psl-c2-t3")
def _psl_c2_t3():
    for q in prime_powers(2, 512):
        m = 1 if q >= 5 else (2 if q >= 3 else 3)
        yield (q,), catalog.psl_c2, (psl(3 * m, q), m, 3)


@_case("psl-c3-r3")
def _psl_c3_r3():
    for q in prime_powers(2, 512):
        yield (q,), catalog.psl_c3, (psl(3, q), 1, 3)


@_case("psl-c3-r5")
def _psl_c3_r5():
    qs = prime_powers(2, 64)
    for r in (5, 7, 11):
        for m in (1, 2, 3):
            for q in qs:
                yield (m * r, q), catalog.psl_c3, (psl(m * r, q), m, r)


@_case("psl-c4")
def _psl_c4():
    for q in prime_powers(2, 32):
        for n1 in range(2, 5):
            for n2 in range(n1 + 1, 9):
                yield (q, n1, n2), catalog.psl_c4, (psl(n1 * n2, q), n1, n2)


@_case("psl-c6", named=True)
def _psl_c6():
    for q in prime_powers(2, 97):
        for n in (2, 3, 4, 8):
            yield (q, n), catalog.psl_c6, (psl(n, q),)


@_case("psl-c7")
def _psl_c7():
    for q in prime_powers(2, 32):
        for m in (3, 4, 5):
            for t in (2, 3):
                yield (q, m, t), catalog.psl_c7, (psl(m ** t, q), m, t)


@_case("psu-c2-t3")
def _psu_c2_t3():
    for q in prime_powers(2, 400):
        m = 1 if q >= 3 else 2
        yield (q,), catalog.psu_c2_wr, (psu(3 * m, q), m, 3)


@_case("psu-c2-t4plus")
def _psu_c2_t4plus():
    for q in prime_powers(2, 40):
        for m in range(1, 7):
            for t in range(4, 17):
                yield (q, m, t), catalog.psu_c2_wr, (psu(m * t, q), m, t)


@_case("psu-c3-r3")
def _psu_c3_r3():
    for q in prime_powers(2, 512):
        m = 1 if q >= 3 else 2
        yield (q,), catalog.psu_c3, (psu(3 * m, q), m, 3)


@_case("psu-c4")
def _psu_c4():
    for q in prime_powers(2, 32):
        for n1 in range(2, 5):
            for n2 in range(n1 + 1, 9):
                yield (q, n1, n2), catalog.psu_c4, (psu(n1 * n2, q), n1, n2)


@_case("psu-c6", named=True)
def _psu_c6():
    for q in prime_powers(2, 97):
        for n in (3, 4, 8):
            yield (q, n), catalog.psu_c6, (psu(n, q),)


@_case("psu-c7")
def _psu_c7():
    for q in prime_powers(2, 32):
        for m in (3, 4, 5):
            for t in (2, 3):
                yield (q, m, t), catalog.psu_c7, (psu(m ** t, q), m, t)


@_case("psp-c2-t5")
def _psp_c2_t5():
    for q in prime_powers(2, 16):
        for m in (2, 4, 6):
            for t in range(4, 11):
                if (m, t) != (2, 4):  # an always-large family, not part of this list
                    yield (q, m, t), catalog.psp_c2_wr, (psp(m * t, q), m, t)


@_case("psp-c3-r5")
def _psp_c3_r5():
    for q in prime_powers(2, 32):
        for m in (2, 4, 6):
            for r in (5, 7, 11):
                yield (q, m, r), catalog.psp_c3, (psp(m * r, q), m, r)


@_case("psp-c4")
def _psp_c4():
    for q in prime_powers(2, 13):
        for n1 in (2, 4, 6):
            for n2 in range(3, 9):
                for eps in catalog.signs(n2):
                    yield (q, n1, n2, eps), catalog.psp_c4, (psp(n1 * n2, q), n1, n2, eps)


@_case("psp-c6")
def _psp_c6():
    for q in prime_powers(2, 23):
        for n in (4, 8, 16, 32):
            yield (q, n), catalog.psp_c6, (psp(n, q),)


@_case("psp-c7")
def _psp_c7():
    for q in prime_powers(2, 16):
        for m in (2, 4):
            for t in (3, 5):
                yield (q, m, t), catalog.psp_c7, (psp(m ** t, q), m, t)


@_case("pso-c2-o1p")
def _pso_c2_o1p():
    for q in prime_powers(3, 13):
        for n in range(7, 31):
            for eps in catalog.signs(n):
                yield (q, n), catalog.pso_c2_o1p, (pomega(n, q, eps),)


@_case("pso-c2-go-wr")
def _pso_c2_go_wr():
    for q in prime_powers(2, 9):
        for m in range(2, 9):
            # t = 2 is the always-large family and not part of this list
            for t in range(3, 9):
                if not 7 <= m * t <= 64:
                    continue
                for eps1 in catalog.signs(m):
                    for eps in catalog.signs(m * t):
                        yield ((q, m, t, eps1, eps), catalog.pso_c2_go_wr,
                               (pomega(m * t, q, eps), m, eps1, t))


@_case("pso-c3-extra")
def _pso_c3_extra():
    for q in prime_powers(2, 8):
        for m in range(3, 10):
            for s in (3, 5, 7):
                for eps in catalog.signs(m * s):
                    yield (q, m, s, eps), catalog.pso_c3_extra, (pomega(m * s, q, eps), m, s)


@_case("pso-c4-large-n")
def _pso_c4_large_n():
    # odd q, where the row is exact, and n beyond the always-large 8 and 12
    for q in (3, 5, 7, 9):
        for n in range(16, 41, 4):
            yield (q, n), catalog.pso_c4, (pomega(n, q, PLUS),)


@_case("pso-c6")
def _pso_c6():
    for q in prime_powers(3, 23):
        for n in (8, 16, 32):
            yield (q, n), catalog.pso_c6, (pomega(n, q, PLUS),)


@_case("pso-c7")
def _pso_c7():
    for q in prime_powers(2, 9):
        for m in range(2, 7):
            for t in (2, 3, 4):
                n = m ** t
                if not 7 <= n <= 100:
                    continue
                for kind, eps1 in catalog.PSO_C7_KINDS:
                    yield ((q, m, t, kind), catalog.pso_c7,
                           (pomega(n, q), m, t, kind, eps1))


# Plain predicates.  tableA-cutoff must not pass the simplicity skip of
# _catalog_members: its host PSp(4,2) at (p, d) = (2, 6) is not simple and
# is a golden member.


@_case("tableA-cutoff", plain=True)
def _table_a_cutoff():
    for p in (2, 3):
        for d in range(5, 29):
            if factorial(d) ** 3 >= order(catalog.collection_a_host(d, p)):
                yield (p, d)


@_case("s-collection-n-bound", plain=True)
def _s_collection_n_bound():
    # 2^((d-2)(d-3) - 6 + 6d) < (d+1)^(6d), the a-priori degree frontier
    for d in range(5, 61):
        if 2 ** ((d - 2) * (d - 3) - 6 + 6 * d) < (d + 1) ** (6 * d):
            yield (d,)


def case_ids(prefix=None):
    """The registered case ids, sorted; only those starting with prefix
    when one is given."""
    return sorted(cid for cid in CASES if not prefix or cid.startswith(prefix))


def get_case(case_id):
    """The registered case of this id; UnknownCase if there is none."""
    if case_id not in CASES:
        raise UnknownCase(f"unknown sweep case {case_id!r}")
    return CASES[case_id]


def run_case(case_id):
    case = get_case(case_id)
    t0 = time.monotonic()
    alarms = []
    found = case.grid() if case.plain else _catalog_members(case, alarms)
    members = sorted(set(found), key=_sort_key)
    expected = load_golden(case.golden)
    missing = [m for m in expected if m not in members]
    extra = [m for m in members if m not in expected]
    elapsed = int((time.monotonic() - t0) * 1000)
    return SweepReport(case_id, members, missing, extra, elapsed, alarms)


def run_all():
    return [run_case(cid) for cid in case_ids()]
