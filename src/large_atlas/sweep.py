"""Exhaustive parameter sweeps with golden-list regression.

Every finite member list produced by the classification is recomputed here
by exact enumeration over a parameter grid at least twice as wide as the
cutoff the source argument derives, then diffed against a committed golden
file.  Membership is the cube inequality, decided first from an integer
bit-length bracket on |G0| (bounds.simple_order_bits) and from the exact
|G0| only where the bracket cannot decide; both routes are exact, and no
point's membership depends on which one settled it.  Where a ratio sandwich
exists for the case, a decisive sandwich verdict that contradicts the
membership is reported as an alarm.
"""

import json
import os
import time
from dataclasses import dataclass, field
from importlib import resources
from math import factorial, gcd

from . import catalog
from .arith import parse_prime_power
from .arith import prime_powers as _prime_power_objects
from .bounds import CERTAINLY_LARGE, CERTAINLY_NOT_LARGE, sandwich, simple_order_bits
from .errors import ConstraintViolation, MissingGolden, UnknownCase, UnsupportedGroup
from .largeness import decisive, is_large, is_large_h1
from .orders import (CIRC, MINUS, PLUS, is_simple, order, out_order, pomega,
                     pomega_order, psl, psl_order, psp, psu, sp_order)


@dataclass(frozen=True)
class SweepCase:
    """One registered sweep: a grid, a membership predicate, a golden."""

    case_id: str
    description: str
    golden: str  # file name under the golden directory
    sandwich_case: str = ""


@dataclass
class SweepReport:
    case_id: str
    members: list
    missing: list
    extra: list
    elapsed_ms: int
    alarms: list = field(default_factory=list)

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
        out.append(int(tok) if tok.lstrip("-").isdigit() and tok not in ("-", "+") else tok)
    return tuple(out)


def _sort_key(member):
    return tuple((0, x) if isinstance(x, int) else (1, x) for x in member)


def golden_dir():
    env = os.environ.get("LARGE_ATLAS_GOLDEN_DIR")
    if env:
        return env
    return str(resources.files("large_atlas.data").joinpath("goldens"))


def load_golden(fname, directory=None):
    path = os.path.join(directory or golden_dir(), fname)
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


def prime_powers(lo, hi):
    """Prime powers in [lo, hi] as plain ints, so member tuples stay plain."""
    return [int(q) for q in _prime_power_objects(lo, hi)]


def _e_of(q):
    """The field degree e with q = p^e."""
    return parse_prime_power(q).e


# ---------------------------------------------------------------------------
# membership helpers
# ---------------------------------------------------------------------------


def _member(g0, entry):
    """Cube-inequality membership for one catalog entry: from the bit-length
    bracket on |G0| when it decides, else from the exact order."""
    got = _bracket_member(g0, entry)
    if got is not None:
        return got
    return _exact_member(order(g0), entry)


def _bracket_member(g0, entry):
    """Membership when 2^lo <= |G0| < 2^hi settles the cube test, else None.

    With b the bit length of rhs = |H0|^3 |O1|^2, b <= lo means rhs < |G0|
    (not large) and b - 1 >= hi means rhs > |G0| (large).  A large row is a
    member unless it stores only an upper bound on |H0|, as in
    _exact_member.
    """
    bits = simple_order_bits(g0)
    if bits is None:
        return None
    lo, hi = bits
    b = (entry.h0_order ** 3 * entry.o1_order ** 2).bit_length()
    if b <= lo:
        return False
    if b - 1 >= hi:
        return entry.bound != catalog.UPPER
    return None


def _exact_member(g0_order, entry):
    """Membership from the exact |G0|."""
    v = is_large_h1(g0_order, entry)
    if v.mode == "exact":
        return v.is_large
    # one-sided rows: trust them only when decisive, else not a member
    return v.is_large if decisive(v) else False


def _alarm_check(alarms, scase, q, got, n=None):
    """Record a disagreement between a decisive sandwich and the exact
    verdict at field size q."""
    tri = sandwich(scase, q, n=n)
    if tri.verdict == CERTAINLY_LARGE and not got:
        alarms.append(f"{scase}: sandwich says large at q={q}, exact says no")
    elif tri.verdict == CERTAINLY_NOT_LARGE and got:
        alarms.append(f"{scase}: sandwich says not large at q={q}, exact says yes")


# ---------------------------------------------------------------------------
# case generators: each yields member tuples
# ---------------------------------------------------------------------------


def _gen_psl_c2_t3(alarms):
    for q in prime_powers(2, 512):
        m = 1 if q >= 5 else (2 if q >= 3 else 3)
        entry = catalog.psl_c2(3 * m, q, m, 3)
        got = _member(psl(3 * m, q), entry)
        _alarm_check(alarms, "psl-c2-t3", q, got)
        if got:
            yield (q,)


def _gen_psl_c3_r3(alarms):
    for q in prime_powers(2, 512):
        entry = catalog.psl_c3(3, q, 1, 3)
        got = _member(psl(3, q), entry)
        _alarm_check(alarms, "psl-c3-r3", q, got)
        if got:
            yield (q,)


def _gen_psl_c3_r5(alarms):
    for r in (5, 7, 11):
        for m in (1, 2, 3):
            n = m * r
            for q in prime_powers(2, 64):
                try:
                    entry = catalog.psl_c3(n, q, m, r)
                except (ConstraintViolation, UnsupportedGroup):
                    continue
                if _member(psl(n, q), entry):
                    yield (n, q)


def _gen_psu_c2_t3(alarms):
    for q in prime_powers(2, 400):
        m = 1 if q >= 3 else 2
        n = 3 * m
        entry = catalog.psu_c2_wr(n, q, m, 3)
        got = _member(psu(n, q), entry)
        _alarm_check(alarms, "psu-c2-t3", q, got)
        if got:
            yield (q,)


def _gen_psu_c2_t4plus(alarms):
    for q in prime_powers(2, 40):
        for m in range(1, 7):
            for t in range(4, 17):
                n = m * t
                g = psu(n, q)
                if not is_simple(g):
                    continue
                try:
                    entry = catalog.psu_c2_wr(n, q, m, t)
                except (ConstraintViolation, UnsupportedGroup):
                    continue
                if _member(g, entry):
                    yield (q, m, t)


def _gen_psu_c3_r3(alarms):
    for q in prime_powers(2, 512):
        m = 1 if q >= 3 else 2
        n = 3 * m
        entry = catalog.psu_c3(n, q, m, 3)
        got = _member(psu(n, q), entry)
        _alarm_check(alarms, "psu-c3-r3", q, got)
        if got:
            yield (q,)


def _gen_psl_c4(alarms):
    for q in prime_powers(2, 32):
        for n1 in range(2, 5):
            for n2 in range(n1 + 1, 9):
                entry = catalog.psl_c4(n1 * n2, q, n1, n2)
                if _member(psl(n1 * n2, q), entry):
                    yield (q, n1, n2)


def _gen_psl_c7(alarms):
    for q in prime_powers(2, 32):
        for m in (3, 4, 5):
            for t in (2, 3):
                entry = catalog.psl_c7(m ** t, q, m, t)
                if _member(psl(m ** t, q), entry):
                    yield (q, m, t)


def _gen_psu_c4(alarms):
    for q in prime_powers(2, 32):
        for n1 in range(2, 5):
            for n2 in range(n1 + 1, 9):
                entry = catalog.psu_c4(n1 * n2, q, n1, n2)
                if _member(psu(n1 * n2, q), entry):
                    yield (q, n1, n2)


def _gen_psu_c7(alarms):
    for q in prime_powers(2, 32):
        for m in (3, 4, 5):
            for t in (2, 3):
                try:
                    entry = catalog.psu_c7(m ** t, q, m, t)
                except ConstraintViolation:
                    continue
                if _member(psu(m ** t, q), entry):
                    yield (q, m, t)


def _gen_psl_c6(alarms):
    for q in prime_powers(2, 97):
        for n in (2, 3, 4, 8):
            g = psl(n, q)
            if not is_simple(g):
                continue
            try:
                entries = catalog.psl_c6(n, q)
            except ConstraintViolation:
                continue
            for entry in entries:
                if _member(g, entry):
                    yield (q, n, entry.name)


def _gen_psu_c6(alarms):
    for q in prime_powers(2, 97):
        for n in (3, 4, 8):
            g = psu(n, q)
            if not is_simple(g):
                continue
            try:
                entries = catalog.psu_c6(n, q)
            except ConstraintViolation:
                continue
            for entry in entries:
                if _member(g, entry):
                    yield (q, n, entry.name)


def _gen_psp_c2_t5(alarms):
    for q in prime_powers(2, 16):
        for m in (2, 4, 6):
            for t in range(4, 11):
                if (m, t) == (2, 4):
                    continue  # an always-large family, not part of this list
                try:
                    entry = catalog.psp_c2_wr(m * t, q, m, t)
                except ConstraintViolation:
                    continue
                if _member(psp(m * t, q), entry):
                    yield (q, m, t)


def _gen_psp_c3_r5(alarms):
    for q in prime_powers(2, 32):
        for m in (2, 4, 6):
            for r in (5, 7, 11):
                entry = catalog.psp_c3(m * r, q, m, r)
                if _member(psp(m * r, q), entry):
                    yield (q, m, r)


def _gen_psp_c4(alarms):
    for q in prime_powers(2, 13):
        if q % 2 == 0:
            continue
        for n1 in (2, 4, 6):
            for n2 in range(3, 9):
                for eps in ((CIRC,) if n2 % 2 else (PLUS, MINUS)):
                    try:
                        entry = catalog.psp_c4(n1 * n2, q, n1, n2, eps)
                    except (ConstraintViolation, UnsupportedGroup):
                        continue
                    if _member(psp(n1 * n2, q), entry):
                        yield (q, n1, n2, eps)


def _gen_psp_c7(alarms):
    for q in prime_powers(2, 16):
        for m in (2, 4):
            for t in (3, 5):
                try:
                    entry = catalog.psp_c7(m ** t, q, m, t)
                except ConstraintViolation:
                    continue
                if _member(psp(m ** t, q), entry):
                    yield (q, m, t)


def _gen_psp_c6(alarms):
    for q in prime_powers(2, 23):
        for n in (4, 8, 16, 32):
            try:
                entry = catalog.psp_c6(n, q)
            except (ConstraintViolation, UnsupportedGroup):
                continue
            if _member(psp(n, q), entry):
                yield (q, n)


def _gen_pso_c2_o1p(alarms):
    for q in prime_powers(3, 13):
        for n in range(7, 31):
            for eps in ((CIRC,) if n % 2 else (PLUS, MINUS)):
                try:
                    entry = catalog.pso_c2_o1p(n, eps, q)
                except (ConstraintViolation, UnsupportedGroup):
                    continue
                if _member(pomega(n, q, eps), entry):
                    yield (q, n)


def _gen_pso_c2_go_wr(alarms):
    for q in prime_powers(2, 9):
        for m in range(2, 9):
            for t in range(3, 9):
                # t = 2 is the always-large family and not part of this list
                n = m * t
                if n < 7 or n > 64:
                    continue
                for eps1 in ((PLUS, MINUS) if m % 2 == 0 else (CIRC,)):
                    for eps in ((CIRC,) if n % 2 else (PLUS, MINUS)):
                        g = pomega(n, q, eps)
                        if not is_simple(g):
                            continue
                        try:
                            entry = catalog.pso_c2_go_wr(n, eps, q, m, eps1, t)
                        except (ConstraintViolation, UnsupportedGroup):
                            continue
                        if _member(g, entry):
                            yield (q, m, t, eps1, eps)


def _gen_pso_c3_extra(alarms):
    for q in prime_powers(2, 8):
        for m in range(3, 10):
            for s in (3, 5, 7):
                n = m * s
                for eps in ((CIRC,) if n % 2 else (PLUS, MINUS)):
                    try:
                        entry = catalog.pso_c3_extra(n, eps, q, m, s)
                    except (ConstraintViolation, UnsupportedGroup):
                        continue
                    if _member(pomega(n, q, eps), entry):
                        yield (q, m, s, eps)


def _gen_pso_c4_large_n(alarms):
    """The degree-2 symplectic tensor type beyond the two always-large
    dimensions: the exact cube test must already fail everywhere.  The
    projective stabilizer order is |Sp_2 x Sp_{n/2}| / 2 times the extra
    diagonal part gcd(2, n/4), divided by the center (order 2 here since
    q is odd and n/2 is even)."""
    for q in prime_powers(3, 9):
        if q % 2 == 0:
            continue
        for n in range(16, 41, 4):
            h0 = (sp_order(2, q) * sp_order(n // 2, q) // 2
                  * gcd(2, n // 4) // 2)
            o1 = 2 * gcd(4, q ** (n // 2) - 1) * _e_of(q)
            if is_large(order(pomega(n, q, PLUS)), h0, o1).is_large:
                yield (q, n)


def _gen_pso_c7(alarms):
    for q in prime_powers(2, 9):
        for m in range(2, 7):
            for t in (2, 3, 4):
                n = m ** t
                if n < 7 or n > 100:
                    continue
                for kind, eps1 in (("sp", None), ("circ", None),
                                   ("signed", PLUS), ("signed", MINUS)):
                    eps = CIRC if n % 2 else PLUS
                    try:
                        entry = catalog.pso_c7(n, eps, q, m, t, kind, eps1)
                    except (ConstraintViolation, UnsupportedGroup):
                        continue
                    if _member(pomega(n, q, eps), entry):
                        yield (q, m, t, kind)


def _gen_pso_c6(alarms):
    for q in prime_powers(3, 23):
        for n in (8, 16, 32):
            try:
                entry = catalog.pso_c6(n, q)
            except (ConstraintViolation, UnsupportedGroup):
                continue
            if _member(pomega(n, q, PLUS), entry):
                yield (q, n)


def _gen_table_a_cutoff(alarms):
    for p in (2, 3):
        for d in range(5, 29):
            g0 = catalog.collection_a_host(d, p)
            if factorial(d) ** 3 >= order(g0):
                yield (p, d)


def _gen_s_collection_n_bound(alarms):
    # 2^((d-2)(d-3) - 6 + 6d) < (d+1)^(6d), the a-priori degree frontier
    for d in range(5, 61):
        if 2 ** ((d - 2) * (d - 3) - 6 + 6 * d) < (d + 1) ** (6 * d):
            yield (d,)


_GENERATORS = {
    "psl-c2-t3": _gen_psl_c2_t3,
    "psl-c3-r3": _gen_psl_c3_r3,
    "psl-c3-r5": _gen_psl_c3_r5,
    "psl-c4": _gen_psl_c4,
    "psl-c6": _gen_psl_c6,
    "psl-c7": _gen_psl_c7,
    "psu-c2-t3": _gen_psu_c2_t3,
    "psu-c2-t4plus": _gen_psu_c2_t4plus,
    "psu-c3-r3": _gen_psu_c3_r3,
    "psu-c4": _gen_psu_c4,
    "psu-c6": _gen_psu_c6,
    "psu-c7": _gen_psu_c7,
    "psp-c2-t5": _gen_psp_c2_t5,
    "psp-c3-r5": _gen_psp_c3_r5,
    "psp-c4": _gen_psp_c4,
    "psp-c6": _gen_psp_c6,
    "psp-c7": _gen_psp_c7,
    "pso-c2-o1p": _gen_pso_c2_o1p,
    "pso-c2-go-wr": _gen_pso_c2_go_wr,
    "pso-c3-extra": _gen_pso_c3_extra,
    "pso-c4-large-n": _gen_pso_c4_large_n,
    "pso-c6": _gen_pso_c6,
    "pso-c7": _gen_pso_c7,
    "tableA-cutoff": _gen_table_a_cutoff,
    "s-collection-n-bound": _gen_s_collection_n_bound,
}

CASES = {
    cid: SweepCase(cid, cid.replace("-", " "), cid + ".golden")
    for cid in _GENERATORS
}

EMPTY_CASES = (
    "psl-c4", "psl-c7", "psu-c4", "psu-c7", "psp-c3-r5", "psp-c4",
    "psp-c7", "pso-c3-extra", "pso-c4-large-n", "pso-c7",
)


def case_ids():
    return sorted(CASES)


def run_case(case_id, directory=None):
    if case_id not in CASES:
        raise UnknownCase(f"unknown sweep case {case_id!r}")
    t0 = time.monotonic()
    alarms = []
    members = sorted(set(_GENERATORS[case_id](alarms)), key=_sort_key)
    expected = load_golden(CASES[case_id].golden, directory)
    missing = [m for m in expected if m not in members]
    extra = [m for m in members if m not in expected]
    elapsed = int((time.monotonic() - t0) * 1000)
    return SweepReport(case_id, members, missing, extra, elapsed, alarms)


def run_all(prefix=None, directory=None):
    reports = []
    for cid in case_ids():
        if prefix and not cid.startswith(prefix):
            continue
        reports.append(run_case(cid, directory))
    return reports
