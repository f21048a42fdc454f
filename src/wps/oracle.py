"""Independent consistency checks over small finite fields.

The ground truth for point equality is equivalence under the full scaling
action over an algebraic closure, decided exactly by one discrete-log
class key per vector; the geometric and orbit machinery is verified against
it.  A manifest file drives batches of checks.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm, prod

from .curves import PlaneCurve
from .errors import TooLarge
from .exactmath import PrimeField
from .geometry import WPoint, eq_geometric, fp_orbit_min, orbit, stabilizer_order
from .parser import parse_polynomial
from .truncation import (
    default_degree_bound,
    graded_piece_basis,
    regraded_degrees,
    veronese_generators,
)
from .weights import Weight, check_weight, parse_weight
from .wpoly import evaluate, monomial_string, partial, reduce_mod, variable_names

_MAX_VECTORS = 10**6


def _all_vectors(a: Weight, p: int):
    """Nonzero coordinate vectors of F_p^n, lexicographic.

    The scan limit is checked on the call, before any vector is produced.
    """
    n = len(a)
    if p**n - 1 > _MAX_VECTORS:
        raise TooLarge(f"{p}^{n} - 1 vectors exceed the scan limit")
    return (vec for vec in product(range(p), repeat=n) if any(vec))


def enumerate_wps_points(a: Weight, p: int) -> list[WPoint]:
    """One canonical representative per scaling orbit, sorted.

    A vector is kept iff it is the minimum of its orbit (the `normalize`
    representative); the scan is lexicographic, so the output is sorted.
    """
    a = check_weight(a)
    field = PrimeField(p)
    return [WPoint(a, vec, field) for vec in _all_vectors(a, p) if fp_orbit_min(a, vec, p) == vec]


class ClosureEquality:
    """Decide lambda-scaling equivalence over the algebraic closure of F_p.

    A solution lambda with lambda^(a_i) = y_i/x_i has p-free order dividing
    M = p-free part of (p-1)*lcm(a), so exponents modulo M against discrete
    logs in F_p^* decide it completely.  Each vector gets a class key: its
    support S, plus the lexicographically smallest member of the coset
    L_x + <(a_i)_{i in S}> in Z_M^S, where L_x holds the discrete logs of
    the x_i scaled into Z_M.  Two vectors are equivalent iff their keys are
    equal.  A key costs O(n log M) gcd steps, so N vectors are classified
    in O(N*n*log M) instead of an O(M) scan for each of the O(N^2) pairs.
    """

    def __init__(self, a: Weight, p: int):
        self.a = check_weight(a)
        self.p = p
        field = PrimeField(p)
        self.m = p - 1
        g0 = field.primitive_root().value
        table = {1: 0}
        t = 1
        for e in range(1, self.m):
            t = t * g0 % p
            table[t] = e
        self._dlog = table
        big = self.m * lcm(*self.a)
        while big % p == 0:
            big //= p
        self.M = big

    def key(self, x: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(support, least member of L_x + <(a_i)_{i in S}>) for a vector x.

        The least member is fixed one coordinate at a time: the shifts t
        that keep the coordinates so far at their minima form the coset
        t0 + <step> of Z_M, and over it coordinate i takes the values
        c + g*Z, g = gcd(step*a_i, M), whose least residue is c mod g.
        """
        p, M = self.p, self.M
        k = M // self.m
        support = tuple(i for i in range(len(self.a)) if x[i] % p != 0)
        t0, step, least = 0, 1, []
        for i in support:
            c = (self._dlog[x[i] % p] * k + t0 * self.a[i]) % M
            r = step * self.a[i] % M
            g = gcd(r, M)
            n = M // g
            t0 = (t0 - c // g * pow(r // g, -1, n) * step) % M
            step = gcd(step * n, M)
            least.append(c % g)
        return support, tuple(least)

    def equal(self, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
        return self.key(x) == self.key(y)


def verify_point_equality(a: Weight, p: int, max_recorded: int = 20) -> dict:
    """Compare eq_geometric with the closure oracle over every vector pair.

    Closure keys are computed once per vector; each of the n(n+1)/2 pairs
    compares two keys and calls eq_geometric.
    """
    a = check_weight(a)
    field = PrimeField(p)
    oracle = ClosureEquality(a, p)
    vectors = list(_all_vectors(a, p))
    points = [WPoint(a, vec, field) for vec in vectors]
    keys = [oracle.key(vec) for vec in vectors]
    n = len(vectors)
    mismatch_count, mismatches = 0, []
    for i in range(n):
        for j in range(i, n):
            geo = eq_geometric(points[i], points[j])
            truth = keys[i] == keys[j]
            if geo != truth:
                mismatch_count += 1
                if len(mismatches) < max_recorded:
                    row = dict(x=list(vectors[i]), y=list(vectors[j]), geometric=geo, closure=truth)
                    mismatches.append(row)
    return {
        "weights": list(a),
        "p": p,
        "pairs": n * (n + 1) // 2,
        "mismatch_count": mismatch_count,
        "mismatches": mismatches,
    }


def verify_orbit_stabilizer(a: Weight, p: int) -> dict:
    """|orbit| * |stabilizer| = a_0...a_n for every straight projective point."""
    a = check_weight(a)
    straight = tuple(1 for _ in a)
    group_order = prod(a)
    failures = []
    points = enumerate_wps_points(straight, p)
    for y in points:
        orb = len(orbit(y, a, p))
        stab = stabilizer_order(y, a, p)
        if orb * stab != group_order:
            failures.append(
                {
                    "point": list(y.values),
                    "orbit": orb,
                    "stabilizer": stab,
                }
            )
    return {
        "weights": list(a),
        "p": p,
        "points": len(points),
        "group_order": group_order,
        "failures": failures,
    }


def _can_factor(e: tuple[int, ...], gens: list[tuple[int, ...]], memo: dict) -> bool:
    """Whether the exponent vector e is a sum of generators (memoised in memo)."""
    if not any(e):
        return True
    if e in memo:
        return memo[e]
    memo[e] = False  # cycle guard; every generator strictly shrinks e
    ok = any(
        all(ge <= ee for ge, ee in zip(g, e))
        and _can_factor(tuple(ee - ge for ge, ee in zip(g, e)), gens, memo)
        for g in gens
    )
    memo[e] = ok
    return ok


def verify_veronese(a: Weight, d: int, p: int | None = None, cap: int | None = None) -> dict:
    """Every monomial of degree k*d up to the cap factors into the generators.

    The check is purely combinatorial; p is accepted only so manifest lines
    share one shape.  The cap (default `default_degree_bound`) bounds the
    degrees scanned here; the generators themselves come from the finite
    box of `veronese_generators` and need no bound.
    """
    a = check_weight(a)
    gens = veronese_generators(a, d)
    if cap is None:
        cap = default_degree_bound(a, d)
    memo: dict[tuple[int, ...], bool] = {}
    names = variable_names(len(a))
    checked = 0
    failures = []
    for delta in range(d, cap + 1, d):
        for e in graded_piece_basis(a, delta):
            checked += 1
            if not _can_factor(e, gens, memo):
                failures.append(monomial_string(e, names))
    return {
        "weights": list(a),
        "d": d,
        "cap": cap,
        "generators": [monomial_string(g, names) for g in gens],
        "regraded": regraded_degrees(gens, a, d),
        "checked": checked,
        "failures": failures,
    }


def scan_curve_points(c: PlaneCurve, p: int) -> dict:
    """Count curve points and singular curve points in P(a)(F_p)."""
    f = reduce_mod(c.poly, p)
    a = c.weight
    parts = [partial(f, i) for i in range(3)]
    total = 0
    on_curve = 0
    singular = 0
    zero = f.field.zero
    for point in enumerate_wps_points(a, p):
        total += 1
        coords = list(point.coords)
        if evaluate(f, coords) == zero:
            on_curve += 1
            if all(evaluate(g, coords) == zero for g in parts):
                singular += 1
    return {
        "weights": list(a),
        "p": p,
        "d": c.degree,
        "total_points": total,
        "points_on_curve": on_curve,
        "singular_points": singular,
    }


# === manifest driver ===

_INT_KEYS = {"p", "d", "cap", "expect_points", "expect_singular"}
_KNOWN = {
    "point_equality": {"weights", "p"},
    "orbit_stabilizer": {"weights", "p"},
    "veronese": {"weights", "p", "d", "cap"},
    "curve_scan": {"weights", "p", "poly", "expect_points", "expect_singular"},
}
_REQUIRED = {
    "point_equality": {"weights", "p"},
    "orbit_stabilizer": {"weights", "p"},
    "veronese": {"weights", "p", "d"},
    "curve_scan": {"weights", "p", "poly"},
}


def parse_manifest(text: str) -> list[dict]:
    """Lines of whitespace-separated key=value pairs; '#' starts a comment."""
    jobs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        job: dict = {}
        for token in line.split():
            if "=" not in token:
                raise ValueError(f"line {lineno}: expected key=value, got {token!r}")
            key, value = token.split("=", 1)
            if key in job:
                raise ValueError(f"line {lineno}: duplicate key {key!r}")
            if key == "weights":
                job[key] = parse_weight(value)
            elif key in _INT_KEYS:
                job[key] = int(value)
            else:
                job[key] = value
        name = job.pop("verify", None)
        if name not in _KNOWN:
            raise ValueError(f"line {lineno}: unknown check {name!r}")
        extra = set(job) - _KNOWN[name]
        missing = _REQUIRED[name] - set(job)
        if extra:
            raise ValueError(f"line {lineno}: unexpected keys {sorted(extra)}")
        if missing:
            raise ValueError(f"line {lineno}: missing keys {sorted(missing)}")
        job["verify"] = name
        jobs.append(job)
    return jobs


def run_job(job: dict) -> dict:
    name = job["verify"]
    a, p = job["weights"], job["p"]
    if name == "point_equality":
        report = verify_point_equality(a, p)
        ok = report["mismatch_count"] == 0
        summary = f"{report['pairs']} pairs, {report['mismatch_count']} mismatches"
    elif name == "orbit_stabilizer":
        report = verify_orbit_stabilizer(a, p)
        ok = not report["failures"]
        summary = f"{report['points']} points, {len(report['failures'])} failures"
    elif name == "veronese":
        report = verify_veronese(a, job["d"], p, job.get("cap"))
        ok = not report["failures"]
        summary = f"{report['checked']} monomials, {len(report['failures'])} unfactored"
    else:
        f = parse_polynomial(job["poly"], a)
        report = scan_curve_points(PlaneCurve(f), p)
        expected = {"points_on_curve": "expect_points", "singular_points": "expect_singular"}
        ok = all(report[k] == job[e] for k, e in expected.items() if e in job)
        summary = (
            f"{report['points_on_curve']} on curve, "
            f"{report['singular_points']} singular"
        )
    return {
        "verify": name,
        "weights": list(a),
        "p": p,
        "ok": ok,
        "summary": summary,
        "report": report,
    }


def run_manifest(text: str) -> dict:
    rows = [run_job(job) for job in parse_manifest(text)]
    return {"ok": all(row["ok"] for row in rows), "jobs": rows}
