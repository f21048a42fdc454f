"""Independent consistency checks over small finite fields.

The ground truth for point equality is equivalence under the full scaling
action over an algebraic closure, decided exactly by one discrete-log
class key per vector; the geometric and orbit machinery is verified against
it.  The F_p verifiers are linear in the number of vectors and work on
int residues.  A manifest file drives batches of checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, product
from math import gcd, lcm, prod

from .curves import PlaneCurve
from .errors import check_length, check_work
from .exactmath import PrimeField
from .geometry import _geometric_keys, _group_elements, _orbit_stabilizer
from .hilbert import expand
from .parser import parse_polynomial
from .truncation import (
    _divides,
    graded_piece_basis,
    regraded_degrees,
    veronese_generators,
)
from .weights import Weight, check_weight, parse_weight
from .wpoly import monomial_string, partial, reduce_mod, variable_names

def _support_blocks(n: int, p: int, lead):
    """Each nonempty support S of n coordinates with its block: the residue
    vectors with support S in lexicographic order, the first entry on S drawn
    from `lead` and the others from 1..p-1.  With lead (1,) the blocks hold the
    points of P^{n-1}(F_p): the orbit minima of the straight weights."""
    for mask in islice(product((0, 1), repeat=n), 1, None):
        axes = [range(1, p) if s else (0,) for s in mask]
        axes[mask.index(1)] = lead
        yield tuple(i for i, s in enumerate(mask) if s), list(product(*axes))


class ClosureEquality:
    """Decide lambda-scaling equivalence over the algebraic closure of F_p.

    A solution lambda with lambda^(a_i) = y_i/x_i has p-free order dividing
    M = p-free part of (p-1)*lcm(a), so exponents modulo M against discrete
    logs in F_p^* decide it completely.  A vector's class key is its support S
    with the lexicographically smallest member of the coset L_x + <(a_i)_{i in
    S}> in Z_M^S, where L_x holds the discrete logs of the x_i scaled into Z_M.
    Two vectors are equivalent iff their keys are equal.  `keys` takes a block
    of vectors sharing S: the O(n log M) gcd steps of the coset's chain are per
    support, and each vector then costs n table lookups, so N vectors are
    classified in O(N*n) instead of an O(M) scan for each of the O(N^2) pairs.
    """

    def __init__(self, a: Weight, p: int):
        self.a = check_weight(a)
        g0 = PrimeField(p).primitive_root().value
        big = (p - 1) * lcm(*self.a)
        while big % p == 0:
            big //= p
        self.M, t, self._logs = big, 1, {1: 0}  # residue -> its discrete log scaled into Z_M
        for e in range(1, p - 1):
            t = t * g0 % p
            self._logs[t] = e * big // (p - 1)

    def keys(self, support: tuple[int, ...], block) -> list[tuple[int, ...]]:
        """The least member of L_x + <(a_i)_{i in S}> for each residue vector x of
        a block with support S.

        The least member is fixed one coordinate at a time: the shifts t that
        keep the coordinates so far at their minima form the coset t0 + <step>
        of Z_M, and over it coordinate i takes the values c + g*Z, g =
        gcd(step*a_i, M), whose least residue c mod g the shift t0 - (c//g)*u
        reaches.  The chain of (i, g, u) is built once for the support.
        """
        M, logs, step, chain = self.M, self._logs, 1, []
        for i in support:
            r = step * self.a[i] % M
            g = gcd(r, M)
            chain.append((i, self.a[i], g, pow(r // g, -1, M // g) * step % M))
            step = gcd(step * M // g, M)
        keys = []
        for x in block:
            t0, least = 0, []
            for i, ai, g, u in chain:
                c = (logs[x[i]] + t0 * ai) % M
                t0 = (t0 - c // g * u) % M
                least.append(c % g)
            keys.append(tuple(least))
        return keys


def _pairs(sizes) -> int:
    """Unordered pairs with repeats inside classes of the given sizes."""
    return sum(k * (k + 1) // 2 for k in sizes)


def verify_point_equality(a: Weight, p: int) -> dict:
    """Compare the key eq_geometric compares with the closure key on every vector pair.

    Vectors are taken one support S at a time; keys of different supports
    differ.  Per support: the fold chain, the closure-key chain and the class
    counts.  Per vector: a fold step and a closure-key step per coordinate.  A
    pair mismatches when exactly one key agrees, so with pair(c) = sum c(c+1)/2
    over a grouping the count is pair(geometric) + pair(closure) - 2 pair(both),
    O(N) for N vectors.  The recorded rows are the first 20 mismatching pairs,
    vectors in lexicographic order; both vectors of one lie in classes that
    differ, so only those are sorted.
    """
    a = check_weight(a)
    n = len(a)
    check_work((n + 1) * (p**n - 1), f"{n + 1} steps for each of {p}^{n} - 1 vectors")
    oracle = ClosureEquality(a, p)
    mismatch_count, mixed = 0, []
    for support, block in _support_blocks(n, p, range(1, p)):
        geo, clo = _geometric_keys(a, support, block, p), oracle.keys(support, block)
        geo_n, clo_n, cells = Counter(geo), Counter(clo), Counter(zip(geo, clo))
        mismatch_count += _pairs(geo_n.values()) + _pairs(clo_n.values()) - 2 * _pairs(cells.values())
        mixed += [(x, (support, g), (support, c)) for x, g, c in zip(block, geo, clo) if not geo_n[g] == clo_n[c] == cells[g, c]]
    mixed.sort()
    rows = ((x, y, g == h, c == d) for k, (x, g, c) in enumerate(mixed) for y, h, d in mixed[k + 1 :] if (g == h) != (c == d))
    return {
        "weights": list(a),
        "p": p,
        "pairs": (p**n - 1) * p**n // 2,  # N(N + 1)/2 for the N = p^n - 1 vectors
        "mismatch_count": mismatch_count,
        "mismatches": [dict(x=list(x), y=list(y), geometric=ge, closure=cl) for x, y, ge, cl in islice(rows, 20)],
    }


def verify_orbit_stabilizer(a: Weight, p: int) -> dict:
    """|orbit| * |stabilizer| = a_0...a_n for every straight projective point.

    Points are taken one support at a time.  Per support: the group elements
    divided by their entry at the first support index, and the stabilizer
    order.  Per point: its orbit, built from every group element, n
    coordinates each.  Failures are listed in point order.
    """
    a = check_weight(a)
    PrimeField(p)  # a modulus that is not prime raises before any work
    n, group_order = len(a), prod(a)
    count = sum(p**k for k in range(n))  # |P^{n-1}(F_p)| = (p^n - 1)/(p - 1)
    check_work(n * (group_order + 1) * count, f"{group_order} group elements times {count} points")
    group = _group_elements(a, p)
    failures = []
    for support, block in _support_blocks(n, p, (1,)):
        orbits, stab = _orbit_stabilizer(group, support, block, p)
        failures += [{"point": list(x), "orbit": len(seen), "stabilizer": stab} for x, seen in zip(block, orbits) if len(seen) * stab != group_order]
    return {
        "weights": list(a),
        "p": p,
        "points": count,
        "group_order": group_order,
        "failures": sorted(failures, key=lambda row: row["point"]),
    }


def verify_veronese(a: Weight, d: int, p: int | None = None, cap: int | None = None) -> dict:
    """Every monomial of degree k*d up to the cap factors into the generators.

    p is accepted only so manifest lines share one shape.  The cap (default
    d*lcm(a)*n) bounds the degrees scanned.  Degree k*d takes one step per
    monomial (the t^(k*d) coefficient of 1/prod(1 - t^{a_i})) and one per
    suffix x_1..x_{n-1} its colex scan visits (the same with a_0 = 1).

    With d_i = d/gcd(a_i, d), where the pure power d_i*u_i is a generator, e
    factors if e - d_i*u_i does; so e factors if its residue r (e_i mod d_i
    in those coordinates) does, and if r does not, r is itself a checked
    failure: the verdict is an exact search's.  The table of residues holds
    only box vectors, each decided from those below it when the scan meets it.
    """
    a = check_weight(a)
    gens = veronese_generators(a, d)
    n = len(a)
    if cap is None:
        cap = d * lcm(*a) * n
    monomials, suffixes = (sum(expand([1], w, max(cap, 0))[d::d]) for w in (a, (1, *a[1:])))
    check_work(monomials + suffixes, f"{monomials} monomials of degree divisible by {d} up to {cap}")
    # reduce e_i mod d_i only where d_i*u_i is a generator; mod cap + 1 > e_i the others stay whole
    di = [d // gcd(x, d) for x in a]
    mods = tuple(m if tuple(m if k == i else 0 for k in range(n)) in gens else cap + 1 for i, m in enumerate(di))
    box_gens = [g for g in gens if all(x < m for x, m in zip(g, mods))]
    factors = {(0,) * n: True}
    names = variable_names(n)
    checked = 0
    failures = []
    for delta in range(d, cap + 1, d):
        for e in graded_piece_basis(a, delta):
            checked += 1
            r = tuple(x % m for x, m in zip(e, mods))
            ok = factors.get(r)
            if ok is None:  # r == e, a box vector the scan meets only here
                ok = factors[r] = any(_divides(g, r) and factors[tuple(y - x for x, y in zip(g, r))] for g in box_gens)
            if not ok:
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


def _power_rows(polys, p: int) -> list[list[tuple]]:
    """Each F_p polynomial as rows (c, T_x, T_y, T_z): c the coefficient
    residue of a term x^i y^j z^k, and T_x[v] = v^i mod p for v = 0..p-1
    (likewise T_y, T_z), one table per exponent shared by all rows."""
    exponents = {k for g in polys for e in g.terms for k in e}
    tables = {k: [pow(v, k, p) for v in range(p)] for k in exponents}
    return [[(c.value, *(tables[k] for k in e)) for e, c in g.terms.items()] for g in polys]


def _vanishes(rows, x: tuple[int, ...], p: int) -> bool:
    """Whether the polynomial given by `_power_rows` vanishes at the residue vector x."""
    u, v, w = x
    return sum(c * tu[u] * tv[v] * tw[w] for c, tu, tv, tw in rows) % p == 0


def scan_curve_points(c: PlaneCurve, p: int) -> dict:
    """Count the F_p-points, and the F_p^*-orbits of vectors, on the curve,
    and the orbits singular there.

    A cone scan, one support S at a time: a vector with support S lies in an
    orbit of (p-1)/w_S vectors, w_S = gcd(g_S, p-1) and g_S the gcd of the
    weights on S, so each of its (p-1)^|S| vectors adds w_S to a tally of p-1
    times the orbit count.  Every F_p-point of P(a) has exactly p-1 vectors
    over F_p (lambda^(a_i) in F_p on S gives lambda^(g_S) in F_p, and
    mu_(g_S) cancels that factor), so each vector on the curve also adds 1
    to p-1 times the point count.  f and its partials are evaluated by table
    lookups on int residues, without the terms that vanish on all of S (a
    term vanishes there iff it does at the 0/1 indicator vector of S).  The
    scan is sliced by torus cosets: f and its partials are weighted-homogeneous,
    so x -> lambda.x maps the (singular) zeros with x_i0 = c onto those with
    x_i0 = lambda^(a_i0) c, and each count is constant on the g0 = gcd(a_i0, p-1)
    cosets of the a_i0-th powers.  So only x_i0 = gamma^j, j < g0, gamma a
    generator of F_p^*, is scanned (i0 in S with the least g0), each vector
    found counts (p-1)/g0 times, and S takes g0 (p-1)^(|S|-1) steps.
    """
    a = c.weight
    gs = [gcd(ai, p - 1) for ai in a]
    slices = [(s, min((i for i in range(len(a)) if s[i]), key=gs.__getitem__)) for s in islice(product((0, 1), repeat=len(a)), 1, None)]
    check_work(sum(gs[i0] * (p - 1) ** (sum(s) - 1) for s, i0 in slices), f"the torus-coset slices of {p}^{len(a)} - 1 vectors")
    f = reduce_mod(c.poly, p)
    gamma = PrimeField(p).primitive_root().value
    polys = _power_rows([f] + [partial(f, i) for i in range(3)], p)
    total = on_curve = rational = singular = 0
    for support, i0 in slices:
        w = gcd(p - 1, *(ai for ai, s in zip(a, support) if s))
        total += w * (p - 1) ** sum(support)
        rows, *parts = ([r for r in g if all(t[s] for t, s in zip(r[1:], support))] for g in polys)
        axes = [range(1, p) if s else (0,) for s in support]
        axes[i0] = [pow(gamma, j, p) for j in range(gs[i0])]
        zeros = [x for x in product(*axes) if _vanishes(rows, x, p)]
        k = (p - 1) // gs[i0]
        on_curve += k * w * len(zeros)
        rational += k * len(zeros)
        singular += k * w * sum(all(_vanishes(g, x, p) for g in parts) for x in zeros)
    return {
        "weights": list(a),
        "p": p,
        "d": c.degree,
        "total_points": total // (p - 1),
        "points_on_curve": on_curve // (p - 1),
        "rational_points": rational // (p - 1),
        "singular_points": singular // (p - 1),
    }


# === manifest driver ===

_INT_KEYS = {"p", "d", "cap", "expect_points", "expect_rational_points", "expect_singular"}
_REQUIRED = {
    "point_equality": {"weights", "p"},
    "orbit_stabilizer": {"weights", "p"},
    "veronese": {"weights", "p", "d"},
    "curve_scan": {"weights", "p", "poly"},
}
_OPTIONAL = {"veronese": {"cap"}, "curve_scan": {"expect_points", "expect_rational_points", "expect_singular"}}


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
                check_length(value, f"line {lineno}: {key}")
                job[key] = int(value)
            else:
                job[key] = value
        name = job.pop("verify", None)
        if name not in _REQUIRED:
            raise ValueError(f"line {lineno}: unknown check {name!r}")
        extra = set(job) - _REQUIRED[name] - _OPTIONAL.get(name, set())
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
        expected = {
            "points_on_curve": "expect_points",
            "rational_points": "expect_rational_points",
            "singular_points": "expect_singular",
        }
        ok = all(report[k] == job[e] for k, e in expected.items() if e in job)
        summary = f"{report['points_on_curve']} on curve, {report['singular_points']} singular"
    return {"verify": name, "weights": list(a), "p": p, "ok": ok, "summary": summary, "report": report}


def run_manifest(text: str) -> dict:
    rows = [run_job(job) for job in parse_manifest(text)]
    return {"ok": all(row["ok"] for row in rows), "jobs": rows}
