import gc
import random
import time
from collections import Counter
from itertools import product
from math import comb, gcd, lcm, prod
from pathlib import Path

import pytest

import wps.geometry
import wps.oracle
from wps.curves import PlaneCurve
from wps.errors import PrimeUnsuitable, TooLarge
from wps.exactmath import QQ, PrimeField
from wps.geometry import WPoint, eq_geometric, eq_rational, normalize
from wps.oracle import (
    ClosureEquality,
    _support_blocks,
    parse_manifest,
    run_job,
    run_manifest,
    scan_curve_points,
    verify_orbit_stabilizer,
    verify_point_equality,
    verify_veronese,
)
from wps.parser import parse_polynomial
from wps.truncation import graded_piece_basis, veronese_generators
from wps.weights import is_well_formed
from wps.wpoly import WPolynomial, evaluate, monomial_string, partial, reduce_mod, variable_names

from support_blocks import keyed

MANIFEST = Path(__file__).resolve().parent.parent / "manifests" / "default.manifest"


# === point enumeration ===


@pytest.mark.parametrize(
    "a, p, count",
    [
        ((1, 1), 2, 3),
        ((1, 1), 5, 6),
        ((1, 1, 1), 7, 57),
        ((1, 1, 2), 3, 14),
        ((1, 1, 2), 5, 32),
        ((1, 2, 3), 7, 60),
        ((12, 20, 30), 7, 146),
    ],
)
def test_point_counts(a, p, count):
    # the F_p^*-orbits of the nonzero vectors: for (1, 1) the points of P^1 in
    # closed form, over three weights the orbit total of a curve scan (of x = 0)
    if len(a) == 2:
        assert sum(len(block) for _, block in _support_blocks(2, p, (1,))) == count
    else:
        assert scan_curve_points(PlaneCurve(parse_polynomial("x", a)), p)["total_points"] == count


def _normalized_points(a, p):
    """The `normalize` representative of every nonzero vector, distinct and sorted."""
    field = PrimeField(p)
    reps = {normalize(WPoint(a, v, field))[0] for v in product(range(p), repeat=len(a)) if any(v)}
    return sorted(reps, key=lambda x: x.values)


def test_enumeration_is_canonical_and_distinct():
    # orbits are rational-scaling orbits; the closure test may merge cone
    # points (|0:0:1| and |0:0:2| here), so distinctness is eq_rational
    points = _normalized_points((1, 1, 2), 3)
    for x in points:
        rep, _ = normalize(x)
        assert rep == x
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            assert not eq_rational(x, y), (x, y)
    merged = [
        (x, y)
        for i, x in enumerate(points)
        for y in points[i + 1 :]
        if eq_geometric(x, y)
    ]
    assert [(repr(x), repr(y)) for x, y in merged] == [("|0:0:1|", "|0:0:2|")]
    assert points == _ref_enumerate((1, 1, 2), 3)


def test_enumeration_scan_limit():
    with pytest.raises(TooLarge, match="4 steps for each of 101\\^3 - 1 vectors exceeds the work limit"):
        verify_point_equality((1, 1, 2), 101)
    # 100003 is prime; the limit must fire on the call, before any
    # per-prime work or a first vector
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="3 steps for each of 100003\\^2 - 1 vectors exceeds the work limit"):
        verify_point_equality((1, 1), 100003)
    with pytest.raises(TooLarge):
        verify_orbit_stabilizer((1, 1), 100003)
    assert time.perf_counter() - start < 1.0


def test_point_equality_scan_limit_comes_first():
    # the limit fires before the closure oracle tabulates discrete logs mod p
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="3 steps for each of 1000000007\\^2 - 1 vectors exceeds the work limit"):
        verify_point_equality((1, 2), 1000000007)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_point_equality((1, 1), 499),
        lambda: verify_point_equality((1, 2, 3), 61),
        lambda: scan_curve_points(PlaneCurve(parse_polynomial("x^3+y^3+z^3", (1, 1, 1))), 503),
        lambda: verify_orbit_stabilizer((6, 6, 6), 67),
        lambda: scan_curve_points(PlaneCurve(parse_polynomial("x^4+y^4+z^2", (1, 1, 2))), 503),
        lambda: verify_veronese((7, 11, 13), 17, 5),
        lambda: verify_veronese((1, 1, 1), 2, 5, 400),
    ],
)
def test_scans_past_the_work_limit_are_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="exceeds the work limit"):
        call()
    assert time.perf_counter() - start < 1.0


def test_orbit_stabilizer_checks_the_prime_before_the_budget():
    with pytest.raises(ValueError, match="modulus 68 is not prime"):
        verify_orbit_stabilizer((6, 6, 6), 68)


def test_veronese_budget_counts_monomials_and_scan_prefixes():
    # over (1,1,1) a piece of degree k has C(k+2, 2) monomials and as many
    # prefixes (x_0, x_1) of degree <= k: 2 * 118,635 steps answer, 2 * 125,076 do not
    assert verify_veronese((1, 1, 1), 2, None, 110)["checked"] == sum(comb(k + 2, 2) for k in range(2, 111, 2)) == 118_635
    with pytest.raises(TooLarge, match="125076 monomials of degree divisible by 2 up to 112 exceeds the work limit"):
        verify_veronese((1, 1, 1), 2, None, 112)


# === closure equality ===


def test_closure_equality_direct():
    eq = ClosureEquality((1, 1, 2), 5)

    def key(x):
        return keyed(eq.keys, [x])[0]

    assert key((0, 0, 1)) == key((0, 0, 2)), "2 is a square in the closure"
    assert key((1, 0, 0)) == key((2, 0, 0))
    assert key((1, 1, 1)) == key((2, 2, 4))
    assert key((1, 1, 1)) != key((1, 1, 2))
    assert key((1, 0, 1)) != key((1, 1, 1)), "supports differ"


# FpElem reference copies of the per-pair closure scan and the orbit
# enumeration that class keys and int residues replaced


class _ScanEquality:
    def __init__(self, a, p):
        self.a, self.p, self.m = a, p, p - 1
        g0 = PrimeField(p).primitive_root().value
        self.dlog = {pow(g0, e, p): e for e in range(self.m)}
        big = self.m * lcm(*a)
        while big % p == 0:
            big //= p
        self.M = big

    def least(self, x):
        support = [i for i in range(len(self.a)) if x[i] % self.p != 0]
        logs = [self.dlog[x[i] % self.p] * (self.M // self.m) for i in support]
        return min(
            tuple((g + t * self.a[i]) % self.M for g, i in zip(logs, support))
            for t in range(self.M)
        )

    def equal(self, x, y):
        p, a, M, m = self.p, self.a, self.M, self.m
        support = [i for i in range(len(a)) if x[i] % p != 0]
        if support != [i for i in range(len(a)) if y[i] % p != 0]:
            return False
        k = M // m
        targets = [(self.dlog[y[i] * pow(x[i], -1, p) % p] * k) % M for i in support]
        strides = [a[i] % M for i in support]
        return any(
            all((t * s) % M == g for s, g in zip(strides, targets)) for t in range(M)
        )


def _ref_enumerate(a, p):
    field = PrimeField(p)
    reps = set()
    for v in product(range(p), repeat=len(a)):
        if any(v):
            x = WPoint(a, v, field)
            reps.add(min(tuple((lam ** ai * c).value for ai, c in zip(a, x.coords)) for lam in map(field.coerce, range(1, p))))
    return [WPoint(a, r, field) for r in sorted(reps)]


NONCOPRIME = [((2, 2, 3), 7), ((1, 2, 2), 5), ((4, 6), 7)]


@pytest.mark.parametrize("a, p", [((1, 1, 2), 5), ((1, 2, 3), 7)] + NONCOPRIME)
def test_closure_key_matches_pair_scan(a, p):
    eq = ClosureEquality(a, p)
    ref = _ScanEquality(a, p)
    vectors = [v for v in product(range(p), repeat=len(a)) if any(v)]
    keys = keyed(eq.keys, vectors)
    for x, (_, least) in zip(vectors, keys):
        assert least == ref.least(x), x
    for i, x in enumerate(vectors):
        for j in range(i, len(vectors)):
            assert (keys[i] == keys[j]) == ref.equal(x, vectors[j]), (x, vectors[j])


def test_closure_key_is_least_coset_member():
    rng = random.Random(20161107)
    for _ in range(30):
        a = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4)))
        p = rng.choice([2, 3, 5, 7, 11, 13])
        eq, ref = ClosureEquality(a, p), _ScanEquality(a, p)
        for _ in range(8):
            x = tuple(rng.randrange(p) for _ in a)
            assert keyed(eq.keys, [x])[0][1] == ref.least(x), (a, p, x)


def test_enumeration_matches_orbit_minima():
    rng = random.Random(20161106)
    cases = [((1, 1), 2), ((2, 3, 4), 2), ((2, 4), 5), ((2, 2, 3), 7), ((3, 6), 13)]
    cases += [
        (tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 3))), rng.choice([2, 3, 5, 7, 11]))
        for _ in range(12)
    ]
    for a, p in cases:
        assert _normalized_points(a, p) == _ref_enumerate(a, p), (a, p)


@pytest.mark.parametrize(
    "a, p",
    [((1, 2, 3), 7), ((1, 1, 2), 5), ((2, 3, 5), 11), ((2, 2, 3), 7), ((1, 2, 2), 5), ((4, 6), 7), ((2, 3, 4), 2)],
)
def test_closure_classes_count_projective_points(a, p):
    # the F_p-points of P(a) number (p^n - 1)/(p - 1), as for P^{n-1}
    eq = ClosureEquality(a, p)
    keys = set(keyed(eq.keys, [v for v in product(range(p), repeat=len(a)) if any(v)]))
    assert len(keys) == (p ** len(a) - 1) // (p - 1)


def test_closure_equality_is_equivalence():
    # equal keys are an equivalence by construction; its classes hold the F_p^*-orbits
    a, p = (1, 2), 5
    eq = ClosureEquality(a, p)
    vectors = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    for v in vectors:
        scaled = [tuple(pow(lam, ai, p) * x % p for ai, x in zip(a, v)) for lam in range(1, p)]
        assert set(keyed(eq.keys, scaled)) == set(keyed(eq.keys, [v])), v


# === the three verifiers ===


@pytest.mark.parametrize("a, p", [((1, 1), 3), ((1, 1, 2), 5), ((1, 2, 3), 7)] + NONCOPRIME)
def test_point_equality_matches_closure(a, p):
    report = verify_point_equality(a, p)
    assert report["mismatch_count"] == 0
    assert report["mismatches"] == []


def _ref_point_equality(a, p):
    # the N^2 pair loop that class counting replaced
    field = PrimeField(p)
    vectors = [v for v in product(range(p), repeat=len(a)) if any(v)]
    keys = keyed(ClosureEquality(a, p).keys, vectors)
    points = [WPoint(a, v, field) for v in vectors]
    count, rows = 0, []
    for i in range(len(vectors)):
        for j in range(i, len(vectors)):
            geo = eq_geometric(points[i], points[j])
            truth = keys[i] == keys[j]
            if geo != truth:
                count += 1
                if len(rows) < 20:
                    rows.append(dict(x=list(vectors[i]), y=list(vectors[j]), geometric=geo, closure=truth))
    n = len(vectors)
    return {"weights": list(a), "p": p, "pairs": n * (n + 1) // 2, "mismatch_count": count, "mismatches": rows}


def _drop_last_condition(fold):
    def mutated(a, support):
        G, i0, steps = fold(a, support)
        return G, i0, steps[:-1]

    return mutated


@pytest.mark.parametrize("a, p", [((1, 1, 2), 5), ((2, 2, 3), 5), ((2, 3), 5), ((4, 6), 7), ((1, 2, 2), 3)])
def test_point_equality_matches_pair_loop(a, p, monkeypatch):
    assert verify_point_equality(a, p) == _ref_point_equality(a, p)
    # with one fold condition dropped eq_geometric overclaims; both count it alike
    monkeypatch.setattr(wps.geometry, "_fold_chain", _drop_last_condition(wps.geometry._fold_chain))
    report = verify_point_equality(a, p)
    assert report["mismatch_count"] > 0
    assert report == _ref_point_equality(a, p)
    oracle = ClosureEquality(a, p)
    field = PrimeField(p)
    for row in report["mismatches"]:
        x, y = WPoint(a, row["x"], field), WPoint(a, row["y"], field)
        kx, ky = keyed(oracle.keys, [row["x"], row["y"]])
        assert row["geometric"] == eq_geometric(x, y) != (kx == ky)


def test_point_equality_pair_count():
    report = verify_point_equality((1, 1), 3)
    assert report["pairs"] == 36, "8 nonzero vectors, unordered pairs with repeats"


@pytest.mark.parametrize(
    "a, p, points",
    [((1, 1, 2), 5, 31), ((1, 2, 3), 7, 57)],
)
def test_orbit_stabilizer_product(a, p, points):
    report = verify_orbit_stabilizer(a, p)
    assert report["points"] == points
    assert report["failures"] == []


@pytest.mark.parametrize("n, p", [(2, 2), (2, 7), (3, 3), (3, 5), (4, 3)])
def test_straight_points_are_orbit_minima(n, p):
    # each block is sorted and has its support; together they are the orbit minima
    points = []
    for support, block in _support_blocks(n, p, (1,)):
        assert block == sorted(block) and all(tuple(i for i, v in enumerate(x) if v) == support for x in block)
        points += block
    assert sorted(points) == [x.values for x in _ref_enumerate((1,) * n, p)]


def _ref_orbit_failures(a, p, group):
    # each straight point moved by every element of the group, one at a time,
    # and scaled back to first nonzero coordinate 1; the elements that bring
    # it back to itself are its stabilizer
    failures = []
    for x in (pt.values for pt in _ref_enumerate((1,) * len(a), p)):
        i0 = next(i for i, v in enumerate(x) if v)
        moved = [tuple(s * v * pow(g[i0] * x[i0], -1, p) % p for s, v in zip(g, x)) for g in group]
        if len(set(moved)) * moved.count(x) != prod(a):
            failures.append({"point": list(x), "orbit": len(set(moved)), "stabilizer": moved.count(x)})
    return failures


@pytest.mark.parametrize("a, p", [((1, 2, 3), 7), ((2, 2, 3), 7), ((2, 4), 13), ((3, 6, 2), 13)])
@pytest.mark.parametrize("how", ["drop one element", "one non-root"])
def test_orbit_verifier_catches_a_broken_action(a, p, how, monkeypatch):
    # the stabilizer order is counted once per support; the failure rows for a
    # broken group still equal those of a count made point by point
    group = wps.oracle._group_elements(a, p)
    if how == "drop one element":
        broken = group[:-1]
    else:
        k = len(group) // 2
        non_root = next(u for u in range(2, p) if pow(u, a[0], p) != 1)
        broken = group[:k] + [(non_root, *group[k][1:])] + group[k + 1 :]
    monkeypatch.setattr(wps.oracle, "_group_elements", lambda a, p: broken)
    report = verify_orbit_stabilizer(a, p)
    assert report["failures"]
    assert report["failures"] == _ref_orbit_failures(a, p, broken)
    assert _ref_orbit_failures(a, p, group) == []


def test_orbit_stabilizer_needs_suitable_prime():
    with pytest.raises(PrimeUnsuitable):
        verify_orbit_stabilizer((1, 2, 3), 5)


def test_veronese_straight_square():
    report = verify_veronese((1, 1), 2)
    assert report["generators"] == ["x^2", "x*y", "y^2"]
    assert report["regraded"] == [1, 1, 1]
    assert report["checked"] == 8
    assert report["failures"] == []


def test_veronese_capped():
    report = verify_veronese((6, 10, 15), 5, cap=60)
    assert report["generators"] == ["y", "z", "x^5"]
    assert report["regraded"] == [2, 3, 6]
    assert report["checked"] == 26
    assert report["failures"] == []


def _exact_factor(e, gens, memo):
    """Whether e is a sum of generators, by memoised search: the reference for the residue check."""
    if not any(e):
        return True
    if e not in memo:
        memo[e] = False  # cycle guard; every generator strictly shrinks e
        memo[e] = any(
            all(x <= y for x, y in zip(g, e)) and _exact_factor(tuple(y - x for x, y in zip(g, e)), gens, memo)
            for g in gens
        )
    return memo[e]


def _exact_check(a, d, cap, gens):
    """(checked, failures) of the factor check by exact search."""
    names, memo = variable_names(len(a)), {}
    monomials = [e for delta in range(d, cap + 1, d) for e in graded_piece_basis(a, delta)]
    return len(monomials), [monomial_string(e, names) for e in monomials if not _exact_factor(e, gens, memo)]


def _small_veronese_cases(seed, count):
    """Random (a, d, cap) over 2 or 3 variables with at most 3,000 monomials to check."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        a = tuple(rng.randrange(1, 8) for _ in range(rng.randrange(2, 4)))
        d = rng.randrange(1, 8)
        cap = rng.randrange(0, 3 * d * max(a) + 1)
        if sum(len(graded_piece_basis(a, k)) for k in range(d, cap + 1, d)) <= 3000:
            cases.append((a, d, cap))
    return cases


def test_residue_check_matches_exact_search():
    for a, d, cap in _small_veronese_cases(1309, 150):
        report = verify_veronese(a, d, None, cap)
        gens = veronese_generators(a, d)
        assert (report["checked"], report["failures"]) == _exact_check(a, d, cap, gens) == (report["checked"], []), (a, d, cap)
        assert report["generators"] == [monomial_string(g, variable_names(len(a))) for g in gens]


def test_residue_check_with_a_generator_dropped(monkeypatch):
    # without one generator the residue check may list more monomials than the
    # exact search, never fewer, and fails exactly when the exact search does
    tally = Counter()
    for a, d, cap in _small_veronese_cases(1310, 60):
        gens = veronese_generators(a, d)
        for j, dropped in enumerate(gens):
            kept = gens[:j] + gens[j + 1 :]
            monkeypatch.setattr(wps.oracle, "veronese_generators", lambda a, d, kept=kept: kept)
            report = verify_veronese(a, d, None, cap)
            checked, failures = _exact_check(a, d, cap, kept)
            assert report["checked"] == checked, (a, d, cap, dropped)
            assert bool(report["failures"]) == bool(failures), (a, d, cap, dropped)
            assert set(failures) <= set(report["failures"]), (a, d, cap, dropped)
            pure = sum(map(bool, dropped)) == 1
            tally["pure power failing" if pure and failures else "failing" if failures else "passing"] += 1
            tally["more listed"] += len(report["failures"]) > len(failures)
    assert min(tally.values()) >= 30, tally


def test_recursive_scans_leave_no_reference_cycles():
    # the recursion helpers take their memo and output as arguments, so a
    # call frees everything by reference counting
    for fn, args in [(graded_piece_basis, ((1, 2, 3), 12)), (verify_veronese, ((6, 10, 15), 5, None, 60))]:
        gc.collect()
        gc.disable()
        try:
            fn(*args)
            assert gc.collect() == 0, fn.__name__
        finally:
            gc.enable()


# === curve point scans ===


def test_scan_curve_points_frozen():
    c = PlaneCurve(parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30)))
    report = scan_curve_points(c, 7)
    assert report["total_points"] == 146
    assert report["points_on_curve"] == 20
    assert report["rational_points"] == 8, "P(12,20,30) is P^2 and the curve a line: 7 + 1 points"
    assert report["singular_points"] == 0
    line = PlaneCurve(parse_polynomial("x", (1, 1, 1)))
    report = scan_curve_points(line, 3)
    assert report["total_points"] == 13
    assert report["points_on_curve"] == report["rational_points"] == 4
    assert report["singular_points"] == 0


def _ref_curve_counts(c, p):
    # orbit minima by a scan of F_p^*, f evaluated on FpElem coordinates
    f = reduce_mod(c.poly, p)
    parts = [partial(f, i) for i in range(3)]
    field = f.field
    reps = {
        min(tuple(pow(lam, ai, p) * v % p for ai, v in zip(c.weight, x)) for lam in range(1, p))
        for x in product(range(p), repeat=3)
        if any(x)
    }
    on = [x for x in reps if evaluate(f, [field.coerce(v) for v in x]) == field.zero]
    sing = [x for x in on if all(evaluate(g, [field.coerce(v) for v in x]) == field.zero for g in parts)]
    return len(reps), len(on), len(sing)


def test_scan_curve_points_matches_orbit_minima():
    rng = random.Random(20161109)
    for _ in range(30):
        a = tuple(rng.randint(1, 5) for _ in range(3))
        d = rng.randint(max(a), 2 * max(a) + 2)
        monos = [e for e in product(range(d + 1), repeat=3) if sum(x * y for x, y in zip(a, e)) == d]
        if not monos:
            continue
        terms = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        text = " + ".join(f"{rng.randint(1, 6)}*x^{e[0]}*y^{e[1]}*z^{e[2]}" for e in terms)
        c = PlaneCurve(parse_polynomial(text, a))
        p = rng.choice([2, 3, 5, 7, 11])
        report = scan_curve_points(c, p)
        got = (report["total_points"], report["points_on_curve"], report["singular_points"])
        assert got == _ref_curve_counts(c, p), (a, text, p)


def test_scan_finds_singular_points():
    cusp = PlaneCurve(parse_polynomial("y^2*z - x^3", (1, 1, 1)))
    report = scan_curve_points(cusp, 5)
    assert report["singular_points"] == 1, "the cusp at |0:0:1|"


def _ref_vanishes(f, x, p):
    # the pow-based evaluation the table scan replaced
    return sum(c.value * prod(pow(v, k, p) for v, k in zip(x, e)) for e, c in f.terms.items()) % p == 0


def _ref_scan_curve_points(c, p):
    # the pow-based cone scan the table scan replaced, with the point count
    f = reduce_mod(c.poly, p)
    a = c.weight
    parts = [partial(f, i) for i in range(3)]
    total = on_curve = rational = singular = 0
    for x in product(range(p), repeat=3):
        if not any(x):
            continue
        w = gcd(p - 1, *(ai for ai, v in zip(a, x) if v))
        total += w
        if _ref_vanishes(f, x, p):
            on_curve += w
            rational += 1
            singular += w * all(_ref_vanishes(g, x, p) for g in parts)
    return {
        "weights": list(a),
        "p": p,
        "d": c.degree,
        "total_points": total // (p - 1),
        "points_on_curve": on_curve // (p - 1),
        "rational_points": rational // (p - 1),
        "singular_points": singular // (p - 1),
    }


def test_scan_curve_points_matches_pow_reference():
    rng = random.Random(20160722)
    seen = Counter()
    curves = 0
    while curves < 1000:
        a = tuple(rng.randint(1, 6) for _ in range(3))
        monos = graded_piece_basis(a, rng.randint(1, 12))
        if not monos:
            continue
        p = rng.choices([2, 3, 5, 7, 11, 13, 17], weights=[8, 8, 8, 8, 4, 1, 1])[0]
        terms = {e: rng.choice([-1, 1]) * rng.randint(1, 40) for e in rng.sample(monos, min(len(monos), rng.randint(1, 5)))}
        c = PlaneCurve(WPolynomial(a, QQ, terms))
        report = scan_curve_points(c, p)
        assert report == _ref_scan_curve_points(c, p), (a, terms, p)
        curves += 1
        seen[p] += 1
        seen["zero coefficient"] += any(v % p == 0 for v in terms.values())
        seen["p | a_i"] += any(ai % p == 0 for ai in a)
        seen["not well-formed"] += not is_well_formed(a)
        seen["singular"] += report["singular_points"] > 0
        seen["smooth point"] += report["points_on_curve"] > report["singular_points"]
        # a support of two coordinates, each with gcd(a_i, p - 1) >= 2, is scanned in g0 >= 2 torus-coset slices
        seen["sliced"] += any(min(gcd(a[i], p - 1), gcd(a[j], p - 1)) >= 2 for i, j in ((0, 1), (0, 2), (1, 2)))
    assert all(seen[p] >= 15 for p in (2, 3, 5, 7, 11, 13, 17)), seen
    keys = ("zero coefficient", "p | a_i", "not well-formed", "singular", "smooth point", "sliced")
    assert all(seen[k] >= 200 for k in keys), seen


def test_plane_cubic_is_scanned_up_to_p_499():
    # the sliced scan takes 3 + 3 * 498 + 498^2 = 249,501 steps at p = 499 (p = 503 is refused);
    # the Fermat cubic is smooth of genus 1, so |N - p - 1| <= 2 sqrt(p) (Hasse-Weil)
    report = scan_curve_points(PlaneCurve(parse_polynomial("x^3+y^3+z^3", (1, 1, 1))), 499)
    assert report["total_points"] == 499**2 + 499 + 1
    assert report["singular_points"] == 0
    assert (report["rational_points"] - 500) ** 2 <= 4 * 499


def _closure_point_count(c, p):
    # F_p-points as distinct closure classes of the F_p-vectors on the curve
    f = reduce_mod(c.poly, p)
    field, oracle = f.field, ClosureEquality(c.weight, p)
    on = [x for x in product(range(p), repeat=3) if any(x) and evaluate(f, [field.coerce(v) for v in x]) == field.zero]
    return len(set(keyed(oracle.keys, on)))


def test_rational_points_match_closure_classes():
    rng = random.Random(1729)
    for _ in range(60):
        a = tuple(rng.randint(1, 6) for _ in range(3))
        monos = graded_piece_basis(a, rng.randint(1, 12))
        if not monos:
            continue
        p = rng.choice([2, 3, 5, 7, 11])
        terms = {e: rng.randint(1, 40) for e in rng.sample(monos, min(len(monos), rng.randint(1, 4)))}
        c = PlaneCurve(WPolynomial(a, QQ, terms))
        assert scan_curve_points(c, p)["rational_points"] == _closure_point_count(c, p), (a, terms, p)


@pytest.mark.parametrize("p, count", [(5, 9), (7, 5), (11, 14), (13, 18)])
def test_weierstrass_cubic_counts_agree_in_p123(p, count):
    # the paper's example: y^2 z = x^3 + A x z^2 + B z^3 in P^2 is z^2 = y^3 + A x^4 y + B x^6 in P(1,2,3)
    plane = PlaneCurve(parse_polynomial("y^2*z - x^3 - x*z^2 - z^3", (1, 1, 1)))
    weighted = PlaneCurve(parse_polynomial("z^2 - y^3 - x^4*y - x^6", (1, 2, 3)))
    assert scan_curve_points(plane, p)["rational_points"] == count
    assert scan_curve_points(weighted, p)["rational_points"] == count
    assert _closure_point_count(weighted, p) == count


# === manifests ===


def test_parse_manifest_roundtrip():
    jobs = parse_manifest(
        """
        # consistency batch
        verify=point_equality weights=1,1 p=3
        verify=veronese weights=6,10,15 p=7 d=5 cap=60  # trailing comment
        verify=curve_scan weights=1,1,1 p=3 poly=x expect_points=4
        """
    )
    assert [j["verify"] for j in jobs] == ["point_equality", "veronese", "curve_scan"]
    assert jobs[1]["cap"] == 60
    assert jobs[2]["poly"] == "x"


@pytest.mark.parametrize(
    "line, message",
    [
        ("bogus", "line 1: expected key=value, got 'bogus'"),
        ("verify=point_equality weights=1,1 p=3 p=5", "line 1: duplicate key 'p'"),
        ("verify=nope weights=1,1 p=3", "line 1: unknown check 'nope'"),
        ("weights=1,1 p=3", "line 1: unknown check None"),
        (
            "verify=point_equality weights=1,1 p=3 d=2",
            "line 1: unexpected keys ['d']",
        ),
        ("verify=veronese weights=1,1 p=3", "line 1: missing keys ['d']"),
    ],
)
def test_parse_manifest_errors(line, message):
    with pytest.raises(ValueError) as info:
        parse_manifest(line)
    assert str(info.value) == message


def test_run_job_reports_failed_expectation():
    job = parse_manifest("verify=curve_scan weights=1,1,1 p=3 poly=x expect_points=5")[0]
    row = run_job(job)
    assert not row["ok"]
    assert row["summary"] == "4 on curve, 0 singular"


def test_run_job_checks_expected_rational_points():
    line = "verify=curve_scan weights=12,20,30 p=7 poly=x^5+y^3+z^2 expect_rational_points={}"
    assert run_job(parse_manifest(line.format(8))[0])["ok"]
    row = run_job(parse_manifest(line.format(20))[0])
    assert not row["ok"] and row["report"]["rational_points"] == 8


def test_reference_manifest_passes():
    result = run_manifest(MANIFEST.read_text())
    assert result["ok"]
    assert len(result["jobs"]) == 13
    assert all(row["ok"] for row in result["jobs"])
