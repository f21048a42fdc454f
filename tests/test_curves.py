import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest

from wps.errors import (
    DegenerateEdge,
    InvalidDegreeWeight,
    Mismatch,
    NotHomogeneous,
    NotSufficientlyGeneral,
    NotWellFormed,
    WPSError,
)
import wps.curves
from wps.curves import (
    PlaneCurve,
    _least_solution,
    branch_census,
    branching_index,
    genus,
    integrality_sweep,
    normalised_cover,
    numeric_constraint_violations,
    riemann_hurwitz_check,
    straight_cover,
    straight_genus,
    sufficiently_general,
    sweep_instances,
    vertex_membership,
)
from wps.exactmath import QQ, PrimeField, distinct_root_count, upoly_string
from wps.oracle import scan_curve_points
from wps.parser import parse_polynomial
from wps.truncation import graded_piece_basis
from wps.weights import is_well_formed
from wps.wpoly import WPolynomial, reduce_mod, restrict_to_edge, variable_names

import rational_euclid


def curve(text, weight):
    return PlaneCurve(parse_polynomial(text, weight))


QUARTIC = curve("x^4 + y^4 + z^2 + x*y*z", (1, 1, 2))
C7 = curve("x^7 + y^2*z + x*z^2", (1, 2, 3))


# === construction ===


def test_plane_curve_caches_degree():
    assert QUARTIC.degree == 4
    assert QUARTIC.weight == (1, 1, 2)
    assert C7.degree == 7


def test_plane_curve_guards():
    with pytest.raises(ValueError, match="three variables"):
        PlaneCurve(parse_polynomial("x^2 + y^2", (1, 1)))
    with pytest.raises(NotHomogeneous):
        PlaneCurve(parse_polynomial("x^2 + y", (1, 1, 1)))


# === the sufficiently-general conditions ===


def test_numeric_constraint_violations():
    assert numeric_constraint_violations(7, (1, 2, 3)) == []
    assert numeric_constraint_violations(1, (1, 1, 1)) == ["d >= 2 fails (d=1)"]
    v = numeric_constraint_violations(3, (1, 2, 5))
    assert "d >= a_2 fails (3 < 5)" in v
    assert "clause (ii) numeric fails at i=2: no j with a_2 | d - a_j" in v


def test_sufficiently_general_examples():
    ok, violations = sufficiently_general(QUARTIC)
    assert ok and violations == []
    ok, violations = sufficiently_general(C7)
    assert ok and violations == []


def test_sufficiently_general_missing_term():
    ok, violations = sufficiently_general(curve("x^7 + x*y^3", (1, 2, 3)))
    assert not ok
    assert violations == ["clause (ii) fails at i=2: none of x*z^2 present"]
    ok, violations = sufficiently_general(curve("x^3*y + y^4 + z^2", (1, 1, 2)))
    assert not ok
    assert violations == ["clause (i) fails at i=0: missing x^4"]


def test_sufficiently_general_needs_well_formed():
    with pytest.raises(NotWellFormed, match="not well-formed"):
        sufficiently_general(curve("x^5 + y^3 + z^2", (12, 20, 30)))


# === vertices and singular points ===


def test_vertex_membership():
    assert vertex_membership(QUARTIC) == (False, False, False)
    assert vertex_membership(C7) == (False, True, True)
    with pytest.raises(NotSufficientlyGeneral, match="clause \\(ii\\) fails at i=2"):
        vertex_membership(curve("x^7 + x*y^3", (1, 2, 3)))


def test_vertex_membership_cross_check(monkeypatch):
    # x*y*z vanishes at every vertex although 1 | 3; only a curve that
    # slipped past the generality check can reach the cross-check
    monkeypatch.setattr(wps.curves, "sufficiently_general", lambda c: (True, []))
    with pytest.raises(Mismatch, match="disagrees with evaluation at p_0"):
        vertex_membership(curve("x*y*z", (1, 1, 1)))


# === straight cover and edges ===


def test_straight_cover():
    cover = straight_cover(QUARTIC)
    assert cover.weight == (1, 1, 1)
    assert cover.degree == 4
    assert cover.poly == parse_polynomial("x^4 + y^4 + z^4 + x*y*z^2", (1, 1, 1))


def _edge_strings(c):
    cover = straight_cover(c).poly
    return [upoly_string(restrict_to_edge(cover, i)) for i in range(3)]


def test_edge_squarefree_check():
    assert _edge_strings(QUARTIC) == ["1 + t^4", "1 + t^4", "1 + t^4"]
    assert all(row["squarefree"] for row in branch_census(QUARTIC)["edges"])
    c = curve("x^4 + y^4 + z^2 + 2*x^2*z", (1, 1, 2))
    assert _edge_strings(c) == ["1 + t^4", "1 + 2*t^2 + t^4", "1 + t^4"]
    assert [(r["squarefree"], r["count"]) for r in branch_census(c)["edges"]] == [(True, 4), (False, 2), (True, 4)]


def test_edge_squarefree_degenerate():
    # sufficiently general, but every term has x: edge 0 is identically zero
    with pytest.raises(DegenerateEdge, match="edge 0 restriction is identically zero"):
        branch_census(curve("x^7 + x*y^3 + x*z^2", (1, 2, 3)))


# === the branch census ===


def test_branch_census_quartic():
    report = branch_census(QUARTIC)
    assert report["d"] == 4
    assert report["weights"] == [1, 1, 2]
    assert report["vertices"] == [False, False, False]
    for row, predicted in zip(report["edges"], (4, 4, 4)):
        assert row["count"] == predicted == row["predicted"]
        assert row["agree"] and row["squarefree"]


def test_branch_census_c7():
    report = branch_census(C7)
    assert report["vertices"] == [False, True, True]
    rows = [
        (r["i"], r["count"], r["predicted"], r["agree"], r["squarefree"])
        for r in report["edges"]
    ]
    # no monomial of degree 7 in y, z alone other than y^2*z: edge 0 meets
    # the curve only at the vertices, N_0 = 0
    assert rows == [
        (0, 0, 0, True, False),
        (1, 6, 6, True, True),
        (2, 0, 6, False, True),
    ]


def test_branch_census_random_general_curves():
    # every monomial of degree d with a random nonzero coefficient
    rng = random.Random(20160408)
    instances = []
    for d, a in sweep_instances(max_entry=5, max_degree=12):
        basis = graded_piece_basis(a, d)
        if all(any(e[i] == 0 for e in basis) for i in range(3)):
            instances.append((a, basis))
    for a, basis in rng.sample(instances, 60):
        terms = {e: rng.choice([-1, 1]) * rng.randint(1, 9) for e in basis}
        report = branch_census(PlaneCurve(WPolynomial(a, QQ, terms)))
        for row in report["edges"]:
            assert row["agree"], (a, terms, row)


def test_branch_census_needs_generality():
    with pytest.raises(NotSufficientlyGeneral):
        branch_census(curve("x^7 + x*y^3", (1, 2, 3)))


# === branching index and genus ===


def test_branching_index_frozen():
    assert branching_index(6, (1, 2, 3)) == 18
    assert branching_index(4, (1, 1, 2)) == 4
    assert branching_index(3, (1, 1, 1)) == 0
    assert branching_index(7, (1, 2, 3)) == 28


def test_branching_index_guards():
    with pytest.raises(InvalidDegreeWeight, match="three weights"):
        branching_index(2, (1, 1))
    with pytest.raises(InvalidDegreeWeight, match="d >= a_2 fails"):
        branching_index(3, (1, 2, 5))
    with pytest.raises(InvalidDegreeWeight, match="not well-formed"):
        branching_index(60, (12, 20, 30))


def test_genus_frozen():
    assert genus(6, (1, 2, 3)) == 1
    assert genus(4, (1, 1, 2)) == 1
    assert genus(3, (1, 1, 1)) == 1
    assert genus(7, (1, 2, 3)) == 1
    assert straight_genus(5) == 6
    assert straight_genus(2) == 0


def orlik_wagreich(d, a):
    n = prod(a)
    g = (
        Fraction(d * d, n)
        - sum(Fraction(d, x * y) for x, y in combinations(a, 2))
        + sum(Fraction(gcd(d, x), x) for x in a)
        - 1
    ) / 2
    assert g.denominator == 1 and g >= 0, (d, a, g)
    return int(g)


@pytest.mark.parametrize(
    "d, a, old_value",
    [
        (3, (1, 1, 2), "1/4"),
        (3, (1, 2, 3), "-1/12"),
        (5, (2, 3, 5), "-1/3"),
    ],
)
def test_genus_non_integer(d, a, old_value):
    # branch data with d-1 points on every edge and N-1 at every vertex made
    # the formula give old_value here; all three curves are rational
    assert genus(d, a) == orlik_wagreich(d, a) == 0
    deg, g_cover, b = normalised_cover(d, a)
    assert riemann_hurwitz_check(g_cover, 0, deg, b)


def test_genus_matches_orlik_wagreich():
    for d, a in sweep_instances():
        assert genus(d, a) == orlik_wagreich(d, a), (d, a)


def test_normalised_cover_line_case():
    # x_2 is the only monomial of degree 5 in P(3,4,5): the curve is the line
    # x_2 = 0, covered by a line with degree 12 and two totally ramified points
    assert normalised_cover(5, (3, 4, 5)) == (12, 0, 22)
    assert genus(5, (3, 4, 5)) == 0


def test_genus_closed_form_for_two_unit_weights():
    # for a = (1, 1, k) the formula collapses to (d-2)(d-k)/(2k)
    for k, d in [(2, 4), (2, 6), (2, 8), (3, 6), (3, 9), (4, 8), (5, 10)]:
        expected, rem = divmod((d - 2) * (d - k), 2 * k)
        assert rem == 0
        assert genus(d, (1, 1, k)) == expected


def test_riemann_hurwitz_check():
    assert riemann_hurwitz_check(10, 1, 6, 18)
    assert riemann_hurwitz_check(straight_genus(4), 1, 2, 4)
    assert not riemann_hurwitz_check(10, 1, 6, 17)
    with pytest.raises(ValueError):
        riemann_hurwitz_check(1, 1, 0, 0)


def _general_sweep_curve(rng, a, d):
    # the monomials the sufficiently-general clauses ask for, plus up to two others; coefficients 1..5
    terms = {}
    for i, ai in enumerate(a):
        e = [0, 0, 0]
        if d % ai == 0:
            e[i] = d // ai
        else:
            j = rng.choice([j for j in range(3) if j != i and d >= a[j] and (d - a[j]) % ai == 0])
            e[j] += 1
            e[i] += (d - a[j]) // ai
        terms[tuple(e)] = rng.randint(1, 5)
    extras = list(graded_piece_basis(a, d))
    rng.shuffle(extras)
    terms.update({e: rng.randint(1, 5) for e in extras[: rng.randint(0, 2)]})
    return PlaneCurve(WPolynomial(a, QQ, terms))


def test_point_counts_obey_hasse_weil():
    # genus(d, a) against F_p-point counts, at primes of good reduction: p does not divide d, no
    # singular F_p-point, and every edge of the straight cover keeps its distinct roots mod p.
    # Genus 0 gives exactly p + 1 points; otherwise (N - p - 1)^2 <= 4 g^2 p (Hasse-Weil).
    rng = random.Random(20161018)
    instances = list(sweep_instances(max_degree=24))
    checked = curves = 0
    while curves < 40:
        d, a = rng.choice(instances)
        c = _general_sweep_curve(rng, a, d)
        edges = [restrict_to_edge(straight_cover(c).poly, i) for i in range(3)]
        if not all(edges):
            continue
        curves += 1
        g = genus(d, a)
        for p in (11, 13, 101):
            report = scan_curve_points(c, p)
            reduced = [restrict_to_edge(straight_cover(PlaneCurve(reduce_mod(c.poly, p))).poly, i) for i in range(3)]
            fp = PrimeField(p)
            lost = any(distinct_root_count(r, fp) < distinct_root_count(e, QQ) for r, e in zip(reduced, edges))
            if d % p == 0 or report["singular_points"] or lost:
                continue
            checked += 1
            n = report["rational_points"]
            if g == 0:
                assert n == p + 1, (d, a, c.poly.to_string(), p)
            assert (n - p - 1) ** 2 <= 4 * g * g * p, (d, a, g, c.poly.to_string(), p, n)
    assert checked >= 100, checked


# === the integrality sweep ===


def test_sweep_instances_shape():
    instances = list(sweep_instances(max_entry=3, max_degree=12))
    assert (7, (1, 2, 3)) in instances
    assert (6, (1, 2, 3)) in instances
    for d, a in instances:
        assert numeric_constraint_violations(d, a) == []
        assert a == tuple(sorted(a))


def test_integrality_sweep_regression():
    result = integrality_sweep()
    assert result["checked"] == 777
    assert result["failures"] == []


# === references: the explicit loops these functions replaced ===


def _ref_numeric(d, a):
    out = []
    if d < 2:
        out.append(f"d >= 2 fails (d={d})")
    for i, ai in enumerate(a):
        if d < ai:
            out.append(f"d >= a_{i} fails ({d} < {ai})")
    for i, ai in enumerate(a):
        if d % ai != 0:
            if not any(j != i and (d - a[j]) % ai == 0 and d - a[j] >= 0 for j in range(len(a))):
                out.append(f"clause (ii) numeric fails at i={i}: no j with a_{i} | d - a_j")
    return out


def _ref_sufficiently_general(c):
    a = c.weight
    if not is_well_formed(a):
        raise NotWellFormed(f"weight {a} is not well-formed")
    d = c.degree
    names = variable_names(3)
    violations = _ref_numeric(d, a)
    support = c.poly.support()
    for i, ai in enumerate(a):
        if d % ai == 0:
            e = tuple(d // ai if k == i else 0 for k in range(3))
            if e not in support:
                violations.append(f"clause (i) fails at i={i}: missing {names[i]}^{d // ai}")
        else:
            wanted = []
            found = False
            for j in range(3):
                if j == i or (d - a[j]) % ai != 0 or d - a[j] < 0:
                    continue
                m = (d - a[j]) // ai
                e = tuple((1 if k == j else 0) + (m if k == i else 0) for k in range(3))
                wanted.append(f"{names[j]}*{names[i]}^{m}")
                if e in support:
                    found = True
            if wanted and not found:
                violations.append(f"clause (ii) fails at i={i}: none of {', '.join(wanted)} present")
    return not violations, violations


def _ref_least_solution(step, target, mod, start=0):
    return next(t for t in range(start, start + mod) if (t * step - target) % mod == 0)


def _ref_squarefree(g):
    return len(g[1]) == 1 or len(rational_euclid.gcd(g, rational_euclid.derivative(g))[1]) == 1


def _ref_edge_point_count(d, a, i):
    k, l = (i + 1) % 3, (i + 2) % 3
    return d - _ref_least_solution(a[k], d, a[l]) * a[k] - _ref_least_solution(a[l], d, a[k]) * a[l]


def _ref_branch_census(c):
    ok, violations = _ref_sufficiently_general(c)
    if not ok:
        raise NotSufficientlyGeneral("; ".join(violations))
    cover = straight_cover(c).poly
    d, a = c.degree, c.weight
    edges = []
    for i in range(3):
        g = rational_euclid.poly(cover.field, restrict_to_edge(cover, i))
        if not g[1]:
            raise DegenerateEdge(f"edge {i} restriction is identically zero")
        count = rational_euclid.distinct_roots(g) - (g[1][0] == cover.field.zero)
        predicted = _ref_edge_point_count(d, a, i)
        edges.append(
            {"i": i, "count": count, "predicted": predicted, "agree": count == predicted,
             "squarefree": _ref_squarefree(g)}
        )
    return {"d": d, "weights": list(a), "edges": edges, "vertices": list(vertex_membership(c))}


def _ref_sweep_instances(max_entry, max_degree):
    for a0 in range(1, max_entry + 1):
        for a1 in range(a0, max_entry + 1):
            if gcd(a0, a1) != 1:
                continue
            for a2 in range(a1, max_entry + 1):
                if gcd(a0, a2) != 1 or gcd(a1, a2) != 1:
                    continue
                a = (a0, a1, a2)
                for d in range(2, max_degree + 1):
                    if not _ref_numeric(d, a):
                        yield d, a


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except WPSError as exc:
        return type(exc), str(exc)


def _random_curve(rng):
    """A seeded curve, mostly on well-formed weights: random terms, and half
    the time for each i the pure power x_i^m or else one random term
    x_j x_i^m, which makes the curve general when such terms exist."""
    while True:
        a = tuple(sorted(rng.randint(1, 7) for _ in range(3)))
        d = rng.randint(2, 12)
        basis = graded_piece_basis(a, d)
        if basis and (is_well_formed(a) or rng.random() < 0.1):
            break
    chosen = set(rng.sample(basis, rng.randint(1, len(basis)))) if rng.random() < 0.5 else set()
    if not chosen or rng.random() < 0.5:
        for i in range(3):
            options = [e for e in basis if e[i] * a[i] == d] or [e for e in basis if sum(e) - e[i] == 1]
            if options:
                chosen.add(rng.choice(options))
    field = rng.choice([QQ, QQ, PrimeField(7)])
    terms = {e: rng.randint(1, 6) * rng.choice([-1, 1]) for e in chosen}
    return PlaneCurve(WPolynomial(a, field, terms))


def test_curves_match_reference_loops():
    rng = random.Random(2016)
    seen = Counter()
    for _ in range(1000):
        c = _random_curve(rng)
        general = _outcome(_ref_sufficiently_general, c)
        assert _outcome(sufficiently_general, c) == general
        assert numeric_constraint_violations(c.degree, c.weight) == _ref_numeric(c.degree, c.weight)
        census = _outcome(_ref_branch_census, c)
        assert _outcome(branch_census, c) == census, c
        seen[general[0] == "ok" and general[1][0], census[0]] += 1
    # every branch is exercised: general curves with and without a degenerate
    # edge, curves that fail a clause, and weights that are not well-formed
    assert seen[True, "ok"] >= 200
    assert seen[True, DegenerateEdge] >= 20
    assert seen[False, NotSufficientlyGeneral] >= 200
    assert seen[False, NotWellFormed] >= 50


def test_least_solution_matches_scan():
    for mod in range(1, 31):
        for step in range(1, mod + 1):
            if gcd(step, mod) != 1:
                continue
            for target in range(-mod, 2 * mod):
                for start in (0, 1):
                    assert _least_solution(step, target, mod, start) == _ref_least_solution(step, target, mod, start)


def test_sweep_matches_nested_loops():
    assert list(sweep_instances(9, 60)) == list(_ref_sweep_instances(9, 60))
