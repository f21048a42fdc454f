"""Weighted plane curves: genericity diagnostics, vertex and singularity
checks, edge squarefreeness, the branching index, and the degree-genus
formula with its Riemann-Hurwitz consistency check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, prod

from .errors import (
    DegenerateEdge,
    InvalidDegreeWeight,
    Mismatch,
    NonIntegerGenus,
    NotHomogeneous,
    NotSufficientlyGeneral,
    NotWellFormed,
    check_work,
)
from .exactmath import distinct_root_count
from .weights import Weight, check_weight, is_well_formed
from .wpoly import (
    WPolynomial,
    evaluate,
    is_weighted_homogeneous,
    power_substitute,
    restrict_to_edge,
    variable_names,
)


class PlaneCurve:
    """A weighted-homogeneous polynomial in three variables, degree cached.

    The defining polynomial is meant to be squarefree; that is not
    machine-checked.
    """

    def __init__(self, poly: WPolynomial):
        if poly.nvars() != 3:
            raise ValueError("plane curves live in three variables")
        d = is_weighted_homogeneous(poly)
        if d is None:
            raise NotHomogeneous("a plane curve needs a weighted-homogeneous polynomial")
        self.poly = poly
        self.weight = poly.weight
        self.degree = d

    def __repr__(self) -> str:
        return f"PlaneCurve({self.poly.to_string()!r}, weight={self.weight}, degree={self.degree})"


def _clause_terms(d: int, a: Weight, i: int) -> list[tuple[int, int]]:
    """The (j, m) of every degree-d term x_j x_i^m, j != i: the terms that
    clause (ii) accepts at i."""
    return [
        (j, (d - aj) // a[i])
        for j, aj in enumerate(a)
        if j != i and d >= aj and (d - aj) % a[i] == 0
    ]


def numeric_constraint_violations(d: int, a: Weight) -> list[str]:
    """The degree/weight conditions of the sufficiently-general definition."""
    out = []
    if d < 2:
        out.append(f"d >= 2 fails (d={d})")
    for i, ai in enumerate(a):
        if d < ai:
            out.append(f"d >= a_{i} fails ({d} < {ai})")
    for i, ai in enumerate(a):
        if d % ai != 0 and not _clause_terms(d, a, i):
            out.append(f"clause (ii) numeric fails at i={i}: no j with a_{i} | d - a_j")
    return out


def sufficiently_general(c: PlaneCurve) -> tuple[bool, list[str]]:
    """Check the term-presence conditions, naming every violated clause."""
    a = c.weight
    if not is_well_formed(a):
        raise NotWellFormed(f"weight {a} is not well-formed")
    d = c.degree
    names = variable_names(3)
    violations = numeric_constraint_violations(d, a)
    support = c.poly.support()
    for i, ai in enumerate(a):
        if d % ai == 0:
            e = tuple(d // ai if k == i else 0 for k in range(3))
            if e not in support:
                violations.append(f"clause (i) fails at i={i}: missing {names[i]}^{d // ai}")
            continue
        terms = _clause_terms(d, a, i)
        exponents = [tuple(int(k == j) + (m if k == i else 0) for k in range(3)) for j, m in terms]
        if terms and support.isdisjoint(exponents):
            wanted = ", ".join(f"{names[j]}*{names[i]}^{m}" for j, m in terms)
            violations.append(f"clause (ii) fails at i={i}: none of {wanted} present")
    return not violations, violations


def vertex_membership(c: PlaneCurve) -> tuple[bool, bool, bool]:
    """Whether each coordinate vertex p_i lies on the curve (a_i does not divide d).

    Cross-checked by evaluating f at the vertices.
    """
    ok, violations = sufficiently_general(c)
    if not ok:
        raise NotSufficientlyGeneral("; ".join(violations))
    out = []
    field = c.poly.field
    for i, ai in enumerate(c.weight):
        claimed = c.degree % ai != 0
        vertex = [field.one if k == i else field.zero for k in range(3)]
        evaluated = evaluate(c.poly, vertex) == field.zero
        if claimed != evaluated:
            raise Mismatch(f"vertex rule disagrees with evaluation at p_{i}")
        out.append(claimed)
    return tuple(out)


def straight_cover(c: PlaneCurve) -> PlaneCurve:
    """The curve pi_#(f) in straight projective space, same degree."""
    return PlaneCurve(power_substitute(c.poly))


def _edges(c: PlaneCurve) -> list[list]:
    """The three edge restrictions of the straight cover, as coefficient lists; none may be zero.
    Each has degree <= d; a remainder sequence that drops one degree a step
    takes about d^2 steps on it, so 3 d^2 is checked up front, and
    `distinct_root_count` counts every step as it goes."""
    check_work(3 * c.degree**2, f"root counts on the edges of a degree-{c.degree} cover")
    cover = straight_cover(c).poly
    edges = [restrict_to_edge(cover, i) for i in range(3)]
    for i, g in enumerate(edges):
        if not g:
            raise DegenerateEdge(f"edge {i} restriction is identically zero")
    return edges


def _check_degree_weight(d: int, a: Weight) -> Weight:
    """Validate (d, a): three well-formed weights meeting the numeric
    sufficiently-general constraints."""
    a = check_weight(a)
    if len(a) != 3:
        raise InvalidDegreeWeight("the branching index is defined for three weights")
    problems = numeric_constraint_violations(d, a)
    if not is_well_formed(a):
        problems.append(f"weight {a} is not well-formed")
    if problems:
        raise InvalidDegreeWeight("; ".join(problems))
    return a


def _least_solution(step: int, target: int, mod: int, start: int = 0) -> int:
    """The least t >= start with t*step = target (mod mod), start <= 1; step
    is a unit mod mod."""
    t = target * pow(step, -1, mod) % mod
    return t + mod if t < start else t


def edge_point_count(d: int, a: Weight, i: int) -> int:
    """N_i = d - alpha*a_k - beta*a_l, the number of points off the vertices
    where the straight cover of a general degree-d curve meets edge x_i = 0.

    {k, l} are the other two indices, alpha the least alpha >= 0 with
    alpha*a_k = d (mod a_l) and beta the least beta >= 0 with
    beta*a_l = d (mod a_k): every edge monomial is x_k^alpha x_l^beta times
    a form in x_k^{a_l}, x_l^{a_k}.  Negative when no monomial of degree d
    avoids x_i.
    """
    k, l = (i + 1) % 3, (i + 2) % 3
    alpha = _least_solution(a[k], d, a[l])
    beta = _least_solution(a[l], d, a[k])
    return d - alpha * a[k] - beta * a[l]


def _vertex_singularity(d: int, a: Weight, j: int) -> tuple[int, int]:
    """(r_j, delta_j): branches and delta invariant of the straight cover at
    the vertex p_j (a_j does not divide d).

    Clause (ii) gives a term x_k x_j^m, so the cover is locally
    u^{a_k} = c v^{s a_l} + ..., s the least s >= 1 with s*a_l = d (mod a_j).
    """
    k = _clause_terms(d, a, j)[0][0]
    l = 3 - j - k
    power = _least_solution(a[l], d, a[j], 1) * a[l]
    r = gcd(a[k], power)
    return r, ((a[k] - 1) * (power - 1) + r - 1) // 2


def normalised_cover(d: int, a: Weight) -> tuple[int, int, int]:
    """(deg, g, b) for the straight cover of a sufficiently general degree-d
    curve: the degree of the map to the curve, the genus of the cover's
    normalisation and the branching index b(pi).

    In general deg = a_0a_1a_2, g = (d-1)(d-2)/2 - sum_j delta_j and
    b = sum_i N_i (a_i - 1) + sum_{a_j does not divide d} (a_0a_1a_2 - r_j).
    When x_j is the only monomial of degree d the curve is the line x_j = 0:
    its reduced cover is a line mapping with degree a_0a_1a_2/a_j and
    totally ramified over the two vertices.
    """
    a = _check_degree_weight(d, a)
    n = prod(a)
    counts = [edge_point_count(d, a, i) for i in range(3)]
    if min(counts) < 0:
        # under the numeric constraints an empty edge forces d = a_j
        deg = n // d
        return deg, 0, 2 * (deg - 1)
    g = straight_genus(d)
    b = sum(c * (ai - 1) for c, ai in zip(counts, a))
    for j in range(3):
        if d % a[j]:
            r, delta = _vertex_singularity(d, a, j)
            g -= delta
            b += n - r
    return n, g, b


def branching_index(d: int, a: Weight) -> int:
    """b(pi) of the straight cover P^2 -> P(a) restricted to a sufficiently
    general degree-d curve; see `normalised_cover`."""
    return normalised_cover(d, a)[2]


def straight_genus(d: int) -> int:
    """(d-1)(d-2)/2, the straight plane-curve genus."""
    return (d - 1) * (d - 2) // 2


def genus(d: int, a: Weight) -> int:
    """The degree-genus formula for a sufficiently general curve in P(a):

    g = (d^2/N - d*sum_{i<j} 1/(a_i a_j) + sum_i gcd(d, a_i)/a_i - 1) / 2,
    N = a_0a_1a_2 (well-formed weights are pairwise coprime).  Raises
    `NonIntegerGenus` should the value ever not be a non-negative integer.
    """
    a = _check_degree_weight(d, a)
    n = prod(a)
    # sum_{i<j} 1/(a_i a_j) = (a_0 + a_1 + a_2)/N
    g = (Fraction(d * (d - sum(a)), n) + sum(Fraction(gcd(d, ai), ai) for ai in a) - 1) / 2
    if g.denominator != 1 or g < 0:
        raise NonIntegerGenus(f"genus formula gives {g} for d={d}, a={a}")
    return int(g)


def riemann_hurwitz_check(g_cover: int, g_base: int, deg: int, b: int) -> bool:
    """2 g_cover - 2 = deg (2 g_base - 2) + b."""
    if deg < 1:
        raise ValueError("covering degree must be positive")
    return 2 * g_cover - 2 == deg * (2 * g_base - 2) + b


def branch_census(c: PlaneCurve) -> dict:
    """Distinct-nonzero-root counts per edge of the straight cover versus the
    count N_i predicted for a general curve (`edge_point_count`), with
    disagreement flags.

    Runs on any sufficiently-general curve; non-squarefree edges are
    reported, not rejected.  An identically-zero edge is an error.
    """
    vertices = list(vertex_membership(c))
    d, a = c.degree, c.weight
    edges, spent = [], [0]
    for i, g in enumerate(_edges(c)):
        roots = distinct_root_count(g, c.poly.field, spent)
        count = roots - 1 if not g[0] else roots
        predicted = edge_point_count(d, a, i)
        edges.append(
            dict(i=i, count=count, predicted=predicted, agree=count == predicted, squarefree=roots == len(g) - 1)
        )
    return {"d": d, "weights": list(a), "edges": edges, "vertices": vertices}


def sweep_instances(max_entry: int = 9, max_degree: int = 60):
    """All (d, a) with a pairwise-coprime non-decreasing, entries <= max_entry,
    d <= max_degree, meeting the numeric sufficiently-general constraints.
    """
    for a in combinations_with_replacement(range(1, max_entry + 1), 3):
        if all(gcd(x, y) == 1 for x, y in combinations(a, 2)):
            for d in range(2, max_degree + 1):
                if not numeric_constraint_violations(d, a):
                    yield d, a


def integrality_sweep(max_entry: int = 9, max_degree: int = 60) -> dict:
    """Check over the sweep that `genus` is a non-negative integer and that
    Riemann-Hurwitz 2g' - 2 = deg (2g - 2) + b holds, with (deg, g', b) from
    `normalised_cover`: branch data counted independently of the closed
    formula.  Collects every failing instance.  Steps: the C(E+2, 3) sorted
    triples of entries <= E times the degrees 2..D.
    """
    steps = comb(max(max_entry, 0) + 2, 3) * max(max_degree - 1, 1)
    check_work(steps, f"sweep to entry {max_entry} and degree {max_degree}")
    checked = 0
    failures = []
    for d, a in sweep_instances(max_entry, max_degree):
        checked += 1
        try:
            g = genus(d, a)
        except NonIntegerGenus as exc:
            failures.append({"d": d, "weights": list(a), "problem": str(exc)})
            continue
        deg, g_cover, b = normalised_cover(d, a)
        if not riemann_hurwitz_check(g_cover, g, deg, b):
            failures.append(
                {"d": d, "weights": list(a), "problem": "Riemann-Hurwitz identity fails"}
            )
    return {"checked": checked, "failures": failures}
