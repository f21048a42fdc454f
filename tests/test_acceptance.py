"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them all).  Checks
with a stated time budget measure it with perf_counter.  Criterion 4 asks
the integrality sweep for no counterexamples; it passes on all 777
instances, and a FAIL line would list the first ones.
"""

import random
import time
from fractions import Fraction

from wps.curves import (
    branching_index,
    genus,
    integrality_sweep,
    riemann_hurwitz_check,
    straight_genus,
)
from wps.exactmath import FpElem, PrimeField
from wps.geometry import WPoint, eq_geometric, eq_rational
from wps.hilbert import HilbertSeries, numerator_from_sequence
from wps.oracle import verify_orbit_stabilizer, verify_point_equality, verify_veronese
from wps.parser import parse_polynomial, parse_upolynomial
from wps.truncation import (
    graded_piece_basis,
    regraded_degrees,
    straighten_chain,
    veronese_generators,
)
from wps.weights import well_form
from wps.wpoly import WPolynomial, evaluate, monomial_string, power_substitute, variable_names


def report(n: int, ok: bool, text: str, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {n:2d}: {text}"
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


def test_criterion_01_well_forming_worked_example():
    start = time.perf_counter()
    result, trace = well_form((12, 20, 30))
    elapsed = time.perf_counter() - start
    chain = trace.chain()
    expected = [(12, 20, 30), (6, 10, 15), (6, 2, 3), (3, 1, 3), (1, 1, 1)]
    ok = result == (1, 1, 1) and chain == expected and elapsed < 0.001
    prime_result, prime_trace = well_form((12, 20, 30), prime_steps=True)
    ok = ok and prime_result == (1, 1, 1) and prime_trace.chain() == expected
    assert report(
        1,
        ok,
        "well_form((12,20,30)) walks the 4-step chain to (1,1,1)",
        f"{elapsed * 1000:.3f} ms",
    )


def test_criterion_02_straightening_pipeline():
    f = parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30))
    pres, _ = straighten_chain(f, (12, 20, 30))
    ok = (
        pres.weight == (1, 1, 1)
        and pres.generator_names == ["x^5", "y^3", "z^2"]
        and pres.relations == [parse_polynomial("x + y + z", (1, 1, 1))]
        and pres.relation_degrees == [1]
    )
    assert report(
        2, ok, "straighten_chain(x^5+y^3+z^2, (12,20,30)) presents x+y+z in degree 1"
    )


def test_criterion_03_degree_genus_table():
    table_ok = (
        genus(6, (1, 2, 3)) == 1
        and genus(4, (1, 1, 2)) == 1
        and genus(3, (1, 1, 1)) == 1
        and genus(7, (1, 2, 3)) == 1
    )
    straight_ok = all(
        genus(d, (1, 1, 1)) == (d - 1) * (d - 2) // 2 == straight_genus(d)
        for d in range(2, 31)
    )
    assert report(
        3,
        table_ok and straight_ok,
        "genus table instances equal 1; genus(d,(1,1,1)) = (d-1)(d-2)/2 for d = 2..30",
    )


def test_criterion_04_integrality_sweep():
    start = time.perf_counter()
    result = integrality_sweep(max_entry=9, max_degree=60)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"
    failures = result["failures"]
    sample = "; ".join(
        f"d={f['d']} a={tuple(f['weights'])}" for f in failures[:5]
    )
    ok = not failures
    report(
        4,
        ok,
        f"integrality sweep clean over {result['checked']} (d, a) instances",
        detail=f"{len(failures)} counterexamples, e.g. {sample}" if failures else "",
    )
    assert ok, (
        f"{len(failures)} of {result['checked']} admissible (d, a) give a "
        f"non-integral genus or break Riemann-Hurwitz; first cases: {sample}"
    )


def test_criterion_05_hilbert_elliptic_series():
    start = time.perf_counter()
    series = HilbertSeries(parse_upolynomial("1 - t^6"), (1, 2, 3))
    coeffs = series.expand(50)
    recovered = numerator_from_sequence(coeffs, (1, 2, 3), 12)
    elapsed = time.perf_counter() - start
    ok = (
        coeffs == [1] + list(range(1, 51))
        and recovered == parse_upolynomial("1 - t^6")
        and elapsed < 0.010
    )
    assert report(
        5,
        ok,
        "elliptic series expands to 1,1,2,...,50 and recovers 1 - t^6",
        f"{elapsed * 1000:.3f} ms",
    )


def test_criterion_06_quartic_numerator_identity():
    base = HilbertSeries(parse_upolynomial("1 - t + t^4"), (1, 1)).expand(40)
    n25 = [
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        -1, -1, -2, -1, -1, 0, 1, 2, 2, 2,
        1, 0, 0, -1, -1, -1,
    ]
    embedded = HilbertSeries(n25, (1, 4, 5, 6, 7)).expand(40)
    ok = base == embedded
    assert report(
        6,
        ok,
        "degree-25 numerator over (1-t)(1-t^4)...(1-t^7) matches (1-t+t^4)/(1-t)^2 to 40 terms",
    )


def test_criterion_07_truncation_generators():
    square = veronese_generators((1, 1), 2)
    names2 = [monomial_string(g, variable_names(2)) for g in square]
    gens = veronese_generators((6, 10, 15), 5)
    names3 = [monomial_string(g, variable_names(3)) for g in gens]
    regraded = dict(zip(names3, regraded_degrees(gens, (6, 10, 15), 5)))
    factor_report = verify_veronese((6, 10, 15), 5)
    ok = (
        set(names2) == {"x^2", "x*y", "y^2"}
        and set(names3) == {"x^5", "y", "z"}
        and regraded == {"x^5": 6, "y": 2, "z": 3}
        and factor_report["failures"] == []
    )
    assert report(
        7,
        ok,
        "truncation generators {x^2,xy,y^2} and {x^5,y,z} with regraded weights (6,2,3)",
        f"{factor_report['checked']} monomials factor",
    )


def test_criterion_08_cover_substitution_example():
    f = parse_polynomial("x^4 + y^4 + z^2 + x*y*z", (1, 1, 2))
    cover = power_substitute(f)
    ok = cover == parse_polynomial(
        "x^4 + y^4 + z^4 + x*y*z^2", (1, 1, 1)
    ) and cover.weight == (1, 1, 1)
    assert report(8, ok, "power_substitute sends the quartic to x^4+y^4+z^4+xyz^2, degree 4")


def test_criterion_09_point_equality_oracle():
    start = time.perf_counter()
    r1 = verify_point_equality((1, 1, 2), 5)
    r2 = verify_point_equality((1, 2, 3), 7)
    p = WPoint((1, 1, 2), [Fraction(1), Fraction(0), Fraction(2)])
    q = WPoint((1, 1, 2), [Fraction(3), Fraction(0), Fraction(18)])
    elapsed = time.perf_counter() - start
    ok = (
        r1["mismatch_count"] == 0
        and r2["mismatch_count"] == 0
        and eq_geometric(p, q)
        and eq_rational(p, q)
        and elapsed < 30.0
    )
    assert report(
        9,
        ok,
        "closure oracle agrees with eq_geometric on P(1,1,2)(F_5) and P(1,2,3)(F_7); |1:0:2| = |3:0:18|",
        f"{r1['pairs']} + {r2['pairs']} pairs in {elapsed:.2f} s",
    )


def test_criterion_10_orbit_stabilizer_oracle():
    result = verify_orbit_stabilizer((1, 2, 3), 7)
    ok = (
        result["failures"] == []
        and result["points"] == 57
        and result["group_order"] == 6
    )
    assert report(
        10,
        ok,
        "|orbit| * |stabilizer| = 6 across all 57 points of P^2(F_7) (342-vector scan)",
    )


def test_criterion_11_scaling_law_samples():
    rng = random.Random(41)
    checked = 0
    ok = True
    while checked < 200:
        p = rng.choice([5, 7, 11, 13])
        field = PrimeField(p)
        n = rng.randrange(2, 5)
        a = tuple(rng.randrange(1, 7) for _ in range(n))
        d = rng.randrange(2, 20)
        basis = graded_piece_basis(a, d)
        if not basis:
            continue
        terms = {
            e: field.coerce(rng.randrange(1, p))
            for e in rng.sample(basis, rng.randrange(1, len(basis) + 1))
        }
        f = WPolynomial(a, field, terms)
        lam = FpElem(rng.randrange(1, p), p)
        x = [FpElem(rng.randrange(p), p) for _ in range(n)]
        scaled = [lam ** a[i] * x[i] for i in range(n)]
        if evaluate(f, scaled) != lam ** d * evaluate(f, x):
            ok = False
            break
        checked += 1
    assert report(
        11, ok and checked == 200, "f(lambda^a . x) = lambda^d f(x) on 200 random samples"
    )


def test_criterion_12_coefficient_bridge():
    weights = []
    for length in (2, 3, 4):
        def rec(prefix, lo):
            if len(prefix) == length:
                weights.append(tuple(prefix))
                return
            for v in range(lo, 7):
                rec(prefix + [v], v)
        rec([], 1)
    ok = True
    for a in weights:
        coeffs = HilbertSeries([1], a).expand(30)
        for n in range(31):
            if len(graded_piece_basis(a, n)) != coeffs[n]:
                ok = False
                break
        if not ok:
            break
    basis = graded_piece_basis((1, 1, 2), 2)
    ok = ok and basis == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert report(
        12,
        ok,
        "dim of each graded piece matches the series of 1/prod(1-t^a_i) (entries <= 6, n <= 30)",
        f"{len(weights)} weight vectors",
    )
