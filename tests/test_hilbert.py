import random
import time
from fractions import Fraction
from math import comb

import pytest

from wps.errors import WORK_LIMIT, AmbiguousLowDegree, NumeratorNotPolynomial, TooLarge
from wps.exactmath import QQ, upoly_string
from wps.hilbert import (
    EllSequence,
    HilbertSeries,
    ci_relation_degrees,
    complete_intersection_series,
    embedding_report,
    expand,
    generator_discovery,
    numerator_degree_bound,
    numerator_from_sequence,
)
from wps.parser import parse_upolynomial
from wps.truncation import graded_piece_basis

import rational_euclid

ELLIPTIC = EllSequence(genus=1, divisor_degree=1)


def series(num_text, weights):
    return HilbertSeries(parse_upolynomial(num_text), weights)


# === series expansion ===


def test_expand_elliptic_embedding():
    s = series("1 - t^6", (1, 2, 3))
    assert s.expand(50) == [1] + list(range(1, 51))
    assert expand(s.numerator, s.denominator_weights, 0) == [1]


def test_expand_straight_plane():
    # P^2 itself: coefficients are the binomials (n+2 choose 2)
    s = series("1", (1, 1, 1))
    assert s.expand(6) == [(n + 2) * (n + 1) // 2 for n in range(7)]


def test_expand_guards():
    s = series("1", (1, 1))
    with pytest.raises(ValueError):
        s.expand(-1)
    with pytest.raises(ValueError, match="not an integer"):
        HilbertSeries([Fraction(1, 2)], (1, 1))
    with pytest.raises(ValueError, match="must be positive"):
        HilbertSeries([1], (1, 0))


def test_degree_past_the_work_limit_is_refused_before_the_work():
    # two weights make two passes over the n + 1 coefficients
    last = WORK_LIMIT // 2 - 1
    with pytest.raises(TooLarge, match=f"series expansion to degree {last + 1} exceeds the work limit"):
        series("1", (1, 1)).expand(last + 1)
    with pytest.raises(TooLarge, match=f"numerator to degree {WORK_LIMIT + 1} exceeds the work limit"):
        numerator_from_sequence(ELLIPTIC, (1, 2, 3), WORK_LIMIT + 1)
    assert series("1", (1, 1)).expand(last) == list(range(1, last + 2))


def test_numerator_counts_its_probe_horizon():
    # the product is probed to max_degree + sum(a)
    with pytest.raises(TooLarge, match="numerator to degree 36 exceeds the work limit"):
        numerator_from_sequence(ELLIPTIC, (9649, 8, 637849906), 36)
    with pytest.raises(TooLarge, match="numerators for 4 rows exceeds the work limit"):
        embedding_report(EllSequence(0, 33), [(k, (1,) * (k + 1)) for k in range(1, 5)], max_degree=141414)


def test_huge_genus_needs_no_list_of_its_ambiguous_range():
    e = EllSequence(genus=10**12, divisor_degree=1)
    assert e.ambiguous_count == 2 * 10**12 - 2
    with pytest.raises(TooLarge):
        numerator_from_sequence(e, (1, 1), numerator_degree_bound(e, (1, 1)))


def test_embedding_rows_need_a_positive_k():
    with pytest.raises(ValueError, match="row k must be positive, got 0"):
        embedding_report(ELLIPTIC, [(0, (1, 2))])


def test_to_string():
    assert series("1 - t^6", (1, 2, 3)).to_string() == "(1 - t^6) / (1-t)(1-t^2)(1-t^3)"
    assert series("1", (1, 1)).to_string() == "1 / (1-t)(1-t)"


# === Riemann-Roch dimension sequences ===


def test_ell_elliptic():
    assert ELLIPTIC.ambiguous_count == 0
    assert ELLIPTIC(0) == 1
    assert [ELLIPTIC(n) for n in range(1, 8)] == [1, 2, 3, 4, 5, 6, 7]


def test_ell_needs_overrides_below_canonical_degree():
    e = EllSequence(genus=2, divisor_degree=1)
    assert e.ambiguous_count == 2
    with pytest.raises(AmbiguousLowDegree, match="needs an override"):
        e(1)
    filled = EllSequence(genus=2, divisor_degree=1, low_overrides={1: 1, 2: 1})
    assert [filled(n) for n in range(5)] == [1, 1, 1, 2, 3]


def test_ell_override_validation():
    with pytest.raises(ValueError, match="outside the ambiguous range"):
        EllSequence(genus=1, divisor_degree=1, low_overrides={5: 5})
    with pytest.raises(ValueError, match="positive"):
        EllSequence(genus=2, divisor_degree=1, low_overrides={1: 0})
    with pytest.raises(ValueError):
        EllSequence(genus=-1, divisor_degree=1)
    with pytest.raises(ValueError):
        EllSequence(genus=1, divisor_degree=0)
    with pytest.raises(ValueError):
        ELLIPTIC(-1)


# === numerator recovery ===


def test_numerator_recovery_elliptic():
    num = numerator_from_sequence(ELLIPTIC, (1, 2, 3), 12)
    assert num == parse_upolynomial("1 - t^6")
    assert ci_relation_degrees(num) == [6]


def test_numerator_recovery_from_list():
    coeffs = series("1 - t^4", (1, 1, 2)).expand(20)
    num = numerator_from_sequence(coeffs, (1, 1, 2), 8)
    assert num == parse_upolynomial("1 - t^4")


def test_numerator_recovery_not_polynomial():
    with pytest.raises(NumeratorNotPolynomial, match="beyond degree 3"):
        numerator_from_sequence(ELLIPTIC, (1,), 3)


def test_genus_three_numerator():
    e = EllSequence(genus=3, divisor_degree=1, low_overrides={1: 1, 2: 1, 3: 1, 4: 2})
    num = numerator_from_sequence(e, (1, 1), 8)
    assert num == parse_upolynomial("1 - t + t^4")
    assert ci_relation_degrees(num) is None


# === complete intersections ===


def test_complete_intersection_series():
    s = complete_intersection_series((1, 2, 3), [6])
    assert s == series("1 - t^6", (1, 2, 3))
    s2 = complete_intersection_series((1, 1, 1, 1), [2, 2])
    assert s2.numerator == parse_upolynomial("1 - 2*t^2 + t^4")
    # trailing zeros of a list argument are dropped
    assert HilbertSeries([1, 0, -1, 0], (1, 1)) == complete_intersection_series((1, 1), [2])
    assert ci_relation_degrees([1, 0, -1, 0]) == [2]
    with pytest.raises(ValueError, match="positive"):
        complete_intersection_series((1, 1), [0])


@pytest.mark.parametrize(
    "text, degrees",
    [
        ("1 - t^6", [6]),
        ("1 - 2*t^2 + t^4", [2, 2]),
        ("1 - t^2 - t^3 + t^5", [2, 3]),
        ("1", []),
        ("1 - t + t^4", None),
        ("1 + t", None),
        ("2 - t", None),
        ("0", None),
    ],
)
def test_ci_relation_degrees(text, degrees):
    assert ci_relation_degrees(parse_upolynomial(text)) == degrees


# === the truncation table ===


def test_embedding_report_elliptic_rows():
    rows = [(1, (1, 2, 3)), (2, (1, 1, 2)), (3, (1, 1, 1)), (4, (1, 1, 1, 1))]
    report = embedding_report(ELLIPTIC, rows)
    assert [upoly_string(r["numerator"]) for r in report] == [
        "1 - t^6",
        "1 - t^4",
        "1 - t^3",
        "1 - 2*t^2 + t^4",
    ]
    assert [r["relation_degrees"] for r in report] == [[6], [4], [3], [2, 2]]
    assert [r["k"] for r in report] == [1, 2, 3, 4]


def test_generator_discovery_elliptic():
    rows, gens = generator_discovery(ELLIPTIC, 6)
    assert gens == [1, 2, 3]
    assert [(r["degree"], r["products"], r["ell"], r["new"]) for r in rows] == [
        (1, 0, 1, 1),
        (2, 1, 2, 1),
        (3, 2, 3, 1),
        (4, 4, 4, 0),
        (5, 5, 5, 0),
        (6, 7, 6, -1),
    ]


# === a genus-3 divisor embedded by five generators ===


def test_genus_three_embedding_numerator():
    base = series("1 - t + t^4", (1, 1)).expand(80)
    num = numerator_from_sequence(base, (1, 4, 5, 6, 7), 25)
    assert num == [
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        -1, -1, -2, -1, -1, 0, 1, 2, 2, 2,
        1, 0, 0, -1, -1, -1,
    ]
    rebuilt = HilbertSeries(num, (1, 4, 5, 6, 7)).expand(40)
    assert rebuilt == base[:41]


# === the stride kernel against the algorithms it replaced ===


def _product_numerator(degrees):
    """prod(1 - t^d) by list convolution."""
    num = rational_euclid.poly(QQ, [1])
    for d in degrees:
        num = rational_euclid.mul(num, rational_euclid.poly(QQ, [1] + [0] * (d - 1) + [-1]))
    return num[1]


def _divmod_relation_degrees(num):
    """ci_relation_degrees by repeated division with remainder over QQ."""
    if not num or num[0] != 1:
        return None
    out, cur = [], rational_euclid.poly(QQ, num)
    while len(cur[1]) > 1:
        coeffs = cur[1]
        d = next(k for k in range(1, len(coeffs)) if coeffs[k] != 0)
        if coeffs[d] > 0:
            return None
        cur, r = rational_euclid.divide(cur, rational_euclid.poly(QQ, [1] + [0] * (d - 1) + [-1]))
        if r[1]:
            return None
        out.append(d)
    return sorted(out) if cur[1] == [1] else None


def _enumerated_discovery(e, max_degree):
    """generator_discovery counting the degree-n products by enumeration."""
    gens, rows = [], []
    for n in range(1, max_degree + 1):
        have = len(graded_piece_basis(tuple(gens), n)) if gens else 0
        new = e(n) - have
        gens.extend([n] * max(new, 0))
        rows.append({"degree": n, "products": have, "ell": e(n), "new": new})
    return rows, gens


def test_relation_numerators_match_products_and_divmod():
    rng = random.Random(2024)
    tally = {"factors": 0, "does not": 0}
    for i in range(300):
        degrees = [rng.randint(1, 7) for _ in range(rng.randint(0, 4))]
        num = complete_intersection_series((1, 2), degrees).numerator
        assert num == _product_numerator(degrees), degrees
        if i % 2:  # perturb one coefficient, the constant term kept
            num = num + [0, 0]
            num[rng.randrange(1, len(num))] += rng.choice([-2, -1, 1, 2])
        got = ci_relation_degrees(num)
        assert got == _divmod_relation_degrees(num), upoly_string(num)
        assert i % 2 or got == sorted(degrees)
        tally["factors" if got is not None else "does not"] += 1
    assert min(tally.values()) >= 100, tally


def test_generator_discovery_matches_enumerated_products():
    rng = random.Random(2025)
    checked = relations = 0
    while checked < 60:
        genus, deg = rng.randint(0, 3), rng.randint(1, 3)
        probe = EllSequence(genus, deg)
        overrides = {n: rng.randint(1, n * deg + 1) for n in range(1, probe.ambiguous_count + 1)}
        e = EllSequence(genus, deg, overrides)
        max_degree = rng.randint(1, 9)
        if sum(comb(n + e(1) - 1, n) for n in range(1, max_degree + 1)) > 20000:
            continue
        rows, gens = generator_discovery(e, max_degree)
        assert (rows, gens) == _enumerated_discovery(e, max_degree), (genus, deg, overrides, max_degree)
        checked += 1
        relations += any(r["new"] < 0 for r in rows)
    assert relations >= 20


def test_monomial_counts_match_graded_pieces():
    rng = random.Random(2026)
    for _ in range(100):
        a = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        n = rng.randint(0, 25)
        assert expand([1], a, n) == [len(graded_piece_basis(a, k)) for k in range(n + 1)], (a, n)


def test_counts_that_had_no_budget_answer_or_refuse_at_once():
    start = time.perf_counter()
    rows, gens = generator_discovery(EllSequence(0, 5), 45)
    assert gens == [1] * 6 and rows[-1]["products"] == comb(50, 5) == 2_118_760
    with pytest.raises(TooLarge, match="numerator of 1 relations of degree 1000000 exceeds the work limit"):
        complete_intersection_series((1, 1), [10**6])
    with pytest.raises(TooLarge, match="generator discovery to degree 5 exceeds the work limit"):
        generator_discovery(EllSequence(0, 10**6), 5)
    with pytest.raises(TooLarge, match="generator discovery to degree 1000000000 exceeds the work limit"):
        generator_discovery(ELLIPTIC, 10**9)
    # (1 - t)^800 divides 800 times, passes of 801, 800, ... steps: refused on the way
    with pytest.raises(TooLarge, match="relation degrees of a degree-800 numerator exceeds the work limit"):
        ci_relation_degrees([(-1) ** j * comb(800, j) for j in range(801)])
    assert ci_relation_degrees([(-1) ** j * comb(600, j) for j in range(601)]) == [1] * 600
    assert time.perf_counter() - start < 1.0
