import random
from fractions import Fraction

import pytest

from wps.errors import FieldMismatch, NotHomogeneous, ZeroPolynomial
from wps.exactmath import FpElem, PrimeField, QQ, upoly_string
from wps.parser import parse_polynomial
from wps.wpoly import (
    WPolynomial,
    evaluate,
    is_weighted_homogeneous,
    monomial_degree,
    partial,
    power_substitute,
    reduce_mod,
    restrict_to_edge,
    variable_names,
    weighted_degree,
)

# === construction and canonical form ===


def test_variable_names():
    assert variable_names(2) == ["x", "y"]
    assert variable_names(3) == ["x", "y", "z"]
    assert variable_names(4) == ["w", "x", "y", "z"]
    assert variable_names(9) == ["w", "x", "y", "z", "u", "v", "s", "t", "r"]
    assert variable_names(10) == [f"x{i}" for i in range(10)]


def test_like_terms_combine_and_zero_drops():
    f = WPolynomial((1, 1), QQ, {(1, 0): Fraction(2)})
    g = WPolynomial((1, 1), QQ, {(1, 0): Fraction(-2)})
    assert (f + g).is_zero()
    h = parse_polynomial("x + x", (1, 1))
    assert h == parse_polynomial("2*x", (1, 1))


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        WPolynomial((1, 1), QQ, {(-1, 0): Fraction(1)})


def test_term_order_in_to_string():
    f = parse_polynomial("z^4 + x^4 + x*y*z^2 + y^4", (1, 1, 1))
    assert f.to_string() == "x^4 + y^4 + x*y*z^2 + z^4"
    g = parse_polynomial("z^2 + x^6 + y^3 + x^2*y^2 + x^4*y + x^3*z + x*y*z", (1, 2, 3))
    assert g.to_string() == "x^6 + x^4*y + x^2*y^2 + y^3 + x^3*z + x*y*z + z^2"


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ([-1, 0, -3, 2, 0, 0, 1], "-1 - 3*t^2 + 2*t^3 + t^6"),
        ([0, -1, 5, -1], "-t + 5*t^2 - t^3"),
        ([Fraction(-1, 2), 0, Fraction(-7)], "-1/2 - 7*t^2"),
    ],
    ids=["int", "int-unit", "rational"],
)
def test_t_printer_signs(coeffs, text):
    # a negative coefficient turns the sign before its term, int or rational alike
    assert upoly_string(coeffs) == text


@pytest.mark.parametrize(
    "x",
    [WPolynomial((1, 2), PrimeField(7), {(2, 0): 3, (0, 1): 1})],
    ids=["WPolynomial"],
)
def test_power_squares_no_further_than_the_top_bit(x, monkeypatch):
    # square-and-multiply: a product per set bit of n, a square per bit below the top one
    expected = {}
    for n in (1, 8, 13):
        y = x
        for _ in range(n - 1):
            y = y * x
        expected[n] = y
    mul, calls = type(x).__mul__, []
    monkeypatch.setattr(type(x), "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    for n, products in [(1, 1), (8, 4), (13, 6)]:
        calls.clear()
        assert x**n == expected[n], n
        assert len(calls) == products, n
    with pytest.raises(ValueError, match="negative polynomial power"):
        x ** -1


def test_mixed_weight_or_field_rejected():
    f = parse_polynomial("x", (1, 1))
    g = parse_polynomial("x", (1, 2))
    with pytest.raises(ValueError):
        f + g
    h = reduce_mod(parse_polynomial("x", (1, 1)), 5)
    with pytest.raises(FieldMismatch):
        f + h


# === degrees and homogeneity ===


def test_weighted_degree_and_homogeneity():
    f = parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30))
    assert weighted_degree(f) == 60
    assert is_weighted_homogeneous(f) == 60
    g = parse_polynomial("x^2 + y", (1, 1))
    assert weighted_degree(g) == 2
    assert is_weighted_homogeneous(g) is None
    with pytest.raises(ZeroPolynomial):
        weighted_degree(WPolynomial((1, 1), QQ))


def test_monomial_degree():
    assert monomial_degree((5, 0, 0), (12, 20, 30)) == 60
    assert monomial_degree((1, 1, 2), (1, 1, 2)) == 6


# === calculus and evaluation ===


def test_partial_derivatives():
    f = parse_polynomial("x^4 + y^4 + z^2 + x*y*z", (1, 1, 2))
    assert partial(f, 0) == parse_polynomial("4*x^3 + y*z", (1, 1, 2))
    assert partial(f, 2) == parse_polynomial("2*z + x*y", (1, 1, 2))
    with pytest.raises(ValueError):
        partial(f, 3)


def test_evaluate():
    f = parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30))
    assert evaluate(f, (1, 0, 0)) == 1
    assert evaluate(f, (1, 1, 1)) == 3
    assert evaluate(f, (Fraction(1, 2), 0, 0)) == Fraction(1, 32)
    with pytest.raises(ValueError):
        evaluate(f, (1, 2))


# === the scaling law f(lambda^a . x) = lambda^d f(x) ===


def _random_homogeneous(rng, a, d, field):
    # collect all exponent vectors of weighted degree d, pick a few
    from wps.truncation import graded_piece_basis

    basis = graded_piece_basis(a, d)
    if not basis:
        return None
    terms = {}
    for e in rng.sample(basis, rng.randrange(1, len(basis) + 1)):
        c = field.coerce(rng.randrange(1, 23))
        terms[e] = c
    return WPolynomial(a, field, terms)


def test_scaling_law_200_samples():
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        p = rng.choice([5, 7, 11, 13])
        field = PrimeField(p)
        n = rng.randrange(2, 5)
        a = tuple(rng.randrange(1, 7) for _ in range(n))
        d = rng.randrange(2, 20)
        f = _random_homogeneous(rng, a, d, field)
        if f is None:
            continue
        lam = FpElem(rng.randrange(1, p), p)
        x = [FpElem(rng.randrange(p), p) for _ in range(n)]
        scaled = [lam ** a[i] * x[i] for i in range(n)]
        assert evaluate(f, scaled) == lam ** d * evaluate(f, x), (a, d, lam, x)
        checked += 1
    assert checked == 200


def test_non_homogeneous_breaks_scaling():
    f = parse_polynomial("x^2 + y", (1, 1))
    lam, x = Fraction(2), (Fraction(1), Fraction(1))
    scaled = [lam * c for c in x]
    assert evaluate(f, scaled) != lam ** 2 * evaluate(f, x)


# === the cover substitution pi_# ===


def test_power_substitute_example():
    f = parse_polynomial("x^4 + y^4 + z^2 + x*y*z", (1, 1, 2))
    cover = power_substitute(f)
    assert cover == parse_polynomial("x^4 + y^4 + z^4 + x*y*z^2", (1, 1, 1))
    assert weighted_degree(cover) == weighted_degree(f) == 4


def test_power_substitute_preserves_degree_randomized():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 4)
        a = tuple(rng.randrange(1, 5) for _ in range(n))
        d = rng.randrange(2, 15)
        f = _random_homogeneous(rng, a, d, QQ)
        if f is None:
            continue
        cover = power_substitute(f)
        assert cover.weight == (1,) * n
        assert is_weighted_homogeneous(cover) == d
        assert len(cover.terms) == len(f.terms), "distinct monomials stay distinct"


def test_power_substitute_needs_homogeneous():
    with pytest.raises(NotHomogeneous):
        power_substitute(parse_polynomial("x^2 + y", (1, 1)))


def test_power_substitute_straight_weight_is_identity():
    f = parse_polynomial("x^3 + x*y^2 + z^3", (1, 1, 1))
    assert power_substitute(f) == f


# === edge restrictions ===


def test_restrict_to_edge_quartic_cover():
    f = parse_polynomial("x^4 + y^4 + z^2 + x*y*z", (1, 1, 2))
    cover = power_substitute(f)
    # edge 0: x = 0, y = 1, z = lambda
    assert restrict_to_edge(cover, 0) == [1, 0, 0, 0, 1]
    assert [upoly_string(restrict_to_edge(cover, i)) for i in range(3)] == ["1 + t^4"] * 3


def test_restrict_to_edge_c7():
    f = parse_polynomial("x^7 + y^2*z + x*z^2", (1, 2, 3))
    cover = power_substitute(f)
    assert upoly_string(restrict_to_edge(cover, 0)) == "t^3"
    assert upoly_string(restrict_to_edge(cover, 1)) == "t + t^7"
    assert upoly_string(restrict_to_edge(cover, 2)) == "1"


def test_restrict_to_edge_can_vanish():
    f = parse_polynomial("x*y*z", (1, 1, 1))
    assert restrict_to_edge(f, 0) == []
    # terms that cancel on the edge leave no trailing zeros
    assert restrict_to_edge(parse_polynomial("x + y*z - y^2*z", (1, 1, 1)), 0) == []
    assert restrict_to_edge(parse_polynomial("2 + y*z - y^2*z", (1, 1, 1)), 0) == [2]


def test_restrict_to_edge_guards():
    f = parse_polynomial("x + y", (1, 1))
    with pytest.raises(ValueError):
        restrict_to_edge(f, 0)
    g = parse_polynomial("x + y + z", (1, 1, 1))
    with pytest.raises(ValueError):
        restrict_to_edge(g, 3)


# === reduction mod p ===


def test_reduce_mod():
    f = parse_polynomial("x^2 + 6*x*y + 1/2*y^2", (1, 1))
    fp = reduce_mod(f, 3)
    assert fp == reduce_mod(parse_polynomial("x^2 + 2*y^2", (1, 1)), 3)
    g = parse_polynomial("1/2*x", (1, 1))
    with pytest.raises(FieldMismatch):
        reduce_mod(g, 2)
    with pytest.raises(FieldMismatch):
        reduce_mod(fp, 5)
