import random
from fractions import Fraction

import pytest

from wps.errors import ParseError, TooLarge, UnknownVariable
from wps.exactmath import PrimeField, QQ, upoly_string
from wps.parser import parse_point_coords, parse_polynomial, parse_upolynomial
from wps.truncation import graded_piece_basis
from wps.wpoly import WPolynomial, reduce_mod

# === polynomial round trips ===


@pytest.mark.parametrize(
    "text, weight, printed",
    [
        ("x^4 + y^4 + z^2 + x*y*z", (1, 1, 2), "x^4 + y^4 + x*y*z + z^2"),
        ("x^5+y^3+z^2", (12, 20, 30), "x^5 + y^3 + z^2"),
        ("-x + 2*y", (1, 1), "-x + 2*y"),
        ("1/2*x^2 - 3/4*x*y", (1, 1), "1/2*x^2 - 3/4*x*y"),
        ("(x + y)^2", (1, 1), "x^2 + 2*x*y + y^2"),
        ("x0^2 + x1*x2", (1, 1, 1), "x^2 + y*z"),
        ("w + x + y + z", (1, 1, 1, 1), "w + x + y + z"),
        ("7", (1, 1), "7"),
        ("0", (1, 1), "0"),
        ("x - x", (1, 1), "0"),
    ],
)
def test_parse_then_print(text, weight, printed):
    assert parse_polynomial(text, weight).to_string() == printed


def test_print_then_parse_randomized():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randrange(2, 5)
        a = tuple(rng.randrange(1, 6) for _ in range(n))
        d = rng.randrange(1, 12)
        basis = graded_piece_basis(a, d)
        if not basis:
            continue
        terms = {
            e: Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            for e in rng.sample(basis, rng.randrange(1, len(basis) + 1))
        }
        f = WPolynomial(a, QQ, terms)
        assert parse_polynomial(f.to_string(), a) == f, f.to_string()


def fp_poly(text, weight, p):
    return reduce_mod(parse_polynomial(text, weight), p)


def test_parse_over_prime_field():
    f = fp_poly("x^2 + 6*y^2", (1, 1), 3)
    assert f == fp_poly("x^2", (1, 1), 3)
    g = fp_poly("1/2*x", (1, 1), 5)
    assert g == fp_poly("3*x", (1, 1), 5)


def test_rational_literal_needs_integer_parts():
    assert parse_polynomial("6/3*x", (1, 1)) == parse_polynomial("2*x", (1, 1))
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0*x", (1, 1))


# === parse errors carry positions ===


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError, match="implicit multiplication") as info:
        parse_polynomial("2*x + 3y", (1, 1))
    assert info.value.position == 7


def test_slash_outside_literal_rejected():
    with pytest.raises(ParseError, match="between integer literals"):
        parse_polynomial("x/2", (1, 1))


def test_unexpected_character_position():
    with pytest.raises(ParseError, match="unexpected character '%'") as info:
        parse_polynomial("x % y", (1, 1))
    assert info.value.position == 2
    assert "(at position 2)" in str(info.value)


def test_unbalanced_and_dangling():
    with pytest.raises(ParseError):
        parse_polynomial("(x + y", (1, 1))
    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_polynomial("x +", (1, 1))
    with pytest.raises(ParseError):
        parse_polynomial("x ^ y", (1, 1))
    with pytest.raises(ParseError):
        parse_polynomial("", (1, 1))


def test_unknown_variable():
    with pytest.raises(UnknownVariable, match="unknown variable 'z'"):
        parse_polynomial("x + z", (1, 1))
    with pytest.raises(UnknownVariable, match="out of range"):
        parse_polynomial("x5", (1, 1, 2))
    # the legacy hierarchy: UnknownVariable is a ParseError
    assert issubclass(UnknownVariable, ParseError)


# === univariate grammar ===


def test_parse_upolynomial():
    u = parse_upolynomial("1 - t^6")
    assert upoly_string(u) == "1 - t^6"
    assert len(u) - 1 == 6
    assert parse_upolynomial("0") == []
    assert parse_upolynomial("t^2*(1 - t)") == [0, 0, 1, -1]
    assert parse_upolynomial("1/2 - t") == [Fraction(1, 2), -1]
    with pytest.raises(UnknownVariable):
        parse_upolynomial("1 - x^6")


# === point coordinate lists ===


def test_parse_point_coords():
    assert parse_point_coords("1:0:2", QQ, 3) == [Fraction(1), Fraction(0), Fraction(2)]
    assert parse_point_coords("3:-1/2:0", QQ, 3) == [
        Fraction(3),
        Fraction(-1, 2),
        Fraction(0),
    ]
    fp = PrimeField(7)
    assert parse_point_coords("1:2:3", fp, 3) == [fp.coerce(v) for v in (1, 2, 3)]
    with pytest.raises(ParseError, match="needs 3 coordinates"):
        parse_point_coords("1:2", QQ, 3)
    with pytest.raises(ParseError, match="bad coordinate"):
        parse_point_coords("1:q:3", QQ, 3)


def test_power_term_bound_is_checked_before_the_work():
    # (x+y)^m has at most C(m+1, 1) = m+1 terms, counted as (m+1)^2 steps:
    # 500^2 is the limit, so the bound refuses (x+y)^500
    with pytest.raises(TooLarge, match="2-term base raised to 500 at position 5 exceeds the work limit"):
        parse_polynomial("(x+y)^500", (1, 1))
    assert len(parse_polynomial("(x+y)^30", (1, 1)).terms) == 31
    assert parse_polynomial("(2*x)^100000", (1, 1)).terms == {(100000, 0): Fraction(2) ** 100000}
    assert parse_polynomial("0^7", (1, 1)).is_zero()


def test_products_and_powers_share_one_running_total():
    # three powers of 231^2 + 231 * 20 steps and a 231-by-231 product: 227,304
    # so far; the 861-by-231 product that follows takes the total to 426,195
    with pytest.raises(TooLarge, match="861-by-231-term product at position 21 exceeds the work limit"):
        parse_polynomial("(x+y+z)^20*(x+y+z)^20*(x+y+z)^20", (1, 1, 1))
    assert len(parse_polynomial("(x+y+z)^20*(x+y+z)^20", (1, 1, 1)).terms) == 861


def test_power_counts_the_bits_of_its_coefficients():
    # B^2 + B*m*h for B terms of up to m*h bits: 1 + 2m steps for (2x)^m, (m+1)^2 + (m+1)m for (x+y)^m
    with pytest.raises(TooLarge, match="1-term base raised to 125000"):
        parse_polynomial("(2*x)^125000", (1, 1))
    with pytest.raises(TooLarge, match="2-term base raised to 177"):
        parse_polynomial("(1-y-((7)^7)^22)^177", (1, 1))
    assert len(parse_polynomial("(x+y)^352", (1, 1)).terms) == 353
    with pytest.raises(TooLarge, match="1-term base raised to 64909178"):
        parse_polynomial("(663/13)^64909178", (1, 1))
    with pytest.raises(TooLarge):
        parse_polynomial("x^1000000000000", (1, 1))
    with pytest.raises(TooLarge):
        parse_upolynomial("t^1000000000000")
    assert parse_polynomial("x^249999", (1, 1)).terms == {(249999, 0): 1}


def test_nested_powers_are_counted_where_they_turn_dense():
    # (t^14)^180383 is 180,397 parser steps but a dense polynomial of degree 2,525,362
    with pytest.raises(TooLarge, match="dense polynomial of degree 2525362 exceeds the work limit"):
        parse_upolynomial("((t)^14)^180383")
    assert len(parse_upolynomial("((t)^14)^17857")) - 1 == 249998
