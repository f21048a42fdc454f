"""The rational Euclid that `wps.exactmath.distinct_root_count` replaced, kept
as a reference for the tests: division with remainder, the monic gcd and the
derivative of a `UPolynomial` over QQ or F_p, with a new polynomial at every
division step.
"""

from wps.errors import FieldMismatch, ZeroPolynomial
from wps.exactmath import QQ, UPolynomial


def derivative(f: UPolynomial) -> UPolynomial:
    return UPolynomial(f.field, [i * c for i, c in enumerate(f.coeffs)][1:])


def monic(f: UPolynomial) -> UPolynomial:
    return f if f.is_zero() else f.scale(f.field.one / f.coeffs[-1])


def divide(f: UPolynomial, g: UPolynomial) -> tuple[UPolynomial, UPolynomial]:
    """(q, r) with f = q*g + r and deg r < deg g."""
    if f.field != g.field:
        raise FieldMismatch(f"polynomials over {f.field} and {g.field}")
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    n, r = len(g.coeffs), list(f.coeffs)
    q = [f.field.zero] * max(len(r) - n + 1, 0)
    lead_inv = f.field.one / g.coeffs[-1]
    for shift in reversed(range(len(q))):
        q[shift] = c = r[shift + n - 1] * lead_inv
        for i, y in enumerate(g.coeffs):
            r[shift + i] -= c * y
    return UPolynomial(f.field, q), UPolynomial(f.field, r[: n - 1])


def gcd(a: UPolynomial, b: UPolynomial) -> UPolynomial:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    if a.field != b.field:
        raise FieldMismatch(f"gcd over {a.field} and {b.field}")
    while not b.is_zero():
        a, b = b, divide(a, b)[1]
    return monic(a)


def distinct_roots(g: UPolynomial) -> int:
    """deg(g / gcd(g, g')), and over F_p the roots of p-fold multiplicity
    from the p-th root of what gcd(g, g') keeps apart from g / gcd(g, g')."""
    if g.degree() == 0:
        return 0
    c = gcd(g, derivative(g))
    sqf = divide(g, c)[0]
    if g.field == QQ or c.degree() == 0:
        return sqf.degree()
    while (s := gcd(c, sqf)).degree() > 0:
        c = divide(c, s)[0]
    return sqf.degree() + distinct_roots(UPolynomial(g.field, c.coeffs[:: g.field.p]))
