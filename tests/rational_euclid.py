"""The rational Euclid that `wps.exactmath.distinct_root_count` replaced, kept
as a reference for the tests: products, division with remainder, the monic
gcd and the derivative of polynomials over QQ or F_p, with a new coefficient
list at every division step.

A polynomial here is a (field, coefficients) pair, constant first, with no
trailing zeros; `poly` builds one.
"""

from wps.errors import FieldMismatch, ZeroPolynomial
from wps.exactmath import QQ


def poly(field, coeffs):
    """(field, coeffs) with each coefficient coerced into the field and trailing zeros dropped."""
    cs = [field.coerce(c) for c in coeffs]
    while cs and cs[-1] == field.zero:
        cs.pop()
    return field, cs


def degree(f) -> int:
    if not f[1]:
        raise ZeroPolynomial("the zero polynomial has no degree")
    return len(f[1]) - 1


def _field(f, g):
    if f[0] != g[0]:
        raise FieldMismatch(f"polynomials over {f[0]} and {g[0]}")
    return f[0]


def add(f, g):
    field = _field(f, g)
    n = max(len(f[1]), len(g[1]))
    a, b = (h[1] + [field.zero] * (n - len(h[1])) for h in (f, g))
    return poly(field, [x + y for x, y in zip(a, b)])


def mul(f, g):
    """The product by convolution of the coefficient lists."""
    field = _field(f, g)
    out = [field.zero] * max(len(f[1]) + len(g[1]) - 1, 0)
    for i, x in enumerate(f[1]):
        for j, y in enumerate(g[1]):
            out[i + j] += x * y
    return poly(field, out)


def power(f, n: int):
    out = poly(f[0], [1])
    for _ in range(n):
        out = mul(out, f)
    return out


def derivative(f):
    return poly(f[0], [i * c for i, c in enumerate(f[1])][1:])


def monic(f):
    field, cs = f
    return f if not cs else poly(field, [c * (field.one / cs[-1]) for c in cs])


def divide(f, g):
    """(q, r) with f = q*g + r and deg r < deg g."""
    field = _field(f, g)
    if not g[1]:
        raise ZeroPolynomial("division by the zero polynomial")
    n, r = len(g[1]), list(f[1])
    q = [field.zero] * max(len(r) - n + 1, 0)
    lead_inv = field.one / g[1][-1]
    for shift in reversed(range(len(q))):
        q[shift] = c = r[shift + n - 1] * lead_inv
        for i, y in enumerate(g[1]):
            r[shift + i] -= c * y
    return poly(field, q), poly(field, r[: n - 1])


def gcd(a, b):
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    _field(a, b)
    while b[1]:
        a, b = b, divide(a, b)[1]
    return monic(a)


def distinct_roots(g) -> int:
    """deg(g / gcd(g, g')), and over F_p the roots of p-fold multiplicity
    from the p-th root of what gcd(g, g') keeps apart from g / gcd(g, g')."""
    if degree(g) == 0:
        return 0
    c = gcd(g, derivative(g))
    sqf = divide(g, c)[0]
    if g[0] == QQ or degree(c) == 0:
        return degree(sqf)
    while degree(s := gcd(c, sqf)) > 0:
        c = divide(c, s)[0]
    return degree(sqf) + distinct_roots(poly(g[0], c[1][:: g[0].p]))
