"""Independent references for every benchmark operation.

Nothing here imports `wps`: each answer is recomputed by a different method
(closed formulas, direct counting, lattice arithmetic), so a wrong answer in
the program cannot also hide in its reference.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def pairwise_coprime(a) -> bool:
    return all(gcd(x, y) == 1 for x, y in combinations(a, 2))


def is_well_formed(a) -> bool:
    return all(gcd(*(a[:i] + a[i + 1 :])) == 1 for i in range(len(a)))


def well_formed_model(a) -> tuple[int, ...]:
    """One-round closed form: divide by the gcd, then a_i / prod_{j != i} d_j
    with d_j the gcd of all entries but a_j (the d_j are pairwise coprime)."""
    g = gcd(*a)
    a = tuple(x // g for x in a)
    d = [gcd(*(a[:j] + a[j + 1 :])) for j in range(len(a))]
    return tuple(x // prod(d[j] for j in range(len(a)) if j != i) for i, x in enumerate(a))


def ow_genus(d: int, a) -> Fraction:
    """Orlik-Wagreich genus of a quasi-smooth degree-d curve in P(a0,a1,a2)."""
    n = prod(a)
    pair = sum(Fraction(1, x * y) for x, y in combinations(a, 2))
    return (Fraction(d * d, n) - d * pair + sum(Fraction(gcd(d, x), x) for x in a) - 1) / 2


@lru_cache(maxsize=None)
def count_monomials(a: tuple[int, ...], k: int) -> int:
    """Number of exponent vectors e >= 0 with sum a_i e_i = k."""
    if k < 0:
        return 0
    if len(a) == 1:
        return 1 if k % a[0] == 0 else 0
    return sum(count_monomials(a[1:], k - a[0] * e) for e in range(k // a[0] + 1))


def series_coefficients(numerator: dict[int, int], a, n: int) -> list[int]:
    """Coefficients of N(t) / prod(1 - t^a_i) up to t^n, by monomial counting."""
    a = tuple(a)
    return [
        sum(c * count_monomials(a, k - j) for j, c in numerator.items() if j <= k)
        for k in range(n + 1)
    ]


def ell(genus: int, deg: int, n: int) -> int:
    """Riemann-Roch value l(nD) for n*deg > 2g-2 (and l(0) = 1)."""
    return 1 if n == 0 else n * deg + 1 - genus


_TERM = re.compile(r"([+-]?)\s*(\d*)\s*\*?\s*(t(?:\^(\d+))?)?")


def parse_tpoly(text: str) -> dict[int, int]:
    """Inverse of the CLI's ascending-power rendering, e.g. '1 - 3*t + t^6'."""
    out: dict[int, int] = {}
    for sign, num, var, exp in _TERM.findall(text.replace(" ", "")):
        if not num and not var:
            continue
        c = int(num) if num else 1
        k = (int(exp) if exp else 1) if var else 0
        out[k] = out.get(k, 0) + (-c if sign == "-" else c)
    return {k: c for k, c in out.items() if c}


def veronese_box(a, d: int) -> list[tuple[int, ...]]:
    """Minimal generators of {e : sum a_i e_i = 0 mod d} from the proved box:
    each is a pure power d_i u_i or has every e_i < d_i = d / gcd(a_i, d)."""
    n = len(a)
    di = [d // gcd(x, d) for x in a]
    cands = {tuple(di[i] if k == i else 0 for k in range(n)) for i in range(n)}
    for e in product(*(range(m) for m in di)):
        if any(e) and sum(x * y for x, y in zip(a, e)) % d == 0:
            cands.add(e)
    return sorted(
        e
        for e in cands
        if not any(f != e and all(x <= y for x, y in zip(f, e)) for f in cands)
    )


def variable_names(n: int) -> list[str]:
    return ["x", "y", "z"][:n] if n <= 3 else list("wxyzuvstr"[:n])


def monomial_string(e, names) -> str:
    parts = [v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k]
    return "*".join(parts) or "1"


def poly_string(terms: dict[tuple[int, ...], int], a) -> str:
    """Render with positive integer coefficients in (degree, colex) order."""
    names = variable_names(len(a))
    out = []
    for e in sorted(terms, key=lambda e: (sum(x * y for x, y in zip(a, e)), e[::-1])):
        c, mono = terms[e], monomial_string(e, names)
        out.append(mono if c == 1 else (str(c) if mono == "1" else f"{c}*{mono}"))
    return " + ".join(out)


# === point equality by the relation lattice ===


def _relation_lattice(a) -> tuple[list[list[int]], list[int], int]:
    """Kernel basis of n -> sum n_i a_i, a Bezout vector, and g = gcd(a).

    Unimodular column reduction of the row a: the columns whose entry
    reaches 0 span the kernel; the surviving column carries g.
    """
    k = len(a)
    v = list(a)
    cols = [[int(r == c) for r in range(k)] for c in range(k)]
    while True:
        nz = [i for i in range(k) if v[i]]
        if len(nz) == 1:
            break
        piv = min(nz, key=lambda i: abs(v[i]))
        for i in nz:
            if i != piv:
                q = v[i] // v[piv]
                v[i] -= q * v[piv]
                cols[i] = [x - q * y for x, y in zip(cols[i], cols[piv])]
    (piv,) = nz
    sign = 1 if v[piv] > 0 else -1
    return [cols[i] for i in range(k) if i != piv], [sign * x for x in cols[piv]], sign * v[piv]


def _ratios(x, y, p):
    support = [i for i, c in enumerate(x) if c != 0]
    if support != [i for i, c in enumerate(y) if c != 0]:
        return None, None
    if p is None:
        return support, [Fraction(y[i]) / Fraction(x[i]) for i in support]
    return support, [y[i] * pow(x[i], -1, p) % p for i in support]


def _monomial(r, e, p):
    """prod r_i^{e_i}, in Q or in F_p."""
    out = 1
    for ri, ei in zip(r, e):
        out = out * (ri**ei if p is None else pow(ri, ei, p))
    return out if p is None else out % p


def closure_equal(a, x, y, p: int | None) -> bool:
    """Same point over the algebraic closure of Q (p None) or of F_p:
    lambda exists iff prod r_i^{n_i} = 1 on the relation lattice."""
    support, r = _ratios(x, y, p)
    if support is None:
        return False
    basis, _, _ = _relation_lattice([a[i] for i in support])
    return all(_monomial(r, n, p) == 1 for n in basis)


def rational_equal(a, x, y, p: int | None) -> bool:
    """Same point under a base-field scalar: the closure condition plus a
    g-th root of mu = prod r_i^{c_i} (sum c_i a_i = g) in the base field."""
    if not closure_equal(a, x, y, p):
        return False
    support, r = _ratios(x, y, p)
    _, bezout, g = _relation_lattice([a[i] for i in support])
    mu = _monomial(r, bezout, p)
    if p is not None:
        return pow(mu, (p - 1) // gcd(g, p - 1), p) == 1
    roots = all(_int_root(t, g) is not None for t in (abs(mu.numerator), mu.denominator))
    return roots and (mu > 0 or g % 2 == 1)


def _int_root(n: int, g: int) -> int | None:
    r = round(n ** (1.0 / g))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c**g == n:
            return c
    return None


# === curve points over F_p ===


def curve_point_counts(a, terms: dict[tuple[int, ...], int], p: int) -> tuple[int, int]:
    """(orbit count on the curve, singular orbit count) in P(a)(F_p).

    A nonzero vector x lies in an F_p^*-orbit of size (p-1)/gcd(g_S, p-1),
    g_S the gcd of the weights on its support, so each vector adds
    gcd(g_S, p-1)/(p-1) orbits."""
    parts = [
        {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in terms.items() if e[i]}
        for i in range(len(a))
    ]

    def value(f, x):
        return sum(c * prod(pow(xi, ei, p) for xi, ei in zip(x, e)) for e, c in f.items()) % p

    on = sing = Fraction(0)
    for x in product(range(p), repeat=len(a)):
        if not any(x) or value(terms, x):
            continue
        w = Fraction(gcd(gcd(*(a[i] for i, c in enumerate(x) if c)), p - 1), p - 1)
        on += w
        if all(value(f, x) == 0 for f in parts):
            sing += w
    return int(on), int(sing)
