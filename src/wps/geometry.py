"""Points of weighted projective space: equality predicates, normal forms,
affine patches, and the mu^{a_0} x ... x mu^{a_n} action on the straight
cover.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .errors import Mismatch, NotAConePoint, NotOnPatch, PrimeUnsuitable, Unsupported, check_work
from .exactmath import QQ, PrimeField, fp_roots, height
from .weights import Weight, check_weight


class WPoint:
    """A not-all-zero coordinate vector, up to lambda . x = (lambda^{a_i} x_i).

    `values` holds int residues over F_p and the Fractions over Q."""

    __slots__ = ("weight", "field", "coords", "values", "_support")

    def __init__(self, weight: Weight, coords, field=QQ):
        self.weight = check_weight(weight)
        self.field = field
        self.coords = tuple(field.coerce(c) for c in coords)
        if len(self.coords) != len(self.weight):
            raise ValueError(f"point needs {len(self.weight)} coordinates")
        fp = isinstance(field, PrimeField)
        self.values = tuple(c.value for c in self.coords) if fp else self.coords
        self._support = tuple(i for i, v in enumerate(self.values) if v)
        if not self._support:
            raise NotAConePoint("point coordinates are all zero")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WPoint)
            and self.weight == other.weight
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.weight, self.field, self.coords))

    def __repr__(self) -> str:
        return "|" + ":".join(str(c) for c in self.coords) + "|"


def _fold_chain(a: Weight, support: tuple[int, ...]):
    """(gcd of the support weights, first support index i0, steps): each later
    index i gives (i, a_i/g, G/g, u, v), G the gcd so far, g = gcd(G, a_i) = u*G + v*a_i."""
    i0, *rest = support
    G, steps = a[i0], []
    for i in rest:
        g = gcd(G, a[i])
        u = pow(G // g, -1, a[i] // g)
        steps.append((i, a[i] // g, G // g, u, (g - u * G) // a[i]))
        G = g
    return G, i0, tuple(steps)


def _fold(a: Weight, values, chain, m: int | None):
    """(G, R, relations) for lambda^{a_i} = values_i along the support's `_fold_chain`.

    With g = gcd(G, a) = u*G + v*a, the pair {lambda^G = R, lambda^a = r} is
    equivalent to {lambda^g = R^u r^v, R^{a/g} = r^{G/g}}, so the conditions
    fold in one at a time, each leaving the lambda-free relation (R^{a/g},
    r^{G/g}).  With R = values^c its quotient is values^m, m = (a/g)*c -
    (G/g)*e_i, and these m are a basis of the relation lattice {m : sum m_i a_i
    = 0} on the support.  A common solution exists over the algebraic closure
    iff every relation holds, and then lambda^G = R is what is left.  pow(., .,
    m) works on int residues mod m over F_p and on Fractions (m None) over Q.
    """
    G, i, steps = chain
    if m is None:  # one step per bit of each power of a Fraction taken below
        size, work = height(values[i]), 0
        for k, ag, Gg, u, v in steps:
            work += ag * size + Gg * height(values[k])
            size = u * size + abs(v) * height(values[k]) if v else size
        check_work(work + size, f"scaling test over Q for weights {a}")
    R, relations = values[i], []
    for i, ag, Gg, u, v in steps:
        r = values[i]
        relations.append((pow(R, ag, m), pow(r, Gg, m)))
        if v:
            R = pow(R, u, m) * pow(r, v, m)
    return G, R, relations


def _geometric_keys(a: Weight, support: tuple[int, ...], block, p: int) -> list[tuple]:
    """The values x^m of the fold's relations, int residues mod the prime p, for
    each vector of a block sharing the support.  Two vectors are one point over
    the algebraic closure iff their supports and these keys are equal: the
    characters x^m of the quotient torus separate its orbits.  The fold chain is
    built once per support; each vector is folded along it.
    """
    chain = _fold_chain(a, support)
    return [tuple(pow(rhs, -1, p) * lhs % p for lhs, rhs in _fold(a, values, chain, p)[2]) for values in block]


def _scaling_root(p: WPoint, q: WPoint):
    """None if p and q are different points over the algebraic closure, else
    (G, R) such that lambda . p = q holds exactly when lambda^G = R.  On the
    ratios q_i/p_i a relation's quotient is q^m / p^m, so the relations hold
    exactly when the geometric keys agree."""
    if p.weight != q.weight:
        raise Mismatch(f"weights differ: {p.weight} vs {q.weight}")
    if p.field != q.field:
        raise Mismatch(f"fields differ: {p.field} vs {q.field}")
    if p._support != q._support:
        return None
    m = p.field.p if isinstance(p.field, PrimeField) else None
    ratios = {i: pow(p.values[i], -1, m) * q.values[i] for i in p._support}
    G, R, relations = _fold(p.weight, ratios, _fold_chain(p.weight, p._support), m)
    if any(lhs != rhs for lhs, rhs in relations):
        return None
    return G, R


def _int_root(n: int, k: int) -> int | None:
    """The integer k-th root of n >= 1 if n is a k-th power, else None
    (integer Newton steps)."""
    if k >= n.bit_length():  # 2^k > n, so only 1 is a k-th power
        return 1 if n == 1 else None
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x if x**k == n else None


def _rational_root(t: Fraction, k: int) -> Fraction | None:
    """The real k-th root of t != 0 if it is rational (the positive one for
    even k), else None."""
    num, den = _int_root(abs(t.numerator), k), _int_root(t.denominator, k)
    if num is None or den is None or (t < 0 and k % 2 == 0):
        return None
    return Fraction(num if t > 0 else -num, den)


def eq_geometric(p: WPoint, q: WPoint) -> bool:
    """Equality over the algebraic closure: lambda^{a_i} p_i = q_i for some
    lambda there.  Exact for every weight vector (see `_scaling_root`)."""
    return _scaling_root(p, q) is not None


def eq_rational(p: WPoint, q: WPoint) -> bool:
    """Equality under a base-field scalar lambda with lambda^{a_i} p_i = q_i.

    Left after the fold is lambda^G = R.  Over F_p it has a root iff
    R^{(p-1)/gcd(G, p-1)} = 1 (Euler's criterion); over Q iff R > 0 or G is
    odd, and |numerator| and denominator of R are integer G-th powers."""
    root = _scaling_root(p, q)
    if root is None:
        return False
    G, R = root
    if isinstance(p.field, PrimeField):
        m = p.field.p
        return pow(R, (m - 1) // gcd(G, m - 1), m) == 1
    return _rational_root(R, G) is not None


def fp_orbit_min(a: Weight, x: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Lexicographically least lambda-scaling (lambda^{a_i} x_i mod p) of a residue vector.

    The lambdas that keep every earlier coordinate at its least value are
    carried forward.  Only the first nonzero coordinate scans all of F_p^*;
    after it the survivors are one coset of the a_i-th roots of unity.
    """
    lams = range(1, p)
    least = []
    for ai, c in zip(a, x):
        if c:
            vals = [pow(lam, ai, p) * c % p for lam in lams]
            c = min(vals)
            lams = [lam for lam, v in zip(lams, vals) if v == c]
        least.append(c)
    return tuple(least)


def normalize(p: WPoint) -> tuple[WPoint, bool]:
    """Canonical orbit representative plus a flag telling whether it is one.

    Over the rationals the first nonzero weight-1 coordinate is scaled to 1
    (no such coordinate: input returned unchanged, flag False).  Over F_p the
    representative is the lexicographically smallest orbit member.
    """
    a = p.weight
    if isinstance(p.field, PrimeField):
        best = fp_orbit_min(a, p.values, p.field.p)
        return WPoint(a, best, p.field), True
    anchor = next((i for i, c in enumerate(p.values) if a[i] == 1 and c), None)
    if anchor is None:
        return p, False
    lam = 1 / p.coords[anchor]
    coords = tuple(lam ** a[i] * c for i, c in enumerate(p.coords))
    return WPoint(a, coords, p.field), True


def cover_project(y: WPoint, target_weight: Weight) -> WPoint:
    """pi: [y_0:...:y_n] -> |y_0^{a_0}:...:y_n^{a_n}|."""
    a = check_weight(target_weight)
    if y.weight != (1,) * len(a):
        raise Mismatch(f"cover points carry weight {(1,) * len(a)}, got {y.weight}")
    return WPoint(a, tuple(c ** a[i] for i, c in enumerate(y.coords)), y.field)


def _group_elements(a: Weight, p: int) -> list[tuple[int, ...]]:
    """The elements of mu^{a_0} x ... x mu^{a_n} inside (F_p^*)^{n+1}, as residues."""
    for ai in a:
        if (p - 1) % ai != 0:
            raise PrimeUnsuitable(f"p = {p} is not 1 mod {ai}; mu^{ai} not inside F_p*")
    return list(product(*(fp_roots(1, ai, p) for ai in a)))


def _orbit_stabilizer(group, support: tuple[int, ...], block, p: int):
    """The orbits, each member scaled to first nonzero coordinate 1, of the
    straight points of a block sharing the support (residues mod p, x_i0 = 1 at
    the first support index i0) under the elements of `_group_elements`, and
    their stabilizer order: the number of g with g_i = g_i0 on the support.

    Per support the elements are divided by their i0 entry and the stabilizer
    order is counted; per point the orbit takes its image under every element.
    """
    i0 = support[0]
    inverses = [pow(g[i0], -1, p) for g in group]
    moves = [tuple(s * u % p for s in g) for g, u in zip(group, inverses)]
    stab = sum(all(g[i] == g[i0] for i in support) for g in group)
    return ({tuple(s * v % p for s, v in zip(g, x)) for g in moves} for x in block), stab


def patch_representative(x: WPoint, i: int) -> list:
    """A representative of x in the affine patch {x_i != 0}.

    Scales by an a_i-th root of 1/x_i (the smallest residue over F_p, the
    positive one over the rationals), then drops coordinate i.
    """
    a = x.weight
    if not 0 <= i < len(a):
        raise ValueError(f"patch index {i} out of range")
    if x.coords[i] == x.field.zero:
        raise NotOnPatch(f"coordinate {i} vanishes; point is not on patch {i}")
    target, k = 1 / x.coords[i], a[i]
    if isinstance(x.field, PrimeField):
        roots = fp_roots(target.value, k, x.field.p)
        root = x.field.coerce(roots[0]) if roots else None
    else:
        root = _rational_root(target, k)
    if root is None:
        raise Unsupported(f"1/x_{i} = {target} has no {k}-th root in {x.field}")
    scaled = [root ** a[k] * c for k, c in enumerate(x.coords)]
    return [c for k, c in enumerate(scaled) if k != i]


def patch_equivalent(u, v, a: Weight, i: int, p: int) -> bool:
    """Whether two patch-i representatives differ by the type 1/a_i action.

    eps^{a_k} u_k = v_k with eps^{a_i} = 1 says that u and v, with 1 put back
    at index i, are the same point under an F_p scalar.
    """
    a = check_weight(a)
    field = PrimeField(p)
    if len(u) != len(a) - 1 or len(v) != len(a) - 1:
        raise ValueError(f"patch points need {len(a) - 1} coordinates")
    return eq_rational(WPoint(a, [*u[:i], 1, *u[i:]], field), WPoint(a, [*v[:i], 1, *v[i:]], field))
