"""Points of weighted projective space: equality predicates, normal forms,
affine patches, and the mu^{a_0} x ... x mu^{a_n} action on the straight
cover.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd

from .errors import FieldMismatch, Mismatch, NotAConePoint, NotOnPatch, PrimeUnsuitable, Unsupported
from .exactmath import QQ, FpElem, PrimeField
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

    def support(self) -> tuple[int, ...]:
        return self._support

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


@lru_cache(maxsize=64)  # bounded; one weight vector has at most 2^n - 1 supports
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


def _scaling_root(p: WPoint, q: WPoint):
    """None if p and q are different points over the algebraic closure, else
    (G, R) such that lambda . p = q holds exactly when lambda^G = R.

    On the common support lambda . p = q says lambda^{a_i} = r_i = q_i/p_i.
    With g = gcd(G, a) = u*G + v*a, the pair {lambda^G = R, lambda^a = r} is
    equivalent to {lambda^g = R^u r^v, R^{a/g} = r^{G/g}}, so the conditions
    fold in one at a time; each fold leaves a lambda-free relation-lattice
    condition that must hold.  The arithmetic is pow(., ., m): int residues
    mod m over F_p, Fractions with m = None over Q.
    """
    if p.weight != q.weight:
        raise Mismatch(f"weights differ: {p.weight} vs {q.weight}")
    if p.field != q.field:
        raise Mismatch(f"fields differ: {p.field} vs {q.field}")
    if p._support != q._support:
        return None
    m = p.field.p if isinstance(p.field, PrimeField) else None
    x, y = p.values, q.values
    G, i, steps = _fold_chain(p.weight, p._support)
    R = pow(x[i], -1, m) * y[i]
    for i, ag, Gg, u, v in steps:
        r = pow(x[i], -1, m) * y[i]
        if pow(R, ag, m) != pow(r, Gg, m):
            return None
        if v:
            R = pow(R, u, m) * pow(r, v, m)
    return G, R


def _is_power(n: int, k: int) -> bool:
    """Whether n >= 1 is the k-th power of an integer (integer Newton steps)."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x**k == n


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
    return (R > 0 or G % 2 == 1) and _is_power(abs(R.numerator), G) and _is_power(R.denominator, G)


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


def roots_of_unity(p: int, n: int) -> list[FpElem]:
    """All solutions of x^n = 1 in F_p (all n of them when p = 1 mod n)."""
    field = PrimeField(p)
    return [field.coerce(x) for x in range(1, p) if pow(x, n, p) == 1]


def _group_elements(a: Weight, p: int) -> list[tuple[int, ...]]:
    """The elements of mu^{a_0} x ... x mu^{a_n} inside (F_p^*)^{n+1}, as residues."""
    for ai in a:
        if (p - 1) % ai != 0:
            raise PrimeUnsuitable(f"p = {p} is not 1 mod {ai}; mu^{ai} not inside F_p*")
    return list(product(*([r.value for r in roots_of_unity(p, ai)] for ai in a)))


def stabilizer_order(y: WPoint, a: Weight, p: int) -> int:
    """Order of the subgroup of G = prod mu^{a_i} fixing y in straight P^n."""
    a = check_weight(a)
    if y.weight != (1,) * len(a):
        raise Mismatch(f"stabilizers act on straight points, got weight {y.weight}")
    supp = y.support()
    return sum(len({g[i] for i in supp}) == 1 for g in _group_elements(a, p))


def orbit(y: WPoint, a: Weight, p: int) -> list[WPoint]:
    """Distinct straight-projective points in the G-orbit of y, sorted."""
    a = check_weight(a)
    if y.weight != (1,) * len(a):
        raise Mismatch(f"orbits act on straight points, got weight {y.weight}")
    elements = _group_elements(a, p)
    if y.field != PrimeField(p):
        raise FieldMismatch(f"orbit over F_{p} of a point over {y.field}")
    x = y.values
    seen = set()
    for g in elements:
        moved = [s * c % p for s, c in zip(g, x)]
        # with all weights 1 the orbit minimum scales the first nonzero coordinate to 1
        inv = pow(next(v for v in moved if v), -1, p)
        seen.add(tuple(v * inv % p for v in moved))
    return [WPoint(y.weight, cs, y.field) for cs in sorted(seen)]


def patch_representative(x: WPoint, i: int) -> list:
    """A representative of x in the affine patch {x_i != 0}.

    Scales by an a_i-th root of 1/x_i (smallest residue over F_p; exact over
    the rationals only when a_i = 1), then drops coordinate i.
    """
    a = x.weight
    if not 0 <= i < len(a):
        raise ValueError(f"patch index {i} out of range")
    if x.coords[i] == x.field.zero:
        raise NotOnPatch(f"coordinate {i} vanishes; point is not on patch {i}")
    target = 1 / x.coords[i]
    if isinstance(x.field, PrimeField):
        root = next((t for t in x.field.units() if t ** a[i] == target), None)
        if root is None:
            raise Unsupported(f"1/x_{i} = {target} has no {a[i]}-th root in F_{x.field.p}")
    else:
        if a[i] != 1:
            raise Unsupported(f"rational patch needs weight 1 at index {i}, got {a[i]}")
        root = target
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
