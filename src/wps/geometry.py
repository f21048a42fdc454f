"""Points of weighted projective space: equality predicates, normal forms,
affine patches, and the mu^{a_0} x ... x mu^{a_n} action on the straight
cover.
"""

from __future__ import annotations

from itertools import product

from .errors import FieldMismatch, Mismatch, NotAConePoint, NotOnPatch, PrimeUnsuitable, Unsupported
from .exactmath import QQ, FpElem, PrimeField
from .weights import Weight, check_weight


class WPoint:
    """A not-all-zero coordinate vector, up to lambda . x = (lambda^{a_i} x_i)."""

    def __init__(self, weight: Weight, coords, field=QQ):
        self.weight = check_weight(weight)
        self.field = field
        self.coords = tuple(field.coerce(c) for c in coords)
        if len(self.coords) != len(self.weight):
            raise ValueError(f"point needs {len(self.weight)} coordinates")
        if all(c == field.zero for c in self.coords):
            raise NotAConePoint("point coordinates are all zero")

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coords) if c != self.field.zero)

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


def _check_pair(p: WPoint, q: WPoint) -> None:
    if p.weight != q.weight:
        raise Mismatch(f"weights differ: {p.weight} vs {q.weight}")
    if p.field != q.field:
        raise Mismatch(f"fields differ: {p.field} vs {q.field}")


def eq_geometric(p: WPoint, q: WPoint) -> bool:
    """Support match plus the binomial relations p_i^{a_k} q_k^{a_i} = p_k^{a_i} q_i^{a_k}.

    This is the closed-field equality test; it is exact for pairwise-coprime
    weights and may overclaim otherwise (checked empirically by the oracle).
    """
    _check_pair(p, q)
    a = p.weight
    n = len(a)
    if isinstance(p.field, PrimeField):
        m = p.field.p
        x = [c.value for c in p.coords]
        y = [c.value for c in q.coords]
        if [v != 0 for v in x] != [v != 0 for v in y]:
            return False
        for i in range(n):
            for k in range(i + 1, n):
                if pow(x[i], a[k], m) * pow(y[k], a[i], m) % m != pow(x[k], a[i], m) * pow(y[i], a[k], m) % m:
                    return False
        return True
    if p.support() != q.support():
        return False
    for i in range(n):
        for k in range(i + 1, n):
            if p.coords[i] ** a[k] * q.coords[k] ** a[i] != p.coords[k] ** a[i] * q.coords[i] ** a[k]:
                return False
    return True


def eq_rational(p: WPoint, q: WPoint) -> bool:
    """Equality under a base-field scalar lambda with lambda^{a_i} p_i = q_i."""
    _check_pair(p, q)
    a = p.weight
    if isinstance(p.field, PrimeField):
        m = p.field.p
        terms = [(ai, x.value, y.value) for ai, x, y in zip(a, p.coords, q.coords)]
        return any(
            all(pow(lam, ai, m) * x % m == y for ai, x, y in terms)
            for lam in range(1, m)
        )
    if p.support() != q.support():
        return False
    anchor = next(
        (i for i in range(len(a)) if a[i] == 1 and p.coords[i] != p.field.zero), None
    )
    if anchor is None:
        raise Unsupported(
            "rational orbit equality needs a nonzero coordinate of weight 1"
        )
    lam = q.coords[anchor] / p.coords[anchor]
    return all(lam ** a[i] * p.coords[i] == q.coords[i] for i in range(len(a)))


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
        best = fp_orbit_min(a, tuple(c.value for c in p.coords), p.field.p)
        return WPoint(a, best, p.field), True
    anchor = next(
        (i for i in range(len(a)) if a[i] == 1 and p.coords[i] != p.field.zero), None
    )
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
    count = 0
    supp = y.support()
    for g in _group_elements(a, p):
        if len({g[i] for i in supp}) == 1:
            count += 1
    return count


def orbit(y: WPoint, a: Weight, p: int) -> list[WPoint]:
    """Distinct straight-projective points in the G-orbit of y, sorted."""
    a = check_weight(a)
    if y.weight != (1,) * len(a):
        raise Mismatch(f"orbits act on straight points, got weight {y.weight}")
    elements = _group_elements(a, p)
    if y.field != PrimeField(p):
        raise FieldMismatch(f"orbit over F_{p} of a point over {y.field}")
    x = [c.value for c in y.coords]
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
    """Whether two patch-i representatives differ by the type 1/a_i action."""
    a = check_weight(a)
    field = PrimeField(p)
    rest = [a[k] for k in range(len(a)) if k != i]
    uu = [field.coerce(c) for c in u]
    vv = [field.coerce(c) for c in v]
    if len(uu) != len(rest) or len(vv) != len(rest):
        raise ValueError(f"patch points need {len(rest)} coordinates")
    return any(
        all(eps ** ak * uc == vc for ak, uc, vc in zip(rest, uu, vv))
        for eps in roots_of_unity(p, a[i])
    )
