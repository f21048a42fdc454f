"""Weighted multivariate polynomials over QQ or F_p.

A WPolynomial stores monomial -> coefficient with an ambient weight vector;
the weighted degree of an exponent tuple e is sum(a_i * e_i).  Canonical
term order is (weighted degree, colex on exponents), which reproduces the
usual display order of graded monomial bases.
"""

from __future__ import annotations

from math import comb

from .errors import FieldMismatch, NotHomogeneous, ZeroPolynomial
from .exactmath import QQ, PrimeField, _terms_string, height
from .weights import Weight

Monomial = tuple[int, ...]

# Letter names by variable count; x0..x9 are always accepted as well.
_LETTERS = ("w", "x", "y", "z", "u", "v", "s", "t", "r")


def variable_names(n: int) -> list[str]:
    """Display names for n variables: x / x,y / x,y,z / w,x,y,z / then onward."""
    if n <= 3:
        return ["x", "y", "z"][:n]
    if n <= len(_LETTERS):
        return list(_LETTERS[:n])
    return [f"x{i}" for i in range(n)]


def monomial_degree(e: Monomial, a: Weight) -> int:
    return sum(ai * ei for ai, ei in zip(a, e))


def monomial_key(e: Monomial) -> tuple[int, ...]:
    """Colex sort key: ascending lex on the reversed exponent tuple."""
    return tuple(reversed(e))


def monomial_string(e: Monomial, names: list[str]) -> str:
    parts = []
    for name, exp in zip(names, e):
        if exp == 0:
            continue
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def power_steps(f: "WPolynomial", m: int) -> int:
    """Work of f**m, t terms of up to h bits (h = 1 over F_p): B^2 term pairs in a product of
    the squaring chain plus the m*h bits of each of the B = C(m+t-1, t-1) terms of the power."""
    t = len(f.terms)
    h = 1 if isinstance(f.field, PrimeField) else max(map(height, f.terms.values()), default=0)
    b = comb(m + t - 1, t - 1) if t else 0
    return b * (b + m * h)


def _power(one, base, n: int):
    """base**n by square-and-multiply from the identity `one`: a product per
    set bit of n and a square per bit below the top one."""
    if n < 0:
        raise ValueError("negative polynomial power")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class WPolynomial:
    def __init__(self, weight: Weight, field, terms=None):
        self.weight = tuple(weight)
        self.field = field
        self.terms: dict[Monomial, object] = {}
        if terms:
            for e, c in dict(terms).items():
                e = tuple(int(x) for x in e)
                if len(e) != len(self.weight):
                    raise ValueError(f"monomial {e} does not fit weight {self.weight}")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = field.coerce(c)
                if c != field.zero:
                    acc = self.terms.get(e)
                    c = c if acc is None else acc + c
                    if c == field.zero:
                        self.terms.pop(e, None)
                    else:
                        self.terms[e] = c

    def is_zero(self) -> bool:
        return not self.terms

    def nvars(self) -> int:
        return len(self.weight)

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        return sorted(
            self.terms.items(),
            key=lambda t: (monomial_degree(t[0], self.weight), monomial_key(t[0])),
        )

    def support(self) -> set[Monomial]:
        return set(self.terms)

    def _compatible(self, other: "WPolynomial") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"polynomials over {self.field} and {other.field}")
        if self.weight != other.weight:
            raise ValueError(f"weights differ: {self.weight} vs {other.weight}")

    def __add__(self, other: "WPolynomial") -> "WPolynomial":
        self._compatible(other)
        out = dict(self.terms)
        z = self.field.zero
        for e, c in other.terms.items():
            s = out.get(e, z) + c
            if s == z:
                out.pop(e, None)
            else:
                out[e] = s
        return WPolynomial(self.weight, self.field, out)

    def __sub__(self, other: "WPolynomial") -> "WPolynomial":
        return self + (-other)

    def __neg__(self) -> "WPolynomial":
        return WPolynomial(self.weight, self.field, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "WPolynomial":
        if not isinstance(other, WPolynomial):
            c = self.field.coerce(other)
            return WPolynomial(self.weight, self.field, {e: c * v for e, v in self.terms.items()})
        self._compatible(other)
        out: dict[Monomial, object] = {}
        z = self.field.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, z) + c1 * c2
                if s == z:
                    out.pop(e, None)
                else:
                    out[e] = s
        return WPolynomial(self.weight, self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "WPolynomial":
        if len(self.terms) == 1 and n >= 0:  # (c x^e)^n = c^n x^(n e)
            [(e, c)] = self.terms.items()
            return WPolynomial(self.weight, self.field, {tuple(n * x for x in e): c**n})
        return _power(WPolynomial(self.weight, self.field, {(0,) * self.nvars(): 1}), self, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WPolynomial)
            and self.weight == other.weight
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.weight, self.field, frozenset(self.terms.items())))

    def to_string(self) -> str:
        """Reparseable text form, terms in canonical order."""
        names = variable_names(self.nvars())
        return _terms_string(self.field, [(c, monomial_string(e, names)) for e, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"WPolynomial({self.to_string()!r}, weight={self.weight})"


def weighted_degree(f: WPolynomial) -> int:
    """Max weighted degree over the monomials of f; constants have degree 0."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weighted degree")
    return max(monomial_degree(e, f.weight) for e in f.terms)


def is_weighted_homogeneous(f: WPolynomial) -> int | None:
    """The common weighted degree of all monomials, or None if they disagree."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no homogeneity degree")
    degrees = {monomial_degree(e, f.weight) for e in f.terms}
    return degrees.pop() if len(degrees) == 1 else None


def partial(f: WPolynomial, i: int) -> WPolynomial:
    """Formal partial derivative with respect to variable i."""
    if not 0 <= i < f.nvars():
        raise ValueError(f"variable index {i} out of range")
    out: dict[Monomial, object] = {}
    for e, c in f.terms.items():
        if e[i] == 0:
            continue
        de = e[:i] + (e[i] - 1,) + e[i + 1 :]
        out[de] = c * e[i]
    return WPolynomial(f.weight, f.field, out)


def evaluate(f: WPolynomial, coords) -> object:
    """Value of f at an affine-cone representative."""
    coords = [f.field.coerce(c) for c in coords]
    if len(coords) != f.nvars():
        raise ValueError(f"expected {f.nvars()} coordinates, got {len(coords)}")
    acc = f.field.zero
    for e, c in f.terms.items():
        term = c
        for x, exp in zip(coords, e):
            if exp:
                term = term * x**exp
        acc = acc + term
    return acc


def power_substitute(f: WPolynomial) -> WPolynomial:
    """The map pi_#: x_i -> y_i^{a_i}, landing in straight grading (1,...,1)."""
    d = is_weighted_homogeneous(f)
    if d is None:
        raise NotHomogeneous("power substitution needs a weighted-homogeneous input")
    straight = (1,) * f.nvars()
    out = {
        tuple(ai * ei for ai, ei in zip(f.weight, e)): c for e, c in f.terms.items()
    }
    return WPolynomial(straight, f.field, out)


def restrict_to_edge(f: WPolynomial, i: int) -> list:
    """Set x_i = 0, x_{i+1} = 1, x_{i+2} = lambda (indices mod 3): the field
    coefficients of the result in lambda, constant first, no trailing zeros."""
    if f.nvars() != 3:
        raise ValueError("edge restriction is defined for 3 variables")
    if not 0 <= i < 3:
        raise ValueError(f"edge index {i} out of range")
    lam = (i + 2) % 3
    z = f.field.zero
    coeffs = [z] * (1 + max((e[lam] for e in f.terms if e[i] == 0), default=-1))
    for e, c in f.terms.items():
        if e[i] == 0:
            coeffs[e[lam]] += c
    while coeffs and coeffs[-1] == z:
        coeffs.pop()
    return coeffs


def reduce_mod(f: WPolynomial, p: int) -> WPolynomial:
    """Reduce a rational polynomial mod p (denominators must be units)."""
    if not isinstance(f.field, type(QQ)):
        raise FieldMismatch("reduce_mod expects a polynomial over the rationals")
    fp = PrimeField(p)
    return WPolynomial(f.weight, fp, {e: fp.coerce(c) for e, c in f.terms.items()})
