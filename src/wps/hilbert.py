"""Hilbert series as exact rational functions N(t) / prod(1 - t^{a_i}),
Riemann-Roch ell-sequences, numerator recovery, and the per-embedding
numerator report.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbiguousLowDegree, NumeratorNotPolynomial, check_digits, check_work
from .exactmath import QQ, UPolynomial, height
from .truncation import graded_piece_basis


def _int_coeffs(num: UPolynomial) -> list[int]:
    out = []
    for c in num.coeffs:
        f = Fraction(c)
        if f.denominator != 1:
            raise ValueError(f"numerator coefficient {c} is not an integer")
        out.append(f.numerator)
    return out


def _check_weights(a) -> tuple[int, ...]:
    a = tuple(int(x) for x in a)
    if not a or any(x < 1 for x in a):
        raise ValueError(f"denominator weights must be positive, got {a}")
    return a


class HilbertSeries:
    """Integer numerator polynomial over the denominator prod(1 - t^{a_i})."""

    def __init__(self, numerator: UPolynomial, denominator_weights):
        self.numerator = numerator
        self.denominator_weights = _check_weights(denominator_weights)
        self.int_coeffs = _int_coeffs(numerator)  # invariant: integer coefficients

    def expand(self, n: int) -> list[int]:
        return expand(self, n)

    def to_string(self) -> str:
        num = self.numerator.to_string()
        if " " in num:
            num = f"({num})"
        den = "".join(
            "(1-t)" if a == 1 else f"(1-t^{a})" for a in self.denominator_weights
        )
        return f"{num} / {den}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HilbertSeries)
            and self.numerator == other.numerator
            and self.denominator_weights == other.denominator_weights
        )

    def __repr__(self) -> str:
        return f"HilbertSeries({self.to_string()})"


def expand(s: HilbertSeries, n: int) -> list[int]:
    """Coefficients c_0..c_n of the power series, as exact integers.

    Iterated prefix sums with stride a_i expand each 1/(1-t^{a_i}) factor.
    Each coefficient counts one step per 64-bit word of the largest numerator
    coefficient: the coefficients are that large, and callers that write
    them out in decimal pay for every word.
    """
    if n < 0:
        raise ValueError("expansion length must be non-negative")
    num = s.int_coeffs
    words = max(1, -(-max(map(height, num), default=0) // 64))
    what = f"series expansion to degree {n}" + (f" with {words}-word coefficients" if words > 1 else "")
    check_work(n * words, what)
    c = num[: n + 1] + [0] * max(0, n + 1 - len(num))
    for a in s.denominator_weights:
        for k in range(a, n + 1):
            c[k] += c[k - a]
    check_digits(c, f"a coefficient of the expansion to degree {n}")
    return c


class EllSequence:
    """Riemann-Roch dimension sequence ell(nD) for a degree-`divisor_degree`
    divisor on a genus-g curve.

    Above degree 2g-2 the value is forced (n*deg + 1 - g); inside the
    ambiguous range 0 < n*deg <= 2g-2 the caller must supply overrides.
    """

    def __init__(self, genus: int, divisor_degree: int, low_overrides=None):
        if genus < 0:
            raise ValueError("genus must be non-negative")
        if divisor_degree < 1:
            raise ValueError("divisor degree must be positive")
        self.genus = genus
        self.divisor_degree = divisor_degree
        self.low_overrides = dict(low_overrides or {})
        self.ambiguous_count = max(0, (2 * genus - 2) // divisor_degree)
        bad = sorted(n for n in self.low_overrides if not 1 <= n <= self.ambiguous_count)
        if bad:
            raise ValueError(f"overrides {bad} fall outside the ambiguous range n = 1..{self.ambiguous_count}")
        if any(v < 1 for v in self.low_overrides.values()):
            raise ValueError("ell values are positive")

    def value(self, n: int) -> int:
        if n < 0:
            raise ValueError("ell is defined for n >= 0")
        if n == 0:
            return 1
        nd = n * self.divisor_degree
        if nd > 2 * self.genus - 2:
            return nd + 1 - self.genus
        if n in self.low_overrides:
            return self.low_overrides[n]
        raise AmbiguousLowDegree(
            f"ell({n}) with n*deg = {nd} <= 2g-2 = {2 * self.genus - 2} needs an override"
        )

    __call__ = value


def _provider(coeffs):
    if callable(coeffs):
        return coeffs
    seq = list(coeffs)
    return lambda n: seq[n]


def numerator_from_sequence(coeffs, a, max_degree: int) -> UPolynomial:
    """Recover N(t) = (sum c_n t^n) * prod(1 - t^{a_i}) as a polynomial.

    The product is probed up to max_degree + sum(a), one step per degree;
    any nonzero coefficient beyond max_degree raises NumeratorNotPolynomial.
    """
    a = _check_weights(a)
    horizon = max_degree + sum(a)
    check_work(horizon, f"numerator to degree {max_degree}")
    get = _provider(coeffs)
    c = [int(get(n)) for n in range(horizon + 1)]
    for ai in a:
        c = [c[k] - (c[k - ai] if k >= ai else 0) for k in range(horizon + 1)]
    for k in range(max_degree + 1, horizon + 1):
        if c[k] != 0:
            raise NumeratorNotPolynomial(
                f"product still has a t^{k} term beyond degree {max_degree}"
            )
    return UPolynomial(QQ, c[: max_degree + 1])


def complete_intersection_series(a, relation_degrees) -> HilbertSeries:
    """Series prod_j(1 - t^{d_j}) / prod_i(1 - t^{a_i})."""
    a = _check_weights(a)
    num = UPolynomial(QQ, [1])
    for d in relation_degrees:
        if d < 1:
            raise ValueError("relation degrees must be positive")
        num = num * UPolynomial(QQ, [1] + [0] * (d - 1) + [-1])
    return HilbertSeries(num, a)


def ci_relation_degrees(num: UPolynomial) -> list[int] | None:
    """Degrees d_j if num = prod(1 - t^{d_j}); None if it does not factor so."""
    if num.is_zero() or Fraction(num.constant()) != 1:
        return None
    out: list[int] = []
    cur = num
    while cur.degree() > 0:
        coeffs = _int_coeffs(cur)
        d = next(k for k in range(1, len(coeffs)) if coeffs[k] != 0)
        if coeffs[d] > 0:
            return None
        factor = UPolynomial(QQ, [1] + [0] * (d - 1) + [-1])
        q, r = divmod(cur, factor)
        if not r.is_zero():
            return None
        out.append(d)
        cur = q
    if _int_coeffs(cur) != [1]:
        return None
    return sorted(out)


def numerator_degree_bound(e: EllSequence, weights, k: int = 1) -> int:
    """A bound on deg N(t) for the sequence ell(kn) over `weights`.

    ell(kn) is linear in n once kn passes the n0 = |ambiguous range|, so
    (1-t)^2 sum ell(kn) t^n has degree <= n0//k + 2, and N(t) is that times
    prod(1 - t^{a_i}) / (1-t)^2, of degree sum(a) - 2.
    """
    return e.ambiguous_count // k + sum(weights)


def embedding_report(e: EllSequence, rows, max_degree: int | None = None) -> list[dict]:
    """For each (k, weights) row: feed ell(kn) to numerator recovery.

    Reproduces the elliptic truncation table when e is the (g=1, deg=1)
    sequence and rows carry the matching ambient weights.  The rows take
    the steps of their `numerator_from_sequence` calls together.
    """
    jobs = []
    for k, weights in rows:
        if k < 1:
            raise ValueError(f"row k must be positive, got {k}")
        weights = _check_weights(weights)
        jobs.append((k, weights, numerator_degree_bound(e, weights, k) if max_degree is None else max_degree))
    check_work(sum(bound + sum(weights) for _, weights, bound in jobs), f"numerators for {len(jobs)} rows")
    report = []
    for k, weights, bound in jobs:
        num = numerator_from_sequence(lambda n, k=k: e(k * n), weights, bound)
        report.append({"k": k, "weights": weights, "numerator": num, "relation_degrees": ci_relation_degrees(num)})
    return report


def generator_discovery(e: EllSequence, max_degree: int) -> tuple[list[dict], list[int]]:
    """Per-degree generator counting: new_n = ell(n) - #(degree-n products).

    Products are monomials in the generators found so far; a negative
    `new` signals a relation in that degree.  Returns (rows, generator
    degrees).
    """
    gens: list[int] = []
    rows = []
    for n in range(1, max_degree + 1):
        have = len(graded_piece_basis(tuple(gens), n))
        need = e(n)
        new = need - have
        if new > 0:
            gens.extend([n] * new)
        rows.append({"degree": n, "products": have, "ell": need, "new": new})
    return rows, gens
