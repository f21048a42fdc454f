"""Hilbert series as exact rational functions N(t) / prod(1 - t^{a_i}),
Riemann-Roch ell-sequences, numerator recovery, and the per-embedding
numerator report.
"""

from __future__ import annotations

from .errors import AmbiguousLowDegree, NumeratorNotPolynomial, check_work
from .exactmath import upoly_string
from .weights import check_weight


def _times(c: list[int], a: int, e: int) -> None:
    """Multiply c in place, truncated to len(c), by (1 - t^a)^e, e = 1 or -1: the
    module's one loop over coefficients, len(c) steps a pass.  e = 1 runs down
    on old entries; e = -1 runs up on updated ones, summing 1 + t^a + t^2a ...."""
    for k in range(len(c) - 1, a - 1, -1) if e == 1 else range(a, len(c)):
        c[k] -= e * c[k - a]


class HilbertSeries:
    """Integer numerator polynomial over the denominator prod(1 - t^{a_i}).

    The numerator is a coefficient list, constant first, kept with no
    trailing zeros; rationals with denominator 1 are accepted and stored as
    ints."""

    def __init__(self, numerator, denominator_weights):
        bad = next((c for c in numerator if c.denominator != 1), None)
        if bad is not None:
            raise ValueError(f"numerator coefficient {bad} is not an integer")
        self.numerator = [c.numerator for c in numerator]
        while self.numerator and not self.numerator[-1]:
            self.numerator.pop()
        self.denominator_weights = check_weight(denominator_weights, 1)

    def expand(self, n: int) -> list[int]:
        return expand(self.numerator, self.denominator_weights, n)

    def to_string(self) -> str:
        num = upoly_string(self.numerator)
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


def expand(numerator: list[int], a, n: int) -> list[int]:
    """Coefficients c_0..c_n of the power series N(t) / prod(1 - t^{a_i}), as
    exact integers, for the integer coefficient list N and positive weights a.

    One pass of n + 1 steps per factor 1/(1-t^{a_i}), each step counted once
    per 64-bit word of the largest numerator coefficient: the coefficients
    are that large.  With numerator [1] c_k counts the monomials of weighted
    degree k.  Callers that write the coefficients in decimal check their size.
    """
    if n < 0:
        raise ValueError("expansion length must be non-negative")
    words = max(1, -(-max(map(abs, numerator), default=0).bit_length() // 64))
    what = f"series expansion to degree {n}" + (f" with {words}-word coefficients" if words > 1 else "")
    check_work(len(a) * (n + 1) * words, what)
    c = numerator[: n + 1] + [0] * max(0, n + 1 - len(numerator))
    for w in a:
        _times(c, w, -1)
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


def numerator_from_sequence(coeffs, a, max_degree: int) -> list[int]:
    """Recover N(t) = (sum c_n t^n) * prod(1 - t^{a_i}) as a coefficient list.

    The product is probed up to max_degree + sum(a), one pass over the
    horizon + 1 coefficients per weight; any nonzero coefficient beyond
    max_degree raises NumeratorNotPolynomial.
    """
    a = check_weight(a, 1)
    horizon = max_degree + sum(a)
    check_work(len(a) * (horizon + 1), f"numerator to degree {max_degree}")
    get = coeffs if callable(coeffs) else list(coeffs).__getitem__
    c = [int(get(n)) for n in range(horizon + 1)]
    for w in a:
        _times(c, w, 1)
    k = next((k for k in range(max_degree + 1, horizon + 1) if c[k]), None)
    if k is not None:
        raise NumeratorNotPolynomial(f"product still has a t^{k} term beyond degree {max_degree}")
    del c[max_degree + 1 :]
    while c and not c[-1]:
        c.pop()
    return c


def complete_intersection_series(a, relation_degrees) -> HilbertSeries:
    """Series prod_j(1 - t^{d_j}) / prod_i(1 - t^{a_i}); the numerator takes
    one pass over its sum(d_j) + 1 coefficients per relation."""
    a = check_weight(a, 1)
    degrees = tuple(relation_degrees)
    if any(d < 1 for d in degrees):
        raise ValueError("relation degrees must be positive")
    top = sum(degrees)
    check_work(len(degrees) * (top + 1), f"numerator of {len(degrees)} relations of degree {top}")
    c = [1] + [0] * top
    for d in degrees:
        _times(c, d, 1)
    return HilbertSeries(c, a)


def ci_relation_degrees(num: list[int]) -> list[int] | None:
    """Degrees d_j if num = prod(1 - t^{d_j}); None if it does not factor so.

    The least d >= 1 with a nonzero coefficient is the least d_j, with a
    negative coefficient.  Division by 1 - t^d is one ascending pass, exact
    iff the top d coefficients come out zero; it leaves t^1..t^(d-1) at zero,
    so the next d_j is sought from d up.  Passes are counted as they go.
    """
    c = list(num)
    while c and not c[-1]:
        c.pop()
    if not c or c[0] != 1:
        return None
    what = f"relation degrees of a degree-{len(c) - 1} numerator"
    out: list[int] = []
    d, steps = 1, 0
    while len(c) > 1:
        d = next(k for k in range(d, len(c)) if c[k])
        if c[d] > 0:
            return None
        steps += len(c)
        check_work(steps, what)
        _times(c, d, -1)
        if any(c[-d:]):
            return None
        del c[-d:]
        out.append(d)
    return out


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
        weights = check_weight(weights, 1)
        jobs.append((k, weights, numerator_degree_bound(e, weights, k) if max_degree is None else max_degree))
    check_work(sum(len(w) * (bound + sum(w) + 1) for _, w, bound in jobs), f"numerators for {len(jobs)} rows")
    report = []
    for k, weights, bound in jobs:
        num = numerator_from_sequence(lambda n, k=k: e(k * n), weights, bound)
        report.append({"k": k, "weights": weights, "numerator": num, "relation_degrees": ci_relation_degrees(num)})
    return report


def generator_discovery(e: EllSequence, max_degree: int) -> tuple[list[dict], list[int]]:
    """Per-degree generator counting: new_n = ell(n) - #(degree-n products).

    Products are monomials in the generators found so far, counted by the
    running series prod 1/(1 - t^g) over them; a negative `new` signals a
    relation in that degree.  Returns (rows, generator degrees).  One step
    per degree, and one pass per generator, counted as they are found.
    """
    what = f"generator discovery to degree {max_degree}"
    steps = max_degree
    check_work(steps, what)
    series = [1] + [0] * max_degree
    gens: list[int] = []
    rows = []
    for n in range(1, max_degree + 1):
        have, need = series[n], e(n)
        new = need - have
        if new > 0:
            steps += new * len(series)
            check_work(steps, what)
            gens.extend([n] * new)
            for _ in range(new):
                _times(series, n, -1)
        rows.append({"degree": n, "products": have, "ell": need, "new": new})
    return rows, gens
