"""Graded-piece bases, Veronese (d-th truncation) generators, regrading,
and principal-ideal transforms along well-forming chains.

Grading convention: an element of degree d*i in R has degree i in R^(d).
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod

from .errors import BadCase, Mismatch, NotHomogeneous, check_work
from .weights import Weight, WellFormStep, WellFormTrace, check_weight, well_form
from .wpoly import (
    Monomial,
    WPolynomial,
    is_weighted_homogeneous,
    monomial_degree,
    monomial_key,
    monomial_string,
    power_steps,
    variable_names,
)

TAG_UNCHANGED = "unchanged-regraded"
TAG_REEXPRESSED = "re-expressed"
TAG_POWER_RAISED = "power-raised"


def graded_piece_basis(a, d: int) -> list[Monomial]:
    """All exponent tuples of weighted degree exactly d, in colex order: the
    exponents of x_{n-1}, ..., x_1 ascend from the last variable down, one
    step per suffix x_1..x_{n-1} of degree <= d, and x_0 is solved for."""
    a = check_weight(a, 1)
    if d < 0:
        raise ValueError("degree must be non-negative")
    suffixes = [(d, ())]  # (degree left, exponents of x_i..x_{n-1})
    for w in reversed(a[1:]):
        suffixes = [(r - w * e, (e, *s)) for r, s in suffixes for e in range(r // w + 1)]
    return [(r // a[0], *s) for r, s in suffixes if r % a[0] == 0]


def _divides(g: Monomial, m: Monomial) -> bool:
    return all(gi <= mi for gi, mi in zip(g, m))


def veronese_generators(a: Weight, d: int) -> list[Monomial]:
    """Minimal generating monomials of {e : weighted degree divisible by d}.

    With d_i = d / gcd(a_i, d), every minimal generator is either the pure
    power d_i*u_i or lies in the box e_i < d_i: if e_i >= d_i, then
    e - d_i*u_i still has degree divisible by d, so d_i*u_i divides e.  The
    candidates are therefore the n pure powers and the nonzero box vectors
    of degree divisible by d.  A pure power divides no box vector and no box
    vector divides one, so the pure powers are all generators, and a box
    vector taken in (degree, colex) order is one iff no earlier box generator
    divides it.  The list is ordered by degree, then colex.  Each box vector
    and each pure power costs n steps.
    """
    a = check_weight(a)
    if d < 1:
        raise ValueError("truncation step must be >= 1")
    di = [d // gcd(x, d) for x in a]
    n = len(a)
    check_work(n * (prod(di) + n), f"Veronese box of {prod(di)} vectors in {n} coordinates")
    order = lambda e: (monomial_degree(e, a), monomial_key(e))
    box = sorted((e for e in product(*(range(m) for m in di)) if any(e) and monomial_degree(e, a) % d == 0), key=order)
    gens: list[Monomial] = []
    for m in box:
        if not any(_divides(g, m) for g in gens):
            gens.append(m)
    return sorted([tuple(di[i] if k == i else 0 for k in range(n)) for i in range(n)] + gens, key=order)


def regraded_degrees(gens: list[Monomial], a: Weight, d: int) -> list[int]:
    """Degrees the generators carry in R^(d)."""
    return [monomial_degree(g, a) // d for g in gens]


def regrade(a: Weight, d: int, case: str, spared_index: int | None = None) -> Weight:
    """New weight vector after a case-I or case-II truncation step."""
    a = check_weight(a)
    if d < 2:
        raise BadCase(f"divisor must be >= 2, got {d}")
    if case == "I":
        if any(x % d for x in a):
            raise BadCase(f"{d} does not divide every entry of {a}")
        return tuple(x // d for x in a)
    if case == "II":
        j = spared_index
        if j is None or not 0 <= j < len(a):
            raise BadCase(f"case II needs a spared index, got {spared_index}")
        if any(x % d for i, x in enumerate(a) if i != j):
            raise BadCase(f"{d} does not divide the complement of index {j} in {a}")
        if gcd(d, a[j]) != 1:
            raise BadCase(f"divisor {d} is not coprime to spared entry {a[j]}")
        return tuple(x if i == j else x // d for i, x in enumerate(a))
    raise BadCase(f"unknown case {case!r}")


def transform_principal_ideal(
    f: WPolynomial, a: Weight, d: int, case: str, spared_index: int | None = None
) -> tuple[WPolynomial, str]:
    """Carry the principal ideal (f) through one truncation step.

    Case I leaves f alone (regraded).  Case II re-expresses f in the new
    generators when every spared exponent is divisible by d (equivalently
    d | deg f); otherwise it returns f^d, which is always re-expressible.
    """
    a = check_weight(a)
    if tuple(f.weight) != a:
        raise ValueError(f"polynomial weight {f.weight} does not match {a}")
    if is_weighted_homogeneous(f) is None:
        raise NotHomogeneous("ideal transform needs a weighted-homogeneous generator")
    new_weight = regrade(a, d, case, spared_index)
    if case == "I":
        return WPolynomial(new_weight, f.field, dict(f.terms)), TAG_UNCHANGED
    j = spared_index
    if all(e[j] % d == 0 for e in f.terms):
        g, tag = f, TAG_REEXPRESSED
    else:
        check_work(power_steps(f, d), f"{len(f.terms)}-term ideal generator raised to {d}")
        g, tag = f**d, TAG_POWER_RAISED
    terms = {
        tuple(x // d if i == j else x for i, x in enumerate(e)): c
        for e, c in g.terms.items()
    }
    return WPolynomial(new_weight, f.field, terms), tag


class GradedPresentation:
    """A graded ring presentation: weight, generator names, and relations."""

    def __init__(
        self,
        weight: Weight,
        generator_names: list[str],
        relations: list[WPolynomial],
        relation_degrees: list[int],
    ):
        self.weight = tuple(weight)
        self.generator_names = list(generator_names)
        self.relations = list(relations)
        self.relation_degrees = list(relation_degrees)
        if len(self.relations) != len(self.relation_degrees):
            raise Mismatch(
                f"{len(self.relations)} relations but {len(self.relation_degrees)} degrees"
            )
        for rel, deg in zip(self.relations, self.relation_degrees):
            if tuple(rel.weight) != self.weight:
                raise Mismatch(f"relation weight {rel.weight} does not match {self.weight}")
            if is_weighted_homogeneous(rel) != deg:
                raise NotHomogeneous(
                    f"relation {rel.to_string()} is not homogeneous of degree {deg}"
                )

    def as_dict(self) -> dict:
        return {
            "weight": list(self.weight),
            "generators": self.generator_names,
            "relations": [r.to_string() for r in self.relations],
            "relation_degrees": self.relation_degrees,
        }

    def __repr__(self) -> str:
        rels = ", ".join(r.to_string() for r in self.relations)
        return f"GradedPresentation(weight={self.weight}, gens={self.generator_names}, relations=[{rels}])"


def straighten_chain(
    f: WPolynomial, a: Weight, prime_steps: bool = False
) -> tuple[GradedPresentation, WellFormTrace]:
    """Well-form the weight and carry the principal ideal (f) along.

    Generator names track what each current variable is as a monomial in
    the original variables: x_j^(m_j), as case II replaces the spared
    generator by its d-th power.
    """
    a = check_weight(a)
    if tuple(f.weight) != a:
        raise ValueError(f"polynomial weight {f.weight} does not match {a}")
    if is_weighted_homogeneous(f) is None:
        raise NotHomogeneous("straightening needs a weighted-homogeneous input")
    final_weight, trace = well_form(a, prime_steps)
    powers = [1] * len(a)
    cur = f
    steps: list[WellFormStep] = []
    for step in trace:
        cur, tag = transform_principal_ideal(cur, step.before, step.d, step.case, step.spared)
        if step.case == "II":
            powers[step.spared] *= step.d
        steps.append(
            WellFormStep(step.case, step.d, step.spared, step.before, step.after, tag)
        )
    if tuple(cur.weight) != final_weight:
        raise Mismatch(f"straightened weight {cur.weight} does not match {final_weight}")
    names = [monomial_string((m,), [x]) for x, m in zip(variable_names(len(a)), powers)]
    degree = is_weighted_homogeneous(cur)
    presentation = GradedPresentation(final_weight, names, [cur], [degree])
    return presentation, WellFormTrace(steps)
