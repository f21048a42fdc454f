"""Weight vectors, well-formedness, and the well-forming reduction with trace."""

from __future__ import annotations

from math import gcd, prod

from .errors import BadCase, Mismatch, ParseError, check_length
from .exactmath import prime_factors

Weight = tuple[int, ...]


def check_weight(a, min_len: int = 2) -> Weight:
    """The entries of a as a tuple of at least min_len positive ints."""
    a = tuple(int(x) for x in a)
    if len(a) < min_len:
        raise ValueError(f"weight needs {min_len} or more entries, got {a}")
    if any(x < 1 for x in a):
        raise ValueError(f"weight entries must be positive, got {a}")
    return a


def parse_weight(text: str, min_len: int = 2) -> Weight:
    """Parse comma-separated positive integers, e.g. '12,20,30'."""
    parts = [p.strip() for p in text.split(",")]
    for p in parts:
        check_length(p, f"an entry of weight {text[:20]}...")
    try:
        a = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError(f"malformed weight {text!r}: expected comma-separated integers")
    if len(a) < min_len:
        raise ParseError(f"weight {text!r} needs at least {min_len} entries")
    if any(x < 1 for x in a):
        raise ParseError(f"weight {text!r} has non-positive entries")
    return a


def is_well_formed(a: Weight) -> bool:
    """True iff every n-element subset of the entries is coprime."""
    a = check_weight(a)
    for i in range(len(a)):
        rest = a[:i] + a[i + 1 :]
        if gcd(*rest) != 1:
            return False
    return True


class WellFormStep:
    """One reduction step; ideal_note is filled in by straighten_chain."""

    def __init__(
        self,
        case: str,
        d: int,
        spared: int | None,
        before: Weight,
        after: Weight,
        ideal_note: str | None = None,
    ):
        if case not in ("I", "II"):
            raise BadCase(f"well-forming step case must be 'I' or 'II', got {case!r}")
        self.case = case
        self.d = d
        self.spared = spared
        self.before = before
        self.after = after
        self.ideal_note = ideal_note

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "d": self.d,
            "spared": self.spared,
            "before": list(self.before),
            "after": list(self.after),
            "ideal_note": self.ideal_note,
        }

    def __repr__(self) -> str:
        where = "" if self.spared is None else f" spare j={self.spared}"
        return f"[case {self.case} d={self.d}{where}: {self.before} -> {self.after}]"


class WellFormTrace:
    """Ordered log of reduction steps; consecutive steps chain exactly."""

    def __init__(self, steps: list[WellFormStep]):
        for prev, nxt in zip(steps, steps[1:]):
            if prev.after != nxt.before:
                raise Mismatch(f"steps do not chain: {prev} then {nxt}")
        self.steps = steps

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def is_empty(self) -> bool:
        return not self.steps

    def chain(self) -> list[Weight]:
        """The visited weights, starting from the input."""
        if not self.steps:
            return []
        return [self.steps[0].before] + [s.after for s in self.steps]

    def as_dict(self) -> list[dict]:
        return [s.as_dict() for s in self.steps]


def _case_two_candidates(a: Weight, prime_steps: bool) -> list[tuple[Weight, int, int]]:
    """(resulting weight, spared index, divisor) for every legal case-II step.

    After case I the whole-tuple gcd is 1, so any complement gcd is
    automatically coprime to the spared entry.
    """
    out = []
    for j in range(len(a)):
        rest = a[:j] + a[j + 1 :]
        g = gcd(*rest)
        if g == 1:
            continue
        divisors = prime_factors(g) if prime_steps else [g]
        for d in divisors:
            new = tuple(x // d if i != j else x for i, x in enumerate(a))
            out.append((new, j, d))
    return out


def well_form(a: Weight, prime_steps: bool = False) -> tuple[Weight, WellFormTrace]:
    """Reduce a weight to a well-formed one, logging every step.

    Case I (a common factor of all entries) is exhausted first; then case II
    steps divide a complement by its gcd, choosing at each stage the
    candidate whose resulting weight vector is lexicographically largest.
    That choice replays the (12,20,30) -> (6,10,15) -> (6,2,3) -> (3,1,3)
    -> (1,1,1) chain.  Terminates because each step strictly shrinks the
    entry product.
    """
    cur = check_weight(a)
    steps: list[WellFormStep] = []
    while (g := gcd(*cur)) != 1:
        d = prime_factors(g)[0] if prime_steps else g
        new = tuple(x // d for x in cur)
        steps.append(WellFormStep("I", d, None, cur, new))
        cur = new
    while not is_well_formed(cur):
        cands = _case_two_candidates(cur, prime_steps)
        if not cands:
            raise Mismatch(f"no case-II step applies to non-well-formed {cur}")
        new, j, d = max(cands, key=lambda c: (c[0], -c[1], c[2]))
        steps.append(WellFormStep("II", d, j, cur, new))
        cur = new
    if prod(cur) > prod(check_weight(a)):
        raise Mismatch(f"well-forming grew the entry product: {a} -> {cur}")
    return cur, WellFormTrace(steps)
