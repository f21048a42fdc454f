"""Exact scalar arithmetic and distinct-root counts of univariate polynomials.

Two coefficient fields are supported: the rationals (stdlib Fraction) and
prime fields F_p.  Both are exact; there is no floating point anywhere.  A
univariate polynomial is a dense coefficient list, constant first, with no
trailing zeros; the empty list is the zero polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch, TooLarge, ZeroPolynomial, check_digits, check_work

# (base, psi): an odd n < psi that is a strong probable prime to every base
# up to this one is prime (Sorenson and Webster 2015, the first 13 primes).
_MILLER_RABIN = (
    (2, 2047), (3, 1373653), (5, 25326001), (7, 3215031751), (11, 2152302898747),
    (13, 3474749660383), (17, 341550071728321), (19, 341550071728321),
    (23, 3825123056546413051), (29, 3825123056546413051), (31, 3825123056546413051),
    (37, 318665857834031151167461), (41, 3317044064679887385961981),
)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises TooLarge where its bases stop being exact."""
    if n >= _MILLER_RABIN[-1][1]:
        raise TooLarge(f"{n} is past the deterministic primality bound 3.3e24")
    if n < 2:
        return False
    for b, _ in _MILLER_RABIN:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b, psi in _MILLER_RABIN:
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True


def height(q) -> int:
    """Bit length of the larger of |numerator| and denominator of a rational."""
    return max(abs(q.numerator), q.denominator).bit_length()


def _rho(n: int) -> int:
    """A proper factor of an odd composite n (Pollard's rho, Floyd's cycle search)."""
    for c in range(1, n):
        x = y = 2
        d = 1
        while d == 1:
            x, y = (x * x + c) % n, (pow(y * y + c, 2, n) + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 2, ascending.

    Trial division by q < 1000 first; a part m > 1 of the cofactor is then
    prime when q^2 > m or `is_prime` accepts it, else Pollard's rho splits it.
    """
    out, q = set(), 2
    while q * q <= n and q < 1000:
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
        q += 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if q * q > m or is_prime(m):
            out.add(m)
        else:
            d = _rho(m)
            parts += [d, m // d]
    return sorted(out)


def _sylow(l: int, p: int) -> tuple[int, int, int]:
    """(z, s, q) with p - 1 = l^s q, l prime not dividing q, and z a generator
    of the l-Sylow subgroup of F_p^* (q-th power of a non-l-th power)."""
    q, s = p - 1, 0
    while q % l == 0:
        q, s = q // l, s + 1
    n = next(n for n in range(2, p) if pow(n, (p - 1) // l, p) != 1)
    return pow(n, q, p), s, q


def _prime_root(t: int, l: int, p: int, sylow: tuple[int, int, int]) -> int:
    """An l-th root of an l-th power t in F_p^*, l a prime dividing p - 1,
    sylow = _sylow(l, p).

    r = t^(1/l mod q) misses by e = r^l / t, an l-th power in the l-Sylow
    subgroup; its discrete log E base z is read digit by digit (Pohlig-Hellman,
    each digit one of l values) and r / z^(E/l) is exact (Adleman-Manders-Miller).
    """
    z, s, q = sylow
    r = pow(t, pow(l, -1, q), p)
    e = pow(r, l, p) * pow(t, -1, p) % p
    gamma, E = pow(z, l ** (s - 1), p), 0
    for j in range(1, s):  # digit 0 of E is 0: e is an l-th power
        h = pow(e * pow(z, -E, p), l ** (s - 1 - j), p)
        E += next(c for c in range(l) if pow(gamma, c, p) == h) * l**j
    return r * pow(z, -(E // l), p) % p


def fp_roots(t: int, k: int, p: int) -> list[int]:
    """All r in F_p^* with r^k = t for a unit residue t, ascending (empty if none).

    With d = gcd(k, p - 1) the roots are one coset of the d-th roots of unity,
    nonempty iff t^((p-1)/d) = 1.  A d-th root s of t is taken one prime of d
    at a time (each step stays solvable because d | p - 1); then r = s^u with
    u*(k/d) = 1 mod (p-1)/d.  No scan of F_p^*: past the search for one
    non-l-th power per prime l | d, the cost is polynomial in d and log p.
    """
    d = gcd(k, p - 1)
    if pow(t, (p - 1) // d, p) != 1:
        return []
    s, zeta, rest = t, 1, d
    for l in prime_factors(d):
        sylow = _sylow(l, p)
        e = 0
        while rest % l == 0:
            rest, e = rest // l, e + 1
            s = _prime_root(s, l, p, sylow)
        zeta = zeta * pow(sylow[0], l ** (sylow[1] - e), p) % p
    r = pow(s, pow(k // d, -1, (p - 1) // d), p)
    return sorted(r * pow(zeta, j, p) % p for j in range(d))


class RationalField:
    """The field of rationals; a single shared instance is exported as QQ."""

    def coerce(self, v) -> Fraction:
        if isinstance(v, FpElem):
            raise FieldMismatch("cannot coerce a prime-field element into the rationals")
        return Fraction(v)

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class PrimeField:
    """Arithmetic context for integers modulo a prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def coerce(self, v) -> "FpElem":
        if isinstance(v, FpElem):
            if v.p != self.p:
                raise FieldMismatch(f"element of F_{v.p} used in F_{self.p}")
            return v
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise FieldMismatch(f"denominator {v.denominator} vanishes mod {self.p}")
            return FpElem(v.numerator, self.p) / FpElem(v.denominator, self.p)
        return FpElem(int(v), self.p)

    @property
    def zero(self) -> "FpElem":
        return FpElem(0, self.p)

    @property
    def one(self) -> "FpElem":
        return FpElem(1, self.p)

    def primitive_root(self) -> "FpElem":
        """Smallest generator of the multiplicative group."""
        m = self.p - 1
        for g in range(2, self.p):
            if all(pow(g, m // q, self.p) != 1 for q in prime_factors(m)):
                return FpElem(g, self.p)
        return self.one  # p = 2: the group is trivial

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"F_{self.p}"


class FpElem:
    """An element of F_p.  Mixed arithmetic with ints reduces them mod p."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other) -> "FpElem":
        if isinstance(other, FpElem):
            if other.p != self.p:
                raise FieldMismatch(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElem(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElem(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElem(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElem(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return FpElem(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return FpElem(-self.value, self.p)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return FpElem(pow(self.value, n, self.p), self.p)

    def inverse(self) -> "FpElem":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return FpElem(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other) -> bool:
        if isinstance(other, FpElem):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Fp", self.p, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return str(self.value)


def _terms_string(field, terms: list) -> str:
    """Text of a sum of (coefficient, monomial) terms in the given order,
    e.g. '1 - t^6': the monomial '1' prints as its coefficient, a unit
    coefficient is left out, and a negative rational or int one turns the
    sign before its term.  Rational coefficients pass check_digits before
    any is written in decimal."""
    rational = field == QQ
    check_digits((c for c, _ in terms) if rational else (), "a coefficient of the polynomial")
    parts: list[str] = []
    for c, mono in terms:
        neg = rational and c < 0
        mag = -c if neg else c
        body = str(mag) if mono == "1" else mono if mag == field.one else f"{mag}*{mono}"
        sign = ("- " if neg else "+ ") if parts else ("-" if neg else "")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def upoly_string(coeffs: list) -> str:
    """Human form of a rational or int coefficient list, constant first, in
    ascending powers of t, e.g. [1, 0, -2] -> '1 - 2*t^2'."""
    return _terms_string(QQ, [(c, "1" if i == 0 else "t" if i == 1 else f"t^{i}") for i, c in enumerate(coeffs) if c])


def distinct_root_count(coeffs: list, field, spent: list[int] | None = None) -> int:
    """Number of distinct roots in the algebraic closure of the polynomial with these field
    coefficients (constant first, no trailing zeros), counted on int lists (rational ones with
    their denominators cleared, F_p ones as residues).  The steps go to spent[0], a running
    total the calls of one request may share, checked against WORK_LIMIT as they go."""
    if not coeffs:
        raise ZeroPolynomial("root count of the zero polynomial")
    spent = [0] if spent is None else spent
    p = field.p if isinstance(field, PrimeField) else 0
    if p:
        ints = [c.value for c in coeffs]
    else:
        den = 1
        for c in coeffs:
            _spend(spent, 1, den.bit_length() + c.denominator.bit_length())
            den = lcm(den, c.denominator)
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
    return _distinct_roots(_normal(ints[::-1], p, spent), p, spent)


def _spend(spent: list[int], ops: int, bits: int) -> None:
    """Add ops operations on ints of up to `bits` bits to spent[0] and check it: 1 + w^2 // 256
    steps each for w = ceil(bits / 64) words, as CPython multiplies, divides and takes gcds of
    w-word ints in time quadratic in w (0.5 to 1 us a step on a 2-core VM, Python 3.11)."""
    w = -(-bits // 64)
    spent[0] += ops * (1 + w * w // 256)
    check_work(spent[0], "counting distinct roots")


def _normal(a: list[int], p: int, spent: list[int]) -> list[int]:
    """a (leading coefficient first) without leading zeros, and monic over
    F_p (p > 0) or divided by its content over the integers (p = 0)."""
    _spend(spent, 2 * len(a), max(map(abs, a), default=0).bit_length())
    if p:
        a = [x % p for x in a]
    a = a[next((i for i, x in enumerate(a) if x), len(a)) :]
    if not a:
        return a
    u = pow(a[0], -1, p) if p else gcd(*a)
    return [x * u % p for x in a] if p else [x // u for x in a]


def _divide(a: list[int], b: list[int], p: int, spent: list[int]) -> tuple[list[int], list[int]]:
    """Pseudo-division of a by b, leading coefficients first, b normal: (q, r)
    with k*a = q*b + c*r for nonzero scalars k, c and r normal of degree below
    b's.  Each row scales a by the least u that cancels its leading term
    against b; over F_p, where b is monic, u = 1, so k = 1 and q is the quotient."""
    n, lb, top = len(b), b[0], max(map(abs, b))
    q = []
    while len(a) >= n:
        _spend(spent, len(a), max(top, *map(abs, a)).bit_length())
        u, v = (1, a[0] % p) if p else (lb // (h := gcd(lb, a[0])), a[0] // h)
        q.append(v)
        a = [u * x - v * y for x, y in zip(a[1:], b[1:])] + [u * x for x in a[n:]]
    return q, _normal(a, p, spent)


def _gcd(a: list[int], b: list[int], p: int, spent: list[int]) -> list[int]:
    """gcd of two normal polynomials (a nonzero constant for coprime ones) by the primitive
    pseudo-remainder sequence: each remainder is normalised, so over the integers every
    entry stays an int no larger than the subresultants (Brown and Traub 1971)."""
    while len(b) > 1:
        a, b = b, _divide(a, b, p, spent)[1]
    return b or a


def _distinct_roots(g: list[int], p: int, spent: list[int]) -> int:
    """deg(g / gcd(g, g')) counts the roots whose multiplicity the
    characteristic does not divide.  Over F_p the others are the roots of
    gcd(g, g') with its common factors with g / gcd(g, g') stripped: a
    polynomial in t^p, whose p-th root (the same coefficients on t, as
    c^p = c in F_p) has the same distinct roots."""
    n = len(g) - 1
    c = _gcd(g, _normal([(n - i) * x for i, x in enumerate(g[:-1])], p, spent), p, spent)
    if not p or len(c) == 1:
        return n - len(c) + 1
    sqf = _divide(g, c, p, spent)[0]
    while len(s := _gcd(c, sqf, p, spent)) > 1:
        c = _divide(c, s, p, spent)[0]
    return len(sqf) - 1 + _distinct_roots(c[::p], p, spent)
