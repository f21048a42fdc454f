import random
from fractions import Fraction
from math import gcd

import pytest

from wps.errors import FieldMismatch, TooLarge, ZeroPolynomial
from wps.exactmath import (
    QQ,
    FpElem,
    PrimeField,
    distinct_root_count,
    fp_roots,
    is_prime,
    prime_factors,
    upoly_string,
)
from wps.hilbert import numerator_from_sequence
from wps.parser import parse_upolynomial

import rational_euclid

# === primality and factoring ===


def test_is_prime_small_table():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_trial_division():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q :: q] = bytearray(len(sieve[q * q :: q]))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael numbers
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,  # least strong
        341550071728321, 3825123056546413051, 318665857834031151167461,  # pseudoprimes to the first k primes
        1000000000039 * 1000003,
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large_primes_and_bound():
    for n in (2**31 - 1, 1000000000039, 2**61 - 1, 2**79 - 67):
        assert is_prime(n), n
    with pytest.raises(TooLarge, match="deterministic primality bound"):
        is_prime(3317044064679887385961981)
    with pytest.raises(TooLarge):
        PrimeField(1000000000000000000000000000057)  # a 31-digit prime


def test_fp_roots_match_scan():
    for p in [n for n in range(2, 60) if is_prime(n)]:
        for k in range(1, 14):
            for t in range(1, p):
                assert fp_roots(t, k, p) == [r for r in range(1, p) if pow(r, k, p) == t], (t, k, p)


def test_fp_roots_large_prime():
    p = 2**61 - 1  # p - 1 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 * 1321
    for k in (2, 9, 25, 12):
        roots = fp_roots(pow(123456789, k, p), k, p)
        assert len(roots) == gcd(k, p - 1) and all(pow(r, k, p) == pow(123456789, k, p) for r in roots)
        assert 123456789 in roots
    assert fp_roots(3, 2, p) == [] and pow(3, (p - 1) // 2, p) == p - 1


@pytest.mark.parametrize(
    "n, factors",
    [(2, [2]), (12, [2, 3]), (30, [2, 3, 5]), (49, [7]), (97, [97]), (360, [2, 3, 5])],
)
def test_prime_factors(n, factors):
    assert prime_factors(n) == factors


def _trial_division_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] * (n > 1)


def test_prime_factors_matches_trial_division():
    rng = random.Random(2024)
    for n in [rng.randint(2, 10**7) for _ in range(2000)] + [1009 * 1013, 1009**3 * 1013, 2**40, 3**30]:
        assert prime_factors(n) == _trial_division_factors(n), n


def test_prime_factors_splits_large_prime_products():
    # Pollard's rho splits what trial division could only reach after 10^9 steps
    assert prime_factors(2 * 998244353 * 1000000007) == [2, 998244353, 1000000007]
    assert prime_factors(1000003**2 * 999983) == [999983, 1000003]
    assert prime_factors(2305843009213693951) == [2305843009213693951]  # 2^61 - 1
    with pytest.raises(TooLarge):  # the cofactor is past is_prime's exact range
        prime_factors(2**89 - 1)


# === prime fields ===


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_fp_arithmetic_basics():
    F7 = PrimeField(7)
    a = FpElem(3, 7)
    b = FpElem(5, 7)
    assert a + b == 1
    assert a - b == 5
    assert a * b == 1
    assert a / b == FpElem(2, 7)
    assert -a == 4
    assert a ** 0 == F7.one
    assert a ** -1 == b, "3 * 5 = 15 = 1 mod 7"
    assert 2 + a == 5 and 2 * a == 6 and 1 - a == 5 and 1 / a == b


def test_fp_field_axioms_exhaustive():
    F11 = PrimeField(11)
    elems = [F11.coerce(v) for v in range(11)]
    for x in elems:
        assert x + F11.zero == x and x * F11.one == x
        if x != F11.zero:
            assert x * x.inverse() == F11.one
    for x in elems:
        for y in elems:
            assert x + y == y + x and x * y == y * x


def test_fp_mixed_modulus_rejected():
    with pytest.raises(FieldMismatch):
        FpElem(1, 5) + FpElem(1, 7)


def test_coerce_fraction_mod_p():
    F5 = PrimeField(5)
    assert F5.coerce(Fraction(1, 2)) == FpElem(3, 5)
    with pytest.raises(FieldMismatch):
        F5.coerce(Fraction(1, 5))
    with pytest.raises(FieldMismatch):
        QQ.coerce(FpElem(1, 5))


def test_primitive_root_generates():
    for p in (2, 3, 5, 7, 13):
        g = PrimeField(p).primitive_root()
        powers = {int((g ** k).value) for k in range(p - 1)}
        assert len(powers) == p - 1, f"{g} does not generate F_{p}^*"


# === univariate polynomials: coefficient lists, the t-printer and the reference Euclid ===


_upoly = rational_euclid.poly
_mul = rational_euclid.mul
_pow = rational_euclid.power


def _roots(f):
    """distinct_root_count of a (field, coefficients) pair."""
    return distinct_root_count(f[1], f[0])


def test_upoly_trims_and_degree():
    # a coefficient list keeps no trailing zeros; the zero polynomial is [] and has no root count
    assert parse_upolynomial("1 + 2*t^2 + t^5 - t^5") == [1, 0, 2]
    assert parse_upolynomial("t - t") == []
    assert numerator_from_sequence([1, 1, 1, 1], (1,), 2) == [1]  # (1 - t)(1 + t + t^2 + t^3) to degree 2
    with pytest.raises(ZeroPolynomial):
        distinct_root_count([], QQ)


def test_upoly_divmod_exact_and_remainder():
    f = _upoly(QQ, [-1, 0, 0, 0, 0, 0, 1])  # t^6 - 1
    g = _upoly(QQ, [-1, 1])
    q, r = rational_euclid.divide(f, g)
    assert r == (QQ, [])
    assert q == _upoly(QQ, [1, 1, 1, 1, 1, 1])
    q2, r2 = rational_euclid.divide(_upoly(QQ, [1, 0, 1]), _upoly(QQ, [1, 1]))
    assert rational_euclid.add(_mul(q2, _upoly(QQ, [1, 1])), r2) == _upoly(QQ, [1, 0, 1])
    with pytest.raises(ZeroPolynomial):
        rational_euclid.divide(f, (QQ, []))


def test_upoly_random_ring_identities():
    # the reference's division: f = q*g + r with deg r < deg g
    rng = random.Random(7)
    F13 = PrimeField(13)
    for _ in range(50):
        f, g = (_upoly(F13, [rng.randrange(13) for _ in range(rng.randrange(1, 6))]) for _ in range(2))
        if g[1]:
            q, r = rational_euclid.divide(f, g)
            assert rational_euclid.add(_mul(q, g), r) == f
            assert len(r[1]) < len(g[1])


def test_upoly_to_string():
    assert upoly_string([Fraction(1), 0, 0, 0, 0, 0, Fraction(-1)]) == "1 - t^6"
    assert upoly_string([0, 1]) == "t"
    assert upoly_string([1, -1, 0, 0, 1]) == "1 - t + t^4"
    assert upoly_string([]) == "0"
    assert upoly_string([Fraction(1, 2)]) == "1/2"


# === gcd and squarefree root counting ===


def test_gcd_monic_and_zero_cases():
    f = _upoly(QQ, [-1, 0, 1])  # (t-1)(t+1)
    g = _upoly(QQ, [-1, 1])
    assert rational_euclid.gcd(f, g) == _upoly(QQ, [-1, 1])
    assert rational_euclid.gcd(f, (QQ, [])) == rational_euclid.monic(f)
    assert rational_euclid.gcd((QQ, []), (QQ, [])) == (QQ, [])
    with pytest.raises(FieldMismatch):
        rational_euclid.gcd(f, _upoly(PrimeField(5), [1, 1]))


def test_gcd_detects_repeated_factor():
    f = _mul(_pow(_upoly(QQ, [1, 1]), 2), _upoly(QQ, [-2, 1]))
    assert rational_euclid.derivative(_upoly(QQ, [2, -3, 1])) == _upoly(QQ, [-3, 2])
    g = rational_euclid.gcd(f, rational_euclid.derivative(f))
    assert g == _upoly(QQ, [1, 1]), "the squared factor survives in gcd(f, f')"


@pytest.mark.parametrize(
    "coeffs, count, count_no_zero",
    [
        ((0, 0, 0, 1), 1, 0),  # t^3
        ((0, 1, 0, 0, 0, 0, 0, 1), 7, 6),  # t + t^7 over Q: 7 distinct roots
        ((1,), 0, 0),
        ((-1, 0, 0, 0, 0, 0, 1), 6, 6),  # t^6 - 1
    ],
)
def test_distinct_root_count(coeffs, count, count_no_zero):
    f = _upoly(QQ, coeffs)
    assert _roots(f) == count
    assert _roots(_without_root_at_zero(f)) == count_no_zero


def _without_root_at_zero(f):
    """f / t^k for the highest power t^k that divides f."""
    field, cs = f
    k = next(i for i, c in enumerate(cs) if c != field.zero)
    return field, cs[k:]


def test_distinct_root_count_random_products():
    rng = random.Random(11)
    for _ in range(25):
        roots = rng.sample(range(-8, 9), rng.randrange(1, 6))
        f = _upoly(QQ, [1])
        for r in roots:
            mult = rng.randrange(1, 3)
            f = _mul(f, _pow(_upoly(QQ, [-r, 1]), mult))
        assert _roots(f) == len(roots)
        expect = len([r for r in roots if r != 0])
        assert _roots(_without_root_at_zero(f)) == expect


def test_distinct_root_count_sees_p_fold_roots():
    # over F_3, (t-1)^3 (t-2): gcd(g, g') = (t-1)^3 hides the root 1
    f3 = PrimeField(3)
    assert _roots(_mul(_pow(_upoly(f3, [-1, 1]), 3), _upoly(f3, [-2, 1]))) == 2
    assert _roots(_mul(_pow(_upoly(f3, [0, 1]), 9), _pow(_upoly(f3, [1, 0, 1]), 3))) == 3  # t^9 (t^2+1)^3
    assert _roots(_pow(_upoly(f3, [1, 0, 1]), 3)) == 2


def test_distinct_root_count_over_fp_random_multiplicities():
    # distinct linear factors and one irreducible quadratic t^2 - n, n a non-residue
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        field = PrimeField(p)
        roots = rng.sample(range(p), rng.randrange(1, min(p, 4) + 1))
        f = _upoly(field, [rng.randrange(1, p)])
        for r in roots:
            f = _mul(f, _pow(_upoly(field, [-r, 1]), rng.randrange(1, 2 * p + 1)))
        non_residues = sorted(set(range(1, p)) - {v * v % p for v in range(1, p)})
        quadratic = bool(non_residues) and rng.random() < 0.5
        if quadratic:
            f = _mul(f, _pow(_upoly(field, [-rng.choice(non_residues), 0, 1]), rng.randrange(1, 2 * p + 1)))
        assert _roots(f) == len(roots) + 2 * quadratic, (p, f[1])


def test_distinct_root_count_unchanged_below_p():
    # every multiplicity below p: deg(g / gcd(g, g')) was already exact
    rng = random.Random(17)
    for _ in range(200):
        p = rng.choice([3, 5, 7, 11, 13])
        field = PrimeField(p)
        f = _upoly(field, [rng.randrange(1, p)])
        for r in rng.sample(range(p), rng.randrange(0, 4)):
            f = _mul(f, _pow(_upoly(field, [-r, 1]), rng.randrange(1, p)))
        non_residues = sorted(set(range(1, p)) - {v * v % p for v in range(1, p)})
        f = _mul(f, _pow(_upoly(field, [-rng.choice(non_residues), 0, 1]), rng.randrange(0, p)))
        sqf = rational_euclid.divide(f, rational_euclid.gcd(f, rational_euclid.derivative(f)))[0]
        assert _roots(f) == rational_euclid.degree(sqf), (p, f[1])


# === the int kernel against the rational Euclid and known counts ===


def _random_edge(rng, field, p):
    """A random polynomial shaped like an edge restriction: a product of
    random factors, some repeated (p-fold too over F_p), times t^k now and then."""
    coeff = (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))) if field == QQ else (lambda: rng.randrange(p))
    f = _upoly(field, [1])
    for _ in range(rng.randint(1, 3)):
        factor = _upoly(field, [coeff() for _ in range(rng.randint(1, 3))] + [coeff() or 1])
        f = _mul(f, _pow(factor, rng.choice([1, 1, 2, 3, p if 0 < p < 10 else 2])))
    return _mul(f, _pow(_upoly(field, [0, 1]), rng.choice([0, 0, 1, 3])))


@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 101])
def test_kernel_matches_rational_euclid(p):
    rng = random.Random(1971 + p)
    field = PrimeField(p) if p else QQ
    checked = repeated = 0
    while checked < 500:
        f = _random_edge(rng, field, p)
        if not f[1]:
            continue
        checked += 1
        count = _roots(f)
        assert count == rational_euclid.distinct_roots(f), (p, f[1])
        repeated += count < rational_euclid.degree(f)
    assert repeated >= 100, repeated


def test_kernel_counts_products_of_linear_factors():
    # degree >= 40: distinct rational roots r/s with chosen multiplicities, times a rational scalar
    rng = random.Random(40)
    for _ in range(40):
        roots = rng.sample(sorted({Fraction(r, s) for r in range(-30, 31) for s in (1, 2, 3, 7)}), rng.randint(1, 12))
        mults = [rng.randint(1, 6) for _ in roots]
        while sum(mults) < 40:
            mults[rng.randrange(len(mults))] += rng.randint(1, 5)
        f = _upoly(QQ, [Fraction(rng.randint(1, 99) * rng.choice([-1, 1]), rng.randint(1, 99))])
        for r, m in zip(roots, mults):
            f = _mul(f, _pow(_upoly(QQ, [-r.numerator, r.denominator]), m))
        assert rational_euclid.degree(f) == sum(mults) >= 40
        assert _roots(f) == len(roots), (roots, mults)


@pytest.mark.parametrize("p", [0, 3, 7])
def test_kernel_counts_the_root_at_zero_once(p):
    # t^k h(t), h(0) != 0: one root more than h, whatever k; the census subtracts it
    rng = random.Random(p)
    field = PrimeField(p) if p else QQ
    for _ in range(100):
        h = _random_edge(rng, field, p)
        if not h[1] or h[1][0] == field.zero:
            continue
        k = rng.randint(1, 12)
        assert _roots(_mul(_upoly(field, [0] * k + [1]), h)) == _roots(h) + 1
