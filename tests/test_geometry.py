import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wps.errors import Mismatch, NotAConePoint, NotOnPatch, PrimeUnsuitable, TooLarge, Unsupported
from wps.exactmath import FpElem, PrimeField, QQ
from wps.geometry import (
    WPoint,
    _geometric_keys,
    _group_elements,
    _int_root,
    _orbit_stabilizer,
    cover_project,
    eq_geometric,
    eq_rational,
    normalize,
    patch_equivalent,
    patch_representative,
)
from wps.oracle import ClosureEquality

from support_blocks import keyed

F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)


def qpt(weight, *coords):
    return WPoint(weight, [Fraction(c) for c in coords])


# === point construction ===


def test_point_basics():
    p = qpt((1, 1, 2), 3, 0, 18)
    assert repr(p) == "|3:0:18|"
    assert p._support == (0, 2)
    with pytest.raises(NotAConePoint):
        qpt((1, 1), 0, 0)
    with pytest.raises(ValueError):
        WPoint((1, 1, 2), [1, 2])


def test_pair_guards():
    with pytest.raises(Mismatch, match="weights differ"):
        eq_geometric(qpt((1, 1), 1, 1), qpt((1, 2), 1, 1))
    with pytest.raises(Mismatch, match="fields differ"):
        eq_rational(qpt((1, 1), 1, 1), WPoint((1, 1), [1, 1], F5))


# === equality over the rationals ===


def test_eq_weighted_scaling_example():
    p = qpt((1, 1, 2), 1, 0, 2)
    q = qpt((1, 1, 2), 3, 0, 18)
    assert eq_geometric(p, q)
    assert eq_rational(p, q)
    r = qpt((1, 1, 2), 1, 0, 3)
    assert not eq_geometric(p, r)
    assert not eq_rational(p, r)


def test_eq_rational_randomized_scalings():
    rng = random.Random(31)
    for _ in range(60):
        a = tuple(rng.choice([(1, 1, 2), (1, 2, 3), (1, 1)]))
        coords = [Fraction(rng.randrange(-4, 5)) for _ in a]
        coords[0] = Fraction(rng.randrange(1, 5))
        lam = Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        p = WPoint(a, coords)
        q = WPoint(a, [lam ** a[i] * c for i, c in enumerate(coords)])
        assert eq_geometric(p, q), (p, q)
        assert eq_rational(p, q), (p, q)


def test_eq_over_q_needs_no_weight_one_coordinate():
    # no weight-1 coordinate is needed: lambda = 2 scales |1:1| to |4:8|
    p = WPoint((2, 3), [Fraction(1), Fraction(1)])
    q = WPoint((2, 3), [Fraction(4), Fraction(8)])
    assert eq_geometric(p, q)
    assert eq_rational(p, q)
    # lambda^2 = 2 and lambda^4 = 4: lambda = sqrt(2) is not rational
    p = WPoint((2, 4), [Fraction(1), Fraction(1)])
    q = WPoint((2, 4), [Fraction(2), Fraction(4)])
    assert eq_geometric(p, q)
    assert not eq_rational(p, q)


def test_eq_over_q_non_coprime_weights():
    cases = [
        ((2, 4), [1, 1], [Fraction(9, 4), Fraction(81, 16)], True, True),  # lambda = 3/2
        ((2, 4), [1, 1], [-1, 1], True, False),  # lambda = i
        ((2, 4), [1, 1], [2, -4], False, False),  # lambda^2 = 2 forces lambda^4 = 4
        ((3, 6), [1, 1], [-8, 64], True, True),  # lambda = -2
        ((3, 6), [1, 1], [2, 4], True, False),  # lambda = 2^(1/3)
        ((6, 4), [1, 1], [64, 16], True, True),  # lambda = +-2
        ((6, 4), [1, 1], [-64, 16], True, False),  # lambda^2 = -4
        ((2, 3), [1, 1], [4, -8], True, True),  # lambda = -2
    ]
    for a, x, y, geometric, rational in cases:
        p = WPoint(a, [Fraction(c) for c in x])
        q = WPoint(a, [Fraction(c) for c in y])
        assert eq_geometric(p, q) == eq_geometric(q, p) == geometric, (a, x, y)
        assert eq_rational(p, q) == eq_rational(q, p) == rational, (a, x, y)


# === equality over finite fields: geometric vs scaling ===


def test_fp_cone_point_split():
    # z-axis of P(1,1,2) over F_5: equal in the closure, no scalar in F_5
    p = WPoint((1, 1, 2), [0, 0, 1], F5)
    q = WPoint((1, 1, 2), [0, 0, 2], F5)
    assert eq_geometric(p, q)
    assert not eq_rational(p, q)
    r = WPoint((1, 1, 2), [0, 0, 4], F5)
    assert eq_geometric(p, r)
    assert eq_rational(p, r)


def test_fp_scaling_matches_direct_search():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.choice([(1, 1, 2), (1, 2, 3)])
        p_mod = rng.choice([5, 7, 13])
        field = PrimeField(p_mod)
        coords = [rng.randrange(p_mod) for _ in a]
        if not any(coords):
            coords[0] = 1
        x = WPoint(a, coords, field)
        lam = FpElem(rng.randrange(1, p_mod), p_mod)
        y = WPoint(a, [lam ** a[i] * c for i, c in enumerate(x.coords)], field)
        assert eq_rational(x, y)
        assert eq_geometric(x, y)


# === normal forms ===


def test_normalize_rational():
    p, canonical = normalize(qpt((1, 1, 2), 3, 0, 18))
    assert canonical
    assert p == qpt((1, 1, 2), 1, 0, 2)
    q, canonical = normalize(WPoint((2, 3), [Fraction(2), Fraction(5)]))
    assert not canonical
    assert q == WPoint((2, 3), [Fraction(2), Fraction(5)])


def test_normalize_fp_is_orbit_minimum():
    x = WPoint((1, 1), [2, 4], F5)
    rep, canonical = normalize(x)
    assert canonical
    assert rep == WPoint((1, 1), [1, 2], F5)
    y = WPoint((1, 1, 2), [0, 0, 2], F5)
    rep, _ = normalize(y)
    assert rep == WPoint((1, 1, 2), [0, 0, 2], F5), "2 and 3 are the non-squares"
    z = WPoint((1, 1, 2), [0, 0, 4], F5)
    rep, _ = normalize(z)
    assert rep == WPoint((1, 1, 2), [0, 0, 1], F5)


def test_normalize_idempotent_and_orbit_invariant():
    rng = random.Random(11)
    for _ in range(60):
        a = rng.choice([(1, 1, 2), (1, 2, 3)])
        field = PrimeField(rng.choice([5, 7]))
        coords = [rng.randrange(field.p) for _ in a]
        if not any(coords):
            coords[1] = 1
        x = WPoint(a, coords, field)
        rep, _ = normalize(x)
        again, _ = normalize(rep)
        assert again == rep
        lam = FpElem(rng.randrange(1, field.p), field.p)
        moved = WPoint(a, [lam ** a[i] * c for i, c in enumerate(x.coords)], field)
        rep2, _ = normalize(moved)
        assert rep2 == rep


# === the straight cover and the quotient group ===


def test_cover_project():
    y = WPoint((1, 1, 1), [2, 1, 3], F7)
    x = cover_project(y, (1, 2, 3))
    assert x == WPoint((1, 2, 3), [2, 1, 6], F7)
    with pytest.raises(Mismatch, match="weight"):
        cover_project(x, (1, 2, 3))


def _orbit(y, a, p):
    """The sorted orbit of the straight point y and its stabilizer order, y
    scaled to first nonzero coordinate 1 for the one-point block."""
    support = tuple(i for i, v in enumerate(y.values) if v)
    inv = pow(y.values[support[0]], -1, p)
    orbits, stab = _orbit_stabilizer(_group_elements(a, p), support, [tuple(v * inv % p for v in y.values)], p)
    return sorted(next(orbits)), stab


def test_stabilizer_orbit_frozen():
    a = (1, 2, 3)
    orbit, stab = _orbit(WPoint((1, 1, 1), [1, 1, 1], F7), a, 7)
    assert (len(orbit), stab) == (6, 1)
    orbit, stab = _orbit(WPoint((1, 1, 1), [1, 0, 1], F7), a, 7)
    assert (len(orbit), stab) == (3, 2)
    orbit, stab = _orbit(WPoint((1, 1, 1), [0, 1, 0], F7), a, 7)
    assert (orbit, stab) == ([(0, 1, 0)], 6)


def test_orbit_stabilizer_product():
    rng = random.Random(3)
    group_order = 1 * 2 * 3
    for _ in range(30):
        coords = [rng.randrange(7) for _ in range(3)]
        if not any(coords):
            coords[2] = 1
        orbit, stab = _orbit(WPoint((1, 1, 1), coords, F7), (1, 2, 3), 7)
        assert stab * len(orbit) == group_order


def test_group_needs_suitable_prime():
    with pytest.raises(PrimeUnsuitable, match="not 1 mod 3"):
        _group_elements((1, 2, 3), 5)


# === the int-residue F_p paths against FpElem reference copies ===


def _ref_normalize(x):
    a = x.weight
    best = min(
        tuple((lam ** a[i] * c).value for i, c in enumerate(x.coords))
        for lam in map(x.field.coerce, range(1, x.field.p))
    )
    return WPoint(a, best, x.field)


def _ref_eq_rational(x, y):
    a = x.weight
    return any(
        all(lam ** a[i] * x.coords[i] == y.coords[i] for i in range(len(a)))
        for lam in map(x.field.coerce, range(1, x.field.p))
    )


def _ref_group(a, p):
    field = PrimeField(p)
    roots = [[u for u in map(field.coerce, range(1, p)) if u**ai == field.one] for ai in a]
    return list(product(*roots))


def _ref_orbit(y, a, p):
    seen = set()
    for g in _ref_group(a, p):
        moved = WPoint(y.weight, tuple(s * c for s, c in zip(g, y.coords)), y.field)
        seen.add(_ref_normalize(moved).coords)
    ordered = sorted(seen, key=lambda cs: tuple(c.value for c in cs))
    return [WPoint(y.weight, cs, y.field) for cs in ordered]


def _ref_stabilizer(y, a, p):
    supp = [i for i, c in enumerate(y.coords) if c != y.field.zero]
    return sum(len({g[i].value for i in supp}) == 1 for g in _ref_group(a, p))


def _random_point(rng, a, field):
    coords = [rng.randrange(field.p) for _ in a]
    if not any(coords):
        coords[rng.randrange(len(a))] = 1
    return WPoint(a, coords, field)


# p = 2 and weights sharing a factor with p - 1 are included on purpose
FP_CASES = [((1, 1), 2), ((3, 5, 2), 2), ((2, 4), 5), ((2, 2, 3), 7), ((3, 6, 4), 13), ((1, 2, 3), 7)]


def test_fp_normalize_and_eq_rational_match_reference():
    rng = random.Random(20161104)
    drawn = [
        (tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 4))), rng.choice([2, 3, 5, 7, 11, 13]))
        for _ in range(24)
    ]
    for a, p in FP_CASES + drawn:
        field = PrimeField(p)
        for _ in range(12):
            x = _random_point(rng, a, field)
            rep, canonical = normalize(x)
            assert canonical and rep == _ref_normalize(x), (a, p, x)
            lam = FpElem(rng.randrange(1, p), p)
            scaled = WPoint(a, [lam ** ai * c for ai, c in zip(a, x.coords)], field)
            for y in (scaled, _random_point(rng, a, field)):
                assert eq_rational(x, y) == _ref_eq_rational(x, y), (a, p, x, y)


def test_fp_orbit_and_stabilizer_match_reference():
    rng = random.Random(20161105)
    for p in (2, 5, 7, 13):
        divisors = [k for k in range(1, p) if (p - 1) % k == 0]
        field = PrimeField(p)
        for _ in range(6):
            a = tuple(rng.choice(divisors) for _ in range(rng.randint(2, 3)))
            y = _random_point(rng, (1,) * len(a), field)
            orbit, stab = _orbit(y, a, p)
            assert orbit == [x.values for x in _ref_orbit(y, a, p)], (a, p, y)
            assert stab == _ref_stabilizer(y, a, p), (a, p, y)


@st.composite
def _fp_pairs(draw):
    a = tuple(draw(st.lists(st.integers(1, 8), min_size=2, max_size=4)))
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    x = draw(st.lists(st.integers(0, p - 1), min_size=len(a), max_size=len(a)).filter(any))
    how = draw(st.sampled_from(["scaled", "same support", "random"]))
    if how == "scaled":
        lam = draw(st.integers(1, p - 1))
        y = [pow(lam, ai, p) * c % p for ai, c in zip(a, x)]
    elif how == "same support":
        y = [draw(st.integers(1, p - 1)) if c else 0 for c in x]
    else:
        y = draw(st.lists(st.integers(0, p - 1), min_size=len(a), max_size=len(a)).filter(any))
    return a, p, x, y


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_fp_pairs())
def test_fp_equality_matches_closure_keys_and_unit_scan(case):
    a, p, x, y = case
    field = PrimeField(p)
    px, py = WPoint(a, x, field), WPoint(a, y, field)
    kx, ky = keyed(ClosureEquality(a, p).keys, [x, y])
    assert eq_geometric(px, py) == (kx == ky)
    assert eq_rational(px, py) == _ref_eq_rational(px, py)


# non-coprime weights and p | a_i on purpose, then seeded draws
KEY_CASES = [((2, 4), 5), ((2, 2, 3), 7), ((3, 6, 4), 13), ((4, 6), 7), ((1, 2, 2), 5), ((2, 3, 4), 2),
             ((3, 6), 3), ((5, 5, 2), 5), ((6, 4, 8, 2), 3), ((7, 7), 7)]
_rng = random.Random(20161108)
while len(KEY_CASES) < 32:
    _a = tuple(_rng.randint(1, 8) for _ in range(_rng.randint(2, 4)))
    _p = _rng.choice([2, 3, 5, 7, 11, 13])
    if _p ** len(_a) <= 3000:
        KEY_CASES.append((_a, _p))


@pytest.mark.parametrize("a, p", KEY_CASES)
def test_geometric_key_classes_are_closure_classes(a, p):
    # the key eq_geometric compares and the closure key split the nonzero
    # vectors into the same classes, so they agree on every pair
    closure = ClosureEquality(a, p).keys

    def geometric(support, block):
        return _geometric_keys(a, support, block, p)

    vectors = [v for v in product(range(p), repeat=len(a)) if any(v)]
    classes = {}
    for g, c in zip(keyed(geometric, vectors), keyed(closure, vectors)):
        classes.setdefault(g, set()).add(c)
    assert all(len(c) == 1 for c in classes.values())
    assert len(set().union(*classes.values())) == len(classes)
    rng = random.Random(hash((a, p)))
    field = PrimeField(p)
    sample = [_random_point(rng, a, field) for _ in range(12)]
    for x in sample[:]:
        for lam in (p - 1, (p + 1) // 2):
            sample.append(WPoint(a, [pow(lam, ai, p) * c for ai, c in zip(a, x.values)], field))
    geo, clo = (keyed(f, [x.values for x in sample]) for f in (geometric, closure))
    for i, x in enumerate(sample):
        for j, y in enumerate(sample):
            assert (geo[i] == geo[j]) == eq_geometric(x, y) == (clo[i] == clo[j]), (x, y)


# === affine patches ===


def test_patch_representative_rational():
    x = qpt((1, 1, 2), 3, 6, 18)
    assert patch_representative(x, 0) == [Fraction(2), Fraction(2)]
    with pytest.raises(Unsupported, match="1/x_2 = 1/18 has no 2-th root in QQ"):
        patch_representative(x, 2)
    # 1/4 = (1/2)^2: the positive rational root; an odd weight keeps the sign
    assert patch_representative(qpt((1, 1, 2), 1, 1, 4), 2) == [Fraction(1, 2), Fraction(1, 2)]
    assert patch_representative(qpt((1, 3), 2, -27), 1) == [Fraction(-2, 3)]
    with pytest.raises(Unsupported, match="1/x_1 = -1/4 has no 2-th root in QQ"):
        patch_representative(qpt((1, 2), 1, -4), 1)
    with pytest.raises(NotOnPatch, match="coordinate 1 vanishes; point is not on patch 1"):
        patch_representative(qpt((1, 1, 2), 1, 0, 2), 1)
    with pytest.raises(ValueError, match="out of range"):
        patch_representative(x, 3)


def test_patch_representative_fp():
    x = WPoint((1, 1, 2), [1, 2, 3], F13)
    assert [c.value for c in patch_representative(x, 2)] == [3, 6]
    y = WPoint((1, 1, 2), [0, 0, 3], F5)
    with pytest.raises(Unsupported, match="has no 2-th root in F_5"):
        patch_representative(y, 2)


def test_patch_representative_lands_on_patch():
    rng = random.Random(23)
    for _ in range(40):
        a = (1, 1, 2)
        coords = [rng.randrange(13) for _ in a]
        i = rng.randrange(3)
        coords[i] = rng.randrange(1, 13)
        x = WPoint(a, coords, F13)
        try:
            u = patch_representative(x, i)
        except Unsupported:
            continue
        rebuilt = list(u)
        rebuilt.insert(i, F13.one)
        assert eq_geometric(x, WPoint(a, rebuilt, F13))


def test_patch_equivalent():
    # patch 2 of P(1,1,2): mu^2 acts on the two weight-1 slots
    assert patch_equivalent([10, 7], [3, 6], (1, 1, 2), 2, 13)
    assert not patch_equivalent([5, 5], [3, 6], (1, 1, 2), 2, 13)
    assert patch_equivalent([3, 6], [3, 6], (1, 1, 2), 2, 13)
    with pytest.raises(ValueError, match="need 2 coordinates"):
        patch_equivalent([1], [2, 3], (1, 1, 2), 2, 13)


# === work budget ===


def test_scaling_over_q_counts_the_bits_of_its_powers():
    # the fold raises a ~30-bit ratio to the 232729th power: refused at once
    with pytest.raises(TooLarge, match="scaling test over Q for weights \\(32244, 40, 232729\\) exceeds the work limit"):
        eq_geometric(qpt((32244, 40, 232729), 32244, 40, 32244), qpt((32244, 40, 232729), 32244, 32244, 232729))
    big = (10**12 - 1, 10**12 - 1)
    assert eq_rational(qpt(big, 10**12 - 1, 7230), qpt(big, 10**12 - 1, 7230))


def test_int_root_of_a_huge_index():
    # 2^k > n: only 1 is a k-th power, and no 2^(k-1) is formed
    assert _int_root(1, 10**12) == 1
    assert _int_root(10**12, 10**12) is None
    assert _int_root(2**40, 40) == 2 and _int_root(3**40, 40) == 3


def test_group_action_counts_its_group():
    y = WPoint((1, 1, 1), [1, 2, 3], PrimeField(1801))
    assert _orbit(y, (6, 6, 6), 1801)[1] == 6
