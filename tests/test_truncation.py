import random
from collections import Counter
from itertools import product
from math import factorial, gcd, lcm, prod

import pytest

from wps.errors import WORK_LIMIT, BadCase, Mismatch, NotHomogeneous, TooLarge
from wps.oracle import verify_veronese
from wps.parser import parse_polynomial
from wps.truncation import (
    GradedPresentation,
    TAG_POWER_RAISED,
    TAG_REEXPRESSED,
    TAG_UNCHANGED,
    graded_piece_basis,
    regrade,
    regraded_degrees,
    straighten_chain,
    transform_principal_ideal,
    veronese_generators,
)
from wps.wpoly import monomial_degree, monomial_key, power_steps

# === graded pieces ===


def test_graded_piece_basis_frozen():
    assert graded_piece_basis((1, 1, 2), 2) == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert graded_piece_basis((1, 1), 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert graded_piece_basis((2, 3), 1) == []
    assert graded_piece_basis((1, 1), 0) == [(0, 0)]
    for d in (0, 3):
        with pytest.raises(ValueError, match="weight needs 1 or more entries"):
            graded_piece_basis((), d)


def test_graded_piece_basis_counts():
    # dim R_d for straight P^1 is d + 1
    for d in range(12):
        assert len(graded_piece_basis((1, 1), d)) == d + 1
    with pytest.raises(ValueError):
        graded_piece_basis((1, 1), -1)


@pytest.mark.parametrize("a", [(1, 0), (-1, 2), (0,), (3, -2, 1)])
def test_graded_piece_basis_refuses_weights_below_one(a):
    with pytest.raises(ValueError, match="weight entries must be positive"):
        graded_piece_basis(a, 2)


def test_graded_piece_basis_degrees_randomized():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(2, 5)
        a = tuple(rng.randrange(1, 7) for _ in range(n))
        d = rng.randrange(0, 15)
        basis = graded_piece_basis(a, d)
        assert len(set(basis)) == len(basis)
        for e in basis:
            assert monomial_degree(e, a) == d


def test_graded_piece_basis_is_complete_and_colex_randomized():
    # the colex scan against a sort of the whole box, over 1 to 4 variables, weights with 1s, d = 0
    rng = random.Random(1308)
    shapes = Counter()
    for _ in range(300):
        n = rng.randrange(1, 5)
        a = tuple(rng.choice((1, 1, 2, 3, 4, 5, 7)) for _ in range(n))
        d = rng.choice((0, rng.randrange(1, 19)))
        box = product(*(range(d // w + 1) for w in a))
        assert graded_piece_basis(a, d) == sorted((e for e in box if monomial_degree(e, a) == d), key=monomial_key), (a, d)
        shapes[n == 1, d == 0, 1 in a] += 1
    assert len(shapes) == 8, shapes


# === truncation generators ===


def test_veronese_generators_straight_square():
    gens = veronese_generators((1, 1), 2)
    assert gens == [(2, 0), (1, 1), (0, 2)]
    assert regraded_degrees(gens, (1, 1), 2) == [1, 1, 1]


def test_veronese_generators_step_one_is_identity():
    assert veronese_generators((1, 2, 3), 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_veronese_generators_even_part():
    gens = veronese_generators((1, 1, 2), 2)
    assert gens == [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]
    assert regraded_degrees(gens, (1, 1, 2), 2) == [1, 1, 1, 1]


def test_veronese_generators_uncommon_weight():
    gens = veronese_generators((6, 10, 15), 5)
    assert gens == [(0, 1, 0), (0, 0, 1), (5, 0, 0)]
    assert regraded_degrees(gens, (6, 10, 15), 5) == [2, 3, 6]


def test_veronese_generators_are_minimal():
    gens = veronese_generators((1, 2, 3), 6)
    for i, g in enumerate(gens):
        for j, h in enumerate(gens):
            if i == j:
                continue
            assert not all(hi <= gi for hi, gi in zip(h, g)), (h, "divides", g)


def test_veronese_bound_guards():
    assert verify_veronese((1, 1), 2)["cap"] == 4  # default cap d * lcm(a) * n
    with pytest.raises(ValueError):
        veronese_generators((1, 1), 0)


def _degree_scan(a, d):
    """The degree-by-degree search up to d*lcm(a)*n: every monomial of
    degree divisible by d, kept when no earlier kept monomial divides it."""
    gens = []
    for delta in range(d, d * lcm(*a) * len(a) + 1, d):
        for m in graded_piece_basis(a, delta):
            if not any(all(x <= y for x, y in zip(g, m)) for g in gens):
                gens.append(m)
    return gens


def test_veronese_generators_match_degree_scan_randomized():
    rng = random.Random(2016)
    for n in (2, 3, 4):
        checked = 0
        while checked < 40:
            a = tuple(rng.randrange(1, 10) for _ in range(n))
            d = rng.randrange(1, 8)
            # about the number of vectors the scan visits; keeps it small
            if (d * lcm(*a) * n) ** (n + 1) / (factorial(n + 1) * prod(a) * d) > 2e4:
                continue
            assert veronese_generators(a, d) == _degree_scan(a, d), (a, d)
            checked += 1


def test_veronese_generators_pure_power_or_in_box():
    rng = random.Random(7)
    for _ in range(100):
        a = tuple(rng.randrange(1, 10) for _ in range(rng.randrange(2, 5)))
        d = rng.randrange(1, 8)
        n = len(a)
        di = [d // gcd(x, d) for x in a]
        powers = {tuple(di[i] if k == i else 0 for k in range(n)) for i in range(n)}
        for g in veronese_generators(a, d):
            assert monomial_degree(g, a) % d == 0
            assert g in powers or all(e < m for e, m in zip(g, di)), (a, d, g)


def test_veronese_generators_past_the_old_scan():
    assert veronese_generators((2, 3, 5), 7) == [
        (2, 1, 0), (1, 0, 1), (7, 0, 0), (1, 4, 0), (0, 3, 1),
        (0, 7, 0), (0, 2, 3), (0, 1, 5), (0, 0, 7),
    ]
    assert veronese_generators((7, 11, 13), 17) == [
        (3, 0, 1), (1, 4, 0), (2, 1, 2), (5, 3, 0), (0, 5, 1), (1, 2, 3), (9, 2, 0),
        (0, 3, 4), (1, 0, 6), (13, 1, 0), (0, 1, 7), (17, 0, 0), (0, 17, 0), (0, 0, 17),
    ]
    assert len(veronese_generators((1, 4, 5, 6, 7), 3)) == 15
    report = verify_veronese((1, 4, 5, 6, 7), 3, None, 42)
    assert report["checked"] == 1602
    assert report["failures"] == []


# === regrading ===


def test_regrade_case_one():
    assert regrade((12, 20, 30), 2, "I") == (6, 10, 15)
    assert regrade((4, 4, 4), 4, "I") == (1, 1, 1)
    with pytest.raises(BadCase, match="does not divide every entry"):
        regrade((6, 10, 15), 2, "I")


def test_regrade_case_two():
    assert regrade((6, 10, 15), 5, "II", spared_index=0) == (6, 2, 3)
    assert regrade((6, 2, 3), 2, "II", spared_index=2) == (3, 1, 3)
    assert regrade((3, 1, 3), 3, "II", spared_index=1) == (1, 1, 1)
    with pytest.raises(BadCase, match="needs a spared index"):
        regrade((6, 10, 15), 5, "II")
    with pytest.raises(BadCase, match="does not divide the complement"):
        regrade((6, 10, 15), 2, "II", spared_index=0)
    with pytest.raises(BadCase, match="not coprime to spared entry"):
        regrade((4, 2, 6), 2, "II", spared_index=0)


def test_regrade_rejects_junk():
    with pytest.raises(BadCase, match="divisor must be >= 2"):
        regrade((2, 2), 1, "I")
    with pytest.raises(BadCase, match="unknown case"):
        regrade((2, 2), 2, "III")
    with pytest.raises(BadCase):
        regrade((6, 2, 3), 2, "II", spared_index=5)


# === carrying a principal ideal through one step ===


def test_transform_case_one_regrades_only():
    f = parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30))
    g, tag = transform_principal_ideal(f, (12, 20, 30), 2, "I")
    assert tag == TAG_UNCHANGED
    assert g == parse_polynomial("x^5 + y^3 + z^2", (6, 10, 15))


def test_transform_case_two_reexpressed():
    f = parse_polynomial("x^5 + y^3 + z^2", (6, 10, 15))
    g, tag = transform_principal_ideal(f, (6, 10, 15), 5, "II", spared_index=0)
    assert tag == TAG_REEXPRESSED
    assert g == parse_polynomial("x + y^3 + z^2", (6, 2, 3))


def test_transform_case_two_power_raised():
    f = parse_polynomial("x", (2, 3))
    g, tag = transform_principal_ideal(f, (2, 3), 3, "II", spared_index=0)
    assert tag == TAG_POWER_RAISED
    assert g == parse_polynomial("x", (2, 1))
    assert monomial_degree((1, 0), (2, 1)) == 2


def test_transform_guards():
    f = parse_polynomial("x^2 + y", (1, 1))
    with pytest.raises(NotHomogeneous):
        transform_principal_ideal(f, (1, 1), 2, "I")
    g = parse_polynomial("x", (1, 1))
    with pytest.raises(ValueError, match="does not match"):
        transform_principal_ideal(g, (2, 2), 2, "I")


# === the full straightening chain ===


def test_straighten_chain_frozen_example():
    f = parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30))
    pres, trace = straighten_chain(f, (12, 20, 30))
    assert pres.weight == (1, 1, 1)
    assert pres.generator_names == ["x^5", "y^3", "z^2"]
    assert pres.relations == [parse_polynomial("x + y + z", (1, 1, 1))]
    assert pres.relation_degrees == [1]
    assert [s.ideal_note for s in trace] == [
        TAG_UNCHANGED,
        TAG_REEXPRESSED,
        TAG_REEXPRESSED,
        TAG_REEXPRESSED,
    ]
    assert trace.chain() == [
        (12, 20, 30),
        (6, 10, 15),
        (6, 2, 3),
        (3, 1, 3),
        (1, 1, 1),
    ]


def test_straighten_chain_as_dict():
    f = parse_polynomial("x^5 + y^3 + z^2", (12, 20, 30))
    pres, _ = straighten_chain(f, (12, 20, 30))
    assert pres.as_dict() == {
        "weight": [1, 1, 1],
        "generators": ["x^5", "y^3", "z^2"],
        "relations": ["x + y + z"],
        "relation_degrees": [1],
    }


def test_straighten_chain_power_raise_path():
    f = parse_polynomial("x", (2, 3))
    pres, trace = straighten_chain(f, (2, 3))
    assert pres.weight == (1, 1)
    assert pres.generator_names == ["x^3", "y^2"]
    assert pres.relations == [parse_polynomial("x", (1, 1))]
    assert [s.ideal_note for s in trace] == [TAG_POWER_RAISED, TAG_REEXPRESSED]


def test_straighten_chain_noop():
    f = parse_polynomial("x^6 + y^3 + z^2", (1, 2, 3))
    pres, trace = straighten_chain(f, (1, 2, 3))
    assert trace.is_empty()
    assert pres.weight == (1, 2, 3)
    assert pres.generator_names == ["x", "y", "z"]
    assert pres.relations == [f]
    assert pres.relation_degrees == [6]


def test_straighten_chain_guards():
    with pytest.raises(NotHomogeneous):
        straighten_chain(parse_polynomial("x^2 + y", (2, 3)), (2, 3))
    with pytest.raises(ValueError, match="does not match"):
        straighten_chain(parse_polynomial("x", (1, 1)), (2, 3))


def test_presentation_validates_relations():
    rel = parse_polynomial("x + y + z", (1, 1, 1))
    with pytest.raises(NotHomogeneous, match="not homogeneous of degree 2"):
        GradedPresentation((1, 1, 1), ["x", "y", "z"], [rel], [2])
    with pytest.raises(Mismatch, match="1 relations but 2 degrees"):
        GradedPresentation((1, 1, 1), ["x", "y", "z"], [rel], [1, 1])
    with pytest.raises(Mismatch, match="does not match"):
        GradedPresentation((1, 1, 2), ["x", "y", "z"], [rel], [1])


def test_power_raise_shares_the_parser_power_rule():
    # f^97 of a 3-term f with unit coefficients: B = C(99, 2) = 4851 terms, B^2 + B * 97 steps
    f = parse_polynomial("x*y+x*z+x^98", (1, 97, 97))
    assert power_steps(f, 97) == 4851**2 + 4851 * 97 > WORK_LIMIT
    with pytest.raises(TooLarge, match="3-term ideal generator raised to 97 exceeds the work limit"):
        transform_principal_ideal(f, (1, 97, 97), 97, "II", 0)
    g = parse_polynomial("x*y+x*z+x^8", (1, 7, 7))
    assert power_steps(g, 7) <= WORK_LIMIT
    assert transform_principal_ideal(g, (1, 7, 7), 7, "II", 0)[1] == TAG_POWER_RAISED


def test_veronese_box_counts_its_coordinates():
    # 3 * 43^3 = 238,521 steps answer; 3 * 44^3 = 255,552 do not
    assert len(veronese_generators((1, 1, 1), 43)) == 990
    with pytest.raises(TooLarge, match="Veronese box of 85184 vectors in 3 coordinates exceeds the work limit"):
        veronese_generators((1, 1, 1), 44)
