import itertools
from math import gcd, prod

import pytest

import wps.weights
from wps.errors import BadCase, Mismatch, ParseError, TooLarge
from wps.weights import (
    WellFormStep,
    WellFormTrace,
    check_weight,
    is_well_formed,
    parse_weight,
    well_form,
)

# === parsing and validation ===


def test_parse_weight():
    assert parse_weight("12,20,30") == (12, 20, 30)
    assert parse_weight(" 1, 2 ,3 ") == (1, 2, 3)


@pytest.mark.parametrize("bad", ["", "1", "1,x", "1,,2", "0,1", "-1,2", "1.5,2"])
def test_parse_weight_rejects(bad):
    with pytest.raises(ParseError):
        parse_weight(bad)


def test_parse_weight_caps_the_digits_of_an_entry():
    assert parse_weight("1," + "6" * 4000)[1] == int("6" * 4000)
    with pytest.raises(TooLarge, match="more than 4000 decimal digits"):
        parse_weight("1," + "6" * 4001)


def test_check_weight_rejects():
    with pytest.raises(ValueError):
        check_weight((3,))
    with pytest.raises(ValueError):
        check_weight((1, 0))


# === well-formedness predicate ===


@pytest.mark.parametrize(
    "a, expect",
    [
        ((1, 1), True),
        ((1, 1, 1), True),
        ((1, 2, 3), True),
        ((1, 1, 2), True),
        ((2, 3, 5), True),
        ((1, 2), False),  # P(1,2) is isomorphic to P(1,1) but not well-formed
        ((2, 2), False),
        ((12, 20, 30), False),
        ((6, 10, 15), False),  # pairwise gcds 2, 3, 5
        ((6, 2, 3), False),
        ((3, 1, 3), False),
        ((2, 3, 4), False),  # gcd(2,4) = 2
        ((5, 6, 7), True),
    ],
)
def test_is_well_formed(a, expect):
    assert is_well_formed(a) == expect, a


def test_two_entry_well_formed_means_both_one():
    # complement gcds for a pair are the entries themselves
    for a0 in range(1, 8):
        for a1 in range(1, 8):
            assert is_well_formed((a0, a1)) == (a0 == a1 == 1)


# === the reduction ===


def test_well_form_chain_12_20_30():
    result, trace = well_form((12, 20, 30))
    assert result == (1, 1, 1)
    assert trace.chain() == [(12, 20, 30), (6, 10, 15), (6, 2, 3), (3, 1, 3), (1, 1, 1)]
    cases = [(s.case, s.d, s.spared) for s in trace]
    assert cases == [("I", 2, None), ("II", 5, 0), ("II", 2, 2), ("II", 3, 1)]


def test_well_form_prime_steps_same_chain_here():
    # every divisor along this chain is already prime
    _, default = well_form((12, 20, 30))
    _, primed = well_form((12, 20, 30), prime_steps=True)
    assert default.as_dict() == primed.as_dict()


def test_well_form_whole_gcd_vs_prime_steps():
    result, trace = well_form((4, 4, 4))
    assert result == (1, 1, 1)
    assert [(s.case, s.d) for s in trace] == [("I", 4)]
    result, trace = well_form((4, 4, 4), prime_steps=True)
    assert result == (1, 1, 1)
    assert [(s.case, s.d) for s in trace] == [("I", 2), ("I", 2)]


def test_well_form_already_well_formed_is_noop():
    result, trace = well_form((1, 2, 3))
    assert result == (1, 2, 3)
    assert trace.is_empty() and trace.chain() == []


@pytest.mark.parametrize(
    "a, expect",
    [
        ((1, 2), (1, 1)),  # case II keeps the spared entry
        ((2, 4), (1, 1)),
        ((2, 3, 4), (1, 3, 2)),
        ((6, 10, 15), (1, 1, 1)),
    ],
)
def test_well_form_examples(a, expect):
    result, _ = well_form(a)
    assert result == expect


def test_well_form_exhaustive_small():
    # every output is well-formed; steps chain; the product never grows
    for a in itertools.product(range(1, 13), repeat=3):
        result, trace = well_form(a)
        assert is_well_formed(result), (a, result)
        assert prod(result) <= prod(a)
        if trace.is_empty():
            assert result == a
        else:
            assert trace.chain()[0] == a and trace.chain()[-1] == result
        for step in trace:
            if step.case == "I":
                assert all(x % step.d == 0 for x in step.before)
                assert step.after == tuple(x // step.d for x in step.before)
            else:
                j = step.spared
                assert gcd(step.d, step.before[j]) == 1
                assert all(
                    x % step.d == 0 for i, x in enumerate(step.before) if i != j
                )
                assert step.after == tuple(
                    x if i == j else x // step.d for i, x in enumerate(step.before)
                )


def test_well_form_pairs_exhaustive():
    for a in itertools.product(range(1, 30), repeat=2):
        result, _ = well_form(a)
        assert result == (1, 1), a


def test_trace_rejects_broken_chain():
    _, trace = well_form((12, 20, 30))
    steps = list(trace)
    with pytest.raises(Mismatch, match="steps do not chain"):
        WellFormTrace([steps[0], steps[2]])


def test_step_rejects_unknown_case():
    with pytest.raises(BadCase, match="got 'III'"):
        WellFormStep("III", 2, None, (2, 4), (1, 2))


def test_well_form_without_case_two_step(monkeypatch):
    monkeypatch.setattr(wps.weights, "_case_two_candidates", lambda a, prime_steps: [])
    with pytest.raises(Mismatch, match="no case-II step applies"):
        well_form((2, 2, 1))


def test_well_form_rejects_growing_step(monkeypatch):
    monkeypatch.setattr(
        wps.weights, "_case_two_candidates", lambda a, prime_steps: [((7, 1, 1), 0, 1)]
    )
    with pytest.raises(Mismatch, match="grew the entry product"):
        well_form((2, 2, 1))
