import contextlib
import io
import json
import random
import shlex
import signal
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wps.cli import main
from wps.hilbert import complete_intersection_series

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "docs" / "cli-schema.json").read_text())
MANIFEST = str(ROOT / "manifests" / "default.manifest")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


# === text outputs ===


def test_wellform_chain(capsys):
    code, out, _ = run(capsys, "wellform", "12,20,30")
    assert code == 0
    assert out == [
        "(1,1,1)",
        "step 1: case I d=2 (12,20,30) -> (6,10,15)",
        "step 2: case II d=5 spared=0 (6,10,15) -> (6,2,3)",
        "step 3: case II d=2 spared=2 (6,2,3) -> (3,1,3)",
        "step 4: case II d=3 spared=1 (3,1,3) -> (1,1,1)",
    ]


def test_wellform_noop(capsys):
    code, out, _ = run(capsys, "wellform", "1,2,3")
    assert code == 0
    assert out == ["(1,2,3)", "already well-formed"]


def test_genus_single(capsys):
    code, out, _ = run(capsys, "genus", "--weights", "1,2,3", "--degree", "6")
    assert code == 0
    assert out == ["genus=1 b=18"]


def test_genus_non_integer_is_domain_error(capsys):
    # d=3, a=(1,1,2) is a rational curve, not a domain error
    code, out, _ = run(capsys, "genus", "--weights", "1,1,2", "--degree", "3")
    assert code == 0
    assert out == ["genus=0 b=4"]
    code, out, err = run(capsys, "genus", "--weights", "1,2,5", "--degree", "3")
    assert code == 1
    assert out == []
    assert err == [
        "error[E_INVALID_DEGREE_WEIGHT]: d >= a_2 fails (3 < 5); "
        "clause (ii) numeric fails at i=2: no j with a_2 | d - a_j"
    ]


def test_genus_sweep_small(capsys):
    code, out, _ = run(
        capsys, "genus", "--sweep", "--max-entry", "1", "--max-degree", "6"
    )
    assert code == 0
    assert out == ["checked=5 failures=0"]


def test_genus_sweep_full_fails(capsys):
    code, out, _ = run(capsys, "genus", "--sweep")
    assert code == 0
    assert out == ["checked=777 failures=0"]


def test_check_with_census(capsys):
    code, out, _ = run(
        capsys,
        "check", "--weights", "1,2,3", "--poly", "x^7 + y^2*z + x*z^2", "--census",
    )
    assert code == 0
    assert out == [
        "degree: 7",
        "weights: (1,2,3)",
        "sufficiently general: yes",
        "vertices on curve: p0=no p1=yes p2=yes",
        "census:",
        "  edge 0: count=0 predicted=0 agree=yes squarefree=no",
        "  edge 1: count=6 predicted=6 agree=yes squarefree=yes",
        "  edge 2: count=0 predicted=6 agree=no squarefree=yes",
    ]


@pytest.mark.parametrize("census", [[], ["--census"]])
def test_check_tests_sufficiently_general_twice(capsys, monkeypatch, census):
    # cmd_check once, then the guard inside vertex_membership (which the census runs)
    import wps.cli
    import wps.curves

    calls = []
    inner = wps.curves.sufficiently_general

    def counted(c):
        calls.append(c)
        return inner(c)

    monkeypatch.setattr(wps.cli, "sufficiently_general", counted)
    monkeypatch.setattr(wps.curves, "sufficiently_general", counted)
    code, _, _ = run(capsys, "check", "--weights", "1,2,3", "--poly", "x^7 + y^2*z + x*z^2", *census)
    assert code == 0
    assert len(calls) == 2


def test_check_reports_violations_without_failing(capsys):
    code, out, _ = run(
        capsys, "check", "--weights", "1,2,3", "--poly", "x^7 + x*y^3", "--census"
    )
    assert code == 0
    assert out == [
        "degree: 7",
        "weights: (1,2,3)",
        "sufficiently general: no",
        "  clause (ii) fails at i=2: none of x*z^2 present",
        "census: skipped (not sufficiently general)",
    ]


def test_cover(capsys):
    code, out, _ = run(
        capsys, "cover", "--weights", "1,1,2", "--poly", "x^4 + y^4 + z^2 + x*y*z"
    )
    assert code == 0
    assert out == ["x^4 + y^4 + x*y*z^2 + z^4", "degree: 4"]


def test_truncate(capsys):
    code, out, _ = run(capsys, "truncate", "--weights", "6,10,15", "--d", "5")
    assert code == 0
    assert out == ["generators: y, z, x^5", "regraded weights: (2,3,6)"]


def test_truncate_with_poly(capsys):
    code, out, _ = run(
        capsys,
        "truncate", "--weights", "6,10,15", "--d", "5", "--poly", "x^5 + y^3 + z^2",
    )
    assert code == 0
    assert out[-1] == "poly degree 30: in the truncation (regraded degree 6)"
    code, out, _ = run(capsys, "truncate", "--weights", "1,1", "--d", "2", "--poly", "x")
    assert out[-1] == "poly degree 1: f^2 lands in the truncation (degree 2, regraded 1)"


def test_straighten(capsys):
    code, out, _ = run(
        capsys,
        "straighten", "--weights", "12,20,30", "--poly", "x^5 + y^3 + z^2",
    )
    assert code == 0
    assert out == [
        "step 1: case I d=2 (12,20,30) -> (6,10,15) [unchanged-regraded]",
        "step 2: case II d=5 spared=0 (6,10,15) -> (6,2,3) [re-expressed]",
        "step 3: case II d=2 spared=2 (6,2,3) -> (3,1,3) [re-expressed]",
        "step 4: case II d=3 spared=1 (3,1,3) -> (1,1,1) [re-expressed]",
        "final weight: (1,1,1)",
        "generators: x -> x^5, y -> y^3, z -> z^2",
        "relation: x + y + z (degree 1)",
    ]


def test_hilbert_expand(capsys):
    code, out, _ = run(
        capsys,
        "hilbert", "expand", "--weights", "1,2,3", "--numerator", "1 - t^6", "-N", "10",
    )
    assert code == 0
    assert out == ["1 1 2 3 4 5 6 7 8 9 10"]


def test_hilbert_numerator(capsys):
    code, out, _ = run(
        capsys,
        "hilbert", "numerator", "--weights", "1,2,3", "--genus", "1", "--deg", "1",
    )
    assert code == 0
    assert out == ["1 - t^6", "relation degrees: 6"]


def test_hilbert_numerator_with_overrides(capsys):
    code, out, _ = run(
        capsys,
        "hilbert", "numerator", "--weights", "1,1", "--genus", "3", "--deg", "1",
        "--override", "1=1", "--override", "2=1", "--override", "3=1",
        "--override", "4=2", "-N", "8",
    )
    assert code == 0
    assert out == ["1 - t + t^4"]


def test_hilbert_numerator_default_bound(capsys):
    # degree 6 > 2*sum(weights): the default bound is the proved one,
    # |ambiguous range| + sum(weights), not a guess
    code, out, _ = run(
        capsys,
        "hilbert", "numerator", "--weights", "1,1", "--genus", "3", "--deg", "1",
        "--override", "1=1", "--override", "2=2", "--override", "3=2", "--override", "4=3",
    )
    assert code == 0
    assert out == ["1 - t + t^2 - t^3 + t^4 - t^5 + t^6"]


def test_hilbert_table_defaults(capsys):
    code, out, _ = run(capsys, "hilbert", "table")
    assert code == 0
    assert out == [
        "k=1 weights=(1,2,3) numerator=1 - t^6 relations=6",
        "k=2 weights=(1,1,2) numerator=1 - t^4 relations=4",
        "k=3 weights=(1,1,1) numerator=1 - t^3 relations=3",
        "k=4 weights=(1,1,1,1) numerator=1 - 2*t^2 + t^4 relations=2,2",
    ]


def test_eq_rational_example(capsys):
    code, out, _ = run(
        capsys, "eq", "--weights", "1,1,2", "--field", "q", "1:0:2", "3:0:18"
    )
    assert code == 0
    assert out == ["equal: yes", "geometric: yes", "scaling: yes"]


def test_eq_finite_field_cone_point(capsys):
    code, out, _ = run(
        capsys, "eq", "--weights", "1,1,2", "--field", "5", "0:0:1", "0:0:2"
    )
    assert code == 0
    assert out == ["equal: yes", "geometric: yes", "scaling: no"]


def test_eq_scaling_needs_no_weight_one_coordinate(capsys):
    # no coordinate of weight 1, yet the scaling lambda = 2 is found
    code, out, _ = run(capsys, "eq", "--weights", "2,3", "--field", "q", "1:1", "4:8")
    assert code == 0
    assert out == ["equal: yes", "geometric: yes", "scaling: yes"]


def test_eq_large_prime_needs_no_unit_scan(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "eq", "--weights", "1,2,3", "--field", "1000000000039", "1:2:3", "2:8:24")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out == ["equal: yes", "geometric: yes", "scaling: yes"]
    # lambda = -1, the last unit a scan of F_p^* would reach
    code, out, _ = run(capsys, "eq", "--weights", "1,2,3", "--field", "1000000000039", "1:2:3", "1000000000038:2:1000000000036")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out == ["equal: yes", "geometric: yes", "scaling: yes"]


def test_eq_prime_past_primality_bound(capsys):
    # a 31-digit prime: deterministic Miller-Rabin stops at 3.3e24
    start = time.perf_counter()
    code, out, err = run(capsys, "eq", "--weights", "1,2", "--field", "1000000000000000000000000000057", "1:1", "2:4")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == [] and err[0].startswith("error[E_TOO_LARGE]")
    # an 18-digit prime is answered
    code, out, _ = run(capsys, "eq", "--weights", "1,2", "--field", "2305843009213693951", "1:1", "2:4")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (0, ["equal: yes", "geometric: yes", "scaling: yes"])


def test_eq_non_coprime_weights(capsys):
    # lambda^2 = 3 forces lambda^4 = 2, not 5; the pairwise binomial
    # 3^4 = 5^2 alone would accept the pair
    code, out, _ = run(capsys, "eq", "--weights", "2,4", "--field", "7", "1:1", "3:5")
    assert code == 0
    assert out == ["equal: no", "geometric: no", "scaling: no"]


def test_oracle_run(capsys):
    code, out, _ = run(capsys, "oracle", "run", "--manifest", MANIFEST)
    assert code == 0
    assert out[-1] == "13/13 checks passed"
    assert all(line.startswith("ok ") for line in out[:-1])


def test_oracle_orbit_stabilizer_budget(capsys, tmp_path):
    # 27,000 group elements times 993 straight points: rejected before the
    # group or the points are built
    manifest = tmp_path / "big.manifest"
    manifest.write_text("verify=orbit_stabilizer weights=30,30,30 p=31\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "run", "--manifest", str(manifest))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == [] and err[0].startswith("error[E_TOO_LARGE]")


@pytest.mark.parametrize("line, p", [("verify=orbit_stabilizer weights=1,1,1 p=4", 4), ("verify=orbit_stabilizer weights=1,1,2 p=1", 1)])
def test_oracle_orbit_stabilizer_needs_prime(capsys, tmp_path, line, p):
    manifest = tmp_path / "one.manifest"
    manifest.write_text(line + "\n")
    code, out, err = run(capsys, "oracle", "run", "--manifest", str(manifest))
    assert code == 1
    assert out == [] and err == [f"error[E_VALUE]: modulus {p} is not prime"]


def test_oracle_run_missing_file(capsys):
    code, out, err = run(capsys, "oracle", "run", "--manifest", "no-such-file")
    assert code == 1
    assert err and err[0].startswith("error[E_IO]:")


def _readme_transcripts():
    """(command line, stdout lines) of each `$ wps ...` transcript in the fenced blocks of
    README.md; its output runs to the next blank line or fence."""
    out, current, fenced = [], None, False
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ wps "):
            current = []
            out.append((line[len("$ wps ") :], current))
        elif not line:
            current = None
        elif current is not None:
            current.append(line)
    return out


README_TRANSCRIPTS = _readme_transcripts()


@pytest.mark.parametrize("command, expected", README_TRANSCRIPTS, ids=[c for c, _ in README_TRANSCRIPTS])
def test_readme_transcripts(capsys, command, expected):
    code, out, err = run(capsys, *shlex.split(command))
    assert (code, err) == (0, [])
    assert out == expected


# === exit codes ===


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["wellform", "1,x"],
        ["genus", "--weights", "1,2,3"],
        ["genus", "--sweep", "--weights", "1,2,3"],
        ["hilbert", "numerator", "--weights", "1,1", "--genus", "3", "--deg", "1",
         "--override", "junk"],
        [],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
        capsys.readouterr()


def test_value_error_exits_1(capsys):
    code, _, err = run(capsys, "eq", "--weights", "1,1", "--field", "4", "1:1", "2:2")
    assert code == 1
    assert err[0].startswith("error[E_VALUE]:")


# === json envelopes ===


def test_json_envelopes_validate(capsys):
    cases = [
        ("wellform", ["wellform", "12,20,30"]),
        ("genus", ["genus", "--weights", "1,2,3", "--degree", "6"]),
        ("check", ["check", "--weights", "1,1,2", "--poly", "x^4 + y^4 + z^2 + x*y*z",
                   "--census"]),
        ("cover", ["cover", "--weights", "1,1,2", "--poly", "x^4 + y^4 + z^2 + x*y*z"]),
        ("truncate", ["truncate", "--weights", "6,10,15", "--d", "5"]),
        ("straighten", ["straighten", "--weights", "12,20,30", "--poly",
                        "x^5 + y^3 + z^2"]),
        ("hilbert expand", ["hilbert", "expand", "--weights", "1,2,3", "-N", "5"]),
        ("hilbert numerator", ["hilbert", "numerator", "--weights", "1,2,3",
                               "--genus", "1", "--deg", "1"]),
        ("hilbert table", ["hilbert", "table"]),
        ("eq", ["eq", "--weights", "1,1,2", "--field", "q", "1:0:2", "3:0:18"]),
        ("oracle run", ["oracle", "run", "--manifest", MANIFEST]),
    ]
    for command, argv in cases:
        code, payload = run_json(capsys, *argv)
        assert code == 0, command
        assert payload["command"] == command
        assert payload["ok"] is True
        assert "data" in payload and "error" not in payload


def test_json_genus_payload(capsys):
    code, payload = run_json(capsys, "genus", "--weights", "1,2,3", "--degree", "6")
    assert code == 0
    assert payload["data"] == {"weights": [1, 2, 3], "d": 6, "genus": 1, "b": 18}


def test_json_error_envelope(capsys):
    code, payload = run_json(capsys, "genus", "--weights", "1,2,5", "--degree", "3")
    assert code == 1
    assert payload["ok"] is False
    assert payload["error"]["code"] == "E_INVALID_DEGREE_WEIGHT"
    assert "d >= a_2 fails" in payload["error"]["message"]
    assert "data" not in payload


def test_parenthesis_depth_is_capped(capsys):
    deep = "(" * 2000 + "x" + ")" * 2000
    code, payload = run_json(capsys, "check", "--weights", "1,1,1", "--poly", deep)
    assert code == 1
    assert payload["error"]["code"] == "E_TOO_LARGE"
    code, out, _ = run(capsys, "check", "--weights", "1,1,1", "--poly", "(" * 50 + "x" + ")" * 50)
    assert code == 0
    assert out[0] == "degree: 1"


def test_truncate_box_too_large(capsys):
    start = time.perf_counter()
    code, payload = run_json(capsys, "truncate", "--weights", "1,1,1", "--d", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"]["code"] == "E_TOO_LARGE"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--weights", "1,1,1", "--poly", "(x+y+z)^3000"],
        ["hilbert", "expand", "--weights", "1,1", "-N", "30000000"],
        ["hilbert", "numerator", "--weights", "1,1", "--genus", "1", "--deg", "3", "-N", "30000000"],
        ["hilbert", "expand", "--weights", "1,1,1,1,1,1,1,1", "--numerator", "(10)^3995", "-N", "1000"],
    ],
)
def test_work_limit_refuses_before_the_work(capsys, argv):
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"]["code"] == "E_TOO_LARGE"
    assert "exceeds the work limit of 250000 steps" in payload["error"]["message"]


@pytest.mark.parametrize("weights, n", [("39,4,39,1814,171", "49378"), ("1,2,3", "240000")])
def test_expand_counts_the_words_of_large_coefficients(capsys, weights, n):
    # a 6,791-bit constant: printing its expansion took 4.8 s and 23.9 s when each degree counted one step
    start = time.perf_counter()
    code, payload = run_json(capsys, "hilbert", "expand", "--weights", weights, "--numerator", "((128))^970", "-N", n)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert payload["error"]["code"] == "E_TOO_LARGE"
    assert "107-word coefficients exceeds the work limit" in payload["error"]["message"]



@pytest.mark.parametrize(
    "argv",
    [
        ["hilbert", "expand", "--weights", "1,1", "--numerator", "(10)^5000", "-N", "1"],
        ["check", "--weights", "1,1,1", "--poly", "(10)^5000*x"],
        ["cover", "--weights", "1,1,1", "--poly", "(10)^5000*x"],
        ["straighten", "--weights", "1,1,1", "--poly", "(10)^5000*x"],
        ["check", "--weights", "1,1,1", "--poly", "7" * 4500 + "*x"],
        ["straighten", "--weights", "1,2,2", "--poly", "(10)^2000*x^3+x*y"],  # (10^2000)^2 after squaring
        ["hilbert", "expand", "--weights", "1,1,1,1,1,1,1,1", "--numerator", "(10)^3995", "-N", "20"],  # 10^3995 * C(27, 7)
        ["eq", "--weights", "1,1", "--field", "q", "1:" + "7" * 4500, "1:2"],
        ["genus", "--weights", "1,2,3", "--degree", "1" + "0" * 3990],  # a 7,979-digit genus
    ],
)
def test_integers_past_the_digit_limit_are_refused_alike(capsys, argv):
    # a stated cap of 4,000 digits, below CPython's int <-> str limit: the answer does not depend on that limit
    refused_alike(capsys, argv)


def refused_alike(capsys, argv):
    """argv ends in E_TOO_LARGE for the digit cap, and alike with the interpreter's int <-> str limit off."""
    code, payload = run_json(capsys, *argv)
    assert code == 1 and payload["error"]["code"] == "E_TOO_LARGE", payload
    assert "more than 4000 decimal digits" in payload["error"]["message"]
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert run_json(capsys, *argv) == (code, payload)
        finally:
            sys.set_int_max_str_digits(limit)


BIG = "6" * 4500


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "--weights", "1,2,3", "--degree", BIG],
        ["genus", "--sweep", "--max-entry", BIG],
        ["genus", "--sweep", "--max-degree", BIG],
        ["wellform", "1,2," + BIG],
        ["truncate", "--weights", "6,10," + BIG, "--d", "5"],
        ["truncate", "--weights", "6,10,15", "--d", BIG],
        ["hilbert", "expand", "--weights", "1,1", "-N", BIG],
        ["hilbert", "numerator", "--weights", "1,1", "--genus", BIG, "--deg", "1"],
        ["hilbert", "numerator", "--weights", "1,1", "--genus", "1", "--deg", BIG],
        ["hilbert", "numerator", "--weights", "1,1", "--genus", "1", "--deg", "1", "-N", BIG],
        ["hilbert", "numerator", "--weights", "1,1", "--genus", "1", "--deg", "1", "--override", "1=" + BIG],
        ["hilbert", "table", "--genus", BIG],
        ["hilbert", "table", "--deg", BIG],
        ["hilbert", "table", "-N", BIG],
        ["hilbert", "table", "--override", BIG + "=1"],
        ["hilbert", "table", "--row", BIG + "=1,2"],
        ["hilbert", "table", "--row", "1=1," + BIG],
        ["eq", "--weights", "1,1", "--field", BIG, "1:0", "1:0"],
    ],
)
def test_integer_arguments_past_the_digit_limit_are_refused_alike(capsys, argv):
    # weights, every integer option and eq --field: refused before int() converts them
    refused_alike(capsys, argv)


@pytest.mark.parametrize(
    "line",
    [
        "verify=veronese weights=1,1 p=" + BIG + " d=2",
        "verify=veronese weights=1,1 p=5 d=" + BIG,
        "verify=veronese weights=1,1 p=5 d=2 cap=" + BIG,
        "verify=veronese weights=1," + BIG + " p=5 d=2",
        "verify=curve_scan weights=1,1,1 p=5 poly=x^3+y^3+z^3 expect_points=" + BIG,
        "verify=curve_scan weights=1,1,1 p=5 poly=x^3+y^3+z^3 expect_rational_points=" + BIG,
        "verify=curve_scan weights=1,1,1 p=5 poly=x^3+y^3+z^3 expect_singular=" + BIG,
    ],
    ids=["p", "d", "cap", "weights", "expect_points", "expect_rational_points", "expect_singular"],
)
def test_manifest_integers_past_the_digit_limit_are_refused_alike(capsys, tmp_path, line):
    manifest = tmp_path / "big.manifest"
    manifest.write_text(line + "\n")
    refused_alike(capsys, ["oracle", "run", "--manifest", str(manifest)])


def _dense_curve(d):
    """A pseudo-random degree-d curve in P(1,1,1), dense on all three edges:
    x^d, y^d, z^d with coefficients in 1..9, and x^(d-k)*y^k, y^(d-k)*z^k and
    z^(d-k)*x^k for 0 < k < d with coefficients in -9..9, a 0 leaving the term out."""
    rng = random.Random(60)
    terms = []
    for u, v in (("x", "y"), ("y", "z"), ("z", "x")):
        terms.append(f"{rng.randint(1, 9)}*{u}^{d}")
        for k in range(1, d):
            if c := rng.randint(-9, 9):
                terms.append(f"{c}*{u}^{d - k}*{v}^{k}".replace("^1*", "*").removesuffix("^1"))
    return "+".join(terms).replace("+-", "-")


@pytest.mark.parametrize(
    "argv, line",
    [
        (None, "verify=point_equality weights=1,1 p=499"),
        (None, "verify=point_equality weights=1,2,3 p=61"),
        (None, "verify=point_equality weights=1,1 p=997"),
        (None, "verify=curve_scan weights=1,1,1 p=503 poly=x^3+y^3+z^3"),
        (None, "verify=orbit_stabilizer weights=6,6,6 p=67"),
        (None, "verify=veronese weights=7,11,13 p=5 d=17"),
        (None, "verify=veronese weights=1,1,1 p=5 d=2 cap=400"),
        (["truncate", "--weights", "1,1,1", "--d", "63"], None),
        (["truncate", "--weights", "1,1,1", "--d", "100"], None),
        (["check", "--weights", "1,1,1", "--poly", "(x+y+z)^20*(x+y+z)^20*(x+y+z)^20"], None),
        (["straighten", "--weights", "1,97,97", "--poly", "x*y+x*z+x^98"], None),
        (["genus", "--sweep", "--max-entry", "60", "--max-degree", "400"], None),
        (["cover", "--weights", "1,1,1", "--poly", "(663/13)^64909178"], None),
        (["eq", "--weights", "32244,40,232729", "--field", "q", "32244:40:32244", "32244:32244:232729"], None),
        (["hilbert", "table", "--genus", "0", "--deg", "33", "-N", "141414"], None),
        (["check", "--census", "--weights", "500000,500001,1000001", "--poly", "z+x*y"], None),
        # one pass per weight: these ran for 9 s to over a minute when each degree counted one step
        (["hilbert", "table", "--row", "1=" + ",".join(["1"] * 2500)], None),
        (["hilbert", "expand", "--weights", ",".join(["1"] * 1000), "-N", "20000"], None),
        (["hilbert", "expand", "--weights", ",".join(["1"] * 300), "-N", "100000"], None),
        (["truncate", "--weights", ",".join(["1"] * 2500), "--d", "1"], None),  # n^3 generator checks before
        # the parser counts 242,636 steps and _edges 3*288^2 = 248,832: the root counts refuse, as they go
        (["check", "--census", "--weights", "1,1,1", "--poly", _dense_curve(288)], None),
    ],
)
def test_every_entry_point_refuses_past_the_budget_at_once(capsys, tmp_path, argv, line):
    if line is not None:
        manifest = tmp_path / "one.manifest"
        manifest.write_text(line + "\n")
        argv = ["oracle", "run", "--manifest", str(manifest)]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == [] and err[0].startswith("error[E_TOO_LARGE]") and "exceeds the work limit" in err[0]


def test_requests_under_the_budget_still_answer(capsys, tmp_path):
    # 169,323 parser steps; 3,783 sliced curve vectors at p = 61; the default
    # sweep is 165 triples times 59 degrees
    code, out, _ = run(capsys, "check", "--weights", "1,1,1", "--poly", "(x+y+z)^20*(x+y+z)^20")
    assert code == 0 and out[0] == "degree: 40"
    manifest = tmp_path / "one.manifest"
    manifest.write_text("verify=curve_scan weights=1,1,1 p=61 poly=x^3+y^3+z^3\n")
    code, out, _ = run(capsys, "oracle", "run", "--manifest", str(manifest))
    assert code == 0 and out[-1] == "1/1 checks passed"
    code, out, _ = run(capsys, "genus", "--sweep")
    assert code == 0 and out == ["checked=777 failures=0"]
    # the two F_p verifiers just under the limit: 3 * (283^2 - 1) = 240,264 and 3 * 217 * 381 = 248,031 steps
    for line in ("verify=point_equality weights=1,1 p=283", "verify=orbit_stabilizer weights=6,6,6 p=19"):
        manifest.write_text(line + "\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "oracle", "run", "--manifest", str(manifest))
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out[-1] == "1/1 checks passed"
    # (1 - t)^198: 200 passes of 401 steps, then 198 exact divisions by 1 - t (29 s over Fractions)
    start = time.perf_counter()
    code, out, _ = run(capsys, "hilbert", "numerator", "--weights", ",".join(["1"] * 200), "--genus", "0", "--deg", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out[0].startswith("1 - 198*t + 19503*t^2") and out[1] == "relation degrees: " + ",".join(["1"] * 198)
    # one power per generator name, not a unit tuple of length n
    start = time.perf_counter()
    code, out, _ = run(capsys, "straighten", "--weights", ",".join(["1"] * 2500), "--poly", "x0*x1")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out[1].startswith("generators: x0 -> x0, x1 -> x1,") and out[1].endswith("x2499 -> x2499")
    # the root counts of a dense degree-60 census: 4.9 s over Fractions; the sparse degree-288 one still answers
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "--census", "--weights", "1,1,1", "--poly", _dense_curve(60))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out[-3:] == [f"  edge {i}: count=60 predicted=60 agree=yes squarefree=yes" for i in range(3)]
    code, out, _ = run(capsys, "check", "--census", "--weights", "1,1,1", "--poly", "x^288+y^288+z^288")
    assert code == 0 and out[-1] == "  edge 2: count=288 predicted=288 agree=yes squarefree=yes"
    # dense numerators of 250,000 coefficients just under the limit: 1.2 s and 0.6 s when each
    # int went through a Fraction and back
    start = time.perf_counter()
    code, out, _ = run(capsys, "hilbert", "expand", "--weights", "1,1", "--numerator", "((t)^14)^17857", "-N", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == [" ".join(["0"] * 11)]
    start = time.perf_counter()
    series = complete_intersection_series((1, 1), [249999])
    assert time.perf_counter() - start < 1.0
    assert series.numerator == [1] + [0] * 249998 + [-1]


def test_prime_steps_split_a_gcd_of_two_large_primes(capsys):
    # gcd 1000000007 * 998244353: trial division alone would run to 10^9
    weights = "1996488719975420942,2994733079963131413"
    start = time.perf_counter()
    code, split, _ = run(capsys, "wellform", weights, "--prime-steps")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert split[1] == "step 1: case I d=998244353 (1996488719975420942,2994733079963131413) -> (2000000014,3000000021)"
    assert split[2] == "step 2: case I d=1000000007 (2000000014,3000000021) -> (2,3)"
    code, whole, _ = run(capsys, "wellform", weights)
    assert code == 0 and whole[0] == split[0] == "(1,1)"
    assert whole[1] == "step 1: case I d=998244359987710471 (1996488719975420942,2994733079963131413) -> (2,3)"
    assert [row.split(": ")[1] for row in whole[2:]] == [row.split(": ")[1] for row in split[3:]]

def test_json_env_var(capsys, monkeypatch):
    monkeypatch.setenv("WPS_JSON", "1")
    code = main(["genus", "--weights", "1,2,3", "--degree", "6"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    assert code == 0
    assert payload["command"] == "genus"


# === argv fuzzing ===

INTS = st.one_of(st.integers(-3, 40), st.integers(0, 10**12))
# now and then a long run of unit weights: a count that misses the factor len(a) shows there
WEIGHTS = (st.lists(INTS, min_size=1, max_size=5) | st.integers(1, 2500).map(lambda k: [1] * k)).map(
    lambda a: ",".join(map(str, a))
)
POINTS = st.lists(INTS, min_size=1, max_size=5).map(lambda a: ":".join(map(str, a)))
LEAVES = st.one_of(
    st.sampled_from(["x", "y", "z", "w", "t", "x0", "x2", "x4"]),
    INTS.map(str),
    st.tuples(INTS, INTS).map("{0[0]}/{0[1]}".format),
)
POLYS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        st.tuples(inner, INTS).map("({0[0]})^{0[1]}".format),
        inner.map("({})".format),
    ),
    max_leaves=8,
)
NUMBERS = INTS.map(str)


def _manifest_line(kind, weights, p, d, cap, poly):
    keys = {"weights": weights, "p": p, "d": d, "cap": cap, "poly": poly}
    return f"verify={kind} " + " ".join(f"{k}={v}" for k, v in keys.items() if v is not None)


def _optional(strategy):
    return st.none() | strategy


ARGVS = st.one_of(
    st.tuples(st.just(["wellform"]), WEIGHTS, st.sampled_from([[], ["--prime-steps"]])).map(
        lambda t: [*t[0], t[1], *t[2]]
    ),
    st.tuples(WEIGHTS, NUMBERS).map(lambda t: ["genus", "--weights", t[0], "--degree", t[1]]),
    st.tuples(NUMBERS, NUMBERS).map(lambda t: ["genus", "--sweep", "--max-entry", t[0], "--max-degree", t[1]]),
    st.tuples(WEIGHTS, POLYS, st.sampled_from([[], ["--census"]])).map(
        lambda t: ["check", "--weights", t[0], "--poly", t[1], *t[2]]
    ),
    st.tuples(WEIGHTS, POLYS).map(lambda t: ["cover", "--weights", t[0], "--poly", t[1]]),
    st.tuples(WEIGHTS, NUMBERS, _optional(POLYS)).map(
        lambda t: ["truncate", "--weights", t[0], "--d", t[1], *([] if t[2] is None else ["--poly", t[2]])]
    ),
    st.tuples(WEIGHTS, POLYS, st.sampled_from([[], ["--prime-steps"]])).map(
        lambda t: ["straighten", "--weights", t[0], "--poly", t[1], *t[2]]
    ),
    st.tuples(WEIGHTS, POLYS, NUMBERS).map(
        lambda t: ["hilbert", "expand", "--weights", t[0], "--numerator", t[1], "-N", t[2]]
    ),
    st.tuples(WEIGHTS, NUMBERS, NUMBERS, st.lists(st.tuples(INTS, INTS), max_size=2), _optional(NUMBERS)).map(
        lambda t: ["hilbert", "numerator", "--weights", t[0], "--genus", t[1], "--deg", t[2]]
        + [arg for n, v in t[3] for arg in ("--override", f"{n}={v}")]
        + ([] if t[4] is None else ["-N", t[4]])
    ),
    st.tuples(NUMBERS, NUMBERS, st.lists(st.tuples(INTS, WEIGHTS), max_size=3), _optional(NUMBERS)).map(
        lambda t: ["hilbert", "table", "--genus", t[0], "--deg", t[1]]
        + [arg for k, w in t[2] for arg in ("--row", f"{k}={w}")]
        + ([] if t[3] is None else ["-N", t[3]])
    ),
    st.tuples(WEIGHTS, st.just("q") | NUMBERS, POINTS, POINTS).map(
        lambda t: ["eq", "--weights", t[0], "--field", t[1], "--", t[2], t[3]]
    ),
    st.builds(
        _manifest_line,
        st.sampled_from(["point_equality", "orbit_stabilizer", "veronese", "curve_scan"]),
        _optional(WEIGHTS),
        _optional(NUMBERS),
        _optional(NUMBERS),
        _optional(NUMBERS),
        _optional(POLYS),
    ).map(lambda line: ["oracle", "run", "--manifest", line]),
)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout("request ran past 5 s")


@settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGVS, json_mode=st.booleans())
def test_fuzzed_argv_answers_or_fails_cleanly(tmp_path, argv, json_mode):
    """Every request exits 0, 1 or 2 within 5 s, without a traceback; a
    --json answer (exit 0 or 1) is one envelope that validates."""
    if argv[0] == "oracle":
        manifest = tmp_path / "one.manifest"
        manifest.write_text(argv[-1] + "\n")
        argv = [*argv[:-1], str(manifest)]
    if json_mode:
        head = 2 if argv[0] in ("hilbert", "oracle") else 1
        argv = [*argv[:head], "--json", *argv[head:]]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if json_mode and code != 2:
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
