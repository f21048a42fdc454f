"""Seeded inputs, the operation each workload times, and the check of each answer.

Every workload is a round-robin over fixed slots, and the seed draws each
slot's instance from that slot's family.  The mix of slots, and so the cost
profile of a run, is the same for every seed; the instances are not.

`check` returns RIGHT, WRONG, or the name of a known defect.  Known defects
are the ones ROADMAP.md records for this code base; their answers still
count as wrong in `wrong_frac`, but do not mark the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import lru_cache
from itertools import product
from pathlib import Path
from math import factorial, lcm, prod

import reference as ref

RIGHT = "right"
WRONG = "wrong"
EQ_NONCOPRIME = "eq_geometric-noncoprime"  # ROADMAP item 3
GENUS_NONINT = "genus-nonint"  # ROADMAP item 2


def _weights(rng, n: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, hi) for _ in range(n))


def _fmt(a) -> str:
    return ",".join(map(str, a))


def _degree(e, a) -> int:
    return sum(x * y for x, y in zip(a, e))


def _homogeneous_terms(rng, a, d: int, count: int) -> dict[tuple[int, ...], int]:
    """Up to `count` distinct monomials of weighted degree d, coefficients 1..5."""
    monos = []
    for head in product(*(range(d // x + 1) for x in a[:-1])):
        rest = d - _degree(head, a)
        if rest >= 0 and rest % a[-1] == 0:
            monos.append(head + (rest // a[-1],))
    rng.shuffle(monos)
    return {e: rng.randint(1, 5) for e in monos[:count]}


def _compact(terms, a) -> str:
    return ref.poly_string(terms, a).replace(" ", "")


def _terms_json(terms) -> list:
    return [list(e) + [c] for e, c in sorted(terms.items())]


def _terms_dict(rows) -> dict[tuple[int, ...], int]:
    return {tuple(r[:-1]): r[-1] for r in rows}


# Stratified draws: a slot's family is sorted by predicted cost and cut into
# STRATA equal chunks; round r draws from chunk r mod STRATA.  Every run then
# sees the same spread of costs, while the seed picks the instances.
STRATA = 12


class Family:
    def __init__(self, members, cost):
        members = sorted(members, key=cost)
        k = len(members)
        self.chunks = [members[k * j // STRATA : k * (j + 1) // STRATA] for j in range(STRATA)]

    def draw(self, rng, r: int):
        return rng.choice(self.chunks[r % STRATA])


def _pfree(m: int, p: int) -> int:
    while m % p == 0:
        m //= p
    return m


def _tuples(values, n: int) -> list[tuple[int, ...]]:
    return list(product(values, repeat=n))


# ===================== oracle-batch =====================


def _oracle_slots():
    def pe(n, p, hi):
        # The closure oracle scans t modulo M = p-free part of (p-1) lcm(a).
        fam = Family(_tuples(range(1, hi + 1), n), lambda a: _pfree((p - 1) * lcm(*a), p))
        return lambda rng, r: {"line": f"verify=point_equality weights={_fmt(fam.draw(rng, r))} p={p}"}

    def os_(n, p, hi):
        # Orbits and stabilizers loop over the prod(a) elements of the group.
        divisors = [k for k in range(1, hi + 1) if (p - 1) % k == 0]
        fam = Family(_tuples(divisors, n), prod)
        return lambda rng, r: {"line": f"verify=orbit_stabilizer weights={_fmt(fam.draw(rng, r))} p={p}"}

    def curve(rng, r):
        while True:
            a = _weights(rng, 3, 5)
            d = rng.randint(max(a), 2 * max(a) + 2)
            terms = _homogeneous_terms(rng, a, d, rng.randint(2, 4))
            if len(terms) >= 2:
                break
        line = f"verify=curve_scan weights={_fmt(a)} p=11 poly={_compact(terms, a)}"
        return {"line": line, "terms": _terms_json(terms)}

    small = [(a, d) for n in (2, 3) for a in _tuples(range(1, 6), n) for d in (2, 3, 4) if scan_size(a, d) < 2e4]
    ver_family = Family(small, lambda ad: scan_size(*ad))

    def ver(rng, r):
        a, d = ver_family.draw(rng, r)
        return {"line": f"verify=veronese weights={_fmt(a)} p=7 d={d} cap={2 * d * max(a)}"}

    return [pe(3, 5, 6), pe(2, 7, 6), pe(4, 3, 4), os_(3, 7, 3), os_(2, 13, 6), curve, ver]


def _build(slots, rng, count: int) -> list[dict]:
    return [slots[i % len(slots)](rng, i // len(slots)) for i in range(count)]


def build_oracle(rng, count: int) -> list[dict]:
    return _build(_oracle_slots(), rng, count)


def prepare_oracle(specs, wps):
    return wps.oracle.parse_manifest("\n".join(s["line"] for s in specs))


def run_oracle(job, wps):
    return wps.oracle.run_job(job)


def check_oracle(spec: dict, job: dict, out: dict) -> str:
    a, p, rep = tuple(job["weights"]), job["p"], out["report"]
    kind = job["verify"]
    if kind == "point_equality":
        n = p ** len(a) - 1
        if rep["pairs"] != n * (n + 1) // 2:
            return WRONG
        if rep["mismatch_count"] == 0:
            return RIGHT if out["ok"] else WRONG
        overclaims = all(m["geometric"] and not m["closure"] for m in rep["mismatches"])
        return EQ_NONCOPRIME if overclaims and not ref.pairwise_coprime(a) else WRONG
    if kind == "orbit_stabilizer":
        k = len(a)
        good = rep["points"] == (p**k - 1) // (p - 1) and not rep["failures"]
        return RIGHT if good and out["ok"] else WRONG
    if kind == "veronese":
        d, cap = job["d"], job["cap"]
        names = ref.variable_names(len(a))
        gens = [ref.monomial_string(e, names) for e in ref.veronese_box(a, d)]
        checked = sum(ref.count_monomials(a, k) for k in range(d, cap + 1, d))
        good = sorted(rep["generators"]) == sorted(gens) and rep["checked"] == checked
        return RIGHT if good and not rep["failures"] and out["ok"] else WRONG
    on, sing = ref.curve_point_counts(a, _terms_dict(spec["terms"]), p)
    return RIGHT if (rep["points_on_curve"], rep["singular_points"]) == (on, sing) else WRONG


# ===================== truncate-sweep =====================

def scan_size(a, d: int) -> float:
    """About how many exponent vectors graded_piece_basis visits on the way
    up to B = d lcm(a) n: B^(n+1) / ((n+1)! prod(a) d)."""
    n = len(a)
    b = d * lcm(*a) * n
    return b ** (n + 1) / (factorial(n + 1) * prod(a) * d)


# (variables, scan-size window) per slot; weights 1..9, d 2..7.
# The middle slot costs apart from the cheap and the dear pairs, so the
# median operation falls inside one slot's (stratified) sizes.
_TRUNCATE_SLOTS = [(3, 5e3, 2e4), (2, 1e4, 5e4), (3, 3e4, 8e4), (3, 1e5, 2.5e5), (3, 1e5, 2.5e5)]


def build_truncate(rng, count: int) -> list[dict]:
    def slot(n, lo, hi):
        members = [(a, d) for a in _tuples(range(1, 10), n) for d in range(2, 8) if lo <= scan_size(a, d) < hi]
        fam = Family(members, lambda ad: scan_size(*ad))

        def make(rng, r):
            a, d = fam.draw(rng, r)
            return {"weights": list(a), "d": d, "cap": 2 * d * max(a)}

        return make

    return _build([slot(*s) for s in _TRUNCATE_SLOTS], rng, count)


def prepare_truncate(specs, wps):
    return [(tuple(s["weights"]), s["d"], s["cap"]) for s in specs]


def run_truncate(item, wps):
    a, d, cap = item
    t = wps.truncation
    gens = t.veronese_generators(a, d)
    regraded = t.regraded_degrees(gens, a, d)
    report = wps.oracle.verify_veronese(a, d, None, cap)
    return gens, regraded, report


def check_truncate(spec: dict, item, out) -> str:
    a, d, cap = item
    gens, regraded, report = out
    box = ref.veronese_box(a, d)
    checked = sum(ref.count_monomials(a, k) for k in range(d, cap + 1, d))
    good = (
        sorted(gens) == box
        and regraded == [_degree(g, a) // d for g in gens]
        and report["checked"] == checked
        and not report["failures"]
    )
    return RIGHT if good else WRONG


# ===================== cli-mix =====================


def sweep_instances(max_entry: int = 9, max_degree: int = 60) -> list[tuple[int, tuple]]:
    """(d, a): a pairwise coprime and sorted, with the numeric conditions of a
    sufficiently general degree-d curve (each a_i | d or a_i | d - a_j)."""
    out = []
    for a in product(range(1, max_entry + 1), repeat=3):
        if list(a) != sorted(a) or not ref.pairwise_coprime(a):
            continue
        for d in range(2, max_degree + 1):
            if _numeric_ok(d, a):
                out.append((d, a))
    return out


def _numeric_ok(d: int, a) -> bool:
    return d >= max(a) and all(
        d % x == 0 or any(j != i and d >= a[j] and (d - a[j]) % x == 0 for j in range(3))
        for i, x in enumerate(a)
    )


def _general_curve(rng, a, d: int) -> dict[tuple[int, ...], int]:
    """The monomials the sufficiently-general clauses ask for, plus extras."""
    terms = {}
    for i, x in enumerate(a):
        if d % x == 0:
            e = [0, 0, 0]
            e[i] = d // x
        else:
            j = rng.choice([j for j in range(3) if j != i and d >= a[j] and (d - a[j]) % x == 0])
            e = [0, 0, 0]
            e[j] += 1
            e[i] += (d - a[j]) // x
        terms[tuple(e)] = rng.randint(1, 5)
    terms.update(_homogeneous_terms(rng, a, d, rng.randint(0, 2)))
    return terms


def _random_prime(rng, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if ref.is_prime(p):
            return p


def _nonzero(rng, p: int | None) -> int:
    """A nonzero small integer (p None) or a nonzero residue mod p."""
    while True:
        c = rng.randint(-6, 6) if p is None else rng.randrange(p)
        if c:
            return c


def _eq_points(rng, a, p: int | None, equal: bool):
    """x and y = lambda.x, with signs flipped on some coordinates (a root of
    unity twist that only the closure can absorb), or an unrelated y.

    eq_rational scans the units 1, 2, ... of F_p up to lambda, testing the
    coordinates in order.  For a large p, lambda lies in the last 2% of the
    units and x has no zero coordinate, so each request costs one full scan
    with one test per unit.
    """
    n = len(a)
    zeros = 0.0 if p is not None and p > 1000 else 0.2
    while True:
        x = [_nonzero(rng, p) if rng.random() >= zeros else 0 for _ in range(n)]
        if any(x):
            break
    if equal:
        if p is None:
            lam = rng.choice([1, 2, 3, -1, -2])
        else:
            lam = rng.randrange(p - p // 50 if p > 1000 else 1, p)
        signs = [rng.choice([1, -1]) if rng.random() < 0.5 else 1 for _ in range(n)]
        y = [s * lam**ai * xi if p is None else s * pow(lam, ai, p) * xi % p for s, ai, xi in zip(signs, a, x)]
    else:
        y = [c if rng.random() < 0.7 else _nonzero(rng, p) for c in x]
        if not any(y):
            y = x[:]
        y[rng.randrange(n)] = _nonzero(rng, p)
    return x, y


_MALFORMED = [
    lambda rng: (["eq", "--weights", "1,2", "--field", str(rng.choice([4, 6, 9, 15, 21, 25])), "1:1", "1:2"], 1, "E_VALUE"),
    lambda rng: (["check", "--weights", "1,2,3", "--poly", f"x^{rng.randint(2, 6)} + y^2*z +* x*z^2"], 1, "E_PARSE"),
    lambda rng: (["check", "--weights", "1,2,3", "--poly", f"x^{rng.randint(2, 6)} + q"], 1, "E_UNKNOWN_VARIABLE"),
    lambda rng: (["check", "--weights", "1,2,3", "--poly", f"x^{rng.randint(3, 6)} + y"], 1, "E_NOT_HOMOGENEOUS"),
    lambda rng: (["wellform", f"{rng.randint(1, 9)},0,{rng.randint(1, 9)}"], 2, None),
    lambda rng: (["genus", "--weights", f"2,4,{rng.choice([3, 5, 7])}", "--degree", "12"], 1, "E_INVALID_DEGREE_WEIGHT"),
    lambda rng: (["hilbert", "numerator", "--weights", "1,2,3", "--genus", str(rng.randint(3, 6)), "--deg", "1"], 1, "E_AMBIGUOUS_LOW_DEGREE"),
    lambda rng: (["truncate", "--weights", "2,3", "--d", str(rng.randint(-3, 0))], 1, "E_VALUE"),
    lambda rng: (["cover", "--weights", "1,2"], 2, None),
]


def _cli_slots(sweep):
    def wellform(rng, r):
        a = [rng.choice([1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30]) for _ in range(rng.choice([3, 3, 4]))]
        argv = ["wellform", _fmt(a)] + (["--prime-steps"] if rng.random() < 0.3 else [])
        return {"argv": argv, "kind": "wellform", "weights": a}

    def genus(rng, r):
        d, a = rng.choice(sweep)
        return {"argv": ["genus", "--weights", _fmt(a), "--degree", str(d)], "kind": "genus", "weights": list(a), "d": d}

    small = [s for s in sweep if s[1][2] <= 7 and s[0] <= 24]

    def check(census):
        def make(rng, r):
            d, a = rng.choice(small)
            terms = _general_curve(rng, a, d)
            argv = ["check", "--weights", _fmt(a), "--poly", ref.poly_string(terms, a)]
            return {"argv": argv + (["--census"] if census else []), "kind": "check", "weights": list(a),
                    "d": d, "terms": _terms_json(terms), "census": census}
        return make

    def cover(rng, r):
        while True:
            a = _weights(rng, 3, 6)
            d = rng.randint(max(a), 3 * max(a))
            terms = _homogeneous_terms(rng, a, d, rng.randint(2, 4))
            if len(terms) >= 2:
                break
        argv = ["cover", "--weights", _fmt(a), "--poly", ref.poly_string(terms, a)]
        return {"argv": argv, "kind": "cover", "weights": list(a), "d": d, "terms": _terms_json(terms)}

    def straighten(rng, r):
        while True:
            base = _weights(rng, 3, 3)
            f = [rng.choice([1, 2, 3, 5]) for _ in range(3)]
            a = [base[i] * f[(i + 1) % 3] * f[(i + 2) % 3] for i in range(3)]
            d = lcm(*a) * rng.randint(1, 2)
            terms = _homogeneous_terms(rng, a, d, rng.randint(2, 3))
            if len(terms) >= 2:
                break
        argv = ["straighten", "--weights", _fmt(a), "--poly", ref.poly_string(terms, a)]
        return {"argv": argv, "kind": "straighten", "weights": a}

    def truncate(rng, r):
        while True:
            a = _weights(rng, rng.choice([2, 3]), 6)
            d = rng.randint(2, 4)
            if scan_size(a, d) < 1e4:
                break
        return {"argv": ["truncate", "--weights", _fmt(a), "--d", str(d)], "kind": "truncate", "weights": a, "d": d}

    def hexpand(rng, r):
        a = _weights(rng, rng.randint(2, 4), 6)
        num = {0: 1}
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, 8)
            num = {j: num.get(j, 0) - num.get(j - k, 0) for j in range(max(num) + k + 1)}
            num = {j: c for j, c in num.items() if c}
        text = " + ".join(f"{c}*t^{j}" for j, c in sorted(num.items())).replace("+ -", "- ")
        n = rng.randint(10, 60)
        argv = ["hilbert", "expand", "--weights", _fmt(a), "--numerator", text, "-N", str(n)]
        return {"argv": argv, "kind": "hilbert expand", "weights": a, "num": sorted(num.items()), "n": n}

    def hnumerator(rng, r):
        a = _weights(rng, rng.randint(2, 4), 6)
        g, deg = rng.choice([(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)])
        argv = ["hilbert", "numerator", "--weights", _fmt(a), "--genus", str(g), "--deg", str(deg)]
        bound = 2 * sum(a)
        if rng.random() < 0.5:
            bound = sum(a) + rng.randint(0, 4)
            argv += ["-N", str(bound)]
        return {"argv": argv, "kind": "hilbert numerator", "rows": [[1, a, bound]], "genus": g, "deg": deg}

    def htable(rng, r):
        g, deg = rng.choice([(0, 1), (1, 1), (1, 2)])
        rows = [[k, list(_weights(rng, rng.randint(2, 4), 4))] for k in range(1, rng.randint(2, 4))]
        argv = ["hilbert", "table", "--genus", str(g), "--deg", str(deg)]
        for k, a in rows:
            argv += ["--row", f"{k}={_fmt(a)}"]
        return {"argv": argv, "kind": "hilbert table", "rows": [[k, a, 2 * sum(a)] for k, a in rows],
                "genus": g, "deg": deg}

    def eq(lo, hi):
        turn = {"equal": False}  # each slot alternates scaled and unrelated pairs

        def make(rng, r):
            # p from sub-band r mod STRATA of [lo, hi): the unit scan costs p - 1
            step = None if lo is None else (hi - lo) // STRATA
            p = None if lo is None else _random_prime(rng, lo + step * (r % STRATA), lo + step * (r % STRATA + 1))
            a = _weights(rng, rng.choice([2, 3]), 6)
            turn["equal"] = not turn["equal"]
            x, y = _eq_points(rng, a, p, equal=turn["equal"])
            field = "q" if p is None else str(p)
            argv = ["eq", "--weights", _fmt(a), "--field", field, "--", ":".join(map(str, x)), ":".join(map(str, y))]
            return {"argv": argv, "kind": "eq", "weights": a, "p": p, "x": x, "y": y}
        return make

    def malformed(rng, r):
        argv, code, err = rng.choice(_MALFORMED)(rng)
        return {"argv": argv, "kind": "malformed", "exit": code, "code": err}

    return [
        wellform, genus, check(True), eq(10000, 30000), cover, hexpand, malformed,
        wellform, genus, check(True), eq(10000, 30000), straighten, hnumerator, malformed,
        check(False), truncate, eq(None, None), eq(2, 100), htable, eq(30000, 100000), malformed,
    ]


def build_cli(rng, count: int) -> list[dict]:
    return _build(_cli_slots(sweep_instances()), rng, count)


def prepare_cli(specs, wps):
    """argv lists with --json right after the (sub)command name."""
    out = []
    for s in specs:
        head = 2 if s["argv"][0] == "hilbert" else 1
        out.append(s["argv"][:head] + ["--json"] + s["argv"][head:])
    return out


@lru_cache(maxsize=None)
def _schema_validator():
    import jsonschema

    schema = json.loads((Path(__file__).resolve().parents[1] / "docs" / "cli-schema.json").read_text())
    return jsonschema.Draft7Validator(schema)


def run_cli(argv, wps):
    """One in-process request; usage errors exit through SystemExit.  An
    exit code other than 0, 1 or 2 is an error, like a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = wps.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code not in (0, 1, 2):
        raise RuntimeError(f"exit code {code!r}")
    return code, out.getvalue()


def check_cli(spec: dict, argv, out) -> str:
    """Exit 2 is a usage answer with no envelope; exits 0 and 1 print one
    envelope that must validate against docs/cli-schema.json."""
    code, text = out
    if code == 2:
        return RIGHT if spec["kind"] == "malformed" and spec["exit"] == 2 and not text else WRONG
    try:
        env = json.loads(text)
    except ValueError:
        return WRONG
    if not _schema_validator().is_valid(env):
        return WRONG
    if spec["kind"] == "malformed":
        return RIGHT if code == spec["exit"] and env["error"]["code"] == spec["code"] else WRONG
    return _check_cli_answer(spec, code, env)


def _check_cli_answer(spec, code, env) -> str:
    kind = spec["kind"]
    data = env.get("data", {})
    if kind == "genus":
        g = ref.ow_genus(spec["d"], spec["weights"])
        if code == 0:
            return RIGHT if data["genus"] == g else WRONG
        return GENUS_NONINT if env["error"]["code"] == "E_GENUS_NONINT" else WRONG
    if kind == "check" and spec["census"]:
        terms = _terms_dict(spec["terms"])
        if any(all(e[i] for e in terms) for i in range(3)):
            return RIGHT if code == 1 and env["error"]["code"] == "E_DEGENERATE_EDGE" else WRONG
    if code != 0:
        return WRONG
    a = spec.get("weights")
    if kind == "wellform":
        good = data["result"] == list(ref.well_formed_model(a)) and data["already_well_formed"] == ref.is_well_formed(a)
    elif kind == "check":
        d = spec["d"]
        good = (
            data["degree"] == d
            and data["poly"] == ref.poly_string(_terms_dict(spec["terms"]), a)
            and data["sufficiently_general"]
            and data["vertices"] == [d % x != 0 for x in a]
            and (not spec["census"] or [r["i"] for r in data["census"]["edges"]] == [0, 1, 2])
        )
    elif kind == "cover":
        straight = {tuple(x * y for x, y in zip(a, e)): c for e, c in _terms_dict(spec["terms"]).items()}
        good = data["cover"] == ref.poly_string(straight, (1, 1, 1)) and data["degree"] == spec["d"]
    elif kind == "straighten":
        pres = data["presentation"]
        good = pres["weight"] == list(ref.well_formed_model(a)) and len(pres["relations"]) == 1
    elif kind == "truncate":
        names = ref.variable_names(len(a))
        box = {ref.monomial_string(e, names): _degree(e, a) // spec["d"] for e in ref.veronese_box(a, spec["d"])}
        good = sorted(data["generators"]) == sorted(box) and data["regraded_weights"] == [
            box[g] for g in data["generators"]
        ]
    elif kind == "hilbert expand":
        good = data["coefficients"] == ref.series_coefficients(dict(spec["num"]), a, spec["n"])
    elif kind in ("hilbert numerator", "hilbert table"):
        rows = [data] if kind == "hilbert numerator" else data["rows"]
        good = len(rows) == len(spec["rows"]) and all(
            _numerator_ok(row, k, w, bound, spec["genus"], spec["deg"])
            for row, (k, w, bound) in zip(rows, spec["rows"])
        )
    else:  # eq
        return _check_eq(spec, data)
    return RIGHT if good else WRONG


def _numerator_ok(row, k, a, bound, genus, deg) -> bool:
    num = ref.parse_tpoly(row["numerator"])
    series = ref.series_coefficients(num, a, bound)
    if series != [ref.ell(genus, deg, k * n) for n in range(bound + 1)]:
        return False
    rel = row["relation_degrees"]
    if rel is None:
        return True
    prod_poly = {0: 1}
    for r in rel:
        prod_poly = {j: prod_poly.get(j, 0) - prod_poly.get(j - r, 0) for j in range(max(prod_poly) + r + 1)}
    return {j: c for j, c in prod_poly.items() if c} == num


def _check_eq(spec, data) -> str:
    a, p, x, y = spec["weights"], spec["p"], spec["x"], spec["y"]
    truth = ref.closure_equal(a, x, y, p)
    if data["scaling"] is None:  # over Q without a nonzero weight-1 anchor
        scaling_ok = p is None and not any(w == 1 and c for w, c in zip(a, x))
    else:
        scaling_ok = data["scaling"] == ref.rational_equal(a, x, y, p)
    if not scaling_ok or data["equal"] != data["geometric"]:
        return WRONG
    if data["equal"] == truth:
        return RIGHT
    support = [w for w, c in zip(a, x) if c]
    overclaim = data["equal"] and not truth and not ref.pairwise_coprime(support)
    return EQ_NONCOPRIME if overclaim else WRONG


WORKLOADS = {
    "oracle-batch": (build_oracle, prepare_oracle, run_oracle, check_oracle),
    "truncate-sweep": (build_truncate, prepare_truncate, run_truncate, check_truncate),
    "cli-mix": (build_cli, prepare_cli, run_cli, check_cli),
}
