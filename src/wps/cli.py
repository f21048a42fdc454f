"""Command-line front end.

Exit codes: 0 success, 1 domain error (stable E_* codes), 2 usage error.
`--json` (or WPS_JSON=1) switches to a structured envelope validating
against docs/cli-schema.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .curves import (
    PlaneCurve,
    branch_census,
    branching_index,
    genus,
    integrality_sweep,
    sufficiently_general,
    vertex_membership,
)
from .errors import ParseError, WPSError, check_digits, check_length
from .exactmath import QQ, PrimeField, upoly_string
from .geometry import WPoint, eq_geometric, eq_rational
from .hilbert import (
    EllSequence,
    HilbertSeries,
    ci_relation_degrees,
    embedding_report,
    numerator_degree_bound,
    numerator_from_sequence,
)
from .oracle import run_manifest
from .parser import parse_point_coords, parse_polynomial, parse_upolynomial
from .truncation import regraded_degrees, straighten_chain, veronese_generators
from .weights import parse_weight, well_form
from .wpoly import (
    monomial_string,
    power_substitute,
    variable_names,
    weighted_degree,
)
from math import gcd

_DEFAULT_TABLE_ROWS = [(1, (1, 2, 3)), (2, (1, 1, 2)), (3, (1, 1, 1)), (4, (1, 1, 1, 1))]


def _weight_arg(text: str):
    try:
        return parse_weight(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_arg(text: str) -> int:
    check_length(text, "an integer argument")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _override_arg(text: str) -> tuple[int, int]:
    try:
        n, v = text.split("=", 1)
        return _int_arg(n), _int_arg(v)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expected n=value, got {text!r}")


def _row_arg(text: str):
    try:
        k, weights = text.split("=", 1)
        return _int_arg(k), parse_weight(weights, min_len=1)
    except (ValueError, ParseError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expected k=weights, got {text!r}")


def _fmt_weight(a) -> str:
    return "(" + ",".join(str(x) for x in a) + ")"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _step_lines(trace, notes: bool = False) -> list[str]:
    """One line per well-forming step, with straighten's ideal note if asked."""
    lines = []
    for n, step in enumerate(trace, start=1):
        spared = "" if step.spared is None else f" spared={step.spared}"
        note = f" [{step.ideal_note}]" if notes else ""
        lines.append(f"step {n}: case {step.case} d={step.d}{spared} {_fmt_weight(step.before)} -> {_fmt_weight(step.after)}{note}")
    return lines


# === handlers: each returns (ok, text lines, json data) ===


def cmd_wellform(args, parser):
    result, trace = well_form(args.weights, prime_steps=args.prime_steps)
    lines = [_fmt_weight(result), *_step_lines(trace)]
    if trace.is_empty():
        lines.append("already well-formed")
    data = {
        "input": list(args.weights),
        "result": list(result),
        "already_well_formed": trace.is_empty(),
        "steps": trace.as_dict(),
    }
    return True, lines, data


def cmd_genus(args, parser):
    if args.sweep:
        if args.weights or args.degree is not None:
            parser.error("--sweep does not take --weights/--degree")
        report = integrality_sweep(args.max_entry, args.max_degree)
        lines = [f"checked={report['checked']} failures={len(report['failures'])}"]
        lines += [f"d={row['d']} weights={_fmt_weight(row['weights'])}: {row['problem']}" for row in report["failures"]]
        return not report["failures"], lines, report
    if args.weights is None or args.degree is None:
        parser.error("genus needs --weights and --degree (or --sweep)")
    g = genus(args.degree, args.weights)
    b = branching_index(args.degree, args.weights)
    check_digits((g, b), "the genus or branching index")
    data = {"weights": list(args.weights), "d": args.degree, "genus": g, "b": b}
    return True, [f"genus={g} b={b}"], data


def cmd_check(args, parser):
    f = parse_polynomial(args.poly, args.weights)
    curve = PlaneCurve(f)
    general, violations = sufficiently_general(curve)
    lines = [
        f"degree: {curve.degree}",
        f"weights: {_fmt_weight(curve.weight)}",
        f"sufficiently general: {_yn(general)}",
    ]
    lines.extend(f"  {v}" for v in violations)
    data = {
        "poly": f.to_string(),
        "weights": list(curve.weight),
        "degree": curve.degree,
        "sufficiently_general": general,
        "violations": violations,
        "vertices": None,
    }
    if general:
        census = branch_census(curve) if args.census else None
        verts = census["vertices"] if census else vertex_membership(curve)
        lines.append("vertices on curve: " + " ".join(f"p{i}={_yn(v)}" for i, v in enumerate(verts)))
        data["vertices"] = list(verts)
        if census:
            data["census"] = census
            lines.append("census:")
            lines += [
                f"  edge {row['i']}: count={row['count']} predicted={row['predicted']} "
                f"agree={_yn(row['agree'])} squarefree={_yn(row['squarefree'])}"
                for row in census["edges"]
            ]
    elif args.census:
        lines.append("census: skipped (not sufficiently general)")
    return True, lines, data


def cmd_cover(args, parser):
    f = parse_polynomial(args.poly, args.weights)
    cover = power_substitute(f)
    d = weighted_degree(cover)
    lines = [cover.to_string(), f"degree: {d}"]
    data = {
        "poly": f.to_string(),
        "weights": list(args.weights),
        "cover": cover.to_string(),
        "degree": d,
    }
    return True, lines, data


def cmd_truncate(args, parser):
    a, d = args.weights, args.d
    gens = veronese_generators(a, d)
    names = variable_names(len(a))
    gen_strs = [monomial_string(g, names) for g in gens]
    regraded = regraded_degrees(gens, a, d)
    lines = [
        f"generators: {', '.join(gen_strs)}",
        f"regraded weights: {_fmt_weight(regraded)}",
    ]
    data = {
        "weights": list(a),
        "d": d,
        "generators": gen_strs,
        "regraded_weights": regraded,
    }
    if args.poly is not None:
        f = parse_polynomial(args.poly, a)
        deg = weighted_degree(f)
        k = d // gcd(deg, d)
        data.update(poly_degree=deg, min_power=k, power_degree=deg * k, power_regraded_degree=deg * k // d)
        if k == 1:
            lines.append(f"poly degree {deg}: in the truncation (regraded degree {deg // d})")
        else:
            lines.append(f"poly degree {deg}: f^{k} lands in the truncation (degree {deg * k}, regraded {deg * k // d})")
    return True, lines, data


def cmd_straighten(args, parser):
    f = parse_polynomial(args.poly, args.weights)
    pres, trace = straighten_chain(f, args.weights, prime_steps=args.prime_steps)
    lines = _step_lines(trace, notes=True)
    new_names = variable_names(len(pres.weight))
    lines.append(f"final weight: {_fmt_weight(pres.weight)}")
    lines.append(
        "generators: "
        + ", ".join(f"{n} -> {g}" for n, g in zip(new_names, pres.generator_names))
    )
    for rel, deg in zip(pres.relations, pres.relation_degrees):
        lines.append(f"relation: {rel.to_string()} (degree {deg})")
    data = {
        "input": f.to_string(),
        "weights": list(args.weights),
        "steps": trace.as_dict(),
        "presentation": pres.as_dict(),
    }
    return True, lines, data


def cmd_hilbert_expand(args, parser):
    num = parse_upolynomial(args.numerator)
    series = HilbertSeries(num, args.weights)
    coeffs = series.expand(args.n)
    check_digits(coeffs, f"a coefficient of the expansion to degree {args.n}")
    data = {
        "series": series.to_string(),
        "n": args.n,
        "coefficients": coeffs,
    }
    return True, [" ".join(str(c) for c in coeffs)], data


def cmd_hilbert_numerator(args, parser):
    e = EllSequence(args.genus, args.deg, dict(args.override or []))
    bound = args.n if args.n is not None else numerator_degree_bound(e, args.weights)
    num = numerator_from_sequence(e, args.weights, bound)
    text = upoly_string(num)
    lines = [text]
    degrees = ci_relation_degrees(num)
    if degrees is not None:
        lines.append(f"relation degrees: {','.join(str(d) for d in degrees)}")
    data = {
        "weights": list(args.weights),
        "genus": args.genus,
        "deg": args.deg,
        "numerator": text,
        "relation_degrees": degrees,
    }
    return True, lines, data


def cmd_hilbert_table(args, parser):
    e = EllSequence(args.genus, args.deg, dict(args.override or []))
    report = embedding_report(e, args.row or _DEFAULT_TABLE_ROWS, max_degree=args.n)
    out_rows = [dict(row, weights=list(row["weights"]), numerator=upoly_string(row["numerator"])) for row in report]
    lines = [
        f"k={row['k']} weights={_fmt_weight(row['weights'])} numerator={row['numerator']} relations="
        + ("-" if row["relation_degrees"] is None else ",".join(map(str, row["relation_degrees"])))
        for row in out_rows
    ]
    data = {"genus": args.genus, "deg": args.deg, "rows": out_rows}
    return True, lines, data


def cmd_eq(args, parser):
    check_length(args.field, "the field")
    field = QQ if args.field.lower() == "q" else PrimeField(int(args.field))
    a = args.weights
    p1 = WPoint(a, parse_point_coords(args.pt1, field, len(a)), field)
    p2 = WPoint(a, parse_point_coords(args.pt2, field, len(a)), field)
    geo = eq_geometric(p1, p2)
    scaling = eq_rational(p1, p2)
    lines = [
        f"equal: {_yn(geo)}",
        f"geometric: {_yn(geo)}",
        f"scaling: {_yn(scaling)}",
    ]
    data = {
        "weights": list(a),
        "field": repr(field),
        "pt1": repr(p1),
        "pt2": repr(p2),
        "equal": geo,
        "geometric": geo,
        "scaling": scaling,
    }
    return True, lines, data


def cmd_oracle_run(args, parser):
    with open(args.manifest, encoding="utf-8") as fh:
        text = fh.read()
    report = run_manifest(text)
    lines = []
    for row in report["jobs"]:
        status = "ok" if row["ok"] else "FAIL"
        lines.append(
            f"{status:4} {row['verify']} weights={_fmt_weight(row['weights'])} "
            f"p={row['p']}: {row['summary']}"
        )
    passed = sum(1 for row in report["jobs"] if row["ok"])
    lines.append(f"{passed}/{len(report['jobs'])} checks passed")
    return report["ok"], lines, report


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")

    def leaf(subs, name: str, func, help: str):
        p = subs.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    parser = argparse.ArgumentParser(
        prog="wps", description="weighted projective space toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = leaf(sub, "wellform", cmd_wellform, "reduce a weight to well-formed")
    p.add_argument("weights", type=_weight_arg)
    p.add_argument("--prime-steps", action="store_true", help="one prime divisor per step")

    p = leaf(sub, "genus", cmd_genus, "degree-genus formula")
    p.add_argument("--weights", type=_weight_arg)
    p.add_argument("--degree", type=_int_arg)
    p.add_argument("--sweep", action="store_true", help="integrality sweep")
    p.add_argument("--max-entry", type=_int_arg, default=9)
    p.add_argument("--max-degree", type=_int_arg, default=60)

    p = leaf(sub, "check", cmd_check, "curve genericity diagnostics")
    p.add_argument("--weights", type=_weight_arg, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--census", action="store_true", help="edge root-count census")

    p = leaf(sub, "cover", cmd_cover, "straight cover via x_i -> y_i^{a_i}")
    p.add_argument("--weights", type=_weight_arg, required=True)
    p.add_argument("--poly", required=True)

    p = leaf(sub, "truncate", cmd_truncate, "Veronese truncation generators")
    p.add_argument("--weights", type=_weight_arg, required=True)
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--poly")

    p = leaf(sub, "straighten", cmd_straighten, "carry an ideal through well-forming")
    p.add_argument("--weights", type=_weight_arg, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--prime-steps", action="store_true")

    p = sub.add_parser("hilbert", help="Hilbert series tools")
    hsub = p.add_subparsers(dest="hilbert_command", required=True)

    q = leaf(hsub, "expand", cmd_hilbert_expand, "series coefficients")
    q.add_argument("--weights", type=_weight_arg, required=True)
    q.add_argument("--numerator", default="1")
    q.add_argument("-N", dest="n", type=_int_arg, required=True, help="last degree")

    q = leaf(hsub, "numerator", cmd_hilbert_numerator, "recover N(t) from ell values")
    q.add_argument("--weights", type=_weight_arg, required=True)
    q.add_argument("--genus", type=_int_arg, required=True)
    q.add_argument("--deg", type=_int_arg, required=True, help="divisor degree")
    q.add_argument("--override", type=_override_arg, action="append", metavar="n=v")
    q.add_argument("-N", dest="n", type=_int_arg, help="max numerator degree")

    q = leaf(hsub, "table", cmd_hilbert_table, "per-embedding numerators")
    q.add_argument("--genus", type=_int_arg, default=1)
    q.add_argument("--deg", type=_int_arg, default=1)
    q.add_argument("--override", type=_override_arg, action="append", metavar="n=v")
    q.add_argument("--row", type=_row_arg, action="append", metavar="k=weights")
    q.add_argument("-N", dest="n", type=_int_arg, help="max numerator degree")

    p = leaf(sub, "eq", cmd_eq, "point equality tests")
    p.add_argument("--weights", type=_weight_arg, required=True)
    p.add_argument("--field", required=True, help="q for rationals, or a prime")
    p.add_argument("pt1")
    p.add_argument("pt2")

    p = sub.add_parser("oracle", help="finite-field verification")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = leaf(osub, "run", cmd_oracle_run, "run a manifest of checks")
    q.add_argument("--manifest", required=True)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = " ".join(argv[: 2 if argv[:1] in (["hilbert"], ["oracle"]) else 1])
    parser = build_parser()
    # parsing overwrites json, unless an argument's type refuses an over-long integer first
    args = argparse.Namespace(json="--json" in argv)
    try:
        parser.parse_args(argv, args)
        ok, lines, data = args.func(args, parser)
    except (WPSError, ValueError, OSError) as exc:
        code = exc.code if isinstance(exc, WPSError) else "E_VALUE" if isinstance(exc, ValueError) else "E_IO"
        if args.json or os.environ.get("WPS_JSON") == "1":
            error = {"code": code, "message": str(exc)}
            print(json.dumps({"command": command, "ok": False, "error": error}))
        else:
            print(f"error[{code}]: {exc}", file=sys.stderr)
        return 1
    if args.json or os.environ.get("WPS_JSON") == "1":
        print(json.dumps({"command": command, "ok": ok, "data": data}))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
