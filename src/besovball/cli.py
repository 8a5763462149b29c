"""Command line interface.

Polynomials and spaces are passed as inline JSON or as a path to a JSON
file.  Exit codes: 0 on success, 1 when a requested check fails, 2 on bad
input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from .approx import assemble_gram, optimal_approximant
from .certify import Certificate
from .embeddings import sum_squares_compose, tau_compose
from .experiments import (
    BUILTIN_EXPERIMENTS,
    ExperimentSpec,
    run_experiment,
    run_step,
    verify_lemma,
    write_json,
    write_profile_csv,
)
from .poly import SparsePoly, poly_from_literal, poly_to_literal
from .scalars import ComplexRational, json_object
from .spaces import inner_product, norm_sq, space_from_json


def _load_json_arg(arg: str):
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    return json.loads(Path(arg).read_text(encoding="utf-8"))


def _load_space(arg: str):
    return space_from_json(_load_json_arg(arg))


def _load_poly(arg: str) -> SparsePoly:
    return poly_from_literal(_load_json_arg(arg))


def _parse_degrees(arg: str) -> list[int]:
    """A comma list of degrees, or lo:hi[:step], hi inclusive, step >= 1."""
    s = arg.strip()
    ranged = ":" in s
    try:
        parts = [int(x) for x in (s.split(":") if ranged else filter(str.strip, s.split(",")))]
    except ValueError:
        raise ValueError(f"--degrees must be a comma list of integers or lo:hi[:step], got {arg!r}") from None
    if not ranged:
        return parts
    if len(parts) not in (2, 3):
        raise ValueError(f"the range --degrees {arg!r} must be lo:hi or lo:hi:step")
    lo, hi, step = (parts + [1])[:3]
    if step < 1:
        raise ValueError(f"the step of --degrees {arg!r} must be >= 1")
    return list(range(lo, hi + 1, step))


def _fmt_scalar(x) -> str:
    if isinstance(x, Fraction):
        return f"{x} (= {float(x)!r})"
    if isinstance(x, ComplexRational):
        if x.is_real:
            return _fmt_scalar(x.re)
        return f"{x} (= {complex(x)!r})"
    return repr(x)


def _print_rows(rows):
    print("m,dist_sq,min_pivot,runtime_ms")
    for row in rows:
        print(f"{row.m},{row.dist_sq!r},{row.min_pivot!r},{row.runtime_ms:.3f}")


# flags of the step verbs that are not step params, and the params that are
# polynomial or cube JSON (inline or path)
_NOT_PARAMS = {"cmd", "certkind", "step_kind", "space", "csv", "out"}
_JSON_PARAMS = {"f", "g", "h", "phi", "cube"}


def _profile_common(sub, kind):
    sub.set_defaults(step_kind=kind)
    sub.add_argument("--space", required=True, help="space JSON (inline or path)")
    sub.add_argument("--degrees", required=True, help="comma list or lo:hi[:step]")
    sub.add_argument("--method", default="auto", choices=["auto", "exact", "float"])
    sub.add_argument("--csv", help="also write the profile to this CSV path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="besovball",
                                 description="norms, optimal approximants and cyclicity "
                                             "certificates in radially weighted Besov spaces")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("norm", help="norm^2 of a polynomial in a space")
    s.add_argument("--space", required=True)
    s.add_argument("--poly", required=True)

    s = sub.add_parser("ip", help="inner product <f, g> in a space")
    s.add_argument("--space", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--g", required=True)

    s = sub.add_parser("approx", help="optimal polynomial approximant of one degree")
    s.add_argument("--space", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--g", default=None, help="target (default: constant 1)")
    s.add_argument("--deg", required=True, type=int)
    s.add_argument("--method", default="auto", choices=["auto", "exact", "float"])
    s.add_argument("--json", dest="json_out", help="write full result JSON here")

    s = sub.add_parser("profile", help="distance profile dist(g, {p f : deg p <= m})")
    s.add_argument("--f", required=True)
    s.add_argument("--g", default=None)
    _profile_common(s, "profile")

    s = sub.add_parser("hc", help="hierarchy step profile dist(phi^n, {p phi^(n+1)})")
    s.add_argument("--phi", required=True)
    s.add_argument("--n", required=True, type=int)
    _profile_common(s, "hc")

    s = sub.add_parser("member", help="membership profile dist(h, {p f^k})")
    s.add_argument("--h", required=True)
    s.add_argument("--f", required=True)
    s.add_argument("--k", required=True, type=int)
    _profile_common(s, "member")

    s = sub.add_parser("embed", help="push a one-variable polynomial into d variables")
    s.add_argument("--kind", required=True, choices=["tkd", "sk"])
    s.add_argument("--k", required=True, type=int)
    s.add_argument("--d", required=True, type=int)
    s.add_argument("--poly", required=True)
    s.add_argument("--out", help="write the image polynomial literal here")

    s = sub.add_parser("certify", help="produce a positive-distance certificate")
    csub = s.add_subparsers(dest="certkind", required=True)
    cd = csub.add_parser("dual", help="boundary-derivative dual bound on the disc scale")
    cd.set_defaults(step_kind="dual-certify")
    cd.add_argument("--space", required=True)
    cd.add_argument("--g", required=True)
    cd.add_argument("--h", required=True)
    cd.add_argument("--j", required=True, type=int)
    cd.add_argument("--out", help="write certificate JSON here")
    ce = csub.add_parser("energy", help="Riesz-type energy bound from a cube on the zero set")
    ce.set_defaults(step_kind="energy-certify")
    ce.add_argument("--space", required=True)
    ce.add_argument("--f", required=True)
    ce.add_argument("--cube", required=True, help='e.g. {"family":"torus","k":4,"d":4}')
    ce.add_argument("--n-base", type=int)
    ce.add_argument("--max-doublings", type=int)
    ce.add_argument("--out", help="write certificate JSON here")

    s = sub.add_parser("verify-lemma", help="run a registered quantitative lemma check")
    s.add_argument("name")
    s.add_argument("--params", default="{}", help="JSON dict of check parameters")

    s = sub.add_parser("run", help="run a canned experiment into a directory")
    s.add_argument("--name", help=f"builtin: {', '.join(sorted(BUILTIN_EXPERIMENTS))}")
    s.add_argument("--spec", help="experiment spec JSON (inline or path)")
    s.add_argument("--out", required=True)

    return ap


def _cmd_norm(args) -> int:
    space = _load_space(args.space)
    f = _load_poly(args.poly)
    print(f"norm_sq = {_fmt_scalar(norm_sq(space, f))}")
    return 0


def _cmd_ip(args) -> int:
    space = _load_space(args.space)
    val = inner_product(space, _load_poly(args.f), _load_poly(args.g))
    print(f"inner_product = {_fmt_scalar(val)}")
    return 0


def _cmd_approx(args) -> int:
    space = _load_space(args.space)
    f = _load_poly(args.f)
    g = _load_poly(args.g) if args.g else SparsePoly.one(space.d)
    res = optimal_approximant(assemble_gram(space, f, g, args.deg), method=args.method)
    print(f"dist_sq = {_fmt_scalar(res.dist_sq)}")
    print(f"basis size = {res.conditioning.full_unknowns}, factored = {res.conditioning.unknowns}, solve path = {res.conditioning.path}")
    if args.json_out:
        payload = {
            "degree": res.degree,
            "dist_sq": float(res.dist_sq),
            "approximant": poly_to_literal(res.polynomial(space.d)),
            "conditioning": dataclasses.asdict(res.conditioning),
        }
        write_json(args.json_out, payload)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_step(args) -> int:
    """profile, hc, member, certify dual and certify energy: the flags become
    a step spec for the shared runner."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and v is not None}
    for k in _JSON_PARAMS & params.keys():
        params[k] = _load_json_arg(params[k])
    if "degrees" in params:
        params["degrees"] = _parse_degrees(params["degrees"])
    result = run_step(ExperimentSpec(args.cmd, args.step_kind, _load_json_arg(args.space), params))
    if isinstance(result, Certificate):
        print(f"kind = {result.kind}")
        print(f"lower_bound = {result.lower_bound!r}")
        if args.out:
            write_json(args.out, result.to_json())
        path = args.out
    else:
        _print_rows(result)
        if args.csv:
            write_profile_csv(args.csv, result)
        path = args.csv
    if path:
        print(f"wrote {path}")
    return 0


def _cmd_embed(args) -> int:
    f = _load_poly(args.poly)
    if args.kind == "tkd":
        img = tau_compose(f, args.k, args.d)
    else:
        img = sum_squares_compose(f, args.k, args.d)
    lit = poly_to_literal(img)
    print(json.dumps(lit))
    if args.out:
        Path(args.out).write_text(json.dumps(lit, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_verify_lemma(args) -> int:
    report = verify_lemma(args.name, json_object(args.params, f"the params of {args.name}"))
    print(f"check = {report.name}")
    for key, val in report.margins.items():
        print(f"  {key} = {val}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_run(args) -> int:
    if bool(args.name) == bool(args.spec):
        raise ValueError("pass exactly one of --name or --spec")
    spec = args.name if args.name else ExperimentSpec.from_json(_load_json_arg(args.spec))
    report = run_experiment(spec, args.out)
    print(f"experiment = {report.name}")
    for key, val in report.outputs.items():
        print(f"  {key}: {val}")
    print(f"manifest: {report.manifest_path}")
    return 0


_DISPATCH = {
    "norm": _cmd_norm,
    "ip": _cmd_ip,
    "approx": _cmd_approx,
    "profile": _cmd_step,
    "hc": _cmd_step,
    "member": _cmd_step,
    "embed": _cmd_embed,
    "certify": _cmd_step,
    "verify-lemma": _cmd_verify_lemma,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _DISPATCH[args.cmd](args)
    except (ValueError, ArithmeticError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
