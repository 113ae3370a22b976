"""Batch command line: profiles, theorem verification, root witnesses.

JSON in (polynomials as [[re, im], ...] ascending; rational functions as
{"numerator": ..., "denominator": ...}), CSV/JSON out. Exit codes: 0 on
pass, 1 on a failed verdict or computation failure, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import Polynomial, RationalFunction, parse_complex_literal
from .errors import (
    ConstantFunction,
    ConstantPolynomial,
    DegreeTooSmall,
    DuplicateTargets,
    FunctionIdenticallyA,
    IdenticallyZeroDenominator,
    LinearCoefficientNonzero,
    TooFewTargets,
    ValdistError,
)
from .localize import fta_witness
from .nevanlinna import QuadratureConfig, build_profile
from .verify import (
    claim1_chain_report,
    log_rgrid,
    remark_fft_check,
    verify_degree_growth,
    verify_first_fundamental,
    verify_second_fundamental,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# failures of these kinds mean the inputs were unusable, not that a
# computation went wrong
_INPUT_ERRORS = (
    ConstantFunction,
    ConstantPolynomial,
    DegreeTooSmall,
    DuplicateTargets,
    FunctionIdenticallyA,
    IdenticallyZeroDenominator,
    LinearCoefficientNonzero,
    TooFewTargets,
    ValueError,
)


class _UsageError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _load_function(path: str) -> RationalFunction:
    try:
        return RationalFunction.from_json(_load_json(path))
    except ValueError as exc:
        raise _UsageError(f"bad function file {path}: {exc}") from exc


def _load_polynomial(path: str) -> Polynomial:
    data = _load_json(path)
    try:
        if isinstance(data, dict):
            f = RationalFunction.from_json(data)
            if f.denominator.degree > 0:
                raise ValueError("a polynomial file must not carry a denominator")
            p = f.numerator * (1.0 / f.denominator.coefficients[0])
            return p
        return Polynomial.from_json(data)
    except ValueError as exc:
        raise _UsageError(f"bad polynomial file {path}: {exc}") from exc


def _parse_targets(spec: str):
    items = [s for s in (spec or "").split(",") if s.strip()]
    if not items:
        raise _UsageError("no target values given (use --a, e.g. '0,1,inf')")
    try:
        return [parse_complex_literal(s) for s in items]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _grid(args):
    try:
        return log_rgrid(args.rmin, args.rmax, args.points)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _emit_json(obj, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _profile_csv(profile) -> str:
    lines = ["r,n,nbar,N,Nbar,m,T"]
    for row in profile.rows:
        lines.append(
            f"{_fmt(row.r)},{row.n},{row.nbar},{_fmt(row.N)},"
            f"{_fmt(row.Nbar)},{_fmt(row.m)},{_fmt(row.T)}"
        )
    return "\n".join(lines) + "\n"


def _cmd_profile(args) -> int:
    f = _load_function(args.function)
    targets = _parse_targets(args.a)
    rgrid = _grid(args)
    cfg = QuadratureConfig(abs_tol=args.tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiles = build_profile(f, targets, rgrid, cfg, seed=args.seed)
    for profile in profiles:
        path = out_dir / f"profile_{profile.target.label()}.csv"
        path.write_text(_profile_csv(profile), encoding="utf-8", newline="\n")
        print(path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rgrid = _grid(args)
    cfg = QuadratureConfig(abs_tol=args.tol)
    name = args.theorem
    if name == "fft":
        if not args.function:
            raise _UsageError("verify fft needs --function")
        targets = _parse_targets(args.a)
        if len(targets) != 1 or targets[0].is_infinite:
            raise _UsageError("verify fft needs exactly one finite target in --a")
        report = verify_first_fundamental(
            _load_function(args.function), targets[0], rgrid, cfg, seed=args.seed
        )
    elif name == "smt":
        if not args.function:
            raise _UsageError("verify smt needs --function")
        targets = _parse_targets(args.a)
        report = verify_second_fundamental(
            _load_function(args.function), targets, rgrid, cfg, seed=args.seed
        )
    elif name == "degree":
        if not args.poly:
            raise _UsageError("verify degree needs --poly")
        p = _load_polynomial(args.poly)
        fit = verify_degree_growth(p, rgrid, cfg)
        rounded = int(round(fit.slope))
        verdict = abs(fit.slope - rounded) <= 1e-3 and rounded == p.degree
        _emit_json(
            {
                "theorem": "degree",
                "context": {"p": str(p)},
                "slope": fit.slope,
                "rounded_degree": rounded,
                "intercept": fit.intercept,
                "residual": fit.residual,
                "verdict": "pass" if verdict else "fail",
                "params": {"rmin": args.rmin, "rmax": args.rmax, "points": args.points},
            },
            args.out,
        )
        return EXIT_OK if verdict else EXIT_FAIL
    elif name == "claim1":
        if not args.poly:
            raise _UsageError("verify claim1 needs --poly")
        report = claim1_chain_report(_load_polynomial(args.poly), rgrid, cfg, seed=args.seed)
    elif name == "remark":
        if not args.poly:
            raise _UsageError("verify remark needs --poly")
        report = remark_fft_check(_load_polynomial(args.poly), rgrid, cfg, seed=args.seed)
    else:  # argparse choices make this unreachable
        raise _UsageError(f"unknown theorem {name!r}")
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK if report.verdict else EXIT_FAIL


def _cmd_fta_witness(args) -> int:
    p = _load_polynomial(args.poly)
    trace = fta_witness(p, args.tol, seed=args.seed)
    scale = p.coefficient_scale
    levels = []
    for lv in trace.claim1_checks:
        entry = {
            "kind": lv.kind,
            "shift": [lv.shift.real, lv.shift.imag],
            "linear_ratio": lv.linear_ratio,
        }
        if lv.decomposition is not None:
            dec = lv.decomposition
            entry["decomposition"] = {
                "m": dec.m,
                "l": dec.l,
                "b0": [dec.b0.real, dec.b0.imag],
                "bm": [dec.bm.real, dec.bm.imag],
            }
        levels.append(entry)
    ok = trace.residual <= args.tol * scale
    _emit_json(
        {
            "witness": [trace.witness.real, trace.witness.imag],
            "residual": trace.residual,
            "depth": trace.depth,
            "shifts": [[h.real, h.imag] for h in trace.shifts],
            "levels": levels,
            "tol": args.tol,
            "coefficient_scale": scale,
            "verdict": "pass" if ok else "fail",
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_FAIL


def _add_common(parser, *, tol_default, tol_help):
    parser.add_argument("--rmin", type=float, default=1.0, help="smallest grid radius")
    parser.add_argument("--rmax", type=float, default=1e4, help="largest grid radius")
    parser.add_argument("--points", type=int, default=32, help="log-spaced grid size")
    parser.add_argument("--tol", type=float, default=tol_default, help=tol_help)
    parser.add_argument("--seed", type=int, default=0, help="seed for contour perturbations")
    parser.add_argument("--out", default=None, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valdist",
        description="Value-distribution profiles, theorem verification, and root witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prof = sub.add_parser("profile", help="tabulate n, N, Nbar, m, T per target")
    p_prof.add_argument("--function", required=True, help="rational function JSON file")
    p_prof.add_argument("--a", required=True, help="comma list of targets, e.g. '0,1+2i,inf'")
    _add_common(p_prof, tol_default=1e-9, tol_help="quadrature absolute tolerance")
    p_prof.set_defaults(func=_cmd_profile)

    p_ver = sub.add_parser("verify", help="run one theorem verifier")
    p_ver.add_argument("theorem", choices=["fft", "smt", "degree", "claim1", "remark"])
    p_ver.add_argument("--function", help="rational function JSON file")
    p_ver.add_argument("--poly", help="polynomial JSON file")
    p_ver.add_argument("--a", default="", help="target list (fft: one finite; smt: >= 3)")
    _add_common(p_ver, tol_default=1e-9, tol_help="quadrature absolute tolerance")
    p_ver.set_defaults(func=_cmd_verify)

    p_fta = sub.add_parser("fta-witness", help="produce a root witness with trace")
    p_fta.add_argument("--poly", required=True, help="polynomial JSON file")
    _add_common(p_fta, tol_default=1e-10, tol_help="residual tolerance (x coefficient scale)")
    p_fta.set_defaults(func=_cmd_fta_witness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValdistError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
