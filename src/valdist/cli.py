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

import numpy as np

from .algebra import Polynomial, RationalFunction, _positive_finite, parse_complex_literal
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
    _check_grid,
    claim1_chain_report,
    degree_verdict,
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
            return f.numerator * (1.0 / f.denominator.coefficients[0])
        return Polynomial.from_json(data)
    except ValueError as exc:
        raise _UsageError(f"bad polynomial file {path}: {exc}") from exc


def _parse_targets(spec: str):
    items = [s for s in (spec or "").split(",") if s.strip()]
    if not items:
        raise _UsageError("no target values given (use --a, e.g. '0,1,inf')")
    return _checked(lambda: [parse_complex_literal(s) for s in items])


def _checked(check, *args, **kwargs):
    """check(...), with the ValueError of a library input check as a usage error."""
    try:
        return check(*args, **kwargs)
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
    rgrid = _checked(log_rgrid, args.rmin, args.rmax, args.points)
    cfg = _checked(QuadratureConfig, args.tol)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiles = build_profile(f, targets, rgrid, cfg)
    for profile in profiles:
        path = out_dir / f"profile_{profile.target.label()}.csv"
        path.write_text(_profile_csv(profile), encoding="utf-8", newline="\n")
        print(path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rgrid = _checked(log_rgrid, args.rmin, args.rmax, args.points)
    name = args.theorem
    # remark reads no quadrature tolerance
    cfg = None if name == "remark" else _checked(QuadratureConfig, args.tol)
    if name == "fft":
        targets = _parse_targets(args.a)
        if len(targets) != 1 or targets[0].is_infinite:
            raise _UsageError("verify fft needs exactly one finite target in --a")
        f = _load_function(args.function)
        report = verify_first_fundamental(f, targets[0], rgrid, cfg)
    elif name == "smt":
        targets = _parse_targets(args.a)
        f = _load_function(args.function)
        report = verify_second_fundamental(f, targets, rgrid, cfg)
    elif name == "degree":
        p = _load_polynomial(args.poly)
        fit = verify_degree_growth(p, _checked(_check_grid, rgrid, two_decades=True), cfg)
        rounded, verdict = degree_verdict(fit.slope, p.degree)
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
        report = claim1_chain_report(_load_polynomial(args.poly), rgrid, cfg)
    else:
        report = remark_fft_check(_load_polynomial(args.poly), rgrid)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK if report.verdict else EXIT_FAIL


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _cmd_fta_witness(args) -> int:
    p = _load_polynomial(args.poly)
    _checked(_positive_finite, args.tol, "tol")
    trace = fta_witness(p, args.tol)
    levels = []
    for lv in trace.claim1_checks:
        entry = {"kind": lv.kind, "shift": _pair(lv.shift), "linear_ratio": lv.linear_ratio}
        if (dec := lv.decomposition) is not None:
            b0, bm = _pair(dec.b0), _pair(dec.bm)
            entry["decomposition"] = {"m": dec.m, "l": dec.l, "b0": b0, "bm": bm}
        levels.append(entry)
    _emit_json(
        {
            "witness": _pair(trace.witness),
            "residual": trace.residual,
            "depth": trace.depth,
            "shifts": [_pair(h) for h in trace.shifts],
            "levels": levels,
            "tol": args.tol,
            "coefficient_scale": p.coefficient_scale,
            # fta_witness raises unless the residual is within tol x scale
            "verdict": "pass",
        },
        args.out,
    )
    return EXIT_OK


# every option a command may take; each command declares the ones it reads
_OPTIONS = {
    "--function": dict(required=True, help="rational function JSON file"),
    "--poly": dict(required=True, help="polynomial JSON file"),
    "--a": dict(required=True, help="comma list of targets, e.g. '0,1+2i,inf'"),
    "--rmin": dict(type=float, default=1.0, help="smallest grid radius"),
    "--rmax": dict(type=float, default=1e4, help="largest grid radius"),
    "--points": dict(type=int, default=32, help="log-spaced grid size"),
    "--tol": dict(type=float, default=1e-9, help="quadrature absolute tolerance"),
    "--out": dict(default=None, help="output path"),
}
_FUNCTION_FLAGS = "--function --a --rmin --rmax --points --tol --out"


def _add_command(sub, name, func, flags, summary, **overrides):
    parser = sub.add_parser(name, help=summary)
    for flag in flags.split():
        parser.add_argument(flag, **{**_OPTIONS[flag], **overrides.get(flag[2:], {})})
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valdist",
        description="Value-distribution profiles, theorem verification, and root witnesses",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(
        sub, "profile", _cmd_profile, _FUNCTION_FLAGS, "tabulate n, N, Nbar, m, T per target"
    )
    verify = sub.add_parser("verify", help="run one theorem verifier")
    theorems = verify.add_subparsers(dest="theorem", required=True)
    for name, flags, summary in (
        ("fft", _FUNCTION_FLAGS, "first fundamental theorem at one finite target"),
        ("smt", _FUNCTION_FLAGS, "second fundamental theorem at three or more targets"),
        ("degree", "--poly --rmin --rmax --points --tol --out", "degree from the growth of T"),
        ("claim1", "--poly --rmin --rmax --points --tol --out", "restricted-shape chain"),
        ("remark", "--poly --rmin --rmax --points --out", "N(r,0) grows like deg log r"),
    ):
        _add_command(theorems, name, _cmd_verify, flags, summary)
    _add_command(
        sub, "fta-witness", _cmd_fta_witness, "--poly --tol --out",
        "produce a root witness with trace",
        tol=dict(default=1e-10, help="residual tolerance (x coefficient scale)"),
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow surfaces as a valdist error or a result; numpy's warnings only crowd stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (_UsageError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValdistError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
