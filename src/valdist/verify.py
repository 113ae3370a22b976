"""Numerical verification of the growth and distribution theorems.

Each verifier evaluates a deviation (or slack) series over an increasing
r-grid and reduces it to a verdict: bounded deviations must stop drifting
over the tail of the grid, inequalities must hold up to an explicit
error-term allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nevanlinna
from .algebra import (
    INFINITY,
    Polynomial,
    RationalFunction,
    TargetValue,
    _zero_order,
    as_target,
    claim1_shape_check,
)
from .errors import ConstantFunction, ConstantPolynomial, DuplicateTargets, TooFewTargets
from .nevanlinna import (
    QuadratureConfig,
    _apoints,
    _grid_apoints,
    _m_series,
    _N_at,
    _t_series,
    _target_poly,
)

DRIFT_TOL = 1e-3
CLAIM1_DRIFT_TOL = 1e-2
# a fitted T(r) slope counts as an integer degree within this distance
DEGREE_SLOPE_TOL = 1e-3


def log_rgrid(rmin: float = 1.0, rmax: float = 1e4, points: int = 32):
    """Logarithmically spaced radii, the default grid of every verifier."""
    if not (rmin > 0 and rmax > rmin and points >= 2):
        raise ValueError("need rmin > 0, rmax > rmin, points >= 2")
    if not math.isfinite(rmax):
        raise ValueError("rmax must be finite")
    return _check_grid(np.geomspace(rmin, rmax, points))


@dataclass(frozen=True, slots=True)
class DeviationReport:
    """Deviation/slack series over an r-grid plus the pass/fail verdict.

    ``tail_drift`` is the largest |series(r) - series(r_max)| over the last
    half of the grid; ``sup_abs`` the largest |series(r)| overall.
    """

    theorem: str
    context: dict
    rgrid: tuple
    series: tuple
    sup_abs: float
    tail_drift: float
    verdict: bool
    params: dict
    components: dict = field(default_factory=dict)

    def to_json_dict(self):
        out = {
            "theorem": self.theorem,
            "context": self.context,
            "rgrid": list(self.rgrid),
            "series": list(self.series),
            "sup_abs": self.sup_abs,
            "tail_drift": self.tail_drift,
            "verdict": "pass" if self.verdict else "fail",
            "params": self.params,
        }
        if self.components:
            out["components"] = {k: list(v) for k, v in self.components.items()}
        return out


def _check_grid(rgrid, two_decades: bool = False):
    rgrid = [float(r) for r in rgrid]
    if len(rgrid) < 2:
        raise ValueError("rgrid needs at least two points")
    rgrid = nevanlinna._check_grid(rgrid)
    if two_decades and rgrid[-1] / rgrid[0] < 99.99:
        raise ValueError("rgrid must span at least two decades")
    return rgrid


def _grid_zeros(p: Polynomial):
    return _apoints(RationalFunction.from_polynomial(p), 0.0)


def _smt_allowance(c_s: float, r: float) -> float:
    """Error allowance c_s log(r + 2) + c_s of the second fundamental theorem."""
    return c_s * math.log(r + 2.0) + c_s


def _tail_drift(series) -> float:
    tail = series[len(series) // 2 :]
    last = series[-1]
    return max(abs(v - last) for v in tail)


def jensen_constant(f: RationalFunction, a) -> float:
    """log|c| for the leading Laurent coefficient c of f - a at the origin.

    c is the ratio of the lowest exactly nonzero coefficients of f - a's
    numerator and denominator, however small: the rule that counts the
    a-points at 0.
    """
    a = as_target(a)
    if a.is_infinite:
        raise ValueError("the Jensen constant is defined for finite targets")
    f = f.reduce()
    g, den = _target_poly(f, a), f.denominator
    return math.log(abs(g.coefficients[_zero_order(g)] / den.coefficients[_zero_order(den)]))


def verify_first_fundamental(
    f: RationalFunction, a, rgrid, cfg: QuadratureConfig | None = None
) -> DeviationReport:
    """Deviation [m(r,a) + N(r,a)] - T(r,f): bounded, eventually constant.

    The tail value of T - (m + N) is the empirical Jensen constant; the
    report carries it next to the analytic log|f(0) - a| (in its general
    lowest-coefficient form) and the gap between the two.
    """
    a = as_target(a)
    if a.is_infinite:
        raise ValueError("the infinite target is the identity case; pass a finite a")
    rgrid = _check_grid(rgrid)
    f = f.reduce()
    if f.is_constant:
        raise ConstantFunction("first-fundamental verification needs a non-constant f")
    pts = _grid_apoints(f, [a])
    t_vals = _t_series(f, rgrid, cfg, pts[INFINITY])
    m_vals = _m_series(f, a, rgrid, cfg)
    series = [m + _N_at(pts[a], r, False) - t for r, m, t in zip(rgrid, m_vals, t_vals)]
    sup_abs = max(abs(v) for v in series)
    drift = _tail_drift(series)
    analytic = jensen_constant(f, a)
    empirical = -series[-1]
    return DeviationReport(
        theorem="fft",
        context={"f": str(f), "a": a.label()},
        rgrid=tuple(rgrid),
        series=tuple(series),
        sup_abs=sup_abs,
        tail_drift=drift,
        verdict=bool(math.isfinite(sup_abs) and drift <= DRIFT_TOL),
        params={
            "drift_tol": DRIFT_TOL,
            "jensen_constant": analytic,
            "jensen_empirical": empirical,
            "jensen_gap": abs(empirical - analytic),
        },
    )


class DegreeFit(NamedTuple):
    slope: float
    intercept: float
    residual: float


def verify_degree_growth(p: Polynomial, rgrid, cfg: QuadratureConfig | None = None) -> DegreeFit:
    """Least-squares fit of T(r,p) against log r over the tail of the grid.

    The slope recovers the degree; the intercept is the bounded remainder.
    """
    if p.degree == 0:
        raise ConstantPolynomial("degree growth needs a non-constant polynomial")
    rgrid = _check_grid(rgrid, two_decades=True)
    # a polynomial has no poles, so T(r) is m(r, inf)
    t_vals = _t_series(RationalFunction.from_polynomial(p), rgrid, cfg, [])
    tail = len(rgrid) // 2
    x = np.log(np.asarray(rgrid[tail:]))
    y = np.asarray(t_vals[tail:])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(slope * x + intercept - y)))
    return DegreeFit(float(slope), float(intercept), residual)


def degree_verdict(slope: float, degree: int) -> tuple[int, bool]:
    """The rounded slope, and whether it is within DEGREE_SLOPE_TOL of ``degree``."""
    rounded = int(round(slope))
    return rounded, abs(slope - rounded) <= DEGREE_SLOPE_TOL and rounded == degree


def verify_second_fundamental(
    f: RationalFunction, targets, rgrid, cfg: QuadratureConfig | None = None
) -> DeviationReport:
    """Slack sum_j Nbar(r, a_j) - (q - 2) T(r, f) against the error allowance.

    Passes when the slack stays above -(c_s log(r+2) + c_s) on the whole
    grid, with c_s = 4 (q + deg numerator + deg denominator). For rational
    functions the error term is at worst logarithmic, so the allowance has
    no eps_s T(r) term; ``params`` records eps_s as 0.
    """
    targets = [as_target(a) for a in targets]
    q = len(targets)
    if q < 3:
        raise TooFewTargets(f"need at least 3 distinct targets, got {q}")
    for i in range(q):
        for j in range(i + 1, q):
            ti, tj = targets[i], targets[j]
            if ti.is_infinite and tj.is_infinite:
                raise DuplicateTargets("the point at infinity appears twice")
            if not ti.is_infinite and not tj.is_infinite:
                if abs(ti.value - tj.value) <= 1e-12 * max(1.0, abs(ti.value)):
                    raise DuplicateTargets(f"targets {ti.label()} and {tj.label()} coincide")
    rgrid = _check_grid(rgrid)
    f = f.reduce()
    if f.is_constant:
        raise ConstantFunction("second-fundamental verification needs a non-constant f")
    c_s = 4.0 * (q + f.numerator.degree + f.denominator.degree)
    pts = _grid_apoints(f, targets)
    t_vals = _t_series(f, rgrid, cfg, pts[INFINITY])
    series = []
    allowance = []
    for r, t_val in zip(rgrid, t_vals):
        nbar_sum = sum(_N_at(pts[a], r, True) for a in targets)
        series.append(nbar_sum - (q - 2) * t_val)
        allowance.append(_smt_allowance(c_s, r))
    verdict = all(s >= -b for s, b in zip(series, allowance))
    return DeviationReport(
        theorem="smt",
        context={"f": str(f), "targets": ",".join(a.label() for a in targets)},
        rgrid=tuple(rgrid),
        series=tuple(series),
        sup_abs=max(abs(v) for v in series),
        tail_drift=_tail_drift(series),
        verdict=bool(verdict),
        params={"q": q, "eps_s": 0.0, "c_s": c_s},
        components={"allowance": tuple(allowance)},
    )


def claim1_chain_report(
    q: Polynomial, rgrid, cfg: QuadratureConfig | None = None
) -> DeviationReport:
    """Measure every link of the restricted-shape chain on F = z^l R.

    series(r) = ((m-l+1)/m) T(r,F) + Nbar(r, -b_m; F) - T(r,F). Were q
    zero-free the middle term would vanish and the series would go
    negative; with the actual zeros present the verdict instead requires
    each component to match its closed form (stable drift) and the margin
    to be positive once r >= 10.
    """
    dec = claim1_shape_check(q)
    rgrid = _check_grid(rgrid)
    m, l = dec.m, dec.l
    ratio = (m - l + 1) / m
    f_big = RationalFunction.from_polynomial(dec.F)
    target, zero = TargetValue.finite(-dec.bm), TargetValue.finite(0.0)
    pts_f = _grid_apoints(f_big, [target, zero])
    pts_target, pts_zero_f, pts_inf = pts_f[target], pts_f[zero], pts_f[INFINITY]
    pts_zl = _grid_zeros(Polynomial([0j] * l + [1.0]))
    pts_r = _grid_zeros(dec.R)
    t_vals = _t_series(f_big, rgrid, cfg, pts_inf)

    series = []
    comp_t = []
    comp_zl = []
    comp_r = []
    comp_target = []
    comp_slack = []
    c_s = 4.0 * (3 + m)
    for r, t_val in zip(rgrid, t_vals):
        nbar_target = _N_at(pts_target, r, True)
        series.append(ratio * t_val + nbar_target - t_val)
        comp_t.append(t_val - m * math.log(r))
        comp_zl.append(_N_at(pts_zl, r, True) - math.log(r))
        comp_r.append(_N_at(pts_r, r, False) - (m - l) * math.log(r))
        comp_target.append(nbar_target)
        comp_slack.append(
            _N_at(pts_inf, r, True) + _N_at(pts_zero_f, r, True) + nbar_target - t_val
        )
    drifts = {
        "T_F_drift": _tail_drift(comp_t),
        "Nbar_zl_drift": _tail_drift(comp_zl),
        "N_R_drift": _tail_drift(comp_r),
    }
    margin_ok = all(s > 0 for r, s in zip(rgrid, series) if r >= 10.0)
    slack_ok = all(s >= -_smt_allowance(c_s, r) for r, s in zip(rgrid, comp_slack))
    verdict = margin_ok and slack_ok and all(d <= CLAIM1_DRIFT_TOL for d in drifts.values())
    return DeviationReport(
        theorem="claim1",
        context={"q": str(q)},
        rgrid=tuple(rgrid),
        series=tuple(series),
        sup_abs=max(abs(v) for v in series),
        tail_drift=_tail_drift(series),
        verdict=bool(verdict),
        params={
            "m": m,
            "l": l,
            "ratio": ratio,
            "drift_tol": CLAIM1_DRIFT_TOL,
            "c_s": c_s,
            **drifts,
        },
        components={
            "T_F_minus_m_logr": tuple(comp_t),
            "Nbar_zl_minus_logr": tuple(comp_zl),
            "N_R_minus_(m-l)_logr": tuple(comp_r),
            "Nbar_target": tuple(comp_target),
            "smt_slack_F": tuple(comp_slack),
        },
    )


def remark_fft_check(p: Polynomial, rgrid) -> DeviationReport:
    """N(r, 0; p) - deg(p) log r must flatten out.

    A zero-free polynomial would freeze N at zero while the characteristic
    keeps growing like deg log r, which is absurd; the check confirms the
    counting function carries the full degree growth.
    """
    if p.degree == 0:
        raise ConstantPolynomial("remark check needs a non-constant polynomial")
    rgrid = _check_grid(rgrid)
    pts = _grid_zeros(p)
    series = [_N_at(pts, r, False) - p.degree * math.log(r) for r in rgrid]
    drift = _tail_drift(series)
    return DeviationReport(
        theorem="remark",
        context={"p": str(p)},
        rgrid=tuple(rgrid),
        series=tuple(series),
        sup_abs=max(abs(v) for v in series),
        tail_drift=drift,
        verdict=bool(drift <= DRIFT_TOL),
        params={"drift_tol": DRIFT_TOL, "degree": p.degree},
    )
