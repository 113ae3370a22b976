"""Counting, proximity, and characteristic functions over r-grids.

The integrated counting function N(r, a) is a closed-form sum over the
enumerated a-points. ``counting_N_integral`` reads no a-point: by
Jensen's formula it is m(r, inf; g) - m(r, 0; g) - log|c_k|, c_k the
lowest exactly nonzero coefficient of g = num - a den, so it checks the
enumeration as well as the sum. It counts multiplicity, so its
``reduced=True`` is the closed form, and a multiple a-point on |z| = r
raises QuadratureNotConverged. The proximity function is adaptive
quadrature of log+ |g| on the circle, cross-checked by exact Jensen
identities in the test-suite.

Every n(r, a), N(r, a) and pole term of T(r) is a filter by |z| of one
a-point set per (f, target): ``_apoints`` localizes every root of
g = num - a den once, so the set is a function of g's coefficients alone
and no radius shapes the search. The a-points at the origin are read
from g's exactly zero low coefficients, with no search; an a-point is at
the origin exactly when its centre is 0, and enters N only by the count
n(0, a). The other roots are localized in a box around the Cauchy disk
of g with z^n(0, a) divided out.

Each m(r, a), and with it T(r), is computed once per (g, radius,
tolerance): a bounded memo in the algebra layer (256 entries, oldest out
first) keys each row on the bytes of the reduced g's numerator and
denominator coefficients and of ``abs_tol``, and on the radius, so a
series integrates only the radii it has no row for. The companion-matrix
root hints are memoized in the same way, keyed on the bytes of the
polynomial's coefficients. A-point enumerations are not memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    INFINITY,
    Polynomial,
    RationalFunction,
    SAME_POINT_REL,
    TargetValue,
    _coefficient_bytes,
    _memo_rows,
    _positive_finite,
    _roots_hint,
    _zero_order,
    as_target,
)
from .errors import BoundaryCoincidence, ConstantFunction, FunctionIdenticallyA, QuadratureNotConverged
from .localize import _all_roots, _merge_pairs
from .quadrature import integrate_rows

# relative half-width of the guard band around the counting circle
BOUNDARY_GUARD_REL = 1e-12
# roots within this relative distance of the circle |z| = r get a ladder
# of quadrature knots around their angle
SINGULARITY_BAND_REL = 1e-6
NUDGE_FACTOR = 1.0 + 1e-9


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9

    def __post_init__(self):
        _positive_finite(self.abs_tol, "abs_tol")


DEFAULT_QUADRATURE = QuadratureConfig()


def _target_poly(f: RationalFunction, a: TargetValue) -> Polynomial:
    """Polynomial whose roots are the a-points of f (poles for a = inf)."""
    if a.is_infinite:
        return f.denominator
    g = f.numerator - a.value * f.denominator
    if g.is_zero:
        raise FunctionIdenticallyA(f"function is identically {a.label()}")
    return g


@dataclass(frozen=True, slots=True)
class _APoint:
    z: complex
    modulus: float
    multiplicity: int
    # half-width of the a-point's guard band, from its enclosure radius; it
    # decides the guard band only: an a-point is at the origin when z is 0
    guard: float


def _apoints(f: RationalFunction, a):
    """Every certified a-point of the reduced f, coalesced into distinct points.

    The one enumeration: it depends on f and the target alone, and each
    consumer filters its points by |z|. Every root of g = num - a den is
    localized by ``localize._all_roots`` at the relative tolerance 1e-10,
    that is at 1e-10 max(1, F), F Fujiwara's bound. Its k exactly zero
    low coefficients give the point z = 0 of multiplicity k without a
    search, and the descent runs on g / z^k alone.
    """
    g = _target_poly(f.reduce(), as_target(a))
    if g.degree == 0:
        return []
    encs = _all_roots(g, 1e-10)

    # coalesce clusters that are one geometric point at desk resolution
    def close(p1, p2):
        return abs(p1[0] - p2[0]) <= SAME_POINT_REL * max(1.0, abs(p1[0]))

    def join(p1, p2):
        (z1, m1, g1), (z2, m2, g2) = p1, p2
        # a cluster that takes in the origin read's exact 0 stays there
        z = 0j if z1 == 0 or z2 == 0 else (z1 * m1 + z2 * m2) / (m1 + m2)
        return z, m1 + m2, max(g1, g2, abs(z1 - z2))

    pts = _merge_pairs([(e.center, e.multiplicity, e.radius) for e in encs], close, join)
    pts.sort(key=lambda t: (t[0].real, t[0].imag))
    return [_APoint(z, abs(z), m, g) for z, m, g in pts]


def _guard_hit(pts, r: float) -> bool:
    # no a-point lies on the circle of an infinite radius
    return math.isfinite(r) and any(abs(p.modulus - r) <= max(BOUNDARY_GUARD_REL * r, p.guard) for p in pts)


def _count_at(pts, r: float, reduced: bool) -> int:
    inside = [p for p in pts if p.modulus < r]
    return len(inside) if reduced else sum(p.multiplicity for p in inside)


def _N_at(pts, r: float, reduced: bool) -> float:
    total = 0.0
    n0 = 0
    for p in pts:
        w = 1 if reduced else p.multiplicity
        if p.z == 0:
            n0 += w
        elif p.modulus < r:
            total += w * math.log(r / p.modulus)
    return total + n0 * math.log(r)


def enumerate_a_points(f: RationalFunction, a, radius: float):
    """Certified a-points of f with |z| < radius, as (point, multiplicity).

    They are the points of the one enumeration of f and a (``_apoints``)
    inside the circle, so an a-point on the circle |z| = radius does not
    stop the enumeration; one in its guard band raises
    BoundaryCoincidence. An infinite radius takes every a-point.
    ``count_n`` counts these points.
    """
    if not radius > 0:
        raise ValueError("r must be positive")
    pts = _apoints(f, a)
    if _guard_hit(pts, radius):
        raise BoundaryCoincidence(f"an a-point sits in the guard band of |z| = {radius:g}")
    return [(p.z, p.multiplicity) for p in pts if p.modulus < radius]


def count_n(f: RationalFunction, a, r: float, reduced: bool = False) -> int:
    """Number of a-points in |z| < r (distinct points when ``reduced``)."""
    pts = enumerate_a_points(f, a, r)
    return len(pts) if reduced else sum(m for _, m in pts)


def counting_N(f: RationalFunction, a, r: float, reduced: bool = False) -> float:
    """Integrated counting function, evaluated by the closed-form sum.

    The t-integral of the step count integrates exactly to
    sum_j w_j log(r/|z_j|) over 0 < |z_j| < r plus n(0) log r.
    """
    _positive_finite(r, "r")
    return _N_at(_apoints(f, a), r, reduced)


def counting_N_integral(
    f: RationalFunction,
    a,
    r: float,
    cfg: QuadratureConfig | None = None,
    reduced: bool = False,
) -> float:
    """N(r, a) by Jensen's formula, from g = num - a den and no a-point.

    N(r, a) = m(r, inf; g) - m(r, 0; g) - log|c_k|, c_k the lowest exactly
    nonzero coefficient of g: the first two terms are the mean of log|g|
    on |z| = r, each a quadrature to ``cfg.abs_tol``. A multiple a-point
    on the circle leaves that mean's integrand not finite there, and it
    raises QuadratureNotConverged. Jensen's formula counts multiplicity,
    so ``reduced=True`` has no such form and returns ``counting_N``'s
    closed-form sum.
    """
    _positive_finite(r, "r")
    if reduced:
        return counting_N(f, a, r, reduced=True)
    g = _target_poly(f.reduce(), as_target(a))
    G = RationalFunction.from_polynomial(g)
    m_inf, m_0 = (_m_series(G, t, [r], cfg)[0] for t in (INFINITY, as_target(0)))
    return m_inf - m_0 - math.log(abs(g.coefficients[_zero_order(g)]))


def _singularity_knots(r: float, roots):
    """Geometric ladder of angles around roots that hug the circle |z| = r."""
    knots = []
    tau = 2.0 * math.pi
    for z in roots:
        z = complex(z)
        d_rel = abs(abs(z) - r) / r
        if d_rel > SINGULARITY_BAND_REL:
            continue
        theta = math.atan2(z.imag, z.real) % tau
        knots.append(theta)
        w = max(d_rel, 1e-13)
        while w < 0.5:
            knots.append((theta - w) % tau)
            knots.append((theta + w) % tau)
            w *= 4.0
    return knots


def _log_plus(gn: Polynomial, gd: Polynomial, r, theta, tries: int = 0):
    """log+ |gn / gd| at r e^(i theta), the angles shifted by tries * 3e-13.

    ``r`` holds one radius per angle. A sample on a log pole (an a-point on
    a sample angle) is retried one step further off its original angle, at
    most four times; a value still not finite after that is returned as is.
    A side that is exactly 1 (gd of a polynomial for a = inf, gn of a
    polynomial for a finite a) is not evaluated: log|1| is 0.0, so
    log|gn| - 0.0 is log|gn| and 0.0 - log|gd| is kept as a subtraction,
    which gives the same bits as evaluating it, the sign of a zero included.
    """
    z = r * np.exp(1j * (theta + tries * 3e-13 if tries else theta))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if gd.coefficients == (1,):
            v = np.log(np.abs(gn.eval_many(z)))
        else:
            log_gn = 0.0 if gn.coefficients == (1,) else np.log(np.abs(gn.eval_many(z)))
            v = log_gn - np.log(np.abs(gd.eval_many(z)))
        v = np.maximum(v, 0.0)
    bad = ~np.isfinite(v)
    if tries < 4 and np.any(bad):
        v[bad] = _log_plus(gn, gd, r[bad], theta[bad], tries + 1)
    return v


def _m_series(f: RationalFunction, a: TargetValue, radii, cfg) -> list:
    """m(r, a) at each radius, memoized per (g, radius, tolerance).

    The radii with no row in the memo are integrated in one quadrature; a
    row does not depend on the rows it is integrated with, so a hit
    returns exactly what the quadrature would. Each key holds the bytes of
    everything else the quadrature reads. g and its root hints are built
    once.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    f = f.reduce()
    gn, gd = (f.numerator, f.denominator) if a.is_infinite else (f.denominator, _target_poly(f, a))
    r_row = np.asarray(radii, dtype=float)
    abs_tol = float(cfg.abs_tol)
    head = ("m", _coefficient_bytes(gn), _coefficient_bytes(gd), abs_tol.hex())
    # every radius here passed _positive_finite or _check_grid: a positive,
    # finite float, for which == is bit equality, so it keys as it is
    keys = [(*head, r) for r in r_row.tolist()]

    def rows(missing):
        r_miss = r_row[missing]
        hints = _roots_hint(gd) + _roots_hint(gn)
        tau = 2.0 * math.pi
        # the Simpson error estimator can be optimistic at log+ kinks, so aim
        # an order below the promised tolerance
        tol = abs_tol * tau / 16.0
        knots = [_singularity_knots(r, hints) for r in r_miss.tolist()]
        integrals = integrate_rows(
            lambda theta, row: _log_plus(gn, gd, r_miss[row], theta), 0.0, tau, abs_tol=tol, knots=knots
        )
        if any(math.isnan(t) for t in integrals):
            raise QuadratureNotConverged("integrand not finite on the circle")
        return [max(t / tau, 0.0) for t in integrals]

    return _memo_rows(keys, rows)


def proximity_m(f: RationalFunction, a, r: float, cfg: QuadratureConfig | None = None) -> float:
    """Mean of log+ |g| on the circle |z| = r, g = f (a = inf) or 1/(f - a)."""
    a = as_target(a)
    _positive_finite(r, "r")
    return _m_series(f, a, [r], cfg)[0]


def _t_series(f: RationalFunction, radii, cfg, pts_inf) -> list:
    """T(r) = m(r, inf) + N(r, inf) at each radius, from the enumerated poles."""
    return [m + _N_at(pts_inf, r, False) for r, m in zip(radii, _m_series(f, INFINITY, radii, cfg))]


def characteristic_T(f: RationalFunction, r: float, cfg: QuadratureConfig | None = None) -> float:
    """Growth gauge: proximity to infinity plus integrated pole count."""
    _positive_finite(r, "r")
    f = f.reduce()
    if f.is_constant:
        raise ConstantFunction("the characteristic needs a non-constant function")
    return _t_series(f, [r], cfg, _apoints(f, INFINITY))[0]


def _check_grid(rgrid) -> list:
    """Grid radii as floats: at least one, all positive and finite, strictly increasing."""
    rgrid = [float(r) for r in rgrid]
    if not rgrid:
        raise ValueError("rgrid needs at least one radius")
    if any(not r > 0 for r in rgrid):
        raise ValueError("rgrid radii must be positive")
    if any(lo >= hi for lo, hi in zip(rgrid, rgrid[1:])):
        raise ValueError("rgrid must be strictly increasing")
    # an increasing grid can be infinite only at its top
    if not math.isfinite(rgrid[-1]):
        raise ValueError("rgrid radii must be finite")
    return rgrid


def _grid_apoints(f: RationalFunction, targets) -> dict:
    """The a-points of each target and of infinity, one enumeration each."""
    return {a: _apoints(f, a) for a in dict.fromkeys([*targets, INFINITY])}


@dataclass(frozen=True, slots=True)
class ProfileRow:
    r: float
    n: int
    nbar: int
    N: float
    Nbar: float
    m: float
    T: float


@dataclass(frozen=True, slots=True)
class NevanlinnaProfile:
    """Tabulated distribution data for one target over an increasing r-grid."""

    target: TargetValue
    rows: tuple
    nudges: tuple  # (requested r, used r) pairs for boundary-coincident rows


def build_profile(f: RationalFunction, targets, rgrid, cfg: QuadratureConfig | None = None):
    """One profile per target; each target's a-points are enumerated once.

    Grid radii that put an a-point in the guard band are nudged upward by
    a factor of (1 + 1e-9) until clear, and the nudge is recorded.
    """
    targets = [as_target(a) for a in targets]
    if not targets:
        return []
    rgrid = _check_grid(rgrid)
    f = f.reduce()
    if f.is_constant:
        raise ConstantFunction("profiles need a non-constant function")
    cache = _grid_apoints(f, targets)

    used_r = []
    nudges = []
    for r_req, r_next in zip(rgrid, rgrid[1:] + [math.inf]):
        r = r_req
        for _ in range(200):
            if not any(_guard_hit(cache[a], r) for a in cache):
                break
            r *= NUDGE_FACTOR
        else:
            raise BoundaryCoincidence(f"could not nudge r = {r_req:g} clear of a-points")
        if r >= r_next:
            raise BoundaryCoincidence(f"nudged r = {r_req!r} reaches the next radius {r_next!r}")
        if r != r_req:
            nudges.append((r_req, r))
        used_r.append(r)

    t_values = _t_series(f, used_r, cfg, cache[INFINITY])

    profiles = []
    for a in targets:
        pts = cache[a]
        m_values = _m_series(f, a, used_r, cfg)
        rows = [
            ProfileRow(
                r=r,
                n=_count_at(pts, r, False),
                nbar=_count_at(pts, r, True),
                N=_N_at(pts, r, False),
                Nbar=_N_at(pts, r, True),
                m=m_val,
                T=t_val,
            )
            for r, t_val, m_val in zip(used_r, t_values, m_values)
        ]
        profiles.append(NevanlinnaProfile(target=a, rows=tuple(rows), nudges=tuple(nudges)))
    return profiles
