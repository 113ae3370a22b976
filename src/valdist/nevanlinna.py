"""Counting, proximity, and characteristic functions over r-grids.

Two independent numerical routes back each quantity: the integrated
counting function comes from a closed-form sum over enumerated a-points
and, separately, from numeric integration of the defining t-integral;
the proximity function is adaptive quadrature of log+ |g| on the circle,
cross-checked by exact Jensen identities in the test-suite.

Each m(r, a) series, and with it T(r), is computed once per (g, grid,
tolerance): a bounded memo in the algebra layer (64 entries, oldest out
first) keys it on the bytes of the reduced g's numerator and
denominator coefficients, of the radii as float64 and of ``abs_tol``. The
companion-matrix root hints are memoized in the same way, keyed on the
bytes of the polynomial's coefficients. A-point enumerations are not
memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    INFINITY,
    Polynomial,
    RationalFunction,
    TargetValue,
    _coefficient_bytes,
    _memo,
    _roots_hint,
    as_target,
)
from .errors import (
    BoundaryCoincidence,
    ConstantFunction,
    FunctionIdenticallyA,
    QuadratureNotConverged,
    RootOnBoundary,
)
from .localize import Disk, _cauchy_radius, _merge_pairs, localize_roots
from .quadrature import adaptive_simpson, integrate_rows

# relative half-width of the guard band around the counting circle
BOUNDARY_GUARD_REL = 1e-12
# roots within this relative distance of the circle |z| = r get a ladder
# of quadrature knots around their angle
SINGULARITY_BAND_REL = 1e-6
NUDGE_FACTOR = 1.0 + 1e-9
# a-points closer than this (relative) are one geometric point for the
# reduced counts; matches the cancellation tolerance of the algebra layer
COALESCE_REL = 1e-8


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-9

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


def _reduced(f: RationalFunction) -> RationalFunction:
    return f if f.reduced else f.reduce()


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
    guard: float  # classification slack inherited from the enclosure radius


def _apoints(f: RationalFunction, a: TargetValue, radius: float, seed: int = 0):
    """Certified a-points within |z| < radius, coalesced into distinct points."""
    f = _reduced(f)
    g = _target_poly(f, a)
    if g.degree == 0:
        return []
    # every root lies inside the Cauchy disk, so clip huge requests to it
    radius_eff = min(radius, _cauchy_radius(g) * (1.0 + 1e-6))
    tol = 1e-10 * max(1.0, radius_eff)
    encs = localize_roots(g, Disk(0j, radius_eff), tol, seed=seed)

    # coalesce clusters that are one geometric point at desk resolution
    def close(p1, p2):
        return abs(p1[0] - p2[0]) <= COALESCE_REL * max(1.0, abs(p1[0]))

    def join(p1, p2):
        (z1, m1, g1), (z2, m2, g2) = p1, p2
        return (z1 * m1 + z2 * m2) / (m1 + m2), m1 + m2, max(g1, g2, abs(z1 - z2))

    pts = _merge_pairs([(e.center, e.multiplicity, e.radius) for e in encs], close, join)
    pts.sort(key=lambda t: (t[0].real, t[0].imag))
    # boundary-inflation retries may have let the contour creep past the
    # requested radius; keep the stated open-disk contract
    return [_APoint(z, abs(z), m, g) for z, m, g in pts if abs(z) < radius]


def enumerate_a_points(f: RationalFunction, a, radius: float, *, seed: int = 0):
    """Certified a-points of f with |z| < radius, as (point, multiplicity)."""
    return [(p.z, p.multiplicity) for p in _apoints(f, as_target(a), radius, seed=seed)]


def _guard_hit(pts, r: float) -> bool:
    return any(abs(p.modulus - r) <= max(BOUNDARY_GUARD_REL * r, p.guard) for p in pts)


def _count_at(pts, r: float, reduced: bool) -> int:
    inside = [p for p in pts if p.modulus < r]
    return len(inside) if reduced else sum(p.multiplicity for p in inside)


def _at_origin(p: _APoint) -> bool:
    return p.modulus <= p.guard


def _origin_weight(pts, reduced: bool) -> int:
    for p in pts:
        if _at_origin(p):
            return 1 if reduced else p.multiplicity
    return 0


def _N_at(pts, r: float, reduced: bool) -> float:
    total = 0.0
    n0 = 0
    for p in pts:
        w = 1 if reduced else p.multiplicity
        if _at_origin(p):
            n0 += w
        elif p.modulus < r:
            total += w * math.log(r / p.modulus)
    return total + n0 * math.log(r)


def _points_past(f: RationalFunction, a, r: float, seed: int):
    """Enumerate a-points on a disk slightly larger than r.

    The margin keeps the enumeration contour clear of a-points that sit on
    (or near) |z| = r itself; successive bumps dodge moduli that happen to
    land on the enlarged circle instead.
    """
    a = as_target(a)
    if not r > 0:
        raise ValueError("r must be positive")
    f = _reduced(f)
    last = None
    for bump in (2e-3, 3.4e-3, 5.9e-3, 9.7e-3):
        try:
            return _apoints(f, a, r * (1.0 + bump), seed=seed)
        except RootOnBoundary as exc:
            last = exc
    raise last


def count_n(f: RationalFunction, a, r: float, reduced: bool = False, *, seed: int = 0) -> int:
    """Number of a-points in |z| < r (distinct points when ``reduced``)."""
    pts = _points_past(f, a, r, seed)
    if _guard_hit(pts, r):
        raise BoundaryCoincidence(f"an a-point sits in the guard band of |z| = {r:g}")
    return _count_at(pts, r, reduced)


def counting_N(f: RationalFunction, a, r: float, reduced: bool = False, *, seed: int = 0) -> float:
    """Integrated counting function, evaluated by the closed-form sum.

    The t-integral of the step count integrates exactly to
    sum_j w_j log(r/|z_j|) over 0 < |z_j| < r plus n(0) log r.
    """
    return _N_at(_points_past(f, a, r, seed), r, reduced)


def counting_N_integral(
    f: RationalFunction,
    a,
    r: float,
    cfg: QuadratureConfig | None = None,
    reduced: bool = False,
    *,
    seed: int = 0,
) -> float:
    """Independent route: numeric integration of (n(t) - n(0))/t over (0, r]."""
    pts = _points_past(f, a, r, seed)
    cfg = cfg or DEFAULT_QUADRATURE
    n0 = _origin_weight(pts, reduced)
    steps = sorted((p.modulus, 1 if reduced else p.multiplicity) for p in pts if not _at_origin(p))
    moduli = np.array([mdl for mdl, _ in steps], dtype=float)
    weights = np.array([w for _, w in steps], dtype=float)
    cum = np.concatenate([[0.0], np.cumsum(weights)])

    def step_over_t(t):
        t = np.asarray(t, dtype=float)
        counts = cum[np.searchsorted(moduli, t, side="left")]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t > 0.0, counts / t, 0.0)

    knots = []
    for mdl in moduli:
        if mdl < r:
            off = max(1e-13 * mdl, 256.0 * np.finfo(float).eps * r)
            knots.extend([mdl - off, mdl + off])
    integral = adaptive_simpson(step_over_t, 0.0, r, abs_tol=cfg.abs_tol, knots=knots)
    return integral + n0 * math.log(r)


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
    """
    z = r * np.exp(1j * (theta + tries * 3e-13 if tries else theta))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.maximum(np.log(np.abs(gn.eval_many(z))) - np.log(np.abs(gd.eval_many(z))), 0.0)
    bad = ~np.isfinite(v)
    if tries < 4 and np.any(bad):
        v[bad] = _log_plus(gn, gd, r[bad], theta[bad], tries + 1)
    return v


def _m_series(f: RationalFunction, a: TargetValue, radii, cfg) -> list:
    """m(r, a) at each radius, all radii in one quadrature, memoized per (g, grid, tolerance).

    The key holds the bytes of everything the quadrature reads, so a hit
    returns exactly what it would. g and its root hints are built once.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    f = _reduced(f)
    gn, gd = (f.numerator, f.denominator) if a.is_infinite else (f.denominator, _target_poly(f, a))
    r_row = np.asarray(radii, dtype=float)
    abs_tol = float(cfg.abs_tol)
    key = ("m", _coefficient_bytes(gn), _coefficient_bytes(gd), r_row.tobytes(), abs_tol.hex())

    def series():
        hints = _roots_hint(gd) + _roots_hint(gn)
        tau = 2.0 * math.pi
        # the Simpson error estimator can be optimistic at log+ kinks, so aim
        # an order below the promised tolerance
        tol = abs_tol * tau / 16.0
        knots = [_singularity_knots(r, hints) for r in r_row.tolist()]
        integrals = integrate_rows(
            lambda theta, row: _log_plus(gn, gd, r_row[row], theta), 0.0, tau, abs_tol=tol, knots=knots
        )
        if any(math.isnan(t) for t in integrals):
            raise QuadratureNotConverged("integrand not finite on the circle")
        return [max(t / tau, 0.0) for t in integrals]

    return _memo(key, series)


def proximity_m(f: RationalFunction, a, r: float, cfg: QuadratureConfig | None = None) -> float:
    """Mean of log+ |g| on the circle |z| = r, g = f (a = inf) or 1/(f - a)."""
    a = as_target(a)
    if not r > 0:
        raise ValueError("r must be positive")
    return _m_series(f, a, [r], cfg)[0]


def _t_series(f: RationalFunction, radii, cfg, pts_inf) -> list:
    """T(r) = m(r, inf) + N(r, inf) at each radius, from the enumerated poles."""
    return [m + _N_at(pts_inf, r, False) for r, m in zip(radii, _m_series(f, INFINITY, radii, cfg))]


def characteristic_T(
    f: RationalFunction, r: float, cfg: QuadratureConfig | None = None, *, seed: int = 0
) -> float:
    """Growth gauge: proximity to infinity plus integrated pole count."""
    f = _reduced(f)
    if f.is_constant:
        raise ConstantFunction("the characteristic needs a non-constant function")
    return _t_series(f, [r], cfg, _points_past(f, INFINITY, r, seed))[0]


def _check_grid(rgrid) -> list:
    """Grid radii as floats: at least one, all positive, strictly increasing."""
    rgrid = [float(r) for r in rgrid]
    if not rgrid:
        raise ValueError("rgrid needs at least one radius")
    if any(not r > 0 for r in rgrid):
        raise ValueError("rgrid radii must be positive")
    if any(lo >= hi for lo, hi in zip(rgrid, rgrid[1:])):
        raise ValueError("rgrid must be strictly increasing")
    return rgrid


def _grid_apoints(f: RationalFunction, targets, rgrid, seed: int) -> dict:
    """A-points of each target and of infinity, enumerated once past the top radius."""
    radius = rgrid[-1] * 1.01
    pts = {}
    for a in [*targets, INFINITY]:
        if a not in pts:
            pts[a] = _apoints(f, a, radius, seed=seed)
    return pts


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


def build_profile(
    f: RationalFunction,
    targets,
    rgrid,
    cfg: QuadratureConfig | None = None,
    *,
    seed: int = 0,
):
    """One profile per target; a-points are enumerated once at the top radius.

    Grid radii that put an a-point in the guard band are nudged upward by
    a factor of (1 + 1e-9) until clear, and the nudge is recorded.
    """
    targets = [as_target(a) for a in targets]
    if not targets:
        return []
    rgrid = _check_grid(rgrid)
    f = _reduced(f)
    if f.is_constant:
        raise ConstantFunction("profiles need a non-constant function")
    cache = _grid_apoints(f, targets, rgrid, seed)

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
        if a.is_infinite:
            m_values = [t_val - _N_at(pts, r, False) for r, t_val in zip(used_r, t_values)]
        else:
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
