import dataclasses
import math
import pickle
import sys
import threading
import warnings
from collections import Counter

import numpy as np
import pytest

from valdist import (
    INFINITY,
    BoundaryCoincidence,
    ConstantFunction,
    FunctionIdenticallyA,
    Polynomial,
    QuadratureConfig,
    QuadratureNotConverged,
    RationalFunction,
    build_profile,
    characteristic_T,
    count_n,
    counting_N,
    counting_N_integral,
    enumerate_a_points,
    log_rgrid,
    proximity_m,
    remark_fft_check,
    verify_degree_growth,
    verify_first_fundamental,
    verify_second_fundamental,
)
from valdist import algebra, localize, nevanlinna, verify

from conftest import make_rng, random_polynomial, random_rational


def as_rf(*coeffs):
    return RationalFunction.from_polynomial(Polynomial(coeffs))


Z2_MINUS_1 = as_rf(-1, 0, 1)
Z = as_rf(0, 1)
ONE_OVER_Z = RationalFunction(Polynomial([1]), Polynomial([0, 1]))


# -- enumeration ------------------------------------------------------------------


def test_enumerate_simple_zeros():
    pts = enumerate_a_points(Z2_MINUS_1, 0, 2.0)
    assert len(pts) == 2
    (zm, mm), (zp, mp) = pts
    assert mm == mp == 1
    assert abs(zm + 1) < 1e-9 and abs(zp - 1) < 1e-9


def test_enumerate_pole():
    f = RationalFunction(Polynomial([-1, 1]), Polynomial([1, 1]))
    pts = enumerate_a_points(f, "inf", 2.0)
    assert len(pts) == 1
    assert abs(pts[0][0] + 1) < 1e-9 and pts[0][1] == 1


def test_enumerate_identically_a():
    with pytest.raises(FunctionIdenticallyA):
        enumerate_a_points(as_rf(1.0), 1.0, 2.0)


def test_enumerate_respects_radius():
    f = as_rf(*Polynomial.from_roots([0.5, 3.0]).coefficients)
    pts = enumerate_a_points(f, 0, 1.0)
    assert len(pts) == 1 and abs(pts[0][0] - 0.5) < 1e-9


def test_infinite_radius_holds_every_a_point():
    assert [m for _, m in enumerate_a_points(Z2_MINUS_1, 0, math.inf)] == [1, 1]
    assert count_n(Z2_MINUS_1, 0, math.inf) == 2


README_F = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-3, 1]))


@pytest.mark.parametrize(
    "call",
    [
        lambda r: counting_N(README_F, 0, r),
        lambda r: counting_N_integral(README_F, 0, r),
        lambda r: proximity_m(README_F, 0, r),
        lambda r: characteristic_T(README_F, r),
    ],
    ids=["counting_N", "counting_N_integral", "proximity_m", "characteristic_T"],
)
def test_single_radius_must_be_finite(call):
    # N and T would be nan (0 inf) there, and m's integrand is not finite
    with pytest.raises(ValueError, match="r must be finite"):
        call(math.inf)
    with pytest.raises(ValueError, match="r must be positive"):
        call(-1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: build_profile(README_F, [0], grid),
        lambda grid: verify_first_fundamental(README_F, 0, grid),
        lambda grid: verify_second_fundamental(README_F, [0, 1, "inf"], grid),
        lambda grid: verify_degree_growth(Polynomial([1, 0, 1]), grid),
    ],
    ids=["build_profile", "verify_first_fundamental", "verify_second_fundamental", "verify_degree_growth"],
)
def test_grid_must_be_finite(call):
    with pytest.raises(ValueError, match="rgrid radii must be finite"):
        call([1.0, 10.0, 100.0, math.inf])
    # the order check comes first, so a grid that repeats inf names its order
    with pytest.raises(ValueError, match="strictly increasing"):
        call([1.0, math.inf, math.inf])


def test_tolerances_and_grid_bounds_must_be_finite():
    # an infinite abs_tol would stop every refinement at its seed segments
    with pytest.raises(ValueError, match="abs_tol must be finite"):
        QuadratureConfig(abs_tol=math.inf)
    with pytest.raises(ValueError, match="tol must be finite"):
        localize.fta_witness(Polynomial([1, 0, 0, 1]), math.inf)
    with pytest.raises(ValueError, match="rmax must be finite"):
        log_rgrid(1.0, math.inf, 8)


def test_enumerate_names_a_point_on_the_circle_and_keeps_one_just_inside():
    on_circle = RationalFunction.from_polynomial(Polynomial.from_roots([1, 0.5]))
    with pytest.raises(BoundaryCoincidence, match="guard band"):
        enumerate_a_points(on_circle, 0, 1.0)
    # a root 3e-11 inside the circle: enumerated with every other root,
    # kept, and its point lies within 1e-12 of the root
    inside = RationalFunction.from_polynomial(Polynomial.from_roots([1 - 3e-11, 0.5, 1.5]))
    pts = enumerate_a_points(inside, 0, 1.0)
    assert [m for _, m in pts] == [1, 1]
    assert abs(pts[0][0] - 0.5) <= 1e-12 and abs(pts[1][0] - (1 - 3e-11)) <= 1e-12


# four roots near 1e4 whose polynomial has Cauchy radius 1e16
FAR_CLUSTER = [9990, 9995 + 3j, 10003, 10007 - 2j]


def test_roots_far_inside_the_cauchy_radius_are_each_enumerated():
    # the roots 20-31 have Cauchy radius 7.6e16; both lists are in the
    # enumeration's order
    for roots in (FAR_CLUSTER, list(range(20, 32))):
        f = RationalFunction.from_polynomial(Polynomial.from_roots(roots))
        pts = enumerate_a_points(f, 0, math.inf)
        assert [m for _, m in pts] == [1] * len(roots)
        for (z, _), root in zip(pts, roots):
            assert abs(z - root) <= 1e-9 * abs(root), (z, root)


def test_N_far_past_a_far_cluster_is_exact():
    f = RationalFunction.from_polynomial(Polynomial.from_roots(FAR_CLUSTER))
    r = 1e17
    want = 4 * math.log(r) - sum(math.log(abs(z)) for z in FAR_CLUSTER)
    assert counting_N(f, 0, r) == pytest.approx(want, rel=0.0, abs=1e-9)


@pytest.mark.parametrize("c", [1e8, 1e16])
def test_a_root_near_the_cauchy_radius_counts_at_infinity(c):
    # the Cauchy radius of z - c is 1 + c
    assert count_n(RationalFunction.from_polynomial(Polynomial([-c, 1])), 0, math.inf) == 1


def test_an_enumeration_is_the_radius_filter_of_the_whole_set():
    # bit for bit, at radii below, near and above the Cauchy radius and
    # just inside and outside each a-point's modulus
    rng = make_rng(23)
    checked = 0
    for _ in range(5):
        f = random_rational(rng, 5, 2)
        for a in (0, 0.5 - 1j, "inf"):
            g = nevanlinna._target_poly(f, algebra.as_target(a))
            rc = localize._cauchy_radius(g)
            whole = enumerate_a_points(f, a, math.inf)
            radii = [rc * s for s in (0.25, 0.5, 0.999, 1.0, 1.001, 4.0)]
            radii += [abs(z) * s for z, _ in whole for s in (0.99, 1.01)]
            for r in radii:
                try:
                    pts = enumerate_a_points(f, a, r)
                except BoundaryCoincidence:
                    continue
                assert pts == [(z, m) for z, m in whole if abs(z) < r], (a, r)
                checked += 1
    assert checked >= 100


# a conjugate pair of equal modulus 0.7038...; over (z - 3), whose a-point
# polynomial at a = 0 has Cauchy radius 4
STRADDLE_F = RationalFunction(Polynomial([-5, 3, -8, -7, 8, -6, 2, 9, -3]), Polynomial([-3, 1]))


def test_a_profile_localizes_once_per_target_whatever_its_top_radius(monkeypatch):
    # the same call per target, infinity included, at every grid top
    calls = []
    localize_roots = localize.localize_roots

    def recording(p, region, tol):
        calls.append((tuple(p.coefficients), region, tol))
        return localize_roots(p, region, tol)

    # the name _all_roots looks up
    monkeypatch.setattr(localize, "localize_roots", recording)
    per_top = []
    # grid tops below, at and above the Cauchy radius
    for top in (0.7038434839602782 / 1.01, 4.0, 40.0):
        calls.clear()
        build_profile(STRADDLE_F, [0, 1, "inf"], [top / 100, top / 10, top])
        assert len(calls) == 3 and len({c[0] for c in calls}) == 3
        per_top.append(list(calls))
    assert per_top[0] == per_top[1] == per_top[2]


# -- pointwise counts ----------------------------------------------------------------


def test_count_zero_inside_pole_ignored():
    f = RationalFunction(Polynomial.from_roots([1.0, 3.0]), Polynomial.from_roots([2.0]))
    assert count_n(f, 0, 2.0) == 1


def test_count_reduced_counts_distinct_points():
    f = as_rf(*Polynomial.from_roots([1, 1, -2]).coefficients)
    assert count_n(f, 0, 3.0, reduced=True) == 2
    assert count_n(f, 0, 3.0, reduced=False) == 3


@pytest.mark.parametrize("roots", [[1 / 3, 1 / 3, 2], [1, 1 + 1e-9, 3]], ids=["double", "pair"])
def test_count_coalesces_enclosures_of_one_point(roots):
    f = RationalFunction.from_polynomial(Polynomial.from_roots(roots))
    assert count_n(f, 0, math.inf, reduced=True) == 2
    assert count_n(f, 0, math.inf) == 3


@pytest.mark.parametrize("leading", [1e-6, 1.0, 1e6])
def test_counts_do_not_depend_on_a_constant_factor(leading):
    # the zero 1 and the pole 1.005 do not cancel at any scale
    f = RationalFunction(Polynomial.from_roots([1, 2], leading=leading), Polynomial.from_roots([1.005]))
    assert count_n(f, 0, 10.0) == 2
    assert count_n(f, "inf", 10.0) == 1


def test_count_double_zero_at_origin():
    assert count_n(as_rf(0, 0, 1), 0, 0.5) == 2


def test_count_boundary_guard():
    with pytest.raises(BoundaryCoincidence):
        count_n(Z2_MINUS_1, 0, 1.0)


def test_count_is_the_weight_of_the_enumerated_points():
    f = as_rf(*Polynomial.from_roots([1, 1, -2, 0.5j]).coefficients)
    for r in (0.3, 0.9, 1.5, 3.0, math.inf):
        pts = enumerate_a_points(f, 0, r)
        assert count_n(f, 0, r) == sum(m for _, m in pts)
        assert count_n(f, 0, r, reduced=True) == len(pts)
    # one guard rule, with one message
    for call in (count_n, enumerate_a_points):
        with pytest.raises(BoundaryCoincidence, match=r"guard band of \|z\| = 1$"):
            call(f, 0, 1.0)


def test_roots_near_1e4_are_all_counted():
    # the leading coefficient is 1.6e-16 of the largest one, and is kept
    roots = [9990, 9995 + 3j, 10003, 10007 - 2j]
    f = RationalFunction.from_polynomial(Polynomial.from_roots(roots))
    assert count_n(f, 0, 15000.0) == 4
    want = sum(math.log(15000.0 / abs(z)) for z in roots)
    assert counting_N(f, 0, 15000.0) == pytest.approx(want, rel=0.0, abs=1e-9)


def test_tiny_leading_coefficient_of_f_minus_a_changes_no_value():
    # f - 0.1 = 0.8 / (3z + 2), but num - 0.1 den rounds to 0.8 - 5.55e-17 z,
    # whose root near -1.4e16 lies outside every circle here
    f = RationalFunction(Polynomial([1, 0.3]), Polynomial([2, 3]))
    assert (f.numerator - complex(0.1) * f.denominator).degree == 1
    inverse = RationalFunction.from_polynomial(Polynomial([2.5, 3.75]))  # 1 / (f - 0.1)
    grid = log_rgrid(0.5, 100.0, 6)
    m = [proximity_m(inverse, "inf", r) for r in grid]
    for r, m_r in zip(grid, m):
        assert count_n(f, 0.1, r) == 0
        assert counting_N(f, 0.1, r) == 0.0
        assert proximity_m(f, 0.1, r) == pytest.approx(m_r, rel=0.0, abs=1e-12)
    rows = build_profile(f, [0.1], grid)[0].rows
    assert [(row.n, row.N) for row in rows] == [(0, 0.0)] * len(grid)
    assert np.allclose([row.m for row in rows], m, rtol=0.0, atol=1e-12)
    assert verify_first_fundamental(f, 0.1, grid).verdict
    assert verify_second_fundamental(f, [0.1, 0, "inf"], grid).verdict


# -- integrated counting function ------------------------------------------------------


def test_counting_N_at_e():
    val = counting_N(Z2_MINUS_1, 0, math.e)
    assert abs(val - 2.0) <= 1e-9
    other = counting_N_integral(Z2_MINUS_1, 0, math.e)
    assert abs(val - other) <= 1e-9


def test_counting_N_origin_zero_any_radius():
    for r in (0.5, 1.0, 7.0):
        assert abs(counting_N(Z, 0, r) - math.log(r)) <= 1e-12


def test_counting_N_pole_at_origin():
    for r in (1.0, 4.0):
        assert abs(counting_N(ONE_OVER_Z, "inf", r) - math.log(r)) <= 1e-12


def test_counting_routes_scipy_cross_check():
    # third-party check of the closed-form sum on one nontrivial case
    import scipy.integrate as si

    rng = make_rng(19)
    f = random_rational(rng, 5, 2)
    r = 17.0
    pts = enumerate_a_points(f, 0.25, r * 1.01)
    mods = sorted(abs(z) for z, _ in pts if abs(z) < r)

    def n_of_t(t):
        return sum(m for z, m in pts if abs(z) < t)

    val, _ = si.quad(lambda t: n_of_t(t) / t if t > 0 else 0.0, 0, r, points=mods, limit=200)
    assert abs(val - counting_N(f, 0.25, r)) <= 1e-9


def _record_enumerations(monkeypatch):
    """The target of each enumeration in call order, recorded wherever a consumer looks ``_apoints`` up."""
    calls = []
    apoints = nevanlinna._apoints

    def recording(f, a):
        calls.append(algebra.as_target(a))
        return apoints(f, a)

    for module in (nevanlinna, verify):
        monkeypatch.setattr(module, "_apoints", recording)
    return calls


def test_cluster_past_the_radius_is_one_enumeration(monkeypatch):
    # three roots 1e-10 apart at c, just past r = |c| / 1.01; rounding the
    # coefficients spreads them about 1e-6 apart, and the one enumeration
    # of every root puts none of them inside the circle
    c = 0.4 + 0.1j
    f = RationalFunction.from_polynomial(Polynomial.from_roots([c, c + 1e-10, c - 1e-10]))
    calls = _record_enumerations(monkeypatch)
    assert counting_N(f, 0, abs(c) / 1.01) == 0.0
    assert calls == [algebra.as_target(0)]


# the same cluster plus a zero at -0.2, on a grid whose top radius lies just
# inside the cluster; |p| < 1 on the grid's disks, so T(r) = 0 there and no
# 1-point lies inside them
_C = 0.4 + 0.1j
_CLUSTER = Polynomial.from_roots([_C, _C + 1e-10, _C - 1e-10, -0.2])
_CLUSTER_GRID = [0.1, 0.3, abs(_C) / 1.01]
_CLUSTER_N = [0.0, math.log(0.3 / 0.2), math.log(_CLUSTER_GRID[-1] / 0.2)]


@pytest.mark.parametrize(
    "call, want",
    [
        (
            lambda f: [row.N for row in build_profile(f, [0], _CLUSTER_GRID)[0].rows],
            _CLUSTER_N,
        ),
        # m + N - T is the Jensen constant -log|p(0)| at every radius
        (
            lambda f: verify_first_fundamental(f, 0, _CLUSTER_GRID).series,
            [-math.log(abs(_CLUSTER(0)))] * 3,
        ),
        (lambda f: verify_second_fundamental(f, [0, 1, "inf"], _CLUSTER_GRID).series, _CLUSTER_N),
        (
            lambda f: remark_fft_check(f.numerator, _CLUSTER_GRID).series,
            [n - 4 * math.log(r) for n, r in zip(_CLUSTER_N, _CLUSTER_GRID)],
        ),
    ],
    ids=["build_profile", "verify_first_fundamental", "verify_second_fundamental", "remark_fft_check"],
)
def test_cluster_past_the_grid_top_is_one_enumeration(monkeypatch, call, want):
    # grids filter the same one enumeration per target as single radii
    f = RationalFunction.from_polynomial(_CLUSTER)
    calls = _record_enumerations(monkeypatch)
    got = call(f)
    assert calls and len(set(calls)) == len(calls)
    assert np.allclose(got, want, rtol=0.0, atol=1e-9)


def _oracle_moduli(coeffs):
    """|z| of every root of the integer polynomial, from mpmath at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=400, extraprec=120)
        return sorted(float(abs(z)) for z in roots)


def test_counts_just_inside_each_root_modulus_match_the_oracle():
    # r = |z_k| / 1.01 lies just inside each root modulus, that of a
    # conjugate pair included; the counts filter the one enumeration of
    # every root by |z| < r
    example = [-5, 3, -8, -7, 8, -6, 2, 9, -3]
    f = RationalFunction.from_polynomial(Polynomial(example))
    assert count_n(f, 0, 0.7038434839602782 / 1.01) == 0
    assert counting_N(f, 0, 0.7038434839602782 / 1.01) == 0.0
    corpus = [example]
    for seed in range(8):
        rng = make_rng(seed)
        while True:  # no root at 0, so n(0) log r is 0
            coeffs = [int(c) for c in rng.integers(-9, 10, size=9)]
            if coeffs[0] and coeffs[-1]:
                break
        corpus.append(coeffs)
    for coeffs in corpus:
        f = RationalFunction.from_polynomial(Polynomial(coeffs))
        moduli = _oracle_moduli(coeffs)
        for modulus in moduli:
            r = modulus / 1.01
            inside = [m for m in moduli if m < r]
            assert count_n(f, 0, r) == len(inside), (coeffs, r)
            want = sum(math.log(r / m) for m in inside)
            assert abs(counting_N(f, 0, r) - want) <= 1e-9, (coeffs, r)


# -- proximity -----------------------------------------------------------------------


def test_proximity_pure_power():
    f = as_rf(0, 0, 0, 1)
    assert abs(proximity_m(f, "inf", 2.0) - 3 * math.log(2)) <= 1e-9


def test_proximity_zero_when_function_large():
    assert proximity_m(Z, 0, 1.0) <= 1e-12  # float dust from |e^{i t}| != 1
    assert proximity_m(Z, 0, 5.0) == 0.0
    # |z^2 - 1| >= 3 on |z| = 2 so log+ of the reciprocal vanishes
    theta = np.linspace(0, 2 * np.pi, 4001)
    assert np.min(np.abs((2 * np.exp(1j * theta)) ** 2 - 1)) >= 3.0
    assert proximity_m(Z2_MINUS_1, 0, 2.0) == 0.0


def test_proximity_nonnegative_near_singular_circle():
    # a-points exactly on the circle: integrable singularity, finite value
    val = proximity_m(Z2_MINUS_1, 0, 1.0)
    assert math.isfinite(val) and val >= 0.0


def test_proximity_gives_up_when_integrand_overflows():
    # |z^2 - 1| overflows on the whole circle, so no nudge makes log+ finite;
    # the overflow is handled there, so numpy warns about nothing
    with warnings.catch_warnings(), pytest.raises(QuadratureNotConverged, match="not finite"):
        warnings.simplefilter("error", RuntimeWarning)
        proximity_m(Z2_MINUS_1, "inf", 1e200)


def test_proximity_gives_up_when_a_wave_opens_too_many_intervals():
    # a double root 1e-9 inside the circle: the waves around it would grow
    # to tens of millions of nodes before the depth cap stops them
    z0 = 0.3 + 0.2j
    f = RationalFunction.from_polynomial(Polynomial.from_roots([z0, z0, -1.1, 0.7j]))
    with pytest.raises(QuadratureNotConverged, match="intervals open in one wave"):
        proximity_m(f, 0, abs(z0) * (1 + 1e-9))


def test_growth_series_calls_the_integrand_as_its_deepest_radius_does(monkeypatch):
    # one quadrature covers every radius of the grid, so each wave makes
    # one integrand call for all radii still refining
    calls = Counter()
    log_plus = nevanlinna._log_plus

    def counted(gn, gd, r, theta, tries=0):
        calls[tries > 0] += 1  # a call with tries > 0 is a nudge retry
        return log_plus(gn, gd, r, theta, tries)

    monkeypatch.setattr(nevanlinna, "_log_plus", counted)
    p = Polynomial([2, -1, 0, 3j, 1, 0.5])
    grid = log_rgrid(1.0, 1e4, 32)
    verify_degree_growth(p, grid)
    series, retries = calls[False], calls[True]
    deepest = 0
    for r in grid:
        calls.clear()
        algebra._MEMO.clear()  # else each radius is a hit on the grid's row
        proximity_m(RationalFunction.from_polynomial(p), "inf", r)
        deepest = max(deepest, calls[False])
    assert series <= deepest + retries


@pytest.mark.parametrize("seed", range(4))
def test_log_plus_of_a_merged_call_equals_its_parts(seed):
    # the quadrature evaluates both quarter points of a wave, and the seed's
    # endpoints with its midpoints, in one call: no value may move by it
    rng = make_rng(seed)
    gn = random_polynomial(rng, int(rng.integers(1, 13)))
    theta = rng.uniform(0.0, 2.0 * math.pi, 40)
    r = 10.0 ** rng.uniform(0.0, 4.0, theta.size)
    # an a-point on the sample angle at k: the call retries that sample
    k = int(rng.integers(theta.size))
    z0 = (r * np.exp(1j * theta))[k]
    gd = Polynomial([-z0, 1])
    assert gd.eval_many(r[k : k + 1] * np.exp(1j * theta[k : k + 1]))[0] == 0
    whole = nevanlinna._log_plus(gn, gd, r, theta)
    assert np.all(np.isfinite(whole))
    # parts of one element, and one that holds only the a-point
    cuts = sorted({1, 2, 7, k, k + 1, 25, 26})
    parts = [
        nevanlinna._log_plus(gn, gd, r[lo:hi], theta[lo:hi])
        for lo, hi in zip([0, *cuts], [*cuts, theta.size])
    ]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


def two_sided_log_plus(gn, gd, r, theta, tries=0):
    """``_log_plus`` as it was before it skipped a unit side: both sides evaluated."""
    z = r * np.exp(1j * (theta + tries * 3e-13 if tries else theta))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.maximum(np.log(np.abs(gn.eval_many(z))) - np.log(np.abs(gd.eval_many(z))), 0.0)
    bad = ~np.isfinite(v)
    if tries < 4 and np.any(bad):
        v[bad] = two_sided_log_plus(gn, gd, r[bad], theta[bad], tries + 1)
    return v


@pytest.mark.parametrize("unit", ["gn", "gd"])
def test_log_plus_skips_a_unit_side_with_the_same_bytes(monkeypatch, unit):
    rng = make_rng(5)
    theta = rng.uniform(0.0, 2.0 * math.pi, 40)
    r = 10.0 ** rng.uniform(0.0, 4.0, theta.size)
    z0 = (r * np.exp(1j * theta))[7]
    if unit == "gn":
        # 1 / (z - z0) with z0 on the sample angle at 7: that sample is retried once
        gn, gd, retries = Polynomial.one(), Polynomial([-z0, 1]), 1
        assert gd.eval_many(r[7:8] * np.exp(1j * theta[7:8]))[0] == 0
    else:
        # p overflows at the radii of 1e200: those samples are retried four times
        gn, gd, retries = Polynomial([1, -2j, 0.5, 3]), Polynomial.one(), 4
        r[[3, 11, 12]] = 1e200
    want = two_sided_log_plus(gn, gd, r, theta)
    evaluated = []
    eval_many = Polynomial.eval_many
    monkeypatch.setattr(Polynomial, "eval_many", lambda p, z: evaluated.append(p) or eval_many(p, z))
    got = nevanlinna._log_plus(gn, gd, r, theta)
    assert got.tobytes() == want.tobytes()
    assert Polynomial.one() not in evaluated and len(evaluated) == 1 + retries
    assert np.isfinite(got).all() == (unit == "gn")


# m(r, inf) of a quintic on the growth workload's grid, recorded before the
# wave loop kept its bookkeeping in arrays and the unit side went unevaluated
M_SERIES_HEX = [
    "0x1.313252d132f96p+0", "0x1.963a21552a53dp+0", "0x1.3a5d396fd8711p+1", "0x1.d27bbb5cebaf0p+1",
    "0x1.354d1ea4ff775p+2", "0x1.82a64a08f3485p+2", "0x1.e1b95b3d1f547p+2", "0x1.20663638a5b02p+3",
    "0x1.4fefbed2bbb39p+3", "0x1.7f79476cd1b78p+3", "0x1.af02d006e7bc4p+3", "0x1.de8c58a0fdc13p+3",
    "0x1.070af09d89d92p+4", "0x1.1ecfb4ea94e56p+4", "0x1.369479379fe7dp+4", "0x1.4e593d84aae98p+4",
    "0x1.661e01d1b5ec7p+4", "0x1.7de2c61ec0ef0p+4", "0x1.95a78a6bcbf17p+4", "0x1.ad6c4eb8d6f41p+4",
    "0x1.c5311305e1f69p+4", "0x1.dcf5d752ecf90p+4", "0x1.f4ba9b9ff7fb8p+4", "0x1.063faff6817eep+5",
    "0x1.1222121d07003p+5", "0x1.1e0474438c816p+5", "0x1.29e6d66a12029p+5", "0x1.35c938909783dp+5",
    "0x1.41ab9ab71d051p+5", "0x1.4d8dfcdda2865p+5", "0x1.59705f0428077p+5", "0x1.6552c12aad88bp+5",
]


def test_growth_series_keeps_its_recorded_bits():
    algebra._MEMO.clear()  # integrate every row, not read it back
    f = RationalFunction.from_polynomial(Polynomial([2, -3 + 1j, 0.5, 1j, -1, 0.25]))
    series = nevanlinna._m_series(f, INFINITY, log_rgrid(1.0, 1e4, 32), None)
    assert [m.hex() for m in series] == M_SERIES_HEX


# -- characteristic ---------------------------------------------------------------------


def test_characteristic_pure_powers():
    for n in (1, 2, 5):
        f = as_rf(*([0] * n + [1]))
        for r in (1.0, 2.0, 10.0):
            assert abs(characteristic_T(f, r) - n * math.log(r)) <= 1e-9


def test_characteristic_jensen_example():
    assert abs(characteristic_T(Z2_MINUS_1, 2.0) - math.log(4)) <= 1e-9


def test_characteristic_reciprocal():
    for r in (1.0, 7.0):
        assert abs(characteristic_T(ONE_OVER_Z, r) - math.log(r)) <= 1e-9


def test_characteristic_rejects_constant():
    with pytest.raises(ConstantFunction):
        characteristic_T(as_rf(3.0), 2.0)


# -- profiles ----------------------------------------------------------------------------


def test_profile_square():
    profiles = build_profile(as_rf(0, 0, 1), ["0", "inf"], [1.0, 2.0, 4.0])
    prof0, profinf = profiles
    for row in prof0.rows:
        assert row.n == 2 and row.nbar == 1
        assert abs(row.N - 2 * math.log(row.r)) <= 1e-9
        assert row.m <= 1e-9
        assert abs(row.T - 2 * math.log(row.r)) <= 1e-9
    for row in profinf.rows:
        assert row.n == 0 and abs(row.N) <= 1e-12
        assert abs(row.T - (row.m + row.N)) <= 1e-12


def test_profile_empty_targets():
    assert build_profile(Z2_MINUS_1, [], [1.0, 2.0]) == []


def test_profile_grid_rule():
    (prof,) = build_profile(Z2_MINUS_1, ["0"], [2.0])
    assert [(row.r, row.n) for row in prof.rows] == [(2.0, 2)]
    for bad in ([2.0, 1.0], []):
        with pytest.raises(ValueError):
            build_profile(Z2_MINUS_1, ["0"], bad)


def test_profile_rejects_constant():
    with pytest.raises(ConstantFunction):
        build_profile(as_rf(5.0), ["0"], [1.0, 2.0])


def test_profile_nudges_boundary_radius():
    profiles = build_profile(Z2_MINUS_1, ["0"], [0.5, 1.0, 2.0])
    (prof,) = profiles
    assert prof.nudges and prof.nudges[0][0] == 1.0
    nudged = prof.nudges[0][1]
    assert 1.0 < nudged < 1.00001
    assert [row.r for row in prof.rows] == [0.5, nudged, 2.0]


def test_profile_nudge_never_overtakes_next_radius():
    # r = 1 is nudged past 1 + 1e-10, which would put the rows out of order
    with pytest.raises(BoundaryCoincidence, match=r"1\.0 .* 1\.0000000001"):
        build_profile(Z2_MINUS_1, ["0"], [1.0, 1.0 + 1e-10, 2.0])


def test_profile_T_column_copied_to_finite_targets():
    rng = make_rng(43)
    f = random_rational(rng, 4, 2)
    profiles = build_profile(f, [0.3 + 0.1j, INFINITY], [1.0, 3.0, 9.0, 27.0])
    fin, inf = profiles
    for a, b in zip(fin.rows, inf.rows):
        assert a.T == b.T
        assert abs(b.T - (b.m + b.N)) <= 1e-12


def test_profile_m_at_infinity_is_proximity_m():
    # bit for bit, on the README's grid and on a profile whose radius 1 is nudged
    cases = [(README_F, log_rgrid(1.0, 1e4, 16)), (Z2_MINUS_1, [0.5, 1.0, 2.0])]
    cases.append((random_rational(make_rng(43), 4, 2), [1.0, 3.0, 9.0, 27.0]))
    for f, grid in cases:
        (profile,) = build_profile(f, [INFINITY], grid)
        for row in profile.rows:
            assert row.m.hex() == proximity_m(f, "inf", row.r).hex(), row.r


# -- distribution identities over a random corpus -------------------------------------------


def test_jensen_identity_random_corpus():
    rng = make_rng(47)
    cfg = QuadratureConfig()
    for _ in range(6):
        f = random_rational(rng, int(rng.integers(1, 5)), int(rng.integers(0, 4)))
        if abs(f(0)) < 1e-6:
            continue
        expected = math.log(abs(f(0)))
        for r in (1.0, 5.5, 42.0, 800.0):
            lhs = (
                characteristic_T(f, r, cfg)
                - proximity_m(f, 0, r, cfg)
                - counting_N(f, 0, r)
            )
            assert abs(lhs - expected) <= 2 * cfg.abs_tol


def test_profile_monotonicity_and_order_relations():
    rng = make_rng(53)
    cfg = QuadratureConfig()
    grid = [1.0, 3.0, 10.0, 33.0, 100.0, 333.0]
    for _ in range(4):
        f = random_rational(rng, int(rng.integers(1, 6)), int(rng.integers(0, 5)))
        targets = [0, 1 + 0.5j, INFINITY]
        for prof in build_profile(f, targets, grid, cfg):
            rows = prof.rows
            for a, b in zip(rows, rows[1:]):
                assert b.T >= a.T - 2 * cfg.abs_tol
                assert b.N >= a.N - 1e-12
                assert b.Nbar >= a.Nbar - 1e-12
                assert b.n >= a.n and b.nbar >= a.nbar
            for row in rows:
                assert row.m >= 0.0
                assert row.Nbar <= row.N + 1e-12
                assert row.nbar <= row.n
                assert row.n <= f.degree_max


# -- the memo of m(r, a) series and root hints ------------------------------------------------


def _signed_zeros(rng, degree):
    """Random polynomial with some coefficients replaced by zeros of random sign."""
    coeffs = list(random_polynomial(rng, degree).coefficients)
    for i in rng.choice(degree, size=max(1, degree // 2), replace=False):
        coeffs[i] = complex(*rng.choice([0.0, -0.0], size=2))
    return Polynomial(coeffs)


def _distribution_calls(f, grid):
    """The distribution calls, with both signs of a zero target."""
    return [
        lambda: build_profile(f, [0.0, INFINITY, 1 + 0.5j], grid),
        lambda: verify_first_fundamental(f, -0.0, grid),
        lambda: verify_second_fundamental(f, [-0.0, INFINITY, 1 + 0.5j], grid),
        lambda: verify_first_fundamental(f, 0.0, grid),
        lambda: proximity_m(f, -0.0, grid[2]),
        lambda: characteristic_T(f, grid[2]),
    ]


def _outcome(call):
    try:
        return repr(call())
    except QuadratureNotConverged as exc:
        return repr(exc)


@pytest.mark.parametrize("seed", range(3))
def test_memo_hits_equal_empty_memo_runs(seed, monkeypatch):
    rng = make_rng(seed)
    f = RationalFunction(_signed_zeros(rng, 3), _signed_zeros(rng, 2))
    grid = log_rgrid(1.0, 1e3, 6)
    cold = []
    for call in _distribution_calls(f, grid):
        algebra._MEMO.clear()
        cold.append(_outcome(call))
    warm = [_outcome(call) for call in _distribution_calls(f, grid)]
    series = Counter()
    integrate = nevanlinna.integrate_rows
    monkeypatch.setattr(
        nevanlinna, "integrate_rows", lambda *a, **kw: series.update([1]) or integrate(*a, **kw)
    )
    again = [_outcome(call) for call in _distribution_calls(f, grid)]
    assert warm == cold and again == cold
    assert series[1] == 0  # every series of the second round is a hit


def test_memo_returns_fresh_lists():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-3, 1]))
    radii = [1.5, 2.5]
    first = nevanlinna._m_series(f, INFINITY, radii, None)
    expected = list(first)
    first[0] = -1.0
    first.append(7.0)
    assert nevanlinna._m_series(f, INFINITY, radii, None) == expected
    hints = algebra._roots_hint(f.numerator)
    expected = list(hints)
    hints.clear()
    assert algebra._roots_hint(f.numerator) == expected


def test_memo_misses_on_another_tolerance_grid_target_or_signed_zero(monkeypatch):
    series, solves = Counter(), Counter()
    integrate, solve = nevanlinna.integrate_rows, algebra._solve_hint
    monkeypatch.setattr(
        nevanlinna, "integrate_rows", lambda *a, **kw: series.update([1]) or integrate(*a, **kw)
    )
    monkeypatch.setattr(algebra, "_solve_hint", lambda p: solves.update([p]) or solve(p))
    f = RationalFunction(Polynomial([0.0, -4, 0, 1]), Polynomial([-3, 1]))
    # equal to f under ==, but not in the bytes of its coefficients
    f_signed = RationalFunction(Polynomial([-0.0, -4, 0, 1]), Polynomial([-3, 1]))
    assert f_signed == f
    radii = [1.5, 2.5]
    base = nevanlinna._m_series(f, INFINITY, radii, None)
    assert series[1] == 1 and len(solves) == 2
    assert nevanlinna._m_series(f, INFINITY, radii, QuadratureConfig()) == base
    assert series[1] == 1
    nevanlinna._m_series(f, INFINITY, radii, QuadratureConfig(abs_tol=1e-8))
    nevanlinna._m_series(f, INFINITY, [1.5, float(np.nextafter(2.5, 3.0))], None)
    nevanlinna._m_series(f, nevanlinna.as_target(1.0), radii, None)
    nevanlinna._m_series(f_signed, INFINITY, radii, None)
    assert series[1] == 5
    # the target 1 and the signed zero each bring a polynomial of their own
    assert sum(solves.values()) == 4


def test_memo_holds_at_most_its_cap_oldest_out_first():
    cap = algebra._MEMO_ENTRIES
    polys = [Polynomial([k, 1]) for k in range(cap + 40)]
    for p in polys:
        algebra._roots_hint(p)
        assert len(algebra._MEMO) <= cap
    assert len(algebra._MEMO) == cap
    keys = [("hint", algebra._coefficient_bytes(p)) for p in polys]
    assert list(algebra._MEMO) == keys[-cap:]


def test_memo_shared_by_threads_stays_bounded_and_exact():
    polys = [Polynomial([k, 1, 1]) for k in range(algebra._MEMO_ENTRIES + 96)]
    expected = [algebra._solve_hint(p) for p in polys]
    errors = []

    def worker(offset):
        try:
            for i in range(len(polys)):
                j = (i + offset) % len(polys)
                if algebra._roots_hint(polys[j]) != expected[j]:
                    errors.append(j)
        except Exception as exc:  # a lost eviction raises KeyError; report it below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(17 * t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(algebra._MEMO) <= algebra._MEMO_ENTRIES


def test_memo_stores_no_failed_series(monkeypatch):
    series = Counter()
    integrate = nevanlinna.integrate_rows
    monkeypatch.setattr(
        nevanlinna, "integrate_rows", lambda *a, **kw: series.update([1]) or integrate(*a, **kw)
    )
    for _ in range(2):
        with pytest.raises(QuadratureNotConverged, match="not finite"):
            proximity_m(Z2_MINUS_1, "inf", 1e200)
    assert series[1] == 2
    assert not any(key[0] == "m" for key in algebra._MEMO)


def test_distribution_triple_integrates_each_series_once(monkeypatch):
    series, solves = Counter(), Counter()
    integrate, solve = nevanlinna.integrate_rows, algebra._solve_hint
    monkeypatch.setattr(
        nevanlinna, "integrate_rows", lambda *a, **kw: series.update([1]) or integrate(*a, **kw)
    )
    monkeypatch.setattr(algebra, "_solve_hint", lambda p: solves.update([p]) or solve(p))
    # zeros +-2 and the pole 3 are clear of the grid circles, so no radius is nudged
    f = RationalFunction(Polynomial([-4, 0, 1]), Polynomial([-3, 1]))
    grid = log_rgrid(1.0, 1e4, 16)
    targets = [0, INFINITY, 1]
    build_profile(f, targets, grid)
    verify_first_fundamental(f, 1, grid)
    verify_second_fundamental(f, targets, grid)
    # T(r), m(r, 0) and m(r, 1); hints of the numerator, denominator and numerator - denominator
    assert series[1] == 3
    assert len(solves) == 3 and set(solves.values()) == {1}


def test_profile_integrates_its_used_radii_and_a_verifier_only_the_rows_it_lacks(monkeypatch):
    # the zeros +-1 of z^2 - 1 nudge r = 1; the profile takes T(r), m(r, 0)
    # and m(r, 2) on the used radii, and the verifier on the caller's grid
    # then integrates T and m(r, 2) at r = 1 alone
    rows = []
    integrate = nevanlinna.integrate_rows

    def counting(fn, a, b, *, abs_tol, knots):
        rows.append(len(knots))
        return integrate(fn, a, b, abs_tol=abs_tol, knots=knots)

    monkeypatch.setattr(nevanlinna, "integrate_rows", counting)
    grid = [0.5, 1.0, 2.0]
    profiles = build_profile(Z2_MINUS_1, [0, 2, INFINITY], grid)
    ((_, nudged),) = profiles[0].nudges
    assert rows == [3, 3, 3]
    verify_first_fundamental(Z2_MINUS_1, 2, grid)
    assert rows == [3, 3, 3, 1, 1]
    # every row is the m of a lone series at its radius; with no poles,
    # the infinite target's m is T - 0.0, which is m
    for prof in profiles:
        assert [row.r for row in prof.rows] == [0.5, nudged, 2.0]
        for row in prof.rows:
            algebra._MEMO.clear()
            assert row.m == nevanlinna._m_series(Z2_MINUS_1, prof.target, [row.r], None)[0]


@pytest.mark.parametrize("seed", range(4))
def test_series_after_a_subset_of_its_grid_equals_a_cold_series(seed):
    # the rows a subset stored are read back, the others integrated in one
    # call: every value has the bits of a cold series on the whole grid
    rng = make_rng(seed)
    f = random_rational(rng, int(rng.integers(1, 5)), int(rng.integers(0, 3)))
    grid = log_rgrid(0.5, 50.0, 12)
    subset = sorted(rng.choice(len(grid), size=int(rng.integers(1, len(grid))), replace=False).tolist())
    for a in (INFINITY, nevanlinna.as_target(complex(*rng.uniform(-1.0, 1.0, 2)))):
        algebra._MEMO.clear()
        cold = nevanlinna._m_series(f, a, grid, None)
        algebra._MEMO.clear()
        part = nevanlinna._m_series(f, a, [grid[i] for i in subset], None)
        warm = nevanlinna._m_series(f, a, grid, None)
        assert [m.hex() for m in part] == [cold[i].hex() for i in subset]
        assert [m.hex() for m in warm] == [m.hex() for m in cold]


def test_proximity_at_a_grid_radius_after_a_series_integrates_nothing(monkeypatch):
    series = Counter()
    integrate = nevanlinna.integrate_rows
    monkeypatch.setattr(
        nevanlinna, "integrate_rows", lambda *a, **kw: series.update([1]) or integrate(*a, **kw)
    )
    f = RationalFunction(Polynomial([-4, 0, 1]), Polynomial([-3, 1]))
    grid = log_rgrid(1.0, 1e2, 8)
    m_grid = nevanlinna._m_series(f, nevanlinna.as_target(1), grid, None)
    assert series[1] == 1
    assert [proximity_m(f, 1, r) for r in grid] == m_grid
    assert series[1] == 1


def test_distribution_triple_on_32_radii_integrates_each_row_once(monkeypatch):
    # a row is one (g, r): the root hints name g, and each row takes its
    # knots once, at its own radius
    rows = Counter()
    knots = nevanlinna._singularity_knots

    def counted(r, hints):
        rows[r, tuple(hints)] += 1
        return knots(r, hints)

    monkeypatch.setattr(nevanlinna, "_singularity_knots", counted)
    f = RationalFunction(Polynomial([-4, 0, 1]), Polynomial([-3, 1]))
    grid = log_rgrid(1.0, 1e4, 32)
    targets = [0, INFINITY, 1]
    build_profile(f, targets, grid)
    verify_first_fundamental(f, 1, grid)
    verify_second_fundamental(f, targets, grid)
    # T(r), m(r, 0) and m(r, 1) on every radius
    assert len(rows) == 3 * len(grid) and set(rows.values()) == {1}


def test_profile_nudged_off_a_double_a_point_keeps_the_used_radii():
    # the double zero at 1 makes m(1, 0) fail on the caller's grid; the
    # nudged radius is integrated as before
    f = RationalFunction.from_polynomial(Polynomial.from_roots([1, 1, -3]))
    with pytest.raises(QuadratureNotConverged):
        proximity_m(f, 0, 1.0)
    (prof,) = build_profile(f, [0], [0.5, 1.0, 2.0])
    ((_, nudged),) = prof.nudges
    assert prof.rows[1].m == proximity_m(f, 0, nudged)


def test_retained_results_are_slotted_and_otherwise_unchanged():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-3, 1]))
    grid = log_rgrid(1.0, 1e2, 4)
    profile = build_profile(f, [0, INFINITY], grid)[0]
    point = nevanlinna._apoints(f, 0)[0]
    report = verify_first_fundamental(f, 1, grid)
    for obj in (profile, profile.rows[0], point, report):
        assert not hasattr(obj, "__dict__")
        copy = dataclasses.replace(obj)
        assert copy == obj and copy is not obj
        assert pickle.loads(pickle.dumps(obj)) == obj
        if obj is report:
            with pytest.raises(TypeError):  # its dict fields are unhashable
                hash(obj)
        else:
            assert hash(copy) == hash(obj)
    assert dataclasses.replace(profile.rows[0], n=9).n == 9
