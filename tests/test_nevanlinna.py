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
    verify_degree_growth,
    verify_first_fundamental,
    verify_second_fundamental,
)
from valdist import algebra, nevanlinna

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


# -- pointwise counts ----------------------------------------------------------------


def test_count_zero_inside_pole_ignored():
    f = RationalFunction(Polynomial.from_roots([1.0, 3.0]), Polynomial.from_roots([2.0]))
    assert count_n(f, 0, 2.0) == 1


def test_count_reduced_counts_distinct_points():
    f = as_rf(*Polynomial.from_roots([1, 1, -2]).coefficients)
    assert count_n(f, 0, 3.0, reduced=True) == 2
    assert count_n(f, 0, 3.0, reduced=False) == 3


def test_count_double_zero_at_origin():
    assert count_n(as_rf(0, 0, 1), 0, 0.5) == 2


def test_count_boundary_guard():
    with pytest.raises(BoundaryCoincidence):
        count_n(Z2_MINUS_1, 0, 1.0)


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


def test_memo_holds_at_most_64_entries_oldest_out_first():
    polys = [Polynomial([k, 1]) for k in range(100)]
    for p in polys:
        algebra._roots_hint(p)
        assert len(algebra._MEMO) <= 64
    assert len(algebra._MEMO) == 64
    keys = [("hint", algebra._coefficient_bytes(p)) for p in polys]
    assert list(algebra._MEMO) == keys[-64:]


def test_memo_shared_by_threads_stays_bounded_and_exact():
    polys = [Polynomial([k, 1, 1]) for k in range(160)]
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
    assert errors == [] and len(algebra._MEMO) <= 64


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


def test_retained_results_are_slotted_and_otherwise_unchanged():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-3, 1]))
    grid = log_rgrid(1.0, 1e2, 4)
    profile = build_profile(f, [0, INFINITY], grid)[0]
    point = nevanlinna._apoints(f, nevanlinna.as_target(0), 2.0)[0]
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
