import dataclasses
import math

import numpy as np
import pytest

import valdist.algebra
import valdist.nevanlinna
import valdist.verify
from valdist import (
    BinomialShape,
    ConstantPolynomial,
    DegreeTooSmall,
    DuplicateTargets,
    FunctionIdenticallyA,
    LinearCoefficientNonzero,
    Polynomial,
    QuadratureConfig,
    RationalFunction,
    TooFewTargets,
    build_profile,
    characteristic_T,
    claim1_chain_report,
    claim1_shape_check,
    jensen_constant,
    log_rgrid,
    proximity_m,
    reduce_common_roots,
    remark_fft_check,
    verify_degree_growth,
    verify_first_fundamental,
    verify_second_fundamental,
)

from conftest import make_rng, random_rational

GRID = log_rgrid(1.0, 1e4, 32)


def as_rf(*coeffs):
    return RationalFunction.from_polynomial(Polynomial(coeffs))


# -- first fundamental theorem --------------------------------------------------


def test_fft_identity_series_for_z():
    rep = verify_first_fundamental(as_rf(0, 1), 0.0, GRID)
    assert rep.verdict
    assert rep.sup_abs <= 1e-9
    assert rep.params["jensen_gap"] <= 1e-9


def test_fft_z2_minus_1_at_zero():
    rep = verify_first_fundamental(as_rf(-1, 0, 1), 0.0, GRID)
    assert rep.verdict
    assert rep.tail_drift <= 1e-3
    assert rep.params["drift_tol"] == valdist.verify.DRIFT_TOL
    assert abs(rep.series[-1]) <= 1e-6  # Jensen constant log|f(0)| = log 1 = 0
    assert rep.sup_abs <= 0.7


def test_fft_z2_at_one():
    rep = verify_first_fundamental(as_rf(0, 0, 1), 1.0, GRID)
    assert rep.verdict
    assert abs(rep.series[-1]) <= 1e-6  # log|0 - 1| = 0
    assert rep.params["jensen_gap"] <= 1e-6


def test_fft_recovers_nontrivial_jensen_constant():
    f = as_rf(2, 1)  # z + 2
    rep = verify_first_fundamental(f, 0.0, GRID)
    assert abs(rep.params["jensen_empirical"] - math.log(2)) <= 1e-6
    assert abs(jensen_constant(f, 0.0) - math.log(2)) <= 1e-15


def test_fft_rejects_infinite_target():
    with pytest.raises(ValueError):
        verify_first_fundamental(as_rf(0, 1), "inf", GRID)


def test_jensen_constant_laurent_form():
    # f - a has a zero at the origin of order 2: c is the z^2 coefficient
    f = as_rf(1, 0, 3)  # 3z^2 + 1, a = 1
    assert abs(jensen_constant(f, 1.0) - math.log(3)) <= 1e-15
    # pole at the origin: c is the ratio of the lowest coefficients
    g = RationalFunction(Polynomial([5]), Polynomial([0, 2]))
    assert abs(jensen_constant(g, 1.0) - math.log(5 / 2)) <= 1e-12


@pytest.mark.parametrize(
    "num, den, value",
    [
        # distribution seed 3 items 5 and 35: the reduction cancels a common
        # root beside the denominator's zero at the origin
        ((24, -10, -12, -2), (0, 18, 15, 3), math.log(4 / 3)),
        ((144, 48, -9, -3), (0, -24, 2, 2), math.log(6)),
    ],
)
def test_jensen_constant_beside_a_cancelled_root(num, den, value):
    f = RationalFunction(Polynomial(num), Polynomial(den))
    for a in (0.0, -2j, -1 - 2j):
        assert abs(jensen_constant(f, a) - value) <= 1e-12


def test_jensen_constant_reads_a_tiny_constant():
    # any exactly nonzero coefficient is the lowest one, however small
    f = as_rf(*Polynomial.from_roots([-1e-13, 2, 3 + 1j]).coefficients)
    c0 = f.numerator.coefficients[0]
    assert abs(jensen_constant(f, 0.0) - math.log(abs(c0))) <= 1e-12
    assert abs(jensen_constant(as_rf(1e-300, 1), 0.0) - math.log(1e-300)) <= 1e-12


def test_jensen_constant_of_function_identically_a():
    with pytest.raises(FunctionIdenticallyA):
        jensen_constant(as_rf(2), 2.0)
    with pytest.raises(FunctionIdenticallyA):
        jensen_constant(RationalFunction(Polynomial([0, 3]), Polynomial([0, 1])), 3.0)


# -- degree growth ------------------------------------------------------------------


def test_degree_growth_quintic():
    fit = verify_degree_growth(Polynomial([2, -1, 0, 0, 0, 3]), log_rgrid(10, 1e3, 24))
    assert abs(fit.slope - 5) <= 1e-3
    # Jensen at the origin: intercept -> log|P(0)| - log prod|roots| = log 3
    assert abs(fit.intercept - math.log(3)) <= 1e-6


def test_degree_growth_identity_map():
    fit = verify_degree_growth(Polynomial([0, 1]), GRID)
    assert abs(fit.slope - 1) <= 1e-9
    assert abs(fit.intercept) <= 1e-9
    assert fit.residual <= 1e-9


@pytest.mark.parametrize(
    "slope, rounded, passed", [(5.0009, 5, True), (5.0011, 5, False), (4.0, 4, False)]
)
def test_degree_verdict_boundaries(slope, rounded, passed):
    assert valdist.verify.degree_verdict(slope, 5) == (rounded, passed)


def test_degree_growth_fits_the_characteristic():
    p = Polynomial([1, -3, 0, 1])
    fit = verify_degree_growth(p, GRID)
    t_vals = [characteristic_T(RationalFunction.from_polynomial(p), r) for r in GRID]
    tail = len(GRID) // 2
    slope, intercept = np.polyfit(np.log(np.asarray(GRID[tail:])), np.asarray(t_vals[tail:]), 1)
    assert (fit.slope, fit.intercept) == (float(slope), float(intercept))


def test_degree_growth_solves_root_hints_once(monkeypatch):
    calls = []
    hint = valdist.nevanlinna._roots_hint

    def counted(p):
        calls.append(p)
        return hint(p)

    monkeypatch.setattr(valdist.nevanlinna, "_roots_hint", counted)
    verify_degree_growth(Polynomial([1, -3, 0, 1]), GRID)
    # one m(r, inf) series over 32 radii: numerator and denominator once each
    assert len(GRID) == 32 and len(calls) == 2


def test_degree_growth_rejects_constant_and_short_grids():
    with pytest.raises(ConstantPolynomial):
        verify_degree_growth(Polynomial([3]), GRID)
    with pytest.raises(ValueError):
        verify_degree_growth(Polynomial([0, 1]), log_rgrid(1.0, 50.0, 16))


# -- second fundamental theorem ---------------------------------------------------------


def test_smt_square():
    rep = verify_second_fundamental(as_rf(0, 0, 1), [0, 1, "inf"], GRID)
    assert rep.verdict
    # slack = log r + O(1): strictly positive growth on the tail
    assert rep.series[-1] > rep.series[len(rep.series) // 2] > 0


def test_smt_identity_map():
    rep = verify_second_fundamental(as_rf(0, 1), [0, 1, "inf"], GRID)
    assert rep.verdict


def test_smt_input_validation():
    with pytest.raises(TooFewTargets):
        verify_second_fundamental(as_rf(0, 0, 1), [0, 1], GRID)
    with pytest.raises(DuplicateTargets):
        verify_second_fundamental(as_rf(0, 0, 1), [0, 1, 1 + 0j], GRID)
    with pytest.raises(DuplicateTargets):
        verify_second_fundamental(as_rf(0, 0, 1), ["inf", 1, "inf"], GRID)


def test_smt_default_allowance_scales_with_degrees():
    rep = verify_second_fundamental(as_rf(0, 0, 1), [0, 1, "inf"], GRID)
    c_s = 4.0 * (3 + 2 + 0)
    assert rep.params["c_s"] == c_s
    assert rep.params["eps_s"] == 0.0
    assert rep.components["allowance"] == tuple(c_s * math.log(r + 2.0) + c_s for r in GRID)


# -- one grid context for the profile and the verifiers ------------------------------------


def test_grid_consumers_agree_bit_for_bit():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-3, 1]))
    targets = [0, 0.5, "inf"]
    grid = log_rgrid(1.5, 1e4, 16)
    profiles = build_profile(f, targets, grid)
    assert all(not prof.nudges for prof in profiles)
    for a, prof in zip(targets[:2], profiles):
        assert [row.m for row in prof.rows] == [proximity_m(f, a, row.r) for row in prof.rows]
    fft = verify_first_fundamental(f, 0.5, grid)
    assert list(fft.series) == [row.m + row.N - row.T for row in profiles[1].rows]
    smt = verify_second_fundamental(f, targets, grid)
    rows_at_r = list(zip(*(prof.rows for prof in profiles)))
    q = len(targets)
    assert list(smt.series) == [
        sum(row.Nbar for row in rows) - (q - 2) * rows[0].T for rows in rows_at_r
    ]


# -- restricted-shape check ---------------------------------------------------------------


def test_shape_check_lives_in_algebra():
    assert valdist.verify.claim1_shape_check is valdist.algebra.claim1_shape_check


def test_shape_accepts_cubic_walkthrough():
    dec = claim1_shape_check(Polynomial([-1, 0, 3, 1]))
    assert (dec.m, dec.l) == (3, 2)
    assert dec.b0 == 1 and dec.bm == -1
    assert dec.R == Polynomial([3, 1])
    assert dec.F == Polynomial([0, 0, 3, 1])
    # reconstruction: Q = F + bm
    assert dec.F + Polynomial([dec.bm]) == Polynomial([-1, 0, 3, 1])


def test_shape_accepts_quartic():
    dec = claim1_shape_check(Polynomial([5, 0, 1, 0, 2]))
    assert (dec.m, dec.l) == (4, 2)
    assert dec.R == Polynomial([1, 0, 2])
    assert dec.bm == 5


def test_shape_rejections():
    with pytest.raises(LinearCoefficientNonzero):
        claim1_shape_check(Polynomial([0, 1, 0, 1]))  # z^3 + z
    with pytest.raises(DegreeTooSmall):
        claim1_shape_check(Polynomial([1, 0, 1]))
    with pytest.raises(BinomialShape) as info:
        claim1_shape_check(Polynomial([2, 0, 0, 0, 0, 1]))  # z^5 + 2
    assert info.value.degree == 5
    assert info.value.constant == 2
    with pytest.raises(BinomialShape):
        claim1_shape_check(Polynomial([0, 0, 0, 1]))  # z^3: no middle terms at all


# -- restricted-shape chain -----------------------------------------------------------------


def test_chain_cubic():
    rep = claim1_chain_report(Polynomial([-1, 0, 3, 1]), GRID)
    assert rep.verdict
    assert rep.params["ratio"] == pytest.approx(2 / 3)
    assert rep.params["drift_tol"] == valdist.verify.CLAIM1_DRIFT_TOL
    for key in ("T_F_drift", "Nbar_zl_drift", "N_R_drift"):
        assert rep.params[key] <= 1e-2
    # margin grows like 2 log r
    assert rep.series[-1] == pytest.approx(2 * math.log(GRID[-1]), abs=5e-3)


def test_chain_quartic():
    rep = claim1_chain_report(Polynomial([5, 0, 1, 0, 2]), GRID)
    assert rep.verdict
    assert rep.params["ratio"] == pytest.approx(3 / 4)
    # margin = 3 log r - (1/4) log 2 - log(5/2): the T-route constant comes
    # from F = z^2 (2z^2 + 1) via the origin-anchored mean-value identity,
    # the target-route one from the four simple roots at modulus (5/2)^(1/4)
    expected = 3 * math.log(GRID[-1]) - math.log(2) / 4 - math.log(5 / 2)
    assert rep.series[-1] == pytest.approx(expected, abs=5e-3)


def test_chain_propagates_shape_errors():
    with pytest.raises(LinearCoefficientNonzero):
        claim1_chain_report(Polynomial([0, 1, 0, 1]), GRID)


# -- remark check ----------------------------------------------------------------------------


def test_remark_z2_minus_1():
    rep = remark_fft_check(Polynomial([-1, 0, 1]), GRID)
    assert rep.verdict
    assert rep.params["drift_tol"] == valdist.verify.DRIFT_TOL
    # exact once r clears both roots: N = 2 log r
    assert abs(rep.series[-1]) <= 1e-9


def test_remark_identity_map():
    rep = remark_fft_check(Polynomial([0, 1]), GRID)
    assert rep.verdict
    assert rep.sup_abs <= 1e-12


def test_remark_rejects_constant():
    with pytest.raises(ConstantPolynomial):
        remark_fft_check(Polynomial([5]), GRID)


# -- fixed verdict and quadrature settings ---------------------------------------------------


SHARED_ROOT = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))


def test_quadrature_config_has_only_the_tolerance():
    assert [fld.name for fld in dataclasses.fields(QuadratureConfig)] == ["abs_tol"]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: QuadratureConfig(max_subdivisions=24), id="max_subdivisions"),
        pytest.param(
            lambda: QuadratureConfig(singularity_refine_band=1e-6), id="singularity_refine_band"
        ),
        pytest.param(
            lambda: verify_first_fundamental(as_rf(0, 0, 1), 1.0, GRID, drift_tol=1e-3),
            id="fft_drift_tol",
        ),
        pytest.param(
            lambda: remark_fft_check(Polynomial([-1, 0, 1]), GRID, drift_tol=1e-3),
            id="remark_drift_tol",
        ),
        pytest.param(
            lambda: claim1_chain_report(Polynomial([-1, 0, 3, 1]), GRID, drift_tol=1e-2),
            id="claim1_drift_tol",
        ),
        pytest.param(
            lambda: verify_second_fundamental(as_rf(0, 0, 1), [0, 1, "inf"], GRID, eps_s=0.0),
            id="smt_eps_s",
        ),
        pytest.param(
            lambda: verify_second_fundamental(as_rf(0, 0, 1), [0, 1, "inf"], GRID, c_s=20.0),
            id="smt_c_s",
        ),
        pytest.param(
            lambda: reduce_common_roots(SHARED_ROOT, tol=1e-8), id="reduce_common_roots_tol"
        ),
        pytest.param(lambda: SHARED_ROOT.reduce(tol=1e-8), id="reduce_tol"),
    ],
)
def test_fixed_settings_are_not_accepted(call):
    with pytest.raises(TypeError):
        call()


# -- report JSON form -------------------------------------------------------------------------


def test_report_json_dict_shape():
    rep = verify_second_fundamental(as_rf(0, 0, 1), [0, 1, "inf"], GRID)
    d = rep.to_json_dict()
    assert d["theorem"] == "smt"
    assert d["verdict"] == "pass"
    assert len(d["rgrid"]) == len(d["series"]) == len(GRID)
    assert set(d) >= {"theorem", "context", "rgrid", "series", "sup_abs", "tail_drift", "verdict", "params"}


def test_fft_bounded_on_random_rational():
    rng = make_rng(61)
    f = random_rational(rng, 5, 3)
    a = f(0) - 0.7
    rep = verify_first_fundamental(f, a, GRID)
    assert math.isfinite(rep.sup_abs)
    assert rep.tail_drift <= 1e-3
    assert rep.params["jensen_gap"] <= 1e-6
