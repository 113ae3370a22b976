"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

import valdist as vd
from valdist import (
    INFINITY,
    Polynomial,
    QuadratureConfig,
    RationalFunction,
    build_profile,
    characteristic_T,
    claim1_chain_report,
    counting_N,
    counting_N_integral,
    fta_witness,
    localize_roots,
    log_rgrid,
    proximity_m,
    remark_fft_check,
    verify_degree_growth,
    verify_first_fundamental,
    verify_second_fundamental,
    winding_count,
)

from conftest import make_rng, random_factored, random_polynomial, random_rational

# tail half of this grid is exactly [1e2, 1e4]; index 24 lands on 1e3
GRID = log_rgrid(1.0, 1e4, 33)
CFG = QuadratureConfig()


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fft_corpus(seed, size=20):
    """Random reduced rationals with deg num > deg den, so the first
    fundamental deviation converges exactly to the Jensen constant."""
    rng = make_rng(seed)
    out = []
    while len(out) < size:
        dn = int(rng.integers(1, 7))
        dd = int(rng.integers(0, dn))
        f = random_rational(rng, dn, dd)
        if f.numerator.degree <= f.denominator.degree:
            continue
        if abs(f(0)) > 1e3:
            continue
        out.append(f)
    return out


def test_criterion_1_degree_recovery():
    t0 = time.monotonic()
    rng = make_rng(3001)
    worst = 0.0
    for degree in range(1, 11):
        for _ in range(5):
            p = random_polynomial(rng, degree)
            fit = verify_degree_growth(p, GRID, CFG)
            err = abs(fit.slope - degree)
            worst = max(worst, err)
            assert round(fit.slope) == degree
            assert err <= 1e-3
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed <= 60.0
    _report(1, ok, f"degree slope worst error {worst:.2e}, {elapsed:.1f}s (cap 60s)")


def test_criterion_2_fft_boundedness_and_jensen():
    t0 = time.monotonic()
    rng = make_rng(3002)
    worst_drift = 0.0
    worst_gap = 0.0
    for f in _fft_corpus(3002):
        f0 = f(0)
        for _ in range(3):
            c = rng.uniform(0.3, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            a = f0 - complex(c)
            rep = verify_first_fundamental(f, a, GRID, CFG)
            worst_drift = max(worst_drift, rep.tail_drift)
            worst_gap = max(worst_gap, rep.params["jensen_gap"])
            assert math.isfinite(rep.sup_abs)
    elapsed = time.monotonic() - t0
    ok = worst_drift <= 1e-3 and worst_gap <= 1e-6 and elapsed <= 120.0
    _report(
        2,
        ok,
        f"fft tail drift {worst_drift:.2e} (cap 1e-3), Jensen gap {worst_gap:.2e} "
        f"(cap 1e-6), {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_3_smt_inequality():
    targets_base = [0 + 0j, 1 + 0j, INFINITY]
    worst_margin = math.inf
    for f in _fft_corpus(3002):
        # perturb finite targets that coincide with a deficient value
        fixed = []
        for a in targets_base:
            if isinstance(a, complex):
                g = f.numerator - a * f.denominator
                if g.is_zero or g.degree < f.degree_max:
                    a = a + 0.173
            fixed.append(a)
        rep = verify_second_fundamental(f, fixed, GRID, CFG)
        assert rep.verdict, "slack fell below the error-term allowance"
        allowance = rep.components["allowance"]
        worst_margin = min(
            worst_margin, min(s + b for s, b in zip(rep.series, allowance))
        )
    # closed form: f = z^2 with {0, 1, inf} has slack(r) = log r for r > 1
    f2 = RationalFunction.from_polynomial(Polynomial([0, 0, 1]))
    rep = verify_second_fundamental(f2, targets_base, GRID, CFG)
    idx = int(np.argmin(np.abs(np.asarray(rep.rgrid) - 1e3)))
    gap = abs(rep.series[idx] - math.log(rep.rgrid[idx]))
    ok = gap <= 5e-3 and worst_margin > 0
    _report(
        3,
        ok,
        f"smt slack stayed {worst_margin:.2f} above the allowance floor; "
        f"z^2 slack(1e3) off by {gap:.2e} (cap 5e-3)",
    )


def test_criterion_4_claim1_chain():
    polys = [Polynomial([-1, 0, 3, 1]), Polynomial([5, 0, 1, 0, 2])]
    worst_drift = 0.0
    for q in polys:
        rep = claim1_chain_report(q, GRID, CFG)
        assert rep.verdict
        for key in ("T_F_drift", "Nbar_zl_drift", "N_R_drift"):
            worst_drift = max(worst_drift, rep.params[key])
        for r, s in zip(rep.rgrid, rep.series):
            if r >= 10.0:
                assert s > 0.0
    ok = worst_drift <= 1e-2
    _report(4, ok, f"chain component drift {worst_drift:.2e} (cap 1e-2), margins positive for r >= 10")


def test_criterion_5_fta_witness():
    t0 = time.monotonic()
    rng = make_rng(3005)
    degrees = [3 + (k % 10) for k in range(100)]
    worst_ratio = 0.0
    worst_rel = 0.0
    for degree in degrees:
        p = random_polynomial(rng, degree)
        trace = fta_witness(p, 1e-8)
        rel = trace.residual / p.coefficient_scale
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-8
        assert trace.depth == degree - 2
        for level in trace.claim1_checks:
            worst_ratio = max(worst_ratio, level.linear_ratio)
            assert level.linear_ratio <= 1e-9
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 1e-8 and worst_ratio <= 1e-9 and elapsed <= 120.0
    _report(
        5,
        ok,
        f"100/100 witnesses, residual {worst_rel:.2e} x scale (cap 1e-8), "
        f"linear coefficient {worst_ratio:.2e} x scale (cap 1e-9), {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_6_remark_check():
    rng = make_rng(3006)
    worst = 0.0
    for k in range(50):
        degree = 1 + (k % 10)
        p = random_polynomial(rng, degree)
        rep = remark_fft_check(p, GRID)
        worst = max(worst, rep.tail_drift)
        assert rep.verdict
    ok = worst <= 1e-3
    _report(6, ok, f"N(r,0;P) - deg log r tail drift {worst:.2e} over 50 polynomials (cap 1e-3)")


def test_criterion_7_oracle_equivalence():
    rng = make_rng(3007)
    worst = 0.0
    radii = (3.7, 42.0, 1.0e3)
    for k in range(50):
        dn = int(rng.integers(1, 7))
        dd = int(rng.integers(0, 7))
        f = random_rational(rng, dn, dd)
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        try:
            n_sum = counting_N(f, a, radii[k % 3])
        except vd.FunctionIdenticallyA:
            continue
        n_int = counting_N_integral(f, a, radii[k % 3], CFG)
        worst = max(worst, abs(n_sum - n_int))
        assert abs(n_sum - n_int) <= 1e-9
    count_checked = 0
    while count_checked < 100:
        degree = int(rng.integers(2, 13))
        p, roots = random_factored(rng, degree)
        radius = 1.7
        if any(abs(abs(z) - radius) < 0.15 for z, _ in roots):
            continue
        expected = sum(m for z, m in roots if abs(z) < radius)
        assert winding_count(p, vd.Disk(0j, radius)) == expected
        count_checked += 1
    _report(
        7,
        True,
        f"counting routes agree to {worst:.2e} (cap 1e-9) on 50 members; "
        f"100 factored windings matched exactly",
    )


def test_criterion_8_property_suites():
    rng = make_rng(3008)
    violations = 0
    grid = [1.0, 3.2, 10.0, 32.0, 100.0, 320.0, 1000.0]

    # Jensen identity at a = 0
    for _ in range(10):
        f = random_rational(rng, int(rng.integers(1, 6)), int(rng.integers(0, 5)))
        if abs(f(0)) < 1e-3 or abs(f(0)) > 1e3:
            continue
        expected = math.log(abs(f(0)))
        for r in grid:
            lhs = (
                characteristic_T(f, r, CFG)
                - proximity_m(f, 0, r, CFG)
                - counting_N(f, 0, r)
            )
            if abs(lhs - expected) > 2 * CFG.abs_tol:
                violations += 1

    # profile order relations
    for _ in range(5):
        f = random_rational(rng, int(rng.integers(1, 6)), int(rng.integers(0, 5)))
        profiles = build_profile(f, [0, 0.5 + 0.5j, INFINITY], grid, CFG)
        for prof in profiles:
            rows = prof.rows
            for a, b in zip(rows, rows[1:]):
                if b.T < a.T - 2 * CFG.abs_tol:
                    violations += 1
                if b.N < a.N - 1e-12 or b.Nbar < a.Nbar - 1e-12:
                    violations += 1
                if b.n < a.n or b.nbar < a.nbar:
                    violations += 1
            for row in rows:
                if row.m < 0 or row.Nbar > row.N + 1e-12 or row.nbar > row.n:
                    violations += 1

    # shift-root translation
    for _ in range(8):
        p, roots = random_factored(rng, int(rng.integers(2, 9)), max_mult=2)
        h = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        encs = localize_roots(p.shift(h), vd.Box(0j, 4.0, 4.0), 1e-8)
        moved = sorted(
            (z - h for z, m in roots for _ in range(m) if abs(z - h) < 3.9),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(
            (e.center for e in encs for _ in range(e.multiplicity)),
            key=lambda z: (z.real, z.imag),
        )
        if len(moved) != len(got):
            violations += 1
        else:
            violations += sum(abs(x - y) > 1e-6 for x, y in zip(moved, got))

    _report(8, violations == 0, f"{violations} property violations across the randomized corpus")
