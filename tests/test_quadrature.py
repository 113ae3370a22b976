import numpy as np
import pytest

from valdist import QuadratureNotConverged
from valdist.quadrature import MAX_DEPTH, MAX_WAVE, adaptive_simpson, integrate_rows

from conftest import make_rng

# A unit step at 1/48 sits at relative position 1/3 or 2/3 of the interval
# that holds it at every depth below the seed piece [0, 1/16], where the
# Simpson error estimate of that interval is its width / 60. With this
# tolerance the estimate stays above half the tolerance down to MAX_DEPTH
# and ends below the tolerance: the row is capped and still converges.
STEP_AT = 1.0 / 48.0
CAPPED_TOL = 1.5 * 2.0**-4 * 2.0**-MAX_DEPTH / 60.0

ROWS = [
    (lambda x: x * x - 3.0 * x, ()),  # Simpson is exact: no refinement
    (lambda x: np.sqrt(np.abs(x - 0.7)), (0.7,)),  # a cusp on a knot
    (lambda x: np.sqrt(np.abs(x - 0.3)), ()),  # a cusp between nodes
    (lambda x: np.exp(np.sin(9.0 * x)), (0.25, 0.5, 0.5 + 1e-15)),  # smooth, colliding knots
    (lambda x: (x > STEP_AT).astype(float), ()),  # capped at MAX_DEPTH
]


def rows_fn(fns):
    def fn(x, row):
        out = np.empty_like(x)
        for i, f in enumerate(fns):
            out[row == i] = f(x[row == i])
        return out

    return fn


def lone(f, knots, tol=CAPPED_TOL):
    return adaptive_simpson(f, 0.0, 1.0, abs_tol=tol, knots=knots)


# the ROWS totals, recorded before the wave loop kept its bookkeeping in
# arrays: a rewrite that moved a bit in every row alike would still match
# the lone runs, but not these
ROWS_HEX = [
    "-0x1.2aaaaaaaaaaaap+0",
    "0x1.fffc4ae23d53ap-2",
    "0x1.fffc4ae2c300ap-2",
    "0x1.83e0b0298d732p+0",
    "0x1.f555555222222p-1",
]


def test_rows_match_lone_rows_bit_for_bit():
    fns, knots = zip(*ROWS)
    totals = integrate_rows(rows_fn(fns), 0.0, 1.0, abs_tol=CAPPED_TOL, knots=list(knots))
    assert [t.hex() for t in totals] == [lone(f, k).hex() for f, k in ROWS] == ROWS_HEX
    # the capped row is still right to the width of its last interval
    assert abs(totals[-1] - (1.0 - STEP_AT)) <= 2.0**-4 * 2.0**-MAX_DEPTH


def test_wave_cap_message():
    # every interval of a rapidly oscillating integrand stays open until a
    # wave passes the cap; the count, recorded before the wave loop kept its
    # bookkeeping in arrays, is the intervals that wave holds
    with pytest.raises(QuadratureNotConverged) as exc:
        adaptive_simpson(lambda x: np.sin(1e12 * x), 0.0, 1.0, abs_tol=1e-9)
    assert str(exc.value) == f"523938 intervals open in one wave (cap {MAX_WAVE})"


def test_capped_row_reaches_max_depth():
    step, knots = ROWS[-1]
    # the step's last estimate lies between half the tolerance and the
    # tolerance, so halving the tolerance leaves it unresolved at the cap
    with pytest.raises(QuadratureNotConverged) as exc:
        lone(step, knots, CAPPED_TOL / 2.0)
    # the leftover as recorded before the wave loop kept its bookkeeping in arrays
    assert str(exc.value) == f"estimate still moving by 6.209e-11 after {MAX_DEPTH} subdivisions"


def test_rows_that_differ_in_depth_take_one_call_per_wave():
    calls = []

    def fn(x, row):
        calls.append(np.unique(row).size)
        return rows_fn([f for f, _ in ROWS])(x, row)

    integrate_rows(fn, 0.0, 1.0, abs_tol=CAPPED_TOL, knots=[k for _, k in ROWS])
    # the step row refines longest: the seed's endpoints and midpoints, then
    # both quarter points of every interval in one call per wave
    assert len(calls) == 1 + (MAX_DEPTH + 1)
    assert calls[:2] == [len(ROWS)] * 2 and calls[-1] == 1


def not_finite(x):
    return np.where(x > 0.5, np.inf, 1.0)


# ROWS and a row that ends on a non-finite value
MIXED = [*ROWS, (not_finite, ())]
NOT_FINITE, CAPPED = len(ROWS), len(ROWS) - 1
ORDERS = [
    (0, NOT_FINITE, 1, 2, 3, CAPPED),  # the non-finite row between two finite ones
    (CAPPED, 3, 2, 1, 0, NOT_FINITE),  # the capped row first
    *(tuple(make_rng(seed).permutation(len(MIXED)).tolist()) for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("order", ORDERS)
def test_shuffled_rows_match_lone_rows_bit_for_bit(order):
    # a row's intervals are interleaved with other rows' from the first wave
    # on; its sums must still come out as in its lone run
    fns, knots = zip(*(MIXED[i] for i in order))
    totals = integrate_rows(rows_fn(fns), 0.0, 1.0, abs_tol=CAPPED_TOL, knots=list(knots))
    assert [t.hex() for t in totals] == [lone(*MIXED[i]).hex() for i in order]
    assert np.isnan(totals[order.index(NOT_FINITE)])


def test_earlier_leftover_failure_beats_later_integrand_failure():
    step, _ = ROWS[-1]
    fn = rows_fn([step, not_finite])
    with pytest.raises(QuadratureNotConverged, match="still moving"):
        integrate_rows(fn, 0.0, 1.0, abs_tol=CAPPED_TOL / 2.0, knots=[(), ()])


def test_earlier_integrand_failure_ends_the_checks():
    step, _ = ROWS[-1]
    fn = rows_fn([not_finite, step])
    totals = integrate_rows(fn, 0.0, 1.0, abs_tol=CAPPED_TOL / 2.0, knots=[(), ()])
    assert np.isnan(totals[0])


def test_empty_interval_rejected():
    with pytest.raises(ValueError, match="empty"):
        integrate_rows(rows_fn([np.cos]), 1.0, 1.0, abs_tol=1e-9, knots=[()])
