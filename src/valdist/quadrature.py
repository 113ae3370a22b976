"""Adaptive Simpson quadrature on a vectorized integrand, many rows at once.

The integrator works in "waves": every pending interval is split at once
and all new nodes are evaluated in a single vectorized call. Rows (log+ |g|
on each circle of an r-grid, say) share [a, b] but not their knots; each
interval carries its row, and one call per wave evaluates every row. A
row's intervals keep the order they would have alone, though not next to
each other, and each subset that is summed is first stably sorted by row,
so a row's sums are taken over its own elements in its lone order. A row's
result is thus the same to the bit as when it is integrated alone, as long
as the integrand's value at a point does not depend on the other points of
the call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNotConverged

# Intervals narrower than this (relative to their position) are accepted
# as-is; float64 cannot resolve the integrand any further.
_WIDTH_FLOOR = 32.0 * np.finfo(float).eps
# halvings allowed below each seeded interval
MAX_DEPTH = 24
# open intervals one wave may hold before giving up (the benchmark: < 2^15)
MAX_WAVE = 2**18


def _row_sums(row, values):
    """(row, sum) for each row present in ``row``, its values summed in their order."""
    if not row.size:
        return []
    order = row.argsort(kind="stable")
    row, values = row[order], values[order]
    lo = [0, *(np.flatnonzero(row[1:] != row[:-1]) + 1).tolist()]
    hi = [*lo[1:], row.size]
    return [(i, float(np.add.reduce(values[j:k]))) for i, j, k in zip(row[lo].tolist(), lo, hi)]


@np.errstate(invalid="ignore")  # inf - inf in the sums of a row that is not finite
def integrate_rows(fn, a, b, *, abs_tol, knots):
    """Integrate one integrand per row over [a, b], each to ``abs_tol``.

    ``knots`` holds one knot sequence per row; ``fn(x, row)`` gets the
    abscissae and the row of each. Each row is refined as by
    :func:`adaptive_simpson`, except that a non-finite value ends its row
    with a NaN total. Up to the first such row, the first row whose capped
    segments leave more than ``abs_tol`` raises ``QuadratureNotConverged``;
    so does a wave with more than ``MAX_WAVE`` open intervals.
    """
    if not b > a:
        raise ValueError("empty integration interval")
    # seed each row with [a, b], its knots in range and 16 equal pieces
    grid = np.linspace(a, b, 17)
    seeds = [np.concatenate(([a, b], [float(k) for k in ks if a < k < b], grid)) for ks in knots]
    pts = np.concatenate(seeds)
    pts_row = np.repeat(np.arange(len(seeds)), [s.size for s in seeds])
    order = np.lexsort((pts, pts_row))
    pts, pts_row = pts[order], pts_row[order]
    # drop repeats, and knots that collide within float resolution (locally,
    # so that deliberately tight knot pairs far from the span scale survive)
    local = _WIDTH_FLOOR * np.maximum(np.abs(pts[:-1]), 1.0)
    keep = np.concatenate(([True], (np.diff(pts_row) != 0) | (np.diff(pts) > local)))
    pts, pts_row = pts[keep], pts_row[keep]
    last = np.append(np.diff(pts_row) != 0, True)
    pts[last] = b

    starts = ~last
    left = pts[starts]
    row = pts_row[starts]
    width = np.diff(pts)[starts[:-1]]
    mid = left + 0.5 * width
    # endpoints (evaluated once, shared between neighbours) and midpoints in one call
    f_all = fn(np.concatenate([pts, mid]), np.concatenate([pts_row, row]))
    f_pts, f_mid = f_all[: pts.size], f_all[pts.size :]
    f_left = f_pts[starts]
    f_right = f_pts[1:][starts[:-1]]
    simpson = width / 6.0 * (f_left + 4.0 * f_mid + f_right)
    depth = np.zeros(left.shape, dtype=int)

    total = [0.0] * len(seeds)
    leftover = [0.0] * len(seeds)
    span = b - a
    while left.size:
        if left.size > MAX_WAVE:
            raise QuadratureNotConverged(f"{left.size} intervals open in one wave (cap {MAX_WAVE})")
        quarters = np.concatenate([left + 0.25 * width, left + 0.75 * width])
        f_q = fn(quarters, np.concatenate([row, row]))
        f_lm, f_rm = f_q[: row.size], f_q[row.size :]
        s_l = width / 12.0 * (f_left + 4.0 * f_lm + f_mid)
        s_r = width / 12.0 * (f_mid + 4.0 * f_rm + f_right)
        s2 = s_l + s_r
        err = np.abs(s2 - simpson) / 15.0
        share = abs_tol * width / span
        tiny = width < _WIDTH_FLOOR * np.maximum(np.abs(left), 1.0)
        pend = ~((err <= share) | tiny)
        stopped = np.zeros(len(seeds), dtype=bool)
        for i, row_err in _row_sums(row[pend], err[pend]):
            stopped[i] = row_err <= 0.5 * abs_tol
        # remaining segments are jointly within budget even though none
        # meets its width-proportional share (mass concentrated in a few
        # short segments); stop refining those rows
        pend &= ~stopped[row]
        capped = pend & (depth >= MAX_DEPTH)
        cont = pend & ~capped
        done = ~cont
        for i, gain in _row_sums(row[done], (s2 + (s2 - simpson) / 15.0)[done]):
            total[i] += gain
        for i, rest in _row_sums(row[capped], err[capped]):
            leftover[i] += rest
        ended = np.zeros(len(seeds), dtype=bool)
        ended[row[~np.isfinite(err)]] = True  # a value that is not finite ends its row
        for i in np.flatnonzero(ended).tolist():
            total[i] = math.nan
        cont &= ~ended[row]
        if not cont.any():
            break
        # halves go left then right; each row's elements stay in the order a
        # lone row would hold them, though no longer next to each other
        half = 0.5 * width[cont]
        row = np.concatenate([row[cont], row[cont]])
        left = np.concatenate([left[cont], left[cont] + half])
        width = np.concatenate([half, half])
        f_left = np.concatenate([f_left[cont], f_mid[cont]])
        f_right = np.concatenate([f_mid[cont], f_right[cont]])
        f_mid = np.concatenate([f_lm[cont], f_rm[cont]])
        simpson = np.concatenate([s_l[cont], s_r[cont]])
        depth = np.concatenate([depth[cont] + 1, depth[cont] + 1])

    for t, rest in zip(total, leftover):
        if math.isnan(t):
            break
        if rest > abs_tol:
            raise QuadratureNotConverged(
                f"estimate still moving by {rest:.3e} after {MAX_DEPTH} subdivisions"
            )
    return total


def adaptive_simpson(fn, a, b, *, abs_tol, knots=()):
    """Integrate ``fn`` over [a, b] to absolute tolerance ``abs_tol``.

    ``fn`` must accept an ndarray of abscissae and return finite values.
    ``knots`` seeds the initial partition (singular angles, ladders around
    near-contour roots, ...); refinement depth is counted per interval from
    its seeded segment, up to ``MAX_DEPTH`` halvings, so a well-placed knot
    buys resolution for free. This is the one-row case of
    :func:`integrate_rows`.
    """
    return integrate_rows(lambda x, _row: fn(x), a, b, abs_tol=abs_tol, knots=[knots])[0]
