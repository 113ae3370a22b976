"""Adaptive Simpson quadrature on a vectorized integrand, many rows at once.

The integrator works in "waves": every pending interval is split at once
and all new nodes are evaluated in a single vectorized call. Rows (log+ |g|
on each circle of an r-grid, say) share [a, b] but not their knots; each
interval carries its row, and one call per wave evaluates every row. The
intervals are kept grouped by row, each row's block in the order a lone
run of that row would hold it: seeded in ascending order, and after each
split the left halves of the row's continuing intervals, then their right
halves. Every interval of a wave is at the same depth. A row's sums are
``np.add.reduce`` over the part of its block that is summed, so a row's
result is the same to the bit as when it is integrated alone, as long as
the integrand's value at a point does not depend on the other points of
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
    """(rows, sums): each row of the grouped ``row``, its values summed in their order.

    Each sum is ``np.add.reduce`` of the row's own run, as in a lone run
    of the row; ``np.add.reduceat`` would sum each run sequentially, not
    pairwise, and move bits.
    """
    if not row.size:
        return row, values
    lo = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1]))).tolist()
    hi = [*lo[1:], row.size]
    return row[lo], np.array([np.add.reduce(values[j:k]) for j, k in zip(lo, hi)])


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
    # seed each row with its knots in range and 16 equal pieces of [a, b],
    # whose ends the grid holds; equal values of a row keep that order, as
    # the sort by row and value is stable
    n_rows = len(knots)
    ids = np.arange(n_rows)
    inner = [[float(k) for k in ks if a < k < b] for ks in knots]
    pts = np.concatenate(([k for ks in inner for k in ks], np.tile(np.linspace(a, b, 17), n_rows)))
    pts_row = np.concatenate((np.repeat(ids, [len(ks) for ks in inner]), np.repeat(ids, 17)))
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

    total = np.zeros(n_rows)
    leftover = np.zeros(n_rows)
    stopped = np.zeros(n_rows, dtype=bool)
    ended = np.zeros(n_rows, dtype=bool)
    span = b - a
    depth = 0
    while left.size:
        if left.size > MAX_WAVE:
            raise QuadratureNotConverged(f"{left.size} intervals open in one wave (cap {MAX_WAVE})")
        n = left.size
        f_q = fn(np.concatenate([left + 0.25 * width, left + 0.75 * width]), np.concatenate([row, row]))
        # the left halves' values, then the right halves', in one array each
        f_left2 = np.concatenate([f_left, f_mid])
        f_right2 = np.concatenate([f_mid, f_right])
        width2 = np.concatenate([width, width])
        s_half = width2 / 12.0 * (f_left2 + 4.0 * f_q + f_right2)
        s2 = s_half[:n] + s_half[n:]
        err = np.abs(s2 - simpson) / 15.0
        share = abs_tol * width / span
        tiny = width < _WIDTH_FLOOR * np.maximum(np.abs(left), 1.0)
        pend = np.flatnonzero(~((err <= share) | tiny))
        # remaining segments are jointly within budget even though none
        # meets its width-proportional share (mass concentrated in a few
        # short segments); stop refining those rows
        rows, sums = _row_sums(row[pend], err[pend])
        stopped[rows] = sums <= 0.5 * abs_tol
        pend = pend[~stopped[row[pend]]]
        if depth >= MAX_DEPTH:  # every pending interval is capped
            rows, rests = _row_sums(row[pend], err[pend])
            leftover[rows] += rests
            pend = pend[:0]
        done = np.ones(n, dtype=bool)
        done[pend] = False
        rows, gains = _row_sums(row[done], (s2 + (s2 - simpson) / 15.0)[done])
        total[rows] += gains
        cont = pend
        finite = np.isfinite(err)
        if not finite.all():  # a value that is not finite ends its row
            ended[row[~finite]] = True
            total[ended] = math.nan
            cont = pend[~ended[row[pend]]]
        if not cont.size:
            break
        # each row's block: the left halves of its continuing intervals,
        # then their right halves, as a lone row would hold them
        r = np.concatenate([row[cont], row[cont]])
        order = r.argsort(kind="stable")
        child = np.concatenate([cont, cont + n])[order]
        row = r[order]
        left = np.concatenate([left, left + 0.5 * width])[child]
        width = (0.5 * width2)[child]
        f_left = f_left2[child]
        f_right = f_right2[child]
        f_mid = f_q[child]
        simpson = s_half[child]
        depth += 1

    for t, rest in zip(total.tolist(), leftover.tolist()):
        if math.isnan(t):
            break
        if rest > abs_tol:
            raise QuadratureNotConverged(
                f"estimate still moving by {rest:.3e} after {MAX_DEPTH} subdivisions"
            )
    return total.tolist()


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
