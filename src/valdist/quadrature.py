"""Adaptive Simpson quadrature on a vectorized integrand.

The integrator works in "waves": every pending interval is split at once
and all new nodes are evaluated in a single vectorized call, which keeps
the per-node Python overhead negligible even for deep refinements.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNotConverged

# Intervals narrower than this (relative to their position) are accepted
# as-is; float64 cannot resolve the integrand any further.
_WIDTH_FLOOR = 32.0 * np.finfo(float).eps
# halvings allowed below each seeded interval
MAX_DEPTH = 24


def adaptive_simpson(fn, a, b, *, abs_tol, knots=()):
    """Integrate ``fn`` over [a, b] to absolute tolerance ``abs_tol``.

    ``fn`` must accept an ndarray of abscissae and return finite values.
    ``knots`` seeds the initial partition (singular angles, ladders around
    near-contour roots, ...); refinement depth is counted per interval from
    its seeded segment, up to ``MAX_DEPTH`` halvings, so a well-placed knot
    buys resolution for free.
    """
    if not b > a:
        raise ValueError("empty integration interval")
    pts = [a, b]
    pts.extend(float(k) for k in knots if a < k < b)
    pts.extend(np.linspace(a, b, 17))
    pts = np.unique(np.asarray(pts, dtype=float))
    # drop knots that collide within float resolution (locally, so that
    # deliberately tight knot pairs far from the span scale survive)
    local = _WIDTH_FLOOR * np.maximum(np.abs(pts[:-1]), 1.0)
    keep = np.concatenate(([True], np.diff(pts) > local))
    pts = pts[keep]
    if pts[-1] != b:
        pts = np.append(pts[:-1], b)

    left = pts[:-1]
    width = np.diff(pts)
    mid = left + 0.5 * width
    f_pts = fn(pts)  # endpoints evaluated once, shared between neighbours
    f_left = f_pts[:-1]
    f_right = f_pts[1:]
    f_mid = fn(mid)
    simpson = width / 6.0 * (f_left + 4.0 * f_mid + f_right)
    depth = np.zeros(left.shape, dtype=int)

    total = 0.0
    leftover = 0.0
    span = b - a
    while left.size:
        lm = left + 0.25 * width
        rm = left + 0.75 * width
        f_lm = fn(lm)
        f_rm = fn(rm)
        s_l = width / 12.0 * (f_left + 4.0 * f_lm + f_mid)
        s_r = width / 12.0 * (f_mid + 4.0 * f_rm + f_right)
        s2 = s_l + s_r
        err = np.abs(s2 - simpson) / 15.0
        share = abs_tol * width / span
        tiny = width < _WIDTH_FLOOR * np.maximum(np.abs(left), 1.0)
        done = (err <= share) | tiny
        if float(np.sum(err[~done])) <= 0.5 * abs_tol:
            # remaining segments are jointly within budget even though none
            # meets its width-proportional share (mass concentrated in a
            # few short segments); stop refining
            done[:] = True
        capped = (~done) & (depth >= MAX_DEPTH)
        accept = done | capped
        total += float(np.sum(s2[accept] + (s2[accept] - simpson[accept]) / 15.0))
        leftover += float(np.sum(err[capped]))
        cont = ~accept
        if not np.any(cont):
            break
        half = 0.5 * width[cont]
        left = np.concatenate([left[cont], left[cont] + half])
        width = np.concatenate([half, half])
        f_left = np.concatenate([f_left[cont], f_mid[cont]])
        f_right = np.concatenate([f_mid[cont], f_right[cont]])
        f_mid = np.concatenate([f_lm[cont], f_rm[cont]])
        simpson = np.concatenate([s_l[cont], s_r[cont]])
        depth = np.concatenate([depth[cont] + 1, depth[cont] + 1])

    if leftover > abs_tol:
        raise QuadratureNotConverged(
            f"estimate still moving by {leftover:.3e} after {MAX_DEPTH} subdivisions"
        )
    return total
