"""Argument-principle root counting, certified enclosures, and the
shift-and-localize root-witness pipeline.

Counting integrates p'/p (minus q'/q for poles) around region boundaries
with the trapezoid rule, doubling resolution until the value snaps to the
same integer at two consecutive resolutions. The 2n-node rule contains the
n-node rule, so each doubling evaluates only the n new nodes and adds
their weighted sum to half the running value. No value snaps on its
first rule, so the first two rules share one evaluation. The four
children of a split share each doubling pass, one evaluation per
polynomial for all of their new nodes; the inner edges they share are
still evaluated once per side. Disks and boxes share one rule: a pass
puts origin + scale * the unit nodes of a cached template on each edge
(a disk's one, a box's four), and a region's value is the sum over its
edges of scale times the unit weights times f'/f. Node moduli are
bounded by the regions' geometry; |z| is computed only when a value may
be below the roundoff bound, where a node may be unreliable and is
re-evaluated exactly. Localization counts every
region through one box, the region itself or the box around a disk, and
a disk's roots are the certified enclosures whose centres lie inside its
circle: no contour runs on the circle. A box that holds p's Cauchy disk
holds all deg p roots by Cauchy's bound, so its count is the degree, a
theorem and not a contour. The descent is a quadtree on boxes: a box
whose subdivision line would pass through a root is re-split at the
next point of a fixed off-centre split ladder, so children always tile
their parent exactly, counts stay conserved, and the same input always
gives the same enclosures. Once a box is small, a
Newton endgame polishes the root and certifies a tiny disk around it. A
simple root's disk needs no contour: it lies inside its box, whose count
is 1, and the one-root bound deg p |p(z)| / |p'(z)|, from exact values
rounded outward, is below its radius, so it holds the box's one root. A
cluster's disk, or one the bound refuses, is certified by an independent
winding count.
Uncertified companion-matrix root hints only order the split points and
stop the start box; winding counts and the one-root bound stay the
certificates. Every search for all the roots of a polynomial, the
a-point enumeration's and the witness pipeline's, is one ``_all_roots``
call, at the caller's constant times max(1, Fujiwara's bound). Its k
exactly zero low coefficients put a root of multiplicity k at the
origin, a theorem and not a count, so that root's enclosure runs no
contour; the descent runs on the rest of the polynomial alone, from
twice its Cauchy box. Of the recentred polynomial's enclosures, the
witness takes the one nearest minus the shift, which minimizes the
witness modulus.

One boundary rule: ``RootOnBoundary`` at the first ladder through a root
on a contour no split placed (the caller's box, the box around a disk, a
final enclosure), for roots on every split tried, and for an enclosure
astride a disk's circle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Polynomial, RationalFunction, _roots_hint, _zero_order, claim1_shape_check
from .errors import (
    BinomialShape,
    ConstantPolynomial,
    ContourTooClose,
    LocalizationFailed,
    QuadratureNotConverged,
    RootOnBoundary,
    SubdivisionDepthExceeded,
)

WINDING_START_NODES = 256
WINDING_MAX_NODES = 2**20
# regions whose rules total at most this many nodes share each doubling pass
LOCKSTEP_NODES = 2**14
# a root closer than this (relative to region size) counts as "on" the contour
CONTOUR_BAND_REL = 1e-9
SNAP_MARGIN = 0.25
# quadtree boxes one descent may process before giving up
MAX_BOXES = 50000
# exact-arithmetic Newton steps tried below the float roundoff halo
NEWTON_EXACT_ITERS = 8
# a root hint this close to a line, relative to the box, puts a root on it
HINT_REL = 1e-4
# off-centre split points in half-widths, nearest the centre first:
# 0.4 frac(k phi) - 0.2 for k = 1..7, phi the golden ratio. They are not
# dyadic, so no line they put in a box with a dyadic centre and a
# power-of-two half-width falls on an integer or a half-integer, where
# the roots of integer inputs sit
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
SPLIT_LADDER = tuple(sorted((0.4 * (k * _PHI % 1.0) - 0.2 for k in range(1, 8)), key=abs))
# the witness's root search tolerance, relative to max(1, Fujiwara's
# bound) as in ``_all_roots``; the enclosure only seeds Newton, and the
# residual test stays the certificate. 1e-3, 1e-4 and 1e-6 each pass
# tools/envelope.py's Wilkinson and seeded families; 1e-10 does too, but
# descends further (56 s against 32 s at 1e-6, shared 2-core host)
WITNESS_TOL_REL = 1e-6
_EPS = float(np.finfo(float).eps)
# covers the rounding of an exact value's parts below the normal range
_TINY = math.ldexp(1.0, -1073)
# radius of the enclosure of an exact root at the origin: the endgame's
# disk floor 1e-13 (1 + |z|) at z = 0
ORIGIN_RADIUS = 1e-13


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")

    @property
    def size(self) -> float:
        return self.radius

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by center and positive half-widths."""

    center: complex
    half_re: float
    half_im: float

    def __post_init__(self):
        if not (self.half_re > 0 and self.half_im > 0):
            raise ValueError("box half-widths must be positive")

    @classmethod
    def from_corners(cls, x_lo, x_hi, y_lo, y_hi) -> "Box":
        return cls(
            complex((x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0),
            (x_hi - x_lo) / 2.0,
            (y_hi - y_lo) / 2.0,
        )

    @property
    def size(self) -> float:
        return max(self.half_re, self.half_im)

    @property
    def diameter(self) -> float:
        return 2.0 * math.hypot(self.half_re, self.half_im)

    @property
    def corners(self):
        cx, cy = self.center.real, self.center.imag
        return (cx - self.half_re, cx + self.half_re, cy - self.half_im, cy + self.half_im)

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            abs(z.real - self.center.real) <= self.half_re + pad
            and abs(z.imag - self.center.imag) <= self.half_im + pad
        )

    def split_at(self, sx: float, sy: float):
        x_lo, x_hi, y_lo, y_hi = self.corners
        return [
            Box.from_corners(x_lo, sx, y_lo, sy),
            Box.from_corners(sx, x_hi, y_lo, sy),
            Box.from_corners(x_lo, sx, sy, y_hi),
            Box.from_corners(sx, x_hi, sy, y_hi),
        ]


Region = Disk | Box


@dataclass(frozen=True)
class RootEnclosure:
    """Certified disk that holds exactly ``multiplicity`` roots, counted with multiplicity.

    The certificate is its winding count, or for a simple root the
    one-root bound inside a box of count 1 (see ``_endgame``); either way
    no root lies on its circle, so its winding count is its multiplicity.
    """

    region: Disk
    multiplicity: int

    @property
    def center(self) -> complex:
        return self.region.center

    @property
    def radius(self) -> float:
        return self.region.radius


# float values below this multiple of the roundoff bound are recomputed
# in exact dyadic arithmetic before they feed a certificate
_RELIABLE_FACTOR = 64.0 * _EPS


# Unit nodes and weights that the n-node rule adds: the whole rule at the
# start, after that only the odd-index nodes, which the previous rule does
# not contain; _template caches them. A circle: nodes exp(2 pi i k / n),
# weights node / n. A box edge of m = n / 4 intervals: nodes j / m in
# [0, 1], weights 1 / (2 pi i m), halved at the start rule's edge ends
def _unit_rule(disks: bool, n: int):
    start = n == WINDING_START_NODES
    if disks:
        k = np.arange(n) if start else np.arange(1, n, 2)
        unit = np.exp(2j * np.pi * k / n)
        return unit, unit / n
    m = n // 4
    unit = np.linspace(0.0, 1.0, m + 1) if start else np.arange(1, m, 2) / m
    return unit, np.where((unit == 0.0) | (unit == 1.0), 0.5, 1.0) / (2j * math.pi * m)


@functools.cache
def _template(disks: bool, rules: tuple):
    """Unit nodes and weights of every rule in ``rules`` side by side, read-only, and each rule's slice."""
    parts = [_unit_rule(disks, n) for n in rules]
    stops = np.cumsum([unit.size for unit, _ in parts]).tolist()
    unit, weights = (np.concatenate(column) for column in zip(*parts))
    unit.flags.writeable = weights.flags.writeable = False
    return unit, weights, tuple(slice(a, b) for a, b in zip([0, *stops], stops))


class _Nodes:
    """A pass's nodes, one broadcast of the template, a bound on their moduli, and |z| on first use.

    ``z`` = origin + scale * unit on each edge, shape (k, e, L): a disk is
    one edge, from its centre with scale its radius; a box has four, from
    each corner with scale the side to the next. ``z_max`` is |centre| +
    radius, or the largest |corner|, times 1 + 1e-12 for the rounding of
    the nodes and of their moduli, plus 1e-320 for subnormal nodes, whose
    rounding is absolute: no node's modulus exceeds it.
    """

    def __init__(self, regions, unit: np.ndarray):
        if isinstance(regions[0], Disk):
            origins = np.array([[r.center] for r in regions])
            self.scale = np.array([[r.radius] for r in regions])
            z_max = float((np.abs(origins) + self.scale).max())
        else:
            # corners counter-clockwise from the lower left; edge j runs
            # from corner j to corner j + 1
            xy = np.array([r.corners for r in regions])
            origins = np.empty((len(regions), 4), dtype=complex)
            origins.real = xy[:, [0, 1, 1, 0]]
            origins.imag = xy[:, [2, 2, 3, 3]]
            self.scale = origins[:, [1, 2, 3, 0]] - origins
            z_max = float(np.abs(origins).max())
        self.z = origins[..., None] + self.scale[..., None] * unit
        self.z_max = z_max * (1.0 + 1e-12) + 1e-320

    @functools.cached_property
    def modulus(self) -> np.ndarray:
        return np.abs(self.z)


def _eval_repaired(poly: Polynomial, nodes: _Nodes):
    """Vectorized Horner, with exact re-evaluation where roundoff dominates.

    Inside the roundoff halo of a multiple root the float value is pure
    noise; those nodes (detected against the |c_i||z|^i bound) are redone
    in exact dyadic arithmetic so winding certificates stay meaningful at
    arbitrarily small contour radii. The bound is first taken at the
    nodes' modulus bound, which no node exceeds; |z| is read only when
    that check fails. Returns the values and their moduli.
    """
    v = poly.eval_many(nodes.z)
    v_abs = np.abs(v)
    if poly.degree == 0:
        return v, v_abs
    if float(v_abs.min()) > _RELIABLE_FACTOR * poly.eval_magnitude_bound(nodes.z_max):
        return v, v_abs
    bad = np.flatnonzero(v_abs <= _RELIABLE_FACTOR * poly.bound_many(nodes.modulus))
    flat, flat_abs = v.reshape(-1), v_abs.reshape(-1)
    flat[bad] = [poly.eval_exact(z) for z in nodes.z.reshape(-1)[bad].tolist()]
    flat_abs[bad] = np.abs(flat[bad])
    return v, v_abs


class _ContourCounter:
    """Winding numbers of a fixed zero/pole pair over many regions.

    Derivatives are computed once; every contour evaluation is a pair of
    vectorized Horner passes per polynomial.
    """

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        self.num = num
        self.dnum = num.derivative()
        self.den = den if den is not None and den.degree > 0 else None
        self.dden = self.den.derivative() if self.den is not None else None

    def _fresh(self, regions, rules) -> list:
        """Doubling steps for regions of one kind, one per rule size in ``rules``.

        Per rule and region: the rule's weighted sum of f'/f over the nodes
        it adds to the rule of half its size (all of them at the start),
        and the nearest-root estimate min |p/p'| over those nodes; (0j, 0.0)
        where f'/f is not finite. The nodes of every rule and region are
        one broadcast of a cached template and go through one evaluation
        per polynomial; each rule's sums are taken over its own slice, and
        each region's over its own row.
        """
        unit, weights, slices = _template(isinstance(regions[0], Disk), rules)
        nodes = _Nodes(regions, unit)
        out = []
        # a row that is not finite is dropped below; its sums may be nan
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nv, nv_abs = _eval_repaired(self.num, nodes)
            dnv, dnv_abs = _eval_repaired(self.dnum, nodes)
            g = dnv / nv
            dist = nv_abs / dnv_abs
            if self.den is not None:
                dv, dv_abs = _eval_repaired(self.den, nodes)
                ddv, ddv_abs = _eval_repaired(self.dden, nodes)
                g = g - ddv / dv
                dist = np.minimum(dist, dv_abs / ddv_abs)
            for s in slices:
                gi = g[..., s]
                values = (nodes.scale * (gi * weights[s]).sum(axis=2)).sum(axis=1)
                # nan marks nodes where the derivative vanished; fmin skips
                # it, and a row of nan reads inf
                d = np.fmin.reduce(dist[..., s], axis=(1, 2), initial=math.inf)
                # a non-finite f'/f makes its row's value non-finite, so rows
                # are tested node by node only where a value is
                if not all(map(cmath.isfinite, values.tolist())):
                    dropped = ~np.isfinite(gi).all(axis=(1, 2))
                    values[dropped] = 0.0
                    d[dropped] = 0.0
                out.append(list(zip(values.tolist(), d.tolist())))
        return out

    def certified_all(self, regions) -> list:
        """Certified winding numbers of disks, or of boxes, their doubling ladders in lockstep.

        Each pass evaluates the new nodes of every region that has not
        snapped, while their rules total at most LOCKSTEP_NODES nodes;
        past that, the first such region runs alone until it snaps or
        fails, so a contour through a root runs the long ladder once and
        not once per region that shares it. Regions in a pass therefore
        share their node count: they start together, and one that runs
        alone leaves before the rest move on. The first pass that fails
        raises for the whole call; within a pass, regions go in list order.

        A ladder cannot snap on its first rule, since a snap needs two
        agreeing passes, so the first two rules share one evaluation. The
        callers pass one region or a split's four, whose first two rules
        fit in LOCKSTEP_NODES together.
        """
        ladders = [_Ladder(region) for region in regions]
        active = ladders
        while active:
            batch = active if sum(ld.n for ld in active) <= LOCKSTEP_NODES else active[:1]
            n = batch[0].n
            rules = (n, 2 * n) if n == WINDING_START_NODES else (n,)
            for passes in self._fresh([ld.region for ld in batch], rules):
                for ladder, (fresh, d_est) in zip(batch, passes):
                    ladder.advance(fresh, d_est)
            active = [ld for ld in active if ld.count is None]
        return [ld.count for ld in ladders]

    def certified(self, region: Region) -> int:
        """Certified winding number of one region."""
        return self.certified_all([region])[0]


class _Ladder:
    """One region's doubling ladder: its running trapezoid value and snap state."""

    def __init__(self, region: Region):
        self.region = region
        self.n = WINDING_START_NODES
        self.value = 0j
        self.prev = None  # the integer the last pass snapped to
        self.min_d = math.inf
        self.count = None

    def advance(self, fresh: complex, d_est: float):
        """Take the n-node pass, T_2n = T_n / 2 + (new-node sum); set count once it snaps."""
        size = self.region.size
        delta = CONTOUR_BAND_REL * size
        self.value = 0.5 * self.value + fresh
        self.min_d = min(self.min_d, d_est)
        # the older nodes' estimates passed this test on earlier passes
        if d_est < delta:
            raise ContourTooClose(f"zero/pole within {d_est:.2e} of the contour (band {delta:.2e})")
        k = int(round(self.value.real))
        snapped = k if abs(self.value - k) < SNAP_MARGIN else None
        if snapped is not None and snapped == self.prev:
            self.count = k
            return
        self.prev = snapped
        self.n *= 2
        if self.n > WINDING_MAX_NODES:
            if self.min_d < 1e-5 * size:
                raise ContourTooClose(f"persistent near-contour root (distance ~{self.min_d:.2e})")
            raise QuadratureNotConverged("winding estimate did not stabilize to an integer")


def winding_count(f, region: Region) -> int:
    """Number of zeros minus poles of f inside the region, with multiplicity."""
    if isinstance(f, Polynomial):
        f = RationalFunction.from_polynomial(f)
    f = f.reduce()
    return _ContourCounter(f.numerator, f.denominator).certified(region)


def _newton(p: Polynomial, dp: Polynomial, z: complex, multiplicity: int = 1, iters: int = 60):
    """Multiplicity-aware Newton refinement; returns (best z, |p(best)|, last step).

    The best iterate is z itself unless a later iterate has a strictly
    smaller |p|, so it is never worse than the starting point.
    """
    best = z
    best_val = abs(p(z))
    step = math.inf
    for _ in range(iters):
        d = dp(z)
        if d == 0:
            break
        s = multiplicity * p(z) / d
        z = z - s
        step = abs(s)
        v = abs(p(z))
        if v < best_val:
            best, best_val = z, v
        if step <= 4.0 * _EPS * max(1.0, abs(z)):
            break
    return best, best_val, step


def _newton_exact(p, dp, z, multiplicity):
    """Newton steps with exactly evaluated residuals; beats the float halo."""
    step = math.inf
    for _ in range(NEWTON_EXACT_ITERS):
        dv = dp.eval_exact(z)
        if dv == 0:
            break
        pv = p.eval_exact(z)
        if pv == 0:
            return z, 0.0
        s = multiplicity * pv / dv
        z = z - s
        step = abs(s)
        if step <= 2.0 * _EPS * max(1.0, abs(z)):
            break
    return z, step


def _one_root_radius(p: Polynomial, z: complex) -> float:
    """An upper bound on r1 = deg p |p(z)| / |p'(z)|: some root of p lies within r1 of z.

    p'/p(z) = sum 1/(z - z_k) over the roots z_k with multiplicity, so
    |p'(z) / p(z)| <= deg p / min |z - z_k| (B. T. Smith, J. ACM 17,
    1970). p(z) and p'(z) come from one exact evaluation each, and each
    part of a value is rounded once, with an error below 0.51 eps of
    itself (a truncation to 64 bits, then a rounding to 53) plus 2^-1075
    below the normal range. So a value w read as v satisfies
    |v| - 2^-1073 < |w| (1 + eps) and |w| (1 - eps) < |v| + 2^-1073,
    which the bound takes with 2 eps. Each modulus rounds by at most
    eps, the two sums, the product, the quotient and the last product by
    eps / 2 each: 6.5 eps in all, which the factor 1 + 16 eps covers.
    inf where p'(z) may be 0 or a value is not finite.
    """
    v = abs(p.eval_exact(z)) + _TINY
    dv = abs(p.eval_exact(z, derivative=True)) - _TINY
    if not (dv > 0.0 and math.isfinite(v) and math.isfinite(dv)):
        return math.inf
    return p.degree * v / dv * (1.0 + 16.0 * _EPS)


def _disk_inside(box: Box, z: complex, rho: float) -> bool:
    """The disk |w - z| <= rho lies inside the box's contour, which runs through its float corners.

    A difference of floats rounds to (a - b)(1 + d), |d| <= eps / 2, so
    one above rho (1 + 4 eps), itself rounded, puts a - b above rho.
    """
    x_lo, x_hi, y_lo, y_hi = box.corners
    room = min(z.real - x_lo, x_hi - z.real, z.imag - y_lo, y_hi - z.imag)
    return room > rho * (1.0 + 4.0 * _EPS)


def _endgame(counter, box, count, tol):
    """Polish the box's root cluster by Newton and certify a tiny disk.

    Returns None while the box is above the endgame gate (5% of its
    scale for a simple root, 0.1% for a cluster), and when its one disk,
    of radius max(1e-13 (1 + |z|), 8 step), exceeds 0.45 tol or is not
    certified. A simple root's disk is certified without a contour when
    it lies inside the box and the one-root bound r1 is below its radius:
    a root lies in the disk, and the box's count of 1 leaves room for no
    other. Elsewhere the disk's winding count must equal the box's count.
    """
    gate = 0.05 if count == 1 else 1e-3
    if box.diameter > gate * (1.0 + abs(box.center)):
        return None
    p, dp = counter.num, counter.dnum
    z, _, step = _newton(p, dp, box.center, multiplicity=count)
    rho_min = 1e-13 * (1.0 + abs(z))
    if step > 8.0 * rho_min:
        # float Newton stagnated at the roundoff halo of a multiple root
        z, step = _newton_exact(p, dp, z, count)
    if step > 1e-8 * (1.0 + abs(z)):
        return None
    if not box.contains(z, pad=-1e-9 * box.size):
        return None
    rho = max(rho_min, 8.0 * step)
    if rho > 0.45 * tol:
        return None
    disk = Disk(z, rho)
    if count == 1 and _disk_inside(box, z, rho) and _one_root_radius(p, z) < rho:
        return RootEnclosure(disk, 1)
    try:
        w = counter.certified(disk)
    except (ContourTooClose, QuadratureNotConverged):
        return None
    return RootEnclosure(disk, count) if w == count else None


def _hint_near(hints, box, xs, ys) -> bool:
    """A hint in the padded box near a line x = xs[i] or y = ys[j]; never a nan."""
    tx, ty = HINT_REL * box.half_re, HINT_REL * box.half_im
    return any(
        box.contains(h, pad=HINT_REL * box.size)
        and (any(abs(h.real - x) <= tx for x in xs) or any(abs(h.imag - y) <= ty for y in ys))
        for h in hints
    )


def _split_points(box, hints):
    """The centre, then the split ladder outward; a point with a hint on one of its lines goes last.

    Each point's hint test runs only when the split before it failed.
    """
    cx, cy = box.center.real, box.center.imag
    deferred = []
    for u in (0.0, *SPLIT_LADDER):
        sx, sy = cx + u * box.half_re, cy + u * box.half_im
        if _hint_near(hints, box, (sx,), (sy,)):
            deferred.append((sx, sy))
        else:
            yield sx, sy
    yield from deferred


def _children_counts(counter, box, count, hints):
    """Split into four tiles whose certified counts sum to the parent's."""
    for sx, sy in _split_points(box, hints):
        children = box.split_at(sx, sy)
        try:
            counts = counter.certified_all(children)
        except (ContourTooClose, QuadratureNotConverged):
            continue
        if sum(counts) == count:
            return list(zip(children, counts))
    raise RootOnBoundary("could not place subdivision lines clear of the roots")


def _shrink_start(counter, box, count, hints):
    """Halve the starting box toward its roots while the count is unchanged.

    Cauchy bounds can overshoot the actual root spread by orders of
    magnitude; starting the quadtree at the right scale keeps roots away
    from subdivision edges in relative terms (and saves most of the
    descent). Halving is free certificate-wise: the count pins the roots.
    A candidate that still holds the Cauchy disk counts deg p by theorem.
    """
    for _ in range(60):
        if box.diameter <= 8.0 * (1.0 + abs(box.center)) * _EPS:
            break
        candidate = Box(box.center, box.half_re / 2.0, box.half_im / 2.0)
        if _hint_near(hints, candidate, candidate.corners[:2], candidate.corners[2:]):
            break  # its contour would run the whole doubling ladder and fail
        try:
            if not _holds_cauchy_disk(candidate, counter.num) and counter.certified(candidate) != count:
                break
        except (ContourTooClose, QuadratureNotConverged):
            break
        box = candidate
    return box


def _isolate(counter, starts, tol, hints):
    """Quadtree descent from (box, count) pairs; returns (disk, multiplicity,
    already_certified, [(final box, count)]) items."""
    stack = list(starts)
    finals = []
    processed = 0
    while stack:
        box, count = stack.pop()
        if count == 0:
            continue
        processed += 1
        if processed > MAX_BOXES:
            raise SubdivisionDepthExceeded("subdivision budget exhausted")
        if box.diameter <= tol:
            finals.append((Disk(box.center, 0.5 * box.diameter), count, False, [(box, count)]))
            continue
        enc = _endgame(counter, box, count, tol)
        if enc is not None:
            finals.append((enc.region, enc.multiplicity, True, [(box, count)]))
            continue
        if box.diameter <= 256.0 * _EPS * max(1.0, abs(box.center)):
            raise SubdivisionDepthExceeded("box below float resolution before reaching tol")
        stack.extend(_children_counts(counter, box, count, hints))
    return finals


def _cover(d1: Disk, d2: Disk) -> Disk:
    delta = d2.center - d1.center
    dist = abs(delta)
    if dist + d2.radius <= d1.radius:
        return d1
    if dist + d1.radius <= d2.radius:
        return d2
    r = 0.5 * (dist + d1.radius + d2.radius)
    return Disk(d1.center + delta * ((r - d1.radius) / dist), r)


def _merge_pairs(items, close, join) -> list:
    """Replace close pairs by their join until no two items are close.

    Each sweep compares every pair, O(k^2); sweeps repeat because a join
    can bring an earlier item into reach.
    """
    items = list(items)
    merged = True
    while merged:
        merged = False
        i = 0
        while i < len(items):
            j = i + 1
            while j < len(items):
                if close(items[i], items[j]):
                    items[i] = join(items[i], items[j])
                    items.pop(j)
                    merged = True
                else:
                    j += 1
            i += 1
    return items


def _disks_overlap(item1, item2) -> bool:
    d1, d2 = item1[0], item2[0]
    pad = 1e-12 * max(1.0, abs(d1.center))
    return abs(d1.center - d2.center) <= d1.radius + d2.radius + pad


def _boundary_count(counter, region: Region) -> int:
    """Certified count of a contour that no split placed; a root on it is RootOnBoundary."""
    try:
        return counter.certified(region)
    except ContourTooClose as exc:
        raise RootOnBoundary(f"a root lies on the region's boundary: {exc}") from None


def _enclosures(counter, box0, count0, tol, hints):
    """Descend, merge overlapping disks, then certify every non-endgame disk.

    A join wider than tol descends again from its final boxes at half the
    last descent's tol, and is merged again with the disks that fit.
    """
    items, wide, level = [], [(box0, count0)], tol
    while wide:
        finals = items + _isolate(counter, wide, level, hints)
        items = _merge_pairs(
            finals, _disks_overlap, lambda a, b: (_cover(a[0], b[0]), a[1] + b[1], False, a[3] + b[3])
        )
        wide = [start for disk, _, _, boxes in items if disk.radius > tol for start in boxes]
        items = [item for item in items if item[0].radius <= tol]
        level /= 2.0
    for disk, mult, certified, _ in items:
        if not certified and (w := _boundary_count(counter, disk)) != mult:
            raise LocalizationFailed(f"enclosure winding {w} != accumulated multiplicity {mult}")
    return [RootEnclosure(disk, mult) for disk, mult, _, _ in items]


def _cauchy_radius(p: Polynomial) -> float:
    rest = max(abs(c) for c in p.coefficients[:-1])
    return 1.0 + rest / abs(p.leading)


def _fujiwara_bound(p: Polynomial) -> float:
    """Fujiwara's bound 2 max(|c_(n-1)/c_n|, |c_(n-2)/c_n|^(1/2), ..., |c_0/(2 c_n)|^(1/n)).

    No root of p is larger, and the largest is at least this over 2n, so
    it follows the roots where the Cauchy radius can overshoot them by
    orders of magnitude (Fujiwara, Tohoku Math. J. 10, 1916).
    """
    c, n = p.coefficients, p.degree
    ratios = [abs(c[n - k]) / abs(p.leading) for k in range(1, n + 1)]
    ratios[-1] /= 2.0
    return 2.0 * max(q ** (1.0 / k) for k, q in enumerate(ratios, start=1))


def _holds_cauchy_disk(box: Box, p: Polynomial) -> bool:
    """The box holds p's Cauchy disk |z| <= 1 + max |c_i| / |c_n| (i < n),
    which holds every root, with a relative margin of 1e-12 for rounding."""
    radius = _cauchy_radius(p) * (1.0 + 1e-12)
    c = box.center
    return abs(c.real) + radius <= box.half_re and abs(c.imag) + radius <= box.half_im


def localize_roots(p: Polynomial, region: Region, tol: float):
    """Certified, pairwise-disjoint root enclosures of p inside the region.

    Enclosure disks have radius <= tol and each holds exactly its
    multiplicity in roots, so its winding count equals it. A box region
    is searched as it is, a disk region in the box around it; the multiplicities sum to that box's count, and for
    a disk the enclosures returned are those whose centres lie inside the
    circle. Root clusters tighter than tol come back as a single enclosure
    with the summed multiplicity; where the join of overlapping enclosures
    is wider than tol, their boxes are searched again at a finer tol. A
    root on the box's boundary, or an enclosure astride a disk's circle,
    raises ``RootOnBoundary``.

    ``tol`` is absolute, positive and finite. The descent raises
    ``SubdivisionDepthExceeded`` at a box whose diameter is at most 256 eps
    max(1, |centre|), about the float spacing there, so a tol below 256 eps
    |root| cannot be met: at a root near 1e4 that is 5.7e-10, and a tol of
    1e-10 raises.
    """
    if p.degree == 0:
        raise ConstantPolynomial("cannot localize roots of a constant polynomial")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    counter = _ContourCounter(p)
    box0 = region if isinstance(region, Box) else Box(region.center, region.radius, region.radius)
    # every root lies in the Cauchy disk, and so inside a box that holds it
    total = p.degree if _holds_cauchy_disk(box0, p) else _boundary_count(counter, box0)
    if total == 0:
        return []
    hints = _roots_hint(p)
    box0 = _shrink_start(counter, box0, total, hints)
    encs = _enclosures(counter, box0, total, tol, hints)
    if isinstance(region, Disk):
        for e in encs:
            if abs(abs(e.center - region.center) - region.radius) <= e.radius:
                raise RootOnBoundary(
                    f"the enclosure at {e.center} of radius {e.radius:.2e} straddles the circle"
                    f" |z - {region.center}| = {region.radius}"
                )
        encs = [e for e in encs if region.contains(e.center)]
    encs.sort(key=lambda e: (e.center.real, e.center.imag))
    return encs


def _cauchy_box_roots(p: Polynomial, tol: float):
    """Certified enclosures of every root of p, from the box of half-width twice its Cauchy radius."""
    half = 2.0 * _cauchy_radius(p) * (1.0 + 1e-6)
    return localize_roots(p, Box(0j, half, half), tol)


def _all_roots(p: Polynomial, rel: float):
    """Certified enclosures of every root of p, at tol rel max(1, F), F Fujiwara's bound of p.

    p = z^k q with q(0) != 0, k the number of exactly zero low
    coefficients, so the origin is a root of multiplicity exactly k: its
    enclosure is ``Disk(0j, ORIGIN_RADIUS)``, with no contour, and a
    polynomial c z^k runs no descent at all. q's coefficients are p's,
    shifted down without rounding, and the descent runs on q alone, from
    the box of half-width 2 R0, R0 the Cauchy radius of q times
    (1 + 1e-6). That box holds the Cauchy disk, so its count is deg q by
    theorem, and the quadtree's first shrink lands on the box of
    half-width R0 without a contour, unless a root hint lies near that
    box's edge; a root can lie within about 1 of the Cauchy bound, and in
    a start box of half-width R0 every split would share the edge it sits
    on. F follows the roots' scale where R0 can overshoot it by orders of
    magnitude.

    An enclosure of q that holds 0 takes the origin's k roots too: its
    count for p is k plus its count for q. The other enclosures of q hold
    no root of z^k. Should one of them reach into the origin's disk
    without holding 0, the descent runs on p itself instead.
    """
    tol = rel * max(1.0, _fujiwara_bound(p))
    k = _zero_order(p)
    if k == 0:
        return _cauchy_box_roots(p, tol)
    if k == p.degree:
        return [RootEnclosure(Disk(0j, ORIGIN_RADIUS), k)]
    encs = _cauchy_box_roots(Polynomial(p.coefficients[k:]), tol)
    # |c| rounds by at most eps of itself, each sum and product by eps / 2
    for i, e in enumerate(encs):
        if abs(e.center) * (1.0 + 4.0 * _EPS) < e.radius:
            encs[i] = RootEnclosure(e.region, e.multiplicity + k)
            return encs
    if any(abs(e.center) <= (e.radius + ORIGIN_RADIUS) * (1.0 + 4.0 * _EPS) for e in encs):
        return _cauchy_box_roots(p, tol)
    encs.append(RootEnclosure(Disk(0j, ORIGIN_RADIUS), k))
    encs.sort(key=lambda e: (e.center.real, e.center.imag))
    return encs


# -- the induction pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class WitnessLevel:
    """Outcome of one induction level (outermost polynomial first)."""

    shift: complex
    kind: str  # "claim1" | "binomial" | "constant-term-zero"
    linear_ratio: float  # |coefficient of z| / coefficient scale after the shift
    decomposition: object | None = None


@dataclass(frozen=True)
class WitnessTrace:
    depth: int
    shifts: list
    claim1_checks: list
    witness: complex
    residual: float


def _quadratic_root(p: Polynomial) -> complex:
    """Numerically stable quadratic root (sign-adjusted to avoid cancellation)."""
    c0, c1, c2 = p.coefficients
    s = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    if (c1.conjugate() * s).real < 0.0:
        s = -s
    q = -0.5 * (c1 + s)
    if q == 0:
        return 0j  # both roots at the origin
    r1, r2 = q / c2, c0 / q
    return min(r1, r2, key=lambda z: (z.real, z.imag))


def _witness_recurse(p: Polynomial, levels: list) -> complex:
    deg = p.degree
    if deg == 1:
        c0, c1 = p.coefficients
        return -c0 / c1
    if deg == 2:
        return _quadratic_root(p)
    dp = p.derivative()
    h = _witness_recurse(dp, levels)
    # the sharper the derivative root, the cleaner the linear kill
    h = _newton(dp, dp.derivative(), h)[0]
    q = p.shift(h)
    qc = q.coefficients
    scale = q.coefficient_scale
    lin_ratio = abs(qc[1]) / scale
    dec = None
    if abs(qc[0]) <= 1e-12 * scale:
        kind = "constant-term-zero"
        root = 0j
    else:
        try:
            dec = claim1_shape_check(q)
            kind = "claim1"
            # the root of q nearest -h minimizes the final witness modulus
            encs = _all_roots(q, WITNESS_TOL_REL)
            root = min(encs, key=lambda e: abs(e.center + h)).center
        except BinomialShape as b:
            kind = "binomial"
            base = (-b.constant / b.leading) ** (1.0 / b.degree)
            phases = [base * cmath.exp(2j * cmath.pi * k / b.degree) for k in range(b.degree)]
            root = min(phases, key=lambda r: (abs(r + h), r.real, r.imag))
        root = _newton(q, q.derivative(), root, 1, 50)[0]
    levels.append(WitnessLevel(shift=h, kind=kind, linear_ratio=lin_ratio, decomposition=dec))
    return root + h


def fta_witness(p: Polynomial, tol: float = 1e-10) -> WitnessTrace:
    """Concrete root witness by the shift-and-localize induction.

    Degrees 1 and 2 are closed form. For degree >= 3, a root h of the
    derivative recentres the polynomial so its linear coefficient
    vanishes; the recentred polynomial either passes the restricted-shape
    check and gets a root localized inside its Cauchy disk, or takes one
    of the closed-form shortcuts (vanishing constant term, pure binomial).
    The witness is that root shifted back by h. Both the localized root and
    the binomial root are the ones nearest -h, which minimizes the witness
    modulus: at a claim-1 top level, the witness is the root of p of
    smallest modulus, up to the enclosure tolerance and Newton's polish.
    """
    if p.degree == 0:
        raise ConstantPolynomial("constant polynomials have no roots")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    levels: list[WitnessLevel] = []
    w = _witness_recurse(p, levels)
    w = _newton(p, p.derivative(), w)[0]
    residual = abs(p(w))
    scale = p.coefficient_scale
    if not residual <= tol * scale:  # a nan residual fails too
        raise LocalizationFailed(
            f"witness residual {residual:.3e} exceeds {tol:.1e} x coefficient scale {scale:.3e}"
        )
    levels.reverse()
    return WitnessTrace(
        depth=len(levels),
        shifts=[lv.shift for lv in levels],
        claim1_checks=levels,
        witness=w,
        residual=residual,
    )
