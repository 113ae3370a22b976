"""Argument-principle root counting, certified enclosures, and the
shift-and-localize root-witness pipeline.

Counting integrates p'/p (minus q'/q for poles) around region boundaries
with the trapezoid rule, doubling resolution until the value snaps to the
same integer at two consecutive resolutions. The 2n-node rule contains the
n-node rule, so each doubling evaluates only the n new nodes and adds
their weighted sum to half the running value. The four children of a
split share each doubling pass, one evaluation per polynomial for all of
their new nodes; the inner edges they share are still evaluated once per
side. Localization is a quadtree on boxes: a box whose subdivision line
would pass through a root is re-split at a pseudo-randomly perturbed
point, so children always tile their parent exactly and counts stay
conserved. Once a box is small, a Newton endgame polishes the root and
certifies a tiny disk around it by an independent winding count.
Uncertified companion-matrix root hints only place the first split and
the start box; winding counts stay the certificate. The witness pipeline
uses the same descent: of the recentred polynomial's enclosures, it takes
the one nearest minus the shift, which minimizes the witness modulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import Polynomial, RationalFunction, TargetValue, _roots_hint, claim1_shape_check
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
# whole-tree descents localize_roots tries before a RootOnBoundary stands
ISOLATE_ATTEMPTS = 4
# exact-arithmetic Newton steps tried below the float roundoff halo
NEWTON_EXACT_ITERS = 8
# a root hint this close to a line, relative to the box, puts a root on it
HINT_REL = 1e-4
# enclosure radius, relative to the Cauchy radius, of the witness's root
# search. The enclosure only seeds Newton; the residual test stays the
# certificate. 1e-3 loses items, because Newton from a coarse cluster
# centre can land on a far root; 1e-8 and 1e-10 also pass, but descend
# further
WITNESS_TOL_REL = 1e-6
_EPS = float(np.finfo(float).eps)


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
    """Certified disk: its boundary winding count equals ``multiplicity``."""

    region: Disk
    multiplicity: int
    target: TargetValue = TargetValue.finite(0.0)

    @property
    def center(self) -> complex:
        return self.region.center

    @property
    def radius(self) -> float:
        return self.region.radius


def _inflate(region: Region, factor: float) -> Region:
    if isinstance(region, Disk):
        return Disk(region.center, region.radius * factor)
    return Box(region.center, region.half_re * factor, region.half_im * factor)


# float values below this multiple of the roundoff bound are recomputed
# in exact dyadic arithmetic before they feed a certificate
_RELIABLE_FACTOR = 64.0 * _EPS

# Nodes that each pass of the doubling adds, keyed by node count (circle)
# or by intervals per edge (box): the whole rule at the start, after that
# only the odd-index nodes, which the previous rule does not contain
_CIRCLE_CACHE: dict = {}
_SEGMENT_CACHE: dict = {}


def _unit_circle(n: int) -> np.ndarray:
    """exp(2 pi i k / n) for the k the n-node circle rule adds."""
    e = _CIRCLE_CACHE.get(n)
    if e is None:
        k = np.arange(n) if n == WINDING_START_NODES else np.arange(1, n, 2)
        e = np.exp(2j * np.pi * k / n)
        _CIRCLE_CACHE[n] = e
    return e


def _unit_segment(m: int) -> np.ndarray:
    """Abscissae j / m in [0, 1] that the m-interval edge rule adds."""
    t = _SEGMENT_CACHE.get(m)
    if t is None:
        if 4 * m == WINDING_START_NODES:
            t = np.linspace(0.0, 1.0, m + 1)
        else:
            t = np.arange(1, m, 2) / m
        _SEGMENT_CACHE[m] = t
    return t


def _eval_repaired(poly: Polynomial, z: np.ndarray, z_abs: np.ndarray, z_max: float):
    """Vectorized Horner, with exact re-evaluation where roundoff dominates.

    Inside the roundoff halo of a multiple root the float value is pure
    noise; those nodes (detected against the |c_i||z|^i bound) are redone
    in exact dyadic arithmetic so winding certificates stay meaningful at
    arbitrarily small contour radii. ``z_abs`` is |z| and ``z_max`` its
    largest entry; returns the values and their moduli.
    """
    v = poly.eval_many(z)
    v_abs = np.abs(v)
    if poly.degree == 0:
        return v, v_abs
    if float(v_abs.min()) > _RELIABLE_FACTOR * poly.eval_magnitude_bound(z_max):
        return v, v_abs
    bad = np.nonzero(v_abs <= _RELIABLE_FACTOR * poly.bound_many(z_abs))[0]
    for i in bad:
        v[i] = poly.eval_exact(complex(z[i]))
    v_abs[bad] = np.abs(v[bad])
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

    def _fresh(self, regions, n: int) -> list:
        """One doubling step for regions of one kind: per region, the n-node
        rule's weighted sum of f'/f over the nodes it adds to the n/2-node
        rule (all of them at the start), and the nearest-root estimate
        min |p/p'| over those nodes; (0j, 0.0) where f'/f is not finite.
        The nodes of all regions go through one evaluation per polynomial,
        and each region's sums are taken over its own row."""
        k = len(regions)
        if isinstance(regions[0], Disk):
            e = _unit_circle(n)
            centers = np.array([r.center for r in regions])
            radii = np.array([r.radius for r in regions])
            z = centers[:, None] + radii[:, None] * e
        else:
            # corners counter-clockwise from the lower left; edge j runs
            # from corner j to corner j + 1
            corners = np.array(
                [
                    (complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1))
                    for x0, x1, y0, y1 in (r.corners for r in regions)
                ]
            )
            sides = np.roll(corners, -1, axis=1) - corners
            m = n // 4
            z = corners[..., None] + sides[..., None] * _unit_segment(m)
        z = z.ravel()
        z_abs = np.abs(z)
        z_max = float(z_abs.max())
        # a row that is not finite is dropped below; its sums may be nan
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nv, nv_abs = _eval_repaired(self.num, z, z_abs, z_max)
            dnv, dnv_abs = _eval_repaired(self.dnum, z, z_abs, z_max)
            g = dnv / nv
            dist = nv_abs / dnv_abs
            if self.den is not None:
                dv, dv_abs = _eval_repaired(self.den, z, z_abs, z_max)
                ddv, ddv_abs = _eval_repaired(self.dden, z, z_abs, z_max)
                g = g - ddv / dv
                dist = np.minimum(dist, dv_abs / ddv_abs)
            finite = np.isfinite(g.view(float)).reshape(k, -1).all(axis=1)
            if isinstance(regions[0], Disk):
                values = np.sum(((radii / n)[:, None] * e) * g.reshape(k, -1), axis=1)
            else:
                # new edge nodes are interior, weight 1/m; the start rule's
                # edge ends carry half of it
                g = g.reshape(k, 4, -1)
                sums = g.sum(axis=2)
                if n == WINDING_START_NODES:
                    sums -= 0.5 * (g[..., 0] + g[..., -1])
                values = [
                    sum((side / (2j * np.pi * m)) * s for side, s in zip(box_sides, row))
                    for box_sides, row in zip(sides.tolist(), sums)
                ]
        # nan marks nodes where the derivative vanished; fmin skips it
        d = np.fmin.reduce(dist.reshape(k, -1), axis=1)
        return [
            (complex(v), math.inf if math.isnan(di) else float(di)) if ok else (0j, 0.0)
            for v, di, ok in zip(values, d, finite)
        ]

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
        """
        ladders = [_Ladder(region) for region in regions]
        active = ladders
        while active:
            batch = active if sum(ld.n for ld in active) <= LOCKSTEP_NODES else active[:1]
            passes = self._fresh([ld.region for ld in batch], batch[0].n)
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
        self.prev_k = None
        self.prev_ok = False
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
        ok = abs(self.value - k) < SNAP_MARGIN
        if ok and self.prev_ok and self.prev_k == k:
            self.count = k
            return
        self.prev_k, self.prev_ok = k, ok
        self.n *= 2
        if self.n > WINDING_MAX_NODES:
            if self.min_d < 1e-5 * size:
                raise ContourTooClose(f"persistent near-contour root (distance ~{self.min_d:.2e})")
            raise QuadratureNotConverged("winding estimate did not stabilize to an integer")


def winding_count(f, region: Region) -> int:
    """Number of zeros minus poles of f inside the region, with multiplicity."""
    if isinstance(f, Polynomial):
        f = RationalFunction.from_polynomial(f)
    if not f.reduced:
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


def _certified_with_retries(counter: _ContourCounter, region: Region, rng) -> tuple[Region, int]:
    """Certified winding over the region, inflating slightly past boundary roots."""
    for attempt in range(9):
        try:
            return region, counter.certified(region)
        except ContourTooClose:
            if attempt == 8:
                raise RootOnBoundary(
                    "a root stayed within the contour band after 8 perturbations"
                ) from None
            region = _inflate(region, 1.0 + 1e-7 * (0.5 + float(rng.random())))
    raise AssertionError("unreachable")


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


def _endgame(counter, box, count, tol):
    """Polish the box's root cluster by Newton and certify a tiny disk.

    Returns None while the box is above the endgame gate (5% of its
    scale for a simple root, 0.1% for a cluster) or when no disk of
    radius <= 0.45 tol certifies.
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
    for _ in range(2):
        if rho > 0.45 * tol:
            return None
        try:
            w = counter.certified(Disk(z, rho))
        except (ContourTooClose, QuadratureNotConverged):
            rho *= 64.0
            continue
        return RootEnclosure(Disk(z, rho), count) if w == count else None
    return None


def _hint_near(hints, box, xs, ys) -> bool:
    """A hint in the padded box near a line x = xs[i] or y = ys[j]; never a nan."""
    tx, ty = HINT_REL * box.half_re, HINT_REL * box.half_im
    return any(
        box.contains(h, pad=HINT_REL * box.size)
        and (any(abs(h.real - x) <= tx for x in xs) or any(abs(h.imag - y) <= ty for y in ys))
        for h in hints
    )


def _children_counts(counter, box, count, rng, hints):
    """Split into four tiles whose certified counts sum to the parent's."""
    cx, cy = box.center.real, box.center.imag
    # a hint on a centre line moves the centre split behind the random ones
    first = 1 if _hint_near(hints, box, (cx,), (cy,)) else 0
    for attempt in range(first, first + 8):
        if attempt % 8 == 0:
            sx, sy = cx, cy
        else:
            sx = cx + float(rng.uniform(-0.2, 0.2)) * box.half_re
            sy = cy + float(rng.uniform(-0.2, 0.2)) * box.half_im
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
    """
    for _ in range(60):
        if box.diameter <= 8.0 * (1.0 + abs(box.center)) * _EPS:
            break
        candidate = Box(box.center, box.half_re / 2.0, box.half_im / 2.0)
        if _hint_near(hints, candidate, candidate.corners[:2], candidate.corners[2:]):
            break  # its contour would run the whole doubling ladder and fail
        try:
            if counter.certified(candidate) != count:
                break
        except (ContourTooClose, QuadratureNotConverged):
            break
        box = candidate
    return box


def _isolate(counter, box0, count0, tol, rng, hints):
    """Quadtree descent; returns (disk, multiplicity, already_certified) triples."""
    stack = [(box0, count0)]
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
            finals.append((Disk(box.center, 0.5 * box.diameter), count, False))
            continue
        enc = _endgame(counter, box, count, tol)
        if enc is not None:
            finals.append((enc.region, enc.multiplicity, True))
            continue
        if box.diameter <= 256.0 * _EPS * max(1.0, abs(box.center)):
            raise SubdivisionDepthExceeded("box below float resolution before reaching tol")
        stack.extend(_children_counts(counter, box, count, rng, hints))
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
    (d1, _, _), (d2, _, _) = item1, item2
    pad = 1e-12 * max(1.0, abs(d1.center))
    return abs(d1.center - d2.center) <= d1.radius + d2.radius + pad


def _merge_certify(counter, finals, rng):
    """Merge overlapping disks, then certify every non-endgame disk."""
    items = _merge_pairs(
        finals, _disks_overlap, lambda a, b: (_cover(a[0], b[0]), a[1] + b[1], False)
    )
    out = []
    for disk, mult, certified in items:
        if not certified:
            region, w = _certified_with_retries(counter, disk, rng)
            if w != mult:
                raise LocalizationFailed(
                    f"enclosure winding {w} != accumulated multiplicity {mult}"
                )
            disk = region
        out.append(RootEnclosure(disk, mult))
    return out


def localize_roots(p: Polynomial, region: Region, tol: float, *, seed: int = 0):
    """Certified, pairwise-disjoint root enclosures of p inside the region.

    Enclosure disks have radius <= tol, each disk's winding count equals
    its multiplicity, and the multiplicities sum to the winding count of
    the whole region. Root clusters tighter than tol come back as a single
    enclosure with the summed multiplicity.
    """
    if p.degree == 0:
        raise ConstantPolynomial("cannot localize roots of a constant polynomial")
    if not tol > 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    counter = _ContourCounter(p)
    region_eff, total = _certified_with_retries(counter, region, rng)
    if total == 0:
        return []
    if isinstance(region_eff, Box):
        box0, box_total = region_eff, total
    else:
        box0 = Box(region_eff.center, region_eff.radius, region_eff.radius)
        box0, box_total = _certified_with_retries(counter, box0, rng)
    hints = _roots_hint(p)
    box0 = _shrink_start(counter, box0, box_total, hints)
    for attempt in range(ISOLATE_ATTEMPTS):
        try:
            finals = _isolate(counter, box0, box_total, tol, rng, hints)
            break
        except RootOnBoundary:
            # an interior split line pinned a root through inherited edges;
            # fresh pseudo-random offsets re-randomize the whole tree
            if attempt == ISOLATE_ATTEMPTS - 1:
                raise
    encs = _merge_certify(counter, finals, rng)
    if isinstance(region_eff, Disk):
        encs = [e for e in encs if region_eff.contains(e.center)]
    got = sum(e.multiplicity for e in encs)
    if got != total:
        raise LocalizationFailed(f"enclosures hold {got} roots, the region holds {total}")
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


def _cauchy_radius(p: Polynomial) -> float:
    rest = max(abs(c) for c in p.coefficients[:-1])
    return 1.0 + rest / abs(p.leading)


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


def _nearest_root(q: Polynomial, bias: complex, seed: int) -> complex:
    """Centre of the certified root enclosure of q nearest ``bias``, inside q's Cauchy disk."""
    radius = _cauchy_radius(q) * (1.0 + 1e-9)
    encs = localize_roots(q, Box(0j, radius, radius), WITNESS_TOL_REL * radius, seed=seed)
    if not encs:
        raise LocalizationFailed("no roots inside the Cauchy bound")
    return min(encs, key=lambda e: abs(e.center - bias)).center


def _witness_recurse(p: Polynomial, seed: int, levels: list) -> complex:
    deg = p.degree
    if deg == 1:
        c0, c1 = p.coefficients
        return -c0 / c1
    if deg == 2:
        return _quadratic_root(p)
    dp = p.derivative()
    h = _witness_recurse(dp, seed, levels)
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
            root = _nearest_root(q, -h, seed)
        except BinomialShape as b:
            kind = "binomial"
            base = (-b.constant / b.leading) ** (1.0 / b.degree)
            phases = [base * cmath.exp(2j * cmath.pi * k / b.degree) for k in range(b.degree)]
            root = min(phases, key=lambda r: (abs(r + h), r.real, r.imag))
        root = _newton(q, q.derivative(), root, 1, 50)[0]
    levels.append(WitnessLevel(shift=h, kind=kind, linear_ratio=lin_ratio, decomposition=dec))
    return root + h


def fta_witness(p: Polynomial, tol: float = 1e-10, *, seed: int = 0) -> WitnessTrace:
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
    levels: list[WitnessLevel] = []
    w = _witness_recurse(p, seed, levels)
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
