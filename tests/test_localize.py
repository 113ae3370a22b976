import inspect
import math

import numpy as np
import pytest

import valdist
import valdist.localize
from valdist import (
    Box,
    ConstantPolynomial,
    ContourTooClose,
    Disk,
    LocalizationFailed,
    Polynomial,
    RationalFunction,
    RootOnBoundary,
    fta_witness,
    localize_roots,
    winding_count,
)

from valdist.localize import (
    LOCKSTEP_NODES,
    ORIGIN_RADIUS,
    SPLIT_LADDER,
    WINDING_MAX_NODES,
    WINDING_START_NODES,
    _RELIABLE_FACTOR,
    _cauchy_radius,
    _all_roots,
    _ContourCounter,
    _endgame,
    _fujiwara_bound,
    _newton,
    _Nodes,
    _one_root_radius,
    _split_points,
    _template,
)

from conftest import make_rng, random_factored, random_polynomial, random_rational


# -- winding counts ------------------------------------------------------------


def test_winding_all_fourth_roots():
    assert winding_count(Polynomial([-1, 0, 0, 0, 1]), Disk(0j, 2.0)) == 4


def test_winding_empty_disk():
    assert winding_count(Polynomial([-1, 0, 0, 0, 1]), Disk(0j, 0.5)) == 0


def test_winding_zero_minus_pole():
    f = RationalFunction(Polynomial([-1, 1]), Polynomial([1, 1]))
    assert winding_count(f, Disk(0j, 2.0)) == 0


def test_winding_box_region():
    assert winding_count(Polynomial([1, 0, 1]), Box(0j, 2.0, 2.0)) == 2


def test_winding_counts_poles_negative():
    f = RationalFunction(Polynomial([1.0]), Polynomial.from_roots([0.5, -0.5]))
    assert winding_count(f, Disk(0j, 1.0)) == -2


@pytest.mark.parametrize(
    "ints, floats",
    [(Box(0, 2, 2), Box(0j, 2.0, 2.0)), (Disk(0, 2), Disk(0j, 2.0)), (Box(1, 3, 2), Box(1 + 0j, 3.0, 2.0))],
    ids=["box", "disk", "off-centre box"],
)
def test_integer_regions_count_as_their_float_twins(ints, floats):
    # a region built from ints has int centre and corners
    f = RationalFunction(Polynomial.from_roots([1j, -1j, 0.5 - 0.25j]), Polynomial.from_roots([-0.75]))
    assert winding_count(f, ints) == winding_count(f, floats) == 2
    p = Polynomial([1, 0, 1])
    assert repr(localize_roots(p, ints, 1e-10)) == repr(localize_roots(p, floats, 1e-10))


def _contour_distance(z, region):
    """Distance from z to the region's boundary."""
    if isinstance(region, Disk):
        return abs(abs(z - region.center) - region.radius)
    dx = abs(z.real - region.center.real) - region.half_re
    dy = abs(z.imag - region.center.imag) - region.half_im
    return min(-dx, -dy) if dx <= 0 and dy <= 0 else math.hypot(max(dx, 0.0), max(dy, 0.0))


def _rational_cases():
    """(zeros, poles, region): seeded draws with every point at least 0.05 from
    the contour and from each other, then three fixed cases."""
    rng = make_rng(71)
    for trial in range(24):
        centre = complex(*rng.uniform(-1, 1, 2))
        if trial % 2:
            region = Box(centre, rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5))
        else:
            region = Disk(centre, rng.uniform(0.3, 1.5))
        points = []
        while len(points) < 7:
            z = region.center + region.size * complex(*rng.uniform(-1.6, 1.6, 2))
            if _contour_distance(z, region) >= 0.05 and all(abs(z - w) >= 0.05 for w in points):
                points.append(z)
        # every third numerator is a constant
        n_zeros = 0 if trial % 3 == 0 else int(rng.integers(1, 5))
        yield points[:n_zeros], points[4 : 4 + int(rng.integers(1, 4))], region
    yield [0.3 + 0.2j], [-0.4 - 0.1j], Disk(0j, 1.0)  # a zero and a pole inside
    yield [3.0], [0.5j, -0.5], Box(0j, 1.0, 1.0)  # only poles inside
    yield [], [0.25 - 0.5j, 2.0], Box(0.1j, 0.8, 0.7)  # a constant numerator


def test_rational_winding_counts_zeros_minus_poles():
    lead = 0.7 - 1.3j
    for zeros, poles, region in _rational_cases():
        num = Polynomial.from_roots(zeros, leading=lead) if zeros else Polynomial([lead])
        f = RationalFunction(num, Polynomial.from_roots(poles))
        expected = sum(map(region.contains, zeros)) - sum(map(region.contains, poles))
        assert winding_count(f, region) == expected, (zeros, poles, region)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Box(complex("nan"), 1.0, 1.0), "box center must be finite"),
        (lambda: Box(0j, math.inf, 1.0), "box half-widths must be finite"),
        (lambda: Disk(complex("inf"), 1.0), "disk center must be finite"),
        (lambda: Disk(0j, math.inf), "disk radius must be finite"),
        (lambda: Box(0j, 1.0, 0.0), "box half-widths must be positive"),
        (lambda: Disk(0j, math.nan), "disk radius must be positive"),
    ],
    ids=[
        "box nan centre",
        "box infinite half-width",
        "disk infinite centre",
        "disk infinite radius",
        "box zero half-width",
        "disk nan radius",
    ],
)
def test_regions_reject_invalid_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# -- nested trapezoid doubling --------------------------------------------------


@pytest.mark.parametrize("shape", ["disk", "box"])
@pytest.mark.parametrize("rel", [1e-5, 1e-6])
def test_doubling_evaluates_each_node_once(monkeypatch, shape, rel):
    # a root this close to the contour needs 2^19 nodes to certify (1e-5)
    # or runs to the 2^20 cap and raises (1e-6)
    if shape == "disk":
        region, root = Disk(0j, 1.0), (1 - rel) * (0.6 + 0.8j)
    else:
        region, root = Box(0j, 1.0, 1.0), (1 - rel) + 0.3j
    counter = _ContourCounter(Polynomial.from_roots([root, -0.3j]))
    sizes = []
    eval_many = Polynomial.eval_many

    def counting(self, z):
        if self is counter.p:
            sizes.append(np.size(z))
        return eval_many(self, z)

    monkeypatch.setattr(Polynomial, "eval_many", counting)
    if rel == 1e-5:
        assert counter.certified(region) == 2
    else:
        with pytest.raises(ContourTooClose):
            counter.certified(region)
    # the first evaluation holds the first two rules, each later one the next rule
    n = WINDING_START_NODES * 2 ** len(sizes)
    assert n >= 2**19
    # a box's four corners are each evaluated as the end of two edges
    assert sum(sizes) == (n if shape == "disk" else n + 4)


def _direct_trapezoid(p, region, n):
    """The whole n-node rule for the winding integral of p'/p: (value, sum of |terms|)."""
    if isinstance(region, Disk):
        e = np.exp(2j * np.pi * np.arange(n) / n)
        z, w = region.center + region.radius * e, (region.radius / n) * e
    else:
        x_lo, x_hi, y_lo, y_hi = region.corners
        corners = [complex(x_lo, y_lo), complex(x_hi, y_lo), complex(x_hi, y_hi), complex(x_lo, y_hi)]
        edges = list(zip(corners, corners[1:] + corners[:1]))
        m = n // 4
        t = np.arange(m + 1) / m
        unit = np.where((t == 0) | (t == 1), 0.5, 1.0) / m
        z = np.concatenate([a + (b - a) * t for a, b in edges])
        w = np.concatenate([(b - a) / (2j * np.pi) * unit for a, b in edges])
    g = p.derivative().eval_many(z) / p.eval_many(z)
    return complex(np.sum(w * g)), float(np.sum(np.abs(w * g)))


def test_running_sum_matches_direct_rule():
    rng = make_rng(43)
    cases = []
    for trial in range(8):
        f = random_rational(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if trial % 2:
            cases.append((f, Box(center, rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))))
        else:
            cases.append((f, Disk(center, rng.uniform(0.3, 2.0))))
    # real coefficients on boxes symmetric about the real axis: edge sums
    # with imaginary parts that cancel exactly
    real = RationalFunction(Polynomial([-2.0, 0.5, 1.0, 3.0]), Polynomial([4.0, -1.0, 1.0]))
    cases += [(real, Box(0j, 2.0, 2.0)), (real, Box(0.5 + 0j, 1.0, 3.0))]
    # the numerator's counter and the denominator's, each on its own
    for trial, (f, region) in enumerate(cases):
        for p in (f.numerator, f.denominator):
            counter = _ContourCounter(p)
            value, n = 0j, WINDING_START_NODES
            while n <= 2**14:
                (((fresh, _),),) = counter._fresh([region], (n,))
                value = 0.5 * value + fresh
                direct, scale = _direct_trapezoid(p, region, n)
                assert abs(value - direct) <= 1e-12 * scale, (trial, p, n)
                n *= 2


def _hex(v: complex):
    """A complex value's bits, so that a sign of zero or a nan counts."""
    return v.real.hex(), v.imag.hex()


def _bits(passes):
    return [(_hex(v), d.hex()) for v, d in passes]


def _random_regions(rng, kind, k):
    centres = rng.uniform(-1, 1, (k, 2))
    if kind == "disk":
        return [Disk(complex(*c), rng.uniform(0.3, 2.0)) for c in centres]
    return [Box(complex(*c), rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)) for c in centres]


@pytest.mark.parametrize("kind", ["disk", "box"])
def test_paired_rules_match_one_rule_evaluations(kind):
    # the first two rules share one evaluation; each region's sums and
    # estimates are those of two evaluations with one rule each
    rng = make_rng(53)
    for trial in range(12):
        f = random_rational(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)))
        regions = _random_regions(rng, kind, 1 + trial % 4)
        n = WINDING_START_NODES
        for counter in (_ContourCounter(f.numerator), _ContourCounter(f.denominator)):
            first, second = counter._fresh(regions, (n, 2 * n))
            assert _bits(first) == _bits(counter._fresh(regions, (n,))[0])
            assert _bits(second) == _bits(counter._fresh(regions, (2 * n,))[0])


@pytest.mark.parametrize("rules", [(WINDING_START_NODES, 2 * WINDING_START_NODES), (1024,)])
@pytest.mark.parametrize("kind", ["disk", "box"])
def test_node_modulus_bound_holds_every_node(kind, rules):
    # the fast roundoff check reads this bound in place of the largest |z|
    rng = make_rng(61)
    unit = _template(kind == "disk", rules)[0]
    for _ in range(60):
        k = int(rng.integers(1, 5))
        centres = 10.0 ** rng.uniform(-6, 4, k) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
        halves = 10.0 ** rng.uniform(-12, 4, (k, 2))
        if kind == "disk":
            regions = [Disk(complex(c), h[0]) for c, h in zip(centres, halves)]
        else:
            regions = [Box(complex(c), h[0], h[1]) for c, h in zip(centres, halves)]
        nodes = _Nodes(regions, unit)
        assert float(np.abs(nodes.z).max()) <= nodes.z_max


def test_exact_path_far_from_the_origin_matches_one_region_runs(monkeypatch):
    # a double root near 1e3: nodes within about 2.4e-4 of it are in its
    # roundoff halo and are evaluated exactly, the others are not
    root = 1000.0 + 2.0**-10 * 1j
    counter = _ContourCounter(Polynomial.from_roots([root, root, -3.0]))
    children = Box(root + (3 - 2j) * 1e-5, 1e-3, 8e-4).split_at(root.real + 1e-4, root.imag - 5e-5)
    rules = (WINDING_START_NODES, 2 * WINDING_START_NODES)
    calls = []
    eval_exact = Polynomial.eval_exact

    def recording(self, z):
        calls.append((self is counter.p, z))
        return eval_exact(self, z)

    monkeypatch.setattr(Polynomial, "eval_exact", recording)
    batched = counter._fresh(children, rules)
    # the nodes evaluated exactly are those that the per-node test flags
    z = _Nodes(children, _template(False, rules)[0]).z.ravel()
    flagged = []
    for poly in (counter.p, counter.dp):
        bad = np.abs(poly.eval_many(z)) <= _RELIABLE_FACTOR * poly.bound_many(np.abs(z))
        flagged += [(poly is counter.p, zi) for zi in z[bad].tolist()]
    assert 0 < len(calls) < z.size
    assert sorted(calls, key=repr) == sorted(flagged, key=repr)
    for i, child in enumerate(children):
        for passes, n in zip(batched, rules):
            assert _bits([passes[i]]) == _bits(counter._fresh([child], (n,))[0]), (i, n)


@pytest.mark.parametrize(
    "region, root",
    [(Disk(0j, 1.0), 1.0), (Box(0j, 1.0, 1.0), 1 + 0.5j)],
    ids=["disk", "box"],
)
def test_root_on_a_start_node_raises_at_the_first_rule(monkeypatch, region, root):
    # the root is a node of the 256-node rule; the paired evaluation still
    # fails the first pass, with the message of a one-rule evaluation
    counter = _ContourCounter(Polynomial.from_roots([root, 0.2j]))
    ((fresh, d_est),) = counter._fresh([region], (WINDING_START_NODES,))[0]
    with pytest.raises(ContourTooClose) as lone:
        valdist.localize._Ladder(region).advance(fresh, d_est)
    passes = _record_ladders(monkeypatch)
    with pytest.raises(ContourTooClose) as paired:
        counter.certified(region)
    assert str(paired.value) == str(lone.value)
    assert [n for _, n, _ in passes] == [WINDING_START_NODES]


# -- a split's four children share each doubling pass ----------------------------


def _random_splits(seed, count):
    """(counter, box, children) for random split points, twice per seeded random
    rational: with the numerator's counter, then with the denominator's."""
    rng = make_rng(seed)
    for _ in range(count):
        f = random_rational(rng, int(rng.integers(1, 6)), int(rng.integers(0, 4)))
        box = Box(complex(*rng.uniform(-1, 1, 2)), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        sx = box.center.real + rng.uniform(-0.9, 0.9) * box.half_re
        sy = box.center.imag + rng.uniform(-0.9, 0.9) * box.half_im
        for p in (f.numerator, f.denominator):
            yield _ContourCounter(p), box, box.split_at(sx, sy)


def _record_ladders(monkeypatch):
    """Every pass of every ladder as (region, nodes, running value), in pass order."""
    passes = []
    advance = valdist.localize._Ladder.advance

    def recording(self, fresh, d_est):
        n = self.n
        try:
            advance(self, fresh, d_est)
        finally:
            passes.append((self.region, n, self.value))

    monkeypatch.setattr(valdist.localize._Ladder, "advance", recording)
    return passes


def test_split_counts_match_one_region_runs(monkeypatch):
    passes = _record_ladders(monkeypatch)
    for counter, box, children in _random_splits(47, 12):
        passes.clear()
        batched = counter.certified_all(children)
        together = {ch: [(n, v) for r, n, v in passes if r == ch] for ch in children}
        alone = []
        for ch in children:
            passes.clear()
            alone.append(counter.certified(ch))
            # each pass's running value is bit for bit the lone run's
            assert together[ch] == [(n, v) for _, n, v in passes]
        assert batched == alone
        assert sum(batched) == counter.certified(box)


def test_split_with_a_root_on_a_child_edge_raises():
    # the root is the midpoint of the last child's top edge, a node of the
    # start rule; the other three children certify on their own
    box = Box(0j, 1.0, 1.0)
    children = box.split_at(-0.3, 0.2)
    counter = _ContourCounter(Polynomial.from_roots([0.35 + 1j, -0.6 - 0.4j]))
    assert [counter.certified(ch) for ch in children[:3]] == [1, 0, 0]
    with pytest.raises(ContourTooClose):
        counter.certified(children[3])
    with pytest.raises(ContourTooClose):
        counter.certified_all(children)


def test_batch_with_two_failing_regions_raises_for_the_first():
    # roots near start nodes of the top edges of the third and the fourth
    # child, whose sizes differ, so their lone runs fail with different texts
    children = Box(0j, 1.0, 1.0).split_at(-0.3, 0.2)
    counter = _ContourCounter(Polynomial.from_roots([-0.65 + 1j, 0.35 + 1j, -0.6 - 0.4j]))
    assert [counter.certified(ch) for ch in children[:2]] == [1, 0]
    lone = []
    for child in children[2:]:
        with pytest.raises(ContourTooClose) as exc:
            counter.certified(child)
        lone.append(str(exc.value))
    assert lone[0] != lone[1]
    for order, text in ((children, lone[0]), (children[::-1], lone[1])):
        with pytest.raises(ContourTooClose) as batched:
            counter.certified_all(order)
        assert str(batched.value) == text


def test_shared_edge_through_a_root_runs_the_long_ladder_once(monkeypatch):
    # the root is on the line between the first two children and no node
    # hits it, so both their ladders would run to WINDING_MAX_NODES; past
    # LOCKSTEP_NODES the first runs alone, and its failure ends the call
    children = Box(0j, 1.0, 1.0).split_at(0.1, 0.0)
    counter = _ContourCounter(Polynomial.from_roots([0.1 - 0.3j * math.sqrt(0.5), 0.5 + 0.5j]))
    sizes = []
    eval_many = Polynomial.eval_many

    def counting(self, z):
        if self is counter.p:
            sizes.append(np.size(z))
        return eval_many(self, z)

    monkeypatch.setattr(Polynomial, "eval_many", counting)
    for child in children[1::-1]:
        sizes.clear()
        with pytest.raises(ContourTooClose):
            counter.certified(child)
    alone = sum(sizes)  # the first child's ladder
    sizes.clear()
    with pytest.raises(ContourTooClose):
        counter.certified_all(children)
    assert alone < sum(sizes) < alone + 4 * LOCKSTEP_NODES
    assert max(sizes) <= WINDING_MAX_NODES // 2


def test_split_in_a_double_root_halo_matches_one_region_runs(monkeypatch):
    # the dyadic double root of test_endgame_declines_a_box_above_its_gate;
    # every edge runs within the roundoff halo, so nodes are re-evaluated
    # exactly, and the batch re-evaluates the nodes the lone runs did
    root = 0.5 + 2.0**-12 * 1j
    counter = _ContourCounter(Polynomial.from_roots([root, root, -0.5j]))
    box = Box(root + (1 - 2j) * 1e-8, 6e-8, 5e-8)
    children = box.split_at(root.real - 1.3e-8, root.imag + 0.7e-8)
    calls = []
    eval_exact = Polynomial.eval_exact

    def counting(self, z):
        calls.append(z)
        return eval_exact(self, z)

    monkeypatch.setattr(Polynomial, "eval_exact", counting)
    alone = [counter.certified(ch) for ch in children]
    exact_alone = len(calls)
    calls.clear()
    assert counter.certified_all(children) == alone
    assert len(calls) == exact_alone > 0
    assert sorted(alone) == [0, 0, 0, 2]


# -- certified enclosures --------------------------------------------------------


def test_localize_conjugate_pair():
    encs = localize_roots(Polynomial([1, 0, 1]), Box(0j, 2.0, 2.0), 1e-10)
    assert [e.multiplicity for e in encs] == [1, 1]
    got = sorted(e.center.imag for e in encs)
    assert abs(got[0] + 1) < 1e-9 and abs(got[1] - 1) < 1e-9
    assert all(abs(e.center.real) < 1e-9 for e in encs)


def test_localize_multiplicity_cluster():
    p = Polynomial.from_roots([1, 1, -2])
    encs = localize_roots(p, Box(0j, 3.0, 3.0), 1e-10)
    by_mult = {e.multiplicity: e for e in encs}
    assert set(by_mult) == {1, 2}
    assert abs(by_mult[2].center - 1) < 1e-8
    assert abs(by_mult[1].center + 2) < 1e-9
    assert all(e.radius <= 1e-10 for e in encs)


def test_localize_root_on_subdivision_line():
    encs = localize_roots(Polynomial([0, 1]), Box(0j, 1.0, 1.0), 1e-10)
    assert len(encs) == 1
    assert encs[0].multiplicity == 1
    assert abs(encs[0].center) < 1e-10


def test_localize_contract_invariants():
    rng = make_rng(11)
    p = random_polynomial(rng, 9)
    region = Box(0j, 2.5, 2.5)
    encs = localize_roots(p, region, 1e-9)
    total = winding_count(p, region)
    assert sum(e.multiplicity for e in encs) == total
    # disjoint, sorted, each certified
    for i, e in enumerate(encs):
        assert e.radius <= 1e-9
        assert winding_count(p, e.region) == e.multiplicity
        for other in encs[i + 1 :]:
            assert abs(e.center - other.center) > e.radius + other.radius
    assert encs == sorted(encs, key=lambda e: (e.center.real, e.center.imag))


def test_localize_disk_region_filters_corners():
    # roots at the four corners of the bounding box but outside the disk
    p = Polynomial.from_roots([1.3 + 1.3j, 1.3 - 1.3j, -1.3 + 1.3j, 0.1])
    encs = localize_roots(p, Disk(0j, 1.5), 1e-10)
    assert len(encs) == 1
    assert abs(encs[0].center - 0.1) < 1e-9


def test_localize_rejects_constant():
    with pytest.raises(ConstantPolynomial):
        localize_roots(Polynomial([5.0]), Disk(0j, 1.0), 1e-9)
    with pytest.raises(ValueError):
        localize_roots(Polynomial([0, 1]), Disk(0j, 1.0), -1.0)
    with pytest.raises(ValueError, match="tol must be finite"):
        localize_roots(Polynomial([0, 1]), Disk(0j, 1.0), math.inf)


def test_a_join_wider_than_tol_descends_again(monkeypatch):
    # at tol 0.1 two joins chain the cluster's three final boxes into one
    # disk of radius 0.108; its boxes descend again at tol 0.05, which
    # parts the roots as a search at tol 0.05 does. At tol 0.15 the triple fits
    p = Polynomial.from_roots([0.3, 0.35, 0.4])
    descents = _count_calls(monkeypatch, valdist.localize, "_isolate")
    encs = localize_roots(p, Box(0j, 1.0, 1.0), 0.1)
    assert len(descents) == 2
    assert [e.multiplicity for e in encs] == [1, 2]
    assert all(e.radius <= 0.1 for e in encs)
    assert [e.region for e in encs] == [e.region for e in localize_roots(p, Box(0j, 1.0, 1.0), 0.05)]
    (enc,) = localize_roots(p, Box(0j, 1.0, 1.0), 0.15)
    assert enc.multiplicity == 3 and enc.radius <= 0.15


def test_a_joined_cluster_within_tol_is_one_enclosure(monkeypatch):
    joins = _count_calls(monkeypatch, valdist.localize, "_cover")
    (enc,) = localize_roots(Polynomial.from_roots([0.3, 0.35]), Box(0j, 1.0, 1.0), 0.1)
    assert len(joins) == 1
    assert enc.multiplicity == 2
    assert abs(enc.radius - 0.0763) <= 1e-4
    assert enc.region.contains(0.3) and enc.region.contains(0.35)


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its positional arguments to the returned list."""
    calls, original = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_a_start_box_that_holds_the_cauchy_disk_halves_without_a_contour(monkeypatch):
    # twice the Cauchy box halves to the Cauchy box by theorem, and from
    # there the descent is the Cauchy box's own
    p = Polynomial.from_roots([1.5, -0.5 + 1j, -0.5 - 1j, 0.25j])
    radius = _cauchy_radius(p) * (1 + 1e-6)
    ladders = _count_calls(monkeypatch, _ContourCounter, "certified_all")
    encs = localize_roots(p, Box(0j, 2 * radius, 2 * radius), 1e-10)
    outer = (Box(0j, 2 * radius, 2 * radius), Box(0j, radius, radius))
    assert ladders and not any(batch[0] in outer for _, batch in ladders)
    assert encs == localize_roots(p, Box(0j, radius, radius), 1e-10)


# z^12 - (z^11 + ... + 1): its largest root, about 1.99976, lies 1.2e-4
# (relative) inside its Cauchy bound of 2
TIGHT_CAUCHY = Polynomial([-1.0] * 12 + [1.0])


@pytest.mark.parametrize(
    "p",
    [TIGHT_CAUCHY, Polynomial.from_roots([1.5, -0.5 + 1j, -0.5 - 1j, 0.25j, 0.25j])],
    ids=["tight", "spread"],
)
def test_region_holding_the_cauchy_disk_skips_the_outer_contours(monkeypatch, p):
    radius = _cauchy_radius(p) * (1 + 1e-9)
    regions = [Box(0j, radius, radius), Disk(0j, radius), Disk(0.3 - 0.2j, radius + 0.4)]
    ladders = _count_calls(monkeypatch, _ContourCounter, "certified_all")
    skipped = []
    for region in regions:
        ladders.clear()
        skipped.append(localize_roots(p, region, 1e-10))
        outer = (region, Box(region.center, region.size, region.size))
        assert not any(batch[0] in outer for _, batch in ladders)
    # the contour that was skipped, on the box the region is searched in,
    # counts the degree, and the descent is the same
    monkeypatch.setattr(valdist.localize, "_holds_cauchy_disk", lambda box, p: False)
    for region, encs in zip(regions, skipped):
        ladders.clear()
        assert localize_roots(p, region, 1e-10) == encs
        assert ladders[0][1] == [Box(region.center, region.size, region.size)]
    assert sum(e.multiplicity for e in skipped[0]) == p.degree
    # a box that holds every root but not the Cauchy disk counts by contour
    # and finds the same roots
    monkeypatch.undo()
    half = max(abs(z) for z in np.roots(p.coefficients[::-1])) * (1 + 5e-5)
    box = Box(0j, half, half)
    assert not valdist.localize._holds_cauchy_disk(box, p)
    inner = localize_roots(p, box, 1e-10)
    assert len(inner) == len(skipped[0])
    for e in skipped[0]:
        assert any(
            abs(e.center - o.center) <= e.radius + o.radius and e.multiplicity == o.multiplicity
            for o in inner
        )


@pytest.mark.parametrize(
    "roots, region, match",
    [
        ([1 + 0.3j, 0.1], Box(0j, 1.0, 1.0), "on the region's boundary: .*contour"),
        # no contour runs on the circle: the root's enclosure straddles it
        ([0.6 + 0.8j, 0.1], Disk(0j, 1.0), "enclosure at .* straddles the circle"),
        # on a node of every rule, and on the box's edge x = 1
        ([1.0, 0.1], Disk(0j, 1.0), "on the region's boundary: .*contour"),
    ],
    ids=["box edge", "disk circle", "disk node"],
)
def test_root_on_the_region_boundary_fails_after_one_ladder(monkeypatch, roots, region, match):
    ladders = _count_calls(monkeypatch, _ContourCounter, "certified_all")
    passes = _count_calls(monkeypatch, valdist.localize, "_eval_repaired")
    with pytest.raises(RootOnBoundary, match=match):
        localize_roots(Polynomial.from_roots(roots), region, 1e-10)
    if "straddles" in match:
        # the descent places the root, and no pass runs the long ladder
        assert max(nodes.z.size for _, nodes in passes) <= LOCKSTEP_NODES
    else:
        assert len(ladders) == 1


def test_roots_on_every_split_line_fail_after_one_descent(monkeypatch):
    # the box's count takes half of each root on its edge x = 1, so the
    # descent holds roots that no split of the box can clear
    descents = _count_calls(monkeypatch, valdist.localize, "_isolate")
    with pytest.raises(RootOnBoundary, match="subdivision lines"):
        localize_roots(Polynomial.from_roots([1 + 0.3j, 1 - 0.3j, 0.1]), Box(0j, 1.0, 1.0), 1e-10)
    assert len(descents) == 1


def test_enclosure_straddling_the_disk_circle_is_a_root_on_boundary():
    # a conjugate pair of equal modulus on the circle: the count takes half
    # of each, and the enclosures that the disk filter drops straddle it
    p = Polynomial([-5, 3, -8, -7, 8, -6, 2, 9, -3])
    with pytest.raises(RootOnBoundary, match="straddles the circle"):
        localize_roots(p, Disk(0j, 0.7038434839602782), 1e-10)


def test_enclosure_sums_equal_the_region_winding_counts():
    # a box is counted by its own contour, a disk by the enclosures inside
    # it, found in the box around it; the fourth disk's box holds the
    # Cauchy disk, so the box counts deg p without a contour
    rng = make_rng(31)
    checked = 0
    for _ in range(40):
        p = random_polynomial(rng, int(rng.integers(3, 10)))
        c = complex(*rng.uniform(-1.0, 1.0, size=2))
        r = float(rng.uniform(0.3, 2.5))
        regions = [
            Box(c, r, float(rng.uniform(0.3, 2.5))),
            Disk(0j, r),
            Disk(c, r),
            Disk(c, max(abs(c.real), abs(c.imag)) + 1.01 * _cauchy_radius(p)),
        ]
        for region in regions:
            try:
                got = sum(e.multiplicity for e in localize_roots(p, region, 1e-9))
                want = winding_count(p, region)
            except valdist.ValdistError:
                continue
            checked += 1
            assert got == want, (p, region)
    assert checked >= 150


@pytest.mark.parametrize("side", [1 - 1e-7, 1 + 1e-7], ids=["inside", "outside"])
@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_root_near_the_circle_counts_without_a_contour_on_it(side, radius):
    # a contour on the circle would run the whole ladder and fail near the
    # root; the enclosures, far smaller than its distance, place it
    p = Polynomial.from_roots([side * radius * (0.6 + 0.8j), -0.3j, 0.5 + 0.2j, 2.5])
    encs = localize_roots(p, Disk(0j, radius), 1e-10)
    want = int(sum(abs(z) < radius for z in np.roots(p.coefficients[::-1])))
    assert sum(e.multiplicity for e in encs) == want


def test_tiny_leading_coefficient_keeps_every_root():
    # from_roots(95...102) has a leading coefficient 1e-16 of its largest one
    encs = localize_roots(Polynomial.from_roots(range(95, 103)), Box(0j, 200.0, 200.0), 1e-8)
    assert [e.multiplicity for e in encs] == [1] * 8
    assert all(abs(e.center - k) <= e.radius for e, k in zip(encs, range(95, 103)))


def test_count_conservation_on_factored_corpus():
    rng = make_rng(23)
    for _ in range(30):
        deg = int(rng.integers(2, 13))
        p, roots = random_factored(rng, deg)
        region = Disk(0j, 3.0)
        inside = sum(m for z, m in roots if abs(z) < 3.0 - 0.2)
        assert winding_count(p, region) == inside


def test_subdivision_soundness_random_corpus():
    rng = make_rng(29)
    for _ in range(30):
        deg = int(rng.integers(2, 11))
        p = random_polynomial(rng, deg)
        region = Box(0j, 2.5, 2.5)
        encs = localize_roots(p, region, 1e-9)
        assert sum(e.multiplicity for e in encs) == winding_count(p, region)


# -- root hints place the splits --------------------------------------------------


def _cauchy_box(p):
    radius = 1.0 + max(abs(c) for c in p.coefficients[:-1]) / abs(p.leading)
    return Box(0j, radius, radius)


# a contour through a root that no node hits runs the doubling ladder to
# batches of 2^19 nodes before it fails
HINTED_CASES = {
    # every root is on the centre line y = 0 of the Cauchy box
    "centre split": ([-4, -2, 1, 3], None),
    # 2 + 0.3i is on the edge x = 2 of the first shrink candidate Box(0, 2, 2)
    "start box": ([-1 + 1.3j, 0.7 - 0.9j, 2 + 0.3j], Box(0j, 4.0, 4.0)),
}


@pytest.mark.parametrize("roots, region", list(HINTED_CASES.values()), ids=list(HINTED_CASES))
def test_hints_keep_contours_off_roots(monkeypatch, roots, region):
    p = Polynomial.from_roots(roots)
    sizes = []
    eval_many = Polynomial.eval_many

    def counting(self, z):
        sizes.append(np.size(z))
        return eval_many(self, z)

    monkeypatch.setattr(Polynomial, "eval_many", counting)
    encs = localize_roots(p, region or _cauchy_box(p), 1e-10)
    assert [e.multiplicity for e in encs] == [1] * len(roots)
    assert all(abs(e.center - z) < 1e-9 for e, z in zip(encs, roots))
    assert max(sizes) <= 2**14


# items 10 and 39 of the benchmark's roots stream at seed 1: multiple and
# simple real roots on the centre line, which end in RootOnBoundary when
# the centre split is tried first
ROOTS_ITEMS = {
    "item10": ([108, 108, -261, -266, 198, 214, -44, -62, -2, 6, 1], [-3, -1, 1, 2]),
    "item39": ([-1, 3, 9, 3, -4], None),
}


@pytest.mark.parametrize("coeffs, centres", list(ROOTS_ITEMS.values()), ids=list(ROOTS_ITEMS))
def test_roots_items_on_the_centre_line_certify(coeffs, centres):
    p = Polynomial(coeffs)
    encs = localize_roots(p, _cauchy_box(p), 1e-10)
    assert sum(e.multiplicity for e in encs) == p.degree
    if centres is None:  # simple roots
        centres = sorted(np.roots(coeffs[::-1]), key=lambda z: (z.real, z.imag))
    else:
        assert [e.multiplicity for e in encs] == [3, 3, 2, 2]
    assert len(encs) == len(centres)
    assert all(abs(e.center - z) < 1e-9 for e, z in zip(encs, centres))


def test_hint_screen_ignores_nan_and_survives_wrong_hints(monkeypatch):
    box, _hint_near = Box(0j, 1.0, 1.0), valdist.localize._hint_near
    assert _hint_near([1e-5 + 0.5j], box, (0.0,), ())
    assert not _hint_near([1e-3 + 0.5j, 0.5 + 2e-4j], box, (0.0,), (0.0,))
    nans = [complex(math.nan, 0.0), complex(0.0, math.nan)]
    assert not _hint_near(nans, box, (0.0,), (0.0,))
    # hints on every centre line and every start-box edge, none of them a
    # root: the centre split moves to the end and the start box stays
    p = Polynomial.from_roots([0.3 + 0.2j, -0.6 - 0.1j, 0.7j])
    want = localize_roots(p, Box(0j, 2.0, 2.0), 1e-10)
    monkeypatch.setattr(valdist.localize, "_hint_near", lambda hints, box, xs, ys: True)
    got = localize_roots(p, Box(0j, 2.0, 2.0), 1e-10)
    assert [e.multiplicity for e in got] == [e.multiplicity for e in want]
    assert all(abs(g.center - w.center) < 1e-9 for g, w in zip(got, want))


def test_split_points_try_the_centre_first_and_hinted_points_last(monkeypatch):
    box = Box(0.5 + 0.25j, 0.25, 0.25)
    points = list(_split_points(box, []))
    assert points[0] == (0.5, 0.25)
    assert len(set(points)) == len(points) == 1 + len(SPLIT_LADDER)
    steps = [abs(sx - 0.5) for sx, _ in points]
    assert steps == sorted(steps)
    # a hint on the centre's line x = 0.5, then one on the first ladder
    # point's line y = sy: that point goes last, the rest keep their order
    assert list(_split_points(box, [0.5 + 0.4j])) == points[1:] + points[:1]
    hint = complex(0.3, points[1][1])
    assert list(_split_points(box, [hint])) == points[:1] + points[2:] + points[1:2]
    # a split whose centre certifies makes one hint test
    tests = _count_calls(monkeypatch, valdist.localize, "_hint_near")
    assert next(_split_points(box, [hint])) == points[0]
    assert len(tests) == 1


def test_split_ladder_lines_miss_integers_and_half_integers():
    # the roots of integer inputs sit on half-integers, and boxes that
    # start at a power-of-two half-width keep dyadic centres
    for e in range(-8, 12):
        half = 2.0**e
        for k in range(-64, 65):
            for j in range(8):
                centre = k / 2**j
                for u in SPLIT_LADDER:
                    line = 2.0 * (centre + u * half)
                    assert line != round(line), (centre, half, u)


def test_localize_and_witness_draw_no_random_numbers(monkeypatch):
    def no_rng(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for coeffs, _ in ROOTS_ITEMS.values():
        p = Polynomial(coeffs)
        runs = [(localize_roots(p, _cauchy_box(p), 1e-10), fta_witness(p, 1e-10)) for _ in "ab"]
        encs, trace = runs[0]
        assert sum(e.multiplicity for e in encs) == p.degree
        assert trace.residual <= 1e-10 * p.coefficient_scale
        assert repr(runs[0]) == repr(runs[1])


def test_no_public_callable_takes_a_seed():
    for name in valdist.__all__:
        try:
            params = inspect.signature(getattr(valdist, name)).parameters
        except (TypeError, ValueError):  # not callable, or a builtin's constructor
            continue
        assert "seed" not in params, name


# -- Newton and the endgame gate -----------------------------------------------


def test_newton_never_returns_a_worse_point():
    rng = make_rng(43)
    for trial in range(40):
        deg = int(rng.integers(2, 9))
        if trial % 2:
            p, roots = random_factored(rng, deg)
            starts = [z + complex(*rng.uniform(-1e-3, 1e-3, 2)) for z, _ in roots]
        else:
            p, starts = random_polynomial(rng, deg), []
        starts += [complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(4)]
        dp = p.derivative()
        for z0 in starts:
            best, best_val, _ = _newton(p, dp, z0, multiplicity=int(rng.integers(1, 4)))
            assert best == z0 or abs(p(best)) < abs(p(z0))
            assert best_val == abs(p(best))


@pytest.mark.parametrize("count", [1, 2])
def test_endgame_declines_a_box_above_its_gate(count):
    # off the box centre, so Newton has work to do; dyadic, so the double
    # root survives Polynomial.from_roots exactly
    root = 0.5 + 2.0**-12 * 1j
    counter = _ContourCounter(Polynomial.from_roots([root] * count + [-0.5j]))
    gate = (0.05 if count == 1 else 1e-3) * 1.5  # |centre| = 0.5
    for factor, certifies in ((1.01, False), (0.99, True)):
        half = factor * gate / (2.0 * math.sqrt(2.0))
        enc = _endgame(counter, Box(0.5 + 0j, half, half), count, tol=1.0)
        assert (enc is not None) == certifies
        if certifies:
            assert enc.multiplicity == count and abs(enc.center - root) <= enc.radius


def _oracle_roots(p):
    """Every root of p's exact coefficients, from mpmath at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in reversed(p.coefficients)]
        return mpmath.polyroots(coeffs, maxsteps=800, extraprec=400)


def _bound_cases():
    """(polynomial, oracle roots, points): points at 1e-3 to 1e-14 (1 + |root|) from each root.

    Simple roots of random polynomials of degree 1-7 (a linear one's
    bound equals the distance), and clusters: pairs and triples 1e-5 to
    1e-9 apart, and the rounded multiple roots of factored polynomials.
    """
    rng = make_rng(59)
    polys = [random_polynomial(rng, d) for d in range(1, 8)]
    for spread in (1e-5, 1e-7, 1e-9):
        c = complex(*rng.uniform(-1.0, 1.0, 2))
        polys.append(Polynomial.from_roots([c, c + spread, 0.7j]))
        polys.append(Polynomial.from_roots([c, c + spread * 1j, c - spread, -1.5]))
    polys += [random_factored(rng, 5)[0] for _ in range(3)]
    for p in polys:
        roots = _oracle_roots(p)
        points = []
        for z in map(complex, roots):
            for k in range(3, 15):
                offset = 10.0**-k * (1.0 + abs(z)) * np.exp(2j * np.pi * rng.uniform())
                points.append(z + complex(offset))
        yield p, roots, points


def test_one_root_radius_is_never_below_the_nearest_root_distance():
    import mpmath

    for p, roots, points in _bound_cases():
        with mpmath.workdps(60):
            for z in points:
                dist = min(abs(mpmath.mpc(z.real, z.imag) - w) for w in roots)
                assert mpmath.mpf(_one_root_radius(p, z)) >= dist, (p, z)


@pytest.mark.parametrize(
    "coeffs, z",
    [([-1, 0, 1], 0j), ([5, -3, 0, 1], 1 + 0j), ([0.25, -1, 1], 0.5 + 0j), ([1, 0, 0, 0, 1], 0j)],
    ids=["z^2-1 at 0", "z^3-3z+5 at 1", "double root", "z^4+1 at 0"],
)
def test_one_root_radius_is_infinite_where_the_derivative_vanishes(coeffs, z):
    p = Polynomial(coeffs)
    assert p.eval_exact(z, derivative=True) == 0
    assert _one_root_radius(p, z) == math.inf


def _endgame_contours(monkeypatch):
    """Record each disk the contour counter certifies."""
    disks, certified = [], _ContourCounter.certified

    def recording(self, region):
        if isinstance(region, Disk):
            disks.append(region)
        return certified(self, region)

    monkeypatch.setattr(_ContourCounter, "certified", recording)
    return disks


def test_an_endgame_disk_across_its_box_edge_certifies_by_contour(monkeypatch):
    # the dyadic simple root of test_endgame_declines_a_box_above_its_gate;
    # both boxes share their centre, so Newton starts from the same point
    # and both give the same disk, but in the narrow box the disk reaches
    # past the right edge, which runs 5e-14 beyond the root
    root = 0.5 + 2.0**-12 * 1j
    counter = _ContourCounter(Polynomial.from_roots([root, -0.5j]))
    centre = root - 1e-6 + 5e-14
    wide, narrow = Box(centre, 2e-6, 1e-6), Box(centre, 1e-6, 1e-6)
    assert narrow.corners[1] - root.real < 1e-13
    contours = _endgame_contours(monkeypatch)
    by_bound = _endgame(counter, wide, 1, tol=1e-10)
    assert contours == []
    by_contour = _endgame(counter, narrow, 1, tol=1e-10)
    assert contours == [by_contour.region] == [by_bound.region]
    assert by_contour.multiplicity == 1 and by_contour.region.contains(root)
    assert narrow.corners[1] - by_contour.center.real < by_contour.radius


def test_a_simple_root_beside_a_neighbour_just_outside_its_disk(monkeypatch):
    # roots 2^-20 and 2^-20 + 2^-42, about 2.3 rho apart, and 1; the
    # coefficients are exact. The box holds the first root, its disk
    # clears the right edge, and the second lies past that edge
    a, b = 2.0**-20, 2.0**-20 + 2.0**-42
    p = Polynomial.from_roots([a, b, 1.0])
    assert [p.eval_exact(w) for w in (a, b, 1.0)] == [0, 0, 0]
    box = Box.from_corners(a - 1e-9, a + 1.5e-13, -5e-10, 5e-10)
    assert not box.contains(b)
    contours = _endgame_contours(monkeypatch)
    enc = _endgame(_ContourCounter(p), box, 1, tol=1e-10)
    assert contours == []
    assert enc.multiplicity == 1
    assert enc.region.contains(a) and not enc.region.contains(b)
    assert enc.radius < b - a < 3.0 * enc.radius


# -- exact roots at the origin ----------------------------------------------------


def _disjoint(encs) -> bool:
    return all(
        abs(a.center - b.center) > a.radius + b.radius for i, a in enumerate(encs) for b in encs[i + 1 :]
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [1.0, -3.0, 2.5 - 1e-3j, 1e-200j])
def test_c_z_k_is_the_origin_without_a_contour(monkeypatch, k, c):
    passes = _count_calls(monkeypatch, _ContourCounter, "_fresh")
    assert _all_roots(Polynomial([0.0] * k + [c]), 1e-10) == [valdist.localize.RootEnclosure(Disk(0j, ORIGIN_RADIUS), k)]
    assert passes == []


# q(0) != 0; an integer one, a complex one, and one with a double root
Z_K_FACTORS = [
    Polynomial.from_roots([-3, 1, 2, 5]),
    Polynomial.from_roots([0.5 - 1.25j, -2 + 1j, 3j]),
    Polynomial([7 + 2j, -1j, 0.5, 2 - 1j, 1]),
    Polynomial.from_roots([1.5, 1.5, -0.75j]),
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("q", Z_K_FACTORS, ids=["integer", "complex", "dense", "double"])
def test_z_k_times_q_is_the_origin_and_q_s_roots(k, q):
    import mpmath

    p = Polynomial([0.0] * k + list(q.coefficients))
    tol = 1e-10 * max(1.0, _fujiwara_bound(p))
    encs = _all_roots(p, 1e-10)
    (origin,) = [e for e in encs if e.center == 0]
    assert origin.region == Disk(0j, ORIGIN_RADIUS) and origin.multiplicity == k
    assert sum(e.multiplicity for e in encs) == p.degree and _disjoint(encs)
    rest = [e for e in encs if e is not origin]
    with mpmath.workdps(60):
        for w in _oracle_roots(q):
            near = [e for e in rest if abs(mpmath.mpc(e.center.real, e.center.imag) - w) <= tol]
            assert len(near) == 1, (q, w)
            assert near[0].radius <= tol


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("root", [1e-14, -5e-14j, 1.5e-13, 2e-13j, 3e-13, 1e-11 - 1e-11j])
def test_a_root_of_q_beside_the_origin(monkeypatch, k, root):
    # q's enclosure holds 0 for the roots below 1e-13 and takes the
    # origin's k roots; one astride the origin's disk sends the search to p
    # itself; past that, the origin and q's root keep their own disks
    q = Polynomial.from_roots([root, 1.0, -2 + 1j])
    p = Polynomial([0.0] * k + list(q.coefficients))
    searched = _count_calls(monkeypatch, valdist.localize, "localize_roots")
    encs = _all_roots(p, 1e-10)
    assert sum(e.multiplicity for e in encs) == p.degree and _disjoint(encs)
    near = [e for e in encs if abs(e.center) <= 1e-10]
    if abs(root) <= 2e-13:
        assert len(near) == 1 and near[0].multiplicity == k + 1 and near[0].region.contains(root)
        assert [call[0] for call in searched] == ([q] if abs(root) < 1e-13 else [q, p])
    else:
        (origin,) = [e for e in near if e.center == 0]
        assert origin == valdist.localize.RootEnclosure(Disk(0j, ORIGIN_RADIUS), k)
        (other,) = [e for e in near if e.region.contains(root)]
        assert other.multiplicity == 1 and len(near) == 2


@pytest.mark.parametrize(
    "constant, zero",
    [(1e-300, False), (5e-324, False), (complex(0.0, 2.0**-1060), False), (-0.0, True), (complex(0.0, -0.0), True)],
    ids=["1e-300", "subnormal", "subnormal imaginary", "-0.0", "complex -0.0"],
)
def test_only_an_exactly_zero_constant_is_a_root_at_the_origin(monkeypatch, constant, zero):
    p = Polynomial([constant, 2.0, 1.0])
    searched = _count_calls(monkeypatch, valdist.localize, "localize_roots")
    encs = _all_roots(p, 1e-10)
    assert sum(e.multiplicity for e in encs) == 2
    assert [call[0] for call in searched] == [Polynomial([2.0, 1.0]) if zero else p]


# -- witness pipeline -------------------------------------------------------------


def test_witness_quadratic_base_case():
    trace = fta_witness(Polynomial([1, 0, 1]))
    assert trace.depth == 0 and trace.shifts == []
    assert abs(abs(trace.witness.imag) - 1) < 1e-12 and abs(trace.witness.real) < 1e-12
    assert trace.residual <= 1e-12


def test_witness_linear_base_case():
    trace = fta_witness(Polynomial([3, 2]))
    assert abs(trace.witness + 1.5) < 1e-14


def test_witness_cubic_walkthrough():
    p = Polynomial([1, -3, 0, 1])
    trace = fta_witness(p)
    assert trace.depth == 1
    (h,) = trace.shifts
    assert min(abs(h - 1), abs(h + 1)) < 1e-9  # critical points of z^3 - 3z + 1
    real_roots = (0.34729635533, 1.53208888624, -1.87938524157)
    assert min(abs(trace.witness - w) for w in real_roots) < 1e-8
    assert abs(p(trace.witness)) <= 1e-10
    (level,) = trace.claim1_checks
    assert level.kind == "claim1"
    assert level.linear_ratio <= 1e-9
    assert level.decomposition.m == 3 and level.decomposition.l == 2


def test_witness_pure_power_shortcut():
    trace = fta_witness(Polynomial([0, 0, 0, 0, 0, 1]))
    assert trace.witness == 0
    assert trace.residual == 0
    assert trace.depth == 3
    assert all(lv.kind == "constant-term-zero" for lv in trace.claim1_checks)


def test_witness_binomial_shortcut():
    p = Polynomial([2, 0, 0, 0, 1])  # z^4 + 2
    trace = fta_witness(p)
    assert abs(p(trace.witness)) <= 1e-10 * p.coefficient_scale
    assert trace.claim1_checks[0].kind == "binomial"


def test_witness_claim1_is_the_smallest_root():
    # z^3 + 3z^2 - 1 recentres at its critical point -2; of its three real
    # roots, the one nearest the origin comes back. Wilkinson's
    # (z - 1)...(z - d) has levels whose roots all fit in a search
    # tolerance scaled by the Cauchy radius; scaled by Fujiwara's bound,
    # each level's search separates them, and the witness is the root 1
    cases = [(Polynomial([-1, 0, 3, 1]), min(np.roots([1, 3, 0, -1]), key=abs))]
    cases += [(Polynomial.from_roots(range(1, d + 1)), 1.0) for d in (12, 13, 16)]
    for p, smallest in cases:
        trace = fta_witness(p)
        assert [lv.kind for lv in trace.claim1_checks] == ["claim1"] * (p.degree - 2)
        assert abs(trace.witness - smallest) < 1e-12


@pytest.mark.parametrize(
    "coeffs",
    [
        [-72, -84, 58, 65, -20, -14, 2, 1],
        [-2, 4, 1, 8, -1, -2, -8, -7, 7, 2],
        [0, 0, -1024, 2304, -1408, -32, 188, -23, -6, 1],
    ],
)
def test_witness_roots_on_a_split_line(coeffs):
    # integer polynomials whose recentred levels have real roots, on the
    # quadtree's first split line y = 0
    p = Polynomial(coeffs)
    trace = fta_witness(p, 1e-10)
    assert trace.residual <= 1e-10 * p.coefficient_scale


@pytest.mark.parametrize("big", [1e6, 1e9, 1e10])
@pytest.mark.parametrize("head", [[1, 0], [1, 0, 0]], ids=["cubic", "quartic"])
def test_witness_with_a_root_near_the_cauchy_bound(head, big):
    # z^3 - big z^2 + 1 and z^4 - big z^3 + 1: a root within about 1 of
    # the Cauchy bound 1 + big, which every split of the Cauchy box
    # itself would share an edge with
    p = Polynomial([*head, -big, 1])
    trace = fta_witness(p, 1e-10)
    assert trace.residual <= 1e-10 * p.coefficient_scale


def test_witness_rejects_constant():
    with pytest.raises(ConstantPolynomial):
        fta_witness(Polynomial([4.2]))


def test_witness_rejects_nan_residual(monkeypatch):
    monkeypatch.setattr(valdist.localize, "_witness_recurse", lambda p, levels: complex("nan"))
    with pytest.raises(LocalizationFailed):
        fta_witness(Polynomial([1, -3, 0, 1]))


def test_witness_names_an_overflowing_level():
    # the quadratic level squares its coefficient 2e300 to inf, so the
    # derivative root is nan; the level says so before it shifts by it
    with pytest.raises(LocalizationFailed, match=r"^the degree-3 level's derivative root .* is not finite$"):
        fta_witness(Polynomial([1e-300, 0, 1e300, 1]))


def test_witness_random_corpus():
    rng = make_rng(31)
    for _ in range(20):
        deg = int(rng.integers(3, 13))
        p = random_polynomial(rng, deg)
        trace = fta_witness(p, 1e-8)
        assert trace.residual <= 1e-8 * p.coefficient_scale
        assert trace.depth == deg - 2
        assert all(lv.linear_ratio <= 1e-9 for lv in trace.claim1_checks)


def test_witness_translation_coherence():
    rng = make_rng(37)
    for _ in range(10):
        p = random_polynomial(rng, int(rng.integers(3, 9)))
        h = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        shifted = p.shift(h)
        w = fta_witness(shifted, 1e-8).witness + h
        bound = p.eval_magnitude_bound(abs(w))
        assert abs(p(w)) <= 1e-7 * max(p.coefficient_scale, bound * 1e-8)


def test_shift_root_translation():
    # localized roots of the shifted polynomial are the originals moved by -h
    rng = make_rng(41)
    for _ in range(8):
        p, roots = random_factored(rng, int(rng.integers(2, 9)), max_mult=2)
        h = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = p.shift(h)
        encs = localize_roots(q, Box(0j, 4.0, 4.0), 1e-8)
        moved = sorted(
            ((z - h) for z, m in roots for _ in range(m) if abs(z - h) < 3.9),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(
            (e.center for e in encs for _ in range(e.multiplicity)),
            key=lambda z: (z.real, z.imag),
        )
        assert len(moved) == len(got)
        for a, b in zip(moved, got):
            assert abs(a - b) < 1e-6
