"""valdist benchmark: seeded workloads against the public entry points.

    python3 perfbench/run.py --workload distribution --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout. With ``--trace 0`` the run measures for ``--seconds``
seconds and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed prefix of the seed's items, each once untraced and once traced, and
reports the per-layer metrics. Every answer is checked against the
oracle after the timed region. The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One process, one thread: the companion matrices and contour arrays are
# far too small to gain from BLAS threads, and idle threads only add noise
# on a shared machine. Must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
from hostspeed import REF_KERNEL_S, REF_NUMPY_IMPORT_S, HostClock, to_reference  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
ROOTS_TOL = 1e-10
# |N(r) - oracle N(r)| allowance: a-points come from enclosures of radius
# 1e-10 * max(1, r_max), far inside this
N_TOL = 1e-7


def _import_program():
    if not (SRC / "valdist" / "__init__.py").is_file():
        sys.exit(f"error: no valdist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import valdist

    if not Path(valdist.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported valdist from {valdist.__file__}, not from {SRC}")
    return valdist


# -- workloads --------------------------------------------------------------------
#
# run(vd, item) makes the item's calls, stopping at the first one that
# raises; check(item, out) returns None, or (reason, wrong) where wrong marks
# a certified answer that contradicts the oracle and not a failing verdict;
# props(item) gives (root on a first split line, multiple root) for the inputs.


class Distribution:
    """build_profile, verify_first_fundamental, verify_second_fundamental per function.

    The profile and the second-theorem check take all three targets; the
    first-theorem check takes the one that is neither 0 nor inf.
    """

    trace_items = 10  # one whole block: the README item and every stratum
    grid_points = 16

    def __init__(self):
        self._roots = {}

    def run(self, vd, item):
        f = vd.RationalFunction(vd.Polynomial(item.coeffs), vd.Polynomial(item.den))
        grid = vd.log_rgrid(1.0, 1e4, self.grid_points)
        targets = list(item.targets)
        profiles = vd.build_profile(f, targets, grid)
        fft = vd.verify_first_fundamental(f, targets[-1], grid)
        smt = vd.verify_second_fundamental(f, targets, grid)
        return profiles, fft, smt

    def _oracle(self, item):
        if item.index not in self._roots:
            self._roots[item.index] = oracle.rational_targets(item.coeffs, item.den, item.targets)
        return self._roots[item.index]

    def check(self, item, out):
        profiles, fft, smt = out
        roots = self._oracle(item)
        for a, prof in zip(item.targets, profiles):
            for row in prof.rows:
                n, N = roots[a].n(row.r), roots[a].N(row.r)
                if row.n != n:
                    return f"target {a}: n({row.r:.6g}) = {row.n}, oracle {n}", True
                if abs(row.N - N) > N_TOL * max(1.0, abs(N)):
                    return f"target {a}: N({row.r:.6g}) = {row.N:.12g}, oracle {N:.12g}", True
        for rep in (fft, smt):
            if not rep.verdict:
                return f"{rep.theorem} verdict fail (tail drift {rep.tail_drift:.3g})", False
        return None

    def props(self, item):
        roots = self._oracle(item).values()
        return any(r.on_split_line() for r in roots), any(r.has_multiple() for r in roots)


class Growth:
    """verify_degree_growth per polynomial; never localizes a root."""

    trace_items = 220
    grid_points = 32  # the CLI default

    def run(self, vd, item):
        grid = vd.log_rgrid(1.0, 1e4, self.grid_points)
        return vd.verify_degree_growth(vd.Polynomial(item.coeffs), grid)

    def check(self, item, out):
        degree = len(item.coeffs) - 1
        if round(out.slope) != degree:
            return f"slope {out.slope:.6g} for degree {degree}", True
        return None

    def props(self, item):
        return None


class Roots:
    """localize_roots on the Cauchy box, then fta_witness, per polynomial."""

    trace_items = 12

    def __init__(self):
        self._roots = {}

    def run(self, vd, item):
        p = vd.Polynomial(item.coeffs)
        c = p.coefficients
        radius = 1.0 + max(abs(x) for x in c[:-1]) / abs(c[-1])
        encs = vd.localize_roots(p, vd.Box(0j, radius, radius), ROOTS_TOL)
        witness = vd.fta_witness(p, ROOTS_TOL)
        return encs, witness

    def _oracle(self, item):
        if item.index not in self._roots:
            if item.roots:
                r = oracle.Roots.given(item.roots)
            elif item.family == "complex":
                r = oracle.Roots.of_complex(item.coeffs)
            else:
                r = oracle.Roots.of_integer(item.coeffs)
            self._roots[item.index] = r
        return self._roots[item.index]

    def check(self, item, out):
        encs, witness = out
        problem = oracle.enclosures_hold(
            self._oracle(item), [(e.center, e.radius, e.multiplicity) for e in encs]
        )
        if problem:
            return problem, True
        scale = max(abs(complex(c)) for c in item.coeffs)
        res = oracle.residual(item.coeffs, witness.witness)
        if res > ROOTS_TOL * scale:
            return f"witness residual {res:.3g} exceeds {ROOTS_TOL:g} x scale {scale:.3g}", True
        return None

    def props(self, item):
        r = self._oracle(item)
        return r.on_split_line(), r.has_multiple()


# roots is runnable by hand but not listed in BENCHMARK.json: see README.md
WORKLOADS = {"distribution": Distribution, "growth": Growth, "roots": Roots}


# -- measurement -----------------------------------------------------------------


@dataclass
class Attempt:
    item: corpus.Item
    seconds: float
    kernel_s: float  # host speed that applied (see hostspeed.py)
    out: object
    err: str | None

    @property
    def ref_seconds(self) -> float:
        return to_reference(self.seconds, self.kernel_s)


def _attempt(vd, workload, item, clock):
    kernel_s = clock.tick()
    t0 = time.perf_counter()
    try:
        out, err = workload.run(vd, item), None
    except vd.ValdistError as exc:
        out, err = None, type(exc).__name__
    return Attempt(item, time.perf_counter() - t0, kernel_s, out, err)


def _judge(workload, attempts):
    """Oracle pass, outside any timed region.

    Returns (ok count, failed items, wrong answers). A named ValdistError
    or a failing verdict fails the item; a certified answer
    that contradicts the oracle is also a wrong answer, which makes the run
    incorrect.
    """
    ok, failed, wrong = 0, [], []
    for a in attempts:
        err = a.err
        if err is None and (verdict := workload.check(a.item, a.out)) is not None:
            err, is_wrong = verdict
            if is_wrong:
                wrong.append((a.item, err))
        if err is None:
            ok += 1
        else:
            failed.append((a.item, err))
    return ok, failed, wrong


def _interpreter_seconds(code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _setup_seconds():
    """Fresh interpreters importing valdist: (reference s, wall s), medians.

    Each valdist import is paired with a fresh ``import numpy`` just before
    it, and scaled by that pair's numpy time (see hostspeed.py). One pair
    runs first untimed, so bytecode compilation and a cold file cache are
    not counted.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import valdist"
    ref, wall = [], []
    for k in range(SETUP_REPEATS + 1):
        numpy_s = _interpreter_seconds("import numpy")
        valdist_s = _interpreter_seconds(code)
        if k:
            wall.append(valdist_s)
            ref.append(valdist_s * REF_NUMPY_IMPORT_S / numpy_s)
    return statistics.median(ref), statistics.median(wall)


def _tail(latencies):
    """Highest order statistic with at least ten samples beyond it: (value, percentile)."""
    lat = sorted(latencies)
    i = len(lat) - 11 if len(lat) > 10 else len(lat) - 1
    return lat[i], 100.0 * (i + 1) / len(lat)


def _report_inputs(workload, attempts):
    props = [workload.props(a.item) for a in attempts]
    if props[0] is None:
        print("  inputs: root positions not computed (the workload localizes no roots)")
        return
    n = len(props)
    line = sum(p[0] for p in props)
    mult = sum(p[1] for p in props)
    print(
        f"  inputs: {line}/{n} ({100.0 * line / n:.0f}%) with a root on a first split line,"
        f" {mult}/{n} ({100.0 * mult / n:.0f}%) with a multiple root"
    )


def _report_failures(failed, wrong):
    wrong_ids = {item.index for item, _ in wrong}
    for item, err in failed:
        tag = "WRONG" if item.index in wrong_ids else "failed"
        print(f"  {tag} #{item.index} {item.describe()}: {err}")


def measure(vd, name, workload, stream, args):
    clock = HostClock()
    setup_ref, setup_wall = _setup_seconds()
    attempts = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        attempts.append(_attempt(vd, workload, next(stream), clock))
    ok, failed, wrong = _judge(workload, attempts)
    n = len(attempts)
    ref = [a.ref_seconds for a in attempts]
    wall = [a.seconds for a in attempts]
    tail, tail_pct = _tail(ref)
    metrics = {
        "items_per_s": (ok / sum(ref), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(ref), "ms"),
        "item_ms_tail": (1e3 * tail, "ms"),
        "setup_s": (setup_ref, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "items_per_s": ok / sum(wall),
        "item_ms_p50": 1e3 * statistics.median(wall),
        "item_ms_tail": 1e3 * _tail(wall)[0],
        "setup_s": setup_wall,
    }
    print(f"workload {name}: {n} items in {sum(wall):.2f} s of wall time, {ok} correct")
    print(f"  {'metric':13s} {'reference':>12s} {'wall':>12s}")
    for key, (value, unit) in metrics.items():
        wall_value = f"{raw[key]:12.6g}" if key in raw else " " * 12
        print(f"  {key:13s} {value:12.6g} {wall_value} {unit}")
    print(f"  {'fail_frac':13s} {len(failed) / n:12.6g} {'':12s} fraction ({len(failed)} of {n})")
    print(f"  {'attempted/s':13s} {n / sum(ref):12.6g} {n / sum(wall):12.6g} 1/s")
    print(f"  item_ms_tail is p{tail_pct:.1f} of {n} items, {n - round(tail_pct * n / 100)} beyond it")
    print(f"  setup_s is the median of {SETUP_REPEATS} fresh imports, each scaled by import numpy")
    ks = sorted(clock.samples)
    print(
        f"  host kernel: {len(ks)} samples, median {1e3 * statistics.median(ks):.3f} ms,"
        f" range {1e3 * ks[0]:.3f}-{1e3 * ks[-1]:.3f} ms (reference {1e3 * REF_KERNEL_S:g} ms)"
    )
    _report_inputs(workload, attempts)
    _report_failures(failed, wrong)
    return attempts, failed, wrong, metrics


PER_LAYER_SPANS = {
    "localize.localize_roots": ("calls", "self_s", "failed"),
    "localize.fta_witness": ("calls", "self_s", "failed"),
    "algebra.eval_exact": ("calls", "self_s"),
    "algebra.eval_many": ("calls", "self_s"),
    "algebra.reduce": ("calls", "self_s"),
    "nevanlinna.proximity_m": ("calls", "self_s"),
    "nevanlinna.build_profile": ("self_s",),
    "verify.verify_first_fundamental": ("calls", "self_s"),
    "verify.verify_second_fundamental": ("calls", "self_s"),
    "verify.verify_degree_growth": ("calls", "self_s"),
}
PER_LAYER_COUNTS = (
    "localize.nodes",
    "localize.passes_over_16k",
    "localize.exact_calls",
    "algebra.eval_many.nodes",
    "quadrature.evals",
    "nevanlinna.enumerations",
)


def trace(vd, name, workload, stream, args):
    items = list(islice(stream, workload.trace_items))
    clock = HostClock()
    _attempt(vd, workload, items[0], clock)  # warm caches and lazy imports
    tracer = Tracer()

    def traced_attempt(item):
        tracer.item_id = item.index
        tracer.install(vd)
        try:
            return _attempt(vd, workload, item, clock)
        finally:
            tracer.uninstall()

    # Each item runs untraced and traced back to back, so both see the same
    # host speed; which runs first alternates, so neither always finds the
    # other's freed 2^20-node arrays ready for reuse.
    attempts = []
    untraced = 0.0
    for k, item in enumerate(items):
        if k % 2:
            attempts.append(traced_attempt(item))
        untraced += _attempt(vd, workload, item, clock).ref_seconds
        if not k % 2:
            attempts.append(traced_attempt(item))
    traced = sum(a.ref_seconds for a in attempts)

    table = tracer.span_table()
    metrics = {}
    for span, fields in PER_LAYER_SPANS.items():
        calls, self_s, failed = table[span]
        values = {"calls": (calls, "count"), "self_s": (self_s, "s"), "failed": (failed, "count")}
        for field in fields:
            metrics[f"{span}.{field}"] = values[field]
    calls, self_s, failed = table["quadrature.adaptive_simpson"]
    metrics["quadrature.calls"] = (calls, "count")
    metrics["quadrature.self_s"] = (self_s, "s")
    metrics["quadrature.failed"] = (failed, "count")
    for key in PER_LAYER_COUNTS:
        metrics[key] = (tracer.counts[key], "count")
    metrics["trace.overhead"] = (traced / untraced, "ratio")

    ok, failed, wrong = _judge(workload, attempts)
    print(f"workload {name} traced: {len(items)} items, {ok} correct, {len(tracer.start)} spans")
    print(f"  untraced {untraced:.3f} s, traced {traced:.3f} s (reference seconds)")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:42s} {value:14.6g} {unit}")
    _report_inputs(workload, attempts)
    _report_failures(failed, wrong)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{name}-seed{args.seed}.npz")
    return attempts, failed, wrong, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vd = _import_program()
    workload = WORKLOADS[args.workload]()
    stream = corpus.STREAMS[args.workload](args.seed)
    run = trace if args.trace else measure
    attempts, failed, wrong, metrics = run(vd, args.workload, workload, stream, args)
    result = {
        "correct": not wrong,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {
            k: {"value": v if isinstance(v, int) else float(v), "unit": u}
            for k, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
