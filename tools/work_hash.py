"""Usage: python tools/work_hash.py <checkout> [--items 60] [--seeds 1 2 3] [--points 16]

Runs the first ``--items`` items of the benchmark's ``distribution``
stream (perfbench/corpus.py next to this tool) for each seed, in one
process, on valdist from <checkout>/src: build_profile, then
verify_first_fundamental and verify_second_fundamental on a grid of
``--points`` radii, as perfbench/run.py does. Prints the sha256 of the
results' reprs (an item that raises contributes its error's name and
message), the failed items, the contour passes and nodes of the run, its
quadrature calls and rows, its exact evaluations and its descents. A pass
is one call of ``localize._ContourCounter._fresh``; its nodes are the
contour points it evaluates, counted once however many polynomials are
evaluated at them. A quadrature call is one call of
``nevanlinna.integrate_rows``; its rows are the radii it integrates. An
exact evaluation is one call of ``algebra.Polynomial.eval_exact``. A
descent is one call of ``localize.localize_roots``, so a root search
answered without one, such as that of c z^k, shows in the count. Those
are the first six lines. Two more give the run's integrand calls and
nodes, and its ``eval_many`` nodes: an integrand call is one call of
``nevanlinna._log_plus`` that is not a retry (``tries == 0``), its nodes
are the angles it gets, and the ``eval_many`` nodes are the points of
every call of ``algebra.Polynomial.eval_many``.

Then it runs the first ``--items`` items of the ``growth`` stream for
each seed: verify_degree_growth on the workload's 32-radius grid. Its
lines, each starting with "growth", give the sha256 of the fits' reprs,
the failed items, and the same quadrature, integrand and ``eval_many``
counts for these items alone. The counts come from wrapping those
functions from outside, so the program is run unchanged. Two checkouts
that do the same work print the same lines.
"""

import argparse
import hashlib
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--items", type=int, default=60)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--points", type=int, default=16)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    import valdist as vd
    from valdist import localize, nevanlinna

    work = Counter()
    fresh = localize._ContourCounter._fresh

    def counted(self, regions, rules):
        unit = localize._template(isinstance(regions[0], localize.Disk), rules)[0]
        edges = 1 if isinstance(regions[0], localize.Disk) else 4
        work["passes"] += 1
        work["nodes"] += len(regions) * edges * unit.size
        return fresh(self, regions, rules)

    localize._ContourCounter._fresh = counted
    integrate = nevanlinna.integrate_rows

    def counted_rows(fn, a, b, *, abs_tol, knots):
        work["calls"] += 1
        work["rows"] += len(knots)
        return integrate(fn, a, b, abs_tol=abs_tol, knots=knots)

    nevanlinna.integrate_rows = counted_rows
    eval_exact = vd.Polynomial.eval_exact

    def counted_exact(self, *args, **kwargs):
        work["exact"] += 1
        return eval_exact(self, *args, **kwargs)

    vd.Polynomial.eval_exact = counted_exact
    localize_roots = localize.localize_roots

    def counted_descent(*args, **kwargs):
        work["descents"] += 1
        return localize_roots(*args, **kwargs)

    localize.localize_roots = counted_descent
    log_plus = nevanlinna._log_plus

    def counted_integrand(gn, gd, r, theta, tries=0):
        if tries == 0:
            work["integrand"] += 1
            work["integrand_nodes"] += np.size(theta)
        return log_plus(gn, gd, r, theta, tries)

    nevanlinna._log_plus = counted_integrand
    eval_many = vd.Polynomial.eval_many

    def counted_eval_many(self, z):
        work["eval_many_nodes"] += np.size(z)
        return eval_many(self, z)

    vd.Polynomial.eval_many = counted_eval_many

    def run(items, calls):
        """sha256 of the items' outputs and the failed items, from a fresh count of the work."""
        work.clear()
        digest = hashlib.sha256()
        failed = []
        for seed in args.seeds:
            for item in itertools.islice(items(seed), args.items):
                try:
                    out = calls(item)
                except vd.ValdistError as exc:
                    out = f"{type(exc).__name__}: {exc}"
                    failed.append(f"seed {seed} item {item.index}: {out}")
                digest.update(repr(out).encode())
        return digest.hexdigest(), failed

    def distribution(item):
        f = vd.RationalFunction(vd.Polynomial(item.coeffs), vd.Polynomial(item.den))
        grid = vd.log_rgrid(1.0, 1e4, args.points)
        targets = list(item.targets)
        return (
            vd.build_profile(f, targets, grid),
            vd.verify_first_fundamental(f, targets[-1], grid),
            vd.verify_second_fundamental(f, targets, grid),
        )

    def growth(item):
        # the growth workload's grid: 32 radii, the CLI default
        return vd.verify_degree_growth(vd.Polynomial(item.coeffs), vd.log_rgrid(1.0, 1e4, 32))

    def print_run(prefix, sha, failed):
        print(f"{prefix}sha256 {sha}")
        print(f"{prefix}failed {len(failed)}")
        for line in failed:
            print(f"  {line}")

    print_run("", *run(corpus.distribution, distribution))
    print(f"passes {work['passes']} nodes {work['nodes']}")
    print(f"quadrature calls {work['calls']} rows {work['rows']}")
    print(f"exact calls {work['exact']}")
    print(f"descents {work['descents']}")
    print(f"integrand calls {work['integrand']} nodes {work['integrand_nodes']}")
    print(f"eval_many nodes {work['eval_many_nodes']}")

    print_run("growth ", *run(corpus.growth, growth))
    print(f"growth quadrature calls {work['calls']} rows {work['rows']}")
    print(f"growth integrand calls {work['integrand']} nodes {work['integrand_nodes']}")
    print(f"growth eval_many nodes {work['eval_many_nodes']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
