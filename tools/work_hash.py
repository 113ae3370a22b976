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
answered without one, such as that of c z^k, shows in the count. The
counts come from wrapping those four functions from outside, so the
program is run unchanged. Two checkouts that do the same work print the
same six lines.
"""

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

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

    work = {"passes": 0, "nodes": 0, "calls": 0, "rows": 0, "exact": 0, "descents": 0}
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

    digest = hashlib.sha256()
    failed = []
    for seed in args.seeds:
        for item in itertools.islice(corpus.distribution(seed), args.items):
            f = vd.RationalFunction(vd.Polynomial(item.coeffs), vd.Polynomial(item.den))
            grid = vd.log_rgrid(1.0, 1e4, args.points)
            targets = list(item.targets)
            try:
                out = (
                    vd.build_profile(f, targets, grid),
                    vd.verify_first_fundamental(f, targets[-1], grid),
                    vd.verify_second_fundamental(f, targets, grid),
                )
            except vd.ValdistError as exc:
                out = f"{type(exc).__name__}: {exc}"
                failed.append(f"seed {seed} item {item.index}: {out}")
            digest.update(repr(out).encode())
    print(f"sha256 {digest.hexdigest()}")
    print(f"failed {len(failed)}")
    for line in failed:
        print(f"  {line}")
    print(f"passes {work['passes']} nodes {work['nodes']}")
    print(f"quadrature calls {work['calls']} rows {work['rows']}")
    print(f"exact calls {work['exact']}")
    print(f"descents {work['descents']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
