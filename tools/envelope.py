"""Usage: python tools/envelope.py <checkout>

Runs seeded hard families through valdist from <checkout>/src, in one
process, and checks every answer against the benchmark's oracle
(perfbench/oracle.py next to this tool, 50-digit mpmath). Families:

- wilkinson: (z - 1)(z - 2)...(z - d) for d = 10-16;
- seeded: 150 polynomials, 30 per degree 8-12, each with d integer roots
  drawn uniformly from [-12, 12] by ``random.Random(11)``;
- found witness: z^3 - 1e12 z^2 + 1, z^3 + 1e12 z^2 + 2 and
  z^3 + 1e9 z^2 + 2, witness inputs with a large coefficient scale;
- clusters: for each spacing 2^-e, e = 20-33, a pair and a triple of
  dyadic roots 2^-e apart beside Gaussian-integer roots, and roots of
  multiplicity 2-6 beside a simple one. The roots are dyadic with few
  bits, and a Gaussian-integer root that would make a coefficient
  inexact is left out, so the float coefficients are the exact ones and
  the given roots are exactly theirs. These are the inputs where a
  simple root's one-root bound must refuse and the contour decide;
- near 1e4: the far cluster (z - 9990)(z - (9995 + 3i))(z - 10003)
  (z - (10007 - 2i)) of a FOUND line, and five clusters of 3-4
  Gaussian-integer roots within 8 of a Gaussian integer of modulus about
  1e4, drawn by ``random.Random(19)`` (a draw whose coefficients are not
  exact floats is drawn again, so the given roots are exactly theirs);
- tiny a-points: z^k times 2-4 distinct nonzero integer roots from
  [-12, 12], two root sets per k = 1-4 drawn by ``random.Random(17)``,
  and the same polynomials with z^k moved to (z - t)^k for
  t = -1e-9, 1e-10, ..., 1e-16 (the sign alternates), their
  coefficients rounded to floats.

Each input of the first five families gets the calls of the benchmark's
``roots`` workload, made separately: localize_roots on the Cauchy box at
tol 1e-10, and fta_witness at tol 1e-10. The near 1e4 inputs also get
proximity_m(f, inf, r) at r = 1e4 and 5411.7, hashed and with their
errors named (no oracle checks them); at r = 1e4 the far cluster meets
the quadrature's cap on open intervals. Coefficients are exact
integers, so the oracle has the exact roots (the clusters' coefficients
are exact dyadic rationals or Gaussian integers, and their roots are
given). Prints one line
per family: its inputs, the named errors by call and class, the wrong
answers, the non-root witnesses and the sha256 of the outputs' reprs (an
error contributes its name and message). A wrong answer fails one of the
``roots`` workload's checks: enclosures that do not hold each root once
with its multiplicity, or a witness residual above 1e-10 x the largest
coefficient. A witness is a non-root when its nearest oracle root is
simple and more than 1e-8 max(1, |root|) away, a test that does not
scale with the coefficients.

Each tiny a-points input gets counting_N of its zeros at r = 1, 10 and
1e3, checked as the ``distribution`` workload checks N: a wrong answer
is one more than 1e-7 max(1, |N|) from the oracle's N, which takes the
float coefficients as the exact values they hold. Its line splits the
wrong answers between the inputs with an exact root at 0 and those with
the root moved off it. No timing: two checkouts that give the same
answers print the same lines.
"""

import argparse
import collections
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-10
NON_ROOT_REL = 1e-8
# counting_N's radii and allowance, that of perfbench/run.py's N check
TINY_RADII = (1.0, 10.0, 1e3)
N_TOL = 1e-7
# proximity_m's radii for the near 1e4 family: on and inside the cluster's circle
NEAR_RADII = (1e4, 5411.7)


def from_roots(roots) -> list:
    """Exact coefficients, ascending, of the monic polynomial with these integer or Gaussian-rational roots."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def exact_from_roots(pairs):
    """Float coefficients of the monic polynomial with these dyadic roots, or None if one is inexact."""
    import oracle

    exact = from_roots([oracle.GaussFraction(Fraction(r.real), Fraction(r.imag)) for r, m in pairs for _ in range(m)])
    coeffs = [complex(float(c.re), float(c.im)) for c in exact]
    same = all(Fraction(f.real) == c.re and Fraction(f.imag) == c.im for f, c in zip(coeffs, exact))
    return coeffs if same else None


def clusters(rng):
    """[(float coefficients, [(root, multiplicity)])]: dyadic pairs and triples, and multiple roots.

    A cluster's centre is a Gaussian integer over 2^k with k = 10 for a
    pair and max(3, e - 19) for a triple, so the cluster's own
    coefficients stay within 53 bits; Gaussian-integer roots beside it
    are dropped, last first, until every coefficient is exact.
    """
    out = []

    def add(pairs, rest):
        for k in range(len(rest), -1, -1):
            if (coeffs := exact_from_roots(pairs + rest[:k])) is not None:
                out.append((coeffs, pairs + rest[:k]))
                return
        raise ValueError(f"inexact coefficients for the roots {pairs}")

    def gauss(lo, hi):
        return complex(rng.randint(lo, hi), rng.choice([-1, 1]) * rng.randint(1, hi))

    for e in range(20, 34):
        step = 2.0**-e * rng.choice([1, 1j, -1, -1j])
        c = gauss(-7, 7) * 2.0**-10
        add([(c, 1), (c + step, 1)], [(gauss(-3, 3), 1), (gauss(-3, 3), 1)])
        c = gauss(-7, 7) * 2.0 ** -max(3, e - 19)
        add([(c, 1), (c + step, 1), (c + step * 1j, 1)], [(gauss(-3, 3), 1)])
    for m in range(2, 7):
        for r in (1.0, -0.5 + 0.5j, 1.5j):
            add([(r, m)], [(-1.0 + 0.25j, 1)])
    return out


def near_1e4(rng):
    """[(float coefficients, [(root, multiplicity)])]: the far cluster, then seeded Gaussian-integer clusters."""
    far = [(9990, 1), (9995 + 3j, 1), (10003, 1), (10007 - 2j, 1)]
    out = [(exact_from_roots(far), far)]
    while len(out) < 6:
        centre = complex(rng.randint(-10000, 10000), 0)
        centre += 1j * rng.choice([-1, 1]) * round((1e8 - centre.real**2) ** 0.5)
        roots = [centre + complex(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(rng.randint(3, 4))]
        pairs = list(collections.Counter(roots).items())
        if (coeffs := exact_from_roots(pairs)) is not None:
            out.append((coeffs, pairs))
    return out


def tiny_apoints(rng):
    """[(float coefficients, origin root t)]: z^k times integer roots (t = 0), then (z - t)^k times the same."""
    out = []
    for k in range(1, 5):
        for _ in range(2):
            roots = rng.sample([r for r in range(-12, 13) if r], rng.randint(2, 4))
            for t in [0, *(Fraction((-1) ** e, 10**e) for e in range(9, 17))]:
                out.append(([float(c) for c in from_roots([t] * k + roots)], t))
    return out


def call(run, name, errors, digest):
    """run(), its repr hashed; None, with its error hashed and counted under ``name``, if it raises."""
    import valdist as vd

    try:
        out = run()
    except vd.ValdistError as exc:
        errors[f"{name} {type(exc).__name__}"] += 1
        digest.update(f"{type(exc).__name__}: {exc}".encode())
        return None
    digest.update(repr(out).encode())
    return out


def tiny_apoints_line(inputs) -> str:
    """The tiny a-points family's line: counting_N of each input's zeros against the oracle's N."""
    import oracle
    import valdist as vd

    digest = hashlib.sha256()
    errors = collections.Counter()
    wrong = {True: 0, False: 0}  # keyed on: the root at 0 is exact
    for coeffs, t in inputs:
        roots = oracle.Roots.of_integer(coeffs)
        f = vd.RationalFunction.from_polynomial(vd.Polynomial(coeffs))
        for r in TINY_RADII:
            got = call(lambda: vd.counting_N(f, 0, r), "counting_N", errors, digest)
            want = roots.N(r)
            wrong[t == 0] += got is not None and abs(got - want) > N_TOL * max(1.0, abs(want))
    named = ", ".join(f"{key} {n}" for key, n in sorted(errors.items())) or "none"
    return (
        f"tiny a-points: inputs {len(inputs)}; errors {sum(errors.values())} ({named});"
        f" wrong {wrong[True] + wrong[False]} (exact origin {wrong[True]}, moved origin {wrong[False]});"
        f" sha256 {digest.hexdigest()}"
    )


def families():
    """Family name -> [(coefficients, [(root, multiplicity)] or None)]."""
    rng = random.Random(11)
    seeded = []
    for degree in range(8, 13):
        for _ in range(30):
            roots = [rng.randint(-12, 12) for _ in range(degree)]
            seeded.append((from_roots(roots), sorted(collections.Counter(roots).items())))
    return {
        "wilkinson": [(from_roots(range(1, d + 1)), [(k, 1) for k in range(1, d + 1)]) for d in range(10, 17)],
        "seeded": seeded,
        "found witness": [([1, 0, -(10**12), 1], None), ([2, 0, 10**12, 1], None), ([2, 0, 10**9, 1], None)],
        "clusters": clusters(random.Random(13)),
        "near 1e4": near_1e4(random.Random(19)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import mpmath
    import oracle
    import valdist as vd

    for name, inputs in families().items():
        digest = hashlib.sha256()
        errors = collections.Counter()
        wrong = non_roots = 0
        for coeffs, pairs in inputs:
            roots = oracle.Roots.given(pairs) if pairs else oracle.Roots.of_integer(coeffs)
            p = vd.Polynomial(coeffs)
            radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
            calls = {
                "localize_roots": lambda: vd.localize_roots(p, vd.Box(0j, radius, radius), TOL),
                "fta_witness": lambda: vd.fta_witness(p, TOL),
            }
            if name == "near 1e4":
                f = vd.RationalFunction.from_polynomial(p)
                for r in NEAR_RADII:
                    calls[f"proximity_m {r:g}"] = lambda r=r: vd.proximity_m(f, "inf", r)
            out = {key: call(run, key, errors, digest) for key, run in calls.items()}
            if out["localize_roots"] is not None:
                encs = [(e.center, e.radius, e.multiplicity) for e in out["localize_roots"]]
                wrong += oracle.enclosures_hold(roots, encs) is not None
            if out["fta_witness"] is not None:
                w = out["fta_witness"].witness
                wrong += oracle.residual(coeffs, w) > TOL * max(abs(c) for c in coeffs)
                with mpmath.workdps(oracle.DPS):
                    z, m = min(roots.pairs, key=lambda pair: abs(pair[0] - mpmath.mpc(w.real, w.imag)))
                    non_roots += m == 1 and abs(z - mpmath.mpc(w.real, w.imag)) > NON_ROOT_REL * max(1, abs(z))
        named = ", ".join(f"{key} {n}" for key, n in sorted(errors.items())) or "none"
        print(
            f"{name}: inputs {len(inputs)}; errors {sum(errors.values())} ({named}); wrong {wrong};"
            f" non-root witnesses {non_roots}; sha256 {digest.hexdigest()}"
        )
    print(tiny_apoints_line(tiny_apoints(random.Random(17))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
