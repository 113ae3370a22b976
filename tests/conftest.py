import numpy as np
import pytest

from valdist import Polynomial, RationalFunction, algebra


@pytest.fixture(autouse=True)
def _empty_memo():
    """Start each test with an empty memo, so that no test reads results another one stored."""
    algebra._MEMO.clear()


def make_rng(seed):
    return np.random.default_rng(seed)


def random_polynomial(rng, degree, lead_floor=0.1):
    """Unit-box coefficients; the leading one is bounded away from zero so
    the degree is numerically well-defined."""
    while True:
        pairs = rng.uniform(-1.0, 1.0, size=(degree + 1, 2))
        coeffs = [complex(re, im) for re, im in pairs]
        if abs(coeffs[-1]) >= lead_floor:
            return Polynomial(coeffs)


def random_rational(rng, num_degree, den_degree):
    """Reduced random rational with den(0) != 0 (so f(0) is finite)."""
    num = random_polynomial(rng, num_degree)
    while True:
        den = random_polynomial(rng, den_degree)
        if abs(den.coefficients[0]) >= 0.3:
            break
    return RationalFunction(num, den).reduce()


def random_factored(rng, total_degree, max_mult=3, radius=2.0, min_sep=0.35):
    """Polynomial built as prod (z - r_i)^{m_i}; returns (poly, [(root, mult)])."""
    roots, mults = [], []
    left = total_degree
    while left > 0:
        m = int(rng.integers(1, min(max_mult, left) + 1))
        z = None
        for _ in range(200):
            cand = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            if all(abs(cand - w) > min_sep for w in roots):
                z = cand
                break
        if z is None:
            break
        roots.append(z)
        mults.append(m)
        left -= m
    lead = complex(rng.uniform(0.3, 1.0), rng.uniform(-1.0, 1.0))
    expanded = [z for z, m in zip(roots, mults) for _ in range(m)]
    return Polynomial.from_roots(expanded, leading=lead), list(zip(roots, mults))
