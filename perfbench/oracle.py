"""Independent answers for the benchmark's correctness check.

Integer polynomials, and the a-point polynomials of integer functions at
Gaussian-integer targets, are reduced exactly (gcd over Q or Q(i), Yun's
squarefree decomposition), so multiplicities and numerator/denominator
cancellations are exact; only the simple roots of each squarefree factor
are then found numerically, by mpmath at 50 digits. Complex float
coefficients are taken as the exact binary values they hold. Nothing
here imports valdist.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

DPS = 50
# a root with |Im| or |Re| below this (relative) lies on a first split line
_ON_LINE_REL = mpmath.mpf(10) ** -30


# -- exact polynomial arithmetic, ascending coefficients over Q or Q(i) ----------


class GaussFraction:
    """re + im*i with Fraction parts: exact arithmetic in Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(c) -> "GaussFraction":
        return c if isinstance(c, GaussFraction) else GaussFraction(c)

    def __add__(self, o):
        o = GaussFraction.of(o)
        return GaussFraction(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussFraction(-self.re, -self.im)

    def __sub__(self, o):
        return self + -GaussFraction.of(o)

    def __rsub__(self, o):
        return GaussFraction.of(o) - self

    def __mul__(self, o):
        o = GaussFraction.of(o)
        return GaussFraction(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GaussFraction.of(o)
        d = o.re * o.re + o.im * o.im
        return GaussFraction(
            (self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d
        )

    def __rtruediv__(self, o):
        return GaussFraction.of(o) / self

    def __eq__(self, o):
        o = GaussFraction.of(o)
        return self.re == o.re and self.im == o.im


def _exact(c):
    """Fraction for a real number, GaussFraction for a Gaussian rational."""
    if isinstance(c, complex):
        if c.imag == 0:
            return Fraction(c.real)
        return GaussFraction(Fraction(c.real), Fraction(c.imag))
    return c if isinstance(c, (Fraction, GaussFraction)) else Fraction(c)


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
    a = [_exact(c) for c in a]
    if len(a) < len(b):
        return [Fraction(0)], _trim(a)
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        factor = a[shift + len(b) - 1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
    return _trim(q), _trim(a[: len(b) - 1] or [0])


def _monic(p):
    return [_exact(c) / p[-1] for c in p]


def _gcd(a, b):
    a, b = _trim(a), _trim(b)
    while not (len(b) == 1 and b[0] == 0):
        a, b = b, _divmod(a, b)[1]
    return _monic(a)


def _derivative(p):
    return _trim([i * c for i, c in enumerate(p)][1:] or [0])


def _squarefree(p):
    """Yun's algorithm: [(factor, multiplicity)], each factor squarefree."""
    out = []
    dp = _derivative(p)
    g = _gcd(p, dp)
    b = _divmod(p, g)[0]
    c = _divmod(dp, g)[0]
    d = [x - y for x, y in _zip_pad(c, _derivative(b))]
    i = 1
    while len(b) > 1:
        a = _gcd(b, _trim(d))
        if len(a) > 1:
            out.append((a, i))
        b = _divmod(b, a)[0]
        c = _divmod(_trim(d), a)[0]
        d = [x - y for x, y in _zip_pad(c, _derivative(b))]
        i += 1
    return out


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b)))


def _mp_roots(coeffs):
    """Simple roots of a polynomial, ascending coefficients, at DPS digits."""
    if len(coeffs) == 2:
        return [-_mp(coeffs[0]) / _mp(coeffs[1])]
    with mpmath.workdps(DPS):
        return list(
            mpmath.polyroots([_mp(c) for c in reversed(coeffs)], maxsteps=400, extraprec=2 * DPS)
        )


def _mp(c):
    if isinstance(c, Fraction):
        return mpmath.mpf(c.numerator) / c.denominator
    if isinstance(c, GaussFraction):
        return mpmath.mpc(_mp(c.re), _mp(c.im))
    if isinstance(c, complex):
        return mpmath.mpc(c.real, c.imag)
    return mpmath.mpf(c)


class Roots:
    """Roots of one polynomial with multiplicity, plus the input properties."""

    def __init__(self, pairs):
        self.pairs = pairs  # [(mp root, multiplicity)]

    @classmethod
    def of_integer(cls, coeffs):
        """Roots of exact coefficients: integers, Fractions or GaussFractions."""
        p = _trim([_exact(c) for c in coeffs])
        if len(p) == 1:
            return cls([])
        with mpmath.workdps(DPS):
            pairs = [
                (mpmath.mpc(z), m)
                for factor, m in _squarefree(p)
                for z in _mp_roots(factor)
            ]
        return cls(pairs)

    @classmethod
    def of_complex(cls, coeffs):
        """Roots of float coefficients; random complex input has simple roots."""
        with mpmath.workdps(DPS):
            return cls([(mpmath.mpc(z), 1) for z in _mp_roots(list(coeffs))])

    @classmethod
    def given(cls, pairs):
        return cls([(mpmath.mpc(r), m) for r, m in pairs])

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.pairs)

    def on_split_line(self) -> bool:
        """A root on the line Im z = 0 or Re z = 0, where the first split falls."""
        return any(
            abs(z.imag) <= _ON_LINE_REL * abs(z) or abs(z.real) <= _ON_LINE_REL * abs(z)
            for z, _ in self.pairs
        )

    def has_multiple(self) -> bool:
        return any(m > 1 for _, m in self.pairs)

    def n(self, r: float) -> int:
        return sum(m for z, m in self.pairs if abs(z) < r)

    def N(self, r: float) -> float:
        """Integrated counting function: sum m log(r/|z|) plus n(0) log r."""
        total = 0.0
        for z, m in self.pairs:
            mod = float(abs(z))
            if mod == 0.0:
                total += m * math.log(r)
            elif mod < r:
                total += m * math.log(r / mod)
        return total


def rational_targets(num, den, targets):
    """Exact a-point roots of num/den for each target (poles for 'inf').

    A finite target is an integer or a Gaussian integer (complex with
    integral parts), so num - a*den stays exact.
    """
    num = _trim([Fraction(c) for c in num])
    den = _trim([Fraction(c) for c in den])
    g = _gcd(num, den)
    num, den = _divmod(num, g)[0], _divmod(den, g)[0]
    out = {}
    for t in targets:
        if t == "inf":
            out[t] = Roots.of_integer(den)
        else:
            a = _exact(t)
            out[t] = Roots.of_integer([x - a * y for x, y in _zip_pad(num, den)])
    return out


def residual(coeffs, w: complex) -> float:
    """|p(w)| at DPS digits, coefficients and witness taken exactly."""
    with mpmath.workdps(DPS):
        acc = mpmath.mpc(0)
        z = mpmath.mpc(w.real, w.imag)
        for c in reversed(coeffs):
            acc = acc * z + _mp(complex(c))
        return float(abs(acc))


def enclosures_hold(roots: Roots, enclosures) -> str | None:
    """None if every root lies in exactly one enclosure and the counts match."""
    if sum(m for _, _, m in enclosures) != roots.degree:
        return f"multiplicities sum to {sum(m for _, _, m in enclosures)}, degree {roots.degree}"
    inside = [0] * len(enclosures)
    with mpmath.workdps(DPS):
        for z, m in roots.pairs:
            hits = [
                k
                for k, (c, rad, _) in enumerate(enclosures)
                if abs(z - mpmath.mpc(c.real, c.imag)) <= rad
            ]
            if len(hits) != 1:
                return f"root {mpmath.nstr(z, 12)} lies in {len(hits)} enclosures"
            inside[hits[0]] += m
    for (c, rad, m), got in zip(enclosures, inside):
        if got != m:
            return f"enclosure at {c:.6g} has multiplicity {m}, holds {got} roots"
    return None
