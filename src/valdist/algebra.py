"""Complex polynomial and rational-function arithmetic.

Coefficients are plain double-precision complex numbers stored in
ascending powers; every tolerance in the package is relative to the
"coefficient scale" (largest coefficient modulus) of the polynomial at
hand.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    BinomialShape,
    DegreeTooSmall,
    IdenticallyZeroDenominator,
    LinearCoefficientNonzero,
)

# two points closer than this, relative to max(1, |z|), are one point: a
# numerator and a denominator root cancel, two a-points coalesce. Scaling
# the coefficients moves no root, so it changes no such decision
SAME_POINT_REL = 1e-8
# relative threshold below which a coefficient counts as vanished
SHAPE_TOL_REL = 1e-9


def _as_complex(value) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value {z!r}")
    return z


def _positive_finite(x: float, name: str) -> None:
    """Raise ``ValueError`` naming x unless it is a positive, finite real (nan is not positive)."""
    if not x > 0:
        raise ValueError(f"{name} must be positive")
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")


def _dyadic(x: float):
    """Exact representation x = n / 2^s with integer n and s >= 0."""
    n, d = float(x).as_integer_ratio()
    return n, d.bit_length() - 1


def _dyadic_to_float(n: int, s: int) -> float:
    if n == 0:
        return 0.0
    bits = n.bit_length()
    if bits > 64:  # keep ldexp's argument exactly convertible
        drop = bits - 64
        n >>= drop
        s -= drop
    try:
        return math.ldexp(float(n), -s)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


class Polynomial:
    """Dense complex polynomial; immutable after construction.

    The zero polynomial is canonically a single zero coefficient (degree 0,
    ``is_zero`` true), so degree arithmetic never sees minus infinity.
    """

    __slots__ = ("_coeffs", "_arr", "_exact")

    def __init__(self, coefficients):
        coeffs = [_as_complex(c) for c in coefficients]
        # only exact zeros are dropped: a tiny leading coefficient is the caller's
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs) if coeffs else (0j,)
        self._arr = None
        self._exact = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls([0j])

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1.0 + 0j])

    @classmethod
    def from_roots(cls, roots, leading=1.0) -> "Polynomial":
        """Polynomial with the given roots (repeats = multiplicity)."""
        acc = np.array([_as_complex(leading)], dtype=complex)
        for r in roots:
            acc = np.convolve(acc, np.array([-_as_complex(r), 1.0], dtype=complex))
        return cls(acc)

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        """Parse the wire form: list of [re, im] pairs, ascending powers."""
        if not isinstance(data, list):
            raise ValueError("polynomial JSON must be a list of [re, im] pairs")
        coeffs = []
        for item in data:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise ValueError(f"bad coefficient entry {item!r}")
            try:
                coeffs.append(complex(float(item[0]), float(item[1])))
            except TypeError:  # null, a list or an object where a number belongs
                raise ValueError(f"bad coefficient entry {item!r}") from None
        return cls(coeffs)

    def to_json(self):
        return [[c.real, c.imag] for c in self._coeffs]

    # -- basic queries ---------------------------------------------------------

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs == (0j,)

    @property
    def coefficient_scale(self) -> float:
        return max(abs(c) for c in self._coeffs)

    @property
    def leading(self) -> complex:
        return self._coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if c == 0:
                continue
            cs = format_complex(c)
            if i == 0:
                terms.append(cs)
                continue
            var = "z" if i == 1 else f"z^{i}"
            if cs == "1":
                terms.append(var)
            elif cs == "-1":
                terms.append(f"-{var}")
            elif cs.endswith("i") and ("+" in cs[1:] or "-" in cs[1:]):
                terms.append(f"({cs}){var}")
            else:
                terms.append(f"{cs}{var}")
        out = terms[0]
        for t in terms[1:]:
            out += "-" + t[1:] if t.startswith("-") else "+" + t
        return out

    # -- evaluation ------------------------------------------------------------

    def __call__(self, z: complex) -> complex:
        acc = self._coeffs[-1]
        for c in self._coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    def eval_many(self, z) -> np.ndarray:
        """Horner evaluation over an ndarray of points."""
        if self._arr is None:
            self._arr = np.asarray(self._coeffs, dtype=complex)
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, self._arr[-1], dtype=complex)
        # in place, except on one point: numpy multiplies a one-element
        # array in place on a scalar path whose last bit can differ from the
        # vector loop of every other product, so a point's value would
        # depend on the batch it came in
        out = acc if acc.size > 1 else None
        for c in self._arr[-2::-1]:
            acc = np.add(np.multiply(acc, z, out=out), c, out=out)
        return acc

    def eval_magnitude_bound(self, z: complex) -> float:
        """Sum of |c_i| |z|^i: the roundoff scale of evaluating at z.

        The same two roundings per step as :meth:`bound_many`, so the same bits.
        """
        z_abs = abs(z)
        acc = abs(self._coeffs[-1])
        for c in self._coeffs[-2::-1]:
            acc = acc * z_abs + abs(c)
        return acc

    def bound_many(self, z_abs) -> np.ndarray:
        """Vectorized sum of |c_i| |z|^i over an array of point moduli."""
        z_abs = np.asarray(z_abs, dtype=float)
        acc = np.full(z_abs.shape, abs(self._coeffs[-1]), dtype=float)
        for c in self._coeffs[-2::-1]:
            acc *= z_abs
            acc += abs(c)
        return acc

    def eval_exact(self, z: complex, derivative: bool = False) -> complex:
        """Evaluate in exact dyadic-integer arithmetic, rounding only at the end.

        Floats are exact rationals with power-of-two denominators, so Horner
        can run over integers without any rounding. This is what makes
        contour certification possible inside the roundoff halo of a
        multiple root, where plain Horner returns pure noise. With the
        coefficients c_i = C_i / 2^k and z = Z / 2^s, the j-th Horner step
        scaled by 2^(k + j s) is A*Z + (C << j*s). Each part of the exact
        value is rounded once: truncated to 64 bits, then to the nearest
        float.

        With ``derivative``, the value is p'(z), taken from the same
        integers, so the coefficients i c_i are not rounded as those of
        :meth:`derivative` may be: the j-th step of its Horner, scaled by
        2^(k + (j - 1) s), is D*Z + A, with A the value's step before it.
        """
        if self._exact is None:
            parts = [_dyadic(x) for c in self._coeffs for x in (c.real, c.imag)]
            k = max(s for _, s in parts)
            ints = [n << (k - s) for n, s in parts]
            self._exact = (k, list(zip(ints[-2::-2], ints[::-2])))
        k, coeffs = self._exact
        zr, zrs = _dyadic(z.real)
        zi, zis = _dyadic(z.imag)
        s = max(zrs, zis)
        zr <<= s - zrs
        zi <<= s - zis
        (ar, ai), t = coeffs[0], 0
        dr = di = 0
        for cr, ci in coeffs[1:]:
            t += s
            if derivative:
                dr, di = dr * zr - di * zi + ar, dr * zi + di * zr + ai
            ar, ai = ar * zr - ai * zi + (cr << t), ar * zi + ai * zr + (ci << t)
        if derivative:
            return complex(_dyadic_to_float(dr, k + t - s), _dyadic_to_float(di, k + t - s))
        return complex(_dyadic_to_float(ar, k + t), _dyadic_to_float(ai, k + t))

    # -- calculus and recentring -------------------------------------------------

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial.zero()
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def shift(self, h) -> "Polynomial":
        """Recentre: returns q with q(z) = self(z + h).

        Ruffini-Horner Taylor shift; degree and leading coefficient are
        preserved exactly.
        """
        h = _as_complex(h)
        c = list(self._coeffs)
        n = self.degree
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += h * c[j + 1]
        return Polynomial(c)

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            a = np.asarray(self._coeffs, dtype=complex)
            b = np.asarray(other._coeffs, dtype=complex)
            return Polynomial(np.convolve(a, b))
        return Polynomial([_as_complex(other) * c for c in self._coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)


# Public functional aliases of the Polynomial methods; no package code calls them.

def poly_eval(p: Polynomial, z: complex) -> complex:
    """Evaluate p at z by nested multiplication."""
    return p(z)


def poly_derivative(p: Polynomial) -> Polynomial:
    return p.derivative()


def poly_shift(p: Polynomial, h: complex) -> Polynomial:
    return p.shift(h)


# -- target values (finite complex or the point at infinity) ---------------------


@dataclass(frozen=True)
class TargetValue:
    """A value in the extended plane: a finite complex number or infinity."""

    value: complex | None = None  # None encodes the point at infinity

    @classmethod
    def finite(cls, z) -> "TargetValue":
        return cls(_as_complex(z))

    @classmethod
    def infinity(cls) -> "TargetValue":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def label(self) -> str:
        return "inf" if self.value is None else format_complex(self.value)


INFINITY = TargetValue.infinity()


def as_target(a) -> TargetValue:
    """Coerce complex-likes, 'inf', or TargetValue into a TargetValue."""
    if isinstance(a, TargetValue):
        return a
    if isinstance(a, str):
        return parse_complex_literal(a)
    if a is None or (isinstance(a, float) and math.isinf(a)):
        return INFINITY
    return TargetValue.finite(a)


# -- rational functions ------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two polynomials; `reduced` records that no common roots remain."""

    numerator: Polynomial
    denominator: Polynomial = Polynomial([1.0])
    reduced: bool = False

    def __post_init__(self):
        if self.denominator.is_zero:
            raise IdenticallyZeroDenominator("denominator is identically zero")

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "RationalFunction":
        return cls(p, Polynomial.one(), reduced=True)

    @classmethod
    def from_json(cls, data) -> "RationalFunction":
        """Wire form: {"numerator": [...], "denominator": [...]} or a bare list.

        A bare coefficient list is read as a polynomial over denominator 1.
        """
        if isinstance(data, list):
            return cls(Polynomial.from_json(data), Polynomial.one())
        if not isinstance(data, dict) or "numerator" not in data:
            raise ValueError("rational-function JSON needs a 'numerator' key")
        num = Polynomial.from_json(data["numerator"])
        den = Polynomial.from_json(data.get("denominator", [[1.0, 0.0]]))
        return cls(num, den)

    def to_json(self):
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
        }

    def __call__(self, z: complex) -> complex:
        return self.numerator(z) / self.denominator(z)

    def __str__(self):
        if self.denominator.degree == 0 and self.denominator.coefficients[0] == 1:
            return str(self.numerator)
        return f"({self.numerator})/({self.denominator})"

    @property
    def degree_max(self) -> int:
        return max(self.numerator.degree, self.denominator.degree)

    def reduce(self) -> "RationalFunction":
        """self if already reduced, else ``reduce_common_roots(self)``."""
        return self if self.reduced else reduce_common_roots(self)

    @property
    def is_constant(self) -> bool:
        f = self.reduce()
        return f.numerator.degree == 0 and f.denominator.degree == 0


# Results of pure per-polynomial computations (root hints, m(r, a) rows),
# keyed on the bytes of everything they read and never on ==: -0.0 == 0.0,
# but the sign of a zero reaches atan2 through the quadrature knots. The
# values are immutable and each call gets a fresh list, a call that raises
# stores nothing, and past _MEMO_ENTRIES the oldest entries go first.
_MEMO_ENTRIES = 256
_MEMO: dict = {}
_MEMO_LOCK = threading.Lock()


def _coefficient_bytes(p: Polynomial) -> bytes:
    return np.asarray(p.coefficients, dtype=complex).tobytes()


def _memo_rows(keys, compute) -> list:
    """One value per key: the memo's, else compute(missing positions)'s, in one call."""
    values = [_MEMO.get(key) for key in keys]
    missing = [i for i, v in enumerate(values) if v is None]
    if missing:
        fresh = compute(missing)
        with _MEMO_LOCK:  # insert and evict as one step when threads share the memo
            for i, v in zip(missing, fresh):
                values[i] = _MEMO[keys[i]] = v
            for key in list(islice(_MEMO, max(len(_MEMO) - _MEMO_ENTRIES, 0))):
                del _MEMO[key]
    return values


def _roots_hint(p: Polynomial) -> list:
    """Uncertified root estimates (companion-matrix eigenvalues, polished), memoized.

    Candidates are clustered first so multiple roots get the
    multiplicity-aware Newton step, which converges quadratically where
    the plain step stalls at the roundoff halo.
    """
    (hint,) = _memo_rows([("hint", _coefficient_bytes(p))], lambda _: [tuple(_solve_hint(p))])
    return list(hint)


def _solve_hint(p: Polynomial) -> list:
    if p.degree == 0:
        return []
    raw = sorted(
        (complex(z) for z in np.roots(np.asarray(p.coefficients[::-1], dtype=complex))),
        key=lambda z: (z.real, z.imag),
    )
    clusters: list[list[complex]] = []
    for z in raw:
        for members in clusters:
            if abs(z - members[0]) <= 1e-6 * max(1.0, abs(z)):
                members.append(z)
                break
        else:
            clusters.append([z])
    dp = p.derivative()
    out = []
    for members in clusters:
        m = len(members)
        z = sum(members) / m
        for _ in range(30):
            d = dp(z)
            if d == 0:
                break
            step = m * p(z) / d
            z -= step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                break
        out.extend([z] * m)
    return out


def _deflate(p: Polynomial, root: complex) -> Polynomial:
    """Synthetic division of p by (z - root); the remainder is discarded."""
    desc = list(p.coefficients[::-1])
    out = [desc[0]]
    for c in desc[1:-1]:
        out.append(c + root * out[-1])
    return Polynomial(out[::-1])


def _zero_order(p: Polynomial) -> int:
    """k, the number of exactly zero low coefficients of a nonzero p: p = z^k q with q(0) != 0.

    So k is the multiplicity of p's root at 0, exactly. -0.0 is a zero; a
    tiny or subnormal coefficient is not.
    """
    return next((i for i, c in enumerate(p.coefficients) if c != 0), 0)


def reduce_common_roots(f: RationalFunction) -> RationalFunction:
    """Cancel numerator/denominator roots that coincide within tolerance.

    The returned function agrees with ``f`` away from the cancelled points
    and carries ``reduced=True``. Coincidence is decided on root clusters:
    each numerator root is greedily matched to the nearest unused
    denominator root and the pair is cancelled when their distance is
    below SAME_POINT_REL times max(1, |numerator root|). A root at 0 is an
    exact zero low coefficient: the common powers of z cancel exactly,
    and only the other roots are matched, so a zero coefficient that
    remains stays exactly zero.
    """
    if f.denominator.is_zero:
        raise IdenticallyZeroDenominator("denominator is identically zero")
    num, den = f.numerator, f.denominator
    if num.is_zero:
        return RationalFunction(Polynomial.zero(), Polynomial.one(), reduced=True)
    if num.degree == 0 or den.degree == 0:
        return RationalFunction(num, den, reduced=True)
    kn, kd = _zero_order(num), _zero_order(den)
    k = min(kn, kd)
    low_num, low_den = num.coefficients[k:kn], den.coefficients[k:kd]
    # hints of num and den as given, which the m(r, a) series reuse from the
    # memo; their k hints of least modulus are a k-fold root at 0, exactly 0
    nroots, droots = (
        sorted(sorted(_roots_hint(p), key=abs)[kp:], key=lambda z: (z.real, z.imag))
        for p, kp in ((num, kn), (den, kd))
    )
    num, den = Polynomial(num.coefficients[kn:]), Polynomial(den.coefficients[kd:])
    used = [False] * len(droots)
    cancelled = []
    for zn in nroots:
        best, best_d = None, math.inf
        for i, zd in enumerate(droots):
            if used[i]:
                continue
            d = abs(zn - zd)
            if d < best_d:
                best, best_d = i, d
        if best is not None and best_d < SAME_POINT_REL * max(1.0, abs(zn)):
            used[best] = True
            cancelled.append(0.5 * (zn + droots[best]))
    for r in cancelled:
        num = _deflate(num, r)
        den = _deflate(den, r)
    # the powers of z that did not cancel go back
    num, den = Polynomial(low_num + num.coefficients), Polynomial(low_den + den.coefficients)
    return RationalFunction(num, den, reduced=True)


# -- the restricted shape of claim 1 ------------------------------------------------


@dataclass(frozen=True)
class Claim1Decomposition:
    """Shape data Q = z^l R(z) + b_m with m > 2, m > l >= 2, R(0) != 0."""

    m: int
    l: int
    b0: complex
    bm: complex
    R: Polynomial
    F: Polynomial


def claim1_shape_check(q: Polynomial) -> Claim1Decomposition:
    """Accept polynomials of shape b0 z^m + ... + b_{m-l} z^l + b_m.

    Requires a vanished coefficient of z (relative to the coefficient
    scale) and degree above two; the lowest surviving non-constant
    exponent becomes l. A polynomial with no middle terms at all raises
    BinomialShape: valid for closed-form rooting, outside this chain.
    """
    m = q.degree
    if m <= 2:
        raise DegreeTooSmall(f"degree {m} <= 2")
    c = q.coefficients
    tol = SHAPE_TOL_REL * q.coefficient_scale
    if abs(c[1]) > tol:
        raise LinearCoefficientNonzero(
            f"|coefficient of z| = {abs(c[1]):.3e} exceeds {tol:.3e}"
        )
    l = None
    for i in range(2, m):
        if abs(c[i]) > tol:
            l = i
            break
    if l is None:
        raise BinomialShape(m, c[m], c[0])
    return Claim1Decomposition(
        m=m,
        l=l,
        b0=c[m],
        bm=c[0],
        R=Polynomial(c[l:]),
        F=Polynomial([0j] * l + list(c[l:])),
    )


# -- complex literals ("a+bi", "bi", "a", "inf") ------------------------------------


def parse_complex_literal(text: str) -> TargetValue:
    """Parse 'a+bi' / 'a-bi' / 'a' / 'bi' / 'i' / 'inf' (whitespace ignored)."""
    s = "".join(text.split())
    if s.lower() in ("inf", "+inf", "infinity"):
        return INFINITY
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return TargetValue.finite(complex(float(s), 0.0))
    body = s[:-1]
    # the last sign that is not an exponent sign separates real and imaginary
    split = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split = k
            break
    re_s, im_s = ("", body) if split is None else (body[:split], body[split:])
    if im_s in ("", "+"):
        imag = 1.0
    elif im_s == "-":
        imag = -1.0
    else:
        imag = float(im_s)
    real = float(re_s) if re_s else 0.0
    return TargetValue.finite(complex(real, imag))


def format_complex(z: complex) -> str:
    """Canonical short form used in labels and file names."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.12g}"
    if z.real == 0.0:
        return f"{z.imag:.12g}i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"
