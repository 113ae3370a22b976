from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valdist import (
    INFINITY,
    IdenticallyZeroDenominator,
    Polynomial,
    RationalFunction,
    format_complex,
    parse_complex_literal,
    poly_derivative,
    poly_eval,
    poly_shift,
    reduce_common_roots,
)
from valdist.algebra import _dyadic_to_float

from conftest import make_rng, random_polynomial


def assert_coeffs(p, expected, tol=1e-12):
    assert p.degree == len(expected) - 1
    scale = max(1.0, p.coefficient_scale)
    for got, want in zip(p.coefficients, expected):
        assert abs(got - want) <= tol * scale


# -- evaluation ---------------------------------------------------------------


def test_eval_root_by_construction():
    assert poly_eval(Polynomial([1, 0, 1]), 1j) == 0


def test_eval_coefficient_sum():
    p = Polynomial([2, -1, 0, 0, 0, 3])  # 3z^5 - z + 2
    assert poly_eval(p, 1.0) == 4


def test_eval_direct_arithmetic():
    p = Polynomial([2, -1, 0, 0, 0, 3])
    assert poly_eval(p, 2.0) == 96


def test_eval_many_matches_scalar():
    rng = make_rng(7)
    p = random_polynomial(rng, 9)
    z = rng.uniform(-3, 3, size=(20, 2)) @ np.array([1, 1j])
    vals = p.eval_many(z)
    for zi, vi in zip(z, vals):
        assert abs(vi - p(complex(zi))) <= 1e-10 * max(1.0, abs(vi))


def test_eval_many_does_not_depend_on_the_batch():
    # numpy multiplies one element in place on a scalar path; a point's
    # value must not change with the array it is evaluated in
    rng = make_rng(9)
    for _ in range(200):
        p = random_polynomial(rng, int(rng.integers(1, 10)))
        z = rng.uniform(-3, 3, size=(257, 2)) @ np.array([1, 1j])
        batch = p.eval_many(z)
        for i in (0, 1, 128, 256):
            alone = p.eval_many(z[i : i + 1])
            pair = p.eval_many(z[[i, (i + 1) % 257]])
            assert alone.tobytes() == pair[:1].tobytes() == batch[i : i + 1].tobytes()


def test_magnitude_bound_is_bound_many_to_the_bit():
    # the contour screen takes the scalar bound, the repair the vector one
    rng = make_rng(11)
    for _ in range(100):
        p = random_polynomial(rng, int(rng.integers(0, 13)))
        z_abs = 10.0 ** rng.uniform(-3.0, 4.0, 8)
        vector = p.bound_many(z_abs)
        for za, vb in zip(z_abs.tolist(), vector.tolist()):
            assert p.eval_magnitude_bound(za).hex() == vb.hex()
            assert p.eval_magnitude_bound(complex(0.0, za)).hex() == vb.hex()


def test_eval_exact_agrees_with_horner_when_well_conditioned():
    rng = make_rng(8)
    p = random_polynomial(rng, 7)
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        v = p(z)
        assert abs(p.eval_exact(z) - v) <= 1e-12 * max(1.0, abs(v))


def test_eval_exact_is_the_rounded_rational_horner():
    # the exact Horner values of p and p' as Fractions, rounded as
    # eval_exact rounds them; signed zeros, a subnormal and huge and tiny
    # parts included
    rng = make_rng(10)
    special = [0.0, -0.0, 5e-324, 1e-300, 1e300, -3.0, 0.1]
    polys = [random_polynomial(rng, d) for d in range(0, 10)]
    polys.append(Polynomial([complex(a, b) for a, b in zip(special, reversed(special))]))
    points = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(10)]
    points += [complex(a, b) for a in special for b in special[:4]]

    def rounded(x: Fraction) -> float:
        return _dyadic_to_float(x.numerator, x.denominator.bit_length() - 1)

    for p in polys:
        for z in points:
            if abs(z) > 1e200 and p.degree > 1:
                continue
            zr, zi = Fraction(z.real), Fraction(z.imag)
            ar, ai = Fraction(0), Fraction(0)
            dr, di = Fraction(0), Fraction(0)
            for i, c in reversed(list(enumerate(p.coefficients))):
                ar, ai = ar * zr - ai * zi + Fraction(c.real), ar * zi + ai * zr + Fraction(c.imag)
                if i:
                    dr, di = dr * zr - di * zi + i * Fraction(c.real), dr * zi + di * zr + i * Fraction(c.imag)
            v = p.eval_exact(z)
            assert (v.real, v.imag) == (rounded(ar), rounded(ai)), (p, z)
            # p'(z) from the exact coefficients i c_i, which p.derivative() may round
            d = p.eval_exact(z, derivative=True)
            assert (d.real, d.imag) == (rounded(dr), rounded(di)), (p, z)


# -- derivative ---------------------------------------------------------------


def test_derivative_cubic():
    assert poly_derivative(Polynomial([1, -3, 0, 1])) == Polynomial([-3, 0, 3])


def test_derivative_constant_is_zero():
    d = poly_derivative(Polynomial([7]))
    assert d.is_zero and d.degree == 0


def test_derivative_linear():
    assert poly_derivative(Polynomial([0, 1])) == Polynomial([1])


# -- shift --------------------------------------------------------------------


def test_shift_square_plus_one():
    assert_coeffs(poly_shift(Polynomial([1, 0, 1]), 1j), [0, 2j, 1], tol=0)


def test_shift_recenters_cube():
    assert_coeffs(poly_shift(Polynomial([1, 3, 3, 1]), -1.0), [0, 0, 0, 1], tol=0)


def test_shift_cubic_example():
    q = poly_shift(Polynomial([1, -3, 0, 1]), 1.0)
    assert_coeffs(q, [-1, 0, 3, 1], tol=0)
    # oracle: both sides agree at random points
    rng = make_rng(3)
    p = Polynomial([1, -3, 0, 1])
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert abs(q(z) - p(z + 1.0)) <= 1e-10 * max(1.0, abs(p(z + 1.0)))


def test_shift_preserves_degree_and_leading():
    rng = make_rng(4)
    p = random_polynomial(rng, 8)
    q = p.shift(2.5 - 0.5j)
    assert q.degree == p.degree
    assert q.leading == p.leading


def test_shift_linear_coefficient_is_derivative_value():
    rng = make_rng(5)
    p = random_polynomial(rng, 6)
    h = 0.7 - 0.2j
    q = p.shift(h)
    dval = p.derivative()(h)
    assert abs(q.coefficients[1] - dval) <= 1e-12 * max(1.0, abs(dval))


# -- normalization and validation ----------------------------------------------


def test_zero_polynomial_canonical_form():
    z = Polynomial([0, 0, 0])
    assert z.is_zero and z.degree == 0 and z.coefficients == (0j,)


def test_tiny_leading_coefficient_is_kept():
    # only exact zeros are dropped from the top; 1e-20 is the caller's
    p = Polynomial([1.0, 2.0, 1e-20])
    assert p.degree == 2 and p.coefficients == (1, 2, 1e-20)
    assert Polynomial([1.0, 2.0, 0.0, complex(-0.0, 0.0)]).coefficients == (1, 2)
    # leading coefficients 1e-16 and 2e-18 of the largest one
    assert Polynomial.from_roots(range(95, 103)).degree == 8
    assert Polynomial.from_roots([30] * 12).degree == 12


def test_interior_small_coefficients_survive():
    p = Polynomial([1.0, 1e-20, 1.0])
    assert p.degree == 2
    assert p.coefficients[1] == 1e-20


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        Polynomial([1.0, float("nan")])
    with pytest.raises(ValueError):
        Polynomial([complex(float("inf"), 0)])


def test_from_roots():
    p = Polynomial.from_roots([1, 2], leading=1.0)
    assert_coeffs(p, [2, -3, 1], tol=0)


# -- rational functions ---------------------------------------------------------


def test_reduce_cancels_shared_root():
    f = RationalFunction(Polynomial([2, -3, 1]), Polynomial([-1, 1]))
    g = reduce_common_roots(f)
    assert g.reduced
    assert_coeffs(g.numerator, [-2, 1])
    assert_coeffs(g.denominator, [1])


def test_reduce_disjoint_roots_untouched():
    f = RationalFunction(Polynomial([1, 0, 1]), Polynomial([-3, 1]))
    g = f.reduce()
    assert g.reduced
    assert g.numerator == f.numerator
    assert g.denominator == f.denominator


def test_reduce_returns_a_reduced_function_itself():
    f = RationalFunction(Polynomial([1, 0, 1]), Polynomial([-3, 1])).reduce()
    assert f.reduce() is f
    p = RationalFunction.from_polynomial(Polynomial([1, 1]))
    assert p.reduce() is p
    # the module function always recomputes
    g = reduce_common_roots(f)
    assert g is not f and g == f


def test_reduce_respects_multiplicity():
    f = RationalFunction(Polynomial.from_roots([1, 1]), Polynomial.from_roots([1]))
    g = f.reduce()
    assert g.denominator.degree == 0
    assert_coeffs(g.numerator, [-1, 1])


def test_reduce_keeps_an_exact_zero_constant():
    # -2(z + 3)(z + 4)(z - 1) over 3z(z + 2)(z + 3): the root -3 cancels,
    # and the denominator's root at 0 keeps its constant exactly zero
    f = RationalFunction(Polynomial([24, -10, -12, -2]), Polynomial([0, 18, 15, 3]))
    g = reduce_common_roots(f)
    assert g.denominator.degree == 2 and g.numerator.degree == 2
    assert g.denominator.coefficients[0] == 0


def test_reduce_cancels_common_powers_of_z_exactly():
    f = RationalFunction(Polynomial.from_roots([0, 0, 2]), Polynomial.from_roots([0, 3]))
    g = reduce_common_roots(f)
    assert g.numerator.coefficients == (0j, -2, 1)
    assert g.denominator.coefficients == (-3, 1)


def test_zero_denominator_rejected():
    with pytest.raises(IdenticallyZeroDenominator):
        RationalFunction(Polynomial([1]), Polynomial([0]))


def test_rational_is_constant():
    assert RationalFunction(Polynomial([2]), Polynomial([1])).is_constant
    assert RationalFunction(Polynomial([0, 2]), Polynomial([0, 1])).is_constant
    assert not RationalFunction(Polynomial([0, 1]), Polynomial([1])).is_constant


# -- JSON wire forms -------------------------------------------------------------


def test_polynomial_json_round_trip():
    p = Polynomial([1 + 2j, 0, -0.5])
    assert Polynomial.from_json(p.to_json()) == p


def test_rational_json_round_trip_and_default_denominator():
    f = RationalFunction(Polynomial([1, 1]), Polynomial([2, 0, 1]))
    g = RationalFunction.from_json(f.to_json())
    assert g.numerator == f.numerator and g.denominator == f.denominator
    h = RationalFunction.from_json({"numerator": [[3.0, 0.0]]})
    assert h.denominator == Polynomial([1.0])
    bare = RationalFunction.from_json([[0.0, 0.0], [1.0, 0.0]])
    assert bare.numerator == Polynomial([0, 1])


def test_bad_json_rejected():
    with pytest.raises(ValueError):
        Polynomial.from_json([[1.0]])
    with pytest.raises(ValueError):
        RationalFunction.from_json({"denominator": [[1.0, 0.0]]})


# -- complex literals -------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", 3 + 0j),
        ("-2.5", -2.5 + 0j),
        ("2i", 2j),
        ("-i", -1j),
        ("i", 1j),
        ("1+2i", 1 + 2j),
        ("1.5-2e-3i", 1.5 - 0.002j),
        (" 1 + 2 i ", 1 + 2j),
        ("1e2", 100 + 0j),
    ],
)
def test_parse_complex_literals(text, expected):
    t = parse_complex_literal(text)
    assert not t.is_infinite
    assert t.value == expected


def test_parse_infinity_and_errors():
    assert parse_complex_literal("inf") == INFINITY
    assert parse_complex_literal(" INF ") == INFINITY
    for bad in ("", "2+2", "abc", "1+i2"):
        with pytest.raises(ValueError):
            parse_complex_literal(bad)


def test_format_complex_round_trips():
    for z in (1 + 2j, -0.5j, 3.0 + 0j, -1 - 1j, 0j):
        assert parse_complex_literal(format_complex(z)).value == z


# -- hypothesis property checks ----------------------------------------------------

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
coeff = st.tuples(finite, finite).map(lambda t: complex(*t))


def _healthy_lead(coeffs):
    # keep the degree numerically meaningful under scale-inflating shifts
    coeffs = list(coeffs)
    if abs(coeffs[-1]) < 0.01:
        coeffs[-1] += 0.5
    return Polynomial(coeffs)


def polys(max_degree=12):
    return st.lists(coeff, min_size=1, max_size=max_degree + 1).map(_healthy_lead)


@settings(max_examples=60, deadline=None)
@given(polys(), st.tuples(finite, finite), st.tuples(finite, finite))
def test_shift_composition(p, h1t, h2t):
    h1, h2 = complex(*h1t), complex(*h2t)
    a = p.shift(h1).shift(h2)
    b = p.shift(h1 + h2)
    scale = max(1.0, a.coefficient_scale, b.coefficient_scale)
    assert a.degree == b.degree
    for ca, cb in zip(a.coefficients, b.coefficients):
        assert abs(ca - cb) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(polys(8), polys(8), st.tuples(finite, finite), st.tuples(finite, finite))
def test_derivative_linearity(p, q, at, bt):
    a, b = complex(*at), complex(*bt)
    lhs = (a * p + b * q).derivative()
    rhs = a * p.derivative() + b * q.derivative()
    n = max(lhs.degree, rhs.degree)
    scale = max(1.0, p.coefficient_scale, q.coefficient_scale) * 10
    for i in range(n + 1):
        ca = lhs.coefficients[i] if i <= lhs.degree else 0
        cb = rhs.coefficients[i] if i <= rhs.degree else 0
        assert abs(ca - cb) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    polys(),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
)
def test_eval_shift_consistency(p, zt, ht):
    z, h = complex(*zt), complex(*ht)
    lhs = poly_eval(poly_shift(p, h), z)
    rhs = poly_eval(p, z + h)
    bound = p.eval_magnitude_bound(abs(z) + abs(h))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, bound)
