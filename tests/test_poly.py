"""Exact polynomial algebra, slices, and one-variable root tools."""

from __future__ import annotations

import json
import math
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from besovball.poly import (
    FACTORIAL_RATIO_CACHE,
    SparsePoly,
    dense_coeffs,
    factorial_ratio,
    is_outer_1d,
    multi_factorial,
    onevar_terms,
    poly_from_literal,
    poly_to_literal,
    roots_1d,
    series_invert,
)
from besovball.scalars import ComplexRational

try:
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def _p(dim, terms):
    return SparsePoly(dim, terms)


def test_factorial_ratio_anchors():
    assert factorial_ratio((1, 1)) == Fraction(1, 2)
    assert factorial_ratio((0, 0, 0)) == 1
    assert factorial_ratio((2, 0)) == 1
    assert factorial_ratio((3, 2)) == Fraction(6 * 2, math.factorial(5))
    assert multi_factorial((3, 2, 1)) == 12


def test_factorial_ratio_cache_is_bounded_and_exact():
    assert factorial_ratio.cache_info().maxsize == FACTORIAL_RATIO_CACHE
    # more exponents than the cache keeps: it evicts, and every value stays
    # the exact ratio
    for k in range(FACTORIAL_RATIO_CACHE + 8):
        beta = (k % 32, k // 32 % 32, k // 1024)
        assert factorial_ratio(beta) == Fraction(multi_factorial(beta), math.factorial(sum(beta)))
    assert factorial_ratio.cache_info().currsize <= FACTORIAL_RATIO_CACHE


def test_ring_op_anchors():
    one_minus = _p(1, {(0,): 1, (1,): -1})
    one_plus = _p(1, {(0,): 1, (1,): 1})
    assert one_minus * one_plus == _p(1, {(0,): 1, (2,): -1})
    assert one_minus**0 == SparsePoly.one(1)
    f = _p(2, {(0, 0): 1, (1, 1): -2})
    assert f**2 == _p(2, {(0, 0): 1, (1, 1): -4, (2, 2): 4})


def test_zero_coefficients_dropped():
    f = _p(1, {(0,): 1, (1,): -1}) + _p(1, {(1,): 1})
    assert f == SparsePoly.one(1)
    assert (1,) not in f.terms
    g = _p(1, {(0,): 1}) - SparsePoly.one(1)
    assert g.is_zero()
    assert g.degree() == -1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        _p(1, {(0,): 1}) + _p(2, {(0, 0): 1})
    with pytest.raises(ValueError):
        _p(2, {(0,): 1})


def test_radial_derivative():
    f = _p(2, {(1, 2): 1})
    assert f.radial_derivative() == _p(2, {(1, 2): 3})
    assert SparsePoly.one(2).radial_derivative().is_zero()
    g = _p(2, {(0, 0): 1, (1, 1): -2})
    assert g.radial_derivative(2) == _p(2, {(1, 1): -8})


def test_dilate():
    f = _p(2, {(0, 0): 1, (1, 0): -1})
    r = Fraction(1, 2)
    assert f.dilate(r) == _p(2, {(0, 0): 1, (1, 0): ComplexRational(Fraction(-1, 2))})
    assert f.dilate(1) == f
    g = _p(2, {(0, 0): 1, (1, 1): -2})
    assert g.dilate(r).coefficient((1, 1)) == ComplexRational(Fraction(-1, 2))
    assert g.dilate(r).is_exact()


def test_homogeneous_round_trip():
    f = _p(2, {(0, 0): 3, (1, 0): -1, (2, 1): 5, (0, 3): 2})
    parts = f.homogeneous_parts()
    total = SparsePoly.zero(2)
    for part in parts.values():
        total = total + part
    assert total == f
    assert set(parts) == {0, 1, 3}


def test_degree_additivity():
    f = _p(2, {(1, 0): 1, (0, 0): 2})
    g = _p(2, {(2, 3): -4, (0, 1): 1})
    assert (f * g).degree() == f.degree() + g.degree()


def test_slice_anchors():
    f = _p(2, {(0, 0): 1, (1, 1): -2})
    z = (1 / math.sqrt(2), 1 / math.sqrt(2))
    s = f.slice(z, 4)
    assert s.dim == 1
    assert abs(s.coefficient((0,)) - 1) < 1e-12
    assert abs(s.coefficient((1,))) < 1e-12
    assert abs(s.coefficient((2,)) + 1) < 1e-12  # -2 * (1/sqrt2)^2 = -1
    one = SparsePoly.one(2).slice(z, 2)
    assert one.terms == {(0,): 1}
    g = _p(2, {(0, 0): 1, (1, 0): -1})
    sg = g.slice((1.0, 0.0), 3)
    assert abs(sg.coefficient((0,)) - 1) < 1e-15 and abs(sg.coefficient((1,)) + 1) < 1e-15
    # degrees above the truncation are dropped; the truncation degree is kept
    assert f.slice(z, 1).terms == {(0,): 1}
    assert f.slice(z, 2) == s


def test_slice_rejects_off_sphere():
    f = SparsePoly.one(2)
    with pytest.raises(ValueError):
        f.slice((0.5, 0.5), 2)


def test_slice_commutes_with_dilation():
    f = _p(2, {(0, 0): 1, (1, 1): -2, (2, 0): 3})
    z = (0.6, 0.8)
    r = 0.5
    left = f.dilate(r).slice(z, 4)
    right = f.slice(z, 4).dilate(r)
    for n in range(5):
        assert abs(complex(left.coefficient((n,))) - complex(right.coefficient((n,)))) < 1e-12


def test_series_invert_identities():
    one_minus = _p(1, {(0,): 1, (1,): -1})
    inv = series_invert(one_minus, 3)
    assert inv == _p(1, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})
    assert series_invert(_p(1, {(0,): 2}), 4) == _p(1, {(0,): ComplexRational(Fraction(1, 2))})
    r = Fraction(3, 7)
    f = _p(1, {(0,): 1, (1,): ComplexRational(-r)})
    assert (series_invert(f, 2) * f).truncate(2) == SparsePoly.one(1)


def test_series_invert_rejects_zero_constant():
    with pytest.raises(ValueError):
        series_invert(_p(1, {(1,): 1}), 3)


def test_series_invert_exact_rationals():
    f = _p(2, {(0, 0): 2, (1, 0): 1, (0, 1): ComplexRational(Fraction(1, 3))})
    inv = series_invert(f, 5)
    assert inv.is_exact()
    assert (inv * f).truncate(5) == SparsePoly.one(2)


def _neumann_oracle(f, max_degree):
    """(1/c0) sum_j u^j with u = 1 - f/c0, one truncated power u^j at a time."""
    c0 = f.constant_term()
    inv_c0 = 1 / c0
    one = SparsePoly.one(f.dim)
    u = (one - f * inv_c0).truncate(max_degree)
    acc = dict(one.terms)
    upow = one
    for _ in range(max_degree):
        upow = (upow * u).truncate(max_degree)
        if upow.is_zero():
            break
        for b, c in upow.terms.items():
            acc[b] = acc.get(b, 0) + c
    return (SparsePoly(f.dim, acc) * inv_c0).truncate(max_degree)


def _bits(f):
    return {b: struct.pack("<dd", c.real, c.imag) for b, c in f.terms.items()}


def test_series_invert_of_the_sweep_input_is_the_neumann_sum_bit_for_bit():
    p = _p(3, {(0, 0, 0): 1, (1, 0, 0): -1})
    for r in (0.9, 0.99, 0.999):
        pr = p.dilate(r)
        assert _bits(series_invert(pr, 1024)) == _bits(_neumann_oracle(pr, 1024))


def test_onevar_terms_and_dense_coeffs():
    f = _p(1, {(3,): 2, (0,): 1, (1,): -0.5})
    assert onevar_terms(f) == [(0, 1), (1, -0.5), (3, 2)]
    arr = dense_coeffs(f)
    assert arr.dtype == complex and arr.tolist() == [1, -0.5, 0, 2]
    assert dense_coeffs(SparsePoly.zero(1)).tolist() == [0]
    for bad in (onevar_terms, dense_coeffs, roots_1d):
        with pytest.raises(ValueError):
            bad(_p(2, {(1, 0): 1}))


def test_roots_anchors():
    s = _p(1, {(0,): 1, (1,): -0.5})  # 1 - lambda/2, root at 2
    roots = roots_1d(s)
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 1 and abs(root - 2.0) < 1e-9
    assert is_outer_1d(s)
    assert roots_1d([1, -0.5]) == roots

    lam = _p(1, {(1,): 1})
    roots = roots_1d(lam)
    assert len(roots) == 1 and abs(roots[0][0]) < 1e-12
    assert not is_outer_1d(lam)
    assert not is_outer_1d([0, 1])

    both = _p(1, {(0,): 1, (2,): -1})  # roots at 1 and -1, on the boundary
    roots = sorted(roots_1d(both), key=lambda t: t[0].real)
    assert abs(roots[0][0] + 1) < 1e-9 and abs(roots[1][0] - 1) < 1e-9
    assert is_outer_1d(both)


def test_roots_multiplicity_clustering():
    # (1 - lambda)^3: the computed roots lie about 1e-5 apart, past the
    # distance that merges a double root, and come back as one triple root
    # at their mean, which is 1 to rounding; so (1 - lambda)^3 is outer
    for s in ([1, -3, 3, -1], [-1, 3, -3, 1], _p(1, {(0,): 1, (1,): -1}) ** 3):
        ((root, mult),) = roots_1d(s)
        assert mult == 3 and abs(root - 1) < 1e-12
        assert is_outer_1d(s)
    # (lambda - c)^k (lambda - 2)(lambda + 3): the k-fold root comes back
    # whole, between two simple ones
    c = 0.3 + 0.2j
    for k in range(2, 6):
        q = np.polynomial.polynomial.polyfromroots([c] * k + [2, -3])
        (low, one), (root, mult), (high, other) = roots_1d(q)
        assert (one, mult, other) == (1, k, 1)
        assert abs(low + 3) < 1e-9 and abs(root - c) < 1e-9 and abs(high - 2) < 1e-9
    # simple roots stay simple where the rounding tells them apart, each
    # computed to within 1e-6 of its size: 1e-3 apart about 1; 8e-7 apart,
    # where the computed roots are good to about 2e-10 and the one at
    # 0.9999996 lies inside the disc; three 1e-4 apart about 1.00005, good
    # to about 3e-7, the one at 0.99999 inside the disc; and +-1e10 i, whose
    # q = 1e20 + lambda^2 has coefficients far apart in size
    w = np.exp(2j * np.pi / 3)
    for near, outer in (([1, 1.001], True), ([0.9999996, 1.0000004], False),
                        ([1.00005 - 6e-5 * w ** j for j in range(3)], False), ([1e10j, -1e10j], True)):
        q = np.polynomial.polynomial.polyfromroots(near)
        roots = roots_1d(q)
        assert [m for _, m in roots] == [1] * len(near) and is_outer_1d(q) == outer
        assert all(min(abs(r - z) for z in near) < 1e-6 * abs(r) for r, _ in roots)


def test_roots_merge_a_double_root():
    # (1 - lambda)^2: the two computed roots lie within the rounding of a
    # double root and come back as one root of multiplicity 2
    for s in ([1, -2, 1], _p(1, {(0,): 1, (1,): -1}) ** 2):
        ((root, mult),) = roots_1d(s)
        assert mult == 2 and abs(root - 1) < 1e-12


def test_roots_refuse_a_companion_matrix_that_is_not_finite():
    # 1e300 + lambda + 1e-300 lambda^2: a_0 / a_2 = 1e600 overflows, and a
    # nan coefficient is no number; each is refused naming the input, and
    # is_outer_1d refuses it too
    for q in ([1e300, 1, 1e-300], [math.nan, 1], _p(1, {(0,): math.inf, (1,): 1})):
        with pytest.raises(ValueError, match=r"the roots of .* are past the float companion matrix") as info:
            roots_1d(q)
        assert repr(q) in str(info.value)
        with pytest.raises(ValueError, match="past the float companion matrix"):
            is_outer_1d(q)


def test_roots_refuse_a_root_that_fails_the_residual_check(monkeypatch):
    # a companion solve that puts every root 4 times as far out: two Newton
    # steps leave the roots of 1 - lambda^2 at 1.3 and the root -1e200 of
    # 1e-10 + lambda + 1e-200 lambda^2 at -1.46e200, so both fail the check
    # and are refused; a check against the coefficient norm times |root|^2
    # overflowed to inf at -4e200 and passed it
    polyroots = np.polynomial.polynomial.polyroots
    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", lambda c: polyroots(c) * 4)
    for q in ([1.0, 0.0, -1.0], [1e-10, 1, 1e-200]):
        with pytest.raises(ArithmeticError, match="fails the residual check"):
            roots_1d(q)
        assert not is_outer_1d(q)


def test_roots_polish_a_root_that_fails_the_residual_check(monkeypatch):
    # roots that pass the check are the solve's own; roots put 1e-3 off
    # come back within the check's tolerance after Newton steps
    polyroots = np.polynomial.polynomial.polyroots
    q = [2.0, -3.0, 1.0]
    assert [r for r, _ in roots_1d(q)] == sorted(polyroots(q).tolist(), key=lambda r: r.real)
    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", lambda c: polyroots(c) * (1 + 1e-3))
    roots = roots_1d(q)
    assert [m for _, m in roots] == [1, 1]
    assert all(abs(r - want) < 1e-9 * want for (r, _), want in zip(roots, (1, 2)))


@pytest.mark.parametrize("q, want", [
    ([1, 1, 1e-300], [(-1e300, 1), (-1, 1)]),
    ([1e-10, 1, 1e-200], [(-1e200, 1), (-1e-10, 1)]),
    ([1.0, 2e8, 1e-16], [(-2e24, 1), (-5e-9, 1)]),
    ([0, 0, 1e-10, 1, 1e-200], [(-1e200, 1), (-1e-10, 1), (0, 2)]),
    ([1, -1e200, 1], [(1e-200, 1), (1e200, 1)]),
])
def test_roots_whose_moduli_span_the_float_range(q, want):
    # the companion matrix of q holds a_k / a_n up to 1e300 and finds each
    # small root as 0 (1e-300 lambda^2 + lambda + 1 was refused, and
    # 1e-200 lambda^2 + lambda + 1e-10 read 0 as a root, checked against a
    # bound that overflowed to inf); split along the Newton polygon, each
    # root comes back to within rounding, with no float warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = roots_1d(q)
    assert [m for _, m in roots] == [m for _, m in want]
    assert all(abs(r - w) <= 4 * sys.float_info.epsilon * abs(w) for (r, _), (w, _) in zip(roots, want))
    assert is_outer_1d(q) == all(abs(w) >= 1 for w, _ in want)


def test_outer_constant_and_margin():
    assert is_outer_1d(_p(1, {(0,): 5}))
    assert is_outer_1d([5])
    inner_root = _p(1, {(0,): 0.5, (1,): -1})  # root at 0.5, inside
    assert not is_outer_1d(inner_root)
    assert not is_outer_1d([0.5, -1])


def test_literal_round_trip_exact():
    f = _p(2, {(0, 0): 1, (1, 1): ComplexRational(Fraction(-2, 3), Fraction(1, 7))})
    lit = poly_to_literal(f)
    assert lit["1,1"] == [-2, 3, 1, 7]
    g = poly_from_literal(json.loads(json.dumps(lit)))
    assert g == f and g.is_exact()


def test_literal_float_variant():
    lit = {"0,0": [1.0, 0.0], "1,0": [-math.sqrt(2), 0.0]}
    f = poly_from_literal(lit)
    assert not f.is_exact()
    back = poly_to_literal(f)
    g = poly_from_literal(back)
    assert abs(complex(g.coefficient((1, 0))) - complex(f.coefficient((1, 0)))) < 1e-15
    # a finite part keeps its bits, and a JSON integer reads as its float
    f = poly_from_literal(json.loads('{"0": [0.1, -2.5e-300], "1": [3, 1e308]}'))
    assert f.terms == {(0,): complex(0.1, -2.5e-300), (1,): complex(3.0, 1e308)}


if HAVE_HYPOTHESIS:
    coeff_st = st.builds(
        ComplexRational,
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
    )
    exponent_st = st.tuples(st.integers(0, 4), st.integers(0, 4))
    poly_st = st.builds(
        lambda terms: SparsePoly(2, terms),
        st.dictionaries(exponent_st, coeff_st, max_size=5),
    )

    @given(poly_st, poly_st, poly_st)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(f, g, h):
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f * SparsePoly.one(2) == f

    @given(poly_st)
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_parts_sum_back(f):
        total = SparsePoly.zero(2)
        for part in f.homogeneous_parts().values():
            total = total + part
        assert total == f

    @given(poly_st, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_radial_derivative_diagonal(f, order):
        rf = f.radial_derivative(order)
        for beta, c in f.terms.items():
            n = sum(beta)
            if order >= 1 and n == 0:
                assert rf.coefficient(beta) == 0
            else:
                assert rf.coefficient(beta) == c * (n**order)

    nonzero_coeff_st = coeff_st.filter(bool)

    @st.composite
    def exact_poly_with_constant(draw):
        d = draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 2)] * d)
        terms = draw(st.dictionaries(exps, coeff_st, max_size=4))
        terms[(0,) * d] = draw(nonzero_coeff_st)
        return SparsePoly(d, terms)

    @given(exact_poly_with_constant(), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_series_invert_equals_the_neumann_sum_exactly(f, max_degree):
        inv = series_invert(f, max_degree)
        assert inv == _neumann_oracle(f, max_degree)
        assert inv.is_exact()

    float_st = st.floats(-2, 2, allow_nan=False)

    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.tuples(*[st.integers(0, 3)] * d))),
           st.floats(0.25, 2), float_st, float_st, float_st, st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_series_invert_of_two_float_terms_is_the_neumann_sum_bit_for_bit(shape, a, b, x, y, max_degree):
        d, delta = shape
        assume(sum(delta) > 0)
        c0 = complex(a, b)
        assume(c0 * (1 / c0) == 1)
        f = SparsePoly(d, {(0,) * d: c0, delta: complex(x, y)})
        assert _bits(series_invert(f, max_degree)) == _bits(_neumann_oracle(f, max_degree))

    float_poly_st = st.builds(
        lambda terms: SparsePoly(2, terms),
        st.dictionaries(exponent_st, st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False), max_size=5),
    )

    @given(st.one_of(poly_st, float_poly_st), st.one_of(poly_st, float_poly_st), st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_ring_results_are_valid_polynomials(f, g, k):
        results = [f + g, f - g, -f, f * g, f.truncate(k), f.to_float(), *f.homogeneous_parts().values()]
        for p in results:
            assert SparsePoly(p.dim, p.terms) == p
            assert all(isinstance(c, (ComplexRational, complex)) and c for c in p.terms.values())
        assert f.to_float().terms == {b: complex(c) for b, c in f.terms.items()}


def test_literal_exact_parts_must_be_integers():
    # refused, not truncated to 1 and 3/2
    for val in ([1.5, 1, 0, 1], [3, 2.9, 0, 1], [1, 1, "2", 1]):
        with pytest.raises(ValueError, match=r"of the exact coefficient .* for 0 must be an integer, got"):
            poly_from_literal({"0": val})
    # a whole JSON float is an integer
    f = poly_from_literal(json.loads('{"0": [2.0, 1, 0, 1.0], "1": [-1, 3, 1, 2]}'))
    assert f == _p(1, {(0,): 2, (1,): ComplexRational(Fraction(-1, 3), Fraction(1, 2))}) and f.is_exact()
