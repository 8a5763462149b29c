"""Exact Gaussian rationals against a (Fraction, Fraction) oracle."""

from __future__ import annotations

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest

from besovball.scalars import ComplexRational, check_int, exact_parts, from_parts

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


# -- the oracle: a pair (re, im) of Fractions ----------------------------------


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / den, (x[1] * y[0] - x[0] * y[1]) / den


ORACLE = {operator.add: _add, operator.sub: _sub, operator.mul: _mul, operator.truediv: _div}


def _pair(x):
    """(re, im) of a ComplexRational, checked to be Fractions."""
    assert type(x) is ComplexRational
    assert type(x.re) is Fraction and type(x.im) is Fraction
    return x.re, x.im


def _fields(x):
    return x._a, x._b, x._d


def _in_normal_form(x):
    a, b, d = _fields(x)
    return all(type(v) is int for v in (a, b, d)) and d > 0 and math.gcd(a, b, d) == 1


def test_zero_and_one_normal_forms():
    assert _fields(ComplexRational()) == (0, 0, 1)
    assert _fields(ComplexRational(Fraction(0, 7), 0)) == (0, 0, 1)
    x = ComplexRational(Fraction(2, 3), Fraction(-5, 7))
    assert _fields(x - x) == _fields(x * 0) == _fields(0 * x) == (0, 0, 1)
    assert _fields(x / x) == _fields(x ** 0) == (1, 0, 1)
    assert _fields(ComplexRational(Fraction(2, 4), Fraction(4, 8))) == (1, 1, 2)
    assert _fields(ComplexRational(True, False)) == (1, 0, 1)


def test_division_by_zero_raises():
    x = ComplexRational(1, 1)
    for zero in (0, Fraction(0), ComplexRational(), ComplexRational(Fraction(0, 3), 0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / ComplexRational()
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / ComplexRational()


def test_bad_exponents_raise():
    x = ComplexRational(1, 1)
    for n in (-1, 0.5, Fraction(1, 2)):
        with pytest.raises(ValueError):
            x ** n


def test_floats_are_refused_but_arithmetic_degrades_to_complex():
    for bad in (0.5, 1j, complex(1, 0), float("nan"), "1"):
        with pytest.raises(TypeError):
            ComplexRational(bad)
        with pytest.raises(TypeError):
            ComplexRational.coerce(bad)
    x = ComplexRational(Fraction(1, 3), Fraction(-2, 7))
    for other in (0.5, -3.25, 1.5 - 2j, 2j):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for out, want in ((op(x, other), op(complex(x), other)), (op(other, x), op(other, complex(x)))):
                assert type(out) is complex and out == want
    assert complex(x) == complex(float(Fraction(1, 3)), float(Fraction(-2, 7)))
    # a float never equals an exact scalar, not even the same value
    assert (ComplexRational(1) == 1.0) is False and (ComplexRational(1) != 1.0) is True
    assert (ComplexRational(1) == 1 + 0j) is False


def test_immutable():
    x = ComplexRational(Fraction(1, 2), 3)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert _fields(x) == (1, 6, 2)


def test_huge_parts_convert_as_fractions_do():
    big = Fraction(3 ** 900 + 1, 7 ** 400)
    x = ComplexRational(big, -1 / big)
    assert complex(x) == complex(float(big), float(-1 / big))
    assert repr(x) == f"ComplexRational({big}, {-1 / big})"


def test_pickle_and_deepcopy_round_trip():
    values = [ComplexRational(), ComplexRational(3), ComplexRational(Fraction(-2, 9), Fraction(5, 4)),
              ComplexRational(Fraction(3 ** 200, 2 ** 300), 1)]
    for x in values:
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is ComplexRational and y == x and _fields(y) == _fields(x) and hash(y) == hash(x)
    assert pickle.loads(pickle.dumps(values)) == values


if HAVE_HYPOTHESIS:
    _fracs = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6)
    _big = st.builds(Fraction, st.integers(-10 ** 60, 10 ** 60), st.integers(1, 10 ** 60))
    _parts = st.one_of(_fracs, _big, st.integers(-5, 5).map(Fraction))
    _pairs = st.tuples(_parts, _parts)
    _exact = st.one_of(st.integers(-10 ** 30, 10 ** 30), _fracs)  # real exact operands

    @given(_pairs, _pairs)
    @settings(max_examples=300, deadline=None)
    def test_ring_operations_match_the_oracle(x, y):
        cx, cy = ComplexRational(*x), ComplexRational(*y)
        for op, oracle in ORACLE.items():
            if op is operator.truediv and y == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    op(cx, cy)
                continue
            out = op(cx, cy)
            assert _pair(out) == oracle(x, y)
            assert _in_normal_form(out)

    @given(_pairs, _exact)
    @settings(max_examples=200, deadline=None)
    def test_mixed_exact_operands_match_the_oracle(x, r):
        cx, pr = ComplexRational(*x), (Fraction(r), Fraction(0))
        for op, oracle in ORACLE.items():
            if op is operator.truediv and r == 0:
                with pytest.raises(ZeroDivisionError):
                    cx / r
            else:
                assert _pair(op(cx, r)) == oracle(x, pr)
            if op is operator.truediv and x == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    r / cx
            else:
                assert _pair(op(r, cx)) == oracle(pr, x)

    @given(_pairs, st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_unary_operations_and_powers_match_the_oracle(x, n):
        cx = ComplexRational(*x)
        assert _pair(-cx) == (-x[0], -x[1])
        assert +cx is cx
        assert _pair(cx.conjugate()) == (x[0], -x[1])
        assert type(cx.abs2()) is Fraction and cx.abs2() == x[0] ** 2 + x[1] ** 2
        want = (Fraction(1), Fraction(0))
        for _ in range(n):
            want = _mul(want, x)
        assert _pair(cx ** n) == want and _in_normal_form(cx ** n)
        assert bool(cx) == (x != (0, 0)) and cx.is_real == (x[1] == 0)

    @given(_pairs, st.integers(1, 10 ** 9), _parts.filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_equal_values_have_equal_fields_and_hashes(x, k, u):
        cx = ComplexRational(*x)
        assert _in_normal_form(cx)
        cu = ComplexRational(u, u)
        ways = [
            ComplexRational(x[0]) + ComplexRational(0, x[1]),
            ComplexRational(Fraction(x[0] * k), Fraction(x[1] * k)) / k,
            cx * cu / cu,
            (cx - cu) + cu,
            ComplexRational.coerce(cx),
        ]
        for y in ways:
            assert y == cx and _fields(y) == _fields(cx) and hash(y) == hash(cx)

    @given(_exact)
    @settings(max_examples=200, deadline=None)
    def test_real_values_equal_and_hash_like_int_and_fraction(r):
        cr = ComplexRational(r)
        assert cr == r and r == cr and hash(cr) == hash(r)
        assert cr == Fraction(r) and hash(cr) == hash(Fraction(r))
        assert cr == ComplexRational.coerce(r) and _fields(cr) == _fields(ComplexRational.coerce(r))
        assert {cr: 1}[r] == 1 and {r: 1}[cr] == 1
        assert ComplexRational(r, 1) != r and ComplexRational(r, 1) != Fraction(r)
        assert repr(cr) == f"ComplexRational({Fraction(r)})"

    @given(_pairs)
    @settings(max_examples=100, deadline=None)
    def test_parts_are_fractions_and_repr_is_unchanged(x):
        cx = ComplexRational(*x)
        assert _pair(cx) == x
        if x[1] == 0:
            assert repr(cx) == f"ComplexRational({x[0]})" and hash(cx) == hash(x[0])
        else:
            assert repr(cx) == f"ComplexRational({x[0]}, {x[1]})" and hash(cx) == hash(x)


def test_check_int_refuses_bools():
    check_int("n", 0, 0)
    for value in (True, False):
        with pytest.raises(ValueError, match=f"n must be an integer >= 0, got {value}"):
            check_int("n", value, 0)


def test_from_parts_inverts_exact_parts():
    x = ComplexRational(Fraction(-3, 4), Fraction(5, 6))
    assert exact_parts(x) == (-9, 10, 12) and from_parts(*exact_parts(x)) == x
    assert exact_parts(Fraction(2, 4)) == (1, 0, 2) and exact_parts(0.5) is None
    y = from_parts(6, -4, 8)
    assert (y.re, y.im) == (Fraction(3, 4), Fraction(-1, 2)) and exact_parts(y) == (3, -2, 4)
