"""Exact Gaussian-rational scalars, and the integer checks of arguments.

Coefficient arithmetic throughout the package runs on one of two paths:

* exact: ``ComplexRational``, a Gaussian rational; every ring operation and
  every norm computed from such coefficients is exact,
* float: ordinary ``complex`` numbers.

``ComplexRational`` holds ``(a + b*i) / d`` as three Python integers with
``d > 0`` and ``gcd(a, b, d) = 1``, so equal values have equal fields and
each operation is a few integer products and one three-way ``math.gcd``.
Its parts ``re`` and ``im`` read as ``fractions.Fraction``:

>>> x = ComplexRational(Fraction(1, 2), Fraction(1, 3))
>>> x
ComplexRational(1/2, 1/3)
>>> x.re, x.im
(Fraction(1, 2), Fraction(1, 3))
>>> x * x.conjugate() == x.abs2() == Fraction(13, 36)
True
>>> (x / x, (x - x).is_real, x ** 2)
(ComplexRational(1), True, ComplexRational(5/36, 1/3))

The normal form: zero is ``0 / 1``, and a common factor of the three
integers is divided out.

>>> y = ComplexRational(Fraction(2, 4), Fraction(4, 8))
>>> y._a, y._b, y._d
(1, 1, 2)
>>> z = y - y
>>> z._a, z._b, z._d
(0, 0, 1)

A real value equals, and hashes like, the same int or ``Fraction``:

>>> ComplexRational(3) == 3, hash(ComplexRational(Fraction(1, 3))) == hash(Fraction(1, 3))
(True, True)

The constructor and ``coerce`` refuse floats, but arithmetic degrades to
``complex`` against a float or complex operand; ``complex(x)`` is the
float value of an exact x.

>>> ComplexRational(1) * 0.5
(0.5+0j)
>>> ComplexRational(1, 2) + 1j
(1+3j)
>>> ComplexRational(0.5)
Traceback (most recent call last):
    ...
TypeError: not an exact rational: 0.5

The module also holds the input checks that the parsers and constructors
share: ``check_int`` refuses anything but an int past a least value, naming
the argument, ``json_int`` reads a whole JSON float such as 2.0 as an int
and leaves 2.5 for that check to refuse, and ``json_object`` refuses
anything but a JSON object, naming it, also when a key it needs is missing.

>>> json_int(2.0), json_int(2.5)
(2, 2.5)
>>> check_int("n", json_int(2.5), 0)
Traceback (most recent call last):
    ...
ValueError: n must be an integer >= 0, got 2.5
>>> json_object('{"d": 1}', "a space")["kind"]
Traceback (most recent call last):
    ...
ValueError: a space has no 'kind' key
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isfinite
from numbers import Rational, Real


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):  # int, bool, numpy integers, other rationals
        return Fraction(int(x.numerator), int(x.denominator))
    raise TypeError(f"not an exact rational: {x!r}")


def exact_parts(x):
    """(a, b, d) of an exact scalar x = (a + b*i) / d in normal form, or None
    when x is not exact (a float, a complex or anything else).  Integer code
    such as the exact LDL* of ``approx`` works on these parts and rebuilds
    its results with ``from_parts``."""
    t = type(x)
    if t is ComplexRational:
        return x._a, x._b, x._d
    if t is int:
        return x, 0, 1
    if t is Fraction:
        return x.numerator, 0, x.denominator
    if isinstance(x, Rational):
        x = _as_fraction(x)
        return x.numerator, 0, x.denominator
    return None


class ComplexRational:
    """A Gaussian rational (a + b*i) / d: integers a, b, d with d > 0 and
    gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        return from_parts(re.numerator * im.denominator, im.numerator * re.denominator, re.denominator * im.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("ComplexRational is immutable")

    def __reduce__(self):
        return ComplexRational, (self.re, self.im)

    @staticmethod
    def coerce(x):
        """Coerce an int/Fraction/ComplexRational; reject floats."""
        if isinstance(x, ComplexRational):
            return x
        if type(x) is int:
            return _raw(x, 0, 1)
        x = _as_fraction(x)
        return _raw(x.numerator, 0, x.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # Binary ops stay exact against exact operands and degrade to complex
    # against float/complex ones, so mixed-path expressions do the obvious
    # thing while is_exact() still reports the truth.

    def __add__(self, other):
        o = exact_parts(other)
        if o is None:
            return complex(self) + other
        return _sum(self._a, self._b, self._d, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = exact_parts(other)
        if o is None:
            return complex(self) - other
        a, b, d = o
        return _sum(self._a, self._b, self._d, -a, -b, d)

    def __rsub__(self, other):
        o = exact_parts(other)
        if o is None:
            return other - complex(self)
        return _sum(*o, -self._a, -self._b, self._d)

    def __mul__(self, other):
        o = exact_parts(other)
        if o is None:
            return complex(self) * other
        a, b, d = self._a, self._b, self._d
        c, e, f = o
        if e == 0:  # a real factor: weights, pivots, integers
            return _scale(a, b, d, c, f)
        return from_parts(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = exact_parts(other)
        if o is None:
            return complex(self) / other
        return _quotient(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = exact_parts(other)
        if o is None:
            return other / complex(self)
        return _quotient(*o, self._a, self._b, self._d)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int")
        out = ComplexRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def conjugate(self):
        return _raw(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|x|^2, exact."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def __eq__(self, other):
        o = exact_parts(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d) == o

    def __hash__(self):
        if self._b == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def __repr__(self):
        if self._b == 0:
            return f"ComplexRational({self.re})"
        return f"ComplexRational({self.re}, {self.im})"


_set_a, _set_b, _set_d = ComplexRational._a.__set__, ComplexRational._b.__set__, ComplexRational._d.__set__
_new = object.__new__


def _raw(a, b, d):
    """The ComplexRational with fields (a, b, d), already in normal form."""
    x = _new(ComplexRational)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def from_parts(a, b, d):
    """The ComplexRational (a + b*i) / d of integers a, b and d > 0, with
    the common factor divided out: the inverse of ``exact_parts``."""
    g = gcd(d, a, b)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


def _scale(a, b, d, c, f):
    """(a + b*i)/d * c/f for normal forms with f > 0.  No prime of d divides
    both a and b, and none of f divides c, so only gcd(c, d) and gcd(f, a, b)
    can divide out, and they are taken on the factors, before multiplying."""
    g = gcd(c, d)
    if g != 1:
        c, d = c // g, d // g
    g = gcd(f, a, b)
    if g != 1:
        a, b, f = a // g, b // g, f // g
    return _raw(a * c, b * c, d * f)


def _sum(a, b, d, c, e, f):
    """(a + b*i)/d + (c + e*i)/f, both in normal form, over the lcm of the
    denominators.  With d = s*g and f = t*g, g = gcd(d, f), the numerator
    shares no prime with s or t (a prime of s divides d but not t, and not
    both of a, b), so only gcd(numerator, g) can divide out."""
    g = gcd(d, f)
    if g == 1:
        return _raw(a * f + c * d, b * f + e * d, d * f)
    s, t = d // g, f // g
    a, b = a * t + c * s, b * t + e * s
    h = gcd(g, a, b)
    if h != 1:
        a, b, f = a // h, b // h, f // h
    return _raw(a, b, s * f)


def _quotient(a, b, d, c, e, f):
    """((a + b*i)/d) / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))."""
    if e == 0:
        if c == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return _scale(a, b, d, f, c) if c > 0 else _scale(a, b, d, -f, -c)
    return from_parts((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, ComplexRational))


def abs_sq(x):
    """|x|^2; exact (Fraction) on the exact path, float otherwise."""
    if isinstance(x, ComplexRational):
        return x.abs2()
    if isinstance(x, (int, Fraction)):
        return x * x
    z = complex(x)
    return z.real * z.real + z.imag * z.imag


def path_casts(exact: bool):
    """(coefficient cast, weight cast) of one arithmetic path, picked once
    per sum so its loop needs no branch: ComplexRational and weights as
    they are (exact), or complex and float."""
    if exact:
        return ComplexRational.coerce, lambda w: w
    return complex, float


def check_int(name: str, value, least: int | None) -> None:
    """ValueError, naming the argument, unless value is an int >= least (any
    int for least None); a bool is refused, so a JSON true does not read as 1."""
    if not isinstance(value, int) or isinstance(value, bool) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def json_int(x):
    """A whole JSON number as an int; anything else is left to the caller's
    check, so a fractional value is refused rather than truncated."""
    return int(x) if isinstance(x, float) and x.is_integer() else x


def json_float(name: str, x) -> float:
    """A JSON number as a float: ValueError, naming the parameter, for
    anything else, so a string or a bool is not read as a number, nor the
    NaN or Infinity that ``json.loads`` accepts, which would make a
    tolerance or a bound compare true or false whatever the values.  An
    integer past the float range is refused by its size."""
    if not isinstance(x, Real) or isinstance(x, bool):
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    try:
        finite = isfinite(x)
    except OverflowError:  # isfinite converts an int to float first
        raise ValueError(f"{name} must be a finite number, got an integer of {x.bit_length()} bits, "
                         "past the float range") from None
    if not finite:
        raise ValueError(f"{name} must be a finite number, got {x!r}")
    return float(x)


class _JsonObject(dict):
    """A JSON object whose missing keys raise ValueError naming it."""

    def __init__(self, obj: dict, what: str):
        super().__init__(obj)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} has no {key!r} key")


def json_object(obj, what: str) -> dict:
    """obj, parsed first if it is a string, as a JSON object: ValueError
    naming what unless it is one, or when a key read from it is missing."""
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} must be a JSON object, got {obj!r} ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    return _JsonObject(obj, what)
