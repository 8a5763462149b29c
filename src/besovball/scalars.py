"""Exact Gaussian-rational scalars.

Coefficient arithmetic throughout the package runs on one of two paths:

* exact: real and imaginary parts are ``fractions.Fraction``; every ring
  operation and every norm computed from such coefficients is exact,
* float: ordinary ``complex`` numbers.

``ComplexRational`` is the exact scalar.  Its constructor and ``coerce``
refuse floats, but its arithmetic degrades to ``complex`` against a float
or complex operand (``ComplexRational(1) * 0.5 == 0.5+0j``); use
:func:`to_complex` at the boundary where a float value is wanted.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, Rational)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class ComplexRational:
    """A Gaussian rational a + b*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @staticmethod
    def coerce(x):
        """Coerce an int/Fraction/ComplexRational; reject floats."""
        if isinstance(x, ComplexRational):
            return x
        return ComplexRational(_as_fraction(x))

    # Binary ops stay exact against exact operands and degrade to complex
    # against float/complex ones, so mixed-path expressions do the obvious
    # thing while is_exact() still reports the truth.

    def __add__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return complex(self) + other
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return complex(self) - other
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return other - complex(self)
        return o - self

    def __mul__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return complex(self) * other
        return ComplexRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return complex(self) / other
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def __rtruediv__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return other / complex(self)
        return o / self

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
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|x|^2, exact."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        try:
            o = ComplexRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __repr__(self):
        if self.im == 0:
            return f"ComplexRational({self.re})"
        return f"ComplexRational({self.re}, {self.im})"


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, ComplexRational))


def conj(x):
    """Conjugate on either scalar path."""
    if isinstance(x, ComplexRational):
        return x.conjugate()
    if isinstance(x, (int, Fraction)):
        return x
    return x.conjugate() if isinstance(x, complex) else complex(x).conjugate()


def abs_sq(x):
    """|x|^2; exact (Fraction) on the exact path, float otherwise."""
    if isinstance(x, ComplexRational):
        return x.abs2()
    if isinstance(x, (int, Fraction)):
        return x * x
    z = complex(x)
    return z.real * z.real + z.imag * z.imag


def to_complex(x) -> complex:
    return complex(x)


def path_casts(exact: bool):
    """(coefficient cast, weight cast) of one arithmetic path, picked once
    per sum so its loop needs no branch: ComplexRational and weights as
    they are (exact), or complex and float."""
    if exact:
        return ComplexRational.coerce, lambda w: w
    return to_complex, float
