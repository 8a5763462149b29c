"""Sparse polynomials in d complex variables and truncated 1-variable series.

A polynomial is a dict mapping exponent multi-indices (tuples of
non-negative ints, one entry per variable) to nonzero coefficients.
Coefficients live on the exact path (ComplexRational / Fraction / int)
or the float path (complex); see ``scalars``.

The JSON literal for a polynomial maps the comma-joined exponent string
to a coefficient list: ``[re_num, re_den, im_num, im_den]`` on the exact
path, or ``[re, im]`` floats.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .scalars import ComplexRational, is_exact_scalar, to_complex


def multi_factorial(beta) -> int:
    """beta! = prod_i beta_i!"""
    out = 1
    for b in beta:
        out *= math.factorial(b)
    return out


# every exponent of degree <= 20 in 4 variables (C(24, 4) = 10626) fits
FACTORIAL_RATIO_CACHE = 1 << 14


@lru_cache(maxsize=FACTORIAL_RATIO_CACHE)
def factorial_ratio(beta: tuple) -> Fraction:
    """beta!/|beta|! , the squared monomial norm in the d-variable Drury-Arveson space.

    Cached on the exponent tuple, up to FACTORIAL_RATIO_CACHE exponents."""
    return Fraction(multi_factorial(beta), math.factorial(sum(beta)))


def _check_exponent(beta, dim):
    if len(beta) != dim:
        raise ValueError(f"exponent {beta} has length {len(beta)}, expected {dim}")
    if any((not isinstance(b, int)) or b < 0 for b in beta):
        raise ValueError(f"exponent {beta} must consist of non-negative ints")


def _norm_coeff(c):
    """Canonicalize a coefficient; return None when it is zero."""
    if isinstance(c, ComplexRational):
        return c if c else None
    if is_exact_scalar(c):
        cr = ComplexRational.coerce(c)
        return cr if cr else None
    z = complex(c)
    return z if z != 0 else None


class SparsePoly:
    """Immutable sparse polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for beta, c in (terms or {}).items():
            beta = tuple(beta)
            _check_exponent(beta, dim)
            c = _norm_coeff(c)
            if c is not None:
                clean[beta] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim):
        return SparsePoly(dim, {})

    @staticmethod
    def one(dim):
        return SparsePoly(dim, {(0,) * dim: 1})

    @staticmethod
    def variable(dim, j):
        e = [0] * dim
        e[j] = 1
        return SparsePoly(dim, {tuple(e): 1})

    @staticmethod
    def monomial(dim, beta, coeff=1):
        return SparsePoly(dim, {tuple(beta): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_exact(self) -> bool:
        return all(isinstance(c, ComplexRational) for c in self.terms.values())

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(b) for b in self.terms)

    def coefficient(self, beta):
        beta = tuple(beta)
        c = self.terms.get(beta)
        if c is not None:
            return c
        return ComplexRational() if self.is_exact() else 0j

    def constant_term(self):
        return self.coefficient((0,) * self.dim)

    def is_homogeneous(self) -> bool:
        degs = {sum(b) for b in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, n):
        return SparsePoly(self.dim, {b: c for b, c in self.terms.items() if sum(b) == n})

    def homogeneous_parts(self):
        """dict degree -> homogeneous component, skipping zero components."""
        parts = {}
        for b, c in self.terms.items():
            parts.setdefault(sum(b), {})[b] = c
        return {n: SparsePoly(self.dim, t) for n, t in sorted(parts.items())}

    # -- ring operations ---------------------------------------------------

    def _binop(self, other, sign):
        if isinstance(other, SparsePoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            out = dict(self.terms)
            for b, c in other.terms.items():
                out[b] = out.get(b, 0) + sign * c
            return SparsePoly(self.dim, out)
        # scalar
        out = dict(self.terms)
        z = (0,) * self.dim
        out[z] = out.get(z, 0) + sign * other
        return SparsePoly(self.dim, out)

    def __add__(self, other):
        return self._binop(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, -1)

    def __rsub__(self, other):
        return (-self)._binop(other, 1)

    def __neg__(self):
        return SparsePoly(self.dim, {b: -c for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            out = {}
            for b1, c1 in self.terms.items():
                for b2, c2 in other.terms.items():
                    b = tuple(x + y for x, y in zip(b1, b2))
                    out[b] = out.get(b, 0) + c1 * c2
            return SparsePoly(self.dim, out)
        return SparsePoly(self.dim, {b: c * other for b, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative int")
        result = SparsePoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus-flavoured operations --------------------------------------

    def truncate(self, max_degree):
        """Drop all terms of total degree > max_degree."""
        return SparsePoly(self.dim, {b: c for b, c in self.terms.items() if sum(b) <= max_degree})

    def radial_derivative(self, order=1):
        """R^order with R z^beta = |beta| z^beta (Euler operator); order 0
        is the identity."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order == 0:
            return self
        out = {}
        for b, c in self.terms.items():
            n = sum(b)
            if n == 0:
                continue
            out[b] = c * (n ** order)
        return SparsePoly(self.dim, out)

    def dilate(self, r):
        """f_r(z) = f(r z); exact when r is rational and f exact."""
        if is_exact_scalar(r):
            r = Fraction(r) if not isinstance(r, ComplexRational) else r
        return SparsePoly(self.dim, {b: c * r ** sum(b) for b, c in self.terms.items()})

    def evaluate(self, point) -> complex:
        point = [complex(p) for p in point]
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        total = 0j
        for b, c in self.terms.items():
            v = to_complex(c)
            for p, e in zip(point, b):
                if e:
                    v *= p ** e
            total += v
        return total

    def evaluate_exact(self, point):
        """Exact evaluation at a rational point (components int/Fraction/ComplexRational)."""
        pt = [ComplexRational.coerce(p) for p in point]
        total = ComplexRational()
        for b, c in self.terms.items():
            v = ComplexRational.coerce(c)
            for p, e in zip(pt, b):
                for _ in range(e):
                    v = v * p
            total = total + v
        return total

    def slice(self, z, max_degree):
        """Slice series f(lambda z) = sum_n f_n(z) lambda^n for a boundary point z.

        Requires |z| = 1 within 1e-12.
        """
        nrm = math.sqrt(sum(abs(complex(p)) ** 2 for p in z))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"slice point must lie on the unit sphere, |z| = {nrm}")
        coeffs = [0j] * (max_degree + 1)
        for n, part in self.homogeneous_parts().items():
            if n <= max_degree:
                coeffs[n] = part.evaluate(z)
        return Series1D(coeffs)

    def to_float(self):
        return SparsePoly(self.dim, {b: to_complex(c) for b, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return f"SparsePoly(dim={self.dim}, 0)"
        bits = []
        for b, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}" for i, e in enumerate(b) if e)
            if isinstance(c, ComplexRational):
                cs = str(c.re) if c.im == 0 else f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)"
            else:
                cs = repr(c)
            bits.append(f"{cs}*{mono}" if mono else cs)
        return f"SparsePoly(dim={self.dim}, " + " + ".join(bits) + ")"


def series_invert(f: SparsePoly, max_degree: int) -> SparsePoly:
    """Truncated multiplicative inverse: (1/f) mod total degree > max_degree.

    Requires f(0) != 0.  Exact on the exact path.
    Uses 1/f = (1/c0) sum_j u^j with u = 1 - f/c0 (u has no constant term).
    """
    c0 = f.constant_term()
    if not c0:
        raise ValueError("series_invert requires a nonzero constant term")
    inv_c0 = 1 / c0
    one = SparsePoly.one(f.dim)
    u = (one - f * inv_c0).truncate(max_degree)
    # the Neumann terms u^j accumulate in one dict; the polynomial is built once
    acc = dict(one.terms)
    upow = one
    for _ in range(max_degree):
        upow = (upow * u).truncate(max_degree)
        if upow.is_zero():
            break
        for b, c in upow.terms.items():
            acc[b] = acc.get(b, 0) + c
    return (SparsePoly(f.dim, acc) * inv_c0).truncate(max_degree)


class Series1D:
    """Truncated power series sum_{n<=M} a_n lambda^n in one variable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    def __setattr__(self, name, value):
        raise AttributeError("Series1D is immutable")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        return self.coeffs[n] if 0 <= n <= self.truncation else 0

    def __eq__(self, other):
        if not isinstance(other, Series1D):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def pad(self, m):
        if m <= self.truncation:
            return Series1D(self.coeffs[: m + 1])
        return Series1D(self.coeffs + (0,) * (m - self.truncation))

    def __add__(self, other):
        m = max(self.truncation, other.truncation)
        a, b = self.pad(m), other.pad(m)
        return Series1D([x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __sub__(self, other):
        m = max(self.truncation, other.truncation)
        a, b = self.pad(m), other.pad(m)
        return Series1D([x - y for x, y in zip(a.coeffs, b.coeffs)])

    def mul(self, other, max_degree=None):
        if max_degree is None:
            max_degree = self.truncation + other.truncation
        out = [0] * (max_degree + 1)
        for i, a in enumerate(self.coeffs):
            if i > max_degree:
                break
            for j, b in enumerate(other.coeffs):
                if i + j > max_degree:
                    break
                out[i + j] = out[i + j] + a * b
        return Series1D(out)

    def derivative(self, order=1):
        c = self.coeffs
        for _ in range(order):
            c = tuple((n + 1) * c[n + 1] for n in range(len(c) - 1)) or (0,)
        return Series1D(c)

    def evaluate(self, lam) -> complex:
        lam = complex(lam)
        total = 0j
        for a in reversed(self.coeffs):
            total = total * lam + to_complex(a)
        return total

    def to_poly(self) -> SparsePoly:
        return SparsePoly(1, {(n,): a for n, a in enumerate(self.coeffs)})

    def __repr__(self):
        return f"Series1D({list(self.coeffs)!r})"


def series_from_poly(f: SparsePoly) -> Series1D:
    if f.dim != 1:
        raise ValueError("series_from_poly requires a 1-variable polynomial")
    m = max(0, f.degree())
    coeffs = [f.coefficient((n,)) for n in range(m + 1)]
    return Series1D(coeffs)


# -- JSON literals ----------------------------------------------------------


def poly_to_literal(f: SparsePoly) -> dict:
    out = {}
    for b, c in sorted(f.terms.items(), key=lambda t: (sum(t[0]), t[0])):
        key = ",".join(str(e) for e in b)
        if isinstance(c, ComplexRational):
            out[key] = [c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator]
        else:
            z = complex(c)
            out[key] = [z.real, z.imag]
    return out


def poly_from_literal(lit, dim=None) -> SparsePoly:
    if isinstance(lit, str):
        lit = json.loads(lit)
    if not isinstance(lit, dict):
        raise ValueError("polynomial literal must be a JSON object")
    terms = {}
    for key, val in lit.items():
        beta = tuple(int(x) for x in key.split(","))
        if dim is None:
            dim = len(beta)
        if len(val) == 4:
            c = ComplexRational(Fraction(int(val[0]), int(val[1])), Fraction(int(val[2]), int(val[3])))
        elif len(val) == 2:
            c = complex(float(val[0]), float(val[1]))
        else:
            raise ValueError(f"coefficient for {key} must be [re_num,re_den,im_num,im_den] or [re,im]")
        terms[beta] = c
    if dim is None:
        raise ValueError("cannot infer dimension from an empty literal")
    return SparsePoly(dim, terms)


# -- one-variable roots ------------------------------------------------------


def roots_1d(q, residual_tol=1e-9, cluster_tol=1e-7):
    """Roots of a 1-variable polynomial (float path, companion matrix).

    Returns a list of (root, multiplicity).  Each root is checked by
    back-substitution: |q(root)| < residual_tol * l2-norm of the
    coefficients.  Roots closer than cluster_tol are merged.
    """
    if isinstance(q, Series1D):
        coeffs = [to_complex(a) for a in q.coeffs]
    elif isinstance(q, SparsePoly):
        coeffs = [to_complex(a) for a in series_from_poly(q).coeffs]
    else:
        coeffs = [complex(a) for a in q]
    arr = np.asarray(coeffs, dtype=complex)
    while arr.size > 1 and arr[-1] == 0:
        arr = arr[:-1]
    if arr.size <= 1:
        return []
    scale = float(np.linalg.norm(arr))
    raw = np.polynomial.polynomial.polyroots(arr)
    for r in raw:
        val = abs(np.polynomial.polynomial.polyval(r, arr))
        # evaluation can overflow far outside the disc; rescale by the root size
        denom = scale * max(1.0, abs(r)) ** (arr.size - 1)
        if val / denom > residual_tol:
            raise ArithmeticError(f"root {r} fails the residual check ({val / denom:.2e})")
    clusters: list[list[complex]] = []
    for r in sorted(raw, key=lambda z: (z.real, z.imag)):
        for cl in clusters:
            if abs(r - cl[0]) < cluster_tol:
                cl.append(r)
                break
        else:
            clusters.append([r])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def is_outer_1d(q, margin=1e-9) -> bool:
    """True when the 1-variable polynomial has no zeros of modulus < 1 - margin.

    A polynomial with no zeros in the open disc is outer in the Hardy space
    of the disc; constants count as outer.
    """
    try:
        roots = roots_1d(q)
    except ArithmeticError:
        return False
    return all(abs(r) >= 1 - margin for r, _ in roots)
