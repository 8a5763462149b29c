"""Sparse polynomials in d complex variables.

A polynomial is a dict mapping exponent multi-indices (tuples of
non-negative ints, one entry per variable) to nonzero coefficients.
Coefficients live on the exact path (ComplexRational / Fraction / int)
or the float path (complex); see ``scalars``.

The JSON literal for a polynomial maps the comma-joined exponent string
to a coefficient list: ``[re_num, re_den, im_num, im_den]`` integers on the
exact path (a whole float such as 2.0 counts, 1.5 is refused), or
``[re, im]`` floats.

One-variable objects (slices f(lambda z), the disc-side inputs of the
embeddings, the arguments of boundary functionals) are ``SparsePoly(1, ...)``;
``onevar_terms`` walks their coefficients by ascending degree and
``dense_coeffs`` lays them out as a numpy array.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from fractions import Fraction
from functools import lru_cache
from operator import add

import numpy as np

from .scalars import ComplexRational, check_int, is_exact_scalar, json_int, json_object


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
    """Immutable sparse polynomial in ``dim`` variables.

    The constructor checks every exponent and canonicalizes every
    coefficient.  Ring operations between two polynomials (sum, difference,
    negation, product), ``truncate``, ``homogeneous_parts`` and ``to_float``
    build their results with ``_valid``, which only drops zeros: sums of
    valid exponents are valid, and ComplexRational with ComplexRational
    stays ComplexRational, while a complex operand gives complex.
    """

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

    @classmethod
    def _valid(cls, dim, terms):
        """The polynomial of terms whose exponents and coefficients are
        already valid (results of ring operations); zeros are dropped."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", {b: c for b, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    def __reduce__(self):
        return SparsePoly, (self.dim, self.terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(dim):
        return SparsePoly(dim, {})

    @staticmethod
    def one(dim):
        return SparsePoly(dim, {(0,) * dim: 1})

    @staticmethod
    def monomial(dim, beta):
        return SparsePoly(dim, {tuple(beta): 1})

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

    def homogeneous_parts(self):
        """dict degree -> homogeneous component, skipping zero components."""
        parts = {}
        for b, c in self.terms.items():
            parts.setdefault(sum(b), {})[b] = c
        return {n: SparsePoly._valid(self.dim, t) for n, t in sorted(parts.items())}

    # -- ring operations ---------------------------------------------------

    def _binop(self, other, sign):
        if isinstance(other, SparsePoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            out = dict(self.terms)
            for b, c in other.terms.items():
                out[b] = out.get(b, 0) + sign * c
            return SparsePoly._valid(self.dim, out)
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
        return SparsePoly._valid(self.dim, {b: -c for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            out = {}
            for b1, c1 in self.terms.items():
                for b2, c2 in other.terms.items():
                    b = tuple(map(add, b1, b2))
                    out[b] = out.get(b, 0) + c1 * c2
            return SparsePoly._valid(self.dim, out)
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
        return SparsePoly._valid(self.dim, {b: c for b, c in self.terms.items() if sum(b) <= max_degree})

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
            v = complex(c)
            for p, e in zip(point, b):
                if e:
                    v *= p ** e
            total += v
        return total

    def slice(self, z, max_degree):
        """Slice f(lambda z) = sum_n f_n(z) lambda^n for a boundary point z, as a
        one-variable polynomial truncated at degree max_degree.

        Requires |z| = 1 within 1e-12.
        """
        nrm = math.sqrt(sum(abs(complex(p)) ** 2 for p in z))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"slice point must lie on the unit sphere, |z| = {nrm}")
        parts = self.homogeneous_parts().items()
        return SparsePoly(1, {(n,): part.evaluate(z) for n, part in parts if n <= max_degree})

    def to_float(self):
        return SparsePoly._valid(self.dim, {b: complex(c) for b, c in self.terms.items()})

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

    Requires f(0) != 0.  Exact on the exact path.  With c0 = f(0) and
    u = 1 - f/c0 (no constant term), 1/f = s/c0 for s = sum_j u^j = 1 + u s,
    so s is built degree by degree:

        s_0 = 1,   s_n = sum over the terms u_delta z^delta of u with
                   |delta| <= n of s_(n - |delta|) u_delta z^delta.

    That is one product per pair (term of u, term of s) that lands at degree
    <= max_degree, in one pass over the output terms, instead of max_degree
    truncated polynomial products u^j.  When f has two terms (1 - r z, say),
    each coefficient is one product chain in the order the Neumann sum
    sum_j u^j forms it, so the float result equals that sum bit for bit
    (when c0 * (1/c0) rounds to 1); otherwise the float sums are regrouped.

    >>> one_minus_z = SparsePoly(1, {(0,): 1, (1,): -1})
    >>> [str(c.re) for _, c in onevar_terms(series_invert(one_minus_z, 3))]
    ['1', '1', '1', '1']
    >>> [str(c.re) for _, c in onevar_terms(series_invert(one_minus_z + 1, 3))]
    ['1/2', '1/4', '1/8', '1/16']
    """
    c0 = f.constant_term()
    if not c0:
        raise ValueError("series_invert requires a nonzero constant term")
    inv_c0 = 1 / c0
    one = SparsePoly.one(f.dim)
    u = []  # (delta, |delta|, u_delta) over the terms of u that can land
    for b, c in f.terms.items():
        k, ud = sum(b), -(c * inv_c0)
        if 0 < k <= max_degree and ud:
            u.append((b, k, ud))
    parts = [one.terms]  # parts[n] = s_n, exponent -> coefficient
    for n in range(1, max_degree + 1):
        out = {}
        for delta, k, ud in u:
            if k > n:
                continue
            for b, c in parts[n - k].items():
                e = tuple(map(add, b, delta))
                out[e] = out.get(e, 0) + c * ud
        parts.append(out)
    s = SparsePoly._valid(f.dim, {b: c for part in parts for b, c in part.items()})
    return (s * inv_c0).truncate(max_degree)


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


def poly_from_literal(lit) -> SparsePoly:
    lit = json_object(lit, "a polynomial literal")
    terms, dim = {}, None
    for key, val in lit.items():
        try:
            beta = tuple(int(x) for x in key.split(","))
        except ValueError:
            raise ValueError(f"the key {key!r} of a polynomial literal must be comma-separated integer "
                             "exponents") from None
        if dim is None:
            dim = len(beta)
        size = len(val) if isinstance(val, list) else None
        if size == 4:
            parts = [json_int(x) for x in val]
            for part, x in zip(("re_num", "re_den", "im_num", "im_den"), parts):
                check_int(f"{part} of the exact coefficient {val!r} for {key}", x, None)
            if parts[1] == 0 or parts[3] == 0:
                raise ValueError(f"the exact coefficient {val!r} for {key} has a zero denominator")
            c = ComplexRational(Fraction(parts[0], parts[1]), Fraction(parts[2], parts[3]))
        elif size == 2 and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in val):
            c = complex(float(val[0]), float(val[1]))
        else:
            raise ValueError(f"coefficient for {key} must be [re_num,re_den,im_num,im_den] or [re,im], got {val!r}")
        terms[beta] = c
    if dim is None:
        raise ValueError("cannot infer dimension from an empty literal")
    return SparsePoly(dim, terms)


# -- one-variable polynomials -----------------------------------------------

ROOT_RESIDUAL_TOL = 1e-9  # |q(root)| per unit coefficient norm, scaled by |root|^deg past the disc
# computed roots closer than this many times the sum of their error bounds
# count as one root, with multiplicity (see _group_roots)
ROOT_CLUSTER_TOL = 4.0
OUTER_MARGIN = 1e-9  # a root this close inside the circle counts as on it


def onevar_terms(f: SparsePoly) -> list:
    """[(n, a_n)] for the nonzero coefficients of a one-variable polynomial,
    by ascending n; ValueError for more variables."""
    if f.dim != 1:
        raise ValueError(f"expected a one-variable polynomial, got {f.dim} variables")
    return sorted((b[0], c) for b, c in f.terms.items())


def dense_coeffs(f: SparsePoly) -> np.ndarray:
    """Complex array a_0, ..., a_deg of a one-variable polynomial, zeros
    filled in; [0] for the zero polynomial."""
    terms = onevar_terms(f)
    arr = np.zeros(max(1, f.degree() + 1), dtype=complex)
    for n, c in terms:
        arr[n] = complex(c)
    return arr


def roots_1d(q):
    """Roots of a one-variable polynomial (float path, companion matrix).

    q is a ``SparsePoly`` in one variable or a sequence of coefficients
    a_0, a_1, ... by ascending degree.  Returns a list of (root,
    multiplicity), by real then imaginary part.  Each root is checked by
    back-substitution: |q(root)| < ROOT_RESIDUAL_TOL * l2-norm of the
    coefficients.  Computed roots that lie within the rounding of one
    multiple root, by ``_group_roots``, count as one root at their mean.
    ValueError, naming q, when the companion matrix is not finite: a
    coefficient that is not, or a_k / a_n past the float range.
    """
    if isinstance(q, SparsePoly):
        arr = dense_coeffs(q)
    else:
        arr = np.asarray([complex(a) for a in q], dtype=complex)
    while arr.size > 1 and arr[-1] == 0:
        arr = arr[:-1]
    if arr.size <= 1:
        return []
    # the companion matrix holds a_k / a_n; a sum of Python floats is nan
    # for a nan term and overflows to inf without a warning
    if not math.isfinite(sum(map(abs, arr.tolist())) / abs(complex(arr[-1]))):
        raise ValueError(f"the roots of {q!r} are past the float companion matrix: a coefficient is not "
                         "finite, or the coefficients over a_n overflow")
    scale = float(np.linalg.norm(arr))
    raw = np.polynomial.polynomial.polyroots(arr)
    vals = []
    for r in raw:
        val = abs(np.polynomial.polynomial.polyval(r, arr))
        # evaluation can overflow far outside the disc; rescale by the root size
        denom = scale * max(1.0, abs(r)) ** (arr.size - 1)
        if val / denom > ROOT_RESIDUAL_TOL:
            raise ArithmeticError(f"root {r} fails the residual check ({val / denom:.2e})")
        vals.append(float(val))
    return _group_roots(raw.tolist(), vals, [abs(a) for a in arr.tolist()])


def _group_roots(roots: list, vals: list, sizes: list) -> list:
    """The computed roots of q = a_0 + ... + a_n z^n, with vals the float
    |q(root)| and sizes the |a_k|, as (root, multiplicity) by real then
    imaginary part.

    Root r_i lies within err_i = |q(r_i)| / |q'(r_i)| of a root of q, to
    first order.  |q(r_i)| is taken as its float value plus n eps sum |a_k|
    |r_i|^k, the rounding bound of Horner's rule at a real point, and
    |q'(r_i)| as |a_n| times the distances from r_i to the other computed
    roots not equal to it.  Two roots join when they lie within
    ROOT_CLUSTER_TOL (err_i + err_j), and joined roots are one root at
    their mean.  The k computed roots of a k-fold root, spread about rho
    by rounding, have err_i = rho / k and lie 2 rho sin(pi / k) < pi (2 rho
    / k) from their neighbours, so they join: (1 - z)^3, spread about
    1e-5, is one triple root.  The roots 0.9999996 and 1.0000004, computed
    to within 2e-10, stay two; so do simple roots of a monic quadratic near
    1 down to about 2e-7 apart.  Equal computed roots join, and a root
    whose err_i is not finite joins only its equals.
    """
    pairs = sorted(zip(roots, vals), key=lambda p: (p[0].real, p[0].imag))
    roots, n, eps = [r for r, _ in pairs], len(pairs), sys.float_info.epsilon
    # err_i is at most (max vals + n eps sum |a_k| m^k) / (|a_n| d^(n - 1)),
    # m the largest modulus of a root and d the least distance between two:
    # when d exceeds twice ROOT_CLUSTER_TOL times that, no two roots join
    d = min((abs(x - y) for x, y in itertools.combinations(roots, 2)), default=math.inf)
    rounding = n * eps * _abs_value(sizes, max(map(abs, roots)))
    if d > (2 * ROOT_CLUSTER_TOL * (max(vals) + rounding) / sizes[-1]) ** (1 / n):
        return [(r, 1) for r in roots]
    err = []
    for r, val in pairs:
        slope = sizes[-1] * math.prod(abs(r - o) for o in roots if o != r)
        e = (val + n * eps * _abs_value(sizes, abs(r))) / slope if slope else math.inf
        err.append(e if e < math.inf else 0.0)
    head = list(range(n))  # a union-find: each root's group is named by one of its roots
    for i, j in itertools.combinations(range(n), 2):
        if abs(roots[i] - roots[j]) <= ROOT_CLUSTER_TOL * (err[i] + err[j]):
            head[_group_of(head, j)] = _group_of(head, i)
    members = {}
    for i, r in enumerate(roots):
        members.setdefault(_group_of(head, i), []).append(r)
    return [(g[0], 1) if len(g) == 1 else (sum(g) / len(g), len(g)) for g in members.values()]


def _abs_value(sizes: list, x: float) -> float:
    """sum sizes[k] x^k by Horner's rule."""
    total = 0.0
    for a in reversed(sizes):
        total = total * x + a
    return total


def _group_of(head: list, i: int) -> int:
    while head[i] != i:
        i = head[i]
    return i


def is_outer_1d(q) -> bool:
    """True when the one-variable polynomial has no zeros of modulus < 1 - OUTER_MARGIN.

    A polynomial with no zeros in the open disc is outer in the Hardy space
    of the disc; constants count as outer.  False when a root fails the
    residual check of ``roots_1d``; ValueError, naming q, when its
    companion matrix is not finite.
    """
    try:
        roots = roots_1d(q)
    except ArithmeticError:
        return False
    return all(abs(r) >= 1 - OUTER_MARGIN for r, _ in roots)
