"""Embeddings of one-variable function spaces into ball spaces.

Two substitution operators carry one-variable polynomials (``SparsePoly``
with dim 1; more variables raise ValueError) into d variables:

* ``tau_compose``: lambda -> k^(k/2) z_1 ... z_k, so lambda^n maps to
  k^(nk/2) (z_1...z_k)^n.  The image of the disc space D_{(k-1)/2} sits in
  the Drury-Arveson space of the ball with two-sided norm bounds.
* ``sum_squares_compose``: lambda -> z_1^2 + ... + z_k^2.  The squared
  Drury-Arveson norm of the image of lambda^n is the combinatorial
  coefficient ``sk_coefficient(k, n)``, which grows like (n+1)^((k-1)/2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .poly import SparsePoly, factorial_ratio, onevar_terms
from .spaces import CACHE_MAXSIZE


def _tau_scale(k: int, n: int):
    """k^(nk/2) as an exact int when it is one, else a float."""
    e2 = n * k  # square of the scale is k^(nk)
    if e2 % 2 == 0:
        return k ** (e2 // 2)
    root = math.isqrt(k)
    if root * root == k:
        return root ** e2
    return float(k) ** (e2 / 2)

def tau_scale_sq(k: int, n: int) -> int:
    """Exact square k^(nk) of the degree-n scale factor."""
    return k ** (n * k)


def tau_compose(f, k: int, d: int) -> SparsePoly:
    """Compose a 1-variable polynomial with k^(1/2+...) z_1...z_k inside C^d.

    lambda^n -> k^(nk/2) (z_1...z_k)^n.  Coefficients stay exact whenever
    every needed scale k^(nk/2) is an integer (always for even k, and for
    perfect-square k); otherwise the image is on the float path and exact
    norm accounting goes through ``tau_scale_sq``/``tkd_monomial_norm_sq``.
    """
    if k < 1 or d < k:
        raise ValueError("need 1 <= k <= d")
    terms = {}
    for n, a in onevar_terms(f):
        scale = _tau_scale(k, n)
        beta = tuple([n] * k + [0] * (d - k))
        terms[beta] = a * scale if not isinstance(scale, float) else complex(a) * scale
    return SparsePoly(d, terms)


@lru_cache(maxsize=CACHE_MAXSIZE)
def tkd_monomial_norm_sq(k: int, n: int) -> Fraction:
    """Exact ||tau image of lambda^n||^2 in the Drury-Arveson space:
    k^(nk) (n!)^k / (nk)! (independent of the ambient d >= k)."""
    return tau_scale_sq(k, n) * factorial_ratio((n,) * k)


def sum_squares_compose(f, k: int, d: int) -> SparsePoly:
    """Compose a 1-variable polynomial with z_1^2 + ... + z_k^2 inside C^d (exact)."""
    if k < 1 or d < k:
        raise ValueError("need 1 <= k <= d")
    coeffs = dict(onevar_terms(f))
    base = SparsePoly(d, {tuple(2 if i == j else 0 for i in range(d)): 1 for j in range(k)})
    # Horner in the substitution variable
    acc = SparsePoly.zero(d)
    for n in range(max(coeffs, default=0), -1, -1):
        acc = acc * base + coeffs.get(n, 0)
    return acc


def sk_coefficient(d: int, n: int) -> Fraction:
    """Exact squared Drury-Arveson norm of the image of lambda^n under the
    sum-of-squares substitution with k = d slots, (n!)^2/(2n)! * sum_{|alpha|=n}
    (2 alpha)!/(alpha!)^2, in closed form: prod_{i<n} (d + 2i)/(2i + 1), the
    ratio (d/2)_n / (1/2)_n of rising factorials.  The generating function of
    the sum is (1 - 4x)^(-d/2), whose coefficients are 4^n (d/2)_n / n!, and
    (2n)! = 4^n n! (1/2)_n."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1, n >= 0")
    return Fraction(math.prod(range(d, d + 2 * n, 2)), math.prod(range(1, 2 * n, 2)))


def sk_coefficient_ratios(d: int, max_degree: int) -> list[float]:
    """sk_coefficient(d, n) / (n+1)^((d-1)/2); bounded above and below."""
    return [float(sk_coefficient(d, n)) / float(n + 1) ** ((d - 1) / 2) for n in range(max_degree + 1)]


def diagonal_projection(q: SparsePoly, k: int) -> SparsePoly:
    """Keep the terms whose exponent is (n, ..., n, 0, ..., 0) with k equal slots.

    These are exactly the monomials in the range of ``tau_compose``; the kept
    and dropped parts stay orthogonal after multiplication by any diagonal
    image, which is what makes one-variable distance computations transfer.
    """
    if k < 1 or k > q.dim:
        raise ValueError("need 1 <= k <= dim")
    keep = {}
    for b, c in q.terms.items():
        head, tail = b[:k], b[k:]
        if len(set(head)) == 1 and all(e == 0 for e in tail):
            keep[b] = c
    return SparsePoly(q.dim, keep)
