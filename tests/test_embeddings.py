"""Maps between dimensions and the coefficient combinatorics behind them."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest

from besovball.embeddings import (
    diagonal_projection,
    sk_coefficient,
    sk_coefficient_ratios,
    sum_squares_compose,
    tau_compose,
    tkd_monomial_norm_sq,
)
from besovball.poly import SparsePoly, multi_factorial
from besovball.scalars import ComplexRational
from besovball.spaces import SpaceSpec, inner_product, norm_sq

ONE_MINUS = SparsePoly(1, {(0,): 1, (1,): -1})


def test_tau_compose_anchors():
    assert tau_compose(ONE_MINUS, 2, 2) == SparsePoly(2, {(0, 0): 1, (1, 1): -2})
    assert tau_compose(ONE_MINUS, 4, 4) == SparsePoly(
        4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16}
    )
    assert tau_compose(SparsePoly.one(1), 3, 5) == SparsePoly.one(5)
    with pytest.raises(ValueError):
        tau_compose(ONE_MINUS, 3, 2)


def test_tau_compose_irrational_path():
    # k = 3: 3^(3/2) is irrational, so the coefficient goes float but the
    # squared-modulus side channel stays exact
    img = tau_compose(ONE_MINUS, 3, 3)
    c = img.coefficient((1, 1, 1))
    assert not isinstance(c, ComplexRational)
    assert abs(abs(complex(c)) ** 2 - 27.0) < 1e-9
    assert tkd_monomial_norm_sq(3, 1) == Fraction(27 * 1, math.factorial(3))


def test_tkd_monomial_norm_exact():
    # k^(nk) (n!)^k / (nk)!
    assert tkd_monomial_norm_sq(2, 1) == 2
    assert tkd_monomial_norm_sq(2, 2) == Fraction(16 * 4, 24)
    assert tkd_monomial_norm_sq(1, 5) == 1
    # cross-check against the ambient norm of the image monomial
    for k, d, n in [(2, 2, 3), (2, 4, 2), (4, 4, 1)]:
        img = tau_compose(SparsePoly(1, {(n,): 1}), k, d)
        sp = SpaceSpec.drury_arveson(d)
        assert norm_sq(sp, img) == tkd_monomial_norm_sq(k, n)


def test_tau_range_contraction():
    # |tau_k(z)| <= 1 on the ball (the map lands in the disc)
    rng = np.random.default_rng(0)
    for k, d in [(2, 2), (3, 4), (4, 4)]:
        z = rng.normal(size=(10**4, d)) + 1j * rng.normal(size=(10**4, d))
        z *= (rng.uniform(0, 1, size=(10**4, 1)) ** (1 / (2 * d))) / np.linalg.norm(
            z, axis=1, keepdims=True
        )
        vals = (k ** (k / 2)) * np.abs(np.prod(z[:, :k], axis=1))
        assert float(vals.max()) <= 1.0 + 1e-12


def test_sum_squares_anchors():
    assert sum_squares_compose(ONE_MINUS, 3, 3) == SparsePoly(
        3, {(0, 0, 0): 1, (2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1}
    )
    lam2 = SparsePoly(1, {(2,): 1})
    assert sum_squares_compose(lam2, 2, 2) == SparsePoly(
        2, {(4, 0): 1, (2, 2): 2, (0, 4): 1}
    )
    assert sum_squares_compose(SparsePoly.one(1), 2, 3) == SparsePoly.one(3)
    assert sum_squares_compose(SparsePoly.zero(1), 2, 2) == SparsePoly.zero(2)


def test_compose_sparse_inputs_and_rejects_more_variables():
    # a gap in the degrees: 2 - lambda^3
    f = SparsePoly(1, {(3,): -1, (0,): 2})
    assert tau_compose(f, 2, 3) == SparsePoly(3, {(0, 0, 0): 2, (3, 3, 0): -8})
    base = SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    assert sum_squares_compose(f, 2, 2) == 2 - base**3
    # terms of the image come in ascending degree
    assert list(tau_compose(f, 2, 2).terms) == [(0, 0), (3, 3)]
    for compose in (tau_compose, sum_squares_compose):
        with pytest.raises(ValueError, match="one-variable"):
            compose(SparsePoly(2, {(1, 0): 1}), 2, 2)


def _sk_enumeration_oracle(d, n):
    """Direct sum over |alpha| = n of (2 alpha)!/(alpha!)^2 times (n!)^2/(2n)!."""
    total = 0
    for alpha in product(range(n + 1), repeat=d):
        if sum(alpha) != n:
            continue
        num = multi_factorial(tuple(2 * a for a in alpha))
        den = multi_factorial(alpha) ** 2
        total += Fraction(num, den)
    return Fraction(math.factorial(n) ** 2, math.factorial(2 * n)) * total


def test_sk_coefficient_matches_enumeration():
    for d in (1, 2, 3, 4):
        for n in range(0, 7):
            assert sk_coefficient(d, n) == _sk_enumeration_oracle(d, n), (d, n)


@lru_cache(maxsize=None)
def _sum_sq_term_sum_oracle(d, n):
    """sum over |alpha| = n, alpha in N_0^d, of (2 alpha)!/(alpha!)^2, by the
    convolution recursion in d that the closed form replaced: splitting off
    the last exponent convolves the (d-1)-variable sums with the central
    binomial coefficients."""
    if d == 1:
        return math.comb(2 * n, n)
    return sum(_sum_sq_term_sum_oracle(d - 1, j) * math.comb(2 * (n - j), n - j) for j in range(n + 1))


def test_sk_coefficient_closed_form_equals_the_recursion():
    for d in range(1, 11):
        for n in range(90):
            assert sk_coefficient(d, n) == Fraction(_sum_sq_term_sum_oracle(d, n), math.comb(2 * n, n)), (d, n)


def test_sk_coefficient_is_fast_at_high_degree():
    # the recursion's O(d n^2) big-int products take seconds at this degree;
    # the closed form is two products of n integers
    t0 = time.perf_counter()
    assert sk_coefficient(4, 2000) == 2001 * sk_coefficient(2, 2000)
    assert time.perf_counter() - t0 < 1.0


def test_sk_coefficient_anchors():
    assert sk_coefficient(2, 1) == 2
    assert all(sk_coefficient(1, n) == 1 for n in range(30))
    # d = 4 closed form: convolving two d = 2 rows gives (n+1) 4^n
    for n in range(0, 40):
        assert sk_coefficient(4, n) == (n + 1) * sk_coefficient(2, n)


def test_sk_norm_identity():
    # || S_d lambda^n ||^2 in H^2_d equals c_n^(d)
    for d, n in [(2, 3), (3, 2), (4, 2)]:
        img = sum_squares_compose(SparsePoly(1, {(n,): 1}), d, d)
        sp = SpaceSpec.drury_arveson(d)
        assert norm_sq(sp, img) == sk_coefficient(d, n)


def _tkd_ratios(k, max_degree):
    """||tau(lambda^n)||^2 in H^2 over ||lambda^n||^2 in D_{(k-1)/2}, n <= max_degree."""
    return [tkd_monomial_norm_sq(k, n) / (n + 1) ** ((k - 1) / 2) for n in range(max_degree + 1)]


def test_ratio_windows():
    rats2 = _tkd_ratios(2, 60)
    assert all(1.0 - 1e-9 <= r <= 1.7615315 + 1e-6 for r in rats2)
    assert abs(rats2[-1] - math.sqrt(math.pi)) < 0.02
    rats3 = _tkd_ratios(3, 60)
    assert all(1.0 - 1e-9 <= r <= 3.5813696 + 1e-6 for r in rats3)
    sk3 = sk_coefficient_ratios(3, 60)
    assert all(1.0 - 1e-9 <= r <= 2.0 for r in sk3)


def test_diagonal_projection():
    q = SparsePoly(
        3, {(2, 2, 0): 1, (1, 2, 0): 5, (0, 0, 0): 2, (1, 1, 1): 7, (3, 3, 0): -1}
    )
    pq = diagonal_projection(q, 2)
    assert pq == SparsePoly(3, {(2, 2, 0): 1, (0, 0, 0): 2, (3, 3, 0): -1})


def test_orthogonality_transport_exact():
    # multiples of diagonal-supported images split orthogonally around the
    # diagonal projection; exact on the k = 2 path
    sp = SpaceSpec.drury_arveson(3)
    h = SparsePoly(1, {(0,): 1, (1,): ComplexRational(Fraction(-1, 2))})
    g = SparsePoly(1, {(0,): 1, (2,): 3})
    Th = tau_compose(h, 2, 3)
    Tg = tau_compose(g, 2, 3)
    q = SparsePoly(
        3, {(0, 0, 0): 1, (1, 1, 0): -2, (1, 0, 1): 4, (2, 1, 0): ComplexRational(Fraction(1, 5))}
    )
    pq = diagonal_projection(q, 2)
    lhs = inner_product(sp, (q - pq) * Th, pq * Th - Tg)
    assert lhs == ComplexRational(0)


def test_orthogonality_transport_float():
    sp = SpaceSpec.drury_arveson(3)
    h = SparsePoly(1, {(0,): 1, (1,): -1})
    Th = tau_compose(h, 3, 3)  # float coefficients
    q = SparsePoly(3, {(0, 0, 0): 1, (2, 1, 0): -3, (1, 1, 1): 2})
    pq = diagonal_projection(q, 3)
    val = inner_product(sp, (q - pq) * Th, pq * Th)
    assert abs(complex(val)) < 1e-10


def test_tkd_monomial_norm_equals_the_factorial_formula():
    # the earlier closed form k^(nk) (n!)^k / (nk)!, value and type
    for k in range(1, 7):
        for n in range(41):
            want = Fraction(k ** (n * k) * math.factorial(n) ** k, math.factorial(n * k))
            got = tkd_monomial_norm_sq(k, n)
            assert type(got) is Fraction and got == want, (k, n)
