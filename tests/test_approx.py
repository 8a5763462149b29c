"""Finite-dimensional least squares against shifted copies of a polynomial."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from operator import add, sub

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

from besovball import approx, embeddings
from besovball.approx import (
    ApproximantResult,
    assemble_gram,
    cyclicity_profile,
    distance_profile,
    finite_section_mult_bound,
    graded_monomials,
    hc_profile,
    membership_profile,
    optimal_approximant,
    ratio_norm_sweep,
)
from besovball.poly import SparsePoly, poly_from_literal
from besovball.scalars import ComplexRational, exact_parts, path_casts
from besovball.spaces import NormalizedVolume, PointMassAtOne, SpaceSpec, inner_product, monomial_norm_sq, norm_sq

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

H1 = SpaceSpec.alpha_scale(1, 0)  # Hardy line: every weight is 1
DA2 = SpaceSpec.drury_arveson(2)
ONE_MINUS_Z = SparsePoly(1, {(0,): 1, (1,): -1})
F22 = SparsePoly(2, {(0, 0): 1, (1, 1): -2})


def test_basis_order_grlex_leading_variable_first():
    assert graded_monomials(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]
    assert graded_monomials(1, 3) == [(0,), (1,), (2,), (3,)]


def test_gram_anchor_block():
    sys1 = assemble_gram(H1, ONE_MINUS_Z, SparsePoly.one(1), 1)
    assert sys1.exact
    assert sys1.basis == ((0,), (1,))
    assert [[x for x in row] for row in sys1.matrix] == [[2, -1], [-1, 2]]
    assert list(sys1.rhs) == [1, 0]
    res = optimal_approximant(sys1, method="exact")
    assert res.coefficients == (Fraction(2, 3), Fraction(1, 3))
    assert res.dist_sq == Fraction(1, 3)


def test_dist_anchors_exact():
    # degree-m best distance for 1 - z on the Hardy line is 1/(m+2)
    for m in range(6):
        res = optimal_approximant(assemble_gram(H1, ONE_MINUS_Z, SparsePoly.one(1), m), method="exact")
        assert res.dist_sq == Fraction(1, m + 2), m
    # two-variable product target: constants already reach 2/3, degree 2
    # lands exactly on 8/15
    for m, dist_sq in ((0, Fraction(2, 3)), (2, Fraction(8, 15))):
        assert optimal_approximant(assemble_gram(DA2, F22, SparsePoly.one(2), m), method="exact").dist_sq == dist_sq


def _projection_oracle(space, f, g, m):
    """Distance via explicit Gram-Schmidt on {z^beta f}, no normal equations."""
    basis = [SparsePoly(f.dim, {b: 1}) * f for b in graded_monomials(f.dim, m)]
    ortho: list[SparsePoly] = []
    norms: list[object] = []
    for v in basis:
        w = v
        for u, nu in zip(ortho, norms):
            coef = inner_product(space, v, u)
            if isinstance(coef, ComplexRational):
                scale = coef * ComplexRational(Fraction(1)) / ComplexRational(nu)
                w = w - u * scale
            else:
                w = w - u * (coef / nu)
        nw = norm_sq(space, w)
        if (float(nw) if not isinstance(nw, float) else nw) <= 0:
            continue
        ortho.append(w)
        norms.append(nw)
    rest = norm_sq(space, g)
    for u, nu in zip(ortho, norms):
        c = inner_product(space, g, u)
        c2 = c.abs2() if isinstance(c, ComplexRational) else abs(c) ** 2
        if isinstance(rest, Fraction) and isinstance(c2, Fraction) and isinstance(nu, Fraction):
            rest = rest - c2 / nu
        else:
            rest = float(rest) - float(c2) / float(nu)
    return rest


def test_projection_oracle_random_systems():
    # normal equations and raw Gram-Schmidt agree: exactly on the Fraction
    # path, to 1e-10 relatively on the float path
    rng = random.Random(20260819)
    spaces = [
        H1,
        DA2,
        SpaceSpec.drury_arveson(3),
        SpaceSpec.alpha_scale(2, 2),
        SpaceSpec.alpha_scale(2, -1),
    ]
    checked = 0
    for trial in range(200):
        space = spaces[trial % len(spaces)]
        d = space.d
        m = rng.choice([1, 2] if d >= 3 else [1, 2, 3])

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                beta = tuple(rng.randint(0, 2) for _ in range(d))
                terms[beta] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return SparsePoly(d, terms)

        f = rand_poly()
        if not f.terms:
            continue
        g = rand_poly()
        oracle = _projection_oracle(space, f, g, m)
        res = optimal_approximant(assemble_gram(space, f, g, m), method="exact")
        assert res.exact
        assert res.dist_sq == oracle, (space, f.terms, g.terms, m)
        resf = optimal_approximant(approx._system(space, f, g, m, "float"), method="float")
        scale = max(1.0, abs(float(oracle)))
        assert abs(resf.dist_sq - float(oracle)) <= 1e-10 * scale
        checked += 1
    assert checked >= 150


def test_dist_monotone_in_degree():
    pts = distance_profile(DA2, F22, SparsePoly.one(2), range(0, 9), method="exact")
    vals = [p.dist_sq for p in pts]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # plateau structure: odd cutoffs add nothing for this target
    assert vals[0] == pytest.approx(vals[1])
    assert vals[2] == pytest.approx(vals[3])
    assert vals[1] > vals[2]


def test_profile_scaling_invariance():
    f2 = F22 * ComplexRational(Fraction(2))
    a = distance_profile(DA2, F22, SparsePoly.one(2), [0, 2, 4], method="exact")
    b = distance_profile(DA2, f2, SparsePoly.one(2), [0, 2, 4], method="exact")
    for pa, pb in zip(a, b):
        assert pa.dist_sq == pytest.approx(pb.dist_sq, rel=1e-14)


def test_profile_points_are_slotted_and_still_copy():
    # no per-point __dict__; pickle, replace and asdict work as before
    point = distance_profile(DA2, F22, SparsePoly.one(2), [2], method="exact")[0]
    assert not hasattr(point, "__dict__")
    assert pickle.loads(pickle.dumps(point)) == point
    moved = dataclasses.replace(point, m=3)
    assert (moved.m, moved.dist_sq) == (3, point.dist_sq)
    assert dataclasses.asdict(point)["dist_sq"] == point.dist_sq
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.m = 4


def test_cyclicity_profile_known_values():
    pts = cyclicity_profile(DA2, F22, [0, 2, 4], method="exact")
    assert pts[0].dist_sq == pytest.approx(2.0 / 3.0)
    assert pts[1].dist_sq == pytest.approx(8.0 / 15.0)
    assert pts[2].dist_sq == pytest.approx(16.0 / 35.0)
    for p in pts:
        assert p.min_pivot > 0
        assert p.path == "exact"


def test_residual_identity():
    sysm = assemble_gram(DA2, F22, SparsePoly.one(2), 4)
    res = optimal_approximant(sysm, method="exact")
    p = SparsePoly(2, dict(zip(res.basis, res.coefficients)))
    resid = SparsePoly.one(2) - p * F22
    assert norm_sq(DA2, resid) == res.dist_sq


def test_membership_orthogonal_case():
    # h orthogonal to every multiple of f: distance stays at ||h||^2
    sp = SpaceSpec.drury_arveson(2)
    f = SparsePoly(2, {(1, 0): 1})
    h = SparsePoly(2, {(0, 1): 1})
    pts = membership_profile(sp, h, f, 1, [0, 1, 2, 3])
    hn = float(norm_sq(sp, h))
    for p in pts:
        assert p.dist_sq == pytest.approx(hn, rel=1e-12)


def test_membership_contained_case():
    # h = f * q is reached once the cutoff covers deg q
    sp = H1
    f = ONE_MINUS_Z
    q = SparsePoly(1, {(0,): 1, (2,): Fraction(1, 3)})
    h = f * q
    pts = membership_profile(sp, h, f, 1, [0, 1, 2, 3])
    assert pts[-1].dist_sq <= 1e-14
    vals = [p.dist_sq for p in pts]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_hc_profile_matches_shifted_distance():
    # the n-th profile equals a plain distance profile with weight shift
    pts = hc_profile(SpaceSpec.alpha_scale(1, 4), ONE_MINUS_Z, 1, [0, 4, 8])
    assert all(p.dist_sq > 0 for p in pts)
    vals = [p.dist_sq for p in pts]
    assert vals == sorted(vals, reverse=True)


def test_finite_section_anchor_values():
    assert finite_section_mult_bound(H1, SparsePoly(1, {(1,): 1}), 6) == pytest.approx(1.0)
    c = SparsePoly(1, {(0,): Fraction(-7, 2)})
    assert finite_section_mult_bound(H1, c, 4) == pytest.approx(3.5)
    # coordinate shift is a contraction on the two-variable space
    z1 = SparsePoly(2, {(1, 0): 1})
    b = finite_section_mult_bound(DA2, z1, 6)
    assert b <= 1.0 + 1e-12
    bounds = [finite_section_mult_bound(H1, ONE_MINUS_Z, m) for m in (2, 4, 6, 8)]
    assert all(x <= y + 1e-12 for x, y in zip(bounds, bounds[1:]))
    assert all(x <= 2.0 + 1e-9 for x in bounds)


def test_finite_section_is_the_gram_section_eigenvalue():
    # both callers of the one Gram-entry routine must agree: the bound is the
    # top generalized eigenvalue of the float Gram matrix of {z^beta phi}
    # against the diagonal of monomial norms
    cases = [
        (DA2, F22),
        (DA2, SparsePoly(2, {(1, 0): 1, (0, 2): Fraction(-1, 3), (0, 0): 2})),
        (SpaceSpec.alpha_scale(1, 4), ONE_MINUS_Z ** 3),
        (SpaceSpec.alpha_scale(2, -1), SparsePoly(2, {(1, 0): 0.5, (0, 1): 0.25j, (2, 0): 1})),
    ]
    for space, phi in cases:
        for m in (0, 2, 5):
            basis = graded_monomials(space.d, m)
            D = np.diag([float(monomial_norm_sq(space, b)) for b in basis])
            top = scipy.linalg.eigh(approx._gram_matrix(space, phi, basis, approx._shifts(phi)), D, eigvals_only=True)[-1]
            assert finite_section_mult_bound(space, phi, m) == pytest.approx(math.sqrt(top), rel=1e-12, abs=1e-12)


def test_finite_section_entry_budget(monkeypatch):
    # the budget of the full section, at its boundary: DA_2 to degree 4 has 15
    # unknowns, 225 entries; past it nothing is built
    phi = SparsePoly(2, {(1, 0): 1, (0, 2): 1})
    monkeypatch.setattr(approx, "GRAM_ENTRY_BUDGET", 225)
    assert finite_section_mult_bound(DA2, phi, 4) == finite_section_mult_bound(DA2, phi, 4.0) > 1.0
    monkeypatch.setattr(approx, "GRAM_ENTRY_BUDGET", 224)
    monkeypatch.setattr(approx, "_gram_matrix", lambda *args, **kwargs: pytest.fail("built past the budget"))
    with pytest.raises(ValueError, match="finite section to degree 4 in 2 variables has 15 unknowns, 225 entries, "
                                         "over the budget of 224"):
        finite_section_mult_bound(DA2, phi, 4)


def test_finite_section_of_zero_is_zero():
    assert finite_section_mult_bound(DA2, SparsePoly.zero(2), 3) == 0.0


def test_finite_section_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        finite_section_mult_bound(SpaceSpec.alpha_scale(4, 0), SparsePoly(2, {(1, 0): 1}), 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        finite_section_mult_bound(DA2, ONE_MINUS_Z, 3)


def test_ratio_sweep_against_series_oracle():
    # p = 1 - z = (1-z), s = 1: h_r has coefficients 1, r-2, then
    # r^(n-2) (1-r)^2; sum the Besov weights directly
    sp = SpaceSpec.besov(3, 1, PointMassAtOne())
    p = SparsePoly(3, {(0, 0, 0): 1, (1, 0, 0): -1})

    def oracle(r, M):
        def w(n):
            if n == 0:
                return 1.0
            return 2.0 * n * n / ((n + 1) * (n + 2))

        total = w(0) * 1.0 + w(1) * (r - 2.0) ** 2
        for n in range(2, M + 1):
            total += w(n) * (r ** (n - 2) * (1.0 - r) ** 2) ** 2
        return total

    res = ratio_norm_sweep(sp, p, 1, 1, [0.9, 0.99], [64, 256, 1024])
    for row in res.rows:
        if row.accepted:
            assert row.norm_sq == pytest.approx(oracle(row.r, row.M), rel=1e-9)
    assert res.sup_norm_sq == pytest.approx(1.4039405116204102, rel=1e-6)
    assert res.tail_threshold == 1e-8
    accepted_rs = {row.r for row in res.rows if row.accepted}
    assert accepted_rs == {0.9, 0.99}


def test_ratio_sweep_refuses_negative_orders_and_empty_degree_grids():
    sp = SpaceSpec.besov(3, 1, PointMassAtOne())
    p = SparsePoly(3, {(0, 0, 0): 1, (1, 0, 0): -1})
    for s, k in [(-1, 1), (1, -1)]:
        with pytest.raises(ValueError, match="need s, k >= 0"):
            ratio_norm_sweep(sp, p, s, k, [0.9], [4])
    for M_grid in ([], [-1, 4]):
        with pytest.raises(ValueError, match="need a non-empty grid of truncation degrees >= 0"):
            ratio_norm_sweep(sp, p, 1, 1, [0.9], M_grid)


def test_gram_rejects_zero_f():
    with pytest.raises(ValueError):
        assemble_gram(H1, SparsePoly(1, {}), SparsePoly.one(1), 2)


@pytest.mark.parametrize("method", ["flaot", "exakt", "mpmath", "AUTO"])
def test_unknown_method_raises(method):
    with pytest.raises(ValueError, match="'auto', 'exact' or 'float'"):
        distance_profile(DA2, F22, SparsePoly.one(2), [0, 2], method=method)
    with pytest.raises(ValueError, match="'auto', 'exact' or 'float'"):
        distance_profile(DA2, F22, SparsePoly.one(2), [], method=method)
    with pytest.raises(ValueError, match="'auto', 'exact' or 'float'"):
        optimal_approximant(assemble_gram(DA2, F22, SparsePoly.one(2), 2), method=method)


def test_lower_degree_slice_reuses_system():
    full = optimal_approximant(assemble_gram(H1, ONE_MINUS_Z, SparsePoly.one(1), 6), method="exact")
    part = optimal_approximant(assemble_gram(H1, ONE_MINUS_Z, SparsePoly.one(1), 3), method="exact")
    assert part.degree == 3
    assert len(part.basis) == 4
    assert part.dist_sq > full.dist_sq


def test_float_path_holds_on_brutal_conditioning():
    # heavy negative weights, yet the Jacobi-prescaled Cholesky keeps every
    # pivot above the collapse threshold, so this stays on the float path
    # (test_float_path_refuses_collapsed_blocks reaches the refusal); the
    # float distance must be nonnegative and agree with the exact one
    sp = SpaceSpec.alpha_scale(1, -24)
    sysm = approx._system(sp, ONE_MINUS_Z, SparsePoly.one(1), 12, "float")
    res = optimal_approximant(sysm, method="float")
    assert res.dist_sq >= 0.0
    exact = optimal_approximant(
        assemble_gram(sp, ONE_MINUS_Z, SparsePoly.one(1), 12), method="exact"
    )
    assert res.dist_sq == pytest.approx(float(exact.dist_sq), rel=1e-6)


def test_float_rounding_below_zero_scales_with_g_norm():
    # g = c f, so dist^2 = 0; with ||g||^2 = 7141/3 the float difference
    # ||g||^2 - projection rounds to -1.36e-12 (3 ulps), and with g scaled
    # by 1000 to about -1e-6: both are rounding and read 0
    sp = SpaceSpec(d=1, kind="alpha", alpha=3)
    f = SparsePoly(1, {(2,): ComplexRational(6, 3)})
    for s in (1, 1000):
        g = SparsePoly(1, {(2,): ComplexRational(6 * s, Fraction(65 * s, 9))})
        assert [p.dist_sq for p in distance_profile(sp, f, g, range(3), method="float")] == [0.0] * 3
        assert optimal_approximant(approx._system(sp, f, g, 0, "float"), method="float").dist_sq == 0.0


def test_float_path_refuses_collapsed_blocks(monkeypatch):
    # the float-rounded 14 x 14 Hilbert matrix H, rhs H 1 and ||g||^2 = 1'H1 + 1,
    # so dist^2 = 1 on the whole block; H is indefinite once rounded: its
    # Cholesky fails at degree 13 and its scaled pivots collapse at degree
    # 12, so both blocks are refused, while degrees 0..11 keep their float
    # values.  Every block assembled here, approximant or profile, is the
    # leading block of H of its size
    base = approx._system(H1, ONE_MINUS_Z, SparsePoly.one(1), 13, "float")
    H = scipy.linalg.hilbert(14).astype(complex)
    ones = np.ones(14)
    g_norm_sq = float(ones @ H.real @ ones) + 1.0

    def hilbert_block(space, f, g, degree, basis, exact, shifts):
        k = len(basis)
        return dataclasses.replace(base, degree=degree, basis=tuple(basis), data=(H[:k, :k], (H @ ones)[:k]),
                                   g_norm_sq=g_norm_sq)

    monkeypatch.setattr(approx, "_gram_system", hilbert_block)

    def system(m):
        return approx._system(H1, ONE_MINUS_Z, SparsePoly.one(1), m, "float")

    with pytest.raises(ArithmeticError, match=r'degree 13 \(14 unknowns\) factors only 13 of them; use method="exact"'):
        optimal_approximant(system(13), method="float")
    with pytest.raises(ArithmeticError, match=r'degree 12 \(13 unknowns\) factors them, but .* use method="exact"'):
        optimal_approximant(system(12), method="float")
    res = optimal_approximant(system(11), method="float")
    assert (res.conditioning.path, res.dist_sq) == ("float", float.fromhex("0x1.ffffffffff660p-1"))
    pts = distance_profile(H1, ONE_MINUS_Z, SparsePoly.one(1), range(12), method="float")
    assert [p.path for p in pts] == ["float"] * 12
    assert pts[-1].dist_sq == res.dist_sq  # the same 12 x 12 block
    tol = 1e-12 * g_norm_sq
    for p in pts:
        assert p.dist_sq == pytest.approx(optimal_approximant(system(p.m), method="float").dist_sq, abs=tol)
    for top_degree in (12, 13):
        with pytest.raises(ArithmeticError, match=r"degree 12 \(13 unknowns\)"):
            distance_profile(H1, ONE_MINUS_Z, SparsePoly.one(1), range(top_degree + 1), method="float")


def test_nonpositive_diagonal_refused_from_its_index(monkeypatch):
    # G = diag(1, 1, -1): the float Cholesky stops before index 2, so the
    # degree-2 block is refused and the smaller ones keep their values
    base = approx._system(H1, ONE_MINUS_Z, SparsePoly.one(1), 2, "float")
    system = dataclasses.replace(base, data=(np.diag([1.0, 1.0, -1.0]).astype(complex), np.ones(3, dtype=complex)),
                                 g_norm_sq=3.0)
    monkeypatch.setattr(approx, "_gram_system", lambda *args, **kwargs: system)
    pts = distance_profile(H1, ONE_MINUS_Z, SparsePoly.one(1), range(2), method="float")
    assert [(p.path, p.dist_sq) for p in pts] == [("float", 2.0), ("float", 1.0)]
    with pytest.raises(ArithmeticError, match=r'degree 2 \(3 unknowns\) factors only 2 of them; use method="exact"'):
        distance_profile(H1, ONE_MINUS_Z, SparsePoly.one(1), range(3), method="float")


# the float profile of (1 - z)^12 against 1 in D_-4 over degrees 0..44,
# float.hex per degree: the Cholesky of the 61-unknown system to degree 60
# factors only its first 45 unknowns
D_MINUS4_FLOAT_PROFILE = (
    "0x1.ffb1fc58e8514p-1 0x1.fe529a2ae0294p-1 0x1.fad5eb6986cf8p-1 0x1.f43ed46291e25p-1 0x1.e9e9cedfbf13bp-1 "
    "0x1.dbae583261983p-1 0x1.c9d7682857227p-1 0x1.b502d9814c14fp-1 0x1.9df994acc18b6p-1 0x1.858ccb9dc1060p-1 "
    "0x1.6c7dad2878e7ep-1 0x1.536fe2d912e50p-1 0x1.3ae49cf729321p-1 0x1.233b47d1a5966p-1 0x1.0cb560fe2887dp-1 "
    "0x1.eef72f4eff228p-2 0x1.c74625a01f40ep-2 0x1.a2647f53ff242p-2 0x1.8049c8e0978b0p-2 0x1.60ded3c4fa9e6p-2 "
    "0x1.4402d36616022p-2 0x1.298f38b1d305cp-2 0x1.115a873f1c8f0p-2 0x1.f674b5f3bff74p-3 0x1.ce099b3cf9e98p-3 "
    "0x1.a922c43a027ccp-3 0x1.877324c0bab28p-3 0x1.68b2237240888p-3 0x1.4c9b95fed4bf8p-3 0x1.32ef2c6dc1e20p-3 "
    "0x1.1b6f3200553e8p-3 0x1.05de885391b78p-3 0x1.e3fbaf25aa078p-4 0x1.bf103f15206f8p-4 0x1.9c5e3a042aea8p-4 "
    "0x1.7b30beb31ddd8p-4 0x1.5ab99c7650670p-4 0x1.3a1dbd7651ba0p-4 0x1.18a411a7e0318p-4 0x1.ec6422a675650p-5 "
    "0x1.a87fb0e3144f0p-5 0x1.6d93efbdc1890p-5 0x1.463d7adbf41a0p-5 0x1.363ac539a65c0p-5 0x1.348520ae52030p-5"
)


def test_float_path_refuses_a_system_it_formed_itself():
    # no patched matrix: the package's own float Gram system of (1 - z)^12
    # in D_-4 is refused from degree 45 on, at once, where a second
    # factorization of the rounded blocks took seconds and returned values
    # up to 2.6 times the exact ones; below, the float values are unchanged
    sp, f = SpaceSpec.alpha_scale(1, -4), ONE_MINUS_Z ** 12
    t0 = time.perf_counter()
    with pytest.raises(ArithmeticError, match=r'degree 45 \(46 unknowns\) factors only 45 of them; use method="exact"'):
        distance_profile(sp, f, SparsePoly.one(1), range(61), method="float")
    assert time.perf_counter() - t0 < 0.1
    pts = distance_profile(sp, f, SparsePoly.one(1), range(45), method="float")
    assert [p.dist_sq.hex() for p in pts] == D_MINUS4_FLOAT_PROFILE.split()
    assert {p.path for p in pts} == {"float"}


def _chol_float_by_copies(G, c):
    """The float Cholesky with its scaled block and LAPACK input as copies."""
    dg = np.real(np.diag(G))
    n = int(np.argmin(np.append(dg > 0, False)))
    s = 1.0 / np.sqrt(dg[:n])
    Gs = G[:n, :n] * s[:, None] * s[None, :]
    while True:
        L, info = scipy.linalg.lapack.zpotrf(Gs[:n, :n], lower=1)
        if info == 0:
            break
        n = info - 1
    y = scipy.linalg.solve_triangular(L, c[:n] * s[:n], lower=True)
    return L, y, (np.diag(L).real ** 2).tolist(), (y.real ** 2 + y.imag ** 2).tolist(), s[:n]


def test_chol_float_in_place_equals_the_copying_formula():
    rng = np.random.default_rng(7)
    n = 40
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = A @ A.conj().T + 1e-3 * np.eye(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # the leading minor of order 21 fails: row and column 20 shrunk, so its
    # Schur complement is negative while its diagonal entry stays positive
    bad = G.copy()
    bad[20, :] *= 1e-3
    bad[:, 20] *= 1e-3
    bad[20, 20] = 1e-12
    for M, size in [(G, n), (bad, 20), (np.diag([1.0, 1.0, -1.0]).astype(complex), 2)]:
        got, want = approx._chol_float(M, c[:len(M)]), _chol_float_by_copies(M, c[:len(M)])
        assert len(got[2]) == size
        for a, b in zip(got, want):
            assert np.array_equal(np.asarray(a), np.asarray(b))


def test_profile_factors_the_top_block_once(monkeypatch):
    sizes = []
    for name in ("_ldl_exact", "_chol_float"):
        real = getattr(approx, name)
        monkeypatch.setattr(approx, name, lambda *args, real=real: sizes.append(len(args[0])) or real(*args))
    distance_profile(DA2, F22, SparsePoly.one(2), range(0, 9), method="exact")
    distance_profile(DA2, F22, SparsePoly.one(2), [0, 3, 6], method="float")
    assert sizes == [5, 4]


DA4 = SpaceSpec.drury_arveson(4)
F4 = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})


def _onevar_da4_dist_sq(m):
    """dist(1, {p (1 - 16 w) : deg p <= m})^2 in DA_4, w = z1 z2 z3 z4, from
    the one-variable model: the powers w^n are orthogonal with
    ||w^n||^2 = (n!)^4 / (4n)!, the tau image norm without its 4^(4n)
    scale, so only w^j f with 4j <= m meet the target, and the Gram matrix
    of those is tridiagonal with c = e_0.  dist^2 = 1 - (G^-1)_00, read
    from the continued fraction of G."""
    J = m // 4
    N = [embeddings.tkd_monomial_norm_sq(4, n) / 4 ** (4 * n) for n in range(J + 2)]
    s = N[J] + 256 * N[J + 1]
    for j in range(J - 1, -1, -1):
        s = N[j] + 256 * N[j + 1] - (16 * N[j + 1]) ** 2 / s
    return 1 - 1 / s


def test_reduced_da4_profile_equals_the_onevar_oracle():
    pts = cyclicity_profile(DA4, F4, [12, 100], method="exact")
    assert [p.dist_sq for p in pts] == [float(_onevar_da4_dist_sq(m)) for m in (12, 100)]
    assert [(p.unknowns, p.full_unknowns) for p in pts] == [(4, 1820), (26, math.comb(104, 4))]
    # auto chooses from the reachable size: 4 unknowns come out exact
    auto = cyclicity_profile(DA4, F4, range(0, 13, 2))
    assert {p.path for p in auto} == {"exact"}
    assert auto[-1].dist_sq == float(_onevar_da4_dist_sq(12))
    assert math.sqrt(auto[-1].dist_sq) == 0.9249292837973018


def test_paper_scale_da4_profile_never_lists_the_full_basis(monkeypatch):
    # the degree-400 basis would have C(404, 4) ~ 1.1e9 exponents
    def refuse(*args):
        raise AssertionError("the full basis was built")

    monkeypatch.setattr(approx, "graded_monomials", refuse)
    t0 = time.perf_counter()
    (pt,) = cyclicity_profile(DA4, F4, [400])
    assert time.perf_counter() - t0 < 2.0
    assert (pt.path, pt.unknowns, pt.full_unknowns) == ("exact", 101, math.comb(404, 4))
    assert pt.dist_sq == float(_onevar_da4_dist_sq(400))
    assert math.sqrt(pt.dist_sq) == 0.890665365512072


def test_float_path_refuses_subnormal_weights():
    # ||(z1 z2 z3 z4)^n||^2 = (n!)^4/(4n)! leaves the normal float range at
    # n = 130 (9.9e-310), which the float system of 1 - 16 z1z2z3z4 needs from
    # m = 516 on; at m = 540 it read 0.7911240707354159, 1.5e-5 relative
    # off, and at m = 544 it raised a clamp error.  auto takes the float path
    # there (more than 128 reachable unknowns), and the exact path serves
    for m in (540, 544):
        for method in ("float", "auto"):
            with pytest.raises(ArithmeticError, match=rf"z\^\(130, 130, 130, 130\)\|\|\^2 = 9\.9312e-310 \(degree 520\)"
                                                      rf".* to degree {m} .*method=\"exact\""):
                cyclicity_profile(DA4, F4, [m], method=method)
    (ex,) = cyclicity_profile(DA4, F4, [540], method="exact")
    assert ex.dist_sq == float(_onevar_da4_dist_sq(540)) == 0.7911123925458918
    # the last weights in range still give the exact value to rounding
    (flt,) = cyclicity_profile(DA4, F4, [508], method="float")
    (ex,) = cyclicity_profile(DA4, F4, [508], method="exact")
    assert (flt.path, ex.path, flt.unknowns) == ("float", "exact", 128)
    assert flt.dist_sq == pytest.approx(ex.dist_sq, rel=0, abs=1e-12)


def test_exact_results_survive_pickle_and_deepcopy():
    res = optimal_approximant(assemble_gram(DA2, F22, SparsePoly.one(2), 4), method="exact")
    flt = optimal_approximant(approx._system(DA2, F22, SparsePoly.one(2), 4, "float"), method="float")
    assert res.exact and any(res.coefficients) and not flt.exact
    for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        again = clone(res)
        assert again == res and type(again.dist_sq) is Fraction
        assert all(type(c) is ComplexRational for c in again.coefficients)
        assert clone(res.polynomial(2)) == res.polynomial(2) == again.polynomial(2)
        assert clone(F22).terms == F22.terms and clone(F22.to_float()).terms == F22.to_float().terms
        assert clone(flt).dist_sq == flt.dist_sq and np.array_equal(clone(flt).coefficients, flt.coefficients)


def _ldl_pairs(G, c):
    """LDL* with L y = c on (re, im) pairs of Fractions, the textbook loop:
    the oracle of _ldl_exact.  Returns (L, y, D, gains) as pairs."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def sub(x, y):
        return x[0] - y[0], x[1] - y[1]

    def conj(x):
        return x[0], -x[1]

    zero = (Fraction(0), Fraction(0))
    n = len(c)
    L = [[zero] * n for _ in range(n)]
    D, y = [], []
    for i in range(n):
        acc, yi = G[i][i], c[i]
        for k in range(i):
            if L[i][k] != zero:
                acc = sub(acc, mul(mul(L[i][k], conj(L[i][k])), (D[k], 0)))
                yi = sub(yi, mul(L[i][k], y[k]))
        assert acc[1] == 0 and acc[0] > 0
        D.append(acc[0])
        y.append(yi)
        for j in range(i + 1, n):
            s = G[j][i]
            for k in range(i):
                if L[i][k] != zero:
                    s = sub(s, mul(mul(L[j][k], conj(L[i][k])), (D[k], 0)))
            L[j][i] = (s[0] / D[i], s[1] / D[i])
    return L, y, D, [(v[0] ** 2 + v[1] ** 2) / d for v, d in zip(y, D)]


def _rows(G, c):
    """The upper rows of [G | c] that _ldl_exact factors, from nested lists
    of exact scalars: row i holds the numerators of G[i][i:] and c[i] over
    their least common denominator, the conversion _ldl_exact made of its
    input before the Gram assembly built the rows."""
    rows = []
    for i in range(len(c)):
        parts = [exact_parts(x) for x in G[i][i:]] + [exact_parts(c[i])]
        den = math.lcm(*(d for _, _, d in parts))
        rows.append(([a * (den // d) for a, _, d in parts], [b * (den // d) for _, b, d in parts], den))
    return rows


def _assert_ldl_equals_the_pair_oracle(G, c, rows=None):
    """_ldl_exact of rows (by default the adapter's rows of G and c) against
    the pair oracle on G and c."""
    def pair(x):
        return x.re, x.im

    if rows is None:
        rows = _rows(G, c)
    assert rows == _rows(G, c)
    U, D, gains = approx._ldl_exact(rows)
    L0, y0, D0, gains0 = _ldl_pairs([[pair(x) for x in row] for row in G], [pair(x) for x in c])
    assert D == D0 and gains == gains0
    assert all(type(v) is Fraction for v in D + gains)
    n = len(c)
    # row i of U = D L* holds the numerators of U[i][i:] and y_i over one
    # denominator, so L[j][i] = conj(U[i][j]) / D[i]
    assert [(len(re), len(im)) for re, im, _ in U] == [(n - i + 1,) * 2 for i in range(n)]
    assert [Fraction(re[0], den) for re, _, den in U] == D
    assert [(Fraction(re[-1], den), Fraction(im[-1], den)) for re, im, den in U] == y0
    L = [[(Fraction(U[i][0][j - i], U[i][2]) / D[i], -Fraction(U[i][1][j - i], U[i][2]) / D[i]) for i in range(j)]
         for j in range(n)]
    assert L == [L0[j][:j] for j in range(n)]


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (4, 2), (7, 3), (12, 4)])
def test_ldl_exact_equals_the_fraction_pair_oracle_on_dense_systems(n, seed):
    # G = B B* + I: Hermitian positive definite, every entry nonzero
    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    B = [[ComplexRational(rational(), rational()) for _ in range(n)] for _ in range(n)]
    G = [[sum((B[i][k] * B[j][k].conjugate() for k in range(n)), ComplexRational(int(i == j))) for j in range(n)]
         for i in range(n)]
    c = [ComplexRational(rational(), rational()) for _ in range(n)]
    _assert_ldl_equals_the_pair_oracle(G, c)


def test_ldl_exact_equals_the_fraction_pair_oracle_on_the_da4_system():
    # 101 banded unknowns at m = 400 whose weights run down to 1e-236: pivots
    # of hundreds of digits
    one = SparsePoly.one(4)
    system = approx._gram_system(DA4, F4, one, 400, approx._reachable(F4, one, 400, shifts := approx._shifts(F4)), True, shifts)
    assert len(system.basis) == 101
    # the rows' one global denominator is about 1065 bits before each row
    # divides out its content
    _assert_ldl_equals_the_pair_oracle(system.matrix, system.rhs, system.data)


def _bits(res):
    """An ApproximantResult with its floats as their bytes, so that == on it
    is bit for bit."""
    if res.exact:
        return res
    return dataclasses.replace(res, dist_sq=res.dist_sq.hex(),
                               coefficients=np.asarray(res.coefficients, dtype=complex).tobytes())


_DA2_F = SparsePoly(2, {(0, 0): 1, (2, 1): Fraction(-3, 2), (1, 0): ComplexRational(1, -2)})
_DA2_G = SparsePoly(2, {(0, 0): ComplexRational(Fraction(2, 3), 5), (1, 1): Fraction(1, 7)})


@pytest.mark.parametrize("space, f, g, top", [
    (DA4, F4, SparsePoly.one(4), 120),
    (SpaceSpec.alpha_scale(1, -4), ONE_MINUS_Z ** 12, SparsePoly.one(1), 30),
    (DA2, _DA2_F, _DA2_G, 5),
    (DA2, _DA2_F.to_float(), _DA2_G, 5),
    (SpaceSpec.alpha_scale(2, 0.5), _DA2_F, _DA2_G.to_float(), 5),
])
def test_a_solve_to_each_degree_equals_the_solve_of_that_system(space, f, g, top):
    # optimal_approximant of a system stored on either path equals, bit for
    # bit, the solve of the same basis assembled on the solve's path; an
    # exact solve of a float-stored system of exact inputs assembles exact
    # rows.  The system assembled to degree m over the degree-m prefix of
    # the basis, the block a profile reads at m, is the leading block of the
    # whole system: the rows of the leading part of G and c (exact), or its
    # bits (float)
    paths = ("exact", "float") if space.is_exact and f.is_exact() and g.is_exact() else ("float",)
    for stored in paths:
        system = approx._system(space, f, g, top, stored)
        sizes = system.block_sizes()
        assert sizes[top] == len(system.basis) > sizes[0]
        for path in paths:
            whole = approx._gram_system(space, f, g, top, system.basis, path == "exact", approx._shifts(f))
            res = optimal_approximant(system, method=path)
            assert _bits(res) == _bits(optimal_approximant(whole, method=path)), (stored, path)
            assert res.conditioning.path == path
        for m in range(top + 1):
            k = sizes[m]
            block = approx._gram_system(space, f, g, m, system.basis[:k], stored == "exact", approx._shifts(f))
            if stored == "exact":
                assert block.data == _rows([row[:k] for row in system.matrix[:k]], system.rhs[:k])
            else:
                assert block.matrix.tobytes() == system.matrix[:k, :k].tobytes()
                assert block.rhs.tobytes() == system.rhs[:k].tobytes()


def _dense_complex_poly(rng, d, degree):
    """A Gaussian-rational coefficient with nonzero real and imaginary parts
    on every monomial of degree <= degree."""
    def rational():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    return SparsePoly(d, {b: ComplexRational(rational(), rational()) for b in graded_monomials(d, degree)})


@pytest.mark.parametrize("d, m, seed", [(1, 8, 0), (2, 4, 1), (2, 6, 2), (3, 2, 3)])
def test_ldl_exact_equals_the_fraction_pair_oracle_on_complex_gram_systems(d, m, seed):
    rng = random.Random(seed)
    space = SpaceSpec.drury_arveson(d)
    f, g = _dense_complex_poly(rng, d, 2), _dense_complex_poly(rng, d, 2)
    system = approx._gram_system(space, f, g, m, approx._reachable(f, g, m, shifts := approx._shifts(f)), True, shifts)
    assert len(system.basis) == math.comb(d + m, d)
    assert any(not x.is_real for row in system.matrix for x in row) and any(not x.is_real for x in system.rhs)
    _assert_ldl_equals_the_pair_oracle(system.matrix, system.rhs, system.data)


@pytest.mark.parametrize("m", [12, 30, 60])
def test_ldl_exact_equals_the_fraction_pair_oracle_on_the_d_minus4_system(m):
    # (1 - z)^12 in D_-4: 25 diagonals, and past m = 44 more unknowns than
    # the float Cholesky factors
    sp, f, one = SpaceSpec.alpha_scale(1, -4), ONE_MINUS_Z ** 12, SparsePoly.one(1)
    system = approx._gram_system(sp, f, one, m, approx._reachable(f, one, m, shifts := approx._shifts(f)), True, shifts)
    assert len(system.basis) == m + 1
    _assert_ldl_equals_the_pair_oracle(system.matrix, system.rhs, system.data)


def _crs(*xs):
    """ComplexRational of each (re, im) pair or real x."""
    return [ComplexRational(*x) if isinstance(x, tuple) else ComplexRational(x) for x in xs]


@pytest.mark.parametrize("G, c, message", [
    ([_crs(1, 2), _crs(2, 1)], _crs(1, 0), "pivot 1 is not real positive: ComplexRational(-3)"),
    ([_crs(2, (1, 1)), _crs((1, -1), 1)], _crs(1, 1), "pivot 1 is not real positive: ComplexRational(0)"),
    ([_crs(1, (1, 1), 0), _crs((1, -1), 3, 1), _crs(0, 1, 0)], _crs(0, 1, 1),
     "pivot 2 is not real positive: ComplexRational(-1)"),
    ([_crs(4, (Fraction(1, 2), 1), 1), _crs((Fraction(1, 2), -1), Fraction(1, 3), (0, 2)), _crs(1, (0, -2), 5)],
     _crs(1, 1, 1), "pivot 2 is not real positive: ComplexRational(-239)"),
])
def test_ldl_exact_refuses_an_indefinite_system_at_its_first_bad_pivot(G, c, message):
    # Hermitian but not positive definite: the index and the value of the
    # first pivot that is not real positive, as the rational LDL* reported
    # them
    with pytest.raises(ArithmeticError) as info:
        approx._ldl_exact(_rows(G, c))
    assert str(info.value) == message
    with pytest.raises(AssertionError):
        _ldl_pairs([[(x.re, x.im) for x in row] for row in G], [(x.re, x.im) for x in c])


@pytest.mark.parametrize("d, m, seed", [(1, 10, 4), (2, 4, 5), (3, 3, 6)])
def test_exact_coefficients_solve_the_dense_complex_system(d, m, seed):
    # G a = c and dist^2 = ||g||^2 - c* a, both with ==, on the full system
    rng = random.Random(seed)
    space = SpaceSpec.drury_arveson(d)
    f, g = _dense_complex_poly(rng, d, 2), _dense_complex_poly(rng, d, 2)
    system = assemble_gram(space, f, g, m)
    res = optimal_approximant(system, method="exact")
    a = res.coefficients
    assert res.exact and res.conditioning.unknowns == len(a) == math.comb(d + m, d)
    assert sum(not x.is_real for x in a) > len(a) // 2
    zero = ComplexRational()
    assert [sum((x * y for x, y in zip(row, a)), zero) for row in system.matrix] == list(system.rhs)
    assert system.g_norm_sq - sum((ci.conjugate() * ai for ci, ai in zip(system.rhs, a)), zero) == res.dist_sq


def test_target_orthogonal_to_every_multiple_has_no_unknowns():
    # <z2, z^beta z1> = 0 for every beta: nothing is reachable, the distance
    # is ||g||^2 at every degree, and the empty block reports the empty
    # minimum and maximum as its pivots
    f, g = SparsePoly(2, {(1, 0): 1}), SparsePoly(2, {(0, 1): 3})
    gn = norm_sq(DA2, g)
    for method in ("auto", "exact", "float"):
        pts = distance_profile(DA2, f, g, range(4), method=method)
        assert [(p.dist_sq, p.min_pivot, p.unknowns) for p in pts] == [(float(gn), math.inf, 0)] * 4
    system = assemble_gram(DA2, f, g, 3)
    assert system.data == system.matrix == system.rhs == []
    # over the full basis every row of the exact system has c[i] = 0, as
    # the oracles have, and so does a zero target
    basis = graded_monomials(2, 3)
    for target in (g, SparsePoly.zero(2)):
        full = approx._gram_system(DA2, f, target, 3, basis, True, approx._shifts(f))
        assert all(re[-1] == im[-1] == 0 for re, im, _ in full.data)
        _assert_gram_rows_equal_oracle(DA2, f, target, 3, basis)
    res = optimal_approximant(system)
    assert res.dist_sq == gn and res.exact
    assert res.basis == () == res.coefficients
    assert (res.conditioning.min_pivot, res.conditioning.max_pivot) == (math.inf, 0.0)
    assert (res.conditioning.unknowns, res.conditioning.full_unknowns) == (0, 10)


def test_zero_filled_residual_is_orthogonal_to_the_full_basis():
    # f and g touch only part of the DA_3 difference graph; the approximant
    # has terms only inside it (the coefficients outside are 0), yet the
    # residual is exactly orthogonal to z^beta f for every beta of the full
    # basis, and its norm is the distance
    space = SpaceSpec.drury_arveson(3)
    f = SparsePoly(3, {(0, 0, 0): 1, (1, 1, 0): Fraction(-3, 2), (0, 0, 2): ComplexRational(0, 1)})
    g = SparsePoly(3, {(0, 0, 0): 2, (1, 0, 0): Fraction(1, 3)})
    for m in (2, 4):
        res = optimal_approximant(assemble_gram(space, f, g, m), method="exact")
        assert len(res.basis) == res.conditioning.unknowns < res.conditioning.full_unknowns == math.comb(3 + m, 3)
        r = g - res.polynomial(3) * f
        assert norm_sq(space, r) == res.dist_sq
        for beta in graded_monomials(3, m):
            assert inner_product(space, r, SparsePoly.monomial(3, beta) * f) == 0


def _gram_by_dictionary(space, f, basis, exact):
    """Oracle: the Gram matrix by the per-column dictionary loop that the
    numpy index replaced.  Each entry is summed from 0 in (delta, eps) order,
    so the float matrix is bitwise the one the library must produce."""
    cast, weight = path_casts(exact)
    zero = cast(0)
    fitems = [(delta, cast(c)) for delta, c in f.terms.items()]
    pairs = [(delta, [(tuple(map(sub, delta, eps)), cd * ce.conjugate()) for eps, ce in fitems])
             for delta, cd in fitems]
    index = {b: i for i, b in enumerate(basis)}
    n = len(basis)
    G = [[ComplexRational()] * n for _ in range(n)] if exact else np.zeros((n, n), dtype=complex)
    for j, bj in enumerate(basis):
        col = {}
        for delta, row in pairs:
            w = weight(monomial_norm_sq(space, tuple(map(add, bj, delta))))
            for shift, p in row:
                # exponents off the basis (negative or past the degree) miss the index
                i = index.get(tuple(map(add, bj, shift)))
                if i is not None:
                    col[i] = col.get(i, zero) + p * w
        for i, v in col.items():
            G[i][j] = v
    return G


def _rhs_by_dictionary(space, f, g, basis, exact):
    """Oracle: c[i] = <g, z^(beta_i) f> by a per-row dictionary loop, each
    entry summed from 0 in the order of the terms of f, the (delta, eps)
    order in which the library sums the pairs of terms of f and g."""
    cast, weight = path_casts(exact)
    fconj = [(delta, cast(c).conjugate()) for delta, c in f.terms.items()]
    gterms = {b: cast(c) for b, c in g.terms.items()}
    c = [cast(0)] * len(basis)
    for i, bi in enumerate(basis):
        for delta, cd in fconj:
            prod = tuple(map(add, bi, delta))
            cg = gterms.get(prod)
            if cg is not None:
                c[i] = c[i] + cg * cd * weight(monomial_norm_sq(space, prod))
    return c if exact else np.array(c, dtype=complex)


def _assert_gram_rows_equal_oracle(space, f, g, degree, basis):
    """The exact system's rows are the adapter's rows of the dictionary
    oracles, and its matrix and rhs, formed from them, are the oracles
    themselves, ComplexRational entries included."""
    system = approx._gram_system(space, f, g, degree, basis, True, approx._shifts(f))
    G, c = _gram_by_dictionary(space, f, basis, True), _rhs_by_dictionary(space, f, g, basis, True)
    assert system.data == _rows(G, c)
    assert system.matrix == G and system.rhs == c
    assert {type(x) for row in system.matrix for x in row} | {type(x) for x in system.rhs} <= {ComplexRational}


def _assert_gram_equals_oracle(space, f, basis):
    # g = 1 + f^2 puts several terms of f on the rows beta = eps of the
    # right-hand side, so its summation order shows
    g = SparsePoly.one(space.d) + f * f
    degree = max((sum(b) for b in basis), default=0)
    if space.is_exact and f.is_exact():
        _assert_gram_rows_equal_oracle(space, f, g, degree, basis)
    G = approx._gram_matrix(space, f, basis, approx._shifts(f))
    assert G.dtype == complex and G.flags.c_contiguous
    assert np.array_equal(G, _gram_by_dictionary(space, f, basis, False))
    # bitwise, once signed zeros are normalised
    c = approx._gram_system(space, f, g, degree, basis, False, approx._shifts(f)).rhs
    assert (c + 0.0).tobytes() == (_rhs_by_dictionary(space, f, g, basis, False) + 0.0).tobytes()


GRAM_CASES = [
    # integer alpha, d = 1 to 4
    (SpaceSpec.alpha_scale(1, 3), ONE_MINUS_Z ** 3, 6),
    (DA2, SparsePoly(2, {(0, 0): 1, (2, 1): Fraction(-3, 2), (1, 0): ComplexRational(1, -2)}), 4),
    (SpaceSpec.drury_arveson(3), SparsePoly(3, {(0, 0, 0): 2, (1, 1, 0): ComplexRational(0, 1), (0, 0, 2): -1}), 3),
    (SpaceSpec.drury_arveson(4), SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16, (0, 2, 0, 1): Fraction(1, 3)}), 3),
    # negative alpha, exact and float
    (SpaceSpec.alpha_scale(2, -1), SparsePoly(2, {(1, 0): Fraction(1, 2), (0, 1): ComplexRational(1, 3), (2, 0): 1}), 4),
    (SpaceSpec.alpha_scale(3, -1.5), SparsePoly(3, {(0, 0, 0): 1, (0, 1, 2): -0.75j}), 3),
    # fractional alpha: the float path only
    (SpaceSpec.alpha_scale(2, Fraction(1, 2)), SparsePoly(2, {(0, 0): 1, (1, 1): -2, (0, 3): 0.5}), 5),
    (SpaceSpec.alpha_scale(1, 2.5), SparsePoly(1, {(0,): 1.5 - 0.5j, (2,): -1, (3,): 0.125}), 7),
    # Besov spaces
    (SpaceSpec.besov(2, 1, NormalizedVolume(2)), SparsePoly(2, {(0, 0): 1, (1, 2): Fraction(-5, 7)}), 4),
    (SpaceSpec.besov(3, 1, PointMassAtOne()), SparsePoly(3, {(1, 0, 0): 1, (0, 1, 1): ComplexRational(2, 1)}), 3),
    # one-term f: every shift is 0
    (DA2, SparsePoly(2, {(1, 2): ComplexRational(3, -1)}), 4),
    (SpaceSpec.alpha_scale(1, 0.5), SparsePoly(1, {(2,): -0.25}), 5),
]


@pytest.mark.parametrize("space, f, m", GRAM_CASES)
def test_gram_matrix_equals_the_dictionary_loop(space, f, m, monkeypatch):
    # with two or more terms, shifts delta - eps lead from the basis below 0
    # and past degree m, where no row is found; the budgets put the blocks
    # at one column (a budget under one column's pairs), at three columns
    # with a partial last block, and at the default
    basis = graded_monomials(space.d, m)
    reach = approx._reachable(f, SparsePoly.one(space.d), m, approx._shifts(f))
    npairs = len(f.terms) ** 2
    for budget in (1, 3 * max(npairs, len(basis)), approx.GRAM_BLOCK_ENTRIES):
        monkeypatch.setattr(approx, "GRAM_BLOCK_ENTRIES", budget)
        _assert_gram_equals_oracle(space, f, basis)
        _assert_gram_equals_oracle(space, f, reach)
    if space.is_exact and f.is_exact():
        _assert_gram_rows_equal_oracle(space, f, SparsePoly.one(space.d), 0, [])
    zero = SparsePoly.zero(space.d)
    assert approx._gram_matrix(space, zero, basis, approx._shifts(zero)).shape == (len(basis), len(basis))


def test_a_gram_system_runs_one_pairing(monkeypatch):
    # G takes the one pairing of f with itself; c is read off the pairs of
    # terms of f and g, and a zero g gives c = 0 on both paths
    space, f, m = GRAM_CASES[1]
    basis = graded_monomials(space.d, m)
    calls = []
    pairing = approx._pairing
    monkeypatch.setattr(approx, "_pairing", lambda *args: calls.append(args) or pairing(*args))
    for exact in (True, False):
        for g in (SparsePoly.one(space.d) + f * f, SparsePoly.zero(space.d)):
            calls.clear()
            system = approx._gram_system(space, f, g, m, basis, exact, approx._shifts(f))
            assert len(calls) == 1
            if g.is_zero():
                assert list(system.rhs) == [0] * len(basis)


def test_a_gram_system_dedups_the_shifts_once(monkeypatch):
    # the walk and the pairing of one system share one dedup of the shifts
    # delta - eps, on both paths
    space, f, m = GRAM_CASES[1]
    calls = []
    shifts = approx._shifts
    monkeypatch.setattr(approx, "_shifts", lambda f: calls.append(f) or shifts(f))
    for method in ("exact", "float"):
        calls.clear()
        system = approx._system(space, f, SparsePoly.one(space.d) + f, m, method)
        assert calls == [f] and system.exact == (method == "exact") and len(system.basis) > 1


def _past_int64_generator():
    d = 23
    return SparsePoly(d, {(0,) * d: 1, **{tuple(6 * (k == i) for k in range(d)): Fraction(-1, i + 2) for i in range(d)}})


def test_gram_matrix_codes_past_int64():
    # radix 1 + 6 + 1 = 8 in each of 23 variables: the place value of z_1 is
    # 8^22 = 2^66, so the codes take Python integers
    f = _past_int64_generator()
    _assert_gram_equals_oracle(SpaceSpec.drury_arveson(f.dim), f, graded_monomials(f.dim, 1))


def _pairing_by_all_pairs(f, basis):
    """Oracle: ``_pairing`` as it was before it searched each distinct shift
    once, a search of every pair (delta, eps) of terms of f for every
    column, with the same blocks; the blocks as a list."""
    n, d, nf = len(basis), f.dim, len(f.terms)
    B, F = approx._exponents(basis, d), approx._exponents(f.terms, d)
    code = approx._coder(B.max(axis=0) + F.max(axis=0) + 1)
    col_codes = code(B)
    order = np.argsort(col_codes)
    sorted_codes = col_codes[order]
    shift_codes = code((F[:, None, :] - F[None, :, :]).reshape(-1, d))
    shifted = (B[:, None, :] + F[None, :, :]).reshape(-1, d)
    _, first, weight_of = np.unique(code(shifted), return_index=True, return_inverse=True)
    blocks = []
    step = max(1, min(approx.GRAM_BLOCK_ENTRIES // len(shift_codes), approx.GRAM_BLOCK_ENTRIES // n))
    for j0 in range(0, n, step):
        j1 = min(j0 + step, n)
        cand = col_codes[j0:j1, None] + shift_codes[None, :]
        pos = np.minimum(np.searchsorted(sorted_codes, cand), n - 1)
        cols, pairs = np.nonzero(sorted_codes[pos] == cand)
        found = order[pos[cols, pairs]]
        blocks.append((j0, j1, found, cols, pairs, weight_of[found * nf + pairs % nf]))
    return shifted[first], blocks


def _sum_power_generator():
    """1 - (z1 + z2 + z3 + z4)^4 / 16: 36 terms, 1296 pairs over 379 shifts."""
    s = SparsePoly(4, {tuple(int(i == k) for k in range(4)): 1 for i in range(4)})
    return SparsePoly.one(4) - s ** 4 * Fraction(1, 16)


@pytest.mark.parametrize("space, f, m", [
    # a dense degree-2 f: every coefficient of degree <= 2 nonzero
    (SpaceSpec.drury_arveson(3), SparsePoly(3, {b: Fraction(i + 1, 7) for i, b in enumerate(graded_monomials(3, 2))}), 4),
    (SpaceSpec.drury_arveson(4), _sum_power_generator(), 6),
    (DA2, SparsePoly(2, {(1, 2): ComplexRational(3, -1)}), 4),  # one term: the one shift is 0
    (SpaceSpec.drury_arveson(23), _past_int64_generator(), 1),  # codes past int64
])
def test_pairing_equals_the_all_pairs_search(space, f, m, monkeypatch):
    # the same arrays, element for element and in order, with the shifts
    # the walk takes, at the budgets of
    # test_gram_matrix_equals_the_dictionary_loop
    nf = len(f.terms)
    shifts = approx._shifts(f)
    _, S, shift_of = shifts
    assert len(shift_of) == nf * nf and (len(S) < nf * nf or nf == 1)
    reach = approx._reachable(f, SparsePoly.one(space.d), m, shifts)
    for basis in filter(None, (graded_monomials(space.d, m), reach)):  # a one-term f reaches nothing
        for budget in (1, 3 * max(nf * nf, len(basis)), approx.GRAM_BLOCK_ENTRIES):
            monkeypatch.setattr(approx, "GRAM_BLOCK_ENTRIES", budget)
            want_exps, want = _pairing_by_all_pairs(f, basis)
            exps, blocks = approx._pairing(f, basis, shifts)
            assert exps.dtype == want_exps.dtype and np.array_equal(exps, want_exps)
            got = list(blocks)
            assert len(got) == len(want) > 0
            for (j0, j1, *arrays), (k0, k1, *oracle) in zip(got, want):
                assert (j0, j1) == (k0, k1)
                for a, b in zip(arrays, oracle):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


def _reachable_by_sets(f, g, degree):
    """Oracle: the walk on Python sets of exponent tuples that the coded
    walk replaced, sorted into graded lex order by a Python key."""
    d = f.dim
    F = np.array(list(f.terms), dtype=np.int64).reshape(-1, d)
    Gx = np.array(list(g.terms), dtype=np.int64).reshape(-1, d)
    shifts = {tuple(map(sub, delta, eps)) for delta in f.terms for eps in f.terms if delta != eps}
    S = np.array(sorted(shifts), dtype=np.int64).reshape(-1, d)

    def inside(B):
        return map(tuple, B[(B.min(axis=1) >= 0) & (B.sum(axis=1) <= degree)].tolist())

    seen: set = set()
    new = set(inside((Gx[:, None, :] - F[None, :, :]).reshape(-1, d)))
    while new:
        seen |= new
        frontier = np.array(list(new), dtype=np.int64).reshape(-1, d)
        new = set(inside((frontier[:, None, :] + S[None, :, :]).reshape(-1, d))) - seen
    return sorted(seen, key=lambda b: (sum(b), [-e for e in b]))


def _reachable_by_components(f, g, degree):
    """Brute force: the connected components of the Gram pattern over the
    full basis (beta_i - beta_j a difference of two exponents of f) that
    meet the right-hand side (beta + delta an exponent of g), in basis
    order."""
    basis = graded_monomials(f.dim, degree)
    shifts = {tuple(map(sub, delta, eps)) for delta in f.terms for eps in f.terms}
    edges = [(i, j) for i, bi in enumerate(basis) for j, bj in enumerate(basis) if tuple(map(sub, bi, bj)) in shifts]
    rows, cols = zip(*edges)
    pattern = scipy.sparse.csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(len(basis), len(basis)))
    _, labels = connected_components(pattern, directed=False)
    met = {labels[i] for i, b in enumerate(basis) if any(tuple(map(add, b, delta)) in g.terms for delta in f.terms)}
    return [b for b, label in zip(basis, labels) if label in met]


@pytest.mark.parametrize("space, f, m", GRAM_CASES)
def test_reachable_equals_the_set_walk_and_the_components(space, f, m):
    for g in (SparsePoly.one(space.d), SparsePoly.one(space.d) + f * f):
        reach = approx._reachable(f, g, m, approx._shifts(f))
        assert reach == _reachable_by_sets(f, g, m) == _reachable_by_components(f, g, m)


def test_reachable_equals_the_set_walk_at_scale():
    # the rotated DA_4 walk (656 exponents), the paper-scale DA_4 walk, the
    # long thin D_4 hierarchy walks, and a walk whose codes pass int64:
    # radix 13 in 24 digits (the slack and 23 variables), 13^24 > 2^62
    one4 = SparsePoly.one(4)
    big = _past_int64_generator()
    assert 13 ** 24 >= 1 << 62
    cases = [
        (_rotated_da4_generator(), one4, 12),
        (_rotated_da4_generator(), one4 + SparsePoly(4, {(1, 0, 2, 0): 3}), 8),
        (F4, one4, 400),
        (ONE_MINUS_Z ** 2, ONE_MINUS_Z, 200),
        (ONE_MINUS_Z ** 3, ONE_MINUS_Z ** 2, 200),
        (big, SparsePoly.one(big.dim), 12),
    ]
    for f, g, m in cases:
        assert approx._reachable(f, g, m, approx._shifts(f)) == _reachable_by_sets(f, g, m)
    assert len(approx._reachable(big, SparsePoly.one(big.dim), 12, approx._shifts(big))) == 1 + 23 + 23 * 24 // 2


def test_bad_degrees_raise_value_error():
    one = SparsePoly.one(2)
    for bad in (-1, 2.5, math.inf, math.nan, "2"):
        with pytest.raises(ValueError, match="degree"):
            assemble_gram(DA2, F22, one, bad)
        with pytest.raises(ValueError, match="degree"):
            finite_section_mult_bound(DA2, F22, bad)
        with pytest.raises(ValueError, match="degree"):
            distance_profile(DA2, F22, one, [0, bad])
    # integral values of other types are degrees
    assert [p.m for p in distance_profile(DA2, F22, one, [2.0, np.int64(0)])] == [0, 2]
    assert optimal_approximant(assemble_gram(DA2, F22, one, Fraction(2))).dist_sq == Fraction(8, 15)


def test_bool_degrees_are_refused():
    # True is an int, but not a degree
    one = SparsePoly.one(2)
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"a degree must be an integer >= 0, not {bad}"):
            assemble_gram(DA2, F22, one, bad)
        with pytest.raises(ValueError, match="degree"):
            distance_profile(DA2, F22, one, [0, bad])


def _rotated_da4_generator():
    """1 - 16 w1 w2 w3 w4 with w = z U, U the rational Householder reflection
    I - v v^T / 15, v = (1, 2, 3, 4): 36 terms, a dense generator."""
    v = (1, 2, 3, 4)
    f = SparsePoly.one(4) * -16
    for k in range(4):
        col = {tuple(int(i == j) for j in range(4)): Fraction(int(i == k) * 15 - v[i] * v[k], 15) for i in range(4)}
        f = f * SparsePoly(4, col)
    return SparsePoly.one(4) + f


def test_gram_assembly_memory_is_bounded():
    # the rotated DA_4 system at m = 12: 656 reachable columns, 1296 pairs
    # of terms each; G itself is 6.9 MB, and blocks of GRAM_BLOCK_ENTRIES
    # candidates keep the index arrays to a few MB on top of it
    f = _rotated_da4_generator()
    assert len(f.terms) == 36
    basis = approx._reachable(f, SparsePoly.one(4), 12, approx._shifts(f))
    n = len(basis)
    assert n == 656
    tracemalloc.start()
    try:
        G = approx._gram_matrix(DA4, f, basis, approx._shifts(f))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.nbytes == 16 * n * n
    assert peak < G.nbytes + 8e6


if HAVE_HYPOTHESIS:

    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_dist_sq_between_zero_and_g_norm(coeffs, m):
        f = SparsePoly(1, {(i,): c for i, c in enumerate(coeffs) if c != 0})
        if not f.terms:
            return
        res = optimal_approximant(
            assemble_gram(H1, f, SparsePoly.one(1), m), method="exact"
        )
        assert 0 <= res.dist_sq <= 1

    EXACT_SPACES = (
        SpaceSpec.drury_arveson(1),
        DA2,
        SpaceSpec.alpha_scale(1, 3),
        SpaceSpec.alpha_scale(2, -1),
        SpaceSpec.besov(2, 1, NormalizedVolume(2)),
    )
    _fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9)

    def _exact_polys(d):
        coeff = st.builds(ComplexRational, _fracs, _fracs)
        exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * d)
        return st.dictionaries(exps, coeff, min_size=1, max_size=3).map(lambda t: SparsePoly(d, t))

    @given(
        st.sampled_from(EXACT_SPACES).flatmap(lambda sp: st.tuples(st.just(sp), _exact_polys(sp.d), _exact_polys(sp.d))),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_gram_system_is_the_exact_one_rounded(case, m):
        space, f, g = case
        if f.is_zero():
            return
        exact = assemble_gram(space, f, g, m)
        flt = approx._system(space, f, g, m, "float")
        assert exact.exact and not flt.exact
        G = np.array([[complex(x) for x in row] for row in exact.matrix])
        c = np.array([complex(x) for x in exact.rhs])
        # by Cauchy-Schwarz the terms of G[i][j] sum in modulus to at most
        # sqrt(G[i][i] G[j][j]), and those of c[i] to sqrt(G[i][i] ||g||^2)
        diag = np.diag(G).real
        assert np.all(np.abs(flt.matrix - G) <= 1e-15 * np.sqrt(np.outer(diag, diag)))
        assert np.all(np.abs(flt.rhs - c) <= 1e-15 * np.sqrt(diag * float(exact.g_norm_sq)))

    @given(
        st.sampled_from(EXACT_SPACES).flatmap(lambda sp: st.tuples(st.just(sp), _exact_polys(sp.d), _exact_polys(sp.d))),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_profile_points_equal_per_degree_solves(case, m):
        # one factorization of the top block gives every degree: the same
        # numbers as factoring each leading block on its own
        space, f, g = case
        if f.is_zero():
            return
        system = assemble_gram(space, f, g, m)
        sizes = system.block_sizes()
        tol = 1e-12 * float(system.g_norm_sq)
        pts = distance_profile(space, f, g, range(m + 1), method="exact")
        fpts = distance_profile(space, f, g, range(m + 1), method="float")
        for p, fp in zip(pts, fpts):
            prefix = system.basis[:sizes[p.m]]
            res = optimal_approximant(approx._gram_system(space, f, g, p.m, prefix, True, approx._shifts(f)), method="exact")
            assert (p.dist_sq, p.min_pivot, p.path) == (float(res.dist_sq), res.conditioning.min_pivot, "exact")
            fres = optimal_approximant(approx._gram_system(space, f, g, p.m, prefix, False, approx._shifts(f)), method="float")
            assert fp.path == fres.conditioning.path
            assert abs(fp.dist_sq - fres.dist_sq) <= tol

    @given(
        st.sampled_from(EXACT_SPACES).flatmap(lambda sp: st.tuples(st.just(sp), _exact_polys(sp.d), _exact_polys(sp.d))),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduced_solves_equal_the_full_solve(case, m):
        # the full system, assembled over the whole graded basis by the one
        # Gram-entry routine and factored whole, against the reduced
        # profile and approximant: the reduced system is the full one on
        # the reachable rows, and the full solution is 0 off them
        space, f, g = case
        if f.is_zero():
            return
        basis = graded_monomials(space.d, m)
        full = approx._gram_system(space, f, g, m, basis, True, approx._shifts(f))
        exact = assemble_gram(space, f, g, m)
        index = {b: i for i, b in enumerate(basis)}
        rows = [index[b] for b in exact.basis]
        assert full.matrix == _gram_by_dictionary(space, f, basis, True)
        assert exact.matrix == [[full.matrix[i][j] for j in rows] for i in rows]
        assert exact.rhs == [full.rhs[i] for i in rows]
        _, _, gains = approx._ldl_exact(full.data)
        sizes = full.block_sizes()
        pts = distance_profile(space, f, g, range(m + 1), method="exact")
        assert [p.dist_sq for p in pts] == [float(exact.g_norm_sq - sum(gains[:sizes[k]])) for k in range(m + 1)]
        a = approx._Factored(full).coefficients()
        res = optimal_approximant(exact, method="exact")
        assert res.dist_sq == exact.g_norm_sq - sum(gains)
        assert res.coefficients == tuple(a[i] for i in rows)
        assert all(a[i] == ComplexRational() for i in set(range(len(basis))).difference(rows))
        # the float path: same full matrix rounded, one float Cholesky
        fullf = approx._gram_system(space, f, g, m, basis, False, approx._shifts(f))
        flt = approx._system(space, f, g, m, "float")
        assert np.array_equal(fullf.matrix, _gram_by_dictionary(space, f, basis, False))
        assert np.array_equal(flt.matrix, fullf.matrix[np.ix_(rows, rows)])
        ffull = approx._Factored(fullf)
        tol = 1e-12 * float(exact.g_norm_sq)
        fpts = distance_profile(space, f, g, range(m + 1), method="float")
        for k, fp in enumerate(fpts):
            assert abs(fp.dist_sq - ffull.block(sizes[k], sizes[k])[0]) <= tol
        assert abs(optimal_approximant(flt, method="float").dist_sq - ffull.block(sizes[m], sizes[m])[0]) <= tol


def test_assemble_gram_entry_budget(monkeypatch):
    # 1 + z1 + z2 reaches the whole DA_2 basis to degree 4: 15 unknowns, 225
    # entries; the 3 reachable unknowns of F22 fit a budget the full basis
    # would not
    da2, one = SpaceSpec.drury_arveson(2), SparsePoly.one(2)
    dense = SparsePoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    monkeypatch.setattr(approx, "GRAM_ENTRY_BUDGET", 225)
    assert len(assemble_gram(da2, dense, one, 4).basis) == 15
    monkeypatch.setattr(approx, "GRAM_ENTRY_BUDGET", 224)
    for solve in (lambda: assemble_gram(da2, dense, one, 4), lambda: cyclicity_profile(da2, dense, [4])):
        with pytest.raises(ValueError, match="reachable Gram block to degree 4 in 2 variables has more than 14 "
                                             "unknowns, over the budget of 224 entries"):
            solve()
    res = optimal_approximant(assemble_gram(da2, F22, one, 4))
    assert (res.conditioning.unknowns, res.conditioning.full_unknowns) == (3, 15)
    assert cyclicity_profile(da2, F22, [4])[0].full_unknowns == 15


def test_reachable_walk_stops_at_the_entry_budget():
    # the dense degree-2 generator in DA_3 reaches all C(103, 3) = 176,851
    # exponents at m = 100; the walk stops a layer past 5792 of them
    f = SparsePoly(3, {b: i + 1 for i, b in enumerate(graded_monomials(3, 2))})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="degree 100 in 3 variables has more than 5792 unknowns"):
            approx._reachable(f, SparsePoly.one(3), 100, approx._shifts(f))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_profile_refuses_a_reachable_block_past_the_entry_budget(monkeypatch):
    # a dense degree-2 generator in DA_3 reaches all C(34, 3) = 5984 unknowns
    # at m = 31, about 3.6e7 entries: refused once the walk holds more than
    # isqrt(2^25) = 5792, before anything is assembled
    def refuse(*args):
        raise AssertionError("the Gram system was assembled")

    monkeypatch.setattr(approx, "_gram_system", refuse)
    f = SparsePoly(3, {b: i + 1 for i, b in enumerate(graded_monomials(3, 2))})
    da3, one = SpaceSpec.drury_arveson(3), SparsePoly.one(3)
    with pytest.raises(ValueError, match=r"the reachable Gram block to degree 31 in 3 variables has more than 5792 "
                                         r"unknowns, over the budget of 33554432 entries"):
        distance_profile(da3, f, one, [2, 31])
    # at the boundary: the 5 reachable unknowns of F22 to degree 8 fit a
    # budget of 25 entries, and not one of 24, which holds at most 4
    monkeypatch.undo()
    monkeypatch.setattr(approx, "GRAM_ENTRY_BUDGET", 25)
    assert cyclicity_profile(DA2, F22, [8])[0].unknowns == 5
    monkeypatch.setattr(approx, "GRAM_ENTRY_BUDGET", 24)
    with pytest.raises(ValueError, match="more than 4 unknowns, over the budget of 24 entries"):
        cyclicity_profile(DA2, F22, [8])


# the DA_2 system of the CI's approx compare: f and g with a complex
# coefficient on every monomial of degree <= 2
CI_DA2_F = poly_from_literal({"0,0": [-2, 3, -4, 9], "1,0": [9, 8, 4, 1], "0,1": [-2, 5, -8, 1],
                              "2,0": [3, 2, 5, 6], "1,1": [7, 9, -3, 1], "0,2": [5, 8, -5, 1]})
CI_DA2_G = poly_from_literal({"0,0": [3, 4, 2, 7], "1,0": [2, 7, 7, 9], "0,1": [7, 8, -4, 3],
                              "2,0": [-9, 2, 8, 3], "1,1": [2, 1, 8, 9], "0,2": [9, 7, 1, 1]})


def _agreement_cases():
    """Seeded dense exact systems in the spaces of the exact batch, m <= 8:
    rational and Gaussian-rational f and g with every coefficient of degree
    <= 2 nonzero, then the CI's DA_2 system at degree 4."""
    rng = random.Random(20261019)
    spaces = (SpaceSpec.drury_arveson(1), DA2, SpaceSpec.drury_arveson(3), SpaceSpec.alpha_scale(1, 2),
              SpaceSpec.alpha_scale(1, -1))
    cases = []
    for space in spaces:
        for m in (1, 2, 4, 8):
            rational = {b: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                        for b in graded_monomials(space.d, 2)}
            cases.append((space, SparsePoly(space.d, rational), _dense_complex_poly(rng, space.d, 2), m))
            cases.append((space, _dense_complex_poly(rng, space.d, 2), _dense_complex_poly(rng, space.d, 2), m))
    return cases + [(DA2, CI_DA2_F, CI_DA2_G, 4)]


@pytest.mark.parametrize("method", ["float", "auto"])
def test_approximant_and_profile_factor_the_same_float_block(method):
    # a float solve of an exact system factors the float assembly of its
    # block, the one a profile to that degree factors, so the two agree bit
    # for bit, on both sides of AUTO_EXACT_LIMIT (165 unknowns in DA_3 at
    # m = 8); exact entries rounded one by one give other bits
    sizes = []
    for space, f, g, m in _agreement_cases():
        res = optimal_approximant(assemble_gram(space, f, g, m), method=method)
        (pt,) = distance_profile(space, f, g, [m], method=method)
        assert (res.conditioning.path, res.conditioning.unknowns) == (pt.path, pt.unknowns)
        assert (float(res.dist_sq), res.conditioning.min_pivot) == (pt.dist_sq, pt.min_pivot), (space, m)
        sizes.append((pt.path, pt.unknowns))
    assert pt.dist_sq == {"float": 14.402489600191728, "auto": 14.402489600191721}[method]  # auto: exact, 15 unknowns
    assert ("float", 165) in sizes and (("exact", 35) in sizes) == (method == "auto")


def test_a_float_solve_of_an_exact_system_keeps_the_subnormal_weight_refusal():
    # alpha = -300: ||z^10||^2 = 11^-300 is subnormal, so the float system to
    # degree 8 is refused by approx as by profile; the exact distance^2
    # rounds to 1e-300, and a float solve without the check reads 0.0
    space = SpaceSpec.alpha_scale(1, -300)
    f, g = SparsePoly(1, {(0,): 1, (2,): Fraction(-1, 3)}), SparsePoly(1, {(0,): 1, (9,): 1})
    message = r"\|\|z\^\(10,\)\|\|\^2 = 3\.8212e-313 \(degree 10\) .* to degree 8 would lose its digits"
    with pytest.raises(ArithmeticError, match=message):
        optimal_approximant(assemble_gram(space, f, g, 8), method="float")
    with pytest.raises(ArithmeticError, match=message):
        distance_profile(space, f, g, [8], method="float")
    assert float(optimal_approximant(assemble_gram(space, f, g, 8), method="exact").dist_sq) == 1e-300


@pytest.mark.parametrize("space, f, g, why", [
    (SpaceSpec.alpha_scale(1, 0.5), ONE_MINUS_Z, SparsePoly.one(1), "the space's weights are floats"),
    (H1, ONE_MINUS_Z.to_float(), SparsePoly.one(1), "the coefficients of f are floats"),
    (H1, ONE_MINUS_Z, SparsePoly.one(1).to_float(), "the coefficients of g are floats"),
    (SpaceSpec.alpha_scale(1, 0.5), ONE_MINUS_Z.to_float(), SparsePoly.one(1).to_float(),
     "the space's weights and the coefficients of f and g are floats"),
])
def test_exact_solve_names_the_float_inputs(space, f, g, why):
    message = f"^exact solve requested, but {why}$"
    for degrees in ([0, 3], []):
        with pytest.raises(ValueError, match=message):
            distance_profile(space, f, g, degrees, method="exact")
    system = assemble_gram(space, f, g, 3)
    assert not system.exact
    with pytest.raises(ValueError, match=message):
        optimal_approximant(system, method="exact")
    assert optimal_approximant(system).conditioning.path == "float"


def _block_by_slices(factored, k):
    """(dist_sq, min_pivot, max_pivot) of the leading k-block read as before
    the running sums: g_norm_sq - sum(gains[:k]), read as 0 inside the clamp
    window, and the min and max of pivots[:k], per block; None where the
    float path refuses the block."""
    n = len(factored.pivots)
    pmin = float(min(factored.pivots[:k], default=math.inf))
    pmax = float(max(factored.pivots[:k], default=0.0))
    if factored.method == "float" and (k > n or pmin < approx.PIVOT_COLLAPSE * pmax):
        return None
    dist_sq = factored.g_norm_sq - sum(factored.gains[:k])
    if approx.DIST_SQ_CLAMP * max(1.0, factored.g_norm_sq) <= dist_sq < 0:
        dist_sq = 0.0
    return dist_sq, pmin, pmax


def _same(a, b):
    """Equal values of one type: floats bit for bit, exact values by ==."""
    return type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)


RUNNING_SUM_CASES = [
    # the D_4 hc step n = 2 of 1 - z to degree 200: 201 reachable unknowns
    (SpaceSpec.alpha_scale(1, 4), ONE_MINUS_Z ** 3, ONE_MINUS_Z ** 2, 200),
    # the dense DA_2 system of the CI's approx compare: the whole basis
    (DA2, CI_DA2_F, CI_DA2_G, 6),
]


@pytest.mark.parametrize("space, f, g, m", RUNNING_SUM_CASES)
@pytest.mark.parametrize("path", ["exact", "float"])
def test_running_sums_equal_the_sliced_sums_at_every_block(space, f, g, m, path):
    # every leading block (on the float path also one past the whole
    # system, which it refuses) and every point of the profile read the
    # values the per-block slices give
    system = approx._system(space, f, g, m, path)
    factored = approx._Factored(system)
    assert factored.method == path
    for k in range(len(system.basis) + (2 if path == "float" else 1)):
        want = _block_by_slices(factored, k)
        if want is None:
            with pytest.raises(ArithmeticError, match="float Cholesky"):
                factored.block(k, m)
            continue
        got = factored.block(k, m)
        assert all(map(_same, got, want)), k
    sizes = system.block_sizes()
    for pt in distance_profile(space, f, g, range(m + 1), method=path):
        dist_sq, pmin, _ = _block_by_slices(factored, sizes[pt.m])
        assert (pt.dist_sq.hex(), pt.min_pivot.hex()) == (float(dist_sq).hex(), pmin.hex()), pt.m


@pytest.mark.parametrize("path", ["exact", "float"])
def test_block_refuses_a_dist_sq_below_the_clamp_window(path):
    # ||g||^2 replaced by values below the projection: a deficit inside the
    # window, DIST_SQ_CLAMP * max(1, ||g||^2), is rounding and reads 0; one
    # past it is refused
    system = approx._system(DA2, F22, SparsePoly.one(2), 4, path)
    k = len(system.basis)
    projection = sum(approx._Factored(system).gains)
    inside = projection - (Fraction(1, 10 ** 13) if path == "exact" else 1e-13)
    factored = approx._Factored(dataclasses.replace(system, g_norm_sq=inside))
    assert factored.block(k, 4)[0] == 0.0
    for g_norm_sq in (0, projection / 2):
        factored = approx._Factored(dataclasses.replace(system, g_norm_sq=g_norm_sq))
        with pytest.raises(ArithmeticError, match="below the clamp window"):
            factored.block(k, 4)
