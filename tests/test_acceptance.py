"""Top-level acceptance gates for the package.

Each test covers one commitment, prints a single PASS line with the measured
quantities when it succeeds, and states its tolerance inline.  Frozen
reference numbers come from independent oracle runs recorded in the tests
themselves (closed forms where available, committed grid values otherwise).
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from besovball.approx import (
    assemble_gram,
    cyclicity_profile,
    graded_monomials,
    hc_profile,
    optimal_approximant,
    ratio_norm_sweep,
)
from besovball.certify import CubeMeasure, dual_lower_bound, energy_lower_bound
from besovball.embeddings import sk_coefficient, sk_coefficient_ratios, tau_compose
from besovball.experiments import (
    dilation_contraction_gap,
    slice_norm_gap,
)
from besovball.poly import SparsePoly, is_outer_1d, multi_factorial
from besovball.scalars import ComplexRational, abs_sq
from besovball.spaces import (
    BetaDensity,
    ConstantDensity,
    NormalizedVolume,
    PointMassAtOne,
    SpaceSpec,
    besov_da_ratio,
    hardy_sphere_norm_sq,
    inner_product,
    monomial_norm_sq,
    norm_sq,
)

D4 = SpaceSpec.alpha_scale(1, 4)
ONE_MINUS_Z = SparsePoly(1, {(0,): 1, (1,): -1})


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def test_acceptance_01_exact_monomial_norms():
    # tolerance: exact rational equality; budget: < 1 s
    t0 = time.perf_counter()
    checked = 0
    for d in range(1, 5):
        da = SpaceSpec.drury_arveson(d)
        for n in range(0, 11):
            for beta in _compositions(n, d):
                assert monomial_norm_sq(da, beta) == Fraction(
                    multi_factorial(beta), math.factorial(n)
                )
                mono = SparsePoly(d, {beta: 1})
                expect = Fraction(
                    math.factorial(d - 1) * multi_factorial(beta),
                    math.factorial(n + d - 1),
                )
                assert hardy_sphere_norm_sq(mono) == expect
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 01 PASS: {checked} monomials, ball and sphere norms exact, {elapsed:.2f}s")


def test_acceptance_02_besov_weight_ratio_window():
    # tolerance: exact rational equality against 2n^2/((n+1)(n+2)); < 1 s
    t0 = time.perf_counter()
    rats = besov_da_ratio(3, 200)
    assert rats[0] == 1
    for n in range(1, 201):
        closed = Fraction(2 * n * n, (n + 1) * (n + 2))
        assert rats[n] == closed
        assert Fraction(1, 3) <= rats[n] <= 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 02 PASS: ratio in [1/3, 2] for n <= 200, exact, {elapsed:.2f}s")


def test_acceptance_03_last_variable_split_isometry():
    # ||e_alpha z_d^k||^2 = 1/C(|alpha|+k, k), exact; < 1 s
    t0 = time.perf_counter()
    checked = 0
    for d in range(1, 5):
        da = SpaceSpec.drury_arveson(d)
        lower = SpaceSpec.drury_arveson(d - 1) if d > 1 else None
        for a_total in range(0, 6):
            for alpha in _compositions(a_total, d - 1):
                base = monomial_norm_sq(lower, alpha) if d > 1 else Fraction(1)
                for k in range(0, 9):
                    target = Fraction(1, math.comb(a_total + k, k))
                    got = monomial_norm_sq(da, alpha + (k,)) / base
                    assert got == target
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 03 PASS: {checked} split norms exact, {elapsed:.2f}s")


def _gram_schmidt_dist_sq(space, f, g, m):
    """Independent projection oracle: orthogonalize the shifted family
    directly and subtract the projection, never forming normal equations."""
    basis = [SparsePoly(f.dim, {b: 1}) * f for b in graded_monomials(f.dim, m)]
    ortho, norms = [], []
    for v in basis:
        w = v
        for u, nu in zip(ortho, norms):
            c = inner_product(space, v, u)
            w = w - u * (c / ComplexRational.coerce(nu))
        nw = norm_sq(space, w)
        if nw == 0:
            continue
        ortho.append(w)
        norms.append(nw)
    rest = norm_sq(space, g)
    for u, nu in zip(ortho, norms):
        c = inner_product(space, g, u)
        rest = rest - abs_sq(c) / nu
    return rest


def test_acceptance_04_solver_matches_projection_oracle():
    # tolerance: exact equality (rational path); < 30 s
    t0 = time.perf_counter()
    rng = random.Random(20260819)
    spaces = [
        SpaceSpec.drury_arveson(1),
        SpaceSpec.drury_arveson(2),
        SpaceSpec.drury_arveson(3),
        SpaceSpec.alpha_scale(1, 2),
        SpaceSpec.alpha_scale(1, -1),
    ]
    checked = 0
    for trial in range(200):
        space = spaces[trial % len(spaces)]
        d = space.d
        m = rng.choice([1, 2, 3])

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                beta = tuple(rng.randint(0, 2) for _ in range(d))
                terms[beta] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return SparsePoly(d, terms)

        f = rand_poly()
        while not f.terms:
            f = rand_poly()
        g = rand_poly()
        oracle = _gram_schmidt_dist_sq(space, f, g, m)
        res = optimal_approximant(assemble_gram(space, f, g, m), method="exact")
        assert res.exact
        assert res.dist_sq == oracle
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 200
    assert elapsed < 30.0
    print(f"ACCEPTANCE 04 PASS: {checked} random systems match the projection oracle exactly, {elapsed:.1f}s")


def test_acceptance_05_hand_computed_anchors():
    # tolerance: exact; < 1 s
    t0 = time.perf_counter()
    da2 = SpaceSpec.drury_arveson(2)
    f1 = SparsePoly(2, {(0, 0): 1, (1, 0): -1})
    res1 = optimal_approximant(assemble_gram(da2, f1, SparsePoly.one(2), 1), method="exact")
    assert res1.dist_sq == Fraction(1, 3)
    f2 = SparsePoly(2, {(0, 0): 1, (1, 1): -2})
    res2 = optimal_approximant(
        assemble_gram(da2, f2, SparsePoly.one(2), 0), method="exact"
    )
    assert res2.dist_sq == Fraction(2, 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 05 PASS: dist^2 = 1/3 and 2/3 exactly, {elapsed:.2f}s")


def test_acceptance_06_cyclic_noncyclic_separation():
    # budget: < 10 min for all three parts together
    t0 = time.perf_counter()
    # (a) two-variable cyclic target: strict decrease along the even-degree
    # schedule (odd cutoffs are exact plateaus) and the closed-form values
    # prod_{i=1}^{J+1} 2i/(2i+1); tolerance 1e-9 relative per point
    da2 = SpaceSpec.drury_arveson(2)
    f_cyc = SparsePoly(2, {(0, 0): 1, (1, 1): -2})
    pts = cyclicity_profile(da2, f_cyc, range(0, 25, 2), method="float")
    vals = [p.dist_sq for p in pts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    for p in pts:
        J = p.m // 2
        oracle = 1.0
        for i in range(1, J + 2):
            oracle *= 2 * i / (2 * i + 1)
        assert abs(p.dist_sq - oracle) <= 1e-9 * oracle
    final = vals[-1]
    assert final <= float(Fraction(8388608, 35102025)) + 1e-9

    # (b) four-variable noncyclic target: positive certified lower bound and
    # profile distances that stay above it (tolerance 1e-6)
    da4 = SpaceSpec.drury_arveson(4)
    f_non = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})
    cert = energy_lower_bound(da4, f_non, CubeMeasure.torus(4, 4))
    assert cert.lower_bound > 0
    # frozen grid value; 1e-9 relative covers backend summation-order drift
    assert abs(cert.lower_bound - 0.10322746574377133) <= 1e-9
    pts_b = cyclicity_profile(da4, f_non, [0, 4, 8, 12], method="float")
    dists_b = [math.sqrt(p.dist_sq) for p in pts_b]
    assert all(a > b for a, b in zip(dists_b, dists_b[1:]))
    assert all(dist > cert.lower_bound - 1e-6 for dist in dists_b)
    assert abs(dists_b[-1] - 0.9249292837973018) < 1e-9

    # (c) first hierarchy step for the same target decreases toward zero;
    # frozen final distance 1.0882622 at m = 12, threshold 1.09
    pts_c = hc_profile(da4, f_non, 1, [0, 4, 8, 12], method="float")
    dists_c = [math.sqrt(p.dist_sq) for p in pts_c]
    assert all(a > b for a, b in zip(dists_c, dists_c[1:]))
    assert dists_c[-1] < 1.09
    assert abs(dists_c[-1] - 1.0882622236424302) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        "ACCEPTANCE 06 PASS: cyclic profile -> "
        f"{final:.6f} (oracle match), certified bound {cert.lower_bound:.6f} "
        f"below noncyclic profile min {min(dists_b):.4f}, hierarchy step -> "
        f"{dists_c[-1]:.6f} < 1.09, {elapsed:.1f}s"
    )


def test_acceptance_07_dual_certificate_vs_profiles():
    # tolerance: certified bound holds at every m <= 200 exactly as computed
    # (float profile, 1e-12 slack); crossing degree frozen at 62; < 1 min
    t0 = time.perf_counter()
    h = ONE_MINUS_Z * ONE_MINUS_Z
    cert = dual_lower_bound(D4, ONE_MINUS_Z, h, 1)
    assert abs(cert.lower_bound - 1.7591476450870798) <= 1e-12  # frozen bracket
    pts1 = hc_profile(D4, ONE_MINUS_Z, 1, range(0, 201), method="float")
    assert len(pts1) == 201
    for p in pts1:
        assert math.sqrt(p.dist_sq) >= cert.lower_bound - 1e-12, p.m
    min_dist = min(math.sqrt(p.dist_sq) for p in pts1)

    pts2 = hc_profile(D4, ONE_MINUS_Z, 2, range(0, 201), method="float")
    base = math.sqrt(next(p.dist_sq for p in pts2 if p.m == 2))
    assert abs(base - 3.4624435382530416) < 1e-9
    crossing = next(p.m for p in pts2 if math.sqrt(p.dist_sq) < 0.1 * base)
    assert crossing == 62
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 07 PASS: bound {cert.lower_bound:.10f} <= profile min {min_dist:.6f} "
        f"at all m <= 200; second step crosses 10% at m = {crossing}, {elapsed:.1f}s"
    )


def test_acceptance_08_quantitative_lemma_suite():
    # dilation contraction exact on 100 polynomials x 4 radii x N in {1,2};
    # slice bound on 100 random pairs (slack 1e-10); outer slices at 20
    # boundary points; < 1 min
    t0 = time.perf_counter()
    rng = random.Random(11)
    radii = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)]
    count = 0
    for trial in range(100):
        d = 1 + trial % 3
        measure = [PointMassAtOne(), NormalizedVolume(d), ConstantDensity(1), BetaDensity(2)][
            trial % 4
        ]
        f = SparsePoly(d, {})
        while not f.terms:
            terms = {}
            for _ in range(rng.randint(1, 4)):
                beta = tuple(rng.randint(0, 3) for _ in range(d))
                terms[beta] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            f = SparsePoly(d, terms)
        for N in (1, 2):
            spaceN = SpaceSpec.besov(d, N, measure)
            for r in radii:
                gap = dilation_contraction_gap(spaceN, f, r)
                assert isinstance(gap, Fraction)
                assert gap >= 0
        count += 1
    assert count == 100

    nprng = np.random.default_rng(3)
    for _ in range(100):
        d = int(nprng.integers(2, 4))
        terms = {}
        for _ in range(int(nprng.integers(1, 5))):
            beta = tuple(int(e) for e in nprng.integers(0, 3, size=d))
            terms[beta] = complex(nprng.normal(), nprng.normal())
        f = SparsePoly(d, terms)
        if not f.terms:
            continue
        z = nprng.normal(size=d) + 1j * nprng.normal(size=d)
        z = z / np.linalg.norm(z)
        assert slice_norm_gap(f, tuple(z)) >= -1e-10

    lam = SparsePoly(1, {(0,): 1, (1,): -1})
    t33 = tau_compose(lam, 3, 3)
    outer_checked = 0
    for _ in range(20):
        z = nprng.normal(size=3) + 1j * nprng.normal(size=3)
        z = z / np.linalg.norm(z)
        s = t33.slice(tuple(z), 3)
        assert is_outer_1d(s)
        outer_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 08 PASS: {count} exact contraction checks, 100 slice bounds, "
        f"{outer_checked} outer slices, {elapsed:.1f}s"
    )


def test_acceptance_09_coefficient_asymptotics():
    # window tolerance 1e-9 below, frozen maxima to 1e-8 relative; < 10 s
    t0 = time.perf_counter()
    committed_max = {2: 1.7691446328785834, 3: 1.9950248756218905, 4: 1.7691446328785838}
    for d, top in committed_max.items():
        rats = sk_coefficient_ratios(d, 200)
        assert all(1.0 - 1e-9 <= r <= top + 1e-9 for r in rats)
        assert max(rats) == rats[-1]
        assert abs(max(rats) - top) <= 1e-8 * top
    for n in range(0, 201):
        assert sk_coefficient(1, n) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "ACCEPTANCE 09 PASS: ratio windows [1, 1.76914] (d=2,4) and [1, 1.99502] (d=3), "
        f"d=1 identically 1, {elapsed:.1f}s"
    )


def test_acceptance_10_ratio_norm_sweep_stability():
    # per-r tails below 1e-6 of the accumulated norm; sweep sup within 1% of
    # the frozen oracle 1.4039405116204102; < 2 min
    t0 = time.perf_counter()
    sp = SpaceSpec.besov(3, 1, PointMassAtOne())
    p = SparsePoly(3, {(0, 0, 0): 1, (1, 0, 0): -1})
    res = ratio_norm_sweep(sp, p, 1, 1, [0.9, 0.99, 0.999], [64, 256, 1024])
    for r in (0.9, 0.99, 0.999):
        row = res.accepted_for(r)
        assert row is not None, r
        assert row.last_block_rel < 1e-6
    assert abs(res.sup_norm_sq - 1.4039405116204102) <= 0.01 * 1.4039405116204102
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 10 PASS: all radii accepted, sup {res.sup_norm_sq:.10f} within 1% "
        f"of 1.4039405116, {elapsed:.1f}s"
    )
