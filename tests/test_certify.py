"""Certified lower bounds: dual functionals and surface-energy estimates."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from besovball import certify, kernels
from besovball.certify import (
    CubeMeasure,
    _lattice_sum,
    _pair_sum,
    _param_inv_sq_integral,
    DerivativeFunctional,
    dual_lower_bound,
    energy,
    energy_lower_bound,
    functional_norm,
    param_inv_sq_integral,
)
from besovball.approx import graded_monomials
from besovball.poly import SparsePoly
from besovball.spaces import SpaceSpec, norm_sq

try:
    import mpmath as mp

    HAVE_MPMATH = True
except ImportError:
    HAVE_MPMATH = False

D4 = SpaceSpec.alpha_scale(1, 4)
ONE_MINUS_Z = SparsePoly(1, {(0,): 1, (1,): -1})


# -- functional norm brackets -------------------------------------------------


def test_functional_norm_zeta_anchor():
    # j = 0, alpha = 4: sum 1/(n+1)^4 = pi^4/90
    br = functional_norm(0, 4)
    target = math.pi**4 / 90
    assert br.lower <= target <= br.upper
    assert br.upper - br.lower <= 1e-8 * br.lower


@pytest.mark.skipif(not HAVE_MPMATH, reason="mpmath unavailable")
def test_functional_norm_j1_mpmath_oracle():
    # j = 1, alpha = 4: sum_{n>=1} n^2/(n+1)^4 = zeta(2) - 2 zeta(3) + zeta(4)
    br = functional_norm(1, 4)
    target = float(mp.zeta(2) - 2 * mp.zeta(3) + mp.zeta(4))
    assert br.lower <= target <= br.upper
    assert br.upper - br.lower <= 1e-8 * br.lower


def test_functional_norm_rejects_divergent():
    # the sum only converges once alpha > 2j + 1
    with pytest.raises(ValueError):
        functional_norm(1, 3)
    with pytest.raises(ValueError):
        functional_norm(0, 1)


def test_functional_norm_committed_value():
    br = functional_norm(1, 4)
    inv = 1.0 / br.norm_upper
    assert inv == pytest.approx(1.7591476450870798, rel=1e-9)


def test_functional_norm_brackets_are_frozen_and_memory_bounded():
    # the chunked partial sum feeds the same terms to one exactly rounded
    # fsum as the whole-array sum it replaced, so the brackets are bitwise
    # those of the array version
    frozen = {
        (1, 4): (0.3231434937745062, 0.32314349470583653, 32768),
        (1, 3.1): (8.647399024110689, 8.647399076001273, 4194304),
        (2, 5.2): (3.1059984918678616, 3.105998517812956, 2097152),
    }
    for (j, alpha), bracket in frozen.items():
        br = functional_norm(j, alpha)
        assert (br.lower, br.upper, br.cutoff) == bracket
    # a cutoff of 4M terms holds one chunk at a time: the peak RSS of the
    # call above the import, in a fresh process, where the array version
    # rose about 225 MB.  tracemalloc would trace each of the 8.4M floats
    # fsum consumes and take about 15 s.
    code = ("import resource; from besovball.certify import functional_norm; "
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; functional_norm(1, 3.1); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)")
    src = str(Path(certify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert int(run.stdout) < 32 * 1024  # kB on Linux


def test_functional_norm_brackets_contain_the_closed_form():
    # ||L_j||^2 = sum_i q_i zeta(alpha - i), evaluated with mpmath at 40
    # digits, lies inside each bracket
    closed = {(1, 4): 0.32314349424017606, (1, 3.1): 8.6473990500559834, (2, 5.2): 3.1059985048404105}
    for (j, alpha), value in closed.items():
        br = functional_norm(j, alpha)
        assert br.lower <= value <= br.upper, (j, alpha)


def test_exact_parts_sum_exactly():
    rng = np.random.default_rng(7)
    for n in (1, 5, 1000, 1 << 16):
        x = rng.standard_normal(n) * np.exp2(rng.integers(-200, 200, size=n))
        x[::3] = 0.0
        parts = certify._exact_parts(x.copy())
        assert len(parts) < 30
        assert sum(map(Fraction, parts)) == sum(map(Fraction, x.tolist()))
    assert certify._exact_parts(np.zeros(4)) == []
    assert certify._exact_parts(np.array([1.0, math.inf]))[-1] == math.inf


def _dense_mul(p, q):
    """Dense product of two Fraction coefficient lists (ascending degree)."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("j", range(5))
def test_falling_sq_matches_dense_expansion(j):
    falling = [Fraction(1)]
    for i in range(j):
        falling = _dense_mul(falling, [Fraction(-(i + 1)), Fraction(1)])
    want = tuple(_dense_mul(falling, falling))
    got = certify._falling_sq_in_shifted_basis(j)
    assert got == want
    assert all(type(q) is Fraction for q in got)


def test_derivative_functional_apply():
    fn = DerivativeFunctional(2, 6)
    # (1 - z)^3 has vanishing second derivative at z = 1
    cube = ONE_MINUS_Z * ONE_MINUS_Z * ONE_MINUS_Z
    assert fn.apply(cube) == 0
    sq = ONE_MINUS_Z * ONE_MINUS_Z
    assert fn.apply(sq) == 2
    # sparse input: g = 3 z^5 - z^2 gives g''(1) = 60 - 2
    assert fn.apply(SparsePoly(1, {(5,): 3, (2,): -1})) == 58
    assert DerivativeFunctional(0, 2).apply(SparsePoly(1, {(4,): 0.5, (0,): 0.25j})) == 0.5 + 0.25j
    with pytest.raises(ValueError):
        fn.apply(SparsePoly(2, {(1, 1): 1}))
    with pytest.raises(ValueError):
        DerivativeFunctional(2, 4)  # needs alpha > 5


# -- dual certificates ---------------------------------------------------------


def test_dual_certificate_anchor():
    cert = dual_lower_bound(D4, ONE_MINUS_Z, ONE_MINUS_Z * ONE_MINUS_Z, 1)
    assert cert.kind == "dual"
    assert cert.lower_bound == pytest.approx(1.7591476450870798, rel=1e-8)
    assert json.loads(json.dumps(cert.to_json())) == cert.to_json()
    assert cert.audit["j"] == 1


def test_dual_certificate_j0():
    cert = dual_lower_bound(D4, SparsePoly.one(1), ONE_MINUS_Z, 0)
    assert cert.lower_bound == pytest.approx(1.0 / math.sqrt(math.pi**4 / 90), rel=1e-8)


def test_dual_certificate_preconditions():
    z = SparsePoly(1, {(1,): 1})
    # h must vanish at 1 to order j + 1
    with pytest.raises(ValueError):
        dual_lower_bound(D4, SparsePoly.one(1), z, 0)
    with pytest.raises(ValueError):
        dual_lower_bound(D4, ONE_MINUS_Z, ONE_MINUS_Z, 1)
    # the functional must see g
    with pytest.raises(ValueError):
        dual_lower_bound(D4, ONE_MINUS_Z, ONE_MINUS_Z, 0)  # g(1) = 0
    # wrong ambient space
    with pytest.raises(ValueError):
        dual_lower_bound(SpaceSpec.drury_arveson(2), SparsePoly.one(1), ONE_MINUS_Z, 0)


def test_dual_certificate_soundness_random_multiples():
    # the certified bound is a true lower bound: no multiple of h gets
    # closer to g than it, checked against explicit random competitors
    import random

    rng = random.Random(4)
    h = ONE_MINUS_Z * ONE_MINUS_Z
    g = ONE_MINUS_Z
    cert = dual_lower_bound(D4, g, h, 1)
    for _ in range(50):
        deg = rng.randint(0, 10)
        p = SparsePoly(
            1, {(i,): Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for i in range(deg + 1)}
        )
        dist = math.sqrt(float(norm_sq(D4, g - p * h)))
        assert dist >= cert.lower_bound - 1e-9


# -- cube measures -------------------------------------------------------------


def test_cube_measure_grid_invariants():
    mu = CubeMeasure.torus(4, 4)
    assert mu.m == 3
    T, Z = mu.grid(6)
    assert T.shape == (6**3, 3)
    assert Z.shape == (6**3, 4)
    # torus points live on the unit sphere of C^4
    dev = np.abs(np.linalg.norm(Z, axis=1) - 1.0).max()
    assert dev <= 1e-12
    assert mu.total_mass == pytest.approx(2.0**3)
    # offset grids never collide
    T2, _ = mu.grid(6, offset=0.5)
    gap = np.abs(T[:, None, :] - T2[None, :, :]).sum(axis=2).min()
    assert gap > 0


def test_cube_measure_scaling():
    with pytest.raises(ValueError):
        CubeMeasure.torus(5, 4)  # k > d
    with pytest.raises(ValueError):
        CubeMeasure.torus(4, 4, shrink=1.5)


def test_sphere_patch_support():
    mu = CubeMeasure.sphere_patch(4, 4)
    assert mu.m == 3
    T, Z = mu.grid(5)
    assert np.abs(np.linalg.norm(Z, axis=1) - 1.0).max() <= 1e-12
    # patch points are real vectors summing their squares to one, so they
    # sit in the zero set of 1 - (z_1^2 + ... + z_4^2)
    s = (Z**2).sum(axis=1)
    assert np.abs(s - 1.0).max() <= 1e-12


def test_energy_requires_enough_legs():
    mu = CubeMeasure.torus(2, 4)  # m = 1
    with pytest.raises(ValueError):
        energy(mu)
    mu3 = CubeMeasure.torus(3, 3)  # m = 2
    with pytest.raises(ValueError):
        energy(mu3)


@pytest.mark.parametrize("k, n", [(4, 8), (4, 16), (5, 8)])
def test_lattice_energy_sum_matches_pair_sum(k, n):
    mu = CubeMeasure.torus(k, k)
    assert _lattice_sum(mu, n) == pytest.approx(_pair_sum(mu, n), rel=1e-12)


def test_lattice_sum_in_chunks_matches_pair_sum(monkeypatch):
    # 15^3 = 3375 difference points in chunks of 1000: three whole chunks
    # and a partial one
    monkeypatch.setattr(certify, "LATTICE_CHUNK", 1000)
    mu = CubeMeasure.torus(4, 4)
    assert _lattice_sum(mu, 8) == pytest.approx(_pair_sum(mu, 8), rel=1e-12)


def _householder_turn(cube: CubeMeasure):
    """The cube after the reflection I - v v^T / 15, v = (1, 2, 3, 4), with
    the complex (n, 4) @ (4, 4) product in its own chart."""
    v = np.array([1.0, 2.0, 3.0, 4.0])
    U = np.eye(4) - np.outer(v, v) / 15.0
    return lambda T: cube.phi(T) @ U


def test_lattice_chart_blocks_keep_the_bits_and_never_take_one_row(monkeypatch):
    # 15^3 = 3375 points in chunks of 1000 and chart blocks of 333: a chunk
    # of 1000 ends in a block of 334, not in one of 333 and a lone row
    torus = CubeMeasure.torus(4, 4)
    turned = _householder_turn(torus)
    whole = _lattice_sum(CubeMeasure.from_callable(3, 4, turned), 8)
    rows = []

    def phi(T):
        rows.append(len(T))
        return turned(T)

    mu = CubeMeasure.from_callable(3, 4, phi)
    monkeypatch.setattr(certify, "LATTICE_CHUNK", 1000)
    monkeypatch.setattr(certify, "LATTICE_CHART_ROWS", 333)
    rows.clear()
    chunked = _lattice_sum(mu, 8)
    assert rows == [1] + [333, 333, 334] * 3 + [333, 42]  # phi(0), then the blocks
    monkeypatch.setattr(certify, "LATTICE_CHUNK", 1 << 14)
    assert _lattice_sum(mu, 8) == whole
    assert chunked == pytest.approx(whole, rel=1e-14)


def _lattice_axis(n):
    """The per-axis parameters (u - 1/2) h of ``_lattice_inner``'s lattice."""
    return (np.arange(1 - n, n, dtype=float) - 0.5) * (2.0 / n)


@pytest.mark.parametrize("k, d", [(2, 2), (3, 5), (4, 4), (4, 6), (5, 5)])
@pytest.mark.parametrize("n", [1, 2, 8, 16])
@pytest.mark.parametrize("shrink", [0.05, 0.3])
def test_torus_lattice_tables_equal_phi(k, d, n, shrink):
    # the table path against phi of the same lattice rows: every row up to
    # 4096, and past that (31^4 rows at k = 5, n = 16) a seeded sample with
    # the first and last row among it
    torus = CubeMeasure.torus(k, d, shrink)
    axis, shape = _lattice_axis(n), (2 * n - 1,) * (k - 1)
    count = math.prod(shape)
    rows = np.arange(count)
    if count > 4096:
        rows = np.unique(np.r_[0, count - 1, np.random.default_rng(7).integers(0, count, 4094)])
    digits = np.unravel_index(rows, shape)
    got = torus.phi.on_lattice(axis)(digits)
    want = torus.phi(np.stack([axis[u] for u in digits], axis=1))
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def test_torus_energy_equals_the_per_point_chart(monkeypatch):
    # the reference: the torus chart with its table path taken away, so its
    # lattice takes phi of every block's parameters
    table = energy(CubeMeasure.torus(4, 4))
    monkeypatch.delattr(certify._TorusChart, "on_lattice")
    reference = energy(CubeMeasure.torus(4, 4))
    assert table == reference
    assert (table.value, table.c_estimate) == (85.13854290163819, 0.1719090952697469)


def test_torus_lattice_table_blocks_never_take_one_row(monkeypatch):
    # the table path's blocks split as phi's do in
    # test_lattice_chart_blocks_keep_the_bits_and_never_take_one_row, and
    # each one passes the sphere check
    torus = CubeMeasure.torus(4, 4)
    whole = _lattice_sum(torus, 8)
    rows, checked = [], []
    on_lattice, on_sphere = certify._TorusChart.on_lattice, CubeMeasure._on_sphere

    def counted(chart, axis_param):
        block = on_lattice(chart, axis_param)

        def counted_block(digits):
            rows.append(len(digits[0]))
            return block(digits)

        return counted_block

    def counted_check(cube, Z, n):
        checked.append(n)
        return on_sphere(cube, Z, n)

    monkeypatch.setattr(certify._TorusChart, "on_lattice", counted)
    monkeypatch.setattr(CubeMeasure, "_on_sphere", counted_check)
    monkeypatch.setattr(certify, "LATTICE_CHUNK", 1000)
    monkeypatch.setattr(certify, "LATTICE_CHART_ROWS", 333)
    chunked = _lattice_sum(torus, 8)
    assert rows == [333, 333, 334] * 3 + [333, 42]
    assert checked == [1] + rows  # phi(0), then the blocks
    monkeypatch.setattr(certify, "LATTICE_CHUNK", 1 << 14)
    monkeypatch.setattr(certify, "LATTICE_CHART_ROWS", 1 << 11)
    rows.clear()
    assert _lattice_sum(torus, 8) == whole
    assert rows == [2048, 1327]
    assert chunked == pytest.approx(whole, rel=1e-14)


def test_lattice_sum_memory_is_bounded():
    # 31^4 = 923521 difference points; held at once they took about 200 MB
    mu = CubeMeasure.torus(5, 5)
    tracemalloc.start()
    try:
        total = _lattice_sum(mu, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert total == pytest.approx(4829688392.858561, rel=1e-12)


def _exp_torus_phi(k, d, shrink=0.05):
    """The torus chart as a complex exp of the angles, k^(-1/2) exp(1j * angle)."""
    ang_scale = math.pi * (1.0 - shrink)
    inv_sqrt_k = 1.0 / math.sqrt(k)

    def phi(T):
        T = np.asarray(T, dtype=float)
        ang = ang_scale * T
        last = -ang.sum(axis=1, keepdims=True)
        full = np.concatenate([ang, last], axis=1)
        Z = np.zeros((T.shape[0], d), dtype=complex)
        Z[:, :k] = inv_sqrt_k * np.exp(1j * full)
        return Z

    return phi


def _per_point_lattice_sum(phi, m, n):
    """The lattice sum with each chunk's differences U formed point by point
    (``unravel_index``, ``stack``) and weighted by ``np.prod(n - |U|)``; the
    chunks and the fsum of their totals as in ``_lattice_sum``."""
    h = 2.0 / n
    shape = (2 * n - 1,) * m
    count = math.prod(shape)
    z0 = phi(np.zeros((1, m)))[0]
    totals = []
    for start in range(0, count, certify.LATTICE_CHUNK):
        idx = np.arange(start, min(start + certify.LATTICE_CHUNK, count))
        U = np.stack(np.unravel_index(idx, shape), axis=1).astype(float) + (1 - n)
        inner = phi((U - 0.5) * h) @ z0.conj()
        totals.append(float(np.sum(np.prod(n - np.abs(U), axis=1) / np.abs(1.0 - inner))))
    return math.fsum(totals)


def test_torus_chart_equals_the_complex_exp():
    # seeded parameters with exact zeros among them, where the angle sum is -0.0
    T = np.random.default_rng(2024).uniform(-1.0, 1.0, (4000, 4))
    T[:5] = 0.0
    for k, d in [(2, 2), (3, 5), (4, 4)]:
        got = CubeMeasure.torus(k, d).phi(T[:, : k - 1])
        want = _exp_torus_phi(k, d)(T[:, : k - 1])
        assert np.array_equal(got, want), (k, d)
        assert got.tobytes() == want.tobytes(), (k, d)


@pytest.mark.parametrize("k, n", [(4, 8), (4, 16), (5, 8)])
def test_lattice_sum_equals_the_per_point_formula(k, n):
    assert _lattice_sum(CubeMeasure.torus(k, k), n) == _per_point_lattice_sum(_exp_torus_phi(k, k), k - 1, n)


def test_lattice_sum_of_the_turned_torus_equals_the_per_point_formula(monkeypatch):
    # the Householder reflection of test_rotated_torus_takes_lattice_path
    v = np.array([1.0, 2.0, 3.0, 4.0])
    U = np.eye(4) - np.outer(v, v) / 15.0
    torus = CubeMeasure.torus(4, 4)
    rotated = CubeMeasure.from_callable(3, 4, lambda T: torus.phi(T) @ U)
    exp_phi = _exp_torus_phi(4, 4)
    assert _lattice_sum(rotated, 8) == _per_point_lattice_sum(lambda T: exp_phi(T) @ U, 3, 8)
    # chunks of 1000 of the 15^3 points: three whole chunks and a partial one
    monkeypatch.setattr(certify, "LATTICE_CHUNK", 1000)
    assert _lattice_sum(torus, 8) == _per_point_lattice_sum(exp_phi, 3, 8)


def test_rotated_torus_takes_lattice_path():
    # Householder reflection I - v v^T / 15 with v = (1, 2, 3, 4): rational,
    # orthogonal and dense, so the rotated cube keeps the inner products of
    # the torus, and from_callable's probe finds its lattice
    v = np.array([1.0, 2.0, 3.0, 4.0])
    U = np.eye(4) - np.outer(v, v) / 15.0
    mu = CubeMeasure.torus(4, 4)
    rotated = CubeMeasure.from_callable(3, 4, lambda T: mu.phi(T) @ U, label="rotated torus")
    assert rotated.shift_invariant
    a = energy(mu, n_base=8, max_doublings=1)
    b = energy(rotated, n_base=8, max_doublings=1)
    assert (a.energy_sum, b.energy_sum) == ("lattice", "lattice")
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert a.lattice_check_rel <= 1e-12 and b.lattice_check_rel <= 1e-12
    assert a.kernel_evaluations == b.kernel_evaluations == 8**6 + 15**3 + 31**3


def test_callable_sphere_patch_is_not_shift_invariant():
    # the same phi as the named patch: the probe finds no lattice, so the
    # energy takes the pair path and gives the named patch's value
    patch = CubeMeasure.sphere_patch(4, 4)
    mu = CubeMeasure.from_callable(3, 4, patch.phi)
    assert not mu.shift_invariant
    a = energy(patch, n_base=8, max_doublings=1)
    b = energy(mu, n_base=8, max_doublings=1)
    assert (a.energy_sum, b.energy_sum) == ("pairs", "pairs")
    assert b.value == a.value
    assert b.kernel_evaluations == a.kernel_evaluations == 8**6 + 16**6


def test_callable_leaving_the_sphere_outside_the_cube_is_not_shift_invariant():
    # the torus on [-1, 1]^m and twice it outside: every grid point is on
    # the sphere, but the differences t - s the lattice needs are not all
    torus = CubeMeasure.torus(4, 4)

    def phi(T):
        inside = np.abs(T).max(axis=1, keepdims=True) <= 1.0  # the offset grid reaches 1
        return torus.phi(T) * np.where(inside, 1.0, 2.0)

    mu = CubeMeasure.from_callable(3, 4, phi)
    assert not mu.shift_invariant
    assert energy(mu, n_base=8, max_doublings=0).energy_sum == "pairs"


def test_shift_probe_memory_is_bounded():
    # m = 5: 4^10 pairs of probe nodes against 7^5 differences; held at once
    # the pairs alone would take 16 MB as complex numbers, and their indices 8 MB
    torus = CubeMeasure.torus(6, 6)
    tracemalloc.start()
    try:
        mu = CubeMeasure.from_callable(5, 6, torus.phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mu.shift_invariant
    assert peak < 10e6
    # past SHIFT_PROBE_PAIRS (m = 6) the cube is left unprobed
    assert not CubeMeasure.from_callable(6, 7, CubeMeasure.torus(7, 7).phi).shift_invariant


@pytest.fixture
def numpy_blas():
    """(get, set) of numpy's OpenBLAS thread count, set to 2 for the test and
    put back after it; skips where numpy brings no OpenBLAS of its own."""
    lib = kernels._numpy_openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, set_ = lib
    before = get()
    set_(2)
    try:
        yield get, set_
    finally:
        set_(before)


def test_energy_runs_numpy_blas_on_the_calling_thread(numpy_blas):
    get, _ = numpy_blas
    seen, fail = [], []
    turned = _householder_turn(CubeMeasure.torus(4, 4))

    def phi(T):
        seen.append(get())
        if fail:
            raise RuntimeError("chart failed")
        return turned(T)

    mu = CubeMeasure.from_callable(3, 4, phi)  # the shift probe reads it too
    assert mu.shift_invariant and seen and set(seen) == {1}
    assert get() == 2
    seen.clear()
    energy(mu, n_base=8, max_doublings=0)
    assert seen and set(seen) == {1}
    assert get() == 2
    fail.append(True)
    with pytest.raises(RuntimeError, match="chart failed"):
        energy(mu, n_base=8, max_doublings=0)
    assert get() == 2


def test_energy_bits_do_not_depend_on_the_blas_scope(numpy_blas, monkeypatch):
    # OpenBLAS splits its products by output element, so each element is
    # formed the same way on one thread as on two
    get, _ = numpy_blas
    seen = []
    torus = CubeMeasure.torus(4, 4)
    turned = _householder_turn(torus)

    def phi(T):
        seen.append(get())
        return turned(T)

    cubes = [torus, CubeMeasure.from_callable(3, 4, phi)]
    scoped = [energy(mu) for mu in cubes]
    seen.clear()
    monkeypatch.setattr(kernels, "_numpy_openblas", lambda: (get, lambda n: None))  # the setter stubbed
    assert [energy(mu) for mu in cubes] == scoped
    assert seen and set(seen) == {2}


def test_energy_grid_budget(monkeypatch):
    torus, patch = CubeMeasure.torus(4, 4), CubeMeasure.sphere_patch(4, 4)
    tracemalloc.start()
    try:
        # the lattice path's base-grid check would take 128^6 pair evaluations
        with pytest.raises(ValueError, match=r"pair-sum check at n = 128 needs 4398046511104 .* budget of 1073741824"):
            energy(torus, n_base=128)
        # the certificate checks the budget before its support grid
        f4 = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})
        with pytest.raises(ValueError, match=r"pair-sum check at n = 128"):
            energy_lower_bound(SpaceSpec.drury_arveson(4), f4, torus, n_base=128)
        # the pair path's last level is past the budget, its first is not
        with pytest.raises(ValueError, match=r"pair sum at n = 64 needs 68719476736"):
            energy(patch, n_base=8, max_doublings=3)
        # m = 5: the lattice levels and the base-grid check (8^10) are within
        # the budget, but the 12-node chord-ratio grid has 12^10 pairs
        with pytest.raises(ValueError, match=r"chord-ratio grid at n = 12 needs 61917364224 .* budget of 1073741824"):
            energy(CubeMeasure.torus(6, 6))
        f6 = SparsePoly(6, {(0,) * 6: 1, (1,) * 6: -216})
        with pytest.raises(ValueError, match=r"chord-ratio grid at n = 12"):
            energy_lower_bound(SpaceSpec.drury_arveson(6), f6, CubeMeasure.torus(6, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # 32^6 is exactly the budget: every level runs (a constant pair sum
    # changes by a factor 64 per doubling, so no level converges)
    seen = []
    monkeypatch.setattr(certify, "_pair_sum", lambda measure, n: seen.append(n) or 1.0)
    energy(patch, n_base=8, max_doublings=2)
    assert seen == [8, 16, 32]


def test_false_shift_invariance_claim_is_caught():
    mu = replace(CubeMeasure.sphere_patch(4, 4), shift_invariant=True)
    with pytest.raises(ValueError, match="shift invariance"):
        energy(mu, max_doublings=0)


def test_param_integral_cross_check(monkeypatch):
    # the difference-substitution quadrature against a direct double-grid
    # midpoint rule (offset copies, so the diagonal is never hit)
    monkeypatch.setattr(certify, "BOX_GRID_BASE", 32)
    val, rel, n_final = param_inv_sq_integral(3)
    assert n_final >= 64
    n = 16
    h = 2.0 / n
    ax = -1.0 + (np.arange(n) + 0.5) * h
    mesh = np.meshgrid(ax, ax, ax, indexing="ij")
    T = np.stack([a.ravel() for a in mesh], axis=1)
    ax2 = -1.0 + (np.arange(n) + 1.0) * h
    mesh2 = np.meshgrid(ax2, ax2, ax2, indexing="ij")
    S = np.stack([a.ravel() for a in mesh2], axis=1)
    total = 0.0
    for start in range(0, T.shape[0], 512):
        tb = T[start : start + 512]
        d2 = ((tb[:, None, :] - S[None, :, :]) ** 2).sum(axis=2)
        total += float((1.0 / d2).sum())
    direct = total * h**6
    assert val == pytest.approx(direct, rel=0.1)


def test_energy_certificate_pipeline():
    sp = SpaceSpec.drury_arveson(4)
    f = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})
    mu = CubeMeasure.torus(4, 4)
    cert = energy_lower_bound(sp, f, mu)
    assert cert.kind == "energy"
    assert cert.lower_bound == pytest.approx(0.103227, rel=5e-3)
    audit = cert.audit
    assert audit["energy_converged"]
    assert audit["mu_total"] == pytest.approx(8.0)
    assert audit["energy_rel_change_on_doubling"] < 0.02
    assert audit["c_estimate_grid_min"] > 0
    assert audit["max_abs_monomial_pairing_deg6"] < 1e-8 * audit["mu_total"]
    assert audit["support_max_abs_f"] < 1e-10
    assert audit["alt_constant_2_over_c_value"] > 0
    assert audit["energy_quadrature"] <= audit["energy_upper_analytic"]
    assert cert.grid["energy_sum"] == "lattice"
    assert audit["lattice_check_rel"] <= 1e-12
    assert audit["energy_kernel_evaluations"] == 8**6 + 15**3 + 31**3 + 63**3
    assert json.loads(json.dumps(cert.to_json())) == cert.to_json()


def test_energy_certificate_preconditions():
    f = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})
    mu = CubeMeasure.torus(4, 4)
    with pytest.raises(ValueError):
        energy_lower_bound(SpaceSpec.alpha_scale(4, 1), f, mu, max_doublings=0)
    with pytest.raises(ValueError):
        energy_lower_bound(SpaceSpec.drury_arveson(3), f, mu, max_doublings=0)
    # measure not in the zero set: wrong coefficient
    bad = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -8})
    with pytest.raises(ValueError):
        energy_lower_bound(SpaceSpec.drury_arveson(4), bad, mu, max_doublings=0)


def test_points_refuse_a_chart_of_the_wrong_shape():
    # a chart into C^3 for a cube declared in C^4
    torus = CubeMeasure.torus(3, 3)
    mu = CubeMeasure(m=2, d=4, phi=torus.phi, label="torus(k=3, d=3) as d = 4")
    with pytest.raises(ValueError, match=r"phi returned shape \(2, 3\), expected \(2, 4\)"):
        mu.points(np.zeros((2, 2)))


def test_nan_points_and_values_are_refused():
    # a comparison with nan is False, so "dev > tol" let nan through: energy
    # gave value nan and c_estimate inf, and the certificate divided by zero
    torus = CubeMeasure.torus(4, 4)
    f = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})

    def phi(T):
        Z = torus.phi(T)
        Z[T[:, 0] > 0.5] = math.nan
        return Z

    mu = CubeMeasure(m=3, d=4, phi=phi, label="torus with nan rows")
    off = "torus with nan rows: parametrization leaves the unit sphere by nan"
    with pytest.raises(ValueError, match=off):
        mu.points(np.array([[0.0, 0.0, 0.0], [0.75, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=off):
        energy(mu, max_doublings=0)
    with pytest.raises(ValueError, match=off):
        energy_lower_bound(SpaceSpec.drury_arveson(4), f, mu, max_doublings=0)
    # points on the sphere where f is nan
    f_nan = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16, (0, 0, 0, 1): math.nan})
    with pytest.raises(ValueError, match=r"torus\(k=4, d=4\) is not supported in the zero set: max \|f\| = nan"):
        energy_lower_bound(SpaceSpec.drury_arveson(4), f_nan, torus, max_doublings=0)


def test_param_integral_grid_budget(monkeypatch):
    # m = 3 converges on the 128^3 grid, inside the budget
    val, _, n_final = param_inv_sq_integral(3)
    assert (val, n_final) == (88.74771025858979, 128)
    # unconverged at n = 128: the next grid is past the budget
    with monkeypatch.context() as mp:
        mp.setattr(certify, "ENERGY_DOUBLING_TOL", 1e-4)
        with pytest.raises(ValueError, match=r"unconverged .*\(tolerance 0\.0001\)"):
            param_inv_sq_integral(3)
    tracemalloc.start()
    try:
        # m = 4: the first grid, 64^4 points, is past the budget
        with pytest.raises(ValueError, match="m = 4.*16777216 points"):
            param_inv_sq_integral(4)
        # energy checks the box integral before building its quadrature grids
        with pytest.raises(ValueError, match="m = 4"):
            energy(CubeMeasure.torus(5, 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_energy_lower_bound_refuses_the_box_grid_before_the_support_grid(monkeypatch):
    # torus(5, 5) has m = 4: its kernel evaluations fit the budget, the box
    # integral's first grid (64^4 points) does not, and the refusal comes
    # before any grid of the cube is built (the support grid f is evaluated
    # on among them), with the integral's message
    def refuse(*args, **kwargs):
        raise AssertionError("a grid of the cube was built")

    monkeypatch.setattr(CubeMeasure, "grid", refuse)
    f5 = SparsePoly(5, {(0,) * 5: 1, (1,) * 5: -(5 ** 2.5)})
    with pytest.raises(ValueError) as info:
        energy_lower_bound(SpaceSpec.drury_arveson(5), f5, CubeMeasure.torus(5, 5))
    assert str(info.value) == ("box integral for m = 4: the n = 64 grid needs 16777216 points, "
                               "over the budget of 4194304")
    with pytest.raises(ValueError) as again:
        param_inv_sq_integral(4)
    assert str(again.value) == str(info.value)



# -- one copy of each check and of monomial evaluation --------------------------


def _oracle_pairings(measure, f, n_check):
    """The deg-6 monomial pairings |integral z^beta f dmu| of
    ``energy_lower_bound``, beta by beta in graded order, with f and the
    monomials evaluated by hand, each power formed where it is used."""
    _, Z = measure.grid(n_check, offset=0.0)
    fvals = np.zeros(Z.shape[0], dtype=complex)
    for beta, c in f.to_float().terms.items():
        term = np.full(Z.shape[0], complex(c), dtype=complex)
        for i, e in enumerate(beta):
            if e:
                term *= Z[:, i] ** e
        fvals += term
    wq = (2.0 / n_check) ** measure.m
    out = []
    for beta in graded_monomials(measure.d, 6):
        mono = np.ones(Z.shape[0], dtype=complex)
        for i, e in enumerate(beta):
            if e:
                mono *= Z[:, i] ** e
        out.append((beta, abs(complex(np.sum(mono * fvals) * wq))))
    return out


PAIRING_CASES = [
    (SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16}), CubeMeasure.torus(4, 4)),
    (SparsePoly(4, {(0, 0, 0, 0): 1, (2, 0, 0, 0): -1, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1, (0, 0, 0, 2): -1}),
     CubeMeasure.sphere_patch(4, 4)),
]


def test_monomial_pairings_equal_the_hand_built_loop():
    for f, mu in PAIRING_CASES:
        cert = energy_lower_bound(SpaceSpec.drury_arveson(4), f, mu, n_base=6, max_doublings=0)
        got = cert.audit["max_abs_monomial_pairing_deg6"]
        assert got.hex() == max(v for _, v in _oracle_pairings(mu, f, 8)).hex()
        assert list(cert.audit)[-1] == "max_abs_monomial_pairing_deg6"


def test_each_monomial_pairing_equals_the_hand_built_loop(monkeypatch):
    # the audit keeps only the maximum, so the certificate is built once per
    # monomial, with the monomial list cut to that one and the energy stubbed
    # with its real value (computed once per cube): the audit then holds that
    # monomial's pairing, and each one is pinned to its bits
    for f, mu in PAIRING_CASES:
        res = certify.energy(mu, n_base=6, max_doublings=0)
        monkeypatch.setattr(certify, "energy", lambda *args, **kwargs: res)
        for beta, want in _oracle_pairings(mu, f, 8):
            monkeypatch.setattr(certify, "graded_monomials", lambda d, m, beta=beta: [beta])
            cert = energy_lower_bound(SpaceSpec.drury_arveson(4), f, mu, n_base=6, max_doublings=0)
            assert cert.audit["max_abs_monomial_pairing_deg6"].hex() == want.hex(), beta


def test_functional_norm_refuses_orders_it_cannot_bound():
    for j in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="the order j must be an integer >= 0"):
            functional_norm(j, 6)
        with pytest.raises(ValueError, match="the order j must be an integer >= 0"):
            DerivativeFunctional(j, 6)
    for alpha in (math.nan, 3, -math.inf):
        with pytest.raises(ValueError, match="unbounded"):
            functional_norm(1, alpha)
        with pytest.raises(ValueError, match="unbounded"):
            DerivativeFunctional(1, alpha)


def _broadcast_param_inv_sq_integral(m, n):
    """The box-integral quadrature as one n^m broadcast array and one np.sum."""
    h = 4.0 / n
    x = -2.0 + (np.arange(n) + 0.5) * h
    w, x2 = 2.0 - np.abs(x), x**2
    dens, r2 = w, x2
    for _ in range(m - 1):
        dens, r2 = dens[..., None] * w, r2[..., None] + x2
    dens /= r2
    return float(np.sum(dens) * h**m)


def test_box_integral_follows_the_pairwise_tree_of_one_sum():
    # leaves of 2^14 points, rows that straddle leaves (n not a power of two),
    # leaves inside one row (m = 1) and grids below one leaf all give the
    # one-array value, bit for bit
    cases = [(1, 10), (1, 100_000), (2, 100), (2, 2048), (2, 334), (3, 6), (3, 8), (3, 48), (3, 64),
             (3, 100), (3, 128), (4, 20), (4, 36), (5, 10), (5, 14)]
    for m, n in cases:
        assert _param_inv_sq_integral(m, n) == _broadcast_param_inv_sq_integral(m, n), (m, n)


def test_box_integral_holds_no_grid():
    # 2^21 points, 16 MB as one float64 array; and one row of 2^20 points,
    # where the three per-axis arrays (x, w, x^2) alone take 8n bytes each
    for m, n in [(3, 128), (1, 1 << 20)]:
        tracemalloc.start()
        try:
            _param_inv_sq_integral(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6 + (3 * 8 * n if m == 1 else 0), (m, n)


def test_energy_grid_arguments_are_checked():
    mu = CubeMeasure.torus(4, 4)
    f4 = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})
    da4 = SpaceSpec.drury_arveson(4)
    for kw, match in [({"n_base": 0}, "n_base must be an integer >= 1, got 0"),
                      ({"n_base": -3}, "n_base must be an integer >= 1, got -3"),
                      ({"n_base": 6.0}, "n_base must be an integer >= 1, got 6.0"),
                      ({"max_doublings": -1}, "max_doublings must be an integer >= 0, got -1"),
                      ({"max_doublings": 1.5}, "max_doublings must be an integer >= 0, got 1.5")]:
        with pytest.raises(ValueError, match=match):
            energy(mu, **kw)
        with pytest.raises(ValueError, match=match):
            energy_lower_bound(da4, f4, mu, **kw)
    # one m >= 3 check serves both, with one message
    for run in (lambda mu: energy(mu), lambda mu: energy_lower_bound(SpaceSpec.drury_arveson(3), f4, mu)):
        with pytest.raises(ValueError, match=r"torus\(k=3, d=3\): the cube needs dimension m >= 3, got m = 2"):
            run(CubeMeasure.torus(3, 3))


def test_named_cubes_share_one_argument_check():
    for family in (CubeMeasure.torus, CubeMeasure.sphere_patch):
        with pytest.raises(ValueError, match="need 2 <= k <= d"):
            family(1, 4)
        with pytest.raises(ValueError, match="need 2 <= k <= d"):
            family(4, 3)
        for shrink in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"shrink must be in \(0,1\)"):
                family(4, 4, shrink)
