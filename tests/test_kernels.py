"""The pair-sum quadrature kernels against direct loops and hand-computed cases."""

from __future__ import annotations

import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from besovball import certify, kernels
from besovball.kernels import CHUNK_ROWS, TILE_COLS, TILE_ROWS, energy_pair_sum, min_chord_ratio


def _random_sphere_points(rng, n, d):
    z = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _pair_sum_reference(Z, W):
    total = 0.0
    for i in range(Z.shape[0]):
        for j in range(W.shape[0]):
            total += 1.0 / abs(1.0 - np.vdot(W[j], Z[i]).conjugate())
    return total


def test_energy_pair_sum_vs_direct_loop():
    rng = np.random.default_rng(7)
    W = _random_sphere_points(rng, 53, 3) * 0.7
    # one partial row tile, then several full chunks and a partial last chunk
    # that ends in a partial row tile
    for rows in (37, 2 * CHUNK_ROWS + TILE_ROWS + 5):
        Z = _random_sphere_points(rng, rows, 3) * 0.7
        assert energy_pair_sum(Z, W) == pytest.approx(_pair_sum_reference(Z, W), rel=1e-12)
    # a full column tile and a partial one
    Z = _random_sphere_points(rng, 3, 3) * 0.7
    W = _random_sphere_points(rng, TILE_COLS + 53, 3) * 0.7
    assert energy_pair_sum(Z, W) == pytest.approx(_pair_sum_reference(Z, W), rel=1e-12)


def test_energy_pair_sum_is_bitwise_independent_of_the_cpu_count(monkeypatch):
    rng = np.random.default_rng(11)
    Z = _random_sphere_points(rng, 5 * CHUNK_ROWS + 7, 4)
    W = _random_sphere_points(rng, TILE_COLS + 300, 4) * 0.9
    default = energy_pair_sum(Z, W)
    # one worker, then one per chunk (six workers)
    for cpus in (1, 7):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)), raising=False)
        assert energy_pair_sum(Z, W) == default


def test_min_chord_ratio_small_case():
    Z = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    W = np.array([[0.0, 1.0 + 0j]])
    T = np.array([[0.0], [1.0]])
    S = np.array([[3.0]])
    # pairs: (z0,w0): chord sqrt(2), gap 3; (z1,w0): chord 0, gap 2
    assert min_chord_ratio(Z, W, T, S) == pytest.approx(0.0)
    Z1 = np.array([[1.0 + 0j, 0.0]])
    T1 = np.array([[0.0]])
    S2 = np.array([[0.5]])
    assert min_chord_ratio(Z1, W, T1, S2) == pytest.approx(math.sqrt(2.0) / 0.5)


def test_min_chord_ratio_keeps_a_nan_block():
    # min(best, nan) keeps best, so a nan in any block but the first was dropped
    torus = certify.CubeMeasure.torus(4, 4)
    T1, Z1 = torus.grid(12, offset=0.0)
    T2, Z2 = torus.grid(12, offset=0.5)
    Z1[700, 0] = math.nan
    assert math.isnan(min_chord_ratio(Z1, Z2, T1, T2))


def _chord_ratio_512_rows(Z, W, T, S):
    """min_chord_ratio as it was formed in 512-row blocks of full temporaries."""
    nw2 = np.sum(np.abs(W) ** 2, axis=1)
    ns2 = np.sum(S**2, axis=1)
    Wc = W.conj()
    best = math.inf
    for start in range(0, Z.shape[0], 512):
        zb, tb = Z[start : start + 512], T[start : start + 512]
        nz2 = np.sum(np.abs(zb) ** 2, axis=1)
        nt2 = np.sum(tb**2, axis=1)
        chord2 = nz2[:, None] + nw2[None, :] - 2.0 * np.real(zb @ Wc.T)
        param2 = nt2[:, None] + ns2[None, :] - 2.0 * (tb @ S.T)
        best = min(best, float((np.maximum(chord2, 0.0) / np.maximum(param2, 1e-300)).min()))
    return math.sqrt(best)


# a seeded rational rotation of C^4 (a Cayley transform), as the rotated torus uses
_U4 = [[Fraction(x, 109) for x in row] for row in
       ([8, 96, 24, 45], [12, 35, 36, -96], [-108, 12, 3, -8], [3, 36, -100, -24])]


@pytest.mark.parametrize("name, frozen", [
    ("torus", 0.1719090952697469),
    ("sphere_patch", 0.06528351294424922),
    ("rotated torus", 0.17190909526974657),
    ("torus(4, 6)", 0.1719090952697469),  # two zero coordinates
    ("torus, 8 nodes", 0.22723593031488395),
])
def test_min_chord_ratio_is_frozen_on_the_certificate_cubes(name, frozen):
    # c_estimate feeds the frozen energy lower bound, so the scan must give
    # the same float as the 512-row blocks it replaced, at the 12-node grid
    # and at the 8-node one of a certificate that stops at n = 8
    torus = certify.CubeMeasure.torus(4, 4)
    U = np.array(_U4, dtype=float)
    cube, nodes = {"torus": (torus, 12), "torus, 8 nodes": (torus, 8),
                   "torus(4, 6)": (certify.CubeMeasure.torus(4, 6), 12),
                   "sphere_patch": (certify.CubeMeasure.sphere_patch(4, 4), 12),
                   "rotated torus": (certify.CubeMeasure.from_callable(3, 4, lambda T: torus.phi(T) @ U), 12)}[name]
    T1, Z1 = cube.grid(nodes, offset=0.0)
    T2, Z2 = cube.grid(nodes, offset=0.5)
    got = min_chord_ratio(Z1, Z2, T1, T2)
    assert got == _chord_ratio_512_rows(Z1, Z2, T1, T2)
    assert got == frozen


def test_min_chord_ratio_scratch_is_one_block():
    # one 16-row block's temporaries at a time, 0.92 MB; 6.3 MB when each
    # 64-row block's complex product outlived it into the next block
    torus = certify.CubeMeasure.torus(4, 4)
    T1, Z1 = torus.grid(12, offset=0.0)
    T2, Z2 = torus.grid(12, offset=0.5)
    tracemalloc.start()
    try:
        c = min_chord_ratio(Z1, Z2, T1, T2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    assert c == 0.1719090952697469


def test_blas_scope_nests_and_restores_the_count():
    lib = kernels._numpy_openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    get, set_ = lib
    before = get()
    set_(2)
    try:
        with kernels.blas_on_calling_thread():
            with kernels.blas_on_calling_thread():
                assert get() == 1
            assert get() == 1
        assert get() == 2
        # two blocks that close out of order, as on two threads: the count
        # comes back when the last one closes
        a, b = kernels.blas_on_calling_thread(), kernels.blas_on_calling_thread()
        a.__enter__()
        b.__enter__()
        a.__exit__(None, None, None)
        assert get() == 1
        b.__exit__(None, None, None)
        assert get() == 2
        with pytest.raises(ZeroDivisionError):
            with kernels.blas_on_calling_thread():
                1 / 0
        assert get() == 2
    finally:
        set_(before)


def test_blas_scope_without_the_library_does_nothing(monkeypatch):
    monkeypatch.setattr(kernels, "_numpy_openblas", lambda: None)
    with kernels.blas_on_calling_thread():
        # <z_i, w_j> is 1/2 on the diagonal and 0 off it: 2 * 2 + 2 * 1
        assert energy_pair_sum(np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex)) == 6.0
    assert kernels._blas_depth == 0
