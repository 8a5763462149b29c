"""The pair-sum quadrature kernels against direct loops and hand-computed cases."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

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
