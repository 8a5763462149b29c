"""Pair-sum quadrature kernels over two point sets on the unit sphere of C^d.

The Riesz-type energy of a parametrized surface measure needs a sum over all
pairs of quadrature nodes (n^m x n^m pairs for an m-cube), and the
reverse-Lipschitz estimate a minimum over the same kind of pair grid.  Both
kernels scan the first point set in blocks of rows against the whole second
set, so the pair matrix is never held at once; the blocks are summed in a
fixed order, so results are reproducible.

Shift-invariant cubes (the torus) never reach ``energy_pair_sum`` at full
size: ``certify.energy`` sums them over the difference lattice and calls the
pair sum only once, at the base grid, to check that sum.
"""

from __future__ import annotations

import math

import numpy as np

PAIR_BLOCK_ROWS = 128  # scratch of 128 * |W| * 24 bytes: 100 MB at |W| = 32^3


def backend() -> str:
    """The kernel implementation in force, recorded in manifests: always 'numpy'."""
    return "numpy"


def energy_pair_sum(Z: np.ndarray, W: np.ndarray) -> float:
    """Sum over all pairs (i, j) of 1 / |1 - <z_i, w_j>| for rows of Z, W on
    the unit sphere of C^d.

    Each block of rows works in two preallocated buffers (one complex, one
    real), so no temporary of the full block size is allocated per step.
    """
    Z = np.ascontiguousarray(Z, dtype=complex)
    Wh = np.ascontiguousarray(np.asarray(W, dtype=complex).conj().T)
    rows = min(PAIR_BLOCK_ROWS, Z.shape[0])
    inner = np.empty((rows, Wh.shape[1]), dtype=complex)
    recip = np.empty((rows, Wh.shape[1]), dtype=float)
    total = 0.0
    for start in range(0, Z.shape[0], PAIR_BLOCK_ROWS):
        zb = Z[start : start + PAIR_BLOCK_ROWS]
        b, r = inner[: zb.shape[0]], recip[: zb.shape[0]]
        np.matmul(zb, Wh, out=b)
        np.subtract(1.0, b, out=b)
        np.abs(b, out=r)
        np.reciprocal(r, out=r)
        total += float(r.sum())
    return total


def min_chord_ratio(Z: np.ndarray, W: np.ndarray, T: np.ndarray, S: np.ndarray) -> float:
    """Grid estimate of the reverse-Lipschitz constant of the parametrization:
    min over pairs of |phi(t) - phi(s)| / |t - s| for offset parameter grids
    (the grids never collide, so |t - s| > 0)."""
    Z = np.ascontiguousarray(Z, dtype=complex)
    W = np.ascontiguousarray(W, dtype=complex)
    T = np.ascontiguousarray(T, dtype=float)
    S = np.ascontiguousarray(S, dtype=float)
    # |z - w|^2 = |z|^2 + |w|^2 - 2 Re<z, w> keeps the pair scan at matmul cost
    nw2 = np.sum(np.abs(W) ** 2, axis=1)
    ns2 = np.sum(S**2, axis=1)
    Wc = W.conj()
    best = math.inf
    block = 512
    for start in range(0, Z.shape[0], block):
        zb = Z[start : start + block]
        tb = T[start : start + block]
        nz2 = np.sum(np.abs(zb) ** 2, axis=1)
        nt2 = np.sum(tb**2, axis=1)
        chord2 = nz2[:, None] + nw2[None, :] - 2.0 * np.real(zb @ Wc.T)
        param2 = nt2[:, None] + ns2[None, :] - 2.0 * (tb @ S.T)
        ratio2 = np.maximum(chord2, 0.0) / np.maximum(param2, 1e-300)
        best = min(best, float(ratio2.min()))
    return math.sqrt(best)
