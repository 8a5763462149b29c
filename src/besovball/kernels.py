"""Pair-sum quadrature kernels over two point sets on the unit sphere of C^d.

The Riesz-type energy of a parametrized surface measure needs a sum over all
pairs of quadrature nodes (n^m x n^m pairs for an m-cube), and the
reverse-Lipschitz estimate a minimum over the same kind of pair grid.

``energy_pair_sum`` works in real arithmetic.  For z = a + ib and w = c + id
the rows [a, b, 1] of one real matrix give 1 - Re<z, w> against the column
[-c, -d, 1] and Im<z, w> against [-d, c, 0], so each tile of pairs is two
small real matrix products followed by |1 - <z, w>| = sqrt(x^2 + y^2), a
reciprocal and a sum: the ``1 -`` costs nothing and no complex modulus is
taken.  Tiles are TILE_ROWS x TILE_COLS pairs, so a worker's two float64
tile buffers (512 KB each) stay in cache.

The rows of Z are split into fixed chunks of CHUNK_ROWS, which run on one
thread per available CPU (numpy releases the interpreter lock in matrix
products and ufuncs).  Besides the real copies of Z and W (2d + 1 floats
per point, twice over for W), scratch memory is one pair of tile buffers per
worker, whatever the number of pairs.  Each chunk sums its tiles in a fixed
order, and ``math.fsum`` sums the chunk totals in chunk order, so the result
does not depend on the number of workers, bit for bit.

Shift-invariant cubes (the torus, and a cube from ``from_callable`` whose
probe finds the lattice, such as a unitary turn of the torus) never reach
``energy_pair_sum`` at full size: ``certify.energy`` sums them over the
difference lattice and calls the pair sum only once, at the base grid, to
check that sum.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

TILE_ROWS = 16
TILE_COLS = 4096  # two float64 tiles of 16 x 4096: 1 MB of scratch per worker
CHUNK_ROWS = 512  # rows per unit of work handed to a worker
CHORD_ROWS = 64  # rows per block of the chord-ratio scan: its temporaries stay in cache


def backend() -> str:
    """The kernel implementation in force, always 'numpy'; only the benchmark report records it."""
    return "numpy"


def _workers() -> int:
    """Threads for the pair sum: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def energy_pair_sum(Z: np.ndarray, W: np.ndarray) -> float:
    """Sum over all pairs (i, j) of 1 / |1 - <z_i, w_j>| for rows of Z, W on
    the unit sphere of C^d.

    Works tile by tile on real operands (see the module docstring); the value
    is the same, bit for bit, for every number of CPUs.
    """
    Z = np.asarray(Z, dtype=complex)
    W = np.asarray(W, dtype=complex)
    A = np.hstack([Z.real, Z.imag, np.ones((Z.shape[0], 1))])

    def w_columns(w):  # A @ these gives 1 - Re<z, w> and Im<z, w>
        ones = np.ones((w.shape[0], 1))
        # C order: on the transposed layout two workers ran the products 3x slower
        return (np.hstack([-w.real, -w.imag, ones]).T.copy(),
                np.hstack([-w.imag, w.real, 0.0 * ones]).T.copy())

    col_tiles = [w_columns(W[c : c + TILE_COLS]) for c in range(0, W.shape[0], TILE_COLS)]

    def chunk_sum(start: int) -> float:
        x_buf = np.empty(TILE_ROWS * TILE_COLS)
        y_buf = np.empty(TILE_ROWS * TILE_COLS)
        total = 0.0
        for bx, by in col_tiles:
            for r in range(start, min(start + CHUNK_ROWS, A.shape[0]), TILE_ROWS):
                a = A[r : r + TILE_ROWS]
                # contiguous prefixes: strided views halved the speed of partial tiles
                shape = (a.shape[0], bx.shape[1])
                x = x_buf[: shape[0] * shape[1]].reshape(shape)
                y = y_buf[: shape[0] * shape[1]].reshape(shape)
                np.matmul(a, bx, out=x)
                np.matmul(a, by, out=y)
                np.multiply(x, x, out=x)
                np.multiply(y, y, out=y)
                np.add(x, y, out=x)
                np.sqrt(x, out=x)
                np.reciprocal(x, out=x)
                total += float(x.sum())
        return total

    starts = range(0, Z.shape[0], CHUNK_ROWS)
    with ThreadPoolExecutor(max_workers=max(1, min(_workers(), len(starts)))) as pool:
        return math.fsum(pool.map(chunk_sum, starts))


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
    Wc = W.conj().T
    best = math.inf
    for start in range(0, Z.shape[0], CHORD_ROWS):
        zb = Z[start : start + CHORD_ROWS]
        tb = T[start : start + CHORD_ROWS]
        nz2 = np.sum(np.abs(zb) ** 2, axis=1)
        nt2 = np.sum(tb**2, axis=1)
        # the per-pair expressions of (nz2 + nw2) - 2 Re<z, w>, formed in place
        g = (zb @ Wc).real
        g *= 2.0
        chord2 = np.add.outer(nz2, nw2)
        chord2 -= g
        tp = tb @ S.T
        tp *= 2.0
        param2 = np.add.outer(nt2, ns2)
        param2 -= tp
        np.maximum(chord2, 0.0, out=chord2)
        np.maximum(param2, 1e-300, out=param2)
        chord2 /= param2
        best = float(np.minimum(best, chord2.min()))  # a nan block stays nan, where min() would drop it
    return math.sqrt(best)
