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

Inside ``blas_on_calling_thread`` numpy's own OpenBLAS runs on the calling
thread.  ``certify.energy`` and the shift probe enter it, since their
complex products (the lattice sum's points @ conj(phi(0)), the chord
scan's block @ 2 W*, a chart's own @ U) each wake an OpenBLAS helper thread,
which then spins idle on a CPU for about 50 ms.  On a 2-CPU x86_64 machine
the energy certificate of the rotated torus took 0.18 s with the helper
and 0.11 s without it (medians of ten benchmark runs).  The real tile
products of the pair sum do not wake it.  The bits stay: OpenBLAS splits
gemm and gemv work by output element, so each element is formed the same
way on any number of threads.  scipy's LAPACK is a separate OpenBLAS and
is left alone, because its thread count does move bits: the float
Cholesky of a 201-unknown profile factors differently on one thread.

``min_chord_ratio`` forms the columns 2 W* and 2 S^T and the squared norms
of every row and column once, then scans CHORD_ROWS rows at a time.
Doubling is exact barring overflow or underflow, so Re(Z @ 2 W*) is
bitwise 2 Re(Z @ W*) and no block doubles a strided real part in place.
Only one block's temporaries are alive at once: at 12 nodes per axis on an
m = 3 cube (1728 x 1728 pairs) that is the block's complex product
(0.44 MB) while its squared chords form, then its real (16, 1728) arrays,
a traced peak of 0.87 MB.  Blocks of 64 rows peaked at 2.9 MB and took
twice as long.  On a 2-CPU x86_64 machine the scan took 21.1 ms, and
24.8 ms when each block doubled its real parts in place (medians of 25
interleaved rounds).

Shift-invariant cubes (the torus, and a cube from ``from_callable`` whose
probe finds the lattice, such as a unitary turn of the torus) never reach
``energy_pair_sum`` at full size: ``certify.energy`` sums them over the
difference lattice and calls the pair sum only once, at the base grid, to
check that sum.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TILE_ROWS = 16
TILE_COLS = 4096  # two float64 tiles of 16 x 4096: 1 MB of scratch per worker
CHUNK_ROWS = 512  # rows per unit of work handed to a worker
CHORD_ROWS = 16  # rows per block of the chord-ratio scan: its temporaries stay in cache


# (get, set) symbol pairs of the thread count, by OpenBLAS build: numpy's
# ILP64 wheels prefix and suffix them, other builds do not
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
_blas_depth = 0  # blocks of blas_on_calling_thread open in the process
_blas_saved = None  # the thread count to restore when the last one closes


def backend() -> str:
    """The kernel implementation in force, always 'numpy'; only the benchmark report records it."""
    return "numpy"


def _workers() -> int:
    """Threads for the pair sum: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _numpy_openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy's
    wheel, looked up on first use; None for a numpy built on another BLAS."""
    root = Path(np.__file__).resolve().parent
    for libdir in (root.parent / "numpy.libs", root / ".dylibs"):
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))  # the copy numpy already loaded
            for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
                get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
                if get is not None and set_ is not None:
                    get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                    return get, set_
    return None


@contextmanager
def blas_on_calling_thread():
    """numpy's OpenBLAS at one thread inside the block, the previous count
    restored when the last open block exits (exceptions included); a no-op
    where numpy's OpenBLAS is not found.  Also a decorator.

    Nested and concurrent blocks share one saved count under a lock.  The
    setting is process-wide, so it also holds for the pair sum's workers.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        lib = _numpy_openblas()
        if lib is not None and _blas_depth == 0:
            _blas_saved = lib[0]()
            lib[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if lib is not None and _blas_depth == 0:
                lib[1](_blas_saved)


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
    (the grids never collide, so |t - s| > 0).

    Squared gaps are |x|^2 + |y|^2 - 2 Re<x, y>, which keeps the scan at
    matmul cost.  The norms are formed once for all rows, and the columns
    2 W* and 2 S^T carry the 2, exactly, so no block doubles its product
    (see the module docstring)."""
    Z = np.ascontiguousarray(Z, dtype=complex)
    W = np.ascontiguousarray(W, dtype=complex)
    T = np.ascontiguousarray(T, dtype=float)
    S = np.ascontiguousarray(S, dtype=float)
    nz2, nw2 = np.sum(np.abs(Z) ** 2, axis=1), np.sum(np.abs(W) ** 2, axis=1)
    nt2, ns2 = np.sum(T**2, axis=1), np.sum(S**2, axis=1)
    W2, S2 = 2.0 * W.conj().T, 2.0 * S.T
    best = math.inf
    for start in range(0, Z.shape[0], CHORD_ROWS):
        rows = slice(start, start + CHORD_ROWS)
        chord2 = np.add.outer(nz2[rows], nw2)
        chord2 -= (Z[rows] @ W2).real  # the complex product dies here
        param2 = np.add.outer(nt2[rows], ns2)
        param2 -= T[rows] @ S2
        np.maximum(chord2, 0.0, out=chord2)
        np.maximum(param2, 1e-300, out=param2)
        chord2 /= param2
        best = float(np.minimum(best, chord2.min()))  # a nan block stays nan, where min() would drop it
        del chord2, param2  # before the next block's product
    return math.sqrt(best)
