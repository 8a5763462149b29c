"""Optimal polynomial approximants and distance profiles.

For a space with orthogonal monomials, a target g and a generator f, the
best approximation of g from span{z^beta f : |beta| <= m} is found by
solving the Hermitian positive definite Gram system

    G a = c,   G[i][j] = <z^(beta_j) f, z^(beta_i) f>,  c[i] = <g, z^(beta_i) f>,

over the graded lexicographic monomial basis, and

    dist^2 = ||g||^2 - c* a.

One routine, ``_gram_columns``, computes the nonzero entries of G for both
``assemble_gram`` and ``finite_section_mult_bound``: it picks the exact or
float path once per call, then runs one loop over pairs of terms of f.

Three solver paths: exact rational LDL* (default for small exact systems),
scaled float Cholesky (large sweeps), and an mpmath retry that kicks in
when the float pivots collapse below 1e-13 of the largest one.

Profile functions assemble a single Gram matrix at the top degree and sweep
its nested leading blocks, which the graded order makes exactly the
lower-degree systems.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub

import numpy as np
import scipy.linalg

from .poly import SparsePoly, series_invert
from .scalars import ComplexRational, path_casts
from .spaces import SpaceSpec, homogeneous_norms_sq, inner_product, monomial_norm_sq, norm_sq

BASIS_ORDER = "grlex"
AUTO_EXACT_LIMIT = 64
PIVOT_COLLAPSE = 1e-13
DIST_SQ_CLAMP = -1e-12


def graded_monomials(d: int, max_degree: int) -> list[tuple]:
    """All exponents with |beta| <= max_degree in graded lexicographic order
    (degree first, then lex with z_1 highest, so z_1^n leads its block)."""

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, slots - 1):
                yield (first,) + rest

    out = []
    for n in range(max_degree + 1):
        out.extend(sorted(compositions(n, d), reverse=True))
    return out


@dataclass(frozen=True)
class GramSystem:
    space: SpaceSpec
    f: SparsePoly
    g: SparsePoly
    degree: int
    basis: tuple
    matrix: object  # nested lists (exact) or numpy array (float)
    rhs: object
    g_norm_sq: object
    exact: bool
    order: str = BASIS_ORDER

    def block_sizes(self) -> dict[int, int]:
        """degree -> number of basis elements with |beta| <= degree."""
        sizes = {}
        for i, b in enumerate(self.basis):
            sizes[sum(b)] = i + 1
        out, run = {}, 0
        for m in range(self.degree + 1):
            run = sizes.get(m, run)
            out[m] = run
        return out


def _gram_columns(space: SpaceSpec, f: SparsePoly, basis, exact: bool):
    """Yield (j, {i: <z^(beta_j) f, z^(beta_i) f>}) over basis, nonzero entries only.

    Orthogonality of monomials collapses each entry to a sum over pairs of
    terms of f whose exponents differ by beta_i - beta_j, so assembly costs
    O(len(basis) * len(f.terms)^2) dictionary operations; each product
    c_delta conj(c_eps) is formed once per pair.  Column by column, so no
    more than one column of entries is held as Python objects at a time.
    """
    cast, weight = path_casts(exact)
    zero = cast(0)
    fitems = [(delta, cast(c)) for delta, c in f.terms.items()]
    pairs = [(delta, [(tuple(map(sub, delta, eps)), cd * ce.conjugate()) for eps, ce in fitems])
             for delta, cd in fitems]
    index = {b: i for i, b in enumerate(basis)}
    for j, bj in enumerate(basis):
        col = {}
        for delta, row in pairs:
            w = weight(monomial_norm_sq(space, tuple(map(add, bj, delta))))
            for shift, p in row:
                # exponents off the basis (negative or past the degree) miss the index
                i = index.get(tuple(map(add, bj, shift)))
                if i is not None:
                    col[i] = col.get(i, zero) + p * w
        yield j, col


def _dense(columns, n: int, exact: bool):
    """Scatter Gram columns into nested lists (exact) or a numpy array."""
    if exact:
        G = [[ComplexRational()] * n for _ in range(n)]
        for j, col in columns:
            for i, v in col.items():
                G[i][j] = v
        return G
    G = np.zeros((n, n), dtype=complex)
    for j, col in columns:
        G[list(col), j] = list(col.values())
    return G


def assemble_gram(space: SpaceSpec, f: SparsePoly, g: SparsePoly, max_degree: int, force_float: bool = False) -> GramSystem:
    """Build the Gram system of {z^beta f} against target g."""
    if f.dim != space.d or g.dim != space.d:
        raise ValueError("dimension mismatch between space and polynomials")
    if f.is_zero():
        raise ValueError("the generator must be nonzero")
    basis = graded_monomials(space.d, max_degree)
    exact = space.is_exact and f.is_exact() and g.is_exact() and not force_float
    G = _dense(_gram_columns(space, f, basis, exact), len(basis), exact)

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

    return GramSystem(
        space=space, f=f, g=g, degree=max_degree, basis=tuple(basis),
        matrix=G, rhs=c if exact else np.array(c, dtype=complex), g_norm_sq=norm_sq(space, g), exact=exact,
    )


@dataclass(frozen=True)
class ConditioningReport:
    path: str  # "exact" | "float" | "mpmath"
    min_pivot: float
    max_pivot: float
    flagged: bool = False


@dataclass(frozen=True)
class ApproximantResult:
    degree: int
    basis: tuple
    coefficients: tuple
    dist_sq: object  # Fraction (exact) or float
    conditioning: ConditioningReport
    exact: bool
    order: str = BASIS_ORDER

    def polynomial(self, dim: int) -> SparsePoly:
        return SparsePoly(dim, dict(zip(self.basis, self.coefficients)))


def _solve_ldl_exact(G, c):
    """LDL* for Hermitian positive definite rational matrices.

    Returns (solution, pivots); raises ArithmeticError when a pivot is not
    real positive (the system was not positive definite).
    """
    n = len(G)
    L = [[ComplexRational() for _ in range(n)] for _ in range(n)]
    D: list[Fraction] = []
    for i in range(n):
        acc = G[i][i]
        for k in range(i):
            acc = acc - L[i][k] * L[i][k].conjugate() * D[k]
        if not acc.is_real or acc.re <= 0:
            raise ArithmeticError(f"pivot {i} is not real positive: {acc!r}")
        D.append(acc.re)
        L[i][i] = ComplexRational(1)
        for j in range(i + 1, n):
            s = G[j][i]
            for k in range(i):
                s = s - L[j][k] * L[i][k].conjugate() * D[k]
            L[j][i] = s / D[i]
    # L y = c
    y = []
    for i in range(n):
        s = c[i]
        for k in range(i):
            s = s - L[i][k] * y[k]
        y.append(s)
    # D z = y, L* a = z
    z = [y[i] / D[i] for i in range(n)]
    a = [ComplexRational()] * n
    for i in range(n - 1, -1, -1):
        s = z[i]
        for k in range(i + 1, n):
            s = s - L[k][i].conjugate() * a[k]
        a[i] = s
    return a, D


def _solve_chol_float(G: np.ndarray, c: np.ndarray):
    """Jacobi-prescaled Cholesky; returns (a, min_pivot, max_pivot)."""
    dg = np.real(np.diag(G)).copy()
    if np.any(dg <= 0):
        raise np.linalg.LinAlgError("non-positive diagonal")
    s = 1.0 / np.sqrt(dg)
    Gs = G * s[:, None] * s[None, :]
    L = np.linalg.cholesky(Gs)
    piv = np.diag(L).real ** 2
    y = scipy.linalg.solve_triangular(L, c * s, lower=True)
    x = scipy.linalg.solve_triangular(L.conj().T, y, lower=False)
    return x * s, float(piv.min()), float(piv.max())


def _solve_mpmath(G, c, dps=60):
    import mpmath as mp

    with mp.workdps(dps):
        A = mp.matrix([[mp.mpc(z) for z in row] for row in np.asarray(G, dtype=complex)])
        b = mp.matrix([mp.mpc(z) for z in np.asarray(c, dtype=complex)])
        x = mp.lu_solve(A, b)
        return np.array([complex(x[i]) for i in range(len(c))], dtype=complex)


def _solve_block(system: GramSystem, size: int, method: str):
    """Solve the leading size x size block; returns (coeffs, dist_sq, report)."""
    if method == "auto":
        method = "exact" if (system.exact and size <= AUTO_EXACT_LIMIT) else "float"
    if method == "exact":
        if not system.exact:
            raise ValueError("exact solve requested on a float-path system")
        G = [row[:size] for row in system.matrix[:size]]
        c = list(system.rhs[:size])
        a, D = _solve_ldl_exact(G, c)
        csa = ComplexRational()
        for ci, ai in zip(c, a):
            csa = csa + ci.conjugate() * ai
        if not csa.is_real:
            raise ArithmeticError("projection norm came out non-real")
        dist_sq = Fraction(system.g_norm_sq) - csa.re
        report = ConditioningReport("exact", float(min(D)), float(max(D)), False)
        return tuple(a), dist_sq, report

    if system.exact:
        Gf = np.array([[complex(system.matrix[i][j]) for j in range(size)] for i in range(size)], dtype=complex)
        cf = np.array([complex(x) for x in system.rhs[:size]], dtype=complex)
    else:
        Gf = np.ascontiguousarray(system.matrix[:size, :size])
        cf = np.ascontiguousarray(system.rhs[:size])
    gn = float(system.g_norm_sq)

    flagged = False
    path = "float"
    try:
        a, pmin, pmax = _solve_chol_float(Gf, cf)
        if pmin < PIVOT_COLLAPSE * pmax:
            flagged = True
    except np.linalg.LinAlgError:
        a, pmin, pmax = None, 0.0, 1.0
        flagged = True
    if method == "mpmath" or flagged:
        a = _solve_mpmath(Gf, cf)
        path = "mpmath"
    dist_sq = gn - float(np.vdot(cf, a).real)
    if dist_sq < 0:
        if dist_sq < DIST_SQ_CLAMP:
            raise ArithmeticError(f"dist_sq = {dist_sq} below the clamp window")
        dist_sq = 0.0
    report = ConditioningReport(path, pmin, pmax, flagged)
    return tuple(a), dist_sq, report


def optimal_approximant(system: GramSystem, degree: int | None = None, method: str = "auto") -> ApproximantResult:
    """Best approximation of g from {p f : deg p <= degree} (degree defaults
    to the system degree)."""
    m = system.degree if degree is None else degree
    if m > system.degree:
        raise ValueError("requested degree exceeds the assembled system")
    size = system.block_sizes()[m]
    a, dist_sq, report = _solve_block(system, size, method)
    return ApproximantResult(
        degree=m, basis=system.basis[:size], coefficients=a, dist_sq=dist_sq,
        conditioning=report, exact=report.path == "exact",
    )


@dataclass(frozen=True)
class ProfilePoint:
    m: int
    dist_sq: float
    min_pivot: float
    runtime_ms: float
    path: str


def distance_profile(space: SpaceSpec, f: SparsePoly, g: SparsePoly, degrees, method: str = "auto") -> list[ProfilePoint]:
    """dist(g, {p f : deg p <= m})^2 for each m in degrees (one assembly)."""
    degrees = sorted(set(int(m) for m in degrees))
    if not degrees:
        return []
    if min(degrees) < 0:
        raise ValueError("degrees must be >= 0")
    # One storage decision for the whole sweep: float once the top block
    # outgrows the exact-solver budget, so blocks are sliced, not converted.
    top_size = len(graded_monomials(space.d, max(degrees)))
    force_float = method == "float" or (method == "auto" and top_size > AUTO_EXACT_LIMIT)
    system = assemble_gram(space, f, g, max(degrees), force_float=force_float)
    out = []
    for m in degrees:
        t0 = time.perf_counter()
        res = optimal_approximant(system, degree=m, method=method)
        dt = (time.perf_counter() - t0) * 1000.0
        out.append(ProfilePoint(m, float(res.dist_sq), res.conditioning.min_pivot, dt, res.conditioning.path))
    return out


def cyclicity_profile(space: SpaceSpec, f: SparsePoly, degrees, method: str = "auto") -> list[ProfilePoint]:
    """Distance from 1 to polynomial multiples of f, degree by degree; the
    profile is non-increasing, and reaching 0 in the limit is cyclicity."""
    one = SparsePoly.one(space.d)
    return distance_profile(space, f, one, degrees, method=method)


def hc_profile(space: SpaceSpec, phi: SparsePoly, n: int, degrees, method: str = "auto") -> list[ProfilePoint]:
    """Distances dist(phi^n, {p phi^(n+1) : deg p <= m}).

    Decay to 0 witnesses [phi^n] = [phi^(n+1)], the degree-n to degree-(n+1)
    step of the cyclicity-hierarchy membership of phi.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return distance_profile(space, phi ** (n + 1), phi ** n, degrees, method=method)


def membership_profile(space: SpaceSpec, h: SparsePoly, f: SparsePoly, k: int, degrees, method: str = "auto") -> list[ProfilePoint]:
    """Distances dist(h, {p f^k : deg p <= m}); upper bounds on the distance
    from h to the closed polynomial-multiple subspace of f^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return distance_profile(space, f ** k, h, degrees, method=method)


def finite_section_mult_bound(space: SpaceSpec, phi: SparsePoly, max_degree: int) -> float:
    """Largest ratio ||phi p|| / ||p|| over polynomials of degree <= max_degree.

    A lower bound for the multiplier norm of phi, non-decreasing in the
    degree; computed as the top generalized eigenvalue of the section of
    M_phi* M_phi against the diagonal of monomial norms.
    """
    basis = graded_monomials(space.d, max_degree)
    A = _dense(_gram_columns(space, phi, basis, exact=False), len(basis), exact=False)
    D = np.diag([float(monomial_norm_sq(space, b)) for b in basis])
    vals = scipy.linalg.eigh(A, D, eigvals_only=True)
    top = float(vals[-1])
    return math.sqrt(max(top, 0.0))


@dataclass(frozen=True)
class SweepRow:
    r: float
    M: int
    norm_sq: float
    last_block_rel: float
    accepted: bool


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    sup_norm_sq: float
    tail_threshold: float

    def accepted_for(self, r: float):
        best = [row for row in self.rows if row.r == r and row.accepted]
        return best[0] if best else None


TAIL_THRESHOLD = 1e-8


def ratio_norm_sweep(space: SpaceSpec, p: SparsePoly, s: int, k: int, r_grid, M_grid) -> SweepResult:
    """Norms of truncations of p^(s+k) / p_r^s across dilation radii.

    The caller asserts p has no zeros in the closed ball scaled by each r
    (p_r keeps a convergent reciprocal series).  For each r the truncation
    degree is accepted once the top homogeneous block contributes less than
    TAIL_THRESHOLD of the accumulated squared norm; the sweep supremum is
    taken over the accepted truncations.
    """
    if s < 0 or k < 0:
        raise ValueError("need s, k >= 0")
    M_grid = sorted(set(int(M) for M in M_grid))
    if not M_grid or M_grid[0] < 0:
        raise ValueError("need a non-empty grid of truncation degrees >= 0")
    M_max = M_grid[-1]
    num = p ** (s + k)
    rows = []
    sup = 0.0
    for r in r_grid:
        pr = p.dilate(float(r))
        inv = series_invert(pr, M_max)
        h = num.truncate(M_max)
        for _ in range(s):
            h = (h * inv).truncate(M_max)
        blocks = homogeneous_norms_sq(space, h.to_float())
        acc_at = {}
        run = 0.0
        for n in range(M_max + 1):
            run += float(blocks.get(n, 0.0))
            acc_at[n] = run
        got_accepted = False
        for M in M_grid:
            total = acc_at[M]
            last = float(blocks.get(M, 0.0))
            rel = last / total if total > 0 else 0.0
            accepted = rel < TAIL_THRESHOLD
            rows.append(SweepRow(float(r), M, total, rel, accepted))
            if accepted and not got_accepted:
                sup = max(sup, total)
                got_accepted = True
        if not got_accepted:
            sup = max(sup, acc_at[M_max])
    return SweepResult(rows=tuple(rows), sup_norm_sq=sup, tail_threshold=TAIL_THRESHOLD)
