"""Optimal polynomial approximants and distance profiles.

For a space with orthogonal monomials, a target g and a generator f, the
best approximation of g from span{z^beta f : |beta| <= m} is found by
solving the Hermitian positive definite Gram system

    G a = c,   G[i][j] = <z^(beta_j) f, z^(beta_i) f>,  c[i] = <g, z^(beta_i) f>,

over the graded lexicographic monomial basis, and

    dist^2 = ||g||^2 - c* a.

Orthogonal monomials make G[i][j] vanish unless beta_i - beta_j is a
difference of two exponents of f, and c[i] vanish unless beta_i + delta is
an exponent of g for some exponent delta of f.  So G is block diagonal over
the connected components of that difference graph, and only the components
that meet the right-hand side carry a nonzero solution.  ``_reachable``
walks those components from the exponents alone, and ``_system`` builds
every Gram system that is solved over them alone: ``distance_profile``
factors it, and ``assemble_gram`` returns it for ``optimal_approximant``.
Both are exact: the dropped unknowns are 0 in the full solution, so a
result lists only the reachable basis and its coefficients.  Only
``finite_section_mult_bound`` builds the full basis.  Both builders refuse
a system past GRAM_ENTRY_BUDGET entries before assembling it: the
reachable block, or the full section.

Exponents have one index, the mixed-radix integer codes of ``_coder``.
One routine, ``_gram_matrix``, pairs two polynomials over a column and a
row basis, M[i][j] = <z^(beta_j) u, z^(rho_i) v>: it builds G (u = v = f),
c as the conjugate of the one-row pairing <z^(beta_i) f, g>, and the
section of ``finite_section_mult_bound``.  It finds the row of every
candidate term from the codes with numpy, in blocks of at most
GRAM_BLOCK_ENTRIES candidates, and computes each monomial weight once.  The
float path adds the terms with np.bincount and the exact path as
ComplexRational, both in the order of the pairs of terms, so G and c are
those of the per-entry dictionary loops they replaced (bitwise on the float
path, ``==`` on the exact one).  The float path refuses a system whose
weights leave the normal float range.  ``_reachable`` deduplicates
and sorts its walk on the same codes.

Each call factors its top block once, on one of two paths: exact LDL* or
Jacobi-prescaled float Cholesky, with L y = c in the same pass.  The exact
LDL* eliminates the rows of [G | c] as Gaussian integers over one
denominator per row, divides out a row's content once per update rather
than normalising each rational entry, and skips the rows a pivot does not
reach; LDL* is unique, so its D, y and solution are the rational ones.
``auto`` takes the exact path when the inputs are exact and the *reachable*
block has at most AUTO_EXACT_LIMIT unknowns, so profiles of sparse
generators come out exact at degrees whose full basis is far larger.  The
graded order makes the leading blocks the lower-degree systems: every
degree-k prefix of the reachable basis holds whole degree-k components,
every reachable one among them, so a profile reads every degree from one
factorization: dist^2 = ||g||^2 - sum_{i<k} |y_i|^2 / D_i on the leading
k-block.  The float path answers a block or refuses it with
ArithmeticError: it refuses a block past the longest leading block the
float Cholesky factors, and one whose own scaled pivots collapse below
PIVOT_COLLAPSE of the largest.  The Cholesky is backward stable, so such a
block is singular at the precision G was rounded to, and no second
factorization of the rounded G recovers the digits the rounding lost;
method="exact" solves it.  A profile is refused at its first refused
degree, while a shorter profile keeps the float values of its smaller
blocks:

>>> D = SpaceSpec.alpha_scale(1, -4)
>>> f = SparsePoly(1, {(0,): 1, (1,): -1}) ** 12
>>> distance_profile(D, f, SparsePoly.one(1), range(61), method="float")
Traceback (most recent call last):
    ...
ArithmeticError: the float Cholesky of the Gram block to degree 45 (46 unknowns) factors only 45 of them; use method="exact"
>>> round(float(distance_profile(D, f, SparsePoly.one(1), [45, 50], method="exact")[-1].dist_sq), 4)
0.0339

Pivots are those of the reduced system; a block with no unknowns reports
min_pivot = inf and max_pivot = 0 (the empty minimum and maximum).
``ProfilePoint.runtime_ms`` is the time since the previous point; the
first carries the factorization.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from math import gcd

import numpy as np
import scipy.linalg

from .poly import SparsePoly, series_invert
from .scalars import ComplexRational, check_int, exact_parts, from_parts, path_casts
from .spaces import SpaceSpec, homogeneous_norms_sq, monomial_norm_sq, norm_sq

# exact LDL* with its back substitution takes about 0.01 s on the 101
# reachable unknowns of the banded DA_4 system at m = 400, and 0.7-1.0 s on
# 120 dense unknowns (DA_3, m = 7, f and g with every coefficient of degree
# <= 2 nonzero)
AUTO_EXACT_LIMIT = 128
PIVOT_COLLAPSE = 1e-13
# float dist^2 = ||g||^2 - projection rounds in units of ||g||^2: a value in
# [DIST_SQ_CLAMP * max(1, ||g||^2), 0) is rounding and reads 0
DIST_SQ_CLAMP = -1e-12
# Gram columns per assembly block are capped so that both the candidate
# entries (columns x pairs of terms of f) and the block of G they fill
# (columns x rows) stay within this count: a few MB of index arrays
GRAM_BLOCK_ENTRIES = 1 << 16
# candidate exponents (rows of a layer x shifts) per block of the reachable
# walk, unless it already holds more codes: its arrays stay a few hundred kB
# until the walk passes the entry budget
WALK_BLOCK_ENTRIES = 1 << 11
# entries of a reachable block (assemble_gram, distance_profile) or of a
# full section (finite_section_mult_bound): 512 MB of complex entries, which
# DA_4 to degree 16 (4845 unknowns) fits and degree 20 (10626) does not
GRAM_ENTRY_BUDGET = 1 << 25


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


def _degree(m) -> int:
    """m as an int degree; ValueError unless m is an integer >= 0 (an
    integral float such as 4.0 passes, a bool does not)."""
    if not (isinstance(m, numbers.Real) and not isinstance(m, bool) and math.isfinite(m) and m == int(m) >= 0):
        raise ValueError(f"a degree must be an integer >= 0, not {m!r}")
    return int(m)


def _exponents(exps, d: int) -> np.ndarray:
    """The exponent tuples exps (a basis, or the keys of a term dict) as the
    rows of an int64 array."""
    return np.array(list(exps), dtype=np.int64).reshape(-1, d)


def _coder(radix):
    """code(E) = E @ place, place[k] = prod(radix[k + 1:]), the mixed-radix
    code of the rows of an integer array E: int64 while every code is below
    2^62, Python ints past that.  The code is linear, and two rows whose
    digits differ by less than radix[k] in every k have equal codes only if
    they are equal."""
    radix = [int(r) for r in radix]
    dtype = np.int64 if math.prod(radix) < 1 << 62 else object
    place = np.array([math.prod(radix[k + 1:]) for k in range(len(radix))], dtype=dtype)
    return lambda E: E.astype(dtype, copy=False) @ place


@dataclass(frozen=True)
class GramSystem:
    space: SpaceSpec
    f: SparsePoly
    g: SparsePoly
    degree: int
    basis: tuple  # the reachable exponents to degree, in graded order
    matrix: object  # nested lists (exact) or numpy array (float)
    rhs: object
    g_norm_sq: object
    exact: bool

    def block_sizes(self) -> dict[int, int]:
        """degree -> number of basis elements with |beta| <= degree."""
        degrees = _exponents(self.basis, self.space.d).sum(axis=1)
        return dict(enumerate(np.searchsorted(degrees, np.arange(self.degree + 1), side="right").tolist()))


def _gram_matrix(space: SpaceSpec, f: SparsePoly, basis, exact: bool, g: SparsePoly | None = None, rows=None):
    """M[i][j] = <z^(beta_j) f, z^(rho_i) g> over the columns beta_j of basis
    and the rows rho_i of rows (g = f and rows = basis by default, the Gram
    matrix of {z^beta f}): nested lists of ComplexRational (exact) or a
    complex numpy array (float).

    Orthogonality of monomials collapses each entry to the sum, over the
    pairs (delta, eps) of exponents of f and g with beta_j + delta - eps =
    rho_i, of c_delta conj(d_eps) ||z^(beta_j + delta)||^2.  Exponents are
    coded by ``_coder`` in a radix whose digits never carry on that range,
    so the row of beta_j + delta - eps is a search for code(beta_j) +
    code(delta - eps) in the sorted row codes, and exponents off the rows
    (negative or past the degree) find none.  Each weight is computed once
    per distinct rho_i + eps, so the one-row pairing against g computes
    only the weights of the exponents of g.  Columns go in blocks of at most
    GRAM_BLOCK_ENTRIES candidates (columns x pairs) and block entries
    (columns x rows); each entry is summed in (delta, eps) order, by
    np.bincount on the float path and as ComplexRational on the exact path,
    where each term is its product c_delta conj(d_eps) scaled by the real
    weight in one step, and only the products of pairs that some entry uses
    are formed.  ArithmeticError on the float path when a weight is
    below the normal float range (``_check_float_weights``).
    """
    g = f if g is None else g
    rows = basis if rows is None else rows
    n, nr, d = len(basis), len(rows), space.d
    cast, weight = path_casts(exact)
    G = [[ComplexRational()] * n for _ in range(nr)] if exact else np.zeros((nr, n), dtype=complex)
    if not (n and nr and f.terms and g.terms):
        return G
    fc, gc = list(map(cast, f.terms.values())), list(map(cast, g.terms.values()))
    ng = len(gc)  # pair p = (delta, eps) = (p // ng, p % ng), delta slowest
    B, R = _exponents(basis, d), _exponents(rows, d)
    F, Fg = _exponents(f.terms, d), _exponents(g.terms, d)
    # digit k of a candidate beta_j + delta - eps lies in [-max Fg_k,
    # max B_k + max F_k] and that of a row in [0, max R_k], so the two
    # differ by less than radix_k, and equal codes mean equal exponents
    code = _coder(np.maximum(B.max(axis=0) + F.max(axis=0), R.max(axis=0) + Fg.max(axis=0)) + 1)
    sorted_codes, order = np.unique(code(R), return_index=True)  # the rows are distinct
    col_codes = code(B)
    shift_codes = code((F[:, None, :] - Fg[None, :, :]).reshape(-1, d))
    shifted = (R[:, None, :] + Fg[None, :, :]).reshape(-1, d)  # rho_i + eps, row i slowest
    _, first, weight_of = np.unique(code(shifted), return_index=True, return_inverse=True)
    weights = [weight(monomial_norm_sq(space, e)) for e in shifted[first].tolist()]
    if not exact:
        weights = np.array(weights, dtype=float)
        _check_float_weights(space, shifted[first], weights, int(B.sum(axis=1).max()))
        re, im = np.array([(p.real, p.imag) for p in (cd * ce.conjugate() for cd in fc for ce in gc)]).T
    else:
        prods = {}  # exact products of the pairs some entry uses, formed on first use

    step = max(1, min(GRAM_BLOCK_ENTRIES // (len(fc) * ng), GRAM_BLOCK_ENTRIES // nr))
    for j0 in range(0, n, step):
        j1 = min(j0 + step, n)
        cand = col_codes[j0:j1, None] + shift_codes[None, :]
        pos = np.minimum(np.searchsorted(sorted_codes, cand), nr - 1)
        cols, pairs = np.nonzero(sorted_codes[pos] == cand)  # column, then pair order
        found = order[pos[cols, pairs]]
        wk = weight_of[found * ng + pairs % ng]  # the weight of rho_i + eps = beta_j + delta
        if exact:
            pl = pairs.tolist()
            for p in set(pl).difference(prods):
                prods[p] = fc[p // ng] * gc[p % ng].conjugate()
            for i, j, p, k in zip(found.tolist(), (cols + j0).tolist(), pl, wk.tolist()):
                G[i][j] = G[i][j] + prods[p] * weights[k]  # a real weight scales in one step
            continue
        # bincount adds in input order from 0.0, so each entry is the sum of
        # its terms in (delta, eps) order
        target = cols * nr + found
        w = weights[wk]
        for part, out in ((re, G.real), (im, G.imag)):
            out[:, j0:j1] = np.bincount(target, part[pairs] * w, minlength=(j1 - j0) * nr).reshape(j1 - j0, nr).T
    return G


def _check_float_weights(space: SpaceSpec, exps: np.ndarray, weights: np.ndarray, degree: int) -> None:
    """ArithmeticError when a monomial weight rounds below the normal float
    range: a subnormal weight keeps only some of its digits and an underflowed
    one none, so the float system would be wrong without a sign of it."""
    low = np.flatnonzero(weights < sys.float_info.min)
    if not len(low):
        return
    e = exps[low[np.argmin(exps[low].sum(axis=1))]].tolist()  # the one of least degree
    w = Fraction(monomial_norm_sq(space, e))
    raise ArithmeticError(
        f"the monomial weight ||z^{tuple(e)}||^2 = {Decimal(w.numerator) / Decimal(w.denominator):.4e} "
        f"(degree {sum(e)}) is below the normal float range, so the float Gram system to degree {degree} "
        'would lose its digits; use method="exact"')


def _reachable(f: SparsePoly, g: SparsePoly, degree: int) -> list[tuple]:
    """Exponents beta with |beta| <= degree in the components of the Gram
    difference graph that meet the right-hand side, in graded lex order.

    The walk starts from the seeds gamma - delta (gamma in supp g, delta in
    supp f) and follows the shifts delta - eps between exponents of f, layer
    by layer.  It never lists the full basis: its cost is the number of
    reachable exponents times the number of shifts.  It forms the
    neighbours of a layer in blocks of WALK_BLOCK_ENTRIES candidates, or of
    as many as the codes a block is sorted with when those are more, so
    that the sorts cost about what the candidates do.  Each exponent
    carries its slack degree - |beta| as a leading digit, so it is on the
    basis when no digit is negative, and ``_coder`` codes its digits in [0,
    degree] one to one; the codes deduplicate the walk, and their decreasing
    order is the graded order.  ValueError, before the exponents are
    listed, when the Gram block they index has more than GRAM_ENTRY_BUDGET
    entries.
    """
    d = f.dim
    F, Gx = _exponents(f.terms, d), _exponents(g.terms, d)
    F1 = np.column_stack((-F.sum(axis=1), F))
    diffs = (F1[:, None, :] - F1[None, :, :]).reshape(-1, d + 1)
    _, first = np.unique(_coder(2 * np.abs(diffs).max(axis=0) + 1)(diffs), return_index=True)
    code = _coder([degree + 1] * (d + 1))
    # breadth first: the first layer is the seeds gamma - delta, each later
    # one the neighbours of the one before that are new.  The shifts (the
    # zero shift among them) come in pairs +-s, so the neighbours of a
    # layer lie in it, in the layer before or in the next: only the codes of
    # the last two layers and of the new ones found so far are searched.
    src, shifts = np.column_stack((degree - Gx.sum(axis=1), Gx)), -F1
    layers, codes = [src[:0]], [code(src[:0])]  # an empty first layer: nothing concatenated is empty
    while len(src):
        seen = np.concatenate(codes[-2:])
        start, rows, step = len(seen), [], max(1, max(WALK_BLOCK_ENTRIES, len(seen)) // len(shifts))
        for i in range(0, len(src), step):
            cand = (src[i:i + step, None, :] + shifts[None, :, :]).reshape(-1, d + 1)
            cand = cand[cand.min(axis=1) >= 0]  # on the basis
            c, at = np.unique(np.concatenate((seen, code(cand))), return_index=True)
            new = at >= len(seen)
            rows.append(cand[at[new] - len(seen)])
            seen = np.concatenate((seen, c[new]))
        src, shifts = np.concatenate(rows), diffs[first]
        layers.append(src)
        codes.append(seen[start:])
    codes = np.concatenate(codes)
    _check_entry_budget(len(codes), d, degree, "reachable Gram block",
                        "a solve factors the block of its top degree, so a lower top degree shrinks it")
    return list(map(tuple, np.concatenate(layers)[np.argsort(codes)[::-1], 1:].tolist()))


def _check_inputs(space: SpaceSpec, f: SparsePoly, g: SparsePoly) -> None:
    if f.dim != space.d or g.dim != space.d:
        raise ValueError("dimension mismatch between space and polynomials")
    if f.is_zero():
        raise ValueError("the generator must be nonzero")


def _exact_inputs(space: SpaceSpec, f: SparsePoly, g: SparsePoly) -> bool:
    return space.is_exact and f.is_exact() and g.is_exact()


def _gram_system(space: SpaceSpec, f: SparsePoly, g: SparsePoly, degree: int, basis, exact: bool) -> GramSystem:
    """The Gram system of {z^beta f : beta in basis} against g; basis lists
    exponents with |beta| <= degree in graded order.  c[i] = <g, z^(beta_i) f>
    is the conjugate of the one-row pairing <z^(beta_i) f, g>."""
    row = _gram_matrix(space, f, basis, exact, g, [(0,) * space.d])[0]
    # conj turns +0.0 imaginary parts into -0.0, and + 0.0 turns them back
    rhs = [x.conjugate() for x in row] if exact else row.conj() + 0.0
    return GramSystem(
        space=space, f=f, g=g, degree=degree, basis=tuple(basis), matrix=_gram_matrix(space, f, basis, exact),
        rhs=rhs, g_norm_sq=norm_sq(space, g), exact=exact,
    )


def _system(space: SpaceSpec, f: SparsePoly, g: SparsePoly, degree: int, method: str) -> GramSystem:
    """The Gram system of the reachable basis to degree, the one a solve
    factors: ValueError, before assembling anything, when it has more than
    GRAM_ENTRY_BUDGET entries.  It is exact when the inputs are and method
    takes the exact path for its size; inexact inputs give a float system."""
    _check_inputs(space, f, g)
    degree = _degree(degree)
    basis = _reachable(f, g, degree)
    exact = _exact_inputs(space, f, g) and _solve_path(method, True, len(basis)) == "exact"
    return _gram_system(space, f, g, degree, basis, exact)


def assemble_gram(space: SpaceSpec, f: SparsePoly, g: SparsePoly, max_degree: int) -> GramSystem:
    """Build the Gram system of {z^beta f : |beta| <= max_degree} against
    target g over the basis the target reaches (see the module docstring),
    exact when the inputs are; ValueError, before assembling anything, when
    its matrix has more than GRAM_ENTRY_BUDGET entries."""
    return _system(space, f, g, max_degree, "exact")


def _check_entry_budget(n: int, d: int, max_degree: int, name: str, advice: str) -> None:
    """ValueError, naming the system and advising the caller, when a system
    of n unknowns has more than GRAM_ENTRY_BUDGET entries."""
    if n * n > GRAM_ENTRY_BUDGET:
        raise ValueError(f"the {name} to degree {max_degree} in {d} variables has {n} unknowns, {n * n} entries, "
                         f"over the budget of {GRAM_ENTRY_BUDGET}; {advice}")


@dataclass(frozen=True)
class ConditioningReport:
    path: str  # "exact" | "float"
    min_pivot: float
    max_pivot: float
    unknowns: int = 0  # reachable unknowns, the ones factored
    full_unknowns: int = 0  # unknowns of the full basis |beta| <= degree


@dataclass(frozen=True)
class ApproximantResult:
    """The best approximant p = sum_i coefficients[i] z^basis[i] to degree:
    basis is the degree prefix of the system's reachable basis, in graded
    order, and p has no other terms (their coefficients in the full solution
    are 0).  Below the system's degree the prefix may hold exponents reached
    only through higher degrees; their coefficients are 0."""

    degree: int
    basis: tuple
    coefficients: tuple
    dist_sq: object  # Fraction (exact) or float
    conditioning: ConditioningReport
    exact: bool

    def polynomial(self, dim: int) -> SparsePoly:
        return SparsePoly(dim, dict(zip(self.basis, self.coefficients)))


def _ldl_exact(G, c):
    """LDL* of a Hermitian positive definite rational matrix with L y = c in
    the same pass, by Gaussian elimination on the rows of [G | c]: (U, y, D,
    gains).  L is never formed.  U = D L* comes as its rows: row i is (re,
    im, den), the integer numerators of U[i][i:] and of y_i over one
    positive denominator, so re[0] = D_i den and L[j][i] = conj(U[i][j]) /
    D_i.  ArithmeticError when a pivot is not real positive (the system was
    not positive definite).

    Each row keeps its columns from the diagonal on, since the Schur
    complement is Hermitian: the column-i entry of row j > i is
    conj(U[i][j]).  Pivot i, numerator p > 0 over den, subtracts conj(U[i][j])
    / D_i times its row from row j.  With g = gcd(den, den_j) that is row_j q
    - (a + ib) row_i over den_j q, where q = p den / g and a + ib is the
    conjugate numerator times den_j / g, all three first divided by gcd(q,
    a, b).  One gcd then divides out the row's content, so its numbers are
    those of its entries over their least common denominator; no gcd is
    taken per entry, and the real pivot needs no complex division.  A zero
    multiplier skips its row, so a banded system updates only its band.
    """
    n = len(c)
    rows = []  # (re, im, den) of row i from column i on, the rhs last
    for i in range(n):
        parts = [exact_parts(x) for x in G[i][i:n]] + [exact_parts(c[i])]
        den = math.lcm(*{d for _, _, d in parts})
        rows.append(([a * (den // d) if a else 0 for a, _, d in parts],
                     [b * (den // d) if b else 0 for _, b, d in parts], den))
    U, y, D, gains = rows, [], [], []
    for i in range(n):
        re, im, den = rows[i]
        p = re[0]
        if im[0] or p <= 0:
            raise ArithmeticError(f"pivot {i} is not real positive: {from_parts(p, im[0], den)!r}")
        D.append(Fraction(p, den))
        y.append(from_parts(re[-1], im[-1], den))
        gains.append(Fraction(re[-1] ** 2 + im[-1] ** 2, den * p))
        for j in range(i + 1, n):
            a, b = re[j - i], -im[j - i]
            if not (a or b):
                continue
            xr, xi, dj = rows[j]
            g = gcd(den, dj)
            q, s = p * (den // g), dj // g
            a, b = a * s, b * s
            h = gcd(q, a, b)
            if h != 1:
                q, a, b = q // h, a // h, b // h
            ur, ui = re[j - i:], im[j - i:]
            xr = [x * q - a * u + b * v for x, u, v in zip(xr, ur, ui)]
            xi = [x * q - a * v - b * u for x, u, v in zip(xi, ur, ui)]
            dj *= q
            h = gcd(dj, *xr, *xi)
            if h != 1:
                xr, xi, dj = [x // h for x in xr], [x // h for x in xi], dj // h
            rows[j] = xr, xi, dj
    return U, y, D, gains


def _chol_float(G: np.ndarray, c: np.ndarray):
    """Jacobi-prescaled Cholesky S G S = L L* and the forward solve L y = S c
    on the longest leading block that factors in float: (L, y, pivots, gains,
    S), each of that block's size (0 when G[0][0] is not positive)."""
    dg = np.real(np.diag(G))
    n = int(np.argmin(np.append(dg > 0, False)))  # up to the first non-positive entry
    s = 1.0 / np.sqrt(dg[:n])
    while True:
        # S G S in one Fortran-ordered buffer that zpotrf factors in place; a
        # failed attempt leaves a partial factor there, so each one scales afresh
        L = np.empty((n, n), dtype=complex, order="F")
        np.multiply(G[:n, :n], s[:n, None], out=L)
        L *= s[None, :n]
        L, info = scipy.linalg.lapack.zpotrf(L, lower=1, overwrite_a=1)
        if info == 0:
            break
        n = info - 1  # the leading minor of order info is not positive definite
    y = scipy.linalg.solve_triangular(L, c[:n] * s[:n], lower=True)
    return L, y, (np.diag(L).real ** 2).tolist(), (y.real ** 2 + y.imag ** 2).tolist(), s[:n]


def _solve_path(method: str, exact: bool, size: int) -> str:
    """"exact" or "float" for a block of size unknowns; "auto" takes the exact
    path for an exact system of at most AUTO_EXACT_LIMIT unknowns."""
    if method not in ("auto", "exact", "float"):
        raise ValueError(f"method must be 'auto', 'exact' or 'float', not {method!r}")
    if method == "auto":
        return "exact" if exact and size <= AUTO_EXACT_LIMIT else "float"
    return method


class _Factored:
    """A Hermitian system G a = c of n unknowns, factored once on one path.
    Its leading k-block is factored by the leading k x k part of the factor
    (L, or U = D L* on the exact path), so has pivots[:k] and projection
    c_k* a_k = sum(gains[:k]).  G may have rows longer than n: the
    leading rows of a larger system."""

    def __init__(self, G, c, g_norm_sq, exact: bool, method: str):
        n = len(c)
        method = _solve_path(method, exact, n)
        self.method, self.g_norm_sq = method, g_norm_sq
        if method == "exact":
            if not exact:
                raise ValueError("exact solve requested on a float-path system")
            self.U, self.y, self.pivots, self.gains = _ldl_exact(G, c)
            return
        self.g_norm_sq = float(g_norm_sq)
        if exact:
            G = np.array([[complex(x) for x in row[:n]] for row in G], dtype=complex).reshape(n, n)
            c = np.array([complex(x) for x in c], dtype=complex)
        self.L, self.y, self.pivots, self.gains, self.scale = _chol_float(G, c)

    def block(self, k: int, m: int):
        """(dist_sq, min_pivot, max_pivot) of the leading k-block, the system
        to degree m.  ArithmeticError for a float block that is past the
        longest leading block the Cholesky factors, or whose own scaled
        pivots collapse below PIVOT_COLLAPSE of the largest."""
        n = len(self.pivots)
        pmin, pmax = float(min(self.pivots[:k], default=math.inf)), float(max(self.pivots[:k], default=0.0))
        if self.method == "float" and (k > n or pmin < PIVOT_COLLAPSE * pmax):
            raise ArithmeticError(
                f"the float Cholesky of the Gram block to degree {m} ({k} unknowns) "
                + (f"factors only {n} of them" if k > n else
                   f"factors them, but its smallest scaled pivot is {pmin / pmax:.1e} of the largest, "
                   f"below {PIVOT_COLLAPSE}")
                + '; use method="exact"')
        dist_sq = self.g_norm_sq - sum(self.gains[:k])
        if dist_sq < 0:
            if dist_sq < DIST_SQ_CLAMP * max(1.0, self.g_norm_sq):
                raise ArithmeticError(f"dist_sq = {dist_sq} below the clamp window")
            dist_sq = 0.0
        return dist_sq, pmin, pmax

    def coefficients(self):
        """Solution of the whole block: U a = y, or a = S L^(-*) y.

        Row i of U reads p a_i + sum_{k>i} u_k a_k = y_i in numerators over
        the row's one denominator, which drops out.  The solved a_k, k > i,
        are held as Gaussian integers over one denominator q, with no factor
        common to all of them.  Then a_i = s / (p q), s = y_i q - sum u_k (q
        a_k); with h = gcd(p, s), scaling the held numerators by p / h and q
        to q p / h keeps that form without a gcd over the vector."""
        if self.method != "exact":
            return scipy.linalg.solve_triangular(self.L.conj().T, self.y, lower=False) * self.scale
        n = len(self.U)
        ar, ai, q = [0] * n, [0] * n, 1
        for i in range(n - 1, -1, -1):
            re, im, _ = self.U[i]
            sr, si = re[-1] * q, im[-1] * q
            for u, v, x, z in zip(re[1:-1], im[1:-1], ar[i + 1:], ai[i + 1:]):
                sr -= u * x - v * z
                si -= u * z + v * x
            p = re[0]
            h = gcd(p, sr, si)
            t = p // h
            if t != 1:
                ar[i + 1:] = [x * t for x in ar[i + 1:]]
                ai[i + 1:] = [x * t for x in ai[i + 1:]]
                q *= t
            ar[i], ai[i] = sr // h, si // h
        return [from_parts(x, z, q) for x, z in zip(ar, ai)]


def optimal_approximant(system: GramSystem, degree: int | None = None, method: str = "auto") -> ApproximantResult:
    """Best approximation of g from {p f : deg p <= degree} (degree defaults
    to the system degree).

    The leading block of the system to that degree is factored, so the
    pivots are those of a profile to that degree; ``basis`` and
    ``coefficients`` are those of the degree prefix of the system's
    reachable basis (see ApproximantResult), and every other coefficient of
    the full basis is 0.  ArithmeticError when the float path refuses the
    block.
    """
    m = system.degree if degree is None else _degree(degree)
    if m > system.degree:
        raise ValueError("requested degree exceeds the assembled system")
    k = system.block_sizes()[m]
    top = _Factored(system.matrix[:k], system.rhs[:k], system.g_norm_sq, system.exact, method)
    dist_sq, pmin, pmax = top.block(k, m)
    return ApproximantResult(
        degree=m, basis=system.basis[:k], coefficients=tuple(top.coefficients()), dist_sq=dist_sq,
        conditioning=ConditioningReport(top.method, pmin, pmax, k, math.comb(system.space.d + m, system.space.d)),
        exact=top.method == "exact",
    )


@dataclass(frozen=True)
class ProfilePoint:
    m: int
    dist_sq: float
    min_pivot: float
    runtime_ms: float  # since the previous point; the first carries the factorization
    path: str
    unknowns: int = 0  # reachable unknowns, the ones factored
    full_unknowns: int = 0  # unknowns of the full basis |beta| <= m


def distance_profile(space: SpaceSpec, f: SparsePoly, g: SparsePoly, degrees, method: str = "auto") -> list[ProfilePoint]:
    """dist(g, {p f : deg p <= m})^2 for each m in degrees: one walk of the
    reachable basis, one assembly of it, one factorization.  ArithmeticError
    when the float path refuses a degree (see the module docstring);
    ValueError, before assembling anything, when the reachable block of the
    top degree has more than GRAM_ENTRY_BUDGET entries."""
    degrees = sorted(set(map(_degree, degrees)))
    _solve_path(method, True, 0)  # rejects an unknown method, also on an empty schedule
    if not degrees:
        return []
    # one storage decision for the whole sweep, from the reachable size, so
    # blocks are sliced, not converted
    system = _system(space, f, g, degrees[-1], method)
    sizes = system.block_sizes()
    t0 = time.perf_counter()
    factored = _Factored(system.matrix, system.rhs, system.g_norm_sq, system.exact, method)
    out = []
    for m in degrees:
        dist_sq, min_pivot, _ = factored.block(sizes[m], m)
        t1 = time.perf_counter()
        out.append(ProfilePoint(m, float(dist_sq), min_pivot, (t1 - t0) * 1000.0, factored.method,
                                sizes[m], math.comb(space.d + m, space.d)))
        t0 = t1
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
    check_int("n", n, 0)
    return distance_profile(space, phi ** (n + 1), phi ** n, degrees, method=method)


def membership_profile(space: SpaceSpec, h: SparsePoly, f: SparsePoly, k: int, degrees, method: str = "auto") -> list[ProfilePoint]:
    """Distances dist(h, {p f^k : deg p <= m}); upper bounds on the distance
    from h to the closed polynomial-multiple subspace of f^k."""
    check_int("k", k, 0)
    return distance_profile(space, f ** k, h, degrees, method=method)


def finite_section_mult_bound(space: SpaceSpec, phi: SparsePoly, max_degree: int) -> float:
    """Largest ratio ||phi p|| / ||p|| over polynomials of degree <= max_degree.

    A lower bound for the multiplier norm of phi, non-decreasing in the
    degree; computed as the top generalized eigenvalue of the section of
    M_phi* M_phi against the diagonal of monomial norms.  ValueError, before
    building anything, when the section has more than GRAM_ENTRY_BUDGET
    entries.
    """
    if phi.dim != space.d:
        raise ValueError("dimension mismatch between space and polynomials")
    d, m = space.d, _degree(max_degree)
    _check_entry_budget(math.comb(d + m, d), d, m, "finite section",
                        "the bound is non-decreasing in the degree, so a lower one still bounds the multiplier norm")
    basis = graded_monomials(d, m)
    A = _gram_matrix(space, phi, basis, exact=False)
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
        # ComplexRational * complex is complex(x) * complex, so a float copy
        # of the numerator gives the same bits without the mixed products
        h = num.truncate(M_max).to_float()
        for _ in range(s):
            h = (h * inv).truncate(M_max)
        blocks = homogeneous_norms_sq(space, h.to_float())
        acc_at = list(accumulate(float(blocks.get(n, 0.0)) for n in range(M_max + 1)))
        for M in M_grid:
            total = acc_at[M]
            last = float(blocks.get(M, 0.0))
            rel = last / total if total > 0 else 0.0
            rows.append(SweepRow(float(r), M, total, rel, rel < TAIL_THRESHOLD))
        # the first accepted truncation of this radius, else the deepest one
        sup = max(sup, next((row.norm_sq for row in rows[-len(M_grid):] if row.accepted), acc_at[M_max]))
    return SweepResult(rows=tuple(rows), sup_norm_sq=sup, tail_threshold=TAIL_THRESHOLD)
