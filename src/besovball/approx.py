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
walks those components from the exponents alone, and a ``GramSystem`` is
that walk: ``assemble_gram`` returns it for ``optimal_approximant``, and
``distance_profile`` walks the same way.  Each solve assembles the system
over the reachable basis alone.  Both are exact: the dropped unknowns are 0
in the full solution, so a result lists only the reachable basis and its
coefficients.  Only ``finite_section_mult_bound`` builds the full basis.
The walk and the full section each refuse a system past GRAM_ENTRY_BUDGET
entries before anything is assembled.

Exponents have two indexes: the mixed-radix integer codes of ``_coder``,
which ``_pairing`` and ``_reachable`` search, and a dict of the basis
tuples, which ``_rhs_terms`` looks its few terms up in.  ``_pairing``
lists the terms of the Gram matrix of f over a basis, the reachable one or
the full one of ``finite_section_mult_bound``: it finds the row of every
candidate term from the codes with numpy, searching each distinct shift
delta - eps between terms of f once (``_shifts``, whose dedup a Gram
system shares with the walk), in blocks of at most GRAM_BLOCK_ENTRIES
candidates, and lists each monomial weight once.
c[j] = <g, z^(beta_j) f> has a term only where beta_j = eps - delta for
exponents delta of f and eps of g, at most len(f) len(g) of them, which
``_rhs_terms`` finds in that dict; their weights are G's.
G is summed in float by np.bincount and c from 0, both in (delta, eps)
order, so both are bitwise those of the per-entry dictionary loops they
replaced; a weight below the normal float range is refused.
``_gram_rows`` builds the exact system directly as the upper rows of [G |
c] that the exact LDL* factors, summed in Python ints over one denominator
with one gcd per row, so G and c read back from the rows are ``==`` to the
loops' rationals.  ``_reachable`` deduplicates and sorts its walk on the
same codes.

Each solve assembles and factors one whole system once, on one of two
paths: exact LDL* or Jacobi-prescaled float Cholesky, with L y = c in the
same pass.  ``_solve_path`` decides the path, once per solve, and
``_assemble`` builds the system on that path alone.  So a float solve of
exact inputs factors the float assembly of ``_gram_matrix``, never a
conversion of exact entries, and ``optimal_approximant`` and a
``distance_profile`` to the same degree factor the same float block and
agree bit for bit.  The float Cholesky scales and factors G in the
Fortran-ordered buffer the assembly built, so a float solve holds one n x
n complex buffer.  The exact LDL* eliminates the rows of ``_gram_rows`` as
Gaussian integers over one denominator per row, divides out a row's
content once per update rather than normalising each rational entry, and
skips the rows a pivot does not reach; LDL* is unique, so its D, y and
solution are the rational ones.
``auto`` takes the exact path when the inputs are exact and the *reachable*
block has at most AUTO_EXACT_LIMIT unknowns, so profiles of sparse
generators come out exact at degrees whose full basis is far larger;
``exact`` on inputs that hold floats is refused, naming them.  The
graded order makes the leading blocks the lower-degree systems: every
degree-k prefix of the reachable basis holds whole degree-k components,
every reachable one among them, so a profile reads every degree from one
factorization: dist^2 = ||g||^2 - sum_{i<k} |y_i|^2 / D_i on the leading
k-block.  ``_Factored`` forms those sums, and the running min and max of
the pivots, once for every k, so each degree is a lookup.  The float path
answers a block or refuses it with ArithmeticError: it refuses a block
past the longest leading block the float Cholesky factors, and one whose
own scaled pivots collapse below PIVOT_COLLAPSE of the largest.  The
Cholesky is backward stable, so such a block is singular at the precision
G was rounded to, and no second factorization of the rounded G recovers
the digits the rounding lost; method="exact" solves it.  A profile is
refused at its first refused degree, while a shorter profile keeps the
float values of its smaller blocks:

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
first carries the assembly and the factorization.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, product
from math import gcd
from operator import sub

import numpy as np
import scipy.linalg

from .poly import SparsePoly, series_invert
from .scalars import check_int, exact_parts, from_parts
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
# (columns x rows) stay within this count: 2.0 MB of index arrays on top of
# G for the 656 unknowns and 1296 pairs of the rotated DA_4 system at m = 12
# (5.4 MB at 2^16), with the same bits, since a column's terms never span
# two blocks.  At 4845 unknowns a block holds 3 columns, and G assembles
# within 8% of the time that blocks of 13 columns (2^16) take
GRAM_BLOCK_ENTRIES = 1 << 14
# candidate exponents (rows of a layer x shifts) per block of the reachable
# walk, unless it already holds more codes: its arrays stay a few hundred kB
# until the walk passes the entry budget
WALK_BLOCK_ENTRIES = 1 << 11
# entries of a reachable block (assemble_gram, distance_profile) or of a
# full section (finite_section_mult_bound), which DA_4 to degree 16 (4845
# unknowns) fits and degree 20 (10626) does not.  At the budget a float
# solve holds one n x n complex buffer, 512 MB, plus one assembly block;
# the exact path holds its rows, two Python ints per entry of the upper
# triangle, tens of bytes each and more as they grow; the finite section
# holds A and D, two complex buffers, 1 GB
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
    """The Gram system G a = c of {z^beta f : beta in basis} against g, as
    the walk of ``assemble_gram`` leaves it: nothing is assembled.  A solve
    assembles the system on its own path (``_assemble``); ``matrix`` and
    ``rhs`` assemble G and c on each read."""

    space: SpaceSpec
    f: SparsePoly
    g: SparsePoly
    degree: int
    basis: tuple  # the reachable exponents to degree, in graded order
    shifts: tuple = field(compare=False, repr=False)  # ``_shifts(f)``, which the walk formed

    @property
    def exact(self) -> bool:
        """Whether the inputs are exact, so that G and c are."""
        return not _inexact_inputs(self.space, self.f, self.g)

    @property
    def matrix(self):
        """G: nested lists of ComplexRational (exact), or a complex array."""
        if not self.exact:
            return _assemble(self, False)[0]
        rows = _assemble(self, True)
        n = len(rows)
        G = [[None] * n for _ in range(n)]
        for i, (re, im, den) in enumerate(rows):
            G[i][i:] = [from_parts(a, b, den) for a, b in zip(re[:-1], im[:-1])]
            for j in range(i + 1, n):
                G[j][i] = G[i][j].conjugate()
        return G

    @property
    def rhs(self):
        """c: a list of ComplexRational (exact), or a complex array."""
        if not self.exact:
            return _assemble(self, False)[1]
        return [from_parts(re[-1], im[-1], den) for re, im, den in _assemble(self, True)]

    def block_sizes(self) -> dict[int, int]:
        """degree -> number of basis elements with |beta| <= degree."""
        degrees = _exponents(self.basis, self.space.d).sum(axis=1)
        return dict(enumerate(np.searchsorted(degrees, np.arange(self.degree + 1), side="right").tolist()))


def _shifts(f: SparsePoly):
    """The exponents of f and the distinct shifts between them: (F1, S,
    shift_of), all empty for f = 0.  Row k of F1 is (-|delta|, delta) for
    the k-th exponent delta of f.  The rows of S are the distinct differences
    (|eps| - |delta|, delta - eps) of rows of F1 over the pairs p = (delta,
    eps) = divmod(p, len(f)), and S[shift_of[p]] is the row of pair p.
    ``_reachable`` walks the rows of S, the degree change first;
    ``_pairing`` searches each row once and spreads what it finds to the
    pairs through shift_of.  Each Gram system forms it once, for both."""
    d = f.dim
    F = _exponents(f.terms, d)
    F1 = np.column_stack((-F.sum(axis=1), F))
    diffs = (F1[:, None, :] - F1[None, :, :]).reshape(-1, d + 1)
    codes = _coder(2 * np.abs(diffs).max(axis=0, initial=0) + 1)(diffs)
    distinct, first = np.unique(codes, return_index=True)
    # the inverse, by a search: cheaper than np.unique's on these few codes
    return F1, diffs[first], np.searchsorted(distinct, codes)


def _pairing(f: SparsePoly, basis, shifts):
    """The terms of G[i][j] = <z^(beta_j) f, z^(beta_i) f> over a nonempty
    basis, for a nonzero f with shifts = ``_shifts(f)``: (exps, blocks).

    Each entry is the sum, over the pairs (delta, eps) of exponents of f
    with beta_j + delta - eps = beta_i, of f_delta conj(f_eps) ||z^(beta_j
    + delta)||^2.  ``_coder`` codes exponents in a radix whose digits never
    carry on that range, so the row of beta_j + delta - eps is a search for
    code(beta_j) + code(delta - eps) in the sorted basis codes, which finds
    none off the basis.  Pairs with one shift delta - eps share that row, so
    each column searches each distinct shift once: the hits are spread back
    to the pairs through the shift of each pair, and the row of a hit is
    read from the search of its shift.  exps lists
    each distinct beta_i + eps once, the weights to compute.  blocks yields,
    per block of columns j0:j1, (j0, j1, i, j, p, k): the row, the column
    relative to j0, the pair p = (delta, eps) = divmod(p, len(f)) and the
    weight exps[k] of each term, in column then pair order, at most
    GRAM_BLOCK_ENTRIES spread candidates (columns x pairs) and block entries
    (columns x rows) per block.
    """
    n, d, nf = len(basis), f.dim, len(f.terms)
    F1, S, shift_of = shifts
    B, F = _exponents(basis, d), F1[:, 1:]
    # digit k of a candidate lies in [-max F_k, max B_k + max F_k] and of a
    # row in [0, max B_k]: they differ by less than radix_k, so never collide
    code = _coder(B.max(axis=0) + F.max(axis=0) + 1)
    col_codes = code(B)
    order = np.argsort(col_codes)  # the basis is distinct
    sorted_codes = col_codes[order]
    shift_codes = code(S[:, 1:])
    shifted = (B[:, None, :] + F[None, :, :]).reshape(-1, d)  # beta_i + eps, row i slowest
    _, first, weight_of = np.unique(code(shifted), return_index=True, return_inverse=True)

    def blocks():
        step = max(1, min(GRAM_BLOCK_ENTRIES // len(shift_of), GRAM_BLOCK_ENTRIES // n))
        for j0 in range(0, n, step):
            j1 = min(j0 + step, n)
            cand = col_codes[j0:j1, None] + shift_codes[None, :]
            pos = np.minimum(np.searchsorted(sorted_codes, cand), n - 1)
            # whether beta_j + s is on the basis for each distinct shift s,
            # spread to every pair (delta, eps) with delta - eps = s
            cols, pairs = np.nonzero((sorted_codes[pos] == cand)[:, shift_of])  # column, then pair order
            found = order[pos[cols, shift_of[pairs]]]
            # the weight of beta_i + eps = beta_j + delta
            yield j0, j1, found, cols, pairs, weight_of[found * nf + pairs % nf]

    return shifted[first], blocks()


def _gram_matrix(space: SpaceSpec, f: SparsePoly, basis, shifts) -> np.ndarray:
    """G[i][j] = <z^(beta_j) f, z^(beta_i) f> in float, the Gram matrix of
    {z^beta f : beta in basis}, from the terms of ``_pairing``, each entry
    summed by np.bincount in (delta, eps) order.  ArithmeticError for a
    weight below the normal float range (``_check_float_weights``)."""
    n = len(basis)
    G = np.zeros((n, n), dtype=complex, order="F")  # the buffer ``_chol_float`` factors in place
    if not (n and f.terms):
        return G
    exps, blocks = _pairing(f, basis, shifts)
    weights = np.array([float(monomial_norm_sq(space, e)) for e in exps.tolist()])
    _check_float_weights(space, exps, weights, max(map(sum, basis)))
    fc = [complex(c) for c in f.terms.values()]
    re, im = np.array([(p.real, p.imag) for p in (cd * ce.conjugate() for cd in fc for ce in fc)]).T
    for j0, j1, found, cols, pairs, wk in blocks:
        # bincount adds in input order from 0.0, so each entry is the sum of
        # its terms in (delta, eps) order
        target = cols * n + found
        w = weights[wk]
        for part, out in ((re, G.real), (im, G.imag)):
            out[:, j0:j1] = np.bincount(target, part[pairs] * w, minlength=(j1 - j0) * n).reshape(j1 - j0, n).T
    return G


def _rhs_terms(space: SpaceSpec, f: SparsePoly, g: SparsePoly, basis):
    """The terms conj(f_delta) g_eps w of c[j] = <g, z^(beta_j) f>, w =
    ||z^eps||^2, one per pair p = (delta, eps) = divmod(p, len(g)) of
    exponents of f and g with eps - delta = beta_j on the basis: (j, p, w),
    in pair order.  Each w is also a weight of G, at beta_j + delta."""
    index = {b: j for j, b in enumerate(basis)}
    for p, (delta, eps) in enumerate(product(f.terms, g.terms)):
        j = index.get(tuple(map(sub, eps, delta)))
        if j is not None:
            yield j, p, monomial_norm_sq(space, eps)


def _gaussian_integers(p: SparsePoly):
    """The coefficients of an exact p as Gaussian integers over their least
    common denominator: (re, im, den), in term order."""
    parts = [exact_parts(c) for c in p.terms.values()]
    den = math.lcm(*(d for _, _, d in parts))
    return [a * (den // d) for a, _, d in parts], [b * (den // d) for _, b, d in parts], den


def _gram_rows(space: SpaceSpec, f: SparsePoly, g: SparsePoly, basis, shifts) -> list:
    """The exact Gram system of {z^beta f : beta in basis} against g as the
    upper rows of [G | c], the form ``_ldl_exact`` factors: row i is (re,
    im, den), the integer numerators of G[i][i:] and of c[i] = <g, z^(beta_i)
    f> over one positive denominator, with no factor common to all of them.

    f and g are Gaussian integers over the lcms F and H of their
    denominators (``_gaussian_integers``), and the weights integers over
    the lcm W of theirs, so every term of G (``_pairing``) and of c
    (``_rhs_terms``) is an integer over one denominator F lcm(F, H) W,
    summed in Python ints; G is Hermitian, so only the terms with j >= i
    are summed.  One gcd per row then divides out its content.
    """
    n = len(basis)
    re = [[0] * (n - i + 1) for i in range(n)]
    im = [[0] * (n - i + 1) for i in range(n)]
    den = 1
    if n and f.terms:
        (fa, fb, F), (ga, gb, H) = _gaussian_integers(f), _gaussian_integers(g)
        exps, blocks = _pairing(f, basis, shifts)
        ws = [monomial_norm_sq(space, e) for e in exps.tolist()]
        W = math.lcm(*(w.denominator for w in ws))
        ws = [w.numerator * (W // w.denominator) for w in ws]
        L = math.lcm(F, H)
        den = F * L * W
        # the terms f_delta conj(f_eps) w of G[i][j] are over F^2 W: scaled
        # by L / F, over den
        s = L // F
        pr = [(a * c + b * e) * s for a, b in zip(fa, fb) for c, e in zip(fa, fb)]
        pi = [(b * c - a * e) * s for a, b in zip(fa, fb) for c, e in zip(fa, fb)]
        for j0, _, found, cols, pairs, wk in blocks:
            keep = found <= cols + j0
            found = found[keep]
            offsets = cols[keep] + j0 - found  # of column j in row i: j - i
            for i, o, p, k in zip(found.tolist(), offsets.tolist(), pairs[keep].tolist(), wk[keep].tolist()):
                w = ws[k]
                re[i][o] += pr[p] * w
                im[i][o] += pi[p] * w
        # the terms conj(f_delta) g_eps w of c are over F H W: scaled by L / H
        s = L // H
        pr = [(a * c + b * e) * s for a, b in zip(fa, fb) for c, e in zip(ga, gb)]
        pi = [(a * e - b * c) * s for a, b in zip(fa, fb) for c, e in zip(ga, gb)]
        for j, p, w in _rhs_terms(space, f, g, basis):
            w = w.numerator * (W // w.denominator)
            re[j][-1] += pr[p] * w
            im[j][-1] += pi[p] * w
    return [_reduced(r, m, den) for r, m in zip(re, im)]


def _reduced(re: list, im: list, den: int):
    """The row (re, im, den) with the content common to den and every
    numerator divided out."""
    h = gcd(den, *re, *im)
    if h == 1:
        return re, im, den
    return [x // h for x in re], [x // h for x in im], den // h


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


def _reachable(f: SparsePoly, g: SparsePoly, degree: int, shifts) -> list[tuple]:
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
    order is the graded order.  ValueError at the end of the first layer
    that takes the walk past isqrt(GRAM_ENTRY_BUDGET) exponents, where the
    Gram block they index is sure to have more than GRAM_ENTRY_BUDGET
    entries: a refusal walks at most one layer past that count.  shifts is
    ``_shifts(f)``.
    """
    d = f.dim
    F1, S, _ = shifts
    Gx = _exponents(g.terms, d)
    code = _coder([degree + 1] * (d + 1))
    # breadth first: the first layer is the seeds gamma - delta, each later
    # one the neighbours of the one before that are new.  The shifts (the
    # zero shift among them) come in pairs +-s, so the neighbours of a
    # layer lie in it, in the layer before or in the next: only the codes of
    # the last two layers and of the new ones found so far are searched.
    src, moves = np.column_stack((degree - Gx.sum(axis=1), Gx)), -F1
    layers, codes = [src[:0]], [code(src[:0])]  # an empty first layer: nothing concatenated is empty
    held, most = 0, math.isqrt(GRAM_ENTRY_BUDGET)  # n unknowns fit the budget iff n <= most
    while len(src):
        seen = np.concatenate(codes[-2:])
        start, rows, step = len(seen), [], max(1, max(WALK_BLOCK_ENTRIES, len(seen)) // len(moves))
        for i in range(0, len(src), step):
            cand = (src[i:i + step, None, :] + moves[None, :, :]).reshape(-1, d + 1)
            cand = cand[cand.min(axis=1) >= 0]  # on the basis
            c, at = np.unique(np.concatenate((seen, code(cand))), return_index=True)
            new = at >= len(seen)
            rows.append(cand[at[new] - len(seen)])
            seen = np.concatenate((seen, c[new]))
        src, moves = np.concatenate(rows), S
        layers.append(src)
        codes.append(seen[start:])
        held += len(src)
        if held > most:
            raise ValueError(f"the reachable Gram block to degree {degree} in {d} variables has more than {most} "
                             f"unknowns, over the budget of {GRAM_ENTRY_BUDGET} entries; a solve factors the block "
                             "of its top degree, so a lower top degree shrinks it")
    codes = np.concatenate(codes)
    return list(map(tuple, np.concatenate(layers)[np.argsort(codes)[::-1], 1:].tolist()))


def _inexact_inputs(space: SpaceSpec, f: SparsePoly, g: SparsePoly) -> str:
    """Which inputs hold floats, as a phrase; "" when all are exact."""
    coefficients = " and ".join(name for name, p in (("f", f), ("g", g)) if not p.is_exact())
    return " and ".join(filter(None, ("" if space.is_exact else "the space's weights",
                                      coefficients and f"the coefficients of {coefficients}")))


def _assemble(system: GramSystem, exact: bool, k=None):
    """The Gram system over the leading k exponents of the basis (all of
    them for k = None), assembled on one path: the rows of ``_gram_rows``
    (exact), or G of ``_gram_matrix`` and c summed from 0 in ``_rhs_terms``
    order (float)."""
    space, f, g, basis = system.space, system.f, system.g, system.basis[:k]
    if exact:
        return _gram_rows(space, f, g, basis, system.shifts)
    terms = [a.conjugate() * b for a in map(complex, f.terms.values()) for b in map(complex, g.terms.values())]
    c = [0j] * len(basis)
    for j, p, w in _rhs_terms(space, f, g, basis):
        c[j] += terms[p] * float(w)
    return _gram_matrix(space, f, basis, system.shifts), np.array(c, dtype=complex)


def _walk(space: SpaceSpec, f: SparsePoly, g: SparsePoly, degree) -> GramSystem:
    """The Gram system of the reachable basis to degree, unassembled, for
    ``assemble_gram`` and ``distance_profile``: ValueError for inputs of
    another dimension than the space, for f = 0, and for a block of more
    than GRAM_ENTRY_BUDGET entries (``_reachable``)."""
    if f.dim != space.d or g.dim != space.d:
        raise ValueError("dimension mismatch between space and polynomials")
    if f.is_zero():
        raise ValueError("the generator must be nonzero")
    degree = _degree(degree)
    shifts = _shifts(f)  # one dedup of the shifts for the walk and the pairing
    return GramSystem(space, f, g, degree, tuple(_reachable(f, g, degree, shifts)), shifts)


def assemble_gram(space: SpaceSpec, f: SparsePoly, g: SparsePoly, max_degree: int) -> GramSystem:
    """The Gram system of {z^beta f : |beta| <= max_degree} against target
    g over the basis the target reaches (see the module docstring), which
    ``optimal_approximant`` assembles and solves; ValueError, before
    anything is assembled, when its matrix has more than GRAM_ENTRY_BUDGET
    entries."""
    return _walk(space, f, g, max_degree)


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
    basis is the system's reachable basis, in graded order, and p has no
    other terms (their coefficients in the full solution are 0)."""

    degree: int
    basis: tuple
    coefficients: tuple
    dist_sq: object  # Fraction (exact) or float
    conditioning: ConditioningReport
    exact: bool

    def polynomial(self, dim: int) -> SparsePoly:
        return SparsePoly(dim, dict(zip(self.basis, self.coefficients)))


def _ldl_exact(rows):
    """LDL* of a Hermitian positive definite rational matrix G with L y = c
    in the same pass, by Gaussian elimination on the upper rows of [G | c]
    (``_gram_rows``): (U, D, gains).  L is never formed.  U = D L* comes as
    its rows: row i is (re, im, den), the integer numerators of U[i][i:] and
    of y_i over one positive denominator, so re[0] = D_i den and L[j][i] =
    conj(U[i][j]) / D_i.  ArithmeticError when a pivot is not real
    positive (the system was not positive definite).

    Each row keeps its columns from the diagonal on, since the Schur
    complement is Hermitian: the column-i entry of row j > i is
    conj(U[i][j]).  An update replaces its row in a copy of the list, so
    the rows given are not changed.  Pivot i, numerator p > 0 over den,
    subtracts conj(U[i][j]) / D_i times its row from row j.  With g = gcd(den, den_j) that is row_j q
    - (a + ib) row_i over den_j q, where q = p den / g and a + ib is the
    conjugate numerator times den_j / g, all three first divided by gcd(q,
    a, b).  One gcd then divides out the row's content, so its numbers are
    those of its entries over their least common denominator; no gcd is
    taken per entry, and the real pivot needs no complex division.  A zero
    multiplier skips its row, so a banded system updates only its band.
    """
    n = len(rows)
    U = rows = list(rows)
    D, gains = [], []
    for i in range(n):
        re, im, den = rows[i]
        p = re[0]
        if im[0] or p <= 0:
            raise ArithmeticError(f"pivot {i} is not real positive: {from_parts(p, im[0], den)!r}")
        D.append(Fraction(p, den))
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
            rows[j] = _reduced(xr, xi, dj * q)
    return U, D, gains


def _chol_float(G: np.ndarray, c: np.ndarray, leading):
    """Jacobi-prescaled Cholesky S G S = L L* and the forward solve L y = S c
    on the longest leading block that factors in float: (L, y, pivots, gains,
    S), each of that block's size (0 when G[0][0] is not positive).

    A Fortran-ordered G, as ``_gram_matrix`` builds it, is scaled and
    factored in place, so L is G's own buffer and the solve holds no second
    n x n one.  A failed attempt leaves a partial factor there, so the next
    one factors leading(k), a fresh Fortran-ordered buffer holding the
    leading k-block of G as it was passed; while it is formed, the failed
    buffer is held too.  ValueError, before anything is scaled, when the
    diagonal of G is not finite, and when a pivot or y is not finite (G or
    c held an inf or a nan, or overflowed)."""
    dg = np.real(np.diag(G))
    _check_finite("its diagonal", dg)
    n = int(np.argmin(np.append(dg > 0, False)))  # up to the first non-positive entry
    s = 1.0 / np.sqrt(dg[:n])
    G = G[:n, :n]
    while True:
        G = np.asfortranarray(G)  # a copy only of a leading block or of a C-ordered G
        G *= s[:n, None]
        G *= s[None, :n]
        L, info = scipy.linalg.lapack.zpotrf(G, lower=1, overwrite_a=1)
        if info == 0:
            break
        n = info - 1  # the leading minor of order info is not positive definite
        G = leading(n)
    # unchecked, so no n x n mask of isfinite(L) is formed: a non-finite
    # entry of L's lower triangle reaches its pivot or y, which are checked
    y = scipy.linalg.solve_triangular(L, c[:n] * s[:n], lower=True, check_finite=False)
    pivots = np.diag(L).real ** 2
    _check_finite("its pivots or forward solve", pivots, y)
    return L, y, pivots.tolist(), (y.real ** 2 + y.imag ** 2).tolist(), s[:n]


def _check_finite(what: str, *arrays) -> None:
    """ValueError when an entry of the arrays is inf or nan."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"the float Cholesky of the Gram system holds infs or NaNs in {what}")


def _solve_path(method: str, space: SpaceSpec, f: SparsePoly, g: SparsePoly, size: int) -> str:
    """"exact" or "float", the path a block of size unknowns of the Gram
    system of f against g is factored on; "auto" takes the exact path for
    exact inputs and at most AUTO_EXACT_LIMIT unknowns.  ValueError for an
    unknown method, and for "exact" on inputs that hold floats, naming them."""
    if method not in ("auto", "exact", "float"):
        raise ValueError(f"method must be 'auto', 'exact' or 'float', not {method!r}")
    inexact = _inexact_inputs(space, f, g)
    if method == "exact" and inexact:
        raise ValueError(f"exact solve requested, but {inexact} are floats")
    exact = not inexact and (method == "exact" or (method == "auto" and size <= AUTO_EXACT_LIMIT))
    return "exact" if exact else "float"


class _Factored:
    """A Gram system G a = c, assembled and factored whole and once on the
    path ``_solve_path`` picks for method and its size: exact LDL* of the
    rows of ``_gram_rows``, or float Cholesky of G in the buffer
    ``_gram_matrix`` built, where a failed attempt factors the leading block
    assembled again.  A leading k-block of it is factored by the leading k x
    k part of the factor (L, or U = D L* on the exact path), so has
    pivots[:k] and projection c_k* a_k = sum(gains[:k]).  ``projection``,
    ``low`` and ``high`` hold, at entry k, that sum and the min and max of
    pivots[:k] as floats (inf and 0 for the empty block), formed once: the
    projection adds the gains left to right from 0, as sum() does, so
    block(k, m) reads its values without a pass over them."""

    def __init__(self, system: GramSystem, method: str):
        self.method = _solve_path(method, system.space, system.f, system.g, len(system.basis))
        g_norm_sq = norm_sq(system.space, system.g)
        if self.method == "exact":
            self.g_norm_sq = g_norm_sq
            self.U, self.pivots, self.gains = _ldl_exact(_assemble(system, True))
        else:
            self.g_norm_sq = float(g_norm_sq)
            # each entry of a leading block sums the same terms in the same
            # order as in G, so it is bitwise G's
            self.L, self.y, self.pivots, self.gains, self.scale = _chol_float(
                *_assemble(system, False), lambda k: _assemble(system, False, k)[0])
        self.projection = list(accumulate(self.gains, initial=0))
        # rounding is monotone, so the min and max of the rounded pivots are
        # the rounded min and max
        pivots = list(map(float, self.pivots))
        self.low = list(accumulate(pivots, min, initial=math.inf))
        self.high = list(accumulate(pivots, max, initial=0.0))

    def block(self, k: int, m: int):
        """(dist_sq, min_pivot, max_pivot) of the leading k-block, the system
        to degree m, read from the running sums.  ArithmeticError for a float
        block that is past the longest leading block the Cholesky factors, or
        whose own scaled pivots collapse below PIVOT_COLLAPSE of the largest."""
        n = len(self.pivots)
        pmin, pmax = self.low[min(k, n)], self.high[min(k, n)]
        if self.method == "float" and (k > n or pmin < PIVOT_COLLAPSE * pmax):
            raise ArithmeticError(
                f"the float Cholesky of the Gram block to degree {m} ({k} unknowns) "
                + (f"factors only {n} of them" if k > n else
                   f"factors them, but its smallest scaled pivot is {pmin / pmax:.1e} of the largest, "
                   f"below {PIVOT_COLLAPSE}")
                + '; use method="exact"')
        dist_sq = self.g_norm_sq - self.projection[k]
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
            a = scipy.linalg.solve_triangular(self.L, self.y, trans="C", lower=True, check_finite=False) * self.scale
            _check_finite("its back substitution", a)
            return a
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


def optimal_approximant(system: GramSystem, method: str = "auto") -> ApproximantResult:
    """Best approximation of g from {p f : deg p <= degree}, the system's
    degree, over its whole reachable basis.

    The system is assembled and factored on the path ``_solve_path`` picks
    for its size (``_Factored``), as ``distance_profile`` does: the pivots
    are those a profile to the system degree reads at that degree, bit for
    bit.  Every coefficient of the full basis off the reachable one is 0.
    ArithmeticError when the float path refuses the system; ValueError for
    method="exact" on inputs that hold floats, and for a float solve that
    meets an inf or a nan.
    """
    m, k = system.degree, len(system.basis)
    top = _Factored(system, method)
    dist_sq, pmin, pmax = top.block(k, m)
    return ApproximantResult(
        degree=m, basis=system.basis, coefficients=tuple(top.coefficients()), dist_sq=dist_sq,
        conditioning=ConditioningReport(top.method, pmin, pmax, k, math.comb(system.space.d + m, system.space.d)),
        exact=top.method == "exact",
    )


@dataclass(frozen=True, slots=True)  # one per point, and callers keep many
class ProfilePoint:
    m: int
    dist_sq: float
    min_pivot: float
    runtime_ms: float  # since the previous point; the first carries the assembly and factorization
    path: str
    unknowns: int = 0  # reachable unknowns, the ones factored
    full_unknowns: int = 0  # unknowns of the full basis |beta| <= m


def distance_profile(space: SpaceSpec, f: SparsePoly, g: SparsePoly, degrees, method: str = "auto") -> list[ProfilePoint]:
    """dist(g, {p f : deg p <= m})^2 for each m in degrees: one walk of the
    reachable basis, one assembly of it on the path ``_solve_path`` picks for
    its size, one factorization, and each degree's point read from the
    running projection and pivot extremes of ``_Factored``.  ArithmeticError
    when the float path refuses a degree (see the module docstring);
    ValueError, before assembling anything, when the reachable block of the
    top degree has more than GRAM_ENTRY_BUDGET entries, and for
    method="exact" on inputs that hold floats, also on an empty schedule;
    ValueError, after assembling, for a float factorization that meets an
    inf or a nan."""
    degrees = sorted(set(map(_degree, degrees)))
    if not degrees:
        _solve_path(method, space, f, g, 0)  # an unknown method, or exact on floats, fails here too
        return []
    system = _walk(space, f, g, degrees[-1])
    sizes = system.block_sizes()
    t0 = time.perf_counter()
    # one path for the whole sweep, from the reachable size
    factored = _Factored(system, method)
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
    entries.  A and D are two complex Fortran-ordered n x n buffers that
    the eigensolver overwrites: a traced peak of 33 bytes per entry of the
    section (DA_2 to degree 40, 861 unknowns; 56 when the solver copied A
    and a complex D cast from a float one).
    """
    if phi.dim != space.d:
        raise ValueError("dimension mismatch between space and polynomials")
    d, m = space.d, _degree(max_degree)
    n = math.comb(d + m, d)
    if n * n > GRAM_ENTRY_BUDGET:
        raise ValueError(f"the finite section to degree {m} in {d} variables has {n} unknowns, {n * n} entries, "
                         f"over the budget of {GRAM_ENTRY_BUDGET}; the bound is non-decreasing in the degree, "
                         "so a lower one still bounds the multiplier norm")
    basis = graded_monomials(d, m)
    A = _gram_matrix(space, phi, basis, _shifts(phi))
    # complex and Fortran-ordered, as A is, so that the solver overwrites
    # both buffers rather than copying them
    D = np.zeros((n, n), dtype=complex, order="F")
    np.fill_diagonal(D, [float(monomial_norm_sq(space, b)) for b in basis])
    vals = scipy.linalg.eigh(A, D, eigvals_only=True, overwrite_a=True, overwrite_b=True)
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
    # ComplexRational * complex is complex(x) * complex, so a float copy of
    # the numerator gives the same bits without the mixed products
    num = (p ** (s + k)).truncate(M_max).to_float()
    rows = []
    sup = 0.0
    for r in r_grid:
        pr = p.dilate(float(r))
        inv = series_invert(pr, M_max)
        h = num
        for _ in range(s):
            h = (h * inv).truncate(M_max)
        blocks = homogeneous_norms_sq(space, h)
        acc_at = list(accumulate(float(blocks.get(n, 0.0)) for n in range(M_max + 1)))
        for M in M_grid:
            total = acc_at[M]
            last = float(blocks.get(M, 0.0))
            rel = last / total if total > 0 else 0.0
            rows.append(SweepRow(float(r), M, total, rel, rel < TAIL_THRESHOLD))
        # the first accepted truncation of this radius, else the deepest one
        sup = max(sup, next((row.norm_sq for row in rows[-len(M_grid):] if row.accepted), acc_at[M_max]))
    return SweepResult(rows=tuple(rows), sup_norm_sq=sup, tail_threshold=TAIL_THRESHOLD)
