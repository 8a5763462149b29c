"""Lower-bound certificates for approximation distances.

Two certificate routes, both producing a ``Certificate`` with an audit
trail:

* dual functionals: on the one-variable D_alpha scale the functional
  L_j(g) = g^(j)(1) is bounded exactly when alpha > 2j+1, with
  ||L_j||^2 = sum_{n>=j} (n!/(n-j)!)^2 / (n+1)^alpha.  L_j kills every
  polynomial multiple of an h vanishing to order j+1 at 1, so
  |L_j(g)| / ||L_j|| bounds dist(g, {p h}) from below at every degree.
* Riesz-type energies: a measure mu on the zero set of f inside the unit
  sphere pairs as <p f, f_mu> = 0 against its Cauchy-type transform f_mu,
  and ||f_mu||^2 <= E(mu) = integral of 1/|1 - <z,w>|.  Finite energy
  (an embedded cube of dimension >= 3 suffices) therefore gives
  dist(1, {p f}) >= mu_total / sqrt(E).

The energy upper bound chains |1 - <z,w>| >= |z - w|^2 / 2 >= (c^2/2)|t-s|^2
over a reverse-Lipschitz parametrization, giving E <= (2/c^2) * the
parameter-box integral of |t-s|^(-2); c is estimated as a grid minimum and
recorded as such in the audit, together with the looser 2/c variant of the
constant for comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .approx import graded_monomials
from .poly import SparsePoly, onevar_terms
from .scalars import ComplexRational, abs_sq, to_complex
from .spaces import CACHE_MAXSIZE, SpaceSpec, check_int

SPHERE_TOL = 1e-12
SUPPORT_TOL = 1e-10
ENERGY_DOUBLING_TOL = 0.02
LATTICE_CHECK_TOL = 1e-12
BOX_GRID_POINTS = 1 << 22  # largest box-integral grid; bounds time only, as the sum holds no grid
BOX_LEAF_POINTS = 1 << 14  # box-integral points summed at a time: 128 kB per float64 array
NORM_CHUNK = 1 << 16  # terms of the functional-norm partial sum held at a time
ENERGY_PAIR_BUDGET = 1 << 30  # kernel evaluations per energy level; 32^6 pairs at m = 3
LATTICE_CHUNK = 1 << 14  # difference points of the lattice sum at a time: about 8 MB of scratch
CHORD_GRID_NODES = 12  # nodes per axis, at most, of the reverse-Lipschitz grid


# -- derivative functionals on the D_alpha scale ------------------------------


@lru_cache(maxsize=CACHE_MAXSIZE)
def _falling_sq_in_shifted_basis(j: int) -> tuple:
    """Fractions q_i with (n(n-1)...(n-j+1))^2 = sum_i q_i (n+1)^i."""
    falling = SparsePoly.one(1)
    for i in range(j):
        falling = falling * SparsePoly(1, {(0,): -(i + 1), (1,): 1})  # (x - (i+1)) with x = n+1
    sq = falling * falling
    return tuple(sq.coefficient((i,)).re for i in range(2 * j + 1))


@dataclass(frozen=True)
class NormBracket:
    """Certified bracket for a squared functional norm."""

    lower: float
    upper: float
    cutoff: int

    @property
    def norm_upper(self) -> float:
        return math.sqrt(self.upper)

    @property
    def rel_width(self) -> float:
        return (self.upper - self.lower) / self.lower if self.lower > 0 else math.inf


def _check_bounded(j: int, alpha) -> None:
    """ValueError unless j is an integer >= 0 and alpha > 2j + 1 (L_j bounded)."""
    check_int("the order j", j, 0)
    if not float(alpha) > 2 * j + 1:
        raise ValueError(f"the order-{j} boundary derivative is unbounded for alpha = {alpha} <= {2 * j + 1}")


def functional_norm(j: int, alpha, rel_tol: float = 1e-8) -> NormBracket:
    """Bracket ||L_j||^2 = sum_{n>=j} (n!/(n-j)!)^2 (n+1)^(-alpha).

    Finite iff alpha > 2j + 1 (ValueError otherwise).  A partial sum to an
    adaptive cutoff plus signed integral bounds on the tail brackets the
    value; the bracket narrows like cutoff^(2j - alpha) and the cutoff grows
    until the relative width drops under rel_tol, up to 2^24.  Each doubling
    forms only the new terms, NORM_CHUNK at a time, and keeps each chunk as
    a few floats with the same exact sum (``_exact_parts``); one fsum of all
    of them is the exactly rounded partial sum, so memory stays bounded by
    one chunk and the bracket does not depend on the chunking.
    """
    _check_bounded(j, alpha)
    alpha = float(alpha)
    q = _falling_sq_in_shifted_basis(j)

    def tail_bracket(M: int):
        lo = 0.0
        up = 0.0
        for i, qi in enumerate(q):
            s = alpha - i
            qi = float(qi)
            if qi == 0.0:
                continue
            t_lo = M ** (1.0 - s) / (s - 1.0)
            t_up = M ** (-s) + t_lo
            if qi > 0:
                lo += qi * t_lo
                up += qi * t_up
            else:
                lo += qi * t_up
                up += qi * t_lo
        return max(lo, 0.0), max(up, 0.0)

    def terms(lo: int, hi: int) -> np.ndarray:
        ns = np.arange(lo, hi, dtype=float)
        out = np.ones_like(ns)
        for i in range(j):
            out *= ns - i
        return out**2 / (ns + 1.0) ** alpha

    K, done, parts = 1 << 14, j, []
    while True:
        for lo in range(done, K + 1, NORM_CHUNK):
            parts += _exact_parts(terms(lo, min(lo + NORM_CHUNK, K + 1)))
        done = max(done, K + 1)
        partial = math.fsum(parts)
        t_lo, t_up = tail_bracket(K + 2)
        # fsum is exact to ~1 ulp but not directionally rounded; pad the
        # bracket by a few ulps so it stays a true enclosure
        guard = 1e-13
        lower = (partial + t_lo) * (1.0 - guard)
        upper = (partial + t_up) * (1.0 + guard)
        if upper - lower <= rel_tol * lower or K >= (1 << 24):
            return NormBracket(lower=lower, upper=upper, cutoff=K)
        K <<= 1


def _exact_parts(x: np.ndarray) -> list:
    """A few floats whose exact sum is the exact sum of the entries of x.

    With sigma = 2^k at least 2 len(x) max|x|, (x + sigma) - sigma rounds
    each entry to a multiple q of sigma 2^-53 with no other error, and the
    remainder x - q is exact.  The partial sums of the q stay multiples of
    that unit below sigma / 2, so numpy sums them exactly in any order; the
    remainders, at least 52 - log2(len(x)) bits smaller, go round again
    until none is left.
    """
    parts = []
    while x.any():
        if not np.isfinite(x).all():
            return parts + [float(np.sum(x))]  # inf or nan, as a plain sum gives
        sigma = math.ldexp(1.0, math.frexp(float(np.abs(x).max()))[1] + len(x).bit_length() + 1)
        q = (x + sigma) - sigma
        parts.append(float(np.sum(q)))
        x = x - q
    return parts


@dataclass(frozen=True)
class DerivativeFunctional:
    """g -> g^(j)(1) on the one-variable D_alpha space."""

    j: int
    alpha: object

    def __post_init__(self):
        _check_bounded(self.j, self.alpha)

    def apply(self, g: SparsePoly):
        """g^(j)(1); exact on the exact path."""
        total = ComplexRational() if g.is_exact() else 0j
        for n, a in onevar_terms(g):
            if n >= self.j:
                total = total + a * math.perm(n, self.j)
        return total


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    kind: str  # "dual" | "energy"
    lower_bound: float
    audit: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"kind": self.kind, "lower_bound": self.lower_bound, "audit": self.audit, "grid": self.grid}

    @staticmethod
    def from_json(obj) -> "Certificate":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return Certificate(kind=obj["kind"], lower_bound=float(obj["lower_bound"]),
                           audit=obj.get("audit", {}), grid=obj.get("grid", {}))


def dual_lower_bound(space: SpaceSpec, g: SparsePoly, h: SparsePoly, j: int) -> Certificate:
    """Certificate: dist(g, {p h : p polynomial}) >= |g^(j)(1)| / ||L_j||.

    Requires a one-variable alpha-scale space with alpha > 2j+1, an h
    vanishing to order >= j+1 at 1 (so L_j annihilates every p h), and
    L_j(g) != 0.  The bound divides by the upper bracket of the norm, and
    holds for every truncation degree at once.
    """
    if space.kind != "alpha" or space.d != 1:
        raise ValueError("dual certificates live on the one-variable alpha scale")
    if g.dim != 1 or h.dim != 1:
        raise ValueError("g and h must be one-variable polynomials")
    func = DerivativeFunctional(j, space.alpha)  # raises if unbounded

    # each L_i with i <= j is bounded too, since alpha > 2j + 1 >= 2i + 1
    derivs = [DerivativeFunctional(i, space.alpha).apply(h) for i in range(j + 1)]
    scale = _coeff_scale(h)
    for i, v in enumerate(derivs):
        if isinstance(v, ComplexRational):
            ok = not v
        else:
            ok = abs(v) <= 1e-10 * scale
        if not ok:
            raise ValueError(f"h must vanish to order {j + 1} at 1; derivative {i} is {v!r}")

    Lg = func.apply(g)
    Lg_abs = math.sqrt(float(abs_sq(Lg)))
    if Lg_abs == 0:
        raise ValueError("L_j(g) = 0: the dual certificate is vacuous")
    bracket = functional_norm(j, space.alpha)
    lower = Lg_abs / bracket.norm_upper
    audit = {
        "j": j,
        "alpha": float(space.alpha),
        "Lg_abs": Lg_abs,
        "functional_norm_sq_bracket": [bracket.lower, bracket.upper],
        "bracket_cutoff": bracket.cutoff,
        "h_derivatives_checked": j + 1,
    }
    return Certificate(kind="dual", lower_bound=lower, audit=audit)


# -- cube measures on zero sets ------------------------------------------------


@dataclass(frozen=True)
class CubeMeasure:
    """Pushforward of Lebesgue measure on (-1,1)^m under phi into the sphere.

    phi takes an (n, m) float array of parameters to an (n, d) complex array
    of points; it must map into the unit sphere (checked on every grid to
    1e-12) and, for certificates, into the zero set of the target
    polynomial.  Named families keep an angular safety margin ("shrink")
    away from chart degeneracies so the reverse-Lipschitz constant of the
    closed cube stays positive.

    ``shift_invariant`` claims <phi(t), phi(s)> = <phi(t - s), phi(0)> for
    all parameters t, s, including differences outside the cube.  Only
    ``torus`` sets it: its points are exponentials of linear forms in t.
    ``energy`` then sums over the difference lattice instead of all node
    pairs, after checking the claim against the pair sum on the base grid.
    """

    m: int
    d: int
    phi: object
    label: str
    shrink: float = 0.0
    scale: float = 1.0  # density multiplier; mass and energy scale as c and c^2
    shift_invariant: bool = False

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def total_mass(self) -> float:
        return self.scale * 2.0**self.m

    def scaled(self, c) -> "CubeMeasure":
        from dataclasses import replace

        return replace(self, scale=self.scale * float(c))

    @staticmethod
    def torus(k: int, d: int, shrink: float = 0.05) -> "CubeMeasure":
        """Parametrizes the sphere part of the zero set of 1 - k^(k/2) z_1...z_k:
        points k^(-1/2)(e^(i a_1), ..., e^(i a_(k-1)), e^(-i(a_1+...+a_(k-1)))).
        """
        _check_chart(k, d, shrink)
        m = k - 1
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

        return CubeMeasure(m=m, d=d, phi=phi, label=f"torus(k={k}, d={d})", shrink=shrink,
                           shift_invariant=True)

    @staticmethod
    def sphere_patch(k: int, d: int, shrink: float = 0.1) -> "CubeMeasure":
        """Parametrizes a patch of the real unit sphere of R^k inside the zero
        set of 1 - (z_1^2 + ... + z_k^2); m = k - 1 parameters."""
        _check_chart(k, d, shrink)
        m = k - 1
        polar_half = (math.pi / 2.0) * (1.0 - shrink)
        azim = math.pi * (1.0 - shrink)

        def phi(T):
            T = np.asarray(T, dtype=float)
            n = T.shape[0]
            angles = np.empty((n, m), dtype=float)
            angles[:, : m - 1] = math.pi / 2.0 + polar_half * T[:, : m - 1]
            angles[:, m - 1] = azim * T[:, m - 1]
            X = np.zeros((n, d), dtype=float)
            sin_prod = np.ones(n, dtype=float)
            for i in range(m - 1):
                X[:, i] = sin_prod * np.cos(angles[:, i])
                sin_prod = sin_prod * np.sin(angles[:, i])
            X[:, m - 1] = sin_prod * np.cos(angles[:, m - 1])
            X[:, m] = sin_prod * np.sin(angles[:, m - 1])
            return X.astype(complex)

        return CubeMeasure(m=m, d=d, phi=phi, label=f"sphere_patch(k={k}, d={d})", shrink=shrink)

    @staticmethod
    def from_callable(m: int, d: int, fn, label: str = "custom") -> "CubeMeasure":
        return CubeMeasure(m=m, d=d, phi=fn, label=label)

    def points(self, T: np.ndarray) -> np.ndarray:
        """phi on the rows of T, checked to land on the unit sphere."""
        Z = np.asarray(self.phi(T), dtype=complex)
        if Z.shape != (T.shape[0], self.d):
            raise ValueError(f"phi returned shape {Z.shape}, expected {(T.shape[0], self.d)}")
        dev = float(np.abs(np.sqrt(np.sum(np.abs(Z) ** 2, axis=1)) - 1.0).max())
        if dev > SPHERE_TOL:
            raise ValueError(f"parametrization leaves the unit sphere by {dev:.2e}")
        return Z

    def grid(self, n: int, offset: float = 0.0):
        """Tensor midpoint grid with n nodes per axis, shifted by ``offset``
        cells; returns (params (n^m, m), points (n^m, d))."""
        h = 2.0 / n
        T = _tensor(-1.0 + (np.arange(n) + 0.5 + offset) * h, self.m)
        return T, self.points(T)


def _check_chart(k: int, d: int, shrink: float) -> None:
    """The arguments of the named cube families: 2 <= k <= d, 0 < shrink < 1."""
    if k < 2 or d < k:
        raise ValueError("need 2 <= k <= d")
    if not (0 < shrink < 1):
        raise ValueError("shrink must be in (0,1)")


def _tensor(axis: np.ndarray, m: int) -> np.ndarray:
    """All m-tuples of entries of ``axis`` as rows, first coordinate slowest."""
    mesh = np.meshgrid(*([axis] * m), indexing="ij")
    return np.stack([a.ravel() for a in mesh], axis=1)


def evaluate_on_points(f: SparsePoly, Z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of f on rows of Z."""
    vals = np.zeros(Z.shape[0], dtype=complex)
    for beta, c in f.terms.items():
        term = np.full(Z.shape[0], to_complex(c), dtype=complex)
        for i, e in enumerate(beta):
            if e:
                term *= Z[:, i] ** e
        vals += term
    return vals


@dataclass(frozen=True)
class EnergyResult:
    value: float
    rel_change: float
    nodes_per_axis: int
    converged: bool
    c_estimate: float
    param_integral: float
    analytic_upper: float
    m: int
    label: str
    energy_sum: str  # "lattice" or "pairs"
    kernel_evaluations: int  # 1/|1 - <z,w>| evaluations over all levels and the lattice check
    lattice_check_rel: float | None  # lattice vs pair sum on the base grid; None on the pair path


def _param_inv_sq_integral(m: int, n: int) -> float:
    """Quadrature for the box-pair integral of |t-s|^(-2) via the difference
    substitution: integral over (-2,2)^m of prod_j (2-|u_j|) / |u|^2.

    The value is ``np.sum`` over the flattened n^m midpoint grid, bit for
    bit, without holding that grid. On one contiguous array np.sum splits a
    range in halves, the left one rounded down to a multiple of 8, and sums
    each half the same way; this follows that tree down to leaves of at most
    BOX_LEAF_POINTS points, and np.sum of a leaf is its subtree's value.
    """
    h = 4.0 / n
    x = -2.0 + (np.arange(n) + 0.5) * h
    w, x2 = 2.0 - np.abs(x), x**2

    def leaf(lo: int, hi: int) -> float:
        # the grid points lo..hi-1 as whole rows along the last axis: each
        # row's density and |u|^2 from its leading digits, in the order a
        # row-wise product and sum over the tensor grid takes them (1 * a and
        # 0 + a are exact), then broadcast against the last axis
        r0, r1 = lo // n, (hi - 1) // n
        rows = np.arange(r0, r1 + 1)
        digits = []
        for _ in range(m - 1):
            rows, d = np.divmod(rows, n)
            digits.append(d)
        dens, r2 = np.ones(r1 - r0 + 1), np.zeros(r1 - r0 + 1)
        for d in reversed(digits):
            dens, r2 = dens * w[d], r2 + x2[d]
        start, wl, x2l = lo - r0 * n, w, x2
        if r0 == r1:  # inside one row (m = 1 has only one): just its columns
            wl, x2l, start = w[start:start + hi - lo], x2[start:start + hi - lo], 0
        dens, r2 = dens[:, None] * wl, r2[:, None] + x2l
        dens /= r2
        return np.sum(dens.ravel()[start:start + hi - lo])

    def tree(lo: int, count: int) -> float:
        if count <= BOX_LEAF_POINTS:
            return leaf(lo, lo + count)
        half = count // 2
        half -= half % 8
        return tree(lo, half) + tree(lo + half, count - half)

    return float(tree(0, n**m) * h**m)


def param_inv_sq_integral(m: int, n_base: int = 64, rel_tol: float = ENERGY_DOUBLING_TOL):
    """(value, rel_change, n_final) for the parameter-box integral, with
    midpoint-grid doubling until the change falls under rel_tol; ValueError,
    before building it, for a grid past BOX_GRID_POINTS points or an n_base
    that is not an even integer >= 2 (an odd n puts a node on the singular
    point u = 0)."""
    check_int("n_base", n_base, 1)
    if n_base % 2:
        raise ValueError(f"n_base must be even: an odd n puts a midpoint node on the singular point u = 0, "
                         f"got {n_base}")
    n, prev = n_base, None
    while True:
        if n**m > BOX_GRID_POINTS:
            state = "" if prev is None else f", unconverged at relative change {rel:.3g} (tolerance {rel_tol})"
            raise ValueError(f"box integral for m = {m}: the n = {n} grid needs {n**m} points, "
                             f"over the budget of {BOX_GRID_POINTS}{state}")
        cur = _param_inv_sq_integral(m, n)
        if prev is not None:
            rel = abs(cur - prev) / cur
            if rel < rel_tol:
                return cur, rel, n
        prev = cur
        n *= 2


def _pair_sum(measure: CubeMeasure, n: int) -> float:
    """Sum of 1/|1 - <phi(t), phi(s)>| over all node pairs of the two offset
    midpoint grids with n nodes per axis."""
    _, Z1 = measure.grid(n, offset=0.0)
    _, Z2 = measure.grid(n, offset=0.5)
    return kernels.energy_pair_sum(Z1, Z2)


def _lattice_sum(measure: CubeMeasure, n: int) -> float:
    """``_pair_sum`` for a shift-invariant cube, as a sum over differences.

    Per axis t_i - s_j = (i - j - 1/2) h, and i - j = u occurs n - |u| times,
    so the n^m x n^m pairs collapse to (2n - 1)^m difference points u with
    weight prod_j (n - |u_j|) and kernel 1/|1 - <phi((u - 1/2) h), phi(0)>|.
    The points go LATTICE_CHUNK at a time, in the order of ``_tensor``, and
    math.fsum adds the chunk totals in that order.
    """
    h = 2.0 / n
    shape = (2 * n - 1,) * measure.m
    count = math.prod(shape)
    z0 = measure.points(np.zeros((1, measure.m)))[0]
    totals = []
    for start in range(0, count, LATTICE_CHUNK):
        idx = np.arange(start, min(start + LATTICE_CHUNK, count))
        U = np.stack(np.unravel_index(idx, shape), axis=1).astype(float) + (1 - n)
        weight = np.prod(n - np.abs(U), axis=1)
        Z = measure.points((U - 0.5) * h)
        totals.append(float(np.sum(weight / np.abs(1.0 - Z @ z0.conj()))))
    return math.fsum(totals)


def _check_lattice_sum(measure: CubeMeasure, n: int, lattice_sum: float) -> float:
    """Relative gap between ``lattice_sum`` and the pair sum at n nodes per
    axis; ValueError past LATTICE_CHECK_TOL, so a cube that claims shift
    invariance without having it cannot reach the lattice path."""
    pairs = _pair_sum(measure, n)
    rel = abs(lattice_sum - pairs) / pairs
    if not rel <= LATTICE_CHECK_TOL:
        raise ValueError(f"{measure.label} claims shift invariance, but its lattice sum differs "
                         f"from the pair sum by {rel:.2e} relative at n = {n}")
    return rel


def _level_cost(measure: CubeMeasure, n: int) -> int:
    """Kernel evaluations of one energy level with n nodes per axis."""
    m = measure.m
    return (2 * n - 1) ** m if measure.shift_invariant else n ** (2 * m)


def _check_energy_budget(measure: CubeMeasure, n_base: int, max_doublings: int) -> None:
    """ValueError unless m >= 3 (the energy diverges below), n_base is an
    integer >= 1 and max_doublings one >= 0; and if the last level of
    ``energy`` (n_base 2^max_doublings nodes per axis), the lattice path's
    base-grid check or the reverse-Lipschitz grid needs more than
    ENERGY_PAIR_BUDGET kernel evaluations; the levels grow with n, so the
    last one is the largest, and the chord grid is counted at its largest size."""
    if measure.m < 3:
        raise ValueError(f"energy of {measure.label}: the cube needs dimension m >= 3, got m = {measure.m}")
    check_int("n_base", n_base, 1)
    check_int("max_doublings", max_doublings, 0)
    n_last = n_base * 2**max_doublings
    path = "lattice" if measure.shift_invariant else "pair"
    needs = {f"the {path} sum at n = {n_last}": _level_cost(measure, n_last)}
    if measure.shift_invariant:
        needs[f"the pair-sum check at n = {n_base}"] = n_base ** (2 * measure.m)
    nc = min(n_last, CHORD_GRID_NODES)
    needs[f"the chord-ratio grid at n = {nc}"] = nc ** (2 * measure.m)
    for what, count in needs.items():
        if count > ENERGY_PAIR_BUDGET:
            raise ValueError(f"energy of {measure.label}: {what} needs {count} kernel evaluations, "
                             f"over the budget of {ENERGY_PAIR_BUDGET}")


def energy(measure: CubeMeasure, n_base: int = 8, max_doublings: int = 2,
           rel_tol: float = ENERGY_DOUBLING_TOL) -> EnergyResult:
    """Quadrature value and analytic upper bound for E(mu).

    Convergence of the box-pair integral needs m >= 3 (ValueError below
    that).  The two grid copies are midpoint grids offset by half a cell,
    so the singular diagonal t = s is never sampled; the node count doubles
    until the energy moves by less than rel_tol.  A shift-invariant cube is
    summed over the difference lattice, (2n - 1)^m kernel evaluations per
    level instead of n^(2m), once the lattice sum has matched the pair sum
    on the base grid.  Every level, the base-grid check and the chord-ratio
    grid are held to ENERGY_PAIR_BUDGET kernel evaluations: past it,
    ValueError before any quadrature.
    """
    _check_energy_budget(measure, n_base, max_doublings)
    m = measure.m
    # before the quadrature, so a box integral past its grid budget fails at once
    integral, _, _ = param_inv_sq_integral(m)
    lattice = measure.shift_invariant
    evaluations = 0

    def node_sum(n: int) -> float:
        nonlocal evaluations
        evaluations += _level_cost(measure, n)
        return _lattice_sum(measure, n) if lattice else _pair_sum(measure, n)

    n = n_base
    mass_sq = measure.scale**2
    total = node_sum(n)
    check_rel = None
    if lattice:
        check_rel = _check_lattice_sum(measure, n, total)
        evaluations += n ** (2 * m)
    w = (2.0 / n) ** m
    prev = total * w * w * mass_sq
    rel = math.inf
    converged = False
    for _ in range(max_doublings):
        n *= 2
        w = (2.0 / n) ** m
        cur = node_sum(n) * w * w * mass_sq
        rel = abs(cur - prev) / cur
        prev = cur
        if rel < rel_tol:
            converged = True
            break
    value = prev

    # reverse-Lipschitz estimate on a moderate offset grid
    nc = min(n, CHORD_GRID_NODES)
    Tc1, Zc1 = measure.grid(nc, offset=0.0)
    Tc2, Zc2 = measure.grid(nc, offset=0.5)
    c_est = kernels.min_chord_ratio(Zc1, Zc2, Tc1, Tc2)
    analytic_upper = (2.0 / c_est**2) * integral * mass_sq
    return EnergyResult(
        value=value, rel_change=rel, nodes_per_axis=n, converged=converged,
        c_estimate=c_est, param_integral=integral, analytic_upper=analytic_upper,
        m=m, label=measure.label,
        energy_sum="lattice" if lattice else "pairs",
        kernel_evaluations=evaluations, lattice_check_rel=check_rel,
    )


def _coeff_scale(f: SparsePoly) -> float:
    return math.fsum(math.sqrt(float(abs_sq(c))) for c in f.terms.values()) or 1.0


def energy_lower_bound(space: SpaceSpec, f: SparsePoly, measure: CubeMeasure,
                       n_base: int = 8, max_doublings: int = 2) -> Certificate:
    """Certificate: dist(1, {p f : p polynomial}) >= mu_total / sqrt(E_upper).

    The measure must be supported in the zero set of f on the unit sphere
    (checked on the grid against 1e-10 times the coefficient mass of f) and
    the ambient space must be the Drury-Arveson space of matching dimension,
    whose kernel 1/(1 - <z,w>) the energy integrand matches.  The audit
    records the vanishing of the monomial pairings integral z^beta f dmu up
    to degree 6, the quadrature energy, and the bound provenance.
    """
    _check_energy_budget(measure, n_base, max_doublings)  # before the support grid
    if space.kind != "alpha" or float(space.alpha) != 0.0:
        raise ValueError("energy certificates require the Drury-Arveson space (alpha = 0)")
    if space.d != measure.d or f.dim != measure.d:
        raise ValueError("dimension mismatch between space, polynomial and measure")

    n_check = max(n_base, 8)
    T, Z = measure.grid(n_check, offset=0.0)
    fvals = evaluate_on_points(f.to_float(), Z)
    support_dev = float(np.abs(fvals).max())
    scale = _coeff_scale(f)
    if support_dev > SUPPORT_TOL * scale:
        raise ValueError(f"measure is not supported in the zero set: max |f| = {support_dev:.2e}")

    res = energy(measure, n_base=n_base, max_doublings=max_doublings)
    mu_total = measure.total_mass
    lower = mu_total / math.sqrt(res.analytic_upper)

    wq = measure.scale * (2.0 / n_check) ** measure.m
    pair_max = 0.0
    for beta in graded_monomials(measure.d, 6):
        mono = evaluate_on_points(SparsePoly.monomial(measure.d, beta), Z)
        pair_max = max(pair_max, abs(complex(np.sum(mono * fvals) * wq)))

    audit = {
        "mu_total": mu_total,
        "energy_quadrature": res.value,
        "energy_rel_change_on_doubling": res.rel_change,
        "energy_converged": res.converged,
        "energy_kernel_evaluations": res.kernel_evaluations,
        "lattice_check_rel": res.lattice_check_rel,
        "c_estimate_grid_min": res.c_estimate,
        "param_box_inv_sq_integral": res.param_integral,
        "energy_upper_analytic": res.analytic_upper,
        "bound_constant_form": "2/c^2 via |1-<z,w>| >= |z-w|^2/2 >= (c^2/2)|t-s|^2",
        "alt_constant_2_over_c_value": (2.0 / res.c_estimate) * res.param_integral * measure.scale**2,
        "support_max_abs_f": support_dev,
        "max_abs_monomial_pairing_deg6": pair_max,
    }
    grid = {
        "family": measure.label,
        "m": measure.m,
        "nodes_per_axis": res.nodes_per_axis,
        "offset_scheme": "midpoint pair, half-cell shift",
        "energy_sum": res.energy_sum,
        "shrink": measure.shrink,
    }
    return Certificate(kind="energy", lower_bound=lower, audit=audit, grid=grid)


def domination_constant(f: SparsePoly, g: SparsePoly, j: int, radii=None,
                        n_sphere: int = 64, seed: int = 0) -> float:
    """Grid estimate of sup over the ball of |g|^j / |f| (may be inf).

    The grid is a radial-spherical product: each radius (default up to
    0.9999) times n_sphere pseudo-random points of the unit sphere of C^d.
    """
    if f.dim != g.dim:
        raise ValueError("f and g must share a dimension")
    if j < 0:
        raise ValueError("j must be >= 0")
    d = f.dim
    radii = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999] if radii is None else list(radii)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n_sphere, d)) + 1j * rng.normal(size=(n_sphere, d))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    best = 0.0
    ff = f.to_float()
    gf = g.to_float()
    for r in radii:
        Z = r * w
        fv = np.abs(evaluate_on_points(ff, Z))
        gv = np.abs(evaluate_on_points(gf, Z)) ** j
        with np.errstate(divide="ignore"):
            ratio = np.where(fv > 0, gv / np.where(fv > 0, fv, 1.0), np.inf)
        top = float(ratio.max())
        best = max(best, top)
    return best
