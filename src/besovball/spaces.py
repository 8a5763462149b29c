"""Radially weighted Besov spaces on the unit ball and the D_alpha scale.

A radial measure omega = mu x sigma on the closed ball (mu on [0,1],
sigma the normalized surface measure) induces, for an order-N space, the
weight sequence

    W_0 = mu([0,1])                      (total mass, point mass included)
    W_n = n^(2N) * omega_n,   n >= 1,

where omega_n = (n! (d-1)! / (n+d-1)!) * integral of r^(2n) dmu(r).
The squared norm of a monomial z^beta is then W_{|beta|} * beta!/|beta|!,
and monomials are pairwise orthogonal.

The D_alpha scale uses W_n = (n+1)^alpha directly: alpha = 0 is the
d-variable Drury-Arveson space, alpha = -(d-1) is norm-equal to the Hardy
space of the sphere only when d = 1 or d = 2 (it is norm-equivalent in
general).  The exact sphere norm is the order-0 space over the point mass
at r = 1.  A space is exact (Fraction weights) when its measure is, or when
its alpha is an integer, int or Fraction:

>>> z1z2 = SparsePoly.monomial(2, (1, 1))
>>> hardy_sphere_norm_sq(z1z2) == Fraction(1, 6) == norm_sq(SpaceSpec.besov(2, 0, PointMassAtOne()), z1z2)
True
>>> SpaceSpec.alpha_scale(1, Fraction(4)).is_exact, SpaceSpec.alpha_scale(1, 0.5).is_exact
(True, False)

Admissibility requires mu((r,1]) > 0 for every r < 1; the named measures
satisfy it structurally, quadrature measures are checked at construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .poly import SparsePoly, factorial_ratio
from .scalars import ComplexRational, abs_sq, check_int, exact_parts, json_int, json_object, path_casts

# entries per memoised table: every builtin sweep fits (degrees <= 1024 in one
# space), yet spaces built in a loop, with their quadrature rules, are evicted
CACHE_MAXSIZE = 4096
# Gauss-Legendre nodes of GeneralQuadrature.from_density
QUADRATURE_NODES = 256


# -- radial measures ---------------------------------------------------------


@dataclass(frozen=True)
class PointMassAtOne:
    """mu = delta_1; the order-0 space is the Hardy space of the sphere."""

    def moment(self, n: int) -> Fraction:
        return Fraction(1)

    @property
    def is_exact(self) -> bool:
        return True


@dataclass(frozen=True)
class NormalizedVolume:
    """Radial part of normalized Lebesgue measure on the ball in C^dim."""

    dim: int

    def __post_init__(self):
        check_int("dim", self.dim, 1)

    def moment(self, n: int) -> Fraction:
        # V(rB) = r^(2 dim)  =>  dmu = 2 dim r^(2 dim - 1) dr
        return Fraction(self.dim, n + self.dim)

    @property
    def is_exact(self) -> bool:
        return True


@dataclass(frozen=True)
class ConstantDensity:
    """dmu = c * 2r dr on [0,1]."""

    c: Fraction = Fraction(1)

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"the density constant c must be > 0, got {self.c!r}")

    def moment(self, n: int) -> Fraction:
        return Fraction(self.c) / (n + 1)

    @property
    def is_exact(self) -> bool:
        return True


@dataclass(frozen=True)
class BetaDensity:
    """dmu = (1-r)^beta * 2r dr on [0,1], integer beta >= 0."""

    beta: int

    def __post_init__(self):
        check_int("beta", self.beta, 0)

    def moment(self, n: int) -> Fraction:
        # 2 * B(2n+2, beta+1), exact
        return Fraction(2 * math.factorial(2 * n + 1) * math.factorial(self.beta), math.factorial(2 * n + 2 + self.beta))

    @property
    def is_exact(self) -> bool:
        return True


class GeneralQuadrature:
    """Radial measure given by quadrature nodes/weights on [0,1] (float path).

    Admissibility demands mass near r = 1; construction rejects rules whose
    largest positively weighted node sits below 0.99.
    """

    __slots__ = ("nodes", "weights", "_hash")

    def __init__(self, nodes, weights):
        # read-only copies, so the hash taken below stays the hash of the contents
        nodes = np.array(nodes, dtype=float)
        weights = np.array(weights, dtype=float)
        nodes.flags.writeable = weights.flags.writeable = False
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (nodes.min() >= 0 and nodes.max() <= 1):
            raise ValueError("nodes must lie in [0,1]")
        if not np.all(weights >= 0):
            raise ValueError("weights must be non-negative")
        if not np.any(nodes[weights > 0] >= 0.99):
            raise ValueError("measure has no mass near r = 1 (inadmissible)")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        # hashed once: the weight cache hashes the space on every lookup
        object.__setattr__(self, "_hash", hash((nodes.tobytes(), weights.tobytes())))

    @staticmethod
    def from_density(u):
        """Gauss-Legendre rule of QUADRATURE_NODES nodes for dmu = u(r) * 2r
        dr on [0,1]."""
        x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * w * np.array([float(u(ri)) for ri in r]) * 2.0 * r
        return GeneralQuadrature(r, wr)

    def moment(self, n: int) -> float:
        return float(np.dot(self.weights, self.nodes ** (2 * n)))

    @property
    def is_exact(self) -> bool:
        return False

    def __eq__(self, other):
        if not isinstance(other, GeneralQuadrature):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes) and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return self._hash


def measure_from_json(obj):
    obj = json_object(obj, "a measure")
    kind = obj.get("type")
    if kind == "point_mass_one":
        return PointMassAtOne()
    if kind == "volume":
        return NormalizedVolume(json_int(obj["dim"]))
    if kind == "constant_density":
        c = obj.get("c", [1, 1])
        if not (isinstance(c, list) and len(c) == 2):
            raise ValueError(f"c must be a [numerator, denominator] pair, got {c!r}")
        num, den = (json_int(x) for x in c)
        check_int("the numerator of c", num, 1)
        check_int("the denominator of c", den, 1)
        return ConstantDensity(Fraction(num, den))
    if kind == "beta_density":
        return BetaDensity(json_int(obj["beta"]))
    if kind == "quadrature":
        return GeneralQuadrature(obj["nodes"], obj["weights"])
    raise ValueError(f"unknown measure type: {kind!r}")


# -- space specifications ----------------------------------------------------


@dataclass(frozen=True)
class SpaceSpec:
    """Either an order-N Besov space over a radial measure or a D_alpha space.

    ``is_exact`` (Fraction weights) is worked out at construction and takes
    part in == and the hash, so the weight caches never hand the float
    weights of alpha = 2.0 to the exact space alpha = 2.
    """

    d: int
    kind: str
    N: int | None = None
    measure: object | None = None
    alpha: object | None = None  # int/Fraction (exact) or float
    is_exact: bool = field(init=False, repr=False)

    def __post_init__(self):
        check_int("d", self.d, 1)
        if self.kind == "besov":
            check_int("the order N", self.N, 0)
            if self.measure is None:
                raise ValueError("besov spaces need a radial measure")
        elif self.kind == "alpha":
            if self.alpha is None or not math.isfinite(self.alpha):
                raise ValueError(f"alpha-scale spaces need a finite alpha, got {self.alpha!r}")
        else:
            raise ValueError(f"unknown space kind: {self.kind!r}")
        if self.kind == "besov":
            exact = self.measure.is_exact
        else:
            exact = isinstance(self.alpha, int) or isinstance(self.alpha, Fraction) and self.alpha.denominator == 1
        object.__setattr__(self, "is_exact", exact)

    # named constructors

    @staticmethod
    def drury_arveson(d: int) -> "SpaceSpec":
        return SpaceSpec(d=d, kind="alpha", alpha=0)

    @staticmethod
    def alpha_scale(d: int, alpha) -> "SpaceSpec":
        return SpaceSpec(d=d, kind="alpha", alpha=alpha)

    @staticmethod
    def besov(d: int, N: int, measure) -> "SpaceSpec":
        return SpaceSpec(d=d, kind="besov", N=N, measure=measure)

    def weight(self, n: int):
        """W_n; Fraction on the exact path, float otherwise."""
        return _weight(self, n)


def space_from_json(obj) -> SpaceSpec:
    obj = json_object(obj, "a space")
    d = json_int(obj["d"])
    kind = obj["kind"]
    if kind == "besov":
        return SpaceSpec(d=d, kind="besov", N=json_int(obj["N"]), measure=measure_from_json(obj["measure"]))
    if kind == "alpha":
        a = obj["alpha"]
        if not isinstance(a, numbers.Real) or isinstance(a, bool):
            raise ValueError(f"the alpha of a space must be a number, got {a!r}")
        a = int(a) if float(a).is_integer() else float(a)
        return SpaceSpec(d=d, kind="alpha", alpha=a)
    raise ValueError(f"unknown space kind: {kind!r}")


@lru_cache(maxsize=CACHE_MAXSIZE)
def _sphere_factor(d: int, n: int) -> Fraction:
    """n!(d-1)!/(n+d-1)! — the Hardy-sphere/Drury-Arveson norm ratio in degree n."""
    return Fraction(math.factorial(n) * math.factorial(d - 1), math.factorial(n + d - 1))


@lru_cache(maxsize=CACHE_MAXSIZE)
def _weight(space: SpaceSpec, n: int):
    if n < 0:
        raise ValueError("n must be >= 0")
    if space.kind == "alpha":
        if space.is_exact:
            return Fraction(n + 1) ** int(space.alpha)
        return float(n + 1) ** float(space.alpha)
    if n == 0:
        return space.measure.moment(0)
    omega_n = _sphere_factor(space.d, n) * space.measure.moment(n)
    return n ** (2 * space.N) * omega_n


# -- norms and inner products -------------------------------------------------


def monomial_norm_sq(space: SpaceSpec, beta):
    """||z^beta||^2 = W_{|beta|} * beta!/|beta|!

    Formed once per (space, exponent) and kept in a cache of at most
    CACHE_MAXSIZE entries, the least recently used evicted first."""
    beta = tuple(beta)
    if len(beta) != space.d:
        raise ValueError("exponent length must equal the space dimension")
    return _monomial_norm_sq(space, beta)


@lru_cache(maxsize=CACHE_MAXSIZE)
def _monomial_norm_sq(space: SpaceSpec, beta: tuple):
    return space.weight(sum(beta)) * factorial_ratio(beta)


def inner_product(space: SpaceSpec, f: SparsePoly, g: SparsePoly):
    """<f, g> with monomials orthogonal; exact iff space and inputs are exact."""
    if f.dim != space.d or g.dim != space.d:
        raise ValueError("polynomial dimension must equal the space dimension")
    exact = space.is_exact and f.is_exact() and g.is_exact()
    cast, weight = path_casts(exact)
    total = Fraction(0) if exact else 0j
    for beta, c in f.terms.items():
        cg = g.terms.get(beta)
        if cg is not None:
            total = total + cast(c) * cast(cg).conjugate() * weight(monomial_norm_sq(space, beta))
    return total


def _weighted_abs_sq_sum(space: SpaceSpec, terms):
    """sum of |c_beta|^2 ||z^beta||^2 over the (beta, c) pairs, in their
    order; exact iff the space and every c are exact.  Exact, with c = (a +
    bi) / d and ||z^beta||^2 = p / q, it is one integer sum of (a^2 + b^2) p
    over the lcm of the d^2 q, made a Fraction once."""
    if not (space.is_exact and all(isinstance(c, ComplexRational) for _, c in terms)):
        total = 0.0
        for beta, c in terms:
            total = total + abs_sq(c) * float(monomial_norm_sq(space, beta))
        return total
    parts = []
    for beta, c in terms:
        a, b, d = exact_parts(c)
        w = monomial_norm_sq(space, beta)
        parts.append(((a * a + b * b) * w.numerator, d * d * w.denominator))
    den = math.lcm(*(q for _, q in parts))
    return Fraction(sum(s * (den // q) for s, q in parts), den)


def norm_sq(space: SpaceSpec, f: SparsePoly):
    """sum of |c_beta|^2 ||z^beta||^2 over the terms of f, in their order;
    exact iff space and f are exact."""
    return _weighted_abs_sq_sum(space, f.terms.items())


def hardy_sphere_norm_sq(f: SparsePoly):
    """Exact squared Hardy-space-of-the-sphere norm of a polynomial: the
    norm of the order-0 space over the point mass at r = 1.

    In degree n the sphere square equals n!(d-1)!/(n+d-1)! times the
    Drury-Arveson square; for a monomial that is (d-1)! beta! / (|beta|+d-1)!.
    Only homogeneous input is accepted, matching the per-degree role the
    factor plays in the weight sequence.
    """
    if not f.is_homogeneous():
        raise ValueError("hardy_sphere_norm_sq needs a homogeneous polynomial")
    return norm_sq(SpaceSpec.besov(f.dim, 0, PointMassAtOne()), f)


def homogeneous_norms_sq(space: SpaceSpec, f: SparsePoly):
    """dict degree -> ``norm_sq`` of the homogeneous component, in increasing
    degree; each component takes the exact path when it and the space are.
    One pass over the terms buckets them by degree, in term order, so each
    value is the ``norm_sq`` of its component."""
    parts: dict = {}
    for beta, c in f.terms.items():
        parts.setdefault(sum(beta), []).append((beta, c))
    return {n: _weighted_abs_sq_sum(space, parts[n]) for n in sorted(parts)}


def besov_da_ratio(d: int, max_degree: int) -> list[Fraction]:
    """Exact weight ratios, degree by degree, between the order-(d-1)/2 Besov
    space over the sphere measure and the Drury-Arveson space (odd d).

    For d = 3 the closed form is 2 n^2 / ((n+1)(n+2)), which stays inside
    [1/3, 2]; two-sided bounds like these realize the Drury-Arveson space
    as a radially weighted Besov space.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("besov_da_ratio needs odd d")
    N = (d - 1) // 2
    space = SpaceSpec.besov(d, N, PointMassAtOne())
    out = []
    for n in range(max_degree + 1):
        w = space.weight(n)
        out.append(Fraction(w))
    return out


def dilation_contraction_gap(spaceN: SpaceSpec, f: SparsePoly, r):
    """(1-r)^2 ||f||_N^2 - ||f - f_r||_{N-1}^2 for the order-(N-1) space
    over the same measure; the gap is >= 0 (exact on the exact path)."""
    if spaceN.kind != "besov" or spaceN.N < 1:
        raise ValueError("needs an order-N besov space with N >= 1")
    lower = SpaceSpec.besov(spaceN.d, spaceN.N - 1, spaceN.measure)
    fr = f.dilate(r)
    lhs = norm_sq(lower, f - fr)
    rhs = norm_sq(spaceN, f)
    one = Fraction(1) if spaceN.is_exact and f.is_exact() and not isinstance(r, float) else 1.0
    return (one - r) * (one - r) * rhs - lhs


def slice_norm_gap(f: SparsePoly, z) -> float:
    """||f||^2_{H2_d} - sum_n |f_n(z)|^2 for |z| = 1; non-negative by
    Cauchy-Schwarz against the degree-n kernel component."""
    s = f.slice(z, max(0, f.degree()))
    total = math.fsum(abs(complex(a)) ** 2 for a in s.terms.values())
    da = SpaceSpec.drury_arveson(f.dim)
    return float(norm_sq(da, f.to_float())) - total
