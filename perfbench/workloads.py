"""Seeded inputs, the three workloads and their output gates.

Each workload is one closed-loop client in one process: every program call
starts after the previous one returned.  ``run_pass`` makes the program
calls of one pass and times them by phase; ``gate`` checks one pass's
outputs against references that do not depend on the solve path taken.

* ``structured``: the paper's problems as stated (the steps of the three
  builtin experiments, plus the acceptance 06/07/10 extras).  Sparse
  generators and the torus lattice are the structure that Gram reduction
  and the lattice energy sum exploit.  The inputs are fixed; the seed does
  not change them.
* ``rotated``: the DA_4 and DA_2 problems after a seeded rational orthogonal
  change of variables z -> zU.  The Drury-Arveson norm and the energy kernel
  are unitarily invariant, so every reference value is unchanged, but the
  generators become dense and the cube loses its lattice.
* ``exact-batch``: a fresh seeded batch of small dense exact systems in
  every pass, plus three lemma checks.  Dense generators make the Gram
  difference graph connected, so structure-exploiting work finds nothing to
  remove, and its overhead shows.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg

from besovball import approx, certify, experiments, kernels, spaces
from besovball.poly import SparsePoly
from besovball.spaces import SpaceSpec

DA1 = SpaceSpec.drury_arveson(1)
DA2 = SpaceSpec.drury_arveson(2)
DA3 = SpaceSpec.drury_arveson(3)
DA4 = SpaceSpec.drury_arveson(4)
D4 = SpaceSpec.alpha_scale(1, 4)

F2_TERMS = {(0, 0): Fraction(1), (1, 1): Fraction(-2)}  # 1 - 2 z1 z2
F4_TERMS = {(0, 0, 0, 0): Fraction(1), (1, 1, 1, 1): Fraction(-16)}  # 1 - 16 z1 z2 z3 z4
ONE_MINUS_Z = SparsePoly(1, {(0,): 1, (1,): -1})

# Frozen acceptance values (tests/test_acceptance.py).
DA4_DIST_M12 = 0.9249292837973018
DA4_HC1_DIST_M12 = 1.0882622236424302
ENERGY_LOWER_BOUND = 0.10322746574377133
DUAL_LOWER_BOUND = 1.7591476450870798
HC2_BASE_M2 = 3.4624435382530416
HC2_CROSSING = 62
SWEEP_SUP = 1.4039405116204102
# The torus quadrature energy (n = 32 grid) feeds only the certificate's
# audit; frozen from a run of the numpy pair sum, so that a faster energy
# sum must reproduce it.
ENERGY_QUADRATURE = 85.13854290163815

FLOAT_REL_TOL = 1e-9
EVEN_TO_12 = list(range(0, 13, 2))
EVEN_TO_24 = list(range(0, 25, 2))
EXACT_DEGREES = list(range(0, 11))


# -- reference values ----------------------------------------------------------


def da2_dist_sq(m: int) -> Fraction:
    """Closed form of dist(1, {p (1 - 2 z1 z2) : deg p <= m})^2 in DA_2:
    prod_{i=1}^{m//2+1} 2i/(2i+1)."""
    out = Fraction(1)
    for i in range(1, m // 2 + 2):
        out *= Fraction(2 * i, 2 * i + 1)
    return out


def da4_dist_sq(m: int) -> Fraction:
    """dist(1, {p (1 - 16 w) : deg p <= m})^2 in DA_4 with w = z1 z2 z3 z4.

    Only the multiples w^j f with 4j <= m can correlate with 1, and the
    powers of w are orthogonal with ||w^k||^2 = (k!)^4 / (4k)!, so this is
    an exact solve in m//4 + 1 unknowns, independent of the package.
    """
    J = m // 4
    norm = [Fraction(math.factorial(k) ** 4, math.factorial(4 * k)) for k in range(J + 2)]
    # w^j f = w^j - 16 w^(j+1): tridiagonal Gram matrix, rhs e_0
    G = [[Fraction(0)] * (J + 1) for _ in range(J + 1)]
    for j in range(J + 1):
        G[j][j] = norm[j] + 256 * norm[j + 1]
        if j + 1 <= J:
            G[j][j + 1] = G[j + 1][j] = -16 * norm[j + 1]
    c = [Fraction(1)] + [Fraction(0)] * J
    a = solve_exact(G, [[x] for x in c])
    return 1 - sum(ci * ai[0] for ci, ai in zip(c, a))


# -- exact linear algebra on Fractions (input generation and references) -------


def solve_exact(M, B):
    """M^(-1) B by Gauss-Jordan elimination over Fractions."""
    n = len(M)
    rows = [list(M[i]) + list(B[i]) for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                k = rows[r][col]
                rows[r] = [x - k * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def gram_of_rows(U):
    """U U^T, exactly."""
    return [[sum(a * b for a, b in zip(ri, rj)) for rj in U] for ri in U]


def cayley(A):
    """(I - A)(I + A)^(-1); orthogonal for skew-symmetric A."""
    n = len(A)
    eye = identity(n)
    plus = [[eye[i][j] + A[i][j] for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - A[i][j] for j in range(n)] for i in range(n)]
    inv = solve_exact(plus, eye)
    return [[sum(minus[i][k] * inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def rotation_4(rng: random.Random):
    """Cayley transform of a seeded skew-symmetric matrix with entries p/q,
    |p| <= 2, 1 <= q <= 3; redrawn until U has no zero entry, so that the
    rotated generator is dense."""
    while True:
        A = [[Fraction(0)] * 4 for _ in range(4)]
        for i, j in itertools.combinations(range(4), 2):
            A[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            A[j][i] = -A[i][j]
        U = cayley(A)
        if all(x != 0 for row in U for x in row):
            return U


PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (6, 8, 10), (9, 12, 15), (12, 16, 20), (15, 20, 25)]


def rotation_2(rng: random.Random):
    """A rotation or reflection with entries a/c, b/c from a Pythagorean
    triple with hypotenuse at most 25."""
    a, b, c = rng.choice(PYTHAGOREAN)
    if rng.random() < 0.5:
        a, b = b, a
    a, b = a * rng.choice((1, -1)), b * rng.choice((1, -1))
    if rng.random() < 0.5:
        return [[Fraction(a, c), Fraction(-b, c)], [Fraction(b, c), Fraction(a, c)]]
    return [[Fraction(a, c), Fraction(b, c)], [Fraction(b, c), Fraction(-a, c)]]


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = defaultdict(Fraction)
    for b1, c1 in p.items():
        for b2, c2 in q.items():
            out[tuple(x + y for x, y in zip(b1, b2))] += c1 * c2
    return {b: c for b, c in out.items() if c != 0}


def compose_linear(terms: dict, U) -> dict:
    """Coefficients of z -> f(z U^T) for f given by ``terms``."""
    d = len(U)
    lin = [{tuple(int(k == j) for k in range(d)): U[i][j] for j in range(d) if U[i][j] != 0} for i in range(d)]
    out: dict = defaultdict(Fraction)
    for beta, c in terms.items():
        term = {(0,) * d: c}
        for i, e in enumerate(beta):
            for _ in range(e):
                term = _poly_mul(term, lin[i])
        for b, v in term.items():
            out[b] += v
    return {b: c for b, c in out.items() if c != 0}


def dense_exact_poly(rng: random.Random, d: int, degree: int) -> SparsePoly:
    """A random nonzero rational coefficient on every monomial of degree <= degree."""
    terms = {}
    for beta in itertools.product(range(degree + 1), repeat=d):
        if sum(beta) <= degree:
            terms[beta] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return SparsePoly(d, terms)


# -- pass bookkeeping ---------------------------------------------------------------


class Pass:
    """Times the program calls of one pass by phase."""

    def __init__(self):
        self.phase_s: dict = defaultdict(float)
        self.call_s: dict = defaultdict(float)
        self.exact_ms: list[float] = []
        self.errors: list[tuple] = []
        self.out: dict = {}
        self.wall_s = 0.0

    def call(self, phase: str, label: str, fn):
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a call that raises is a failed output, not a crash
            self.errors.append((label, traceback.format_exc()))
            result = None
        dt = time.perf_counter() - t0
        self.phase_s[phase] += dt
        self.call_s[label] += dt
        self.out[label] = result
        return result


class Checks:
    """Output gates: every check is one attempt; a check that raises fails."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:
            ok = False
        if not ok:
            self.failed.append(label)

    def errored_calls(self, p: Pass) -> None:
        for label, _tb in p.errors:
            self.attempted += 1
            self.failed.append(f"{label} raised")


def _rel_close(x, ref, tol=FLOAT_REL_TOL) -> bool:
    return abs(float(x) - float(ref)) <= tol * abs(float(ref))


def _dists(points):
    return [math.sqrt(p.dist_sq) for p in points]


def _warm_up():
    """Lazy set-up before timing: first LAPACK/BLAS calls (at a size where
    OpenBLAS starts its threads), scipy's triangular solver, the exact
    solver and the numpy kernel, on problems no workload times."""
    rng = np.random.default_rng(0)
    A = rng.normal(size=(400, 400)) + 1j * rng.normal(size=(400, 400))
    L = np.linalg.cholesky(A @ A.conj().T + 400 * np.eye(400))
    scipy.linalg.solve_triangular(L, np.ones(400, dtype=complex), lower=True)
    space = SpaceSpec.alpha_scale(3, 1)
    f = SparsePoly(3, {(0, 0, 0): 1, (0, 1, 0): Fraction(-1, 2)})
    approx.cyclicity_profile(space, f, [0, 2, 4], method="float")
    approx.optimal_approximant(approx.assemble_gram(space, f, SparsePoly.one(3), 2), method="exact")
    pts = rng.normal(size=(512, 4)) + 1j * rng.normal(size=(512, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    kernels.energy_pair_sum(pts, 0.5 * pts)


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        # (label, callable returning True on success), run once at set-up
        self.self_tests: list[tuple] = []

    def warm_up(self):
        _warm_up()

    def prepare(self, k: int):
        """Generate pass k's inputs (not timed)."""

    def run_pass(self, p: Pass, out: Path, k: int):
        raise NotImplementedError

    def gate(self, p: Pass, c: Checks):
        raise NotImplementedError

    def final_gates(self, passes, out: Path, c: Checks):
        """Checks that compare passes (not timed)."""


class Structured(Workload):
    name = "structured"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.steps = []
        for name in ("da-cyclic-d2", "da-noncyclic-d4", "hc-dirichlet4"):
            spec = experiments.BUILTIN_EXPERIMENTS[name]()
            if spec.kind == "bundle":
                self.steps += [experiments.ExperimentSpec.from_json(s) for s in spec.params["steps"]]
            else:
                self.steps.append(spec)
        self.f4 = SparsePoly(4, F4_TERMS)
        self.f2 = SparsePoly(2, F2_TERMS)

    def run_steps(self, p: Pass, out: Path, only_csv: bool = False):
        for step in self.steps:
            certifies = step.kind.endswith("certify")
            if only_csv and certifies:
                continue
            phase = "certificate" if certifies else "profile"
            p.call(phase, step.name, lambda step=step: experiments.run_experiment(step, out, threads=1))

    def run_pass(self, p: Pass, out: Path, k: int):
        self.run_steps(p, out)
        p.call("profile", "hc DA_4 n=1", lambda: approx.hc_profile(DA4, self.f4, 1, [0, 4, 8, 12], method="float"))
        p.call("profile", "hc D_4 n=1", lambda: approx.hc_profile(D4, ONE_MINUS_Z, 1, range(0, 201), method="float"))
        p.call("profile", "hc D_4 n=2", lambda: approx.hc_profile(D4, ONE_MINUS_Z, 2, range(0, 201), method="float"))
        sp = SpaceSpec.besov(3, 1, spaces.PointMassAtOne())
        x1 = SparsePoly(3, {(0, 0, 0): 1, (1, 0, 0): -1})
        p.call("sweep", "ratio sweep", lambda: approx.ratio_norm_sweep(sp, x1, 1, 1, [0.9, 0.99, 0.999], [64, 256, 1024]))
        exact = p.call("profile", "exact DA_2", lambda: approx.cyclicity_profile(DA2, self.f2, EXACT_DEGREES, method="exact"))
        if exact:
            p.exact_ms += [pt.runtime_ms for pt in exact]

    def csv_bytes(self, p: Pass) -> dict:
        return {name: Path(rep.outputs["csv"]).read_bytes() for name, rep in p.out.items()
                if rep is not None and hasattr(rep, "outputs") and "csv" in rep.outputs}

    def gate(self, p: Pass, c: Checks):
        o = p.out
        rows = lambda name: experiments.read_profile_csv(o[name].outputs["csv"])
        c.check("da-cyclic-d2 matches the DA_2 closed form",
                lambda: all(_rel_close(r["dist_sq"], da2_dist_sq(r["m"])) for r in rows("da-cyclic-d2")))
        c.check("da-noncyclic-d4 profile matches the DA_4 oracle",
                lambda: all(abs(math.sqrt(r["dist_sq"]) - math.sqrt(da4_dist_sq(r["m"]))) <= FLOAT_REL_TOL
                            for r in rows("da-noncyclic-d4-profile")))
        c.check("da-noncyclic-d4 dist at m=12 is frozen",
                lambda: abs(math.sqrt(rows("da-noncyclic-d4-profile")[-1]["dist_sq"]) - DA4_DIST_M12) < FLOAT_REL_TOL)
        lower = lambda: o["da-noncyclic-d4-cert"].summary["lower_bound"]
        c.check("energy lower bound is frozen", lambda: abs(lower() - ENERGY_LOWER_BOUND) <= FLOAT_REL_TOL)
        audit = lambda: json.loads(Path(o["da-noncyclic-d4-cert"].outputs["certificate"]).read_text())["audit"]
        c.check("quadrature energy is frozen", lambda: _rel_close(audit()["energy_quadrature"], ENERGY_QUADRATURE))
        c.check("DA_4 profile stays above the energy bound",
                lambda: all(math.sqrt(r["dist_sq"]) > lower() - 1e-6 for r in rows("da-noncyclic-d4-profile")))
        dual = lambda: o["hc-dirichlet4-dual"].summary["lower_bound"]
        c.check("dual lower bound is frozen", lambda: abs(dual() - DUAL_LOWER_BOUND) <= 1e-12)
        hc4 = o["hc DA_4 n=1"]
        c.check("hc DA_4 decreases to the frozen m=12 value",
                lambda: all(a > b for a, b in zip(_dists(hc4), _dists(hc4)[1:]))
                and abs(_dists(hc4)[-1] - DA4_HC1_DIST_M12) < FLOAT_REL_TOL)
        c.check("hc D_4 n=1 stays above the dual bound",
                lambda: all(d >= dual() - 1e-12 for d in _dists(o["hc D_4 n=1"])))
        hc2 = o["hc D_4 n=2"]
        base = lambda: math.sqrt(next(pt.dist_sq for pt in hc2 if pt.m == 2))
        c.check("hc D_4 n=2 base at m=2 is frozen", lambda: abs(base() - HC2_BASE_M2) < FLOAT_REL_TOL)
        c.check("hc D_4 n=2 crosses 10% at m=62",
                lambda: next(pt.m for pt in hc2 if math.sqrt(pt.dist_sq) < 0.1 * base()) == HC2_CROSSING)
        c.check("hc-dirichlet4-n2 CSV agrees with the API profile",
                lambda: all(abs(r["dist_sq"] - hc2[r["m"]].dist_sq) <= FLOAT_REL_TOL * HC2_BASE_M2 ** 2
                            for r in rows("hc-dirichlet4-n2")))
        sweep = o["ratio sweep"]
        c.check("sweep accepts every radius and its sup is within 1%",
                lambda: all(sweep.accepted_for(r) is not None for r in (0.9, 0.99, 0.999))
                and abs(sweep.sup_norm_sq - SWEEP_SUP) <= 0.01 * SWEEP_SUP)
        c.check("exact DA_2 profile equals the closed form exactly",
                lambda: [pt.dist_sq for pt in o["exact DA_2"]] == [float(da2_dist_sq(m)) for m in EXACT_DEGREES])

    def final_gates(self, passes, out: Path, c: Checks):
        """Deterministic CSV bytes are identical from pass to pass; one more
        untimed pass of the CSV steps gives the comparison when only one
        pass was timed."""
        check_pass = Pass()
        self.run_steps(check_pass, out / "csv-check", only_csv=True)
        c.errored_calls(check_pass)
        ref = self.csv_bytes(check_pass)
        for i, p in enumerate(passes):
            c.check(f"CSV bytes of pass {i} equal the re-run", lambda p=p: self.csv_bytes(p) == ref and len(ref) == 3)


class Rotated(Workload):
    name = "rotated"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(seed)
        self.U4 = rotation_4(rng)
        self.U2 = rotation_2(rng)
        self.f4 = SparsePoly(4, compose_linear(F4_TERMS, self.U4))
        self.f2 = SparsePoly(2, compose_linear(F2_TERMS, self.U2))
        U4f = np.array([[float(x) for x in row] for row in self.U4])
        torus = certify.CubeMeasure.torus(4, 4)
        self.cube = certify.CubeMeasure.from_callable(3, 4, lambda T: torus.phi(T) @ U4f, label="rotated torus(k=4, d=4)")
        one = SparsePoly.one(2)
        self.self_tests = [
            ("U4 U4^T = I exactly", lambda: gram_of_rows(self.U4) == identity(4)),
            ("U2 U2^T = I exactly", lambda: gram_of_rows(self.U2) == identity(2)),
            ("rotated DA_2 exact dist^2 at m=2 is 8/15",
             lambda: approx.optimal_approximant(approx.assemble_gram(DA2, self.f2, one, 2), method="exact").dist_sq
             == Fraction(8, 15)),
        ]

    def run_pass(self, p: Pass, out: Path, k: int):
        p.call("profile", "rotated DA_4", lambda: approx.cyclicity_profile(DA4, self.f4, EVEN_TO_12, method="float"))
        p.call("certificate", "rotated energy", lambda: certify.energy_lower_bound(DA4, self.f4, self.cube))
        p.call("profile", "rotated DA_2 float", lambda: approx.cyclicity_profile(DA2, self.f2, EVEN_TO_24, method="float"))
        exact = p.call("profile", "rotated DA_2 exact",
                       lambda: approx.cyclicity_profile(DA2, self.f2, EXACT_DEGREES, method="exact"))
        if exact:
            p.exact_ms += [pt.runtime_ms for pt in exact]

    def gate(self, p: Pass, c: Checks):
        o = p.out
        prof = o["rotated DA_4"]
        c.check("rotated DA_4 profile equals the unrotated one",
                lambda: [pt.m for pt in prof] == EVEN_TO_12
                and all(abs(d - math.sqrt(da4_dist_sq(pt.m))) <= FLOAT_REL_TOL for d, pt in zip(_dists(prof), prof)))
        c.check("rotated DA_4 dist at m=12 is frozen", lambda: abs(_dists(prof)[-1] - DA4_DIST_M12) < FLOAT_REL_TOL)
        cert = o["rotated energy"]
        c.check("rotated energy bound equals the frozen one", lambda: abs(cert.lower_bound - ENERGY_LOWER_BOUND) <= FLOAT_REL_TOL)
        c.check("rotated quadrature energy equals the frozen one",
                lambda: _rel_close(cert.audit["energy_quadrature"], ENERGY_QUADRATURE))
        c.check("rotated DA_4 profile stays above the energy bound",
                lambda: all(d > cert.lower_bound - 1e-6 for d in _dists(prof)))
        c.check("rotated DA_2 float profile matches the closed form",
                lambda: all(_rel_close(pt.dist_sq, da2_dist_sq(pt.m)) for pt in o["rotated DA_2 float"])
                and len(o["rotated DA_2 float"]) == len(EVEN_TO_24))
        c.check("rotated DA_2 exact profile equals the closed form exactly",
                lambda: [pt.dist_sq for pt in o["rotated DA_2 exact"]] == [float(da2_dist_sq(m)) for m in EXACT_DEGREES])


BATCH_SPACES = (DA1, DA2, DA3, SpaceSpec.alpha_scale(1, 2), SpaceSpec.alpha_scale(1, -1))
BATCH_DEGREES = (1, 2, 3)
SYSTEMS_PER_CELL = 8  # 5 spaces x 3 degrees x 8 = 120 systems, so p90 has 12 beyond it
LEMMAS = ("dilation-contraction", "radial-mult-section", "slice-outer")


class ExactBatch(Workload):
    name = "exact-batch"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._batch: tuple = (None, None)

    def batch(self, k: int):
        """(systems, lemma seed) of pass k: fresh in every pass, so that no
        result can be reused from an earlier pass."""
        rng = random.Random(f"exact-batch:{self.seed}:{k}")
        systems = []
        for space in BATCH_SPACES:
            for m in BATCH_DEGREES:
                for _ in range(SYSTEMS_PER_CELL):
                    systems.append((space, m, dense_exact_poly(rng, space.d, 2), dense_exact_poly(rng, space.d, 2)))
        rng.shuffle(systems)
        return systems, rng.randrange(1 << 30)

    def warm_up(self):
        """Also the lemmas' lazy set-up: their first call costs about 0.7 s
        more than later ones."""
        super().warm_up()
        for name in LEMMAS:
            experiments.verify_lemma(name, {} if name == "radial-mult-section" else {"seed": 0})

    def prepare(self, k: int):
        self._batch = (k, self.batch(k))

    def run_pass(self, p: Pass, out: Path, k: int):
        if self._batch[0] != k:
            raise RuntimeError(f"prepare({k}) must run before pass {k}")
        systems, lemma_seed = self._batch[1]
        results = []
        for space, m, f, g in systems:
            t0 = time.perf_counter()
            results.append(p.call("profile", "exact systems",
                                  lambda: approx.optimal_approximant(approx.assemble_gram(space, f, g, m), method="exact")))
            p.exact_ms.append((time.perf_counter() - t0) * 1000.0)
        p.out["systems"] = list(zip(systems, results))
        for name in LEMMAS:
            params = {} if name == "radial-mult-section" else {"seed": lemma_seed}
            p.call("lemma", name, lambda name=name, params=params: experiments.verify_lemma(name, params))

    def gate(self, p: Pass, c: Checks):
        for (space, m, f, g), res in p.out["systems"]:
            if res is not None:
                c.check(f"exact residual certificate (d={space.d}, m={m})", lambda: residual_certificate(space, f, g, res))
        for name in LEMMAS:
            c.check(f"lemma {name} passes", lambda name=name: p.out[name].passed)
        # Checked outputs are not kept, so the heap, and with it the cost of
        # garbage collection, does not grow from pass to pass.
        del p.out["systems"]


def residual_certificate(space, f, g, res) -> bool:
    """With r = g - p f: ||r||^2 == dist^2 and <r, z^beta f> == 0 for every
    basis monomial, in exact arithmetic."""
    r = g - res.polynomial(space.d) * f
    if spaces.norm_sq(space, r) != res.dist_sq:
        return False
    return all(spaces.inner_product(space, r, SparsePoly.monomial(space.d, beta) * f) == 0 for beta in res.basis)


WORKLOADS = {w.name: w for w in (Structured, Rotated, ExactBatch)}
