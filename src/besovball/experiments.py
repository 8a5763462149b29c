"""Canned experiments, lemma spot-checks and their file outputs.

An ``ExperimentSpec`` is a JSON-serializable description of one run.
``run_step`` is the one map from a step kind to its library call, shared by
``run_experiment`` and the CLI verbs: profile steps return profile rows,
certificate steps a ``Certificate``.  ``run_experiment`` writes them as a CSV
(columns m, dist_sq, min_pivot, runtime_ms) or certificate JSON, plus a
manifest with versions, parameters and timings.  Bundles run their steps in
order, one after the other.  The CSV runtime column is always written as 0
and wall times go to the manifest only, keeping CSV bytes identical across
reruns.

``verify_lemma`` holds the registry of quantitative lemma checks; each
check returns a pass flag plus margins.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npp

from . import __version__ as _pkg_version
from .approx import (
    ProfilePoint,
    cyclicity_profile,
    distance_profile,
    finite_section_mult_bound,
    hc_profile,
    membership_profile,
)
from .certify import Certificate, CubeMeasure, dual_lower_bound, energy_lower_bound
from .embeddings import tau_compose
from .poly import (
    SparsePoly,
    dense_coeffs,
    poly_from_literal,
    poly_to_literal,
    roots_1d,
    series_invert,
)
from .scalars import ComplexRational, check_int, json_int, json_object
from .spaces import (
    BetaDensity,
    ConstantDensity,
    NormalizedVolume,
    PointMassAtOne,
    SpaceSpec,
    dilation_contraction_gap,
    slice_norm_gap,
    space_from_json,
)

# -- experiment specs ----------------------------------------------------------


@dataclass
class ExperimentSpec:
    name: str
    kind: str  # one of STEP_KINDS, or "bundle"
    space: dict | None = None
    params: dict = field(default_factory=dict)
    claim: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "kind": self.kind, "space": self.space, "params": self.params, "claim": self.claim}

    @staticmethod
    def from_json(obj) -> "ExperimentSpec":
        """The spec of a JSON object; a ``"deterministic"`` key, written by
        older versions, is accepted only as true, the one mode there is."""
        obj = json_object(obj, "an experiment spec")
        if obj.get("deterministic", True) is not True:
            raise ValueError(f"the spec key 'deterministic' must be true if present, got "
                             f"{json.dumps(obj['deterministic'])}: CSVs always write runtime_ms as 0")
        name = obj["name"]
        return ExperimentSpec(
            name=name, kind=obj["kind"], space=obj.get("space") if obj["kind"] == "bundle" else obj["space"],
            params=json_object(obj.get("params", {}), f"the params of {name!r}"), claim=obj.get("claim", ""),
        )


STEP_KINDS = ("profile", "hc", "member", "dual-certify", "energy-certify")


def _fmt_float(x: float) -> str:
    return repr(float(x))


def write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def write_profile_csv(path, rows: list[ProfilePoint]):
    """The profile rows as CSV, runtime_ms written as 0 so reruns match byte for byte."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["m", "dist_sq", "min_pivot", "runtime_ms"])
        for row in rows:
            w.writerow([row.m, _fmt_float(row.dist_sq), _fmt_float(row.min_pivot), "0"])


def read_profile_csv(path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [
            {"m": int(r["m"]), "dist_sq": float(r["dist_sq"]),
             "min_pivot": float(r["min_pivot"]), "runtime_ms": float(r["runtime_ms"])}
            for r in csv.DictReader(fh)
        ]


@dataclass
class ExperimentReport:
    name: str
    outputs: dict
    summary: dict
    manifest_path: str | None = None


def run_step(spec: ExperimentSpec) -> list[ProfilePoint] | Certificate:
    """The library call behind one step: profile rows for the kinds profile,
    hc and member, a Certificate for dual-certify and energy-certify."""
    if spec.kind not in STEP_KINDS:
        raise ValueError(f"unknown experiment kind: {spec.kind!r}")
    space, p = space_from_json(spec.space), spec.params

    def poly(key):
        return poly_from_literal(p[key])

    def degrees():
        if not isinstance(p["degrees"], list):
            raise ValueError(f"the degrees of {spec.name!r} must be a JSON list, got {p['degrees']!r}")
        return p["degrees"]

    method = p.get("method", "auto")
    if spec.kind == "profile":
        if "g" in p:
            return distance_profile(space, poly("f"), poly("g"), degrees(), method=method)
        return cyclicity_profile(space, poly("f"), degrees(), method=method)
    if spec.kind == "hc":
        return hc_profile(space, poly("phi"), json_int(p["n"]), degrees(), method=method)
    if spec.kind == "member":
        return membership_profile(space, poly("h"), poly("f"), json_int(p["k"]), degrees(), method=method)
    if spec.kind == "dual-certify":
        return dual_lower_bound(space, poly("g"), poly("h"), json_int(p["j"]))
    grid = {k: json_int(p[k]) for k in ("n_base", "max_doublings") if k in p}
    return energy_lower_bound(space, poly("f"), cube_from_json(p["cube"]), **grid)


def run_experiment(spec: ExperimentSpec | str | dict, out_dir, threads=None) -> ExperimentReport:
    """Run one experiment (or a registered builtin by name) into out_dir.

    A bundle runs its steps in order.  ``threads`` is accepted and ignored;
    it is kept so that existing callers passing it still work.
    """
    if isinstance(spec, str):
        if spec in BUILTIN_EXPERIMENTS:
            spec = BUILTIN_EXPERIMENTS[spec]()
        else:
            spec = ExperimentSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = ExperimentSpec.from_json(spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs: dict = {}
    summary: dict = {}

    if spec.kind == "bundle":
        steps = spec.params["steps"]
        if not isinstance(steps, list):
            raise ValueError(f"the steps of {spec.name!r} must be a JSON list, got {steps!r}")
        for step in steps:
            rep = run_experiment(ExperimentSpec.from_json(step), out_dir)
            outputs[rep.name] = rep.outputs
            summary[rep.name] = rep.summary
    else:
        result = run_step(spec)
        if isinstance(result, Certificate):
            path = out_dir / f"{spec.name}.cert.json"
            write_json(path, result.to_json())
            outputs["certificate"] = str(path)
            summary["lower_bound"] = result.lower_bound
        else:
            path = out_dir / f"{spec.name}.csv"
            write_profile_csv(path, result)
            outputs["csv"] = str(path)
            if result:
                summary["final_m"] = result[-1].m
                summary["final_dist_sq"] = result[-1].dist_sq
                # unknowns factored (reachable) of the full basis at the top degree
                summary["final_unknowns"] = [result[-1].unknowns, result[-1].full_unknowns]
            summary["rows"] = len(result)

    manifest = {
        "name": spec.name,
        "claim": spec.claim,
        "spec": spec.to_json(),
        "outputs": outputs,
        "summary": summary,
        "timings_ms": {"total_ms": (time.perf_counter() - t0) * 1000.0},
        "versions": {
            "besovball": _pkg_version,
            "numpy": np.__version__,
        },
    }
    manifest_path = out_dir / f"{spec.name}.manifest.json"
    write_json(manifest_path, manifest)
    return ExperimentReport(name=spec.name, outputs=outputs, summary=summary, manifest_path=str(manifest_path))


def cube_from_json(obj) -> CubeMeasure:
    obj = json_object(obj, "a cube")
    fam = obj.get("family")
    shrink = {"shrink": float(obj["shrink"])} if "shrink" in obj else {}
    if fam == "torus":
        return CubeMeasure.torus(json_int(obj["k"]), json_int(obj["d"]), **shrink)
    if fam == "sphere":
        return CubeMeasure.sphere_patch(json_int(obj["k"]), json_int(obj["d"]), **shrink)
    raise ValueError(f"unknown cube family: {fam!r} (expected torus or sphere)")


# -- builtin experiments --------------------------------------------------------


def _lit(f: SparsePoly) -> dict:
    return poly_to_literal(f)


def _poly_1m2z1z2() -> SparsePoly:
    return SparsePoly(2, {(0, 0): 1, (1, 1): -2})


def _poly_1m16z1234() -> SparsePoly:
    return SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})


def _builtin_da_cyclic_d2() -> ExperimentSpec:
    return ExperimentSpec(
        name="da-cyclic-d2",
        kind="profile",
        space={"d": 2, "kind": "alpha", "alpha": 0},
        params={"f": _lit(_poly_1m2z1z2()), "degrees": list(range(0, 25, 2)), "method": "float"},
        claim="distance from 1 to degree-m polynomial multiples of 1-2*z1*z2 in the "
              "2-variable Drury-Arveson space decreases toward 0 (the polynomial is cyclic)",
    )


def _builtin_da_noncyclic_d4() -> ExperimentSpec:
    profile = ExperimentSpec(
        name="da-noncyclic-d4-profile",
        kind="profile",
        space={"d": 4, "kind": "alpha", "alpha": 0},
        params={"f": _lit(_poly_1m16z1234()), "degrees": list(range(0, 13, 2)), "method": "float"},
        claim="profile distances for 1-16*z1*z2*z3*z4 in the 4-variable Drury-Arveson space",
    )
    cert = ExperimentSpec(
        name="da-noncyclic-d4-cert",
        kind="energy-certify",
        space={"d": 4, "kind": "alpha", "alpha": 0},
        params={"f": _lit(_poly_1m16z1234()),
                "cube": {"family": "torus", "k": 4, "d": 4, "shrink": 0.05}},
        claim="the sphere zero set of 1-16*z1*z2*z3*z4 carries a 3-cube of finite "
              "Riesz-type energy, so the polynomial is not cyclic",
    )
    return ExperimentSpec(
        name="da-noncyclic-d4",
        kind="bundle",
        params={"steps": [profile.to_json(), cert.to_json()]},
        claim="non-cyclicity of 1-16*z1*z2*z3*z4: every profile distance stays above "
              "the energy certificate lower bound",
    )


def _builtin_hc_dirichlet4() -> ExperimentSpec:
    one_minus_z = SparsePoly(1, {(0,): 1, (1,): -1})
    hc_step = ExperimentSpec(
        name="hc-dirichlet4-n2",
        kind="hc",
        space={"d": 1, "kind": "alpha", "alpha": 4},
        params={"phi": _lit(one_minus_z), "n": 2, "degrees": list(range(0, 101, 4)), "method": "float"},
        claim="on the alpha=4 disc scale, dist((1-z)^2, {p (1-z)^3}) decays to 0",
    )
    dual = ExperimentSpec(
        name="hc-dirichlet4-dual",
        kind="dual-certify",
        space={"d": 1, "kind": "alpha", "alpha": 4},
        params={"g": _lit(one_minus_z), "h": _lit(one_minus_z * one_minus_z), "j": 1},
        claim="dist(1-z, {p (1-z)^2}) on the alpha=4 disc scale stays above "
              "|d/dz (1-z)|_{z=1}| / ||L_1||",
    )
    return ExperimentSpec(
        name="hc-dirichlet4",
        kind="bundle",
        params={"steps": [hc_step.to_json(), dual.to_json()]},
        claim="1-z sits exactly one step up the cyclicity hierarchy on the alpha=4 "
              "disc scale: the squared class merges with the cubed one, the first "
              "step is blocked by a boundary-derivative functional",
    )


BUILTIN_EXPERIMENTS = {
    "da-cyclic-d2": _builtin_da_cyclic_d2,
    "da-noncyclic-d4": _builtin_da_noncyclic_d4,
    "hc-dirichlet4": _builtin_hc_dirichlet4,
}


# -- lemma checks ---------------------------------------------------------------


@dataclass
class LemmaReport:
    name: str
    passed: bool
    margins: dict
    params: dict


def _int_param(params: dict, name: str, default: int, least: int) -> int:
    """params[name], default when absent, read as ``run_step`` reads its step
    integers: a whole JSON number such as 2.0 is 2, and anything but an
    integer >= least raises ValueError rather than being truncated."""
    value = json_int(params.get(name, default))
    check_int(name, value, least)
    return value


def _random_exact_poly(rng: random.Random, d: int, max_deg: int = 4, max_terms: int = 5,
                       complex_coeffs: bool = True) -> SparsePoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        beta = [0] * d
        for _ in range(rng.randint(0, max_deg)):
            beta[rng.randrange(d)] += 1
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if complex_coeffs and rng.random() < 0.5 else Fraction(0)
        terms[tuple(beta)] = ComplexRational(re, im)
    f = SparsePoly(d, terms)
    return f if not f.is_zero() else SparsePoly.one(d)


def _check_dilation_contraction(params: dict) -> LemmaReport:
    """(1-r) ||f||_{order N} dominates ||f - f_r||_{order N-1}; exact arithmetic."""
    trials = _int_param(params, "trials", 100, 1)
    N = _int_param(params, "N", 2, 1)
    d = _int_param(params, "d", 2, 1)
    seed = _int_param(params, "seed", 0, 0)
    radii = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(99, 100)]
    measures = [PointMassAtOne(), NormalizedVolume(d), ConstantDensity(Fraction(1)), BetaDensity(2)]
    rng = random.Random(seed)
    min_gap = None
    count = 0
    for t in range(trials):
        f = _random_exact_poly(rng, d)
        space = SpaceSpec.besov(d, N, measures[t % len(measures)])
        for r in radii:
            gap = dilation_contraction_gap(space, f, r)
            count += 1
            if gap < 0:
                return LemmaReport("dilation-contraction", False,
                                   {"violation": float(gap), "trial": t, "r": str(r)}, params)
            g = float(gap)
            min_gap = g if min_gap is None else min(min_gap, g)
    return LemmaReport("dilation-contraction", True,
                       {"min_gap": min_gap, "comparisons": count}, params)


def _check_slice_bound(params: dict) -> LemmaReport:
    """sum_n |f_n(z)|^2 <= Drury-Arveson norm^2 on the sphere, float path."""
    trials = _int_param(params, "trials", 100, 1)
    d = _int_param(params, "d", 3, 1)
    seed = _int_param(params, "seed", 0, 0)
    tol = float(params.get("tol", 1e-10))
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        nterms = int(rng.integers(1, 7))
        terms = {}
        for _ in range(nterms):
            beta = tuple(int(b) for b in rng.integers(0, 4, size=d))
            terms[beta] = complex(rng.normal(), rng.normal())
        f = SparsePoly(d, terms)
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        z = z / np.linalg.norm(z)
        gap = slice_norm_gap(f, tuple(z))
        worst = min(worst, gap)
        if gap < -tol:
            return LemmaReport("slice-bound", False, {"violation": gap}, params)
    return LemmaReport("slice-bound", True, {"min_gap": worst, "trials": trials}, params)


def _check_slice_outer(params: dict) -> LemmaReport:
    """Slices of the diagonal image of 1-lambda have no zeros in the open disc."""
    k = _int_param(params, "k", 3, 1)
    d = _int_param(params, "d", 3, 1)
    points = _int_param(params, "points", 20, 1)
    seed = _int_param(params, "seed", 0, 0)
    margin = float(params.get("margin", 1e-9))
    one_minus = SparsePoly(1, {(0,): 1, (1,): -1})
    img = tau_compose(one_minus, k, d)
    rng = np.random.default_rng(seed)
    min_mod = math.inf
    for _ in range(points):
        z = rng.normal(size=d) + 1j * rng.normal(size=d)
        z = z / np.linalg.norm(z)
        roots = roots_1d(img.slice(tuple(z), k))
        for r, _mult in roots:
            min_mod = min(min_mod, abs(r))
            if abs(r) < 1 - margin:
                return LemmaReport("slice-outer", False, {"root_modulus": abs(r)}, params)
    return LemmaReport("slice-outer", True,
                       {"min_root_modulus": None if min_mod is math.inf else min_mod, "points": points}, params)


def _check_onevar_derivative_bound(params: dict) -> LemmaReport:
    """Uniform-in-r bounds for derivatives of p^n / p_r on the disc.

    For k < n the k-th derivative stays sup-bounded on the disc, and the
    n-th derivative stays area-integrable, with constants independent of r;
    the committed bounds below were frozen from a reference run.
    """
    n = _int_param(params, "n", 2, 1)
    M = _int_param(params, "M", 400, 0)
    radii = [float(r) for r in params.get("r_grid", [0.5, 0.9, 0.99])]
    # committed from a reference run over the default grid: observed
    # sup 1.7885 and area 0.8889, stable since the evaluation is
    # deterministic
    sup_bound = float(params.get("sup_bound", 2.0))
    area_bound = float(params.get("area_bound", 1.0))
    circle_r = float(params.get("circle_radius", 0.999))
    p = poly_from_literal(params["p"]) if "p" in params else SparsePoly(1, {(0,): 1, (1,): -1})
    if p.dim != 1:
        raise ValueError("the check needs a one-variable polynomial")
    max_sup = 0.0
    max_area = 0.0
    angles = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False))
    for r in radii:
        pr = p.dilate(r)
        inv = series_invert(pr, M)
        h = ((p ** n) * inv).truncate(M)
        s = dense_coeffs(h)
        for k in range(1, n):
            vals = npp.polyval(circle_r * angles, npp.polyder(s, k))
            max_sup = max(max_sup, float(np.abs(vals).max()))
        dn = npp.polyder(s, n)
        area = math.fsum(abs(c) ** 2 / (i + 1) for i, c in enumerate(dn))
        max_area = max(max_area, area)
    passed = max_sup <= sup_bound and max_area <= area_bound
    return LemmaReport("onevar-derivative-bound", passed,
                       {"max_sup_below_order": max_sup, "sup_bound": sup_bound,
                        "max_area_at_order": max_area, "area_bound": area_bound}, params)


def _check_radial_mult_section(params: dict) -> LemmaReport:
    """Observational: finite sections of the dilate-then-differentiate
    multiplier against ||phi||/(1-r^2).

    Both sides are degree-m sections, so this is a consistency check rather
    than a certificate: the ratio section(R phi_r, m) * (1-r^2) /
    section(phi, m_ref) should not exceed 1 by more than the slack.
    """
    space = space_from_json(params["space"]) if "space" in params else SpaceSpec.drury_arveson(2)
    phi = poly_from_literal(params["phi"]) if "phi" in params else SparsePoly(2, {(1, 0): 1, (0, 2): 1})
    radii = [float(r) for r in params.get("r_grid", [0.5, 0.9])]
    m = _int_param(params, "m", 5, 0)
    m_ref = _int_param(params, "m_ref", 9, 0)
    slack = float(params.get("slack", 0.1))
    ref = finite_section_mult_bound(space, phi, m_ref)
    ratios = {}
    ok = True
    for r in radii:
        lhs = finite_section_mult_bound(space, phi.dilate(r).radial_derivative(1).to_float(), m)
        ratio = lhs * (1.0 - r * r) / ref
        ratios[str(r)] = ratio
        if ratio > 1.0 + slack:
            ok = False
    return LemmaReport("radial-mult-section", ok, {"ratios": ratios, "reference_section": ref}, params)


LEMMA_CHECKS = {
    "dilation-contraction": _check_dilation_contraction,
    "slice-bound": _check_slice_bound,
    "slice-outer": _check_slice_outer,
    "onevar-derivative-bound": _check_onevar_derivative_bound,
    "radial-mult-section": _check_radial_mult_section,
}


def verify_lemma(name: str, params: dict | None = None) -> LemmaReport:
    """Run a registered quantitative lemma check by name."""
    if name not in LEMMA_CHECKS:
        raise ValueError(f"unknown lemma check {name!r}; known: {sorted(LEMMA_CHECKS)}")
    return LEMMA_CHECKS[name](json_object(params or {}, f"the params of {name}"))
