"""Which package functions the traced run wraps, what it counts at each
boundary, and the per-layer metrics derived from one traced pass.

Times named ``.s`` are inclusive (outermost span of that name); ``.self_s``
subtracts the spans nested inside.  Counts are summed over the pass, except
``max_size``, ``n_final`` and ``cutoff``, which are maxima.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from besovball import approx, certify, experiments, kernels, poly, spaces

from spans import Instrumentation, besovball_modules, inclusive_time_by_name, self_time_by_name


def gram_structure(system):
    """(unknowns, nonzeros, reachable): reachable unknowns lie in a connected
    component of the matrix's nonzero pattern that meets the nonzero part of
    the right-hand side; only those can carry a nonzero solution."""
    n = len(system.basis)
    if isinstance(system.matrix, np.ndarray):
        rows, cols = np.nonzero(system.matrix)
        rhs = np.nonzero(np.asarray(system.rhs))[0]
    else:
        pairs = [(i, j) for i, row in enumerate(system.matrix) for j, x in enumerate(row) if x]
        rows = np.array([i for i, _ in pairs], dtype=np.int64)
        cols = np.array([j for _, j in pairs], dtype=np.int64)
        rhs = np.array([i for i, x in enumerate(system.rhs) if x], dtype=np.int64)
    pattern = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = scipy.sparse.csgraph.connected_components(pattern, directed=False)
    touched = np.isin(labels, labels[rhs])
    return n, len(rows), int(touched.sum())


def _on_gram(tr, system, args, kwargs):
    try:
        n, nnz, reach = gram_structure(system)
    except (AttributeError, TypeError, ValueError, IndexError):
        tr.count("approx.gram.unanalysed")
        return
    tr.count("approx.gram.unknowns", n)
    tr.count("approx.gram.nonzeros", nnz)
    tr.count("approx.gram.reachable", reach)
    tr.records.append({"pass": tr.pass_id, "d": system.space.d, "degree": system.degree,
                       "generator_terms": len(system.f.terms), "exact": bool(system.exact),
                       "unknowns": n, "nonzeros": nnz, "reachable": reach})


def _on_solve(tr, res, args, kwargs):
    path = getattr(getattr(res, "conditioning", None), "path", "unknown")
    tr.count(f"approx.solve.{path}_calls")
    tr.keep_max("approx.solve.max_size", len(getattr(res, "basis", ())))


def _on_pair_sum(tr, _res, args, kwargs):
    Z, W = (np.asarray(a) for a in args[:2])
    pairs = Z.shape[0] * W.shape[0]
    tr.count("kernels.energy_pair_sum.pairs", pairs)
    # computed, not measured: both inputs once plus one complex128 inner
    # product per pair, which the numpy kernel materialises block by block
    tr.count("kernels.energy_pair_sum.bytes_computed", Z.nbytes + W.nbytes + 16 * pairs)


def _on_chord(tr, _res, args, kwargs):
    tr.count("kernels.min_chord_ratio.pairs", np.asarray(args[0]).shape[0] * np.asarray(args[1]).shape[0])


def _on_grid(tr, res, args, kwargs):
    tr.count("certify.grid.points", len(res[0]))


def _on_box(tr, res, args, kwargs):
    tr.keep_max("certify.param_inv_sq_integral.n_final", res[2])


def _on_norm(tr, res, args, kwargs):
    tr.keep_max("certify.functional_norm.cutoff", res.cutoff)


# (module, function, span name, hook); profile entry points share one name
SPANNED = [
    (approx, "assemble_gram", "approx.assemble_gram", _on_gram),
    (approx, "optimal_approximant", "approx.solve", _on_solve),
    (approx, "distance_profile", "approx.profile", None),
    (approx, "cyclicity_profile", "approx.profile", None),
    (approx, "hc_profile", "approx.profile", None),
    (approx, "membership_profile", "approx.profile", None),
    (approx, "ratio_norm_sweep", "approx.ratio_norm_sweep", None),
    (approx, "finite_section_mult_bound", "approx.finite_section", None),
    (poly, "series_invert", "poly.series_invert", None),
    (spaces, "dilation_contraction_gap", "spaces.dilation_contraction_gap", None),
    (kernels, "energy_pair_sum", "kernels.energy_pair_sum", _on_pair_sum),
    (kernels, "min_chord_ratio", "kernels.min_chord_ratio", _on_chord),
    (certify, "energy", "certify.energy", None),
    (certify, "energy_lower_bound", "certify.energy_lower_bound", None),
    (certify, "param_inv_sq_integral", "certify.param_inv_sq_integral", _on_box),
    (certify, "functional_norm", "certify.functional_norm", _on_norm),
    (certify, "dual_lower_bound", "certify.dual_lower_bound", None),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "verify_lemma", "experiments.verify_lemma", None),
]


def instrument(tracer) -> Instrumentation:
    mods = besovball_modules()
    inst = Instrumentation()
    # a function the package no longer has is skipped; its metrics read 0
    for mod, attr, name, hook in SPANNED:
        original = getattr(mod, attr, None)
        if original is not None:
            inst.replace(original, tracer.wrap(original, name, hook), mods)
    # too hot for a span per call: count only
    if hasattr(spaces, "monomial_norm_sq"):
        inst.replace(spaces.monomial_norm_sq, tracer.counter(spaces.monomial_norm_sq, "spaces.monomial_norm_sq.calls"), mods)
    grid = certify.CubeMeasure.__dict__.get("grid")
    if grid is not None:
        inst.replace_method(certify.CubeMeasure, "grid", tracer.wrap(grid, "certify.grid", _on_grid))
    return inst


# (metric, unit, source, key): source "incl" / "self" read span times,
# "count" / "max" read counters
PER_LAYER = [
    ("kernels.energy_pair_sum.s", "s", "incl", "kernels.energy_pair_sum"),
    ("kernels.energy_pair_sum.calls", "count", "count", "kernels.energy_pair_sum.calls"),
    ("kernels.energy_pair_sum.pairs", "count", "count", "kernels.energy_pair_sum.pairs"),
    ("kernels.energy_pair_sum.bytes_computed", "B", "count", "kernels.energy_pair_sum.bytes_computed"),
    ("kernels.min_chord_ratio.s", "s", "incl", "kernels.min_chord_ratio"),
    ("kernels.min_chord_ratio.pairs", "count", "count", "kernels.min_chord_ratio.pairs"),
    ("certify.grid.s", "s", "incl", "certify.grid"),
    ("certify.grid.points", "count", "count", "certify.grid.points"),
    ("certify.energy.self_s", "s", "self", "certify.energy"),
    ("certify.energy_lower_bound.self_s", "s", "self", "certify.energy_lower_bound"),
    ("certify.param_inv_sq_integral.s", "s", "incl", "certify.param_inv_sq_integral"),
    ("certify.param_inv_sq_integral.n_final", "count", "max", "certify.param_inv_sq_integral.n_final"),
    ("certify.functional_norm.s", "s", "incl", "certify.functional_norm"),
    ("certify.functional_norm.cutoff", "count", "max", "certify.functional_norm.cutoff"),
    ("approx.assemble_gram.s", "s", "incl", "approx.assemble_gram"),
    ("approx.assemble_gram.calls", "count", "count", "approx.assemble_gram.calls"),
    ("approx.gram.unknowns", "count", "count", "approx.gram.unknowns"),
    ("approx.gram.nonzeros", "count", "count", "approx.gram.nonzeros"),
    ("approx.gram.reachable", "count", "count", "approx.gram.reachable"),
    ("approx.solve.s", "s", "incl", "approx.solve"),
    ("approx.solve.calls", "count", "count", "approx.solve.calls"),
    ("approx.solve.exact_calls", "count", "count", "approx.solve.exact_calls"),
    ("approx.solve.float_calls", "count", "count", "approx.solve.float_calls"),
    ("approx.solve.mpmath_calls", "count", "count", "approx.solve.mpmath_calls"),
    ("approx.solve.max_size", "count", "max", "approx.solve.max_size"),
    ("approx.profile.self_s", "s", "self", "approx.profile"),
    ("spaces.monomial_norm_sq.calls", "count", "count", "spaces.monomial_norm_sq.calls"),
    ("poly.series_invert.s", "s", "incl", "poly.series_invert"),
    ("poly.series_invert.calls", "count", "count", "poly.series_invert.calls"),
    ("approx.finite_section.s", "s", "incl", "approx.finite_section"),
    ("spaces.dilation_contraction_gap.s", "s", "incl", "spaces.dilation_contraction_gap"),
    ("experiments.run_experiment.self_s", "s", "self", "experiments.run_experiment"),
]


# metrics derived from the ones above and from the untraced passes
DERIVED = [
    ("approx.gram.reachable_frac", "ratio"),
    ("kernels.energy_pair_sum.cert_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def layer_metrics(tracer, pass_id) -> dict:
    """Per-layer values of one traced pass, as {metric: value}."""
    incl = inclusive_time_by_name(tracer.spans, pass_id)
    own = self_time_by_name(tracer.spans, pass_id)
    read = {
        "incl": lambda k: incl.get(k, 0.0),
        "self": lambda k: own.get(k, 0.0),
        "count": lambda k: tracer.counts.get((pass_id, k), 0),
        "max": lambda k: tracer.maxima.get((pass_id, k), 0),
    }
    out = {name: read[source](key) for name, _unit, source, key in PER_LAYER}
    unknowns = out["approx.gram.unknowns"]
    out["approx.gram.reachable_frac"] = out["approx.gram.reachable"] / unknowns if unknowns else 0.0
    return out
