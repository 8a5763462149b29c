"""Named experiment harness: specs, CSV artifacts, manifests, lemma checks."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from besovball.approx import ProfilePoint
from besovball.experiments import (
    BUILTIN_EXPERIMENTS,
    LEMMA_CHECKS,
    ExperimentSpec,
    cube_from_json,
    read_profile_csv,
    run_experiment,
    verify_lemma,
    write_profile_csv,
)
from besovball.poly import SparsePoly, dense_coeffs, series_invert


def test_spec_round_trip():
    spec = BUILTIN_EXPERIMENTS["da-cyclic-d2"]()
    back = ExperimentSpec.from_json(spec.to_json())
    assert back == spec


def test_spec_loads_the_old_deterministic_key_only_as_true():
    # specs and manifest "spec" blocks written by older versions carry
    # "deterministic": true, at the top and in each bundle step; false asked
    # for a CSV runtime column that is no longer written, so it is refused
    # rather than ignored
    spec = BUILTIN_EXPERIMENTS["hc-dirichlet4"]()
    steps = spec.params["steps"]
    old = dict(spec.to_json(), deterministic=True,
               params={"steps": [dict(step, deterministic=True) for step in steps]})
    back = ExperimentSpec.from_json(json.dumps(old))
    assert (back.name, back.kind, back.claim) == (spec.name, spec.kind, spec.claim)
    assert [ExperimentSpec.from_json(step) for step in back.params["steps"]] == [
        ExperimentSpec.from_json(step) for step in steps
    ]
    for obj in (dict(spec.to_json(), deterministic=False), dict(steps[0], deterministic=False)):
        with pytest.raises(ValueError, match="the spec key 'deterministic' must be true if present, got false"):
            ExperimentSpec.from_json(obj)


def test_profile_csv_round_trip(tmp_path):
    rows = [
        ProfilePoint(m=0, dist_sq=1.0, min_pivot=1.0, runtime_ms=3.0, path="exact"),
        ProfilePoint(m=2, dist_sq=2.0 / 3.0, min_pivot=0.25, runtime_ms=4.0, path="exact"),
    ]
    path = tmp_path / "p.csv"
    write_profile_csv(path, rows)
    got = read_profile_csv(path)
    assert [(r["m"], r["dist_sq"]) for r in got] == [(0, 1.0), (2, 2.0 / 3.0)]
    # deterministic artifacts zero out wall-clock noise
    assert all(r["runtime_ms"] == 0.0 for r in got)
    header = path.read_text().splitlines()[0]
    assert header == "m,dist_sq,min_pivot,runtime_ms"


def test_empty_profile_csv(tmp_path):
    path = tmp_path / "empty.csv"
    write_profile_csv(path, [])
    assert path.read_text().strip() == "m,dist_sq,min_pivot,runtime_ms"
    assert read_profile_csv(path) == []


def test_builtin_cyclic_profile_run(tmp_path):
    rep = run_experiment("da-cyclic-d2", tmp_path)
    assert rep.summary["final_m"] == 24
    assert rep.summary["final_dist_sq"] == pytest.approx(
        8388608 / 35102025, rel=1e-12
    )
    man = json.loads(Path(rep.manifest_path).read_text())
    assert man["name"] == "da-cyclic-d2"
    assert man["claim"]
    rows = read_profile_csv(Path(rep.outputs["csv"]))
    vals = [r["dist_sq"] for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_run_byte_reproducibility(tmp_path):
    a = run_experiment("da-cyclic-d2", tmp_path / "a")
    b = run_experiment("da-cyclic-d2", tmp_path / "b")
    assert Path(a.outputs["csv"]).read_bytes() == Path(b.outputs["csv"]).read_bytes()


def test_bundle_run_merges_outputs(tmp_path):
    rep = run_experiment("hc-dirichlet4", tmp_path)
    assert set(rep.outputs) == {"hc-dirichlet4-n2", "hc-dirichlet4-dual"}
    man = json.loads(Path(rep.manifest_path).read_text())
    assert set(man["outputs"]) == set(rep.outputs)
    # the bundled dual certificate carries the committed bound, and the
    # profile eventually drops below it
    dual = rep.summary["hc-dirichlet4-dual"]["lower_bound"]
    assert dual == pytest.approx(1.7591476450870798, rel=1e-8)
    assert rep.summary["hc-dirichlet4-n2"]["final_dist_sq"] < dual


def test_bundle_equals_its_steps_run_in_order(tmp_path):
    rep = run_experiment("da-noncyclic-d4", tmp_path / "bundle")
    assert rep.summary["da-noncyclic-d4-cert"]["lower_bound"] > 0
    # each step on its own, the way the benchmark runs them, writes the same
    # files and summaries as the bundle
    for step in BUILTIN_EXPERIMENTS["da-noncyclic-d4"]().params["steps"]:
        alone = run_experiment(step, tmp_path / "alone")
        assert alone.summary == rep.summary[alone.name]
        for key, path in alone.outputs.items():
            assert Path(path).read_bytes() == Path(rep.outputs[alone.name][key]).read_bytes()


def test_run_rejects_unknown_name(tmp_path):
    # a string is only ever a builtin name, never spec JSON text
    known = re.escape(str(sorted(BUILTIN_EXPERIMENTS)))
    for name in ("no-such-experiment", json.dumps(BUILTIN_EXPERIMENTS["da-cyclic-d2"]().to_json())):
        with pytest.raises(ValueError, match=f"^unknown experiment {re.escape(repr(name))}; known: {known}$"):
            run_experiment(name, tmp_path)


def test_custom_spec_from_dict(tmp_path):
    spec = {
        "name": "tiny",
        "kind": "profile",
        "space": {"d": 2, "kind": "alpha", "alpha": 0},
        "params": {
            "f": {"0,0": [1, 1, 0, 1], "1,1": [-2, 1, 0, 1]},
            "degrees": [0, 2],
            "method": "exact",
        },
        "claim": "first two plateau values",
        "seed": 0,
    }
    rep = run_experiment(spec, tmp_path)
    rows = read_profile_csv(Path(rep.outputs["csv"]))
    assert rows[0]["dist_sq"] == pytest.approx(2.0 / 3.0)
    assert rows[1]["dist_sq"] == pytest.approx(8.0 / 15.0)
    # the spec's method is checked, not passed through as a solve path
    spec["params"]["method"] = "flaot"
    with pytest.raises(ValueError, match="'auto', 'exact' or 'float'"):
        run_experiment(spec, tmp_path)


def test_all_lemma_checks_pass_default_params():
    for name in sorted(LEMMA_CHECKS):
        rep = verify_lemma(name)
        assert rep.passed, (name, rep.margins)
        assert rep.name == name


def test_lemma_check_forced_failure():
    rep = verify_lemma("onevar-derivative-bound", {"sup_bound": 0.1})
    assert not rep.passed
    assert rep.margins["max_sup_below_order"] > 0.1


@pytest.mark.parametrize("name, params, message", [
    ("slice-bound", {"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),
    ("dilation-contraction", {"N": 1.5}, "N must be an integer >= 1, got 1.5"),
    ("slice-outer", {"points": "20"}, "points must be an integer >= 1, got '20'"),
    ("radial-mult-section", {"m_ref": -1}, "m_ref must be an integer >= 0, got -1"),
])
def test_lemma_checks_refuse_bad_integer_params(name, params, message):
    # refused, not truncated: trials = 2.5 must not run 2 trials, nor N = 1.5
    # check the order-1 space
    with pytest.raises(ValueError, match=message):
        verify_lemma(name, params)


def test_lemma_checks_read_whole_floats_as_integers():
    whole = verify_lemma("slice-bound", {"trials": 2.0}).margins
    assert whole == verify_lemma("slice-bound", {"trials": 2}).margins and whole["trials"] == 2
    whole = verify_lemma("dilation-contraction", {"N": 2.0, "trials": 3.0}).margins
    assert whole == verify_lemma("dilation-contraction", {"N": 2, "trials": 3}).margins


def test_integer_params_refuse_bools():
    # bool is an int subclass: a JSON true must not read as 1, so that
    # slice-outer runs one point and passes
    with pytest.raises(ValueError, match="points must be an integer >= 1, got True"):
        verify_lemma("slice-outer", {"points": True})
    with pytest.raises(ValueError, match="trials must be an integer >= 1, got False"):
        verify_lemma("slice-bound", {"trials": False})


def _derivative_by_rule(coeffs, order):
    """The coefficient rule c'[n] = (n + 1) c[n + 1], order times."""
    c = tuple(coeffs)
    for _ in range(order):
        c = tuple((n + 1) * c[n + 1] for n in range(len(c) - 1)) or (0,)
    return c


def test_onevar_derivative_polyder_matches_coefficient_rule():
    # the onevar-derivative-bound check differentiates with polyder; on its
    # own inputs that equals the coefficient rule, zero signs included
    p = SparsePoly(1, {(0,): 1, (1,): -1})
    for r in (0.5, 0.9, 0.99):
        h = ((p**2) * series_invert(p.dilate(r), 120)).truncate(120)
        s = dense_coeffs(h)
        for k in (1, 2, 3):
            want = _derivative_by_rule([complex(a) for a in s], k)
            got = npp.polyder(s, k)
            assert got.tolist() == list(want)
            assert got.tobytes() == np.array(want, dtype=complex).tobytes()


def test_lemma_unknown_name():
    with pytest.raises(ValueError):
        verify_lemma("no-such-lemma")


def test_cube_from_json_refuses_fractional_sizes():
    # refused, not read as torus(k=4, d=4)
    with pytest.raises(ValueError, match=r"need 2 <= k <= d, both integers; got k = 4\.7, d = 4\.2"):
        cube_from_json({"family": "torus", "k": 4.7, "d": 4.2})
    with pytest.raises(ValueError, match="both integers"):
        cube_from_json({"family": "sphere", "k": 3, "d": 3.5})
    assert cube_from_json({"family": "torus", "k": 4.0, "d": 4}).label == "torus(k=4, d=4)"
