"""Command-line interface: verbs, exit codes, artifacts."""

from __future__ import annotations

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import pytest

from besovball import approx
from besovball.approx import cyclicity_profile, graded_monomials
from besovball.cli import main
from besovball.experiments import run_experiment
from besovball.poly import SparsePoly, poly_to_literal
from besovball.spaces import SpaceSpec

DA2 = '{"d":2,"kind":"alpha","alpha":0}'
D4 = '{"d":1,"kind":"alpha","alpha":4}'
HARDY1 = '{"d":1,"kind":"alpha","alpha":0}'
F22 = '{"0,0":[1,1,0,1],"1,1":[-2,1,0,1]}'
ONE_MINUS_Z = '{"0":[1,1,0,1],"1":[-1,1,0,1]}'
F4 = '{"0,0,0,0":[1,1,0,1],"1,1,1,1":[-16,1,0,1]}'


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    except SystemExit as e:  # argparse-level usage errors
        code = e.code
    return code, out.getvalue(), err.getvalue()


def test_norm_verb():
    code, out, _ = run("norm", "--space", DA2, "--poly", F22)
    assert code == 0
    assert out == "norm_sq = 3 (= 3.0)\n"


def test_ip_verb():
    code, out, _ = run(
        "ip", "--space", D4, "--f", '{"0":[1,1,0,1]}', "--g", '{"1":[1,1,0,1]}'
    )
    assert code == 0
    assert out.startswith("inner_product = 0")


def test_approx_verb_with_json(tmp_path):
    out_path = tmp_path / "res.json"
    code, out, _ = run(
        "approx", "--space", DA2, "--f", F22, "--deg", "2", "--json", str(out_path)
    )
    assert code == 0
    assert "dist_sq = 8/15" in out
    payload = json.loads(out_path.read_text())
    assert payload["dist_sq"] == pytest.approx(8.0 / 15.0)
    assert payload["degree"] == 2


def test_profile_verb_csv(tmp_path):
    csv_path = tmp_path / "prof.csv"
    code, out, _ = run(
        "profile", "--space", DA2, "--f", F22, "--degrees", "0:4:2",
        "--method", "exact", "--csv", str(csv_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,dist_sq,min_pivot,runtime_ms"
    assert len([ln for ln in lines if ln[:1].isdigit()]) == 3
    assert lines[-1].startswith("wrote ")
    assert csv_path.exists()
    # the same invocation writes identical bytes
    csv_path2 = tmp_path / "prof2.csv"
    run("profile", "--space", DA2, "--f", F22, "--degrees", "0:4:2",
        "--method", "exact", "--csv", str(csv_path2))
    assert csv_path.read_bytes() == csv_path2.read_bytes()
    # the verb and run_experiment share one runner: the same CSV bytes
    spec = {"name": "step", "kind": "profile", "space": json.loads(DA2),
            "params": {"f": json.loads(F22), "degrees": [0, 2, 4], "method": "exact"}}
    rep = run_experiment(spec, tmp_path)
    assert csv_path.read_bytes() == Path(rep.outputs["csv"]).read_bytes()


def test_profile_empty_degree_list(tmp_path):
    csv_path = tmp_path / "empty.csv"
    code, out, _ = run(
        "profile", "--space", DA2, "--f", F22, "--degrees", "", "--csv", str(csv_path)
    )
    assert code == 0
    assert csv_path.read_text().strip() == "m,dist_sq,min_pivot,runtime_ms"


def test_hc_verb():
    code, out, _ = run(
        "hc", "--space", D4, "--phi", ONE_MINUS_Z, "--n", "1", "--degrees", "0:4:4"
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    assert vals[0] > vals[1] > 0


def test_member_verb():
    h = '{"0":[1,1,0,1],"1":[-2,1,0,1],"2":[1,1,0,1]}'
    code, out, _ = run(
        "member", "--space", HARDY1, "--h", h, "--f", ONE_MINUS_Z,
        "--k", "2", "--degrees", "0,1",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert all(float(r.split(",")[1]) <= 1e-14 for r in rows)


def test_embed_verb_round_trip(tmp_path):
    out_path = tmp_path / "img.json"
    code, out, _ = run(
        "embed", "--kind", "tkd", "--k", "2", "--d", "2",
        "--poly", '{"1":[1,1,0,1]}', "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out.splitlines()[0]) == {"1,1": [2, 1, 0, 1]}
    assert json.loads(out_path.read_text()) == {"1,1": [2, 1, 0, 1]}
    code, out, _ = run(
        "embed", "--kind", "sk", "--k", "3", "--d", "3", "--poly", '{"1":[1,1,0,1]}'
    )
    assert code == 0
    img = json.loads(out)
    assert img == {"2,0,0": [1, 1, 0, 1], "0,2,0": [1, 1, 0, 1], "0,0,2": [1, 1, 0, 1]}


def test_certify_dual_verb(tmp_path):
    out_path = tmp_path / "cert.json"
    h2 = '{"0":[1,1,0,1],"1":[-2,1,0,1],"2":[1,1,0,1]}'
    code, out, _ = run(
        "certify", "dual", "--space", D4, "--g", ONE_MINUS_Z, "--h", h2,
        "--j", "1", "--out", str(out_path),
    )
    assert code == 0
    assert "lower_bound = 1.75914764" in out
    cert = json.loads(out_path.read_text())
    assert cert["kind"] == "dual"
    assert cert["audit"]["j"] == 1
    # the same JSON as the dual-certify step of run_experiment, where a
    # whole JSON float reads as an integer
    spec = {"name": "step", "kind": "dual-certify", "space": json.loads(D4),
            "params": {"g": json.loads(ONE_MINUS_Z), "h": json.loads(h2), "j": 1.0}}
    rep = run_experiment(spec, tmp_path)
    assert out_path.read_bytes() == Path(rep.outputs["certificate"]).read_bytes()


def test_certify_energy_verb(tmp_path):
    out_path = tmp_path / "energy.json"
    f4 = '{"0,0,0,0":[1,1,0,1],"1,1,1,1":[-16,1,0,1]}'
    code, out, _ = run(
        "certify", "energy", "--space", '{"d":4,"kind":"alpha","alpha":0}',
        "--f", f4, "--cube", '{"family":"torus","k":4,"d":4}',
        "--n-base", "6", "--max-doublings", "0", "--out", str(out_path),
    )
    assert code == 0
    assert "lower_bound" in out
    cert = json.loads(out_path.read_text())
    assert cert["kind"] == "energy"
    assert cert["lower_bound"] > 0.05


def test_certify_energy_past_the_grid_budget_fails_at_once():
    f4 = '{"0,0,0,0":[1,1,0,1],"1,1,1,1":[-16,1,0,1]}'
    tracemalloc.start()
    try:
        code, out, err = run(
            "certify", "energy", "--space", '{"d":4,"kind":"alpha","alpha":0}',
            "--f", f4, "--cube", '{"family":"torus","k":4,"d":4}', "--n-base", "128",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # no grid was built
    assert code == 2 and out == ""
    assert err.startswith("error: energy of torus(k=4, d=4): the pair-sum check at n = 128")
    assert "budget" in err and "Traceback" not in err


def test_certify_energy_past_the_chord_grid_budget_fails_at_once():
    # torus(6, 6) on the defaults: its lattice levels fit the budget, its
    # 12-node chord-ratio grid (12^10 pairs) does not
    f6 = '{"0,0,0,0,0,0":[1,1,0,1],"1,1,1,1,1,1":[-216,1,0,1]}'
    tracemalloc.start()
    try:
        code, out, err = run(
            "certify", "energy", "--space", '{"d":6,"kind":"alpha","alpha":0}',
            "--f", f6, "--cube", '{"family":"torus","k":6,"d":6}',
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # no grid was built
    assert code == 2 and out == ""
    assert err.startswith("error: energy of torus(k=6, d=6): the chord-ratio grid at n = 12 needs 61917364224")
    assert "budget" in err and "Traceback" not in err


def test_verify_lemma_verb_pass_and_fail():
    code, out, _ = run("verify-lemma", "slice-bound")
    assert code == 0
    assert out.strip().endswith("PASS")
    code, out, _ = run(
        "verify-lemma", "onevar-derivative-bound", "--params", '{"sup_bound": 0.01}'
    )
    assert code == 1
    assert out.strip().endswith("FAIL")


def test_run_verb_builtin(tmp_path):
    code, out, _ = run("run", "--name", "da-cyclic-d2", "--out", str(tmp_path))
    assert code == 0
    man = json.loads((tmp_path / "da-cyclic-d2.manifest.json").read_text())
    assert man["summary"]["final_dist_sq"] == pytest.approx(8388608 / 35102025, rel=1e-12)


def test_run_verb_requires_exactly_one_source(tmp_path):
    code, _, err = run("run", "--out", str(tmp_path))
    assert code == 2
    code, _, err = run(
        "run", "--name", "da-cyclic-d2", "--spec", "{}", "--out", str(tmp_path)
    )
    assert code == 2


def test_bad_inputs_exit_2():
    code, _, err = run("norm", "--space", "not json", "--poly", '{"0":[1,1,0,1]}')
    assert code == 2
    assert err
    code, _, err = run("norm", "--space", DA2, "--poly", '{"0":[1,1,0,1]}')
    assert code == 2  # dimension mismatch
    code, _, err = run("verify-lemma", "no-such-check")
    assert code == 2
    code, _, err = run("approx", "--space", DA2, "--f", F22, "--deg", "-1")
    assert code == 2
    assert "degree must be an integer >= 0" in err
    code, _, err = run("verify-lemma", "radial-mult-section", "--params", '{"space": {"d": 4, "kind": "alpha", "alpha": 0}}')
    assert code == 2
    assert "dimension mismatch" in err


@pytest.mark.parametrize("args, message", [
    (("norm", "--space", HARDY1, "--poly", '{"0":5}'),
     "error: coefficient for 0 must be [re_num,re_den,im_num,im_den] or [re,im], got 5"),
    (("norm", "--space", "[1]", "--poly", ONE_MINUS_Z), "error: a space must be a JSON object, got [1]"),
    (("norm", "--space", '{"d":1,"kind":"besov","N":1,"measure":[1]}', "--poly", ONE_MINUS_Z),
     "error: a measure must be a JSON object, got [1]"),
    (("certify", "energy", "--space", '{"d":4,"kind":"alpha","alpha":0}', "--f", F4, "--cube", "[1]"),
     "error: a cube must be a JSON object, got [1]"),
    (("run", "--spec", '{"name":"x","kind":"profile"}'), "error: an experiment spec has no 'space' key"),
    (("run", "--spec", "[1]"), "error: an experiment spec must be a JSON object, got [1]"),
    (("verify-lemma", "dilation-contraction", "--params", "[1]"),
     "error: the params of dilation-contraction must be a JSON object, got [1]"),
    (("norm", "--space", '{"d":1,"kind":"alpha"}', "--poly", ONE_MINUS_Z), "error: a space has no 'alpha' key"),
    (("run", "--spec", '{"name":"x","kind":"bundle"}'), "error: the params of 'x' has no 'steps' key"),
    (("norm", "--space", HARDY1, "--poly", '{"0":[{},1]}'),
     "error: coefficient for 0 must be [re_num,re_den,im_num,im_den] or [re,im], got [{}, 1]"),
    (("norm", "--space", '{"d":1,"kind":"alpha","alpha":[0]}', "--poly", ONE_MINUS_Z),
     "error: the alpha of a space must be a number, got [0]"),
    (("run", "--spec", '{"name":"x","kind":"profile","space":' + HARDY1 + ',"params":{"f":' + ONE_MINUS_Z
      + ',"degrees":5}}'), "error: the degrees of 'x' must be a JSON list, got 5"),
    (("run", "--spec", '{"name":"x","kind":"bundle","params":{"steps":[1]}}'),
     "error: an experiment spec must be a JSON object, got 1"),
    (("run", "--spec", '{"name":"x","kind":"bundle","params":{"steps":5}}'),
     "error: the steps of 'x' must be a JSON list, got 5"),
])
def test_malformed_json_exits_2_naming_the_object(tmp_path, args, message):
    if args[0] == "run":
        args += ("--out", str(tmp_path))
    code, out, err = run(*args)
    assert (code, out) == (2, "")
    assert err == message + "\n"


def test_verify_lemma_refuses_a_fractional_integer_param():
    code, out, err = run("verify-lemma", "slice-bound", "--params", '{"trials": 2.5}')
    assert code == 2 and out == ""
    assert err == "error: trials must be an integer >= 1, got 2.5\n"


def test_usage_error_exit_code():
    code, _, _ = run("approx", "--space", DA2)
    assert code == 2
    code, _, _ = run()
    assert code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--n-base", "0", "error: n_base must be an integer >= 1, got 0"),
    ("--n-base", "-3", "error: n_base must be an integer >= 1, got -3"),
    ("--max-doublings", "-1", "error: max_doublings must be an integer >= 0, got -1"),
])
def test_certify_energy_refuses_bad_grid_arguments(flag, value, message):
    f4 = '{"0,0,0,0":[1,1,0,1],"1,1,1,1":[-16,1,0,1]}'
    code, out, err = run(
        "certify", "energy", "--space", '{"d":4,"kind":"alpha","alpha":0}',
        "--f", f4, "--cube", '{"family":"torus","k":4,"d":4}', flag, value,
    )
    assert code == 2 and out == ""
    assert err == message + "\n"


@pytest.mark.parametrize("space, message", [
    ('{"d":1,"kind":"alpha","alpha":NaN}', "error: alpha-scale spaces need a finite alpha, got nan"),
    ('{"d":2.5,"kind":"alpha","alpha":0}', "error: d must be an integer >= 1, got 2.5"),
])
def test_profile_refuses_bad_spaces(space, message):
    code, out, err = run("profile", "--space", space, "--f", ONE_MINUS_Z, "--degrees", "0:4:2")
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_profile_refused_by_the_float_path_exits_2():
    # the float Cholesky of (1 - z)^12 in D_-4 to degree 60 factors only its
    # first 45 unknowns: one line on stderr, no traceback, no rows
    f = json.dumps(poly_to_literal(SparsePoly(1, {(0,): 1, (1,): -1}) ** 12))
    code, out, err = run("profile", "--space", '{"d":1,"kind":"alpha","alpha":-4}', "--f", f,
                         "--degrees", "0:60:1", "--method", "float")
    assert code == 2 and out == ""
    assert err == ("error: the float Cholesky of the Gram block to degree 45 (46 unknowns) factors only 45 of them; "
                   'use method="exact"\n')


@pytest.mark.parametrize("kind, params, message", [
    ("dual-certify", {"g": json.loads(ONE_MINUS_Z), "h": {"0": [1, 1, 0, 1], "1": [-2, 1, 0, 1], "2": [1, 1, 0, 1]},
                      "j": 1.9},
     "error: the order j must be an integer >= 0, got 1.9"),
    ("hc", {"phi": json.loads(ONE_MINUS_Z), "n": 2.7, "degrees": [0, 4]}, "error: n must be an integer >= 0, got 2.7"),
    ("member", {"h": json.loads(ONE_MINUS_Z), "f": json.loads(ONE_MINUS_Z), "k": 1.5, "degrees": [0]},
     "error: k must be an integer >= 0, got 1.5"),
    ("energy-certify", {"f": json.loads(F4), "cube": {"family": "torus", "k": 4, "d": 4}, "n_base": 6.5},
     "error: n_base must be an integer >= 1, got 6.5"),
    ("energy-certify", {"f": json.loads(F4), "cube": {"family": "torus", "k": 4, "d": 4}, "max_doublings": 0.5},
     "error: max_doublings must be an integer >= 0, got 0.5"),
])
def test_run_spec_refuses_fractional_step_integers(tmp_path, kind, params, message):
    # refused, not truncated: j = 1.9 must not give the j = 1 bound
    space = json.loads(D4) if kind in ("dual-certify", "hc", "member") else {"d": 4, "kind": "alpha", "alpha": 0}
    spec = json.dumps({"name": "step", "kind": kind, "space": space, "params": params})
    code, out, err = run("run", "--spec", spec, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_run_spec_refuses_a_bool_step_integer(tmp_path):
    # JSON true is not the integer 1
    spec = json.dumps({"name": "step", "kind": "hc", "space": json.loads(D4),
                       "params": {"phi": json.loads(ONE_MINUS_Z), "n": True, "degrees": [0, 4]}})
    code, out, err = run("run", "--spec", spec, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", "error: n must be an integer >= 0, got True\n")


def test_approx_solves_the_paper_da4_system_at_degree_400(tmp_path):
    # 1 - 16 z1z2z3z4 in DA_4: 101 of the C(404, 4) unknowns are reachable,
    # and the approximant factors only those, as the profile does
    out_path = tmp_path / "da4.json"
    da4 = '{"d":4,"kind":"alpha","alpha":0}'
    code, out, _ = run("approx", "--space", da4, "--f", F4, "--deg", "400", "--method", "exact", "--json", str(out_path))
    assert code == 0
    assert "basis size = 1093567501, factored = 101, solve path = exact" in out
    payload = json.loads(out_path.read_text())
    f = SparsePoly(4, {(0, 0, 0, 0): 1, (1, 1, 1, 1): -16})
    (pt,) = cyclicity_profile(SpaceSpec.drury_arveson(4), f, [400], method="exact")
    assert payload["dist_sq"] == pt.dist_sq == 0.7932847933227528
    assert (payload["conditioning"]["unknowns"], payload["conditioning"]["full_unknowns"]) == (101, 1093567501)


def test_approx_refuses_a_reachable_block_past_the_entry_budget(monkeypatch):
    # a dense degree-2 generator in DA_3 reaches all 5984 unknowns at degree
    # 31, about 3.6e7 entries (573 MB): refused after the walk, which forms
    # its candidates in blocks, and before anything is listed or assembled
    def refuse(*args):
        raise AssertionError("the Gram system was assembled")

    monkeypatch.setattr(approx, "_gram_system", refuse)
    f = json.dumps(poly_to_literal(SparsePoly(3, {b: i + 1 for i, b in enumerate(graded_monomials(3, 2))})))
    tracemalloc.start()
    try:
        code, out, err = run("approx", "--space", '{"d":3,"kind":"alpha","alpha":0}', "--f", f, "--deg", "31")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert ("error: the reachable Gram block to degree 31 in 3 variables has 5984 unknowns, 35808256 entries, "
            "over the budget of 33554432") in err
    assert peak < 1e6
