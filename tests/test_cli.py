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
from besovball.experiments import BUILTIN_EXPERIMENTS, run_experiment
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


def test_ip_verb_prints_an_exact_complex_inner_product():
    # <1/2 + i z, 1 + z> in D_4, where ||z||^2 = 16: the exact value, then
    # its complex rounding
    code, out, _ = run("ip", "--space", D4, "--f", '{"0":[1,2,0,1],"1":[0,1,1,1]}', "--g", '{"0":[1,1,0,1],"1":[1,1,0,1]}')
    assert code == 0
    assert out == "inner_product = ComplexRational(1/2, 16) (= (0.5+16j))\n"


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


@pytest.mark.parametrize("degrees", ["5:1:-1", "4:0:-2", "1:5:0"])
def test_profile_refuses_a_degree_step_below_one(degrees):
    # a negative step dropped hi, [5, 4, 3] for 5:1:-1, and a zero step was
    # range()'s own error
    code, out, err = run("profile", "--space", DA2, "--f", F22, "--degrees", degrees)
    assert (code, out, err) == (2, "", f"error: the step of --degrees {degrees!r} must be >= 1\n")


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
    (("verify-lemma", "slice-bound", "--params", '{"tol":[1]}'), "error: tol must be a finite number, got [1]"),
    (("verify-lemma", "slice-bound", "--params", '{"tol":NaN}'), "error: tol must be a finite number, got nan"),
    (("verify-lemma", "slice-outer", "--params", '{"margin":"x"}'), "error: margin must be a finite number, got 'x'"),
    (("verify-lemma", "radial-mult-section", "--params", '{"slack":{}}'), "error: slack must be a finite number, got {}"),
    (("verify-lemma", "onevar-derivative-bound", "--params", '{"sup_bound":null}'),
     "error: sup_bound must be a finite number, got None"),
    (("verify-lemma", "onevar-derivative-bound", "--params", '{"area_bound":true}'),
     "error: area_bound must be a finite number, got True"),
    (("verify-lemma", "onevar-derivative-bound", "--params", '{"circle_radius":"0.9"}'),
     "error: circle_radius must be a finite number, got '0.9'"),
    (("verify-lemma", "onevar-derivative-bound", "--params", '{"r_grid":5}'),
     "error: r_grid must be a JSON list, got 5"),
    (("verify-lemma", "radial-mult-section", "--params", '{"r_grid":[0.5,false]}'),
     "error: an entry of r_grid must be a finite number, got False"),
    (("certify", "energy", "--space", '{"d":4,"kind":"alpha","alpha":0}', "--f", F4, "--cube",
      '{"family":"torus","k":4,"d":4,"shrink":[1]}'), "error: shrink must be a finite number, got [1]"),
    (("profile", "--space", DA2, "--f", F22, "--degrees", "0:x"),
     "error: --degrees must be a comma list of integers or lo:hi[:step], got '0:x'"),
    (("profile", "--space", DA2, "--f", F22, "--degrees", "1,x"),
     "error: --degrees must be a comma list of integers or lo:hi[:step], got '1,x'"),
    (("profile", "--space", DA2, "--f", F22, "--degrees", "1:2:3:4"),
     "error: the range --degrees '1:2:3:4' must be lo:hi or lo:hi:step"),
    (("norm", "--space", DA2, "--poly", '{"a":[1,1,0,1]}'),
     "error: the key 'a' of a polynomial literal must be comma-separated integer exponents"),
    (("norm", "--space", HARDY1, "--poly", '{"1.5":[1,1,0,1]}'),
     "error: the key '1.5' of a polynomial literal must be comma-separated integer exponents"),
])
def test_malformed_json_exits_2_naming_the_object(tmp_path, args, message):
    if args[0] == "run":
        args += ("--out", str(tmp_path))
    code, out, err = run(*args)
    assert (code, out) == (2, "")
    assert err == message + "\n"


@pytest.mark.parametrize("coeff, message", [
    ("[1,0,0,1]", "error: the exact coefficient [1, 0, 0, 1] for 0 has a zero denominator"),
    ("[1,1,2,0]", "error: the exact coefficient [1, 1, 2, 0] for 0 has a zero denominator"),
    ("[true,1,0,1]", "error: re_num of the exact coefficient [True, 1, 0, 1] for 0 must be an integer, got True"),
    ("[1,1,0,false]", "error: im_den of the exact coefficient [1, 1, 0, False] for 0 must be an integer, got False"),
])
def test_norm_refuses_a_bad_exact_part_naming_the_coefficient(coeff, message):
    # a zero denominator was a bare Fraction error, and a JSON true read as 1
    code, out, err = run("norm", "--space", HARDY1, "--poly", '{"0":' + coeff + '}')
    assert (code, out, err) == (2, "", message + "\n")


QUADRATURE1 = '{"d":1,"kind":"besov","N":1,"measure":{"type":"quadrature","nodes":%s,"weights":%s}}'


@pytest.mark.parametrize("args, message", [
    (("norm", "--space", HARDY1, "--poly", '{"0":[NaN,0.0]}'),
     "error: re of the float coefficient [nan, 0.0] for 0 must be a finite number, got nan"),
    (("norm", "--space", HARDY1, "--poly", '{"0":[Infinity,0.0]}'),
     "error: re of the float coefficient [inf, 0.0] for 0 must be a finite number, got inf"),
    (("norm", "--space", HARDY1, "--poly", '{"0":[1.0,-Infinity]}'),
     "error: im of the float coefficient [1.0, -inf] for 0 must be a finite number, got -inf"),
    (("embed", "--kind", "tkd", "--k", "2", "--d", "2", "--poly", '{"1":[NaN,0.0]}'),
     "error: re of the float coefficient [nan, 0.0] for 1 must be a finite number, got nan"),
    (("norm", "--space", QUADRATURE1 % ("[0.5,1.0]", "[0.25,Infinity]"), "--poly", ONE_MINUS_Z),
     "error: an entry of the weights of a quadrature measure must be a finite number, got inf"),
    (("norm", "--space", QUADRATURE1 % ("[1.0]", "[true]"), "--poly", ONE_MINUS_Z),
     "error: an entry of the weights of a quadrature measure must be a finite number, got True"),
    (("norm", "--space", QUADRATURE1 % ("[NaN,1.0]", "[1,1]"), "--poly", ONE_MINUS_Z),
     "error: an entry of the nodes of a quadrature measure must be a finite number, got nan"),
    (("norm", "--space", QUADRATURE1 % ("1.0", "[1]"), "--poly", ONE_MINUS_Z),
     "error: the nodes of a quadrature measure must be a JSON list, got 1.0"),
])
def test_non_finite_json_floats_exit_2_naming_the_key(args, message):
    # json.loads reads NaN and Infinity: a polynomial literal printed
    # norm_sq = nan and a rule of weight inf norm_sq = inf, both with exit
    # 0, and a JSON true read as the weight 1.0
    code, out, err = run(*args)
    assert (code, out, err) == (2, "", message + "\n")


def test_a_json_integer_past_the_float_range_exits_2_naming_the_key():
    # int too large to convert to float, naming neither key nor coefficient
    huge = "1" + "0" * 400
    code, out, err = run("norm", "--space", HARDY1, "--poly", '{"0":[%s,0.0]}' % huge)
    assert (code, out) == (2, "")
    assert err == (f"error: re of the float coefficient [{huge}, 0.0] for 0 must be a finite number, "
                   "got an integer of 1329 bits, past the float range\n")
    code, out, err = run("norm", "--space", QUADRATURE1 % ("[0.5,1.0]", "[1,%s]" % huge), "--poly", ONE_MINUS_Z)
    assert (code, out) == (2, "")
    assert err.startswith("error: an entry of the weights of a quadrature measure must be a finite number, got an integer")


def test_verify_lemma_refuses_a_fractional_integer_param():
    code, out, err = run("verify-lemma", "slice-bound", "--params", '{"trials": 2.5}')
    assert code == 2 and out == ""
    assert err == "error: trials must be an integer >= 1, got 2.5\n"


@pytest.mark.parametrize("params, got", [
    ("[]", "[]"), ("0", "0"), ("false", "False"), ('""', "''"), ("", "'' (Expecting value: line 1 column 1 (char 0))"),
])
def test_verify_lemma_refuses_falsy_params_that_are_not_an_object(params, got):
    # only a missing --params means the check's defaults; these ran the
    # check with them and exited 0
    code, out, err = run("verify-lemma", "slice-outer", "--params", params)
    assert (code, out) == (2, "")
    assert err == f"error: the params of slice-outer must be a JSON object, got {got}\n"


def test_run_refuses_an_unknown_name_naming_the_builtins(tmp_path):
    code, out, err = run("run", "--name", "nope", "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: unknown experiment 'nope'; known: {sorted(BUILTIN_EXPERIMENTS)}\n"
    assert not (tmp_path / "out").exists()


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
    # the float Cholesky of (1 - z)^12 in D_-4 to degree 60 completes only
    # its first 48 unknowns: one line on stderr, no traceback, no rows
    f = json.dumps(poly_to_literal(SparsePoly(1, {(0,): 1, (1,): -1}) ** 12))
    code, out, err = run("profile", "--space", '{"d":1,"kind":"alpha","alpha":-4}', "--f", f,
                         "--degrees", "0:60:1", "--method", "float")
    assert code == 2 and out == ""
    assert err == ("error: the float Cholesky of the Gram block to degree 48 (49 unknowns) factors only 48 of them; "
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
    # 31, about 3.6e7 entries (573 MB): refused once the walk, which forms
    # its candidates in blocks, holds more than 5792, and before anything is
    # listed or assembled
    def refuse(*args):
        raise AssertionError("the Gram system was assembled")

    monkeypatch.setattr(approx, "_assemble", refuse)
    f = json.dumps(poly_to_literal(SparsePoly(3, {b: i + 1 for i, b in enumerate(graded_monomials(3, 2))})))
    tracemalloc.start()
    try:
        code, out, err = run("approx", "--space", '{"d":3,"kind":"alpha","alpha":0}', "--f", f, "--deg", "31")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert ("error: the reachable Gram block to degree 31 in 3 variables has more than 5792 unknowns, "
            "over the budget of 33554432 entries") in err
    assert peak < 1e6


# the dense DA_3 system of the CI's approx compare at degree 3 (20
# unknowns), and 1 - (z1^2 + ... + z4^2) in DA_4 at degree 12, whose 210
# reachable unknowns are past AUTO_EXACT_LIMIT
DA3_DENSE_F = ('{"0,0,0":[1,1,0,1],"1,0,0":[-1,1,0,1],"0,1,0":[-1,3,0,1],"0,0,1":[9,8,0,1],"2,0,0":[4,5,0,1],'
               '"1,1,0":[8,9,0,1],"1,0,1":[7,9,0,1],"0,2,0":[-5,6,0,1],"0,1,1":[1,4,0,1],"0,0,2":[8,3,0,1]}')
DA3_DENSE_G = ('{"0,0,0":[4,1,0,1],"1,0,0":[4,3,0,1],"0,1,0":[-4,7,0,1],"0,0,1":[-8,1,0,1],"2,0,0":[-1,8,0,1],'
               '"1,1,0":[-1,1,0,1],"1,0,1":[-1,9,0,1],"0,2,0":[2,1,0,1],"0,1,1":[-3,4,0,1],"0,0,2":[-9,4,0,1]}')
SUM_SQ4 = '{"0,0,0,0":[1,1,0,1],"2,0,0,0":[-1,1,0,1],"0,2,0,0":[-1,1,0,1],"0,0,2,0":[-1,1,0,1],"0,0,0,2":[-1,1,0,1]}'
FLOAT_SOLVES_OF_EXACT_INPUTS = [
    (("--space", '{"d":3,"kind":"alpha","alpha":0}', "--f", DA3_DENSE_F, "--g", DA3_DENSE_G, "--deg", "3"),
     "float", "basis size = 20, factored = 20, solve path = float"),
    (("--space", '{"d":4,"kind":"alpha","alpha":0}', "--f", SUM_SQ4, "--deg", "12"),
     "auto", "basis size = 1820, factored = 210, solve path = float"),
]


@pytest.mark.parametrize("system, method, line", FLOAT_SOLVES_OF_EXACT_INPUTS)
def test_a_float_approx_of_exact_inputs_builds_no_exact_rows(monkeypatch, system, method, line):
    # the system is assembled on the path the solve takes, so no exact rows
    # are built for a float solve; --method exact still builds them
    def refuse(*args):
        raise AssertionError("exact Gram rows were built")

    monkeypatch.setattr(approx, "_gram_rows", refuse)
    code, out, _ = run("approx", *system, "--method", method)
    assert code == 0 and line in out
    with pytest.raises(AssertionError, match="exact Gram rows were built"):
        run("approx", *system, "--method", "exact")


@pytest.mark.parametrize("verb", [("approx", "--deg", "3"), ("profile", "--degrees", "0:3")])
def test_exact_method_on_float_weights_names_them(verb):
    code, out, err = run(*verb, "--space", '{"d":1,"kind":"alpha","alpha":0.5}', "--f", ONE_MINUS_Z,
                         "--method", "exact")
    assert (code, out, err) == (2, "", "error: exact solve requested, but the space's weights are floats\n")


def test_approx_and_profile_refuse_a_subnormal_float_weight_alike():
    # alpha = -300: the float system to degree 8 needs ||z^10||^2 = 11^-300,
    # which is subnormal: both verbs exit 2 with one line, and no value
    space = '{"d":1,"kind":"alpha","alpha":-300}'
    f, g = '{"0":[1,1,0,1],"2":[-1,3,0,1]}', '{"0":[1,1,0,1],"9":[1,1,0,1]}'
    approx_run = run("approx", "--space", space, "--f", f, "--g", g, "--deg", "8", "--method", "float")
    profile_run = run("profile", "--space", space, "--f", f, "--g", g, "--degrees", "8", "--method", "float")
    assert approx_run == profile_run
    code, out, err = approx_run
    assert code == 2 and out == ""
    assert err == ("error: the monomial weight ||z^(10,)||^2 = 3.8212e-313 (degree 10) is below the normal float "
                   'range, so the float Gram system to degree 8 would lose its digits; use method="exact"\n')
