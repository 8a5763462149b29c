"""Benchmark of the besovball package: time to a distance profile and to a
non-cyclicity certificate, on structured, rotated and exact-batch inputs.

    python3 perfbench/run.py --workload structured --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up (import, seeded inputs, warm-up), then runs timed
passes of the workload for about ``--seconds`` seconds (always at least one
pass; a pass is never cut short), checks every pass's outputs, and prints
the metrics.  With ``--trace 1`` half the time goes to untraced passes and
half to traced ones, and the per-layer metrics come from the traced passes.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a report with every metric the workload exercises,
the sample counts and the environment.  Spans and reports are written to
``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("structured", "rotated", "exact-batch")
SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 1 + SETUP_PROBES
PROBE_TIMEOUT_S = 120

END_TO_END = [  # (metric, unit): the metrics every workload reports and BENCHMARK.json bounds
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print {'setup_s': ...} and exit (used for the set-up samples)")
    return ap.parse_args(argv)


def load_package():
    """Import besovball from this checkout's src/, or explain why not."""
    init = ROOT / "src" / "besovball" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a source checkout of besovball")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import besovball

    if Path(besovball.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported besovball from {besovball.__file__}, not from {init}")


def _blas_threads():
    """numpy reports its BLAS build but not the runtime thread count, so ask
    the OpenBLAS that numpy loaded; None when it cannot be found."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy
    from besovball import kernels

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"), "threads": _blas_threads()},
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                                                  "BESOVBALL_THREADS", "BESOVBALL_KERNELS") if k in os.environ},
        "kernel_backend": kernels.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def run_passes(wl, out: Path, budget_s: float, tracer=None):
    """Timed passes until the next one would overrun budget_s (at least
    one).  With a tracer, the package is instrumented during the program
    calls only, never during the gates."""
    from layers import instrument
    from workloads import Checks, Pass

    passes, checks, cost = [], Checks(), []
    start = time.perf_counter()
    k = 0
    while True:
        wl.prepare(k)
        p = Pass()
        inst = None
        if tracer is not None:
            tracer.pass_id = k
            inst = instrument(tracer)
        t0 = time.perf_counter()
        try:
            wl.run_pass(p, out / f"pass-{k}", k)
        finally:
            p.wall_s = time.perf_counter() - t0
            if inst is not None:
                inst.restore()
        checks.errored_calls(p)
        for label, tb in p.errors:
            print(f"pass {k}: {label} raised\n{tb}", file=sys.stderr)
        try:
            wl.gate(p, checks)
        except (KeyError, AttributeError, TypeError):  # an output missing altogether
            checks.attempted += 1
            checks.failed.append(f"pass {k}: outputs incomplete")
        passes.append(p)
        cost.append(time.perf_counter() - t0)
        k += 1
        if time.perf_counter() - start + max(cost) > budget_s:
            return passes, checks


def setup_probes(args) -> list[float]:
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{res.stderr}")
        samples.append(float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def summarize(passes, setup_samples) -> dict:
    """{metric: (value, unit, samples)} for every metric the passes exercise."""
    from spans import median, tail_percentile

    out = {"setup_s": (median(setup_samples), "s", len(setup_samples)),
           "wall_s": (median([p.wall_s for p in passes]), "s", len(passes))}
    for phase in ("profile", "certificate", "sweep", "lemma"):
        vals = [p.phase_s[phase] for p in passes if phase in p.phase_s]
        if vals:
            out[f"{phase}_s"] = (median(vals), "s", len(vals))
    exact = [p.exact_ms for p in passes if p.exact_ms]
    if exact:
        out["exact_system_ms_p50"] = (median([median(x) for x in exact]), "ms", sum(map(len, exact)))
        p90 = [v for v in (tail_percentile(x, 90) for x in exact) if v is not None]
        if p90:
            out["exact_system_ms_p90"] = (median(p90), "ms", sum(map(len, exact)))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    load_package()
    import layers
    from spans import Tracer, median
    from workloads import WORKLOADS, Checks

    setup_checks = Checks()
    wl = WORKLOADS[args.workload](args.seed)
    for label, test in wl.self_tests:
        setup_checks.check(f"self-test: {label}", test)
    wl.warm_up()
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / tag
    shutil.rmtree(out, ignore_errors=True)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, checks = run_passes(wl, out, budget)
    tracer = None
    if args.trace:
        tracer = Tracer()
        traced, traced_checks = run_passes(wl, out / "traced", budget, tracer)
        checks.attempted += traced_checks.attempted
        checks.failed += traced_checks.failed
    try:
        wl.final_gates(passes, out, checks)
    except (KeyError, AttributeError, TypeError, OSError):
        checks.attempted += 1
        checks.failed.append("cross-pass checks could not run")
    checks.attempted += setup_checks.attempted
    checks.failed += setup_checks.failed

    e2e = summarize(passes, [setup_s] + setup_probes(args))
    attempted = max(checks.attempted, 1)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "passes": len(passes),
        "client": "closed loop, 1 client, 1 process",
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "failed_frac": {"value": len(checks.failed) / attempted, "unit": "ratio", "samples": attempted},
        "pass_wall_s": [p.wall_s for p in passes],
        "call_s": {label: median([p.call_s[label] for p in passes]) for label in passes[0].call_s},
        "failed_checks": checks.failed,
        "environment": environment(),
    }
    if tracer is not None:
        per_pass = [layers.layer_metrics(tracer, k) for k in range(len(traced))]
        layer = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
        traced_wall = median([p.wall_s for p in traced])
        cert = median([p.phase_s.get("certificate", 0.0) for p in traced])
        layer["kernels.energy_pair_sum.cert_share"] = layer["kernels.energy_pair_sum.s"] / cert if cert else 0.0
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"][0]
        layer["trace.spans"] = len(tracer.spans) / len(traced)
        units = [(name, unit) for name, unit, _s, _k in layers.PER_LAYER] + layers.DERIVED
        result_metrics = {k: {"value": layer[k], "unit": u} for k, u in units}
        report["per_layer"] = result_metrics
        report["largest_gram_systems"] = sorted(tracer.records, key=lambda r: -r["unknowns"])[:4]
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"spans-{tag}.json").write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "pass"], "spans": tracer.spans,
            "gram_systems": tracer.records}) + "\n")
    else:
        result_metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END}

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    for label in checks.failed:
        print(f"FAILED CHECK: {label}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": not checks.failed, "attempted": attempted, "failed": len(checks.failed),
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
