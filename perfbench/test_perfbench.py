"""Self-tests of the benchmark: span arithmetic, the percentile rule, the
seeded rotations and the references the gates use.

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from besovball import approx  # noqa: E402
from besovball.poly import SparsePoly  # noqa: E402
from spans import Tracer, inclusive_time_by_name, median, self_time_by_name, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.5, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.0, 3.0 - 1.5, 1.5, 1.0]
    assert self_time_by_name(spans) == {"a": 6.0, "b": 2.5, "c": 1.5}
    assert sum(self_times(spans)) == spans[0][2] - spans[0][1]


def test_inclusive_time_counts_recursion_once_and_filters_by_pass():
    spans = [
        ["p", 0.0, 4.0, -1, 0],
        ["p", 1.0, 3.0, 0, 0],
        ["q", 1.5, 2.0, 1, 0],
        ["p", 10.0, 11.0, -1, 1],
    ]
    assert inclusive_time_by_name(spans, 0) == {"p": 4.0, "q": 0.5}
    assert inclusive_time_by_name(spans, 1) == {"p": 1.0}
    assert self_time_by_name(spans, 0) == {"p": 4.0 - 0.5, "q": 0.5}


def test_tracer_records_parents_and_counts():
    tr = Tracer()
    inner = tr.wrap(lambda x: x + 1, "inner")
    outer = tr.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    (n0, s0, e0, p0, _), (n1, s1, e1, p1, _) = tr.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "inner", 0)
    assert s0 <= s1 <= e1 <= e0
    assert tr.counts[(0, "outer.calls")] == tr.counts[(0, "inner.calls")] == 1


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 100), 90) is None  # 99 samples: 9 beyond rank 90
    assert tail_percentile(range(1, 101), 90) == 90  # 100 samples: 10 beyond
    assert tail_percentile(range(1, 121), 90) == 108
    assert tail_percentile(range(1, 1000), 99) is None
    assert median([3, 1, 2]) == 2 and median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        tail_percentile([1.0], 100)


@pytest.mark.parametrize("seed", range(8))
def test_seeded_rotations_are_exactly_orthogonal(seed):
    rng = random.Random(seed)
    U4, U2 = workloads.rotation_4(rng), workloads.rotation_2(rng)
    assert workloads.gram_of_rows(U4) == workloads.identity(4)
    assert workloads.gram_of_rows(U2) == workloads.identity(2)
    assert len(workloads.compose_linear(workloads.F4_TERMS, U4)) == 36


def test_seed_fixes_the_inputs():
    a, b = workloads.Rotated(5), workloads.Rotated(5)
    assert a.f4 == b.f4 and a.f2 == b.f2
    assert workloads.Rotated(6).f4 != a.f4
    assert workloads.ExactBatch(3).batch(0) == workloads.ExactBatch(3).batch(0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rotated_da2_exact_distance_at_m2_is_8_over_15(seed):
    wl = workloads.Rotated(seed)
    assert len(wl.f2.terms) == 4
    for label, test in wl.self_tests:
        assert test(), label


def test_references_match_the_frozen_values():
    assert math.sqrt(workloads.da4_dist_sq(12)) == pytest.approx(workloads.DA4_DIST_M12, abs=1e-15)
    assert workloads.da2_dist_sq(0) == Fraction(2, 3)
    assert workloads.da2_dist_sq(2) == Fraction(8, 15)


def test_gram_structure_finds_the_reachable_block():
    f = SparsePoly(2, {(0, 0): 1, (1, 1): -2})
    system = approx.assemble_gram(workloads.DA2, f, SparsePoly.one(2), 24, force_float=True)
    n, _nnz, reach = layers.gram_structure(system)
    assert (n, reach) == (325, 13)
    exact = approx.assemble_gram(workloads.DA2, f, SparsePoly.one(2), 4)
    assert layers.gram_structure(exact)[::2] == (15, 3)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(name, unit) for name, unit, *_ in layers.PER_LAYER] + layers.DERIVED
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
