"""Tests of the benchmark itself: inputs, metric names, span arithmetic, wrapping."""
from __future__ import annotations

import json
import math
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.generate(workload, 3) == gen.generate(workload, 3)
    if workload != "verify-all":  # verify-all runs the fixed CLI table
        assert gen.generate(workload, 3) != gen.generate(workload, 4)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_scan_inputs_well_posed(seed):
    inp = gen.generate("family-scan", seed)
    assert all(0.0 < b < 1.0 for b in inp["p_b"] + inp["ell1_b"])
    assert set(gen.P_EDGES) <= set(inp["p_b"]) and min(inp["ell1_b"]) == 1e-8
    # the edge zone holds fixed points only, so every seed meets the edge defect alike
    seeded = sorted(set(inp["p_b"]) - set(gen.P_EDGES))
    lo, hi = gen.P_SEEDED_RANGE
    assert len(seeded) == gen.P_SEEDED and lo <= seeded[0] and seeded[-1] <= hi
    assert all(m >= 0.5 for m in inp["p_m"] + inp["ell1_m"] + [inp["max_ell1"]["m"]])
    assert inp["max_ell1"]["n"] >= 2


@pytest.mark.parametrize("seed", [0, 1])
def test_annulus_levels_are_regular_and_points_inside(seed):
    inp = gen.generate("annulus-green", seed)
    for case in inp["cases"]:
        r, w, t = case["r"], complex(*case["w"]), case["t"]
        assert 0.01 <= r <= 0.9 and r < abs(w) < 1.0 and t < 0.0
        z = np.array([complex(*p) for p in case["z"]])
        assert len(z) == gen.GREEN_BATCH and np.all((np.abs(z) > r) & (np.abs(z) < 1.0))
        # by the minimum principle, G > t off the disc |z - w| < 0.9 d once it holds on its
        # boundary: the sublevel set is one disc-like region away from the saddle point
        d = min(1.0 - abs(w), abs(w) - r)
        circle = w + 0.9 * d * np.exp(2j * math.pi * np.arange(32) / 32)
        assert min(oracle.annulus_green(r, w, c) for c in circle) > t + 0.1
    mono = inp["monotonicity"]
    assert max(mono["t_grid"]) <= inp["cases"][0]["t"] and mono["r"] == inp["cases"][0]["r"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_offaxis_points_inside_their_domains(seed):
    inp = gen.generate("offaxis-kernel", seed)
    for pt in inp["points"]:
        a = np.abs([complex(*p) for p in pt["w"]])
        if pt["kind"] == "polydisk":
            assert a.max() < 1.0
        else:
            assert np.sum(a ** (2 * np.asarray(pt["exps"]))) < 1.0
        # exponents >= 1 put the ball inside the ellipsoid, as the bounds check assumes
        assert min(pt["exps"]) >= 1.0 and a.min() > 0.0
    assert all(0.5 <= x["p"] <= 2.0 and 0.0 < x["b"] < 1.0 for x in inp["axis"])


def test_metric_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == tracer.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS) == list(gen.WORKLOADS)
    checks = [cases.Check("a", True, 1e-12), cases.Check("b", False, 1e-3), cases.Check("c", True)]
    printed = run.summarize("offaxis-kernel", [1.0, 2.0, 3.0], 1.5, checks, 100.0)
    assert printed.keys() == e2e.keys()
    assert {k: v["unit"] for k, v in printed.items()} == e2e
    assert printed["pass_ratio"]["value"] == pytest.approx(2 / 3)
    assert printed["digits_min"]["value"] == pytest.approx(3.0)
    traced = tracer.layer_metrics(tracer.Tracer())
    assert traced.keys() | {"trace.overhead_s"} == layer.keys()


def test_tally_counts_each_check_once_and_flags_passes_that_disagree():
    first = [cases.Check("a", True), cases.Check("b", False), cases.Check("c", False)]
    assert run.tally([first, list(first), list(first)]) == (3, 2, True)
    flipped = [cases.Check("a", False), cases.Check("b", False), cases.Check("c", False)]
    assert run.tally([first, flipped]) == (3, 3, False)


def test_self_time_on_synthetic_span_tree():
    # A(0-10) -> B(1-4), C(5-9) -> D(6-8), A(8.2-8.8)
    names = ["A", "B", "C", "D", "A"]
    parents = [-1, 0, 0, 2, 2]
    starts = [0.0, 1.0, 5.0, 6.0, 8.2]
    ends = [10.0, 4.0, 9.0, 8.0, 8.8]
    st = tracer.span_stats(names, parents, starts, ends)
    assert st["A"]["calls"] == 2
    assert st["A"]["busy_s"] == pytest.approx(10.0)  # the nested A is inside the outer one
    assert st["A"]["self_s"] == pytest.approx(3.0 + 0.6)
    assert st["B"]["self_s"] == pytest.approx(3.0)
    assert st["C"]["self_s"] == pytest.approx(4.0 - 2.0 - 0.6)
    assert st["D"]["self_s"] == pytest.approx(2.0)


def test_tracer_wraps_the_attribute_callers_reach_and_restores_it():
    from suitaverify import domains, green1d, numerics

    originals = (numerics.find_root_monotone, green1d.find_root_monotone, numerics.SampleStream.points)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert domains.find_root_monotone is not originals[0]
        assert green1d.find_root_monotone is domains.find_root_monotone
        domains.minkowski_functional(domains.Ellipsoid((2.0, 3.0)), [0.3, 0.2])
        numerics.golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, coarse=8)
        numerics.SampleStream(2, seed=1).points(64)
        m = tracer.layer_metrics(tr)
    finally:
        tr.uninstall()
    assert m["numerics.find_root_monotone.calls"] == 1
    assert m["numerics.golden_section_max.calls"] == 1 and m["numerics.golden_section_max.f_evals"] > 8
    assert m["numerics.SampleStream.points.points"] == 64
    assert (numerics.find_root_monotone, green1d.find_root_monotone, numerics.SampleStream.points) == originals


def test_known_defects_match_only_their_checks():
    edge = cases.Check("p.scan.F>=1", False, params={"m": 128.0, "b": 0.005})
    interior = cases.Check("p.scan.F>=1", False, params={"m": 128.0, "b": 0.5})
    assert cases.known_defect("family-scan", edge) == "p-envelope-edges"
    assert cases.known_defect("family-scan", interior) is None
    assert cases.known_defect("annulus-green", edge) is None
    on_axis = cases.Check("green.capacity", False, params={"w": [0.4, 0.0]})
    off_axis = cases.Check("green.capacity", False, params={"w": [0.4, 0.1]})
    assert cases.known_defect("annulus-green", on_axis) is None
    assert cases.known_defect("annulus-green", off_axis) == "robin-off-axis"
    # a seed-dependent error stays out of the digit metrics; a fixed one counts
    assert not cases.defect_in_digits("annulus-green", off_axis)
    small_b = cases.Check("ell1.kernel", False, 2e-9, params={"m": 2.0, "n": 2, "b": 1e-8})
    assert cases.known_defect("family-scan", small_b) == "ell1-cancellation"
    assert cases.defect_in_digits("family-scan", small_b)


def test_sampled_clock_takes_its_probe_out_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    clock = speed.Clock()
    assert clock.sampled(lambda: time.sleep(0.35) or 7) == 7
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # the sleep resumes after each probe, so the region's own time is the sleep
    assert clock.raw[0] == pytest.approx(0.35, abs=0.03)
    assert clock.normalised[0] > 0.0
    clock.bracketed(lambda: None)
    assert len(clock.raw) == len(clock.normalised) == 2
