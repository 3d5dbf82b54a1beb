"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: python3 -m pytest benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer as tr
import workloads as wl
from videoanomaly.evaluation import frame_auc

TINY = {
    "dense_motion": {"frames": 40},
    "appearance": {"frames": 30},
    "long_stream": {"frames": 400, "period": 200, "event": 40},
    "cli_clip": {"frames": 100, "event": 40, "width": 640, "height": 360},
}


@pytest.fixture(scope="module", params=sorted(TINY))
def records(request, tmp_path_factory):
    name = request.param
    work = tmp_path_factory.mktemp(name)
    out = {}
    for trace in (False, True):
        out[trace] = run.measure(name, 1, 0.0, trace, sizes=TINY[name], work=work / str(trace))
    return name, out


def test_every_declared_metric_is_reported_with_its_unit(records):
    name, out = records
    declared = run.declared_metrics()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = run.summary_line(out[trace], trace)
        assert line["correct"], out[trace]["failures"]
        assert line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in declared[kind]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(np.isfinite(v["value"]) for v in line["metrics"].values())
    assert all(v > 0 for v in out[False]["end_to_end"].values())


def test_self_times_and_other_account_for_traced_wall(records):
    name, out = records
    layers = out[True]["per_layer"]
    assert abs(out[True]["trace_accounted_frac"] - 1.0) <= 0.05
    assert all(layers[m] >= 0.0 for m in run.SELF_METRICS)
    assert layers["other_s"] >= 0.0


def test_traced_and_untraced_runs_give_the_same_digest(records, tmp_path):
    name, out = records
    assert out[False]["digest"] == out[True]["digest"]
    workload = wl.Workload(name, TINY[name])
    workload.setup(2, tmp_path)
    plain = workload.run_pass()
    with tr.Tracer():
        traced = workload.run_pass()
    assert plain.digest == traced.digest


def _originals():
    found = []
    for module, path, _ in tr.TARGETS:
        owner, attr = tr.resolve(module, path)
        found.append(owner.__dict__[attr])
    return found


def test_wrappers_restore_the_original_attributes(tmp_path):
    before = _originals()
    run.measure("dense_motion", 3, 0.0, True, sizes=TINY["dense_motion"], work=tmp_path)
    assert all(a is b for a, b in zip(_originals(), before))
    with pytest.raises(RuntimeError):
        with tr.Tracer():
            assert all(a is not b for a, b in zip(_originals(), before))
            raise RuntimeError("a pass that fails")
    assert all(a is b for a, b in zip(_originals(), before))


def test_perturbed_series_trips_the_gate():
    from videoanomaly.pipeline import StreamingDetector

    config, stream, _ = wl.dense_motion_inputs(4, 40)
    good = wl.stream_pass(config, stream, None)
    assert not good.errors
    detector = StreamingDetector(config)
    emitted = [e.fused for f, a in stream() for e in detector.push(f, a)]
    tail, final = detector.finalize()
    emitted += [e.fused for e in tail]

    series = final.series
    series.fused = series.fused.copy()
    series.fused[7] = np.nextafter(series.fused[7], 2.0)
    bad = wl.PassResult(final.frame_count, 1, wl.series_digest(series))
    wl.check_stream(bad, series, emitted, None)
    wl.check(bad, "dense_motion", good.digest)
    assert len(bad.errors) == 2  # streamed != final, and digest != reference

    low = wl.PassResult(1, 1, good.digest, quality={"frame_auc": 0.5, "pixel_auc": 0.99})
    wl.check(low, "cli_clip", good.digest)
    assert len(low.errors) == 1 and "frame_auc" in low.errors[0]


def test_rank_auc_agrees_with_the_package():
    rng = np.random.default_rng(5)
    scores = np.round(rng.random(200), 2)  # plenty of ties
    labels = (rng.random(200) < 0.3).astype(np.uint8)
    assert wl.rank_auc(scores, labels) == pytest.approx(frame_auc(scores, labels).auc, abs=1e-12)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dense_motion", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_speed_scales_a_time_by_the_slowdown_near_it():
    import calibrate

    speed = calibrate.Speed()
    speed.times = [0.0, 0.1, 0.2, 5.0, 5.1]
    speed.seconds = [2 * calibrate.NOMINAL_S] * 3 + [calibrate.NOMINAL_S] * 2
    assert speed.slowdown(0.1) == 2.0
    assert speed.nominal(0.3, 0.1) == pytest.approx(0.15)
    assert speed.nominal(0.3, 5.05) == pytest.approx(0.3)
    assert speed.slowdown(2.0) == 2.0  # no sample in the window: the nearest
    assert speed.slowdown(3.0) == 1.0


def test_speed_is_sampled_between_pushes_never_inside_one():
    import calibrate

    speed = calibrate.Speed(interval=0.0)
    config, stream, _ = wl.dense_motion_inputs(5, 40)
    with tr.Tracer(tr.PUSH_ONLY) as probe:
        result = wl.stream_pass(config, stream, None, speed)
    assert not result.errors
    assert len(speed.times) >= 40
    spans = list(zip(probe.starts, probe.ends))
    assert not any(s < t < e for t in speed.times for s, e in spans)
    assert len(result.calls) == 41  # every push, then finalize()
