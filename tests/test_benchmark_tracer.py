"""Guard for the benchmark's per-layer tracer.

``benchmarks/tracer.py`` times the package by patching module attributes
and class methods by name. A renamed or deleted target breaks
``benchmarks/run.py --trace 1`` without failing any other test, so these
tests load the tracer from its file and check every target against the
package.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from videoanomaly import DetectorConfig, Frame, StreamingDetector, cli, synth
from videoanomaly.features import STATIC_EPS

from conftest import write_frames_y8

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("benchmarks/ is not part of this checkout")
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves(tracer):
    for module, path, name in tracer.TARGETS:
        owner, attr = tracer.resolve(module, path)
        # the tracer patches the owner's own attribute, not an inherited one
        assert attr in vars(owner), f"{module}.{path} ({name})"
        assert callable(vars(owner)[attr]), f"{module}.{path} ({name})"


def test_traced_run_feeds_every_observer(tracer):
    frames = synth.noise_video(25, seed=0)
    acts = synth.noise_activations(25, seed=0)
    det = StreamingDetector(DetectorConfig(channel="fusion", k=2))
    with tracer.Tracer() as tr:
        with tr.root():
            for frame, act in zip(frames, acts):
                det.push(frame, act)
            det.finalize()
    names = set(tr.names)
    for span in ("pipeline.push", "features.add", "features.slot", "unmasking.unmask",
                 "unmasking.train", "pipeline.window_batch", "pipeline.aggregate"):
        assert span in names, span
    assert tr.emitting
    assert tr.counts["slot_cells"] == 5 * 12 * 16  # five 5-frame slots
    assert tr.counts["examples"] > 0
    # leaving the block restores every patched attribute
    for module, path, _ in tracer.TARGETS:
        owner, attr = tracer.resolve(module, path)
        assert not hasattr(vars(owner)[attr], "__wrapped__")
    assert np.isfinite(tr.self_times()).all()


def test_traced_static_drop_matches_oracle(tracer):
    """The slot observer counts static cells from cube_grid's mask; on a
    mostly static stream its count equals the per-block static rule."""
    rng = np.random.default_rng(5)
    pixels = np.repeat(rng.random((1, 120, 160)), 30, axis=0)
    for t in range(8, 22):  # a sprite crossing a few cells
        pixels[t, 40:55, 20 + 4 * t : 35 + 4 * t] = 0.8
    det = StreamingDetector(DetectorConfig(k=2))
    with tracer.Tracer() as tr:
        for t in range(30):
            det.push(Frame(t, 160, 120, pixels[t]))
        det.finalize()
    static = 0
    for start in range(0, 30, 5):
        stack = pixels[start : start + 5]
        for gy in range(12):
            for gx in range(16):
                block = stack[:, gy * 10 : (gy + 1) * 10, gx * 10 : (gx + 1) * 10]
                static += np.abs(np.gradient(block, axis=0)).max() < STATIC_EPS
    assert tr.slot_starts == set(range(0, 30, 5))
    assert tr.counts["slot_cells"] == 6 * 192
    assert tr.counts["slot_cells_static"] == static
    assert 0.9 < static / (6 * 192) < 1


def test_traced_static_stream_times_every_close(tracer):
    """A static window returns early from window_batch but still goes
    through the patched name: one ``pipeline.window_batch`` span per
    closed window. Only finalize() smooths, so ``pipeline.smooth`` has
    exactly one span, and both names keep timing."""
    pixels = np.random.default_rng(2).random((120, 160))
    det = StreamingDetector(DetectorConfig(k=2))
    with tracer.Tracer() as tr:
        for t in range(300):
            det.push(Frame(t, 160, 120, pixels))
        _, result = det.finalize()
    windows = len(result.windows)
    assert windows == (300 - 20) // 5 + 1
    assert tr.names.count("pipeline.window_batch") == windows
    assert len(tr.emitting) == windows  # every close emits
    assert tr.names.count("pipeline.smooth") == 1
    assert "unmasking.unmask" not in tr.names
    spent = tr.self_by_name()
    assert spent["pipeline.window_batch"] > 0 and spent["pipeline.smooth"] > 0


@pytest.mark.parametrize("stride", [5, 3])
def test_traced_stream_counts_the_slots_windows_read(tracer, stride):
    """The store computes a slot when its fifth frame arrives, so the
    tracer first sees it at a cache hit. ``features.slots_computed`` (the
    distinct slot starts) must still equal the slots the windows read, and
    ``features.static_drop_frac`` the per-block static fraction of those
    slots, as ``benchmarks/run.py`` derives them."""
    rng = np.random.default_rng(8)
    pixels = np.repeat(rng.random((1, 120, 160)), 200, axis=0)
    for t in range(60, 140):  # a sprite crossing the scene and back
        x = 5 + abs(t - 100) * 3
        pixels[t, 70:86, x : x + 16] = 0.9
    config = DetectorConfig(k=2, stride=stride)
    det = StreamingDetector(config)
    with tracer.Tracer() as tr:
        for t in range(200):
            det.push(Frame(t, 160, 120, pixels[t]))
        _, result = det.finalize()
    read = {
        s
        for start in result.windows.tolist()
        for s in range(start, start + 2 * config.w, 5)
    }
    static = 0
    for start in read:
        stack = pixels[start : start + 5]
        for gy in range(12):
            for gx in range(16):
                block = stack[:, gy * 10 : (gy + 1) * 10, gx * 10 : (gx + 1) * 10]
                static += np.abs(np.gradient(block, axis=0)).max() < STATIC_EPS
    cells = tr.counts["slot_cells"]
    assert len(tr.slot_starts) == len(read)
    assert tr.slot_starts == read
    assert cells == 192 * len(read)
    assert tr.counts["slot_cells_static"] / cells == static / (192 * len(read))
    assert 0.9 < static / cells < 1


def test_traced_cli_run_resizes_every_frame(tracer, tmp_path):
    """``ingest.resize`` wraps the one resize the pipeline calls, so a
    traced ``run`` on a clip off the working size has one span per frame."""
    clip = tmp_path / "clip.y8"
    write_frames_y8(synth.noise_video(24, width=48, height=36, seed=3), clip)
    with tracer.Tracer() as tr:
        code = cli.main(["run", "--frames", str(clip), "--frames-format", "raw-y8",
                         "--k", "2", "--out", str(tmp_path / "scores.csv")])
    assert code == 0
    assert tr.names.count("ingest.resize") == 24
    assert tr.names.count("features.add") == 24
    assert tr.names.count("ingest.load_frames") == 1
