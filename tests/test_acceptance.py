"""Acceptance checks, one test per criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line with the
measured value next to its threshold; the lines are replayed in a
terminal section after the summary. Criterion 9 needs a real dataset and
is skipped unless AVENUE_DIR points at one (see its docstring).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from videoanomaly import (
    DetectorConfig,
    GroundTruth,
    WindowBatch,
    cube_score_map,
    frame_auc,
    gradient_feature,
    bin_activations,
    load_frames,
    pixel_auc,
    run_detector,
    score,
    unmask,
)
from videoanomaly.cli import main
from videoanomaly.ingest import ActivationFrame, load_masks
from videoanomaly import synth

from conftest import write_frames_y8


def _planted_batch():
    """Two identical halves except feature 0, which separates them by sign."""
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 0.1, (20, 499))
    noise[10:] = noise[:10]
    x = np.hstack([np.r_[np.full(10, -1.0), np.full(10, 1.0)][:, None], noise])
    y = np.r_[np.zeros(10), np.ones(10)]
    return WindowBatch(x, y)


def test_criterion_1_twin_stream_scores_chance(criterion_report):
    t0 = time.perf_counter()
    frames = synth.repeating_video(100, period=10)
    result = run_detector(frames=frames, config=DetectorConfig())
    elapsed = time.perf_counter() - t0
    worst = float(np.abs(result.series.smoothed - 0.5).max())
    ok = worst <= 1e-6 and elapsed < 10.0
    criterion_report(
        f"[criterion 1] {'PASS' if ok else 'FAIL'} twin stream: "
        f"max |smoothed - 0.5| = {worst:.2e} (tol 1e-06), {elapsed:.1f}s < 10s"
    )
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_planted_feature_profile(criterion_report):
    t0 = time.perf_counter()
    prof = unmask(_planted_batch(), k=10, m=50, lam=0.1)
    mean = score(prof)
    # oracle: the same halves minus the planted feature are exact twins
    stripped = _planted_batch()
    oracle = unmask(WindowBatch(stripped.x[:, 1:], stripped.y), k=10, m=50, lam=0.1)
    oracle_dev = float(np.abs(oracle.accuracies - 0.5).max())
    elapsed = time.perf_counter() - t0
    ok = (
        prof.accuracies[0] == 1.0
        and abs(mean - 0.55) <= 0.05
        and oracle_dev <= 1e-9
        and elapsed < 5.0
    )
    criterion_report(
        f"[criterion 2] {'PASS' if ok else 'FAIL'} planted feature: "
        f"loop0 = {prof.accuracies[0]:.3f} (need 1.0), mean = {mean:.4f} "
        f"(0.55 +- 0.05), oracle dev = {oracle_dev:.1e}, {elapsed:.1f}s < 5s"
    )
    assert prof.accuracies[0] == 1.0
    assert abs(mean - 0.55) <= 0.05
    assert oracle_dev <= 1e-9
    assert elapsed < 5.0


def test_criterion_3_injected_anomaly_auc(criterion_report):
    t0 = time.perf_counter()
    frames, labels = synth.moving_block_video()
    result = run_detector(frames=frames, config=DetectorConfig())
    auc = frame_auc(result.series.smoothed, labels).auc
    elapsed = time.perf_counter() - t0
    ok = auc >= 0.85 and elapsed < 60.0
    criterion_report(
        f"[criterion 3] {'PASS' if ok else 'FAIL'} injected anomaly: "
        f"frame AUC = {auc:.4f} (floor 0.85), {elapsed:.1f}s < 60s"
    )
    assert auc >= 0.85
    assert elapsed < 60.0


def test_criterion_4_auc_against_pairwise_oracle(criterion_report):
    rng = np.random.default_rng(4)
    worst = 0.0
    cases = 0
    while cases < 1000:
        n = int(rng.integers(2, 13))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 1
        if labels.min() == labels.max():
            continue
        if rng.random() < 0.5:
            scores = rng.choice([0.0, 0.25, 0.5, 0.75], size=n)  # tie-heavy
        else:
            scores = rng.random(n)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        expected = wins / (pos.size * neg.size)
        worst = max(worst, abs(frame_auc(scores, labels).auc - expected))
        cases += 1
    ok = worst <= 1e-9
    criterion_report(
        f"[criterion 4] {'PASS' if ok else 'FAIL'} AUC oracle: "
        f"worst |diff| over {cases} cases = {worst:.2e} (tol 1e-09)"
    )
    assert worst <= 1e-9


def test_criterion_5_active_set_schedule(criterion_report):
    prof = unmask(_planted_batch(), k=10, m=50, lam=0.1)
    expected = list(range(500, 0, -50))
    ok = prof.active_counts == expected
    criterion_report(
        f"[criterion 5] {'PASS' if ok else 'FAIL'} active sets: "
        f"{prof.active_counts[:3]}...{prof.active_counts[-1:]} == 500,450,...,50"
    )
    assert prof.active_counts == expected


def test_criterion_6_throughput_floors(criterion_report, tmp_path, capsys):
    frames = synth.noise_video(300, seed=6)
    path = tmp_path / "bench.y8"
    write_frames_y8(frames, path)
    out = tmp_path / "bench.json"
    rc = main(["bench", "--frames", str(path), "--repeat", "1", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    ext, pred = doc["extraction_fps"], doc["prediction_fps"]
    ok = ext >= 100.0 and pred >= 20.0
    criterion_report(
        f"[criterion 6] {'PASS' if ok else 'FAIL'} throughput: "
        f"extraction = {ext:.0f} FPS (floor 100), prediction = {pred:.0f} FPS "
        f"(floor 20), single core"
    )
    assert ext >= 100.0
    assert pred >= 20.0


def test_criterion_7_gradient_against_affine_oracle(criterion_report):
    rng = np.random.default_rng(7)
    y, x, t = np.meshgrid(np.arange(10.0), np.arange(10.0), np.arange(5.0), indexing="ij")
    interior = np.zeros(500, dtype=bool)
    for tt in range(1, 4):
        for yy in range(1, 9):
            for xx in range(1, 9):
                interior[tt * 100 + yy * 10 + xx] = True
    worst = 0.0
    for _ in range(200):
        a, b, c, d = rng.normal(size=4)
        feat = gradient_feature(a * y + b * x + c * t + d)
        expected = np.sqrt(a * a + b * b + c * c)
        worst = max(worst, float(np.abs(feat[interior] - expected).max()))
    ok = worst <= 1e-9
    criterion_report(
        f"[criterion 7] {'PASS' if ok else 'FAIL'} voxel gradients: "
        f"worst interior error over 200 affine blocks = {worst:.2e} (tol 1e-09)"
    )
    assert worst <= 1e-9


def test_criterion_8_appearance_binning_oracle(criterion_report):
    rng = np.random.default_rng(8)
    corners = ((0, 0), (0, 6), (6, 0), (6, 6))
    exact = True
    worst_norm = 0.0
    for i in range(100):
        values = rng.random((256, 13, 13)).astype(np.float32)
        feats = bin_activations(ActivationFrame(i, 256, 13, 13, values))
        for row, (r0, c0) in zip(feats, corners):
            raw = np.zeros(12544)
            for ch in range(256):
                for r in range(7):
                    for c in range(7):
                        raw[ch * 49 + r * 7 + c] = values[ch, r0 + r, c0 + c]
            if not np.array_equal(row, raw / np.linalg.norm(raw)):
                exact = False
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(row)) - 1.0))
    ok = exact and worst_norm <= 1e-9
    criterion_report(
        f"[criterion 8] {'PASS' if ok else 'FAIL'} appearance binning: "
        f"100 tensors {'exact' if exact else 'MISMATCH'} vs index oracle, "
        f"worst |norm - 1| = {worst_norm:.2e} (tol 1e-09)"
    )
    assert exact
    assert worst_norm <= 1e-9


def test_criterion_9_avenue_benchmark(criterion_report):
    """Optional real-data check against published Avenue numbers.

    Expects AVENUE_DIR with one subdirectory per test clip under
    ``frames/`` (PGM sequences, video order) and matching pixel masks
    under ``gt/`` (PGM per frame, nonzero = anomalous). Frame labels are
    derived from the masks. Skipped when the variable is unset.
    """
    root = os.environ.get("AVENUE_DIR")
    if not root or not Path(root).is_dir():
        criterion_report(
            "[criterion 9] SKIPPED Avenue benchmark (set AVENUE_DIR to run)"
        )
        pytest.skip("AVENUE_DIR not set; optional dataset check")
    root = Path(root)
    clips = sorted(p.name for p in (root / "frames").iterdir() if p.is_dir())
    assert clips, f"no clips under {root / 'frames'}"
    all_scores, all_labels = [], []
    all_maps, all_masks = [], []
    for clip in clips:
        frames = load_frames(root / "frames" / clip)
        gt = load_masks(root / "gt" / clip, frame_count=len(frames))
        result = run_detector(frames=frames, config=DetectorConfig())
        all_scores.append(result.series.smoothed)
        all_labels.append(gt.frame_labels)
        all_maps.extend(cube_score_map(result, "fused"))
        all_masks.extend(gt.pixel_masks)
    frame = frame_auc(np.concatenate(all_scores), np.concatenate(all_labels)).auc
    merged = GroundTruth(np.concatenate(all_labels), all_masks)
    pixel = pixel_auc(all_maps, merged).auc
    ok = abs(frame - 0.801) <= 0.03 and abs(pixel - 0.930) <= 0.03
    criterion_report(
        f"[criterion 9] {'PASS' if ok else 'FAIL'} Avenue: "
        f"frame AUC = {frame:.3f} (0.801 +- 0.03), pixel AUC = {pixel:.3f} "
        f"(0.930 +- 0.03) over {len(clips)} clips"
    )
    assert abs(frame - 0.801) <= 0.03
    assert abs(pixel - 0.930) <= 0.03
