"""The engine against the whole-clip reference detector (tests/reference.py),
bit for bit: run_detector, a pushed detector's emissions and finalized
result, and the maps of cube_score_map and write_maps_npz.

The configurations are a seeded covering grid, not the full product:
every pair of values of two dimensions (channel, stride, bins, sigma,
clip) is in some configuration. A stride above w cannot be configured
(DetectorConfig rejects it), so the strides run from 1 to w.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from videoanomaly import BinLayout, DetectorConfig, Frame, StreamingDetector, run_detector, synth
from videoanomaly.evaluation import cube_score_map, write_maps_npz
from videoanomaly.features import GRID_H, GRID_W, PATCH, STACK, STATIC_EPS, WORK_H, WORK_W

from reference import reference_detect
from test_features import _EPS_PROFILES

W = 10
FRAME_COUNT = 45  # leaves a tail after the last window at strides 3 and 10
DIMENSIONS = {
    "channel": ("motion", "appearance", "fusion"),
    "stride": (1, 3, W),
    "bins": ("1x1", "2x1", "2x2", "4x4"),
    "sigma": (0.0, 3.0, 10.0),
    "clip": ("event", "noise", "static", "off_size"),
}


def _covering_grid(seed=12):
    """Configurations, as tuples in DIMENSIONS order, until every pair of
    values of two dimensions is covered. Each step fixes one uncovered
    pair, draws the other values 50 times, and keeps the draw that covers
    the most uncovered pairs."""
    values = list(DIMENSIONS.values())

    def pairs(config):
        return {((i, config[i]), (j, config[j])) for i, j in combinations(range(len(config)), 2)}

    uncovered = {
        ((i, a), (j, b))
        for i, j in combinations(range(len(values)), 2)
        for a in values[i]
        for b in values[j]
    }
    rng = np.random.default_rng(seed)
    grid = []
    while uncovered:
        fixed = dict(min(uncovered, key=repr))
        draws = [
            tuple(fixed.get(i, vals[rng.integers(len(vals))]) for i, vals in enumerate(values))
            for _ in range(50)
        ]
        best = max(draws, key=lambda config: len(pairs(config) & uncovered))
        grid.append(best)
        uncovered -= pairs(best)
    return grid


GRID = _covering_grid()


def _static_clip(frame_count):
    """A static textured scene in which, per 5-frame block, two cells
    step by exactly the gate's threshold and one by the next float below
    it, along the profiles whose largest |d/dt| falls at each of the five
    time steps in turn, so that every fold of a slot gate decides a cell."""
    rng = np.random.default_rng(5)
    pixels = np.repeat(rng.random((1, WORK_H, WORK_W)), frame_count, axis=0)
    profiles = list(_EPS_PROFILES.items())
    for block in range(frame_count // STACK):
        cells = rng.permutation(GRID_H * GRID_W)[:3]
        for n, cell in enumerate(cells):
            name, profile = profiles[(block + n) % len(profiles)]
            d = STATIC_EPS if name in ("t0", "t4") else 2 * STATIC_EPS
            if n == 2:
                d = np.nextafter(d, 0.0)
            gy, gx = divmod(int(cell), GRID_W)
            frames = slice(block * STACK, (block + 1) * STACK)
            rows, cols = slice(gy * PATCH, (gy + 1) * PATCH), slice(gx * PATCH, (gx + 1) * PATCH)
            pixels[frames, rows, cols] = np.array(profile(d))[:, None, None]
    return [Frame(i, WORK_W, WORK_H, p) for i, p in enumerate(pixels)]


def _clip(name):
    """(frames, activations) of a named FRAME_COUNT-frame clip."""
    n = FRAME_COUNT
    if name == "event":
        frames, _, _ = synth.block_event_video(frame_count=n, active_range=(20, 35), speed=2.0)
        noise, twin = synth.noise_activations(n, seed=11), synth.repeating_activations(n, seed=12)
        return frames, [a if (a.index // 13) % 2 else b for a, b in zip(noise, twin)]
    if name == "noise":
        return synth.noise_video(n, seed=9), synth.noise_activations(n, seed=3)
    if name == "static":
        return _static_clip(n), synth.repeating_activations(n, seed=4)
    frames, _, _ = synth.block_event_video(  # off the working size: resized
        frame_count=n, active_range=(15, 30), width=213, height=97, seed=2
    )
    return frames, synth.noise_activations(n, seed=6)


def _exact(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("channel,stride,bins,sigma,clip", GRID)
def test_engine_matches_reference(channel, stride, bins, sigma, clip, tmp_path):
    config = DetectorConfig(
        w=W, stride=stride, k=2, bins=BinLayout.from_string(bins), smooth_sigma=sigma,
        channel=channel,
    )
    frames, acts = _clip(clip)
    if "motion" not in config.enabled_channels:
        frames = None
    if "appearance" not in config.enabled_channels:
        acts = None
    ref = reference_detect(frames, acts, config)

    det = StreamingDetector(config)
    emissions = []
    for i in range(FRAME_COUNT):
        emissions.extend(det.push(frames[i] if frames else None, acts[i] if acts else None))
    tail, pushed = det.finalize()
    for result in (run_detector(frames, acts, config), pushed):
        assert _exact(result.windows, ref.windows)
        for ch in config.enabled_channels:
            assert _exact(result.bin_scores[ch], ref.bin_scores[ch]), ch
            assert _exact(result.series.per_bin[ch], ref.per_bin[ch]), ch
            assert _exact(result.series.per_channel[ch], ref.per_channel[ch]), ch
        assert _exact(result.series.fused, ref.fused)
        assert _exact(result.series.smoothed, ref.smoothed)
        if ref.presence is None:
            assert result.presence is None
        else:
            assert _exact(result.presence, ref.presence)

    emitted = [(e.frame, e.motion, e.appearance, e.fused) for e in emissions + tail]
    want = [
        (f, *(float(ref.per_channel[ch][f]) if ch in ref.per_channel else None
              for ch in ("motion", "appearance")), float(ref.fused[f]))
        for f in range(FRAME_COUNT)
    ]
    assert [repr(e) for e in emitted] == [repr(e) for e in want]

    for ch in (*config.enabled_channels, "fused"):
        assert _exact(cube_score_map(pushed, ch), ref.maps[ch]), ch
    write_maps_npz(pushed, tmp_path / "maps.npz")
    with np.load(tmp_path / "maps.npz") as saved:
        assert sorted(saved.files) == sorted(ref.maps)
        for name, grids in ref.maps.items():
            assert _exact(saved[name], grids), name
