"""A whole-clip reference detector, built from the definition of a score.

It composes the layer oracles of the tests and shares none of the
engine's bookkeeping: no StreamingDetector, FeatureStore, SlotGate,
window_batch, coverage_mean or channel_mean. Given the whole clip at
once, it

- resizes every frame off the 160x120 working size (resize_bilinear);
- takes the cube grid of every 5-frame slot a window reads from the
  stacked frames (``_cube_grid_reference``), whose keep mask must equal
  the one-shot static gate (``_static_gate``);
- builds each (window, channel, bin)'s examples by concatenation, slot
  by slot or frame by frame, labeled by half, and unmasks the bins with
  MIN_PER_CLASS examples of each class; any other bin scores CHANCE;
- gives each frame the mean of the rows of the windows whose second half
  covers it, summed in window order, in a plain loop over frames; the
  frames before the first covered frame take its values, and those after
  the last covered frame take that one's;
- takes the max over bins, ``np.mean`` over channels, then ``smooth``.

The same frame rule, applied to each window's cell scores, gives the
(T, 12, 16) maps of cube_score_map and write_maps_npz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from videoanomaly.features import APP_LAYOUT, STACK, WORK_H, WORK_W, bin_activations
from videoanomaly.ingest import resize_bilinear
from videoanomaly.pipeline import smooth
from videoanomaly.unmasking import CHANCE, MIN_PER_CLASS, WindowBatch, score, unmask

from test_features import _cube_grid_reference, _static_gate


@dataclass
class Reference:
    """Every stage of a reference run, as the engine's result names them."""

    windows: np.ndarray  # (W,) window starts
    bin_scores: dict[str, np.ndarray]  # channel -> (W, n_bins)
    presence: np.ndarray | None  # (W, 12, 16), motion only
    per_bin: dict[str, np.ndarray]  # channel -> (T, n_bins)
    per_channel: dict[str, np.ndarray]  # channel -> (T,)
    fused: np.ndarray
    smoothed: np.ndarray
    maps: dict[str, np.ndarray]  # channel and "fused" -> (T, 12, 16)


def _slot_grids(frames, starts, w):
    """(rows, keep) of every slot a window reads, keyed by its first frame."""
    pixels = [
        (f if (f.width, f.height) == (WORK_W, WORK_H) else resize_bilinear(f, WORK_W, WORK_H)).pixels
        for f in frames
    ]
    grids = {}
    for s in sorted({start + o for start in starts for o in range(0, 2 * w, STACK)}):
        stack = pixels[s : s + STACK]
        rows, keep = _cube_grid_reference(stack)
        if not np.array_equal(keep, _static_gate(stack)):
            raise AssertionError(f"slot {s}: the two static gate oracles disagree")
        grids[s] = rows, keep
    return grids


def _examples(start, w, b, channel, grids, vectors, bin_grid):
    """(x, y) of bin ``b`` of the window at ``start``, first half labeled 0."""
    xs, ys = [], []
    if channel == "motion":
        for s in range(start, start + 2 * w, STACK):
            rows, keep = grids[s]
            x = rows[bin_grid[keep] == b]
            xs.append(x)
            ys.append(np.full(len(x), int(s - start >= w)))
    else:
        for f in range(start, start + 2 * w):
            xs.append(vectors[f][b][None])
            ys.append([int(f - start >= w)])
    return np.concatenate(xs), np.concatenate(ys)


def _frame_means(starts, rows, w, frame_count):
    """Per frame, the mean of the rows of its covering windows, summed in
    window order; head and tail frames copy the first and last covered."""
    out, covered = np.empty((frame_count, *rows.shape[1:])), []
    for f in range(frame_count):
        total, count = np.zeros(rows.shape[1:]), 0
        for start, row in zip(starts, rows):
            if start + w <= f < start + 2 * w:
                total += row
                count += 1
        if count:
            out[f] = total / count
            covered.append(f)
    out[: covered[0]] = out[covered[0]]
    out[covered[-1] + 1 :] = out[covered[-1]]
    return out


def reference_detect(frames, activations, config) -> Reference:
    """The reference run of one clip (frames and/or activations) under a
    DetectorConfig."""
    channels = config.enabled_channels
    frame_count = len(frames) if frames is not None else len(activations)
    w = config.w
    starts = np.arange(0, frame_count - 2 * w + 1, config.stride)
    motion_grid = config.bins.patch_bin_grid()
    grids = _slot_grids(frames, starts, w) if "motion" in channels else {}
    vectors = [bin_activations(a) for a in activations] if "appearance" in channels else []
    bin_scores, cells = {}, {}
    presence = None
    if "motion" in channels:
        presence = np.array([
            np.logical_or.reduce([grids[s][1] for s in range(start, start + 2 * w, STACK)])
            for start in starts
        ])
    for ch in channels:
        bin_grid = motion_grid if ch == "motion" else APP_LAYOUT.patch_bin_grid()
        scores = np.full((len(starts), config.n_bins(ch)), CHANCE)
        for j, start in enumerate(starts):
            for b in range(config.n_bins(ch)):
                x, y = _examples(start, w, b, ch, grids, vectors, bin_grid)
                if min(len(y) - y.sum(), y.sum()) >= MIN_PER_CLASS:
                    scores[j, b] = score(unmask(WindowBatch(x, y), config.k, config.m, config.lam))
        bin_scores[ch] = scores
        cell_scores = scores[:, bin_grid]
        if ch == "motion":
            cell_scores = cell_scores * presence
        cells[ch] = cell_scores
    per_bin = {ch: _frame_means(starts, bin_scores[ch], w, frame_count) for ch in channels}
    per_channel = {ch: np.array([np.max(row) for row in per_bin[ch]]) for ch in channels}
    fused = np.mean([per_channel[ch] for ch in channels], axis=0)
    maps = {ch: _frame_means(starts, cells[ch], w, frame_count) for ch in channels}
    maps["fused"] = np.mean([maps[ch] for ch in channels], axis=0)
    return Reference(
        starts, bin_scores, presence, per_bin, per_channel, fused,
        smooth(fused, config.smooth_sigma), maps,
    )
