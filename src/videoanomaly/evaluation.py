"""ROC evaluation at frame and pixel level.

Frame level: a frame is positive if it contains any anomalous pixel; the
ROC is swept over every distinct score (equal scores form one vertex) and
the AUC is the trapezoidal area, which equals the Mann-Whitney statistic
with ties counted 1/2.

Pixel level: a detection map is a (12, 16) grid at the cube-grid
resolution, one per frame; cube_score_map and load_maps_npz return a
run's maps as one (T, 12, 16) array. Each grid is upsampled
(nearest-neighbor over patch extents) to mask resolution and spatially
smoothed. At a threshold t, a positive frame is a true positive only if
the detected pixels (map >= t) cover strictly more than 40% of its
ground-truth anomalous pixels; a negative frame is a false positive
as soon as any pixel is detected (configurable via negative_min_pixels).
Each frame's detection status flips at exactly one critical threshold, so
the sweep reduces to a ROC over per-frame critical scores.
"""

from __future__ import annotations

import functools
import json
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, CapabilityError, DataError, FormatError
from .features import APP_LAYOUT, GRID_H, GRID_W
from .ingest import GroundTruth
from .pipeline import DetectionResult, coverage_mean, gaussian_taps

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class RocReport:
    """ROC vertices (descending thresholds, +inf sentinel first) and AUC."""

    level: str
    auc: float
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def to_dict(self) -> dict:
        points = [
            {
                "threshold": None if math.isinf(t) else float(t),
                "fpr": float(f),
                "tpr": float(p),
            }
            for t, f, p in zip(self.thresholds, self.fpr, self.tpr)
        ]
        return {"level": self.level, "auc": self.auc, "points": points}

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def write_roc_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("fpr,tpr\n")
            for f, p in zip(self.fpr, self.tpr):
                fh.write(f"{f:.17g},{p:.17g}\n")


def _roc(scores: np.ndarray, labels: np.ndarray, level: str) -> RocReport:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise AlignmentError(
            f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors"
        )
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos + neg != labels.size:
        raise DataError("labels must be 0 or 1")
    if pos == 0 or neg == 0:
        raise DataError(
            f"AUC undefined: need both classes, got {pos} positives / {neg} negatives"
        )
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order] == 1
    # one ROC vertex per distinct score: cumulative counts at group ends
    last_of_group = np.flatnonzero(np.diff(s) != 0)
    ends = np.concatenate([last_of_group, [s.size - 1]])
    cum_tp = np.cumsum(y)[ends]
    cum_fp = np.cumsum(~y)[ends]
    thresholds = np.concatenate([[np.inf], s[ends]])
    tpr = np.concatenate([[0.0], cum_tp / pos])
    fpr = np.concatenate([[0.0], cum_fp / neg])
    auc = float(_trapezoid(tpr, fpr))
    return RocReport(level, auc, thresholds, fpr, tpr)


def frame_auc(scores, labels) -> RocReport:
    """Frame-level ROC report over per-frame scores and binary labels."""
    return _roc(np.asarray(scores, dtype=np.float64), np.asarray(labels), "frame")


# ---------------------------------------------------------------------------
# Pixel level
# ---------------------------------------------------------------------------

def grid_to_pixels(grid: np.ndarray, height: int, width: int) -> np.ndarray:
    """Nearest-neighbor upsampling of a (12, 16) grid over patch extents.

    Grid cell (gy, gx) covers pixels [gx*W/16, (gx+1)*W/16) x
    [gy*H/12, (gy+1)*H/12): at the 160x120 working size that is the exact
    10x10 patch box.
    """
    ys = (np.arange(height) * GRID_H) // height
    xs = (np.arange(width) * GRID_W) // width
    return np.asarray(grid)[np.ix_(ys, xs)]


@functools.lru_cache(maxsize=8)
def _smoothing_den(shape: tuple[int, int], sigma_px: float) -> np.ndarray:
    """smooth_map's renormalization: the smoothed all-ones image, read-only."""
    from scipy.ndimage import convolve1d

    taps = gaussian_taps(sigma_px)
    ones = np.ones(shape)
    den = convolve1d(
        convolve1d(ones, taps, axis=0, mode="constant"), taps, axis=1, mode="constant"
    )
    den.setflags(write=False)
    return den


def smooth_map(pixels: np.ndarray, sigma_px: float) -> np.ndarray:
    """2D Gaussian smoothing, truncated and renormalized at image borders.

    The vertical pass runs once per run of bitwise-identical adjacent
    columns (an upsampled grid has one run per patch column) and is then
    repeated across the run: the pass treats each column on its own, so
    the result is bit-identical to convolving every column.
    """
    if not 0 <= sigma_px < math.inf:
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma_px}")
    if sigma_px == 0:
        return pixels.astype(np.float64, copy=True)
    # imported here: a detection run that never smooths a map does not
    # pay the memory of loading scipy.ndimage
    from scipy.ndimage import convolve1d

    taps = gaussian_taps(sigma_px)
    pixels = pixels.astype(np.float64)
    bits = pixels.view(np.uint64)
    firsts = np.flatnonzero(np.r_[True, (bits[:, 1:] != bits[:, :-1]).any(axis=0)])
    runs = np.diff(np.r_[firsts, pixels.shape[1]])
    cols = convolve1d(pixels[:, firsts], taps, axis=0, mode="constant")
    num = convolve1d(np.repeat(cols, runs, axis=1), taps, axis=1, mode="constant")
    return num / _smoothing_den(pixels.shape, float(sigma_px))


def cube_score_map(result: DetectionResult, channel: str = "fused") -> np.ndarray:
    """(T, 12, 16) per-frame spatial score grids from a detection run.

    Window scores land on the grid cells of their bin: for the motion
    channel only on cells with at least one surviving (non-static) cube in
    that window, elsewhere 0; for the appearance channel uniformly on the
    whole bin (bins are its finest granularity). Cell values then follow
    the frame rule: mean over covering windows, nearest-neighbor backfill
    for uncovered frames. channel 'fused' averages the enabled channels.
    """
    enabled = result.series.channels
    if channel == "fused":
        wanted = enabled
    elif channel in enabled:
        wanted = (channel,)
    else:
        raise CapabilityError(f"channel {channel!r} was not part of the run {enabled}")
    t = result.frame_count
    per_channel = []
    for ch in wanted:  # (W, 12, 16) cell scores per channel
        if ch == "motion":
            cells = result.bin_scores[ch][:, result.config.bins.patch_bin_grid()] * result.presence
        else:
            cells = result.bin_scores[ch][:, APP_LAYOUT.patch_bin_grid()]
        rows = cells.reshape(len(cells), GRID_H * GRID_W)
        flat = coverage_mean(result.windows, rows, result.config.w, 0, t)
        per_channel.append(flat.reshape(t, GRID_H, GRID_W))
    return np.mean(per_channel, axis=0)


def _critical_score(pixels: np.ndarray, mask: np.ndarray | None, negative_min_pixels: int) -> float:
    """Largest threshold at which this frame counts as detected.

    Positive frame: detected iff strictly more than 40% of its ground-truth
    pixels have map >= t, so the flip happens at the (floor(0.4*n)+1)-th
    largest masked value. Negative frame: at the negative_min_pixels-th
    largest value overall (default 1 = any detected pixel).
    """
    if mask is not None and mask.any():
        vals = pixels[mask]
        # floor(0.4 * n) + 1 in exact integer arithmetic
        need = (2 * vals.size) // 5 + 1
        return float(np.partition(vals, vals.size - need)[vals.size - need])
    flat = pixels.ravel()
    j = min(negative_min_pixels, flat.size)
    return float(np.partition(flat, flat.size - j)[flat.size - j])


def pixel_auc(
    maps: Sequence[np.ndarray],
    gt: GroundTruth,
    sigma_px: float = 10.0,
    negative_min_pixels: int = 1,
) -> RocReport:
    """Pixel-level ROC report under the 40%-overlap detection rule.

    ``maps`` holds one (12, 16) grid per frame: a (T, 12, 16) array or
    any length-T sequence of grids.
    """
    if gt.pixel_masks is None:
        raise CapabilityError("pixel-level evaluation needs per-pixel ground-truth masks")
    if negative_min_pixels < 1:
        raise ValueError("negative_min_pixels must be >= 1")
    if len(maps) != len(gt.pixel_masks):
        raise AlignmentError(
            f"{len(maps)} score maps but {len(gt.pixel_masks)} ground-truth masks"
        )
    criticals = np.empty(len(maps))
    for i, (grid, mask) in enumerate(zip(maps, gt.pixel_masks)):
        h, wd = mask.shape
        pixels = smooth_map(grid_to_pixels(grid, h, wd), sigma_px)
        label = gt.frame_labels[i] == 1
        criticals[i] = _critical_score(pixels, mask if label else None, negative_min_pixels)
    return _roc(criticals, gt.frame_labels, "pixel")


# ---------------------------------------------------------------------------
# Map files
# ---------------------------------------------------------------------------

def write_maps_npz(result: DetectionResult, path) -> None:
    """Save per-frame score grids, one (T,12,16) array per channel + 'fused'.

    'fused' is the mean of the channel maps, the same arithmetic as
    cube_score_map(result, "fused"), so each map is computed once.
    """
    arrays = {ch: cube_score_map(result, ch) for ch in result.series.channels}
    arrays["fused"] = np.mean(list(arrays.values()), axis=0)
    np.savez_compressed(path, **arrays)


def load_maps_npz(path, channel: str = "fused") -> np.ndarray:
    """Load one channel's (T, 12, 16) score grids from an npz archive."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise FormatError(f"{path}: not an npz archive")
        with data:
            if channel not in data:
                raise CapabilityError(
                    f"{path}: no {channel!r} maps present (has {sorted(data.keys())})"
                )
            grids = data[channel]
    # zipfile raises RuntimeError for an entry flagged as encrypted or with
    # an unknown compression method; TokenError is numpy's .npy header parser
    except (ValueError, EOFError, RuntimeError, zipfile.BadZipFile, zlib.error,
            tokenize.TokenError) as exc:
        raise FormatError(f"{path}: not a readable npz archive ({exc})") from None
    # a member without the .npy header comes back as raw bytes
    if not isinstance(grids, np.ndarray) or grids.shape[1:] != (GRID_H, GRID_W):
        raise DataError(f"{path}: maps must be (frames, {GRID_H}, {GRID_W})")
    return grids
