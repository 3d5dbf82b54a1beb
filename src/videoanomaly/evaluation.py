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
ground-truth anomalous pixels; a negative frame is a false positive as
soon as any pixel is detected (a fixed rule). Each frame's detection
status flips at exactly one critical threshold, so the sweep reduces to
a ROC over per-frame critical scores: the (floor(0.4 n) + 1)-th largest
of a positive frame's n masked pixels, the largest of a negative frame's.

Certified critical scores: pixel_auc smooths a map only where no bound
covers it. For a grid of +0.0 and positive cells, the maps run
writes, the smoothed map has the closed form A = P_y grid P_x^T / den
(P_y and P_x sum the Gaussian taps over each grid cell), within
delta = 1e-12 A of smooth_map's value. The k-th largest A, widened by
delta, brackets a frame's critical score; equal ends are the score
itself. When they differ, only the pixels whose interval meets the
bracket are smoothed exactly, on their own rows, by the numpy blur that
does scipy.ndimage.convolve1d's arithmetic in its order. Any other grid
(a negative, -0.0 or non-finite cell, or one so small or large that a
product could underflow or overflow) is smoothed exactly over the ranked
pixels' bounding box, and sigma 0 ranks the upsampled grid. So every
score, and every report, is bit-identical to ranking smooth_map's
output, and the package needs numpy alone.
"""

from __future__ import annotations

import functools
import json
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AlignmentError, CapabilityError, DataError, FormatError
from .features import APP_LAYOUT, GRID_H, GRID_W
from .ingest import GroundTruth
from .pipeline import DetectionResult, channel_mean, coverage_mean, gaussian_taps

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
    return np.asarray(grid)[np.ix_(_pixel_cells(height, GRID_H), _pixel_cells(width, GRID_W))]


def _pixel_cells(length: int, cells: int) -> np.ndarray:
    """The grid cell of each pixel along an axis of ``length`` pixels."""
    return (np.arange(length) * cells) // length


# values per _blur block (padded rows): the block's three arrays stay in a
# core's L2 cache, which made a (360, 640) pass about 1.5x faster than
# whole-map calls
_BLUR_BLOCK = 1 << 15


def _blur(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Convolve each row of ``x`` with the symmetric ``taps`` over zero padding.

    The arithmetic is scipy.ndimage.convolve1d's (mode="constant") in
    scipy's order: out = x*w0, then out += (x[i-j] + x[i+j])*w_j from the
    farthest pair inward. So the result equals convolve1d's bit for bit,
    except that a NaN may carry the other sign bit.
    """
    radius = taps.size // 2
    h, n = x.shape
    out = np.empty((h, n))
    rows = max(1, min(h, _BLUR_BLOCK // (n + 2 * radius)))
    pad = np.zeros((rows, n + 2 * radius))
    pair = np.empty((rows, n))
    with np.errstate(invalid="ignore", over="ignore"):
        for a in range(0, h, rows):
            b = min(a + rows, h)
            p, t, o = pad[: b - a], pair[: b - a], out[a:b]
            p[:, radius : radius + n] = x[a:b]
            np.multiply(p[:, radius : radius + n], taps[radius], out=o)
            for j in range(radius, 0, -1):
                np.add(p[:, radius - j : radius - j + n], p[:, radius + j : radius + j + n], out=t)
                np.multiply(t, taps[radius - j], out=t)
                np.add(o, t, out=o)
    return out


class _Axis(NamedTuple):
    """One axis of the pixel smoothing at one (length, sigma)."""

    taps: np.ndarray  # gaussian_taps(sigma, length)
    cell: np.ndarray  # (length,) grid cell of each pixel, as grid_to_pixels
    weight: np.ndarray  # (length, cells): taps from each pixel into each cell
    ones: np.ndarray  # (length,) the pass applied to a line of ones


@functools.lru_cache(maxsize=16)
def _axis(length: int, cells: int, sigma_px: float) -> _Axis:
    """The closed form's factor along one axis of ``length`` pixels over
    ``cells`` grid cells."""
    taps = gaussian_taps(sigma_px, length)
    radius = taps.size // 2
    cell = _pixel_cells(length, cells)
    weight = np.zeros((length, cells))
    for c in np.unique(cell):
        offsets = np.flatnonzero(cell == c)[None, :] - np.arange(length)[:, None]
        near = np.abs(offsets) <= radius
        weight[:, c] = np.where(near, taps[np.clip(offsets, -radius, radius) + radius], 0.0).sum(axis=1)
    axis = _Axis(taps, cell, weight, _blur(np.ones((1, length)), taps)[0])
    for array in axis:  # shared by every caller through the cache
        array.setflags(write=False)
    return axis


@functools.lru_cache(maxsize=8)
def _smoothing_den(shape: tuple[int, int], sigma_px: float) -> np.ndarray:
    """smooth_map's renormalization: the smoothed all-ones image, read-only."""
    h, w = shape
    col = _blur(np.ones((1, h)), gaussian_taps(sigma_px, h))
    den = _blur(np.repeat(col.T, w, axis=1), gaussian_taps(sigma_px, w))
    den.setflags(write=False)
    return den


def smooth_map(pixels: np.ndarray, sigma_px: float) -> np.ndarray:
    """2D Gaussian smoothing, truncated and renormalized at image borders.

    Each axis has radius ceil(3*sigma_px), capped at its length (see
    gaussian_taps): every column is blurred, then every row. pixel_auc
    does not smooth whole maps; this is the definition its critical
    scores reproduce.
    """
    if not 0 <= sigma_px < math.inf:
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma_px}")
    if sigma_px == 0:
        return pixels.astype(np.float64, copy=True)
    h, w = pixels.shape
    cols = _blur(pixels.astype(np.float64).T, gaussian_taps(sigma_px, h)).T
    num = _blur(cols, gaussian_taps(sigma_px, w))
    return num / _smoothing_den(pixels.shape, float(sigma_px))


def cube_score_map(result: DetectionResult, channel: str = "fused") -> np.ndarray:
    """(T, 12, 16) per-frame spatial score grids from a detection run.

    Window scores land on the grid cells of their bin: for the motion
    channel only on cells with at least one surviving (non-static) cube in
    that window, elsewhere 0; for the appearance channel uniformly on the
    whole bin (bins are its finest granularity). Cell values then follow
    the frame rule (coverage_mean): mean over covering windows, the head
    and tail frames backfilled from the first and last covered frame.
    channel 'fused' averages the enabled channels.
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
    return channel_mean(per_channel)


def _kth_largest(values: np.ndarray, k: int):
    """k-th largest value, np.partition's pick: NaN ranks above everything.
    A top other than zero is max(); a zero top may tie -0.0 with +0.0,
    where max() and np.partition can pick different signs."""
    if k == 1:
        top = values.max()
        if top != 0:
            return top
    return np.partition(values, values.size - k)[values.size - k]


# relative bound of the closed form: see _certified_critical
_REL_BOUND = 1e-12


def _certified_critical(grid, mask: np.ndarray, sigma_px: float) -> float:
    """Largest threshold at which the frame counts as detected on the map
    smooth_map(grid_to_pixels(grid, *mask.shape), sigma_px), bit for bit,
    mostly without smoothing the map: the (floor(0.4 n) + 1)-th largest of
    a positive frame's n masked pixels, or a negative frame's largest.

    For a grid whose cells are all +0.0 or positive, the closed form
    A = P_y grid P_x^T / den (P_y[i, gy] sums the taps from pixel row i
    into grid row gy) and the blur both sum nonnegative terms, so they lie
    within a few hundred ulps of each other, and delta = 1e-12 A bounds
    |A - blur| with a margin of about 30x at radius 30 (the factor grows
    with the radius past about 270). delta grows with A, so the k-th
    largest A, widened by its own delta, brackets the critical score:
    equal ends (a score of zero) are its exact value. Otherwise the pixels
    whose interval meets the bracket are smoothed exactly, on their rows
    only, and the rank finishes among them after the pixels certainly
    above. Any other grid is smoothed exactly over the ranked pixels'
    bounding box: one with a negative, -0.0 or non-finite cell, or a cell
    so small or large that a product could underflow or overflow. Sigma 0
    ranks the upsampled grid.
    """
    h, w = mask.shape
    grid = np.asarray(grid, dtype=np.float64)
    if not grid.view(np.uint64).any():  # every cell +0.0, so every pixel
        return 0.0
    # the ranked pixels and their rank: a positive frame's masked pixels, as
    # flat indices into their bounding box (pick), or a negative frame's map
    if mask.any():
        rs, cs = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        rows, cols = slice(rs[0], rs[-1] + 1), slice(cs[0], cs[-1] + 1)
        pick = np.flatnonzero(mask[rows, cols])
        k = (2 * pick.size) // 5 + 1
    else:
        rows, cols, pick, k = slice(0, h), slice(0, w), None, 1

    def ranked(box: np.ndarray) -> np.ndarray:
        """The ranked pixels of a map's [rows, cols] box, in row-major order."""
        return box.ravel() if pick is None else box.ravel()[pick]

    if sigma_px == 0:
        return float(_kth_largest(ranked(grid_to_pixels(grid, h, w)[rows, cols]), k))
    ay, ax = _axis(h, GRID_H, sigma_px), _axis(w, GRID_W, sigma_px)
    taps = np.concatenate([ay.taps, ax.taps])
    tmin = taps[taps > 0].min()
    covered = ((grid.view(np.uint64) == 0)  # +0.0
               | ((grid * tmin * tmin > 1e-270) & (grid < 1e300 / (ay.taps.sum() * ax.taps.sum()))))
    if not covered.all():  # the exact blur of the whole box
        box = _exact_block(grid, np.arange(h)[rows], cols.start, cols.stop, ay, ax, sigma_px)
        return float(_kth_largest(ranked(box), k))
    radius = max(ay.taps.size, ax.taps.size) // 2
    rel = max(_REL_BOUND, 16 * (radius + 8) * np.finfo(np.float64).eps)
    den = _smoothing_den((h, w), sigma_px)[rows, cols]

    # the closed form A at the ranked pixels
    a = ranked((ay.weight[rows] @ grid) @ ax.weight[cols].T / den)
    delta = rel * a
    lo, hi = a - delta, np.add(a, delta, out=delta)
    # delta = rel * A is monotone in A: one rank brackets the score
    t = _kth_largest(a, k)
    t_lo, t_hi = t - rel * t, t + rel * t
    if t_lo == t_hi:
        return float(t_lo)
    above = lo > t_hi
    at = np.flatnonzero(~(above | (hi < t_lo)))
    ri, ci = np.divmod(at if pick is None else pick[at], den.shape[1])
    ri, ci = ri + rows.start, ci + cols.start  # row-major order: ri is sorted
    first = np.r_[True, ri[1:] != ri[:-1]]
    block = _exact_block(grid, ri[first], ci.min(), ci.max() + 1, ay, ax, sigma_px)
    exact = block[np.cumsum(first) - 1, ci - ci.min()]
    return float(_kth_largest(exact, k - int(np.count_nonzero(above))))


def _exact_block(grid: np.ndarray, rows: np.ndarray, c0: int, c1: int, ay: _Axis, ax: _Axis,
                 sigma_px: float) -> np.ndarray:
    """smooth_map(grid_to_pixels(grid, h, w), sigma_px)[rows, c0:c1], bit
    for bit, for sorted distinct ``rows``.

    The vertical pass treats each column on its own, and the upsampled
    grid's pixel columns repeat its grid columns, so the pass runs once
    per grid column. Rows with equal vertical-pass values and equal border
    weight (ay.ones) are equal, so each distinct row is smoothed
    horizontally once, and only over the columns that columns [c0, c1)
    read.
    """
    vertical = _blur(grid[ay.cell].T, ay.taps).T  # (h, grid columns)
    radius = ax.taps.size // 2
    lo, hi = max(c0 - radius, 0), min(c1 + radius, ax.cell.size)
    g0, g1 = ax.cell[lo], ax.cell[hi - 1] + 1  # the grid columns they reach
    key = np.concatenate([vertical[rows, g0:g1], ay.ones[rows, None]], axis=1)
    _, first, copies = np.unique(key.view(np.uint64), axis=0, return_index=True, return_inverse=True)
    src = rows[first]
    # outputs in [c0, c1) read inputs in [lo, hi) only, and _blur's zero
    # padding falls where the image ends
    num = _blur(vertical[src][:, ax.cell[lo:hi]], ax.taps)[:, c0 - lo : c1 - lo]
    den = _smoothing_den((ay.cell.size, ax.cell.size), sigma_px)[src, c0:c1]
    return (num / den)[copies.ravel()]


def pixel_auc(
    maps: Sequence[np.ndarray],
    gt: GroundTruth,
    sigma_px: float = 10.0,
) -> RocReport:
    """Pixel-level ROC report under the 40%-overlap detection rule.

    ``maps`` holds one (12, 16) grid per frame: a (T, 12, 16) array or
    any length-T sequence of grids, of bools, integers or floats.
    """
    if gt.pixel_masks is None:
        raise CapabilityError("pixel-level evaluation needs per-pixel ground-truth masks")
    if not 0 <= sigma_px < math.inf:
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma_px}")
    maps = _maps_array(maps, "pixel_auc")
    if len(maps) != len(gt.pixel_masks):
        raise AlignmentError(
            f"{len(maps)} score maps but {len(gt.pixel_masks)} ground-truth masks"
        )
    criticals = np.empty(len(maps))
    for i, (grid, mask) in enumerate(zip(maps, gt.pixel_masks)):
        criticals[i] = _certified_critical(grid, mask, float(sigma_px))
    return _roc(criticals, gt.frame_labels, "pixel")


# ---------------------------------------------------------------------------
# Map files
# ---------------------------------------------------------------------------

def _maps_array(maps, where: str) -> np.ndarray:
    """``maps`` as one (T, 12, 16) array of bools, integers or floats, else DataError."""
    try:
        grids = np.asarray(maps)
    except ValueError:  # grids of unequal shapes
        grids = np.empty(0)
    if grids.shape[1:] != (GRID_H, GRID_W) or grids.dtype.kind not in "biuf":
        raise DataError(
            f"{where}: maps must be (frames, {GRID_H}, {GRID_W}) bools, integers or floats"
        )
    return grids


def write_maps_npz(result: DetectionResult, path) -> None:
    """Save per-frame score grids, one (T,12,16) array per channel + 'fused'.

    'fused' is the mean of the channel maps, the same arithmetic as
    cube_score_map(result, "fused"), so each map is computed once.
    """
    arrays = {ch: cube_score_map(result, ch) for ch in result.series.channels}
    first, *rest = arrays.values()
    arrays["fused"] = channel_mean([first.copy(), *rest])
    np.savez_compressed(path, **arrays)


def load_maps_npz(path, channel: str = "fused") -> np.ndarray:
    """Load one channel's (T, 12, 16) score grids from an npz archive.

    Maps of another shape or dtype than pixel_auc takes are a DataError.
    """
    try:
        # a file np.load opens itself stays open if reading the zip fails
        with open(path, "rb") as fh:
            data = np.load(fh)
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
    return _maps_array(grids, path)
