"""Motion and appearance descriptors over a fixed spatial grid.

Layers pass plain arrays, one row per example, and this module owns their
layout.

Motion: frames at the 160x120 working resolution are partitioned into
non-overlapping 10x10 patches (a 16x12 grid). Five consecutive frames
stacked at one grid cell form a 10x10x5 spatio-temporal cube, summarized
by per-voxel 3D gradient magnitudes (CUBE_DIM = 500 values). cube_grid
reads one stack static-first: it gates all 192 cells on the temporal
gradient alone, then describes only the moving ones. It returns their
L2-normalized descriptors as the rows of a (keep.sum(), 500) array, in
row-major cell order, and the (12, 16) mask of the non-static cells; a
static cell has no row. A BinLayout (2x2 quadrants by default) maps each
cell to a spatial bin.

Appearance: a 256x13x13 activation tensor per frame is cut into four 7x7
windows that share the center row/column, each flattened channel-major to
an APP_DIM = 12544 vector and L2-normalized (an all-zero vector stays
zero). bin_activations returns the four vectors as the rows of one array;
APP_LAYOUT is the 2x2 layout their bins cover on the patch grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import ActivationFrame

WORK_W = 160
WORK_H = 120
PATCH = 10
STACK = 5
GRID_W = WORK_W // PATCH  # 16
GRID_H = WORK_H // PATCH  # 12
CUBE_DIM = PATCH * PATCH * STACK  # 500

# A cube is static iff max |temporal gradient| over its voxels < this.
STATIC_EPS = 1e-4

ACT_CHANNELS = 256
ACT_SIZE = 13
APP_WINDOW = (ACT_SIZE + 1) // 2  # 7, center row/col shared by adjacent bins
APP_DIM = APP_WINDOW * APP_WINDOW * ACT_CHANNELS  # 12544


@dataclass(frozen=True)
class BinLayout:
    """Spatial bin grid over the 16x12 patch grid (rows x cols bins).

    Bins are numbered row-major: for the default 2x2 layout, 0 = top-left,
    1 = top-right, 2 = bottom-left, 3 = bottom-right, and each bin covers
    an 8x6-patch (80x60-pixel) quadrant exactly.
    """

    rows: int = 2
    cols: int = 2

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("bin layout needs at least one row and column")
        if GRID_H % self.rows or GRID_W % self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} bins do not partition the "
                f"{GRID_W}x{GRID_H} patch grid evenly"
            )

    @classmethod
    def from_string(cls, text: str) -> "BinLayout":
        """Parse 'RxC' (e.g. '2x2', '1x1')."""
        parts = text.lower().split("x")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise ValueError(f"bad bin layout {text!r}, expected 'RxC'")
        return cls(int(parts[0]), int(parts[1]))

    @property
    def n_bins(self) -> int:
        return self.rows * self.cols

    @property
    def patches_per_row(self) -> int:
        return GRID_H // self.rows

    @property
    def patches_per_col(self) -> int:
        return GRID_W // self.cols

    def patch_bin_grid(self) -> np.ndarray:
        """(12,16) array mapping each patch cell to its bin id."""
        gy, gx = np.mgrid[0:GRID_H, 0:GRID_W]
        return (gy // self.patches_per_row) * self.cols + gx // self.patches_per_col


# ---------------------------------------------------------------------------
# Motion cubes
# ---------------------------------------------------------------------------

def _gradient_magnitude(blocks: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-voxel 3D gradient magnitude of (..., t, y, x) blocks, given
    their temporal gradient ``gt``.

    Central differences in the interior, one-sided at block borders (each
    block's own extent, never across blocks).
    """
    gy = np.gradient(blocks, axis=-2)
    gx = np.gradient(blocks, axis=-1)
    return np.sqrt(gx * gx + gy * gy + gt * gt)


def gradient_feature(voxels: np.ndarray) -> np.ndarray:
    """500 per-voxel gradient magnitudes of one 10x10x5 block.

    ``voxels`` has axes (y, x, t). Output is flattened with x fastest,
    then y, then t: index = t*100 + y*10 + x. Not normalized.
    """
    voxels = np.asarray(voxels, dtype=np.float64)
    if voxels.shape != (PATCH, PATCH, STACK):
        raise ValueError(f"expected a {PATCH}x{PATCH}x{STACK} block, got {voxels.shape}")
    block = voxels.transpose(2, 0, 1)
    return _gradient_magnitude(block, np.gradient(block, axis=0)).ravel()


def _cells(volume: np.ndarray) -> np.ndarray:
    """(12, 16, 5, 10, 10) view of a (5, 120, 160) volume, one block per cell."""
    return volume.reshape(STACK, GRID_H, PATCH, GRID_W, PATCH).transpose(1, 3, 0, 2, 4)


def _temporal_gradient(stack: np.ndarray) -> np.ndarray:
    """``np.gradient(stack, axis=0)`` bit for bit, written by slicing.

    One-sided differences at the first and last frame, central ones
    (halved) in between, as np.gradient takes them at unit spacing.
    """
    f = np.asarray(stack)
    if not np.issubdtype(f.dtype, np.inexact):
        f = f.astype(np.float64)  # np.gradient's promotion of integer input
    gt = np.empty_like(f)
    np.subtract(f[1], f[0], out=gt[0])
    np.subtract(f[2:], f[:-2], out=gt[1:-1])
    gt[1:-1] /= 2.0
    np.subtract(f[-1], f[-2], out=gt[-1])
    return gt


def cube_grid(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors of the moving cells of one 5-frame stack.

    ``stack`` is (5, 120, 160). Returns (rows, keep): keep is the (12, 16)
    bool mask of non-static cells, and rows is (keep.sum(), 500), one
    L2-normalized descriptor per kept cell in row-major cell order, so
    ``rows[mask[keep]]`` selects the cells of any (12, 16) ``mask``. The
    temporal gradient, the only input of the static gate, is taken once
    on the whole stack; the spatial gradients only on the kept cells. Per
    cell, the magnitudes are bit-identical to gradient_feature on the
    corresponding block, and the norm is taken row-wise
    (``np.linalg.norm(f[None], axis=-1)``).
    """
    if np.shape(stack) != (STACK, WORK_H, WORK_W):
        raise ValueError(
            f"expected a ({STACK}, {WORK_H}, {WORK_W}) frame stack, got {np.shape(stack)}"
        )
    gt = _temporal_gradient(stack)
    np.abs(gt, out=gt)  # the gate reads |d/dt|, the magnitude only its square
    # peak |d/dt| per pixel, then over each cell's rows and columns
    peak = gt.max(axis=0).reshape(GRID_H, PATCH, WORK_W).max(axis=1)
    keep = peak.reshape(GRID_H, GRID_W, PATCH).max(axis=2) >= STATIC_EPS
    blocks, gtb = _cells(stack), _cells(gt)
    if not keep.all():  # gathering every cell would only copy the views
        blocks, gtb = blocks[keep], gtb[keep]
    rows = _gradient_magnitude(blocks, gtb).reshape(-1, CUBE_DIM)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    np.divide(rows, norms, out=rows, where=norms > 0)
    return rows, keep


# ---------------------------------------------------------------------------
# Appearance bins
# ---------------------------------------------------------------------------

_APP_OFFSETS = (0, ACT_SIZE - APP_WINDOW)  # row/col 6 shared by both windows
# top-left corners (row, col) of the 7x7 windows, in bin order
_APP_WINDOWS = tuple((r0, c0) for r0 in _APP_OFFSETS for c0 in _APP_OFFSETS)
# the appearance bins on the patch grid: 0 = top-left ... 3 = bottom-right
APP_LAYOUT = BinLayout(len(_APP_OFFSETS), len(_APP_OFFSETS))


def bin_activations(act: ActivationFrame) -> np.ndarray:
    """(4, 12544) per-bin vectors from one 256x13x13 activation tensor.

    Row b is bin b of APP_LAYOUT. Per bin, each channel's 7x7 window is
    flattened row-major to 49 values and the 256 channel blocks are
    concatenated in channel order (position of unit (ch, r, c) in bin b =
    ch*49 + (r-r0)*7 + (c-c0)). Rows are L2-normalized; an all-zero row is
    passed through unchanged.
    """
    if (act.channels, act.height, act.width) != (ACT_CHANNELS, ACT_SIZE, ACT_SIZE):
        raise ValueError(
            f"activation tensor is {act.channels}x{act.height}x{act.width}, "
            f"needs {ACT_CHANNELS}x{ACT_SIZE}x{ACT_SIZE}"
        )
    values = np.asarray(act.values, dtype=np.float64)
    out = np.empty((len(_APP_WINDOWS), APP_DIM))
    for b, (r0, c0) in enumerate(_APP_WINDOWS):
        vec = values[:, r0 : r0 + APP_WINDOW, c0 : c0 + APP_WINDOW].ravel()
        norm = np.linalg.norm(vec)
        out[b] = vec / norm if norm > 0 else vec
    return out
