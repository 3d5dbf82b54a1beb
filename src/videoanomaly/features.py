"""Motion and appearance descriptors over a fixed spatial grid.

Motion: frames at the 160x120 working resolution are partitioned into
non-overlapping 10x10 patches (a 16x12 grid). Five consecutive frames
stacked at one grid cell form a 10x10x5 spatio-temporal cube, summarized
by per-voxel 3D gradient magnitudes (500 values). Cubes with negligible
temporal change are dropped as static; survivors are L2-normalized and
assigned to a spatial bin (2x2 quadrants by default).

Appearance: a 256x13x13 activation tensor per frame is cut into four 7x7
windows that share the center row/column, each flattened channel-major to
a 12544-dim vector and L2-normalized (an all-zero vector stays zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ingest import ActivationFrame, Frame

WORK_W = 160
WORK_H = 120
PATCH = 10
STACK = 5
GRID_W = WORK_W // PATCH  # 16
GRID_H = WORK_H // PATCH  # 12

# A cube is static iff max |temporal gradient| over its voxels < this.
STATIC_EPS = 1e-4

ACT_CHANNELS = 256
ACT_SIZE = 13
APP_WINDOW = (ACT_SIZE + 1) // 2  # 7, center row/col shared by adjacent bins
APP_DIM = APP_WINDOW * APP_WINDOW * ACT_CHANNELS  # 12544


@dataclass
class CubeFeature:
    """L2-normalized 500-dim gradient descriptor of one 10x10x5 cube."""

    frame_start: int
    grid_x: int
    grid_y: int
    bin: int
    values: np.ndarray


@dataclass
class AppearanceFeature:
    """Per-bin 12544-dim appearance vector for one frame."""

    frame: int
    bin: int
    values: np.ndarray


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

    def bin_of_patch(self, grid_x: int, grid_y: int) -> int:
        if not (0 <= grid_x < GRID_W and 0 <= grid_y < GRID_H):
            raise ValueError(
                f"patch ({grid_x},{grid_y}) outside the {GRID_W}x{GRID_H} grid"
            )
        return (grid_y // self.patches_per_row) * self.cols + (
            grid_x // self.patches_per_col
        )

    def patch_bin_grid(self) -> np.ndarray:
        """(12,16) array mapping each patch cell to its bin id."""
        gy, gx = np.mgrid[0:GRID_H, 0:GRID_W]
        return (gy // self.patches_per_row) * self.cols + gx // self.patches_per_col


DEFAULT_LAYOUT = BinLayout(2, 2)


def bin_of_patch(grid_x: int, grid_y: int, layout: BinLayout = DEFAULT_LAYOUT) -> int:
    """Bin id of a patch-grid cell (default 2x2 quadrants)."""
    return layout.bin_of_patch(grid_x, grid_y)


# ---------------------------------------------------------------------------
# Motion cubes
# ---------------------------------------------------------------------------

def _gradient_magnitude(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-voxel 3D gradient magnitude for (..., t, y, x) blocks.

    Central differences in the interior, one-sided at block borders (each
    block's own extent, never across blocks). Returns (magnitude, gt).
    """
    gt = np.gradient(blocks, axis=-3)
    gy = np.gradient(blocks, axis=-2)
    gx = np.gradient(blocks, axis=-1)
    return np.sqrt(gx * gx + gy * gy + gt * gt), gt


def gradient_feature(voxels: np.ndarray) -> np.ndarray:
    """500 per-voxel gradient magnitudes of one 10x10x5 block.

    ``voxels`` has axes (y, x, t). Output is flattened with x fastest,
    then y, then t: index = t*100 + y*10 + x. Not normalized.
    """
    voxels = np.asarray(voxels, dtype=np.float64)
    if voxels.shape != (PATCH, PATCH, STACK):
        raise ValueError(f"expected a {PATCH}x{PATCH}x{STACK} block, got {voxels.shape}")
    mag, _ = _gradient_magnitude(voxels.transpose(2, 0, 1))
    return mag.ravel()


def _cube_grid(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All 16x12 cube descriptors of one 5-frame stack at once.

    ``stack`` is (5, 120, 160). Returns (vectors, keep) where vectors is
    (12, 16, 500) with surviving cells L2-normalized, and keep is a
    (12, 16) bool mask of non-static cells. Bit-identical per cell to
    gradient_feature on the corresponding block.
    """
    blocks = stack.reshape(STACK, GRID_H, PATCH, GRID_W, PATCH).transpose(1, 3, 0, 2, 4)
    mag, gt = _gradient_magnitude(blocks)
    keep = np.abs(gt).max(axis=(2, 3, 4)) >= STATIC_EPS
    vectors = mag.reshape(GRID_H, GRID_W, PATCH * PATCH * STACK)
    norms = np.linalg.norm(vectors, axis=-1, keepdims=True)
    np.divide(vectors, norms, out=vectors, where=norms > 0)
    return vectors, keep


def extract_cubes(
    frames: Sequence[Frame], layout: BinLayout = DEFAULT_LAYOUT
) -> list[CubeFeature]:
    """Non-static, L2-normalized cubes of 5 consecutive 160x120 frames.

    Cubes are returned row-major by (grid_y, grid_x); between 0 and 48 per
    bin, 0 to 192 total for the 2x2 layout.
    """
    if len(frames) != STACK:
        raise ValueError(f"expected {STACK} frames, got {len(frames)}")
    for a, b in zip(frames, frames[1:]):
        if b.index != a.index + 1:
            raise ValueError(f"frames not consecutive: {a.index} then {b.index}")
    for f in frames:
        if (f.width, f.height) != (WORK_W, WORK_H):
            raise ValueError(
                f"frame {f.index} is {f.width}x{f.height}, needs {WORK_W}x{WORK_H}"
            )
    stack = np.stack([f.pixels for f in frames])
    vectors, keep = _cube_grid(stack)
    start = frames[0].index
    return [
        CubeFeature(start, gx, gy, layout.bin_of_patch(gx, gy), vectors[gy, gx])
        for gy in range(GRID_H)
        for gx in range(GRID_W)
        if keep[gy, gx]
    ]


# ---------------------------------------------------------------------------
# Appearance bins
# ---------------------------------------------------------------------------

_APP_WINDOWS = (
    (0, 0),
    (0, ACT_SIZE - APP_WINDOW),
    (ACT_SIZE - APP_WINDOW, 0),
    (ACT_SIZE - APP_WINDOW, ACT_SIZE - APP_WINDOW),
)  # top-left corners (row, col) of the four 7x7 windows; row/col 6 shared


def bin_activations(act: ActivationFrame) -> list[AppearanceFeature]:
    """Four per-bin 12544-dim vectors from one 256x13x13 activation tensor.

    Per bin, each channel's 7x7 window is flattened row-major to 49 values
    and the 256 channel blocks are concatenated in channel order (position
    of unit (ch, r, c) in bin b = ch*49 + (r-r0)*7 + (c-c0)). Vectors are
    L2-normalized; an all-zero vector is passed through unchanged.
    """
    if (act.channels, act.height, act.width) != (ACT_CHANNELS, ACT_SIZE, ACT_SIZE):
        raise ValueError(
            f"activation tensor is {act.channels}x{act.height}x{act.width}, "
            f"needs {ACT_CHANNELS}x{ACT_SIZE}x{ACT_SIZE}"
        )
    values = np.asarray(act.values, dtype=np.float64)
    out = []
    for b, (r0, c0) in enumerate(_APP_WINDOWS):
        vec = values[:, r0 : r0 + APP_WINDOW, c0 : c0 + APP_WINDOW].ravel()
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        out.append(AppearanceFeature(act.index, b, vec))
    return out
