"""Motion and appearance descriptors over a fixed spatial grid.

Layers pass plain arrays, one row per example, and this module owns their
layout.

Motion: frames at the 160x120 working resolution are partitioned into
non-overlapping 10x10 patches (a 16x12 grid). Five consecutive frames
stacked at one grid cell form a 10x10x5 spatio-temporal cube, summarized
by per-voxel 3D gradient magnitudes (CUBE_DIM = 500 values). A slot is
read static-first: each slot's SlotGate holds that slot's frames and
computes the temporal differences each one brings as it is folded in,
keeping their per-pixel maxima (the central ones halved after their max,
which is exact). After the fifth frame it gives the (12, 16) mask of the
cells whose peak |d/dt| reaches STATIC_EPS; cube_rows describes only
those. The streaming store folds each frame into every open slot's gate
as it arrives, so the push that completes a slot gates one frame, not
five; cube_grid folds a whole stack through one gate. A static slot
returns before any stack or gradient is built. cube_grid returns
the L2-normalized descriptors as the rows of a (keep.sum(), 500) array,
in row-major cell order, and the mask; a static cell has no row. A
BinLayout (2x2 quadrants by default) maps each cell to a spatial bin.

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


def _frames(stack) -> list[np.ndarray]:
    """The five (120, 160) frames of ``stack``, a (5, 120, 160) array or a
    sequence of five frames, in the inexact dtype np.stack and np.gradient
    would give them."""
    frames = [np.asarray(f) for f in stack]
    shapes = [f.shape for f in frames]
    if shapes != [(WORK_H, WORK_W)] * STACK:
        raise ValueError(
            f"expected a stack of {STACK} frames of {(WORK_H, WORK_W)}, got {shapes}"
        )
    dtype = np.result_type(*frames)
    if not np.issubdtype(dtype, np.inexact):
        dtype = np.float64  # np.gradient's promotion of integer input
    return [f.astype(dtype, copy=False) for f in frames]


def abs_diff(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|a - b|, written to ``out``."""
    np.subtract(a, b, out=out)
    return np.abs(out, out=out)


_CELL_COLUMNS = np.arange(0, WORK_W, PATCH)  # first pixel column of each cell


class SlotGate:
    """The static gate of a slot, folded in one frame at a time.

    The gate holds the slot's frames (``frames``) and computes the
    differences that end at each one: the one-sided |f1-f0| (t=1) and
    |f4-f3| (t=4), and the central |f2-f0|, |f3-f1|, |f4-f2| (t=2, 3, 4).
    It keeps |f1-f0| and the per-pixel maximum of the central ones in two
    buffers of its own, and writes each later difference to a third.
    After the fifth frame the central maximum is halved, then meets both
    one-sided differences: that is the per-pixel peak of
    ``abs(np.gradient(stack, axis=0))`` over time bit for bit, because
    halving is exact up to the rounding of a subnormal, monotone and
    sign-symmetric, and np.maximum is exact and propagates NaN in either
    order. clear() drops the frames, so the gate serves another slot.
    """

    __slots__ = ("frames", "_one_sided", "_central", "_diff")

    def __init__(self, like: np.ndarray):
        """A gate for frames of the shape and dtype of ``like``."""
        self.frames: list[np.ndarray] = []
        self._one_sided = np.empty_like(like)
        self._central = np.empty_like(like)
        self._diff = np.empty_like(like)

    def fold(self, frame: np.ndarray) -> np.ndarray | None:
        """Fold in the slot's next frame. Returns the (12, 16) mask of the
        cells whose peak |d/dt| is >= STATIC_EPS after the fifth frame,
        None before."""
        f = self.frames
        f.append(frame)
        t = len(f) - 1
        if t == 1:
            abs_diff(frame, f[0], self._one_sided)
        elif t == 2:
            abs_diff(frame, f[0], self._central)
        elif t == 3:
            np.maximum(self._central, abs_diff(frame, f[1], self._diff), out=self._central)
        elif t == 4:
            peak = np.maximum(self._central, abs_diff(frame, f[2], self._diff), out=self._central)
            peak *= 0.5  # the central differences, halved after the max
            np.maximum(peak, self._one_sided, out=peak)
            np.maximum(peak, abs_diff(frame, f[3], self._diff), out=peak)
            # peak per pixel, then over each cell's rows and columns
            peak = peak.reshape(GRID_H, PATCH, WORK_W).max(axis=1)
            return np.maximum.reduceat(peak, _CELL_COLUMNS, axis=1) >= STATIC_EPS
        return None

    def clear(self) -> None:
        """Drop the slot's frames, ready for another slot."""
        self.frames.clear()


def cube_rows(frames: list[np.ndarray], keep: np.ndarray) -> np.ndarray:
    """cube_grid's rows of five (120, 160) frames of one inexact dtype,
    given the slot's static mask ``keep``.

    An all-static mask returns before any stack is built. Otherwise the
    gradients are taken on the kept cells' (n, 5, 10, 10) blocks only.
    """
    if not keep.any():
        return np.empty((0, CUBE_DIM), frames[0].dtype)
    blocks = _cells(np.stack(frames))[keep]
    rows = _gradient_magnitude(blocks, np.gradient(blocks, axis=1)).reshape(-1, CUBE_DIM)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    np.divide(rows, norms, out=rows, where=norms > 0)
    return rows


def cube_grid(stack) -> tuple[np.ndarray, np.ndarray]:
    """Descriptors of the moving cells of one 5-frame stack.

    ``stack`` is a (5, 120, 160) array or a sequence of five (120, 160)
    frames. Returns (rows, keep): keep is the (12, 16) bool mask of
    non-static cells, and rows is (keep.sum(), 500), one L2-normalized
    descriptor per kept cell in row-major cell order, so
    ``rows[mask[keep]]`` selects the cells of any (12, 16) ``mask``. The
    five frames go through a SlotGate one at a time, so the gate's three
    buffers are all the frame-sized arrays it allocates, and a slot with
    no moving cell returns before any stack is built (cube_rows). Per
    cell, the magnitudes are bit-identical to gradient_feature on the
    corresponding block, and the norm is taken row-wise
    (``np.linalg.norm(f[None], axis=-1)``).
    """
    frames = _frames(stack)
    gate = SlotGate(frames[0])
    for frame in frames:
        keep = gate.fold(frame)
    return cube_rows(frames, keep), keep


# ---------------------------------------------------------------------------
# Appearance bins
# ---------------------------------------------------------------------------

_APP_OFFSETS = (0, ACT_SIZE - APP_WINDOW)  # row/col 6 shared by both windows
# top-left corners (row, col) of the 7x7 windows, in bin order
_APP_WINDOWS = tuple((r0, c0) for r0 in _APP_OFFSETS for c0 in _APP_OFFSETS)
# the appearance bins on the patch grid: 0 = top-left ... 3 = bottom-right
APP_LAYOUT = BinLayout(len(_APP_OFFSETS), len(_APP_OFFSETS))


def check_activation_shape(act: ActivationFrame) -> None:
    """ValueError unless ``act`` is the 256x13x13 tensor bin_activations bins."""
    if (act.channels, act.height, act.width) != (ACT_CHANNELS, ACT_SIZE, ACT_SIZE):
        raise ValueError(
            f"activation tensor is {act.channels}x{act.height}x{act.width}, "
            f"needs {ACT_CHANNELS}x{ACT_SIZE}x{ACT_SIZE}"
        )


def bin_activations(act: ActivationFrame) -> np.ndarray:
    """(4, 12544) per-bin vectors from one 256x13x13 activation tensor.

    Row b is bin b of APP_LAYOUT. Per bin, each channel's 7x7 window is
    flattened row-major to 49 values and the 256 channel blocks are
    concatenated in channel order (position of unit (ch, r, c) in bin b =
    ch*49 + (r-r0)*7 + (c-c0)). Rows are L2-normalized; an all-zero row is
    passed through unchanged.
    """
    check_activation_shape(act)
    values = np.asarray(act.values, dtype=np.float64)
    out = np.empty((len(_APP_WINDOWS), APP_DIM))
    for b, (r0, c0) in enumerate(_APP_WINDOWS):
        vec = values[:, r0 : r0 + APP_WINDOW, c0 : c0 + APP_WINDOW].ravel()
        norm = np.linalg.norm(vec)
        out[b] = vec / norm if norm > 0 else vec
    return out
