from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from videoanomaly import (
    BinLayout,
    Frame,
    bin_activations,
    cube_grid,
    gradient_feature,
)
from videoanomaly.features import (
    CUBE_DIM,
    GRID_H,
    GRID_W,
    PATCH,
    STACK,
    STATIC_EPS,
    WORK_W,
    SlotGate,
    _cells,
    _gradient_magnitude,
    _temporal_gradient,
    abs_diff,
)
from videoanomaly.ingest import ActivationFrame


def _noise_frames(count, seed=0, height=120, width=160):
    rng = np.random.default_rng(seed)
    return [Frame(i, width, height, rng.random((height, width))) for i in range(count)]


def _cubes(frames):
    """(rows, keep) of the cube grid over a 5-frame list."""
    return cube_grid(np.stack([f.pixels for f in frames]))


# --------------------------------------------------------- voxel gradients


def test_gradient_of_affine_field_is_exact():
    """f = a*y + b*x + c*t has gradient (a, b, c) everywhere.

    Central differences are exact on affine fields and so are the
    one-sided stencils at the block borders, so every voxel must match.
    """
    rng = np.random.default_rng(7)
    y, x, t = np.meshgrid(np.arange(10.0), np.arange(10.0), np.arange(5.0), indexing="ij")
    for _ in range(25):
        a, b, c, d = rng.normal(size=4)
        voxels = a * y + b * x + c * t + d
        feat = gradient_feature(voxels)
        expected = np.sqrt(a * a + b * b + c * c)
        assert np.allclose(feat, expected, atol=1e-12)


def test_gradient_positions_follow_t_y_x_layout():
    # f = x^2 gives gx = 2x exactly at interior columns; the flattened
    # descriptor index of voxel (t, y, x) is t*100 + y*10 + x
    x = np.arange(10.0)
    voxels = np.broadcast_to(x[None, :, None] ** 2, (10, 10, 5)).copy()
    feat = gradient_feature(voxels)
    for t in range(5):
        for yy in range(10):
            for xx in range(1, 9):
                assert feat[t * 100 + yy * 10 + xx] == pytest.approx(2.0 * xx, abs=1e-12)


def test_gradient_of_constant_block_is_zero():
    assert np.all(gradient_feature(np.full((10, 10, 5), 0.37)) == 0.0)


def test_gradient_feature_rejects_wrong_shape():
    with pytest.raises(ValueError):
        gradient_feature(np.zeros((10, 10, 4)))


# ------------------------------------------------------------- motion cubes


def test_dense_noise_yields_full_cube_budget():
    rows, keep = _cubes(_noise_frames(5))
    assert rows.shape == (192, 500)
    assert keep.sum() == 192
    per_bin = np.bincount(BinLayout().patch_bin_grid()[keep], minlength=4)
    assert np.array_equal(per_bin, [48, 48, 48, 48])
    norms = np.linalg.norm(rows, axis=1)
    assert np.allclose(norms, 1.0, rtol=0, atol=1e-9)


def test_static_video_yields_no_cubes():
    rng = np.random.default_rng(1)
    img = rng.random((120, 160))
    frames = [Frame(i, 160, 120, img) for i in range(5)]
    rows, keep = _cubes(frames)
    assert not keep.any()
    assert rows.shape == (0, 500)


def test_static_gate_is_per_cell():
    frames = _noise_frames(5, seed=2)
    # freeze one cell over time: spatial texture alone must not keep it
    for f in frames[1:]:
        f.pixels[30:40, 50:60] = frames[0].pixels[30:40, 50:60]
    rows, keep = _cubes(frames)
    assert keep.sum() == 191 and len(rows) == 191
    assert not keep[3, 5]


def test_locality_single_patch_changes_single_cube():
    frames_a = _noise_frames(5, seed=3)
    frames_b = [Frame(f.index, f.width, f.height, f.pixels.copy()) for f in frames_a]
    frames_b[2].pixels[80:90, 120:130] += 0.5
    before, keep_a = _cubes(frames_a)
    after, keep_b = _cubes(frames_b)
    assert np.array_equal(keep_a, keep_b)
    changed = np.argwhere(keep_a)[(before != after).any(axis=-1)]
    assert changed.tolist() == [[8, 12]]  # (grid_y, grid_x)


def test_descriptor_is_position_invariant():
    """The same patch content produces the same descriptor in any cell."""
    rng = np.random.default_rng(4)
    patch = rng.random((5, 10, 10))
    stack = np.zeros((5, 120, 160))
    stack[:, 20:30, 10:20] = patch
    stack[:, 70:80, 110:120] = patch
    rows, keep = cube_grid(stack)
    assert np.argwhere(keep).tolist() == [[2, 1], [7, 11]]
    assert np.array_equal(rows[0], rows[1])


def test_descriptor_is_scale_invariant_after_normalization():
    frames = _noise_frames(5, seed=5)
    doubled = [Frame(f.index, f.width, f.height, f.pixels * 2.0) for f in frames]
    a, keep_a = _cubes(frames)
    b, keep_b = _cubes(doubled)
    assert np.array_equal(keep_a, keep_b)
    assert np.allclose(a, b, atol=1e-12)


def test_barely_static_cell_is_gated():
    frames = _noise_frames(5, seed=6)
    base = frames[0].pixels[0:10, 0:10].copy()
    for i, f in enumerate(frames):
        f.pixels[0:10, 0:10] = base + i * (STATIC_EPS / 10)
    _, keep = _cubes(frames)
    assert not keep[0, 0]


def test_cube_grid_validates_shape():
    with pytest.raises(ValueError):
        cube_grid(np.zeros((4, 120, 160)))
    with pytest.raises(ValueError):
        cube_grid(np.zeros((5, 60, 80)))
    with pytest.raises(ValueError):
        cube_grid(np.zeros((5, 120, 160, 1)))
    # the same checks on a sequence of frames
    with pytest.raises(ValueError):
        cube_grid([np.zeros((120, 160))] * 4)
    with pytest.raises(ValueError):
        cube_grid([np.zeros((60, 80))] * 5)
    with pytest.raises(ValueError):
        cube_grid([np.zeros((120, 160))] * 4 + [np.zeros((120, 160, 1))])


def _cubes_by_block(stack):
    """Oracle for cube_grid: gradient_feature on each 10x10x5 block, the
    static rule max |d/dt| >= STATIC_EPS, and a row-wise L2 norm."""
    vectors = np.empty((12, 16, 500))
    keep = np.empty((12, 16), dtype=bool)
    for gy in range(12):
        for gx in range(16):
            block = stack[:, gy * 10 : (gy + 1) * 10, gx * 10 : (gx + 1) * 10]
            f = gradient_feature(block.transpose(1, 2, 0))
            keep[gy, gx] = np.abs(np.gradient(block, axis=0)).max() >= STATIC_EPS
            norm = np.linalg.norm(f[None], axis=-1)
            vectors[gy, gx] = f / norm if norm > 0 else f
    return vectors, keep


def _cell(gy, gx):
    return slice(gy * 10, (gy + 1) * 10), slice(gx * 10, (gx + 1) * 10)


def _oracle_stack(case):
    """A (5, 120, 160) stack for the oracle test, by name or noise seed."""
    rng = np.random.default_rng(case if isinstance(case, int) else 11)
    if isinstance(case, int):  # noise with one cell frozen over time
        stack = rng.random((5, 120, 160))
        cell = _cell(rng.integers(0, 12), rng.integers(0, 16))
        stack[(slice(None), *cell)] = stack[(0, *cell)]
        return stack
    stack = np.repeat(rng.random((1, 120, 160)), 5, axis=0)  # textured, static
    if case == "sprite":  # a 14x14 square moving 3 px right per frame
        for t in range(5):
            stack[t, 43:57, 61 + 3 * t : 75 + 3 * t] = 0.9
    elif case == "single_cell":
        stack[(slice(None), *_cell(4, 9))] = rng.random((5, 10, 10))
    elif case in ("at_eps", "below_eps"):
        # the step at t=1 is the largest |d/dt| of the cell: exactly
        # STATIC_EPS (kept) or the next float below it (static)
        step = STATIC_EPS if case == "at_eps" else np.nextafter(STATIC_EPS, 0.0)
        cell = _cell(6, 2)
        stack[(0, *cell)] = 0.0
        stack[(slice(1, None), *cell)] = step
    return stack


ORACLE_CASES = [*range(10), "all_static", "sprite", "single_cell", "at_eps", "below_eps"]
ORACLE_KEPT = {"all_static": 0, "sprite": 6, "single_cell": 1, "at_eps": 1, "below_eps": 0}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_cube_grid_matches_per_block_oracle(case):
    stack = _oracle_stack(case)
    rows, keep = cube_grid(stack)
    expected_vectors, expected_keep = _cubes_by_block(stack)
    assert np.array_equal(keep, expected_keep)
    assert rows.shape == (int(keep.sum()), 500)
    assert np.array_equal(rows, expected_vectors[keep])
    assert keep.sum() == ORACLE_KEPT.get(case, 191)



def _gradient_cases():
    """50 stacks, cycling through noise, static, scaled noise (1e-8 to
    1e8) and static with changes near STATIC_EPS."""
    rng = np.random.default_rng(23)
    for i in range(50):
        kind = i % 4
        if kind == 0:
            yield rng.random((5, 120, 160))
        elif kind == 1:
            yield np.repeat(rng.random((1, 120, 160)), 5, axis=0)
        elif kind == 2:
            yield rng.random((5, 120, 160)) * 10.0 ** rng.integers(-8, 9)
        else:
            stack = np.repeat(rng.random((1, 120, 160)), 5, axis=0)
            stack += rng.random((5, 120, 160)) * 3 * STATIC_EPS
            yield stack


def test_temporal_gradient_matches_np_gradient_bitwise():
    for stack in _gradient_cases():
        got = _temporal_gradient(stack)
        want = np.gradient(stack, axis=0)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    ints = np.random.default_rng(1).integers(0, 256, (5, 120, 160), dtype=np.uint8)
    assert np.array_equal(_temporal_gradient(ints), np.gradient(ints, axis=0))

def _cube_grid_reference(frames):
    """Oracle for cube_grid's static gate: the stack-based cube grid,
    which gates on ``abs(_temporal_gradient(stack)).max(axis=0)``."""
    stack = np.stack(frames)
    gt = _temporal_gradient(stack)
    np.abs(gt, out=gt)
    peak = gt.max(axis=0).reshape(GRID_H, PATCH, WORK_W).max(axis=1)
    keep = peak.reshape(GRID_H, GRID_W, PATCH).max(axis=2) >= STATIC_EPS
    blocks, gtb = _cells(stack), _cells(gt)
    if not keep.all():
        blocks, gtb = blocks[keep], gtb[keep]
    rows = _gradient_magnitude(blocks, gtb).reshape(-1, CUBE_DIM)
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    np.divide(rows, norms, out=rows, where=norms > 0)
    return rows, keep


# one cell's value over the five frames, given the size d of its largest
# temporal difference: each profile has a unique largest |d/dt| term, a
# one-sided difference (t=0, t=4) of d or a central one (t=1..3) of d / 2
_EPS_PROFILES = {
    "t0": lambda d: [0.0, d, d, d, d],
    "t1": lambda d: [0.0, 0.25 * d, d, 0.25 * d, 0.25 * d],
    "t2": lambda d: [0.0, 0.0, 0.25 * d, d, d],
    "t3": lambda d: [0.75 * d, 0.75 * d, 0.0, 0.75 * d, d],
    "t4": lambda d: [0.0, 0.0, 0.0, 0.0, d],
}
_EPS_CASES = [
    (f"{t}_{edge}", t, edge) for t in _EPS_PROFILES for edge in ("at", "below")
]


def _gate_stack(case):
    """A (5, 120, 160) stack for the gate oracle test and its kept-cell count
    (None where noise decides it)."""
    rng = np.random.default_rng(17)
    static = np.repeat(rng.random((1, 120, 160)), 5, axis=0)
    cell = (slice(None), *_cell(5, 7))
    if case == "noise":
        return rng.random((5, 120, 160)), 192
    if case == "all_static":
        return static, 0
    if case == "sprite":
        return _oracle_stack("sprite"), 6
    if case == "single_cell":
        static[cell] = rng.random((5, 10, 10))
        return static, 1
    if case == "subnormal":
        # differences of a few times the smallest subnormal, whose halving
        # rounds, beside one moving cell
        tiny = np.nextafter(0.0, 1.0)
        stack = rng.integers(0, 4, (5, 120, 160)) * tiny
        stack[cell] += rng.random((5, 10, 10))
        return stack, 1
    if case == "nonfinite":
        static[(2, *_cell(0, 0))] = np.nan  # NaN: the gate never keeps it
        static[(1, *_cell(0, 1))] = np.inf
        static[(3, *_cell(0, 2))] = -np.inf
        static[(slice(None), *_cell(0, 3))] = np.inf  # inf - inf = NaN
        static[(slice(None), *_cell(1, 1))] = rng.random((5, 10, 10))
        static[0, 15, 15] = np.nan  # a NaN voxel gates a moving cell too
        static[(slice(None), *_cell(1, 3))] = rng.random((5, 10, 10))
        static[2, 15, 35] = np.inf  # a moving cell with an inf voxel is kept
        return static, 3
    if case == "uint8":
        stack = np.repeat(rng.integers(0, 256, (1, 120, 160), dtype=np.uint8), 5, axis=0)
        stack[cell] = rng.integers(0, 256, (5, 10, 10), dtype=np.uint8)
        stack[(4, *_cell(11, 15))] += 1  # a one-level step at the last frame
        return stack, 2
    _, t, edge = next(c for c in _EPS_CASES if c[0] == case)
    # a one-sided difference of STATIC_EPS or a central one of 2*STATIC_EPS
    # reaches the threshold exactly; the next float below it does not
    d = STATIC_EPS if t in ("t0", "t4") else 2 * STATIC_EPS
    if edge == "below":
        d = np.nextafter(d, 0.0)
    static[cell] = np.array(_EPS_PROFILES[t](d))[:, None, None]
    return static, int(edge == "at")


GATE_CASES = [
    "noise", "all_static", "sprite", "single_cell", "subnormal", "nonfinite", "uint8",
    *(c[0] for c in _EPS_CASES),
]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", GATE_CASES)
@pytest.mark.parametrize("form", ["array", "list"])
def test_cube_grid_gate_matches_stacked_reference(case, form):
    stack, kept = _gate_stack(case)
    rows, keep = cube_grid(stack if form == "array" else list(stack))
    want_rows, want_keep = _cube_grid_reference(stack)
    assert keep.dtype == want_keep.dtype and np.array_equal(keep, want_keep)
    assert int(keep.sum()) == kept
    assert rows.dtype == want_rows.dtype == np.float64
    assert rows.shape == want_rows.shape == (kept, CUBE_DIM)
    assert np.array_equal(rows.view(np.uint64), want_rows.view(np.uint64))


def _static_gate(frames):
    """One-shot oracle for SlotGate: the (12, 16) mask of the cells whose
    peak |d/dt| is >= STATIC_EPS, with the per-pixel peak
    max(|f1-f0|, |f4-f3|, 0.5 * max(|f2-f0|, |f3-f1|, |f4-f2|)) taken over
    all five frames at once."""
    peak = np.abs(frames[2] - frames[0])
    for t in range(2, STACK - 1):
        peak = np.maximum(peak, np.abs(frames[t + 1] - frames[t - 1]))
    peak = peak * 0.5
    for a, b in ((0, 1), (-2, -1)):
        peak = np.maximum(peak, np.abs(frames[b] - frames[a]))
    peak = peak.reshape(GRID_H, PATCH, WORK_W).max(axis=1)
    return peak.reshape(GRID_H, GRID_W, PATCH).max(axis=2) >= STATIC_EPS


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("case", GATE_CASES)
def test_slot_gate_matches_one_shot_static_gate(case):
    """Folding the frames one at a time gives the one-shot gate's mask,
    NaN, inf, subnormal and STATIC_EPS edges included."""
    stack, kept = _gate_stack(case)
    frames = [f.astype(np.float64) for f in stack]
    gate = SlotGate(frames[0])
    for _ in range(2):  # a gate starts over after each fifth frame
        masks = [gate.fold(lambda lag, out=None, t=t: abs_diff(frames[t], frames[t - lag], out))
                 for t in range(STACK)]
        assert masks[:-1] == [None] * (STACK - 1)
        assert np.array_equal(masks[-1], _static_gate(frames))
        assert int(masks[-1].sum()) == kept


def test_cube_grid_of_a_static_slot_allocates_no_stack():
    """A static slot peaks below 0.5 MB: two frame-sized gate buffers,
    where a (5, 120, 160) float64 stack alone is 768 KB."""
    base = np.random.default_rng(3).random((120, 160))
    frames = [base.copy() for _ in range(5)]
    cube_grid(frames)  # warm up
    tracemalloc.start()
    try:
        rows, keep = cube_grid(frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not keep.any() and rows.shape == (0, CUBE_DIM)
    assert peak < 500_000


# --------------------------------------------------------------- bin layout


def test_patch_bin_grid_quadrants():
    grid = BinLayout().patch_bin_grid()
    assert grid[0, 0] == 0
    assert grid[0, 8] == 1
    assert grid[6, 7] == 2
    assert grid[11, 15] == 3


def test_bin_layout_from_string():
    layout = BinLayout.from_string("3x4")
    assert (layout.rows, layout.cols) == (3, 4)
    assert layout.n_bins == 12
    for bad in ("0x2", "2x", "axb", "2x2x2"):
        with pytest.raises(ValueError):
            BinLayout.from_string(bad)


def test_bin_layout_grid_covers_all_cells():
    layout = BinLayout(3, 4)
    grid = layout.patch_bin_grid()
    assert grid.shape == (12, 16)
    assert set(np.unique(grid)) == set(range(12))
    # cells of one bin are contiguous rectangles
    assert grid[0, 0] == 0 and grid[11, 15] == 11


def test_bin_layout_1x1():
    layout = BinLayout(1, 1)
    assert layout.n_bins == 1
    assert np.all(layout.patch_bin_grid() == 0)
    _, keep = _cubes(_noise_frames(5, seed=8))
    # the per-bin budget is the bin's cell count; one bin holds the grid
    assert keep.sum() == 192
    assert set(layout.patch_bin_grid()[keep]) == {0}


# ------------------------------------------------------ appearance features


def _act(values, frame=0):
    return ActivationFrame(frame, 256, 13, 13, values.astype(np.float32))


def test_bin_activations_shape_and_norm():
    rng = np.random.default_rng(9)
    feats = bin_activations(_act(rng.random((256, 13, 13)), frame=4))
    assert feats.shape == (4, 12544)
    assert feats.dtype == np.float64
    for row in feats:
        assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)


def test_bin_activations_center_indicator_positions():
    # activation (ch=0, r=6, c=6) sits in all four windows; its local
    # coordinates differ per bin: 48, 42, 6, 0 under pos = ch*49 + r*7 + c
    values = np.zeros((256, 13, 13))
    values[0, 6, 6] = 1.0
    feats = bin_activations(_act(values))
    for row, pos in zip(feats, (48, 42, 6, 0)):
        assert row[pos] == 1.0
        assert row.sum() == 1.0


def test_bin_activations_channel_stride():
    values = np.zeros((256, 13, 13))
    values[3, 0, 0] = 2.0
    feats = bin_activations(_act(values))
    assert feats[0][3 * 49] == 1.0  # normalized to unit length
    assert np.count_nonzero(feats[0]) == 1
    assert np.count_nonzero(feats[3]) == 0  # (0,0) not in bottom-right window


def test_bin_activations_windows_share_center_row():
    rng = np.random.default_rng(10)
    values = rng.random((256, 13, 13))
    feats = bin_activations(_act(values))
    raw = [values[:, r : r + 7, c : c + 7].reshape(-1) for r, c in ((0, 0), (0, 6), (6, 0), (6, 6))]
    for row, r in zip(feats, raw):
        assert np.allclose(row, r / np.linalg.norm(r), atol=0)


def test_bin_activations_zero_tensor_stays_zero():
    feats = bin_activations(_act(np.zeros((256, 13, 13))))
    assert not np.any(feats)
    assert not np.any(np.isnan(feats))


def test_bin_activations_rejects_other_shapes():
    with pytest.raises(ValueError):
        bin_activations(ActivationFrame(0, 128, 13, 13, np.zeros((128, 13, 13), dtype=np.float32)))
    with pytest.raises(ValueError):
        bin_activations(ActivationFrame(0, 256, 14, 14, np.zeros((256, 14, 14), dtype=np.float32)))
