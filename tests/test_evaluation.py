from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from videoanomaly import (
    BinLayout,
    CapabilityError,
    DataError,
    DetectionResult,
    DetectorConfig,
    Frame,
    GroundTruth,
    StreamingDetector,
    cube_score_map,
    frame_auc,
    pixel_auc,
    run_detector,
)
from videoanomaly import evaluation, synth
from videoanomaly.evaluation import grid_to_pixels, load_maps_npz, smooth_map, write_maps_npz
from videoanomaly.pipeline import aggregate


# ---------------------------------------------------------------- frame AUC


def test_auc_known_values():
    assert frame_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]).auc == 1.0
    assert frame_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]).auc == 0.0
    assert frame_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]).auc == 0.75
    assert frame_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]).auc == 0.5


def test_auc_counts_ties_as_half():
    # one tied positive/negative pair contributes 1/2 of its weight
    report = frame_auc([0.3, 0.5, 0.5, 0.9], [0, 0, 1, 1])
    assert report.auc == pytest.approx((1.0 + 0.5 + 1.0 + 1.0) / 4, abs=1e-15)


def _auc_pairwise(scores, labels):
    scores = np.asarray(scores, float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (pos.size * neg.size)


def test_auc_matches_pairwise_statistic():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 15))
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 1
        if labels.min() == labels.max():
            continue
        scores = rng.choice([0.1, 0.25, 0.5, 0.7], size=n)  # heavy ties
        assert frame_auc(scores, labels).auc == pytest.approx(
            _auc_pairwise(scores, labels), abs=1e-12
        )


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.random(60)
    labels = (rng.random(60) < 0.3).astype(int)
    base = frame_auc(scores, labels).auc
    assert frame_auc(3.0 * scores + 1.0, labels).auc == pytest.approx(base, abs=1e-12)
    assert frame_auc(np.exp(scores), labels).auc == pytest.approx(base, abs=1e-12)


def test_roc_curve_shape():
    rng = np.random.default_rng(2)
    scores = rng.random(30)
    labels = (rng.random(30) < 0.5).astype(int)
    report = frame_auc(scores, labels)
    assert report.level == "frame"
    assert report.fpr[0] == 0.0 and report.tpr[0] == 0.0
    assert report.fpr[-1] == 1.0 and report.tpr[-1] == 1.0
    assert np.all(np.diff(report.fpr) >= 0)
    assert np.all(np.diff(report.tpr) >= 0)
    assert np.isinf(report.thresholds[0])


def test_auc_rejects_degenerate_labels():
    with pytest.raises(DataError):
        frame_auc([0.1, 0.2], [1, 1])
    with pytest.raises(DataError):
        frame_auc([0.1, 0.2], [0, 2])
    with pytest.raises(DataError):
        frame_auc([0.1], [0])


def test_report_json_and_csv(tmp_path):
    report = frame_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    jpath = tmp_path / "report.json"
    report.write_json(jpath)
    doc = json.loads(jpath.read_text())
    assert doc["level"] == "frame"
    assert doc["auc"] == 0.75
    assert doc["points"][0]["threshold"] is None  # the +inf sentinel
    cpath = tmp_path / "roc.csv"
    report.write_roc_csv(cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "fpr,tpr"
    assert len(lines) == len(report.fpr) + 1


# ----------------------------------------------------------- map geometry


def test_map_upsampling_extents():
    grid = np.zeros((12, 16))
    grid[2, 3] = 1.0
    px = grid_to_pixels(grid, 120, 160)
    assert px.shape == (120, 160)
    hot = np.argwhere(px == 1.0)
    assert hot[:, 0].min() == 20 and hot[:, 0].max() == 29
    assert hot[:, 1].min() == 30 and hot[:, 1].max() == 39
    px2 = grid_to_pixels(grid, 240, 320)
    assert np.count_nonzero(px2) == 20 * 20


def test_map_upsampling_non_multiple_size():
    grid = np.arange(192, dtype=float).reshape(12, 16)
    px = grid_to_pixels(grid, 90, 130)
    assert px.shape == (90, 130)
    assert set(np.unique(px)) == set(np.unique(grid))  # every cell is sampled
    assert np.all(np.diff(px[0]) >= 0)  # row-major cell order preserved


def test_map_identity_resolution():
    grid = np.random.default_rng(3).random((12, 16))
    assert np.array_equal(grid_to_pixels(grid, 12, 16), grid)


def test_smooth_map_matches_dense_reference():
    import math

    rng = np.random.default_rng(4)
    pixels = rng.random((20, 25))
    sigma = 3.0
    radius = math.ceil(3 * sigma)
    ref = np.zeros_like(pixels)
    for i in range(20):
        for j in range(25):
            num = den = 0.0
            for di in range(-radius, radius + 1):
                for dj in range(-radius, radius + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < 20 and 0 <= jj < 25:
                        g = math.exp(-(di * di + dj * dj) / (2 * sigma * sigma))
                        num += g * pixels[ii, jj]
                        den += g
            ref[i, j] = num / den
    assert np.allclose(smooth_map(pixels, sigma), ref, atol=1e-12)


def _smooth_map_full(pixels, sigma):
    """Oracle for smooth_map: scipy's convolve1d along both axes over every
    pixel, with the uncapped radius ceil(3*sigma)."""
    import math

    convolve1d = pytest.importorskip("scipy.ndimage").convolve1d
    offsets = np.arange(-math.ceil(3 * sigma), math.ceil(3 * sigma) + 1, dtype=np.float64)
    taps = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))

    def blur(a):
        return convolve1d(convolve1d(a, taps, axis=0, mode="constant"), taps, axis=1, mode="constant")

    with np.errstate(invalid="ignore", over="ignore"):
        return blur(pixels.astype(np.float64)) / blur(np.ones(pixels.shape))


def _same_bits(a, b):
    """Equal bit for bit, -0.0 apart from +0.0; only a NaN's sign bit may
    differ between numpy's loops and scipy's C loop."""
    a, b = (np.where(np.isnan(x), np.nan, x) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# (20, 200) and the tiny maps are shorter than the sigma-10 radius of 30
@pytest.mark.parametrize("shape", [(120, 160), (360, 640), (90, 130), (20, 200), (3, 70), (1, 1)])
def test_smooth_map_is_bit_identical_to_full_convolution(shape):
    rng = np.random.default_rng(shape[1])
    grid = rng.random((12, 16))
    grid[:, 5:9] = 0.0  # runs of equal pixel columns
    grid[0] = 0.5  # columns equal in some rows only
    negzero = np.where(rng.random((12, 16)) < 0.5, -0.0, 0.0)
    negzero[4:8, 6:12] = -0.0
    nonfinite = grid.copy()
    nonfinite[2, 3], nonfinite[7, 9], nonfinite[10, 1] = np.inf, -np.inf, np.nan
    maps = [grid_to_pixels(g, *shape) for g in (grid, negzero, nonfinite)]
    for pixels in (*maps, rng.random(shape)):
        for sigma in (10.0, 2.5):
            assert _same_bits(smooth_map(pixels, sigma), _smooth_map_full(pixels, sigma))


def test_smooth_map_constant_and_zero_sigma():
    pixels = np.full((10, 12), 0.6)
    assert np.allclose(smooth_map(pixels, 10.0), pixels, atol=1e-12)
    out = smooth_map(pixels, 0.0)
    assert np.array_equal(out, pixels)
    assert out is not pixels


@pytest.mark.parametrize("sigma", [-1.0, float("inf"), float("nan")])
def test_smooth_map_rejects_negative_and_non_finite_sigma(sigma):
    with pytest.raises(ValueError):
        smooth_map(np.zeros((10, 12)), sigma)


def test_smooth_map_denominator_cache_is_bounded_and_read_only():
    """One full-size denominator per (shape, sigma) is cached, at most 8
    of them, so new mask shapes do not grow the process."""
    evaluation._smoothing_den.cache_clear()
    for i in range(20):
        smooth_map(np.zeros((10 + i, 12)), 2.0)
    info = evaluation._smoothing_den.cache_info()
    assert info.misses == 20
    assert info.currsize <= 8
    den = evaluation._smoothing_den((29, 12), 2.0)
    assert evaluation._smoothing_den.cache_info().hits == 1
    assert not den.flags.writeable


# ------------------------------------------------------------ score maps


def _result_with(bin_scores, presence, config, frame_count=20):
    """Result of one window at frame 0 with the given bin scores and presence."""
    starts = np.array([0])
    bin_scores = {ch: np.asarray([scores], float) for ch, scores in bin_scores.items()}
    presence = None if presence is None else presence[None]
    series = aggregate(starts, bin_scores, frame_count, config)
    return DetectionResult(series, config, frame_count, starts, bin_scores, presence, {})


def test_cube_score_map_motion_needs_cube_presence():
    config = DetectorConfig()
    presence = np.zeros((12, 16), dtype=bool)
    presence[2, 3] = True  # a bin-0 cell
    result = _result_with({"motion": [0.9, 0.3, 0.2, 0.1]}, presence, config)
    maps = cube_score_map(result, channel="motion")
    assert maps.shape == (20, 12, 16)
    for grid in maps:  # single window: every frame backfills to the same grid
        assert grid[2, 3] == 0.9
        assert grid.sum() == 0.9  # all cube-free cells stay 0, other bins too


def test_cube_score_map_appearance_covers_whole_bin():
    config = DetectorConfig(channel="appearance", w=10)
    result = _result_with({"appearance": [0.9, 0.3, 0.2, 0.1]}, None, config)
    maps = cube_score_map(result, channel="appearance")
    grid = maps[0]
    assert np.all(grid[:6, :8] == 0.9)
    assert np.all(grid[:6, 8:] == 0.3)
    assert np.all(grid[6:, :8] == 0.2)
    assert np.all(grid[6:, 8:] == 0.1)


def test_cube_score_map_fused_is_channel_mean():
    frames = synth.noise_video(25, seed=5)
    acts = synth.noise_activations(25, seed=5)
    result = run_detector(frames=frames, activations=acts, config=DetectorConfig(channel="fusion"))
    motion = cube_score_map(result, "motion")
    appearance = cube_score_map(result, "appearance")
    fused = cube_score_map(result, "fused")
    assert fused.shape == motion.shape == appearance.shape == (25, 12, 16)
    for f, m, a in zip(fused, motion, appearance):
        assert np.allclose(f, (m + a) / 2, atol=1e-15)


def _cube_score_map_by_loop(result, channel):
    """Oracle for cube_score_map: per-frame sums and counts over every
    window's second half, then nearest-covered backfill, then the mean
    over the wanted channels."""
    t, w = result.frame_count, result.config.w
    wanted = result.series.channels if channel == "fused" else (channel,)
    bin_grids = {
        "motion": result.config.bins.patch_bin_grid(),
        "appearance": BinLayout(2, 2).patch_bin_grid(),
    }
    per_channel = []
    for ch in wanted:
        sums = np.zeros((t, 12, 16))
        counts = np.zeros(t)
        for j, start in enumerate(result.windows):
            cell_scores = result.bin_scores[ch][j][bin_grids[ch]]
            if ch == "motion":
                cell_scores = cell_scores * result.presence[j]
            lo, hi = start + w, min(start + 2 * w, t)
            sums[lo:hi] += cell_scores
            counts[lo:hi] += 1
        covered = np.flatnonzero(counts)
        grids = np.where(counts[:, None, None] > 0, sums / np.maximum(counts, 1)[:, None, None], 0)
        for f in range(t):
            if counts[f] == 0:
                nearest = covered[np.argmin(np.abs(covered - f))]  # earlier on a tie
                grids[f] = grids[nearest]
        per_channel.append(grids)
    return np.mean(per_channel, axis=0)


def test_cube_score_map_matches_loop_oracle():
    frames, _, _ = synth.block_event_video(frame_count=64, active_range=(30, 50), speed=2.0)
    # frozen regions leave static cells in some windows, moving ones in others
    for f in frames[1:30]:
        f.pixels[60:100, 0:40] = frames[0].pixels[60:100, 0:40]
    for f in frames[41:]:
        f.pixels[0:30, 100:160] = frames[40].pixels[0:30, 100:160]
    noise = synth.noise_activations(64, seed=3)
    twin = synth.repeating_activations(64, seed=4)
    acts = [n if (n.index // 11) % 2 else r for n, r in zip(noise, twin)]
    config = DetectorConfig(channel="fusion", stride=3, k=2)
    result = run_detector(frames=frames, activations=acts, config=config)
    assert (64 - 20) % 3  # a tail after the last window is backfilled
    for channel in ("motion", "appearance", "fused"):
        grids = cube_score_map(result, channel)
        expected = _cube_score_map_by_loop(result, channel)
        assert np.array_equal(grids, expected), channel
        assert len(np.unique(grids)) > 5  # scores vary across cells and frames
    assert 0 < result.presence.mean() < 1


@pytest.mark.parametrize(
    "channel,frame_count,bound",
    [("motion", 6000, 1.6), ("fusion", 400, 2.6)],
)
def test_cube_score_map_holds_little_beyond_its_channel_maps(channel, frame_count, bound):
    """Static frames (with noise activations in fusion): the traced peak of
    the fused map is one map per channel plus the (W, 12, 16) cell scores.
    Averaging the channels with np.mean over their list, and backfilling
    every frame, held about 3.2x the output for motion and 5.2x for fusion."""
    pixels = np.random.default_rng(0).random((120, 160))
    acts = synth.noise_activations(frame_count, seed=3) if channel == "fusion" else None
    det = StreamingDetector(DetectorConfig(channel=channel, k=1))
    for i in range(frame_count):
        det.push(Frame(i, 160, 120, pixels), acts[i] if acts else None)
    _, result = det.finalize()
    tracemalloc.start()
    try:
        maps = cube_score_map(result, "fused")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (frame_count, 12, 16)
    assert peak <= bound * maps.nbytes, peak / maps.nbytes


def test_cube_score_map_errors():
    config = DetectorConfig()
    result = _result_with({"motion": np.full(4, 0.5)}, np.ones((12, 16), dtype=bool), config)
    with pytest.raises(CapabilityError):
        cube_score_map(result, channel="appearance")


def test_maps_npz_roundtrip(tmp_path):
    frames = synth.noise_video(25, seed=6)
    result = run_detector(frames=frames)
    path = tmp_path / "maps.npz"
    write_maps_npz(result, path)
    back = load_maps_npz(path, channel="motion")
    fwd = cube_score_map(result, "motion")
    assert back.shape == (25, 12, 16)
    assert np.array_equal(fwd, back)
    with pytest.raises(CapabilityError):
        load_maps_npz(path, channel="appearance")


@pytest.mark.parametrize("channel", ["motion", "fusion"])
def test_write_maps_npz_matches_cube_score_map(tmp_path, channel):
    frames = synth.noise_video(25, seed=7)
    acts = synth.noise_activations(25, seed=7) if channel == "fusion" else None
    result = run_detector(frames=frames, activations=acts, config=DetectorConfig(channel=channel))
    path = tmp_path / "maps.npz"
    write_maps_npz(result, path)
    with np.load(path) as doc:
        assert sorted(doc.keys()) == sorted([*result.series.channels, "fused"])
        for key in doc.keys():
            assert np.array_equal(doc[key], cube_score_map(result, key)), key


# ------------------------------------------------------------- pixel AUC


def _gt(masks, h=60, w=80):
    labels = np.array([1 if m is not None and m.any() else 0 for m in masks], dtype=np.uint8)
    full = [m if m is not None else np.zeros((h, w), dtype=bool) for m in masks]
    return GroundTruth(labels, full)


def _pixel_auc_reference(maps, gt, sigma_px):
    """Threshold-sweep oracle: walk every distinct pixel value and count
    detected frames under the coverage rules directly."""
    h, w = gt.pixel_masks[0].shape
    pixels = [smooth_map(grid_to_pixels(m, h, w), sigma_px) for m in maps]
    labels = np.asarray(gt.frame_labels)
    cands = np.unique(np.concatenate([p.ravel() for p in pixels]))
    points = [(0.0, 0.0)]
    for t in cands[::-1]:
        tp = fp = 0
        for px, mask, label in zip(pixels, gt.pixel_masks, labels):
            if label == 1:
                n = int(mask.sum())
                if 5 * int((px[mask] >= t).sum()) > 2 * n:
                    tp += 1
            else:
                if (px >= t).any():
                    fp += 1
        points.append((fp / (labels == 0).sum(), tp / (labels == 1).sum()))
    fpr, tpr = np.array(points).T
    return float(np.trapezoid(tpr, fpr)) if hasattr(np, "trapezoid") else float(np.trapz(tpr, fpr))


def test_pixel_auc_matches_threshold_sweep():
    rng = np.random.default_rng(7)
    for trial in range(5):
        maps = rng.random((8, 12, 16))
        masks = []
        for i in range(8):
            if rng.random() < 0.5:
                m = np.zeros((60, 80), dtype=bool)
                r, c = rng.integers(0, 40), rng.integers(0, 60)
                m[r : r + 20, c : c + 20] = True
                masks.append(m)
            else:
                masks.append(None)
        gt = _gt(masks)
        if gt.frame_labels.min() == gt.frame_labels.max():
            continue
        got = pixel_auc(maps, gt, sigma_px=2.0)
        assert got.level == "pixel"
        assert got.auc == pytest.approx(_pixel_auc_reference(maps, gt, 2.0), abs=1e-9)


def test_pixel_auc_forty_percent_is_strict():
    # positive frame: 10 ground-truth pixels, exactly 4 hot. 40% coverage
    # must NOT count as detected, so the negative frame outranks it.
    grid_pos = np.zeros((12, 16))
    grid_pos[0, :4] = 0.9
    grid_pos[0, 4:10] = 0.1
    grid_neg = np.zeros((12, 16))
    grid_neg[5, 5] = 0.5
    mask = np.zeros((12, 16), dtype=bool)
    mask[0, :10] = True
    gt = GroundTruth(np.array([1, 0]), [mask, np.zeros((12, 16), dtype=bool)])
    maps = [grid_pos, grid_neg]
    assert pixel_auc(maps, gt, sigma_px=0.0).auc == 0.0
    # one more hot pixel crosses the boundary (50% > 40%) and flips the curve
    grid_pos[0, 4] = 0.9
    assert pixel_auc(maps, gt, sigma_px=0.0).auc == 1.0


def test_pixel_auc_two_hot_pixels_make_a_false_positive():
    grid_pos = np.zeros((12, 16))
    grid_pos[0, :10] = 0.5
    grid_neg = np.zeros((12, 16))
    grid_neg[3, :2] = 0.9  # two isolated hot pixels
    mask = np.zeros((12, 16), dtype=bool)
    mask[0, :10] = True
    gt = GroundTruth(np.array([1, 0]), [mask, np.zeros((12, 16), dtype=bool)])
    maps = [grid_pos, grid_neg]
    assert pixel_auc(maps, gt, sigma_px=0.0).auc == 0.0


def test_pixel_auc_uniform_maps_score_chance():
    # sigma 0 keeps the values exactly tied; blurring a constant map leaves
    # ~1e-16 ripples that would order the criticals arbitrarily
    maps = np.full((4, 12, 16), 0.4)
    mask = np.zeros((24, 32), dtype=bool)
    mask[:6, :6] = True
    gt = GroundTruth(np.array([1, 0, 1, 0]), [mask, np.zeros_like(mask), mask, np.zeros_like(mask)])
    assert pixel_auc(maps, gt, sigma_px=0.0).auc == 0.5


def test_pixel_auc_requires_masks_alignment_and_grids():
    maps = np.zeros((3, 12, 16))
    with pytest.raises(CapabilityError):
        pixel_auc(maps, GroundTruth(np.array([0, 1, 0])))
    mask = np.ones((10, 10), dtype=bool)
    gt = GroundTruth(np.array([1, 0]), [mask, np.zeros_like(mask)])
    from videoanomaly import AlignmentError

    with pytest.raises(AlignmentError):
        pixel_auc(maps, gt)
    # each grid must be (12, 16) bools, integers or floats, the rule of
    # load_maps_npz: complex grids lost their imaginary part with a
    # warning, all-zero (10, 10) grids scored 0.5, (24, 32) grids at sigma
    # 0 were scored from their top-left corner, and other shapes raised
    # numpy's matmul ValueError
    bad = [
        np.zeros((2, 12, 16), dtype=complex),
        np.zeros((2, 10, 10)),
        np.random.default_rng(0).random((2, 24, 32)),
        np.zeros((2, 12, 17)),
        [np.zeros((12, 16)), np.zeros((10, 10))],
        np.array(["0.5", "0.2"]),
    ]
    for maps in bad:
        with pytest.raises(DataError):
            pixel_auc(maps, gt, sigma_px=0.0)
    ok = [np.zeros((12, 16), dtype=bool), np.ones((12, 16), dtype=np.uint8)]
    assert pixel_auc(ok, gt, sigma_px=0.0).auc == 0.0


def test_pixel_auc_end_to_end_localizes_synthetic_event():
    frames, labels, masks = synth.block_event_video(frame_count=160, active_range=(80, 120))
    result = run_detector(frames=frames)
    report = frame_auc(result.series.smoothed, labels)
    maps = cube_score_map(result, "fused")
    pixel = pixel_auc(maps, GroundTruth(labels, masks))
    assert report.auc >= 0.9
    assert pixel.auc >= 0.8


# ------------------------------------------------- certified critical scores

GRID_CLASSES = ("noise", "signed", "sparse", "plateau", "quadrant", "zero", "negzero", "nonfinite")


def _grid_of(kind, rng):
    """A (12, 16) score grid of one class."""
    if kind == "noise":
        return rng.random((12, 16))
    if kind == "signed":
        return rng.standard_normal((12, 16))
    if kind == "sparse":  # a few hot cells: most pixels smooth to exactly 0
        grid = np.zeros((12, 16))
        grid.flat[rng.choice(192, 3, replace=False)] = rng.random(3)
        return grid
    if kind == "plateau":  # two levels: wide regions of exact ties
        return rng.choice([0.25, 0.5], size=(12, 16))
    if kind == "quadrant":  # one level per 2x2 quadrant
        grid = np.empty((12, 16))
        grid[:6, :8], grid[:6, 8:], grid[6:, :8], grid[6:, 8:] = rng.random(4)
        return grid
    if kind == "zero":
        return np.zeros((12, 16))
    if kind == "negzero":  # -0.0 but for an optional hot block
        grid = np.full((12, 16), -0.0)
        if rng.random() < 0.5:
            r, c = rng.integers(0, 10), rng.integers(0, 14)
            grid[r : r + 3, c : c + 3] = rng.random()
        return grid
    grid = rng.random((12, 16))  # nonfinite
    grid.flat[rng.choice(192, 2, replace=False)] = rng.choice([np.inf, -np.inf, np.nan], 2)
    return grid


def _rect_mask(shape, rng):
    h, w = shape
    mask = np.zeros(shape, dtype=bool)
    r, c = rng.integers(0, h - 1), rng.integers(0, w - 1)
    mask[r : r + rng.integers(1, h // 2 + 1), c : c + rng.integers(1, w // 2 + 1)] = True
    return mask


def _same_value(a, b):
    """Equal, with -0.0 apart from +0.0; any NaN equals any NaN (a report
    prints NaN without its sign)."""
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) == math.copysign(1, b))


def _critical_score(pixels, mask):
    """Oracle for _certified_critical: the largest threshold at which this
    frame counts as detected, ranked by np.partition on the whole map.

    Positive frame: detected iff strictly more than 40% of its ground-truth
    pixels have map >= t, so the flip happens at the (floor(0.4*n)+1)-th
    largest masked value. Negative frame: at the largest value overall
    (any detected pixel).
    """
    if mask.any():
        vals = pixels[mask]
        # floor(0.4 * n) + 1 in exact integer arithmetic
        need = (2 * vals.size) // 5 + 1
        return float(np.partition(vals, vals.size - need)[vals.size - need])
    flat = pixels.ravel()
    return float(np.partition(flat, flat.size - 1)[flat.size - 1])


def _check_critical(grid, mask, sigma):
    want = _critical_score(smooth_map(grid_to_pixels(grid, *mask.shape), sigma), mask)
    got = evaluation._certified_critical(grid, mask, sigma)
    assert _same_value(got, want), (got, want, sigma, mask.any(), grid)


@pytest.mark.parametrize("kind", GRID_CLASSES)
@pytest.mark.parametrize("shape", [(360, 640), (240, 320), (90, 130)])
def test_certified_critical_matches_smoothed_map(shape, kind):
    """pixel_auc's critical score from the certified closed form equals
    smooth_map + _critical_score, the map it does not compute."""
    rng = np.random.default_rng([shape[0], GRID_CLASSES.index(kind)])
    for sigma in (0.0, 2.5, 10.0):
        for masked in (True, False):
            for _ in range(4):
                mask = _rect_mask(shape, rng) if masked else np.zeros(shape, dtype=bool)
                _check_critical(_grid_of(kind, rng), mask, sigma)


def test_certified_critical_on_extreme_cells_and_radii():
    """Cells whose products could underflow or overflow, signed zeros of
    both signs, sigma 0 or so small that taps underflow, and radii longer
    than the map."""
    rng = np.random.default_rng(5)
    grids = []
    for _ in range(2):
        subnormal = rng.random((12, 16))
        subnormal[rng.random((12, 16)) < 0.3] = 1e-310
        huge = rng.random((12, 16))
        huge[rng.random((12, 16)) < 0.2] = 1e305
        grids += [subnormal, huge, rng.standard_normal((12, 16)) * 1e-200,
                  -rng.random((12, 16)), rng.choice([0.0, -0.0, 0.5], size=(12, 16))]
    for shape in [(20, 200), (90, 130), (12, 16)]:
        for sigma in (0.0, 0.03, 0.3, 40.0):
            for grid in grids:
                for masked in (True, False):
                    mask = _rect_mask(shape, rng) if masked else np.zeros(shape, dtype=bool)
                    _check_critical(grid, mask, sigma)


def test_certified_critical_on_ties_of_signed_zeros():
    """-0.0 and +0.0 cells, at most one hot cell: critical scores of 0
    where both zeros tie, and np.partition's pick among them (max() picks
    another sign, at sigma 0 too); and a negative cell so small that its
    pixels smooth to -0.0."""
    rng = np.random.default_rng(1)
    for trial in range(1000):
        shape = [(30, 40), (60, 80), (24, 32)][trial % 3]
        grid = np.full((12, 16), -0.0)
        grid[rng.random((12, 16)) < rng.random()] = 0.0
        if rng.random() < 0.7:
            grid[rng.integers(12), rng.integers(16)] = rng.random()
        mask = _rect_mask(shape, rng) if rng.random() < 0.7 else np.zeros(shape, dtype=bool)
        _check_critical(grid, mask, [0.0, 0.5, 1.0, 2.5][trial % 4])
    # a negative subnormal cell smooths to -0.0 near its center, amid +0.0
    grid = np.zeros((12, 16))
    grid[5, 7] = -5e-324
    for shape in [(30, 40), (90, 130)]:
        wide = np.zeros(shape, dtype=bool)
        wide[1:-1, 1:-1] = True
        for sigma in (1.0, 2.5, 10.0):
            _check_critical(grid, wide, sigma)
            _check_critical(grid, np.zeros(shape, dtype=bool), sigma)


def test_certified_critical_keeps_the_sign_of_negative_zero():
    """A -0.0 grid smooths to -0.0 away from the borders (the zero padding
    adds +0.0 near them), so a mask in the middle has critical score -0.0,
    though the closed-form bracket closes at 0."""
    grid = np.full((12, 16), -0.0)
    mask = np.zeros((90, 130), dtype=bool)
    mask[40:50, 60:70] = True
    assert math.copysign(1, _critical_score(smooth_map(grid_to_pixels(grid, 90, 130), 2.5), mask)) == -1
    assert math.copysign(1, evaluation._certified_critical(grid, mask, 2.5)) == -1


def test_pixel_auc_takes_a_huge_sigma():
    """The kernel radius is capped at the map size: sigma 1e9 costs 2 * 40
    + 1 taps across a 40-pixel row, not six billion."""
    rng = np.random.default_rng(11)
    maps = rng.random((4, 12, 16))
    mask = np.zeros((30, 40), dtype=bool)
    mask[5:15, 10:30] = True
    gt = GroundTruth(np.array([1, 0, 1, 0]), [mask, np.zeros_like(mask), mask, np.zeros_like(mask)])
    assert 0 <= pixel_auc(maps, gt, sigma_px=1e9).auc <= 1
    for grid in maps:
        _check_critical(grid, mask, 1e9)
