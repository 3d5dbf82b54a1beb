from __future__ import annotations

import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from videoanomaly import (
    ActivationFrame,
    AlignmentError,
    BinLayout,
    CapabilityError,
    DetectorConfig,
    Emission,
    FormatError,
    Frame,
    StreamingDetector,
    StreamTooShortError,
    run_detector,
)
from videoanomaly import pipeline, synth
from videoanomaly.pipeline import (
    FeatureStore,
    aggregate,
    read_scores_csv,
    smooth,
    window_batch,
    write_scores_csv,
)
from videoanomaly.features import (
    CUBE_DIM,
    STACK,
    STATIC_EPS,
    WORK_H,
    WORK_W,
    gradient_feature,
)
from videoanomaly.unmasking import CHANCE, MIN_PER_CLASS, WindowBatch, score

from test_features import GATE_CASES, _cube_grid_reference, _gate_stack, _static_gate


def _windows(starts, values, channel="motion"):
    """(starts, bin_scores) for aggregate: one row of bin scores per window
    start; a scalar value is a one-bin row."""
    rows = [np.full(1, v) if np.isscalar(v) else np.asarray(v, float) for v in values]
    return np.asarray(starts), {channel: np.stack(rows)}


# ----------------------------------------------------------------- planning


def _plan(frame_count, w, stride):
    """Oracle of the detector's windows: [start, start + 2w) at starts 0,
    stride, 2 stride, ..., floor((T - 2w) / stride) + 1 of them."""
    return [(j * stride, j * stride + 2 * w) for j in range((frame_count - 2 * w) // stride + 1)]


@pytest.mark.parametrize("frame_count, stride, starts", [
    (20, 5, [0]),
    (30, 5, [0, 5, 10]),
    (27, 7, [0, 7]),
    (24, 5, [0]),  # a trailing remainder shorter than the stride adds no window
])
def test_run_detector_window_starts(frame_count, stride, starts):
    config = DetectorConfig(w=10, stride=stride)
    result = run_detector(frames=synth.noise_video(frame_count, seed=0), config=config)
    assert result.windows.tolist() == starts


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(stride=11)  # stride must not exceed w
    with pytest.raises(ValueError):
        DetectorConfig(w=12)  # motion half-window must tile into 5-frame stacks
    DetectorConfig(w=12, stride=5, channel="appearance")  # fine without motion
    with pytest.raises(ValueError):
        DetectorConfig(m=5)
    with pytest.raises(ValueError):
        DetectorConfig(k=0)
    with pytest.raises(ValueError):
        DetectorConfig(lam=-0.5)
    with pytest.raises(ValueError):
        DetectorConfig(lam=0)
    with pytest.raises(ValueError):
        DetectorConfig(lam=float("inf"))
    with pytest.raises(ValueError):
        DetectorConfig(lam=float("nan"))
    with pytest.raises(ValueError):
        DetectorConfig(lam=1e-310)  # subnormal: every fit would score chance
    with pytest.raises(ValueError):
        DetectorConfig(smooth_sigma=-1)
    with pytest.raises(ValueError):
        DetectorConfig(smooth_sigma=float("inf"))
    with pytest.raises(ValueError):
        DetectorConfig(smooth_sigma=float("nan"))
    with pytest.raises(ValueError):
        DetectorConfig(channel="audio")


def test_config_channels_and_dict():
    assert DetectorConfig().enabled_channels == ("motion",)
    fusion = DetectorConfig(channel="fusion")
    assert fusion.enabled_channels == ("motion", "appearance")
    d = DetectorConfig(lam=0.25, bins=BinLayout(3, 4)).to_dict()
    assert d["lambda"] == 0.25
    assert d["bins"] == "3x4"
    # appearance binning is fixed by the activation geometry
    assert fusion.n_bins("appearance") == 4
    assert DetectorConfig(bins=BinLayout(1, 1)).n_bins("motion") == 1


# ------------------------------------------------------------ window batches


def test_window_batch_motion_counts_and_labels():
    config = DetectorConfig()
    store = FeatureStore(config)
    for f in synth.noise_video(20, seed=0):
        store.add(f, None)
    batch = window_batch((0, 20), "motion", store)[0]
    # dense noise: 4 stacks x 48 cells in the bin, half labeled 0, half 1
    assert batch.x.shape == (192, 500)
    assert batch.class_counts() == (96, 96)
    assert batch.y[:96].sum() == 0 and batch.y[96:].sum() == 96


def test_window_batch_appearance_counts():
    config = DetectorConfig(channel="appearance")
    store = FeatureStore(config)
    for a in synth.noise_activations(20, seed=0):
        store.add(None, a)
    batch = window_batch((0, 20), "appearance", store)[2]
    assert batch.x.shape == (20, 12544)
    assert batch.class_counts() == (10, 10)


def test_store_rejects_out_of_order_and_missing_inputs():
    store = FeatureStore(DetectorConfig())
    frames = synth.noise_video(3, seed=1)
    store.add(frames[0], None)
    with pytest.raises(ValueError):
        store.add(frames[2], None)
    with pytest.raises(CapabilityError):
        store.add(None, None)


def test_store_resizes_odd_input():
    store = FeatureStore(DetectorConfig())
    rng = np.random.default_rng(2)
    for i in range(5):
        store.add(Frame(i, 320, 240, rng.random((240, 320))), None)
    rows, keep = store.slot(0)
    assert keep.any()
    assert rows.shape == (int(keep.sum()), 500)


def test_store_keeps_no_rows_for_static_slots():
    store = FeatureStore(DetectorConfig())
    img = np.random.default_rng(3).random((WORK_H, WORK_W))
    for i in range(20):
        store.add(Frame(i, WORK_W, WORK_H, img), None)
    for start in range(0, 20, 5):
        rows, keep = store.slot(start)
        assert not keep.any()
        assert rows.shape == (0, 500)
    assert window_batch((0, 20), "motion", store) == {}


def _held_frames(store):
    """The number of distinct frames the store's open gates hold."""
    return len({s + t for s, gate in store._open.items() for t in range(len(gate.frames))})


def test_store_drops_resized_frames_once_their_slots_are_cached():
    """At w=10, stride 5 a closing window has cached every slot that a
    later window reads and that the pushed frames reach, so no resized
    frame outlives the close; between closes only the frames of the next
    uncached slot are held."""
    frames, _, _ = synth.block_event_video(frame_count=60, active_range=(20, 40))
    det = StreamingDetector(DetectorConfig(w=10, stride=5, k=1))
    closes = 0
    for f in frames:
        closed = bool(det.push(f))  # every close emits frames
        held = _held_frames(det.store)
        if closed:
            closes += 1
            assert held == 0
        elif closes:
            assert held < STACK
    assert closes == len(_plan(60, 10, 5))


@pytest.mark.parametrize(
    "stream,stride,frame_count", [("static", 5, 3000), ("noise", 1, 60), ("events", 3, 90)]
)
def test_store_holds_at_most_five_resized_frames(stream, stride, frame_count):
    """The gate runs on arrival, so a resized frame lives only while an
    open slot's gate holds it: never more than 5 frames after a push,
    whatever the stride. Keeping the frames of every slot not yet cached
    held 19 after the last push before the first window closed. A cached
    slot lives until the next window starts past it."""
    if stream == "static":
        pixels = np.random.default_rng(0).random((WORK_H, WORK_W))
        frames = (Frame(i, WORK_W, WORK_H, pixels) for i in range(frame_count))
    elif stream == "noise":
        frames = synth.noise_video(frame_count, seed=2)
    else:
        frames, _, _ = synth.block_event_video(frame_count=frame_count, active_range=(20, 40))
    det = StreamingDetector(DetectorConfig(w=10, stride=stride, k=1))
    held = []
    for f in frames:
        det.push(f)
        held.append(_held_frames(det.store))
        assert min(det.store._slots, default=np.inf) >= det._next_window * stride
    assert max(held) <= STACK
    assert det.store.frames_seen == frame_count


def test_window_batch_motion_selects_kept_cells_of_its_bin():
    """A sprite moving over a static background in bin 1 (top-right):
    bin 1's examples are the per-block descriptors of its moving cells,
    slot by slot in row-major cell order; the other bins get no batch."""
    rng = np.random.default_rng(4)
    pixels = np.repeat(rng.random((1, WORK_H, WORK_W)), 20, axis=0)
    for t in range(20):
        pixels[t, 12:24, 85 + 2 * t : 97 + 2 * t] = 0.9
    store = FeatureStore(DetectorConfig())
    for i in range(20):
        store.add(Frame(i, WORK_W, WORK_H, pixels[i]), None)
    expected, labels = [], []
    for slot in range(0, 20, 5):
        stack = pixels[slot : slot + 5]
        for gy in range(6):
            for gx in range(8, 16):
                block = stack[:, gy * 10 : (gy + 1) * 10, gx * 10 : (gx + 1) * 10]
                if np.abs(np.gradient(block, axis=0)).max() >= STATIC_EPS:
                    f = gradient_feature(block.transpose(1, 2, 0))
                    expected.append(f / np.linalg.norm(f[None], axis=-1))
                    labels.append(int(slot >= 10))
    batches = window_batch((0, 20), "motion", store)
    assert len(expected) > 4
    assert np.array_equal(batches[1].x, np.stack(expected))
    assert batches[1].y.tolist() == labels
    assert list(batches) == [1]


# -------------------------------------------------------------- aggregation


def test_aggregate_means_covering_windows():
    config = DetectorConfig(bins=BinLayout(1, 1))
    series = aggregate(*_windows([0, 5], [0.4, 0.6]), 25, config)
    motion = series.per_channel["motion"]
    assert np.allclose(motion[10:15], 0.4)  # window 0 only
    assert np.allclose(motion[15:20], 0.5)  # both windows cover these
    assert np.allclose(motion[20:25], 0.6)  # window 1 only
    assert np.allclose(motion[:10], 0.4)  # backfilled from frame 10


def test_aggregate_takes_max_over_bins():
    config = DetectorConfig(bins=BinLayout(1, 2))
    series = aggregate(*_windows([0], [[0.3, 0.9]]), 20, config)
    assert np.allclose(series.per_channel["motion"][10:], 0.9)
    assert np.allclose(series.per_bin["motion"][10:, 0], 0.3)


def test_aggregate_interior_gap_raises():
    """Windows 19 frames apart (a stride above w, which DetectorConfig
    rejects) cover [10, 20) and [29, 39) and leave frames 20..28 between:
    no frame there takes a neighbour's value."""
    config = DetectorConfig(bins=BinLayout(1, 1), smooth_sigma=0.0)
    with pytest.raises(ValueError, match="not contiguous"):
        aggregate(*_windows([0, 19], [0.2, 0.8]), 39, config)


def test_aggregate_single_channel_fuses_to_itself():
    config = DetectorConfig(bins=BinLayout(1, 1))
    series = aggregate(*_windows([0], [0.7]), 20, config)
    assert np.array_equal(series.fused, series.per_channel["motion"])


def test_channel_mean_matches_np_mean_bit_for_bit():
    """Summing into the first array and dividing in place gives np.mean's
    bits, NaN and infinities included, for one and two channels; the first
    array is the one returned. np.mean adds from +0.0, so an element that
    is -0.0 in every channel reads +0.0 there (adding 0.0 aligns them)."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        maps = [rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-300, 300) for _ in range(2)]
        for m in maps:
            m[rng.random(m.shape) < 0.1] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0])
        for chosen in (maps[:1], maps):
            first = chosen[0].copy()
            with np.errstate(all="ignore"):  # inf - inf, and overflow
                want = np.mean(chosen, axis=0)
                got = pipeline.channel_mean([first, *chosen[1:]])
            assert got is first and (got + 0.0).tobytes() == want.tobytes()


def _coverage_mean_backfill_every_frame(starts, rows, w, lo, hi):
    """Slow twin of coverage_mean: every frame of the range, covered or
    not, searches for its nearest covered frame, and the means are divided
    into a new array before the backfill gathers a third."""
    rows = np.asarray(rows, dtype=np.float64)
    sums = np.zeros((hi - lo, *rows.shape[1:]))
    counts = np.zeros(hi - lo)
    for start, row in zip(starts, rows):
        a, b = max(start + w, lo) - lo, min(start + 2 * w, hi) - lo
        if a < b:
            sums[a:b] += row
            counts[a:b] += 1
    idx = np.flatnonzero(counts)
    if idx.size == 0:
        raise ValueError("no frame is covered by any window")
    frames = np.arange(hi - lo)
    pos = np.searchsorted(idx, frames)
    left = idx[np.clip(pos - 1, 0, idx.size - 1)]
    right = idx[np.clip(pos, 0, idx.size - 1)]
    pick = np.where(np.abs(frames - left) <= np.abs(right - frames), left, right)
    return (sums / np.maximum(counts, 1)[:, None])[pick]


def _coverage_cases(seed=24):
    """(starts, rows, w, lo, hi) over w 1..11 and strides up to 3w, so
    stride > w leaves gaps between second halves; head, tail, interior,
    whole and empty ranges; rows with NaNs, and rows as nested lists."""
    rng = np.random.default_rng(seed)
    for w in range(1, 12):
        for stride in sorted({1, w, 2 * w, 3 * w, int(rng.integers(1, 3 * w + 1))}):
            for _ in range(3):
                count = int(rng.integers(1, 9))
                starts = int(rng.integers(0, 6)) + stride * np.arange(count)
                end = int(starts[-1]) + 2 * w + int(rng.integers(0, 2 * w + 1))
                rows = rng.random((count, int(rng.integers(1, 5))))
                if rng.random() < 0.3:
                    rows[rng.random(rows.shape) < 0.2] = np.nan
                cut = sorted(rng.integers(0, end + 1, size=2).tolist())
                mid = int(rng.integers(0, end + 1))
                for lo, hi in [(0, cut[1]), (cut[0], end), tuple(cut), (0, end), (mid, mid)]:
                    yield starts, rows, w, lo, hi
                    yield starts.tolist(), rows.tolist(), w, lo, hi


def _has_gap(starts, w, lo, hi):
    """Whether the covered frames of [lo, hi) leave an uncovered frame
    between them."""
    covered = sorted({f for s in starts for f in range(s + w, s + 2 * w) if lo <= f < hi})
    return bool(covered) and covered[-1] - covered[0] + 1 != len(covered)


def test_coverage_mean_matches_backfill_every_frame_oracle():
    """Where the covered frames are contiguous, backfilling only the head
    and tail in place gives the twin's bytes, and raises its error, on
    every case. A range whose covered frames leave a gap raises."""
    matched = backfilled = raised = gapped = 0
    for starts, rows, w, lo, hi in _coverage_cases():
        if _has_gap(starts, w, lo, hi):
            with pytest.raises(ValueError, match="not contiguous"):
                pipeline.coverage_mean(starts, rows, w, lo, hi)
            gapped += 1
            continue
        try:
            want = _coverage_mean_backfill_every_frame(starts, rows, w, lo, hi)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                pipeline.coverage_mean(starts, rows, w, lo, hi)
            raised += 1
            continue
        got = pipeline.coverage_mean(starts, rows, w, lo, hi)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (starts, w, lo, hi)
        matched += 1
        covered = {f for s in starts for f in range(s + w, s + 2 * w)}
        backfilled += not covered.issuperset(range(lo, hi))
    # the grid holds every outcome, and most matches backfill some frame
    counts = (matched, backfilled, raised, gapped)
    assert matched > 600 and backfilled > 500 and raised > 300 and gapped > 300, counts


def test_coverage_mean_raises_on_uncovered_and_empty_ranges():
    rows = [[0.25, 0.5]]
    for lo, hi in [(0, 10), (20, 30), (15, 15), (0, 0)]:  # before, after, empty
        for fn in (pipeline.coverage_mean, _coverage_mean_backfill_every_frame):
            with pytest.raises(ValueError, match="no frame is covered by any window"):
                fn([0], rows, 10, lo, hi)


def test_whole_series_coverage_mean_holds_one_output_array():
    """Over 12,000 frames of 192 cell columns (a cube_score_map channel),
    the traced peak is the output and little more: the twin holds the
    sums, their quotient and the gathered copy, about 3x."""
    frame_count, w, stride = 12_000, 10, 5
    starts = stride * np.arange((frame_count - 2 * w) // stride + 1)
    rows = np.random.default_rng(5).random((len(starts), 192))
    tracemalloc.start()
    try:
        out = pipeline.coverage_mean(starts, rows, w, 0, frame_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (frame_count, 192)
    assert peak <= 1.25 * out.nbytes, peak / out.nbytes


# ---------------------------------------------------------------- smoothing


def _smooth_reference(x, sigma):
    import math

    radius = math.ceil(3 * sigma)
    out = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        num = den = 0.0
        for j in range(max(0, i - radius), min(len(x), i + radius + 1)):
            g = math.exp(-((i - j) ** 2) / (2 * sigma * sigma))
            num += g * x[j]
            den += g
        out[i] = num / den
    return out


def test_smooth_matches_reference_convolution():
    rng = np.random.default_rng(3)
    x = rng.random(40)
    assert np.allclose(smooth(x, 3.0), _smooth_reference(x, 3.0), atol=1e-12)
    assert np.allclose(smooth(x, 10.0), _smooth_reference(x, 10.0), atol=1e-12)


def test_smooth_preserves_constants():
    x = np.full(50, 0.37)
    assert np.allclose(smooth(x, 10.0), x, atol=1e-12)


def test_smooth_sigma_zero_is_identity():
    x = np.random.default_rng(4).random(20)
    out = smooth(x, 0.0)
    assert np.array_equal(out, x)
    assert out is not x


def _smooth_uncapped(x, sigma):
    """smooth with the radius ceil(3*sigma) whatever the series length."""
    import math

    radius = math.ceil(3 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))
    num = np.convolve(x, taps)[radius : radius + x.size]
    den = np.convolve(np.ones(x.size), taps)[radius : radius + x.size]
    return np.clip(num / den, 0.0, 1.0)


def test_smooth_radius_cap_changes_no_bit():
    """Capping the radius at the series length drops only taps that never
    meet a frame: 440 series shorter than the radius, bit for bit."""
    rng = np.random.default_rng(8)
    for length in range(1, 41):
        x = rng.random(length)
        for factor in (1 / 3, 1 / 2, 1, 1.5, 2, 3, 5, 10, 30, 100, 300):
            sigma = (length + 1) * factor  # radius ceil(3 * sigma) > length
            assert np.array_equal(smooth(x, sigma), _smooth_uncapped(x, sigma)), (length, sigma)


def test_smooth_takes_a_huge_sigma():
    x = np.random.default_rng(9).random(50)
    for sigma in (1e9, 1e300):  # 101 taps, each 1.0 to 1e-15: the mean
        assert np.allclose(smooth(x, sigma), x.mean(), atol=1e-12)


def test_smooth_rejects_negative_sigma():
    for sigma in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            smooth(np.zeros(5), sigma)


def test_smooth_takes_a_sigma_whose_square_underflows():
    """Below sigma ~ 1.5e-162, 2 sigma^2 is 0: the center tap is exactly 1
    and every other tap 0, so smoothing is the identity, with no warning;
    between there and the normal range it divides by a subnormal."""
    x = np.random.default_rng(10).random(50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sigma in (5e-324, 1e-300, 1e-200, 1e-160):
            assert pipeline.gaussian_taps(sigma, 50).tolist() == [0.0, 1.0, 0.0]
            assert smooth(x, sigma).tobytes() == x.tobytes(), sigma


# ------------------------------------------------------------ batch running


def test_run_detector_requires_input():
    with pytest.raises(CapabilityError):
        run_detector(config=DetectorConfig())


def test_run_detector_short_stream():
    with pytest.raises(StreamTooShortError, match="stream has 19 frames, needs at least 20"):
        run_detector(frames=synth.noise_video(19, seed=0))


def test_run_detector_channel_input_mismatch():
    acts = synth.noise_activations(30, seed=0)
    with pytest.raises(CapabilityError) as err:
        run_detector(activations=acts, config=DetectorConfig())
    assert "--frames" in str(err.value)
    frames = synth.noise_video(30, seed=0)
    with pytest.raises(CapabilityError) as err:
        run_detector(frames=frames, config=DetectorConfig(channel="fusion"))
    assert "--activations" in str(err.value)


def test_run_detector_input_length_mismatch():
    frames = synth.noise_video(30, seed=0)
    acts = synth.noise_activations(25, seed=0)
    with pytest.raises(AlignmentError):
        run_detector(frames=frames, activations=acts, config=DetectorConfig(channel="fusion"))


def test_run_detector_series_shapes():
    frames = synth.noise_video(40, seed=5)
    result = run_detector(frames=frames)
    assert result.frame_count == 40
    assert len(result.windows) == 5
    series = result.series
    assert series.fused.shape == (40,)
    assert series.per_bin["motion"].shape == (40, 4)
    assert np.all(series.smoothed >= 0) and np.all(series.smoothed <= 1)
    assert result.extraction_fps > 0 and result.prediction_fps > 0


def test_fusion_is_mean_of_channels():
    frames = synth.noise_video(40, seed=6)
    acts = synth.noise_activations(40, seed=6)
    result = run_detector(frames=frames, activations=acts, config=DetectorConfig(channel="fusion"))
    series = result.series
    assert series.channels == ("motion", "appearance")
    expected = (series.per_channel["motion"] + series.per_channel["appearance"]) / 2
    assert np.allclose(series.fused, expected, atol=1e-15)


def test_runs_are_deterministic():
    frames, _, _ = synth.block_event_video(frame_count=80, active_range=(40, 60))
    first = run_detector(frames=frames).series
    second = run_detector(frames=frames).series
    det = StreamingDetector()
    for f in frames:
        det.push(f)
    streamed = det.finalize()[1].series
    for other in (second, streamed):
        assert np.array_equal(other.per_bin["motion"], first.per_bin["motion"])
        assert np.array_equal(other.fused, first.fused)
        assert np.array_equal(other.smoothed, first.smoothed)


# ------------------------------------------------------------------ streaming


def test_streaming_matches_batch_bit_for_bit():
    frames, _, _ = synth.block_event_video(frame_count=100, active_range=(50, 70))
    batch = run_detector(frames=frames)

    det = StreamingDetector()
    emissions = []
    for f in frames:
        emissions.extend(det.push(f))
    tail, result = det.finalize()
    emissions.extend(tail)

    assert [em.frame for em in emissions] == list(range(100))
    assert np.array_equal([em.fused for em in emissions], batch.series.fused)
    assert np.array_equal(result.series.fused, batch.series.fused)
    assert np.array_equal(result.series.smoothed, batch.series.smoothed)


def _final_emissions(series):
    """The emission of every frame, read from a finalized series."""
    per_channel = series.per_channel
    return [
        Emission(
            f,
            float(per_channel["motion"][f]) if "motion" in per_channel else None,
            float(per_channel["appearance"][f]) if "appearance" in per_channel else None,
            float(series.fused[f]),
        )
        for f in range(series.frame_count)
    ]


def _bits(emissions):
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in vars(e).values())
        for e in emissions
    ]


def _mixed_activations(frame_count):
    """Noise activations alternating with a repeated segment, so appearance
    scores vary between separable and chance windows."""
    noise = synth.noise_activations(frame_count, seed=11)
    twin = synth.repeating_activations(frame_count, seed=12)
    return [n if (n.index // 13) % 2 else t for n, t in zip(noise, twin)]


# (w, stride, frame count); every count leaves a tail after the last
# window, and with stride == w that tail follows an already-emitted frame
EMISSION_GRID = [(10, 5, 98), (10, 10, 97), (10, 3, 97), (5, 5, 99)]


@pytest.mark.parametrize("channel", ["motion", "appearance", "fusion"])
@pytest.mark.parametrize("w,stride,frame_count", EMISSION_GRID)
def test_emissions_match_finalized_series(channel, w, stride, frame_count):
    """Every emitted field is final: the emissions of all pushes and of
    finalize() equal finalize()'s series bit for bit, and are the same
    whatever the smoothing sigma. A push that closes window j emits
    exactly up to frame (j+1)*stride + w."""
    frames, _, _ = synth.block_event_video(
        frame_count=frame_count, active_range=(40, 70), speed=2.0
    )
    acts = _mixed_activations(frame_count)
    seen = []
    for sigma in (0.0, 3.0, 10.0, 1e9):
        config = DetectorConfig(w=w, stride=stride, k=2, smooth_sigma=sigma, channel=channel)
        trace = io.StringIO()
        det = StreamingDetector(config, trace)
        emissions = []
        for f, a in zip(frames, acts):
            out = det.push(f, a)
            if out:
                closed = (f.index + 1 - 2 * w) // stride + 1
                assert out[-1].frame + 1 == closed * stride + w
            emissions.extend(out)
        tail, result = det.finalize()
        assert tail and len(emissions) + len(tail) == frame_count
        seen.append(_bits(emissions + tail))
        assert seen[-1] == seen[0] == _bits(_final_emissions(result.series))
        windows = len(_plan(frame_count, w, stride))
        assert np.array_equal(result.windows, np.arange(windows) * stride)
        assert (result.presence is None) == (channel == "appearance")
        lines = [json.loads(line) for line in trace.getvalue().splitlines()]
        assert [line["window"] for line in lines] == list(range(windows))
        for ch in config.enabled_channels:
            assert result.bin_scores[ch].tolist() == [line[ch]["scores"] for line in lines]
            # each bin score is the mean of its k accuracies, bit for bit;
            # a bin with no fit has k chance accuracies
            for line in lines:
                fits = line[ch]["trained"]
                for b, value in enumerate(line[ch]["scores"]):
                    fit = fits.get(str(b), {"accuracies": [CHANCE] * config.k})
                    assert len(fit["accuracies"]) == config.k
                    assert value == float(np.mean(fit["accuracies"]))


def _window_batch_reference(window, bin, channel, store):
    """The examples of one (window, bin, channel) triple, built bin by
    bin: the oracle of window_batch. A bin with no example gets an empty
    (0, 500) batch."""
    start, end = window
    w = (end - start) // 2
    if channel == "motion":
        xs, ys = [], []
        mask = store.bin_grid == bin
        for slot_start in range(start, end, STACK):
            rows, keep = store.slot(slot_start)
            cell = mask[keep]
            if cell.any():
                xs.append(rows[cell])
                ys.append(
                    np.full(int(cell.sum()), 0 if slot_start - start < w else 1, np.uint8)
                )
        if xs:
            x = np.concatenate(xs)
            y = np.concatenate(ys)
        else:
            x = np.empty((0, CUBE_DIM))
            y = np.empty(0, np.uint8)
        return WindowBatch(x, y)
    if channel == "appearance":
        x = np.stack([store._app[f][bin] for f in range(start, end)])
        y = (np.arange(start, end) - start >= w).astype(np.uint8)
        return WindowBatch(x, y)
    raise ValueError(f"unknown channel {channel!r}")


class _UnskippedDetector(StreamingDetector):
    """Oracle for the skipped bins: every (channel, bin) of every window
    gets a batch and an unmask call, degenerate or not, and every window
    stores rows of its own. ``profiles`` keeps (window, channel, bin,
    class counts, profile) per call."""

    def __init__(self, config, trace=None):
        super().__init__(config, trace)
        self.profiles = []

    def _close_window(self, window_id):
        cfg, store = self.config, self.store
        start = window_id * cfg.stride
        window = (start, start + 2 * cfg.w)
        batches = {
            ch: [_window_batch_reference(window, b, ch, store) for b in range(cfg.n_bins(ch))]
            for ch in cfg.enabled_channels
        }
        if "motion" in cfg.enabled_channels:
            keeps = [store.slot(slot_start)[1] for slot_start in range(*window, STACK)]
            self._presence.append(np.logical_or.reduce(keeps))
        store.evict_below(start + cfg.stride)
        for ch, channel_batches in batches.items():
            profiles = [pipeline.unmask(b, cfg.k, cfg.m, cfg.lam) for b in channel_batches]
            self.profiles.extend(
                (window_id, ch, b, batch.class_counts(), p)
                for b, (batch, p) in enumerate(zip(channel_batches, profiles))
            )
            self._bin_scores[ch].append(np.array([score(p) for p in profiles]))


def _placed_events(frame_count, seed=4):
    """A static scene whose cells change at chosen slots of 5 frames.

    Per slot and 2x2 bin, 0 to 3 cells of the bin change in the slot's
    middle frame only, so exactly those cubes pass the static gate.
    """
    rng = np.random.default_rng(seed)
    pixels = np.repeat(rng.random((1, WORK_H, WORK_W)), frame_count, axis=0)
    grid = BinLayout().patch_bin_grid()
    counts = rng.integers(0, 4, (frame_count // STACK, grid.max() + 1))
    counts[rng.random(counts.shape) < 0.3] = 0
    for slot, row in enumerate(counts):
        for b, n in enumerate(row):
            cells = rng.permutation(np.argwhere(grid == b))[:n]
            for gy, gx in cells:
                patch = rng.random((10, 10))
                pixels[slot * STACK + 2, gy * 10 : gy * 10 + 10, gx * 10 : gx * 10 + 10] = patch
    return [Frame(i, WORK_W, WORK_H, p) for i, p in enumerate(pixels)]


def _exact(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _run_counting(detector_cls, config, frames, acts, monkeypatch):
    """Push the stream through a detector with a trace; returns
    emissions, the result, the (n0, n1) class counts of every unmask call
    and the detector."""
    calls = []
    real = pipeline.unmask

    def counting(batch, *args):
        calls.append(batch.class_counts())
        return real(batch, *args)

    monkeypatch.setattr(pipeline, "unmask", counting)
    det = detector_cls(config, io.StringIO())
    emissions = []
    for f, a in zip(frames, acts):
        emissions.extend(det.push(f, a))
    tail, result = det.finalize()
    monkeypatch.setattr(pipeline, "unmask", real)
    return emissions + tail, result, calls, det


def _stream(name, frame_count):
    """(config, frames, activations) of a named test stream: placed cell
    changes (see _placed_events) under the default detector at k=3,
    unless the name changes the frames or the config."""
    frames = _placed_events(frame_count)
    options = {"k": 3}
    if name == "static":
        frames = [Frame(i, WORK_W, WORK_H, frames[0].pixels) for i in range(frame_count)]
    elif name == "noise":
        frames = synth.noise_video(frame_count, seed=9)
    elif name == "fusion":
        options["channel"] = "fusion"
    elif name == "stride3":
        options["stride"] = 3
    elif name == "w5":
        options["w"] = 5
    elif name == "bins3x4":
        options["bins"] = BinLayout(3, 4)
    elif name == "appearance_w1":
        options.update(w=1, stride=1, channel="appearance")
    config = DetectorConfig(**options)
    if "appearance" in config.enabled_channels:
        acts = _mixed_activations(frame_count)
    else:
        acts = [None] * frame_count
    return config, frames, acts


BATCH_STREAMS = ["placed", "static", "noise", "fusion", "stride3", "w5", "bins3x4",
                 "appearance_w1"]


@pytest.mark.parametrize("stream", BATCH_STREAMS)
def test_window_batch_matches_per_bin_reference(stream):
    """For every window and channel, window_batch holds exactly the bins
    whose reference batch has MIN_PER_CLASS examples of each class, in
    ascending order, and each batch equals the reference bit for bit."""
    config, frames, acts = _stream(stream, 80)
    store = FeatureStore(config)
    for f, a in zip(frames, acts):
        store.add(f, a)
    emptier_halves = set()
    for window in _plan(store.frames_seen, config.w, config.stride):
        for ch in config.enabled_channels:
            want = [
                _window_batch_reference(window, b, ch, store) for b in range(config.n_bins(ch))
            ]
            emptier_halves |= {min(batch.class_counts()) for batch in want}
            trainable = [
                b for b, batch in enumerate(want) if min(batch.class_counts()) >= MIN_PER_CLASS
            ]
            got = window_batch(window, ch, store)
            assert list(got) == trainable
            for b, batch in got.items():
                assert _exact(batch.x, want[b].x)
                assert _exact(batch.y, want[b].y)
    if stream == "placed":
        assert {0, 1, 2, 3} <= emptier_halves
    if stream == "appearance_w1":
        assert emptier_halves == {1}


def _window_batch_counting(window, channel, store):
    """window_batch without its early return: every motion window counts
    its examples per bin, static or not. The oracle of that return."""
    start, end = window
    w = (end - start) // 2
    n_bins = store.config.n_bins(channel)
    if channel == "motion":
        slots = [store.slot(s) for s in range(start, end, STACK)]
        cell_bins = [store.bin_grid[keep] for _, keep in slots]
        half = w // STACK
        counts = [
            np.bincount(np.concatenate(part), minlength=n_bins)
            for part in (cell_bins[:half], cell_bins[half:])
        ]
    else:
        vectors = [store._app[f] for f in range(start, end)]
        counts = [np.full(n_bins, w)] * 2
    batches = {}
    for b in np.flatnonzero(np.minimum(*counts) >= MIN_PER_CLASS).tolist():
        if channel == "motion":
            x = np.concatenate([rows[cells == b] for (rows, _), cells in zip(slots, cell_bins)])
        else:
            x = np.stack([v[b] for v in vectors])
        y = np.repeat(np.arange(2, dtype=np.uint8), (counts[0][b], counts[1][b]))
        batches[b] = WindowBatch(x, y)
    return batches


@pytest.mark.parametrize("channel", ["motion", "fusion"])
def test_window_batch_early_return_matches_counting_oracle(channel):
    """A static scene, then placed cell changes, then noise: windows whose
    slots are all static, partly static and all moving give the oracle's
    bins and examples bit for bit."""
    frame_count = 120
    placed = _placed_events(frame_count)
    noise = synth.noise_video(frame_count, seed=9)
    frames = [
        Frame(i, WORK_W, WORK_H, (placed[0] if i < 40 else placed[i] if i < 80 else noise[i]).pixels)
        for i in range(frame_count)
    ]
    config = DetectorConfig(k=1, channel=channel)
    store = FeatureStore(config)
    for f, a in zip(frames, _mixed_activations(frame_count)):
        store.add(f, a)
    kinds = set()
    for window in _plan(frame_count, config.w, config.stride):
        kept = [int(store.slot(s)[1].sum()) for s in range(*window, STACK)]
        kinds.add("static" if not any(kept) else "moving" if min(kept) == 192 else "partly")
        for ch in config.enabled_channels:
            got, want = window_batch(window, ch, store), _window_batch_counting(window, ch, store)
            assert list(got) == list(want)
            for b, batch in want.items():
                assert _exact(got[b].x, batch.x) and _exact(got[b].y, batch.y)
    assert kinds == {"static", "partly", "moving"}


@pytest.mark.parametrize("channel", ["motion", "appearance"])
def test_single_channel_fused_is_the_mean_of_one(channel):
    """With one enabled channel, fused is a copy of its series, bit for bit
    the mean over the one-element list."""
    config = DetectorConfig(w=10, stride=3, channel=channel)
    rng = np.random.default_rng(6)
    starts = np.arange(30) * config.stride
    rows = {channel: rng.random((30, config.n_bins(channel)))}
    for lo, hi in [(0, 110), (37, 52)]:
        _, per_channel, fused = pipeline._frame_scores(starts, rows, config, lo, hi)
        assert _exact(fused, np.mean(list(per_channel.values()), axis=0))
        assert not np.shares_memory(fused, per_channel[channel])


SKIP_STREAMS = ["placed", "static", "noise", "fusion", "stride3", "appearance_w1"]


@pytest.mark.parametrize("stream", SKIP_STREAMS)
def test_skipped_bins_match_unskipped_oracle(stream, monkeypatch):
    config, frames, acts = _stream(stream, 80)
    got, result, calls, det = _run_counting(StreamingDetector, config, frames, acts, monkeypatch)
    want, oracle, oracle_calls, oracle_det = _run_counting(
        _UnskippedDetector, config, frames, acts, monkeypatch
    )
    assert _bits(got) == _bits(want)
    for ch in config.enabled_channels:
        assert _exact(result.bin_scores[ch], oracle.bin_scores[ch])
    # the trace has a line per window, with or without a fit; its trained
    # bins are exactly the oracle's calls with MIN_PER_CLASS examples of
    # each class, with equal profiles; every other oracle profile is all
    # chance
    lines = [json.loads(line) for line in det.trace.getvalue().splitlines()]
    assert [line["window"] for line in lines] == list(range(len(result.windows)))
    traced = {
        (line["window"], ch, int(b)): (fit["examples"], fit["accuracies"], fit["iterations"])
        for line in lines
        for ch in config.enabled_channels
        for b, fit in line[ch]["trained"].items()
    }
    assert traced == {
        (j, ch, b): (list(counts), p.accuracies.tolist(), p.iterations)
        for j, ch, b, counts, p in oracle_det.profiles if min(counts) >= MIN_PER_CLASS
    }
    assert all((p.accuracies == CHANCE).all()
               for *_, counts, p in oracle_det.profiles if min(counts) < MIN_PER_CLASS)
    if stream == "appearance_w1":
        assert result.presence is oracle.presence is None
    else:
        assert _exact(result.presence, oracle.presence)
    assert _exact(result.windows, oracle.windows)
    series, expected = result.series, oracle.series
    for ch in config.enabled_channels:
        assert _exact(series.per_bin[ch], expected.per_bin[ch])
        assert _exact(series.per_channel[ch], expected.per_channel[ch])
    assert _exact(series.fused, expected.fused)
    assert _exact(series.smoothed, expected.smoothed)
    # one unmask call per trainable bin, in the oracle's order
    trainable = [c for c in oracle_calls if min(c) >= 2]
    assert calls == trainable
    if stream == "placed":
        # some bin has exactly 0, 1 and 2 kept cubes in its emptier half
        assert {0, 1, 2} <= {min(c) for c in oracle_calls}
    if stream == "static":
        assert calls == []
    if stream == "noise":
        assert len(calls) == len(oracle_calls) == len(result.windows) * 4
    if stream == "appearance_w1":
        assert calls == [] and len(oracle_calls) == len(result.windows) * 4


def _gate_stream(frame_count):
    """The GATE_CASES stacks of test_features one after another, with one
    more cell stepping at every frame, so that each slot position sees a
    change that the slots around it do not."""
    stacks = [_gate_stack(case)[0].astype(np.float64) for case in GATE_CASES]
    pixels = np.concatenate(stacks)[:frame_count]
    rng = np.random.default_rng(6)
    for t in range(len(pixels)):
        gy, gx = 8 + (t // 16) % 3, t % 16
        pixels[t, gy * 10 : gy * 10 + 10, gx * 10 : gx * 10 + 10] += rng.random((10, 10))
    return pixels


class _GateCheckingDetector(StreamingDetector):
    """Checks every slot a closing window reads against the stacked
    reference cube grid of the same five frames, before scoring it."""

    def __init__(self, config, pixels):
        super().__init__(config)
        self.pixels = pixels
        self.checked = set()

    def _close_window(self, window_id):
        start = window_id * self.config.stride
        for s in range(start, start + 2 * self.config.w, STACK):
            rows, keep = self.store.slot(s)
            frames = list(self.pixels[s : s + STACK])
            want_rows, want_keep = _cube_grid_reference(frames)
            assert np.array_equal(keep, want_keep), s
            assert np.array_equal(keep, _static_gate(frames)), s
            assert _exact(rows, want_rows), s
            self.checked.add(s)
        super()._close_window(window_id)


GATE_CONFIGS = [(w, s) for w in (5, 10, 20) for s in (1, 2, 3, 5, 10) if s <= w]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("channel", ["motion", "fusion"])
@pytest.mark.parametrize("w,stride", GATE_CONFIGS)
def test_store_gate_matches_one_shot_oracle(w, stride, channel):
    """Gating on arrival, where a frame sits in up to five open slots,
    gives every slot a window reads the keep mask and rows of the one-shot
    stacked cube grid, bit for bit."""
    pixels = _gate_stream(STACK * len(GATE_CASES))
    acts = synth.noise_activations(len(pixels), seed=1)
    det = _GateCheckingDetector(DetectorConfig(w=w, stride=stride, k=1, channel=channel), pixels)
    for t, act in enumerate(acts):
        det.push(Frame(t, WORK_W, WORK_H, pixels[t]), act)
    det.finalize()
    windows = _plan(len(pixels), w, stride)
    read = {s for start, end in windows for s in range(start, end, STACK)}
    assert det.checked == read


def test_detector_memory_growth_per_frame():
    """On a static scene a detector keeps a few bytes per pushed frame:
    each closed window appends references to shared chance rows and a
    shared empty presence grid, no arrays of its own."""
    pixels = np.random.default_rng(0).random((WORK_H, WORK_W))  # a static scene
    det = StreamingDetector()
    tracemalloc.start()
    try:
        for i in range(3000):
            det.push(Frame(i, WORK_W, WORK_H, pixels))
            if i + 1 == 1000:
                at_1k = tracemalloc.get_traced_memory()[0]
        growth = tracemalloc.get_traced_memory()[0] - at_1k
    finally:
        tracemalloc.stop()
    assert growth / 2000 <= 25


def test_detector_memory_growth_per_frame_when_every_window_trains():
    """On noise every bin of every window trains (m=500 drops all 500
    features after the first loop, so one fit per bin). A window keeps its
    bin-score row and presence grid, not its accuracy profiles: about
    116 B per pushed frame, against 207 B when the (n_bins, k) profiles
    were kept too."""
    rng = np.random.default_rng(0)
    det = StreamingDetector(DetectorConfig(m=500))
    tracemalloc.start()
    try:
        for i in range(600):
            det.push(Frame(i, WORK_W, WORK_H, rng.random((WORK_H, WORK_W))))
            if i + 1 == 300:
                at_300 = tracemalloc.get_traced_memory()[0]
        growth = tracemalloc.get_traced_memory()[0] - at_300
    finally:
        tracemalloc.stop()
    assert growth / 300 <= 150, growth / 300


def test_streaming_emission_is_prompt():
    """With w=10, s=5 the first emission lands right as window 1 closes."""
    det = StreamingDetector()
    frames = synth.noise_video(30, seed=7)
    seen = {}
    for f in frames:
        for em in det.push(f):
            seen[em.frame] = f.index
    # window 0 closes at frame 19 and finalizes frames 0..14
    assert seen[0] == 19
    assert seen[14] == 19
    # window 1 closes at frame 24 and finalizes 15..19
    assert seen[19] == 24


def _static_frames(frame_count, seed=0):
    pixels = np.random.default_rng(seed).random((WORK_H, WORK_W))
    return (Frame(i, WORK_W, WORK_H, pixels) for i in range(frame_count))


@pytest.mark.parametrize("sigma", [10.0, 1e9])
def test_push_never_smooths(sigma, monkeypatch):
    """Smoothing needs the whole series: pushing 6,000 static frames makes
    no smooth call, and finalize() makes exactly one."""
    real, calls = pipeline.smooth, []

    def counting(series, sigma):
        calls.append(len(series))
        return real(series, sigma)

    monkeypatch.setattr(pipeline, "smooth", counting)
    det = StreamingDetector(DetectorConfig(smooth_sigma=sigma))
    emitted = sum(len(det.push(frame)) for frame in _static_frames(6000))
    assert emitted > 0 and calls == []
    det.finalize()
    assert calls == [6000]


def test_window_closes_search_only_uncovered_frames(monkeypatch):
    """Every range a window close emits is covered but for the first
    one's frames 0..w-1, which copy frame w's row, so 6,000 static pushes
    make no nearest-covered search, where a backfill of every frame
    searched at each of the 1,197 closes."""
    real, searched = np.searchsorted, []

    def counting(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return real(a, v, *args, **kwargs)

    monkeypatch.setattr(pipeline.np, "searchsorted", counting)
    config = DetectorConfig()
    det = StreamingDetector(config)
    emitted = sum(len(det.push(frame)) for frame in _static_frames(6000))
    assert det._next_window == 1197 and emitted == 1197 * config.stride + config.w
    assert searched == []


_REJECTIONS = {  # kind -> (the channels it applies to, bad input from good, error)
    "frame missing": ({"motion"}, lambda f, a: (None, a), CapabilityError),
    "frame misindexed": (
        {"motion"},
        lambda f, a: (Frame(f.index + 1, f.width, f.height, f.pixels), a),
        ValueError,
    ),
    "activation missing": ({"appearance"}, lambda f, a: (f, None), CapabilityError),
    "activation misindexed": (
        {"appearance"},
        lambda f, a: (f, ActivationFrame(a.index + 1, a.channels, a.height, a.width, a.values)),
        ValueError,
    ),
    "activation shape": (
        {"appearance"},
        lambda f, a: (f, ActivationFrame(a.index, 8, a.height, a.width, a.values[:8])),
        ValueError,
    ),
}
_REJECTION_CASES = [
    (channel, kind)
    for channel in ("motion", "appearance", "fusion")
    for kind, (needs, _, _) in _REJECTIONS.items()
    if needs & set(DetectorConfig(channel=channel).enabled_channels)
]


def _pushed_with(channel, reject_at=None, kind=None):
    """Emission bits and the result of pushing block_event_video(60) with
    noise activations; at frame ``reject_at`` a ``kind`` rejection is
    pushed first, and frames_seen is checked to stay put."""
    frames, _, _ = synth.block_event_video(frame_count=60, active_range=(20, 40))
    acts = synth.noise_activations(60, seed=3)
    det = StreamingDetector(DetectorConfig(k=2, channel=channel))
    emissions = []
    for f, a in zip(frames, acts):
        if f.index == reject_at:
            _, bad, error = _REJECTIONS[kind]
            with pytest.raises(error):
                det.push(*bad(f, a))
            assert det.store.frames_seen == f.index
        emissions.extend(det.push(f, a))
    tail, result = det.finalize()
    return _bits(emissions + tail), result


@pytest.mark.parametrize("channel,kind", _REJECTION_CASES)
def test_rejected_push_changes_nothing(channel, kind):
    """A push that raises leaves the detector as it was: after the
    corrected retry, emissions and result equal a clean run bit for bit.
    In fusion, the video frame of a push whose activation is rejected
    must not reach the open slot gates."""
    clean_bits, clean = _pushed_with(channel)
    bits, result = _pushed_with(channel, reject_at=7, kind=kind)
    assert bits == clean_bits
    for ch in clean.series.channels:
        assert clean.bin_scores[ch].tobytes() == result.bin_scores[ch].tobytes()
        assert clean.series.per_bin[ch].tobytes() == result.series.per_bin[ch].tobytes()
    assert clean.series.smoothed.tobytes() == result.series.smoothed.tobytes()
    if clean.presence is not None:
        assert np.array_equal(clean.presence, result.presence)


def test_streaming_finalize_guards():
    det = StreamingDetector()
    for f in synth.noise_video(10, seed=8):
        det.push(f)
    with pytest.raises(StreamTooShortError):
        det.finalize()
    det2 = StreamingDetector()
    for f in synth.noise_video(20, seed=8):
        det2.push(f)
    det2.finalize()
    with pytest.raises(ValueError):
        det2.push(synth.noise_video(21, seed=8)[-1])
    with pytest.raises(ValueError):
        det2.finalize()


# ------------------------------------------------------------------- score IO


def test_scores_csv_roundtrip(tmp_path):
    frames = synth.noise_video(30, seed=9)
    result = run_detector(frames=frames)
    path = tmp_path / "scores.csv"
    write_scores_csv(result.series, path)
    back = read_scores_csv(path)
    assert np.array_equal(back["frame"], np.arange(30))
    assert np.array_equal(back["score_motion"], result.series.per_channel["motion"])
    assert np.array_equal(back["score_smoothed"], result.series.smoothed)
    assert back["score_appearance"] is None


def test_scores_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("frame,score\n0,0.5\n")
    with pytest.raises(FormatError):
        read_scores_csv(path)


def test_scores_csv_rewrite_is_byte_identical(tmp_path):
    frames = synth.noise_video(25, seed=10)
    result = run_detector(frames=frames)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scores_csv(result.series, a)
    write_scores_csv(run_detector(frames=frames).series, b)
    assert a.read_bytes() == b.read_bytes()
