from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from videoanomaly import (
    AlignmentError,
    BinLayout,
    CapabilityError,
    DetectorConfig,
    Emission,
    FeatureStore,
    FormatError,
    Frame,
    StreamingDetector,
    StreamTooShortError,
    aggregate,
    plan_windows,
    read_scores_csv,
    run_detector,
    smooth,
    window_batch,
    write_scores_csv,
)
from videoanomaly import synth
from videoanomaly.features import STACK, STATIC_EPS, WORK_H, WORK_W, gradient_feature


def _windows(starts, values, channel="motion"):
    """(starts, bin_scores) for aggregate: one row of bin scores per window
    start; a scalar value is a one-bin row."""
    rows = [np.full(1, v) if np.isscalar(v) else np.asarray(v, float) for v in values]
    return np.asarray(starts), {channel: np.stack(rows)}


# ----------------------------------------------------------------- planning


def test_plan_windows_examples():
    assert plan_windows(20, 10, 5) == [(0, 20)]
    assert plan_windows(30, 10, 5) == [(0, 20), (5, 25), (10, 30)]
    assert plan_windows(27, 10, 7) == [(0, 20), (7, 27)]
    # a trailing remainder shorter than the stride adds no window
    assert plan_windows(24, 10, 5) == [(0, 20)]


def test_plan_windows_too_short():
    with pytest.raises(StreamTooShortError):
        plan_windows(19, 10, 5)


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
        DetectorConfig(smooth_sigma=-1)
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
    batch = window_batch((0, 20), 0, "motion", store)
    # dense noise: 4 stacks x 48 cells in the bin, half labeled 0, half 1
    assert batch.x.shape == (192, 500)
    assert batch.class_counts() == (96, 96)
    assert batch.y[:96].sum() == 0 and batch.y[96:].sum() == 96


def test_window_batch_appearance_counts():
    config = DetectorConfig(channel="appearance")
    store = FeatureStore(config)
    for a in synth.noise_activations(20, seed=0):
        store.add(None, a)
    batch = window_batch((0, 20), 2, "appearance", store)
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
    assert window_batch((0, 20), 0, "motion", store).x.shape == (0, 500)


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
        held = len(det.store._resized)
        if closed:
            closes += 1
            assert held == 0
        elif closes:
            assert held < STACK
    assert closes == len(plan_windows(60, 10, 5))


def test_store_holds_only_uncached_slot_frames_at_stride_3():
    """At stride 3 (w=10) later windows share only some of their slots
    with closed ones. Past the first windows the store holds up to 14
    resized frames, the ones uncached slots still need; keeping every
    frame from the next window start on would hold up to 19."""
    frames, _, _ = synth.block_event_video(frame_count=90, active_range=(20, 40))
    det = StreamingDetector(DetectorConfig(w=10, stride=3, k=1))
    held = []
    for f in frames:
        det.push(f)
        if det.store.frames_seen > 40:
            held.append(len(det.store._resized))
    assert max(held) == 14


def test_window_batch_motion_selects_kept_cells_of_its_bin():
    """A sprite moving over a static background in bin 1 (top-right):
    bin 1's examples are the per-block descriptors of its moving cells,
    slot by slot in row-major cell order; the other bins get none."""
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
    batch = window_batch((0, 20), 1, "motion", store)
    assert len(expected) > 4
    assert np.array_equal(batch.x, np.stack(expected))
    assert batch.y.tolist() == labels
    for b in (0, 2, 3):
        assert window_batch((0, 20), b, "motion", store).x.shape == (0, 500)


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


def test_aggregate_backfill_tie_prefers_earlier():
    config = DetectorConfig(bins=BinLayout(1, 1), smooth_sigma=0.0)
    # second halves cover [10,20) and [29,39); frame 24 ties and goes left
    series = aggregate(*_windows([0, 19], [0.2, 0.8]), 39, config)
    motion = series.per_channel["motion"]
    assert motion[24] == 0.2
    assert motion[25] == 0.8


def test_aggregate_single_channel_fuses_to_itself():
    config = DetectorConfig(bins=BinLayout(1, 1))
    series = aggregate(*_windows([0], [0.7]), 20, config)
    assert np.array_equal(series.fused, series.per_channel["motion"])


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


def test_smooth_rejects_negative_sigma():
    with pytest.raises(ValueError):
        smooth(np.zeros(5), -1.0)


# ------------------------------------------------------------ batch running


def test_run_detector_requires_input():
    with pytest.raises(CapabilityError):
        run_detector(config=DetectorConfig())


def test_run_detector_short_stream():
    with pytest.raises(StreamTooShortError):
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
        batch_ems = det.push(f)
        if batch_ems:
            # every emission batch reflects the finalized prefix only
            horizon = batch_ems[-1].frame + 1
            prefix = smooth(batch.series.fused[:horizon], det.config.smooth_sigma)
            for em in batch_ems:
                assert em.smoothed == prefix[em.frame]
        emissions.extend(batch_ems)
    tail, result = det.finalize()
    emissions.extend(tail)

    assert [em.frame for em in emissions] == list(range(100))
    assert np.array_equal([em.fused for em in emissions], batch.series.fused)
    assert np.array_equal(result.series.fused, batch.series.fused)
    assert np.array_equal(result.series.smoothed, batch.series.smoothed)


def _fill_nearest(values, covered):
    """Rows of uncovered frames from the nearest covered frame, earlier on a tie."""
    idx = np.flatnonzero(covered)
    frames = np.arange(len(covered))
    pos = np.searchsorted(idx, frames)
    left = idx[np.clip(pos - 1, 0, idx.size - 1)]
    right = idx[np.clip(pos, 0, idx.size - 1)]
    return values[np.where(np.abs(frames - left) <= np.abs(right - frames), left, right)]


def _emit_by_prefix(starts, bin_scores, config, emitted, horizon):
    """Oracle for streaming emission: recompute the whole finalized prefix
    [0, horizon) from every closed window (start frames ``starts``, bin
    score rows ``bin_scores[ch]``), smooth all of it, and emit the frames
    from ``emitted`` on."""
    channels = config.enabled_channels
    counts = np.zeros(horizon)
    sums = {ch: np.zeros((horizon, config.n_bins(ch))) for ch in channels}
    for j, start in enumerate(starts):
        lo, hi = start + config.w, min(start + 2 * config.w, horizon)
        counts[lo:hi] += 1
        for ch in channels:
            sums[ch][lo:hi] += bin_scores[ch][j]
    covered = counts > 0
    per_channel = {}
    for ch in channels:
        filled = np.where(covered[:, None], sums[ch] / np.maximum(counts, 1)[:, None], 0.0)
        per_channel[ch] = _fill_nearest(filled, covered).max(axis=1)
    fused = np.mean([per_channel[ch] for ch in channels], axis=0)
    smoothed = smooth(fused, config.smooth_sigma)
    return [
        Emission(
            f,
            float(per_channel["motion"][f]) if "motion" in per_channel else None,
            float(per_channel["appearance"][f]) if "appearance" in per_channel else None,
            float(fused[f]),
            float(smoothed[f]),
        )
        for f in range(emitted, horizon)
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
def test_emissions_match_prefix_recompute_oracle(channel, w, stride, frame_count):
    frames, _, _ = synth.block_event_video(
        frame_count=frame_count, active_range=(40, 70), speed=2.0
    )
    acts = _mixed_activations(frame_count)
    for sigma in (0.0, 3.0, 10.0):
        config = DetectorConfig(w=w, stride=stride, k=2, smooth_sigma=sigma, channel=channel)
        det = StreamingDetector(config)
        emitted = 0
        checks = []  # (windows closed so far, first frame, emissions)
        for f, a in zip(frames, acts):
            out = det.push(f, a)
            if out:
                checks.append(((f.index + 1 - 2 * w) // stride + 1, emitted, out))
                emitted = out[-1].frame + 1
        tail, result = det.finalize()
        assert tail and emitted + len(tail) == frame_count
        windows = len(plan_windows(frame_count, w, stride))
        checks.append((windows, emitted, tail))
        # a closed window's row never changes, so the finalized arrays cut
        # to the windows closed at each push are what that push read
        for closed, first, out in checks:
            rows = {ch: scores[:closed] for ch, scores in result.bin_scores.items()}
            horizon = out[-1].frame + 1
            expected = _emit_by_prefix(result.windows[:closed], rows, config, first, horizon)
            assert _bits(out) == _bits(expected)
        assert np.array_equal(result.windows, np.arange(windows) * stride)
        assert (result.presence is None) == (channel == "appearance")
        for ch in config.enabled_channels:
            accuracies = result.accuracies[ch]
            assert accuracies.shape == (windows, config.n_bins(ch), config.k)
            means = [[float(np.mean(acc)) for acc in row] for row in accuracies]
            assert result.bin_scores[ch].tolist() == means  # bit for bit


def test_detector_memory_growth_per_frame():
    """A detector keeps a few hundred bytes per pushed frame: one row of bin
    scores, accuracy profiles and cube presence per closed window."""
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
    assert growth / 2000 <= 250


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
