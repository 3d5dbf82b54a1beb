"""End-to-end online anomaly detector.

The detector slides a 2w-frame window over the stream with stride s. Per
window and channel, window_batch builds the labeled examples (first half
labeled 0, second half 1) of every spatial bin with at least
MIN_PER_CLASS examples in each half; the unmasking loop scores each of
those bins, and every other bin scores chance without a fit. The bin
scores go to the frames of the window's second half. Per-frame
aggregation averages over all covering windows, takes the max over
spatial bins, averages the enabled channels (late fusion), and smooths
temporally with a truncated-renormalized Gaussian.

Scores are final as soon as every window covering a frame has closed, so
the detector emits them online with bounded lookahead: at the close of
window j, frames below (j+1)*s + w are finalized. Every emitted value is
final. Smoothing needs the whole series, so only finalize() smooths: it
recomputes the series from the per-window bin scores, emits the tail from
it, and is bit-identical to a batch run over the same input.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    AlignmentError,
    CapabilityError,
    DataError,
    FormatError,
    StreamTooShortError,
)
from .features import (
    APP_LAYOUT,
    STACK,
    WORK_H,
    WORK_W,
    BinLayout,
    SlotGate,
    bin_activations,
    check_activation_shape,
    cube_rows,
)
from .ingest import ActivationFrame, Frame, resize_bilinear
from .unmasking import CHANCE, MIN_LAM, MIN_PER_CLASS, WindowBatch, score, unmask

CHANNELS = ("motion", "appearance", "fusion")
CSV_HEADER = "frame,score_motion,score_appearance,score_fused,score_smoothed"
# above the 6,272 loops the widest channel can train (D=12544 at m=2), after
# which every loop scores chance; a larger k only asks unmask for k-long arrays
MAX_K = 10_000


@dataclass
class DetectorConfig:
    """Detector parameters. Defaults: w=10, s=5, k=10, m=50, lambda=0.1,
    2x2 bins, smoothing sigma 10 frames, motion channel."""

    w: int = 10
    stride: int = 5
    k: int = 10
    m: int = 50
    lam: float = 0.1
    bins: BinLayout = field(default_factory=BinLayout)
    smooth_sigma: float = 10.0
    channel: str = "motion"

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if self.w < 1:
            raise ValueError(f"w must be >= 1, got {self.w}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        # stride <= w keeps consecutive second halves overlapping, so every
        # frame from w onward is covered by some window
        if self.stride > self.w:
            raise ValueError(f"stride {self.stride} must not exceed w {self.w}")
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"k must be in [1, {MAX_K}], got {self.k}")
        if self.m < 2 or self.m % 2:
            raise ValueError(f"m must be even and >= 2, got {self.m}")
        if not MIN_LAM <= self.lam < math.inf:
            raise ValueError(
                f"lambda must be > 0 and finite (at least {MIN_LAM!r}), got {self.lam}"
            )
        if not 0 <= self.smooth_sigma < math.inf:
            raise ValueError(f"smooth-sigma must be >= 0 and finite, got {self.smooth_sigma}")
        if "motion" in self.enabled_channels and self.w % STACK:
            raise ValueError(
                f"w must be a multiple of {STACK} for the motion channel "
                f"(cube stacks must tile each half-window), got {self.w}"
            )

    @property
    def enabled_channels(self) -> tuple[str, ...]:
        if self.channel == "fusion":
            return ("motion", "appearance")
        return (self.channel,)

    def n_bins(self, channel: str) -> int:
        # appearance binning is fixed by the 13x13 activation geometry
        return self.bins.n_bins if channel == "motion" else APP_LAYOUT.n_bins

    def to_dict(self) -> dict:
        return {
            "w": self.w,
            "stride": self.stride,
            "k": self.k,
            "m": self.m,
            "lambda": self.lam,
            "bins": f"{self.bins.rows}x{self.bins.cols}",
            "smooth_sigma": self.smooth_sigma,
            "channel": self.channel,
        }


class FeatureStore:
    """Per-frame feature caches of the streaming detector.

    Motion is gated on arrival. A slot (the 5 frames some window reads
    from its first frame on, keyed by that frame) opens a SlotGate with
    its first frame; add() folds each frame into every open slot's gate,
    which holds that slot's frames and computes the differences the new
    frame brings, and describes a slot's kept cells (cube_rows) from its
    gate's frames as soon as the fifth arrives. A resized frame lives
    only while an open gate holds it, so the store never holds more than
    5, and a cached slot stores no descriptor for a static cell.
    Appearance vectors are cached per frame. evict_below() drops the
    cached slots and vectors that start before the given frame, which
    bounds memory to roughly one window span.
    """

    def __init__(self, config: DetectorConfig):
        self.config = config
        self.frames_seen = 0
        self.extract_seconds = 0.0
        self.bin_grid = config.bins.patch_bin_grid()
        self._open: dict[int, SlotGate] = {}
        # the gates of closed slots, reused: a fresh frame-sized array per
        # push page faults whenever malloc has trimmed its heap
        self._spare: list[SlotGate] = []
        # Window j starts at j * stride and reads the slots starting at
        # offsets 0, 5, ... < 2w from its start, so a slot starts at frame
        # f iff f >= o for the first offset o with o % stride == f % stride.
        self._first_slot: dict[int, int] = {}
        for o in range(0, 2 * config.w, STACK):
            self._first_slot.setdefault(o % config.stride, o)
        self._slots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._app: dict[int, np.ndarray] = {}

    def add(self, frame: Frame | None, activation: ActivationFrame | None) -> int:
        """Ingest one stream position; returns its frame index.

        A missing or misindexed frame and a missing, misindexed or
        wrong-shape activation are rejected before any state changes, so
        such a push can be retried with the corrected input."""
        idx = self.frames_seen
        channels = self.config.enabled_channels
        t0 = time.perf_counter()
        if "motion" in channels:
            if frame is None:
                raise CapabilityError("motion channel needs a video frame per push")
            if frame.index != idx:
                raise ValueError(f"expected frame index {idx}, got {frame.index}")
        if "appearance" in channels:
            if activation is None:
                raise CapabilityError(
                    "appearance channel needs an activation tensor per push"
                )
            if activation.index != idx:
                raise ValueError(
                    f"expected activation index {idx}, got {activation.index}"
                )
            check_activation_shape(activation)
        if "motion" in channels:
            if (frame.width, frame.height) != (WORK_W, WORK_H):
                frame = resize_bilinear(frame, WORK_W, WORK_H)
            self._fold(idx, frame.pixels)
        if "appearance" in channels:
            self._app[idx] = bin_activations(activation)
        self.extract_seconds += time.perf_counter() - t0
        self.frames_seen += 1
        return idx

    def _fold(self, idx: int, pixels: np.ndarray) -> None:
        """Open a gate if a slot starts at frame ``idx``, then fold the
        frame into every open gate; a slot it completes is described from
        its gate's frames and cached, and its gate cleared for a later slot."""
        gates = self._open
        if idx >= self._first_slot.get(idx % self.config.stride, idx + 1):
            gates[idx] = self._spare.pop() if self._spare else SlotGate(pixels)
        for start, gate in list(gates.items()):
            keep = gate.fold(pixels)
            if keep is not None:
                del gates[start]
                self._slots[start] = cube_rows(gate.frames, keep), keep
                gate.clear()
                self._spare.append(gate)

    def slot(self, start: int) -> tuple[np.ndarray, np.ndarray]:
        """Cube grid of the 5 frames starting at ``start``.

        Returns cube_grid's (rows, keep): one L2-normalized row per
        non-static cell, in row-major cell order, and the (12,16) mask.
        add() computed it when the slot's fifth frame arrived.
        """
        try:
            return self._slots[start]
        except KeyError:
            raise ValueError(f"slot {start} not available") from None

    def appearance(self, frame: int) -> np.ndarray:
        """(4, 12544) per-bin appearance vectors of one frame."""
        try:
            return self._app[frame]
        except KeyError:
            raise ValueError(f"appearance features for frame {frame} not available") from None

    def evict_below(self, frame: int) -> None:
        """Drop the cached slots and appearance vectors that start before
        ``frame``: no window starting at ``frame`` or later reads them."""
        self._slots = {s: v for s, v in self._slots.items() if s >= frame}
        self._app = {i: v for i, v in self._app.items() if i >= frame}


def window_batch(
    window: tuple[int, int], channel: str, store: FeatureStore
) -> dict[int, WindowBatch]:
    """Labeled examples of every bin of one window that can train.

    Returns {bin: WindowBatch} in ascending bin order, holding exactly the
    bins with at least MIN_PER_CLASS examples in each half; any other bin
    is degenerate and scores CHANCE without a batch. Examples are labeled
    by half, first half 0: a batch holds its first-half examples, then its
    second-half ones. Motion examples are the surviving cubes of the
    non-overlapping 5-frame slots tiling the window (aligned to its
    start), slot by slot in row-major cell order, labeled by the half the
    slot starts in. Appearance examples are the per-frame bin vectors, so
    every bin trains exactly when w >= MIN_PER_CLASS.

    A motion window whose slots kept no cell returns {} early, without
    counting examples: every bin of a static window is degenerate.
    """
    start, end = window
    w = (end - start) // 2
    n_bins = store.config.n_bins(channel)
    if channel == "motion":
        slots = [store.slot(s) for s in range(start, end, STACK)]
        if not any(len(rows) for rows, _ in slots):
            return {}
        cell_bins = [store.bin_grid[keep] for _, keep in slots]  # bin of each row
        half = w // STACK
        counts = [  # examples per bin in each half
            np.bincount(np.concatenate(part), minlength=n_bins)
            for part in (cell_bins[:half], cell_bins[half:])
        ]
    elif channel == "appearance":
        vectors = [store.appearance(f) for f in range(start, end)]
        counts = [np.full(n_bins, w)] * 2
    else:
        raise ValueError(f"unknown channel {channel!r}")
    batches = {}
    for b in np.flatnonzero(np.minimum(*counts) >= MIN_PER_CLASS).tolist():
        if channel == "motion":
            x = np.concatenate([rows[cells == b] for (rows, _), cells in zip(slots, cell_bins)])
        else:
            x = np.stack([v[b] for v in vectors])
        y = np.repeat(np.arange(2, dtype=np.uint8), (counts[0][b], counts[1][b]))
        batches[b] = WindowBatch(x, y)
    return batches


# ---------------------------------------------------------------------------
# Aggregation and smoothing
# ---------------------------------------------------------------------------

@dataclass
class ScoreSeries:
    """Per-frame anomaly scores at every aggregation stage."""

    frame_count: int
    channels: tuple[str, ...]
    per_bin: dict[str, np.ndarray]  # channel -> (T, n_bins)
    per_channel: dict[str, np.ndarray]  # channel -> (T,)
    fused: np.ndarray
    smoothed: np.ndarray


def coverage_mean(starts, rows, w: int, lo: int, hi: int) -> np.ndarray:
    """Per-frame values of frames [lo, hi) from per-window value rows.

    A window starting at ``start`` covers its second half
    [start + w, start + 2w). A covered frame takes the mean of the rows of
    its covering windows, summed in window order and divided in place.
    The covered frames of the range must be contiguous, as they are for
    any stride <= w: the frames before them take the first covered
    frame's value, and the frames after them the last one's. Returns a
    (hi - lo, len(row)) array; ValueError if no frame of the range is
    covered or the covered frames leave a gap.
    """
    rows = np.asarray(rows, dtype=np.float64)
    sums = np.zeros((hi - lo, *rows.shape[1:]))
    counts = np.zeros(hi - lo)
    for start, row in zip(starts, rows):
        a, b = max(start + w, lo) - lo, min(start + 2 * w, hi) - lo
        if a < b:
            sums[a:b] += row
            counts[a:b] += 1
    covered = np.flatnonzero(counts)
    if not covered.size:
        raise ValueError("no frame is covered by any window")
    first, last = covered[0], covered[-1]
    if last - first + 1 != covered.size:
        raise ValueError("the covered frames are not contiguous: windows need stride <= w")
    sums /= np.maximum(counts, 1)[:, None]
    sums[:first] = sums[first]
    sums[last + 1 :] = sums[last]
    return sums


def channel_mean(maps: list[np.ndarray]) -> np.ndarray:
    """The element-wise mean of equal-shaped per-channel arrays, summed in
    channel order into ``maps[0]``, which is overwritten and returned.

    The same bits as ``np.mean(maps, axis=0)``, which adds the stacked
    arrays in the same order and divides by the same count, without the
    stacked copy or a second array for the quotient. The one difference:
    np.mean adds from +0.0, so where every channel holds -0.0 it returns
    +0.0 and this keeps -0.0. coverage_mean, whose sums also start at
    +0.0, never returns -0.0.
    """
    total = maps[0]
    for other in maps[1:]:
        total += other
    total /= len(maps)
    return total


def gaussian_taps(sigma: float, length: int) -> np.ndarray:
    """Unnormalized Gaussian taps exp(-t^2 / (2 sigma^2)) at the integer
    offsets t in [-r, r], r = min(ceil(3*sigma), length); sigma > 0.

    Capping the radius at the length of the line it smooths changes no
    result: a tap farther out never meets a sample, so a huge sigma costs
    at most 2*length + 1 taps.
    """
    radius = min(math.ceil(3 * sigma), length)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    # a sigma so small that 2 sigma^2 underflows to 0 would make the
    # center tap exp(-0/0); every other tap is then exp(-inf) = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        taps = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))
    taps[radius] = 1.0
    return taps


def smooth(series, sigma: float) -> np.ndarray:
    """Temporal Gaussian smoothing, truncated and renormalized at borders.

    Kernel radius is ceil(3*sigma), capped at the series length (see
    gaussian_taps); sigma = 0 is the identity. Output is clamped to [0,1]
    (a no-op for in-range input, by kernel normalization).
    """
    x = np.asarray(series, dtype=np.float64)
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma}")
    if sigma == 0 or x.size == 0:
        return x.copy()
    taps = gaussian_taps(sigma, x.size)
    radius = taps.size // 2
    num = np.convolve(x, taps)[radius : radius + x.size]
    den = np.convolve(np.ones(x.size), taps)[radius : radius + x.size]
    return np.clip(num / den, 0.0, 1.0)


def _frame_scores(starts, bin_scores, config: DetectorConfig, lo: int, hi: int):
    """Per-bin, per-channel and fused scores of frames [lo, hi): the
    coverage mean per (bin, channel), max over bins, mean over channels."""
    per_bin = {
        ch: coverage_mean(starts, bin_scores[ch], config.w, lo, hi)
        for ch in config.enabled_channels
    }
    per_channel = {ch: values.max(axis=1) for ch, values in per_bin.items()}
    first, *rest = per_channel.values()
    fused = channel_mean([first.copy(), *rest])
    return per_bin, per_channel, fused


def aggregate(
    starts, bin_scores: dict[str, np.ndarray], frame_count: int, config: DetectorConfig
) -> ScoreSeries:
    """Reduce per-window bin scores, one (W, n_bins) row per window start
    in ``starts``, to the per-frame series.

    Per (bin, channel): mean over the windows whose second half contains
    the frame (coverage_mean). In a run, that leaves the first w frames,
    which take frame w's value, and the last frames (fewer than
    ``stride``), which take the last covered frame's. Then max over bins,
    mean over channels, smoothing.
    """
    per_bin, per_channel, fused = _frame_scores(starts, bin_scores, config, 0, frame_count)
    smoothed = smooth(fused, config.smooth_sigma)
    return ScoreSeries(frame_count, config.enabled_channels, per_bin, per_channel, fused, smoothed)


# ---------------------------------------------------------------------------
# Streaming detector
# ---------------------------------------------------------------------------

@dataclass
class Emission:
    """One frame's final scores, emitted once every window covering it has
    closed. Smoothing needs the whole series, so the smoothed score is only
    in finalize()'s ``result.series.smoothed``."""

    frame: int
    motion: float | None
    appearance: float | None
    fused: float


@dataclass
class DetectionResult:
    """The per-frame series and the per-window rows it aggregates; the
    profiles behind the bin scores go only to a detector's trace."""

    series: ScoreSeries
    config: DetectorConfig
    frame_count: int
    windows: np.ndarray  # (W,) window start frames, j * stride
    bin_scores: dict[str, np.ndarray]  # channel -> (W, n_bins)
    presence: np.ndarray | None  # (W, 12, 16) bool, any surviving cube (motion)
    timing: dict[str, float]

    @property
    def extraction_fps(self) -> float:
        t = self.timing.get("extract_seconds", 0.0)
        return self.frame_count / t if t > 0 else float("inf")

    @property
    def prediction_fps(self) -> float:
        t = self.timing.get("predict_seconds", 0.0)
        return self.frame_count / t if t > 0 else float("inf")


class StreamingDetector:
    """Push frames one at a time; receive finalized scores as they firm up.

    A frame is emitted exactly once, in strictly increasing order, as soon
    as every window covering it has closed. finalize() ends the stream,
    emits the tail, and returns the full DetectionResult, bit-identical
    to running the same input as one batch. A ``trace`` text stream gets
    one JSON line per closed window (see _close_window).
    """

    def __init__(self, config: DetectorConfig | None = None, trace: TextIO | None = None):
        self.config = config or DetectorConfig()
        self.trace = trace
        self.store = FeatureStore(self.config)
        # one row per closed window, stacked by finalize()
        self._bin_scores = {ch: [] for ch in self.config.enabled_channels}
        self._presence = []
        # rows shared by every window that stores nothing new: a channel's
        # chance bin scores and the empty presence grid
        cfg = self.config
        self._chance = {ch: np.full(cfg.n_bins(ch), CHANCE) for ch in cfg.enabled_channels}
        self._no_presence = np.zeros(self.store.bin_grid.shape, dtype=bool)
        for row in (self._no_presence, *self._chance.values()):
            row.setflags(write=False)
        self.predict_seconds = 0.0
        self._next_window = 0
        self._emitted = 0
        self._finalized = False

    def push(
        self, frame: Frame | None = None, activation: ActivationFrame | None = None
    ) -> list[Emission]:
        """Ingest one stream position; returns newly finalized frames."""
        if self._finalized:
            raise ValueError("detector already finalized")
        self.store.add(frame, activation)
        cfg = self.config
        out: list[Emission] = []
        while self._next_window * cfg.stride + 2 * cfg.w <= self.store.frames_seen:
            self._close_window(self._next_window)
            self._next_window += 1
            out.extend(self._emit_upto(self._next_window * cfg.stride + cfg.w))
        return out

    def _close_window(self, window_id: int) -> None:
        """Score window ``window_id`` on every (channel, bin) and append its rows.

        window_batch gives the bins that can train; unmask scores each of
        them. Every other bin is degenerate and scores CHANCE, as unmask
        would, without a fit. A channel with no trainable bin appends the
        shared read-only chance row, and a window with no kept cell the
        shared empty presence grid, so a static window stores no new
        array. Such a window returns early from window_batch and ORs no
        keep masks.

        The profiles are not kept. Given a trace, the window's JSON line
        goes there: "window", "start" and, per enabled channel in order,
        "scores" (the n_bins bin scores) and "trained", which maps each
        bin that got a fit to its "examples" [n0, n1] and its k
        "accuracies" and "iterations". A bin missing from "trained"
        scored CHANCE without a fit.
        """
        cfg, store = self.config, self.store
        start = window_id * cfg.stride
        window = (start, start + 2 * cfg.w)
        line = None if self.trace is None else {"window": window_id, "start": start}
        for ch in cfg.enabled_channels:
            batches = window_batch(window, ch, store)
            scores, profiles = self._chance[ch], {}
            if batches:
                t0 = time.perf_counter()
                scores = scores.copy()
                for b, batch in batches.items():
                    profiles[b] = profile = unmask(batch, cfg.k, cfg.m, cfg.lam)
                    scores[b] = score(profile)
                self.predict_seconds += time.perf_counter() - t0
            self._bin_scores[ch].append(scores)
            if line is not None:
                trained = {
                    b: {"examples": batches[b].class_counts(),
                        "accuracies": p.accuracies.tolist(),
                        "iterations": p.iterations}
                    for b, p in profiles.items()
                }
                line[ch] = {"scores": scores.tolist(), "trained": trained}
        if "motion" in cfg.enabled_channels:
            slots = [store.slot(s) for s in range(*window, STACK)]
            if any(len(rows) for rows, _ in slots):
                self._presence.append(np.logical_or.reduce([keep for _, keep in slots]))
            else:
                self._presence.append(self._no_presence)
        store.evict_below(start + cfg.stride)
        if line is not None:
            self.trace.write(json.dumps(line) + "\n")

    def _emit_upto(self, horizon: int) -> list[Emission]:
        """Emit frames [emitted, horizon), all of whose windows have closed.

        Only the windows whose second halves reach the range are read, so
        the cost does not grow with stream position. Every frame of the
        range is covered, except frames 0..w-1 in the first range, which
        take frame w's value.
        """
        cfg, closed, lo = self.config, self._next_window, self._emitted
        first = max(0, (lo - 2 * cfg.w) // cfg.stride + 1)  # first window reaching lo
        starts = range(first * cfg.stride, closed * cfg.stride, cfg.stride)
        rows = {ch: scores[first:] for ch, scores in self._bin_scores.items()}
        _, per_channel, fused = _frame_scores(starts, rows, cfg, lo, horizon)
        return self._emit(per_channel, fused)

    def _emit(self, per_channel, fused) -> list[Emission]:
        """Emissions of the next len(fused) frames from their values."""
        motion, appearance = per_channel.get("motion"), per_channel.get("appearance")
        out = [
            Emission(
                self._emitted + i,
                None if motion is None else float(motion[i]),
                None if appearance is None else float(appearance[i]),
                float(fused[i]),
            )
            for i in range(len(fused))
        ]
        self._emitted += len(fused)
        return out

    def finalize(self) -> tuple[list[Emission], DetectionResult]:
        """End the stream: emit the tail and return the batch-equal result."""
        if self._finalized:
            raise ValueError("detector already finalized")
        self._finalized = True
        frame_count = self.store.frames_seen
        if self._next_window == 0:
            raise StreamTooShortError(
                f"stream has {frame_count} frames, needs at least {2 * self.config.w}"
            )
        t0 = time.perf_counter()
        windows = np.arange(self._next_window) * self.config.stride
        bin_scores = {ch: np.stack(rows) for ch, rows in self._bin_scores.items()}
        presence = np.stack(self._presence) if self._presence else None
        # free what the ended stream no longer needs before aggregate()
        # allocates the whole series: cached frames and features, and the
        # per-window rows now stacked
        self.store.evict_below(frame_count)
        self._bin_scores.clear()
        self._presence.clear()
        series = aggregate(windows, bin_scores, frame_count, self.config)
        lo = self._emitted
        per_channel = {ch: values[lo:] for ch, values in series.per_channel.items()}
        tail = self._emit(per_channel, series.fused[lo:])
        self.predict_seconds += time.perf_counter() - t0
        result = DetectionResult(
            series,
            self.config,
            frame_count,
            windows,
            bin_scores,
            presence,
            {
                "extract_seconds": self.store.extract_seconds,
                "predict_seconds": self.predict_seconds,
            },
        )
        return tail, result


# ---------------------------------------------------------------------------
# Batch entry point
# ---------------------------------------------------------------------------

def stream_length(frames, activations) -> int:
    """The inputs' frame count; AlignmentError if two lengths differ."""
    if frames is not None and activations is not None and len(frames) != len(activations):
        raise AlignmentError(
            f"{len(frames)} video frames but {len(activations)} activation frames"
        )
    return len(frames) if frames is not None else len(activations)


def run_detector(
    frames: Sequence[Frame] | None = None,
    activations: Sequence[ActivationFrame] | None = None,
    config: DetectorConfig | None = None,
    trace: TextIO | None = None,
) -> DetectionResult:
    """Run the full detector by pushing every frame through a
    StreamingDetector, which writes its per-window lines to ``trace`` if
    given. Inputs are read one index at a time, so the lazy sequences of
    the ingest loaders are never held whole."""
    config = config or DetectorConfig()
    if "motion" in config.enabled_channels and frames is None:
        raise CapabilityError(f"channel {config.channel!r} needs --frames input")
    if "appearance" in config.enabled_channels and activations is None:
        raise CapabilityError(f"channel {config.channel!r} needs --activations input")
    frame_count = stream_length(frames, activations)
    det = StreamingDetector(config, trace)
    for i in range(frame_count):
        det.push(
            frames[i] if frames is not None else None,
            activations[i] if activations is not None else None,
        )
    _, result = det.finalize()
    return result


# ---------------------------------------------------------------------------
# Score CSV
# ---------------------------------------------------------------------------

def write_scores_csv(series: ScoreSeries, path) -> None:
    """Write `frame,score_motion,score_appearance,score_fused,score_smoothed`;
    columns of disabled channels are left blank."""

    def fmt(v):
        return f"{v:.17g}"

    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for f in range(series.frame_count):
            motion = fmt(series.per_channel["motion"][f]) if "motion" in series.per_channel else ""
            app = (
                fmt(series.per_channel["appearance"][f])
                if "appearance" in series.per_channel
                else ""
            )
            fh.write(
                f"{f},{motion},{app},{fmt(series.fused[f])},{fmt(series.smoothed[f])}\n"
            )


def read_scores_csv(path) -> dict[str, np.ndarray | None]:
    """Read a score CSV back into column arrays, None for a blank channel
    column. No rows, or a blank fused or smoothed column, is a FormatError."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise FormatError(f"{path}: expected header {CSV_HEADER!r}")
    names = CSV_HEADER.split(",")
    cols: dict[str, list] = {n: [] for n in names}
    for line_no, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(names):
            raise FormatError(f"{path}:{line_no}: expected {len(names)} columns")
        for name, part in zip(names, parts):
            cols[name].append(part)
    out: dict[str, np.ndarray | None] = {}
    try:
        frames = np.array([int(v) for v in cols["frame"]])
    except ValueError:
        raise FormatError(f"{path}: non-integer value in column frame") from None
    if not frames.size:
        raise FormatError(f"{path}: no score rows after the header")
    if not np.array_equal(frames, np.arange(frames.size)):
        raise FormatError(f"{path}: frame column must be 0..N-1 in order")
    out["frame"] = frames
    for name in names[1:]:
        vals = cols[name]
        if name in ("score_motion", "score_appearance") and all(v == "" for v in vals):
            out[name] = None  # a channel the run left out
            continue
        try:
            values = np.array([float(v) for v in vals])
        except ValueError:
            raise FormatError(f"{path}: blank or non-numeric value in column {name}") from None
        if not np.isfinite(values).all():
            raise DataError(f"{path}: non-finite value in column {name}")
        out[name] = values
    return out

