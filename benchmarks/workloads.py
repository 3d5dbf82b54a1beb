"""Seeded workloads and the correctness gate of the benchmark.

Every workload is closed loop with one producer: the next frame is pushed
when the previous call returns. Inputs come only from the seed, so the same
seed gives the same inputs and the same scores. All run ``DetectorConfig``
defaults with one worker; only ``appearance`` switches the channel.

Why these four (see README.md for the layer each one stresses):

* ``dense_motion``: noise frames; every cube survives the static gate, so
  each motion bin fits n=192 examples against D=500 and unmasking dominates.
* ``appearance``: noise activation tensors; each bin fits n=20 against
  D=12544, the other shape of the same unmasking layer.
* ``long_stream``: 12k frames of a static scene with a short event every
  2000 frames; unmasking is mostly bypassed, and cube grids, push
  bookkeeping and emission (which grows with stream position) dominate.
* ``cli_clip``: the only workload that goes through files, resize, the CLI
  and pixel-level evaluation, at Avenue resolution (640x360).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from videoanomaly import cli
from videoanomaly.features import ACT_CHANNELS, ACT_SIZE, WORK_H, WORK_W
from videoanomaly.ingest import ActivationFrame, Frame
from videoanomaly.pipeline import DetectorConfig, StreamingDetector

# Full-size parameters; the benchmark's tests shrink them.
SIZES = {
    "dense_motion": {"frames": 600},
    "appearance": {"frames": 120},
    "long_stream": {"frames": 12000, "period": 2000, "event": 60},
    "cli_clip": {"frames": 300, "event": 60, "width": 640, "height": 360},
}

# Quality floors, held for every seed. dense_motion and appearance have
# none: noise halves are always separable, so every window scores near 1.
FLOORS = {
    "long_stream": {"frame_auc": 0.95},
    "cli_clip": {"frame_auc": 0.95, "pixel_auc": 0.8},
}


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured and produced."""

    frames: int
    windows: int
    digest: str
    # (start, seconds) of every call that scores the frames, and of every
    # push among them that closed a window; the start places a call against
    # the host-speed samples
    calls: list[tuple[float, float]] = field(default_factory=list)
    closing: list[tuple[float, float]] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    eval_s: float | None = None
    evaluated: bool = True  # quality was measured, so floors apply
    errors: list[str] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(dt for _, dt in self.calls)

    @property
    def latencies_ms(self) -> list[float]:
        return [dt * 1e3 for _, dt in self.closing]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def series_digest(series) -> str:
    """sha256 of the finalize() series: per-bin, fused and smoothed scores."""
    h = hashlib.sha256()
    for ch in series.channels:
        h.update(ch.encode())
        h.update(np.ascontiguousarray(series.per_bin[ch], dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(series.fused, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(series.smoothed, dtype="<f8").tobytes())
    return h.hexdigest()


def rank_auc(scores, labels) -> float:
    """Mann-Whitney AUC with ties counted 1/2, independent of the package."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n1 = int(pos.sum())
    n0 = pos.size - n1
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def check(result: PassResult, name: str, expected_digest: str | None) -> None:
    """Append to ``result.errors`` every way the pass's output is wrong."""
    if expected_digest is not None and result.digest != expected_digest:
        result.errors.append(
            f"score digest {result.digest[:16]} != reference {expected_digest[:16]}"
        )
    for metric, floor in FLOORS.get(name, {}).items() if result.evaluated else ():
        value = result.quality.get(metric)
        if value is None or not value >= floor:
            result.errors.append(f"{metric} {value} below floor {floor}")


def check_stream(result: PassResult, series, emitted: list[float], labels) -> None:
    """Streamed ``Emission.fused`` must equal the final ``fused`` series."""
    if len(emitted) != series.frame_count or not np.array_equal(
        np.asarray(emitted), series.fused
    ):
        result.errors.append("streamed fused scores differ from finalize()")
    if labels is not None:
        result.quality["frame_auc"] = rank_auc(series.smoothed, labels)


# ---------------------------------------------------------------------------
# Streaming workloads
# ---------------------------------------------------------------------------

def dense_motion_inputs(seed: int, frames: int):
    rng = np.random.default_rng(seed)
    pixels = rng.random((frames, WORK_H, WORK_W))
    video = [Frame(i, WORK_W, WORK_H, pixels[i]) for i in range(frames)]
    return DetectorConfig(), lambda: ((f, None) for f in video), None


def appearance_inputs(seed: int, frames: int):
    rng = np.random.default_rng(seed)
    values = rng.random((frames, ACT_CHANNELS, ACT_SIZE, ACT_SIZE), dtype=np.float32)
    acts = [
        ActivationFrame(i, ACT_CHANNELS, ACT_SIZE, ACT_SIZE, values[i])
        for i in range(frames)
    ]
    return (
        DetectorConfig(channel="appearance"),
        lambda: ((None, a) for a in acts),
        None,
    )


SPRITE = 20  # pixels at working resolution; moves one pixel per frame


def _sprite_path(n_events: int, event: int) -> tuple[list[int], list[int]]:
    """Top-left corners of the sprite's start, one per event.

    They do not depend on the seed: where the sprite sits against the cube
    grid sets how many cubes the event yields, and so how much unmasking
    work it costs. A seed changes textures, not the amount of work.
    """
    rows = [(15 + 40 * k) % (WORK_H - SPRITE) for k in range(n_events)]
    cols = [(5 + 30 * k) % (WORK_W - SPRITE - event) for k in range(n_events)]
    return rows, cols


def long_stream_inputs(seed: int, frames: int, period: int, event: int):
    """A static textured scene with a moving sprite for ``event`` frames in
    the middle of every ``period``. Frames are made on demand, so the
    stream never sits in memory."""
    rng = np.random.default_rng(seed)
    background = rng.random((WORK_H, WORK_W))
    sprite = rng.random((SPRITE, SPRITE))
    n_events = frames // period
    rows, cols = _sprite_path(n_events, event)
    labels = np.zeros(frames, dtype=np.uint8)
    for k in range(n_events):
        lo = k * period + period // 2
        labels[lo : lo + event] = 1

    def stream():
        for t in range(frames):
            img = background.copy()
            k, offset = divmod(t, period)
            offset -= period // 2
            if labels[t]:
                r, c = rows[k], cols[k] + offset
                img[r : r + SPRITE, c : c + SPRITE] = sprite
            yield Frame(t, WORK_W, WORK_H, img), None

    return DetectorConfig(), stream, labels


def stream_pass(config, stream, labels, speed=None) -> PassResult:
    """Push every frame, timing each push; returns the gated result.

    ``speed`` (a calibrate.Speed) is sampled between pushes, never inside
    one, and once more at the end.
    """
    detector = StreamingDetector(config)
    clock = time.perf_counter
    tick = speed.tick if speed is not None else lambda: None
    emitted: list[float] = []
    calls: list[tuple[float, float]] = []
    closing: list[tuple[float, float]] = []
    for frame, activation in stream():
        tick()
        t0 = clock()
        out = detector.push(frame, activation)
        dt = clock() - t0
        calls.append((t0, dt))
        if out:  # the push closed a window and emitted its frames
            closing.append((t0, dt))
            emitted.extend(e.fused for e in out)
    tick()
    t0 = clock()
    tail, final = detector.finalize()
    calls.append((t0, clock() - t0))
    if speed is not None:
        speed.sample()
    emitted.extend(e.fused for e in tail)
    result = PassResult(
        final.frame_count, len(final.windows), series_digest(final.series), calls, closing
    )
    check_stream(result, final.series, emitted, labels)
    return result


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

def _write_pgm(path: Path, gray: np.ndarray) -> None:
    h, w = gray.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())


def cli_clip_inputs(seed: int, work: Path, frames: int, event: int, width: int, height: int):
    """A raw-y8 clip, per-frame mask PGMs and a label file under ``work``.

    A static textured scene at ``width`` x ``height`` with a sprite that
    moves for ``event`` frames starting at 40% of the clip. Sprite size and
    path, in working-resolution pixels, are those of long_stream's first
    event.
    """
    rng = np.random.default_rng(seed)
    sx, sy = width // WORK_W, height // WORK_H  # pixels per working pixel
    sh, sw = SPRITE * sy, SPRITE * sx
    background = rng.integers(0, 256, (height, width), dtype=np.uint8)
    sprite = rng.integers(0, 256, (sh, sw), dtype=np.uint8)
    (row,), (col,) = _sprite_path(1, event)
    row, col = row * sy, col * sx
    lo = frames * 2 // 5
    labels = np.zeros(frames, dtype=np.uint8)
    labels[lo : lo + event] = 1
    work.mkdir(parents=True, exist_ok=True)
    masks = work / "masks"
    masks.mkdir(exist_ok=True)
    empty = np.zeros((height, width), dtype=np.uint8)
    video = work / "clip.y8"
    with open(video, "wb") as fh:
        for t in range(frames):
            mask = empty
            img = background
            if labels[t]:
                c = col + (t - lo) * sx
                img = background.copy()
                img[row : row + sh, c : c + sw] = sprite
                mask = empty.copy()
                mask[row : row + sh, c : c + sw] = 255
            fh.write(img.tobytes())
            _write_pgm(masks / f"{t:06d}.pgm", mask)
    video.with_name(video.name + ".hdr").write_text(f"{width} {height} {frames}\n")
    (work / "labels.txt").write_text("".join(f"{v}\n" for v in labels))
    return work, labels


def _cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def cli_pass(work: Path, labels, evaluate: bool, speed=None) -> PassResult:
    """``run --maps-out``; with ``evaluate``, then ``eval`` at frame and at
    pixel level. Time ``speed`` spends sampling during ``run`` (from a
    wrapper around push, say) is left out of its time.

    The digest pins every score ``run`` wrote, and ``eval`` reads nothing
    else but the ground truth, so one evaluated pass per run checks the
    AUCs; the others repeat only ``run``, whose time is ``fps``.
    """
    scores, maps = work / "scores.csv", work / "maps.npz"
    spent = speed.spent if speed is not None else 0.0
    t0 = time.perf_counter()
    code, err = _cli(
        ["run", "--frames", str(work / "clip.y8"), "--frames-format", "raw-y8",
         "--out", str(scores), "--maps-out", str(maps)]
    )
    run_s = time.perf_counter() - t0
    if speed is not None:
        run_s -= speed.spent - spent
    if code:
        raise RuntimeError(f"run exited {code}: {err}")
    manifest = json.loads(Path(str(scores) + ".manifest.json").read_text())
    h = hashlib.sha256(scores.read_bytes())
    with np.load(maps) as data:
        for key in sorted(data.keys()):
            h.update(key.encode())
            h.update(np.ascontiguousarray(data[key], dtype="<f8").tobytes())
    result = PassResult(
        manifest["frame_count"], manifest["window_count"], h.hexdigest(),
        calls=[(t0, run_s)], evaluated=evaluate,
    )
    if not evaluate:
        return result

    t0 = time.perf_counter()
    codes = [
        _cli(["eval", "--scores", str(scores), "--gt", str(work / "labels.txt"),
              "--level", "frame", "--out", str(work / "frame.json")]),
        _cli(["eval", "--scores", str(scores), "--gt", str(work / "masks"),
              "--level", "pixel", "--maps", str(maps), "--out", str(work / "pixel.json")]),
    ]
    result.eval_s = time.perf_counter() - t0
    for code, err in codes:
        if code:
            raise RuntimeError(f"eval exited {code}: {err}")
    frame = json.loads((work / "frame.json").read_text())["auc"]
    result.quality["frame_auc"] = frame
    result.quality["pixel_auc"] = json.loads((work / "pixel.json").read_text())["auc"]
    smoothed = [float(line.split(",")[4]) for line in scores.read_text().splitlines()[1:]]
    own = rank_auc(smoothed, labels)
    if abs(own - frame) > 1e-9:
        result.errors.append(f"eval frame AUC {frame} != recomputed {own}")
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CLI_SAMPLES = 20  # speed samples before and after each CLI pass


class Workload:
    """Set-up and one pass of a named workload at the given sizes."""

    def __init__(self, name: str, sizes: dict | None = None):
        if name not in SIZES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.sizes = dict(SIZES[name] if sizes is None else sizes)
        self._inputs = None

    def setup(self, seed: int, work: Path) -> None:
        if self.name == "dense_motion":
            self._inputs = dense_motion_inputs(seed, **self.sizes)
        elif self.name == "appearance":
            self._inputs = appearance_inputs(seed, **self.sizes)
        elif self.name == "long_stream":
            self._inputs = long_stream_inputs(seed, **self.sizes)
        else:
            self._inputs = cli_clip_inputs(seed, work, **self.sizes)

    def run_pass(self, evaluate: bool = True, speed=None) -> PassResult:
        """One pass; ``evaluate`` only matters to cli_clip (see cli_pass).

        ``speed`` is sampled between the program's calls: between pushes,
        or before and after the CLI's ``run``.
        """
        if self.name == "cli_clip":
            if speed is not None:
                speed.sample(CLI_SAMPLES)
            result = cli_pass(*self._inputs, evaluate, speed)
            if speed is not None:
                speed.sample(CLI_SAMPLES)
            return result
        return stream_pass(*self._inputs, speed)
