"""Command-line interface: ``run``, ``eval`` and ``bench`` subcommands.

Exit codes: 0 success; 2 argument-level problems (bad flags or values,
too-short streams, missing capabilities); 3 data-level problems (bad file
formats, truncation, NaN payloads, ordering or alignment mismatches).
Errors are reported as a single machine-parsable line on stderr.

``run`` and ``bench`` share their inputs and the detector parameters of
``CONFIG_KEYS``, the one table that spells each as a flag and as a key of
a flat key=value file (--config) and parses it from either. Flags
override the file, the file overrides defaults, and inputs are validated
before any parameter is parsed, so a data error is reported first. The
sha256 of each input, which the manifest and the bench report carry, is
computed on a second thread while the detector runs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path

from . import __version__
from .errors import (
    AlignmentError,
    CapabilityError,
    DataError,
    FormatError,
    OrderingError,
    StreamTooShortError,
)
from .evaluation import frame_auc, load_maps_npz, pixel_auc, write_maps_npz
from .features import BinLayout, check_activation_shape
from .ingest import load_activations, load_frames, load_ground_truth
from .pipeline import (
    CSV_HEADER,
    DetectorConfig,
    read_scores_csv,
    run_detector,
    stream_length,
    write_scores_csv,
)

ARGUMENT_ERRORS = (ValueError, StreamTooShortError, CapabilityError)
DATA_ERRORS = (FormatError, DataError, OrderingError, AlignmentError, OSError)

# The detector's parameters. key (spelled the same as a flag and in a
# --config file) -> (parser, DetectorConfig attribute, help)
CONFIG_KEYS = {
    "w": (int, "w", "half-window length in frames"),
    "stride": (int, "stride", "window stride in frames"),
    "k": (int, "k", "unmasking loops"),
    "m": (int, "m", "features eliminated per loop"),
    "lambda": (float, "lam", "logistic regularization strength"),
    "smooth-sigma": (float, "smooth_sigma", "temporal Gaussian sigma in frames"),
    "bins": (BinLayout.from_string, "bins", "spatial bin grid, e.g. 2x2"),
    "channel": (str, "channel", "motion, appearance or fusion (default: fusion "
                "given both inputs, else the one given)"),
}


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    """The inputs and parameters that run and bench share. Parameter
    values stay strings here and are parsed after the inputs load."""
    parser.add_argument("--frames", help="PGM directory or raw-y8 file")
    parser.add_argument("--frames-format", choices=("auto", "pgm-sequence", "raw-y8"),
                        default="auto")
    parser.add_argument("--activations", help="UMK1 activation tensor file")
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    for key, (_, attr, text) in CONFIG_KEYS.items():
        parser.add_argument(f"--{key}", dest=attr, help=text)


def _parse(key: str, text: str, where: str):
    """One parameter value from its text; a malformed value is a
    ValueError that names ``where`` and the key and keeps the reason."""
    try:
        return CONFIG_KEYS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"{where}: bad value {text!r} for {key} ({exc})") from None


def _read_config_file(path) -> dict:
    values = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"{path}:{line_no}: unknown config key {key!r} "
                f"(known: {', '.join(sorted(CONFIG_KEYS))})"
            )
        values[CONFIG_KEYS[key][1]] = _parse(key, value, f"{path}:{line_no}")
    return values


def _build_config(args, channel: str) -> DetectorConfig:
    """Defaults, then the --config file, then the flags; ``channel`` is
    the default the inputs pick."""
    values = {"channel": channel}
    if args.config:
        values.update(_read_config_file(args.config))
    for key, (_, attr, _) in CONFIG_KEYS.items():
        text = getattr(args, attr)
        if text is not None:
            values[attr] = _parse(key, text, f"--{key}")
    return DetectorConfig(**values)


_CHUNK = 1 << 18  # 256 KiB, read into one reused buffer


def _hash_file(h, fh, buf: bytearray, stop: threading.Event) -> None:
    """Feed the rest of ``fh`` to ``h`` through ``buf``; ``stop`` ends it
    between chunks."""
    view = memoryview(buf)
    while not stop.is_set() and (n := fh.readinto(buf)):
        h.update(view[:n])


class _InputHashes:
    """The inputs' manifest entries, whose sha256 is computed on a second
    thread while the detector runs.

    ``add`` opens a file, or lists a directory, on the calling thread, so
    an input that cannot be opened is still reported before any parameter
    is parsed. A directory hashes its files in name order, name then
    bytes. ``entries`` joins the thread, raises what it raised and returns
    the entries with their sha256. Leaving the ``with`` block sets the
    stop flag, which the thread checks between chunks, and joins it, so no
    failure path returns with the thread alive.
    """

    def __init__(self):
        self._entries = {}
        self._sources = []  # per input: (entry, [(name, open file or path)])
        self._files = contextlib.ExitStack()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._hash_all, name="videoanomaly-sha256")
        self._error = None

    def add(self, key: str, path: Path, **fields) -> None:
        entry = self._entries[key] = {"path": str(path), **fields}
        if path.is_dir():
            files = [(p.name.encode(), p) for p in sorted(path.iterdir()) if p.is_file()]
        else:
            files = [(b"", self._files.enter_context(open(path, "rb")))]
        self._sources.append((entry, files))

    def start(self) -> None:
        self._thread.start()

    def _hash_all(self) -> None:
        buf = bytearray(_CHUNK)
        try:
            for entry, files in self._sources:
                h = hashlib.sha256()
                for name, source in files:
                    h.update(name)
                    with open(source, "rb") if isinstance(source, Path) else source as fh:
                        _hash_file(h, fh, buf, self._stop)
                entry["sha256"] = h.hexdigest()
        except BaseException as exc:  # raised again on the caller's thread
            self._error = exc

    def entries(self) -> dict:
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._entries

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.ident is not None:
            self._thread.join()
        self._files.close()


@contextlib.contextmanager
def _inputs_and_config(args):
    """What run and bench share: the --frames and/or --activations inputs,
    each validated whole (an activation tensor's shape too) and against
    the other's length, then the config, whose channel defaults to fusion
    given both inputs, else to the one given. Yields the inputs, their
    ``_InputHashes`` (hashing until ``entries()``) and the config."""
    if not args.frames and not args.activations:
        raise CapabilityError(f"{args.command} needs --frames and/or --activations")
    frames = activations = None
    with _InputHashes() as hashes:
        if args.frames:
            path = Path(args.frames)
            fmt = args.frames_format
            if fmt == "auto":
                fmt = "raw-y8" if path.is_file() else "pgm-sequence"
            frames = load_frames(path, fmt)
            hashes.add("frames", path, format=fmt)
        if args.activations:
            path = Path(args.activations)
            activations = load_activations(path)
            if activations:  # bin_activations would reject it only at the first push
                try:
                    check_activation_shape(activations[0])
                except ValueError as exc:
                    raise DataError(f"{path}: {exc}") from None
            hashes.add("activations", path)
        hashes.start()
        stream_length(frames, activations)
        channel = ("fusion" if args.frames and args.activations
                   else "motion" if args.frames else "appearance")
        yield frames, activations, hashes, _build_config(args, channel)


def cmd_run(args) -> int:
    with _inputs_and_config(args) as (frames, activations, hashes, config):
        wall0 = time.perf_counter()
        with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace:
            result = run_detector(frames, activations, config, trace)
        wall = time.perf_counter() - wall0
        inputs = hashes.entries()
    write_scores_csv(result.series, args.out)
    if args.maps_out:
        write_maps_npz(result, args.maps_out)
    manifest = {
        "tool": "videoanomaly",
        "version": __version__,
        "command": "run",
        "config": config.to_dict(),
        "inputs": inputs,
        "frame_count": result.frame_count,
        "window_count": len(result.windows),
        "timing": {
            "wall_seconds": wall,
            "extract_seconds": result.timing["extract_seconds"],
            "predict_seconds": result.timing["predict_seconds"],
            "extraction_fps": result.extraction_fps,
            "prediction_fps": result.prediction_fps,
        },
        "notes": [
            "motion descriptor: per-voxel 3D gradient magnitude over 10x10x5 cubes,"
            " static cubes gated on max |temporal gradient| < 1e-4",
            f"temporal smoothing: Gaussian sigma={config.smooth_sigma} frames,"
            " kernel radius ceil(3*sigma), truncated and renormalized at borders",
            "pixel-level maps: nearest-neighbor upsampling over patch extents,"
            " then spatial Gaussian smoothing (sigma_px flag, default 10)",
        ],
    }
    manifest_path = Path(str(args.out) + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(
        f"run: frames={result.frame_count} windows={len(result.windows)} "
        f"channel={config.channel} extraction_fps={result.extraction_fps:.1f} "
        f"prediction_fps={result.prediction_fps:.1f} out={args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    cols = read_scores_csv(args.scores)
    scores = cols.get(args.column)
    if scores is None:
        raise CapabilityError(
            f"column {args.column!r} is empty in {args.scores}; "
            "rerun the detector with that channel enabled"
        )
    gt = load_ground_truth(args.gt, frame_count=len(scores))
    if args.level == "frame":
        report = frame_auc(scores, gt.frame_labels)
    else:
        if gt.pixel_masks is None:
            raise CapabilityError(
                "pixel-level evaluation needs a directory of per-frame masks as --gt"
            )
        if not args.maps:
            raise CapabilityError("pixel-level evaluation needs --maps (from run --maps-out)")
        maps = load_maps_npz(args.maps, args.map_channel)
        report = pixel_auc(maps, gt, sigma_px=args.sigma_px)
    report.write_json(args.out)
    roc_csv = args.roc_csv or str(args.out) + ".roc.csv"
    report.write_roc_csv(roc_csv)
    print(f"eval: level={report.level} auc={report.auc:.6f} out={args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    with _inputs_and_config(args) as (frames, activations, hashes, config):
        extraction, prediction = [], []
        for _ in range(args.repeat):
            result = run_detector(frames, activations, config)
            extraction.append(result.extraction_fps)
            prediction.append(result.prediction_fps)
        inputs = hashes.entries()
    report = {
        "command": "bench",
        "version": __version__,
        "config": config.to_dict(),
        "inputs": inputs,
        "frames": result.frame_count,
        "windows": len(result.windows),
        "repeats": args.repeat,
        "extraction_fps": statistics.median(extraction),
        "prediction_fps": statistics.median(prediction),
    }
    line = json.dumps(report)
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videoanomaly",
        description="Training-free online video anomaly detection by unmasking",
    )
    parser.add_argument("--version", action="version", version=f"videoanomaly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="score a video and write the score CSV + manifest")
    _add_detector_flags(run)
    run.add_argument("--out", required=True, help="score CSV path")
    run.add_argument("--maps-out", help="write per-frame score grids (npz)")
    run.add_argument("--trace", metavar="FILE", help="write one JSON line per closed window")
    run.set_defaults(func=cmd_run)

    ev = sub.add_parser("eval", help="ROC/AUC against ground truth")
    ev.add_argument("--scores", required=True, help="score CSV from run")
    ev.add_argument("--gt", required=True,
                    help="label file (one 0/1 per line) or mask PGM directory")
    ev.add_argument("--level", choices=("frame", "pixel"), default="frame")
    ev.add_argument("--column", default="score_smoothed",
                    choices=CSV_HEADER.split(",")[1:], help="score CSV column to evaluate")
    ev.add_argument("--maps", help="npz score grids from run --maps-out (pixel level)")
    ev.add_argument("--map-channel", default="fused", choices=("fused", "motion", "appearance"),
                    help="which maps to use (pixel level)")
    ev.add_argument("--sigma-px", type=float, default=10.0,
                    help="spatial Gaussian sigma in pixels")
    ev.add_argument("--out", required=True, help="report JSON path")
    ev.add_argument("--roc-csv", help="fpr,tpr CSV path (default <out>.roc.csv)")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="throughput split: extraction vs prediction")
    _add_detector_flags(bench)
    bench.add_argument("--repeat", type=int, default=3, help="repeats, median reported")
    bench.add_argument("--out", help="also write the report JSON here")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ARGUMENT_ERRORS + DATA_ERRORS as exc:
        msg = str(exc).replace("\n", " ")
        print(f"videoanomaly {args.command}: error: {type(exc).__name__}: {msg}",
              file=sys.stderr)
        return 2 if isinstance(exc, ARGUMENT_ERRORS) else 3


if __name__ == "__main__":
    sys.exit(main())
