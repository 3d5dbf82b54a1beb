"""Decoders for video frames, ground-truth masks and activation tensors.

Three on-disk formats are understood:

* PGM/PPM (binary ``P5``/``P6``, maxval 255). ``P6`` color data is collapsed
  to grayscale with BT.601 luma weights. A "pgm-sequence" is a directory of
  such files, one per frame, ordered by file name.
* raw-y8: a single binary file of ``COUNT`` frames of ``W*H`` bytes each
  (frame-major, row-major), described by a sidecar text header
  ``<file>.hdr`` containing one line ``W H COUNT``.
* UMK1 activation tensors: magic ``b"UMK1"``, four little-endian uint32
  (count, channels, height, width), then ``count*channels*height*width``
  little-endian float32 values, frame-major, channel-major, row-major.
  This is the hand-off format for externally computed CNN activation maps;
  the exporter is expected to have done its own preprocessing (e.g. resize
  to the network's input size and mean-image subtraction) before running
  the network.

The loaders validate up front what is cheap to check (headers against
file sizes, each PGM's header and payload length, the non-finite scan of
an activation file, mask names and counts) and then return a read-only
sequence that reads and decodes one item per access: a frame, an
activation frame of float32 values, or a boolean mask. A decoded frame
keeps its 8-bit samples and computes its float ``pixels`` (values in
``[0, 1]``) only when they are first read, so resize_bilinear converts
only the samples it interpolates. Walking one holds a single decoded item, so memory does not
grow with the clip. A file that shrinks after validation raises
TruncationError when the missing item is read. The loaders are pure
functions over immutable inputs and are safe to call concurrently.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    DataError,
    FormatError,
    OrderingError,
    TruncationError,
)

_LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])  # BT.601

_UMK1_MAGIC = b"UMK1"
_UMK1_HEADER_BYTES = 20  # magic + 4 * uint32


class Frame:
    """One grayscale frame: ``pixels`` is (height, width) float64 in [0, 1].

    ``Frame(index, width, height, pixels)`` holds the given buffer as
    float64. A frame the loaders decode holds its 8-bit samples instead:
    reading ``pixels`` the first time computes ``samples / 255.0`` (the
    values an eager decode would give) and keeps that array. Until then
    resize_bilinear reads the samples directly; after, it reads
    ``pixels``, so edits made through it count.
    """

    def __init__(self, index: int, width: int, height: int, pixels: np.ndarray):
        self.index = index
        self.width = width
        self.height = height
        self.pixels = pixels

    @classmethod
    def _from_gray(cls, index: int, gray: np.ndarray) -> "Frame":
        """A frame that keeps the uint8 (height, width) ``gray`` until read."""
        frame = cls.__new__(cls)
        frame.index = index
        frame.height, frame.width = gray.shape
        frame._pixels, frame._gray = None, gray
        return frame

    @property
    def pixels(self) -> np.ndarray:
        # the samples stay, so a second thread reading at the same time
        # computes the same array instead of finding them gone
        if self._pixels is None:
            self._pixels = self._gray.astype(np.float64) / 255.0
        return self._pixels

    @pixels.setter
    def pixels(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.height, self.width):
            raise ValueError(
                f"pixel buffer shape {value.shape} != "
                f"(height={self.height}, width={self.width})"
            )
        self._pixels, self._gray = value, None


@dataclass
class ActivationFrame:
    """One frame's activation tensor. ``values`` is (channels, height, width)."""

    index: int
    channels: int
    height: int
    width: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.shape != (self.channels, self.height, self.width):
            raise ValueError(
                f"activation shape {self.values.shape} != "
                f"({self.channels}, {self.height}, {self.width})"
            )


@dataclass
class GroundTruth:
    """Per-frame binary anomaly labels, optionally with per-pixel masks."""

    frame_labels: np.ndarray
    pixel_masks: Sequence[np.ndarray] | None = field(default=None)

    def __post_init__(self):
        self.frame_labels = np.asarray(self.frame_labels, dtype=np.uint8)
        if self.pixel_masks is not None:
            derived = np.array(
                [1 if m.any() else 0 for m in self.pixel_masks], dtype=np.uint8
            )
            if len(self.pixel_masks) != len(self.frame_labels) or not np.array_equal(
                derived, self.frame_labels
            ):
                raise ValueError("frame labels inconsistent with pixel masks")


class _Decoded(Sequence):
    """Read-only sequence that decodes item ``i`` on every access.

    ``decode`` maps a position in ``indices`` to one item. Nothing is
    cached, so an item lives only as long as its caller keeps it.
    """

    def __init__(self, decode, indices: range):
        self._decode = decode
        self._indices = indices

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Decoded(self._decode, self._indices[i])
        return self._decode(self._indices[i])


def _read_exact(fh, size: int, path) -> bytes:
    """The next ``size`` bytes of ``fh``; TruncationError if the file ends first."""
    offset = fh.tell()
    data = fh.read(size)
    if len(data) < size:
        raise TruncationError(
            f"{path}: needs {size} bytes from byte {offset}, file ends at byte "
            f"{offset + len(data)}"
        )
    return data


def _read_at(path, offset: int, size: int) -> bytes:
    with open(path, "rb") as fh:
        fh.seek(offset)
        return _read_exact(fh, size, path)


# ---------------------------------------------------------------------------
# PGM / PPM
# ---------------------------------------------------------------------------

def _pnm_tokens(data: bytes, count: int, path) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens and the offset of the first payload byte (one
    whitespace byte past the last token).
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if i == start:
            raise FormatError(f"{path}: truncated PNM header at byte {i}")
        tokens.append(data[start:i])
    if i >= len(data):
        raise FormatError(f"{path}: missing payload after header (byte {i})")
    return tokens, i + 1  # consume the single whitespace after maxval


def _parse_pnm(data: bytes, path) -> tuple[int, int, bool, int]:
    """(width, height, color, payload offset) of a binary P5/P6 file.

    Checks the magic, the header fields and that the payload is complete.
    """
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM file (bad magic at byte 0)")
    color = data[:2] == b"P6"
    tokens, offset = _pnm_tokens(data, 4, path)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError:
        raise FormatError(f"{path}: non-numeric PNM header field") from None
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive dimensions in PNM header")
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval} (only 255)")
    need = width * height * (3 if color else 1)
    if len(data) - offset < need:
        raise TruncationError(
            f"{path}: payload needs {need} bytes, file ends at byte {len(data)}"
        )
    return width, height, color, offset


def read_pnm(path) -> np.ndarray:
    """Decode a binary P5/P6 file to a grayscale uint8 array (height, width)."""
    path = Path(path)
    data = path.read_bytes()
    width, height, color, offset = _parse_pnm(data, path)
    if color:
        raw = np.frombuffer(data, np.uint8, width * height * 3, offset)
        rgb = raw.reshape(height, width, 3).astype(np.float64)
        gray = rgb @ _LUMA_WEIGHTS
        return np.clip(np.rint(gray), 0, 255).astype(np.uint8)
    return np.frombuffer(data, np.uint8, width * height, offset).reshape(height, width)


_TRAILING_INT = re.compile(r"(\d+)\D*$")


def _pnm_sequence(source: Path, what: str, empty: str) -> list[str]:
    """Sorted .pgm/.ppm names in ``source``, checked for numbering order.

    ``what`` and ``empty`` complete the "not a directory of ..." and
    "no ... found" messages of the FormatError raised otherwise.
    """
    if not source.is_dir():
        raise FormatError(f"{source}: not a directory of {what}")
    names = sorted(
        p.name for p in source.iterdir() if p.suffix.lower() in (".pgm", ".ppm")
    )
    if not names:
        raise FormatError(f"{source}: no {empty} found")
    _check_sequence_order(names, source)
    return names


def _check_sequence_order(names: list[str], source) -> None:
    indices = []
    for name in names:
        match = _TRAILING_INT.search(Path(name).stem)
        if match is None:
            return  # unnumbered names: lexicographic order is all we have
        indices.append(int(match.group(1)))
    for prev, cur, name in zip(indices, indices[1:], names[1:]):
        if cur <= prev:
            raise OrderingError(
                f"{source}: frame numbering not strictly increasing in "
                f"lexicographic order (offender {name!r}); zero-pad the indices"
            )


def load_frames(source, format: str = "pgm-sequence") -> Sequence[Frame]:
    """Validate a frame sequence on disk and return it as a lazy sequence.

    ``format`` is ``"pgm-sequence"`` (a directory of P5/P6 files) or
    ``"raw-y8"`` (a packed byte file with a ``.hdr`` sidecar). Each access
    reads and decodes one frame, whose ``pixels`` map intensities to
    [0, 1] by dividing by 255 when first read. Frames carry 0-based
    positional indices in increasing order.
    """
    source = Path(source)
    if format == "pgm-sequence":
        return _load_pgm_sequence(source)
    if format == "raw-y8":
        return _load_raw_y8(source)
    raise ValueError(f"unknown frame format {format!r}")


def _load_pgm_sequence(source: Path) -> Sequence[Frame]:
    names = _pnm_sequence(source, "PGM files", ".pgm/.ppm files")
    for name in names:
        _parse_pnm((source / name).read_bytes(), source / name)

    def decode(idx: int) -> Frame:
        return Frame._from_gray(idx, read_pnm(source / names[idx]))

    return _Decoded(decode, range(len(names)))


def _read_y8_header(header_path: Path):
    if not header_path.exists():
        raise FormatError(f"{header_path}: raw-y8 sidecar header missing")
    parts = header_path.read_text().split()
    if len(parts) != 3:
        raise FormatError(f"{header_path}: header must be 'W H COUNT'")
    try:
        w, h, count = (int(p) for p in parts)
    except ValueError:
        raise FormatError(f"{header_path}: non-numeric header field") from None
    if w < 1 or h < 1 or count < 0:
        raise FormatError(f"{header_path}: non-positive dimensions in header")
    return w, h, count


def _load_raw_y8(source: Path) -> Sequence[Frame]:
    w, h, count = _read_y8_header(source.with_name(source.name + ".hdr"))
    size = source.stat().st_size
    need = w * h * count
    if size != need:
        raise TruncationError(
            f"{source}: header declares {need} bytes ({count} frames of "
            f"{w}x{h}), file has {size} (mismatch at byte {min(need, size)})"
        )

    def decode(idx: int) -> Frame:
        raw = _read_at(source, idx * w * h, w * h)
        return Frame._from_gray(idx, np.frombuffer(raw, dtype=np.uint8).reshape(h, w))

    return _Decoded(decode, range(count))


# ---------------------------------------------------------------------------
# Resizing
# ---------------------------------------------------------------------------

def _axis_coords(n_src: int, n_out: int) -> np.ndarray:
    # Endpoint-aligned sampling: first/last output samples coincide with the
    # first/last input samples, interior samples interpolate linearly.
    if n_out == 1:
        return np.array([0.5 * (n_src - 1)])
    return np.arange(n_out) * ((n_src - 1) / (n_out - 1))


@functools.lru_cache(maxsize=8)
def _resize_plan(w: int, h: int, out_w: int, out_h: int):
    """(corners, tx, ty) of a w x h -> out_w x out_h resize, read-only.

    ``corners`` is (4, out_h, out_w): the row-major flat source indices
    of each output pixel's top-left, top-right, bottom-left and
    bottom-right neighbours. ``tx`` (out_w,) and ``ty`` (out_h, 1) are
    the weights of the right and bottom neighbours.
    """
    xs = _axis_coords(w, out_w)
    ys = _axis_coords(h, out_h)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    tx = xs - x0
    ty = (ys - y0)[:, None]
    rows = np.stack([y0, y0, y1, y1])[:, :, None] * w
    corners = rows + np.stack([x0, x1, x0, x1])[:, None, :]
    # the smallest index type (uint32 at 640x360): a cached plan of 8-byte
    # indices raised the benchmark's peak RSS by 2 MB, for no speed
    corners = corners.astype(np.min_scalar_type(w * h - 1))
    for a in (corners, tx, ty):
        a.flags.writeable = False
    return corners, tx, ty


def resize_bilinear(frame: Frame, out_w: int, out_h: int) -> Frame:
    """Resize with separable bilinear interpolation (deterministic).

    The identity resize returns a bit-identical pixel buffer; outputs stay
    within the input's [min, max] range. A decoded frame whose ``pixels``
    were not read yet is resized from its 8-bit samples: the four corners
    are gathered first and divided by 255 after, which gives the values
    of resizing ``pixels`` bit for bit.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"target size {out_w}x{out_h} must be at least 1x1")
    if (out_w, out_h) == (frame.width, frame.height):
        return Frame(frame.index, out_w, out_h, frame.pixels.copy())
    corners, tx, ty = _resize_plan(frame.width, frame.height, out_w, out_h)
    if frame._pixels is None:
        samples = frame._gray.take(corners) / 255.0
    else:
        samples = frame.pixels.take(corners)
    # top = c00*(1-tx) + c01*tx, bot = c10*(1-tx) + c11*tx and
    # out = top*(1-ty) + bot*ty: the same products and sums in the same
    # order, taken in place in the freshly gathered corners
    top, c01, bot, c11 = samples
    top *= 1.0 - tx
    c01 *= tx
    top += c01
    bot *= 1.0 - tx
    c11 *= tx
    bot += c11
    bot *= ty
    out = top * (1.0 - ty)
    out += bot
    return Frame(frame.index, out_w, out_h, out)


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------

def load_masks(source, frame_count: int | None = None) -> GroundTruth:
    """Load per-frame binary masks (a directory of PGMs, one per frame).

    Any nonzero pixel marks an anomalous location; a frame's label is 1
    iff its mask has at least one nonzero pixel. When ``frame_count`` is
    given, a differing mask count raises AlignmentError. The labels are
    read up front, one mask at a time; ``pixel_masks`` is a lazy sequence
    that decodes a mask on each access.
    """
    source = Path(source)
    names = _pnm_sequence(source, "mask PGMs", "mask files")
    if frame_count is not None and len(names) != frame_count:
        raise AlignmentError(
            f"{source}: {len(names)} masks for {frame_count} video frames"
        )
    masks = _Decoded(lambda idx: read_pnm(source / names[idx]) > 0, range(len(names)))
    labels = np.array([1 if m.any() else 0 for m in masks], dtype=np.uint8)
    gt = GroundTruth(labels)
    # set after construction: the labels were just derived from these
    # masks, and the consistency check would decode every mask again
    gt.pixel_masks = masks
    return gt


def load_labels(source, frame_count: int | None = None) -> GroundTruth:
    """Load frame-level labels from a text file, one 0/1 per line."""
    values = []
    for line_no, line in enumerate(Path(source).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line not in ("0", "1"):
            raise DataError(f"{source}:{line_no}: labels must be 0 or 1")
        values.append(int(line))
    if frame_count is not None and len(values) != frame_count:
        raise AlignmentError(
            f"{source}: {len(values)} labels for {frame_count} video frames"
        )
    return GroundTruth(np.array(values, dtype=np.uint8))


def load_ground_truth(source, frame_count: int | None = None) -> GroundTruth:
    """Dispatch on path type: directory -> pixel masks, file -> label list."""
    source = Path(source)
    if source.is_dir():
        return load_masks(source, frame_count)
    return load_labels(source, frame_count)


# ---------------------------------------------------------------------------
# UMK1 activation tensors
# ---------------------------------------------------------------------------

def load_activations(source) -> Sequence[ActivationFrame]:
    """Validate a UMK1 activation file (see module docstring for the
    layout) and return it as a lazy sequence of ActivationFrames.

    Validation scans the payload for non-finite values one frame at a
    time and reports the first one by its element index in the payload.
    """
    source = Path(source)
    with open(source, "rb") as fh:
        head = fh.read(_UMK1_HEADER_BYTES)
        if len(head) < _UMK1_HEADER_BYTES:
            raise FormatError(f"{source}: too short for a UMK1 header")
        if head[:4] != _UMK1_MAGIC:
            raise FormatError(f"{source}: bad magic {head[:4]!r} at byte 0")
        count, channels, height, width = (
            int(v) for v in np.frombuffer(head, "<u4", 4, offset=4)
        )
        per_frame = channels * height * width
        if count and not per_frame:  # the scan below would loop over empty frames
            raise FormatError(f"{source}: header declares {count} frames of "
                              f"{channels}x{height}x{width}")
        expected = _UMK1_HEADER_BYTES + count * per_frame * 4
        size = source.stat().st_size
        if size != expected:
            raise TruncationError(
                f"{source}: header declares {expected} bytes total, file has "
                f"{size} (mismatch at byte {min(expected, size)})"
            )
        for idx in range(count):
            # no name holds the chunk, so it is freed before the next read
            finite = np.isfinite(
                np.frombuffer(_read_exact(fh, per_frame * 4, source), "<f4")
            )
            if not finite.all():
                bad = idx * per_frame + int(np.argmin(finite))
                raise DataError(f"{source}: non-finite value at element {bad}")

    def decode(idx: int) -> ActivationFrame:
        raw = _read_at(source, _UMK1_HEADER_BYTES + idx * per_frame * 4, per_frame * 4)
        values = np.frombuffer(raw, "<f4").reshape(channels, height, width)
        return ActivationFrame(idx, channels, height, width, values)

    return _Decoded(decode, range(count))
