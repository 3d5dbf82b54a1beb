from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from videoanomaly import (
    AlignmentError,
    DataError,
    DetectorConfig,
    Frame,
    FormatError,
    OrderingError,
    TruncationError,
    load_activations,
    load_frames,
    load_ground_truth,
    run_detector,
)
from videoanomaly import synth
from videoanomaly.ingest import (
    ActivationFrame,
    _axis_coords,
    _resize_plan,
    load_labels,
    load_masks,
    read_pnm,
    resize_bilinear,
)

from conftest import write_activations, write_frames_y8, write_pgm


def _frames(count, h=6, w=8, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        gray = rng.integers(0, 256, (h, w), dtype=np.uint8)
        out.append(Frame(i, w, h, gray.astype(np.float64) / 255.0))
    return out


# ---------------------------------------------------------------- PGM / PPM


def test_pgm_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    gray = rng.integers(0, 256, (12, 9), dtype=np.uint8)
    path = tmp_path / "f.pgm"
    write_pgm(path, gray)
    back = read_pnm(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, gray)


def test_pgm_header_comments_and_whitespace(tmp_path):
    body = b"P5\n# a comment\n3 # trailing comment\n2\n255\n" + bytes(range(6))
    path = tmp_path / "c.pgm"
    path.write_bytes(body)
    back = read_pnm(path)
    assert back.shape == (2, 3)
    assert np.array_equal(back.ravel(), np.arange(6, dtype=np.uint8))


def test_ppm_converts_with_bt601_luma(tmp_path):
    rgb = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]], dtype=np.uint8)
    body = b"P6\n3 1\n255\n" + rgb.tobytes()
    path = tmp_path / "c.ppm"
    path.write_bytes(body)
    back = read_pnm(path)
    expected = np.round(np.array([0.299, 0.587, 0.114]) * 255).astype(np.uint8)
    assert np.array_equal(back.ravel(), expected)


def test_pgm_rejects_maxval_other_than_255(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        read_pnm(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(TruncationError):
        read_pnm(path)


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "b.pgm"
    path.write_bytes(b"P7\n2 2\n255\n" + bytes(4))
    with pytest.raises(FormatError):
        read_pnm(path)


def test_sequence_loads_in_order(tmp_path):
    rng = np.random.default_rng(1)
    imgs = [rng.integers(0, 256, (4, 5), dtype=np.uint8) for _ in range(3)]
    for i, img in enumerate(imgs):
        write_pgm(tmp_path / f"frame_{i:03d}.pgm", img)
    frames = load_frames(tmp_path)
    assert [f.index for f in frames] == [0, 1, 2]
    for f, img in zip(frames, imgs):
        assert np.array_equal(f.pixels, img / 255.0)


def test_sequence_unpadded_numbering_is_rejected(tmp_path):
    # lexicographic order puts 10 before 2; trailing numbers then decrease
    for name in ("f1.pgm", "f10.pgm", "f2.pgm"):
        write_pgm(tmp_path / name, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(OrderingError):
        load_frames(tmp_path)


def test_sequence_unnumbered_names_pass(tmp_path):
    for name in ("alpha.pgm", "beta.pgm"):
        write_pgm(tmp_path / name, np.zeros((2, 2), dtype=np.uint8))
    assert len(load_frames(tmp_path)) == 2


def test_sequence_requires_directory(tmp_path):
    with pytest.raises(FormatError):
        load_frames(tmp_path / "missing")


# ------------------------------------------------------------------ raw-y8


def test_y8_roundtrip_bit_identical(tmp_path):
    frames = _frames(5)
    dest = tmp_path / "video.y8"
    write_frames_y8(frames, dest)
    assert (tmp_path / "video.y8.hdr").read_text().split() == ["8", "6", "5"]
    back = load_frames(dest, format="raw-y8")
    assert len(back) == 5
    for a, b in zip(frames, back):
        assert (a.width, a.height) == (b.width, b.height)
        assert np.array_equal(a.pixels, b.pixels)


def test_y8_truncated_payload_reports_sizes(tmp_path):
    frames = _frames(4)
    dest = tmp_path / "video.y8"
    write_frames_y8(frames, dest)
    data = dest.read_bytes()
    dest.write_bytes(data[:-10])
    with pytest.raises(TruncationError) as err:
        load_frames(dest, format="raw-y8")
    assert str(len(data)) in str(err.value)


def test_y8_missing_header(tmp_path):
    dest = tmp_path / "video.y8"
    dest.write_bytes(bytes(48))
    with pytest.raises(FormatError):
        load_frames(dest, format="raw-y8")


def test_y8_malformed_header(tmp_path):
    dest = tmp_path / "video.y8"
    dest.write_bytes(bytes(4))
    (tmp_path / "video.y8.hdr").write_text("2 2\n")
    with pytest.raises(FormatError):
        load_frames(dest, format="raw-y8")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_frames(tmp_path, format="mp4")


# ------------------------------------------------------------------ resize


def test_resize_identity_is_exact():
    frame = _frames(1, h=7, w=11, seed=2)[0]
    out = resize_bilinear(frame, 11, 7)
    assert np.array_equal(out.pixels, frame.pixels)


def test_resize_endpoints_align():
    # 2x2 -> 2x4 interpolates rows at 0, 1/3, 2/3, 1
    pixels = np.array([[0.0, 0.0], [1.0, 1.0]])
    frame = Frame(0, 2, 2, pixels)
    out = resize_bilinear(frame, 2, 4)
    assert np.allclose(out.pixels[:, 0], [0.0, 1 / 3, 2 / 3, 1.0])
    assert np.allclose(out.pixels, out.pixels[:, :1])


def test_resize_single_output_samples_center():
    pixels = np.linspace(0.0, 1.0, 5)[None, :].repeat(3, axis=0)
    out = resize_bilinear(Frame(0, 5, 3, pixels), 1, 3)
    assert np.allclose(out.pixels[:, 0], 0.5)


def test_resize_preserves_range():
    frame = _frames(1, h=30, w=40, seed=5)[0]
    out = resize_bilinear(frame, 17, 13)
    assert out.pixels.min() >= frame.pixels.min() - 1e-12
    assert out.pixels.max() <= frame.pixels.max() + 1e-12
    assert (out.width, out.height) == (17, 13)


# ------------------------------------------------------------ ground truth


def test_labels_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n0\n1\n1\n0\n")
    gt = load_labels(path)
    assert np.array_equal(gt.frame_labels, [0, 0, 1, 1, 0])
    assert gt.pixel_masks is None


def test_labels_reject_non_binary(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n2\n")
    with pytest.raises(DataError):
        load_labels(path)


def test_labels_frame_count_mismatch(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1\n")
    with pytest.raises(AlignmentError):
        load_labels(path, frame_count=3)


def test_masks_directory(tmp_path):
    mdir = tmp_path / "masks"
    mdir.mkdir()
    m0 = np.zeros((4, 6), dtype=np.uint8)
    m1 = np.zeros((4, 6), dtype=np.uint8)
    m1[1:3, 2:5] = 255
    write_pgm(mdir / "m_0.pgm", m0)
    write_pgm(mdir / "m_1.pgm", m1)
    gt = load_masks(mdir, frame_count=2)
    assert np.array_equal(gt.frame_labels, [0, 1])
    assert gt.pixel_masks[1].dtype == bool
    assert gt.pixel_masks[1].sum() == 6


def test_masks_count_mismatch(tmp_path):
    mdir = tmp_path / "masks"
    mdir.mkdir()
    write_pgm(mdir / "m_0.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(AlignmentError):
        load_masks(mdir, frame_count=2)


def test_ground_truth_dispatches_on_path_kind(tmp_path):
    mdir = tmp_path / "gt"
    mdir.mkdir()
    write_pgm(mdir / "m_0.pgm", np.full((2, 2), 255, dtype=np.uint8))
    gt = load_ground_truth(mdir)
    assert gt.pixel_masks is not None
    lpath = tmp_path / "labels.txt"
    lpath.write_text("1\n")
    gt2 = load_ground_truth(lpath)
    assert gt2.pixel_masks is None
    assert np.array_equal(gt.frame_labels, gt2.frame_labels)


# ------------------------------------------------------- activation tensors


def _acts(count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        ActivationFrame(i, 256, 13, 13, rng.random((256, 13, 13), dtype=np.float32))
        for i in range(count)
    ]


def test_activations_roundtrip(tmp_path):
    acts = _acts(3)
    dest = tmp_path / "acts.umk1"
    write_activations(acts, dest)
    size = dest.stat().st_size
    assert size == 20 + 3 * 256 * 13 * 13 * 4
    back = load_activations(dest)
    assert len(back) == 3
    for a, b in zip(acts, back):
        assert b.values.dtype == np.float32
        assert np.array_equal(a.values, b.values)


def test_activations_bad_magic(tmp_path):
    acts = _acts(1)
    dest = tmp_path / "acts.umk1"
    write_activations(acts, dest)
    data = bytearray(dest.read_bytes())
    data[:4] = b"NOPE"
    dest.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        load_activations(dest)


def test_activations_truncated(tmp_path):
    acts = _acts(2)
    dest = tmp_path / "acts.umk1"
    write_activations(acts, dest)
    dest.write_bytes(dest.read_bytes()[:-5])
    with pytest.raises(TruncationError):
        load_activations(dest)


def test_activations_nan_payload(tmp_path):
    acts = _acts(1)
    acts[0].values[10, 5, 5] = np.nan
    dest = tmp_path / "acts.umk1"
    write_activations(acts, dest)
    with pytest.raises(DataError):
        load_activations(dest)


# ----------------------------------------- lazy loaders vs. eager decoding
#
# The loaders used to decode a whole input into lists. These are those
# list builders, kept as the oracle that every lazily decoded item must
# equal bit for bit.


def _eager_pgm_sequence(source):
    names = sorted(p.name for p in source.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))
    frames = []
    for idx, name in enumerate(names):
        gray = read_pnm(source / name)
        h, w = gray.shape
        frames.append(Frame(idx, w, h, gray.astype(np.float64) / 255.0))
    return frames


def _eager_raw_y8(source):
    w, h, count = (int(v) for v in source.with_name(source.name + ".hdr").read_text().split())
    data = np.frombuffer(source.read_bytes(), dtype=np.uint8).reshape(count, h, w)
    return [Frame(i, w, h, data[i].astype(np.float64) / 255.0) for i in range(count)]


def _eager_activations(source):
    data = source.read_bytes()
    count, channels, height, width = (int(v) for v in np.frombuffer(data, "<u4", 4, offset=4))
    values = np.frombuffer(data, "<f4", offset=20)
    tensor = values.reshape(count, channels, height, width)
    return [ActivationFrame(i, channels, height, width, tensor[i]) for i in range(count)]


def _eager_masks(source):
    names = sorted(p.name for p in source.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))
    masks = [read_pnm(source / name) > 0 for name in names]
    labels = np.array([1 if m.any() else 0 for m in masks], dtype=np.uint8)
    return labels, masks


def _same_frame(a, b):
    assert (a.index, a.width, a.height) == (b.index, b.width, b.height)
    assert a.pixels.dtype == b.pixels.dtype == np.float64
    assert np.array_equal(a.pixels.view(np.uint64), b.pixels.view(np.uint64))


def _check_sequence_access(lazy, eager, same):
    """Every item, negative indices, slices, out-of-range indices and a
    repeated read of one item agree with the eager list."""
    assert len(lazy) == len(eager)
    for a, b in zip(lazy, eager):
        same(a, b)
    n = len(eager)
    for i in (-1, -n):
        same(lazy[i], eager[i])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            lazy[i]
    for a, b in zip(lazy[1::2], eager[1::2]):
        same(a, b)
    first, again = lazy[0], lazy[0]
    same(first, again)
    same(again, eager[0])


def _write_ppm(path, rgb):
    h, w, _ = rgb.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + rgb.tobytes())


@pytest.mark.parametrize("kind", ["P5", "P6"])
def test_lazy_pgm_sequence_matches_eager_oracle(tmp_path, kind):
    rng = np.random.default_rng(11)
    for i in range(5):
        h, w = (6, 8) if i % 2 else (5, 7)  # sizes may differ between files
        if kind == "P5":
            write_pgm(tmp_path / f"f_{i:02d}.pgm", rng.integers(0, 256, (h, w), dtype=np.uint8))
        else:
            _write_ppm(tmp_path / f"f_{i:02d}.ppm", rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    _check_sequence_access(load_frames(tmp_path), _eager_pgm_sequence(tmp_path), _same_frame)


@pytest.mark.parametrize("size", [(8, 6), (160, 120)])  # (160, 120): no resize needed
def test_lazy_raw_y8_matches_eager_oracle(tmp_path, size):
    w, h = size
    dest = tmp_path / "video.y8"
    write_frames_y8(_frames(7, h=h, w=w, seed=4), dest)
    lazy = load_frames(dest, format="raw-y8")
    _check_sequence_access(lazy, _eager_raw_y8(dest), _same_frame)


def test_lazy_raw_y8_scores_match_eager_frames_at_working_size(tmp_path):
    """At the working size the detector keeps the decoded buffer itself,
    with no resize copy in between; scores match the eager list's."""
    dest = tmp_path / "video.y8"
    write_frames_y8(synth.noise_video(30, seed=2), dest)
    config = DetectorConfig(k=2)
    lazy = run_detector(load_frames(dest, format="raw-y8"), config=config)
    eager = run_detector(_eager_raw_y8(dest), config=config)
    for name in ("fused", "smoothed"):
        a, b = getattr(lazy.series, name), getattr(eager.series, name)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert np.array_equal(lazy.bin_scores["motion"], eager.bin_scores["motion"])


def test_lazy_activations_match_eager_oracle(tmp_path):
    dest = tmp_path / "acts.umk1"
    write_activations(_acts(4, seed=5), dest)

    def same(a, b):
        assert (a.index, a.channels, a.height, a.width) == (b.index, b.channels, b.height, b.width)
        assert a.values.dtype == b.values.dtype == np.float32
        assert np.array_equal(a.values.view(np.uint32), b.values.view(np.uint32))

    _check_sequence_access(load_activations(dest), _eager_activations(dest), same)


def test_lazy_masks_match_eager_oracle(tmp_path):
    rng = np.random.default_rng(6)
    for i in range(6):
        mask = np.zeros((6, 9), dtype=np.uint8)
        if i % 3:
            mask[rng.integers(0, 6, 4), rng.integers(0, 9, 4)] = rng.integers(1, 256, 4)
        write_pgm(tmp_path / f"m_{i:02d}.pgm", mask)
    labels, masks = _eager_masks(tmp_path)
    gt = load_masks(tmp_path, frame_count=6)
    assert np.array_equal(gt.frame_labels, labels)
    assert gt.frame_labels.dtype == np.uint8

    def same(a, b):
        assert a.dtype == b.dtype == bool
        assert np.array_equal(a, b)

    _check_sequence_access(gt.pixel_masks, masks, same)


# ------------------------------------------- 8-bit frames and their resize
#
# Decoded frames keep their 8-bit samples until ``pixels`` is read, and
# resize_bilinear gathers from them through a cached plan. The resize it
# replaced is kept here as the oracle every resize must equal bit for bit.


def _resize_reference(frame, out_w, out_h):
    src = frame.pixels
    xs = _axis_coords(frame.width, out_w)
    ys = _axis_coords(frame.height, out_h)
    x0 = np.clip(np.floor(xs).astype(int), 0, frame.width - 1)
    y0 = np.clip(np.floor(ys).astype(int), 0, frame.height - 1)
    x1 = np.minimum(x0 + 1, frame.width - 1)
    y1 = np.minimum(y0 + 1, frame.height - 1)
    tx = xs - x0
    ty = (ys - y0)[:, None]
    top = src[np.ix_(y0, x0)] * (1.0 - tx) + src[np.ix_(y0, x1)] * tx
    bot = src[np.ix_(y1, x0)] * (1.0 - tx) + src[np.ix_(y1, x1)] * tx
    return top * (1.0 - ty) + bot * ty


# (width, height, out_w, out_h): Avenue to working size, an upscale, an
# odd downscale, one-column and one-row frames, one output pixel, and the
# identity
RESIZE_CASES = [
    (640, 360, 160, 120),
    (8, 6, 37, 29),
    (97, 53, 31, 17),
    (1, 9, 3, 4),
    (9, 1, 4, 2),
    (13, 11, 1, 1),
    (11, 7, 11, 7),
]


def _same_bits(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("size", RESIZE_CASES)
def test_resize_matches_reference_on_float_frames(size):
    w, h, out_w, out_h = size
    rng = np.random.default_rng(w * h)
    for pixels in (rng.random((h, w)), rng.normal(0.0, 3.0, (h, w))):
        out = resize_bilinear(Frame(0, w, h, pixels), out_w, out_h)
        _same_bits(out.pixels, _resize_reference(Frame(0, w, h, pixels), out_w, out_h))


@pytest.mark.parametrize("size", RESIZE_CASES)
def test_resize_matches_reference_on_decoded_frames(tmp_path, size):
    w, h, out_w, out_h = size
    dest = tmp_path / "video.y8"
    write_frames_y8(_frames(3, h=h, w=w, seed=w + h), dest)
    for frame, eager in zip(load_frames(dest, format="raw-y8"), _eager_raw_y8(dest)):
        assert frame._pixels is None  # resized from the 8-bit samples
        out = resize_bilinear(frame, out_w, out_h)
        assert (out.index, out.width, out.height) == (frame.index, out_w, out_h)
        _same_bits(out.pixels, _resize_reference(eager, out_w, out_h))


def _write_sequence(tmp_path, kind, count=3, h=9, w=13):
    """raw-y8 clip or P5/P6 directory; returns (load_frames args, the 8-bit
    samples of each frame)."""
    rng = np.random.default_rng(17)
    if kind == "raw-y8":
        gray = rng.integers(0, 256, (count, h, w), dtype=np.uint8)
        dest = tmp_path / "video.y8"
        dest.write_bytes(gray.tobytes())
        dest.with_name("video.y8.hdr").write_text(f"{w} {h} {count}\n")
        return (dest, "raw-y8"), list(gray)
    for i in range(count):
        if kind == "P5":
            write_pgm(tmp_path / f"f_{i:02d}.pgm", rng.integers(0, 256, (h, w), dtype=np.uint8))
        else:
            _write_ppm(tmp_path / f"f_{i:02d}.ppm", rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    names = sorted(p for p in tmp_path.iterdir())
    return (tmp_path, "pgm-sequence"), [read_pnm(p) for p in names]


@pytest.mark.parametrize("kind", ["raw-y8", "P5", "P6"])
def test_decoded_frame_pixels_are_its_samples_over_255(tmp_path, kind):
    args, grays = _write_sequence(tmp_path, kind)
    frames = load_frames(*args)
    for frame, gray in zip(frames, grays):
        assert frame._pixels is None and np.array_equal(frame._gray, gray)
        pixels = frame.pixels
        _same_bits(pixels, gray.astype(np.float64) / 255.0)
        assert frame.pixels is pixels  # computed once


@pytest.mark.parametrize("kind", ["raw-y8", "P5", "P6"])
def test_resizing_decoded_frame_equals_resizing_its_pixels(tmp_path, kind):
    args, _ = _write_sequence(tmp_path, kind)
    frames = load_frames(*args)
    for i in range(len(frames)):
        out = resize_bilinear(frames[i], 7, 5)  # read before pixels
        decoded = frames[i]
        plain = Frame(i, decoded.width, decoded.height, decoded.pixels)
        _same_bits(out.pixels, resize_bilinear(plain, 7, 5).pixels)


def test_caller_built_frame_keeps_its_buffer():
    pixels = np.random.default_rng(2).random((6, 8))
    frame = Frame(0, 8, 6, pixels)
    assert frame.pixels is pixels
    frame.pixels[0, :] = 1.0  # edits in place reach the resize
    assert np.array_equal(resize_bilinear(frame, 8, 3).pixels[0], np.ones(8))
    frame.pixels = np.zeros((6, 8), dtype=np.float32)  # stored as float64
    assert frame.pixels.dtype == np.float64
    with pytest.raises(ValueError):
        frame.pixels = np.zeros((8, 6))
    with pytest.raises(ValueError):
        Frame(0, 8, 6, np.zeros((6, 7)))


def test_decoded_frame_edited_after_read_resizes_the_edit(tmp_path):
    args, _ = _write_sequence(tmp_path, "raw-y8")
    frame = load_frames(*args)[0]
    frame.pixels[:] = 0.25
    assert np.array_equal(resize_bilinear(frame, 5, 4).pixels, np.full((4, 5), 0.25))


def test_resize_plan_is_read_only():
    corners, tx, ty = _resize_plan(640, 360, 160, 120)
    assert corners.shape == (4, 120, 160)
    for a in (corners, tx, ty):
        with pytest.raises(ValueError):
            a[...] = 0
    assert _resize_plan(640, 360, 160, 120)[0] is corners  # cached


# ------------------------------------------- a file that shrinks after load


def test_y8_shrunk_after_load_raises_truncation(tmp_path):
    dest = tmp_path / "video.y8"
    write_frames_y8(_frames(4), dest)
    frames = load_frames(dest, format="raw-y8")
    dest.write_bytes(dest.read_bytes()[:-10])
    frames[2]  # still complete
    with pytest.raises(TruncationError):
        frames[3]


def test_activations_shrunk_after_load_raise_truncation(tmp_path):
    dest = tmp_path / "acts.umk1"
    write_activations(_acts(3), dest)
    acts = load_activations(dest)
    dest.write_bytes(dest.read_bytes()[:-4])
    acts[1]
    with pytest.raises(TruncationError):
        acts[2]


def test_pgm_shrunk_after_load_raises_truncation(tmp_path):
    for i in range(3):
        write_pgm(tmp_path / f"f_{i}.pgm", np.zeros((4, 4), dtype=np.uint8))
    frames = load_frames(tmp_path)
    path = tmp_path / "f_1.pgm"
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(TruncationError):
        frames[1]


# ------------------------------------------------ validation up front


def test_sequence_validates_every_file_up_front(tmp_path):
    for i in range(5):
        write_pgm(tmp_path / f"f_{i}.pgm", np.zeros((4, 4), dtype=np.uint8))
    path = tmp_path / "f_3.pgm"
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncationError):
        load_frames(tmp_path)
    path.write_bytes(b"P7" + path.read_bytes()[2:])
    with pytest.raises(FormatError):
        load_frames(tmp_path)


def test_masks_validate_every_file_up_front(tmp_path):
    for i in range(3):
        write_pgm(tmp_path / f"m_{i}.pgm", np.zeros((4, 4), dtype=np.uint8))
    (tmp_path / "m_1.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(TruncationError):
        load_masks(tmp_path)


def test_activations_nan_reports_payload_element(tmp_path):
    acts = _acts(3)
    acts[2].values[7, 3, 1] = np.inf
    acts[2].values[9, 0, 0] = np.nan
    dest = tmp_path / "acts.umk1"
    write_activations(acts, dest)
    with pytest.raises(DataError) as err:
        load_activations(dest)
    per_frame = 256 * 13 * 13
    assert f"element {2 * per_frame + 7 * 169 + 3 * 13 + 1}" in str(err.value)


def test_activations_validation_peak_memory_is_one_frame(tmp_path):
    dest = tmp_path / "acts.umk1"
    write_activations(_acts(60), dest)
    frame_bytes = 256 * 13 * 13 * 4
    tracemalloc.start()
    try:
        acts = load_activations(dest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(acts) == 60
    assert peak < 2 * frame_bytes
