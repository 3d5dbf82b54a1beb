from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zipfile
from importlib.metadata import EntryPoint, PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

import videoanomaly
from videoanomaly import ActivationFrame
from videoanomaly import cli
from videoanomaly.cli import main
from videoanomaly.pipeline import CSV_HEADER, DetectorConfig, read_scores_csv
from videoanomaly import synth

from conftest import write_activations, write_frames_y8, write_pgm

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def video(tmp_path_factory):
    """A 60-frame raw-y8 clip with an event, plus labels and pixel masks."""
    root = tmp_path_factory.mktemp("clip")
    frames, labels, masks = synth.block_event_video(frame_count=120, active_range=(60, 90))
    path = root / "video.y8"
    write_frames_y8(frames, path)
    lpath = root / "labels.txt"
    lpath.write_text("".join(f"{v}\n" for v in labels))
    mdir = root / "masks"
    mdir.mkdir()
    for i, m in enumerate(masks):
        write_pgm(mdir / f"mask_{i:03d}.pgm", m.astype(np.uint8) * 255)
    return {"frames": path, "labels": lpath, "masks": mdir}


def _run(video, tmp_path, *extra):
    out = tmp_path / "scores.csv"
    rc = main(["run", "--frames", str(video["frames"]), "--out", str(out), *extra])
    return rc, out


# ----------------------------------------------------------------------- run


def test_run_writes_scores_and_manifest(video, tmp_path, capsys):
    rc, out = _run(video, tmp_path)
    assert rc == 0
    assert "frames" in capsys.readouterr().out  # one human summary line
    scores = read_scores_csv(out)
    assert scores["score_motion"].shape == (120,)
    assert scores["score_appearance"] is None
    manifest = json.loads((tmp_path / "scores.csv.manifest.json").read_text())
    assert manifest["tool"] == "videoanomaly"
    assert manifest["frame_count"] == 120
    assert manifest["window_count"] == 21
    assert manifest["config"]["lambda"] == 0.1
    assert manifest["inputs"]["frames"]["sha256"]
    assert manifest["timing"]["extract_seconds"] > 0


def test_run_is_deterministic(video, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    rc1, a = _run(video, tmp_path / "a")
    rc2, b = _run(video, tmp_path / "b")
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


def _check_trace(path, k):
    """Parse a --trace file and check each channel's entry of each line:
    a trained bin's score is the mean of its k accuracies, bit for bit,
    and any other bin scored chance. Returns the lines and the trained
    (window, channel, bin) triples."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    trained = set()
    for line in lines:
        for ch in set(line) - {"window", "start"}:
            fits = line[ch]["trained"]
            for b, value in enumerate(line[ch]["scores"]):
                fit = fits.get(str(b))
                if fit is None:  # no fit
                    assert value == 0.5
                    continue
                trained.add((line["window"], ch, b))
                assert len(fit["accuracies"]) == len(fit["iterations"]) == k
                assert value == float(np.mean(fit["accuracies"]))  # bit for bit
                assert min(fit["examples"]) >= 2
            assert set(fits) <= {str(b) for b in range(len(line[ch]["scores"]))}
    return lines, trained


def test_run_trace(video, tmp_path):
    maps = tmp_path / "maps.npz"
    trace = tmp_path / "trace.jsonl"
    rc, _ = _run(video, tmp_path, "--maps-out", str(maps), "--trace", str(trace))
    assert rc == 0
    with np.load(maps) as doc:
        assert doc["motion"].shape == (120, 12, 16)
    k = json.loads((tmp_path / "scores.csv.manifest.json").read_text())["config"]["k"]
    lines, trained = _check_trace(trace, k)
    assert [(line["window"], line["start"]) for line in lines] == [(j, 5 * j) for j in range(21)]
    assert all(list(line) == ["window", "start", "motion"] for line in lines)
    assert all(len(line["motion"]["scores"]) == 4 for line in lines)
    assert len(trained) == 21 * 4  # the clip's noise moves every bin
    # a fusion run whose motion changes in the top-left bin only: every
    # line holds motion before appearance, and motion bins 1-3 get no fit
    frames = synth.noise_video(30, seed=1)
    for f in frames:
        f.pixels[60:, :] = f.pixels[:, 80:] = 0.5
    clip, acts = tmp_path / "clip.y8", tmp_path / "clip.umk1"
    write_frames_y8(frames, clip)
    write_activations(synth.noise_activations(30, seed=1), acts)
    fusion_trace = tmp_path / "fusion.jsonl"
    rc = main(["run", "--frames", str(clip), "--activations", str(acts), "--k", "2",
               "--out", str(tmp_path / "fusion.csv"), "--trace", str(fusion_trace)])
    assert rc == 0
    lines, trained = _check_trace(fusion_trace, 2)
    assert [list(line) for line in lines] == [["window", "start", "motion", "appearance"]] * 3
    assert trained == {(j, ch, b) for j in range(3) for ch, bins in
                       (("motion", [0]), ("appearance", range(4))) for b in bins}


def test_run_trace_keeps_the_closed_windows_of_a_failed_run(video, tmp_path, monkeypatch):
    frames = cli.load_frames(video["frames"], "raw-y8")

    class Shrunk:  # the clip as if it lost its frames from 60 on after the check
        def __len__(self):
            return len(frames)

        def __getitem__(self, i):
            if i >= 60:
                raise videoanomaly.FormatError(f"frame {i} is missing")
            return frames[i]

    monkeypatch.setattr(cli, "load_frames", lambda path, fmt: Shrunk())
    trace = tmp_path / "trace.jsonl"
    rc, _ = _run(video, tmp_path, "--trace", str(trace))
    assert rc == 3
    # window j closes once frame 5j + 19 is pushed
    assert [json.loads(line)["window"] for line in trace.read_text().splitlines()] == list(range(9))


def test_run_config_file_and_flag_precedence(video, tmp_path):
    cfg = tmp_path / "detector.cfg"
    cfg.write_text("# comment\nk = 4\nm = 10\nlambda = 0.2\nsmooth-sigma = 5\n")
    out = tmp_path / "scores.csv"
    rc = main([
        "run", "--config", str(cfg), "--k", "2",
        "--frames", str(video["frames"]), "--out", str(out),
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "scores.csv.manifest.json").read_text())
    assert manifest["config"]["k"] == 2  # flag wins over file
    assert manifest["config"]["m"] == 10
    assert manifest["config"]["lambda"] == 0.2
    assert manifest["config"]["smooth_sigma"] == 5.0


def test_run_unknown_config_key(video, tmp_path, capsys):
    cfg = tmp_path / "detector.cfg"
    cfg.write_text("window = 10\n")
    rc, _ = _run(video, tmp_path, "--config", str(cfg))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("videoanomaly run: error:")


@pytest.mark.parametrize("flags", [["--workers", "2"], ["--single-core"],
                                   ["--dump-profiles", "x"], ["--dump-bins", "x"]])
def test_run_removed_flags_exit_2(video, tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        _run(video, tmp_path, *flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_run_workers_config_key_exit_2(video, tmp_path, capsys):
    cfg = tmp_path / "detector.cfg"
    cfg.write_text("workers = 1\n")
    rc, out = _run(video, tmp_path, "--config", str(cfg))
    assert rc == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_inputs_exit_2(tmp_path, capsys):
    rc = main(["run", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "CapabilityError" in capsys.readouterr().err


def test_run_fusion_without_activations_names_the_flag(video, tmp_path, capsys):
    rc, _ = _run(video, tmp_path, "--channel", "fusion")
    assert rc == 2
    assert "--activations" in capsys.readouterr().err


def test_run_nonexistent_frames_exit_3(tmp_path, capsys):
    rc = main(["run", "--frames", str(tmp_path / "nope"), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "FormatError" in capsys.readouterr().err


def test_run_truncated_y8_exit_3(video, tmp_path, capsys):
    data = video["frames"].read_bytes()
    bad = tmp_path / "video.y8"
    bad.write_bytes(data[:-100])
    bad.with_name("video.y8.hdr").write_text(video["frames"].with_name("video.y8.hdr").read_text())
    rc = main(["run", "--frames", str(bad), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "TruncationError" in capsys.readouterr().err


def test_run_zero_width_pgm_exit_3(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(25):
        (frames / f"{i:03d}.pgm").write_bytes(b"P5\n0 4\n255\n")
    rc = main(["run", "--frames", str(frames), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "FormatError" in capsys.readouterr().err


# Input data errors (exit 3) take precedence over configuration errors and
# over a stream too short for one window (both exit 2): each loader
# validates its whole input before the run starts.


@pytest.mark.parametrize("damage", ["short-payload", "bad-magic"])
def test_run_corrupt_pgm_mid_sequence_beats_bad_stride(tmp_path, capsys, damage):
    frames = tmp_path / "frames"
    frames.mkdir()
    for i in range(25):
        write_pgm(frames / f"{i:03d}.pgm", np.zeros((6, 8), np.uint8))
    bad = frames / "012.pgm"
    data = bad.read_bytes()
    bad.write_bytes(data[:-1] if damage == "short-payload" else b"P7" + data[2:])
    rc = main(["run", "--frames", str(frames), "--stride", "0",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert ("TruncationError" if damage == "short-payload" else "FormatError") in err
    assert "012.pgm" in err


def test_run_truncated_y8_beats_malformed_parameter(video, tmp_path, capsys):
    clip = tmp_path / "video.y8"
    clip.write_bytes(video["frames"].read_bytes()[:-100])
    clip.with_name("video.y8.hdr").write_text(
        video["frames"].with_name("video.y8.hdr").read_text()
    )
    rc = main(["run", "--frames", str(clip), "--w", "abc", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "TruncationError" in capsys.readouterr().err


def test_run_truncated_short_y8_beats_stream_too_short(tmp_path, capsys):
    clip = tmp_path / "clip.y8"
    write_frames_y8(synth.noise_video(5, width=8, height=6), clip)
    clip.write_bytes(clip.read_bytes()[:-1])
    rc = main(["run", "--frames", str(clip), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "TruncationError" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_short_clip_exit_2(tmp_path, capsys, command):
    clip = tmp_path / "clip.y8"
    write_frames_y8(synth.noise_video(5, width=8, height=6), clip)
    rc = main([command, "--frames", str(clip), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "StreamTooShortError: stream has 5 frames, needs at least 20" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_nan_in_last_umk1_frame_exit_3(tmp_path, capsys):
    acts = synth.noise_activations(3, seed=2)  # also too short for a window
    acts[-1].values[4, 2, 7] = np.nan
    path = tmp_path / "acts.umk1"
    write_activations(acts, path)
    rc = main(["run", "--activations", str(path), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    per_frame = acts[0].values.size
    element = 2 * per_frame + np.ravel_multi_index((4, 2, 7), acts[0].values.shape)
    err = capsys.readouterr().err
    assert "DataError" in err
    assert f"non-finite value at element {element}" in err


@pytest.mark.parametrize("shape", [(0, 13, 13), (256, 0, 13), (256, 13, 0)])
def test_run_umk1_header_of_empty_frames_exit_3(tmp_path, capsys, time_limit, shape):
    """2**32 - 1 declared frames of no values pass the size check; the
    loader must reject them before it scans one payload frame each."""
    path = tmp_path / "acts.umk1"
    path.write_bytes(b"UMK1" + np.array([2**32 - 1, *shape], "<u4").tobytes())
    with time_limit(5):
        rc = main(["run", "--activations", str(path), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "FormatError" in err and "4294967295 frames of" in err


@pytest.mark.parametrize("extra", [[], ["--k", "0"]])
@pytest.mark.parametrize("shape", [(128, 13, 13), (256, 14, 14)])
def test_run_umk1_of_another_tensor_shape_exit_3(tmp_path, capsys, shape, extra):
    """The appearance channel bins 256x13x13 tensors only. Another shape
    is a data error of the input, reported before a bad parameter and
    before the first push."""
    path = tmp_path / "acts.umk1"
    values = np.random.default_rng(0).random((20, *shape), dtype=np.float32)
    write_activations([ActivationFrame(i, *shape, v) for i, v in enumerate(values)], path)
    rc = main(["run", "--activations", str(path), *extra, "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "DataError" in err and "{}x{}x{}".format(*shape) in err


@pytest.mark.parametrize("extra", [[], ["--k", "0"]])
def test_run_input_length_mismatch_beats_bad_parameter(tmp_path, capsys, extra):
    clip, acts = tmp_path / "clip.y8", tmp_path / "acts.umk1"
    write_frames_y8(synth.noise_video(40, seed=1), clip)
    write_activations(synth.noise_activations(30, seed=1), acts)
    rc = main(["run", "--frames", str(clip), "--activations", str(acts), *extra,
               "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "AlignmentError: 40 video frames but 30 activation frames" in capsys.readouterr().err


def test_run_input_shrunk_after_validation_exit_3(video, tmp_path, capsys, monkeypatch):
    clip = tmp_path / "video.y8"
    clip.write_bytes(video["frames"].read_bytes())
    clip.with_name("video.y8.hdr").write_text(
        video["frames"].with_name("video.y8.hdr").read_text()
    )
    validated = cli.load_frames

    def load_then_shrink(*args):
        frames = validated(*args)
        clip.write_bytes(clip.read_bytes()[:-100])
        return frames

    monkeypatch.setattr(cli, "load_frames", load_then_shrink)
    rc = main(["run", "--frames", str(clip), "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    assert "TruncationError" in capsys.readouterr().err


def _hashed_inputs(tmp_path):
    """(input flags, the sha256 of each input) of a raw-y8 clip with a UMK1
    file, and of a PGM directory that holds a file that is not a frame.
    A directory hashes every file in name order, name then bytes."""
    def sha(*chunks):
        return hashlib.sha256(b"".join(chunks)).hexdigest()

    clip, acts = tmp_path / "clip.y8", tmp_path / "clip.umk1"
    write_frames_y8(synth.noise_video(20, seed=3), clip)
    write_activations(synth.noise_activations(20, seed=3), acts)
    frames = tmp_path / "frames"
    frames.mkdir()
    for f in synth.noise_video(20, seed=4):
        write_pgm(frames / f"{f.index:03d}.pgm", np.rint(f.pixels * 255).astype(np.uint8))
    (frames / "notes.txt").write_text("not a frame\n")
    files = sorted(frames.iterdir())
    assert files[-1].name == "notes.txt"
    return [
        (["--frames", str(clip), "--activations", str(acts)],
         {"frames": sha(clip.read_bytes()), "activations": sha(acts.read_bytes())}),
        (["--frames", str(frames)],
         {"frames": sha(*(p.name.encode() + p.read_bytes() for p in files))}),
    ]


def test_run_manifest_sha256_of_every_input(tmp_path):
    for i, (flags, want) in enumerate(_hashed_inputs(tmp_path)):
        out = tmp_path / f"{i}.csv"
        assert main(["run", *flags, "--k", "1", "--out", str(out)]) == 0
        inputs = json.loads(Path(str(out) + ".manifest.json").read_text())["inputs"]
        assert {key: entry["sha256"] for key, entry in inputs.items()} == want


def test_bench_report_sha256_of_every_input(tmp_path, capsys):
    for i, (flags, want) in enumerate(_hashed_inputs(tmp_path)):
        out = tmp_path / f"{i}.json"
        assert main(["bench", *flags, "--k", "1", "--repeat", "1", "--out", str(out)]) == 0
        inputs = json.loads(out.read_text())["inputs"]
        assert {key: entry["sha256"] for key, entry in inputs.items()} == want


# The inputs are hashed on a second thread while the detector runs; every
# failure path stops and joins it (tests/conftest.py fails a test that
# leaves a thread running).


@pytest.mark.parametrize("command", ["run", "bench"])
def test_hash_error_exit_3_and_no_output(video, tmp_path, capsys, monkeypatch, command):
    def unreadable(h, fh, buf, stop):
        raise OSError(5, "Input/output error", fh.name)

    monkeypatch.setattr(cli, "_hash_file", unreadable)
    out = tmp_path / "out"
    rc = main([command, "--frames", str(video["frames"]), "--k", "1", "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"videoanomaly {command}: error: OSError: [Errno 5] Input/output error: "
        f"'{video['frames']}'\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", ["raw-y8", "umk1"])
def test_unopenable_input_beats_malformed_parameter(video, tmp_path, capsys, monkeypatch, kind):
    """Loading a raw-y8 clip reads only its header, and the UMK1 loader's
    own open succeeds here; the file the hash opens is opened before any
    parameter is parsed. (chmod cannot deny a read to root, so the
    package's open is replaced.)"""
    acts = tmp_path / "acts.umk1"
    write_activations(synth.noise_activations(20, seed=1), acts)
    denied = video["frames"] if kind == "raw-y8" else acts
    flag = "--frames" if kind == "raw-y8" else "--activations"

    def denying_open(file, *args, **kwargs):
        if Path(file) == denied:
            raise PermissionError(13, "Permission denied", str(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", denying_open, raising=False)
    rc = main(["run", flag, str(denied), "--w", "abc", "--out", str(tmp_path / "s.csv")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "PermissionError: [Errno 13] Permission denied" in err


@pytest.mark.parametrize("case", ["bad-parameter", "input-shrunk"])
def test_failed_run_stops_the_hash(video, tmp_path, capsys, monkeypatch, time_limit, case):
    """A hash that would run for 5 s ends as soon as the run fails."""
    stopped = []

    def slow(h, fh, buf, stop):
        stopped.append(stop.wait(5))

    monkeypatch.setattr(cli, "_hash_file", slow)
    clip = tmp_path / "video.y8"
    clip.write_bytes(video["frames"].read_bytes())
    clip.with_name("video.y8.hdr").write_text(
        video["frames"].with_name("video.y8.hdr").read_text()
    )
    flags = ["--k", "0"]
    if case == "input-shrunk":  # the detector fails at the last frames
        validated = cli.load_frames

        def load_then_shrink(*args):
            frames = validated(*args)
            clip.write_bytes(clip.read_bytes()[:-100])
            return frames

        monkeypatch.setattr(cli, "load_frames", load_then_shrink)
        flags = []
    with time_limit(2):
        rc = main(["run", "--frames", str(clip), *flags, "--out", str(tmp_path / "s.csv")])
    assert rc == (2 if case == "bad-parameter" else 3)
    assert stopped == [True]
    assert not (tmp_path / "s.csv").exists()


def test_run_invalid_parameter_exit_2(video, tmp_path, capsys):
    # a k this large is refused before any window asks for k-long arrays;
    # a subnormal lambda before its fits' step size overflows to NaN
    for flag, value in [("--stride", "11"), ("--k", "100000000000"), ("--lambda", "1e-310")]:
        rc, _ = _run(video, tmp_path, flag, value)
        assert rc == 2
        assert f"ValueError: {flag[2:]} " in capsys.readouterr().err


def test_run_zero_lambda_exit_2(video, tmp_path, capsys):
    rc, out = _run(video, tmp_path, "--lambda", "0")
    assert rc == 2
    assert "lambda must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,value", [("--smooth-sigma", "inf"), ("--smooth-sigma", "nan"), ("--lambda", "inf")]
)
def test_run_non_finite_parameter_exit_2(video, tmp_path, capsys, flag, value):
    rc, out = _run(video, tmp_path, flag, value)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ValueError: {flag[2:]} must be" in err and "finite" in err
    assert not out.exists()


# ---------------------------------------------------------------------- eval


def test_eval_frame_level(video, tmp_path):
    rc, scores = _run(video, tmp_path)
    assert rc == 0
    report = tmp_path / "report.json"
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["labels"]),
               "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["level"] == "frame"
    assert doc["auc"] > 0.8
    fprs = [p["fpr"] for p in doc["points"]]
    assert fprs == sorted(fprs)
    roc = report.with_name("report.json.roc.csv")
    assert roc.read_text().splitlines()[0] == "fpr,tpr"


def test_eval_alternate_column(video, tmp_path):
    _, scores = _run(video, tmp_path)
    report = tmp_path / "report.json"
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["labels"]),
               "--column", "score_motion", "--out", str(report)])
    assert rc == 0


def test_eval_empty_column_exit_2(video, tmp_path, capsys):
    _, scores = _run(video, tmp_path)
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["labels"]),
               "--column", "score_appearance", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "score_appearance" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["frame", "bogus"])
def test_eval_takes_only_score_columns(tmp_path, capsys, column):
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scores", str(tmp_path / "s.csv"), "--gt", str(tmp_path / "l.txt"),
              "--column", column, "--out", str(report)])
    assert exc.value.code == 2
    assert f"invalid choice: '{column}'" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("level", ["frame", "pixel"])
def test_eval_takes_only_map_channels(tmp_path, capsys, level):
    """A misspelt channel is refused before any input is read, at frame
    level too, where the maps are not used."""
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--scores", str(tmp_path / "s.csv"), "--gt", str(tmp_path / "masks"),
              "--level", level, "--maps", str(tmp_path / "m.npz"), "--map-channel", "bogus",
              "--out", str(report)])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not report.exists()


def test_eval_map_channel_missing_from_archive_exit_2(video, tmp_path, capsys):
    maps = tmp_path / "maps.npz"
    _, scores = _run(video, tmp_path, "--maps-out", str(maps))  # motion only
    report = tmp_path / "r.json"
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["masks"]), "--level", "pixel",
               "--maps", str(maps), "--map-channel", "appearance", "--out", str(report)])
    assert rc == 2
    assert "CapabilityError" in capsys.readouterr().err
    assert not report.exists()


def test_eval_label_count_mismatch_exit_3(video, tmp_path, capsys):
    _, scores = _run(video, tmp_path)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n")
    rc = main(["eval", "--scores", str(scores), "--gt", str(labels),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "AlignmentError" in capsys.readouterr().err


def _two_frame_scores(tmp_path, frames=("0", "1"), smoothed=("0.1", "0.2")):
    """A two-row motion-less score CSV plus labels 0, 1 for ``eval``."""
    scores = tmp_path / "scores.csv"
    rows = "".join(f"{f},,,0.5,{v}\n" for f, v in zip(frames, smoothed))
    scores.write_text(CSV_HEADER + "\n" + rows)
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n")
    return scores, labels


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_eval_non_finite_score_exit_3(tmp_path, capsys, bad):
    scores, labels = _two_frame_scores(tmp_path, smoothed=(bad, "0.2"))
    rc = main(["eval", "--scores", str(scores), "--gt", str(labels),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "DataError" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_non_integer_frame_exit_3(tmp_path, capsys):
    scores, labels = _two_frame_scores(tmp_path, frames=("0", "1.5"))
    rc = main(["eval", "--scores", str(scores), "--gt", str(labels),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "FormatError" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    pytest.param("", id="header_only"),
    pytest.param("0,0.1,,,0.1\n1,0.2,,,0.2\n", id="blank_fused"),
    pytest.param("0,0.1,,0.1,\n1,0.2,,0.2,\n", id="blank_smoothed"),
])
def test_eval_score_csv_run_never_writes_exit_3(tmp_path, capsys, rows):
    """run always writes rows and the fused and smoothed columns, so a CSV
    without them is bad data, not a channel to enable."""
    scores, labels = _two_frame_scores(tmp_path)
    scores.write_text(CSV_HEADER + "\n" + rows)
    rc = main(["eval", "--scores", str(scores), "--gt", str(labels),
               "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "FormatError" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _zip_bytes(members):
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buf.getvalue()


def _corrupt_deflate():
    """A savez_compressed archive whose member's first compressed byte is
    flipped, so inflating it raises zlib.error."""
    buf = io.BytesIO()
    np.savez_compressed(buf, fused=np.zeros((2, 12, 16)))
    data = bytearray(buf.getvalue())
    name_len, extra_len = struct.unpack_from("<HH", data, 26)  # local file header
    data[30 + name_len + extra_len] ^= 0xFF
    return bytes(data)


def _zip_flagged(field, value):
    """A one-member zip whose central directory entry has its 2-byte field
    at offset ``field`` set to ``value``."""
    data = bytearray(_zip_bytes({"fused.npy": _npy_bytes(np.zeros((2, 12, 16)))}))
    struct.pack_into("<H", data, data.index(b"PK\x01\x02") + field, value)
    return bytes(data)


BAD_MAPS = {
    "npy-payload": _npy_bytes(np.zeros((2, 12, 16))),
    "empty": b"",
    "zip-magic-junk": b"PK\x03\x04junk",
    "text": b"frame maps\n",
    "member-without-npy-header": _zip_bytes({"fused.npy": b"junk"}),
    "truncated-member": _zip_bytes({"fused.npy": _npy_bytes(np.zeros((2, 12, 16)))[:200]}),
    "corrupt-deflate": _corrupt_deflate(),
    "encrypted-member": _zip_flagged(8, 1),  # general purpose flags
    "unknown-compression": _zip_flagged(10, 99),  # compression method
    "unbalanced-npy-header": _zip_bytes(
        {"fused.npy": _npy_bytes(np.zeros((2, 12, 16))).replace(b"}", b" ", 1)}
    ),
    # maps that are not real numbers
    **{
        f"{name}-maps": _zip_bytes({"fused.npy": _npy_bytes(np.zeros((2, 12, 16), dtype))})
        for name, dtype in [
            ("complex", np.complex128),
            ("datetime64", "M8[s]"),
            ("structured", [("a", "f8"), ("b", "f8")]),
            ("string", "U3"),
        ]
    },
}


@pytest.mark.parametrize("kind", sorted(BAD_MAPS))
def test_eval_unreadable_maps_exit_3(tmp_path, capsys, kind):
    scores, _ = _two_frame_scores(tmp_path)
    masks = tmp_path / "masks"
    masks.mkdir()
    write_pgm(masks / "0.pgm", np.zeros((12, 16), np.uint8))
    write_pgm(masks / "1.pgm", np.full((12, 16), 255, np.uint8))
    maps = tmp_path / "maps.npz"
    maps.write_bytes(BAD_MAPS[kind])
    rc = main(["eval", "--scores", str(scores), "--gt", str(masks), "--level", "pixel",
               "--maps", str(maps), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("videoanomaly eval: error: ")


def test_eval_pixel_level(video, tmp_path):
    maps = tmp_path / "maps.npz"
    _, scores = _run(video, tmp_path, "--maps-out", str(maps))
    report = tmp_path / "pixel.json"
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["masks"]),
               "--level", "pixel", "--maps", str(maps), "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["level"] == "pixel"
    assert doc["auc"] > 0.5


def test_eval_pixel_without_maps_exit_2(video, tmp_path, capsys):
    _, scores = _run(video, tmp_path)
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["masks"]),
               "--level", "pixel", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "--maps" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_eval_pixel_non_finite_sigma_exit_2(video, tmp_path, capsys, value):
    maps = tmp_path / "maps.npz"
    _, scores = _run(video, tmp_path, "--maps-out", str(maps))
    capsys.readouterr()
    report = tmp_path / "pixel.json"
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["masks"]),
               "--level", "pixel", "--maps", str(maps), "--sigma-px", value,
               "--out", str(report)])
    assert rc == 2
    assert "ValueError: sigma must be >= 0 and finite" in capsys.readouterr().err
    assert not report.exists()


def test_run_and_eval_take_a_huge_sigma(video, tmp_path):
    """Both kernels cap their radius at the line they smooth, so a huge
    sigma is a valid, cheap value rather than a MemoryError."""
    maps = tmp_path / "maps.npz"
    rc, scores = _run(video, tmp_path, "--smooth-sigma", "1e9", "--maps-out", str(maps))
    assert rc == 0
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["masks"]),
               "--level", "pixel", "--maps", str(maps), "--sigma-px", "1e9",
               "--out", str(tmp_path / "pixel.json")])
    assert rc == 0


def test_run_and_eval_take_a_sigma_whose_square_underflows(video, tmp_path, capsys):
    """At sigma 1e-300, 2 sigma^2 is 0: smoothing is the identity, with
    finite scores and no warning, and pixel evaluation reports exactly
    what sigma 0 reports."""
    maps = tmp_path / "maps.npz"
    rc, scores = _run(video, tmp_path, "--smooth-sigma", "1e-300", "--maps-out", str(maps))
    assert rc == 0
    assert capsys.readouterr().err == ""
    columns = read_scores_csv(scores)
    assert columns["score_smoothed"].tobytes() == columns["score_fused"].tobytes()
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["labels"]),
               "--out", str(tmp_path / "frame.json")])
    assert rc == 0
    reports = {}
    for sigma in ("0", "1e-300"):
        report = tmp_path / f"pixel_{sigma}.json"
        rc = main(["eval", "--scores", str(scores), "--gt", str(video["masks"]),
                   "--level", "pixel", "--maps", str(maps), "--sigma-px", sigma,
                   "--out", str(report)])
        assert rc == 0
        reports[sigma] = report.read_bytes(), Path(str(report) + ".roc.csv").read_bytes()
    assert reports["1e-300"] == reports["0"]
    assert capsys.readouterr().err == ""


def test_eval_pixel_without_masks_exit_2(video, tmp_path, capsys):
    maps = tmp_path / "maps.npz"
    _, scores = _run(video, tmp_path, "--maps-out", str(maps))
    rc = main(["eval", "--scores", str(scores), "--gt", str(video["labels"]),
               "--level", "pixel", "--maps", str(maps), "--out", str(tmp_path / "r.json")])
    assert rc == 2


# ------------------------------------------------------------ flat memory


def _traced_peak(argv) -> int:
    """Peak traced allocation, in bytes, of one CLI call that must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_clip_length(tmp_path, capsys):
    """80x60 frames, so every frame is resized: a decoded clip would cost
    38 KB per frame, while a run keeps only per-window rows and the score
    series."""
    img = np.random.default_rng(0).integers(0, 256, (60, 80), dtype=np.uint8)
    peaks = {}
    for count in (4000, 1000):  # the longer clip first pays any one-time cost
        clip = tmp_path / f"static{count}.y8"
        clip.write_bytes(img.tobytes() * count)
        clip.with_name(clip.name + ".hdr").write_text(f"80 60 {count}\n")
        peaks[count] = _traced_peak(
            ["run", "--frames", str(clip), "--out", str(tmp_path / f"s{count}.csv")]
        )
    assert (peaks[4000] - peaks[1000]) / 3000 < 1024


def test_eval_pixel_mask_memory_does_not_grow_with_frame_count(tmp_path, capsys):
    """One 240x320 mask decodes to 77 KB; eval holds one at a time. What
    grows with the frame count is the score grids (1.5 KB a frame) and
    the score rows."""
    rng = np.random.default_rng(1)

    def inputs(count):
        root = tmp_path / str(count)
        masks = root / "masks"
        masks.mkdir(parents=True)
        for i in range(count):
            mask = np.zeros((240, 320), np.uint8)
            if i % 2:
                mask[40:120, 80:200] = 255
            write_pgm(masks / f"{i:04d}.pgm", mask)
        scores = root / "scores.csv"
        scores.write_text(CSV_HEADER + "\n" + "".join(f"{i},,,0.5,0.5\n" for i in range(count)))
        np.savez_compressed(root / "maps.npz", fused=rng.random((count, 12, 16)))
        return ["eval", "--scores", str(scores), "--gt", str(masks), "--level", "pixel",
                "--maps", str(root / "maps.npz"), "--out", str(root / "r.json")]

    assert main(inputs(2)) == 0  # warm the smoothing cache for this mask size
    peaks = {count: _traced_peak(inputs(count)) for count in (20, 80)}
    assert (peaks[80] - peaks[20]) / 60 < 4 * 1024


# --------------------------------------------------------------------- bench


def test_bench_reports_throughput(video, tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--frames", str(video["frames"]), "--repeat", "1",
               "--out", str(out)])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "\n" not in line  # a single machine-readable line
    doc = json.loads(line)
    assert doc["extraction_fps"] > 0
    assert doc["prediction_fps"] > 0
    assert doc["frames"] == 120
    assert json.loads(out.read_text()) == doc


def test_bench_missing_input_exit_2(capsys):
    rc = main(["bench"])
    assert rc == 2


def test_bench_activations_alone_scores_appearance(tmp_path, capsys):
    acts = tmp_path / "clip.umk1"
    write_activations(synth.noise_activations(20, seed=1), acts)
    rc = main(["bench", "--activations", str(acts), "--k", "1", "--repeat", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["channel"] == "appearance"
    assert list(doc["inputs"]) == ["activations"]


# ------------------------------------------------- detector parameters
#
# run and bench share one table of detector parameters: each is a flag
# and a --config key, parsed by one rule after the inputs are loaded.

# key -> malformed value and the parser's reason, which the error keeps
MALFORMED = [
    ("w", "abc", "invalid literal for int()"),
    ("stride", "2.5", "invalid literal for int()"),
    ("k", "ten", "invalid literal for int()"),
    ("m", "1e2", "invalid literal for int()"),
    ("lambda", "abc", "could not convert string to float"),
    ("smooth-sigma", "1,5", "could not convert string to float"),
    ("bins", "abc", "expected 'RxC'"),
    ("bins", "5x5", "do not partition"),
    ("channel", "bogus", "must be one of"),
]


@pytest.mark.parametrize("form", ["flag", "file"])
@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("key,value,reason", MALFORMED)
def test_malformed_parameter_is_one_line_naming_the_key(
    video, tmp_path, capsys, form, command, key, value, reason
):
    out = tmp_path / "out"
    argv = [command, "--frames", str(video["frames"]), "--out", str(out)]
    if form == "flag":
        argv += [f"--{key}", value]
    else:
        cfg = tmp_path / "detector.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"videoanomaly {command}: error: ValueError: ")
    assert re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", err)
    assert reason in err
    assert not out.exists()


# key -> (file value, flag value, the config's value for each)
PARAMETERS = {
    "w": ("5", "10", 5, 10),
    "stride": ("2", "3", 2, 3),
    "k": ("3", "2", 3, 2),
    "m": ("10", "20", 10, 20),
    "lambda": ("0.2", "0.3", 0.2, 0.3),
    "smooth-sigma": ("5", "2.5", 5.0, 2.5),
    "bins": ("1x1", "4x4", "1x1", "4x4"),
    "channel": ("motion", "appearance", "motion", "appearance"),
}


@pytest.fixture(scope="module")
def fusion_clip(tmp_path_factory):
    root = tmp_path_factory.mktemp("fusion")
    clip, acts = root / "clip.y8", root / "clip.umk1"
    write_frames_y8(synth.noise_video(20, seed=1), clip)
    write_activations(synth.noise_activations(20, seed=1), acts)
    return ["--frames", str(clip), "--activations", str(acts)]


@pytest.mark.parametrize("given", ["flag", "file", "both"])
@pytest.mark.parametrize("key", sorted(PARAMETERS))
def test_parameter_reaches_run_and_bench_config(fusion_clip, tmp_path, capsys, key, given):
    file_value, flag_value, from_file, from_flag = PARAMETERS[key]
    extra = []
    if given != "flag":
        cfg = tmp_path / "detector.cfg"
        cfg.write_text(f"{key} = {file_value}\n")
        extra += ["--config", str(cfg)]
    if given != "file":
        extra += [f"--{key}", flag_value]
    out = tmp_path / "scores.csv"
    assert main(["run", *fusion_clip, *extra, "--out", str(out)]) == 0
    run_config = json.loads(Path(str(out) + ".manifest.json").read_text())["config"]
    report = tmp_path / "bench.json"
    assert main(["bench", *fusion_clip, *extra, "--repeat", "1", "--out", str(report)]) == 0
    bench_config = json.loads(report.read_text())["config"]

    expected = dict(DetectorConfig(channel="fusion").to_dict())
    expected[key.replace("-", "_")] = from_file if given == "file" else from_flag
    assert run_config == bench_config == expected


# -------------------------------------------------------------------- parser


def test_version_and_usage():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --out is required
    assert exc.value.code == 2


def test_readme_names_every_flag():
    """README's command-line section names every long flag of run, eval
    and bench."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        opt
        for command in ("run", "eval", "bench")
        for action in sub.choices[command]._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert {"--frames-format", "--column", "--map-channel", "--roc-csv", "--trace"} <= flags
    readme = (REPO_ROOT / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Evaluation semantics")]
    missing = [f for f in sorted(flags) if not re.search(re.escape(f) + r"(?![\w-])", section)]
    assert missing == []


def _declared_scripts() -> dict[str, str]:
    """The `[project.scripts]` table of the repo's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def _is_installed() -> bool:
    try:
        distribution("videoanomaly")
    except PackageNotFoundError:
        return False
    return True


def test_console_script_is_installed(capsys):
    """pyproject declares a `videoanomaly` command that resolves to a working main."""
    scripts = _declared_scripts()
    assert "videoanomaly" in scripts
    entry = EntryPoint("videoanomaly", scripts["videoanomaly"], "console_scripts")
    target = entry.load()
    assert target is main

    with pytest.raises(SystemExit) as exc:
        target(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"videoanomaly {videoanomaly.__version__}\n"

    # What the generated console-script wrapper does: import the module, exit with main().
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", entry.module, "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"videoanomaly {videoanomaly.__version__}\n"


@pytest.mark.skipif(not _is_installed(), reason="videoanomaly distribution is not installed")
def test_installed_console_script_matches_pyproject():
    eps = distribution("videoanomaly").entry_points.select(group="console_scripts")
    installed = {ep.name: ep.value for ep in eps}
    assert installed.get("videoanomaly") == _declared_scripts()["videoanomaly"]
