"""Seeded mutation test of every file the CLI reads.

Each case damages one input file with a byte flip, a truncation or an
edge-value token, runs the command that reads it in process through
``cli.main`` under a time limit, and requires the exit-code contract:
0, 2 or 3, and on failure exactly one ``videoanomaly <command>: error:``
line on stderr. The cases are drawn from a seeded generator; set
``VIDEOANOMALY_MUTATION_SEED`` to draw another set.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re

import numpy as np
import pytest

from videoanomaly import synth
from videoanomaly.cli import main

from conftest import write_activations, write_frames_y8, write_pgm

SEED = int(os.environ.get("VIDEOANOMALY_MUTATION_SEED", "0"))
CASES_PER_INPUT = 32
CASE_SECONDS = 5

BIG_INT = "12345678901234567890"
EDGE_TOKENS = ["0", "-1", "nan", "inf", "1e309", BIG_INT, "2x0"]
UMK1_FIELDS = [0, 1, 2**32 - 1]  # edge values of the u32 header fields

CONFIG = "w = 5\nstride = 5\nk = 2\nm = 10\nlambda = 0.1\nsmooth-sigma = 2\nbins = 2x2\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small valid inputs for run and eval: a 20-frame 40x30 clip as raw-y8
    and as PGMs, 10 activation tensors, a config, and the score CSV,
    labels, masks and maps of a run on the clip."""
    root = tmp_path_factory.mktemp("pristine")
    frames, labels, masks = synth.block_event_video(
        frame_count=20, period=5, block=10, active_range=(10, 20),
        start_x=5.0, y0=5.0, width=40, height=30,
    )
    write_frames_y8(frames, root / "clip.y8")
    (root / "frames").mkdir()
    (root / "masks").mkdir()
    for i, (frame, mask) in enumerate(zip(frames, masks)):
        write_pgm(root / "frames" / f"{i:03d}.pgm", np.rint(frame.pixels * 255).astype(np.uint8))
        write_pgm(root / "masks" / f"{i:03d}.pgm", mask.astype(np.uint8) * 255)
    write_activations(synth.noise_activations(10, seed=1), root / "acts.umk1")
    (root / "detector.cfg").write_text(CONFIG)
    (root / "labels.txt").write_text("".join(f"{v}\n" for v in labels))
    assert main(["run", "--frames", str(root / "clip.y8"), "--config", str(root / "detector.cfg"),
                 "--out", str(root / "scores.csv"), "--maps-out", str(root / "maps.npz")]) == 0
    return root


def _run(root, *args):
    return ["run", "--config", str(root / "detector.cfg"), *args,
            "--out", str(root / "out" / "s.csv")]


def _eval(root, *args, scores="scores.csv", gt="labels.txt"):
    return ["eval", "--scores", str(root / scores), "--gt", str(root / gt), *args,
            "--out", str(root / "out" / "r.json")]


# input -> (file to damage, argv that reads it, header bytes where half the
# flips land, whether tokens are replaced)
TARGETS = {
    "y8-body": ("clip.y8", lambda r: _run(r, "--frames", str(r / "clip.y8")), 0, False),
    "y8-header": ("clip.y8.hdr", lambda r: _run(r, "--frames", str(r / "clip.y8")), 0, True),
    "pgm-frame": ("frames/{i:03d}.pgm", lambda r: _run(r, "--frames", str(r / "frames")), 13, True),
    "umk1": ("acts.umk1", lambda r: _run(r, "--activations", str(r / "acts.umk1")), 20, True),
    "config": ("detector.cfg", lambda r: _run(r, "--frames", str(r / "clip.y8")), 0, True),
    "scores": ("scores.csv", lambda r: _eval(r), 0, True),
    "labels": ("labels.txt", lambda r: _eval(r), 0, True),
    "mask": ("masks/{i:03d}.pgm",
             lambda r: _eval(r, "--level", "pixel", "--maps", str(r / "maps.npz"), gt="masks"),
             13, True),
    "maps": ("maps.npz",
             lambda r: _eval(r, "--level", "pixel", "--maps", str(r / "maps.npz"), gt="masks"),
             0, False),
}


def _replace_token(rng, data: bytes, span: int) -> tuple[bytes, str]:
    tokens = list(re.finditer(rb"[^\s=,]+", data[:span]))
    if not tokens:
        return data, "no token"
    token = rng.choice(tokens)
    new = rng.choice(EDGE_TOKENS)
    return data[: token.start()] + new.encode() + data[token.end():], f"token {token[0]!r}->{new}"


def _mutate(rng, name: str, data: bytes) -> tuple[bytes, str]:
    _, _, head, tokens = TARGETS[name]
    kinds = ["flip", "truncate"] + (["token"] if tokens else [])
    kind = rng.choice(kinds)
    if kind == "truncate":
        cut = rng.randrange(len(data))
        return data[:cut], f"truncate to {cut}"
    if kind == "flip":
        pos = rng.randrange(head if head and rng.random() < 0.5 else len(data))
        flipped = bytearray(data)
        flipped[pos] ^= rng.randrange(1, 256)
        return bytes(flipped), f"flip byte {pos}"
    if name == "umk1":
        field, value = rng.randrange(4), rng.choice(UMK1_FIELDS)
        at = 4 + 4 * field
        return data[:at] + value.to_bytes(4, "little") + data[at + 4:], f"u32 {field}->{value}"
    span = data.index(b"255\n") + 4 if name in ("pgm-frame", "mask") else len(data)
    return _replace_token(rng, data, span)


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_damaged_input_keeps_exit_code_contract(inputs, name, time_limit):
    pattern, argv_of, _, _ = TARGETS[name]
    argv = argv_of(inputs)
    (inputs / "out").mkdir(exist_ok=True)
    rng = random.Random(f"{SEED}:{name}")
    for case in range(CASES_PER_INPUT):
        path = inputs / pattern.format(i=rng.randrange(20))
        original = path.read_bytes()
        damaged, what = _mutate(rng, name, original)
        path.write_bytes(damaged)
        out, err = io.StringIO(), io.StringIO()
        label = f"seed {SEED}, {name} case {case}: {path.name} {what}"
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with time_limit(CASE_SECONDS):
                    rc = main(argv)
        except BaseException as exc:  # noqa: BLE001 -- report which case escaped
            pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
        finally:
            path.write_bytes(original)
        message = err.getvalue()
        assert rc in (0, 2, 3), f"{label}: exit {rc}"
        if rc:
            assert message.count("\n") == 1, f"{label}: {message!r}"
            assert message.startswith(f"videoanomaly {argv[0]}: error: "), f"{label}: {message!r}"
        else:
            assert message == "", f"{label}: {message!r}"
