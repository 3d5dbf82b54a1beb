"""Every demo script, README's Python API section and every command of its
"Command line" section run to completion against the package in src/;
the API section lists the package root's exports."""

from __future__ import annotations

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import videoanomaly
from videoanomaly import synth
from videoanomaly.cli import main
from videoanomaly.ingest import write_activations, write_frames_y8, write_pgm

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run_python([str(demo)], REPO_ROOT)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "05_streaming_vs_batch":
        equalities = [line for line in proc.stdout.splitlines() if " == " in line]
        assert len(equalities) == 2, proc.stdout
        assert all(line.endswith(": True") for line in equalities), proc.stdout


def _python_api():
    """README's "Python API" section: its python blocks, in order, and
    the backquoted names of its bullet list."""
    text = (REPO_ROOT / "README.md").read_text()
    start = text.index("\n## Python API\n")
    section = text[start : text.index("\n## ", start + 1)]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.M)
    return blocks, {name for item in bullets for name in re.findall(r"`(\w+)`", item)}


def test_readme_python_api_blocks_run(tmp_path):
    blocks, _ = _python_api()
    assert len(blocks) == 3
    proc = _run_python(["-c", "\n".join(blocks)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_python_api_lists_the_root_exports():
    blocks, listed = _python_api()
    assert listed == set(videoanomaly.__all__)
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "videoanomaly"
        for alias in node.names
    }
    # synth is a module, imported as one
    assert imported - listed == {"synth"}


def _readme_commands():
    """The commands of README's "Command line" sh block, continuation
    lines joined, each as its argument list without the program name."""
    text = (REPO_ROOT / "README.md").read_text()
    start = text.index("\n## Command line\n")
    block = re.search(r"^```sh\n(.*?)^```", text[start:], re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line and not line.startswith("#")]
    assert all(command[0] == "videoanomaly" for command in commands)
    return [command[1:] for command in commands]


def _outputs(args):
    """The files a run or eval command names as its outputs."""
    named = [args[i + 1] for i, arg in enumerate(args) if arg in ("--out", "--maps-out")]
    if args[0] == "run":
        named.append(args[args.index("--out") + 1] + ".manifest.json")
    if args[0] == "eval":
        named.append(args[args.index("--out") + 1] + ".roc.csv")
    return named


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Each README command exits 0 on a 30-frame event clip, given as a
    PGM directory and as raw-y8 with UMK1 activations of the same length,
    with its labels and masks, and writes the files it names."""
    frames, labels, masks = synth.block_event_video(frame_count=30, active_range=(10, 20))
    (tmp_path / "clip_dir").mkdir()
    (tmp_path / "masks_dir").mkdir()
    for f, mask in zip(frames, masks):
        write_pgm(tmp_path / "clip_dir" / f"{f.index:03d}.pgm",
                  np.rint(f.pixels * 255).astype(np.uint8))
        write_pgm(tmp_path / "masks_dir" / f"{f.index:03d}.pgm", mask.astype(np.uint8) * 255)
    write_frames_y8(frames, tmp_path / "clip.y8")
    write_activations(synth.noise_activations(len(frames), seed=1), tmp_path / "clip.umk1")
    (tmp_path / "labels.txt").write_text("".join(f"{v}\n" for v in labels))
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [args[0] for args in commands] == ["run", "run", "eval", "eval", "bench"]
    for args in commands:
        for name in _outputs(args):
            (tmp_path / name).unlink(missing_ok=True)
        assert main(args) == 0, (args, capsys.readouterr().err)
        assert all((tmp_path / name).is_file() for name in _outputs(args)), args
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["command"] == "bench"
