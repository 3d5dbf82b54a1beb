"""Every demo script, and README's Python API section, runs to completion
against the package in src/; that section lists the package root's
exports."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import videoanomaly

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
