"""What the package imports.

Every name a package module imports is read somewhere in that module. No
linter ships with the package, so this guard catches the imports a
deletion leaves behind. Names listed in ``__all__`` count as read, since
the module exports them; ``from __future__`` imports are exempt.

Scoring and frame-level evaluation load no scipy module.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "videoanomaly"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds "a"
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_guard_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import ceil, floor\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return np.zeros(ceil(1.5))\n"
    )
    assert _unused_imports(source) == ["dumps", "floor", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


_SCORE_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path

import videoanomaly
from videoanomaly import cli, synth, write_frames_y8

root = Path(sys.argv[1])
frames, labels, _ = synth.block_event_video(frame_count=120, active_range=(60, 90))
write_frames_y8(frames, root / "clip.y8")
(root / "labels.txt").write_text("".join(f"{v}\\n" for v in labels))
rc_run = cli.main(["run", "--frames", str(root / "clip.y8"), "--out", str(root / "s.csv"),
                   "--dump-profiles", str(root / "p.csv")])
rc_eval = cli.main(["eval", "--scores", str(root / "s.csv"), "--gt", str(root / "labels.txt"),
                    "--level", "frame", "--out", str(root / "r.json")])
print(json.dumps({"rc": [rc_run, rc_eval],
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_scoring_and_frame_eval_load_no_scipy(tmp_path):
    # importing scipy.special alone costs about 25 MB of resident memory and
    # more time than the package's own import; only pixel-level eval may
    # load scipy (scipy.ndimage)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCORE_WITHOUT_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["rc"] == [0, 0]
    assert doc["scipy"] == []
    # some loop scored above chance, so a fit (and its sigmoid) ran
    rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
    assert any(float(row.split(",")[-1]) > 0.5 for row in rows)
