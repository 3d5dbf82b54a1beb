"""What the package imports.

Every name a package module imports is read somewhere in that module. No
linter ships with the package, so this guard catches the imports a
deletion leaves behind. Names listed in ``__all__`` count as read, since
the module exports them; ``from __future__`` imports are exempt.

The package needs numpy alone: no module under src/ imports scipy,
pyproject.toml declares numpy as the only runtime dependency, and
scoring and evaluation at both levels load no scipy module.
"""

from __future__ import annotations

import ast
import json
import os
import re
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
from videoanomaly import cli, synth
from videoanomaly.ingest import write_frames_y8, write_pgm

root = Path(sys.argv[1])
frames, labels, masks = synth.block_event_video(frame_count=120, active_range=(60, 90))
write_frames_y8(frames, root / "clip.y8")
(root / "labels.txt").write_text("".join(f"{v}\\n" for v in labels))
(root / "masks").mkdir()
for i, mask in enumerate(masks):
    write_pgm(root / "masks" / f"{i:03d}.pgm", mask.astype("uint8") * 255)
rc = [
    cli.main(["run", "--frames", str(root / "clip.y8"), "--out", str(root / "s.csv"),
              "--maps-out", str(root / "maps.npz"), "--trace", str(root / "t.jsonl")]),
    cli.main(["eval", "--scores", str(root / "s.csv"), "--gt", str(root / "labels.txt"),
              "--level", "frame", "--out", str(root / "frame.json")]),
    cli.main(["eval", "--scores", str(root / "s.csv"), "--gt", str(root / "masks"),
              "--level", "pixel", "--maps", str(root / "maps.npz"), "--out", str(root / "pixel.json")]),
]
print(json.dumps({"rc": rc,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_scoring_and_evaluation_load_no_scipy(tmp_path):
    # importing scipy.special costs about 25 MB of resident memory and
    # scipy.ndimage about 16 MB; the package computes both in numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCORE_WITHOUT_SCIPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["rc"] == [0, 0, 0]
    assert doc["scipy"] == []
    # some loop scored above chance, so a fit (and its sigmoid) ran
    lines = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert any(acc > 0.5 for line in lines for fit in line["motion"]["trained"].values()
               for acc in fit["accuracies"])
    # the maps are not all zero, so pixel eval ranked smoothed values
    assert json.loads((tmp_path / "pixel.json").read_text())["auc"] > 0.5


def _imported_roots(source: str) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_package_module_does_not_import_scipy(path):
    assert "scipy" not in _imported_roots(path.read_text())


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent.parent / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(requirements):
        return [re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0] for req in requirements]

    assert names(project["dependencies"]) == ["numpy"]
    # the tests keep scipy's convolve1d and expit as oracles
    assert "scipy" in names(project["optional-dependencies"]["dev"])
