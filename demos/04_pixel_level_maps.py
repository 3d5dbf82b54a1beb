"""Localizing an anomaly in space, not just in time.

Per window, each spatial bin gets its own separability score; on the
16x12 patch grid those scores land only on cells that contributed a
moving cube. The resulting per-frame maps feed the pixel-level
criterion: a frame counts as detected only if the marked pixels cover
more than 40% of the ground-truth region.
"""

import numpy as np

from videoanomaly import GroundTruth, cube_score_map, frame_auc, pixel_auc, run_detector
from videoanomaly import synth

frames, labels, masks = synth.block_event_video()
result = run_detector(frames=frames)
maps = cube_score_map(result, channel="fused")  # (T, 12, 16)

print(f"frame-level AUC: {frame_auc(result.series.smoothed, labels).auc:.4f}")
report = pixel_auc(maps, GroundTruth(labels, masks))
print(f"pixel-level AUC: {report.auc:.4f} (40% coverage rule)")
print()

frame = 150  # mid-event
grid = maps[frame]
mask_cells = masks[frame].reshape(12, 10, 16, 10).any(axis=(1, 3))
print(f"score grid at frame {frame} (#: hot cell, boxed: ground-truth region):")
lo, hi = grid.min(), grid.max()
for r in range(12):
    row = ""
    for c in range(16):
        level = (grid[r, c] - lo) / (hi - lo + 1e-12)
        ch = " .:*#"[int(level * 4.999)]
        row += f"[{ch}]" if mask_cells[r, c] else f" {ch} "
    print(row)
