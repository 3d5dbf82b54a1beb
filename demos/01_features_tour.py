"""Tour of the two feature extractors.

Motion: each 5-frame stack of the 160x120 working image is cut into a
16x12 grid of 10x10 patches; a patch's spatio-temporal cube is described
by its per-voxel 3D gradient magnitudes (500 values, L2-normalized).
Cells whose temporal gradient never leaves zero are static: the gate
reads only that gradient, and a static cell gets no descriptor row.

Appearance: a 256x13x13 activation tensor is read through four
overlapping 7x7 windows (they share the center row and column), each
flattened channel-first to a 12544-vector and L2-normalized.
"""

import numpy as np

from videoanomaly import BinLayout, bin_activations, cube_grid, gradient_feature
from videoanomaly.ingest import ActivationFrame

rng = np.random.default_rng(0)

print("== motion cubes ==")
stack = rng.random((5, 120, 160))  # five 160x120 frames
rows, keep = cube_grid(stack)  # one descriptor row per moving cell
print(f"dense noise: {int(keep.sum())} cubes (16x12 grid, all cells moving)")
bins = BinLayout().patch_bin_grid()  # (12, 16) bin id per cell
per_bin = np.bincount(bins[keep], minlength=4)
print(f"per 2x2 bin: {per_bin.tolist()} (each bin spans 8x6 cells)")
norms = np.linalg.norm(rows, axis=1)
print(f"descriptor norms: min {norms.min():.12f}, max {norms.max():.12f}")

# freeze one cell over time; spatial texture alone is not motion
stack[1:, 30:40, 50:60] = stack[0, 30:40, 50:60]
_, keep = cube_grid(stack)
print(f"after freezing cell (5, 3): {int(keep.sum())} cubes, cell present: {bool(keep[3, 5])}")

# the descriptor of an affine ramp is constant: gradient (a, b, c) everywhere
y, x, t = np.meshgrid(np.arange(10.0), np.arange(10.0), np.arange(5.0), indexing="ij")
feat = gradient_feature(2.0 * y + 1.0 * x + 0.5 * t)
print(f"affine ramp descriptor: unique value {feat[0]:.6f} "
      f"(expected sqrt(4 + 1 + 0.25) = {np.sqrt(5.25):.6f})")

print()
print("== appearance windows ==")
values = np.zeros((256, 13, 13), dtype=np.float32)
values[0, 6, 6] = 1.0  # the shared center position
feats = bin_activations(ActivationFrame(0, 256, 13, 13, values))  # (4, 12544)
for b, row in enumerate(feats):
    pos = int(np.flatnonzero(row)[0])
    print(f"bin {b}: center activation lands at flat position {pos:>2} "
          f"(= ch*49 + r*7 + c)")

values = rng.random((256, 13, 13)).astype(np.float32)
feats = bin_activations(ActivationFrame(1, 256, 13, 13, values))
print("random tensor norms:", [f"{np.linalg.norm(row):.9f}" for row in feats])
