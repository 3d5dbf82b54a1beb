"""Streaming operation: frames in, finalized scores out, no lookback.

A frame's score is final once every window whose second half contains it
has closed. With w=10, stride=5 that is a 5..19 frame delay. The
emitted fused and per-channel scores and the series finalize() returns
are bit-identical to scoring the whole clip at once. The emitted smoothed
value uses the truncated kernel over the finalized prefix, so it firms up
to the batch value as later frames arrive.
"""

import numpy as np

from videoanomaly import StreamingDetector, run_detector
from videoanomaly import synth

frames, labels, _ = synth.block_event_video(frame_count=240, active_range=(120, 180))

det = StreamingDetector()
emissions = []
first_emissions = []
for f in frames:
    out = det.push(f)
    if out:
        first_emissions.append((f.index, out[0].frame, out[-1].frame))
    emissions.extend(out)
tail, result = det.finalize()
emissions.extend(tail)

print("stream position -> finalized frames (first few batches):")
for at, lo, hi in first_emissions[:4]:
    print(f"  pushed frame {at:>3} -> emitted {lo}..{hi}")
print(f"finalize() emitted the tail {tail[0].frame}..{tail[-1].frame}")
print()

batch = run_detector(frames=frames)
same_fused = np.array_equal([e.fused for e in emissions], batch.series.fused)
same_final = np.array_equal(result.series.smoothed, batch.series.smoothed)
print(f"emitted fused scores == batch fused scores: {same_fused}")
print(f"finalized smoothed series == batch smoothed series: {same_final}")
print(f"worst emission lag observed: {max(at - lo for at, lo, _ in first_emissions)} frames")
