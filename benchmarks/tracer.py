"""In-memory span tracer that times the package from outside.

A target is a module attribute, a function or a class method, replaced for
the duration of a ``with Tracer(...)`` block by a wrapper that records one
span (name, start, end, parent) per call. Targets are patched where their
caller looks them up: ``videoanomaly.pipeline.unmask`` rather than
``videoanomaly.unmasking.unmask``, because the pipeline calls the name bound
in its own module. Leaving the block restores every original attribute.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded, so children never overlap and the
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name). The attribute path is resolved
# against the module; "Class.method" patches the class attribute.
TARGETS = (
    ("videoanomaly.pipeline", "StreamingDetector.push", "pipeline.push"),
    ("videoanomaly.pipeline", "StreamingDetector.finalize", "pipeline.finalize"),
    ("videoanomaly.pipeline", "FeatureStore.add", "features.add"),
    ("videoanomaly.pipeline", "FeatureStore.slot", "features.slot"),
    ("videoanomaly.pipeline", "window_batch", "pipeline.window_batch"),
    ("videoanomaly.pipeline", "unmask", "unmasking.unmask"),
    ("videoanomaly.pipeline", "smooth", "pipeline.smooth"),
    ("videoanomaly.pipeline", "aggregate", "pipeline.aggregate"),
    ("videoanomaly.pipeline", "resize_bilinear", "ingest.resize"),
    ("videoanomaly.unmasking", "train_logistic", "unmasking.train"),
    ("videoanomaly.unmasking", "eliminate_features", "unmasking.eliminate"),
    ("videoanomaly.cli", "cmd_run", "cli.run"),
    ("videoanomaly.cli", "load_frames", "ingest.load_frames"),
    ("videoanomaly.cli", "write_scores_csv", "cli.write_scores"),
    ("videoanomaly.cli", "write_maps_npz", "evaluation.write_maps"),
    ("videoanomaly.evaluation", "cube_score_map", "evaluation.cube_score_map"),
    ("videoanomaly.cli", "cmd_eval", "cli.eval"),
    ("videoanomaly.cli", "load_ground_truth", "ingest.load_gt"),
    ("videoanomaly.cli", "frame_auc", "evaluation.frame_auc"),
    ("videoanomaly.cli", "pixel_auc", "evaluation.pixel_auc"),
    ("videoanomaly.evaluation", "smooth_map", "evaluation.smooth_map"),
)

# Only the push boundary: enough to time window-completing pushes when the
# CLI, not the benchmark, is the caller.
PUSH_ONLY = TARGETS[:1]

ROOT = "bench.pass"


def resolve(module: str, path: str):
    """(owner object, attribute name) of a target."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _observe_push(tracer, span, args, result):
    if result:
        tracer.emitting.append(span)


def _observe_slot(tracer, span, args, result):
    # a store computes each slot once and evicts it only after every
    # window that can read it has closed, so a new start is a cache miss
    start = args[1]
    if start not in tracer.slot_starts:
        tracer.slot_starts.add(start)
        keep = result[1]
        tracer.counts["slot_cells"] += keep.size
        tracer.counts["slot_cells_static"] += keep.size - int(keep.sum())


def _observe_unmask(tracer, span, args, result):
    n0, n1 = args[0].class_counts()
    tracer.counts["examples"] += n0 + n1
    if n0 < 2 or n1 < 2:
        tracer.counts["degenerate_batches"] += 1


OBSERVERS = {
    "pipeline.push": _observe_push,
    "features.slot": _observe_slot,
    "unmasking.unmask": _observe_unmask,
}


class Tracer:
    """Records spans of the wrapped targets while its ``with`` block runs."""

    def __init__(self, targets=TARGETS, before=None):
        self.targets = targets
        self.before = before  # called before each wrapped call, outside its span
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.emitting: list[int] = []  # push spans that returned emissions
        self.slot_starts: set[int] = set()
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module, path, name in self.targets:
                owner, attr = resolve(module, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        span = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.ends[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        before = self.before
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before()
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                observe(tracer, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self):
        """The benchmark's own span around one pass; its self time is
        everything no wrapped target accounts for."""
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        total = self.durations()
        own = list(total)
        for child, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= total[child]
        return own

    def self_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, own in zip(self.names, self.self_times()):
            totals[name] += own
        return dict(totals)

    def write(self, path) -> None:
        """Write every span as CSV: index, parent, name, start_s, end_s."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{i},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")
