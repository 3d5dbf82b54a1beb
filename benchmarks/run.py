"""Benchmark of the videoanomaly package: seeded workloads, end-to-end and
per-layer timing, and a correctness gate on every pass.

Run from the repository root:

    python3 benchmarks/run.py --workload dense_motion --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 25 --trace 1

One run sets up its inputs several times (the median is ``setup_s``), then
repeats passes over them until ``--seconds`` is used up. ``--trace 0``
reports the end-to-end metrics, with every time scaled to a nominal host
speed that a calibration kernel measures between the program's calls (see
calibrate.py). ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, on the wall clock, plus
the tracing overhead. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it record the machine, the score digest and the metrics that
only some workloads have. ``--workload all`` runs every workload in its own
process and prints a table.

BLAS is pinned to one thread before numpy is imported: on two cores the
default threading made the appearance figures spread far more for little
gain, and the fits this package makes are small.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("dense_motion", "appearance", "long_stream", "cli_clip")
SETUP_REPEATS = 7
SETUP_SAMPLES = 20  # host-speed samples around each set-up step
MAX_FAILURES = 5  # stop early: a broken build fails every pass
HEAD_TAIL_FRAMES = 2000  # window of pipeline.push_self_us_head / _tail

# per-layer self-time metric -> span name (see tracer.TARGETS)
SELF_METRICS = {
    "unmasking.train_s": "unmasking.train",
    "unmasking.eliminate_s": "unmasking.eliminate",
    "unmasking.unmask_self_s": "unmasking.unmask",
    "features.add_s": "features.add",
    "features.slot_s": "features.slot",
    "pipeline.window_batch_s": "pipeline.window_batch",
    "pipeline.push_self_s": "pipeline.push",
    "pipeline.finalize_self_s": "pipeline.finalize",
    "pipeline.smooth_s": "pipeline.smooth",
    "pipeline.aggregate_s": "pipeline.aggregate",
    "ingest.load_frames_s": "ingest.load_frames",
    "ingest.resize_s": "ingest.resize",
    "ingest.load_gt_s": "ingest.load_gt",
    "cli.run_self_s": "cli.run",
    "cli.write_scores_s": "cli.write_scores",
    "cli.eval_self_s": "cli.eval",
    "evaluation.write_maps_s": "evaluation.write_maps",
    "evaluation.cube_score_map_s": "evaluation.cube_score_map",
    "evaluation.frame_auc_s": "evaluation.frame_auc",
    "evaluation.pixel_auc_s": "evaluation.pixel_auc",
    "evaluation.smooth_map_s": "evaluation.smooth_map",
}


def import_package():
    """Import videoanomaly from this checkout's src/, never from elsewhere."""
    if not (SRC / "videoanomaly" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC / 'videoanomaly'}")
    sys.path.insert(0, str(SRC))
    import videoanomaly

    if Path(videoanomaly.__file__).resolve().parent != SRC / "videoanomaly":
        raise SystemExit(f"benchmark: imported videoanomaly from {videoanomaly.__file__}")


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import videoanomaly.cli; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": int(BLAS_THREADS),
    }
    record.update(_openblas_runtime(Path(numpy.__file__).parent))
    return record


def _openblas_runtime(numpy_dir: Path) -> dict:
    """Core type and thread count reported by the OpenBLAS numpy loaded."""
    import ctypes

    for lib in sorted(numpy_dir.parent.glob("numpy.libs/*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(handle, f"{prefix}get_corename{suffix}", None)
                if threads is not None and core is not None:
                    threads.restype = ctypes.c_int
                    core.restype = ctypes.c_char_p
                    return {"blas_threads": threads(), "blas_core": core().decode()}
    return {"blas_threads": None, "blas_core": None}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spans, wall_s: float, windows: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    from collections import Counter

    from tracer import ROOT as ROOT_SPAN

    own = spans.self_by_name()
    calls = Counter(spans.names)
    m = {metric: own.get(span, 0.0) for metric, span in SELF_METRICS.items()}
    train = calls["unmasking.train"]
    unmasks = calls["unmasking.unmask"]
    m["unmasking.train_calls"] = train
    m["unmasking.train_us_per_call"] = own.get("unmasking.train", 0.0) / train * 1e6 if train else 0.0
    m["unmasking.examples_mean"] = spans.counts["examples"] / unmasks if unmasks else 0.0
    m["unmasking.degenerate_batches"] = spans.counts["degenerate_batches"]
    cells = spans.counts["slot_cells"]
    m["features.slots_computed"] = len(spans.slot_starts)
    m["features.static_drop_frac"] = spans.counts["slot_cells_static"] / cells if cells else 0.0
    m["ingest.resize_calls"] = calls["ingest.resize"]
    m["pipeline.windows"] = windows
    selfs = spans.self_times()
    push = [s for name, s in zip(spans.names, selfs) if name == "pipeline.push"]
    m["pipeline.push_self_us_head"] = statistics.fmean(push[:HEAD_TAIL_FRAMES]) * 1e6
    m["pipeline.push_self_us_tail"] = statistics.fmean(push[-HEAD_TAIL_FRAMES:]) * 1e6
    m["other_s"] = own[ROOT_SPAN]
    m["trace.wall_s"] = wall_s
    return m


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            sizes: dict | None = None, spans_out: Path | None = None) -> dict:
    """One benchmark run of one workload; returns the result record.

    ``work`` is a scratch directory for files the workload writes.
    ``sizes`` shrinks the workload (for tests); only full-size runs of the
    reference seed are held to the committed score digest.
    """
    import numpy as np

    import calibrate
    import tracer as tr
    import workloads as wl

    workload = wl.Workload(name, sizes)
    reference = json.loads((HERE / "reference.json").read_text())
    expected = None
    if sizes is None and seed == reference["seed"]:
        expected = reference["digests"].get(name)

    speed = calibrate.Speed()
    imports, setups = [], []  # (start, seconds)
    for i in range(SETUP_REPEATS):
        # each set-up writes into a new directory: rewriting the files of
        # the last one waited on their write-back and doubled its time
        if i:
            shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)
        speed.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        imports.append((t0, import_seconds()))
        speed.sample(SETUP_SAMPLES)
        t0 = time.perf_counter()
        workload.setup(seed, work / f"setup{i}")
        setups.append((t0, time.perf_counter() - t0))
    speed.sample(SETUP_SAMPLES)

    passes, traced, failures, digests = [], [], [], []
    walls = {True: [], False: []}  # pass wall times, traced and untraced
    attempted = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        with_trace = trace and len(walls[False]) > len(walls[True])
        tracer = tr.Tracer() if with_trace else None
        # Host speed is sampled in untraced passes only, between the
        # program's calls; the CLI, not the benchmark, calls push(), so
        # there both the timing and the sampling sit at that boundary.
        sampler = None if with_trace else speed
        probe = None
        if name == "cli_clip" and not with_trace:
            probe = tr.Tracer(tr.PUSH_ONLY, before=speed.tick)
        spent = speed.spent
        t0 = time.perf_counter()
        try:
            with tracer or probe or contextlib.nullcontext():
                with tracer.root() if tracer else contextlib.nullcontext():
                    result = workload.run_pass(evaluate=trace or not passes, speed=sampler)
        except Exception:
            failures.append(traceback.format_exc())
            result = None
        wall = time.perf_counter() - t0 - (speed.spent - spent)
        walls[with_trace].append(wall)
        if result is not None:
            if probe is not None:
                result.closing = [
                    (probe.starts[i], probe.ends[i] - probe.starts[i]) for i in probe.emitting
                ]
            wl.check(result, name, expected)
            digests.append(result.digest)
            if result.digest != digests[0]:
                result.errors.append("score digest differs between passes of one seed")
            if result.errors:
                failures.append("; ".join(result.errors))
            elif with_trace:
                traced.append(layer_metrics(tracer, wall, result.windows))
                if spans_out is not None:
                    spans_out.parent.mkdir(exist_ok=True)
                    tracer.write(spans_out)
            else:
                passes.append(result)
        elapsed = time.perf_counter() - start
        enough = bool(passes) and (bool(traced) or not trace)
        next_pass = statistics.median(walls[True] + walls[False])
        if elapsed + next_pass > seconds and (enough or failures):
            break
        if len(failures) >= MAX_FAILURES:
            break

    record = {
        "workload": name,
        "seed": seed,
        "sizes": workload.sizes,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        "machine": machine(),
        "digest": digests[0] if digests else None,
        "reference_digest": expected,
        "passes": len(passes),
        "traced_passes": len(traced),
    }
    if passes:
        def nominal(calls):  # seconds of each call at nominal host speed
            return [speed.nominal(dt, t + dt / 2) for t, dt in calls]

        latencies = [x * 1e3 for p in passes for x in nominal(p.closing)]
        pass_fps = [p.frames / sum(nominal(p.calls)) for p in passes]
        record["end_to_end"] = {
            "fps": statistics.median(pass_fps),
            "latency_p50_ms": float(np.percentile(latencies, 50)),
            "latency_p90_ms": float(np.percentile(latencies, 90)),
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(nominal(imports)) + statistics.median(nominal(setups)),
        }
        raw = [x for p in passes for x in p.latencies_ms]
        record["raw_end_to_end"] = {  # the same, as measured on the wall clock
            "fps": statistics.median(p.frames / p.busy_s for p in passes),
            "latency_p50_ms": float(np.percentile(raw, 50)),
            "latency_p90_ms": float(np.percentile(raw, 90)),
            "setup_s": statistics.median(dt for _, dt in imports)
            + statistics.median(dt for _, dt in setups),
        }
        record["host_slowdown"] = speed.median_slowdown()
        record["speed_samples"] = len(speed.seconds)
        record["latency_samples"] = len(latencies)
        record["pass_fps"] = pass_fps
        record["quality"] = next(p.quality for p in passes if p.evaluated)
        evals = [p.frames / p.eval_s for p in passes if p.eval_s is not None]
        if evals:
            record["eval_fps"] = statistics.median(evals)
    if traced:
        layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        )
        record["per_layer"] = layers
        # self times of every span, the benchmark's own included, against
        # the wall clock read outside the tracer
        accounted = sum(layers[m] for m in SELF_METRICS) + layers["other_s"]
        record["trace_accounted_frac"] = accounted / layers["trace.wall_s"]
    return record


def declared_metrics() -> dict[str, list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


EXTRA_UNITS = {"eval_fps": "1/s", "frame_auc": "1", "pixel_auc": "1", "error_rate": "1"}


def summary_line(record: dict, trace: bool) -> dict:
    """The last line of a run: the object the contract of BENCHMARK.json asks for."""
    kind = "per_layer" if trace else "end_to_end"
    values = record.get(kind, {})
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics()[kind]
        if m["name"] in values
    }
    return {
        "correct": record["failed"] == 0 and bool(values),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: dict, trace: bool) -> None:
    for failure in record["failures"]:
        print(f"benchmark: {record['workload']}: failed pass: {failure}", file=sys.stderr)
    match = (
        "no reference for this seed" if record["reference_digest"] is None
        else "matches reference" if record["digest"] == record["reference_digest"]
        else "DIFFERS from reference"
    )
    print(
        f"{record['workload']} seed={record['seed']} passes={record['passes']} "
        f"traced={record['traced_passes']} attempted={record['attempted']} "
        f"failed={record['failed']} error_rate={record['error_rate']:g}"
    )
    print(f"  digest {record['digest']} ({match})")
    units = {m["name"]: m["unit"] for ms in declared_metrics().values() for m in ms}
    units.update(EXTRA_UNITS)
    shown = dict(record.get("per_layer" if trace else "end_to_end", {}))
    if not trace:
        shown.update({k: record[k] for k in ("eval_fps",) if k in record})
        shown.update(record.get("quality", {}))
        shown["error_rate"] = record["error_rate"]
    for name, value in shown.items():
        print(f"  {name:32s} {value:14.6g} {units.get(name, '')}")
    if not trace and "latency_samples" in record:
        print(f"  latency samples: {record['latency_samples']}")
        print(f"  host slowdown {record['host_slowdown']:.4f} x nominal "
              f"({record['speed_samples']} samples); on the wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_end_to_end"].items()))
    if trace and "trace_accounted_frac" in record:
        print(f"  self times + other_s = {record['trace_accounted_frac']:.4f} x traced wall")
    print("  machine " + json.dumps(record["machine"]))
    print("record " + json.dumps(record))


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if out.returncode:
            print(f"{name}: exit code {out.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the videoanomaly package")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_package()
    trace = bool(args.trace)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    spans_out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv"
    try:
        record = measure(args.workload, args.seed, args.seconds, trace,
                         work=work, spans_out=spans_out if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    print_record(record, trace)
    summary = summary_line(record, trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
