"""Measuring one workload: set-up, passes, checks and the printed result."""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

import numpy
import scipy

import hostspeed
import spans
from workloads import WORKLOADS, SceneClock, mismatches, run_pass, setup, warm_up

SETUP_REPS = 7
MIN_PASSES = 3  # an untraced run repeats every scene at least this often
# time to import the package in a fresh interpreter; argv[1] is the src dir
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(1, sys.argv[1]); t = time.perf_counter(); "
    "import seedloop; print(time.perf_counter() - t)"
)


def _machine(nproc, blas):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
    }


def _setup_s(wl, order, work_dir, src_dir):
    """Median import time over fresh interpreters plus median time to
    generate (and write) the scene set; returns (seconds, last Scenes).
    These are wall times: a host speed probe run around each import did not
    track the time to start an interpreter and import numpy and scipy."""
    imports, builds = [], []
    for _ in range(SETUP_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src_dir],
            capture_output=True, text=True, check=True,
        )
        imports.append(float(probe.stdout))
        t0 = perf_counter()
        sc = setup(wl, order, work_dir)
        builds.append(perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), sc


def _measure(wl, order, sc, work_dir, seconds, min_passes, clock, tracer=None):
    """Whole passes until `seconds` have gone by and `min_passes` are done."""
    passes = []
    t0 = perf_counter()
    while perf_counter() - t0 < seconds or len(passes) < min_passes:
        if tracer is not None:
            tracer.phase = len(passes)
        n0 = len(clock.calls)
        res = run_pass(wl, order, sc, work_dir)
        res.calls = clock.calls[n0:]
        passes.append(res)
    return passes


def _tally(passes, golden, problems):
    """(attempted, failed) scenes; a scene fails when it raised or its output
    digest differs from golden."""
    attempted = failed = 0
    for res in passes:
        bad = mismatches(res, golden)
        attempted += len(res.preds)
        failed += len(bad)
        if bad:
            problems.append(f"output differs from golden.json on scenes {sorted(bad)}")
    return attempted, failed


def _scene_s(passes, sampler):
    """Each scene's median run_closed_loop time over its repeats in the run,
    at the reference host speed. A scaled call still strays by a few percent,
    so a percentile over the scene set is taken over these medians, not over
    the pooled calls."""
    times = defaultdict(list)  # place in the submission order -> scaled times
    for r in passes:
        for k, (t0, t1) in enumerate(r.calls):
            times[k].append(sampler.at_ref(t0, t1))
    return [statistics.median(v) for v in times.values()]


def _scenes_per_s(passes, sampler):
    """Median over passes of scenes per second at the reference host speed."""
    return statistics.median(
        len(r.preds) / sampler.at_ref(r.t0, r.t0 + r.wall_s) for r in passes
    )


def _traced(wl, order, sc, work_dir, seconds, clock, sampler, problems):
    """Untraced passes, then traced ones after a traced set-up of their own;
    returns (all passes, per-layer metrics)."""
    untraced = _measure(wl, order, sc, work_dir, seconds / 2, 1, clock)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sc = setup(wl, order, work_dir)
        traced = _measure(wl, order, sc, work_dir, seconds / 2, 2, clock, tracer)
    finally:
        tracer.restore()
    untraced_scene_s = statistics.fmean(t1 - t0 for r in untraced for t0, t1 in r.calls)
    traced_scene_s = statistics.fmean(t1 - t0 for r in traced for t0, t1 in r.calls)

    if any(t.preds != untraced[0].preds or t.traces != untraced[0].traces for t in traced):
        problems.append("traced outputs differ from the untraced ones")
    counts = spans.pass_counts(tracer.spans)
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between traced passes: {counts}")
    values, layer_sum = spans.per_layer_metrics(
        tracer.spans, wl.count, sum(len(r.preds) for r in traced)
    )
    if wl.regime == "topk_degenerate" and values["relgraph.topk_degenerate_frac"] != 1:
        problems.append("expected topk >= N on every scene")
    merged = spans.regions_merged(tracer.spans)
    if wl.regime == "n_above_topk" and min(merged) <= wl.cfg.topk:
        problems.append(f"expected more than topk={wl.cfg.topk} regions, got {merged}")
    # self times partition each scene span, so they sum to the traced scene
    # time; that differs from the untraced one by the tracing overhead
    if abs(layer_sum - untraced_scene_s) > (
        abs(traced_scene_s - untraced_scene_s) + 0.01 * untraced_scene_s
    ):
        problems.append(
            f"layer self times sum to {layer_sum:.6f} s per scene, scene time "
            f"is {untraced_scene_s:.6f} s untraced, {traced_scene_s:.6f} s traced"
        )
    values["trace.scenes_per_s"] = _scenes_per_s(traced, sampler)
    values["trace.untraced_scenes_per_s"] = _scenes_per_s(untraced, sampler)
    values["trace.overhead_frac"] = (
        values["trace.untraced_scenes_per_s"] / values["trace.scenes_per_s"] - 1
    )
    values["trace.layer_sum_s"] = layer_sum
    metrics = {name: (values[name], unit) for name, unit in spans.PER_LAYER}
    return untraced + traced, metrics


def run_workload(name, seed, seconds, trace, root, nproc, blas):
    """Measure one workload and print its metrics; the last line is the
    JSON result."""
    wl = WORKLOADS[name]
    with open(os.path.join(os.path.dirname(__file__), "golden.json"), encoding="utf-8") as f:
        golden = json.load(f)[wl.name]
    order = list(range(wl.count))
    random.Random(seed).shuffle(order)
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    problems = []
    try:
        setup_s, sc = _setup_s(wl, order, work_dir, os.path.join(root, "src"))
        warm_up(wl)
        clock = SceneClock()
        sampler = hostspeed.Sampler()
        sampler.start()
        try:
            if trace:
                passes, metrics = _traced(
                    wl, order, sc, work_dir, seconds, clock, sampler, problems
                )
            else:
                passes = _measure(wl, order, sc, work_dir, seconds, MIN_PASSES, clock)
        finally:
            sampler.stop()
            clock.restore()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = _tally(passes, golden, problems)
    if not trace:
        scene_s = _scene_s(passes, sampler)
        metrics = {
            "scenes_per_s": (_scenes_per_s(passes, sampler), "1/s"),
            "scene_s.p50": (statistics.median(scene_s), "s"),
            "scene_s.p90": (statistics.quantiles(scene_s, n=10, method="inclusive")[8], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "miou": (passes[0].miou, "fraction"),
            "ok_frac": (1 - failed / attempted, "fraction"),
        }
    print(f"workload {wl.name}: seed {seed}, {len(passes)} passes, {attempted} scenes "
          f"({len(clock.calls)} scene times; scene_s percentiles are over the medians "
          f"of the {wl.count} scenes, one repeat a pass)")
    print(f"  host probe: {len(sampler.lengths)} samples, median "
          f"{statistics.median(sampler.lengths) * 1e3:.4f} ms, reference "
          f"{hostspeed.REF_PROBE_S * 1e3:g} ms; unscaled wall scene_s.p50 "
          f"{statistics.median(t1 - t0 for t0, t1 in clock.calls):.6g} s")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:34s} {value:.6g} {unit}")
    print("machine " + json.dumps(_machine(nproc, blas)))
    for p in problems:
        print("check failed: " + p, file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
