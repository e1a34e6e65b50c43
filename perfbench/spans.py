"""Per-layer tracing from outside the program.

The public functions that `seedloop.pipeline`, `seedloop.segmenter` and
`seedloop.tensorio` look up by name at call time are replaced by wrappers that
record one span per call (layer, parent span, phase, start, end, and a few
counts taken from the arguments and the result). Spans stay in memory and are
folded into per-scene layer metrics once the run is over. Nothing under
`src/` is changed; `restore()` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from seedloop import pipeline, segmenter, tensorio

_MODULES = (pipeline, segmenter, tensorio)


def _n_labeled(state) -> int:
    return int((state.probs.sum(axis=0) > 0).sum())


def _nnz(matrix) -> int:
    nnz = getattr(matrix, "nnz", None)  # scipy.sparse keeps its own count
    return int(nnz) if nnz is not None else int(np.count_nonzero(matrix))


def _felzenszwalb(args, out):
    return {"pixels": out.width * out.height, "regions_raw": out.n_regions}


def _rag_merge(args, out):
    return {
        "regions_merged": out.n_regions,
        "merges": args["spmap"].n_regions - out.n_regions,
    }


def _build_relationship(args, out):
    n = args["spmap"].n_regions
    return {
        "rel_nnz": _nnz(out.m_rel),
        "dense_bytes": 3 * n * n,  # m_siml, m_adj and m_rel as dense uint8
        "topk_degenerate": int(args["m"] >= n),
    }


def _custom_walk(args, out):
    n = out.n_regions
    return {
        # each step multiplies by the relationship matrix cast to float64
        "walk_bytes": args["steps"] * n * n * 8,
        "walk_gain": int(_n_labeled(out) > _n_labeled(args["state"])),
    }


def _file_bytes(args, out):
    return {"bytes": os.path.getsize(args["path"])}


def _closed_loop(args, out):
    _, _, trace = out
    return {"epochs": len(trace.epochs), "converged": int(trace.stopped_at is not None)}


# function name -> (layer span name, hook giving the span's counts)
SPANS = {
    "felzenszwalb": ("superpixel.felzenszwalb", _felzenszwalb),
    "rag_merge": ("superpixel.rag_merge", _rag_merge),
    "superpixel_features": ("features.superpixel_features", None),
    "build_relationship": ("relgraph.build_relationship", _build_relationship),
    "custom_walk": ("seeds.custom_walk", _custom_walk),
    "seed_update": ("seeds.update", None),
    "convergence_check": ("seeds.update", None),
    "labels_from_state": ("seeds.labels_from_state", None),
    "predict": ("segmenter.predict", None),
    "train_epochs": ("segmenter.train_epochs", None),
    "loss_and_grad": ("segmenter.loss_and_grad", None),
    "confusion": ("metrics.confusion", None),
    "load_ppm": ("tensorio.load", _file_bytes),
    "load_label_pgm": ("tensorio.load", _file_bytes),
    "save_ppm": ("tensorio.save", _file_bytes),
    "save_label_pgm": ("tensorio.save", _file_bytes),
    "gen_synthetic": ("tensorio.gen_synthetic", None),
    "run_closed_loop": ("pipeline", _closed_loop),
}

# (metric, unit); every value is per scene, see per_layer_metrics
PER_LAYER = (
    ("superpixel.felzenszwalb.s", "s"),
    ("superpixel.pixels", "count"),
    ("superpixel.regions_raw", "count"),
    ("superpixel.rag_merge.s", "s"),
    ("superpixel.merges", "count"),
    ("superpixel.regions_merged", "count"),
    ("features.superpixel_features.s", "s"),
    ("relgraph.build_relationship.s", "s"),
    ("relgraph.rel_nnz", "count"),
    ("relgraph.dense_bytes", "B"),
    ("relgraph.topk_degenerate_frac", "fraction"),
    ("seeds.custom_walk.s", "s"),
    ("seeds.custom_walk.calls", "count"),
    ("seeds.walk_bytes", "B"),
    ("seeds.walk_gain_frac", "fraction"),
    ("seeds.update.s", "s"),
    ("seeds.labels_from_state.s", "s"),
    ("segmenter.predict.s", "s"),
    ("segmenter.train_epochs.s", "s"),
    ("segmenter.loss_and_grad.s", "s"),
    ("segmenter.loss_and_grad.calls", "count"),
    ("metrics.confusion.s", "s"),
    ("metrics.confusion.calls", "count"),
    ("pipeline.self.s", "s"),
    ("pipeline.epochs", "count"),
    ("pipeline.converged_frac", "fraction"),
    ("tensorio.load.s", "s"),
    ("tensorio.save.s", "s"),
    ("tensorio.bytes_read", "B"),
    ("tensorio.bytes_written", "B"),
    ("tensorio.gen_synthetic.s", "s"),
    ("trace.scenes_per_s", "1/s"),
    ("trace.untraced_scenes_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.layer_sum_s", "s"),
)

# counts that must come out the same on every pass over the scene set
EXACT_COUNTS = (
    ("superpixel.felzenszwalb", "regions_raw"),
    ("superpixel.rag_merge", "regions_merged"),
    ("superpixel.rag_merge", "merges"),
    ("relgraph.build_relationship", "rel_nnz"),
    ("pipeline", "epochs"),
    ("pipeline", "converged"),
)


class Span:
    __slots__ = ("layer", "parent", "phase", "t0", "t1", "counts")

    def __init__(self, layer, parent, phase):
        self.layer = layer
        self.parent = parent
        self.phase = phase
        self.t0 = self.t1 = 0.0
        self.counts = None


class Tracer:
    """Records spans while installed. `phase` tags new spans: "setup" for
    scene generation and file writes, or the index of the pass over the
    scene set."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._undo = []

    def _wrap(self, fn, layer, hook):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, self._stack[-1] if self._stack else None, self.phase)
            self.spans.append(span)
            self._stack.append(span)
            span.t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = hook(bound.arguments, out)
            return out

        return traced

    def install(self):
        wrappers = {}  # one wrapper per function, shared by every module naming it
        for module in _MODULES:
            for name, (layer, hook) in SPANS.items():
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(fn, layer, hook)
                setattr(module, name, wrappers[id(fn)])
                self._undo.append((module, name, fn))

    def restore(self):
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()


def self_times(spans):
    """Span duration minus the part its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.t1 - s.t0
    return [s.t1 - s.t0 - child[id(s)] for s in spans]


def pass_counts(spans):
    """Per pass: call count of every layer plus the EXACT_COUNTS sums."""
    out = defaultdict(Counter)
    for s in spans:
        if s.phase == "setup":
            continue
        out[s.phase][s.layer + ".calls"] += 1
        for layer, key in EXACT_COUNTS:
            if s.layer == layer:
                out[s.phase][f"{layer}.{key}"] += (s.counts or {}).get(key, 0)
    return [out[p] for p in sorted(out)]


def in_scene(spans):
    """True for spans made inside a run_closed_loop call."""
    inside = {}
    for s in spans:  # parents are recorded before their children
        inside[id(s)] = s.layer == "pipeline" or (
            s.parent is not None and inside[id(s.parent)]
        )
    return [inside[id(s)] for s in spans]


def per_layer_metrics(spans, n_set, n_scenes):
    """Fold spans into per-scene layer metrics.

    Set-up spans are divided by the `n_set` scenes they generate or write,
    spans of the passes by the `n_scenes` run. Times are self times, so
    `segmenter.train_epochs.s` excludes its nested `loss_and_grad` calls.
    Returns (metrics dict without the trace.* entries, per-scene sum of the
    self times of spans made inside run_closed_loop).
    """
    selfs = self_times(spans)
    s_tot, calls, counts = defaultdict(float), Counter(), Counter()
    layer_sum = setup_written = 0.0
    for s, st, inside in zip(spans, selfs, in_scene(spans)):
        per = n_set if s.phase == "setup" else n_scenes
        s_tot[s.layer] += st / per
        if s.phase == "setup":
            if s.layer == "tensorio.save":
                setup_written += s.counts["bytes"] / per
            continue
        calls[s.layer] += 1
        layer_sum += st / per if inside else 0.0
        for key, value in (s.counts or {}).items():
            counts[f"{s.layer}.{key}"] += value

    def mean(key):
        return counts[key] / n_scenes

    def frac(key, layer):
        return counts[key] / calls[layer] if calls[layer] else 0.0

    values = {
        "superpixel.felzenszwalb.s": s_tot["superpixel.felzenszwalb"],
        "superpixel.pixels": mean("superpixel.felzenszwalb.pixels"),
        "superpixel.regions_raw": mean("superpixel.felzenszwalb.regions_raw"),
        "superpixel.rag_merge.s": s_tot["superpixel.rag_merge"],
        "superpixel.merges": mean("superpixel.rag_merge.merges"),
        "superpixel.regions_merged": mean("superpixel.rag_merge.regions_merged"),
        "features.superpixel_features.s": s_tot["features.superpixel_features"],
        "relgraph.build_relationship.s": s_tot["relgraph.build_relationship"],
        "relgraph.rel_nnz": mean("relgraph.build_relationship.rel_nnz"),
        "relgraph.dense_bytes": mean("relgraph.build_relationship.dense_bytes"),
        "relgraph.topk_degenerate_frac": frac(
            "relgraph.build_relationship.topk_degenerate", "relgraph.build_relationship"
        ),
        "seeds.custom_walk.s": s_tot["seeds.custom_walk"],
        "seeds.custom_walk.calls": calls["seeds.custom_walk"] / n_scenes,
        "seeds.walk_bytes": mean("seeds.custom_walk.walk_bytes"),
        "seeds.walk_gain_frac": frac("seeds.custom_walk.walk_gain", "seeds.custom_walk"),
        "seeds.update.s": s_tot["seeds.update"],
        "seeds.labels_from_state.s": s_tot["seeds.labels_from_state"],
        "segmenter.predict.s": s_tot["segmenter.predict"],
        "segmenter.train_epochs.s": s_tot["segmenter.train_epochs"],
        "segmenter.loss_and_grad.s": s_tot["segmenter.loss_and_grad"],
        "segmenter.loss_and_grad.calls": calls["segmenter.loss_and_grad"] / n_scenes,
        "metrics.confusion.s": s_tot["metrics.confusion"],
        "metrics.confusion.calls": calls["metrics.confusion"] / n_scenes,
        "pipeline.self.s": s_tot["pipeline"],
        "pipeline.epochs": mean("pipeline.epochs"),
        "pipeline.converged_frac": frac("pipeline.converged", "pipeline"),
        "tensorio.load.s": s_tot["tensorio.load"],
        "tensorio.save.s": s_tot["tensorio.save"],
        "tensorio.bytes_read": mean("tensorio.load.bytes"),
        "tensorio.bytes_written": mean("tensorio.save.bytes") + setup_written,
        "tensorio.gen_synthetic.s": s_tot["tensorio.gen_synthetic"],
    }
    return values, layer_sum


def regions_merged(spans):
    """regions_merged of every rag_merge call made during the passes."""
    return [
        s.counts["regions_merged"]
        for s in spans
        if s.layer == "superpixel.rag_merge" and s.phase != "setup"
    ]
