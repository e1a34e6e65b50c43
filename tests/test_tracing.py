"""The benchmark's tracer (perfbench/spans.py) wraps the loop's stages by the
names `seedloop.pipeline`, `seedloop.segmenter` and `seedloop.tensorio` look
up at call time. A stage reached through another module's name is not wrapped
and its time silently counts as the pipeline's own; this guards the names,
and the argument names the span hooks read."""

import math

from perfbench import spans
from seedloop import LoopConfig, gen_synthetic, pipeline, tensorio

LOOP_LAYERS = {
    "superpixel.felzenszwalb",
    "superpixel.rag_merge",
    "features.superpixel_features",
    "relgraph.build_relationship",
    "seeds.custom_walk",
    "seeds.update",
    "segmenter.predict",
    "segmenter.train_epochs",
    "segmenter.loss_and_grad",
    "seeds.labels_from_state",
}


def test_tracer_sees_every_loop_layer_inside_the_pipeline_span():
    img, gt, seeds = gen_synthetic(7, 1)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        pipeline.run_closed_loop(img, seeds, LoopConfig(), gt)
    finally:
        tracer.restore()
    layers = [s.layer for s in tracer.spans]
    assert layers.count("pipeline") == 1
    inside = {s.layer for s, i in zip(tracer.spans, spans.in_scene(tracer.spans)) if i}
    assert LOOP_LAYERS <= inside, LOOP_LAYERS - inside
    assert all(spans.in_scene(tracer.spans))


def test_traced_dataset_pass_records_every_layer_and_hook(tmp_path):
    # the on-disk path of `seedloop run`: file hooks read args["path"], the
    # scores run through metrics.confusion
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, scene in enumerate(tensorio.gen_synthetic(7, 2)):
            tensorio.save_scene(data_dir, f"{i:04d}", *scene)
        tracer.phase = 0
        pipeline.run_dataset(data_dir, LoopConfig(), tmp_path / "out")
    finally:
        tracer.restore()
    layers = {s.layer for s in tracer.spans}
    assert {layer for layer, _ in spans.SPANS.values()} <= layers
    hooked = {layer for layer, hook in spans.SPANS.values() if hook is not None}
    for s in tracer.spans:
        if s.layer in hooked:
            assert s.counts and all(v >= 0 for v in s.counts.values()), s.layer
    values, layer_sum = spans.per_layer_metrics(tracer.spans, 2, 2)
    assert all(math.isfinite(v) for v in values.values()) and layer_sum > 0
    assert values["tensorio.bytes_read"] > 0 and values["tensorio.bytes_written"] > 0
