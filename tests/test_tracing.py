"""The benchmark's tracer (perfbench/spans.py) wraps the loop's stages by the
names `seedloop.pipeline`, `seedloop.segmenter` and `seedloop.tensorio` look
up at call time. A stage reached through another module's name is not wrapped
and its time silently counts as the pipeline's own; this guards the names."""

from perfbench import spans
from seedloop import LoopConfig, gen_synthetic, pipeline

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
