import argparse
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import seedloop.features as features
import seedloop.pipeline as pipeline
import seedloop.segmenter as segmenter
import seedloop.superpixel as superpixel
from perfbench.workloads import WORKLOADS
from seedloop import (
    IGNORE,
    LabelMap,
    LoopConfig,
    SynthParams,
    confusion,
    felzenszwalb,
    gen_synthetic,
    labels_from_state,
    parse_config,
    rag_merge,
    run_closed_loop,
    run_dataset,
    scores,
)
from seedloop.cli import build_parser
from seedloop.errors import (
    DimensionMismatch,
    EmptySeeds,
    InvalidParams,
    MissingFile,
    TrainingDiverged,
    WOutOfRange,
)
from seedloop.pipeline import (
    LoopTrace,
    end_epoch,
    pixel_state_to_superpixels,
    prepare_scene,
    region_label_counts,
    run_epoch,
    score_pairs,
    seeds_as_prediction,
)
from seedloop.seeds import ConvergenceParams, SeedState
from seedloop.segmenter import LinearSegmenter
from seedloop.superpixel import SegParams, SuperpixelMap
from seedloop.tensorio import save_label_pgm, save_ppm
from tests.conftest import make_labels, random_spmap


def test_pixel_state_one_hot_region():
    spmap = SuperpixelMap(np.array([[0, 1], [0, 1]], dtype=np.int32))
    labels = make_labels([[2, 1], [2, 1]])
    state = pixel_state_to_superpixels(labels, spmap, 3)
    assert np.allclose(state.probs[:, 0], [0, 0, 1])
    assert np.allclose(state.probs[:, 1], [0, 1, 0])


def test_pixel_state_ignores_excluded_from_denominator():
    spmap = SuperpixelMap(np.array([[0, 0]], dtype=np.int32))
    labels = make_labels([[1, IGNORE]])
    state = pixel_state_to_superpixels(labels, spmap, 2)
    assert state.probs[1, 0] == 1.0


def test_pixel_state_rejects_label_above_categories():
    # a label >= n_categories must not count in its region's denominator only
    spmap = SuperpixelMap(np.array([[0, 0]], dtype=np.int32))
    with pytest.raises(DimensionMismatch):
        pixel_state_to_superpixels(make_labels([[1, 2]]), spmap, 2)


def test_pixel_state_matches_brute_force(rng):
    spmap = random_spmap(rng, 8, 8, 3)
    arr = rng.integers(0, 4, size=(8, 8)).astype(np.uint8)
    arr[rng.random((8, 8)) < 0.3] = IGNORE
    state = pixel_state_to_superpixels(make_labels(arr), spmap, 4)
    for rid in range(spmap.n_regions):
        vals = arr[spmap.region_of == rid]
        vals = vals[vals != IGNORE]
        for c in range(4):
            expected = (vals == c).mean() if vals.size else 0.0
            assert state.probs[c, rid] == pytest.approx(expected)


def _bincount_label_counts(spmap, labels, n_categories):
    """region_label_counts as np.bincount over the non-ignored pixels gives
    it: the oracle of the native pass."""
    flat = labels.labels.ravel()
    valid = flat != IGNORE
    if (flat[valid] >= n_categories).any():
        raise DimensionMismatch(f"label >= n_categories ({n_categories})")
    idx = spmap.region_of.ravel()[valid].astype(np.int64) * n_categories + flat[valid]
    counts = np.bincount(idx, minlength=spmap.n_regions * n_categories)
    return counts.reshape(spmap.n_regions, n_categories)


def _assert_label_counts_match_bincount(spmap, labels, n_categories):
    got = region_label_counts(spmap, labels, n_categories)
    want = _bincount_label_counts(spmap, labels, n_categories)
    assert got.dtype == want.dtype == np.int64
    assert got.tobytes() == want.tobytes() and got.shape == want.shape


# each scene's ground truth and seeds, its ground truth with every label at
# the top category C - 1, and an all-IGNORE map
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_region_label_counts_match_bincount_on_workload_scenes(name):
    w = WORKLOADS[name]
    n = w.cfg.n_categories
    for img, gt, seeds in gen_synthetic(w.scene_seed, w.count, SynthParams(w.size, w.size)):
        spmap = rag_merge(felzenszwalb(img, w.cfg.seg), img, w.cfg.seg.merge_thresh)
        top = make_labels(np.where(gt.labels == IGNORE, IGNORE, n - 1))
        for labels in (gt, seeds, top, make_labels(np.full_like(gt.labels, IGNORE))):
            _assert_label_counts_match_bincount(spmap, labels, n)
        bad = gt.labels.copy()
        bad[-1, -1] = n  # the last pixel, after every run has been counted
        with pytest.raises(DimensionMismatch, match="n_categories"):
            region_label_counts(spmap, make_labels(bad), n)


def test_region_label_counts_match_bincount_on_random_maps(rng):
    for h, w in ((1, 9), (9, 1), (1, 1), (7, 8)):
        for n_values in (1, 3):
            spmap = random_spmap(rng, h, w, n_values)
            for n in (1, 4, 255):
                arr = rng.integers(0, n, size=(h, w))
                arr[rng.random((h, w)) < 0.3] = IGNORE
                _assert_label_counts_match_bincount(spmap, make_labels(arr), n)


def test_prepare_scene_sums_regions_once_and_rescans_no_edges(monkeypatch):
    # felzenszwalb's numbering hands rag_merge the raw regions' sums and
    # edges; only superpixel_features' pass, which adds the gradients, is left
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapped

    for module, name in ((superpixel, "_region_sums"), (features, "_region_sums"),
                         (superpixel, "region_edges")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    img, gt, seeds = gen_synthetic(7, 1, SynthParams(256, 256))[0]
    prepare_scene(img, seeds, LoopConfig(), gt)
    assert calls == ["_region_sums"]


def test_empty_seeds_rejected():
    img, _gt, _seeds = gen_synthetic(1, 1)[0]
    empty = make_labels(np.full((img.height, img.width), IGNORE))
    with pytest.raises(EmptySeeds):
        run_closed_loop(img, empty, LoopConfig())


@pytest.mark.parametrize(
    "make_cfg, bad_label, error",
    [
        (lambda: LoopConfig(topk=0), None, InvalidParams),
        (lambda: LoopConfig(total_epochs=0), None, InvalidParams),
        (lambda: LoopConfig(update_every=0), None, InvalidParams),
        (lambda: LoopConfig(n_categories=1), None, InvalidParams),
        (lambda: LoopConfig(n_categories=256), None, InvalidParams),
        (lambda: LoopConfig(n_categories=300), None, InvalidParams),
        (lambda: LoopConfig(walk_steps=0), None, InvalidParams),
        (lambda: LoopConfig(epochs_per_phase=0), None, InvalidParams),
        (lambda: LoopConfig(learning_rate=-1.0), None, InvalidParams),
        (lambda: LoopConfig(learning_rate=float("inf")), None, InvalidParams),
        (lambda: LoopConfig(l2=float("nan")), None, InvalidParams),
        (lambda: LoopConfig(l2=-1e-3), None, InvalidParams),
        (lambda: LoopConfig(conv=ConvergenceParams(delta=float("nan"))), None, WOutOfRange),
        (lambda: LoopConfig(conv=ConvergenceParams(rho=float("nan"))), None, WOutOfRange),
        (lambda: LoopConfig(seg=SegParams(k=float("nan"))), None, InvalidParams),
        (lambda: LoopConfig(seg=SegParams(k=float("inf"))), None, InvalidParams),
        (lambda: LoopConfig(seg=SegParams(sigma=float("inf"))), None, InvalidParams),
        (lambda: LoopConfig(seg=SegParams(merge_thresh=float("nan"))), None, InvalidParams),
        # an int field takes only an integer, as a config file parses it
        (lambda: LoopConfig(total_epochs=2.5), None, InvalidParams),
        (lambda: LoopConfig(walk_steps=1.5), None, InvalidParams),
        (lambda: LoopConfig(epochs_per_phase=2.0), None, InvalidParams),
        (lambda: LoopConfig(topk=2.5), None, InvalidParams),
        (lambda: LoopConfig(n_categories=3.5), None, InvalidParams),
        (lambda: LoopConfig(update_every=1.5), None, InvalidParams),
        (lambda: LoopConfig(update_start_epoch=True), None, InvalidParams),
        (lambda: LoopConfig(seg=SegParams(min_size=2.5)), None, InvalidParams),
        (LoopConfig, ("seeds", 9), DimensionMismatch),
        (LoopConfig, ("gt", 9), DimensionMismatch),
    ],
    ids=[
        "topk=0",
        "total_epochs=0",
        "update_every=0",
        "n_categories=1",
        "n_categories=256",
        "n_categories=300",
        "walk_steps=0",
        "epochs_per_phase=0",
        "learning_rate=-1",
        "learning_rate=inf",
        "l2=nan",
        "l2<0",
        "delta=nan",
        "rho=nan",
        "k=nan",
        "k=inf",
        "sigma=inf",
        "merge_thresh=nan",
        "total_epochs=2.5",
        "walk_steps=1.5",
        "epochs_per_phase=2.0",
        "topk=2.5",
        "n_categories=3.5",
        "update_every=1.5",
        "update_start_epoch=True",
        "min_size=2.5",
        "seed_label=9",
        "gt_label=9",
    ],
)
def test_bad_input_rejected_before_superpixels(make_cfg, bad_label, error, monkeypatch):
    img, gt, seeds = gen_synthetic(7, 1)[0]
    maps = {"seeds": seeds, "gt": gt}
    if bad_label is not None:
        which, label = bad_label
        labels = maps[which].labels.copy()
        labels[0, 0] = label
        maps[which] = make_labels(labels)

    def no_work(*args):
        raise AssertionError("superpixels built before the input was checked")

    monkeypatch.setattr(pipeline, "felzenszwalb", no_work)
    with pytest.raises(error):
        run_closed_loop(img, maps["seeds"], make_cfg(), maps["gt"])


def test_largest_category_count_accepted():
    assert LoopConfig(n_categories=255).n_categories == 255


@pytest.mark.parametrize("which", ["seeds", "gt"])
def test_label_map_of_other_size_rejected_before_superpixels(which, monkeypatch):
    img, gt, seeds = gen_synthetic(7, 1)[0]
    maps = {"seeds": seeds, "gt": gt}
    maps[which] = make_labels(maps[which].labels[:, 1:])

    def no_work(*args):
        raise AssertionError("superpixels built before the input was checked")

    monkeypatch.setattr(pipeline, "felzenszwalb", no_work)
    with pytest.raises(DimensionMismatch):
        run_closed_loop(img, maps["seeds"], LoopConfig(), maps["gt"])


# 2.5 failed as a bare TypeError and True scored one category
@pytest.mark.parametrize("n_categories", [0, 2.5, True])
def test_score_pairs_rejects_categories_not_an_int_in_range(n_categories):
    with pytest.raises(InvalidParams):
        score_pairs([], n_categories)


def _pixel_seed_miou(state, spmap, gt, n_categories):
    """The seed mIoU as scored on pixels: render the state, mask the gt to
    the rendered pixels and score the confusion."""
    seed_pred = labels_from_state(state, spmap)
    masked = np.where(seed_pred.labels != IGNORE, gt.labels, np.uint8(IGNORE))
    result = score_pairs([(seed_pred, LabelMap(masked))], n_categories)
    return result[1] if result is not None else None


@pytest.mark.parametrize(
    "cfg, ignore_frac",
    [
        (LoopConfig(), 0.0),
        (LoopConfig(), 0.3),
        (LoopConfig(), 1.0),  # no scored pixel: every seed mIoU is None
        (LoopConfig(seg=SegParams(k=20, min_size=5, merge_thresh=10), w=0.5), 0.3),
    ],
    ids=["default", "gt_ignore", "gt_all_ignore", "many_regions"],
)
def test_seed_mious_match_pixel_formula(cfg, ignore_frac, monkeypatch):
    rng = np.random.default_rng(17)
    img, gt, seeds = gen_synthetic(7, 1)[0]
    gt_labels = gt.labels.copy()
    gt_labels[rng.random(gt_labels.shape) < ignore_frac] = IGNORE
    gt = make_labels(gt_labels)
    scenes, states = [], []

    def spy_scene(*args):
        scenes.append(prepare_scene(*args))
        return scenes[-1]

    def spy_end(*args):
        states.append(end_epoch(*args))
        return states[-1]

    monkeypatch.setattr(pipeline, "prepare_scene", spy_scene)
    monkeypatch.setattr(pipeline, "end_epoch", spy_end)
    _pred, _state, trace = run_closed_loop(img, seeds, cfg, gt)
    assert len(states) == len(trace.epochs) > 0
    assert any((s.probs.sum(axis=0) == 0).any() for s in states)  # empty seed columns
    want = [_pixel_seed_miou(s, scenes[0].spmap, gt, cfg.n_categories) for s in states]
    assert [r.seed_miou for r in trace.epochs] == want
    assert (ignore_frac == 1.0) == (want[0] is None)


def _counted(calls, name, fn):
    def spy(*args):
        calls[name] += 1
        return fn(*args)

    return spy


@pytest.mark.parametrize(
    "cfg",
    [
        LoopConfig(),
        LoopConfig(seg=SegParams(k=20, min_size=5, merge_thresh=10), w=0.5),
        LoopConfig(w=0.0),  # the seeds never change: one score
    ],
    ids=["default", "many_regions", "w_zero"],
)
def test_seed_miou_scored_once_per_seed_change(cfg, monkeypatch):
    img, gt, seeds = gen_synthetic(7, 1)[0]
    calls = {"seed_miou": 0, "seed_update": 0}
    for name in calls:
        monkeypatch.setattr(pipeline, name, _counted(calls, name, getattr(pipeline, name)))
    _pred, _state, trace = run_closed_loop(img, seeds, cfg, gt)
    assert (calls["seed_update"] > 0) == (cfg.w > 0)
    assert calls["seed_miou"] == 1 + calls["seed_update"] < len(trace.epochs)


def test_seed_states_built_per_epoch(monkeypatch):
    # each epoch checks the prediction and the mixed seed; S_0, each seed
    # update and the final prediction add one state each
    img, gt, seeds = gen_synthetic(7, 1)[0]
    built = {"states": 0, "seed_update": 0}
    check, update = SeedState.__post_init__, pipeline.seed_update

    def spy_check(self):
        built["states"] += 1
        check(self)

    def spy_update(*args):
        built["seed_update"] += 1
        return update(*args)

    monkeypatch.setattr(SeedState, "__post_init__", spy_check)
    monkeypatch.setattr(pipeline, "seed_update", spy_update)
    _pred, _state, trace = run_closed_loop(img, seeds, LoopConfig(), gt)
    assert built["seed_update"] > 0
    assert built["states"] <= 2 * len(trace.epochs) + built["seed_update"] + 2


_EPOCH_CONFIGS = {
    "default": LoopConfig(),
    "many_regions": LoopConfig(seg=SegParams(k=20, min_size=5, merge_thresh=10), w=0.5),
}


@pytest.mark.parametrize("cfg", _EPOCH_CONFIGS.values(), ids=_EPOCH_CONFIGS.keys())
def test_run_epoch_over_two_copies_matches_one_scene(cfg, monkeypatch):
    # a duplicated row leaves the mean gradient unchanged, up to rounding
    img, gt, seeds = gen_synthetic(7, 1)[0]
    scene = prepare_scene(img, seeds, cfg, gt)
    calls = {"train_epochs": 0}
    monkeypatch.setattr(
        pipeline, "train_epochs", _counted(calls, "train_epochs", pipeline.train_epochs)
    )
    shape = (scene.feats.shape[1], cfg.n_categories)
    one, two = LinearSegmenter(np.zeros(shape)), LinearSegmenter(np.zeros(shape))
    states1, traces1 = [scene.seeds], [LoopTrace()]
    states2, traces2 = [scene.seeds] * 2, [LoopTrace(), LoopTrace()]
    for epoch in range(1, cfg.total_epochs + 1):
        states1 = run_epoch(one, [scene], states1, traces1, epoch, cfg)
        states2 = run_epoch(two, [scene, scene], states2, traces2, epoch, cfg)
        assert calls["train_epochs"] == 2 * epoch  # one per run_epoch call
        assert np.allclose(one.weights, two.weights) and np.allclose(one.bias, two.bias)
        want = traces1[0].epochs[-1]
        for state, trace in zip(states2, traces2):
            assert np.allclose(state.probs, states1[0].probs)
            assert trace.epochs[-1] == pytest.approx(want)
            assert trace.stopped_at == traces1[0].stopped_at
    assert any(r.unchanged > 0 for r in traces1[0].epochs)  # the seeds were updated


def test_epoch_builds_targets_per_scene_and_loss_once(monkeypatch):
    # looked up by the names the benchmark's tracer wraps: labeled_targets by
    # pipeline's, loss_and_grad by segmenter's
    img, gt, seeds = gen_synthetic(7, 1)[0]
    cfg = LoopConfig()
    scene = prepare_scene(img, seeds, cfg, gt)
    calls = {"labeled_targets": 0, "loss_and_grad": 0}
    for module, name in [(pipeline, "labeled_targets"), (segmenter, "loss_and_grad")]:
        monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
    model = LinearSegmenter(np.zeros((scene.feats.shape[1], cfg.n_categories)))
    run_epoch(model, [scene] * 2, [scene.seeds] * 2, [LoopTrace(), LoopTrace()], 1, cfg)
    assert calls == {"labeled_targets": 2, "loss_and_grad": 1}


def test_run_epoch_rejects_lists_of_other_lengths():
    img, gt, seeds = gen_synthetic(7, 1)[0]
    cfg = LoopConfig()
    scene = prepare_scene(img, seeds, cfg, gt)
    model = LinearSegmenter(np.zeros((scene.feats.shape[1], cfg.n_categories)))
    for states, traces in [([scene.seeds] * 2, [LoopTrace()]), ([scene.seeds], [])]:
        with pytest.raises(ValueError):
            run_epoch(model, [scene], states, traces, 1, cfg)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the monitor compares unnormalised columns, so with "
    "20% of regions unseeded it reads 0.8 unchanged however steady the seeds are",
)
def test_monitor_fires_at_second_update_on_steady_output(monkeypatch):
    img, _gt, seeds = gen_synthetic(7, 1)[0]
    cfg = LoopConfig()
    s0 = prepare_scene(img, seeds, cfg).seeds.probs
    steady = s0.copy()
    steady[0, s0.sum(axis=0) == 0] = 1.0  # unseeded regions read as background
    monkeypatch.setattr(pipeline, "predict", lambda model, feats: SeedState(steady))
    _pred, _seeds, trace = run_closed_loop(img, seeds, cfg)
    assert trace.stopped_at == cfg.update_start_epoch + cfg.update_every  # 13


def test_w_zero_keeps_initial_seeds():
    img, gt, seeds = gen_synthetic(7, 1)[0]
    cfg = dataclasses.replace(LoopConfig(), w=0.0)
    _pred, final_seeds, _trace = run_closed_loop(img, seeds, cfg, gt)
    s0 = prepare_scene(img, seeds, cfg, gt).seeds
    assert np.array_equal(final_seeds.probs, s0.probs)


def test_no_update_before_start_epoch():
    img, gt, seeds = gen_synthetic(7, 1)[0]
    cfg = LoopConfig()
    _pred, _seeds, trace = run_closed_loop(img, seeds, cfg, gt)
    for record in trace.epochs:
        if record.epoch < cfg.update_start_epoch:
            assert record.unchanged == 0.0


def test_frozen_segmenter_is_fixed_point(monkeypatch):
    img, _gt, seeds = gen_synthetic(7, 1)[0]
    cfg = LoopConfig()
    s0 = prepare_scene(img, seeds, cfg).seeds
    monkeypatch.setattr(pipeline, "predict", lambda model, feats: s0)
    _pred, final_seeds, trace = run_closed_loop(img, seeds, cfg)
    assert np.array_equal(final_seeds.probs, s0.probs)
    assert trace.stopped_at == cfg.update_start_epoch


# a step of 1e300 overflows the weights, which then give NaN losses; an l2
# of 1e300 overflows the penalty's gradient. Neither can be told from the
# config alone, so the training itself raises, before any NaN reaches the
# trace or predict. numpy warns of each overflow on the way
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("field", ["learning_rate", "l2"])
def test_divergent_training_raises(field):
    img, gt, seeds = gen_synthetic(7, 1)[0]
    cfg = dataclasses.replace(LoopConfig(), **{field: 1e300})
    with pytest.raises(TrainingDiverged, match="not finite"):
        run_closed_loop(img, seeds, cfg, gt)


def test_loop_improves_over_initial_seeds():
    img, gt, seeds = gen_synthetic(7, 1)[0]
    pred, _state, _trace = run_closed_loop(img, seeds, LoopConfig(), gt)
    _, pred_miou, _ = scores(confusion(pred, gt, 4))
    _, seed_miou, _ = scores(confusion(seeds_as_prediction(seeds), gt, 4))
    assert pred_miou > seed_miou


def test_run_dataset_single_image(tmp_path):
    img, gt, seeds = gen_synthetic(7, 1)[0]
    data = tmp_path / "data"
    data.mkdir()
    save_ppm(img, data / "0000.ppm")
    save_label_pgm(gt, data / "0000.gt.pgm")
    save_label_pgm(seeds, data / "0000.seeds.pgm")
    result = run_dataset(data, LoopConfig(), tmp_path / "out")
    assert (tmp_path / "out" / "0000.pred.pgm").exists()
    assert (tmp_path / "out" / "0000.trace.txt").exists()
    pred, _state, _trace = run_closed_loop(img, seeds, LoopConfig(), gt)
    assert result == scores(confusion(pred, gt, 4))


def test_run_dataset_checks_every_seeds_file_first(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    for i, (img, gt, seeds) in enumerate(gen_synthetic(7, 3)):
        save_ppm(img, data / f"{i:04d}.ppm")
        save_label_pgm(gt, data / f"{i:04d}.gt.pgm")
        if i != 2:
            save_label_pgm(seeds, data / f"{i:04d}.seeds.pgm")

    def no_work(*args):
        raise AssertionError("a scene ran before every seeds file was found")

    monkeypatch.setattr(pipeline, "run_closed_loop", no_work)
    with pytest.raises(MissingFile, match="0002.seeds.pgm"):
        run_dataset(data, LoopConfig(), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_dataset_empty_dir(tmp_path):
    with pytest.raises(MissingFile):
        run_dataset(tmp_path, LoopConfig(), tmp_path / "out")


def test_parse_config(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(
        "# loop settings\n"
        "w = 0.3\n"
        "walk_steps = 1\n"
        "alpha_fg = 0.8  # gate\n"
        "min_size = 10\n"
        "delta = 0.2\n"
        "merge_thresh = 10\n"
    )
    cfg = parse_config(p)
    assert cfg.w == 0.3
    assert cfg.walk_steps == 1
    assert cfg.gates.alpha_fg == 0.8
    assert cfg.gates.alpha_bg == 0.9  # default retained
    assert cfg.seg.min_size == 10
    assert cfg.conv.delta == 0.2
    assert cfg.seg.merge_thresh == 10.0 and isinstance(cfg.seg.merge_thresh, float)


def test_readme_config_block_is_the_defaults(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Recognized keys and defaults:", 1)[1]
    block = after.split("```", 2)[1]
    p = tmp_path / "cfg.txt"
    p.write_text(block)
    assert parse_config(p) == LoopConfig()
    named = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert named == set(pipeline._CONFIG_KEYS)


def test_readme_names_every_cli_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    missing = [
        f"{name} {flag}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        for flag in action.option_strings
        if flag != "--help" and flag.startswith("--")
        and not re.search(re.escape(flag) + r"(?![\w-])", readme)
    ]
    assert missing == []


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("nonsense = 1\n")
    with pytest.raises(InvalidParams):
        parse_config(p)


def test_parse_config_duplicate_key(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("w = 0.3\nw = 0.5\n")
    with pytest.raises(InvalidParams, match=r"cfg\.txt:2: duplicate key 'w'"):
        parse_config(p)


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        parse_config(tmp_path / "absent.txt")


def test_loop_deterministic(tmp_path):
    img, gt, seeds = gen_synthetic(11, 1)[0]
    a = run_closed_loop(img, seeds, LoopConfig(), gt)
    b = run_closed_loop(img, seeds, LoopConfig(), gt)
    assert np.array_equal(a[0].labels, b[0].labels)
    assert np.array_equal(a[1].probs, b[1].probs)
    assert a[2].lines() == b[2].lines()
