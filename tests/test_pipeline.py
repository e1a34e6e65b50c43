import dataclasses
from pathlib import Path

import numpy as np
import pytest

import seedloop.pipeline as pipeline
from seedloop import (
    IGNORE,
    LabelMap,
    LoopConfig,
    confusion,
    gen_synthetic,
    labels_from_state,
    parse_config,
    run_closed_loop,
    run_dataset,
    scores,
)
from seedloop.errors import DimensionMismatch, EmptySeeds, InvalidParams, MissingFile, WOutOfRange
from seedloop.pipeline import (
    pixel_state_to_superpixels,
    prepare_scene,
    score_pairs,
    seed_miou,
    seeds_as_prediction,
)
from seedloop.seeds import ConvergenceParams
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


def test_empty_seeds_rejected():
    img, _gt, _seeds = gen_synthetic(1, 1)[0]
    empty = make_labels(np.full((img.height, img.width), IGNORE))
    with pytest.raises(EmptySeeds):
        run_closed_loop(img, empty, LoopConfig())


@pytest.mark.parametrize(
    "make_cfg, bad_label, error",
    [
        (lambda: LoopConfig(topk=0), None, InvalidParams),
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
        (LoopConfig, ("seeds", 9), DimensionMismatch),
        (LoopConfig, ("gt", 9), DimensionMismatch),
    ],
    ids=[
        "topk=0",
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

    def spy_miou(state, gt_counts):
        states.append(state)
        return seed_miou(state, gt_counts)

    monkeypatch.setattr(pipeline, "prepare_scene", spy_scene)
    monkeypatch.setattr(pipeline, "seed_miou", spy_miou)
    _pred, _state, trace = run_closed_loop(img, seeds, cfg, gt)
    assert len(states) == len(trace.epochs) > 0
    assert any((s.probs.sum(axis=0) == 0).any() for s in states)  # empty seed columns
    want = [_pixel_seed_miou(s, scenes[0].spmap, gt, cfg.n_categories) for s in states]
    assert [r.seed_miou for r in trace.epochs] == want
    assert (ignore_frac == 1.0) == (want[0] is None)


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
