"""Closed-loop driver: per image, prepare the scene once (superpixels,
features, the relationship matrix, the initial seeds), then alternate
random-walk seed expansion and segmenter training, each epoch ending in the
scheduled convex seed update, the convergence monitor and a trace record."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySeeds,
    InvalidParams,
    MissingFile,
    check_int,
    check_int_fields,
)
from .features import standardize, superpixel_features
from .metrics import confusion, scores
from .relgraph import RelationshipMatrix, build_relationship
from .seeds import (
    ConvergenceParams,
    GateParams,
    SeedState,
    convergence_check,
    custom_walk,
    labels_from_state,
    region_labels,
    seed_update,
)
from .segmenter import LinearSegmenter, labeled_targets, predict, train_epochs
from .superpixel import SegParams, SuperpixelMap, _load_felz, felzenszwalb, rag_merge
from .tensorio import IGNORE, LabelMap, RasterImage, load_scene, make_dir, save_outputs, scene_ids


@dataclass(frozen=True)
class LoopConfig:
    gates: GateParams = GateParams()
    conv: ConvergenceParams = ConvergenceParams()
    seg: SegParams = SegParams()
    w: float = 0.2
    walk_steps: int = 2
    total_epochs: int = 20
    update_start_epoch: int = 10
    update_every: int = 3
    epochs_per_phase: int = 3  # gradient steps per loop epoch
    topk: int = 10
    learning_rate: float = 0.5
    l2: float = 1e-3
    n_categories: int = 4

    def __post_init__(self):
        check_int_fields(self)
        for name in ("total_epochs", "update_every", "walk_steps", "epochs_per_phase", "topk"):
            check_int(name, getattr(self, name), low=1)
        if not 0.0 <= self.w <= 1.0:
            raise InvalidParams("w must lie in [0, 1]")
        if not 2 <= self.n_categories <= IGNORE:  # uint8 ids 0..C-1 below IGNORE
            raise InvalidParams(f"n_categories must lie in [2, {IGNORE}]")
        if not (0.0 <= self.learning_rate < np.inf and 0.0 <= self.l2 < np.inf):
            raise InvalidParams("learning_rate and l2 must be finite and >= 0")


_SUB_CONFIGS = {"gates": GateParams, "conv": ConvergenceParams, "seg": SegParams}

# flat key -> (sub-config attribute or None, parser); the parser is the type
# of the field's default
_CONFIG_KEYS = {
    f.name: (sub, type(f.default))
    for sub, cls in [(None, LoopConfig), *_SUB_CONFIGS.items()]
    for f in fields(cls)
    if f.name not in _SUB_CONFIGS
}


def parse_config(path) -> LoopConfig:
    """Parse a `key = value` config file; '#' starts a comment; unknown and
    repeated keys are errors."""
    values = {sub: {} for sub in (None, *_SUB_CONFIGS)}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise MissingFile(str(e)) from e
    except UnicodeDecodeError as e:
        raise InvalidParams(f"{path}: not UTF-8 text") from e
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidParams(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InvalidParams(f"{path}:{lineno}: unknown key {key!r}")
        sub, parser = _CONFIG_KEYS[key]
        if key in values[sub]:
            raise InvalidParams(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            parsed = parser(value)
        except ValueError as e:
            raise InvalidParams(f"{path}:{lineno}: bad value for {key}") from e
        values[sub][key] = parsed
    return LoopConfig(
        **{sub: cls(**values[sub]) for sub, cls in _SUB_CONFIGS.items()}, **values[None]
    )


class EpochRecord(NamedTuple):
    epoch: int
    loss: float
    unchanged: float  # the last convergence check's unchanged fraction, 0 before one
    seed_miou: float | None  # None without ground truth or with no scored seed


@dataclass
class LoopTrace:
    """One EpochRecord per epoch of the closed loop."""

    epochs: list = field(default_factory=list)
    stopped_at: int | None = None

    def lines(self):
        out = []
        for e, loss, uf, miou in self.epochs:
            miou_s = f"{miou:.4f}" if miou is not None else "-"
            out.append(f"epoch={e} loss={loss:.6f} unchanged={uf:.4f} seed_miou={miou_s}")
        if self.stopped_at is not None:
            out.append(f"stopped_at={self.stopped_at}")
        return out


@dataclass(frozen=True)
class Scene:
    """What the loop builds once per scene; `seeds` is the initial state S_0."""

    spmap: SuperpixelMap
    feats: np.ndarray
    rel: RelationshipMatrix
    seeds: SeedState
    gt_counts: np.ndarray | None


def region_label_counts(spmap: SuperpixelMap, labels: LabelMap, n_categories: int) -> np.ndarray:
    """(n_regions, n_categories) int64 counts of each region's pixels per
    label; ignore pixels are not counted. One pass in _felzenszwalb.c."""
    if (labels.height, labels.width) != (spmap.height, spmap.width):
        raise DimensionMismatch("label map and superpixel map dimensions differ")
    counts = np.zeros((spmap.n_regions, n_categories), np.int64)
    region = np.ascontiguousarray(spmap.region_of, dtype=np.int32).ravel()
    flat = np.ascontiguousarray(labels.labels).ravel()
    if _load_felz().label_counts(region.size, region, flat, IGNORE, n_categories, counts.ravel()):
        raise DimensionMismatch(f"label >= n_categories ({n_categories})")
    return counts


def pixel_state_to_superpixels(
    labels: LabelMap, spmap: SuperpixelMap, n_categories: int
) -> SeedState:
    """Per region, category mass = fraction of the region's non-ignored
    pixels carrying that category; all-ignored regions get a zero column."""
    counts = region_label_counts(spmap, labels, n_categories)
    probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    return SeedState(np.ascontiguousarray(probs.T))


def seed_miou(state: SeedState, gt_counts: np.ndarray):
    """mIoU of labels_from_state(state) against the ground truth on the pixels
    it labels, or None when it labels no scored pixel. The confusion is summed
    per region from region_label_counts, with no pixel rendered."""
    labels = region_labels(state)
    seeded = labels != IGNORE
    cm = np.zeros((state.n_categories,) * 2, dtype=np.int64)
    np.add.at(cm.T, labels[seeded], gt_counts[seeded])  # cm[g, l] += count
    return scores(cm)[1] if cm.sum() > 0 else None


def prepare_scene(
    image: RasterImage, seeds: LabelMap, cfg: LoopConfig, gt: LabelMap | None = None
) -> Scene:
    """Check the inputs, then build the scene, its descriptors z-scored within it."""
    seed_labels = seeds.labels[seeds.labels != IGNORE]
    if seed_labels.size == 0:
        raise EmptySeeds("initial seeds label no pixel")
    if seed_labels.max() >= cfg.n_categories:
        raise DimensionMismatch("seed label >= n_categories")
    shape = (image.height, image.width)
    if (seeds.height, seeds.width) != shape:
        raise DimensionMismatch("seed and image dimensions differ")
    if gt is not None:
        if (gt.height, gt.width) != shape:
            raise DimensionMismatch("ground-truth and image dimensions differ")
        if (gt.labels[gt.labels != IGNORE] >= cfg.n_categories).any():
            raise DimensionMismatch("ground-truth label >= n_categories")
    raw = felzenszwalb(image, cfg.seg)
    spmap = rag_merge(raw, image, cfg.seg.merge_thresh, _stats=raw._stats)
    feats = standardize(superpixel_features(image, spmap))
    rel = build_relationship(feats, spmap, m=cfg.topk)
    s0 = pixel_state_to_superpixels(seeds, spmap, cfg.n_categories)
    gt_counts = None if gt is None else region_label_counts(spmap, gt, cfg.n_categories)
    return Scene(spmap, feats, rel, s0, gt_counts)


def end_epoch(scene, state, n_out, loss, epoch, cfg, trace) -> SeedState:
    """End one epoch of `scene`: on the schedule, mix `n_out` into the seeds and
    set `trace.stopped_at` if they converged; record the epoch; return the seeds.

    The seed mIoU is scored when the seeds change (the first epoch and each
    update); other epochs repeat the last record's, as the state is the same."""
    last = trace.epochs[-1] if trace.epochs else None
    unchanged, miou = (last.unchanged, last.seed_miou) if last else (0.0, None)
    changed = last is None
    since_start = epoch - cfg.update_start_epoch
    if cfg.w > 0 and since_start >= 0 and since_start % cfg.update_every == 0:
        new_state = seed_update(state, n_out, cfg.w)
        converged, unchanged = convergence_check(state, new_state, cfg.conv)
        trace.stopped_at = epoch if converged else None
        state, changed = new_state, True
    if changed and scene.gt_counts is not None:
        miou = seed_miou(state, scene.gt_counts)
    trace.epochs.append(EpochRecord(epoch, loss, unchanged, miou))
    return state


def run_epoch(model, scenes, states, traces, epoch, cfg) -> list:
    """One epoch over `scenes` and their seed `states`: each scene predicts and
    walks on its own `rel`, `model` trains once on every scene's labeled rows
    and targets stacked, and each scene ends the epoch. Returns the new states."""
    n_outs, labeled = [], []
    for scene, state in zip(scenes, states, strict=True):
        n_outs.append(predict(model, scene.feats))
        mixed = custom_walk(state, scene.rel, n_outs[-1], cfg.gates, cfg.walk_steps)
        labeled.append(labeled_targets(scene.feats, mixed))
    rows, targets = zip(*labeled)
    f, y = np.concatenate(rows), np.concatenate(targets, axis=1)
    loss = train_epochs(model, f, y, cfg.epochs_per_phase, cfg.learning_rate, cfg.l2)
    ends = zip(scenes, states, n_outs, traces, strict=True)
    return [end_epoch(sc, st, n_out, loss, epoch, cfg, tr) for sc, st, n_out, tr in ends]


def run_closed_loop(
    image: RasterImage,
    initial_seeds: LabelMap,
    cfg: LoopConfig = LoopConfig(),
    gt: LabelMap | None = None,
):
    """Run the closed loop on one image: prepare the scene, then run epochs
    over it with its own model until the seeds converge.

    Returns (final prediction LabelMap, final SeedState, LoopTrace).
    """
    scene = prepare_scene(image, initial_seeds, cfg, gt)
    model = LinearSegmenter(np.zeros((scene.feats.shape[1], cfg.n_categories)))
    states, trace = [scene.seeds], LoopTrace()
    for epoch in range(1, cfg.total_epochs + 1):
        states = run_epoch(model, [scene], states, [trace], epoch, cfg)
        if trace.stopped_at is not None:
            break

    final_pred = labels_from_state(predict(model, scene.feats), scene.spmap)
    return final_pred, states[0], trace


def seeds_as_prediction(seeds: LabelMap) -> LabelMap:
    """The initial seeds read as a prediction, unlabeled pixels as background."""
    labels = np.where(seeds.labels == IGNORE, np.uint8(0), seeds.labels)
    return LabelMap(labels)


def ablation_configs(cfg: LoopConfig) -> dict:
    """The four arms of the chain ablation built on `cfg`: chain F1 (dynamic
    seed updates) is switched off by w = 0, chain F2 (the random walk) by
    beta gates of 1, which no network-output column passes."""
    inert_walk = replace(cfg.gates, beta_fg=1.0, beta_bg=1.0)
    return {
        "baseline": replace(cfg, w=0.0, gates=inert_walk),
        "baseline+F1": replace(cfg, gates=inert_walk),
        "baseline+F2": replace(cfg, w=0.0),
        "baseline+F1+F2": cfg,
    }


def score_pairs(pairs, n_categories: int):
    """(accu, mIoU, fIoU) of the confusion summed over `(pred, gt)` pairs,
    or None when no pixel is scored."""
    check_int("n_categories", n_categories)
    if not 1 <= n_categories <= IGNORE:  # uint8 ids 0..C-1 below IGNORE
        raise InvalidParams(f"n_categories must lie in [1, {IGNORE}], got {n_categories}")
    total = np.zeros((n_categories, n_categories), dtype=np.int64)
    for pred, gt in pairs:
        total += confusion(pred, gt, n_categories)
    return scores(total) if total.sum() > 0 else None


def format_scores(result) -> str:
    """The `accu=... mIoU=... fIoU=...` line every scoring command prints."""
    accu, miou, fiou = result
    return f"accu={accu:.4f} mIoU={miou:.4f} fIoU={fiou:.4f}"


def score_scenes(scenes, cfg: LoopConfig):
    """Run the closed loop on in-memory `(image, gt, seeds)` scenes and score
    the predictions as `score_pairs` does."""
    return score_pairs(
        ((run_closed_loop(img, seeds, cfg, gt)[0], gt) for img, gt, seeds in scenes),
        cfg.n_categories,
    )


def run_dataset(dir_in, cfg: LoopConfig, dir_out):
    """Run the loop over every scene in `dir_in`, writing its prediction and
    trace into `dir_out`. Returns (accu, mIoU, fIoU) of the confusion matrix
    summed across images, or None when no image has ground truth."""
    ids = scene_ids(dir_in)  # every scene's seeds, before any output is written
    make_dir(dir_out)

    def scored():
        for scene_id in ids:
            image, gt, seeds = load_scene(dir_in, scene_id)
            pred, _, trace = run_closed_loop(image, seeds, cfg, gt)
            save_outputs(dir_out, scene_id, pred, trace.lines())
            if gt is not None:
                yield pred, gt

    return score_pairs(scored(), cfg.n_categories)
