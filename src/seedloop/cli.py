"""Command-line interface: `seedloop <subcommand>`."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import DimOverflow, EmptyConfusion, MissingFile, SeedloopError, ShapeMismatch
from .features import load_external_features, standardize, superpixel_features
from .pipeline import (
    LoopConfig,
    format_scores,
    parse_config,
    run_closed_loop,
    run_dataset,
    score_pairs,
)
from .relgraph import RelationshipMatrix, _check_top_m, build_relationship
from .seeds import GateParams, SeedState, _check_steps, custom_walk
from .superpixel import (
    SegParams,
    SuperpixelMap,
    _check_max_regions,
    _components,
    felzenszwalb,
    rag_merge,
)
from .tensorio import (
    SynthParams,
    gen_synthetic,
    load_label_pgm,
    load_ppm,
    load_tensor,
    make_dir,
    prediction_pairs,
    save_outputs,
    save_scene,
    save_tensor,
)


def _spmap_from_tensor(arr: np.ndarray) -> SuperpixelMap:
    if arr.ndim != 2 or arr.dtype != np.uint16:
        raise ShapeMismatch("superpixel tensor must be u16 [H, W]")
    spmap = SuperpixelMap(arr.astype(np.int32))
    # a count, not the ids: a map numbered out of scan order is still accepted
    if _components(spmap.region_of).max() + 1 != spmap.n_regions:
        raise ShapeMismatch("every superpixel region must be 4-connected")
    return spmap


def _add_fields(p, cls):
    """One `--field-name` flag per field of `cls`, typed and defaulted by the
    field's default value."""
    for f in fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def _cmd_synth(args):
    scenes = gen_synthetic(args.seed, args.count, SynthParams(args.width, args.height))
    make_dir(args.out_dir)  # only once the parameters are accepted
    for i, scene in enumerate(scenes):
        save_scene(args.out_dir, f"{i:04d}", *scene)
    print(f"wrote {len(scenes)} scenes to {args.out_dir}")


def _cmd_superpix(args):
    params = _from_args(SegParams, args)
    _check_max_regions(args.max_regions)
    image = load_ppm(args.image)
    raw = felzenszwalb(image, params)
    spmap = rag_merge(raw, image, params.merge_thresh, args.max_regions, _stats=raw._stats)
    if spmap.n_regions > 1 << 16:
        raise DimOverflow(f"{spmap.n_regions} regions do not fit u16 ids")
    save_tensor(spmap.region_of.astype(np.uint16), args.out)
    print(f"{spmap.n_regions} regions -> {args.out}")


def _cmd_features(args):
    spmap = _spmap_from_tensor(load_tensor(args.sp))
    if args.external:
        raw = load_external_features(args.external, spmap.n_regions)
    else:
        raw = superpixel_features(load_ppm(args.image), spmap)
    feats = standardize(raw)
    save_tensor(feats.astype(np.float32), args.out)
    print(f"features {list(feats.shape)} -> {args.out}")


def _cmd_relmat(args):
    _check_top_m(args.topk)
    spmap = _spmap_from_tensor(load_tensor(args.sp))
    feats = standardize(load_external_features(args.features, spmap.n_regions))
    rel = build_relationship(feats, spmap, args.topk)
    save_tensor(rel.m_rel.astype(np.uint8), args.out)
    print(f"relationship [{spmap.n_regions}, {spmap.n_regions}] -> {args.out}")


def _cmd_walk(args):
    gates = _from_args(GateParams, args)
    _check_steps(args.steps)
    seeds = SeedState(load_tensor(args.seeds).astype(np.float64))
    n_out = SeedState(load_tensor(args.netout).astype(np.float64))
    m_rel = load_tensor(args.rel)
    if m_rel.dtype != np.uint8:
        raise ShapeMismatch("relationship tensor must be u8 [N, N]")
    rel = RelationshipMatrix(m_rel.astype(np.float64))  # checks the shape and 0/1 entries
    mixed = custom_walk(seeds, rel, n_out, gates, args.steps, strict=args.strict_eq3)
    save_tensor(mixed.probs.astype(np.float32), args.out)
    print(f"mixed seed [{mixed.n_categories}, {mixed.n_regions}] -> {args.out}")


def _cmd_eval(args):
    def pairs():  # read as score_pairs iterates, after its --classes check
        if args.pred and args.gt:
            paths = [(args.pred, args.gt)]
        elif args.pred_dir and args.gt_dir:
            paths = prediction_pairs(args.pred_dir, args.gt_dir)
        else:
            raise MissingFile("need --pred/--gt or --pred-dir/--gt-dir")
        for pred, gt in paths:
            yield load_label_pgm(pred), load_label_pgm(gt)

    result = score_pairs(pairs(), args.classes)
    if result is None:
        raise EmptyConfusion("confusion matrix has no counts")
    print(format_scores(result))


def _cmd_loop(args):
    cfg = parse_config(args.config) if args.config else LoopConfig()
    image = load_ppm(args.image)
    seeds = load_label_pgm(args.seeds)
    gt = load_label_pgm(args.gt) if args.gt else None
    pred, _, trace = run_closed_loop(image, seeds, cfg, gt)
    make_dir(args.out_dir)  # only once the inputs are accepted
    stem = os.path.splitext(os.path.basename(args.image))[0]
    save_outputs(args.out_dir, stem, pred, trace.lines())
    result = None if gt is None else score_pairs([(pred, gt)], cfg.n_categories)
    if result is not None:
        print(format_scores(result))


def _cmd_run(args):
    cfg = parse_config(args.config) if args.config else LoopConfig()
    result = run_dataset(args.data_dir, cfg, args.out_dir)
    if result is not None:
        print(format_scores(result))


def build_parser():
    parser = argparse.ArgumentParser(prog="seedloop")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    loop_defaults, synth_defaults = LoopConfig(), SynthParams()

    p = sub.add_parser("synth", help="generate synthetic scenes")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--width", type=int, default=synth_defaults.width)
    p.add_argument("--height", type=int, default=synth_defaults.height)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("superpix", help="compute superpixels")
    p.add_argument("--image", required=True)
    _add_fields(p, SegParams)
    p.add_argument("--max-regions", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_superpix)

    p = sub.add_parser("features", help="compute per-superpixel descriptors")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--image")
    source.add_argument("--external")
    p.add_argument("--sp", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("relmat", help="build the relationship matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--sp", required=True)
    p.add_argument("--topk", type=int, default=loop_defaults.topk)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_relmat)

    p = sub.add_parser("walk", help="customized random walk producing mixed seeds")
    p.add_argument("--seeds", required=True)
    p.add_argument("--netout", required=True)
    p.add_argument("--rel", required=True)
    p.add_argument("--steps", type=int, default=loop_defaults.walk_steps)
    _add_fields(p, GateParams)
    p.add_argument("--strict-eq3", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred")
    p.add_argument("--gt")
    p.add_argument("--pred-dir")
    p.add_argument("--gt-dir")
    p.add_argument("--classes", type=int, required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("loop", help="run the closed loop on one image")
    p.add_argument("--image", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--gt")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_loop)

    p = sub.add_parser("run", help="run the closed loop over a dataset directory")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def run_subcommand(parser, argv=None):
    """Parse `argv` with `parser` and call the chosen subcommand's `func`; a
    SeedloopError becomes one `error: <Class>: <message>` line on stderr.
    Returns the exit code, 0 or 1."""
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except SeedloopError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    return run_subcommand(build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
