#!/usr/bin/env python3
"""Experiments on the synthetic benchmark.

  loop      run the closed loop and compare it with the seeds alone
  ablation  switch off the seed-update chain (w=0) and the walk-expansion
            chain (beta gates=1): baseline / +F1 / +F2 / +F1+F2
  sweep     sweep the seed-update rate w
"""

import argparse
import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from seedloop import LoopConfig, gen_synthetic, parse_config, run_closed_loop
from seedloop.cli import run_subcommand
from seedloop.pipeline import (
    ablation_configs,
    format_scores,
    score_pairs,
    score_scenes,
    seeds_as_prediction,
)


def loop(args):
    cfg = parse_config(args.config) if args.config else LoopConfig()
    scenes = gen_synthetic(args.seed, args.count)

    def looped():
        for i, (img, gt, seeds) in enumerate(scenes):
            pred, _, trace = run_closed_loop(img, seeds, cfg, gt)
            stop = trace.stopped_at if trace.stopped_at is not None else "-"
            print(f"scene {i:03d}: epochs={len(trace.epochs)} stopped_at={stop}")
            yield pred, gt

    loop_scores = score_pairs(looped(), cfg.n_categories)
    seed_pairs = ((seeds_as_prediction(seeds), gt) for _img, gt, seeds in scenes)
    seed_scores = score_pairs(seed_pairs, cfg.n_categories)
    for name, result in (("seeds-only", seed_scores), ("closed-loop", loop_scores)):
        print(f"{name:12s} {format_scores(result)}")


def ablation(args):
    scenes = gen_synthetic(args.seed, args.count)
    for name, cfg in ablation_configs(LoopConfig()).items():
        print(f"{name:16s} {format_scores(score_scenes(scenes, cfg))}")


def sweep(args):
    cfgs = [dataclasses.replace(LoopConfig(), w=w) for w in args.values]
    scenes = gen_synthetic(args.seed, args.count)
    for cfg in cfgs:
        print(f"w={cfg.w:.2f} {format_scores(score_scenes(scenes, cfg))}")


def build_parser():
    scene_set = argparse.ArgumentParser(add_help=False)
    scene_set.add_argument("--seed", type=int, default=7)
    scene_set.add_argument("--count", type=int, default=20)
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("loop", parents=[scene_set])
    p.add_argument("--config", default=None)
    p.set_defaults(func=loop)
    p = sub.add_parser("ablation", parents=[scene_set])
    p.set_defaults(func=ablation)
    p = sub.add_parser("sweep", parents=[scene_set])
    p.add_argument("--values", type=float, nargs="+", default=[0.1, 0.2, 0.3, 0.4])
    p.set_defaults(func=sweep)
    return parser


def main(argv=None):
    return run_subcommand(build_parser(), argv)


if __name__ == "__main__":
    sys.exit(main())
