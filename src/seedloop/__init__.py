"""Closed-loop weakly-supervised segmentation toolkit."""

from .features import load_external_features, superpixel_features
from .metrics import confusion, scores
from .pipeline import LoopConfig, parse_config, run_closed_loop, run_dataset
from .relgraph import RelationshipMatrix, build_relationship
from .seeds import (
    ConvergenceParams,
    GateParams,
    SeedState,
    convergence_check,
    custom_walk,
    labels_from_state,
    seed_update,
)
from .segmenter import LinearSegmenter, labeled_targets, loss_and_grad, predict, train_epochs
from .superpixel import SegParams, SuperpixelMap, felzenszwalb, rag_merge
from .tensorio import (
    IGNORE,
    LabelMap,
    RasterImage,
    SynthParams,
    gen_synthetic,
    load_label_pgm,
    load_ppm,
    load_tensor,
    save_label_pgm,
    save_ppm,
    save_tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
