"""Toy pluggable segmenter: a per-superpixel linear softmax classifier
trained with full-batch gradient descent on mixed seeds."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoLabeledRegions, ShapeMismatch, TrainingDiverged, check_int
from .seeds import SeedState


@dataclass
class LinearSegmenter:
    """weights (D, C), bias (C,), zeros when not given; sizes are read from
    the weights. The training hyperparameters are the caller's."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        if self.weights.ndim != 2:
            raise ShapeMismatch(
                f"weights must be [features, categories], got {list(self.weights.shape)}"
            )
        if self.bias is None:
            self.bias = np.zeros(self.n_categories)
        if self.bias.shape != (self.n_categories,):
            raise ShapeMismatch(
                f"bias must be [{self.n_categories}], got {list(self.bias.shape)}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise InvalidParams("model parameters must be finite")

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def n_categories(self) -> int:
        return self.weights.shape[1]


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def predict(model: LinearSegmenter, feats: np.ndarray) -> SeedState:
    """Column j = softmax(W^T f_j + b) for feature row j; every column sums to 1."""
    if feats.shape[1] != model.n_features:
        raise ShapeMismatch(
            f"feature dims {feats.shape[1]} != model dims {model.n_features}"
        )
    logits = model.weights.T @ feats.T + model.bias[:, None]
    return SeedState(_softmax_columns(logits))


def labeled_targets(feats: np.ndarray, mixed: SeedState):
    """The labeled columns' feature rows (L, D) and their targets (C, L): the
    columns of nonzero sum, renormalized."""
    if mixed.n_regions != feats.shape[0]:
        raise ShapeMismatch("seed state and features disagree on region count")
    col_mass = mixed.probs.sum(axis=0)
    labeled = col_mass > 0
    if not labeled.any():
        raise NoLabeledRegions("mixed seed labels no superpixel")
    y = mixed.probs[:, labeled] / col_mass[labeled][None, :]
    return feats[labeled, :], y


def _grad(model: LinearSegmenter, f: np.ndarray, y: np.ndarray, l2: float):
    """(probabilities, grad_w, grad_b) on labeled rows `f` and targets `y`."""
    logits = model.weights.T @ f.T + model.bias[:, None]
    p = _softmax_columns(logits)
    delta = (p - y) / y.shape[1]  # (C, L)
    grad_w = f.T @ delta.T + 2.0 * l2 * model.weights
    grad_b = delta.sum(axis=1)
    return p, grad_w, grad_b


def loss_and_grad(model: LinearSegmenter, f: np.ndarray, y: np.ndarray, l2: float):
    """Cross-entropy of the labeled rows `f` (L, D) against their targets
    `y` (C, L), as `labeled_targets` builds them, plus an `l2` penalty on the
    weights; returns (loss, grad_w, grad_b)."""
    if f.ndim != 2 or f.shape[1] != model.n_features or y.shape != (model.n_categories, len(f)):
        raise ShapeMismatch(
            f"labeled rows {list(f.shape)} and targets {list(y.shape)} do not fit a "
            f"[{model.n_features}, {model.n_categories}] model"
        )
    if len(f) == 0:
        raise NoLabeledRegions("no labeled rows")
    p, grad_w, grad_b = _grad(model, f, y, l2)
    loss = float(
        -(y * np.log(np.maximum(p, 1e-300))).sum() / y.shape[1]
        + l2 * (model.weights**2).sum()
    )
    return loss, grad_w, grad_b


def train_epochs(
    model: LinearSegmenter,
    f: np.ndarray,
    y: np.ndarray,
    epochs: int,
    learning_rate: float,
    l2: float,
) -> float:
    """Full-batch gradient descent on the rows `f` and targets `y` that
    `loss_and_grad` takes: `epochs` steps of `learning_rate` on the loss; mutates
    the model and returns the loss before the first. Only the first step goes
    through `loss_and_grad`; the later ones take the gradient alone.

    Raises TrainingDiverged when that loss, or the sum of the updated
    weights and bias, is not finite: a step too large for the loss
    overflows them. Once a value is inf or NaN, every later step and every
    sum over it stays so, which lets one check at the end stand for every
    step (numpy still warns of the overflow as it happens)."""
    check_int("epochs", epochs)
    if epochs < 1:
        raise InvalidParams("epochs must be >= 1")
    loss, grad_w, grad_b = loss_and_grad(model, f, y, l2)
    for step in range(epochs):
        if step > 0:
            _, grad_w, grad_b = _grad(model, f, y, l2)
        model.weights = model.weights - learning_rate * grad_w
        model.bias = model.bias - learning_rate * grad_b
    if not math.isfinite(loss + model.weights.sum() + model.bias.sum()):
        raise TrainingDiverged(
            f"training diverged at learning_rate={learning_rate}, l2={l2}: "
            f"the loss ({loss}) or the updated weights or bias are not finite"
        )
    return loss
