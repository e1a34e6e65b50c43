"""Toy pluggable segmenter: a per-superpixel linear softmax classifier
trained with full-batch gradient descent on mixed seeds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NoLabeledRegions, ShapeMismatch
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


def loss_and_grad(model: LinearSegmenter, feats: np.ndarray, mixed: SeedState, l2: float):
    """Cross-entropy over labeled columns (nonzero sum, renormalized) plus an
    `l2` penalty on the weights; returns (loss, grad_w, grad_b)."""
    if mixed.n_regions != feats.shape[0]:
        raise ShapeMismatch("seed state and features disagree on region count")
    col_mass = mixed.probs.sum(axis=0)
    labeled = col_mass > 0
    n_lab = int(labeled.sum())
    if n_lab == 0:
        raise NoLabeledRegions("mixed seed labels no superpixel")
    y = mixed.probs[:, labeled] / col_mass[labeled][None, :]
    f = feats[labeled, :]  # (L, D)
    logits = model.weights.T @ f.T + model.bias[:, None]
    p = _softmax_columns(logits)
    loss = float(
        -(y * np.log(np.maximum(p, 1e-300))).sum() / n_lab
        + l2 * (model.weights**2).sum()
    )
    delta = (p - y) / n_lab  # (C, L)
    grad_w = f.T @ delta.T + 2.0 * l2 * model.weights
    grad_b = delta.sum(axis=1)
    return loss, grad_w, grad_b


def train_epochs(
    model: LinearSegmenter,
    feats: np.ndarray,
    mixed: SeedState,
    epochs: int,
    learning_rate: float,
    l2: float,
) -> float:
    """Full-batch gradient descent, `epochs` steps of `learning_rate` on the
    `l2`-penalized loss; mutates the model and returns the loss before the first."""
    if epochs < 1:
        raise InvalidParams("epochs must be >= 1")
    losses = []
    for _ in range(epochs):
        loss, grad_w, grad_b = loss_and_grad(model, feats, mixed, l2)
        losses.append(loss)
        model.weights = model.weights - learning_rate * grad_w
        model.bias = model.bias - learning_rate * grad_b
    return losses[0]

