"""Toy pluggable segmenter: a per-superpixel linear softmax classifier
trained with full-batch gradient descent on mixed seeds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, NoLabeledRegions, ShapeMismatch
from .features import FeatureMatrix
from .seeds import SeedState, make_state


@dataclass
class LinearSegmenter:
    """weights (D, C), bias (C,); zero-initialized for bit-stable runs."""

    n_features: int
    n_categories: int
    learning_rate: float = 1e-2
    l2: float = 1e-3
    weights: np.ndarray = field(default=None)
    bias: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.weights is None:
            self.weights = np.zeros((self.n_features, self.n_categories))
        if self.bias is None:
            self.bias = np.zeros(self.n_categories)
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise InvalidParams("model parameters must be finite")


def _softmax_columns(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def predict(model: LinearSegmenter, feats: FeatureMatrix) -> SeedState:
    """Column j = softmax(W^T f_j + b); every column sums to 1."""
    if feats.dims != model.n_features:
        raise ShapeMismatch(
            f"feature dims {feats.dims} != model dims {model.n_features}"
        )
    logits = model.weights.T @ feats.values.T + model.bias[:, None]
    return make_state(_softmax_columns(logits))


def loss_and_grad(model: LinearSegmenter, feats: FeatureMatrix, mixed: SeedState):
    """Cross-entropy over labeled columns (nonzero sum, renormalized) plus an
    l2 penalty on the weights; returns (loss, grad_w, grad_b)."""
    if mixed.n_regions != feats.n_regions:
        raise ShapeMismatch("seed state and features disagree on region count")
    col_mass = mixed.probs.sum(axis=0)
    labeled = col_mass > 0
    n_lab = int(labeled.sum())
    if n_lab == 0:
        raise NoLabeledRegions("mixed seed labels no superpixel")
    y = mixed.probs[:, labeled] / col_mass[labeled][None, :]
    f = feats.values[labeled, :]  # (L, D)
    logits = model.weights.T @ f.T + model.bias[:, None]
    p = _softmax_columns(logits)
    loss = float(
        -(y * np.log(np.maximum(p, 1e-300))).sum() / n_lab
        + model.l2 * (model.weights**2).sum()
    )
    delta = (p - y) / n_lab  # (C, L)
    grad_w = f.T @ delta.T + 2.0 * model.l2 * model.weights
    grad_b = delta.sum(axis=1)
    return loss, grad_w, grad_b


def train_epochs(
    model: LinearSegmenter, feats: FeatureMatrix, mixed: SeedState, epochs: int
) -> float:
    """Full-batch gradient descent for `epochs` steps; mutates the model and
    returns the loss before the first step."""
    if epochs < 1:
        raise InvalidParams("epochs must be >= 1")
    losses = []
    for _ in range(epochs):
        loss, grad_w, grad_b = loss_and_grad(model, feats, mixed)
        losses.append(loss)
        model.weights = model.weights - model.learning_rate * grad_w
        model.bias = model.bias - model.learning_rate * grad_b
    return losses[0]


def save_model(model: LinearSegmenter, path) -> None:
    """f32 DFNT tensor dims [D+1, C]: weights stacked over bias."""
    from .tensorio import save_tensor

    stacked = np.vstack([model.weights, model.bias[None, :]]).astype(np.float32)
    save_tensor(stacked, path)


def load_model(path, learning_rate: float = 1e-2, l2: float = 1e-3) -> LinearSegmenter:
    from .tensorio import load_tensor

    arr = load_tensor(path).astype(np.float64)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ShapeMismatch("model tensor must be [D+1, C]")
    return LinearSegmenter(
        arr.shape[0] - 1,
        arr.shape[1],
        learning_rate=learning_rate,
        l2=l2,
        weights=arr[:-1, :],
        bias=arr[-1, :],
    )
