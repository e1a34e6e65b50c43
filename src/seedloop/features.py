"""Per-superpixel descriptors: a 15-dim handcrafted bank over color and gradients.

Stands in for CNN features; an external-tensor loader lets callers plug in
their own descriptors as long as row i matches region i. Features are a raw
(n_regions, dims) float64 array; `standardize` z-scores them where a caller
chooses the scaling (per scene in the closed loop).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .superpixel import SuperpixelMap
from .tensorio import RasterImage, load_tensor

N_ORIENT_BINS = 8


def standardize(values: np.ndarray) -> np.ndarray:
    """Z-score each column; columns with zero variance become all-zero."""
    centered = values - values.mean(axis=0)
    std = values.std(axis=0)
    return np.divide(centered, std, out=np.zeros_like(centered), where=std > 0)


def superpixel_features(image: RasterImage, spmap: SuperpixelMap) -> np.ndarray:
    """Mean/std per RGB channel (6), mean gradient magnitude (1), and an
    8-bin gradient-orientation histogram (8), unscaled."""
    if (spmap.height, spmap.width) != (image.height, image.width):
        raise DimensionMismatch("image and superpixel map dimensions differ")
    n = spmap.n_regions
    flat = spmap.region_of.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    pix = image.data.reshape(-1, 3).astype(np.float64)

    raw = np.zeros((n, 15))
    for c in range(3):
        s1 = np.bincount(flat, weights=pix[:, c], minlength=n)
        s2 = np.bincount(flat, weights=pix[:, c] ** 2, minlength=n)
        mean = s1 / counts
        var = np.maximum(s2 / counts - mean**2, 0.0)
        raw[:, c] = mean
        raw[:, 3 + c] = np.sqrt(var)

    # central differences of (R+G+B)/3 grayscale, one-sided at the borders;
    # np.gradient needs two samples, so a 1-pixel side has zero gradient
    gray = image.data.astype(np.float64).sum(axis=2) / 3.0
    gy, gx = (
        np.gradient(gray, axis=a) if gray.shape[a] > 1 else np.zeros_like(gray) for a in (0, 1)
    )
    mag = np.hypot(gx, gy).ravel()
    raw[:, 6] = np.bincount(flat, weights=mag, minlength=n) / counts

    theta = np.arctan2(gy, gx).ravel()  # [-pi, pi]
    bins = np.clip(
        ((theta + np.pi) / (2 * np.pi) * N_ORIENT_BINS).astype(np.int64),
        0,
        N_ORIENT_BINS - 1,
    )
    hist = np.bincount(flat * N_ORIENT_BINS + bins, minlength=n * N_ORIENT_BINS)
    raw[:, 7:] = hist.reshape(n, N_ORIENT_BINS) / counts[:, None]

    return raw


def load_external_features(path, n_regions: int) -> np.ndarray:
    """Load a DFNT f32 [N, D] tensor as unscaled float64 descriptors."""
    arr = load_tensor(path)
    if arr.dtype != np.float32 or arr.ndim != 2:
        raise ShapeMismatch("features must be an f32 [N, D] tensor")
    if arr.shape[0] != n_regions:
        raise ShapeMismatch(
            f"feature rows {arr.shape[0]} != n_regions {n_regions}"
        )
    return arr.astype(np.float64)
