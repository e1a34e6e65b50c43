"""Per-superpixel descriptors: a 15-dim handcrafted bank over color and gradients.

Stands in for CNN features; an external-tensor loader lets callers plug in
their own descriptors as long as row i matches region i. Features are a raw
(n_regions, dims) float64 array; `standardize` z-scores them where a caller
chooses the scaling (per scene in the closed loop).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .superpixel import SuperpixelMap, _region_sums
from .tensorio import RasterImage, load_tensor

N_ORIENT_BINS = 8


def standardize(values: np.ndarray) -> np.ndarray:
    """Z-score each column; a column of equal values becomes all-zero."""
    centered = values - values.mean(axis=0)
    std = values.std(axis=0)
    varies = (values.max(axis=0) > values.min(axis=0)) & (std > 0)
    return np.divide(centered, std, out=np.zeros_like(centered), where=varies)


def superpixel_features(image: RasterImage, spmap: SuperpixelMap) -> np.ndarray:
    """Mean/std per RGB channel (6), mean gradient magnitude (1), and an
    8-bin gradient-orientation histogram (8), unscaled."""
    if (spmap.height, spmap.width) != (image.height, image.width):
        raise DimensionMismatch("image and superpixel map dimensions differ")
    # central differences of (R+G+B)/3 grayscale, one-sided at the borders;
    # np.gradient needs two samples, so a 1-pixel side has zero gradient.
    # The uint16 channel sum is exact, so gray equals the float64 sum / 3
    rgb = image.data
    gray = (rgb[..., 0].astype(np.uint16) + rgb[..., 1] + rgb[..., 2]) / 3.0
    gy, gx = (
        np.gradient(gray, axis=a) if gray.shape[a] > 1 else np.zeros_like(gray) for a in (0, 1)
    )
    theta = np.arctan2(gy, gx)  # [-pi, pi]
    bins = np.clip(
        ((theta + np.pi) / (2 * np.pi) * N_ORIENT_BINS).astype(np.int64),
        0,
        N_ORIENT_BINS - 1,
    )
    counts, sums, squares, mag, hist = _region_sums(spmap, image, gx, gy, bins, N_ORIENT_BINS)
    n_px = counts[:, None]
    mean = sums / n_px
    std = np.sqrt(np.maximum(squares / n_px - mean**2, 0.0))
    return np.hstack([mean, std, mag[:, None] / n_px, hist / n_px])


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
