"""Per-superpixel descriptors: a 15-dim handcrafted bank over color and gradients.

Stands in for CNN features; an external-tensor loader lets callers plug in
their own descriptors as long as row i matches region i. Features are a raw
(n_regions, dims) float64 array; `standardize` z-scores them where a caller
chooses the scaling (per scene in the closed loop).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch
from .superpixel import SuperpixelMap, _gradients, _region_sums
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
    8-bin gradient-orientation histogram (8), unscaled.

    The gradients are np.gradient's central differences of the (R+G+B)/3
    gray level, one-sided at the borders and zero along a 1-pixel side; an
    orientation np.arctan2(gy, gx) in [-pi, pi] falls in bin
    (theta + pi) / (2 pi) * 8, truncated and clamped to 0..7."""
    if (spmap.height, spmap.width) != (image.height, image.width):
        raise DimensionMismatch("image and superpixel map dimensions differ")
    counts, sums, squares, mag, hist = _region_sums(
        spmap, image, *_gradients(image), N_ORIENT_BINS
    )
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
