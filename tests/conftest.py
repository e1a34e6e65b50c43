import numpy as np
import pytest

from seedloop import LabelMap, RasterImage
from seedloop.superpixel import SuperpixelMap, _split_disconnected


def make_image(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    return RasterImage(arr.shape[1], arr.shape[0], arr)


def make_labels(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    return LabelMap(arr.shape[1], arr.shape[0], arr)


def random_spmap(rng, h=6, w=6, n_values=4):
    """Valid SuperpixelMap from random pixel values split into 4-connected
    components with scan-order contiguous ids."""
    raw = rng.integers(0, n_values, size=(h, w))
    region_of, n = _split_disconnected(raw, h, w)
    return SuperpixelMap(w, h, region_of, n)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
