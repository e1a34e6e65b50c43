import numpy as np
import pytest

from seedloop import LabelMap, RasterImage
from seedloop.superpixel import SuperpixelMap, _components


def make_image(arr):
    return RasterImage(np.asarray(arr, dtype=np.uint8))


def make_labels(arr):
    return LabelMap(np.asarray(arr, dtype=np.uint8))


def random_spmap(rng, h=6, w=6, n_values=4):
    """Valid SuperpixelMap from random pixel values split into 4-connected
    components with scan-order contiguous ids."""
    return SuperpixelMap(_components(rng.integers(0, n_values, size=(h, w))))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
