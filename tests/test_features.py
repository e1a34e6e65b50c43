import numpy as np
import pytest

from seedloop import load_external_features, superpixel_features
from seedloop.errors import DimensionMismatch, ShapeMismatch
from seedloop.features import N_ORIENT_BINS, standardize
from seedloop.superpixel import SuperpixelMap
from seedloop.tensorio import save_tensor
from tests.conftest import make_image, random_spmap


def brute_force_features(image, spmap):
    """Independent straight-line recomputation of the raw descriptor bank."""
    h, w = image.height, image.width
    gray = image.data.astype(np.float64).sum(axis=2) / 3.0
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if 0 < x < w - 1:
                gx[y, x] = (gray[y, x + 1] - gray[y, x - 1]) / 2
            elif x == 0 and w > 1:
                gx[y, x] = gray[y, 1] - gray[y, 0]
            elif w > 1:
                gx[y, x] = gray[y, -1] - gray[y, -2]
            if 0 < y < h - 1:
                gy[y, x] = (gray[y + 1, x] - gray[y - 1, x]) / 2
            elif y == 0 and h > 1:
                gy[y, x] = gray[1, x] - gray[0, x]
            elif h > 1:
                gy[y, x] = gray[-1, x] - gray[-2, x]
    raw = np.zeros((spmap.n_regions, 15))
    for rid in range(spmap.n_regions):
        ys, xs = np.nonzero(spmap.region_of == rid)
        px = image.data[ys, xs].astype(np.float64)
        raw[rid, 0:3] = px.mean(axis=0)
        raw[rid, 3:6] = px.std(axis=0)
        mags = np.hypot(gx[ys, xs], gy[ys, xs])
        raw[rid, 6] = mags.mean()
        hist = np.zeros(N_ORIENT_BINS)
        for y, x in zip(ys, xs):
            theta = np.arctan2(gy[y, x], gx[y, x])
            b = min(int((theta + np.pi) / (2 * np.pi) * N_ORIENT_BINS), N_ORIENT_BINS - 1)
            hist[b] += 1
        raw[rid, 7:] = hist / hist.sum()
    return raw


def test_constant_image_all_zero(rng):
    img = make_image(np.full((6, 6, 3), 77))
    spmap = random_spmap(rng)
    raw = superpixel_features(img, spmap)
    assert spmap.n_regions > 1 and (raw == raw[0]).all()  # every region alike
    assert np.array_equal(standardize(raw), np.zeros_like(raw))


def test_two_region_color_symmetry():
    arr = np.zeros((2, 2, 3), dtype=np.uint8)
    arr[:, 0, 0] = 255  # left column pure red
    arr[:, 1, 2] = 255  # right column pure blue
    spmap = SuperpixelMap(np.array([[0, 1], [0, 1]], dtype=np.int32))
    feats = standardize(superpixel_features(make_image(arr), spmap))
    red_mean, blue_mean = feats[:, 0], feats[:, 2]
    assert red_mean[0] == pytest.approx(-blue_mean[0])
    assert red_mean[0] == pytest.approx(-red_mean[1])


def test_matches_brute_force_oracle(rng):
    # 1-pixel sides take the zero-gradient branch of both implementations
    for h, w in [(6, 6), (1, 7), (7, 1), (1, 1)]:
        img = make_image(rng.integers(0, 256, size=(h, w, 3)))
        spmap = random_spmap(rng, h, w, 3)
        feats = superpixel_features(img, spmap)
        oracle = brute_force_features(img, spmap)
        assert feats.shape == (spmap.n_regions, 15) and feats.dtype == np.float64
        assert np.allclose(feats, oracle, atol=1e-10), (h, w)


def test_dimension_mismatch(rng):
    img = make_image(rng.integers(0, 256, size=(4, 4, 3)))
    spmap = random_spmap(rng, 6, 6)
    with pytest.raises(DimensionMismatch):
        superpixel_features(img, spmap)


@pytest.mark.parametrize("rows", [3, 7])
def test_standardize_zeroes_constant_column_whose_std_rounds_above_zero(rows):
    # the mean of 0.1 repeated does not round back to 0.1, so std > 0
    values = np.full((rows, 1), 0.1)
    assert values.std(axis=0)[0] > 0
    assert np.array_equal(standardize(values), np.zeros_like(values))


def test_standardization_idempotent(rng):
    v = rng.standard_normal((10, 5))
    v[:, 2] = 3.5  # zero variance
    once = standardize(v)
    twice = standardize(once.copy())
    assert np.allclose(once, twice, atol=1e-6)
    assert np.array_equal(once[:, 2], np.zeros(10))
    nonconst = once.std(axis=0) > 0
    assert nonconst.sum() == 4
    assert np.abs(once.mean(axis=0)).max() < 1e-9
    assert np.allclose(once.std(axis=0)[nonconst], 1.0)


def test_external_features_roundtrip(tmp_path, rng):
    arr = rng.standard_normal((8, 64)).astype(np.float32)
    save_tensor(arr, tmp_path / "f.dfnt")
    feats = load_external_features(tmp_path / "f.dfnt", 8)
    assert feats.shape == (8, 64) and feats.dtype == np.float64
    assert np.array_equal(feats, arr.astype(np.float64))  # unscaled


def test_external_features_shape_mismatch(tmp_path, rng):
    arr = rng.standard_normal((9, 64)).astype(np.float32)
    save_tensor(arr, tmp_path / "f.dfnt")
    with pytest.raises(ShapeMismatch):
        load_external_features(tmp_path / "f.dfnt", 8)


def test_permutation_equivariance(rng):
    img = make_image(rng.integers(0, 256, size=(6, 6, 3)))
    spmap = random_spmap(rng, 6, 6, 3)
    perm = rng.permutation(spmap.n_regions)
    permuted = SuperpixelMap(perm[spmap.region_of].astype(np.int32))
    a = superpixel_features(img, spmap)
    b = superpixel_features(img, permuted)
    # region r of the original carries id perm[r] in the permuted map
    assert np.allclose(a, b[perm], atol=1e-12)
