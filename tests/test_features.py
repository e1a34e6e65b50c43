import numpy as np
import pytest

from perfbench.workloads import WORKLOADS
from seedloop import (
    SynthParams,
    felzenszwalb,
    gen_synthetic,
    load_external_features,
    rag_merge,
    superpixel_features,
)
from seedloop.errors import DimensionMismatch, ShapeMismatch
from seedloop.features import N_ORIENT_BINS, standardize
from seedloop.superpixel import SuperpixelMap, _region_sums
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


def _reference_superpixel_features(image, spmap):
    """The vectorised numpy bank: one np.bincount per sum, the magnitude
    from np.hypot over the whole image."""
    n = spmap.n_regions
    flat = spmap.region_of.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    pix = image.data.reshape(-1, 3).astype(np.float64)

    raw = np.zeros((n, 7 + N_ORIENT_BINS))
    for c in range(3):
        s1 = np.bincount(flat, weights=pix[:, c], minlength=n)
        s2 = np.bincount(flat, weights=pix[:, c] ** 2, minlength=n)
        mean = s1 / counts
        var = np.maximum(s2 / counts - mean**2, 0.0)
        raw[:, c] = mean
        raw[:, 3 + c] = np.sqrt(var)

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


def _assert_same_bytes(image, spmap):
    got = superpixel_features(image, spmap)
    want = _reference_superpixel_features(image, spmap)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_features_byte_identical_to_reference_on_workload_scenes(name):
    w = WORKLOADS[name]
    for img, _, _ in gen_synthetic(w.scene_seed, w.count, SynthParams(w.size, w.size)):
        raw = felzenszwalb(img, w.cfg.seg)
        merged = rag_merge(raw, img, w.cfg.seg.merge_thresh)
        _assert_same_bytes(img, raw)
        _assert_same_bytes(img, merged)


# along a side of 2 pixels np.gradient has no interior: both ends take the
# one-sided difference
def test_features_byte_identical_to_reference_on_random_images(rng):
    for h, w in [(1, 1), (1, 9), (9, 1), (2, 2), (2, 9), (9, 2), (17, 23), (40, 33)]:
        for n_values in (1, 3, 40):
            img = make_image(rng.integers(0, 256, size=(h, w, 3)))
            _assert_same_bytes(img, random_spmap(rng, h, w, n_values))


def _edge_gradient_images():
    """Gray ramps whose gradients lie on orientation bin edges: gx == gy,
    gx == -gy, gx == 0 and gy == 0, and a two-level checkerboard on which
    every interior gradient is zero; each with the (gx, gy) test it meets."""
    y, x = np.mgrid[:9, :11]
    for gray, holds in (
        (10 * (x + y), lambda gx, gy: gx == gy),
        (10 * (x - y + 10), lambda gx, gy: gx == -gy),
        (20 * y, lambda gx, gy: gx == 0),
        (20 * x, lambda gx, gy: gy == 0),
        (60 * ((x + y) % 2), lambda gx, gy: (gx == 0) & (gy == 0)),
    ):
        yield make_image(np.repeat(gray[:, :, None], 3, axis=2)), holds


def test_features_byte_identical_to_reference_on_bin_edges(rng):
    for img, holds in _edge_gradient_images():
        gray = img.data.astype(np.float64).sum(axis=2) / 3.0
        gy, gx = np.gradient(gray)
        assert holds(gx[1:-1, 1:-1], gy[1:-1, 1:-1]).all()
        for n_values in (1, 4):
            _assert_same_bytes(img, random_spmap(rng, img.height, img.width, n_values))
        _assert_same_bytes(img, SuperpixelMap(np.arange(99, dtype=np.int32).reshape(9, 11)))


def _reachable_gradients():
    """Every |gx| (or |gy|) a u8 image can give: gray levels are s / 3 for s
    in 0..765, and np.gradient takes half the difference of two of them
    inside the image and the whole difference at a border."""
    third = np.arange(766) / 3.0
    d = np.unique(np.abs(third[:, None] - third[None, :]))
    return np.unique(np.concatenate([d, d / 2]))


def test_native_magnitude_equals_np_hypot_on_every_reachable_pair():
    values = _reachable_gradients()
    assert len(values) == 3436
    rows = 256  # gx values per chunk, each against every gy value
    for start in range(0, len(values), rows):
        gx, gy = np.meshgrid(values[start : start + rows], values, indexing="ij")
        m = gx.size
        spmap = SuperpixelMap(np.arange(m).reshape(1, m))  # one region per pixel
        image = make_image(np.zeros((1, m, 3)))
        # with one bin every orientation falls in bin 0
        _, _, _, mag, hist = _region_sums(spmap, image, gx, gy, np.zeros(m), 1)
        assert mag.tobytes() == np.hypot(gx, gy).ravel().tobytes()
        assert (hist == 1).all()


def _native_magnitudes(gx, gy):
    """region_sums' magnitude of each (gx, gy) pair, one region a pixel."""
    m = gx.size
    spmap = SuperpixelMap(np.arange(m).reshape(1, m))
    image = make_image(np.zeros((1, m, 3)))
    return _region_sums(spmap, image, gx, gy, np.zeros(m), 1)[3]


def test_native_magnitude_equals_np_hypot_on_signed_pairs():
    # np.gradient gives signed gx and gy. Every fourth chunk of the reachable
    # grid, under all four sign pairs and in both orders, with -0.0 among the
    # values; a zero takes glibc's ax + ay path
    values = np.concatenate([[-0.0], _reachable_gradients()])
    assert values[1] == 0.0 and np.signbit(values[0])
    rows = 256
    for start in range(0, len(values), 4 * rows):
        gx, gy = np.meshgrid(values[start : start + rows], values, indexing="ij")
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            want = np.hypot(sx * gx, sy * gy).ravel()
            for a, b in ((sx * gx, sy * gy), (sy * gy, sx * gx)):
                assert _native_magnitudes(a, b).tobytes() == want.tobytes()


def test_native_magnitude_equals_np_hypot_past_the_u8_range():
    # the paths no u8 image reaches: both scalings, subnormals, overflow to
    # inf, inf and NaN; random bit patterns of every sign and exponent, half
    # of them paired with a value within 2^60 of the first
    rng = np.random.default_rng(5)
    gx, far = rng.integers(0, 2**64, size=(2, 100_000), dtype=np.uint64).view(np.float64)
    exps = rng.integers(-60, 60, size=gx.size)
    with np.errstate(over="ignore"):  # some overflow to inf
        near = np.ldexp(np.where(np.isfinite(gx), gx, 1.0), exps)
    gy = np.where(rng.random(gx.size) < 0.5, far, near)
    special = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.0**-1022, np.nextafter(2.0**-511, 0),
        2.0**-511, 2.0**511, np.nextafter(2.0**511, np.inf), np.finfo(np.float64).max,
    ])
    sx, sy = np.meshgrid(special, special)
    gx, gy = np.concatenate([gx, sx.ravel()]), np.concatenate([gy, sy.ravel()])
    with np.errstate(over="ignore", invalid="ignore"):  # a signaling NaN is invalid
        want = np.hypot(gx, gy)
    assert np.isnan(gx).any() and np.isinf(want).sum() > len(special)
    # of two NaNs, x + y keeps the payload of whichever operand the compiler
    # put first, so a NaN is held to being NaN only
    got, nan = _native_magnitudes(gx, gy), np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


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
