import dataclasses
import functools
import hashlib
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from perfbench.workloads import WORKLOADS
from seedloop import (
    RasterImage,
    SegParams,
    SynthParams,
    felzenszwalb,
    gen_synthetic,
    rag_merge,
    superpixel,
    superpixel_features,
)
from seedloop.cli import _spmap_from_tensor
from seedloop.errors import (
    DimensionMismatch,
    DimOverflow,
    InvalidParams,
    NativeBuildError,
    ShapeMismatch,
)
from seedloop.pipeline import region_label_counts
from seedloop.superpixel import (
    SuperpixelMap,
    _components,
    _region_sums,
    region_edges,
)
from seedloop.tensorio import IGNORE, LabelMap
from tests.conftest import make_image, random_spmap

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def assert_valid_spmap(spmap):
    ids = np.unique(spmap.region_of)
    assert spmap.region_of.max() + 1 == spmap.n_regions
    assert np.array_equal(ids, np.arange(spmap.n_regions))
    for rid in range(spmap.n_regions):
        _, n = ndimage.label(spmap.region_of == rid, structure=_FOUR)
        assert n == 1, f"region {rid} not 4-connected"


def test_constant_image_one_region():
    img = make_image(np.full((32, 32, 3), 128))
    spmap = felzenszwalb(img, SegParams())
    assert spmap.n_regions == 1


def test_half_split_two_regions():
    arr = np.zeros((32, 32, 3), dtype=np.uint8)
    arr[:, 16:, :] = 255
    spmap = felzenszwalb(make_image(arr), SegParams(k=100, sigma=0, min_size=1))
    assert spmap.n_regions == 2
    assert_valid_spmap(spmap)


def test_felzenszwalb_deterministic(rng):
    img = make_image(rng.integers(0, 256, size=(24, 24, 3)))
    a = felzenszwalb(img, SegParams())
    b = felzenszwalb(img, SegParams())
    assert np.array_equal(a.region_of, b.region_of)


def test_felzenszwalb_invariants_random(rng):
    for _ in range(5):
        img = make_image(rng.integers(0, 256, size=(16, 16, 3)))
        spmap = felzenszwalb(img, SegParams(k=50, sigma=0.5, min_size=4))
        assert_valid_spmap(spmap)


def test_bad_params_rejected():
    with pytest.raises(InvalidParams):
        SegParams(k=0)


@pytest.mark.parametrize("sigma", [1e20, 1e300, np.nextafter(1000.0, np.inf)])
def test_sigma_above_its_bound_rejected_before_the_kernel(monkeypatch, sigma):
    # 1e300 raised a bare ValueError from np.arange; 1e8 would build a
    # kernel of gigabytes
    def no_kernel(sigma):
        raise AssertionError("blur kernel built for an unbounded sigma")

    monkeypatch.setattr(superpixel, "_gaussian_kernel", no_kernel)
    img = gen_synthetic(7, 1)[0][0]
    with pytest.raises(InvalidParams):
        felzenszwalb(img, SegParams(sigma=sigma))
    SegParams(sigma=1000.0)  # the bound itself is accepted


@pytest.mark.parametrize(
    "region_of",
    [
        [0, 1, 1],  # not [height, width]
        [[0, 2], [0, 2]],  # id 1 missing
        [[0, -1], [0, 0]],  # negative id
        np.zeros((0, 2)),  # empty
    ],
    ids=["bad_shape", "gap", "negative", "empty"],
)
def test_spmap_rejects_bad_region_map(region_of):
    with pytest.raises(ShapeMismatch):
        SuperpixelMap(np.asarray(region_of, dtype=np.int32))


@pytest.mark.parametrize("dtype", [np.float64, np.bool_])
def test_spmap_rejects_non_integer_ids(dtype):
    with pytest.raises(ShapeMismatch, match="integers"):
        SuperpixelMap(np.array([[0, 1], [0, 1]], dtype=dtype))


@pytest.mark.parametrize("dtype", [np.uint8, np.uint64, np.int64])
def test_spmap_any_integer_ids_give_the_int32_results(rng, dtype):
    img = make_image(rng.integers(0, 256, size=(6, 7, 3)))
    base = random_spmap(rng, 6, 7, 3)
    other = SuperpixelMap(base.region_of.astype(dtype))
    assert superpixel_features(img, other).tobytes() == superpixel_features(img, base).tobytes()
    merged = rag_merge(other, img, 120.0).region_of
    assert np.array_equal(merged, rag_merge(base, img, 120.0).region_of)


def test_rag_merge_thresh_zero_identity(rng):
    img = make_image(rng.integers(0, 256, size=(16, 16, 3)))
    spmap = felzenszwalb(img, SegParams(k=50, min_size=2))
    merged = rag_merge(spmap, img, 0.0)
    assert merged.n_regions == spmap.n_regions
    assert np.array_equal(merged.region_of, spmap.region_of)


def test_rag_merge_identical_means():
    arr = np.full((4, 4, 3), 100, dtype=np.uint8)
    # two hand-made regions with identical means: left/right halves
    region_of = np.zeros((4, 4), dtype=np.int32)
    region_of[:, 2:] = 1
    spmap = SuperpixelMap(region_of)
    merged = rag_merge(spmap, make_image(arr), 1.0)
    assert merged.n_regions == 1


def test_rag_merge_three_region_toy():
    # stripes with means (0,0,0), (10,0,0), (200,0,0); thresh 15 merges the
    # first pair (distance 10) to a weighted mean, leaving the third separate
    arr = np.zeros((2, 6, 3), dtype=np.uint8)
    arr[:, 2:4, 0] = 10
    arr[:, 4:, 0] = 200
    region_of = np.repeat(np.array([[0, 0, 1, 1, 2, 2]], dtype=np.int32), 2, axis=0)
    spmap = SuperpixelMap(region_of)
    merged = rag_merge(spmap, make_image(arr), 15.0)
    assert merged.n_regions == 2
    # merged pair mean is (5,0,0): distance to 200 is 195, stays separate
    assert np.array_equal(np.unique(merged.region_of[:, :4]), [0])
    assert np.array_equal(np.unique(merged.region_of[:, 4:]), [1])


def test_rag_merge_never_increases(rng):
    img = make_image(rng.integers(0, 256, size=(16, 16, 3)))
    spmap = felzenszwalb(img, SegParams(k=50, min_size=2))
    for thresh in (5.0, 25.0, 100.0):
        merged = rag_merge(spmap, img, thresh)
        assert merged.n_regions <= spmap.n_regions
        assert_valid_spmap(merged)
    # merged regions stay 4-connected and in scan order: relabelling is a no-op
    for _ in range(20):
        spmap, img = random_spmap(rng, 9, 11), make_image(rng.integers(0, 256, size=(9, 11, 3)))
        for thresh in (40.0, 120.0):
            merged = rag_merge(spmap, img, thresh)
            assert np.array_equal(_components(merged.region_of), merged.region_of)


def test_rag_merge_dimension_mismatch(rng):
    img = make_image(rng.integers(0, 256, size=(16, 16, 3)))
    spmap = felzenszwalb(img, SegParams())
    other = make_image(rng.integers(0, 256, size=(8, 8, 3)))
    with pytest.raises(DimensionMismatch):
        rag_merge(spmap, other, 10.0)


def test_rag_merge_max_regions_cap(rng):
    img = make_image(rng.integers(0, 256, size=(16, 16, 3)))
    spmap = felzenszwalb(img, SegParams(k=50, min_size=2))
    if spmap.n_regions > 2:
        merged = rag_merge(spmap, img, 0.0, max_regions=2)
        assert merged.n_regions == 2


# 2.5 merged to 2 regions through int() and True to 1
@pytest.mark.parametrize("max_regions", [0, -1, 2.5, True])
def test_rag_merge_rejects_max_regions_below_one(rng, max_regions):
    img = make_image(rng.integers(0, 256, size=(16, 16, 3)))
    spmap = felzenszwalb(img, SegParams(k=50, min_size=2))
    with pytest.raises(InvalidParams):
        rag_merge(spmap, img, 0.0, max_regions=max_regions)


# the cap went to the native int64 as it was: 2**63 wrapped to -2**63 and
# 2**64 + 2 to 2, which merged the 20 regions down to 1 and 2
@pytest.mark.parametrize("max_regions", [2**63, 2**64 + 2], ids=["2**63", "2**64+2"])
def test_rag_merge_cap_beyond_int64_forces_no_merge(max_regions):
    img, _, _ = gen_synthetic(7, 1)[0]
    spmap = felzenszwalb(img, SegParams())
    assert spmap.n_regions == 20
    merged = rag_merge(spmap, img, 0.0, max_regions=max_regions)
    assert np.array_equal(merged.region_of, spmap.region_of)


@pytest.mark.parametrize("merge_thresh", [np.nan, -1.0, np.inf], ids=["nan", "negative", "inf"])
def test_rag_merge_rejects_merge_thresh_outside_seg_params_range(merge_thresh):
    img, _, _ = gen_synthetic(7, 1)[0]
    spmap = felzenszwalb(img, SegParams())  # 20 regions: each of these merged them to 1
    with pytest.raises(InvalidParams, match="merge_thresh"):
        rag_merge(spmap, img, merge_thresh)


def _color_dist(a, b):
    """Euclidean distance of RGB colors a and b along the last axis, the
    squares summed left to right as _felzenszwalb.c sums them. Elementwise
    only, so no BLAS kernel decides how it rounds."""
    d = a - b
    return np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]) + d[..., 2] * d[..., 2])


def _reference_rag_merge(spmap, image, merge_thresh, max_regions=None):
    """Pairwise-scan greedy merge over a dict-of-sets RAG: every step scans
    all alive pairs in (i, j) order and replaces the best only when a
    distance is smaller by more than 1e-12."""
    n = spmap.n_regions
    region_of = spmap.region_of
    flat = region_of.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    sums = np.zeros((n, 3))
    pix = image.data.reshape(-1, 3).astype(np.float64)
    for c in range(3):
        sums[:, c] = np.bincount(flat, weights=pix[:, c], minlength=n)
    adj = {i: set() for i in range(n)}
    for a, b in ((region_of[:, :-1], region_of[:, 1:]), (region_of[:-1, :], region_of[1:, :])):
        diff = a != b
        for i, j in zip(a[diff].tolist(), b[diff].tolist()):
            adj[i].add(j)
            adj[j].add(i)
    alive = set(range(n))
    merged_into = np.arange(n)

    def mean(i):
        return sums[i] / counts[i]

    while len(alive) > 1:
        best = None
        for i in sorted(alive):
            mi = mean(i)
            for j in sorted(adj[i]):
                if j <= i:
                    continue
                d = float(_color_dist(mi, mean(j)))
                if best is None or d < best[0] - 1e-12:
                    best = (d, i, j)
        if best is None:
            break
        d, i, j = best
        force = max_regions is not None and len(alive) > max_regions
        if d >= merge_thresh and not force:
            break
        sums[i] += sums[j]
        counts[i] += counts[j]
        alive.discard(j)
        merged_into[j] = i
        for nb in adj[j]:
            if nb != i:
                adj[nb].discard(j)
                adj[nb].add(i)
                adj[i].add(nb)
        adj[i].discard(j)
        adj[i].discard(i)
        del adj[j]
    final = np.arange(n)
    for r in range(n):
        root = r
        while merged_into[root] != root:
            root = merged_into[root]
        final[r] = root
    return SuperpixelMap(_components(final[region_of]))


def _tie_heavy_case(seed):
    """3-13 px per side, colors in steps of 20, one superpixel per flat patch:
    many mean-color distances are exactly or nearly equal."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(3, 14, size=2)
    img = make_image(rng.integers(0, 13, size=(h, w, 3)) * 20)
    return img, felzenszwalb(img, SegParams(k=5, sigma=0, min_size=1))


def _chain_case():
    """One row of one-pixel regions whose merges chain: 5 into 4 at distance
    sqrt(3), 1 into 0, then 4 into 3, so survivor 3, numbered 2, is two
    parent links up from region 5. At threshold 30 regions 2 and 6 stay
    alone."""
    levels = [100, 102, 200, 0, 10, 11, 255]
    img = make_image(np.repeat(np.array(levels)[None, :, None], 3, axis=2))
    return img, SuperpixelMap(np.arange(len(levels), dtype=np.int32)[None, :])


# seed 1655 is a map on which a plain argmin of the distances merges a
# different pair than the reference does
@pytest.mark.parametrize("seed", [*range(12), 1655, "chain"])
def test_rag_merge_matches_pairwise_scan_oracle(seed):
    img, spmap = _chain_case() if seed == "chain" else _tie_heavy_case(seed)
    for thresh, max_regions in ((30, None), (1e9, None), (0, 2), (0, 3), (25, 2), (25, 3)):
        got = rag_merge(spmap, img, thresh, max_regions)
        want = _reference_rag_merge(spmap, img, thresh, max_regions)
        assert got.n_regions == want.n_regions
        assert np.array_equal(got.region_of, want.region_of), (thresh, max_regions)


# One row of pixels: single-pixel regions around a three-pixel region whose
# mean is at distance exactly 25 from each of them. The squares summed left
# to right round each 25 as noted; a fused multiply-add chain rounds the
# at_thresh and below_thresh rows the other way.
_ROUNDING_CASES = [
    # d(0, 1) = 25.000000000000004 and d(1, 2) = 25.0: the forced merge
    # takes the first pair, not the smaller second one
    (
        [(4, 8, 24), (1, 1, 1), (1, 1, 0), (0, 0, 0), (3, 4, 25)],
        [0, 1, 1, 1, 2],
        0,
        2,
        [0, 0, 0, 0, 1],
    ),
    # d = 25.0: not below the threshold, no merge
    ([(5, 25, 4), (1, 1, 1), (0, 1, 1), (0, 0, 0)], [0, 1, 1, 1], 25, None, [0, 1, 1, 1]),
    # d = 24.999999999999996: below the threshold, merged
    ([(4, 9, 24), (1, 1, 1), (1, 1, 1), (0, 0, 0)], [0, 1, 1, 1], 25, None, [0, 0, 0, 0]),
]


@pytest.mark.parametrize(
    "pixels, region_of, thresh, max_regions, expected",
    _ROUNDING_CASES,
    ids=["near_tie", "at_thresh", "below_thresh"],
)
def test_rag_merge_exact_distance_rounding(pixels, region_of, thresh, max_regions, expected):
    img = make_image(np.array([pixels]))
    spmap = SuperpixelMap(np.array([region_of], dtype=np.int32))
    got = rag_merge(spmap, img, thresh, max_regions)
    assert got.region_of.ravel().tolist() == expected
    want = _reference_rag_merge(spmap, img, thresh, max_regions)
    assert np.array_equal(got.region_of, want.region_of)


def _rounding_probes(count=3000):
    """(image, spmap, d): one row of two regions, 1-5 px each in random u8
    colors, and d = _color_dist of their means."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n0, n1 = rng.integers(1, 6, size=2)
        pix = rng.integers(0, 256, size=(n0 + n1, 3))
        region_of = np.repeat(np.array([0, 1], dtype=np.int32), [n0, n1])[None, :]
        means = np.stack([pix[:n0].sum(axis=0) / n0, pix[n0:].sum(axis=0) / n1])
        yield make_image(pix[None]), SuperpixelMap(region_of), _color_dist(means[0], means[1])


# A merge happens exactly when the distance is below merge_thresh, so a
# threshold of d keeps the pair and the next double above d merges it: the
# native distance must round as the left-to-right sum does on every probe
def test_rag_merge_distance_rounds_as_left_to_right_sum():
    for img, spmap, d in _rounding_probes():
        assert rag_merge(spmap, img, d).n_regions == 2, d
        assert rag_merge(spmap, img, np.nextafter(d, np.inf)).n_regions == 1, d


def _reference_incremental_rag_merge(spmap, image, merge_thresh, max_regions=None):
    """numpy greedy merge over the region-edge rows: after each merge, the
    rows are rewritten, compacted, and only those that touch the kept region
    get a new distance."""
    n = spmap.n_regions
    flat = spmap.region_of.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    pix = image.data.reshape(-1, 3).astype(np.float64)
    sums = np.stack(
        [np.bincount(flat, weights=pix[:, c], minlength=n) for c in range(3)], axis=1
    )
    means = sums / counts[:, None]
    ea, eb = region_edges(spmap.region_of).T.copy()
    dist = _color_dist(means[ea], means[eb])
    final = np.arange(n)
    n_alive = n
    while len(dist):
        near = np.flatnonzero(dist <= dist.min() + 1e-12)
        best = near[np.argmin(ea[near] * n + eb[near])]
        force = max_regions is not None and n_alive > max_regions
        if dist[best] >= merge_thresh and not force:
            break
        i, j = ea[best], eb[best]
        sums[i] += sums[j]
        counts[i] += counts[j]
        means[i] = sums[i] / counts[i]
        final[final == j] = i
        n_alive -= 1
        ea[ea == j] = i
        eb[eb == j] = i
        keep = ea != eb
        ea, eb, dist = np.minimum(ea[keep], eb[keep]), np.maximum(ea[keep], eb[keep]), dist[keep]
        touch = np.flatnonzero((ea == i) | (eb == i))
        dist[touch] = _color_dist(means[ea[touch]], means[eb[touch]])
    new_id = np.unique(final, return_inverse=True)[1].astype(np.int32)
    return SuperpixelMap(new_id[spmap.region_of])


# the benchmark's large256 and many_regions scenes, merged as configured, to
# a quarter of their regions, to 3 and to 1
@pytest.mark.parametrize(
    "size, params",
    [(256, SegParams()), (128, SegParams(k=20, min_size=5, merge_thresh=10))],
    ids=["large256", "many_regions"],
)
def test_rag_merge_matches_incremental_oracle_on_scenes(size, params):
    for img, _, _ in gen_synthetic(7, 5, SynthParams(size, size)):
        spmap = felzenszwalb(img, params)
        n = spmap.n_regions
        for thresh, max_regions in (
            (params.merge_thresh, None),
            (0, 3),
            (1e9, None),
            (params.merge_thresh, n // 4),
        ):
            got = rag_merge(spmap, img, thresh, max_regions)
            want = _reference_incremental_rag_merge(spmap, img, thresh, max_regions)
            assert np.array_equal(got.region_of, want.region_of), (thresh, max_regions)


def test_rag_merge_tie_break_beyond_int32_pair_keys():
    # 50000 one-pixel regions of one color: every distance ties, and the
    # first pair (0, 1) wins; an int32 key i * n + j wraps above 46340 regions
    img = make_image(np.zeros((1, 50000, 3)))
    spmap = SuperpixelMap(np.arange(50000, dtype=np.int32).reshape(1, -1))
    merged = rag_merge(spmap, img, 0.0, max_regions=49999)
    assert merged.n_regions == 49999
    assert merged.region_of[0, :3].tolist() == [0, 0, 1]


def test_region_edges_sorted_unique_pairs(rng):
    region_of = rng.integers(0, 5, size=(7, 9))
    edges = region_edges(region_of)
    want = set()
    for y in range(7):
        for x in range(9):
            for dy, dx in ((0, 1), (1, 0)):
                if y + dy < 7 and x + dx < 9:
                    a, b = region_of[y, x], region_of[y + dy, x + dx]
                    if a != b:
                        want.add((min(a, b), max(a, b)))
    assert edges.shape == (len(want), 2) and edges.dtype == np.int64
    assert [tuple(e) for e in edges.tolist()] == sorted(want)
    assert region_edges(np.zeros((3, 4), dtype=np.int32)).shape == (0, 2)


def _assert_carries_its_edges(merged):
    """A rag_merge output carries exactly region_edges of its own map."""
    assert merged._edges is not None
    want = region_edges(merged.region_of)
    _assert_same_bits(merged.edges, want)


# every scene of the three benchmark workloads, merged as configured and at
# threshold 0, which merges nothing
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rag_merge_carries_its_region_edges_on_workload_scenes(name):
    w = WORKLOADS[name]
    for img, _, _ in gen_synthetic(w.scene_seed, w.count, SynthParams(w.size, w.size)):
        spmap = felzenszwalb(img, w.cfg.seg)
        for thresh in (w.cfg.seg.merge_thresh, 0.0):
            _assert_carries_its_edges(rag_merge(spmap, img, thresh))


def test_rag_merge_carries_its_region_edges_on_native_merge_cases():
    for spmap, img, thresh, max_regions in _native_merge_cases():
        _assert_carries_its_edges(rag_merge(spmap, img, thresh, max_regions))
        _assert_carries_its_edges(rag_merge(spmap, img, 0.0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=300.0),
    st.none() | st.integers(min_value=1, max_value=20),
)
def test_rag_merge_carries_its_region_edges_on_random_maps(seed, h, w, n_values, thresh, cap):
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, 256, size=(h, w, 3)))
    merged = rag_merge(random_spmap(rng, h, w, n_values), img, thresh, cap)
    _assert_carries_its_edges(merged)
    # a merged map merged again derives its pairs from the carried ones
    _assert_carries_its_edges(rag_merge(merged, img, thresh))


def test_spmap_n_regions_and_edges_stay_out_of_eq_and_repr():
    spmap = SuperpixelMap(np.array([[0, 1], [2, 2]], dtype=np.int32))
    assert spmap.n_regions == 3 and spmap.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert repr(spmap) == f"SuperpixelMap(region_of={spmap.region_of!r})"
    # maps compare by identity, so n_regions and the edges never take part
    assert spmap == spmap and spmap != SuperpixelMap(spmap.region_of.copy())


def _assert_native_map(spmap, image):
    """A map that felzenszwalb or rag_merge numbered without the
    constructor's check is int32, passes that check with its own n_regions,
    carries region_edges of its own map and, when it carries stats,
    _region_sums' over image, byte for byte."""
    assert spmap.region_of.dtype == np.int32
    assert SuperpixelMap(spmap.region_of).n_regions == spmap.n_regions
    _assert_carries_its_edges(spmap)
    if spmap._stats is not None:
        empty = np.empty(0)
        want = _region_sums(spmap, image, empty, empty, empty, 0)[:3]
        assert len(spmap._stats) == 3
        for got, want in zip(spmap._stats, want):
            _assert_same_bits(got, want)


def _assert_native_maps(image, params, thresholds):
    """felzenszwalb's map of image, which carries its stats, and rag_merge's
    of it at each threshold, stats handed on or not, all as
    _assert_native_map holds them; the hand-on leaves the raw stats as they
    were and gives the same map."""
    raw = felzenszwalb(image, params)
    assert raw._stats is not None
    _assert_native_map(raw, image)
    before = [a.copy() for a in raw._stats]
    for thresh in thresholds:
        merged = rag_merge(raw, image, thresh, _stats=raw._stats)
        _assert_native_map(merged, image)
        assert np.array_equal(merged.region_of, rag_merge(raw, image, thresh).region_of)
    for got, want in zip(raw._stats, before):
        _assert_same_bits(got, want)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_native_maps_pass_the_full_check_on_workload_scenes(name):
    w = WORKLOADS[name]
    for img, _, _ in gen_synthetic(w.scene_seed, w.count, SynthParams(w.size, w.size)):
        _assert_native_maps(img, w.cfg.seg, (w.cfg.seg.merge_thresh, 0.0))


def test_native_maps_pass_the_full_check_on_native_cases():
    for img, params in _native_cases():
        _assert_native_maps(img, params, (params.merge_thresh, 0.0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1.0, 20.0, 300.0]),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=300.0),
)
def test_native_maps_pass_the_full_check_on_random_images(seed, h, w, levels, k, min_size, thresh):
    rng = np.random.default_rng(seed)
    img = make_image(rng.integers(0, levels, size=(h, w, 3)) * (255 // levels))
    _assert_native_maps(img, SegParams(k=k, sigma=0.5, min_size=min_size), (thresh,))


def test_region_sums_exact_past_int32_on_one_white_region():
    # 260 * 256 > 2**16 pixels of 255: a channel's sum of squares,
    # 255**2 * 66560, passes 2**31, as a region's int64 run sums must hold
    img = make_image(np.full((260, 256, 3), 255))
    raw = felzenszwalb(img)
    n = 260 * 256
    assert raw.n_regions == 1 and 255**2 * n > 2**31
    want = [[n], [[255 * n] * 3], [[255**2 * n] * 3]]
    empty = np.empty(0)
    for stats in (raw._stats, _region_sums(raw, img, empty, empty, empty, 0)[:3]):
        assert [a.tolist() for a in stats] == want
    mean_and_std = superpixel_features(img, raw)[0, :6]
    assert mean_and_std.tolist() == [255.0] * 3 + [0.0] * 3


def test_spmap_and_cli_tensor_still_reject_a_gap_in_ids():
    gap = np.array([[0, 0], [2, 2]])
    with pytest.raises(ShapeMismatch, match="exactly"):
        SuperpixelMap(gap.astype(np.int32))
    with pytest.raises(ShapeMismatch, match="exactly"):
        _spmap_from_tensor(gap.astype(np.uint16))


def _reference_split(raw):
    """Whole-image mask per label, then a per-pixel first-seen relabel."""
    out = np.full(raw.shape, -1, dtype=np.int64)
    offset = 0
    for v in range(raw.max() + 1):
        comps, n = ndimage.label(raw == v, structure=_FOUR)
        out[raw == v] = comps[raw == v] + offset - 1
        offset += n
    remap = {}
    for c in out.ravel().tolist():
        remap.setdefault(c, len(remap))
    return np.array([remap[c] for c in out.ravel().tolist()]).reshape(raw.shape), len(remap)


def _component_cases(rng):
    for _ in range(20):
        h, w = rng.integers(1, 10, size=2)
        yield rng.choice([0, 2, 3, 7], size=(h, w))  # ids 1, 4-6 absent
    # every same-label neighbour is diagonal: one component per pixel
    yield np.add.outer(np.arange(7), np.arange(9)) % 2
    for n in (1, 2, 9):
        yield rng.integers(0, 2, size=(1, n))
        yield rng.integers(0, 2, size=(n, 1))
    yield np.array([[5, 5, 1], [0, 1, 1], [0, 3, 5]])  # ids out of scan order
    # root ids as large as h*w, as felzenszwalb's union-find returns them
    yield rng.choice([0, 17, 34, 35], size=(5, 7))


def test_components_matches_reference(rng):
    for raw in _component_cases(rng):
        got = _components(raw)
        want, n_want = _reference_split(raw)
        assert got.dtype == np.int32 and got.max() + 1 == n_want
        assert np.array_equal(got, want)


class _UnionFind:
    __slots__ = ("parent", "size", "internal")

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.internal = [0.0] * n  # largest merging weight inside the component

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b, weight):
        a, b = self.find(a), self.find(b)
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        self.internal[a] = weight
        return a


def _numpy_grid_edges(smoothed):
    """8-connected grid edges as (a, b, weight, generation index): numpy
    builds them direction by direction and lexsorts them by (weight,
    generation index)."""
    h, w, _ = smoothed.shape
    idx = np.arange(h * w).reshape(h, w)
    pieces = []
    for order, (dy, dx) in enumerate(((0, 1), (1, 0), (1, 1), (1, -1))):
        y0, y1 = max(0, -dy), h - max(0, dy)
        x0, x1 = max(0, -dx), w - max(0, dx)
        a = idx[y0:y1, x0:x1].ravel()
        b = idx[y0 + dy : y1 + dy, x0 + dx : x1 + dx].ravel()
        wgt = _color_dist(
            smoothed[y0:y1, x0:x1], smoothed[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
        ).ravel()
        pieces.append((a, b, wgt, a * 4 + order))
    a, b, wgt, gen = (np.concatenate(p) for p in zip(*pieces))
    by_weight = np.lexsort((gen, wgt))
    return a[by_weight], b[by_weight], wgt[by_weight], gen[by_weight]


def _smoothed(image, sigma):
    img = image.data.astype(np.float64)
    if sigma > 0:
        img = np.stack(
            [ndimage.gaussian_filter(img[:, :, c], sigma) for c in range(3)], axis=2
        )
    return img


def _reference_roots(smoothed, params):
    """Union-find object with full path compression; the min-size pass
    rescans every grid edge. It links as felz_segment does, the smaller
    root under the larger and the second under the first on a size tie, so
    each pixel's root is the pixel felz_segment gives it."""
    h, w, _ = smoothed.shape
    ea, eb, ew, _ = _numpy_grid_edges(smoothed)
    uf = _UnionFind(h * w)
    k = params.k
    for a, b, wgt in zip(ea.tolist(), eb.tolist(), ew.tolist()):
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            continue
        if wgt <= min(
            uf.internal[ra] + k / uf.size[ra], uf.internal[rb] + k / uf.size[rb]
        ):
            uf.union(ra, rb, wgt)
    for a, b, wgt in zip(ea.tolist(), eb.tolist(), ew.tolist()):
        ra, rb = uf.find(a), uf.find(b)
        if ra != rb and (uf.size[ra] < params.min_size or uf.size[rb] < params.min_size):
            uf.union(ra, rb, wgt)
    return np.fromiter((uf.find(i) for i in range(h * w)), dtype=np.int64, count=h * w)


def _no_rgb(smoothed):
    """A black image of smoothed's shape, for _segment on a smoothed image
    that no image was blurred into."""
    return np.zeros(smoothed.shape, np.uint8)


def _reference_felzenszwalb(image, params):
    roots = _reference_roots(_smoothed(image, params.sigma), params)
    return SuperpixelMap(_components(roots.reshape(image.height, image.width)))


def _assert_same_segmentation(img, params):
    got = felzenszwalb(img, params)
    want = _reference_felzenszwalb(img, params)
    assert got.n_regions == want.n_regions
    assert np.array_equal(got.region_of, want.region_of)


# colors in steps of 20 make equal edge weights, and so sort-order ties, common;
# without blur a weight of 20 or 100 (a step of (3, 4, 0)) equals the threshold
# k/1 of a single pixel. min_size 1 leaves the absorption pass nothing to do,
# 200 absorbs nearly all
@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("k", [5.0, 20.0, 100.0])
@pytest.mark.parametrize("min_size", [1, 5, 20, 200])
def test_felzenszwalb_matches_union_find_oracle(sigma, k, min_size):
    rng = np.random.default_rng(1000 * min_size + int(k) + int(10 * sigma))
    for _ in range(3):
        h, w = rng.integers(8, 33, size=2)
        img = make_image(rng.integers(0, 13, size=(h, w, 3)) * 20)
        _assert_same_segmentation(img, SegParams(k=k, sigma=sigma, min_size=min_size))


def test_felzenszwalb_matches_union_find_oracle_many_regions():
    (img, _, _), = gen_synthetic(7, 1, SynthParams(128, 128))
    _assert_same_segmentation(img, SegParams(k=20, min_size=5, merge_thresh=10))


def _ramp(h, w):
    """A linear ramp: every edge of one direction has one weight, which the
    blur perturbs only in its last bits."""
    y, x = np.mgrid[:h, :w]
    return make_image(np.stack([x, y, 255 - x], axis=2))


# the run length above which felz_segment's fix-up turns from merge sort to
# radix sort
_SHORT_RUN = int(re.search(r"#define SHORT_RUN (\d+)", superpixel._FELZ_SOURCE.read_text())[1])


def _tie_runs(smoothed):
    """The longest run of edges whose weights share their top 32 IEEE-754
    bits, and the longest such run whose full weights fall somewhere in
    generation order: the runs felz_segment's sort leaves as they are and
    the runs it sorts again."""
    _, _, wgt, gen = _numpy_grid_edges(smoothed)
    bits = wgt.view(np.uint64)
    order = np.lexsort((gen, bits >> np.uint64(32)))
    hi, lo = bits[order] >> np.uint64(32), bits[order] & np.uint64(0xFFFFFFFF)
    starts = np.r_[True, hi[1:] != hi[:-1]]
    run = np.cumsum(starts) - 1
    falls = np.r_[False, (lo[1:] < lo[:-1]) & ~starts[1:]]
    lengths = np.bincount(run)
    return lengths.max(), lengths[np.unique(run[falls])].max(initial=0)


# one run of equal top bits spans thousands of edges: at sigma 0 every
# weight of a direction is exact, so the runs are in order; the blur puts the
# ramp's weights out of order in their low bits, in runs past _SHORT_RUN,
# which the fix-up sorts by radix sort. The roots, not only
# the regions, must match: on the blurred ramp at k=20 or k=1 an edge order
# that skips the fix-up links other roots
@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("kind", ["ramp", "constant"])
def test_felzenszwalb_matches_oracle_on_long_tie_runs(kind, sigma):
    img = _ramp(48, 80) if kind == "ramp" else make_image(np.full((48, 80, 3), 77))
    smoothed = _smoothed(img, sigma)
    longest, longest_unsorted = _tie_runs(smoothed)
    assert longest > _SHORT_RUN
    assert (longest_unsorted > _SHORT_RUN) == (kind == "ramp" and sigma > 0)
    for k, min_size in ((20.0, 1), (1.0, 1), (100.0, 20)):
        params = SegParams(k=k, sigma=sigma, min_size=min_size)
        _assert_same_segmentation(img, params)
        want = _reference_roots(smoothed, params)
        assert np.array_equal(superpixel._segment(smoothed, params, _no_rgb(smoothed))[0], want)


# colors in steps of 20 plus noise below 1e-9 give few weights, each split
# into runs of equal top bits whose low bits fall in random places; with a
# k this small the first pass merges nothing, so the min-size pass links in
# exactly the sorted order, and any edge out of place moves a root. The
# smaller image has only runs up to _SHORT_RUN long, the larger runs above
@pytest.mark.parametrize("shape", [(6, 9), (48, 80)], ids=["short_runs", "long_runs"])
def test_native_roots_match_oracle_on_near_ties(shape):
    rng = np.random.default_rng(shape[1])
    smoothed = rng.integers(0, 4, size=(*shape, 3)) * 20.0
    smoothed += rng.uniform(0, 1e-9, size=smoothed.shape)
    longest, longest_unsorted = _tie_runs(smoothed)
    assert longest_unsorted > 1 and (longest_unsorted > _SHORT_RUN) == (shape[0] > 6)
    for min_size in (2, 5):
        params = SegParams(k=1e-6, sigma=0, min_size=min_size)
        want = _reference_roots(smoothed, params)
        assert np.array_equal(superpixel._segment(smoothed, params, _no_rgb(smoothed))[0], want)


def test_fixup_not_quadratic_on_ramp():
    """A 256x256 ramp puts ~124k edges in one run of equal top bits, out of
    order: a quadratic fix-up takes over 100x a scene's time, this one about
    0.7x. The guard is a wall-clock ratio, so a host whose load changes
    between the timings can still trip it; the best of five interleaved runs
    of each and a bound seven times today's ratio keep that unlikely."""
    ramp = _ramp(256, 256)
    (scene, _, _), = gen_synthetic(7, 1, SynthParams(256, 256))
    best = {}
    for _ in range(5):
        for name, img in (("ramp", ramp), ("scene", scene)):
            start = time.perf_counter()
            felzenszwalb(img, SegParams())
            best[name] = min(best.get(name, np.inf), time.perf_counter() - start)
    assert best["ramp"] < 5 * best["scene"], best


def test_felzenszwalb_min_size_beyond_a_double_acts_as_whole_image():
    # 10**400 does not fit the native double: it raised a bare ctypes.ArgumentError
    img, _, _ = gen_synthetic(7, 1)[0]
    whole = felzenszwalb(img, SegParams(min_size=img.height * img.width + 1))
    assert np.array_equal(felzenszwalb(img, SegParams(min_size=10**400)).region_of, whole.region_of)


def _min_sizes(img, params):
    """1, a min_size that the first union-find pass's components straddle,
    and one above the pixel count: the min-size pass skips every edge, some
    and none."""
    first = _reference_roots(_smoothed(img, params.sigma), dataclasses.replace(params, min_size=1))
    sizes = np.bincount(first)
    sizes = sizes[sizes > 0]
    between = (int(sizes.min()) + int(sizes.max())) // 2 + 1
    assert sizes.min() < between <= sizes.max()
    return 1, between, img.height * img.width + 1


# a 64x64 scene, and a 128x128 one at k=20 with hundreds of regions
_MIN_SIZE_SCENES = [(64, SegParams()), (128, SegParams(k=20, min_size=5))]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("size, params", _MIN_SIZE_SCENES, ids=["64", "128"])
def test_min_size_pass_matches_oracle_from_none_to_all_skipped(
    size, params, threads, monkeypatch
):
    (img, _, _), = gen_synthetic(7, 1, SynthParams(size, size))
    monkeypatch.setattr(superpixel, "_threads", _forced_threads(threads))
    for min_size in _min_sizes(img, params):
        _assert_same_segmentation(img, dataclasses.replace(params, min_size=min_size))


@pytest.mark.parametrize("size, params", _MIN_SIZE_SCENES, ids=["64", "128"])
def test_min_size_pass_same_on_two_threads_from_none_to_all_skipped(size, params, monkeypatch):
    (img, _, _), = gen_synthetic(7, 1, SynthParams(size, size))
    for min_size in _min_sizes(img, params):
        _assert_schedules_agree(img, dataclasses.replace(params, min_size=min_size), monkeypatch)


def _scipy_blur(image, sigma):
    return ndimage.gaussian_filter(image.data.astype(np.float64), (sigma, sigma, 0))


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# every line length up to 9, against kernels of radius 0 (sigma 0, 1e-16,
# which scipy skips, and 0.1), 3, 8 and 20; most are longer than the line,
# so the reflect extension wraps more than once
@pytest.mark.parametrize("sigma", [0.0, 1e-16, 0.1, 0.8, 2.0, 5.0])
def test_blur_matches_scipy_bit_for_bit_on_small_shapes(sigma):
    rng = np.random.default_rng(int(10 * sigma))
    for h in range(1, 10):
        for w in range(1, 10):
            img = make_image(rng.integers(0, 256, size=(h, w, 3)))
            _assert_same_bits(superpixel._blur(img, sigma), _scipy_blur(img, sigma))


# the scene sets of the three benchmark workloads; the blur felzenszwalb
# segments is the one its thread's workspace holds after the call
@pytest.mark.parametrize(
    "count, size, params",
    [
        (20, 64, SegParams()),
        (5, 256, SegParams()),
        (5, 128, SegParams(k=20, min_size=5, merge_thresh=10)),
    ],
    ids=["pinned64", "large256", "many_regions"],
)
def test_blur_matches_scipy_bit_for_bit_on_workload_scenes(count, size, params):
    for img, _, _ in gen_synthetic(7, count, SynthParams(size, size)):
        felzenszwalb(img, params)
        blurred = superpixel._WORKSPACE.buffers[0].reshape(size, size, 3)
        _assert_same_bits(blurred, _scipy_blur(img, params.sigma))


def test_felzenszwalb_dim_overflow_before_any_work():
    # zero strides: the 2**30 + 32768 pixels take no memory, and a float64
    # copy of them would take 25 GB
    data = np.broadcast_to(np.zeros((1, 1, 3), np.uint8), (32768, 32769, 3))
    with pytest.raises(DimOverflow, match=r"2\*\*30"):
        felzenszwalb(RasterImage(data), SegParams())


_SHAPES = [(1, 1), (1, 7), (7, 1), (2, 2), (3, 300), (17, 23), (40, 33)]


def _shape_images(shape, sigma):
    """Three images of one shape. Colors in steps of 20 make equal weights,
    and so ties for the stable sort, common; the small shapes have no edge in
    some or all directions."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] + int(10 * sigma))
    for _ in range(3):
        yield make_image(rng.integers(0, 13, size=(*shape, 3)) * 20)


def _native_cases():
    """(image, params) pairs that exercise the native blur, edge build and
    sort: the tie-heavy shapes at k=20, where ties decide merges, small
    shapes blurred by kernels longer than their lines, a ramp and a constant
    image, whose runs of equal top bits the fix-up sorts by radix or leaves,
    one 64x64 and one 256x256 scene; then single rows and columns, 2-pixel
    sides and a 64x64 scene at min_size 1 and above h * w, where the min-size
    pass skips every edge and none."""
    for shape in _SHAPES:
        for sigma in (0.0, 0.8):
            for img in _shape_images(shape, sigma):
                for min_size in (1, 5):
                    yield img, SegParams(k=20, sigma=sigma, min_size=min_size)
    for shape in ((1, 1), (1, 7), (3, 5), (9, 2)):
        for sigma in (2.0, 5.0):  # kernel radius 8 and 20
            for img in _shape_images(shape, sigma):
                yield img, SegParams(k=20, sigma=sigma, min_size=5)
    for sigma in (0.0, 0.8):
        yield _ramp(48, 80), SegParams(k=20, sigma=sigma, min_size=5)
    yield make_image(np.full((48, 80, 3), 77)), SegParams()
    for size in (64, 256):  # 256x256 takes two threads where the host has two CPUs
        (img, _, _), = gen_synthetic(7, 1, SynthParams(size, size))
        yield img, SegParams()
    shapes = ((1, 9), (9, 1), (2, 2), (2, 9), (9, 2))
    images = [img for shape in shapes for img in _shape_images(shape, 0.8)]
    images.append(gen_synthetic(7, 1)[0][0])
    for img in images:
        for min_size in (1, img.height * img.width + 1):
            yield img, SegParams(k=20, min_size=min_size)


def _digest(spmap):
    return hashlib.sha256(spmap.region_of.tobytes()).hexdigest()


# the native edges, built and sorted inside felz_segment, are checked through
# the segmentation they give against the numpy edges of the oracle
@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("shape", _SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_native_edges_match_numpy_oracle(shape, sigma):
    for img in _shape_images(shape, sigma):
        for min_size in (1, 5):
            _assert_same_segmentation(img, SegParams(k=20, sigma=sigma, min_size=min_size))


def test_native_edges_match_numpy_oracle_on_scenes():
    for img, _, _ in gen_synthetic(7, 5, SynthParams(64, 64)):
        _assert_same_segmentation(img, SegParams())


def test_segment_ids_are_the_components_of_its_roots():
    for img, params in _native_cases():
        blurred = superpixel._blur(img, params.sigma)
        roots, ids, _, _ = superpixel._segment(blurred, params, img.data)
        assert ids.dtype == np.int32
        assert np.array_equal(ids, _components(roots.reshape(ids.shape)))


def _run_child(code, **env):
    """Run Python code in a fresh process that can import seedloop and tests."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}", **env}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=root, capture_output=True, text=True
    )


def test_import_does_not_load_scipy():
    # the blur is native: neither the import nor a segmentation nor a run of
    # the closed loop loads scipy
    proc = _run_child(
        "import sys\n"
        "import seedloop, seedloop.cli\n"
        "from seedloop import SegParams, felzenszwalb, gen_synthetic, pipeline\n"
        "(img, gt, seeds), = gen_synthetic(7, 1)\n"
        "felzenszwalb(img, SegParams(sigma=0.8))\n"
        "pipeline.run_closed_loop(img, seeds, gt=gt)\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _threads_match_serial():
    """Whether two 256x256 and two 64x64 scenes, each segmented 20 times in
    its own thread, all at once, give their serial maps every time."""
    images = [
        img for size in (256, 64) for img, _, _ in gen_synthetic(7, 2, SynthParams(size, size))
    ]
    want = [felzenszwalb(img, SegParams()).region_of for img in images]
    start = threading.Barrier(len(images), timeout=60)

    def segment(img):
        start.wait()
        return [felzenszwalb(img, SegParams()).region_of for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between most bytecodes too
    try:
        with ThreadPoolExecutor(len(images)) as pool:
            got = list(pool.map(segment, images, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    return all(np.array_equal(m, w) for maps, w in zip(got, want) for m in maps)


def test_workspace_is_per_thread():
    # ctypes releases the GIL in each native call, so the threads run at
    # once; two threads of one size would share a module-wide workspace,
    # and its scratch torn between two calls can crash the process: hence
    # the child
    proc = _run_child(
        "from tests.test_superpixel import _threads_match_serial\n"
        "print(_threads_match_serial())\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def _forced_threads(count):
    """A stand-in for superpixel._threads that picks count for any image."""
    return lambda n: count


def test_two_threads_from_two_to_the_sixteen_pixels(monkeypatch):
    assert superpixel._threads(2**16 - 1) == 1
    cpus = min(len(os.sched_getaffinity(0)), superpixel._cpu_quota())
    assert superpixel._threads(2**16) == (2 if cpus >= 2 else 1)
    monkeypatch.setattr(superpixel, "_cpu_quota", lambda: 1.5)
    assert superpixel._threads(2**16) == 1


@pytest.mark.parametrize(
    "v2, v1, quota",
    [
        ("200000 100000\n", None, 2.0),
        ("50000 100000\n", ("-1\n", "100000\n"), 0.5),
        ("max 100000\n", None, np.inf),
        (None, ("150000\n", "100000\n"), 1.5),
        (None, ("-1\n", "100000\n"), np.inf),
        (None, None, np.inf),
    ],
)
def test_cpu_quota_reads_cgroup_v2_then_v1(v2, v1, quota, tmp_path, monkeypatch):
    files = (tmp_path / "cpu.max",), (tmp_path / "quota", tmp_path / "period")
    for paths, texts in zip(files, ((v2,), v1 or (None, None))):
        for path, text in zip(paths, texts):
            if text is not None:
                path.write_text(text)
    monkeypatch.setattr(superpixel, "_CPU_LIMITS", files)
    assert superpixel._cpu_quota.__wrapped__() == quota


def _on_threads(monkeypatch, count, call, *args):
    """call(*args) with superpixel._threads picking count for any image."""
    monkeypatch.setattr(superpixel, "_threads", _forced_threads(count))
    return call(*args)


def _assert_segment_schedules_agree(smoothed, params, monkeypatch, rgb):
    """felz_segment gives the same roots, ids, region sums and edges on one
    and on two threads; returns the roots and the ids."""
    one, two = (
        _on_threads(monkeypatch, t, superpixel._segment, smoothed, params, rgb) for t in (1, 2)
    )
    got, want = ((r, i, *s, e) for r, i, s, e in (two, one))
    for a, b in zip(got, want, strict=True):
        _assert_same_bits(a, b)
    return one[:2]


def _assert_schedules_agree(img, params, monkeypatch):
    """The blur, the segmentation and the features of img are the same bytes
    on one and on two threads; returns the blurred image and the roots."""
    blurred = _on_threads(monkeypatch, 1, superpixel._blur, img, params.sigma).copy()
    _assert_same_bits(_on_threads(monkeypatch, 2, superpixel._blur, img, params.sigma), blurred)
    roots, ids = _assert_segment_schedules_agree(blurred, params, monkeypatch, img.data)
    spmap = SuperpixelMap(ids)
    feats = [_on_threads(monkeypatch, t, superpixel_features, img, spmap) for t in (1, 2)]
    _assert_same_bits(feats[1], feats[0])
    return blurred, roots


# the first scene's roots are also held to the union-find oracle
def test_two_threads_match_one_on_large256_scenes(monkeypatch):
    for i, (img, _, _) in enumerate(gen_synthetic(7, 5, SynthParams(256, 256))):
        blurred, roots = _assert_schedules_agree(img, SegParams(), monkeypatch)
        if i == 0:
            assert np.array_equal(roots, _reference_roots(blurred, SegParams()))


# the blurred ramp's out-of-order runs of equal top bits are longer than
# _SHORT_RUN, inside one bucket, so the bucket's fix-up sorts them by radix
# sort; the constant image puts every edge in one bucket
@pytest.mark.parametrize("kind", ["ramp", "constant"])
def test_two_threads_match_one_on_long_tie_runs(kind, monkeypatch):
    img = _ramp(256, 256) if kind == "ramp" else make_image(np.full((256, 256, 3), 77))
    if kind == "ramp":
        assert _tie_runs(_smoothed(img, 0.8))[1] > _SHORT_RUN
    for k, min_size in ((20.0, 1), (100.0, 20)):
        _assert_schedules_agree(img, SegParams(k=k, sigma=0.8, min_size=min_size), monkeypatch)


# as in test_native_roots_match_oracle_on_near_ties, the min-size pass links
# in exactly the sorted order, so an edge out of place moves a root
def test_two_threads_match_one_on_near_ties(monkeypatch):
    rng = np.random.default_rng(256)
    smoothed = rng.integers(0, 4, size=(256, 256, 3)) * 20.0
    smoothed += rng.uniform(0, 1e-9, size=smoothed.shape)
    for min_size in (2, 5):
        _assert_segment_schedules_agree(
            smoothed, SegParams(k=1e-6, sigma=0, min_size=min_size), monkeypatch, _no_rgb(smoothed)
        )


# colors in steps of 20 make equal weights common, in both halves of the
# rows: unblurred, their order in a bucket decides merges. A single row
# leaves the first thread no row of edges to build; a single column has one
# edge a row
@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("shape", [(256, 256), (1, 65536), (65536, 1), (3, 21846)])
def test_two_threads_match_one_on_tie_heavy_shapes(shape, sigma, monkeypatch):
    rng = np.random.default_rng(shape[0])
    img = make_image(rng.integers(0, 13, size=(*shape, 3)) * 20)
    for min_size in (1, 5):
        _assert_schedules_agree(img, SegParams(k=20, sigma=sigma, min_size=min_size), monkeypatch)


def _two_thread_digests():
    """Digests of the blur, the roots, the ids, the region sums, the edges
    and the features of two 256x256 scenes, each native call asked for the thread count that
    superpixel._threads gives."""
    params = SegParams()
    for img, _, _ in gen_synthetic(7, 2, SynthParams(256, 256)):
        blurred = superpixel._blur(img, params.sigma)
        roots, ids, stats, edges = superpixel._segment(blurred, params, img.data)
        feats = superpixel_features(img, SuperpixelMap(ids))
        for arr in (blurred, roots, ids, *stats, edges, feats):
            yield hashlib.sha256(arr.tobytes()).hexdigest()


# every pthread_create of this build fails with EAGAIN, as when a thread's
# stack cannot be mapped
_NO_THREAD = """\
#include <errno.h>
#include <pthread.h>
static int no_thread(pthread_t *t, const pthread_attr_t *a, void *(*f)(void *), void *arg)
{
    (void)t, (void)a, (void)f, (void)arg;
    return EAGAIN;
}
#define pthread_create no_thread
"""


def test_thread_that_cannot_start_runs_on_one(tmp_path, monkeypatch):
    header = tmp_path / "no_thread.h"
    header.write_text(_NO_THREAD)
    proc = _run_child(
        "from seedloop import superpixel\n"
        "from tests.test_superpixel import _two_thread_digests\n"
        f"superpixel._FELZ_FLAGS += ('-include', {str(header)!r})\n"
        "superpixel._threads = lambda n: 2\n"
        "for d in _two_thread_digests():\n"
        "    print(d)\n",
        HOME=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    (lib,) = (tmp_path / ".cache" / "seedloop").iterdir()
    nm = subprocess.run(["nm", "-D", "--undefined-only", lib], capture_output=True, text=True)
    assert "pthread_create" not in nm.stdout  # the build whose threads cannot start
    monkeypatch.setattr(superpixel, "_threads", _forced_threads(2))
    assert proc.stdout.split() == list(_two_thread_digests())


def _libasan():
    """The runtime an -fsanitize=address library needs loaded first, or ""
    when gcc is missing; gcc prints the bare name when it has no libasan."""
    try:
        cmd = ["gcc", "-print-file-name=libasan.so"]
        return subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def _native_merge_cases():
    """rag_merge arguments that exercise the native merge: the tie-heavy maps
    at capped and uncapped thresholds, the exact-rounding rows, and a
    quarter of the rounding probes at their distance and just above it."""
    for seed in [*range(12), 1655]:
        img, spmap = _tie_heavy_case(seed)
        for thresh, max_regions in ((30, None), (1e9, None), (0, 2), (25, 3)):
            yield spmap, img, thresh, max_regions
    for pixels, region_of, thresh, max_regions, _ in _ROUNDING_CASES:
        spmap = SuperpixelMap(np.array([region_of], dtype=np.int32))
        yield spmap, make_image([pixels]), thresh, max_regions
    for img, spmap, d in _rounding_probes(750):
        yield spmap, img, d, None
        yield spmap, img, np.nextafter(d, np.inf), None


def _label_maps(img):
    """Label maps of img's shape for region_label_counts at 4 categories:
    the red channel's top two bits with its odd values ignored, all IGNORE,
    and all 3, the top category."""
    red = img.data[:, :, 0]
    yield LabelMap(np.where(red % 2 == 1, IGNORE, red >> 6).astype(np.uint8))
    yield LabelMap(np.full(red.shape, IGNORE, np.uint8))
    yield LabelMap(np.full(red.shape, 3, np.uint8))


def _native_digests():
    """Digests of every native case through each native function: the
    segmentation, its region sums and edges from the numbering, the
    components of the image's red channel, the features of the segmentation
    and the label counts of its _label_maps and of one region; then of
    every native merge case. The cases hold single rows and columns and
    one-region images."""
    for img, params in _native_cases():
        spmap = felzenszwalb(img, params)
        one = SuperpixelMap(np.zeros(spmap.region_of.shape, np.int32))
        arrays = [
            *spmap._stats,
            spmap.edges,
            _components(img.data[:, :, 0]),
            superpixel_features(img, spmap),
            *(region_label_counts(m, lab, 4) for lab in _label_maps(img) for m in (spmap, one)),
        ]
        yield _digest(spmap)
        for arr in arrays:
            yield hashlib.sha256(arr.tobytes()).hexdigest()
    for case in _native_merge_cases():
        yield _digest(rag_merge(*case))


def _assert_clean_under_sanitizer(home, flags, runtime, **env):
    """A build with flags, loaded through the normal _load_felz path in a
    fresh process with an empty cache under home, gives every native digest
    without a runtime error and as the production build does."""
    proc = _run_child(
        "from seedloop import superpixel\n"
        "from tests.test_superpixel import _native_digests\n"
        f"superpixel._FELZ_FLAGS += {flags!r}\n"
        "for d in _native_digests():\n"
        "    print(d)\n",
        HOME=str(home),
        **env,
    )
    assert proc.returncode == 0, proc.stderr
    (lib,) = (home / ".cache" / "seedloop").iterdir()
    assert runtime in lib.read_bytes()  # the sanitized build, not a cached one
    assert proc.stdout.split() == list(_native_digests())


def test_native_source_clean_under_ubsan(tmp_path):
    flags = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
    _assert_clean_under_sanitizer(tmp_path, flags, b"libubsan")


@pytest.mark.skipif(not os.path.isabs(_libasan()), reason="gcc has no libasan")
def test_native_source_clean_under_asan(tmp_path):
    # no out-of-bounds access or use after free; leaks are not checked,
    # since the interpreter keeps memory to its exit
    _assert_clean_under_sanitizer(
        tmp_path,
        ("-fsanitize=address",),
        b"libasan",
        LD_PRELOAD=_libasan(),
        ASAN_OPTIONS="detect_leaks=0",
    )


def _has_libtsan():
    try:
        cmd = ["gcc", "-print-file-name=libtsan.so"]
        out = subprocess.run(cmd, capture_output=True, text=True).stdout.strip()
    except OSError:
        return False
    return os.path.isabs(out)


@pytest.mark.skipif(not _has_libtsan(), reason="gcc has no libtsan")
def test_two_threads_clean_under_tsan(tmp_path):
    # a C driver: python3 with libtsan preloaded does not start. It runs the
    # blur, the segmentation and the region sums of a 256x256 image on two
    # threads and checks them against one
    driver = Path(__file__).with_name("tsan_driver.c")
    exe = tmp_path / "tsan_driver"
    cmd = ["gcc", "-fsanitize=thread", "-g", "-O1", "-pthread", "-ffp-contract=off",
           str(superpixel._FELZ_SOURCE), str(driver), "-lm", "-o", str(exe)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    env = {**os.environ, "TSAN_OPTIONS": "halt_on_error=1"}
    proc = subprocess.run([str(exe)], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "ThreadSanitizer" not in proc.stderr
    assert proc.stdout.split() == ["same"]


def _segment_under_address_limit(headroom_mb):
    """Segment a 1024x1024 image in a fresh process whose address space ends
    headroom_mb past what it has mapped; prints the MemoryError, if any.
    Python allocates every buffer the native calls use, the thread's
    workspace first: the blurred image (25.2 MB), 33.5 MB of gen-indexed
    weights, which the blur also takes as scratch, 67.1 MB of sort records
    and two 8.4 MB per-pixel arrays; then the int64 roots and the int32 ids
    (12.6 MB)."""
    return _run_child(
        "import resource\n"
        "import numpy as np\n"
        "from seedloop import SegParams, felzenszwalb, superpixel\n"
        "from tests.conftest import make_image\n"
        "superpixel._load_felz()\n"
        "img = make_image(np.zeros((1024, 1024, 3)))\n"
        "vm = next(l for l in open('/proc/self/status') if l.startswith('VmSize:'))\n"
        f"limit = int(vm.split()[1]) * 1024 + {headroom_mb} * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, resource.RLIM_INFINITY))\n"
        "try:\n"
        "    felzenszwalb(img, SegParams(sigma=0))\n"
        "except MemoryError as e:\n"
        "    print('MemoryError:', e)\n"
    )


def test_scratch_allocation_failure_raises_memory_error():
    # 80 MB holds the weights but not the sort records
    proc = _segment_under_address_limit(80)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("MemoryError:"), proc.stdout


def test_native_library_allocates_nothing():
    # every buffer comes from numpy, so the library imports no allocator
    lib = superpixel._load_felz()._name
    proc = subprocess.run(["nm", "-D", "--undefined-only", lib], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    imported = {line.split()[-1].split("@")[0] for line in proc.stdout.splitlines()}
    assert not imported & {"malloc", "calloc", "realloc", "free"}


@pytest.fixture
def without_gcc(tmp_path, monkeypatch):
    """An empty cache under tmp_path and no gcc on PATH; yields the cache."""
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("PATH", "")
    monkeypatch.chdir(tmp_path)  # an empty PATH entry searches the working directory
    # a fresh process: nothing loaded yet, nothing in the cache
    monkeypatch.setattr(superpixel, "_load_felz", functools.cache(superpixel._load_felz.__wrapped__))
    yield tmp_path / ".cache" / "seedloop"


def test_native_build_without_gcc_raises(without_gcc):
    with pytest.raises(NativeBuildError, match="gcc"):
        felzenszwalb(make_image(np.zeros((4, 4, 3))), SegParams())
    assert not any(without_gcc.iterdir())  # no temp file left


def test_native_merge_without_gcc_raises(without_gcc):
    spmap = SuperpixelMap(np.array([[0, 0, 1, 1]], dtype=np.int32))
    with pytest.raises(NativeBuildError, match="gcc"):
        rag_merge(spmap, make_image(np.zeros((1, 4, 3))), 10.0)
    assert not any(without_gcc.iterdir())


def test_native_build_reused_from_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    load = superpixel._load_felz.__wrapped__
    load()
    cache = tmp_path / ".cache" / "seedloop"
    (lib,) = cache.iterdir()
    assert lib.name.startswith("felz-") and lib.suffix == ".so"
    stamp = lib.stat().st_mtime_ns
    monkeypatch.setenv("PATH", "")  # gcc can no longer run
    monkeypatch.setattr(superpixel, "_load_felz", functools.cache(load))
    rng = np.random.default_rng(3)
    img = make_image(rng.integers(0, 13, size=(20, 24, 3)) * 20)
    _assert_same_segmentation(img, SegParams(k=20, sigma=0, min_size=5))
    assert list(cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == stamp


def test_native_source_compiles_without_warnings(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    # linked as _build_felz links it, and every symbol must resolve: hypot
    # needs the -lm among the flags, after the source
    flags = ["-Wall", "-Wextra", "-Werror", *superpixel._FELZ_FLAGS, "-Wl,--no-undefined"]
    cmd = ["gcc", str(superpixel._FELZ_SOURCE), *flags, "-o", str(tmp_path / "lint.so")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
