"""Superpixel generation: graph-based segmentation plus RAG refinement."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DimensionMismatch, DimOverflow, InvalidParams, NativeBuildError, ShapeMismatch
from .tensorio import RasterImage

_FELZ_SOURCE = Path(__file__).with_name("_felzenszwalb.c")
# -ffp-contract=off: no fused multiply-add, so edge weights, thresholds and
# merge distances round as numpy's do
# -fno-math-errno: sqrt is the bare instruction
_FELZ_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


@dataclass(frozen=True)
class SuperpixelMap:
    """Per-pixel region ids, contiguous 0..n_regions-1, each region 4-connected."""

    region_of: np.ndarray  # (height, width) int32

    def __post_init__(self):
        r = self.region_of
        if r.ndim != 2 or r.size == 0:
            raise ShapeMismatch("region map must be a non-empty [height, width] array")
        # max < size first: it keeps bincount from allocating for a stray huge id
        if r.min() < 0 or r.max() >= r.size or not np.bincount(r.ravel()).all():
            raise ShapeMismatch(f"region ids must be exactly 0..{r.max()}")

    @property
    def height(self) -> int:
        return self.region_of.shape[0]

    @property
    def width(self) -> int:
        return self.region_of.shape[1]

    @property
    def n_regions(self) -> int:
        return int(self.region_of.max()) + 1


@dataclass(frozen=True)
class SegParams:
    k: float = 100.0
    sigma: float = 0.8
    min_size: int = 20
    merge_thresh: float = 25.0

    def __post_init__(self):
        if not (  # NaN fails every comparison
            0 < self.k < np.inf
            and 0 <= self.sigma < np.inf
            and self.min_size >= 1
            and 0 <= self.merge_thresh < np.inf
        ):
            raise InvalidParams("bad segmentation parameters")


def _components(labels):
    """The 4-connected components of equal labels in a 2-D map, as int32 ids
    numbered from 0 by first pixel in scan order.

    ndimage.label runs on a (2h-1, 2w-1) grid: even cells are the pixels, and
    the odd cell between two 4-neighbours is set when their labels are equal.
    It numbers components by first cell in raster order, and a component's
    first cell is a pixel, so the even cells minus 1 are in scan order.
    """
    h, w = labels.shape
    grid = np.ones((2 * h - 1, 2 * w - 1), dtype=bool)
    grid[1::2, 1::2] = False
    grid[::2, 1::2] = labels[:, :-1] == labels[:, 1:]
    grid[1::2, ::2] = labels[:-1, :] == labels[1:, :]
    return ndimage.label(grid)[0][::2, ::2] - 1


def _build_felz(lib):
    """Compile _felzenszwalb.c into lib. gcc writes a temp file in the same
    directory, renamed into place, so a concurrent loader sees all or none."""
    try:
        lib.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=lib.parent)
        os.close(fd)
        try:
            cmd = ["gcc", str(_FELZ_SOURCE), *_FELZ_FLAGS, "-o", tmp]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                os.replace(tmp, lib)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    except OSError as e:  # gcc not on PATH, or the cache not writable
        raise NativeBuildError(f"gcc could not build {lib}: {e}") from e
    if proc.returncode != 0:
        raise NativeBuildError(f"gcc failed on {_FELZ_SOURCE}:\n{proc.stderr}")


@functools.cache
def _load_felz():
    """The library built from _felzenszwalb.c on first use into
    ~/.cache/seedloop under the SHA-256 of the source and the gcc flags."""
    key = hashlib.sha256(_FELZ_SOURCE.read_bytes() + " ".join(_FELZ_FLAGS).encode())
    path = Path.home() / ".cache" / "seedloop" / f"felz-{key.hexdigest()}.so"
    if not path.exists():
        _build_felz(path)
    lib = ctypes.CDLL(str(path))
    img = np.ctypeslib.ndpointer(np.float64, ndim=3, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    c_i64, c_f64 = ctypes.c_int64, ctypes.c_double
    # h, w, image, k, min_size, root (out); nonzero when an allocation failed
    lib.felz_segment.argtypes = [c_i64, c_i64, img, c_f64, c_f64, i64]
    lib.felz_segment.restype = ctypes.c_int
    # n, n_edges, ea, eb, sums, counts, final, dist, merge_thresh, max_regions;
    # every array is updated in place, dist is scratch
    lib.rag_merge_loop.argtypes = [c_i64, c_i64, i64, i64, f64, f64, i64, f64, c_f64, c_i64]
    lib.rag_merge_loop.restype = None
    return lib


def felzenszwalb(image: RasterImage, params: SegParams = SegParams()) -> SuperpixelMap:
    """Graph-based segmentation (Felzenszwalb & Huttenlocher, IJCV 2004).

    Deterministic: edges sorted by (weight, generation index), merge predicate
    w <= min(Int(Ci) + k/|Ci|, Int(Cj) + k/|Cj|), then components smaller than
    min_size are absorbed along their lowest-weight edges. Output regions are
    the 4-connected components of the result, numbered in scan order. The edge
    build and sort and the two union-find passes are one call into
    _felzenszwalb.c, compiled by gcc on first call.

    The generation index is 32 bits wide in the native sort, so images of
    more than 2**30 pixels raise DimOverflow before any work.
    """
    h, w = image.height, image.width
    if h * w > 2**30:
        raise DimOverflow(f"a {h}x{w} image has more than 2**30 pixels")
    img = image.data.astype(np.float64)
    if params.sigma > 0:  # blur each channel on its own
        img = ndimage.gaussian_filter(img, (params.sigma, params.sigma, 0))
    # 8-connected merging can leave diagonal-only links; splitting each root's
    # pixels into 4-connected components restores the invariant
    return SuperpixelMap(_components(_roots(img, params).reshape(h, w)))


def _roots(img, params):
    """felz_segment's root of each pixel of a blurred float64 (h, w, 3)
    image, as a flat int64 array in scan order."""
    h, w, _ = img.shape
    roots = np.empty(h * w, np.int64)
    lib = _load_felz()
    if lib.felz_segment(h, w, np.ascontiguousarray(img), params.k, params.min_size, roots):
        raise MemoryError(f"felz_segment could not allocate its buffers for a {h}x{w} image")
    return roots


def region_edges(region_of):
    """Unique (i, j), i < j, region pairs sharing a 4-connected border, as an
    (E, 2) int64 array in lexicographic order. Each pair is one int64 key
    i * n + j, so sorting the keys sorts the pairs."""
    n = int(region_of.max()) + 1
    keys = np.concatenate(
        [
            np.minimum(a, b)[a != b].astype(np.int64) * n + np.maximum(a, b)[a != b]
            for a, b in (
                (region_of[:, :-1], region_of[:, 1:]),
                (region_of[:-1, :], region_of[1:, :]),
            )
        ]
    )
    return np.stack(np.divmod(np.unique(keys), n), axis=1)


def rag_merge(
    spmap: SuperpixelMap,
    image: RasterImage,
    merge_thresh: float,
    max_regions: int | None = None,
) -> SuperpixelMap:
    """Greedily merge the closest adjacent region pair by mean RGB distance.

    Repeats while the smallest distance is below merge_thresh (or until
    max_regions is reached, when given); mean colors are pixel-count-weighted.
    The pair merged is the first (i, j) in lexicographic order whose distance
    lies within 1e-12 of the minimum, so near-ties go to the smaller pair.
    A merge keeps the smaller id, and survivors are renumbered 0.. in id
    order. Ids in scan order, as `felzenszwalb` makes them, stay in scan order:
    a group's smallest id names its first pixel. Merged regions are unions of
    regions across 4-connected borders, so 4-connected regions stay so.

    The merge loop is one call into _felzenszwalb.c, and its distance rounds
    as the felzenszwalb edge weight does.
    """
    if (spmap.height, spmap.width) != (image.height, image.width):
        raise DimensionMismatch("superpixel map and image dimensions differ")
    if not 0 <= merge_thresh < np.inf:  # NaN fails every comparison, as in SegParams
        raise InvalidParams(f"merge_thresh must be finite and >= 0, got {merge_thresh}")
    if max_regions is not None and max_regions < 1:
        raise InvalidParams(f"max_regions must be >= 1, got {max_regions}")
    n = spmap.n_regions
    flat = spmap.region_of.ravel()
    counts = np.bincount(flat, minlength=n).astype(np.float64)
    pix = image.data.reshape(-1, 3).astype(np.float64)
    sums = np.stack(
        [np.bincount(flat, weights=pix[:, c], minlength=n) for c in range(3)], axis=1
    )
    ea, eb = region_edges(spmap.region_of).T.copy()
    final = np.arange(n, dtype=np.int64)  # original region -> the region it was merged into
    cap = n if max_regions is None else int(max_regions)  # n alive never forces a merge
    dist = np.empty(len(ea))
    _load_felz().rag_merge_loop(
        n, len(ea), ea, eb, sums.ravel(), counts, final, dist, float(merge_thresh), cap
    )
    new_id = np.unique(final, return_inverse=True)[1].astype(np.int32)  # survivor ranks
    return SuperpixelMap(new_id[spmap.region_of])
