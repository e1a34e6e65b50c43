"""Superpixel generation: graph-based segmentation plus RAG refinement."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    DimOverflow,
    InvalidParams,
    NativeBuildError,
    ShapeMismatch,
    check_int,
    check_int_fields,
)
from .tensorio import RasterImage

_FELZ_SOURCE = Path(__file__).with_name("_felzenszwalb.c")
# -O3: the elementwise loops (the blur, gray_gradients, the magnitudes)
# vectorise. Each vector lane computes its value by the same operations in
# the same order as the scalar loop, and -O3 reassociates nothing, so every
# value rounds as at -O2; the byte tests and golden digests hold either way
# -fno-trapping-math: the magnitudes compute both of the hypot kernel's
# corrections and select one; without this flag gcc keeps the branch, for
# the floating-point exceptions of the path not taken, and that loop does
# not vectorise. It changes no rounding
# -ffp-contract=off: no fused multiply-add, so edge weights, thresholds,
# merge distances and magnitudes round as numpy's do
# -fno-math-errno: sqrt is the bare instruction, and vectorises
# -falign-loops=32: loop speed stops hanging on where the code lands; the
# blur's unchanged loops ran 11-15% slower at 64x64 after code around them
# moved, and at par with this flag
# -pthread: the blur and the segmentation can take a second thread
# -lm: at these flags the library calls nothing in libm (sqrt and fabs are
# instructions, and the magnitudes use no fma); it keeps a build whose
# added flags turn one into a call linking. It goes after the source, where
# _build_felz puts these flags
# No flag may change rounding (-ffast-math and the flags it implies, -mfma)
# or tie the cached library to the build host (-march=native).
_FELZ_FLAGS = (
    "-O3", "-fno-trapping-math", "-shared", "-fPIC", "-ffp-contract=off", "-fno-math-errno",
    "-falign-loops=32", "-pthread", "-lm",
)

# the pixel count from which the native passes run on two threads: below it
# the second thread costs more than it saves (64x64 and 128x128 scenes ran
# 12% and 14% slower end to end on two threads of a 2-vCPU host)
TWO_THREAD_PIXELS = 2**16


@dataclass(frozen=True, eq=False)
class SuperpixelMap:
    """Per-pixel region ids, contiguous 0..n_regions-1, each region 4-connected.

    n_regions is the largest id + 1, found by the constructor's check, which
    the maps that `felzenszwalb` and `rag_merge` number skip (`_numbered`).
    `edges` are the map's `region_edges`: those two pass the pairs they
    derive as _edges, and any other map computes them from its pixels on
    first use. `felzenszwalb` also passes its regions' pixel counts (n,), RGB
    sums (n, 3) and RGB sums of squares (n, 3) over the image it segmented,
    as _region_sums adds them up, as _stats; other maps have None. Maps
    compare by identity."""

    region_of: np.ndarray  # (height, width) int32
    _edges: np.ndarray | None = field(default=None, init=False, repr=False)
    _stats: tuple | None = field(default=None, init=False, repr=False)
    n_regions: int = field(init=False, repr=False)

    def __post_init__(self):
        r = self.region_of
        if r.ndim != 2 or r.size == 0:
            raise ShapeMismatch("region map must be a non-empty [height, width] array")
        if not np.issubdtype(r.dtype, np.integer):
            raise ShapeMismatch(f"region ids must be integers, got {r.dtype}")
        top = r.max()
        # max < size first: it keeps bincount from allocating for a stray huge id
        if r.min() < 0 or top >= r.size or not np.bincount(r.ravel()).all():
            raise ShapeMismatch(f"region ids must be exactly 0..{top}")
        object.__setattr__(self, "n_regions", int(top) + 1)

    @classmethod
    def _numbered(cls, region_of, n_regions, edges, stats=None):
        """The map of the int32 ids region_of that native code numbered
        0..n_regions-1, each region 4-connected, and its edges and stats,
        without the constructor's full-image check: every such map passes
        it, as tests/test_superpixel.py pins."""
        spmap = cls.__new__(cls)
        values = region_of, edges, stats, n_regions
        for name, value in zip(("region_of", "_edges", "_stats", "n_regions"), values):
            object.__setattr__(spmap, name, value)
        return spmap

    @property
    def height(self) -> int:
        return self.region_of.shape[0]

    @property
    def width(self) -> int:
        return self.region_of.shape[1]

    @property
    def edges(self) -> np.ndarray:
        """region_edges(region_of), computed on first use unless given."""
        if self._edges is None:
            object.__setattr__(self, "_edges", region_edges(self.region_of))
        return self._edges


# the blur's kernel has 2 * int(4 sigma + 0.5) + 1 taps, built in numpy before
# the blur: sigma 1000 gives 8,001, while sigma 1e8 would take gigabytes and
# sigma 1e20 makes np.arange fail
MAX_SIGMA = 1000.0


@dataclass(frozen=True)
class SegParams:
    k: float = 100.0
    sigma: float = 0.8
    min_size: int = 20
    merge_thresh: float = 25.0

    def __post_init__(self):
        check_int_fields(self)
        if not (  # NaN fails every comparison
            0 < self.k < np.inf
            and 0 <= self.sigma <= MAX_SIGMA
            and self.min_size >= 1
            and 0 <= self.merge_thresh < np.inf
        ):
            raise InvalidParams("bad segmentation parameters")


def _components(labels):
    """The 4-connected components of equal labels in a 2-D integer map, as
    int32 ids numbered from 0 by first pixel in scan order: a union-find in
    _felzenszwalb.c."""
    ids = np.empty(labels.shape, np.int32)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    parent = np.empty(labels.size, np.int64)
    _load_felz().label_components(*labels.shape, labels, parent, ids, None, None, None, None)
    return ids


# where a container's cgroup sets its CPU bandwidth: v2's "quota period",
# else v1's quota and period files; a quota of "max" or -1 sets no limit
_CPU_LIMITS = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


@functools.cache
def _cpu_quota():
    """How many CPUs' worth of time the first readable _CPU_LIMITS entry
    grants per period, or inf when none sets a limit. Read once a process,
    as a quota rarely changes under a running process."""
    for files in _CPU_LIMITS:
        try:
            quota, period = map(int, " ".join(Path(f).read_text() for f in files).split())
        except (OSError, ValueError):  # missing, or "max"
            continue
        return quota / period if quota > 0 and period > 0 else np.inf
    return np.inf


def _threads(n):
    """The thread count for the native passes over an n-pixel image: two
    from TWO_THREAD_PIXELS pixels on when this process may run on two CPUs
    and its cgroup grants it two CPUs' worth of time, else one. Under a
    smaller quota the two threads, which spin briefly while one waits on
    the other, would spend it waiting. Every count gives the same bytes."""
    if n < TWO_THREAD_PIXELS:
        return 1
    return 2 if min(len(os.sched_getaffinity(0)), _cpu_quota()) >= 2 else 1


def _gradients(image):
    """The gradients gx and gy of image's gray level and their orientation,
    each a flat float64 array in scan order and a view of this thread's
    workspace, which the next call overwrites. The gray level (r + g + b) /
    3.0 and its np.gradient along each side (zero along a side of one pixel)
    are one pass in _felzenszwalb.c; the orientation is numpy's
    np.arctan2(gy, gx), whose rounding C does not reproduce."""
    h, w = image.height, image.width
    n = h * w
    _, _, rec, _, thresh = _buffers(n)  # free once felz_segment is done
    gx, gy, theta = rec.view(np.float64)[: 3 * n].reshape(3, n)
    rgb = np.ascontiguousarray(image.data).ravel()
    _load_felz().gray_gradients(h, w, rgb, thresh, gx, gy)
    np.arctan2(gy, gx, out=theta)
    return gx, gy, theta


def _region_sums(spmap, image, gx, gy, theta, n_bins):
    """Per-region pixel counts (n,), RGB sums (n, 3) and RGB sums of squares
    (n, 3) in one scan-order pass in _felzenszwalb.c over the map's int32
    ids. When n_bins > 0, given the float64 gradients gx and gy and their
    orientation theta = np.arctan2(gy, gx) in scan order, the pass also
    gives each region's sum of hypot(gx, gy) (n,), added in scan order as
    np.bincount adds, and its count of each orientation bin (n, n_bins),
    the bin of theta being ((theta + pi) / (2 pi) * n_bins) truncated and
    clamped to 0..n_bins-1; with n_bins 0 the three gradient arrays may be
    empty and those two sums are zero. The pass runs on one thread; the
    hypots are one vectorised pass into this thread's workspace first,
    rounded as np.hypot rounds them."""
    n = spmap.n_regions
    counts, sums, squares = np.zeros(n), np.zeros((n, 3)), np.zeros((n, 3))
    mag, hist = np.zeros(n), np.zeros((n, n_bins))
    region = np.ascontiguousarray(spmap.region_of, dtype=np.int32).ravel()
    scratch = _buffers(region.size)[1] if n_bins > 0 else np.empty(0)
    _load_felz().region_sums(
        region.size, region, image.data.ravel(), counts, sums.ravel(), squares.ravel(),
        gx.ravel(), gy.ravel(), theta.ravel(), n_bins, mag, hist.ravel(), scratch,
    )
    return counts, sums, squares, mag, hist


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


def _or_null(ptr):
    """The ndpointer type ptr, taking None as well, which passes NULL."""

    class OrNull(ptr):
        @classmethod
        def from_param(cls, obj):
            return None if obj is None else super().from_param(obj)

    return OrNull


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
    i32 = np.ctypeslib.ndpointer(np.int32, ndim=1, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    u8 = np.ctypeslib.ndpointer(np.uint8, ndim=1, flags="C_CONTIGUOUS")
    map_i64 = np.ctypeslib.ndpointer(np.int64, ndim=2, flags="C_CONTIGUOUS")
    map_i32 = np.ctypeslib.ndpointer(np.int32, ndim=2, flags="C_CONTIGUOUS")
    u64 = np.ctypeslib.ndpointer(np.uint64, ndim=1, flags="C_CONTIGUOUS")
    c_i64, c_f64 = ctypes.c_int64, ctypes.c_double
    # h, w, rgb, r, fw (its r + 1 values), tmp (scratch), out, threads
    lib.gauss_blur.argtypes = [c_i64, c_i64, u8, c_i64, f64, f64, img, c_i64]
    lib.gauss_blur.restype = None
    # h, w, image, rgb, k, min_size, wgt, rec, size, thresh (the four
    # scratch), root (out), id (out), the pair count (out), threads; returns
    # the region count, and leaves each region's sums in rec and the border
    # pairs in wgt
    lib.felz_segment.argtypes = [
        c_i64, c_i64, img, u8, c_f64, c_f64, f64, u64, i64, f64, i64, map_i32, i64, c_i64
    ]
    lib.felz_segment.restype = c_i64
    # n, n_edges, ea, eb, sums, counts, final, dist, merge_thresh, max_regions;
    # every array is updated in place, dist is scratch, final goes in as
    # 0..n-1 and comes out as each region's survivor id; returns the
    # survivor count
    lib.rag_merge_loop.argtypes = [c_i64, c_i64, i64, i64, f64, f64, i64, f64, c_f64, c_i64]
    lib.rag_merge_loop.restype = c_i64
    # h, w, label, parent (scratch), id (out), then rgb, stats, pairs and the
    # pair count, all None to only number; returns the component count
    lib.label_components.argtypes = [
        c_i64, c_i64, map_i64, i64, map_i32, _or_null(u8), _or_null(i64), _or_null(i64),
        _or_null(i64),
    ]
    lib.label_components.restype = c_i64
    # h, w, rgb, gray (scratch), gx (out), gy (out)
    lib.gray_gradients.argtypes = [c_i64, c_i64, u8, f64, f64, f64]
    lib.gray_gradients.restype = None
    # n_pixels, region, rgb, counts, sums, squares, gx, gy, theta, n_bins, mag,
    # hist, scratch; the outputs are added to, and gx, gy, theta, mag, hist
    # and scratch (n_pixels values) are touched only when n_bins > 0
    lib.region_sums.argtypes = [c_i64, i32, u8, f64, f64, f64, f64, f64, f64, c_i64, f64, f64, f64]
    lib.region_sums.restype = None
    # n_pixels, region, label, ignore, n_categories, counts (added to);
    # returns the count of labels other than ignore at n_categories or more
    lib.label_counts.argtypes = [c_i64, i32, u8, c_i64, c_i64, i64]
    lib.label_counts.restype = c_i64
    return lib


class _Workspace(threading.local):
    """One thread's blurred image and felz_segment scratch, kept while the
    pixel count stays the same, so a run of equal-sized scenes allocates
    them once. Per thread: ctypes releases the GIL during a native call,
    and a native call's second thread uses only its caller's buffers."""

    n = -1
    buffers = ()


_WORKSPACE = _Workspace()


def _buffers(n):
    """This thread's buffers for an n-pixel image: the blurred image (3n),
    then felz_segment's scratch, gen-indexed weights (4n, also the blur's
    scratch and where the region sums put each pixel's gradient magnitude),
    sort records (8n, also where _gradients puts its three arrays) and
    per-pixel sizes and thresholds (n each, the thresholds also _gradients'
    gray image)."""
    ws = _WORKSPACE
    if ws.n != n:
        ws.n, ws.buffers = -1, ()  # the old buffers go before the new ones come
        ws.buffers = (
            np.empty(3 * n), np.empty(4 * n), np.empty(8 * n, np.uint64),
            np.empty(n, np.int64), np.empty(n),
        )
        ws.n = n
    return ws.buffers


@functools.lru_cache(maxsize=32)
def _gaussian_kernel(sigma):
    """fw[0..r], the right half of the kernel scipy.ndimage.gaussian_filter
    correlates an axis with at this sigma: scipy's _gaussian_kernel1d at
    truncate 4, exp(-x**2 / 2 sigma**2) over x in -r..r divided by its sum,
    r = int(4 sigma + 0.5). scipy skips an axis whose sigma is at most
    1e-15; the kernel [1.0] leaves it as it is."""
    fw = np.ones(1)
    if sigma > 1e-15:
        radius = int(4.0 * sigma + 0.5)
        x = np.arange(-radius, radius + 1)
        phi_x = np.exp(-0.5 / (sigma * sigma) * x**2)
        fw = (phi_x / phi_x.sum())[radius:].copy()
    fw.flags.writeable = False  # shared by every call at this sigma
    return fw


def _blur(image, sigma):
    """The image blurred along height and width at sigma, as the (h, w, 3)
    float64 scipy.ndimage.gaussian_filter(image.data.astype(np.float64),
    (sigma, sigma, 0)), bit for bit: gauss_blur in _felzenszwalb.c, on
    _threads' count. The result is this thread's workspace, which the next
    call overwrites."""
    h, w = image.height, image.width
    blurred, wgt = _buffers(h * w)[:2]
    blurred = blurred.reshape(h, w, 3)
    fw = _gaussian_kernel(float(sigma))
    rgb = np.ascontiguousarray(image.data).ravel()
    _load_felz().gauss_blur(h, w, rgb, len(fw) - 1, fw, wgt, blurred, _threads(h * w))
    return blurred


def felzenszwalb(image: RasterImage, params: SegParams = SegParams()) -> SuperpixelMap:
    """Graph-based segmentation (Felzenszwalb & Huttenlocher, IJCV 2004).

    Deterministic: the image is blurred at params.sigma, as
    scipy.ndimage.gaussian_filter blurs it; edges are sorted by (weight,
    generation index), merge predicate
    w <= min(Int(Ci) + k/|Ci|, Int(Cj) + k/|Cj|), then components smaller than
    min_size are absorbed along their lowest-weight edges. Output regions are
    the 4-connected components of the result, numbered in scan order. The
    blur is one call into _felzenszwalb.c, compiled by gcc on first call;
    the edge build and sort, the two union-find passes and the numbering are
    another. They work in numpy arrays only, so a lack of memory fails in
    numpy, before either call.

    The generation index is 32 bits wide in the native sort, so images of
    more than 2**30 pixels raise DimOverflow before any work.
    """
    h, w = image.height, image.width
    if h * w > 2**30:
        raise DimOverflow(f"a {h}x{w} image has more than 2**30 pixels")
    _, ids, stats, edges = _segment(_blur(image, params.sigma), params, image.data)
    return SuperpixelMap._numbered(ids, len(stats[0]), edges, stats)


def _segment(img, params, rgb):
    """felz_segment on a blurred float64 (h, w, 3) image, on _threads' count,
    with rgb the u8 (h, w, 3) image it was blurred from: each pixel's root,
    as a flat int64 array in scan order, its (h, w) int32 region id, its
    regions' pixel counts, RGB sums and RGB sums of squares over rgb (see
    SuperpixelMap), and their edges as region_edges gives them. The
    numbering that gives the ids also sums up the regions and lists the
    border pairs, into this thread's workspace: the scratch, 4 slots a pixel
    for the sort, so the edge count stays in C. No component exceeds h * w
    pixels, so a min_size above h * w + 1 acts as h * w + 1, which a double
    holds."""
    h, w, _ = img.shape
    n = h * w
    roots, ids = np.empty(n, np.int64), np.empty((h, w), np.int32)
    n_pairs = np.zeros(1, np.int64)
    wgt, rec, size, thresh = _buffers(n)[1:]
    img, min_size = np.ascontiguousarray(img), float(min(params.min_size, n + 1))
    n_regions = _load_felz().felz_segment(
        h, w, img, np.ascontiguousarray(rgb).ravel(), params.k, min_size, wgt, rec, size,
        thresh, roots, ids, n_pairs, _threads(n),
    )
    # 7 a region: the count, 3 sums, 3 sums of squares
    sums = rec.view(np.int64)[: 7 * n_regions].reshape(n_regions, 7)
    stats = tuple(sums[:, cols].astype(np.float64) for cols in (0, slice(1, 4), slice(4, 7)))
    pairs = wgt.view(np.int64)[: 2 * n_pairs[0]].reshape(-1, 2)
    return roots, ids, stats, _unique_pairs([(pairs[:, 0], pairs[:, 1])], n_regions)


def _unique_pairs(pairs, n):
    """The distinct (min(a, b), max(a, b)) of the a != b among the int64
    id arrays (a, b) of pairs, ids below n, as an (E, 2) int64 array in
    lexicographic order. Each pair is one int64 key i * n + j, so sorting the
    keys sorts the pairs."""
    keys = np.concatenate(
        [np.minimum(a, b)[a != b] * n + np.maximum(a, b)[a != b] for a, b in pairs]
    )
    return np.stack(np.divmod(np.unique(keys), n), axis=1)


def region_edges(region_of):
    """Unique (i, j), i < j, region pairs sharing a 4-connected border, as an
    (E, 2) int64 array in lexicographic order."""
    n = int(region_of.max()) + 1
    pairs = []
    for a, b in ((region_of[:, :-1], region_of[:, 1:]), (region_of[:-1, :], region_of[1:, :])):
        border = a != b  # only the few pixels on a border become int64 keys
        pairs.append((a[border].astype(np.int64), b[border].astype(np.int64)))
    return _unique_pairs(pairs, n)


def _check_max_regions(max_regions):
    """rag_merge's check of max_regions, which the CLI runs before segmenting."""
    if max_regions is not None:
        check_int("max_regions", max_regions, low=1)


def rag_merge(
    spmap: SuperpixelMap,
    image: RasterImage,
    merge_thresh: float,
    max_regions: int | None = None,
    *,
    _stats: tuple | None = None,
) -> SuperpixelMap:
    """Greedily merge the closest adjacent region pair by mean RGB distance.

    Repeats while the smallest distance is below merge_thresh (or until
    max_regions is reached, when given); mean colors are pixel-count-weighted.
    The pair merged is the first (i, j) in lexicographic order whose distance
    lies within 1e-12 of the minimum, so near-ties go to the smaller pair.
    A merge keeps the smaller id, and survivors are numbered 0.. in id
    order. Ids in scan order, as `felzenszwalb` makes them, stay in scan order:
    a group's smallest id names its first pixel. Merged regions are unions of
    regions across 4-connected borders, so 4-connected regions stay so, and
    two merged regions touch if and only if two of their regions do: the
    output carries the input's `edges` mapped to their survivors as its own.

    _stats, when the caller has them, are spmap's regions' stats over image
    (see SuperpixelMap), which then takes no pass over its pixels. A map's
    own _stats count only when handed on so: the image they were taken over
    may not be this one, or may have been rewritten since.

    The merge loop and the numbering are one call into _felzenszwalb.c, and
    its distance rounds as the felzenszwalb edge weight does.
    """
    if (spmap.height, spmap.width) != (image.height, image.width):
        raise DimensionMismatch("superpixel map and image dimensions differ")
    if not 0 <= merge_thresh < np.inf:  # NaN fails every comparison, as in SegParams
        raise InvalidParams(f"merge_thresh must be finite and >= 0, got {merge_thresh}")
    _check_max_regions(max_regions)
    if _stats is None:
        empty = np.empty(0)  # n_bins 0: no gradient sums
        _stats = _region_sums(spmap, image, empty, empty, empty, 0)[:3]
    n = spmap.n_regions
    counts, sums = (a.copy() for a in _stats[:2])  # the merge updates them in place
    pairs = spmap.edges
    ea, eb = pairs.T.copy()
    final = np.arange(n, dtype=np.int64)  # becomes each region's survivor id
    # at most n regions are ever alive, so a cap of n or more forces no merge;
    # min keeps a larger one inside the native int64
    cap = n if max_regions is None else min(int(max_regions), n)
    dist = np.empty(len(ea))
    n_merged = _load_felz().rag_merge_loop(
        n, len(ea), ea, eb, sums.ravel(), counts, final, dist, float(merge_thresh), cap
    )
    merged = _unique_pairs([(final[pairs[:, 0]], final[pairs[:, 1]])], n_merged)
    region_of = np.take(final.astype(np.int32), spmap.region_of)  # a third of []'s time
    return SuperpixelMap._numbered(region_of, n_merged, merged)
