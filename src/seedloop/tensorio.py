"""Raster, tensor and scene-directory I/O plus the synthetic scene generator.

Supported formats: binary PPM (P6, maxval 255) for RGB images, binary PGM
(P5, maxval 255) for label maps, and a tiny "DFNT" container for numeric
tensors exchanged between CLI stages.
"""

from __future__ import annotations

import math
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DimOverflow,
    InvalidParams,
    IoFailure,
    MalformedHeader,
    MissingFile,
    TruncatedPayload,
    UnsupportedMaxval,
    UnsupportedVersion,
    check_int,
    check_int_fields,
)

IGNORE = 255  # label value excluded from supervision and evaluation


@dataclass(frozen=True, eq=False)
class RasterImage:
    """8-bit RGB image; `data` has shape (height, width, 3)."""

    data: np.ndarray

    def __post_init__(self):
        d = self.data
        if d.ndim != 3 or d.shape[2] != 3 or d.size == 0:
            raise InvalidParams("image data must be a non-empty (height, width, 3) array")
        if d.dtype != np.uint8:
            raise InvalidParams("image data must be uint8")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-pixel category ids in 0..C-1 with 255 reserved as ignore;
    `labels` has shape (height, width)."""

    labels: np.ndarray

    def __post_init__(self):
        if self.labels.ndim != 2 or self.labels.size == 0:
            raise InvalidParams("labels must be a non-empty (height, width) array")
        if self.labels.dtype != np.uint8:
            raise InvalidParams("labels must be uint8")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


def _read(path) -> bytes:
    """The bytes of the file at `path`; a failed open or read is IoFailure."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise IoFailure(str(e)) from e


def _write(path, *chunks: bytes) -> None:
    """Write `chunks` as the file at `path`; a failed open or write is IoFailure."""
    try:
        with open(path, "wb") as f:
            f.writelines(chunks)
    except OSError as e:
        raise IoFailure(str(e)) from e


# one PNM header token: the whitespace and '#' comments before it, then the
# token itself, empty at the end of the file
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    """Load a binary PNM with maxval 255 as a (height, width[, channels])
    uint8 array; one channel gives a 2-D array."""
    raw = _read(path)
    if raw[:2] != magic:
        raise MalformedHeader(f"expected {magic!r} magic, got {raw[:2]!r}")
    pos, fields = 2, []
    for _ in range(3):  # width, height, maxval
        token = _PNM_TOKEN.match(raw, pos)
        if not token[1].isdigit():
            raise MalformedHeader(f"bad header token {token[1]!r}")
        fields.append(int(token[1]))
        pos = token.end()
    if pos >= len(raw):
        raise MalformedHeader("header ends before payload")
    pos += 1  # single whitespace byte separates maxval from payload
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeader("non-positive dimensions")
    if maxval != 255:
        raise UnsupportedMaxval(f"maxval {maxval} unsupported, need 255")
    shape = (height, width, channels) if channels > 1 else (height, width)
    need = math.prod(shape)
    payload = raw[pos : pos + need]
    if len(payload) < need:
        raise TruncatedPayload(f"expected {need} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def _write_pnm(path, magic: bytes, array: np.ndarray) -> None:
    """Write a uint8 (height, width[, channels]) array as binary PNM with
    maxval 255."""
    header = magic + f"\n{array.shape[1]} {array.shape[0]}\n255\n".encode("ascii")
    _write(path, header, array.tobytes())


def load_ppm(path) -> RasterImage:
    """Load a binary P6 PPM with maxval 255."""
    return RasterImage(_read_pnm(path, b"P6", 3))


def save_ppm(image: RasterImage, path) -> None:
    """Write a binary P6 PPM with maxval 255."""
    _write_pnm(path, b"P6", image.data)


def load_label_pgm(path) -> LabelMap:
    """Load a binary P5 PGM with maxval 255 as a label map."""
    return LabelMap(_read_pnm(path, b"P5", 1))


def save_label_pgm(lmap: LabelMap, path) -> None:
    """Write a label map as binary P5 PGM with maxval 255."""
    _write_pnm(path, b"P5", lmap.labels)


# Scene directories. `seedloop synth` writes, and `run` reads, per scene id:
# <id>.ppm the image, <id>.seeds.pgm the initial seeds, <id>.gt.pgm the ground
# truth (optional). `run` and `loop` write <id>.pred.pgm and <id>.trace.txt.
_IMAGE, _SEEDS, _GT = ".ppm", ".seeds.pgm", ".gt.pgm"
_PRED, _TRACE, _BARE = ".pred.pgm", ".trace.txt", ".pgm"


def _list_dir(path) -> list:
    """The names in directory `path`; one that cannot be listed is MissingFile."""
    try:
        return os.listdir(path)
    except OSError as e:
        raise MissingFile(str(e)) from e


def make_dir(path) -> None:
    """Create output directory `path` unless it exists; IoFailure when it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise IoFailure(str(e)) from e


def scene_ids(data_dir) -> list:
    """Sorted ids of the scenes in `data_dir`, each checked to have its seeds."""
    ids = sorted(name[: -len(_IMAGE)] for name in _list_dir(data_dir) if name.endswith(_IMAGE))
    if not ids:
        raise MissingFile(f"no {_IMAGE} images in {data_dir}")
    for scene_id in ids:
        seeds = os.path.join(data_dir, scene_id + _SEEDS)
        if not os.path.exists(seeds):
            raise MissingFile(seeds)
    return ids


def load_scene(data_dir, scene_id):
    """(image, ground truth or None when the scene has none, seeds) of one scene."""
    stem = os.path.join(data_dir, scene_id)
    image = load_ppm(stem + _IMAGE)
    seeds = load_label_pgm(stem + _SEEDS)
    gt = load_label_pgm(stem + _GT) if os.path.exists(stem + _GT) else None
    return image, gt, seeds


def save_scene(out_dir, scene_id, image: RasterImage, gt: LabelMap, seeds: LabelMap) -> None:
    """Write one scene as `load_scene` reads it."""
    stem = os.path.join(out_dir, scene_id)
    save_ppm(image, stem + _IMAGE)
    save_label_pgm(gt, stem + _GT)
    save_label_pgm(seeds, stem + _SEEDS)


def save_outputs(out_dir, scene_id, pred: LabelMap, trace_lines) -> None:
    """Write a scene's outputs: its prediction and its trace, one line per string."""
    stem = os.path.join(out_dir, scene_id)
    save_label_pgm(pred, stem + _PRED)
    _write(stem + _TRACE, ("\n".join(trace_lines) + "\n").encode())


def prediction_pairs(pred_dir, gt_dir) -> list:
    """(prediction, ground truth) paths per scene id of `pred_dir`, each id once:
    `<id>.pred.pgm`, else a bare `<id>.pgm` that is no seeds or ground-truth map,
    against `<id>.gt.pgm` in `gt_dir`, else `<id>.pgm` there."""
    ids = [
        name[: -len(_PRED if name.endswith(_PRED) else _BARE)]
        for name in sorted(_list_dir(pred_dir))
        if name.endswith(_BARE) and not name.endswith((_GT, _SEEDS))
    ]
    if not ids:
        raise MissingFile(f"no predictions in {pred_dir}")
    pairs = []
    for scene_id in dict.fromkeys(ids):
        pred = os.path.join(pred_dir, scene_id + _PRED)
        if not os.path.exists(pred):
            pred = os.path.join(pred_dir, scene_id + _BARE)
        gt = os.path.join(gt_dir, scene_id + _GT)
        if not os.path.exists(gt):
            gt = os.path.join(gt_dir, scene_id + _BARE)
        if not os.path.exists(gt):
            raise MissingFile(f"no ground truth for {scene_id}")
        pairs.append((pred, gt))
    return pairs


# DFNT tensor container: magic "DFNT", u8 version=1, u8 dtype code,
# u8 ndim, ndim little-endian u32 dims, little-endian row-major payload.
_DFNT_MAGIC = b"DFNT"
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<u2"), 3: np.dtype("u1")}
_DTYPE_CODES = {dtype: code for code, dtype in _CODE_DTYPES.items()}


def save_tensor(arr: np.ndarray, path) -> None:
    """Serialize a float32/uint16/uint8 array, ndim 1..4, bit-exactly."""
    a = np.ascontiguousarray(arr)
    le = a.dtype.newbyteorder("<")
    code = _DTYPE_CODES.get(le)
    if code is None:
        raise InvalidParams(f"unsupported tensor dtype {a.dtype}")
    a = a.astype(le, copy=False)
    if le.kind == "f" and not np.isfinite(a).all():
        raise InvalidParams("f32 tensor payload must be finite")
    if not 1 <= a.ndim <= 4:
        raise InvalidParams(f"tensor ndim must be 1..4, got {a.ndim}")
    if any(d > 0xFFFFFFFF for d in a.shape):
        raise DimOverflow("dimension exceeds u32")
    header = struct.pack(f"<BBB{a.ndim}I", 1, code, a.ndim, *a.shape)
    _write(path, _DFNT_MAGIC, header, a.tobytes())


def load_tensor(path) -> np.ndarray:
    """Load a DFNT tensor; inverse of :func:`save_tensor`."""
    raw = _read(path)
    if raw[:4] != _DFNT_MAGIC:
        raise BadMagic(f"bad magic {raw[:4]!r}")
    if len(raw) < 7:
        raise TruncatedPayload("header truncated")
    version, code, ndim = struct.unpack("<BBB", raw[4:7])
    if version != 1:
        raise UnsupportedVersion(f"version {version}")
    if code not in _CODE_DTYPES:
        raise MalformedHeader(f"unknown dtype code {code}")
    if not 1 <= ndim <= 4:
        raise MalformedHeader(f"ndim {ndim} out of range")
    if len(raw) < 7 + 4 * ndim:
        raise TruncatedPayload("dims truncated")
    dims = struct.unpack(f"<{ndim}I", raw[7 : 7 + 4 * ndim])
    dtype = _CODE_DTYPES[code]
    need = math.prod(dims) * dtype.itemsize  # exact: a numpy product can wrap to 0
    payload = raw[7 + 4 * ndim :]
    if len(payload) < need:
        raise TruncatedPayload(f"expected {need} payload bytes, got {len(payload)}")
    arr = np.frombuffer(payload[:need], dtype=dtype).reshape(dims).copy()
    if code == 1 and not np.isfinite(arr).all():
        raise InvalidParams("f32 tensor payload must be finite")
    return arr


# base colors per category: background plus three foreground classes
_BASE_COLORS = np.array(
    [[70, 90, 75], [200, 60, 50], [60, 180, 70], [60, 80, 200]], dtype=np.float64
)
_N_FOREGROUND = len(_BASE_COLORS) - 1  # a scene holds up to one shape per class
_SEED_AREA_FRACTION = 0.10  # of each shape, seeded as a central blob
_MARGIN = 6  # keeps shapes clear of the background seed ring

# size range per shape kind, [side // lo, side // hi) along each side: the box
# side of a rectangle (kind 0) or a triangle (kind 2), the radius of an ellipse
# (kind 1)
_SIZE_DIVISORS = ((6, 3), (10, 6), (5, 3))


def _side_fits(side):
    """Whether `_shape_mask` can draw every shape kind along a side of `side`
    pixels: each size range is non-empty and above 0, and its largest size
    (twice that for a radius) leaves a position between the two margins."""
    for kind, (lo, hi) in enumerate(_SIZE_DIVISORS):
        largest = side // hi - 1
        extent = 2 * largest if kind == 1 else largest
        if not 1 <= side // lo <= largest or extent >= side - 2 * _MARGIN:
            return False
    return True


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic scene generator."""

    width: int = 64
    height: int = 64
    noise_sigma: float = 6.0

    def __post_init__(self):
        check_int_fields(self)
        if not (_side_fits(self.width) and _side_fits(self.height)):
            raise InvalidParams(
                f"a {self.width}x{self.height} scene cannot hold every shape kind "
                f"inside margin {_MARGIN}"
            )
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails too
            raise InvalidParams("noise_sigma must be finite and >= 0")


def _shape_mask(kind, rng, yy, xx):
    """A boolean mask of one random filled shape of `kind` on the scene's grids."""
    h, w = yy.shape
    lo, hi = _SIZE_DIVISORS[kind]
    sw = int(rng.integers(w // lo, w // hi))
    sh = int(rng.integers(h // lo, h // hi))
    if kind == 1:  # ellipse with radii sw, sh
        cx = int(rng.integers(_MARGIN + sw, w - _MARGIN - sw))
        cy = int(rng.integers(_MARGIN + sh, h - _MARGIN - sh))
        return ((xx - cx) / sw) ** 2 + ((yy - cy) / sh) ** 2 <= 1.0
    x0 = int(rng.integers(_MARGIN, w - _MARGIN - sw))
    y0 = int(rng.integers(_MARGIN, h - _MARGIN - sh))
    box = (xx >= x0) & (xx < x0 + sw) & (yy >= y0) & (yy < y0 + sh)
    if kind == 0:  # rectangle
        return box
    # triangle: axis-aligned right triangle inside the box
    return box & ((xx - x0) * sh + (yy - y0) * sw <= sw * sh)


def _central_seed_blob(mask, frac):
    """Pixels of `mask` nearest its centroid, covering about `frac` of its area."""
    ys, xs = np.nonzero(mask)
    cy, cx = ys.mean(), xs.mean()
    d2 = (ys - cy) ** 2 + (xs - cx) ** 2
    n_keep = max(1, int(round(frac * ys.size)))
    # nonzero lists pixels in scan order, so distance ties go to the first
    order = np.argsort(d2, kind="stable")
    keep = order[:n_keep]
    return ys[keep], xs[keep]


def gen_synthetic(rng_seed: int, count: int, params: SynthParams = SynthParams()):
    """Generate `count` scenes of (image, ground truth, sparse initial seeds).

    Each scene has a textured background (category 0) and non-overlapping
    shapes, at most one per foreground category. Initial seeds label a small
    central blob per shape plus a sparse background ring; everything else is
    ignore (255). Deterministic for a fixed rng_seed.
    """
    check_int("rng_seed", rng_seed, low=0)
    check_int("count", count, low=1)
    rng = np.random.default_rng(rng_seed)
    h, w = params.height, params.width
    yy, xx = np.mgrid[0:h, 0:w]
    scenes = []
    for _ in range(count):
        gt = np.zeros((h, w), dtype=np.uint8)
        seeds = np.full((h, w), IGNORE, dtype=np.uint8)

        # textured background: base color plus low-frequency sinusoid
        phase = rng.uniform(0, 2 * np.pi)
        tex = 12.0 * np.sin(2 * np.pi * xx / 17 + phase) * np.cos(2 * np.pi * yy / 13)
        img = _BASE_COLORS[0][None, None, :] + tex[:, :, None]

        n_shapes = int(rng.integers(1, _N_FOREGROUND + 1))
        occupied = np.zeros((h, w), dtype=bool)
        categories = rng.permutation(np.arange(1, _N_FOREGROUND + 1))[:n_shapes]
        for cat in categories:
            mask = None
            for _attempt in range(30):
                kind = int(rng.integers(0, 3))
                cand = _shape_mask(kind, rng, yy, xx)
                if cand.sum() >= 20 and not (cand & occupied).any():
                    mask = cand
                    break
            if mask is None:
                continue
            occupied |= mask
            gt[mask] = cat
            jitter = rng.normal(0, 12, size=3)
            img[mask] = _BASE_COLORS[cat] + jitter
            sy, sx = _central_seed_blob(mask, _SEED_AREA_FRACTION)
            seeds[sy, sx] = cat

        img = img + rng.normal(0, params.noise_sigma, size=img.shape)
        img = np.clip(np.rint(img), 0, 255).astype(np.uint8)

        # sparse background ring: every 4th border-band pixel that is background
        ring = np.zeros((h, w), dtype=bool)
        ring[1:3, :] = True
        ring[-3:-1, :] = True
        ring[:, 1:3] = True
        ring[:, -3:-1] = True
        ring &= gt == 0
        ring &= ((yy + xx) % 4) == 0
        seeds[ring] = 0

        scenes.append(
            (
                RasterImage(img),
                LabelMap(gt),
                LabelMap(seeds),
            )
        )
    return scenes
