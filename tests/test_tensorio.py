import hashlib
import struct

import numpy as np
import pytest

from seedloop import (
    IGNORE,
    LabelMap,
    RasterImage,
    SynthParams,
    gen_synthetic,
    load_label_pgm,
    load_ppm,
    load_tensor,
    save_label_pgm,
    save_ppm,
    save_tensor,
)
from seedloop.errors import (
    BadMagic,
    InvalidParams,
    IoFailure,
    MalformedHeader,
    TruncatedPayload,
    UnsupportedMaxval,
    UnsupportedVersion,
)
from seedloop.seeds import SeedState
from seedloop.superpixel import SuperpixelMap
from tests.conftest import make_image, make_labels


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_image(np.zeros((2, 3, 3))),
        lambda: make_labels(np.zeros((2, 3))),
        lambda: SuperpixelMap(np.zeros((2, 3), np.int32)),
        lambda: SeedState(np.full((2, 3), 0.5)),
    ],
    ids=["RasterImage", "LabelMap", "SuperpixelMap", "SeedState"],
)
def test_array_dataclasses_compare_by_identity(make):
    # a generated __eq__ compared the arrays inside tuples and raised ValueError
    a, b = make(), make()
    assert a == a and a != b and len({a, a, b}) == 2


def test_load_ppm_decodes_pixels(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
    img = load_ppm(p)
    assert img.width == 2 and img.height == 1
    assert tuple(img.data[0, 0]) == (255, 0, 0)
    assert tuple(img.data[0, 1]) == (0, 0, 255)


def test_load_ppm_truncated(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
    with pytest.raises(TruncatedPayload):
        load_ppm(p)


def test_load_ppm_wrong_magic(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes(2))
    with pytest.raises(MalformedHeader):
        load_ppm(p)


@pytest.mark.parametrize(
    "header",
    [
        b"P6\n# made by hand\n2 # width\n1\n# maxval next\n255\n",
        b"P6# comment\n2 1 255\n",
        b"P62 1 255\n",
    ],
    ids=["comments_between_tokens", "comment_after_magic", "token_after_magic"],
)
def test_load_ppm_header_forms(tmp_path, header):
    p = tmp_path / "t.ppm"
    p.write_bytes(header + bytes([255, 0, 0, 0, 0, 255]))
    assert load_ppm(p).data.tolist() == [[[255, 0, 0], [0, 0, 255]]]


@pytest.mark.parametrize(
    "header",
    [b"P6\n2 1\n# no end", b"P6\n2 1#c\n255\n", b"P6\n2 1\n255", b"P6\n0 1\n255\n"],
    ids=["comment_to_eof", "hash_glued_to_token", "ends_at_maxval", "zero_width"],
)
def test_load_ppm_malformed_header(tmp_path, header):
    p = tmp_path / "t.ppm"
    p.write_bytes(header)
    with pytest.raises(MalformedHeader):
        load_ppm(p)


def test_load_ppm_bad_maxval(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(UnsupportedMaxval):
        load_ppm(p)


def test_ppm_roundtrip(tmp_path, rng):
    img = make_image(rng.integers(0, 256, size=(5, 7, 3)))
    save_ppm(img, tmp_path / "x.ppm")
    back = load_ppm(tmp_path / "x.ppm")
    assert np.array_equal(img.data, back.data)


def test_pgm_roundtrip(tmp_path, rng):
    lmap = make_labels(rng.integers(0, 4, size=(8, 8)))
    save_label_pgm(lmap, tmp_path / "x.pgm")
    back = load_label_pgm(tmp_path / "x.pgm")
    assert np.array_equal(lmap.labels, back.labels)


def test_pgm_all_ignore_roundtrip(tmp_path):
    lmap = make_labels(np.full((4, 4), IGNORE))
    save_label_pgm(lmap, tmp_path / "x.pgm")
    assert (load_label_pgm(tmp_path / "x.pgm").labels == IGNORE).all()


def test_zero_width_map_rejected():
    with pytest.raises(InvalidParams):
        LabelMap(np.zeros((4, 0), dtype=np.uint8))


@pytest.mark.parametrize(
    "make",
    [
        lambda: LabelMap(np.zeros(4, dtype=np.uint8)),
        lambda: LabelMap(np.zeros((2, 2), dtype=np.int32)),
        lambda: RasterImage(np.zeros((2, 2), dtype=np.uint8)),
        lambda: RasterImage(np.zeros((2, 2, 4), dtype=np.uint8)),
        lambda: RasterImage(np.zeros((0, 2, 3), dtype=np.uint8)),
        lambda: RasterImage(np.zeros((2, 2, 3), dtype=np.float64)),
    ],
    ids=["labels_1d", "labels_int32", "image_2d", "image_4_channels", "image_empty", "image_float"],
)
def test_raster_types_check_their_array(make):
    with pytest.raises(InvalidParams):
        make()


def test_tensor_format_arithmetic(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    save_tensor(arr, tmp_path / "t.dfnt")
    assert (tmp_path / "t.dfnt").stat().st_size == 39
    back = load_tensor(tmp_path / "t.dfnt")
    assert back.dtype == np.float32
    assert np.array_equal(arr, back)


@pytest.mark.parametrize("dtype", [np.float32, np.uint16, np.uint8])
def test_tensor_roundtrip_bit_exact(tmp_path, rng, dtype):
    if dtype == np.float32:
        arr = rng.standard_normal((3, 4, 2)).astype(np.float32)
    else:
        arr = rng.integers(0, 100, size=(3, 4, 2)).astype(dtype)
    save_tensor(arr, tmp_path / "t.dfnt")
    save_tensor(arr, tmp_path / "t2.dfnt")
    assert (tmp_path / "t.dfnt").read_bytes() == (tmp_path / "t2.dfnt").read_bytes()
    back = load_tensor(tmp_path / "t.dfnt")
    assert back.dtype == arr.dtype and np.array_equal(arr, back)


def test_tensor_bad_magic(tmp_path):
    p = tmp_path / "t.dfnt"
    p.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(BadMagic):
        load_tensor(p)


def test_tensor_unsupported_version(tmp_path):
    p = tmp_path / "t.dfnt"
    p.write_bytes(b"DFNT" + struct.pack("<BBBI", 2, 3, 1, 1) + bytes(1))
    with pytest.raises(UnsupportedVersion):
        load_tensor(p)


@pytest.mark.parametrize(
    "io",
    [
        lambda d: load_ppm(d / "absent.ppm"),
        lambda d: save_tensor(np.zeros(1, dtype=np.uint8), d / "absent" / "t.dfnt"),
    ],
    ids=["load_missing_file", "save_into_missing_dir"],
)
def test_file_errors_are_io_failure(tmp_path, io):
    with pytest.raises(IoFailure):
        io(tmp_path)


def test_tensor_rejects_nan(tmp_path):
    arr = np.array([np.nan], dtype=np.float32)
    with pytest.raises(InvalidParams):
        save_tensor(arr, tmp_path / "t.dfnt")


@pytest.mark.parametrize("dtype", [">f4", ">u2"])
def test_tensor_big_endian_saved_as_little_endian(tmp_path, dtype):
    arr = np.arange(6, dtype=dtype).reshape(2, 3)
    save_tensor(arr, tmp_path / "be.dfnt")
    save_tensor(arr.astype(arr.dtype.newbyteorder("<")), tmp_path / "le.dfnt")
    assert (tmp_path / "be.dfnt").read_bytes() == (tmp_path / "le.dfnt").read_bytes()
    assert np.array_equal(load_tensor(tmp_path / "be.dfnt"), arr)
    if arr.dtype.kind == "f":
        arr[1, 1] = np.nan
        with pytest.raises(InvalidParams):
            save_tensor(arr, tmp_path / "nan.dfnt")


def dfnt_bytes(code, dims, payload=b""):
    """A DFNT file written field by field, bypassing save_tensor's checks."""
    return b"DFNT" + struct.pack(f"<BBB{len(dims)}I", 1, code, len(dims), *dims) + payload


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_tensor_load_rejects_non_finite_f32(tmp_path, value):
    p = tmp_path / "t.dfnt"
    p.write_bytes(dfnt_bytes(1, (2,), struct.pack("<2f", 0.5, value)))
    with pytest.raises(InvalidParams):
        load_tensor(p)


def test_tensor_load_dims_product_does_not_wrap(tmp_path):
    # 65536**4 elements wrap to 0 in a 64-bit product, which would make an
    # empty payload look complete
    p = tmp_path / "t.dfnt"
    p.write_bytes(dfnt_bytes(3, (65536,) * 4))
    with pytest.raises(TruncatedPayload):
        load_tensor(p)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(7, 1)
    b = gen_synthetic(7, 1)
    assert np.array_equal(a[0][0].data, b[0][0].data)
    assert np.array_equal(a[0][1].labels, b[0][1].labels)
    assert np.array_equal(a[0][2].labels, b[0][2].labels)


@pytest.mark.parametrize(
    "size, digest",
    [
        (64, "70e36a53430f3b439cc1ed65b1d43b18ce4e7fd1b88da67c0656837a73f11233"),
        (128, "6a3fc999c9c3764553eb95906598777d6b3002483fdfc3d9fd74e475d5ca9a59"),
        (256, "5006a2200a0407a79150ef857ec4a9f670e91d76f7395b47552a2d43d718baa1"),
    ],
)
def test_gen_synthetic_bytes_pinned(size, digest):
    # the benchmark's scene sets: image, ground truth and seeds of every scene
    h = hashlib.sha256()
    for image, gt, seeds in gen_synthetic(7, 5, SynthParams(size, size)):
        for array in (image.data, gt.labels, seeds.labels):
            h.update(array.tobytes())
    assert h.hexdigest() == digest


def test_gen_synthetic_seed_precision_and_sparsity():
    total = labeled = 0
    for _img, gt, seeds in gen_synthetic(3, 10):
        mask = seeds.labels != IGNORE
        assert mask.any()
        assert (seeds.labels[mask] == gt.labels[mask]).all()
        labeled += mask.sum()
        total += mask.size
    assert labeled / total < 0.25


def test_gen_synthetic_rejects_bad_count():
    for count in (0, 2.0, True):
        with pytest.raises(InvalidParams):
            gen_synthetic(1, count)
    for rng_seed in (1.0, -1):
        with pytest.raises(InvalidParams):
            gen_synthetic(rng_seed, 1)


def test_synth_params_validation():
    with pytest.raises(InvalidParams):
        SynthParams(width=4, height=4)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"width": 16, "height": 16},
        {"height": 16},
        {"noise_sigma": -1.0},
        {"noise_sigma": float("nan")},
        {"noise_sigma": float("inf")},
        {"width": 64.5},
        {"height": 64.0},
        {"width": True},
    ],
    ids=[
        "16x16",
        "height=16",
        "noise=-1",
        "noise=nan",
        "noise=inf",
        "width=64.5",
        "height=64.0",
        "width=True",
    ],
)
def test_synth_params_rejects_what_cannot_be_generated(kwargs):
    with pytest.raises(InvalidParams):
        SynthParams(**kwargs)


def test_synth_params_accepted_sizes_generate():
    # every side from 16 to 40 is either refused up front or generates scenes;
    # 12 scenes draw each shape kind many times
    for side in range(16, 41):
        for width, height in ((side, 64), (64, side)):
            try:
                params = SynthParams(width, height)
            except InvalidParams:
                continue
            for image, gt, seeds in gen_synthetic(side, 12, params):
                assert (image.width, image.height) == (width, height)
                seeded = seeds.labels != IGNORE
                assert (seeds.labels[seeded] == gt.labels[seeded]).all()
