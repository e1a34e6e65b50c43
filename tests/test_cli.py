from pathlib import Path

import numpy as np
import pytest

from seedloop import (
    GateParams,
    LabelMap,
    LoopConfig,
    SegParams,
    SynthParams,
    build_relationship,
    load_ppm,
    superpixel_features,
)
import seedloop.cli as cli
import seedloop.relgraph as relgraph
import seedloop.superpixel as superpixel
from seedloop.cli import _spmap_from_tensor, build_parser, main
from seedloop.features import standardize
from seedloop.tensorio import IGNORE, load_label_pgm, load_tensor, save_label_pgm, save_tensor
from tests.test_tensorio import dfnt_bytes


@pytest.fixture
def synth_dir(tmp_path):
    d = tmp_path / "data"
    assert main(["synth", "--seed", "7", "--count", "2", "--out-dir", str(d)]) == 0
    return d


def test_synth_writes_triples(synth_dir):
    for i in range(2):
        assert (synth_dir / f"{i:04d}.ppm").exists()
        assert (synth_dir / f"{i:04d}.gt.pgm").exists()
        assert (synth_dir / f"{i:04d}.seeds.pgm").exists()


@pytest.fixture
def stages(synth_dir, tmp_path):
    """Superpixel, feature and relationship tensor paths of scene 0000."""
    img = str(synth_dir / "0000.ppm")
    sp, feats, rel = (str(tmp_path / name) for name in ("sp.dfnt", "f.dfnt", "rel.dfnt"))
    assert main(["superpix", "--image", img, "--out", sp]) == 0
    assert main(["features", "--image", img, "--sp", sp, "--out", feats]) == 0
    assert main(["relmat", "--features", feats, "--sp", sp, "--topk", "10", "--out", rel]) == 0
    return sp, feats, rel


def _no_work(*args):
    raise AssertionError("expensive work ran before the flags were checked")


def test_stagewise_pipeline(stages, tmp_path, capsys, monkeypatch):
    sp, feats, rel = stages
    sp_arr = load_tensor(sp)
    assert sp_arr.dtype == np.uint16 and sp_arr.ndim == 2
    n = int(sp_arr.max()) + 1
    f_arr = load_tensor(feats)
    assert f_arr.shape == (n, 15) and f_arr.dtype == np.float32
    rel_arr = load_tensor(rel)
    assert rel_arr.shape == (n, n) and rel_arr.dtype == np.uint8
    assert ((rel_arr == 0) | (rel_arr == 1)).all()

    monkeypatch.setattr(relgraph, "distance_matrix", _no_work)
    for topk in ("0", "-1"):
        bad = tmp_path / f"rel{topk}.dfnt"
        assert main(["relmat", "--features", feats, "--sp", sp, "--topk", topk, "--out", str(bad)]) == 1
        assert "InvalidParams" in capsys.readouterr().err
        assert not bad.exists()


def test_stage_defaults_are_the_dataclass_defaults():
    parse = build_parser().parse_args
    args = parse(["superpix", "--image", "i.ppm", "--out", "o"])
    assert SegParams(args.k, args.sigma, args.min_size, args.merge_thresh) == SegParams()
    assert parse(["relmat", "--features", "f", "--sp", "s", "--out", "o"]).topk == LoopConfig().topk
    args = parse(["walk", "--seeds", "s", "--netout", "n", "--rel", "r", "--out", "o"])
    assert args.steps == LoopConfig().walk_steps
    assert GateParams(args.alpha_fg, args.alpha_bg, args.beta_fg, args.beta_bg) == GateParams()
    args = parse(["synth", "--seed", "1", "--count", "1", "--out-dir", "d"])
    assert (args.width, args.height) == (SynthParams().width, SynthParams().height)


def test_features_and_relmat_write_scene_z_scored_descriptors(stages, synth_dir, tmp_path, rng):
    sp, feats, _rel = stages
    spmap = _spmap_from_tensor(load_tensor(sp))
    raw = superpixel_features(load_ppm(synth_dir / "0000.ppm"), spmap)
    save_tensor(standardize(raw).astype(np.float32), tmp_path / "want.dfnt")
    assert (tmp_path / "want.dfnt").read_bytes() == Path(feats).read_bytes()

    # external descriptors: one column on a scale that would swamp the others unscaled
    ext = rng.standard_normal((spmap.n_regions, 5)).astype(np.float32)
    ext[:, 0] *= 1e4
    save_tensor(ext, tmp_path / "ext.dfnt")
    out = tmp_path / "ext_f.dfnt"
    args = ["--external", str(tmp_path / "ext.dfnt"), "--sp", sp]
    assert main(["features", *args, "--out", str(out)]) == 0
    scaled = standardize(ext.astype(np.float64))
    save_tensor(scaled.astype(np.float32), tmp_path / "want.dfnt")
    assert (tmp_path / "want.dfnt").read_bytes() == out.read_bytes()

    # relmat writes the loop's own matrix as u8 [N, N]
    out = tmp_path / "ext_rel.dfnt"
    args = ["--features", str(tmp_path / "ext.dfnt"), "--sp", sp, "--topk", "3"]
    assert main(["relmat", *args, "--out", str(out)]) == 0
    rel = build_relationship(scaled, spmap, 3)
    save_tensor(rel.m_rel.astype(np.uint8), tmp_path / "want.dfnt")
    assert (tmp_path / "want.dfnt").read_bytes() == out.read_bytes()


@pytest.mark.parametrize(
    "source", [[], ["--image", "i.ppm", "--external", "e.dfnt"]], ids=["none", "both"]
)
def test_features_needs_one_source(source):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["features", "--sp", "sp.dfnt", *source, "--out", "f.dfnt"])


def test_features_rejects_wrapping_tensor_dims(synth_dir, tmp_path, capsys):
    (tmp_path / "sp.dfnt").write_bytes(dfnt_bytes(2, (65536,) * 4))  # no payload
    args = ["--image", str(synth_dir / "0000.ppm"), "--sp", str(tmp_path / "sp.dfnt")]
    assert main(["features", *args, "--out", str(tmp_path / "f.dfnt")]) == 1
    assert "error: TruncatedPayload" in capsys.readouterr().err


def test_walk_subcommand(stages, tmp_path, capsys):
    sp, _feats, rel = stages
    n = int(load_tensor(sp).max()) + 1
    seeds = np.zeros((4, n), dtype=np.float32)
    seeds[1, 0] = 1.0
    nout = np.full((4, n), 0.25, dtype=np.float32)
    save_tensor(seeds, tmp_path / "s.dfnt")
    save_tensor(nout, tmp_path / "no.dfnt")
    out = tmp_path / "mixed.dfnt"
    args = ["walk", "--seeds", str(tmp_path / "s.dfnt"), "--netout", str(tmp_path / "no.dfnt")]
    args += ["--steps", "2", "--out", str(out)]
    assert main([*args, "--rel", rel]) == 0
    mixed = load_tensor(out)
    assert mixed.shape == (4, n)
    # uniform 0.25 output fails both beta gates, so only the seed survives
    assert mixed[1, 0] == pytest.approx(1.0)

    # a relationship tensor must be [N, N] for N seed columns, not the old
    # [3, N, N] planes nor a non-square matrix
    for bad in (np.ones((3, n, n), dtype=np.uint8), np.zeros((n, n + 1), dtype=np.uint8)):
        save_tensor(bad, tmp_path / "bad.dfnt")
        assert main([*args, "--rel", str(tmp_path / "bad.dfnt")]) == 1
        assert "ShapeMismatch" in capsys.readouterr().err

    # ... of u8 0/1 entries: these spread a scaled or unclamped walk
    for bad in (
        np.full((n, n), 0.5, dtype=np.float32),
        np.full((n, n), 7, dtype=np.uint8),
        np.ones((n, n), dtype=np.uint16),
    ):
        save_tensor(bad, tmp_path / "bad.dfnt")
        assert main([*args, "--rel", str(tmp_path / "bad.dfnt")]) == 1
        assert "ShapeMismatch" in capsys.readouterr().err

    # seeds must be [C, N], not one flat vector, nor C = 0
    for bad in (seeds[1], np.zeros((0, n), dtype=np.float32)):
        save_tensor(bad, tmp_path / "s.dfnt")
        assert main([*args, "--rel", rel]) == 1
        assert "error: ShapeMismatch" in capsys.readouterr().err


def test_walk_rejects_steps_below_one(stages, tmp_path, capsys):
    sp, _feats, rel = stages
    n = int(load_tensor(sp).max()) + 1
    save_tensor(np.full((4, n), 0.25, dtype=np.float32), tmp_path / "s.dfnt")
    args = ["walk", "--seeds", str(tmp_path / "s.dfnt"), "--netout", str(tmp_path / "s.dfnt")]
    out = tmp_path / "mixed.dfnt"
    assert main([*args, "--rel", rel, "--steps", "0", "--out", str(out)]) == 1
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["walk", "--steps", "0"], "InvalidParams"),
        (["walk", "--alpha-fg", "2"], "WOutOfRange"),
        (["superpix", "--k", "-1"], "InvalidParams"),
    ],
    ids=["walk_steps_0", "walk_alpha_fg_2", "superpix_k_-1"],
)
def test_stage_checks_its_parameters_before_reading_inputs(tmp_path, capsys, argv, error):
    # every input path is missing: a read before the check fails as IoFailure
    inputs = {"walk": ["--seeds", "--netout", "--rel"], "superpix": ["--image"]}[argv[0]]
    missing = [arg for flag in inputs for arg in (flag, str(tmp_path / "nope"))]
    out = tmp_path / "out.dfnt"
    assert main([*argv, *missing, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
    assert not out.exists()


def test_loop_and_eval(synth_dir, tmp_path, capsys):
    gt = str(synth_dir / "0000.gt.pgm")
    args = ["--image", str(synth_dir / "0000.ppm"), "--seeds", str(synth_dir / "0000.seeds.pgm")]
    assert main(["loop", *args, "--gt", gt, "--out-dir", str(tmp_path / "out")]) == 0
    loop_line = capsys.readouterr().out.strip()
    pred = tmp_path / "out" / "0000.pred.pgm"
    assert load_label_pgm(pred).width == 64
    assert (tmp_path / "out" / "0000.trace.txt").exists()

    assert main(["eval", "--pred", str(pred), "--gt", gt, "--classes", "4"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accu=") and "mIoU=" in line and "fIoU=" in line
    assert line == loop_line


def test_loop_with_unscored_gt_prints_no_score(synth_dir, tmp_path, capsys):
    # every gt pixel is ignore: outputs are written, no score line, exit 0 as `run` does
    gt = load_label_pgm(synth_dir / "0000.gt.pgm")
    save_label_pgm(LabelMap(np.full_like(gt.labels, IGNORE)), tmp_path / "gt.pgm")
    args = ["--image", str(synth_dir / "0000.ppm"), "--seeds", str(synth_dir / "0000.seeds.pgm")]
    out_dir = tmp_path / "out"
    assert main(["loop", *args, "--gt", str(tmp_path / "gt.pgm"), "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out == ""
    assert (out_dir / "0000.pred.pgm").exists() and (out_dir / "0000.trace.txt").exists()


def test_loop_rejected_input_leaves_no_out_dir(synth_dir, tmp_path, capsys):
    # seeds one column narrower than the image
    seeds = load_label_pgm(synth_dir / "0000.seeds.pgm")
    save_label_pgm(LabelMap(seeds.labels[:, :-1].copy()), tmp_path / "narrow.pgm")
    out_dir = tmp_path / "out"
    args = ["--image", str(synth_dir / "0000.ppm"), "--seeds", str(tmp_path / "narrow.pgm")]
    assert main(["loop", *args, "--out-dir", str(out_dir)]) == 1
    assert "DimensionMismatch" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("classes", ["-1", "0", "256"])
def test_eval_rejects_classes_outside_u8_ids(synth_dir, tmp_path, capsys, classes):
    # --classes is checked before any input is listed or read
    gt = str(synth_dir / "0000.gt.pgm")
    nope = str(tmp_path / "nope")
    for inputs in (["--pred", gt, "--gt", gt], ["--pred-dir", nope, "--gt-dir", nope], []):
        assert main(["eval", *inputs, "--classes", classes]) == 1
        assert "InvalidParams" in capsys.readouterr().err


def test_run_and_dir_eval(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--data-dir", str(synth_dir), "--out-dir", out_dir]) == 0
    run_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["eval", "--pred-dir", out_dir, "--gt-dir", str(synth_dir), "--classes", "4"]) == 0
    eval_line = capsys.readouterr().out.strip()
    assert eval_line == run_line


def test_dir_eval_counts_each_scene_once(synth_dir, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--data-dir", str(synth_dir), "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    args = ["eval", "--pred-dir", str(out_dir), "--gt-dir", str(synth_dir), "--classes", "4"]
    assert main(args) == 0
    once = capsys.readouterr().out
    # <id>.pgm is also read as a prediction of scene <id>
    (out_dir / "0001.pgm").write_bytes((out_dir / "0001.pred.pgm").read_bytes())
    assert main(args) == 0
    assert capsys.readouterr().out == once


def test_dir_eval_reads_no_gt_or_seeds_map_as_prediction(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--data-dir", str(synth_dir), "--out-dir", out_dir]) == 0
    apart = capsys.readouterr().out.strip().splitlines()[-1]
    # outputs next to the inputs: `<id>.gt.pgm` and `<id>.seeds.pgm` share the
    # directory with `<id>.pred.pgm`
    assert main(["run", "--data-dir", str(synth_dir), "--out-dir", str(synth_dir)]) == 0
    capsys.readouterr()
    args = ["--pred-dir", str(synth_dir), "--gt-dir", str(synth_dir), "--classes", "4"]
    assert main(["eval", *args]) == 0
    assert capsys.readouterr().out.strip() == apart


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--data-dir", "{missing}", "--out-dir", "{tmp}/out"],
        ["eval", "--pred-dir", "{missing}", "--gt-dir", "{data}", "--classes", "4"],
    ],
    ids=["run_data_dir", "eval_pred_dir"],
)
def test_missing_input_dir_is_missing_file(synth_dir, tmp_path, capsys, argv):
    where = {"missing": tmp_path / "missing", "tmp": tmp_path, "data": synth_dir}
    assert main([arg.format(**where) for arg in argv]) == 1
    assert "error: MissingFile" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--seed", "7", "--count", "1"],
        ["run", "--data-dir", "{data}"],
        ["loop", "--image", "{data}/0000.ppm", "--seeds", "{data}/0000.seeds.pgm"],
    ],
    ids=["synth", "run", "loop"],
)
def test_out_dir_naming_a_file_is_io_failure(synth_dir, tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    args = [arg.format(data=synth_dir) for arg in argv]
    assert main([*args, "--out-dir", str(tmp_path / "file")]) == 1
    assert "error: IoFailure" in capsys.readouterr().err


def test_unwritable_trace_is_io_failure(synth_dir, tmp_path, capsys):
    (tmp_path / "out" / "0000.trace.txt").mkdir(parents=True)  # a directory in its place
    args = ["--image", str(synth_dir / "0000.ppm"), "--seeds", str(synth_dir / "0000.seeds.pgm")]
    assert main(["loop", *args, "--out-dir", str(tmp_path / "out")]) == 1
    assert "error: IoFailure" in capsys.readouterr().err


def test_non_utf8_config_is_invalid_params(synth_dir, tmp_path, capsys):
    (tmp_path / "cfg.txt").write_bytes(b"w = 0.2 # \xff\n")
    args = ["--config", str(tmp_path / "cfg.txt"), "--out-dir", str(tmp_path / "out")]
    assert main(["run", "--data-dir", str(synth_dir), *args]) == 1
    err = capsys.readouterr().err
    assert "error: InvalidParams" in err and "cfg.txt" in err


@pytest.mark.parametrize(
    "bad",
    [
        ["--seed", "7", "--count", "0"],
        ["--seed", "7", "--count", "1", "--width", "10"],
        ["--seed", "-1", "--count", "1"],
    ],
    ids=["count_0", "width_10", "negative_seed"],
)
def test_synth_rejected_params_leave_no_out_dir(tmp_path, capsys, bad):
    out_dir = tmp_path / "data"
    assert main(["synth", *bad, "--out-dir", str(out_dir)]) == 1
    assert "error: InvalidParams" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_reports_errors(tmp_path, capsys):
    rc = main(["superpix", "--image", str(tmp_path / "nope.ppm"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_superpix_rejects_more_regions_than_u16_ids(tmp_path, capsys):
    from seedloop.tensorio import RasterImage, save_ppm

    # a checkerboard splits into one 4-connected region per pixel: 65792 > 2**16
    arr = np.zeros((256, 257, 3), dtype=np.uint8)
    arr[np.add.outer(np.arange(256), np.arange(257)) % 2 == 1] = 255
    save_ppm(RasterImage(arr), tmp_path / "cb.ppm")
    out = tmp_path / "sp.dfnt"
    args = ["--k", "1", "--sigma", "0", "--min-size", "1", "--merge-thresh", "0"]
    assert main(["superpix", "--image", str(tmp_path / "cb.ppm"), *args, "--out", str(out)]) == 1
    assert "DimOverflow" in capsys.readouterr().err
    assert not out.exists()


def test_superpix_hands_the_raw_sums_to_the_merge(synth_dir, tmp_path, monkeypatch):
    # the merge took its own _region_sums pass over the image just segmented
    image = synth_dir / "0000.ppm"
    img, params = load_ppm(image), SegParams()  # the command's defaults
    want = superpixel.rag_merge(superpixel.felzenszwalb(img, params), img, params.merge_thresh)
    save_tensor(want.region_of.astype(np.uint16), tmp_path / "want.dfnt")
    calls = []

    def spy(*args):
        calls.append(args)
        return region_sums(*args)

    region_sums = superpixel._region_sums
    monkeypatch.setattr(superpixel, "_region_sums", spy)
    out = tmp_path / "sp.dfnt"
    assert main(["superpix", "--image", str(image), "--out", str(out)]) == 0
    assert calls == []
    assert out.read_bytes() == (tmp_path / "want.dfnt").read_bytes()


@pytest.mark.parametrize("max_regions", ["0", "-1"])
def test_superpix_rejects_max_regions_below_one(
    synth_dir, tmp_path, capsys, monkeypatch, max_regions
):
    monkeypatch.setattr(cli, "felzenszwalb", _no_work)
    out = tmp_path / "sp.dfnt"
    args = ["superpix", "--image", str(synth_dir / "0000.ppm"), "--out", str(out)]
    assert main([*args, "--max-regions", max_regions]) == 1
    assert "InvalidParams" in capsys.readouterr().err
    assert not out.exists()


def test_superpix_takes_caps_beyond_the_native_ints(synth_dir, tmp_path):
    # a --max-regions of 2**64 + 2 wrapped to 2 in the native int64 and
    # merged the scene to 2 regions; a --min-size of 10**400 ended in a
    # ctypes traceback
    image = str(synth_dir / "0000.ppm")
    out = tmp_path / "sp.dfnt"

    def regions(*flags):
        assert main(["superpix", "--image", image, *flags, "--out", str(out)]) == 0
        return load_tensor(out)

    raw = regions("--merge-thresh", "0")
    assert np.array_equal(regions("--merge-thresh", "0", "--max-regions", str(2**64 + 2)), raw)
    whole = regions("--min-size", str(64 * 64 + 1))
    assert np.array_equal(regions("--min-size", str(10**400)), whole)


@pytest.mark.parametrize("sigma", ["1e20", "1e300"])
def test_superpix_rejects_an_unbounded_sigma(synth_dir, tmp_path, capsys, monkeypatch, sigma):
    # np.arange failed on the kernel's radius with a bare ValueError traceback
    monkeypatch.setattr(superpixel, "_gaussian_kernel", _no_work)
    out = tmp_path / "sp.dfnt"
    args = ["superpix", "--image", str(synth_dir / "0000.ppm"), "--sigma", sigma]
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidParams: ")
    assert not out.exists()


_GAP_IDS = np.zeros((64, 64), dtype=np.uint16)
_GAP_IDS[:, 32:] = 2  # id 1 is missing


@pytest.mark.parametrize(
    "sp", [_GAP_IDS, np.zeros((0, 64), dtype=np.uint16)], ids=["gap", "empty"]
)
def test_superpixel_ids_not_contiguous_rejected(synth_dir, tmp_path, capsys, sp):
    save_tensor(sp, tmp_path / "sp.dfnt")
    img = str(synth_dir / "0000.ppm")
    out = tmp_path / "f.dfnt"
    rc = main(["features", "--image", img, "--sp", str(tmp_path / "sp.dfnt"), "--out", str(out)])
    assert rc == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not out.exists()


_SPLIT_IDS = np.ones((64, 64), dtype=np.uint16)
_SPLIT_IDS[:10, :10] = _SPLIT_IDS[-10:, -10:] = 0  # id 0 in two separate corners


def test_superpixel_region_not_4_connected_rejected(synth_dir, tmp_path, capsys):
    sp, feats = str(tmp_path / "sp.dfnt"), str(tmp_path / "f.dfnt")
    save_tensor(_SPLIT_IDS, sp)
    save_tensor(np.zeros((2, 15), dtype=np.float32), feats)
    img = str(synth_dir / "0000.ppm")
    out = tmp_path / "out.dfnt"
    for args in (
        ["features", "--image", img, "--sp", sp],
        ["relmat", "--features", feats, "--sp", sp],
    ):
        assert main([*args, "--out", str(out)]) == 1
        assert "ShapeMismatch" in capsys.readouterr().err
        assert not out.exists()
