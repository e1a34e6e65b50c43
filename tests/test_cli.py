import numpy as np
import pytest

from seedloop import GateParams, LoopConfig, SegParams, SynthParams
from seedloop.cli import build_parser, main
from seedloop.tensorio import load_label_pgm, load_tensor, save_tensor
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


def test_stagewise_pipeline(stages, tmp_path, capsys):
    sp, feats, rel = stages
    sp_arr = load_tensor(sp)
    assert sp_arr.dtype == np.uint16 and sp_arr.ndim == 2
    n = int(sp_arr.max()) + 1
    f_arr = load_tensor(feats)
    assert f_arr.shape == (n, 15) and f_arr.dtype == np.float32
    rel_arr = load_tensor(rel)
    assert rel_arr.shape == (3, n, n) and rel_arr.dtype == np.uint8
    # entrywise product relation between the three planes
    assert np.array_equal(rel_arr[2], rel_arr[0] & rel_arr[1])

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

    # a relationship tensor must be [3, N, N] for N seed columns
    save_tensor(np.zeros((3, n, n + 1), dtype=np.uint8), tmp_path / "bad.dfnt")
    assert main([*args, "--rel", str(tmp_path / "bad.dfnt")]) == 1
    assert "ShapeMismatch" in capsys.readouterr().err

    # ... of u8 0/1 entries: these spread a scaled or unclamped walk
    for bad in (
        np.full((3, n, n), 0.5, dtype=np.float32),
        np.full((3, n, n), 7, dtype=np.uint8),
        np.ones((3, n, n), dtype=np.uint16),
    ):
        save_tensor(bad, tmp_path / "bad.dfnt")
        assert main([*args, "--rel", str(tmp_path / "bad.dfnt")]) == 1
        assert "ShapeMismatch" in capsys.readouterr().err

    # seeds must be [C, N], not one flat vector
    save_tensor(seeds[1], tmp_path / "s.dfnt")
    assert main([*args, "--rel", rel]) == 1
    assert "ShapeMismatch" in capsys.readouterr().err


def test_walk_rejects_steps_below_one(stages, tmp_path, capsys):
    sp, _feats, rel = stages
    n = int(load_tensor(sp).max()) + 1
    save_tensor(np.full((4, n), 0.25, dtype=np.float32), tmp_path / "s.dfnt")
    args = ["walk", "--seeds", str(tmp_path / "s.dfnt"), "--netout", str(tmp_path / "s.dfnt")]
    out = tmp_path / "mixed.dfnt"
    assert main([*args, "--rel", rel, "--steps", "0", "--out", str(out)]) == 1
    assert "InvalidParams" in capsys.readouterr().err
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


@pytest.mark.parametrize("max_regions", ["0", "-1"])
def test_superpix_rejects_max_regions_below_one(synth_dir, tmp_path, capsys, max_regions):
    out = tmp_path / "sp.dfnt"
    args = ["superpix", "--image", str(synth_dir / "0000.ppm"), "--out", str(out)]
    assert main([*args, "--max-regions", max_regions]) == 1
    assert "InvalidParams" in capsys.readouterr().err
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
