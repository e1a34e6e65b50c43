import numpy as np
import pytest

from seedloop.cli import main
from seedloop.tensorio import load_label_pgm, load_tensor


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


def test_stagewise_pipeline(synth_dir, tmp_path, capsys):
    img = str(synth_dir / "0000.ppm")
    sp = str(tmp_path / "sp.dfnt")
    feats = str(tmp_path / "f.dfnt")
    rel = str(tmp_path / "rel.dfnt")
    assert main(["superpix", "--image", img, "--out", sp]) == 0
    sp_arr = load_tensor(sp)
    assert sp_arr.dtype == np.uint16 and sp_arr.ndim == 2
    n = int(sp_arr.max()) + 1

    assert main(["features", "--image", img, "--sp", sp, "--out", feats]) == 0
    f_arr = load_tensor(feats)
    assert f_arr.shape == (n, 15) and f_arr.dtype == np.float32

    assert main(["relmat", "--features", feats, "--sp", sp, "--topk", "10", "--out", rel]) == 0
    rel_arr = load_tensor(rel)
    assert rel_arr.shape == (3, n, n) and rel_arr.dtype == np.uint8
    # entrywise product relation between the three planes
    assert np.array_equal(rel_arr[2], rel_arr[0] & rel_arr[1])


def test_walk_subcommand(synth_dir, tmp_path):
    from seedloop.tensorio import save_tensor

    img = str(synth_dir / "0000.ppm")
    sp = str(tmp_path / "sp.dfnt")
    feats = str(tmp_path / "f.dfnt")
    rel = str(tmp_path / "rel.dfnt")
    main(["superpix", "--image", img, "--out", sp])
    main(["features", "--image", img, "--sp", sp, "--out", feats])
    main(["relmat", "--features", feats, "--sp", sp, "--out", rel])
    n = int(load_tensor(sp).max()) + 1
    seeds = np.zeros((4, n), dtype=np.float32)
    seeds[1, 0] = 1.0
    nout = np.full((4, n), 0.25, dtype=np.float32)
    save_tensor(seeds, tmp_path / "s.dfnt")
    save_tensor(nout, tmp_path / "no.dfnt")
    out = str(tmp_path / "mixed.dfnt")
    assert (
        main(
            [
                "walk",
                "--seeds",
                str(tmp_path / "s.dfnt"),
                "--netout",
                str(tmp_path / "no.dfnt"),
                "--rel",
                rel,
                "--steps",
                "2",
                "--out",
                out,
            ]
        )
        == 0
    )
    mixed = load_tensor(out)
    assert mixed.shape == (4, n)
    # uniform 0.25 output fails both beta gates, so only the seed survives
    assert mixed[1, 0] == pytest.approx(1.0)


def test_loop_and_eval(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    rc = main(
        [
            "loop",
            "--image",
            str(synth_dir / "0000.ppm"),
            "--seeds",
            str(synth_dir / "0000.seeds.pgm"),
            "--gt",
            str(synth_dir / "0000.gt.pgm"),
            "--out-dir",
            out_dir,
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "mIoU=" in printed
    pred = load_label_pgm(tmp_path / "out" / "0000.pred.pgm")
    assert pred.width == 64

    rc = main(
        [
            "eval",
            "--pred",
            str(tmp_path / "out" / "0000.pred.pgm"),
            "--gt",
            str(synth_dir / "0000.gt.pgm"),
            "--classes",
            "4",
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("accu=") and "mIoU=" in line and "fIoU=" in line


def test_run_and_dir_eval(synth_dir, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--data-dir", str(synth_dir), "--out-dir", out_dir]) == 0
    run_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(
        [
            "eval",
            "--pred-dir",
            out_dir,
            "--gt-dir",
            str(synth_dir),
            "--classes",
            "4",
        ]
    ) == 0
    eval_line = capsys.readouterr().out.strip()
    assert eval_line == run_line


def test_cli_reports_errors(tmp_path, capsys):
    rc = main(["superpix", "--image", str(tmp_path / "nope.ppm"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_superpix_rejects_more_regions_than_u16_ids(tmp_path, capsys):
    from seedloop.tensorio import RasterImage, save_ppm

    # a checkerboard splits into one 4-connected region per pixel: 65792 > 2**16
    arr = np.zeros((256, 257, 3), dtype=np.uint8)
    arr[np.add.outer(np.arange(256), np.arange(257)) % 2 == 1] = 255
    save_ppm(RasterImage(257, 256, arr), tmp_path / "cb.ppm")
    out = tmp_path / "sp.dfnt"
    args = ["--k", "1", "--sigma", "0", "--min-size", "1", "--merge-thresh", "0"]
    assert main(["superpix", "--image", str(tmp_path / "cb.ppm"), *args, "--out", str(out)]) == 1
    assert "DimOverflow" in capsys.readouterr().err
    assert not out.exists()


_GAP_IDS = np.zeros((64, 64), dtype=np.uint16)
_GAP_IDS[:, 32:] = 2  # id 1 is missing


@pytest.mark.parametrize(
    "sp", [_GAP_IDS, np.zeros((0, 64), dtype=np.uint16)], ids=["gap", "empty"]
)
def test_superpixel_ids_not_contiguous_rejected(synth_dir, tmp_path, capsys, sp):
    from seedloop.tensorio import save_tensor

    save_tensor(sp, tmp_path / "sp.dfnt")
    img = str(synth_dir / "0000.ppm")
    out = tmp_path / "f.dfnt"
    rc = main(["features", "--image", img, "--sp", str(tmp_path / "sp.dfnt"), "--out", str(out)])
    assert rc == 1
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not out.exists()
