import re
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "experiment.py"


@pytest.fixture(scope="module")
def experiment_main():
    return runpy.run_path(str(SCRIPT))["main"]


@pytest.mark.parametrize(
    "command, heads",
    [
        ("loop", ["scene", "scene", "seeds-only", "closed-loop"]),
        ("ablation", ["baseline", "baseline+F1", "baseline+F2", "baseline+F1+F2"]),
        ("sweep", ["w=0.10", "w=0.20", "w=0.30", "w=0.40"]),
    ],
)
def test_experiment_subcommands(experiment_main, capsys, command, heads):
    experiment_main([command, "--count", "2"])
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == heads
    scored = [line for line in out if not line.startswith("scene")]
    assert all(re.search(r" accu=[01]\.\d{4} mIoU=[01]\.\d{4} fIoU=[01]\.\d{4}$", s) for s in scored)


@pytest.mark.parametrize(
    "argv, error",
    [
        ("sweep --count 1 --values 0.1 1.5", "InvalidParams"),
        ("ablation --count 0", "InvalidParams"),
        ("loop --count 1 --config {tmp}/absent.cfg", "MissingFile"),
    ],
    ids=["sweep_w", "ablation_count", "loop_config"],
)
def test_experiment_bad_input_is_one_error_line(experiment_main, capsys, tmp_path, argv, error):
    # every config is built before a scene runs, so nothing reaches stdout
    assert experiment_main(argv.format(tmp=tmp_path).split()) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
