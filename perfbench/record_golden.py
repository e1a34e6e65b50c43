"""Record golden.json: the SHA-256 of every prediction of every workload, and
of every `.trace.txt` of the on-disk workload, from one pass over the
sources in `src/`. The benchmark counts any later difference as a failed
scene. Re-record only for a change that alters outputs on purpose, and say so
where the change is described.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import ROOT, hold_blas_threads


def main():
    hold_blas_threads(len(os.sched_getaffinity(0)))
    sys.path.insert(1, str(ROOT / "src"))
    from workloads import WORKLOADS, run_pass, setup

    golden = {}
    work_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for wl in WORKLOADS.values():
            order = list(range(wl.count))
            res = run_pass(wl, order, setup(wl, order, work_dir), work_dir)
            if None in res.preds.values() or None in res.traces.values():
                sys.exit(f"record_golden: {wl.name} left scenes without output")
            entry = {"scene_seed": wl.scene_seed, "miou": res.miou}
            entry["pred"] = [res.preds[i] for i in order]
            if res.traces:
                entry["trace"] = [res.traces[i] for i in order]
            golden[wl.name] = entry
            print(f"{wl.name}: {wl.count} scenes, mIoU {res.miou:.4f}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(ROOT / "perfbench" / "golden.json", "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
