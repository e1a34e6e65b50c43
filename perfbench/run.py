"""seedloop benchmark.

One client runs the closed loop scene after scene (a closed loop, no
concurrency) over a workload's fixed synthetic scene set, for `--seconds`
seconds of whole passes, and holds every output to the SHA-256 in
golden.json. The last line of standard output is one JSON object.

    python3 perfbench/run.py --workload pinned64 --seed 1 --seconds 20 --trace 0

`--trace 0` reports the end-to-end metrics. `--trace 1` first measures
untraced passes, then traced ones, and reports the per-layer split and the
tracing overhead. Without `--workload`, every workload runs, each in a fresh
process. Run it from the root of a checkout: it imports seedloop from `src/`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def hold_blas_threads(nproc):
    """Cap every BLAS thread count at nproc; must run before numpy loads."""
    for var in _BLAS_VARS:
        try:
            n = min(max(int(os.environ[var]), 1), nproc)
        except (KeyError, ValueError):
            n = nproc
        os.environ[var] = str(n)
    return {var: int(os.environ[var]) for var in _BLAS_VARS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="default: every workload, one process each")
    parser.add_argument("--seed", type=int, default=0, help="order of scene submission")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "seedloop" / "__init__.py").is_file():
        sys.exit(f"perfbench: no seedloop sources in {ROOT / 'src'}")
    nproc = len(os.sched_getaffinity(0))
    blas = hold_blas_threads(nproc)
    sys.path.insert(1, str(ROOT / "src"))
    from measure import run_workload
    from workloads import WORKLOADS

    if args.workload is None:
        rc = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = subprocess.run(cmd, check=False).returncode or rc
        return rc
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_workload(args.workload, args.seed, args.seconds, args.trace, str(ROOT), nproc, blas)
    return 0


if __name__ == "__main__":
    sys.exit(main())
