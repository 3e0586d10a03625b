"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload teacher --seed 1 --seconds 12 --trace 0

Workloads are ``teacher``, ``imitate`` and ``evaluate``. The next-to-last
line of standard output is the full result record (config, environment,
every named metric, failures by error type, artifact digests); the last
line is ``{"correct", "attempted", "failed", "metrics"}``, with the
end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``. The program under test is imported from ``src/`` of the
checkout that holds this file. Exit code 1 means an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cap_blas_threads() -> None:
    """Run BLAS on one thread; must run before numpy loads.

    Rounds are timed in process CPU time, which counts every thread of the
    process: idle BLAS threads that spin would add noise to it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["teacher", "imitate", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _cap_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ratelab

    if not Path(ratelab.__file__).resolve().is_relative_to(src):
        print(f"error: ratelab imported from {ratelab.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    record, line = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
