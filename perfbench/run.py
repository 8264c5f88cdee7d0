"""macsort benchmark: filter -> track -> eval through the CLI entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload lanes_long --seed 0 --seconds 30 --trace 0

With ``--trace 0`` a run warms up on a tiny sequence, then repeats passes
until ``--seconds`` have passed: each of the first three passes generates
the workload's inputs afresh, and every pass runs ``filter``/``track``/
``eval`` in-process through ``macsort.cli.main``; it reports the end-to-end
metrics, scaled to the speed of a reference work (calib.py). With ``--trace 1``
it makes one traced pass instead and reports per-layer metrics (see
README.md). Every pass is checked; the last stdout line is one
JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _pin_threads() -> None:
    # before numpy loads: BLAS reads these once
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    """Import macsort from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import macsort

    if Path(macsort.__file__).resolve().parent != src / "macsort":
        raise ImportError(f"macsort came from {macsort.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _pin_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import macsort: {exc}", file=sys.stderr)
        return 2
    from bench import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed, BENCH_DIR)
    if args.trace:
        result = bench.traced()
    else:
        result = bench.timed(args.seconds)
    bench.report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
