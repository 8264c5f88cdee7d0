#!/usr/bin/env python3
"""Memory of each CLI stage: the tracemalloc peak of ``synth``, ``filter``,
``track`` and ``eval`` on each sequence of one benchmark workload, and its
ratio to the size of that sequence's ``general.emb`` body.

Generates the workload's sequences as the benchmark's set-up does
(``perfbench/workloads.py``) in a temporary directory, then runs each stage
through ``macsort.cli.main`` on one sequence at a time: ``synth`` again
from the sequence's ``scenario.spec`` into a directory of its own, then
``filter``, ``track`` and ``eval`` on the sequence. A stage's peak is the
most memory that numpy and Python objects held during it beyond what was
held before it; the interpreter and its imports are not counted. So the
first line, ``import <MiB>``, is the peak resident set of a fresh
interpreter that only imports ``macsort.cli``: the share of the
benchmark's ``peak_rss_mb`` that tracemalloc does not see. Then it prints
one ``<seed> <sequence> <stage> <peak MiB> <peak / body>`` line per stage.

Usage: python scripts/stage_peaks.py --workload lanes_long --seed 0
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# this checkout's program and workloads; BLAS on one thread, as the benchmark runs it
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import macsort.cli  # noqa: E402

sys.dont_write_bytecode = True  # leave perfbench/ as it is
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

EMB_HEADER_BYTES = 16


def stage_peak(*argv: str) -> int:
    """The tracemalloc peak of one ``macsort`` run, in bytes above what was
    held before it."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = macsort.cli.main(list(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if code != 0:
        sys.exit(f"macsort {' '.join(argv)} exited {code}")
    return peak


def import_rss() -> int:
    """The peak resident set, in bytes, of a fresh interpreter that only
    imports ``macsort.cli``."""
    code = "import resource, macsort.cli; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return int(proc.stdout) * 1024  # ru_maxrss is in KiB on Linux


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    print(f"import {import_rss() / 2**20:.1f}")
    for seed in args.seed:
        with tempfile.TemporaryDirectory() as tmp:
            seqs = generate(workload.specs(seed), Path(tmp) / "seqs", workload.prompts)
            for seq in seqs:
                body = (seq / "general.emb").stat().st_size - EMB_HEADER_BYTES
                gt, results = str(seq / "gt.txt"), str(seq / "results.txt")
                stages = {
                    "synth": ("synth", str(seq / "scenario.spec"), str(Path(tmp) / seq.name)),
                    "filter": ("filter", str(seq)),
                    "track": ("track", str(seq)),
                    "eval": ("eval", gt, results),
                }
                for stage, argv in stages.items():
                    peak = stage_peak(*argv)
                    print(f"{seed} {seq.name} {stage} {peak / 2**20:.1f} {peak / body:.2f}")


if __name__ == "__main__":
    main()
