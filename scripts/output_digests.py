#!/usr/bin/env python3
"""Byte-identity check for refactors: the sha256 of every input and output
of one benchmark workload.

Generates the workload's sequences as the benchmark's set-up does
(``perfbench/workloads.py``: one spec file per sequence, read back by
``macsort synth``, which writes it again as ``scenario.spec``), runs
``filter``, ``track`` and ``eval`` on them through ``macsort.cli.main`` in
a temporary directory (``eval`` twice: at its defaults, and with
``--hota-sweep``, which runs 19 matchings per frame), and prints one
``<seed> <sha256>  <sequence>/<file>`` line per file and seed. Run it on
two checkouts and diff the output: a change that claims to alter no
output prints the same lines.

Usage: python scripts/output_digests.py --workload crowd_dense --seed 0 1 2 3
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# this checkout's program and workloads; BLAS on one thread, as the benchmark runs it
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import macsort.cli  # noqa: E402

sys.dont_write_bytecode = True  # leave perfbench/ as it is
from perfbench.workloads import WORKLOADS, generate  # noqa: E402

FILES = ("scenario.spec", "gt.txt", "general.txt", "general.emb", "filtered.txt",
         "filtered.emb", "results.txt", "results.txt.metrics.json", "results.txt.sweep.json")


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = macsort.cli.main(list(argv))
    if code != 0:
        sys.exit(f"macsort {' '.join(argv)} exited {code}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, nargs="+", default=[0])
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    for seed in args.seed:
        with tempfile.TemporaryDirectory() as tmp:
            seqs = generate(workload.specs(seed), Path(tmp), workload.prompts)
            dirs = [str(seq) for seq in seqs]
            _cli("filter", *dirs)
            _cli("track", *dirs)
            for seq in seqs:
                gt, results = str(seq / "gt.txt"), str(seq / "results.txt")
                _cli("eval", gt, results)
                _cli("eval", gt, results, "--hota-sweep", "--json-out", results + ".sweep.json")
            for seq in seqs:
                for name in FILES:
                    digest = hashlib.sha256((seq / name).read_bytes()).hexdigest()
                    print(f"{seed} {digest}  {seq.name}/{name}")


if __name__ == "__main__":
    main()
